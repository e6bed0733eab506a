"""Cost-optimal length-bucketed batch planning for inference.

Arrival-order chunking pads every sequence in a chunk to the chunk's longest
member, so a mixed-length corpus spends most of its FLOPs on padding. The
planner here sorts sequences by token count (a stable sort, so ties keep
arrival order) and cuts the sorted order into the microbatches of least
total cost, where a microbatch costs its padded footprint ``rows * width``
plus :data:`MICROBATCH_COST_TOKENS` for the encoder call itself. Every
microbatch stays under a *token budget* on that footprint — the batch the
encoder will actually see, not a fixed row count. The plan records the
original index of every row so callers can restore arrival order exactly.

The plan carries explicit width decisions; ``repro.nn.batching.pad_sequences``
accepts them via its ``width`` argument so padding and planning cannot
disagree. Combined with the width-invariant attention softmax
(:func:`repro.nn.functional.masked_softmax`) and the pinned-length context
contraction (``MultiHeadSelfAttention.ctx_pad_to``), a sequence's logits are
bitwise-identical no matter which microbatch it lands in, which is what lets
``tests/runtime/test_equivalence.py`` compare bucketed and arrival-order
plans with ``np.array_equal`` — and what makes the choice of cuts a pure
throughput decision.

:func:`predict_distinct` is the classifiers' inference loop on top of the
planner: it runs each distinct id sequence of a call once and fans the
result out to its duplicates.
"""

from __future__ import annotations

import dataclasses
import heapq
import sys
from collections.abc import Callable, Sequence

import numpy as np

from repro.nn.batching import pad_sequences
from repro.nn.module import Module, inference_mode
from repro.runtime import rescache
from repro.runtime.profiling import PerfCounters

#: Fixed cost of one encoder call, in padded tokens. Calibrated on a 2-core
#: x86-64 host (numpy 2.4.6, OpenBLAS 0.3.31, one BLAS thread): the 580
#: microbatch shapes the planner cuts on perfbench's ``extract`` corpus,
#: each timed as the fastest of 7 forwards at the detector (dim 64, 2
#: layers) and extractor (dim 96, 3 layers) geometry, fit as ``seconds =
#: a * padded_tokens + b`` by least squares on relative error:
#:
#: - detector: 6.7e-6 s/token + 3.6e-4 s, so b / a = 54 tokens;
#: - extractor: 1.4e-5 s/token + 5.1e-4 s, so b / a = 37 tokens.
#:
#: One constant serves both models, so it sits between the two fits.
#: Plain least squares puts the intercept near zero: past about 1,000
#: padded tokens the per-token cost climbs again as the working set
#: leaves cache, so large microbatches dominate that fit.
MICROBATCH_COST_TOKENS = 48


@dataclasses.dataclass(frozen=True)
class Microbatch:
    """One padded batch the model will run: row order is ``indices``."""

    indices: tuple[int, ...]  # original sequence positions, row order
    width: int  # padded time dimension

    @property
    def rows(self) -> int:
        return len(self.indices)

    @property
    def padded_tokens(self) -> int:
        """The padded footprint the encoder computes over."""
        return self.rows * self.width


@dataclasses.dataclass(frozen=True)
class BatchPlan:
    """A partition of sequence indices into microbatches."""

    microbatches: tuple[Microbatch, ...]
    total_tokens: int  # sum of effective (clipped) sequence lengths
    padded_tokens: int  # sum of microbatch padded footprints

    @property
    def num_sequences(self) -> int:
        return sum(batch.rows for batch in self.microbatches)

    @property
    def padding_waste(self) -> float:
        """Fraction of the computed footprint that is padding."""
        if self.padded_tokens == 0:
            return 0.0
        return 1.0 - self.total_tokens / self.padded_tokens


def plan_batches(
    lengths: Sequence[int],
    token_budget: int = 4096,
    max_len: int | None = None,
    max_rows: int | None = None,
    sort_by_length: bool = True,
) -> BatchPlan:
    """Plan microbatches over sequences of the given token counts.

    With ``sort_by_length`` the sequences are stably sorted by effective
    length and the sorted order is cut into the contiguous microbatches
    that minimise ``sum(rows * width + MICROBATCH_COST_TOKENS)`` under the
    budget and row caps (see :func:`_min_cost_cuts`). Without it, arrival
    order is chunked greedily: a chunk closes when the next sequence would
    break the budget or ``max_rows``.

    Args:
        lengths: per-sequence token counts, in arrival order.
        token_budget: cap on a microbatch's padded footprint
            (``rows * width``). A single sequence longer than the budget
            still gets a (singleton) microbatch.
        max_len: model length cap; longer sequences are budgeted at the
            clipped length (padding then truncates to the same width).
        max_rows: optional cap on rows per microbatch. With
            ``sort_by_length=False`` and a generous budget this reproduces
            naive arrival-order chunking exactly.
        sort_by_length: sort sequences by token count before cutting
            (stable, so equal lengths keep arrival order).

    Returns:
        A :class:`BatchPlan` whose microbatches partition
        ``range(len(lengths))`` — every index appears in exactly one
        microbatch, exactly once. The plan is a pure function of the
        arguments.
    """
    if token_budget <= 0:
        raise ValueError("token_budget must be positive")
    if max_rows is not None and max_rows <= 0:
        raise ValueError("max_rows must be positive")

    # Effective length: what the padded batch will actually be sized by.
    # int() so numpy counts (e.g. ``mask.sum(1)``) yield Python ints.
    clip = max_len or sys.maxsize
    effective = [max(1, min(int(length), clip)) for length in lengths]

    def capacity(width: int) -> int:
        rows = max(1, token_budget // width)
        return rows if max_rows is None else min(rows, max_rows)

    order = list(range(len(lengths)))
    cuts = []  # (end position in ``order``, microbatch width)
    if sort_by_length:
        order.sort(key=effective.__getitem__)
        widths = [effective[index] for index in order]
        for end in _min_cost_cuts(widths, capacity):
            cuts.append((end, widths[end - 1]))
    else:
        start = width = 0
        for position, index in enumerate(order):
            grown = max(width, effective[index])
            if position > start and position - start >= capacity(grown):
                cuts.append((position, width))
                start, grown = position, effective[index]
            width = grown
        if order:
            cuts.append((len(order), width))

    microbatches = []
    start = padded = 0
    for end, width in cuts:
        microbatches.append(Microbatch(tuple(order[start:end]), width))
        padded += (end - start) * width
        start = end
    total = sum(effective)
    return BatchPlan(tuple(microbatches), total, padded)


def _min_cost_cuts(
    widths: list[int], capacity: Callable[[int], int]
) -> list[int]:
    """End positions of the least-cost contiguous cuts of sorted ``widths``.

    A microbatch ``[start, end)`` is padded to ``widths[end - 1]`` and may
    hold ``capacity(widths[end - 1])`` rows; it costs ``rows * width +
    MICROBATCH_COST_TOKENS``. Two facts keep the search small:

    - Some optimal plan cuts only at the end of a run of equal widths, or
      where a microbatch is full. Moving a row of width ``v`` back across
      a cut inside its run adds ``v`` to the earlier microbatch and takes
      at least ``v`` off the later one, so a cut inside a run pays off
      only where capacity forces it — and a full microbatch from a given
      start ends at exactly one position.
    - A microbatch ``[start, end)`` of width ``w`` is strictly beaten by
      splitting it at a run end ``mid`` of width ``u`` once ``(mid -
      start) * (w - u)`` exceeds the per-call cost. Widths only grow
      along the sorted order, so every longer microbatch from ``start``
      is beaten too and the scan from ``start`` stops.

    States are cut positions, settled in increasing order (every
    microbatch runs forward), so each is final when popped.
    """
    count = len(widths)
    if count == 0:
        return []
    run_ends = [
        position
        for position in range(1, count + 1)
        if position == count or widths[position] != widths[position - 1]
    ]
    run_widths = [widths[end - 1] for end in run_ends]
    run_caps = [capacity(width) for width in run_widths]
    run_starts = [0] + run_ends[:-1]
    max_width = run_widths[-1]

    best: list[int | None] = [0] + [None] * count
    previous = [0] * (count + 1)
    frontier = [(0, 0)]  # (cut position, index of the run it starts in)
    while frontier:
        start, first_run = heapq.heappop(frontier)
        if start == count:
            break
        base = best[start] + MICROBATCH_COST_TOKENS
        # Widest microbatch from ``start`` that no earlier split beats.
        limit = max_width
        for run in range(first_run, len(run_ends)):
            width = run_widths[run]
            if width > limit:
                break
            end = run_ends[run]
            if end - start > run_caps[run]:
                # Capacity runs out inside this run: the one full cut.
                end = start + run_caps[run]
                if end <= run_starts[run]:
                    break
            cost = base + (end - start) * width
            known = best[end]
            if known is None:
                next_run = run + 1 if end == run_ends[run] else run
                heapq.heappush(frontier, (end, next_run))
            if known is None or cost < known:
                best[end] = cost
                previous[end] = start
            if end != run_ends[run]:
                break
            bound = width + MICROBATCH_COST_TOKENS // (end - start)
            if bound < limit:
                limit = bound
    ends = [count]
    while ends[-1]:
        ends.append(previous[ends[-1]])
    return ends[-2::-1]


def predict_distinct(
    model: Module,
    sequences: Sequence[Sequence[int]],
    forward: Callable[[np.ndarray, np.ndarray], np.ndarray],
    *,
    per_token: bool,
    batch_size: int,
    token_budget: int | None,
    sort_by_length: bool,
    counters: PerfCounters | None,
    cache: rescache.ResultCache | None,
) -> list[np.ndarray]:
    """Run ``forward`` once per distinct id sequence; one result per input.

    The classifiers' shared inference loop. Inputs are grouped by ids and
    only the first of each group is planned, padded and run; the others
    get copies. Packing invariance makes a copy bitwise what a redundant
    forward would produce. A ``cache`` adds reuse across calls: every
    input is looked up by content key first and computed rows are put.

    ``forward(ids, mask)`` returns one output row per microbatch row;
    ``per_token`` trims each row to its unpadded length (a copy), else a
    row is returned whole (it may view the batch output). ``counters``
    gets ``sequences`` (inputs), ``microbatches``, ``padded_tokens`` and
    ``total_tokens`` (computed work, plus cache-served tokens when a
    cache is attached) and the ``result_cache_*`` counters.
    """
    model.eval()
    if not sequences:
        return []
    max_len = model.config.max_len
    results: list = [None] * len(sequences)
    first_of: dict[tuple[int, ...], int] = {}
    compute: list[int] = []  # first index of each distinct computed input
    copies: list[tuple[int, int]] = []  # (duplicate index, its first)
    key_of: dict[int, str] = {}
    hits = cached_tokens = 0
    if cache is not None:
        fingerprint = model.fingerprint()
    for index, seq in enumerate(sequences):
        if cache is not None:
            key = rescache.result_key(seq, fingerprint)
            found = cache.get(key)
            if found is not None:
                results[index] = found.copy()
                hits += 1
                cached_tokens += max(1, min(len(seq), max_len))
                continue
            key_of[index] = key
        ids = tuple(seq)
        first = first_of.get(ids)
        if first is None:
            first_of[ids] = index
            compute.append(index)
        else:
            copies.append((index, first))
    plan = None
    evictions = 0
    if compute:
        plan = plan_batches(
            [len(sequences[index]) for index in compute],
            token_budget=token_budget or batch_size * max_len,
            max_len=max_len,
            max_rows=None if sort_by_length else batch_size,
            sort_by_length=sort_by_length,
        )
        with inference_mode():
            for microbatch in plan.microbatches:
                chunk = [compute[position] for position in microbatch.indices]
                ids, mask = pad_sequences(
                    [sequences[index] for index in chunk],
                    pad_value=model.config.pad_id,
                    width=microbatch.width,
                )
                batch = forward(ids, mask)
                for row, index in enumerate(chunk):
                    if per_token:
                        length = min(len(sequences[index]), microbatch.width)
                        results[index] = batch[row, :length].copy()
                    else:
                        results[index] = batch[row]
                    if cache is not None:
                        evictions += cache.put(key_of[index], results[index])
    for index, first in copies:
        results[index] = results[first].copy()
        if cache is not None:
            cached_tokens += max(1, min(len(sequences[index]), max_len))
    if counters is not None:
        counters.add("sequences", len(sequences))
        counters.add("microbatches", len(plan.microbatches) if plan else 0)
        counters.add(
            "total_tokens", (plan.total_tokens if plan else 0) + cached_tokens
        )
        counters.add("padded_tokens", plan.padded_tokens if plan else 0)
        if cache is not None:
            counters.add(rescache.HITS, hits)
            counters.add(rescache.MISSES, len(sequences) - hits)
            counters.add(rescache.CACHED_TOKENS, cached_tokens)
            if evictions:
                counters.add(rescache.EVICTIONS, evictions)
            if not compute:
                counters.add(rescache.BYPASSES, 1)
    return results
