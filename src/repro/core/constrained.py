"""IOB-constrained decoding over token-classifier logits.

Independent per-token argmax can emit ill-formed label sequences (an
``I-f`` with no open span) and ragged spans (an ``O`` dropped in the middle
of an entity). Constrained Viterbi finds the highest-scoring label sequence
that is *well-formed* under the IOB grammar:

* the sequence starts with ``O`` or any ``B-f``;
* ``I-f`` may only follow ``B-f`` or ``I-f`` of the same field;
* everything else is unconstrained.

Scores are the model's raw per-token logits (no learned transitions), so
this is pure structured inference on top of the fine-tuned model.

:func:`viterbi_paths` is the one Viterbi kernel of the package: the
constrained decode runs it with the grammar's masks as transitions, and
:class:`repro.crf.model.LinearChainCRF` with its learned weights.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence

import numpy as np

from repro.core.iob import LabelScheme

_NEG_INF = -1e30


def transition_mask(scheme: LabelScheme) -> np.ndarray:
    """``(L, L)`` matrix: 0 where the transition is legal, -inf where not."""
    size = len(scheme)
    mask = np.zeros((size, size))
    for previous_id, previous in enumerate(scheme.labels):
        for current_id, current in enumerate(scheme.labels):
            if not current.startswith("I-"):
                continue
            field = current[2:]
            legal = previous in (f"B-{field}", f"I-{field}")
            if not legal:
                mask[previous_id, current_id] = _NEG_INF
    return mask


def start_mask(scheme: LabelScheme) -> np.ndarray:
    """``(L,)`` vector: -inf on labels that cannot start a sequence."""
    mask = np.zeros(len(scheme))
    for label_id, label in enumerate(scheme.labels):
        if label.startswith("I-"):
            mask[label_id] = _NEG_INF
    return mask


@functools.lru_cache(maxsize=16)
def _scheme_masks(fields: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ``(transition_mask, start_mask)`` of one field inventory."""
    scheme = LabelScheme(fields)
    masks = (transition_mask(scheme), start_mask(scheme))
    for mask in masks:
        mask.setflags(write=False)
    return masks


def viterbi_paths(
    emissions: Sequence[np.ndarray],
    transitions: np.ndarray,
    start: np.ndarray,
    end: np.ndarray | None = None,
) -> list[list[int]]:
    """Best label path of each ``(T_i, L)`` emission matrix, in one DP.

    A path scores ``start[y_0] + sum_t emissions[t, y_t] + sum_t
    transitions[y_{t-1}, y_t] (+ end[y_last])``. The DP runs over a
    length-padded batch: per step, one ``(n, L, L)`` score tensor laid out
    ``[row, current, previous]``, its ``argmax`` over the previous label,
    and a gather of the maxima at those indices. Each cell is the same
    ``delta_i + transitions[i, j]`` sum in float64 that a per-sequence
    loop computes, and ``argmax`` keeps numpy's first-maximum tie-breaking
    over ``i``, so every path is bitwise the one the sequence would get
    decoded alone. Rows that have ended keep their ``delta`` frozen;
    ``np.where`` only runs once the shortest row has ended.
    """
    lengths = [len(sequence) for sequence in emissions]
    width = max(lengths, default=0)
    if width == 0:
        return [[] for __ in lengths]
    count, size = len(lengths), transitions.shape[0]
    padded = np.zeros((count, width, size))
    for row, sequence in enumerate(emissions):
        padded[row, : lengths[row]] = sequence
    incoming = np.ascontiguousarray(transitions.T)
    row_offsets = np.arange(0, count * size * size, size)
    shortest = min(length for length in lengths if length)
    ended = np.asarray(lengths)[:, None]
    delta = start + padded[:, 0]
    backpointers = np.empty((width, count, size), dtype=np.intp)
    for t in range(1, width):
        scores = delta[:, None, :] + incoming
        best_previous = backpointers[t]
        scores.argmax(axis=2, out=best_previous)
        best = scores.ravel()[row_offsets + best_previous.ravel()].reshape(
            count, size
        )
        best += padded[:, t]
        delta = best if t < shortest else np.where(t < ended, best, delta)
    if end is not None:
        delta = delta + end
    last = delta.argmax(axis=1).tolist()
    paths: list[list[int]] = []
    for row, length in enumerate(lengths):
        if length == 0:
            paths.append([])
            continue
        pointers = backpointers[1:length, row].tolist()
        label = last[row]
        path = [label]
        for step in reversed(pointers):
            label = step[label]
            path.append(label)
        path.reverse()
        paths.append(path)
    return paths


def constrained_decode_batch(
    logits: Sequence[np.ndarray], scheme: LabelScheme
) -> list[list[int]]:
    """Highest-scoring well-formed IOB path of each ``(T_i, L)`` logits.

    One batched DP for the whole call (:func:`viterbi_paths`); the masks
    are built once per field inventory and cached.
    """
    for matrix in logits:
        if np.ndim(matrix) != 2 or np.shape(matrix)[1] != len(scheme):
            raise ValueError(
                f"logits of shape {np.shape(matrix)} do not fit the "
                f"scheme's {len(scheme)} labels"
            )
    transitions, start = _scheme_masks(scheme.fields)
    return viterbi_paths(logits, transitions, start)


def constrained_decode(
    logits: np.ndarray, scheme: LabelScheme
) -> np.ndarray:
    """Highest-scoring well-formed IOB sequence for ``(T, L)`` logits."""
    (path,) = constrained_decode_batch([logits], scheme)
    return np.asarray(path, dtype=np.int64)
