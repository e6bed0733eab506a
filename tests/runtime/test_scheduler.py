"""Property and example tests for the length-bucketed batch planner."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.scheduler import (
    MICROBATCH_COST_TOKENS,
    Microbatch,
    plan_batches,
)

lengths_strategy = st.lists(
    st.integers(min_value=0, max_value=300), min_size=0, max_size=120
)
budget_strategy = st.integers(min_value=1, max_value=512)
max_len_strategy = st.one_of(
    st.none(), st.integers(min_value=1, max_value=128)
)


class TestPlanIsPermutationPartition:
    @given(
        lengths=lengths_strategy,
        token_budget=budget_strategy,
        max_len=max_len_strategy,
        max_rows=st.one_of(st.none(), st.integers(1, 16)),
        sort_by_length=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_index_exactly_once(
        self, lengths, token_budget, max_len, max_rows, sort_by_length
    ):
        plan = plan_batches(
            lengths,
            token_budget=token_budget,
            max_len=max_len,
            max_rows=max_rows,
            sort_by_length=sort_by_length,
        )
        flat = [
            index
            for microbatch in plan.microbatches
            for index in microbatch.indices
        ]
        assert sorted(flat) == list(range(len(lengths)))

    @given(
        lengths=lengths_strategy,
        token_budget=budget_strategy,
        max_len=max_len_strategy,
    )
    @settings(max_examples=200, deadline=None)
    def test_order_restoration_is_exact(self, lengths, token_budget, max_len):
        """Scattering microbatch rows back by index recovers arrival order."""
        plan = plan_batches(lengths, token_budget=token_budget, max_len=max_len)
        restored = [None] * len(lengths)
        for microbatch in plan.microbatches:
            for row, index in enumerate(microbatch.indices):
                assert restored[index] is None  # no double-writes
                restored[index] = (microbatch, row)
        assert all(slot is not None for slot in restored)

    @given(
        lengths=lengths_strategy,
        token_budget=budget_strategy,
        max_len=max_len_strategy,
        max_rows=st.one_of(st.none(), st.integers(1, 16)),
        sort_by_length=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_budget_respected_unless_singleton_oversized(
        self, lengths, token_budget, max_len, max_rows, sort_by_length
    ):
        plan = plan_batches(
            lengths,
            token_budget=token_budget,
            max_len=max_len,
            max_rows=max_rows,
            sort_by_length=sort_by_length,
        )
        for microbatch in plan.microbatches:
            if microbatch.padded_tokens > token_budget:
                # Only a single sequence longer than the whole budget may
                # exceed it, and then only as a singleton.
                assert microbatch.rows == 1
            if max_rows is not None:
                assert microbatch.rows <= max_rows

    @given(
        lengths=lengths_strategy,
        token_budget=budget_strategy,
        max_len=st.integers(min_value=1, max_value=128),
    )
    @settings(max_examples=100, deadline=None)
    def test_widths_cover_clipped_lengths(self, lengths, token_budget, max_len):
        """Every row fits its microbatch width; no width exceeds max_len."""
        plan = plan_batches(lengths, token_budget=token_budget, max_len=max_len)
        for microbatch in plan.microbatches:
            assert 1 <= microbatch.width <= max_len
            for index in microbatch.indices:
                effective = max(1, min(lengths[index], max_len))
                assert effective <= microbatch.width


class TestPlanBatchesExamples:
    def test_empty_input(self):
        plan = plan_batches([])
        assert plan.microbatches == ()
        assert plan.total_tokens == 0
        assert plan.padding_waste == 0.0

    def test_sorting_is_stable_on_ties(self):
        plan = plan_batches([4, 4, 4], token_budget=1000)
        assert plan.microbatches[0].indices == (0, 1, 2)

    def test_bucketing_reduces_padding_vs_arrival(self):
        # Alternating short/long: arrival-order chunks pad every short
        # sequence to the long width; sorting separates them.
        lengths = [2, 50] * 10
        arrival = plan_batches(
            lengths, token_budget=4 * 50, max_rows=4, sort_by_length=False
        )
        bucketed = plan_batches(lengths, token_budget=4 * 50)
        assert bucketed.padding_waste < arrival.padding_waste

    def test_arrival_mode_reproduces_fixed_chunking(self):
        """sort=False + max_rows reproduces the legacy fixed-size chunks."""
        lengths = [7, 3, 9, 2, 5, 8, 1]
        batch_size, max_len = 3, 16
        plan = plan_batches(
            lengths,
            token_budget=batch_size * max_len,
            max_len=max_len,
            max_rows=batch_size,
            sort_by_length=False,
        )
        assert [m.indices for m in plan.microbatches] == [
            (0, 1, 2),
            (3, 4, 5),
            (6,),
        ]
        assert [m.width for m in plan.microbatches] == [9, 8, 1]

    def test_oversized_singleton_allowed(self):
        plan = plan_batches([100], token_budget=10)
        assert plan.microbatches == (Microbatch((0,), 100),)

    def test_zero_length_treated_as_one(self):
        plan = plan_batches([0, 0], token_budget=10)
        assert plan.total_tokens == 2

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            plan_batches([1], token_budget=0)

    def test_invalid_max_rows_rejected(self):
        with pytest.raises(ValueError):
            plan_batches([1], max_rows=0)


def _plan_cost(plan):
    return plan.padded_tokens + MICROBATCH_COST_TOKENS * len(plan.microbatches)


def _sorted_effective(lengths, max_len):
    return sorted(
        max(1, min(length, max_len) if max_len else length)
        for length in lengths
    )


def _fits(rows, width, token_budget, max_rows):
    if max_rows is not None and rows > max_rows:
        return False
    return rows == 1 or rows * width <= token_budget


def _brute_force_cost(lengths, token_budget, max_len, max_rows):
    """Least cost over every feasible contiguous cut of the sorted order."""
    widths = _sorted_effective(lengths, max_len)
    count = len(widths)
    if not count:
        return 0
    best = None
    for mask in range(1 << (count - 1)):
        cuts = [0]
        cuts += [gap + 1 for gap in range(count - 1) if mask >> gap & 1]
        cuts.append(count)
        cost = 0
        for start, end in zip(cuts, cuts[1:]):
            rows, width = end - start, widths[end - 1]
            if not _fits(rows, width, token_budget, max_rows):
                break
            cost += rows * width + MICROBATCH_COST_TOKENS
        else:
            if best is None or cost < best:
                best = cost
    return best


def _greedy_cost(lengths, token_budget, max_len, max_rows):
    """Cost of the fill-to-budget packing the planner used to do."""
    cost = rows = width = 0
    for length in _sorted_effective(lengths, max_len):
        if rows and not _fits(rows + 1, length, token_budget, max_rows):
            cost += rows * width + MICROBATCH_COST_TOKENS
            rows = 0
        rows, width = rows + 1, length
    if rows:
        cost += rows * width + MICROBATCH_COST_TOKENS
    return cost


class TestPlanIsCostOptimal:
    @given(
        lengths=st.lists(
            st.integers(min_value=0, max_value=120), min_size=0, max_size=8
        ),
        token_budget=st.integers(min_value=1, max_value=400),
        max_len=max_len_strategy,
        max_rows=st.one_of(st.none(), st.integers(1, 4)),
    )
    @settings(max_examples=300, deadline=None)
    def test_cost_equals_brute_force_minimum(
        self, lengths, token_budget, max_len, max_rows
    ):
        plan = plan_batches(
            lengths,
            token_budget=token_budget,
            max_len=max_len,
            max_rows=max_rows,
        )
        assert _plan_cost(plan) == _brute_force_cost(
            lengths, token_budget, max_len, max_rows
        )

    @given(
        lengths=lengths_strategy,
        token_budget=budget_strategy,
        max_len=max_len_strategy,
        max_rows=st.one_of(st.none(), st.integers(1, 16)),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_costs_more_than_greedy_fill(
        self, lengths, token_budget, max_len, max_rows
    ):
        plan = plan_batches(
            lengths,
            token_budget=token_budget,
            max_len=max_len,
            max_rows=max_rows,
        )
        assert _plan_cost(plan) <= _greedy_cost(
            lengths, token_budget, max_len, max_rows
        )

    def test_splits_where_padding_outweighs_a_call(self):
        # One microbatch of width 40 pads the 30 short rows by 36 tokens
        # each; a second call costs far less than that.
        plan = plan_batches([4] * 30 + [40] * 2, token_budget=4096)
        assert [m.width for m in plan.microbatches] == [4, 40]


class TestPythonInts:
    def test_numpy_lengths_yield_python_ints(self):
        mask = np.array([[1, 1, 0], [1, 1, 1], [1, 0, 0]])
        for sort_by_length in (True, False):
            plan = plan_batches(
                mask.sum(1), token_budget=8, sort_by_length=sort_by_length
            )
            assert type(plan.padded_tokens) is int
            assert type(plan.total_tokens) is int
            for microbatch in plan.microbatches:
                assert type(microbatch.width) is int
