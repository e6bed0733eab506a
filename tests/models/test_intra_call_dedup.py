"""Intra-call dedup: each distinct input runs through the encoder once.

Dedup is unconditional — no cache is attached anywhere here. Packing
invariance makes the copies fanned out to duplicates bitwise what a
redundant forward would have produced, so a call over a corpus must equal
the per-sequence calls exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models.sequence_classifier import SequenceClassifier
from repro.models.token_classifier import TokenClassifier
from repro.nn.encoder import EncoderConfig
from repro.runtime.profiling import PerfCounters

CONFIG = EncoderConfig(
    vocab_size=50, dim=16, num_layers=1, num_heads=2, ffn_dim=32,
    max_len=12, dropout=0.0,
)


@pytest.fixture(scope="module")
def token_model():
    return TokenClassifier(CONFIG, num_labels=4, rng=np.random.default_rng(21))


@pytest.fixture(scope="module")
def seq_model():
    return SequenceClassifier(
        CONFIG, num_classes=3, rng=np.random.default_rng(22)
    )


def corpus_with_duplicates(seed: int, distinct: int, size: int):
    """``size`` sequences drawn (with repeats) from ``distinct`` ones."""
    rng = np.random.default_rng(seed)
    pool = [
        list(map(int, rng.integers(1, 50, size=int(rng.integers(1, 16)))))
        for __ in range(distinct)
    ]
    corpus = [list(pool[int(rng.integers(distinct))]) for __ in range(size)]
    corpus.append(list(corpus[0]))  # at least one duplicate
    return corpus


corpora = st.builds(
    corpus_with_duplicates,
    seed=st.integers(0, 10_000),
    distinct=st.integers(1, 6),
    size=st.integers(1, 20),
)


class TestTokenClassifierDedup:
    @settings(max_examples=10, deadline=None)
    @given(corpus=corpora)
    def test_batched_equals_per_sequence_bitwise(self, token_model, corpus):
        batched = token_model.predict_logits(corpus)
        assert len(batched) == len(corpus)
        for seq, logits in zip(corpus, batched):
            np.testing.assert_array_equal(
                token_model.predict_logits([seq])[0], logits
            )

    def test_copies_run_one_microbatch(self, token_model):
        single = PerfCounters()
        token_model.predict_logits([[7, 8, 9]], counters=single)
        counters = PerfCounters()
        outputs = token_model.predict_logits(
            [[7, 8, 9]] * 6, counters=counters
        )
        values = counters.snapshot()
        assert values["sequences"] == 6
        assert values["microbatches"] == 1
        assert values["padded_tokens"] == single.get("padded_tokens") == 3
        assert values["total_tokens"] == 3
        for logits in outputs[1:]:
            np.testing.assert_array_equal(outputs[0], logits)

    def test_fanned_out_arrays_are_independent(self, token_model):
        first, twin = token_model.predict_logits([[4, 5, 6], [4, 5, 6]])
        assert not np.shares_memory(first, twin)
        before = twin.copy()
        first += 1.0
        np.testing.assert_array_equal(twin, before)


class TestSequenceClassifierDedup:
    @settings(max_examples=10, deadline=None)
    @given(corpus=corpora)
    def test_batched_equals_per_sequence_bitwise(self, seq_model, corpus):
        batched = seq_model.predict_proba(corpus)
        assert batched.shape == (len(corpus), 3)
        for seq, row in zip(corpus, batched):
            np.testing.assert_array_equal(seq_model.predict_proba([seq])[0], row)

    def test_copies_run_one_microbatch(self, seq_model):
        counters = PerfCounters()
        rows = seq_model.predict_proba([[3, 1, 4, 1]] * 6, counters=counters)
        values = counters.snapshot()
        assert values["sequences"] == 6
        assert values["microbatches"] == 1
        assert values["padded_tokens"] == 4
        np.testing.assert_array_equal(rows, np.tile(rows[0], (6, 1)))
