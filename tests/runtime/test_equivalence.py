"""Numeric-equivalence guarantees of the batched inference runtime.

The bucketed scheduler's whole contract is that it changes throughput and
nothing else: a sequence's logits must be bitwise-identical no matter which
microbatch (or pad width) it lands in, and inference mode must be a pure
cache-skipping optimization with zero numeric effect.
"""

import numpy as np
import pytest

from repro.models.sequence_classifier import SequenceClassifier
from repro.models.token_classifier import TokenClassifier
from repro.nn.batching import pad_sequences
from repro.nn.encoder import EncoderConfig
from repro.nn.functional import softmax
from repro.nn.module import inference_mode
from repro.runtime.scheduler import plan_batches


@pytest.fixture
def config():
    return EncoderConfig(
        vocab_size=50, dim=16, num_layers=2, num_heads=2, ffn_dim=32,
        max_len=24, dropout=0.1,
    )


@pytest.fixture
def mixed_sequences(rng):
    """Lengths spanning singletons to beyond max_len, shuffled."""
    lengths = [1, 2, 3, 3, 5, 7, 8, 11, 15, 20, 24, 30, 4, 2, 19, 9]
    return [list(rng.integers(1, 50, size=length)) for length in lengths]


class TestBucketedEqualsNaive:
    def test_token_logits_bitwise_identical(
        self, config, rng, mixed_sequences
    ):
        model = TokenClassifier(config, num_labels=4, rng=rng)
        naive = model.predict_logits(
            mixed_sequences, batch_size=4, sort_by_length=False
        )
        for token_budget in (32, 64, 4096):
            bucketed = model.predict_logits(
                mixed_sequences, token_budget=token_budget
            )
            for naive_logits, bucketed_logits in zip(naive, bucketed):
                assert np.array_equal(naive_logits, bucketed_logits)

    def test_token_predictions_identical(self, config, rng, mixed_sequences):
        model = TokenClassifier(config, num_labels=4, rng=rng)
        naive = model.predict(mixed_sequences, sort_by_length=False)
        bucketed = model.predict(mixed_sequences, token_budget=48)
        assert len(naive) == len(bucketed)
        for naive_labels, bucketed_labels in zip(naive, bucketed):
            assert np.array_equal(naive_labels, bucketed_labels)

    def test_sequence_predictions_match(self, config, rng, mixed_sequences):
        model = SequenceClassifier(config, num_classes=3, rng=rng)
        naive = model.predict_proba(mixed_sequences, sort_by_length=False)
        bucketed = model.predict_proba(mixed_sequences, token_budget=48)
        # bitwise, not allclose: width-invariant pooling + row-invariant
        # head make sequence scores independent of batch packing too
        assert np.array_equal(naive, bucketed)
        singles = np.concatenate(
            [
                model.predict_proba([sequence], sort_by_length=False)
                for sequence in mixed_sequences
            ]
        )
        assert np.array_equal(naive, singles)

    def test_logits_independent_of_pad_width(self, config, rng):
        """The core invariant: pad width never changes a real row's output."""
        model = TokenClassifier(config, num_labels=4, rng=rng)
        model.eval()
        sequence = list(rng.integers(1, 50, size=9))
        with inference_mode():
            outputs = []
            for width in (9, 16, 24):
                ids, mask = pad_sequences(
                    [sequence], max_len=config.max_len, width=width
                )
                outputs.append(model(ids, mask)[0, :9])
        assert np.array_equal(outputs[0], outputs[1])
        assert np.array_equal(outputs[0], outputs[2])


class TestWidthInvarianceAtProductionGeometry:
    """Pad widths that straddle the BLAS kernel switch at 32.

    The fixtures above use ``max_len=24``, so no pad width reaches 32; a
    context contraction shorter than 32 can round differently from a
    longer one on some BLAS builds. These run the detector and extractor
    geometry (``max_len=96``) at widths on both sides of that switch.
    """

    WIDTHS = (31, 32, 33, 64, 96)

    def _batches(self, rng, sequence):
        """``(ids, mask)`` holding ``sequence`` in row 0 at each width.

        A filler row of exactly the pad width sits beside it, as in a
        planned microbatch, whose width is its longest row's length.
        """
        yield pad_sequences([sequence], width=len(sequence))
        for width in self.WIDTHS:
            filler = list(rng.integers(1, 50, size=width))
            yield pad_sequences([sequence, filler], width=width)

    @pytest.mark.parametrize("length", [5, 20, 30])
    def test_token_logits_bitwise_across_widths(self, rng, length):
        config = EncoderConfig(
            vocab_size=50, dim=96, num_layers=3, num_heads=4, ffn_dim=192,
            max_len=96, dropout=0.1,
        )
        model = TokenClassifier(config, num_labels=9, rng=rng)
        model.eval()
        sequence = list(rng.integers(1, 50, size=length))
        with inference_mode():
            outputs = [
                model(ids, mask)[0, :length]
                for ids, mask in self._batches(rng, sequence)
            ]
        for output in outputs[1:]:
            assert np.array_equal(outputs[0], output)

    @pytest.mark.parametrize("length", [5, 20, 30])
    def test_detector_probability_bitwise_across_widths(self, rng, length):
        config = EncoderConfig(
            vocab_size=50, dim=64, num_layers=2, num_heads=4, ffn_dim=128,
            max_len=96, dropout=0.1,
        )
        model = SequenceClassifier(config, num_classes=2, rng=rng)
        model.eval()
        sequence = list(rng.integers(1, 50, size=length))
        with inference_mode():
            outputs = [
                softmax(model(ids, mask), axis=-1)[0]
                for ids, mask in self._batches(rng, sequence)
            ]
        for output in outputs[1:]:
            assert np.array_equal(outputs[0], output)


class TestInferenceModeIsPureOptimization:
    def test_inference_mode_outputs_identical(self, config, rng):
        model = TokenClassifier(config, num_labels=4, rng=rng)
        model.eval()
        ids = rng.integers(1, 50, size=(3, 10))
        mask = np.ones((3, 10), dtype=np.float32)
        plain = model(ids, mask)
        with inference_mode():
            optimized = model(ids, mask)
        assert np.array_equal(plain, optimized)

    def test_eval_matches_train_with_zero_dropout(self, rng):
        config = EncoderConfig(
            vocab_size=50, dim=16, num_layers=2, num_heads=2, ffn_dim=32,
            max_len=24, dropout=0.0,
        )
        model = TokenClassifier(config, num_labels=4, rng=rng)
        ids = rng.integers(1, 50, size=(3, 10))
        mask = np.ones((3, 10), dtype=np.float32)
        model.train()
        train_out = model(ids, mask)
        model.eval()
        eval_out = model(ids, mask)
        assert np.array_equal(train_out, eval_out)

    def test_inference_mode_skips_backward_caches(self, config, rng):
        model = TokenClassifier(config, num_labels=4, rng=rng)
        model.eval()
        ids = rng.integers(1, 50, size=(2, 8))
        mask = np.ones((2, 8), dtype=np.float32)
        with inference_mode():
            model(ids, mask)
        attention = model.encoder.layers[0].attention
        assert attention._cache is None
        assert model.encoder.layers[0].ffn._pre_activation is None
        assert model.encoder._positions is None


class TestSchedulerMatchesModelChunking:
    def test_arrival_plan_reproduces_legacy_chunk_widths(self, config):
        """The naive path is itself scheduler-driven; widths must agree."""
        lengths = [5, 24, 2, 17, 9, 1, 30, 3]
        batch_size = 3
        plan = plan_batches(
            lengths,
            token_budget=batch_size * config.max_len,
            max_len=config.max_len,
            max_rows=batch_size,
            sort_by_length=False,
        )
        expected_widths = []
        for start in range(0, len(lengths), batch_size):
            chunk = lengths[start : start + batch_size]
            expected_widths.append(
                min(max(max(chunk), 1), config.max_len)
            )
        assert [m.width for m in plan.microbatches] == expected_widths
