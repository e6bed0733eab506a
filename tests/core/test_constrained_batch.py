"""The batched IOB decode equals the per-sequence one, bit for bit.

``constrained_decode_batch`` runs one DP over a whole extract call; the
tests pin that batching changes no path (tie-heavy integer logits force
argmax tie-breaking constantly), that the grammar masks are built once
per scheme, and that ``extract_batch`` makes exactly one decode call
through the module-level name its per-call spans hook.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.constrained as constrained
import repro.core.extractor as extractor_module
from repro.core import constrained_decode_batch
from repro.core.constrained import constrained_decode
from repro.core.extractor import ExtractorConfig, WeakSupervisionExtractor
from repro.core.iob import LabelScheme
from repro.datasets.generator import ObjectiveGenerator
from repro.models.training import FineTuneConfig

SCHEME = LabelScheme(["A", "B", "C"])


def tie_heavy_batch(seed: int, count: int, max_length: int = 20):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(
            -2, 3, size=(int(rng.integers(0, max_length + 1)), len(SCHEME))
        ).astype(np.float32 if seed % 2 else np.float64)
        for __ in range(count)
    ]


class TestBatchEqualsSequential:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 100_000), count=st.integers(1, 16))
    def test_tie_heavy_integer_logits(self, seed, count):
        batch = tie_heavy_batch(seed, count)
        expected = [constrained_decode(x, SCHEME).tolist() for x in batch]
        assert constrained_decode_batch(batch, SCHEME) == expected

    @pytest.mark.parametrize("count", [1, 3, 16])
    def test_all_empty_batch(self, count):
        batch = [np.zeros((0, len(SCHEME))) for __ in range(count)]
        assert constrained_decode_batch(batch, SCHEME) == [[]] * count

    def test_no_sequences(self):
        assert constrained_decode_batch([], SCHEME) == []

    @pytest.mark.parametrize(
        "shape", [(2, 3), (len(SCHEME),), (1, 2, len(SCHEME))]
    )
    def test_shape_validated(self, shape):
        with pytest.raises(ValueError):
            constrained_decode_batch(
                [np.zeros((2, len(SCHEME))), np.zeros(shape)], SCHEME
            )

    def test_masks_are_cached_read_only(self):
        transitions, start = constrained._scheme_masks(SCHEME.fields)
        assert np.array_equal(transitions, constrained.transition_mask(SCHEME))
        assert np.array_equal(start, constrained.start_mask(SCHEME))
        assert not transitions.flags.writeable
        assert constrained._scheme_masks(SCHEME.fields)[0] is transitions


@pytest.fixture(scope="module")
def fitted():
    objectives = ObjectiveGenerator(seed=70).generate_many(40)
    config = ExtractorConfig(
        finetune=FineTuneConfig(epochs=1, learning_rate=1e-3),
        num_merges=200,
    )
    return WeakSupervisionExtractor(config).fit(objectives)


@pytest.fixture(scope="module")
def texts():
    objectives = ObjectiveGenerator(seed=71).generate_many(12)
    return [objective.text for objective in objectives] + ["...", ""]


class TestExtractorDecode:
    def test_masks_built_once_per_scheme(self, fitted, texts, monkeypatch):
        calls = []
        original = constrained.transition_mask

        def spy(scheme):
            calls.append(scheme.fields)
            return original(scheme)

        monkeypatch.setattr(constrained, "transition_mask", spy)
        constrained._scheme_masks.cache_clear()
        for __ in range(3):
            fitted.extract_batch(texts)
            fitted.extract_batch(texts[:1])
        assert calls == [fitted.scheme.fields]

    def test_one_decode_call_per_extract_call(
        self, fitted, texts, monkeypatch
    ):
        calls = []
        original = extractor_module.constrained_decode

        def spy(logits, scheme):
            calls.append(len(logits))
            return original(logits, scheme)

        monkeypatch.setattr(extractor_module, "constrained_decode", spy)
        fitted.extract_batch(texts)
        # The empty text has no word tokens and never reaches the model.
        assert calls == [len(texts) - 1]

    def test_batched_results_equal_one_text_calls(self, fitted, texts):
        assert fitted.extract_batch(texts) == [
            fitted.extract_batch([text])[0] for text in texts
        ]
