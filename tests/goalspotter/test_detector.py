"""Tests for the objective detector."""

import numpy as np
import pytest

from repro.datasets.reports import ReportGenerator
from repro.goalspotter.detector import DetectorConfig, ObjectiveDetector
from repro.models.training import FineTuneConfig


@pytest.fixture(scope="module")
def trained_detector():
    generator = ReportGenerator(seed=0)
    texts, labels = [], []
    rng = np.random.default_rng(0)
    for __ in range(300):
        if rng.random() < 0.5:
            block = generator._objective_block()
        else:
            block = generator._noise_block()
        texts.append(block.text)
        labels.append(int(block.is_objective))
    config = DetectorConfig(
        finetune=FineTuneConfig(epochs=3, learning_rate=1.5e-3)
    )
    return ObjectiveDetector(config).fit(texts, labels), generator


class TestObjectiveDetector:
    def test_fit_empty_raises(self):
        with pytest.raises(ValueError):
            ObjectiveDetector().fit([], [])

    def test_fit_mismatched_raises(self):
        with pytest.raises(ValueError):
            ObjectiveDetector().fit(["a"], [])

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            ObjectiveDetector().predict(["x"])

    def test_probabilities_in_range(self, trained_detector):
        detector, generator = trained_detector
        probs = detector.predict_proba(["Reduce waste by 20% by 2030."])
        assert 0.0 <= probs[0] <= 1.0

    def test_detects_held_out_blocks(self, trained_detector):
        """Accuracy on fresh blocks should be far above chance."""
        detector, generator = trained_detector
        texts, labels = [], []
        for __ in range(100):
            block = (
                generator._objective_block()
                if len(texts) % 2 == 0
                else generator._noise_block()
            )
            texts.append(block.text)
            labels.append(block.is_objective)
        predictions = detector.predict(texts)
        accuracy = np.mean(predictions == np.array(labels))
        assert accuracy > 0.8

    def test_empty_block_text_handled(self, trained_detector):
        detector, __ = trained_detector
        probs = detector.predict_proba(["...", ""])
        assert len(probs) == 2

    def test_repeated_blocks_encode_once_and_score_bitwise(
        self, trained_detector, monkeypatch
    ):
        detector, generator = trained_detector
        texts = [generator._objective_block().text for __ in range(4)]
        texts += [generator._noise_block().text for __ in range(4)]
        once = detector.predict_proba(texts)
        calls = []
        normalize = detector.normalizer

        def spy(text):
            calls.append(text)
            return normalize(text)

        monkeypatch.setattr(detector, "normalizer", spy)
        tripled = detector.predict_proba(texts * 3)
        np.testing.assert_array_equal(tripled, np.tile(once, 3))
        assert sorted(calls) == sorted(set(texts))
        stats = detector.last_run_stats
        assert stats.sequences == len(texts) * 3
        assert stats.padding_waste >= 0.0
