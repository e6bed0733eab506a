"""Artifact-integrity tests for every persisted-model load surface.

Each save directory carries a checksum manifest; a single flipped byte in
any artifact must surface as a typed
:class:`~repro.runtime.errors.ArtifactError` at load time instead of
silently deserializing garbage, and every save must be atomic — a crash
between writing and publishing leaves the previous version untouched.
"""

import json

import numpy as np
import pytest

from repro.core.extractor import ExtractorConfig, WeakSupervisionExtractor
from repro.crf.extractor import CrfConfig, CrfDetailExtractor
from repro.models.training import FineTuneConfig
from repro.nn.serialize import load_state, save_state
from repro.runtime.checkpoint import (
    MANIFEST_NAME,
    verify_manifest,
    write_manifest,
)
from repro.runtime.errors import ArtifactError, ModelError
from repro.runtime.resilience import FaultInjector, FaultSpec
from repro.text.bpe import BpeTokenizer
from repro.text.vocab import Vocabulary

pytestmark = pytest.mark.checkpoint


def flip_one_byte(path) -> None:
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))


@pytest.fixture(scope="module")
def fitted_ws(tiny_dataset):
    config = ExtractorConfig(
        finetune=FineTuneConfig(epochs=1, batch_size=16), num_merges=80
    )
    return WeakSupervisionExtractor(config).fit(tiny_dataset.objectives[:40])


@pytest.fixture(scope="module")
def fitted_crf(tiny_dataset):
    return CrfDetailExtractor(config=CrfConfig(epochs=2)).fit(
        tiny_dataset.objectives[:40]
    )


class TestWeakSupervisionArtifacts:
    @pytest.fixture()
    def saved(self, fitted_ws, tmp_path):
        directory = tmp_path / "extractor"
        fitted_ws.save(directory)
        return directory

    def test_save_writes_verifiable_manifest(self, saved):
        manifest = verify_manifest(saved, kind="weak_supervision_extractor")
        assert set(manifest["artifacts"]) == {
            "config.json",
            "tokenizer.json",
            "model.npz",
        }
        assert not saved.with_name(saved.name + ".tmp").exists()

    @pytest.mark.parametrize(
        "artifact", ["config.json", "tokenizer.json", "model.npz"]
    )
    def test_flipped_byte_raises_artifact_error(self, saved, artifact):
        flip_one_byte(saved / artifact)
        with pytest.raises(ArtifactError):
            WeakSupervisionExtractor.load(saved)

    def test_missing_artifact_raises_artifact_error(self, saved):
        (saved / "model.npz").unlink()
        with pytest.raises(ArtifactError):
            WeakSupervisionExtractor.load(saved)

    def test_missing_directory_raises_artifact_error(self, tmp_path):
        with pytest.raises(ArtifactError):
            WeakSupervisionExtractor.load(tmp_path / "nope")

    def test_malformed_config_raises_artifact_error(self, saved):
        (saved / "config.json").write_text('{"fields": 3}', encoding="utf-8")
        (saved / MANIFEST_NAME).unlink()  # isolate the config-parse check
        with pytest.raises(ArtifactError):
            WeakSupervisionExtractor.load(saved)

    def test_premanifest_directory_still_loads(self, saved, fitted_ws):
        (saved / MANIFEST_NAME).unlink()
        loaded = WeakSupervisionExtractor.load(saved)
        text = "Reduce emissions by 40% by 2035."
        assert loaded.extract(text) == fitted_ws.extract(text)

    @pytest.mark.parametrize("quantize", [None, "int8"])
    def test_legacy_quantize_key_loads_as_fp32(
        self, saved, fitted_ws, quantize
    ):
        """Directories saved while the int8 path existed carry a
        ``quantize`` key. Their weights are the fp32 masters, so they
        load (checksums still verified) and predict what the freshly
        saved model predicts."""
        config = json.loads((saved / "config.json").read_text("utf-8"))
        config["quantize"] = quantize
        (saved / "config.json").write_text(json.dumps(config), "utf-8")
        write_manifest(
            saved,
            ["config.json", "tokenizer.json", "model.npz"],
            kind="weak_supervision_extractor",
        )
        loaded = WeakSupervisionExtractor.load(saved)
        texts = [
            "Reduce emissions by 40% by 2035.",
            "Cut water use by 30% compared to 2019 by 2030.",
        ]
        assert loaded.extract_batch(texts) == fitted_ws.extract_batch(texts)
        assert loaded.model.fingerprint() == fitted_ws.model.fingerprint()

    def test_crash_before_publish_preserves_previous_save(
        self, fitted_ws, tmp_path
    ):
        directory = tmp_path / "extractor"
        fitted_ws.save(directory)
        before = WeakSupervisionExtractor.load(directory)
        fitted_ws.fault_injector = FaultInjector(
            [FaultSpec(stage="save_commit", error="model", nth_calls=(1,))],
            seed=1,
        )
        try:
            with pytest.raises(ModelError):
                fitted_ws.save(directory)
        finally:
            fitted_ws.fault_injector = None
        after = WeakSupervisionExtractor.load(directory)
        text = "Cut water use by 30% by 2035."
        assert after.extract(text) == before.extract(text)

    def test_roundtrip_after_resave(self, fitted_ws, tmp_path):
        directory = tmp_path / "extractor"
        fitted_ws.save(directory)
        fitted_ws.save(directory)  # replace an existing published dir
        loaded = WeakSupervisionExtractor.load(directory)
        text = "Reach net-zero carbon by 2040."
        assert loaded.extract(text) == fitted_ws.extract(text)


class TestCrfArtifacts:
    @pytest.fixture()
    def saved(self, fitted_crf, tmp_path):
        directory = tmp_path / "crf"
        fitted_crf.save(directory)
        return directory

    def test_save_writes_verifiable_manifest(self, saved):
        manifest = verify_manifest(saved, kind="crf_extractor")
        assert set(manifest["artifacts"]) == {
            "config.json",
            "features.pkl",
            "weights.npz",
        }

    @pytest.mark.parametrize(
        "artifact", ["config.json", "features.pkl", "weights.npz"]
    )
    def test_flipped_byte_raises_artifact_error(self, saved, artifact):
        flip_one_byte(saved / artifact)
        with pytest.raises(ArtifactError):
            CrfDetailExtractor.load(saved)

    def test_truncated_weights_raise_without_manifest(self, saved):
        """Even pre-manifest directories must not deserialize garbage."""
        (saved / MANIFEST_NAME).unlink()
        target = saved / "weights.npz"
        target.write_bytes(target.read_bytes()[:40])
        with pytest.raises(ArtifactError):
            CrfDetailExtractor.load(saved)

    def test_roundtrip_still_works(self, saved, fitted_crf):
        loaded = CrfDetailExtractor.load(saved)
        text = "Reduce waste by 25% by 2031."
        assert loaded.extract(text) == fitted_crf.extract(text)


class TestTextArtifacts:
    def test_vocab_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text("{broken", encoding="utf-8")
        with pytest.raises(ArtifactError):
            Vocabulary.load(path)

    def test_vocab_rejects_wrong_shape(self, tmp_path):
        path = tmp_path / "vocab.json"
        path.write_text(json.dumps({"tokens": "notalist"}), encoding="utf-8")
        with pytest.raises(ArtifactError):
            Vocabulary.load(path)

    def test_vocab_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError):
            Vocabulary.load(tmp_path / "missing.json")

    def test_vocab_roundtrip_unchanged(self, tmp_path):
        vocab = Vocabulary(["solar", "wind", "net-zero"])
        vocab.save(tmp_path / "vocab.json")
        loaded = Vocabulary.load(tmp_path / "vocab.json")
        assert loaded.tokens == vocab.tokens

    def test_bpe_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "tok.json"
        path.write_text("]", encoding="utf-8")
        with pytest.raises(ArtifactError):
            BpeTokenizer.load(path)

    def test_bpe_rejects_malformed_merges(self, tmp_path):
        path = tmp_path / "tok.json"
        path.write_text(
            json.dumps({"merges": [["a"]], "vocab": ["a"]}), encoding="utf-8"
        )
        with pytest.raises(ArtifactError):
            BpeTokenizer.load(path)

    @pytest.mark.parametrize(
        "payload",
        [
            {"merges": [], "vocab": [["a"]]},
            {"merges": [], "vocab": [1, 2]},
            {"merges": [["ab", None]], "vocab": ["ab"]},
        ],
        ids=["unhashable-vocab-entry", "non-string-vocab", "null-merge-symbol"],
    )
    def test_bpe_rejects_non_string_entries(self, tmp_path, payload):
        path = tmp_path / "tok.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ArtifactError):
            BpeTokenizer.load(path)

    def test_bpe_missing_file(self, tmp_path):
        with pytest.raises(ArtifactError):
            BpeTokenizer.load(tmp_path / "missing.json")


class TestStateDictArtifacts:
    def test_checksum_mismatch_raises(self, tmp_path):
        from repro.models.token_classifier import TokenClassifier
        from repro.nn.encoder import EncoderConfig

        config = EncoderConfig(
            vocab_size=30, dim=8, num_layers=1, num_heads=2,
            ffn_dim=16, max_len=8, dropout=0.0,
        )
        model = TokenClassifier(config, num_labels=2, rng=np.random.default_rng(0))
        path = tmp_path / "model.npz"
        save_state(model, path)
        load_state(model, path)  # sanity: untouched file loads
        with pytest.raises(ArtifactError):
            load_state(model, path, expected_sha256="0" * 64)
        flip_one_byte(path)
        with pytest.raises(ArtifactError):
            load_state(model, path)
