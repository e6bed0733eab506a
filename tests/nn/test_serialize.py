"""Tests for npz state persistence."""

import numpy as np

from repro.nn.encoder import EncoderConfig, TransformerEncoder
from repro.nn.module import inference_mode
from repro.nn.serialize import load_state, save_state, state_digest


def test_save_load_roundtrip(tmp_path):
    config = EncoderConfig(
        vocab_size=20, dim=8, num_layers=1, num_heads=2, ffn_dim=16,
        max_len=10, dropout=0.0,
    )
    encoder = TransformerEncoder(config, np.random.default_rng(0))
    path = tmp_path / "enc.npz"
    save_state(encoder, path)

    other = TransformerEncoder(config, np.random.default_rng(99))
    load_state(other, path)

    ids = np.array([[1, 2, 3]])
    mask = np.ones((1, 3))
    encoder.eval()
    other.eval()
    np.testing.assert_allclose(encoder(ids, mask), other(ids, mask))


def test_fingerprint_matches_state_digest():
    """``Module.fingerprint`` (the result cache's weight pin) follows the
    ``state_digest`` convention, and inference forwards do not move it."""
    config = EncoderConfig(
        vocab_size=20, dim=8, num_layers=1, num_heads=2, ffn_dim=16,
        max_len=10, dropout=0.0,
    )
    encoder = TransformerEncoder(config, np.random.default_rng(0))
    before = encoder.fingerprint()
    assert before == state_digest(encoder)
    encoder.eval()
    with inference_mode():
        encoder(np.array([[1, 2, 3]]), np.ones((1, 3)))
    assert encoder.fingerprint() == before == state_digest(encoder)
