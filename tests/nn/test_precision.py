"""Tests for the global precision switch and the BLAS thread pin."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.nn import precision
from repro.nn.encoder import EncoderConfig, TransformerEncoder
from repro.nn.module import Parameter

#: Environment variables that set a BLAS thread count at load time.
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class TestPrecision:
    def test_default_inside_nn_tests_is_float64(self):
        # The tests/nn conftest pins float64 for gradient checks.
        assert precision.dtype() is np.float64

    def test_parameter_uses_current_dtype(self):
        precision.set_dtype(np.float32)
        try:
            param = Parameter(np.ones(3))
            assert param.value.dtype == np.float32
        finally:
            precision.set_dtype(np.float64)

    def test_rejects_non_float(self):
        with pytest.raises(ValueError):
            precision.set_dtype(np.int32)

    def test_forward_preserves_dtype(self):
        precision.set_dtype(np.float32)
        try:
            config = EncoderConfig(
                vocab_size=20, dim=8, num_layers=1, num_heads=2,
                ffn_dim=16, max_len=8, dropout=0.0,
            )
            encoder = TransformerEncoder(config, np.random.default_rng(0))
            encoder.eval()
            ids = np.array([[1, 2, 3]])
            mask = np.ones((1, 3), dtype=np.float32)
            states = encoder(ids, mask)
            assert states.dtype == np.float32
        finally:
            precision.set_dtype(np.float64)


class TestBlasThreadPin:
    """``import repro`` runs numpy's OpenBLAS on one thread on any host."""

    @pytest.mark.parametrize(
        "openblas_threads", [None, "1", str(os.cpu_count() or 1)]
    )
    def test_import_pins_one_blas_thread(self, openblas_threads):
        if precision._blas_threads() is None:
            pytest.skip("numpy's BLAS exposes no OpenBLAS thread getter")
        env = {
            name: value
            for name, value in os.environ.items()
            if name not in BLAS_THREAD_VARIABLES
        }
        if openblas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = openblas_threads
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        probe = (
            "import repro\n"
            "from repro.nn.precision import numeric_environment\n"
            "print(numeric_environment()['blas_threads'])\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", probe],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert completed.stdout.strip() == "1"
