"""Golden detector scores do not depend on the caller's BLAS settings.

``import repro`` pins numpy's bundled OpenBLAS to one thread, so the
golden pipeline must produce the same ``score_hex`` values whether
``OPENBLAS_NUM_THREADS`` is unset, 1, or the host's core count. Each
setting runs in a fresh interpreter, since OpenBLAS reads the variable
once at load time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.golden

REPO_ROOT = Path(__file__).resolve().parents[2]

SCRIPT = """
import json
from repro.nn.precision import numeric_environment
from tests.integration.test_golden import (
    build_golden_corpus, build_golden_pipeline, record_to_golden,
)
records = build_golden_pipeline().process_reports(build_golden_corpus())
print(json.dumps({
    "score_hex": [record_to_golden(r)["score_hex"] for r in records],
    "blas_threads": numeric_environment()["blas_threads"],
}))
"""


def run_golden(blas_threads: str | None) -> dict:
    env = {
        key: value
        for key, value in os.environ.items()
        if key != "OPENBLAS_NUM_THREADS"
    }
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    )
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(result.stdout.strip().splitlines()[-1])


def test_score_hex_identical_across_blas_settings():
    runs = {
        setting: run_golden(setting)
        for setting in (None, "1", str(os.cpu_count() or 1))
    }
    for setting, run in runs.items():
        assert run["blas_threads"] == 1, f"OPENBLAS_NUM_THREADS={setting}"
        assert run["score_hex"], "golden pipeline produced no records"
    baseline = runs[None]["score_hex"]
    for setting, run in runs.items():
        assert run["score_hex"] == baseline, (
            f"score_hex differs with OPENBLAS_NUM_THREADS={setting}"
        )
