"""Golden-regression tier: frozen end-to-end outputs for a fixed corpus.

A seeded 25-report synthetic corpus runs through a deterministically
trained detect + extract pipeline; every produced record is compared
**field-by-field** against the frozen fixture in
``tests/golden/end_to_end_records.json``. Detector scores are compared
bitwise (stored as ``float.hex``), so any change to tokenization, model
init, training order, batching, or numerics fails this tier loudly with
a per-field diff summary — the point is that *no* behavioural drift
lands silently.

Refreshing the fixture after an **intentional** behaviour change::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest \
        tests/integration/test_golden.py --update-golden

then review the fixture diff (git diff tests/golden/) before committing.
The fixture's metadata records the numeric environment (numpy, BLAS
vendor/version/threads, compute dtype). When a run's environment differs,
the failure message names the changed keys before the per-field diff, so
ulp drift from a multi-threaded BLAS reads as environment drift, not as
a regression.

Everything here is pinned: seeds, epochs, corpus shape, merge counts.
Do not derive any of these from environment knobs — the fixture must
reproduce from a fresh checkout with no configuration.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.extractor import ExtractorConfig, WeakSupervisionExtractor
from repro.datasets.generator import ObjectiveGenerator
from repro.datasets.reports import ReportGenerator
from repro.deploy import build_trained_pipeline
from repro.goalspotter.detector import DetectorConfig
from repro.models.training import FineTuneConfig
from repro.nn.precision import numeric_environment

pytestmark = pytest.mark.golden

GOLDEN_PATH = Path(__file__).parent.parent / "golden" / (
    "end_to_end_records.json"
)

# Pinned generation recipe (bump schema_version on intentional changes).
SCHEMA_VERSION = 1
PIPELINE_SEED = 404
CORPUS_SEED = 405
NUM_REPORTS = 25
NUM_PAGES = 2
NUM_OBJECTIVES = 2
TRAIN_OBJECTIVES = 120
DETECTOR_BLOCKS = 240
EPOCHS = 2
NUM_MERGES = 200

#: Fields compared one by one (diff summaries name these).
RECORD_FIELDS = (
    "company", "report_id", "page", "objective", "details", "score_hex",
    "status",
)


def build_golden_pipeline():
    """The pinned pipeline: every input to training is seeded."""
    objectives = ObjectiveGenerator(seed=PIPELINE_SEED).generate_many(
        TRAIN_OBJECTIVES
    )
    extractor = WeakSupervisionExtractor(
        ExtractorConfig(
            finetune=FineTuneConfig(epochs=EPOCHS, learning_rate=1e-3),
            num_merges=NUM_MERGES,
        )
    ).fit(objectives)
    return build_trained_pipeline(
        train_dataset=None,
        seed=PIPELINE_SEED,
        detector_blocks=DETECTOR_BLOCKS,
        detector_config=DetectorConfig(
            finetune=FineTuneConfig(epochs=EPOCHS, learning_rate=1e-3)
        ),
        extractor=extractor,
    )


def build_golden_corpus():
    generator = ReportGenerator(seed=CORPUS_SEED)
    return [
        generator.generate_report(
            company=f"Golden-{index:02d}",
            report_id=f"g{index:03d}",
            num_pages=NUM_PAGES,
            num_objectives=NUM_OBJECTIVES,
        )
        for index in range(NUM_REPORTS)
    ]


def record_to_golden(record) -> dict:
    """One record as a JSON-stable, bitwise-comparable dict.

    ``score_hex`` (``float.hex``) is the bitwise channel for the
    logits-derived detector score; ``score`` is kept alongside for
    human-readable fixture diffs only.
    """
    return {
        "company": record.company,
        "report_id": record.report_id,
        "page": record.page,
        "objective": record.objective,
        "details": dict(record.details),
        "score": float(record.score),
        "score_hex": float(record.score).hex(),
        "status": record.status,
    }


def _ulp_distance(want_hex: str, got_hex: str) -> int:
    """float32 ulps between two scores (both are float32 probabilities)."""
    want, got = (
        np.float32(float.fromhex(value)).view(np.int32)
        for value in (want_hex, got_hex)
    )
    return abs(int(want) - int(got))


def _diff_summary(expected: list[dict], actual: list[dict]) -> str:
    """Human-readable field-by-field diff, truncated to the first 20."""
    lines = []
    if len(expected) != len(actual):
        lines.append(
            f"record count changed: {len(expected)} -> {len(actual)}"
        )
    for index, (want, got) in enumerate(zip(expected, actual)):
        for field in RECORD_FIELDS:
            if want.get(field) != got.get(field):
                line = (
                    f"record[{index}].{field}: "
                    f"{want.get(field)!r} -> {got.get(field)!r}"
                )
                if field == "score_hex":
                    ulps = _ulp_distance(want[field], got[field])
                    line += f" ({ulps} ulp)"
                lines.append(line)
    if not lines:
        lines.append("(records match; metadata changed)")
    shown = lines[:20]
    if len(lines) > len(shown):
        shown.append(f"... and {len(lines) - len(shown)} more differences")
    return "\n".join(shown)


def _environment_drift(metadata: dict) -> str:
    """One ``environment drift:`` line per key that differs from the
    environment the fixture was frozen in; empty when none does."""
    frozen = metadata.get("environment", {})
    current = numeric_environment()
    return "".join(
        f"environment drift: {key} changed "
        f"({frozen[key]} → {current.get(key)})\n"
        for key in sorted(frozen)
        if frozen[key] != current.get(key)
    )


def _fail_on_drift(
    metadata: dict, expected: list[dict], actual: list[dict], title: str
) -> None:
    """Fail with the environment drift (if any), then the per-field diff."""
    if expected != actual:
        pytest.fail(
            _environment_drift(metadata)
            + f"{title}:\n"
            + _diff_summary(expected, actual),
            pytrace=False,
        )


@pytest.fixture(scope="module")
def golden_pipeline():
    return build_golden_pipeline()


@pytest.fixture(scope="module")
def actual_records(golden_pipeline):
    return golden_pipeline.process_reports(build_golden_corpus())


class TestGoldenRegression:
    def test_end_to_end_records_match_fixture(
        self, actual_records, update_golden
    ):
        payload = {
            "metadata": {
                "schema_version": SCHEMA_VERSION,
                "pipeline_seed": PIPELINE_SEED,
                "corpus_seed": CORPUS_SEED,
                "num_reports": NUM_REPORTS,
                "records": len(actual_records),
                "environment": numeric_environment(),
                "refresh": (
                    "OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m pytest "
                    "tests/integration/test_golden.py --update-golden"
                ),
            },
            "records": [
                record_to_golden(record) for record in actual_records
            ],
        }
        if update_golden:
            GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN_PATH.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
            pytest.skip(f"rewrote {GOLDEN_PATH}; review the diff")
        assert GOLDEN_PATH.exists(), (
            f"golden fixture missing: {GOLDEN_PATH}\n"
            "generate it with --update-golden (see module docstring)"
        )
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        assert (
            golden["metadata"]["schema_version"] == SCHEMA_VERSION
        ), "golden schema_version mismatch — regenerate with --update-golden"
        _fail_on_drift(
            golden["metadata"],
            golden["records"],
            payload["records"],
            "end-to-end outputs drifted from the golden fixture (if this "
            "change is intentional, refresh with --update-golden and "
            "commit the fixture diff)",
        )

    def test_scores_are_bitwise_stable(self, actual_records, update_golden):
        """The logits-derived scores alone, compared via float.hex."""
        if update_golden:
            pytest.skip("fixture refresh run")
        if not GOLDEN_PATH.exists():
            pytest.skip("golden fixture not generated yet")
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        expected = [
            {"score_hex": record["score_hex"]} for record in golden["records"]
        ]
        actual = [
            {"score_hex": float(record.score).hex()}
            for record in actual_records
        ]
        _fail_on_drift(
            golden["metadata"],
            expected,
            actual,
            "scores drifted from the golden fixture",
        )

    @pytest.mark.parallel
    def test_parallel_run_matches_fixture(
        self, golden_pipeline, update_golden
    ):
        """workers=2 reproduces the frozen sequential outputs bitwise."""
        if update_golden:
            pytest.skip("fixture refresh run")
        if not GOLDEN_PATH.exists():
            pytest.skip("golden fixture not generated yet")
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        records = golden_pipeline.process_reports(
            build_golden_corpus(), workers=2
        )
        _fail_on_drift(
            golden["metadata"],
            golden["records"],
            [record_to_golden(record) for record in records],
            "parallel run drifted from the golden fixture",
        )
