"""Schema smoke tests for the committed benchmark artifacts.

The ``BENCH_*.json`` files at the repo root are the evidence behind the
performance claims in README/DESIGN; these tests pin their shape (and
the claims themselves) so a regenerated artifact that silently drops a
field — or a number that no longer supports its claim — fails CI
instead of shipping.
"""

import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def load_artifact(name: str) -> dict:
    path = REPO_ROOT / name
    if not path.exists():
        pytest.skip(f"{name} not committed in this checkout")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.cache
class TestCacheQuantArtifact:
    def test_schema(self):
        report = load_artifact("BENCH_cache_quant.json")
        assert set(report) == {
            "config",
            "baseline_tokens_per_second",
            "sweep",
        }
        assert set(report["sweep"]) == {"0.0", "0.3", "0.7"}
        for level in report["sweep"].values():
            for key in (
                "uncached",
                "cached",
                "speedup_vs_uncached",
                "speedup_vs_baseline",
                "results_identical",
                "logits_bitwise_identical",
            ):
                assert key in level
            for run in (level["uncached"], level["cached"]):
                assert "tokens_per_second" in run
                assert "result_cache_hits" in run

    def test_headline_claims_hold(self):
        """>=2x tokens/sec at 70% repeats and bitwise identity
        throughout — the committed evidence."""
        report = load_artifact("BENCH_cache_quant.json")
        hot = report["sweep"]["0.7"]
        assert hot["speedup_vs_baseline"] >= 2.0
        assert hot["speedup_vs_uncached"] > 1.0
        assert hot["cached"]["result_cache_hits"] > 0
        for level in report["sweep"].values():
            assert level["results_identical"] is True
            assert level["logits_bitwise_identical"] is True

    def test_baseline_cross_references_throughput_artifact(self):
        report = load_artifact("BENCH_cache_quant.json")
        baseline = load_artifact("BENCH_inference_throughput.json")
        assert report["baseline_tokens_per_second"] == pytest.approx(
            baseline["extractor"]["bucketed"]["tokens_per_second"]
        )


class TestThroughputArtifact:
    def test_schema_and_claims(self):
        report = load_artifact("BENCH_inference_throughput.json")
        extractor = report["extractor"]
        assert extractor["logits_identical"] is True
        assert extractor["results_identical"] is True
        assert extractor["speedup"] >= 1.5
        assert extractor["bucketed"]["tokens_per_second"] > 0
        # The pre-cache baseline must really be pre-cache.
        assert extractor["bucketed"]["result_cache_hits"] == 0


@pytest.mark.kg
class TestKgArtifact:
    def test_schema(self):
        report = load_artifact("BENCH_kg.json")
        assert set(report) >= {
            "config",
            "objectives",
            "graph_nodes",
            "graph_edges",
            "serial_build_seconds",
            "serial_objectives_per_second",
            "runs",
            "all_fingerprints_identical",
            "drift_scan_seconds",
            "threads",
            "threads_per_second",
            "findings",
            "injected_events",
            "drift_precision",
            "drift_recall",
        }
        config = report["config"]
        assert config["num_companies"] > 0
        assert len(config["years"]) >= 2
        for run in report["runs"]:
            assert set(run) == {
                "workers",
                "seconds",
                "objectives_per_second",
                "fingerprint_identical",
            }

    def test_headline_claims_hold(self):
        """Parallel builds are bitwise-identical to serial, and the
        drift scan recovers every injected event with zero false
        positives — the committed evidence behind README §kg."""
        report = load_artifact("BENCH_kg.json")
        assert report["objectives"] > 0
        assert report["serial_objectives_per_second"] > 0
        assert report["all_fingerprints_identical"] is True
        assert all(
            run["fingerprint_identical"] for run in report["runs"]
        )
        # The ladder exercises the real pool path, not just workers=1.
        assert max(run["workers"] for run in report["runs"]) >= 2
        assert report["findings"] == report["injected_events"]
        assert report["drift_precision"] == 1.0
        assert report["drift_recall"] == 1.0


@pytest.mark.durable
class TestDurableRunsArtifact:
    REQUIRED_TASKS = {"goalspotter", "netzero-target"}

    def test_schema(self):
        report = load_artifact("BENCH_durable_runs.json")
        assert set(report) == {
            "config",
            "cpu_count",
            "tasks",
            "overhead_ok",
            "all_identical",
        }
        config = report["config"]
        assert set(config) == {
            "repeat",
            "rounds",
            "segment_items",
            "overhead_bound",
            "profile",
        }
        assert config["overhead_bound"] == 1.05
        assert self.REQUIRED_TASKS <= set(report["tasks"])
        for name, entry in report["tasks"].items():
            assert set(entry) == {
                "kind",
                "texts",
                "segments",
                "segment_items",
                "rounds",
                "plain_seconds",
                "journaled_seconds",
                "monolithic_seconds",
                "overhead_ratio",
                "overhead_ratio_median",
                "monolithic_ratio",
                "texts_per_second",
                "overhead_ok",
                "killed_mid_run",
                "kill_resume_identical",
                "workers2_identical",
            }, name
            assert entry["kind"] in ("extraction", "classification")
            assert entry["segments"] >= 2, name  # a mid-run kill needs two

    def test_headline_claims_hold(self):
        """The journal stays under the 5% clean-path bound and every
        kill+resume / workers=2 run came back bitwise-identical — the
        committed evidence behind README §durable-runs."""
        report = load_artifact("BENCH_durable_runs.json")
        assert report["overhead_ok"] is True
        assert report["all_identical"] is True
        bound = report["config"]["overhead_bound"]
        for name, entry in report["tasks"].items():
            assert entry["overhead_ratio"] < bound, name
            assert entry["overhead_ok"] is True, name
            assert entry["killed_mid_run"] is True, name
            assert entry["kill_resume_identical"] is True, name
            assert entry["workers2_identical"] is True, name
            assert entry["texts_per_second"] > 0, name


@pytest.mark.tasks
class TestTasksArtifact:
    REQUIRED_TASKS = {
        "goalspotter",
        "taxonomy-kpi",
        "netzero-target",
        "initiative-sentence",
    }

    def test_schema(self):
        report = load_artifact("BENCH_tasks.json")
        assert set(report) == {
            "config",
            "cpu_count",
            "tasks",
            "all_identical",
        }
        assert report["config"]["eval_repeat"] >= 1
        assert self.REQUIRED_TASKS <= set(report["tasks"])
        for name, entry in report["tasks"].items():
            assert set(entry) == {
                "kind",
                "train_examples",
                "train_seconds",
                "train_examples_per_second",
                "infer_texts",
                "infer_seconds",
                "infer_texts_per_second",
                "weak_coverage",
                "metrics",
                "conformance",
            }, name
            assert entry["kind"] in ("extraction", "classification")
            assert set(entry["conformance"]) == {
                "batched_equals_sequential",
                "parallel_equals_direct",
            }

    def test_headline_claims_hold(self):
        """Every registered task trains and serves through the shared
        substrate with bitwise-identical batched/sequential/parallel
        rows — the committed evidence behind README §task-registry."""
        report = load_artifact("BENCH_tasks.json")
        assert report["all_identical"] is True
        for name, entry in report["tasks"].items():
            assert entry["train_examples_per_second"] > 0, name
            assert entry["infer_texts_per_second"] > 0, name
            assert 0.0 < entry["weak_coverage"] <= 1.0, name
            assert all(entry["conformance"].values()), name
