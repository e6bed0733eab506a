"""The three workloads: set-up, timed phase, output checks and metrics.

``deploy``
    What ``repro deploy`` does by default: the corpus through
    ``GoalSpotter.process_reports(workers="auto")`` (broadcast, shard plan,
    process pool), a file store, a KG build and a drift scan. The only
    workload where ``repro.runtime.parallel`` carries work.
``extract``
    The same corpus through the journaled sequential path
    (``process_reports_durable(workers=1)``) and an atomic store publish:
    the largest ``nn`` share of wall time, one fsync'd journal commit per
    segment beside the reads, and no process pool.
``serve``
    Open-loop Poisson traffic into ``ServingEngine.from_pipeline`` with the
    default ``ServingConfig``, first at a nominal rate, then at an
    overload rate. Micro-batches stay tiny, so per-call fixed costs
    (admission, batching, tokenizer calls, weight concatenation) dominate.

Every run checks its outputs; a failed check makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import math
import resource
import shutil
import statistics
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.kg import build_graph, detect_drift, rows_from_store
from repro.runtime.journal import JOURNAL_NAME
from repro.serve import ServingEngine
from repro.storage import ObjectiveStore, atomic_store_records

from perfbench import quality
from perfbench import recipe as recipes
from perfbench.loadgen import arrivals, run_phase
from perfbench.tracing import NULL, Instrumentation, Tracer, installed

WORKLOADS = ("deploy", "extract", "serve")

#: End-to-end metrics, reported by untraced runs, with their units.
END_TO_END = {
    "setup_s": "s",
    "pages_per_s": "1/s",
    "records_per_s": "1/s",
    "field_f1": "ratio",
    "detect_f1": "ratio",
    "success_ratio": "ratio",
    "peak_rss_mb": "MB",
    "p50_ms": "ms",
}

#: Layers whose self time is reported as ``<layer>_s``.
SELF_TIMED = (
    "nn.attention",
    "nn.softmax",
    "nn.linear",
    "nn.gelu",
    "nn.layernorm",
    "nn.embedding",
    "models.detector_forward",
    "models.extractor_forward",
    "text.normalize",
    "text.tokenize",
    "core.constrained_decode",
    "core.decode",
    "goalspotter.detect",
    "goalspotter.extract",
    "goalspotter.pipeline",
    "runtime.broadcast",
    "runtime.journal_commit",
    "storage.insert",
    "storage.publish",
    "kg.build",
    "kg.drift",
)

#: Layers trained in set-up, reported as ``<layer>_s`` per set-up.
TRAINING_SELF_TIMED = (
    "nn.backward",
    "nn.gelu_grad",
    "core.weak_label",
    "text.bpe_train",
)

#: Per-layer metrics, reported by traced runs, with their units.
PER_LAYER = {
    **{f"{layer}_s": "s" for layer in SELF_TIMED + TRAINING_SELF_TIMED},
    "nn.context_useful_ratio": "ratio",
    "models.train_step_ms": "ms",
    "models.microbatches": "count",
    "models.padding_waste": "ratio",
    "text.bpe_cache_hit_ratio": "ratio",
    "goalspotter.detected_ratio": "ratio",
    "runtime.broadcast_mb": "MB",
    "runtime.shard_imbalance": "ratio",
    "runtime.worker_idle_ratio": "ratio",
    "runtime.journal_commits": "count",
    "runtime.journal_mb": "MB",
    "storage.rows": "count",
    "kg.findings": "count",
    "serve.latency_p99_ms": "ms",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p99_ms": "ms",
    "serve.compute_p50_ms": "ms",
    "serve.batch_rows_mean": "count",
    "serve.rejected": "count",
    "serve.generator_lag_max_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ratio": "ratio",
}

#: serve: a response counts toward goodput when it lands within this.
#: A full admission queue (64 requests) already costs about 110 ms on a
#: 2-core host, so a 100 ms limit would sit on that knife edge and
#: goodput would swing with the seed; 250 ms measures served capacity.
LATENCY_LIMIT_S = 0.250

#: serve: share of ``--seconds`` at the nominal rate; the rest overloads.
NOMINAL_SHARE = 0.6

#: serve: seconds of one nominal-then-overload cycle. The run repeats the
#: cycle, so nominal latency is sampled across the whole run, and reports
#: the median of the per-cycle medians: a burst of host interference that
#: spoils a minority of cycles does not move it. One contiguous nominal
#: phase let such bursts move the run's median by a quarter. A cycle
#: still holds about 60 nominal requests, enough for a steady median.
CYCLE_SECONDS = 1.0

#: serve: seconds of warm-up traffic in set-up. Shorter warm-ups left
#: the nominal phase's median latency 15-25% above its warm level.
WARMUP_SECONDS = 2.0


@dataclasses.dataclass
class Result:
    """What one run prints: checks, operation counts, metrics."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    units: dict[str, str]
    failures: list[str]  # messages of the output checks that failed

    @property
    def correct(self) -> bool:
        return not self.failures

    def as_json(self) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": unit}
                for name, unit in self.units.items()
            },
        }


class Checks:
    """Collects the messages of failed output checks."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (the slowest sample when q needs more)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@contextlib.contextmanager
def scratch(workdir: Path):
    """A fresh directory under ``workdir``, removed afterwards."""
    path = Path(tempfile.mkdtemp(dir=workdir))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def traced_if(enabled: bool, tracer):
    return Instrumentation(tracer) if enabled else contextlib.nullcontext()


def set_up(recipe: recipes.Recipe, repeats: int, warm_up):
    """Train, then warm the caches; ``repeats`` times.

    Returns the last pipeline and the seconds of each set-up.
    """
    seconds = []
    for __ in range(repeats):
        start = time.perf_counter()
        pipeline = recipes.train_pipeline(recipe)
        warm_up(pipeline)
        seconds.append(time.perf_counter() - start)
    # Set-up garbage (earlier pipelines, training caches) is collected
    # here, not by a collector pass in the middle of the timed phase.
    gc.collect()
    return pipeline, seconds


def _training_layers(tracer: Tracer, setup_window) -> dict[str, float]:
    own = tracer.self_times([setup_window])
    steps = tracer.durations("models.train_step", [setup_window])
    layers = {f"{name}_s": own[name] for name in TRAINING_SELF_TIMED}
    layers["models.train_step_ms"] = (
        1000.0 * statistics.fmean(steps) if steps else 0.0
    )
    return layers


def _model_layers(own, counts, scale: float) -> dict[str, float]:
    """Self times and counts of the measured work, times ``scale``."""
    tokens = counts["models.total_tokens"]
    padded = counts["models.padded_tokens"]
    lookups = counts["text.bpe_hits"] + counts["text.bpe_misses"]
    computed = counts["nn.context_computed"]
    layers = {f"{name}_s": own[name] * scale for name in SELF_TIMED}
    layers.update(
        {
            "nn.context_useful_ratio": (
                counts["nn.context_useful"] / computed if computed else 0.0
            ),
            "models.microbatches": counts["models.microbatches"] * scale,
            "models.padding_waste": 1.0 - tokens / padded if padded else 0.0,
            "text.bpe_cache_hit_ratio": (
                counts["text.bpe_hits"] / lookups if lookups else 0.0
            ),
            "runtime.broadcast_mb": (
                counts["runtime.broadcast_bytes"] * scale / 1e6
            ),
            "runtime.journal_commits": (
                counts["runtime.journal_commits"] * scale
            ),
        }
    )
    return layers


# -- deploy and extract -------------------------------------------------------


@dataclasses.dataclass
class Pass:
    """One corpus pass: pages in -> records in the store -> KG findings."""

    seconds: float
    records: list
    rows: int
    findings: int
    stats: dict  # the pipeline's last_run_stats after the pass
    detector_stats: object = None  # deploy: the merged shard RunStats
    journal_bytes: int = 0


def _store_and_graph(store_path: Path, records, tracer, publish: bool):
    """Records into the store, then the KG built from the store and
    scanned for drift; returns (store rows, drift findings)."""
    if publish:
        with tracer.span("storage.publish"):
            atomic_store_records(store_path, records)
    with ObjectiveStore(store_path) as store:
        if not publish:
            store.insert_records(records)
        rows = store.count()
        with tracer.span("kg.build"):
            graph = build_graph(rows_from_store(store))
        with tracer.span("kg.drift"):
            findings = detect_drift(graph)
    return rows, len(findings)


def deploy_pass(pipeline, reports, directory: Path, tracer) -> Pass:
    start = time.perf_counter()
    records = pipeline.process_reports(reports, workers="auto")
    stats = pipeline.last_run_stats
    rows, findings = _store_and_graph(
        directory / "objectives.db", records, tracer, publish=False
    )
    return Pass(
        seconds=time.perf_counter() - start,
        records=records,
        rows=rows,
        findings=findings,
        stats=stats,
        detector_stats=pipeline.detector.last_run_stats,
    )


def extract_pass(pipeline, reports, directory: Path, tracer) -> Pass:
    start = time.perf_counter()
    run_dir = directory / "run"
    records = pipeline.process_reports_durable(reports, run_dir, workers=1)
    stats = pipeline.last_run_stats
    rows, findings = _store_and_graph(
        directory / "objectives.db", records, tracer, publish=True
    )
    return Pass(
        seconds=time.perf_counter() - start,
        records=records,
        rows=rows,
        findings=findings,
        stats=stats,
        journal_bytes=(run_dir / JOURNAL_NAME).stat().st_size,
    )


#: workload -> (its pass, the pass its records digest is checked against)
CORPUS_PASSES = {
    "deploy": (deploy_pass, extract_pass),
    "extract": (extract_pass, deploy_pass),
}


def _processed_all(result: Pass, blocks: int) -> bool:
    durable = result.stats.get("durable")
    if durable is not None:
        return bool(durable["complete"]) and (
            durable["segments_committed"] == durable["segments_total"]
        )
    return (
        result.stats["blocks"] == blocks
        and result.stats["quarantined_documents"] == 0
    )


def run_corpus(name, seed, seconds, tracer, recipe, workdir) -> Result:
    one_pass, cross_pass = CORPUS_PASSES[name]
    trace = tracer is not NULL
    warm = recipes.corpus(
        seed + recipes.WARMUP_SEED_OFFSET, recipe.warmup_scale, 2
    )

    def warm_up(pipeline) -> None:
        with scratch(workdir) as directory:
            one_pass(pipeline, warm, directory, tracer)

    with traced_if(trace, tracer):
        setup_start = time.perf_counter()
        pipeline, setup_seconds = set_up(
            recipe, 1 if trace else recipe.setup_repeats, warm_up
        )
        setup_window = (setup_start, time.perf_counter())

    reports = recipes.corpus(seed, recipe.corpus_scale, recipe.panel_companies)
    blocks = sum(len(page.blocks) for report in reports for page in report.pages)
    pages = sum(report.num_pages for report in reports)
    passes: list[Pass] = []
    traced_passes: list[Pass] = []
    plain_walls: list[float] = []
    windows: list[tuple[float, float]] = []
    deadline = time.perf_counter() + seconds
    while len(passes) < recipe.min_passes or time.perf_counter() < deadline:
        # A traced run alternates plain and traced passes, so the two
        # sides of the overhead ratio see the same host conditions.
        traced = trace and len(passes) % 2 == 1
        with scratch(workdir) as directory, traced_if(traced, tracer):
            begin = time.perf_counter()
            result = one_pass(
                pipeline, reports, directory, tracer if traced else NULL
            )
            if traced:
                windows.append((begin, time.perf_counter()))
                traced_passes.append(result)
            else:
                plain_walls.append(result.seconds)
        passes.append(result)

    checks = Checks()
    documents, expected_pages = recipes.expected_counts(
        recipe.corpus_scale, recipe.panel_companies
    )
    checks.expect(
        (len(reports), pages) == (documents, expected_pages),
        f"corpus has {len(reports)} documents / {pages} pages, the "
        f"generator's Table 5 counts are {documents} / {expected_pages}",
    )
    digest = quality.records_digest(passes[0].records)
    for result in passes:
        checks.expect(
            quality.records_digest(result.records) == digest,
            "two passes over one corpus returned different records",
        )
        checks.expect(
            result.rows == len(result.records),
            f"store holds {result.rows} rows for {len(result.records)} records",
        )
        checks.expect(
            _processed_all(result, blocks),
            "a pass did not process every document and block",
        )
    with scratch(workdir) as directory:
        other = cross_pass(pipeline, reports, directory, NULL)
    checks.expect(
        quality.records_digest(other.records) == digest,
        "deploy (workers=auto) and extract (journaled, workers=1) records "
        "differ",
    )
    try:
        field_f1, detect_f1 = quality.pipeline_quality(
            reports, passes[0].records
        )
    except ValueError as error:
        checks.expect(False, str(error))
        field_f1 = detect_f1 = 0.0
    checks.expect(
        field_f1 >= recipe.field_f1_floor,
        f"field_f1 {field_f1:.3f} is below its floor {recipe.field_f1_floor}",
    )

    attempted = len(reports) * len(passes)
    failed = len(pipeline.quarantine) + sum(
        record.status != "ok" for result in passes for record in result.records
    )
    if not trace:
        walls = [result.seconds for result in passes]
        median = statistics.median(walls)
        metrics = {
            "setup_s": statistics.median(setup_seconds),
            "pages_per_s": pages / median,
            "records_per_s": len(passes[0].records) / median,
            "field_f1": field_f1,
            "detect_f1": detect_f1,
            "success_ratio": 1.0 - failed / attempted,
            "peak_rss_mb": peak_rss_mb(),
            "p50_ms": 1000.0 * median,
        }
        return Result(attempted, failed, metrics, END_TO_END, checks.failures)

    main = {threading.get_ident()}
    own = tracer.self_times(windows, threads=main)
    counts = tracer.counts(windows)
    scale = 1.0 / len(windows)
    metrics = {key: 0.0 for key in PER_LAYER}
    metrics.update(_training_layers(tracer, setup_window))
    metrics.update(_model_layers(own, counts, scale))
    segments = tracer.durations("goalspotter.pipeline", windows, min_depth=1)
    metrics.update(
        {
            "goalspotter.detected_ratio": len(passes[0].records) / blocks,
            "runtime.shard_imbalance": (
                max(segments) / statistics.fmean(segments) if segments else 1.0
            ),
            "runtime.journal_mb": statistics.fmean(
                result.journal_bytes for result in traced_passes
            )
            / 1e6,
            "storage.rows": float(passes[-1].rows),
            "kg.findings": float(passes[-1].findings),
        }
    )
    if name == "deploy":
        metrics.update(_shard_layers(traced_passes))
    metrics["trace.overhead_ratio"] = (
        statistics.median(result.seconds for result in traced_passes)
        / statistics.median(plain_walls)
        - 1.0
    )
    metrics["trace.unattributed_ratio"] = 1.0 - sum(own.values()) / sum(
        high - low for low, high in windows
    )
    return Result(attempted, failed, metrics, PER_LAYER, checks.failures)


def _shard_layers(traced_passes: list[Pass]) -> dict[str, float]:
    """Layer numbers of forked deploy workers, which no wrapper in this
    process sees, from the per-shard stats in ``last_run_stats``."""
    sharded = [result for result in traced_passes if "shards" in result.stats]
    if not sharded:
        return {}  # one worker: everything ran in-process and was traced
    scale = 1.0 / len(sharded)
    microbatches = tokens = padded = hits = lookups = 0.0
    detect = extract = imbalance = idle = 0.0
    for result in sharded:
        stats, detector = result.stats, result.detector_stats
        extractor = stats["extractor"]
        microbatches += extractor["microbatches"] + detector.microbatches
        tokens += extractor["total_tokens"] + detector.total_tokens
        padded += extractor["padded_tokens"] + detector.padded_tokens
        hits += extractor["bpe_cache_hits"]
        lookups += extractor["bpe_cache_hits"] + extractor["bpe_cache_misses"]
        detect += stats["detect_seconds"]
        extract += stats["extract_seconds"]
        shard_walls = [shard["wall_seconds"] for shard in stats["shards"]]
        imbalance += max(shard_walls) / statistics.fmean(shard_walls)
        idle += 1.0 - stats["shard_wall_seconds"] / (
            stats["workers"] * stats["wall_seconds"]
        )
    return {
        "models.microbatches": microbatches * scale,
        "models.padding_waste": 1.0 - tokens / padded if padded else 0.0,
        "text.bpe_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "goalspotter.detect_s": detect * scale,
        "goalspotter.extract_s": extract * scale,
        "runtime.shard_imbalance": imbalance * scale,
        "runtime.worker_idle_ratio": idle * scale,
    }


# -- serve --------------------------------------------------------------------


def _offline_check(pipeline, stream, served, checks: Checks) -> None:
    """Served values must equal offline predict_proba / extract_batch on
    the same texts, bit for bit."""
    detect_texts, detect_served = [], []
    extract_texts, extract_served = [], []
    for outcome in served:
        kind, texts = stream[outcome.request][0], stream[outcome.request][1]
        checks.expect(
            outcome.result.status == "ok",
            f"a {kind} response came back {outcome.result.status}",
        )
        if kind == "detect":
            detect_texts.extend(texts)
            detect_served.extend(outcome.result.values)
        else:
            extract_texts.extend(texts)
            extract_served.extend(outcome.result.values)
    if detect_texts:
        offline = np.asarray(
            pipeline.detector.predict_proba(detect_texts), dtype=np.float32
        )
        checks.expect(
            np.asarray(detect_served, dtype=np.float32).tobytes()
            == offline.tobytes(),
            "served detect scores differ from offline predict_proba",
        )
    if extract_texts:
        checks.expect(
            list(extract_served)
            == pipeline.extractor.extract_batch(extract_texts),
            "served extractions differ from offline extract_batch",
        )


def _serve_quality(pipeline, stream, served) -> tuple[float, float]:
    predicted, gold = [], []
    scores, labels = [], []
    for outcome in served:
        kind, __, truth = stream[outcome.request]
        if kind == "detect":
            scores.extend(float(value) for value in outcome.result.values)
            labels.extend(truth)
        else:
            predicted.extend(outcome.result.values)
            gold.append(truth)
    return (
        quality.extraction_f1(predicted, gold),
        quality.detection_f1(
            scores, labels, pipeline.detector.config.threshold
        ),
    )


def _goodput(outcomes, stream, kind: str, seconds: float) -> float:
    """``kind`` responses per second that landed within the latency
    limit; a refused request is a miss."""
    good = sum(
        stream[outcome.request][0] == kind
        and outcome.error is None
        and outcome.latency <= LATENCY_LIMIT_S
        for outcome in outcomes
    )
    return good / seconds


def run_serve(seed, seconds, tracer, recipe, workdir) -> Result:
    trace = tracer is not NULL
    stream = recipes.serve_stream(seed, recipe.stream_scale)
    warm_seed = seed + recipes.WARMUP_SEED_OFFSET
    warm_stream = recipes.serve_stream(warm_seed, recipe.warmup_scale)
    warm_offsets = arrivals(
        recipe.nominal_rps,
        WARMUP_SECONDS,
        np.random.default_rng(recipes.SCHEDULE_SEED + 1),
    )

    def warm_up(pipeline) -> None:
        engine = ServingEngine.from_pipeline(pipeline).start()
        try:
            run_phase(engine, warm_stream, warm_offsets, 0)
        finally:
            engine.shutdown()

    with traced_if(trace, tracer):
        setup_start = time.perf_counter()
        pipeline, setup_seconds = set_up(
            recipe, 1 if trace else recipe.setup_repeats, warm_up
        )
        setup_window = (setup_start, time.perf_counter())

    rng = np.random.default_rng(recipes.SCHEDULE_SEED)
    cycles = max(1, round(seconds / CYCLE_SECONDS))
    nominal_seconds = seconds * NOMINAL_SHARE
    overload_seconds = seconds - nominal_seconds
    schedule = [
        (
            arrivals(recipe.nominal_rps, nominal_seconds / cycles, rng),
            arrivals(recipe.overload_rps, overload_seconds / cycles, rng),
        )
        for __ in range(cycles)
    ]
    engine = ServingEngine.from_pipeline(pipeline)
    slices: list[list] = []  # the nominal outcomes of each cycle
    overload: list = []
    windows: list[tuple[float, float]] = []  # the nominal phases
    with traced_if(trace, tracer):
        engine.start()
        try:
            first = 0
            for nominal_offsets, overload_offsets in schedule:
                begin = time.perf_counter()
                slices.append(run_phase(engine, stream, nominal_offsets, first))
                windows.append((begin, time.perf_counter()))
                first += len(nominal_offsets)
                overload += run_phase(engine, stream, overload_offsets, first)
                first += len(overload_offsets)
        finally:
            engine.shutdown()

    nominal = [outcome for outcomes in slices for outcome in outcomes]
    checks = Checks()
    served = [o for o in nominal + overload if o.error is None]
    start = time.perf_counter()
    _offline_check(pipeline, stream, served, checks)
    offline_plain = time.perf_counter() - start
    nominal_served = [o for o in nominal if o.error is None]
    field_f1, detect_f1 = _serve_quality(pipeline, stream, served)
    checks.expect(
        field_f1 >= recipe.field_f1_floor,
        f"field_f1 {field_f1:.3f} is below its floor {recipe.field_f1_floor}",
    )

    nominal_failed = len(nominal) - len(nominal_served)
    refused = sum(outcome.refused for outcome in nominal + overload)
    attempted = len(nominal) + len(overload)
    failed = nominal_failed + sum(
        outcome.error is not None and not outcome.refused
        for outcome in overload
    )
    if not trace:
        medians = [
            percentile([o.latency for o in outcomes if o.error is None], 50)
            for outcomes in slices
        ]
        metrics = {
            "setup_s": statistics.median(setup_seconds),
            "pages_per_s": _goodput(
                overload, stream, "detect", overload_seconds
            ),
            "records_per_s": _goodput(
                overload, stream, "extract", overload_seconds
            ),
            "field_f1": field_f1,
            "detect_f1": detect_f1,
            "success_ratio": 1.0 - nominal_failed / len(nominal),
            "peak_rss_mb": peak_rss_mb(),
            "p50_ms": 1000.0 * statistics.median(medians),
        }
        return Result(attempted, failed, metrics, END_TO_END, checks.failures)

    with Instrumentation(tracer):
        start = time.perf_counter()
        _offline_check(pipeline, stream, served, Checks())
        offline_traced = time.perf_counter() - start
    results = [outcome.result for outcome in nominal_served]
    batched = [result for result in results if result.batch_size]
    compute = sum(r.compute_seconds / r.batch_size for r in batched)
    workers = tracer.threads(windows) - {threading.get_ident()}
    own = tracer.self_times(windows, threads=workers)
    detect_values = [
        float(value)
        for outcome in nominal_served
        if stream[outcome.request][0] == "detect"
        for value in outcome.result.values
    ]
    threshold = pipeline.detector.config.threshold
    metrics = {key: 0.0 for key in PER_LAYER}
    metrics.update(_training_layers(tracer, setup_window))
    metrics.update(_model_layers(own, tracer.counts(windows), 1.0))
    metrics.update(
        {
            "goalspotter.detected_ratio": (
                sum(value >= threshold for value in detect_values)
                / len(detect_values)
            ),
            "runtime.worker_idle_ratio": 1.0
            - compute
            / (
                engine.config.num_workers
                * sum(high - low for low, high in windows)
            ),
            "serve.latency_p99_ms": 1000.0
            * percentile([o.latency for o in nominal_served], 99),
            "serve.queue_wait_p50_ms": 1000.0
            * percentile([r.queue_wait_seconds for r in results], 50),
            "serve.queue_wait_p99_ms": 1000.0
            * percentile([r.queue_wait_seconds for r in results], 99),
            "serve.compute_p50_ms": 1000.0
            * percentile([r.compute_seconds for r in results], 50),
            "serve.batch_rows_mean": len(batched)
            / sum(1.0 / r.batch_size for r in batched),
            "serve.rejected": float(refused),
            "serve.generator_lag_max_ms": 1000.0
            * max(o.sent - o.due for o in nominal + overload),
            "trace.overhead_ratio": offline_traced / offline_plain - 1.0,
            "trace.unattributed_ratio": 1.0 - sum(own.values()) / compute,
        }
    )
    return Result(attempted, failed, metrics, PER_LAYER, checks.failures)


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    recipe: recipes.Recipe = recipes.STANDARD,
    trace_path: Path | None = None,
) -> Result:
    """One benchmark run; ``trace`` selects the per-layer traced run."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; use {WORKLOADS}")
    if installed():
        raise RuntimeError(f"trace wrappers already in place: {installed()}")
    tracer = Tracer() if trace else NULL
    if name == "serve":
        result = run_serve(seed, seconds, tracer, recipe, Path(workdir))
    else:
        result = run_corpus(name, seed, seconds, tracer, recipe, Path(workdir))
    if trace and trace_path is not None:
        tracer.write(trace_path)
    return result
