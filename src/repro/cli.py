"""Command-line interface for the reproduction.

Subcommands cover the full lifecycle::

    repro tasks list
    repro build-dataset --name sustainability-goals --out goals.jsonl
    repro train --data goals.jsonl --out model/
    repro train --task netzero-target --out clf/ --epochs 4
    repro extract --model model/ --text "Reduce waste by 20% by 2030."
    repro extract --task netzero-target --model clf/ --text "Net zero by 2040."
    repro evaluate --data goals.jsonl --model model/
    repro deploy --data goals.jsonl --db objectives.db --scale 0.05
    repro serve-fleet --replicas 3 --policy least-loaded --requests 48
    repro serve-fleet --replicas 2 --swap model/ --requests 48
    repro kg build --db objectives.db --out graph.json --workers auto
    repro kg drift --db objectives.db --json
    repro kg company --db objectives.db --rank
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from collections.abc import Sequence

from repro.core.extractor import ExtractorConfig, WeakSupervisionExtractor
from repro.core.schema import (
    NETZEROFACTS_FIELDS,
    SUSTAINABILITY_FIELDS,
    TAXONOMY_KPI_FIELDS,
)
from repro.datasets.base import Dataset, train_test_split
from repro.datasets.initiatives import build_initiative_sentences
from repro.datasets.netzero_targets import LABEL_FIELD, build_netzero_targets
from repro.datasets.netzerofacts import build_netzerofacts
from repro.datasets.sustainability import build_sustainability_goals
from repro.datasets.taxonomy_kpi import build_taxonomy_kpi
from repro.eval import evaluate_extractions, render_table
from repro.models.training import FineTuneConfig
from repro.runtime.errors import InputError, ReproError, RunInterrupted
from repro.runtime.resilience import MAX_BLOCK_CHARS, RetryPolicy, run_stage

#: Exit codes of ``repro extract`` / ``repro train`` (see DESIGN.md
#: "Failure model"): 0 = success (possibly partial, with a warning on
#: stderr), 2 = input error, 3 = model/numerical error, 4 = interrupted
#: by SIGINT/SIGTERM after a graceful drain — all in-flight work was
#: committed (journal segment or training checkpoint) and re-running
#: the same command with ``--resume`` continues where it left off.
EXIT_INPUT_ERROR = 2
EXIT_MODEL_ERROR = 3
EXIT_INTERRUPTED = 4


def _exit_code_for(error: ReproError) -> int:
    if isinstance(error, RunInterrupted):
        return EXIT_INTERRUPTED
    return EXIT_INPUT_ERROR if isinstance(error, InputError) else EXIT_MODEL_ERROR

def _workers_arg(value: str) -> int | str:
    """``--workers`` values: ``auto`` (one per CPU core) or a positive int."""
    if value == "auto":
        return "auto"
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer or 'auto', got {value!r}"
        ) from None
    if count < 1:
        raise argparse.ArgumentTypeError("workers must be >= 1")
    return count


_DATASET_BUILDERS = {
    "sustainability-goals": (build_sustainability_goals, SUSTAINABILITY_FIELDS),
    "netzerofacts": (build_netzerofacts, NETZEROFACTS_FIELDS),
    "taxonomy-kpi": (build_taxonomy_kpi, TAXONOMY_KPI_FIELDS),
    "netzero-target": (build_netzero_targets, (LABEL_FIELD,)),
    "initiative-sentence": (build_initiative_sentences, (LABEL_FIELD,)),
}


def _cmd_build_dataset(args: argparse.Namespace) -> int:
    builder, __ = _DATASET_BUILDERS[args.name]
    if args.size is None:
        dataset = builder(seed=args.seed)
    else:
        dataset = builder(seed=args.seed, size=args.size)
    dataset.save_jsonl(args.out)
    print(f"wrote {len(dataset)} objectives to {args.out}")
    return 0


def _cmd_tasks_list(args: argparse.Namespace) -> int:
    from repro.eval.tables import render_table as _render
    from repro.tasks import load_all_tasks

    rows = [
        [task.name, task.kind, ", ".join(task.fields), task.description]
        for task in load_all_tasks().values()
    ]
    print(_render(["Task", "Kind", "Fields", "Description"], rows))
    return 0


def _get_task_or_exit(name: str):
    """Registry lookup; unknown names print the taxonomy error (exit 2)."""
    from repro.tasks import get_task

    try:
        return get_task(name)
    except ReproError as error:
        print(f"error [{type(error).__name__}]: {error}", file=sys.stderr)
        return None


def _cmd_train(args: argparse.Namespace) -> int:
    task = _get_task_or_exit(args.task)
    if task is None:
        return EXIT_INPUT_ERROR
    if args.data:
        dataset = Dataset.load_jsonl(args.data)
    else:
        dataset = task.build_dataset(seed=args.seed, size=args.dataset_size)
        print(
            f"generated {len(dataset)} examples for task "
            f"{task.name!r} (seed {args.seed})"
        )
    finetune = FineTuneConfig(
        epochs=args.epochs, learning_rate=args.learning_rate
    )
    if task.kind == "extraction":
        fields = dataset.fields or task.fields
        model = task.build_model(
            fields=tuple(fields), model=args.model, finetune=finetune
        )
    else:
        model = task.build_model(finetune=finetune)
    train, __ = train_test_split(dataset, args.test_fraction, seed=args.seed)
    checkpoint = None
    if args.checkpoint_dir:
        from repro.runtime.checkpoint import CheckpointManager

        checkpoint = CheckpointManager(
            args.checkpoint_dir,
            every=args.checkpoint_every,
            resume=args.resume,
        )
    print(f"training on {len(train)} objectives ...")
    from repro.runtime.supervisor import GracefulShutdown

    try:
        if checkpoint is not None:
            # First SIGINT/SIGTERM drains: the next cadence poll commits
            # a checkpoint, then fit raises RunInterrupted (exit 4).
            with GracefulShutdown(
                on_signal=checkpoint.request_drain
            ) as shutdown:
                model.fit(train, checkpoint=checkpoint)
        else:
            model.fit(train)
    except RunInterrupted as error:
        print(
            f"interrupted ({shutdown.signal_name}): {error}",
            file=sys.stderr,
        )
        return EXIT_INTERRUPTED
    except ReproError as error:
        print(
            f"error [{type(error).__name__}]: {error}", file=sys.stderr
        )
        return _exit_code_for(error)
    if checkpoint is not None and checkpoint.resumed_from is not None:
        marker = " (rolled back past a corrupt checkpoint)" if (
            checkpoint.rolled_back
        ) else ""
        print(f"resumed_from_step={checkpoint.resumed_from}{marker}")
    model.save(args.out)
    print(
        f"saved model to {args.out} "
        f"(weak-label coverage {model.weak_summary()['coverage']:.1%})"
    )
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    task = _get_task_or_exit(args.task)
    if task is None:
        return EXIT_INPUT_ERROR
    try:
        model = task.load_model(args.model)
    except (OSError, KeyError, ValueError, ReproError) as error:
        print(f"error: cannot load model: {error}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    extractor = model.backend
    overrides = {}
    if args.batching:
        overrides["batching"] = args.batching
    if args.token_budget is not None:
        overrides["token_budget"] = args.token_budget
    if args.cache_capacity is not None:
        overrides["result_cache_capacity"] = args.cache_capacity
    if overrides:
        try:
            extractor.config = dataclasses.replace(
                extractor.config, **overrides
            )
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    if args.text:
        texts = [args.text]
    elif args.input:
        with open(args.input, encoding="utf-8") as handle:
            texts = [line.strip() for line in handle if line.strip()]
    else:
        print("either --text or --input is required", file=sys.stderr)
        return EXIT_INPUT_ERROR

    if args.quantize:
        if task.kind != "extraction":
            print(
                "error: --quantize applies to extraction tasks only",
                file=sys.stderr,
            )
            return EXIT_INPUT_ERROR
        try:
            report = extractor.enable_quantization(
                mode=args.quantize, calibration_texts=texts[:32]
            )
        except ReproError as error:
            print(
                f"error [{type(error).__name__}]: {error}", file=sys.stderr
            )
            return _exit_code_for(error)
        print(
            json.dumps({"quantization_gate": report.as_dict()}),
            file=sys.stderr,
        )

    policy = RetryPolicy(max_retries=args.max_retries)
    skipped = 0
    degraded = 0
    try:
        if not texts:
            raise InputError("no input texts", stage="validate")
        for index, text in enumerate(texts):
            if len(text) > MAX_BLOCK_CHARS:
                raise InputError(
                    f"input line {index + 1} is {len(text)} chars "
                    f"(limit {MAX_BLOCK_CHARS})",
                    stage="validate",
                )
        if args.run_dir:
            from repro.runtime.supervisor import GracefulShutdown

            # Durable journaled run: each committed segment survives a
            # crash; SIGINT/SIGTERM drains in-flight segments first.
            with GracefulShutdown() as shutdown:
                results = model.run_journaled(
                    texts,
                    args.run_dir,
                    workers=args.workers,
                    resume=args.resume,
                    segment_items=args.journal_segment,
                    on_error=args.on_error,
                    drain_event=shutdown.event,
                )
        elif task.kind == "extraction":
            results = _extract_resilient(
                extractor, texts, args.on_error, policy, workers=args.workers
            )
        else:
            results = model.run_resilient(
                texts,
                on_error=args.on_error,
                policy=policy,
                workers=args.workers,
            )
        for text, (details, status) in zip(texts, results):
            if status == "skipped":
                skipped += 1
                continue
            payload = {"objective": text, "details": details}
            if args.on_error != "raise":
                payload["status"] = status
            if status != "ok":
                degraded += 1
            print(json.dumps(payload))
    except RunInterrupted as error:
        print(f"interrupted: {error}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except ReproError as error:
        stage = error.stage or "extract"
        print(
            f"error [{type(error).__name__}] in stage {stage!r}: {error}",
            file=sys.stderr,
        )
        return _exit_code_for(error)
    if args.stats and extractor.last_run_stats is not None:
        print(
            json.dumps({"stats": extractor.last_run_stats.as_dict()}),
            file=sys.stderr,
        )
    if skipped or degraded:
        print(
            f"warning: partial success — {skipped} input(s) skipped, "
            f"{degraded} degraded to empty details",
            file=sys.stderr,
        )
    return 0


def _extract_resilient(
    extractor: WeakSupervisionExtractor,
    texts: list[str],
    on_error: str,
    policy: RetryPolicy,
    workers: int | str | None = 1,
) -> list[tuple[dict[str, str], str]]:
    """Batch-extract with per-text fault isolation.

    Mirrors the pipeline runtime: one optimistic batched call (sharded
    over worker processes when ``workers`` > 1 — bitwise-identical
    results either way); if it raises and the policy is not ``"raise"``,
    fall back to sequential per-text calls where each failure is skipped
    or degraded to empty details.
    """
    from repro.runtime.parallel import extract_batch_parallel, resolve_workers

    def batch() -> list[dict[str, str]]:
        if resolve_workers(workers) > 1 and len(texts) > 1:
            return extract_batch_parallel(extractor, texts, workers=workers)
        return extractor.extract_batch(texts)

    try:
        details_list = run_stage(batch, stage="extract", policy=policy)
        return [(details, "ok") for details in details_list]
    except ReproError:
        if on_error == "raise":
            raise
    empty = {field: "" for field in extractor.config.fields}
    results: list[tuple[dict[str, str], str]] = []
    for text in texts:
        try:
            details = run_stage(
                lambda t=text: extractor.extract(t),
                stage="extract",
                policy=policy,
            )
            results.append((details, "ok"))
        except ReproError:
            if on_error == "skip":
                results.append((dict(empty), "skipped"))
            else:
                results.append((dict(empty), "failed"))
    return results


def _cmd_evaluate(args: argparse.Namespace) -> int:
    dataset = Dataset.load_jsonl(args.data)
    extractor = WeakSupervisionExtractor.load(args.model)
    __, test = train_test_split(dataset, args.test_fraction, seed=args.seed)
    predictions = extractor.extract_batch([o.text for o in test.objectives])
    report = evaluate_extractions(
        predictions, [o.details for o in test.objectives], dataset.fields
    )
    rows = [
        [field] + [f"{m:.3f}" for m in report.field_metrics(field)]
        for field in dataset.fields
    ]
    rows.append(
        [
            "micro",
            f"{report.precision:.3f}",
            f"{report.recall:.3f}",
            f"{report.f1:.3f}",
        ]
    )
    print(render_table(["Field", "P", "R", "F1"], rows))
    return 0


def _cmd_deploy(args: argparse.Namespace) -> int:
    from repro.deploy import build_trained_pipeline, run_scenario_1

    dataset = Dataset.load_jsonl(args.data)
    print("training detector + extractor ...")
    pipeline = build_trained_pipeline(
        dataset,
        seed=args.seed,
        extractor_config=ExtractorConfig(
            fields=tuple(dataset.fields or SUSTAINABILITY_FIELDS),
            finetune=FineTuneConfig(epochs=args.epochs),
        ),
    )
    from repro.runtime.parallel import resolve_workers

    workers = resolve_workers(args.workers)
    print(
        f"processing deployment corpus (scale={args.scale}, "
        f"workers={workers}) ..."
    )
    result = run_scenario_1(
        pipeline, scale=args.scale, store_path=args.db, workers=workers
    )
    docs, pages, detected = result.totals
    print(
        f"processed {docs} documents / {pages} pages; "
        f"stored {detected} objectives in {args.db}"
    )
    result.store.close()
    return 0


def _cmd_serve_fleet(args: argparse.Namespace) -> int:
    import threading
    import time
    from pathlib import Path

    from repro.serve.engine import ServingConfig
    from repro.serve.fleet import FleetConfig, FleetRouter
    from repro.serve.loadgen import (
        LoadLevel,
        build_demo_backend,
        build_request_texts,
        build_swappable_extractor,
        run_load_level,
    )

    try:
        config = FleetConfig(
            replicas=args.replicas,
            policy=args.policy,
            engine=ServingConfig(
                num_workers=args.workers, queue_depth=args.queue_depth
            ),
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    detector, extractor = build_demo_backend(seed=args.seed)
    if args.swap:
        # The hot-swap path needs a checkpoint that round-trips through
        # the manifest-verified load; the demo extractor's shrunken
        # encoder does not, so serve the zoo-geometry one instead.
        extractor = build_swappable_extractor(seed=args.seed)
        swap_dir = Path(args.swap)
        if not (swap_dir / "config.json").exists():
            print(f"saving swap checkpoint to {swap_dir} ...")
            extractor.save(swap_dir)
    texts = build_request_texts(args.seed + 1, max(args.requests, 8))
    level = LoadLevel(
        name=f"closed-{args.concurrency}",
        concurrency=args.concurrency,
        num_requests=args.requests,
    )
    print(
        f"fleet: {args.replicas} replica(s), policy={args.policy}, "
        f"{args.requests} requests at concurrency {args.concurrency}"
    )
    router = FleetRouter(
        detector=detector, extractor=extractor, config=config
    )
    swap_report = None
    with router:
        swapper = None
        if args.swap:
            def _swap_later() -> None:
                nonlocal swap_report
                time.sleep(args.swap_after)
                swap_report = router.swap_model(
                    args.swap, probe_texts=texts[:2]
                )

            swapper = threading.Thread(target=_swap_later, daemon=True)
            swapper.start()
        load_report = run_load_level(router, texts, level, kind=args.kind)
        if swapper is not None:
            swapper.join(timeout=120.0)
        snapshot = router.metrics_snapshot()
    counters = snapshot["router"]["counters"]
    print(
        f"completed {counters.get('completed', 0):.0f} / "
        f"submitted {counters.get('submitted', 0):.0f} "
        f"(failed {counters.get('failed', 0):.0f}, "
        f"rejected {counters.get('rejected', 0):.0f}, "
        f"failover redispatches "
        f"{counters.get('failover.redispatched', 0):.0f}); "
        f"client p95 {load_report['latency']['p95'] * 1000:.1f} ms"
    )
    print(f"health: {snapshot['router']['health']}")
    if swap_report is not None:
        print(
            f"swap: {swap_report.status} "
            f"(gen {swap_report.from_generation} -> "
            f"{swap_report.to_generation}, states {swap_report.states}, "
            f"rejections during swap {swap_report.rejections_during_swap})"
            + (f" reason: {swap_report.reason}" if swap_report.reason else "")
        )
    if args.out:
        payload = {
            "config": {
                "replicas": args.replicas,
                "policy": args.policy,
                "workers": args.workers,
                "requests": args.requests,
                "concurrency": args.concurrency,
                "kind": args.kind,
                "seed": args.seed,
            },
            "load": load_report,
            "fleet": snapshot,
            "swap": swap_report.as_dict() if swap_report else None,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


def _kg_rows(args: argparse.Namespace):
    """Graph rows from the chosen source: a store DB or the demo panel."""
    from repro.kg import rows_from_records, rows_from_store

    if args.db:
        from repro.storage import ObjectiveStore

        store = ObjectiveStore(args.db)
        try:
            return rows_from_store(store)
        finally:
            store.close()
    if args.panel:
        from repro.datasets.sustainability import (
            build_company_panel,
            panel_records,
        )

        panel = build_company_panel(seed=args.seed)
        return rows_from_records(panel_records(panel))
    raise InputError("either --db or --panel is required", stage="kg")


def _kg_graph(args: argparse.Namespace):
    from repro.kg import build_graph, build_graph_parallel

    rows = _kg_rows(args)
    workers = getattr(args, "workers", 1)
    from repro.runtime.parallel import resolve_workers

    if resolve_workers(workers) > 1:
        return build_graph_parallel(
            rows, workers=workers, resolve_threshold=args.resolve_threshold
        )
    return build_graph(rows, resolve_threshold=args.resolve_threshold)


def _cmd_kg_build(args: argparse.Namespace) -> int:
    from repro.kg import graph_fingerprint, graph_to_payload

    try:
        graph = _kg_graph(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return _exit_code_for(error)
    payload = graph_to_payload(graph)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    kinds: dict[str, int] = {}
    for node in payload["nodes"]:
        kinds[node["kind"]] = kinds.get(node["kind"], 0) + 1
    merges = len(payload["resolution"].get("merges", []))
    print(
        f"graph: {len(payload['nodes'])} nodes "
        f"({', '.join(f'{kinds[k]} {k}' for k in sorted(kinds))}), "
        f"{len(payload['edges'])} edges, {merges} alias merge(s)"
    )
    print(f"fingerprint: {graph_fingerprint(graph)}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _cmd_kg_drift(args: argparse.Namespace) -> int:
    from repro.kg import detect_drift

    try:
        graph = _kg_graph(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return _exit_code_for(error)
    findings = detect_drift(
        graph,
        similarity_threshold=args.similarity_threshold,
        amount_tolerance=args.amount_tolerance,
    )
    if args.json:
        for finding in findings:
            print(json.dumps(finding.as_dict(), sort_keys=True))
    else:
        rows = [
            [
                finding.kind,
                finding.company,
                finding.topic,
                f"{finding.year_from}->{finding.year_to}",
                finding.before,
                finding.after,
                finding.provenance[0].report_id,
            ]
            for finding in findings
        ]
        print(
            render_table(
                ["Kind", "Company", "Topic", "Years", "Before", "After",
                 "Source"],
                rows,
            )
        )
    print(f"{len(findings)} drift finding(s)", file=sys.stderr)
    return 0


def _cmd_kg_company(args: argparse.Namespace) -> int:
    from repro.kg import all_scorecards, company_scorecard, detect_drift

    try:
        graph = _kg_graph(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return _exit_code_for(error)
    findings = detect_drift(graph)
    if args.name:
        try:
            card = company_scorecard(graph, args.name, findings)
        except KeyError:
            print(f"error: unknown company {args.name!r}", file=sys.stderr)
            return EXIT_INPUT_ERROR
        print(json.dumps(card.as_dict(), indent=2, sort_keys=True))
        return 0
    cards = sorted(
        all_scorecards(graph, findings),
        key=lambda c: (-c.risk, c.company),
    )
    rows = [
        [
            card.company,
            f"{card.risk:.3f}",
            str(card.objectives),
            f"{card.mean_specificity:.2f}",
            str(sum(card.drift_counts.values())),
            ",".join(str(year) for year in card.reporting_years),
        ]
        for card in cards
    ]
    print(
        render_table(
            ["Company", "Risk", "Objectives", "Specificity", "Drift",
             "Years"],
            rows,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Weak-supervision sustainability detail extraction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tasks = sub.add_parser(
        "tasks", help="inspect the task registry (see DESIGN.md §6h)"
    )
    tasks_sub = tasks.add_subparsers(dest="tasks_command", required=True)
    tasks_list = tasks_sub.add_parser(
        "list", help="list every registered task with its schema"
    )
    tasks_list.set_defaults(func=_cmd_tasks_list)

    build = sub.add_parser("build-dataset", help="generate a dataset JSONL")
    build.add_argument("--name", choices=sorted(_DATASET_BUILDERS), required=True)
    build.add_argument("--seed", type=int, default=0)
    build.add_argument(
        "--size",
        type=int,
        default=None,
        help="number of examples (default: the dataset's paper-scale size)",
    )
    build.add_argument("--out", required=True)
    build.set_defaults(func=_cmd_build_dataset)

    train = sub.add_parser("train", help="train a task model")
    train.add_argument(
        "--task",
        default="goalspotter",
        help="registered task to train (see 'repro tasks list'; "
        "default goalspotter)",
    )
    train.add_argument(
        "--data",
        help="dataset JSONL (default: generate the task's own dataset)",
    )
    train.add_argument("--out", required=True)
    train.add_argument(
        "--model",
        default="roberta",
        help="encoder zoo variant (extraction tasks only)",
    )
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--learning-rate", type=float, default=1e-3)
    train.add_argument("--test-fraction", type=float, default=0.2)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument(
        "--dataset-size",
        type=int,
        default=None,
        help="generated-dataset size when --data is omitted",
    )
    train.add_argument(
        "--checkpoint-dir",
        help="directory for durable training checkpoints (atomic, "
        "checksummed; resume is bitwise-identical to uninterrupted)",
    )
    train.add_argument(
        "--checkpoint-every",
        type=int,
        default=10,
        help="checkpoint every N optimizer steps (default 10)",
    )
    train.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="resume from the latest good checkpoint in --checkpoint-dir "
        "(default on; --no-resume starts fresh)",
    )
    train.set_defaults(func=_cmd_train)

    extract = sub.add_parser("extract", help="extract details from text")
    extract.add_argument(
        "--task",
        default="goalspotter",
        help="registered task the saved model belongs to "
        "(classification tasks emit Label/Score rows)",
    )
    extract.add_argument("--model", required=True)
    extract.add_argument("--text")
    extract.add_argument("--input", help="file with one objective per line")
    extract.add_argument(
        "--batching",
        choices=["bucketed", "arrival"],
        help="override the inference batching strategy",
    )
    extract.add_argument(
        "--token-budget",
        type=int,
        help="padded-token budget per microbatch (bucketed batching)",
    )
    extract.add_argument(
        "--cache-capacity",
        type=int,
        help="content-addressed result cache entries (0 disables; repeated "
        "inputs are served bitwise-identically without a forward pass)",
    )
    extract.add_argument(
        "--quantize",
        choices=["int8"],
        help="enable the int8 encoder path, gated on an equivalence check "
        "over the inputs (refuses — exit 3 — if any top label changes)",
    )
    extract.add_argument(
        "--stats",
        action="store_true",
        help="print runtime stats (tokens/sec, padding waste, BPE and "
        "result_cache_* hit/miss/eviction counters) as JSON on stderr",
    )
    extract.add_argument(
        "--on-error",
        choices=["raise", "skip", "degrade"],
        default="raise",
        help="failure policy: abort (exit 2/3), skip failed inputs, or "
        "degrade them to empty flagged details (partial success exits 0 "
        "with a warning on stderr)",
    )
    extract.add_argument(
        "--max-retries",
        type=int,
        default=0,
        help="retry attempts per extraction stage (seeded backoff)",
    )
    extract.add_argument(
        "--workers",
        type=_workers_arg,
        default=1,
        help="worker processes for batch extraction ('auto' = one per "
        "CPU core); results are bitwise-identical to --workers 1",
    )
    extract.add_argument(
        "--run-dir",
        default=None,
        help="durable run directory: journal every segment so a crashed "
        "or interrupted run resumes exactly once (output is "
        "bitwise-identical to an uninterrupted run)",
    )
    extract.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="with --run-dir: replay the journal and skip committed "
        "segments (default on; --no-resume wipes the run directory)",
    )
    extract.add_argument(
        "--journal-segment",
        type=int,
        default=16,
        metavar="N",
        help="with --run-dir: target inputs per journal segment "
        "(default 16); smaller segments commit more often",
    )
    extract.set_defaults(func=_cmd_extract)

    evaluate = sub.add_parser("evaluate", help="evaluate a saved model")
    evaluate.add_argument("--data", required=True)
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument("--test-fraction", type=float, default=0.2)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.set_defaults(func=_cmd_evaluate)

    deploy = sub.add_parser("deploy", help="run the deployment pipeline")
    deploy.add_argument("--data", required=True)
    deploy.add_argument("--db", default="objectives.db")
    deploy.add_argument("--scale", type=float, default=0.05)
    deploy.add_argument("--epochs", type=int, default=10)
    deploy.add_argument("--seed", type=int, default=0)
    deploy.add_argument(
        "--workers",
        type=_workers_arg,
        default="auto",
        help="worker processes for corpus processing (default 'auto' = "
        "one per CPU core); records are bitwise-identical to --workers 1",
    )
    deploy.set_defaults(func=_cmd_deploy)

    from repro.serve.router import ROUTING_POLICIES

    fleet = sub.add_parser(
        "serve-fleet",
        help="drive a replicated serving fleet (routing, failover, hot-swap)",
    )
    fleet.add_argument("--replicas", type=int, default=2,
                       help="serving replicas (default 2)")
    fleet.add_argument("--policy", choices=sorted(ROUTING_POLICIES),
                       default="least-loaded",
                       help="routing policy (default least-loaded)")
    fleet.add_argument("--requests", type=int, default=32,
                       help="total requests to drive (default 32)")
    fleet.add_argument("--concurrency", type=int, default=4,
                       help="closed-loop client concurrency (default 4)")
    fleet.add_argument("--workers", type=int, default=1,
                       help="worker threads per replica (default 1)")
    fleet.add_argument("--queue-depth", type=int, default=256,
                       help="per-priority queue bound per replica")
    fleet.add_argument("--kind", choices=["extract", "detect"],
                       default="extract", help="which stage to serve")
    fleet.add_argument("--swap", metavar="DIR", default=None,
                       help="hot-swap to the checkpoint in DIR mid-run "
                       "(saved there first if DIR is empty)")
    fleet.add_argument("--swap-after", type=float, default=0.2,
                       help="seconds into the run to trigger the swap")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--out", default=None,
                       help="optional JSON report path")
    fleet.set_defaults(func=_cmd_serve_fleet)

    kg_source = argparse.ArgumentParser(add_help=False)
    kg_source.add_argument(
        "--db", default=None,
        help="objective store path (schema v2 with reporting years)",
    )
    kg_source.add_argument(
        "--panel", action="store_true",
        help="use the seeded multi-year demo panel instead of a store",
    )
    kg_source.add_argument("--seed", type=int, default=0,
                           help="panel seed (with --panel)")
    kg_source.add_argument(
        "--resolve-threshold", type=float, default=0.6,
        help="entity-resolution token-set similarity bound (default 0.6)",
    )

    kg = sub.add_parser(
        "kg",
        help="knowledge graph: entity resolution, goal tracking, drift",
    )
    kg_sub = kg.add_subparsers(dest="kg_command", required=True)

    kg_build = kg_sub.add_parser(
        "build", parents=[kg_source],
        help="build the knowledge graph and write its canonical JSON",
    )
    kg_build.add_argument("--out", default=None,
                          help="canonical graph JSON path")
    kg_build.add_argument(
        "--workers", type=_workers_arg, default=1,
        help="worker processes for sharded ingestion ('auto' = one per "
        "CPU core); the graph is bitwise-identical to --workers 1",
    )
    kg_build.set_defaults(func=_cmd_kg_build)

    kg_drift = kg_sub.add_parser(
        "drift", parents=[kg_source],
        help="scan goal threads for greenwashing drift patterns",
    )
    kg_drift.add_argument(
        "--similarity-threshold", type=float, default=0.5,
        help="goal-identity Jaccard bound for threading (default 0.5)",
    )
    kg_drift.add_argument(
        "--amount-tolerance", type=float, default=0.0,
        help="relative ambition shrink tolerated before weakened_amount "
        "fires (default 0.0 = any shrink)",
    )
    kg_drift.add_argument("--json", action="store_true",
                          help="one JSON finding per line instead of a table")
    kg_drift.set_defaults(func=_cmd_kg_drift)

    kg_company = kg_sub.add_parser(
        "company", parents=[kg_source],
        help="company scorecards and the greenwashing-risk ranking",
    )
    kg_company.add_argument(
        "--name", default=None,
        help="canonical company name (omit for the full risk ranking)",
    )
    kg_company.set_defaults(func=_cmd_kg_company)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
