"""Run one benchmark measurement and print its result.

    python3 perfbench/run.py --workload deploy --seed 0 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src/``. The
last line of standard output is the result object (``correct``,
``attempted``, ``failed``, ``metrics``); the line before it records the
numeric environment. ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a traced run. Exit status: 0 for
a correct run, 1 when an output check failed, 2 when the program cannot
be imported. Scratch files live under ``.perfbench/`` in the root and
are removed at exit; a traced run leaves its spans in
``.perfbench/trace-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("deploy", "extract", "serve")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # The script's own directory would shadow stdlib names; import the
    # benchmark as a package from the root and the program from src/.
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import env

    env.pin_blas_threads()
    try:
        import repro
    except ImportError as error:
        print(
            f"perfbench: cannot import the program from {ROOT / 'src'}: "
            f"{error}",
            file=sys.stderr,
        )
        return 2
    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        print(
            f"perfbench: imported repro from {repro.__file__}, not from "
            f"this checkout's {ROOT / 'src'}",
            file=sys.stderr,
        )
        return 2
    from perfbench.workloads import run_workload

    scratch = ROOT / ".perfbench"
    workdir = scratch / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run_workload(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            workdir,
            trace_path=scratch / f"trace-{args.workload}.jsonl",
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in result.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"environment": env.fingerprint()}))
    print(json.dumps(result.as_json()))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
