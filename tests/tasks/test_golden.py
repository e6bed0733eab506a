"""Frozen golden fixtures, one per registered task.

Each fixture pins the exact output rows (and eval metrics) the task's
golden-recipe model produces on its pinned eval slice. Scores are
``repr`` strings, so string equality here is bitwise equality of the
underlying floats. Each fixture also records the numeric environment it
was frozen in; on a mismatch the failure names the changed environment
keys before the row diff, as ``tests/integration/test_golden.py`` does.
Regenerate deliberately with::

    pytest tests/tasks/test_golden.py --update-golden

and review the diff before committing.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.nn.precision import numeric_environment
from tests.integration.test_golden import _environment_drift
from tests.tasks.conftest import GOLDEN_DIR

pytestmark = [pytest.mark.tasks, pytest.mark.golden]


def _payload(trained) -> dict:
    return {
        "task": trained.task.name,
        "kind": trained.task.kind,
        "fields": list(trained.task.fields),
        "recipe": dataclasses.asdict(trained.recipe),
        "rows": [
            {"text": text, "details": row}
            for text, row in zip(trained.texts, trained.rows)
        ],
        "metrics": trained.task.evaluate(trained.model, trained.eval_dataset),
    }


def test_golden_fixture(trained, update_golden):
    path = GOLDEN_DIR / f"task_{trained.task.name}.json"
    payload = _payload(trained)
    if update_golden:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {**payload, "environment": numeric_environment()},
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        pytest.skip(f"rewrote {path}")
    assert path.exists(), (
        f"{path} is missing; generate it with --update-golden"
    )
    with open(path, encoding="utf-8") as handle:
        frozen = json.load(handle)
    environment = frozen.pop("environment", {})
    assert payload == frozen, (
        _environment_drift({"environment": environment})
        + f"golden fixture drift for task {trained.task.name!r}; if the "
        "change is intentional, regenerate with --update-golden"
    )
