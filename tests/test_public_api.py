"""Public-API conformance: every repro module imports, ``__all__`` is honest.

Walks the whole ``repro`` package, imports every module, and enforces the
export contract:

* every package ``__init__`` declares ``__all__``;
* every declared ``__all__`` (package or leaf module) is sorted,
  duplicate-free, names only public symbols, and every name actually
  resolves on the module — no phantom exports;
* the facade packages (``repro.runtime``, ``repro.serve``) re-export the
  parallel-runtime symbols introduced with :mod:`repro.runtime.parallel`.
"""

import importlib
import pkgutil

import pytest

import repro

EXPECTED_RUNTIME_PARALLEL_EXPORTS = (
    "PipelineBroadcast",
    "Shard",
    "broadcast_pipeline",
    "estimate_report_cost",
    "estimate_text_cost",
    "extract_batch_parallel",
    "map_shards",
    "plan_shards",
    "process_reports_parallel",
    "resolve_workers",
    "restore_pipeline",
    "shard_seed",
)

EXPECTED_SERVE_PARALLEL_EXPORTS = ()

#: The light task-registry surface re-exported from the top-level package.
EXPECTED_TASKS_EXPORTS = (
    "Task",
    "TaskRegistryError",
    "get_task",
    "register_task",
    "task_names",
)


def _walk_module_names() -> list[str]:
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return sorted(names)


ALL_MODULES = _walk_module_names()
PACKAGES = [
    name
    for name in ALL_MODULES
    if importlib.import_module(name).__name__
    == importlib.import_module(name).__package__
]


@pytest.mark.parametrize("module_name", ALL_MODULES)
def test_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize("module_name", PACKAGES)
def test_package_declares_all(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), (
        f"{module_name} is a package but declares no __all__"
    )
    assert module.__all__, f"{module_name}.__all__ is empty"


@pytest.mark.parametrize(
    "module_name",
    [
        name
        for name in ALL_MODULES
        if hasattr(importlib.import_module(name), "__all__")
    ],
)
def test_declared_exports_resolve(module_name):
    """__all__ matches what the module exports: no phantoms, no privates."""
    module = importlib.import_module(module_name)
    exported = list(module.__all__)
    assert exported == sorted(exported), (
        f"{module_name}.__all__ is not sorted"
    )
    assert len(exported) == len(set(exported)), (
        f"{module_name}.__all__ has duplicates"
    )
    for name in exported:
        is_dunder = name.startswith("__") and name.endswith("__")
        assert is_dunder or not name.startswith("_"), (
            f"{module_name}.__all__ exports private name {name!r}"
        )
        assert hasattr(module, name), (
            f"{module_name}.__all__ declares {name!r} "
            "but the module does not define it"
        )


class TestParallelReExports:
    def test_runtime_facade_exports_parallel_symbols(self):
        import repro.runtime as runtime
        import repro.runtime.parallel as parallel

        for name in EXPECTED_RUNTIME_PARALLEL_EXPORTS:
            assert name in runtime.__all__, name
            assert getattr(runtime, name) is getattr(parallel, name), name

    def test_parallel_module_all_is_complete(self):
        import repro.runtime.parallel as parallel

        assert set(EXPECTED_RUNTIME_PARALLEL_EXPORTS) == set(
            parallel.__all__
        )

    def test_serve_facade_exports_parallel_symbols(self):
        import repro.runtime.parallel as parallel
        import repro.serve as serve

        for name in EXPECTED_SERVE_PARALLEL_EXPORTS:
            assert name in serve.__all__, name
            assert getattr(serve, name) is getattr(parallel, name), name


class TestTasksReExports:
    def test_tasks_package_surface(self):
        import repro.tasks as tasks

        for name in EXPECTED_TASKS_EXPORTS:
            assert name in tasks.__all__, name

    def test_top_level_reexports_registry(self):
        import repro.tasks as tasks

        for name in EXPECTED_TASKS_EXPORTS:
            if name == "TaskRegistryError":
                continue  # lives on repro.runtime, not the top level
            assert name in repro.__all__, name
            assert getattr(repro, name) is getattr(tasks, name), name

    def test_runtime_exports_task_registry_error(self):
        import repro.runtime as runtime
        from repro.runtime.errors import TaskRegistryError

        assert "TaskRegistryError" in runtime.__all__
        assert runtime.TaskRegistryError is TaskRegistryError
