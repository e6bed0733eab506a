"""Every ``pytest.mark.<name>`` in the repo must be registered.

``pyproject.toml`` is the single source of truth for custom markers
(tier selection like ``-m 'not slow'`` silently matches nothing when a
marker is misspelled or unregistered, so hygiene here is load-bearing).
"""

import re
import tomllib
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Markers pytest itself (or a bundled plugin) defines.
BUILTIN_MARKERS = {
    "filterwarnings",
    "parametrize",
    "skip",
    "skipif",
    "usefixtures",
    "xfail",
}

MARK_PATTERN = re.compile(r"pytest\.mark\.([A-Za-z_][A-Za-z0-9_]*)")


def registered_markers() -> set[str]:
    with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
        config = tomllib.load(handle)
    lines = config["tool"]["pytest"]["ini_options"]["markers"]
    return {line.split(":", 1)[0].strip() for line in lines}


def used_markers() -> dict[str, set[str]]:
    """Marker name -> the files that use it, across tests and benches."""
    usages: dict[str, set[str]] = {}
    for directory in ("tests", "benchmarks"):
        for path in (REPO_ROOT / directory).rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            for name in MARK_PATTERN.findall(text):
                usages.setdefault(name, set()).add(
                    str(path.relative_to(REPO_ROOT))
                )
    return usages


class TestMarkerHygiene:
    def test_every_used_marker_is_registered(self):
        registered = registered_markers() | BUILTIN_MARKERS
        unregistered = {
            name: sorted(files)
            for name, files in used_markers().items()
            if name not in registered
        }
        assert not unregistered, (
            f"unregistered pytest markers {unregistered}; add them to "
            f"[tool.pytest.ini_options] markers in pyproject.toml"
        )

    def test_every_registered_marker_is_used(self):
        """Dead registrations hide typos just as well as missing ones."""
        unused = registered_markers() - set(used_markers())
        assert not unused, f"registered but never used: {sorted(unused)}"

    def test_new_subsystem_markers_present(self):
        registered = registered_markers()
        assert {"cache", "fleet", "kg", "tasks"} <= registered

    def test_marker_lines_have_descriptions(self):
        with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
            config = tomllib.load(handle)
        for line in config["tool"]["pytest"]["ini_options"]["markers"]:
            assert ":" in line and line.split(":", 1)[1].strip(), (
                f"marker {line!r} has no description"
            )

    def test_slow_marker_is_deselected_by_default(self):
        with open(REPO_ROOT / "pyproject.toml", "rb") as handle:
            config = tomllib.load(handle)
        addopts = config["tool"]["pytest"]["ini_options"]["addopts"]
        assert "not slow" in addopts


@pytest.mark.smoke
def test_hygiene_checks_run_under_default_tier():
    """This module itself must stay in tier 1 (not slow-marked)."""
    assert True
