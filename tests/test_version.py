"""The package version must be stated once and agree everywhere:
``pyproject.toml``, ``repro.__version__`` and ``repro-sched --version``.
A committed ``BENCH_*.json`` that records the version must not lag it
by a minor release or more.
"""

import json
import re
from pathlib import Path

import pytest

import repro
from repro.cli import main

_ROOT = Path(__file__).resolve().parents[1]


def pyproject_version() -> str:
    text = (_ROOT / "pyproject.toml").read_text()
    try:
        import tomllib

        return tomllib.loads(text)["project"]["version"]
    except ImportError:  # Python 3.10: no tomllib, no added dependency
        match = re.search(
            r'^version\s*=\s*"([^"]+)"', text, re.MULTILINE
        )
        assert match, "pyproject.toml has no version field"
        return match.group(1)


def test_package_version_matches_pyproject():
    assert repro.__version__ == pyproject_version()


def test_cli_version_matches_pyproject(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out.strip()
    assert out == f"repro-sched {pyproject_version()}"


def test_version_is_pep440_ish():
    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)


def recorded_versions(node, where="$"):
    """``(json path, version)`` for every package version a benchmark
    record carries: X.Y.Z strings under a ``version`` key."""
    if isinstance(node, dict):
        for key, value in node.items():
            path = f"{where}.{key}"
            if key == "version" and isinstance(value, str) and re.fullmatch(
                r"\d+\.\d+\.\d+", value
            ):
                yield path, value
            else:
                yield from recorded_versions(value, path)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from recorded_versions(value, f"{where}[{i}]")


def _minor(version: str):
    return tuple(int(x) for x in version.split(".")[:2])


def test_recorded_versions_finds_nested_package_versions():
    record = {"schema": "bench-v1", "cells": [
        {"daemon_stats": {"version": "1.1.0"}, "python": "3.11.7"},
    ]}
    assert list(recorded_versions(record)) == [
        ("$.cells[0].daemon_stats.version", "1.1.0"),
    ]


@pytest.mark.parametrize(
    "bench", sorted(p.name for p in _ROOT.glob("BENCH_*.json"))
)
def test_committed_bench_file_is_not_a_minor_release_behind(bench):
    """A committed benchmark that records the package version must have
    been recorded by the current ``major.minor`` (or a later one)."""
    data = json.loads((_ROOT / bench).read_text())
    stale = [
        f"{path} = {version}"
        for path, version in recorded_versions(data)
        if _minor(version) < _minor(repro.__version__)
    ]
    assert not stale, (
        f"{bench} was recorded by an older release than "
        f"{repro.__version__}; re-record it: {stale}"
    )
