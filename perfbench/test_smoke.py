"""Smoke test of the benchmark at a tiny size, covering every workload.

    python3 -m pytest perfbench/test_smoke.py

Each workload runs one short cycle untraced and traced; the test checks
that every metric named in BENCHMARK.json is reported with its unit, that
every output matched its stored digest, and that tracing left no patched
binding behind.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
from refclock import RefClock

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.fixture(scope="module")
def library():
    clock = RefClock()
    import_s = run.load_library(clock)
    run.OUT.mkdir(exist_ok=True)
    return clock, import_s


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reports_every_metric_and_no_failure(workload, trace, library):
    result = run.run_workload(workload, 1, 0, bool(trace), *library, tiny=True)
    final = result["final"]
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in final["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    json.dumps(final, allow_nan=False)
    assert result["record"]["extra"]["fail_frac"] == 0, result["lines"]
    assert final["failed"] == 0 and final["correct"], result["lines"]


def _bindings() -> dict:
    """Every name bound in a padicglue module or on a padicglue class."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "padicglue" or name.startswith("padicglue."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("padicglue"):
                    for member, fn in vars(value).items():
                        out[(name, attr, member)] = fn
    return out


def test_tracer_restores_every_binding(library):
    before = _bindings()
    run.run_workload("orbits", 1, 0, True, *library, tiny=True)
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_fails_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__")
    )
    command = BENCHMARK["command"] + [
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"
    ]
    proc = subprocess.run(
        [sys.executable] + command[1:], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
