"""Smoke test of the benchmark: every workload once, at a tiny size.

    PYTHONPATH=src python -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_and_nothing_failed(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0, proc.stderr
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"], m["name"]
        assert isinstance(printed["value"], (int, float)), m["name"]
    if trace:
        assert result["metrics"]["failed_frac"]["value"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("mc-rs16", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _fake_layers(monkeypatch):
    mod = types.ModuleType("fake_layers")

    def inner(depth):
        time.sleep(0.002)
        return mod.inner(depth - 1) if depth else depth

    def outer():
        time.sleep(0.002)
        return mod.inner(2)

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    return mod


def test_tracer_counts_reentered_spans_once_and_reports_absent_names(monkeypatch):
    mod = _fake_layers(monkeypatch)
    from spans import Tracer

    tracer = Tracer((
        ("fake_layers", "outer", "outer", None),
        ("fake_layers", "inner", "inner", None),
        ("fake_layers", "renamed_away", "gone", None),
        ("no_such_module", "f", "gone_module", None),
    ))
    with tracer:
        start = time.perf_counter_ns()
        mod.outer()
        wall = time.perf_counter_ns() - start
    assert mod.outer.__name__ == "outer"  # originals restored
    assert tracer.absent == {"gone", "gone_module"}
    assert tracer.calls("inner") == 3 and tracer.calls("outer") == 1
    total = tracer.stats["inner"].self_ns + tracer.stats["outer"].self_ns
    assert total == tracer.root_ns <= wall
    assert tracer.stats["inner"].self_ns >= 3 * 2_000_000


def test_missing_layer_reads_absent_not_zero():
    from spans import BINDINGS, Tracer, layer_metrics

    kept = tuple(b for b in BINDINGS if not b[2].startswith("montecarlo.dimcheck"))
    tracer = Tracer(kept + (("rsdec.montecarlo", "gone", "montecarlo.dimcheck.nullspace", None),
                            ("rsdec.montecarlo", "gone", "montecarlo.dimcheck.build", None)))
    metrics = layer_metrics(tracer, 1.0)
    assert metrics["montecarlo.dimcheck.calls"][0] is None
    assert metrics["montecarlo.dimcheck.self_s"][0] is None
    assert metrics["linalg.nullspace.calls"][0] == 0
