"""Smoke test of the benchmark itself, at tiny input sizes.

    python -m pytest benchmarks/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer  # noqa: E402


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    proc = bench(
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stdout

    declared = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], metric["name"]
        assert isinstance(reported["value"], (int, float))
        if trace == 0:
            assert reported["value"] > 0, metric["name"]
    if trace == 1:
        calls = result["metrics"]["transport.sinkhorn_calls"]["value"]
        assert (calls > 0) == (workload == "fair_train")


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(
        "--workload", "fair_train", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_tracer_self_time_and_absent_targets():
    ticks = iter(range(100))
    tracer = Tracer(
        targets=(
            ("fairppm.transport", "exact_w1_1d", "transport.exact"),
            ("fairppm.transport", "no_such_function", "transport.absent"),
        ),
        clock=lambda: float(next(ticks)),
    )
    tracer.install()
    import fairppm.transport as transport

    try:
        outer = tracer.open("outer")
        transport.exact_w1_1d([0.0, 1.0], [0.5])
        tracer.close(outer)
    finally:
        tracer.uninstall()

    assert tracer.missing == ["fairppm.transport.no_such_function"]
    assert not hasattr(transport.exact_w1_1d, "__wrapped__")
    (inner,) = tracer.named("transport.exact")
    assert inner.parent == outer
    assert tracer.total_s("outer") == 3.0 and tracer.self_total_s("outer") == 2.0
    assert tracer.named("transport.absent") == []
