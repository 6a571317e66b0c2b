"""fairppm benchmark: measure one workload and print its metrics as JSON.

    python3 benchmarks/run.py --workload fair_train --seed 1 --seconds 20 --trace 0

Run from the repository root. The package is imported from ``src/`` next to
this directory. ``BENCHMARK.json`` declares the workloads and the metrics
printed, with their units.

--trace 0  one untraced process: every end-to-end metric. Timings are at
           reference host speed (see calibration.py); the plain wall-clock
           medians are printed on the line before the result.
--trace 1  one untraced and one traced process, each doing one setup and
           one operation: every per-layer metric, the tracing overhead, and a
           check that both wrote byte-identical checkpoints and reports.

Each measurement runs in a child process with OPENBLAS_NUM_THREADS=1. The
last line of stdout is ``{"correct", "attempted", "failed", "metrics"}``.
Spans of traced runs and the digests used for the rerun check are kept in
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
DEADLINE_S = 170  # the whole invocation must end within 180 s



def source_digest() -> str:
    """Digest of the package and benchmark sources: reruns are compared only
    between identical code."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_child(args, mode: str, work: Path, deadline: float) -> dict:
    result = work / f"{mode}.json"
    cmd = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--work", str(work / mode),
        "--result", str(result),
        "--size", args.size,
    ]
    if mode == "traced":
        cmd += ["--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    timeout = max(1.0, deadline - time.monotonic())
    # child stdout carries the CLI's progress lines; keep our stdout for results
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=timeout, check=False)
    if proc.returncode != 0 or not result.is_file():
        raise RuntimeError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def check_rerun(key: str, digests: dict) -> str | None:
    """Compare this run's output digests with an earlier run of the same
    workload, seed and code; record them if there is none."""
    store = OUT / "digests.json"
    known = json.loads(store.read_text(encoding="utf-8")) if store.is_file() else {}
    earlier = known.get(key)
    if earlier is None:
        known[key] = digests
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=2, sort_keys=True), encoding="utf-8")
        os.replace(tmp, store)
        return None
    if earlier != digests:
        return f"outputs differ from an earlier run with the same seed: {earlier} vs {digests}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="fairppm benchmark")
    parser.add_argument("--workload", required=True, choices=("fair_train", "bce_train", "ingest_eval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: reduced inputs for the smoke test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "fairppm" / "__init__.py").is_file():
        print(f"error: no fairppm package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace == 0:
            child = run_child(args, "timed", work, deadline)
            runs = [child]
            declared = spec["end_to_end"]
            values = {k: statistics.median(v) for k, v in child["samples"].items() if v}
        else:
            plain = run_child(args, "single", work, deadline)
            traced = run_child(args, "traced", work, deadline)
            runs = [plain, traced]
            child = traced
            declared = spec["per_layer"]
            values = dict(traced["layers"])
            values["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    errors = [e for r in runs for e in r["errors"]]
    if args.trace == 1:
        attempted += 1
        if plain["digests"] != traced["digests"]:
            failed += 1
            errors.append("traced run wrote different outputs than the untraced run")
    key = f"{args.workload}/{args.size}/seed{args.seed}/{source_digest()[:16]}"
    if child["digests"]:
        attempted += 1
        mismatch = check_rerun(key, child["digests"])
        if mismatch:
            failed += 1
            errors.append(mismatch)

    for error in errors:
        print(f"failed: {error}")
    if args.trace == 0:
        wall = {k: statistics.median(v) for k, v in child["wall_samples"].items() if v}
        print("wall-clock medians: " + json.dumps(wall, sort_keys=True))
    print("environment: " + json.dumps(child["env"], sort_keys=True))
    if args.trace == 1 and child.get("untraced_targets"):
        print("not traced (absent): " + ", ".join(child["untraced_targets"]))
    # a metric missing after a failed operation is left out; correct is false then
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in declared
        if m["name"] in values
    }
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
