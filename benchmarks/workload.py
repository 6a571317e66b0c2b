"""Run one benchmark workload in this process and write its raw result.

Started by ``run.py`` (one process per measurement, with BLAS pinned to one
thread); not meant to be called by hand. Usage:

    python3 benchmarks/workload.py --workload fair_train --seed 1 \
        --seconds 20 --mode timed --work DIR --result FILE [--size tiny]

Modes:
  timed   SETUP_ROUNDS rounds of set-up, interleaved with the workload's
          operation repeated for about --seconds (at least once); no tracing.
  single  set up once and run the operation once; no tracing.
  traced  as ``single`` with every wrapped layer call recorded as a span.

Timings are reported at reference host speed (calibration.py), and as plain
wall time under "wall_samples".

Every input and random choice (log, splits, init, shuffling) follows --seed,
as the CLI's single config seed does. The process works inside --work, and
every path it writes is relative to it.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from calibration import Calibrator
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
TARGET = "offer"
SENSITIVE = "case:protected"
MAX_LEN = 6
HOLDOUT = 0.2  # test and validation fractions, the CLI defaults
ABCC_TOL = 2e-3  # acceptance criterion C1: abcc equals the exact 1-D W1
SETUP_ROUNDS = 3
EVAL_REPEATS = 5

QUICKSTART_HYPER = {"layers": 1, "hidden": 16, "batch": 512, "lr": 0.01, "dropout": 0.0}
GRID_CELL_HYPER = {
    "layers": 2,
    "bidirectional": True,
    "hidden": 32,
    "batch": 128,
    "lr": 1e-3,
    "dropout": 0.2,
}

# cases in the log and a fixed epoch budget (patience = budget, so early
# stopping never shortens a run)
SIZES = {
    "full": {
        "fair_train": {"cases": 2000, "epochs": 10},
        "bce_train": {"cases": 2000, "epochs": 5},
        "ingest_eval": {"cases": 20000, "epochs": 1},
    },
    "tiny": {
        "fair_train": {"cases": 300, "epochs": 10},
        "bce_train": {"cases": 300, "epochs": 2},
        "ingest_eval": {"cases": 300, "epochs": 1},
    },
}

# per-layer metrics: "<span>_s" is the inclusive time of all spans of that name
LAYER_TIMES = (
    "transport.sinkhorn",
    "autodiff.backward",
    "nn.forward",
    "nn.composite_loss",
    "nn.adamw",
    "nn.predict",
    "train.validation",
    "train.load_checkpoint",
    "metrics.abpc",
    "metrics.abcc",
    "metrics.auc",
    "metrics.optimal_threshold",
    "eventlog.generate",
    "eventlog.write_log",
    "eventlog.parse",
    "eventlog.extract_prefixes",
    "eventlog.read_samples",
    "encoding.fit",
    "encoding.encode",
)
# "<span>_self_s": stage time not covered by a traced child call
LAYER_SELF_TIMES = ("cli.synth", "cli.ingest", "cli.evaluate")

clock = time.perf_counter


class CheckFailed(Exception):
    """An output check did not hold; the operation counts as failed."""


class Run:
    """Operation counts, measured samples and output digests of one process."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples = defaultdict(list)
        self.intervals: list[tuple] = []
        self.digests: dict[str, str] = {}

    def op(self, label, fn, *args):
        """Run one operation; an exception or failed check marks it failed.
        Returns (ok, value)."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return False, None

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(float(value))

    def timed(self, name: str, t0: float, t1: float, work: float | None = None) -> None:
        """A timing sample: seconds, or ``work`` per second when given."""
        self.intervals.append((name, t0, t1, work))

    def values(self, adjust=None) -> dict:
        """Every sample by name; ``adjust(t0, t1)`` converts intervals to
        seconds (plain wall time by default)."""
        values = defaultdict(list, {k: list(v) for k, v in self.samples.items()})
        for name, t0, t1, work in self.intervals:
            seconds = adjust(t0, t1) if adjust else t1 - t0
            values[name].append(seconds if work is None else work / seconds)
        return values

    def same(self, kind: str, data: bytes) -> None:
        """Every output of one kind must be byte-identical within a process."""
        digest = hashlib.sha256(data).hexdigest()
        previous = self.digests.setdefault(kind, digest)
        if previous != digest:
            raise CheckFailed(f"{kind} differs from the first one written in this run")


def check_quality(auc: float, abcc: float, scores, sensitive) -> None:
    """Test AUC above chance, and the reported ABCC equal to the exact W1
    between the written group scores."""
    from fairppm.transport import exact_w1_1d

    if not (math.isfinite(auc) and auc > 0.5):
        raise CheckFailed(f"test auc {auc} is not finite and above 0.5")
    w1 = exact_w1_1d(scores[sensitive == 0], scores[sensitive == 1])
    if not abs(abcc - w1) <= ABCC_TOL:
        raise CheckFailed(f"abcc {abcc} differs from exact W1 {w1} by more than {ABCC_TOL}")


# ---------------------------------------------------------------------------
# fair_train and bce_train: the public Python API, in memory


class TrainingWorkload:
    setups_per_round = 4  # set-up takes a fraction of a second; sample it more

    def __init__(self, cases: int, epochs: int, hyper: dict, lam: float):
        import fairppm
        from fairppm.train import TrainConfig

        self.cases = cases
        self.hyper = fairppm.Hyper(**hyper)
        self.loss_cfg = fairppm.CompositeLossConfig(lam=lam)
        self.train_cfg = TrainConfig(max_epochs=epochs, patience=epochs)
        self.data = None
        self.seed = None

    def setup(self, run: Run, seed: int) -> bool:
        return run.op("setup", self._setup, run, seed)[0]

    def operation(self, run: Run) -> None:
        run.op("train+evaluate", self._operation, run)

    def _setup(self, run: Run, seed: int) -> None:
        # calls go through the package namespace so the tracer sees them
        import fairppm as fp

        self.seed = seed
        t0 = clock()
        log = fp.generate_synthetic_log(fp.BiasSpec.preset("high", n_cases=self.cases), seed)
        t1 = clock()
        train_log, test_log = fp.split_cases(log, HOLDOUT, seed)
        train_all = fp.extract_prefixes(train_log, TARGET, SENSITIVE, MAX_LEN)
        test = fp.extract_prefixes(test_log, TARGET, SENSITIVE, MAX_LEN)
        train, valid = fp.validation_split(train_all, HOLDOUT, seed)
        encoder = fp.fit_encoder(train, log.schema, MAX_LEN, False, SENSITIVE)

        def pack(samples):
            return fp.PackedDataset.from_encoded([fp.encode(encoder, s) for s in samples])

        self.data = (pack(train), pack(valid), pack(test), encoder)
        t2 = clock()
        run.timed("setup_s", t0, t2)
        run.timed("synth_cases_per_s", t0, t1, self.cases)
        run.timed("ingest_cases_per_s", t1, t2, self.cases)

    def _operation(self, run: Run) -> None:
        from fairppm import nn, train as ftrain

        train, valid, test, encoder = self.data
        t0 = clock()
        ckpt = ftrain.train_model(
            train, valid, encoder, self.hyper, self.loss_cfg, self.seed, self.train_cfg
        )
        run.timed("train_samples_per_s", t0, clock(), len(train) * ckpt.epochs_run)
        for _ in range(EVAL_REPEATS):
            t0 = clock()
            report = ftrain.evaluate(ckpt, test)
            run.timed("evaluate_prefixes_per_s", t0, clock(), len(test))
        path = Path("checkpoint.json")
        ftrain.save_checkpoint(ckpt, path)

        run.sample("test_auc", report.auc)
        run.sample("test_abcc", report.abcc)
        run.same("checkpoint", path.read_bytes())
        run.same("eval_report", json.dumps(report.to_dict(), sort_keys=True).encode())
        check_quality(report.auc, report.abcc, nn.predict(ckpt.params, test), test.s)


# ---------------------------------------------------------------------------
# ingest_eval: the in-process CLI, stage by stage


class IngestEvalWorkload:
    setups_per_round = 1
    out = Path("run")

    def __init__(self, cases: int, epochs: int):
        self.cases = cases
        self.epochs = epochs

    def _stage(self, name: str) -> tuple:
        """Run one CLI stage; returns its (start, end) clock readings."""
        from fairppm import cli

        t0 = clock()
        code = cli.main([name, "--config", "config.json"])
        t1 = clock()
        if code != 0:
            raise CheckFailed(f"fairppm {name} exited with code {code}")
        return t0, t1

    def setup(self, run: Run, seed: int) -> bool:
        # paths stay relative: they are part of the config hash stamped into
        # every artifact, which must not depend on where the benchmark runs
        config = {
            "seed": seed,
            "out": str(self.out),
            "n_cases": self.cases,
            "bias_preset": "high",
            "log": str(self.out / "log.csv"),
            "schema": {
                "case:protected": "boolean",
                "case:proxy": "boolean",
                "resource": "categorical",
                "score": "numeric",
            },
            "target_activity": TARGET,
            "hyper": QUICKSTART_HYPER,
            "train": {"max_epochs": self.epochs, "patience": self.epochs},
            "lambda": 0.0,
        }
        Path("config.json").write_text(json.dumps(config, indent=2), encoding="utf-8")

        t0 = clock()
        if not (run.op("synth (setup)", self._stage, "synth")[0]
                and run.op("ingest (setup)", self._stage, "ingest")[0]
                and run.op("train (setup)", self._train, run)[0]):
            return False
        run.timed("setup_s", t0, clock())
        return True

    def _train(self, run: Run) -> None:
        t0, t1 = self._stage("train")
        checkpoint = (self.out / "checkpoint.json").read_bytes()
        run.same("checkpoint", checkpoint)
        summary = json.loads((self.out / "summary.json").read_text(encoding="utf-8"))
        prefixes = summary["splits"]["train"]["n_prefixes"] * json.loads(checkpoint)["epochs_run"]
        run.timed("train_samples_per_s", t0, t1, prefixes)

    def _evaluate(self, run: Run) -> None:
        import numpy as np

        t0, t1 = self._stage("evaluate")
        report_bytes = (self.out / "eval_report.json").read_bytes()
        report = json.loads(report_bytes)["report"]
        with open(self.out / "test_scores.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        scores = np.array([float(r["score"]) for r in rows])
        sensitive = np.array([int(r["sensitive"]) for r in rows])
        run.timed("evaluate_prefixes_per_s", t0, t1, len(rows))
        run.sample("test_auc", report["auc"])
        run.sample("test_abcc", report["abcc"])
        run.same("eval_report", report_bytes)
        check_quality(report["auc"], report["abcc"], scores, sensitive)

    def operation(self, run: Run) -> None:
        for stage in ("synth", "ingest"):
            ok, interval = run.op(stage, self._stage, stage)
            if ok:
                run.timed(f"{stage}_cases_per_s", *interval, self.cases)
        run.op("evaluate", self._evaluate, run)


# ---------------------------------------------------------------------------


def make_workload(name: str, size: str):
    spec = SIZES[size][name]
    if name == "fair_train":
        return TrainingWorkload(spec["cases"], spec["epochs"], QUICKSTART_HYPER, lam=0.3)
    if name == "bce_train":
        return TrainingWorkload(spec["cases"], spec["epochs"], GRID_CELL_HYPER, lam=0.0)
    return IngestEvalWorkload(spec["cases"], spec["epochs"])


def layer_metrics(tracer, run: Run) -> dict:
    """Per-layer metric values from the spans."""
    metrics = {f"{name}_s": tracer.total_s(name) for name in LAYER_TIMES}
    metrics.update({f"{name}_self_s": tracer.self_total_s(name) for name in LAYER_SELF_TIMES})

    sinkhorn = [s.attrs for s in tracer.named("transport.sinkhorn") if s.attrs]
    iterations = [a["iterations"] for a in sinkhorn]
    metrics["transport.sinkhorn_calls"] = len(sinkhorn)
    metrics["transport.iters_p50"] = statistics.median(iterations) if iterations else 0
    metrics["transport.iters_max"] = max(iterations, default=0)
    capped = sum(1 for a in sinkhorn if not a["converged"])
    metrics["transport.capped_share"] = capped / len(sinkhorn) if sinkhorn else 0.0

    nodes = [s.attrs["nodes"] for s in tracer.named("autodiff.backward") if s.attrs]
    metrics["autodiff.tape_nodes_per_step_p50"] = statistics.median(nodes) if nodes else 0

    steps_ms = [s.duration * 1e3 for s in tracer.named("train.step")]
    metrics["train.steps"] = len(steps_ms)
    metrics["train.step_ms_p50"] = statistics.median(steps_ms) if steps_ms else 0.0
    metrics["train.step_ms_p90"] = (
        statistics.quantiles(steps_ms, n=10)[8] if len(steps_ms) > 1 else sum(steps_ms)
    )
    metrics["encoding.prefixes_encoded"] = len(tracer.named("encoding.encode"))
    # deterministic for a seed, but it spreads too much between seeds to be
    # bounded end to end (see BENCHMARK.json)
    abcc = run.samples.get("test_abcc")
    metrics["metrics.test_abcc"] = statistics.median(abcc) if abcc else 0.0
    return metrics


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def timed_loop(workload, run: Run, args) -> None:
    """Alternate set-ups and operations, so that both sample the whole run
    rather than its start: SETUP_ROUNDS rounds of set-ups, and operations
    while the next one is expected to end within --seconds of operation time
    (at least one). Machine speed on a shared host drifts over seconds."""
    ops_s = last_op_s = 0.0
    ready = False
    for i in itertools.count():
        want_setup = i < SETUP_ROUNDS
        want_op = i == 0 or ops_s + last_op_s <= args.seconds
        if not (want_setup or want_op):
            return
        for _ in range(workload.setups_per_round if want_setup else 0):
            ready = workload.setup(run, args.seed) or ready
        if want_op and ready:
            failed_before = run.failed
            t0 = clock()
            workload.operation(run)
            last_op_s = clock() - t0
            ops_s += last_op_s
            if run.failed > failed_before:
                ops_s = math.inf  # stop operating; finish the set-ups
        elif want_op:
            return


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("timed", "single", "traced"))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--result", required=True, type=Path)
    parser.add_argument("--spans", type=Path, help="span dump for --mode traced")
    parser.add_argument("--size", default="full", choices=sorted(SIZES))
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import fairppm

    if not Path(fairppm.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: fairppm imported from {fairppm.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2

    args.work.mkdir(parents=True, exist_ok=True)
    os.chdir(args.work)
    workload = make_workload(args.workload, args.size)
    run = Run()
    result = {"env": environment()}

    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        tracer.install()
    calibrator = Calibrator()
    calibrator.start()
    t0 = clock()
    try:
        if args.mode == "timed":
            timed_loop(workload, run, args)
        elif workload.setup(run, args.seed):
            workload.operation(run)
    finally:
        calibrator.stop()
    result["wall_s"] = calibrator.adjust(t0, clock())
    run.sample("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    result["samples"] = run.values(calibrator.adjust)
    result["wall_samples"] = run.values()
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layer_metrics(tracer, run)
        result["untraced_targets"] = tracer.missing
        if args.spans:
            tracer.dump(args.spans)

    result.update(
        attempted=run.attempted,
        failed=run.failed,
        errors=run.errors,
        digests=run.digests,
    )
    args.result.write_text(json.dumps(result, indent=2), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
