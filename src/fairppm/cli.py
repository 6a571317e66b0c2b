"""Command-line entry point: ingest, train, sweep, evaluate, report, synth.

All commands read a JSON run config (``--config``), let a few flags
override it, derive every random choice from the single config seed, and
stamp each output file with the effective config's hash plus that seed.
Outputs carry no timestamps, so a rerun with identical inputs is
byte-identical.

Exit codes: 0 success, 2 config error, 3 missing artifact, 4 undefined
metric, 1 internal error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .encoding import EncoderSpec, PackedDataset, fit_encoder
from .eventlog import (
    BiasSpec,
    EventLogError,
    SchemaConfig,
    extract_prefixes,
    generate_synthetic_log,
    parse_event_log,
    read_samples_jsonl,
    split_cases,
    validation_split,
    write_event_log,
    write_samples_jsonl,
    without_cyclic_gc,
)
from .metrics import (
    EvalReport,
    GroupedScores,
    UndefinedMetricError,
    density_curve,
)
from .nn import Hyper, init_params, predict
from .records import from_fields, json_cast, parse_json, read_json, write_json
from .train import (
    TrainConfig,
    default_grid,
    default_lambdas,
    evaluate,
    grid_search,
    lambda_sweep,
    load_checkpoint,
    pareto_front,
    save_checkpoint,
    sweep_losses,
    train_model,
)

__all__ = ["main", "ConfigError", "MissingArtifactError"]

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_UNDEFINED = 4

TRAIN_SAMPLES = "train.jsonl"
VALID_SAMPLES = "valid.jsonl"
TEST_SAMPLES = "test.jsonl"
ENCODER_FILE = "encoder.json"
SUMMARY_FILE = "summary.json"
CHECKPOINT_FILE = "checkpoint.json"
GRID_FILE = "grid.json"
SWEEP_FILE = "sweep.csv"
REPORT_FILE = "eval_report.json"
SCORES_FILE = "test_scores.csv"


# every top-level key a config may hold; any other key exits 2
CONFIG_KEYS = (
    "seed", "out", "n_cases", "bias_preset", "bias_spec", "log", "schema", "target_activity",
    "sensitive_attr", "drop_sensitive", "max_len", "test_fraction", "valid_fraction",
    "hyper", "grid", "train", "lambda", "sweep", "jobs", "runs",
)


# the top-level keys that flags override, each the argparse dest of its flag
_FLAG_KEYS = ("seed", "lambda", "drop_sensitive", "max_len", "jobs", "out")


class ConfigError(ValueError):
    """Bad or missing configuration; maps to exit code 2."""


class MissingArtifactError(FileNotFoundError):
    """A required artifact from an earlier stage is absent; exit code 3."""


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(args) -> dict:
    config = {}
    if args.config:
        path = Path(args.config)
        if not path.is_file():
            raise ConfigError(f"config file '{path}' does not exist")
        try:
            config = parse_json(path.read_text(encoding="utf-8"))
        except ValueError as exc:  # JSONDecodeError, an int over the digit limit, or deep nesting
            raise ConfigError(f"config file '{path}' is not valid JSON: {exc}") from None
        if not isinstance(config, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = [repr(key) for key in config if key not in CONFIG_KEYS]
        if unknown:
            raise ConfigError(
                f"unknown config key {', '.join(unknown)} (valid keys: {', '.join(CONFIG_KEYS)})"
            )
    for key in _FLAG_KEYS:
        if getattr(args, key) is not None:
            config[key] = getattr(args, key)
    return config


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _provenance(config: dict) -> dict:
    return {"config_hash": _config_hash(config), "seed": _seed(config)}


def _provenance_comment(config: dict) -> str:
    prov = _provenance(config)
    return f"config_hash={prov['config_hash']} seed={prov['seed']}"


def _seed(config: dict) -> int:
    return _int_at_least(config, "seed", 0, 0)


def _out_dir(config: dict, create: bool = True) -> Path:
    out = Path(_get(config, "out", str))
    if create:
        out.mkdir(parents=True, exist_ok=True)
    return out


def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"missing required config field '{key}'")
    return config[key]


def _get(config: dict, key: str, kind: type, default=None, item=None):
    """Top-level ``key`` as a ``kind``, and each entry as an ``item`` when
    given, by the type rule of the nested records (``records.json_cast``); a
    key without a default is required."""
    value = _require(config, key) if default is None else config.get(key, default)
    try:
        value = json_cast(key, value, kind)
        return value if item is None else [json_cast(key, v, item) for v in value]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _schema_from_config(config: dict) -> SchemaConfig:
    raw = _require(config, "schema")
    if isinstance(raw, str):
        path = Path(raw)
        if not path.is_file():
            raise ConfigError(f"schema file '{path}' does not exist")
        try:
            raw = read_json(path)
        except ValueError as exc:  # JSONDecodeError, an int over the digit limit, or deep nesting
            raise ConfigError(f"schema file '{path}' is not valid JSON: {exc}") from None
    # accept the canonical {"attributes": {...}} wrapper or a flat name->kind map
    if isinstance(raw, dict) and not isinstance(raw.get("attributes"), dict):
        raw = {"attributes": raw}
    return _record(SchemaConfig, {"schema": raw}, "schema")


def _int_at_least(config: dict, key: str, default: int, least: int) -> int:
    value = _get(config, key, int, default)
    if value < least:
        raise ConfigError(f"'{key}' must be an integer >= {least}, got {value!r}")
    return value


def _record(cls, config: dict, key: str):
    """The dataclass ``cls`` read strictly from the config object at ``key``."""
    try:
        return from_fields(cls, config.get(key, {}))
    except ValueError as exc:
        raise ConfigError(f"bad '{key}' config: {exc}") from None


def _lambdas(config: dict) -> list:
    if config.get("sweep") is None:
        return default_lambdas()
    return _get(config, "sweep", list, item=float)


def _losses(key: str, lambdas: list) -> list:
    """``train.sweep_losses``, with an error naming the config ``key``."""
    try:
        return sweep_losses(lambdas)
    except ValueError as exc:
        raise ConfigError(f"'{key}' {exc}") from None


def _artifact(out: Path, name: str, reader):
    """``reader(out / name)``; a missing artifact exits 3, a malformed one 2."""
    path = out / name
    if not path.is_file():
        raise MissingArtifactError(f"missing artifact '{path}' (run the earlier stage first)")
    try:
        return reader(path)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"malformed artifact '{path}': {type(exc).__name__}: {exc}") from None


# how a CSV column formats its values, by NumPy dtype kind; any other kind by str
_CSV_FORMAT = {"f": repr, "b": lambda v: "true" if v else "false"}


def _write_csv(path: Path, config: dict, columns: dict) -> None:
    """``columns`` (header -> column of values) as CSV under the provenance
    comment, with LF line ends and fields quoted as needed."""
    cells = [
        list(map(_CSV_FORMAT.get(col.dtype.kind, str), col.tolist()))
        for col in map(np.asarray, columns.values())
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {_provenance_comment(config)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(zip(*cells))


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _load_packed(out: Path, name: str, encoder: EncoderSpec) -> PackedDataset:
    return _artifact(
        out, name, lambda path: PackedDataset.from_samples(encoder, read_samples_jsonl(path))
    )


# ---------------------------------------------------------------------------
# commands


def _split_stats(samples) -> dict:
    n = len(samples)
    y = np.array([s.outcome for s in samples])
    s1 = np.array([s.sensitive for s in samples])
    stats = {"n_prefixes": n}
    if n == 0:
        return stats
    stats["pct_positive"] = float(100.0 * y.mean())
    stats["pct_s1"] = float(100.0 * s1.mean())
    group0 = y[s1 == 0]
    group1 = y[s1 == 1]
    stats["pct_s0_positive"] = float(100.0 * group0.mean()) if group0.size else None
    stats["pct_s1_positive"] = float(100.0 * group1.mean()) if group1.size else None
    return stats


def cmd_synth(config: dict) -> int:
    out = _out_dir(config)
    seed = _seed(config)
    if config.get("bias_spec") is not None:
        spec = _record(BiasSpec, config, "bias_spec")
    else:
        preset = _get(config, "bias_preset", str, "high")
        n_cases = _get(config, "n_cases", int, 2000)
        spec = BiasSpec.preset(preset, n_cases=n_cases)
    log = generate_synthetic_log(spec, seed)

    log_path = out / "log.csv"
    write_event_log(log, log_path, header_comment=_provenance_comment(config))

    write_json(out / "schema.json", asdict(log.schema), _provenance(config))
    write_json(out / "bias_spec.json", asdict(spec), _provenance(config))
    print(f"wrote {log_path} ({len(log)} cases)")
    return EXIT_OK


# the stage keeps the records it builds until its writes end, and then drops
# them all: with the collector paused only inside the readers, each reader's
# records would still be walked once at the first allocation after it returns
@without_cyclic_gc
def cmd_ingest(config: dict) -> int:
    out = _out_dir(config)
    seed = _seed(config)
    log_path = Path(_get(config, "log", str))
    if not log_path.is_file():
        raise ConfigError(f"log file '{log_path}' does not exist")
    schema = _schema_from_config(config)
    target = _get(config, "target_activity", str)
    sensitive_attr = _get(config, "sensitive_attr", str, "case:protected")
    drop_sensitive = _get(config, "drop_sensitive", bool, False)
    max_len = _int_at_least(config, "max_len", 6, 1)

    log = parse_event_log(log_path, schema)
    train_log, test_log = split_cases(log, _get(config, "test_fraction", float, 0.2), seed)
    train_all = extract_prefixes(train_log, target, sensitive_attr, max_len)
    test_samples = extract_prefixes(test_log, target, sensitive_attr, max_len)
    train_samples, valid_samples = validation_split(
        train_all, _get(config, "valid_fraction", float, 0.2), seed
    )
    if not train_samples:
        raise ConfigError("ingest produced an empty training set")
    if not valid_samples:
        raise ConfigError("ingest produced an empty validation set; raise 'valid_fraction'")
    if not test_samples:
        raise ConfigError("ingest produced an empty test set; raise 'test_fraction'")
    encoder = fit_encoder(train_samples, schema, max_len, drop_sensitive, sensitive_attr)

    prov = _provenance(config)
    write_samples_jsonl(train_samples, out / TRAIN_SAMPLES, prov)
    write_samples_jsonl(valid_samples, out / VALID_SAMPLES, prov)
    write_samples_jsonl(test_samples, out / TEST_SAMPLES, prov)

    write_json(out / ENCODER_FILE, asdict(encoder), prov)
    write_json(
        out / SUMMARY_FILE,
        {
            "cases": {"train": len(train_log), "test": len(test_log)},
            "splits": {
                "train": _split_stats(train_samples),
                "valid": _split_stats(valid_samples),
                "test": _split_stats(test_samples),
            },
        },
        prov,
    )
    print(
        f"ingested {len(log)} cases -> {len(train_samples)} train / "
        f"{len(valid_samples)} valid / {len(test_samples)} test prefixes"
    )
    return EXIT_OK


def _load_encoder(out: Path) -> EncoderSpec:
    return _artifact(out, ENCODER_FILE, lambda path: from_fields(EncoderSpec, read_json(path)))


def cmd_train(config: dict, jobs: int) -> int:
    out = _out_dir(config)
    seed = _seed(config)
    (loss_cfg,) = _losses("lambda", [_get(config, "lambda", float, 0.0)])
    train_cfg = _record(TrainConfig, config, "train")
    raw_hyper = config.get("hyper", "grid")
    grid = None
    if raw_hyper == "grid":
        grid = _grid(config)
    elif isinstance(raw_hyper, dict):
        hyper = _record(Hyper, config, "hyper")
    else:
        raise ConfigError("'hyper' must be an object or the string \"grid\"")
    encoder = _load_encoder(out)
    train_data = _load_packed(out, TRAIN_SAMPLES, encoder)
    valid_data = _load_packed(out, VALID_SAMPLES, encoder)

    if grid is not None:
        result = grid_search(
            train_data, valid_data, encoder, seed, grid=grid, cfg=train_cfg, jobs=jobs
        )
        hyper = result.best
        write_json(out / GRID_FILE, asdict(result), _provenance(config))

    ckpt = train_model(train_data, valid_data, encoder, hyper, loss_cfg, seed, train_cfg)
    ckpt.encoder_ref = {
        "path": ENCODER_FILE,
        "sha256": _sha256_file(out / ENCODER_FILE),
    }
    save_checkpoint(ckpt, out / CHECKPOINT_FILE, provenance=_provenance(config))
    print(
        f"trained lambda={loss_cfg.lam} in {ckpt.epochs_run} epochs "
        f"(best epoch {ckpt.best_epoch}, val loss {ckpt.best_val_loss:.5f})"
    )
    return EXIT_OK


def _grid(config: dict) -> list:
    """The default grid with any axis the config's ``grid`` object replaces."""
    raw = config.get("grid", {})
    if not isinstance(raw, dict):
        raise ConfigError("'grid' must be an object of axis lists")
    for axis, values in raw.items():
        if not isinstance(values, list) or not values:
            raise ConfigError(f"'grid' axis '{axis}' must be a nonempty list, got {values!r}")
    try:
        return default_grid(raw)
    except ValueError as exc:
        raise ConfigError(f"bad 'grid' config: {exc}") from None


def cmd_sweep(config: dict, jobs: int) -> int:
    out = _out_dir(config)
    seed = _seed(config)
    if not isinstance(config.get("hyper"), dict):
        raise ConfigError("sweep requires an explicit 'hyper' object")
    hyper = _record(Hyper, config, "hyper")
    train_cfg = _record(TrainConfig, config, "train")
    lambdas = _lambdas(config)
    _losses("sweep", lambdas)  # a bad list exits 2 before any artifact is read
    encoder = _load_encoder(out)
    train_data = _load_packed(out, TRAIN_SAMPLES, encoder)
    valid_data = _load_packed(out, VALID_SAMPLES, encoder)
    test_data = _load_packed(out, TEST_SAMPLES, encoder)

    points = lambda_sweep(
        train_data,
        valid_data,
        test_data,
        encoder,
        hyper,
        lambdas=lambdas,
        seed=seed,
        cfg=train_cfg,
        jobs=jobs,
    )

    def column(key):
        return [getattr(p, key) for p in points]

    def on_front(key):
        lams = {p.lam for p in pareto_front(points, key)}
        return [p.lam in lams for p in points]

    _write_csv(
        out / SWEEP_FILE,
        config,
        {
            "lambda": column("lam"),
            "auc": column("auc"),
            "abpc": column("abpc"),
            "abcc": column("abcc"),
            "on_pareto_abpc": on_front("abpc"),
            "on_pareto_abcc": on_front("abcc"),
            "seed": column("seed"),
        },
    )
    failed = [p for p in points if p.failed]
    for p in failed:
        print(f"warning: lambda={p.lam} failed: {p.error or 'NaN test AUC'}", file=sys.stderr)
    print(f"swept {len(points)} lambdas ({len(failed)} failed) -> {out / SWEEP_FILE}")
    return EXIT_OK


def cmd_evaluate(config: dict) -> int:
    out = _out_dir(config)
    encoder = _load_encoder(out)
    test_data = _load_packed(out, TEST_SAMPLES, encoder)
    ckpt = _artifact(out, CHECKPOINT_FILE, load_checkpoint)
    if ckpt.encoder_ref and ckpt.encoder_ref.get("sha256") != _sha256_file(out / ENCODER_FILE):
        raise ConfigError(
            "encoder.json does not match the encoder this checkpoint was trained with"
        )
    # the arrays must have the names and shapes init_params gives the hyper and encoder
    found, expected = (
        {name: a.shape for name, a in params.arrays.items()}
        for params in (ckpt.params, init_params(ckpt.params.hyper, encoder, ckpt.seed))
    )
    for name in sorted(found.keys() | expected.keys()):
        if found.get(name) != expected.get(name):
            raise ConfigError(
                f"malformed artifact '{out / CHECKPOINT_FILE}': params array '{name}' has "
                f"shape {found.get(name, 'absent')}, expected {expected.get(name, 'absent')}"
            )

    scores = predict(ckpt.params, test_data)
    report = evaluate(ckpt, test_data, scores)
    write_json(out / REPORT_FILE, {"report": report.to_dict()}, _provenance(config))

    _write_csv(
        out / SCORES_FILE,
        config,
        {"score": scores, "outcome": test_data.y.astype(int), "sensitive": test_data.s},
    )
    print(f"evaluated -> {out / REPORT_FILE}")
    return EXIT_OK


def cmd_report(config: dict, runs: list) -> int:
    out = _out_dir(config)
    if not runs:
        raise ConfigError("report requires at least one --runs directory")
    named = {}
    for run_dir in map(Path, runs):
        if run_dir.name in named:
            raise ConfigError(
                f"runs '{named[run_dir.name]}' and '{run_dir}' share the name "
                f"'{run_dir.name}'; report needs distinct run names"
            )
        named[run_dir.name] = run_dir
    rows = []
    for run_dir in named.values():
        report = _artifact(
            run_dir,
            REPORT_FILE,
            lambda path: from_fields(EvalReport, read_json(path)["report"]),
        )
        rows.append((run_dir.name, report))

        if (run_dir / SCORES_FILE).is_file():
            scores, sensitives = _artifact(run_dir, SCORES_FILE, _read_scores_csv)
            curve = density_curve(GroupedScores.from_scores(scores, sensitives))
            _write_csv(
                out / f"density_{run_dir.name}.csv",
                config,
                {"x": curve.grid, "f0": curve.f0, "f1": curve.f1, "F0": curve.F0, "F1": curve.F1},
            )

    report_csv = out / "report.csv"
    columns = {"run": [name for name, _ in rows]}
    for f in fields(EvalReport):
        columns[f.name] = [getattr(report, f.name) for _, report in rows]
    _write_csv(report_csv, config, columns)
    print(f"merged {len(rows)} run(s) -> {report_csv}")
    return EXIT_OK


def _read_scores_csv(path: Path):
    """Scores in [0,1] and sensitive flags in {0,1}; a bad row raises
    ValueError naming its line."""
    scores, sensitives = [], []
    with open(path, encoding="utf-8", newline="") as fh:
        numbered = [(n, ln) for n, ln in enumerate(fh, 1) if not ln.startswith("#")]
    reader = csv.DictReader(ln for _, ln in numbered)
    for row in reader:
        try:
            score, sensitive = float(row["score"]), int(row["sensitive"])
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"score {score} outside [0,1]")
            if sensitive not in (0, 1):
                raise ValueError(f"sensitive {sensitive} is not 0 or 1")
            scores.append(score)
            sensitives.append(sensitive)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"line {numbered[reader.line_num - 1][0]}: {exc}") from None
    return np.array(scores), np.array(sensitives)


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fairppm",
        description="Fairness-aware outcome prediction on process event logs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("ingest", "parse a log, split, extract prefixes, fit the encoder"),
        ("train", "train one model (or grid-search first) on ingest artifacts"),
        ("sweep", "train across a lambda range and write the trade-off CSV"),
        ("evaluate", "score the checkpoint on the test split"),
        ("report", "merge evaluation reports and emit density curves"),
        ("synth", "generate a synthetic biased event log"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON run-config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--lambda", dest="lambda", type=float, default=None, help="override lambda")
        p.add_argument(
            "--drop-sensitive",
            action="store_true",
            default=None,
            help="exclude the sensitive attribute from model inputs",
        )
        p.add_argument("--max-len", type=int, default=None, help="override max prefix length")
        p.add_argument("--jobs", type=int, default=None, help="parallel workers for sweep/grid")
        p.add_argument("--out", default=None, help="output/artifact directory")
        if name == "report":
            p.add_argument("--runs", nargs="+", default=None, help="run directories to merge")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load_config(args)
        jobs = _int_at_least(config, "jobs", 1, 1)
        if args.command == "synth":
            return cmd_synth(config)
        if args.command == "ingest":
            return cmd_ingest(config)
        if args.command == "train":
            return cmd_train(config, jobs)
        if args.command == "sweep":
            return cmd_sweep(config, jobs)
        if args.command == "evaluate":
            return cmd_evaluate(config)
        if args.command == "report":
            runs = args.runs if args.runs is not None else _get(config, "runs", list, [], str)
            return cmd_report(config, runs)
        raise ConfigError(f"unknown command '{args.command}'")
    except (ConfigError, EventLogError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MissingArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except UndefinedMetricError as exc:
        print(f"error: undefined metric: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except Exception as exc:  # noqa: BLE001 - the CLI boundary maps to exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
