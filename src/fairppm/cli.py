"""Command-line entry point: ingest, train, sweep, evaluate, report, synth.

All commands read a JSON run config (``--config``), let a few flags
override it, derive every random choice from the single config seed, and
stamp each output file with the effective config's hash plus that seed.
Outputs carry no timestamps, so a rerun with identical inputs is
byte-identical.

Exit codes: 0 success, 2 config error, 3 missing artifact, 4 undefined
metric, 1 internal error. A config, schema, log or ``out`` path that the
system cannot open as asked (absent, or a directory where a file belongs,
or the reverse) exits 2 with the system's message, which names the path.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import contextmanager
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
    split_cases,
    validation_split,
    write_event_log,
    without_cyclic_gc,
)
from .metrics import (
    EvalReport,
    GroupedScores,
    UndefinedMetricError,
    density_curve,
)
from .nn import Hyper, init_params, predict
from .records import (
    csv_records,
    from_fields,
    json_cast,
    json_payload,
    parse_json,
    utf8_text,
    write_csv,
    write_json,
)
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

# each split's packed prefixes (``PackedDataset.save``), by split
SPLIT_FILES = {"train": "train.npz", "valid": "valid.npz", "test": "test.npz"}
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


@contextmanager
def _config_error(prefix: str = ""):
    """Re-raise a ValueError from the block as a ConfigError, its message
    after ``prefix``."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from None


def _load_config(args) -> dict:
    config = {}
    if args.config:
        path = Path(args.config)
        # JSONDecodeError, an int over the digit limit, or deep nesting
        with _config_error(f"config file '{path}' is not valid JSON: "):
            config = parse_json(utf8_text(path.read_bytes()))
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


def _out_dir(config: dict) -> Path:
    out = Path(_get(config, "out", str))
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
    with _config_error():
        value = json_cast(key, value, kind)
        return value if item is None else [json_cast(key, v, item) for v in value]


def _schema_from_config(config: dict) -> SchemaConfig:
    raw = _require(config, "schema")
    if isinstance(raw, str):
        path = Path(raw)
        with _config_error(f"schema file '{path}' is not valid JSON: "):
            raw = json_payload(path.read_bytes())
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
    with _config_error(f"bad '{key}' config: "):
        return from_fields(cls, config.get(key, {}))


def _lambdas(config: dict) -> list:
    if config.get("sweep") is None:
        return default_lambdas()
    return _get(config, "sweep", list, item=float)


def _artifact(out: Path, name: str, reader):
    """``reader(out / name)``; a missing artifact exits 3, a malformed one 2."""
    path = out / name
    if not path.is_file():
        raise MissingArtifactError(f"missing artifact '{path}' (run the earlier stage first)")
    try:
        return reader(path)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"malformed artifact '{path}': {type(exc).__name__}: {exc}") from None


# how a CSV column spells its values, by NumPy dtype kind; any other kind by str
_CSV_FORMAT = {"f": repr, "b": lambda v: "true" if v else "false"}


def _csv_cells(values) -> list:
    """A column's values as CSV text: a column of strings as it is
    (``np.asarray`` would drop a trailing NUL), any other by its NumPy dtype."""
    if all(isinstance(v, str) for v in values):
        return list(values)
    col = np.asarray(values)
    return list(map(_CSV_FORMAT.get(col.dtype.kind, str), col.tolist()))


def _write_csv(path: Path, config: dict, columns: dict) -> None:
    """``columns`` (header -> column of values) as a CSV artifact."""
    cells = {name: _csv_cells(col) for name, col in columns.items()}
    write_csv(path, _provenance_comment(config), [cells])


def _load_inputs(out: Path, *splits: str) -> tuple:
    """The encoder, the sha256 of the bytes it was read from, and the named
    splits, each checked against that hash: one read of the encoder a stage."""

    def read_encoder(path):
        data = path.read_bytes()
        return from_fields(EncoderSpec, json_payload(data)), hashlib.sha256(data).hexdigest()

    encoder, sha256 = _artifact(out, ENCODER_FILE, read_encoder)
    data = [
        _artifact(out, SPLIT_FILES[split], lambda path: PackedDataset.load(path, encoder, sha256))
        for split in splits
    ]
    return encoder, sha256, data


# ---------------------------------------------------------------------------
# commands


def _split_stats(data: PackedDataset) -> dict:
    y, s1 = data.y, data.s
    stats = {"n_prefixes": len(data)}
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
    splits = {"train": train_samples, "valid": valid_samples, "test": test_samples}
    cases = {"train": len(train_log), "test": len(test_log)}
    # the events no prefix holds (from a case's target activity on) go before packing
    del log, train_log, test_log, train_all
    for split, samples in splits.items():
        if all(s.outcome == samples[0].outcome for s in samples):
            raise ConfigError(
                f"every {split} prefix has outcome {samples[0].outcome}: 'target_activity' "
                f"'{target}' must occur in some cases of each split and not in others"
            )
    # every parity metric compares the two groups' test scores
    if all(s.sensitive == test_samples[0].sensitive for s in test_samples):
        raise ConfigError(
            f"every test prefix has sensitive value {test_samples[0].sensitive}: "
            f"'sensitive_attr' '{sensitive_attr}' must be true in some test cases and false "
            "in others"
        )
    encoder = fit_encoder(train_samples, schema, max_len, drop_sensitive, sensitive_attr)

    prov = _provenance(config)
    write_json(out / ENCODER_FILE, asdict(encoder), prov)
    sha256 = hashlib.sha256((out / ENCODER_FILE).read_bytes()).hexdigest()
    stats = {}
    for split, samples in splits.items():
        data = PackedDataset.from_samples(encoder, samples)
        data.save(out / SPLIT_FILES[split], prov, sha256)
        stats[split] = _split_stats(data)
    write_json(out / SUMMARY_FILE, {"cases": cases, "splits": stats}, prov)
    print(
        f"ingested {sum(cases.values())} cases -> {len(train_samples)} train / "
        f"{len(valid_samples)} valid / {len(test_samples)} test prefixes"
    )
    return EXIT_OK


def cmd_train(config: dict, jobs: int) -> int:
    out = _out_dir(config)
    seed = _seed(config)
    lam = _get(config, "lambda", float, 0.0)
    with _config_error("'lambda' "):
        (loss_cfg,) = sweep_losses([lam])
    train_cfg = _record(TrainConfig, config, "train")
    raw_hyper = config.get("hyper", "grid")
    grid = None
    if raw_hyper == "grid":
        grid = _grid(config)
    elif isinstance(raw_hyper, dict):
        hyper = _record(Hyper, config, "hyper")
    else:
        raise ConfigError("'hyper' must be an object or the string \"grid\"")
    encoder, sha256, (train_data, valid_data) = _load_inputs(out, "train", "valid")

    if grid is not None:
        result = grid_search(
            train_data, valid_data, encoder, seed, grid=grid, cfg=train_cfg, jobs=jobs
        )
        hyper = result.best
        write_json(out / GRID_FILE, asdict(result), _provenance(config))

    ckpt = train_model(train_data, valid_data, encoder, hyper, loss_cfg, seed, train_cfg)
    ckpt.encoder_ref = {"path": ENCODER_FILE, "sha256": sha256}
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
    with _config_error("bad 'grid' config: "):
        return default_grid(raw)


def cmd_sweep(config: dict, jobs: int) -> int:
    out = _out_dir(config)
    seed = _seed(config)
    if not isinstance(config.get("hyper"), dict):
        raise ConfigError("sweep requires an explicit 'hyper' object")
    hyper = _record(Hyper, config, "hyper")
    train_cfg = _record(TrainConfig, config, "train")
    lambdas = _lambdas(config)
    with _config_error("'sweep' "):
        sweep_losses(lambdas)  # a bad list exits 2 before any artifact is read
    encoder, _, (train_data, valid_data, test_data) = _load_inputs(out, "train", "valid", "test")

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
    encoder, sha256, (test_data,) = _load_inputs(out, "test")
    ckpt = _artifact(out, CHECKPOINT_FILE, load_checkpoint)
    if ckpt.encoder_ref and ckpt.encoder_ref.get("sha256") != sha256:
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
            lambda path: from_fields(EvalReport, json_payload(path.read_bytes())["report"]),
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
    with csv_records(path) as records:
        line, header = next(records, (1, []))
        if "score" not in header or "sensitive" not in header:
            raise ValueError(f"line {line}: the header lacks 'score' or 'sensitive'")
        score_at, sensitive_at = header.index("score"), header.index("sensitive")
        for line, values in records:
            try:
                score, sensitive = float(values[score_at]), int(values[sensitive_at])
                if not 0.0 <= score <= 1.0:
                    raise ValueError(f"score {score} outside [0,1]")
                if sensitive not in (0, 1):
                    raise ValueError(f"sensitive {sensitive} is not 0 or 1")
            except ValueError as exc:
                raise ValueError(f"line {line}: {exc}") from None
            scores.append(score)
            sensitives.append(sensitive)
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
    except MissingArtifactError as exc:  # a FileNotFoundError, so before OSError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING
    except (ConfigError, EventLogError, OSError) as exc:  # an OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UndefinedMetricError as exc:
        print(f"error: undefined metric: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except Exception as exc:  # noqa: BLE001 - the CLI boundary maps to exit 1
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
