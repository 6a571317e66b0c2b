"""Command-line pipeline: artifacts, provenance, exit codes, reruns.

Every test drives ``main(argv)`` in process against temp directories with
deliberately tiny training budgets.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import zipfile
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairppm import cli, nn
from fairppm.cli import (
    CHECKPOINT_FILE,
    ENCODER_FILE,
    EXIT_CONFIG,
    EXIT_MISSING,
    EXIT_OK,
    EXIT_UNDEFINED,
    REPORT_FILE,
    SCORES_FILE,
    SPLIT_FILES,
    SUMMARY_FILE,
    SWEEP_FILE,
    main,
)
from fairppm.encoding import split_members
from fairppm.eventlog import BiasSpec
from fairppm.metrics import EvalReport
from fairppm.nn import Hyper
from fairppm.records import write_csv
from fairppm.train import (
    CHECKPOINT_VERSION,
    GRID_AXES,
    Checkpoint,
    SweepPoint,
    TrainConfig,
    default_lambdas,
    pareto_front,
    train_model,
)

SYNTH_SCHEMA_JSON = {
    "case:protected": "boolean",
    "case:proxy": "boolean",
    "resource": "categorical",
    "score": "numeric",
}

TINY_HYPER = {
    "layers": 1,
    "hidden": 4,
    "bidirectional": False,
    "batch": 64,
    "lr": 0.01,
    "dropout": 0.0,
}

TINY_TRAIN = {"max_epochs": 2, "patience": 2}

TRAIN_NPZ, VALID_NPZ, TEST_NPZ = (SPLIT_FILES[split] for split in ("train", "valid", "test"))
CHECKPOINT_NPZ = "checkpoint.npz"  # the weights save_checkpoint writes beside the JSON


def base_config(out, n_cases: int = 100, **extra) -> dict:
    config = {
        "seed": 7,
        "out": str(out),
        "n_cases": n_cases,
        "bias_preset": "high",
        "log": str(out / "log.csv"),
        "schema": SYNTH_SCHEMA_JSON,
        "target_activity": "offer",
        "hyper": TINY_HYPER,
        "train": TINY_TRAIN,
        "lambda": 0.0,
    }
    config.update(extra)
    return config


def write_config(tmp_path, config: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(config, indent=2))
    return str(path)


def run(command: str, cfg_path: str, *flags: str) -> int:
    return main([command, "--config", cfg_path, *flags])


def read_csv(path):
    """The rows of a CSV artifact below its ``#`` provenance line."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [row for row in csv.reader(fh) if not row[0].startswith("#")]


def run_pipeline(tmp_path, out_name: str = "run", **extra):
    out = tmp_path / out_name
    cfg_path = write_config(tmp_path, base_config(out, **extra), f"{out_name}.json")
    for command in ("synth", "ingest", "train", "evaluate"):
        code = run(command, cfg_path)
        assert code == EXIT_OK, f"{command} exited {code}"
    return out, cfg_path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    out, cfg_path = run_pipeline(tmp)
    return tmp, out, cfg_path


# ---------------------------------------------------------------------------
# happy path


def test_pipeline_writes_all_artifacts(pipeline):
    _, out, _ = pipeline
    for name in (
        "log.csv",
        "schema.json",
        "bias_spec.json",
        TRAIN_NPZ,
        VALID_NPZ,
        TEST_NPZ,
        ENCODER_FILE,
        SUMMARY_FILE,
        CHECKPOINT_FILE,
        CHECKPOINT_NPZ,
        REPORT_FILE,
        SCORES_FILE,
    ):
        assert (out / name).is_file(), f"missing artifact {name}"


def test_eval_report_has_all_eleven_fields(pipeline):
    _, out, _ = pipeline
    payload = json.loads((out / REPORT_FILE).read_text())
    expected = {
        "auc",
        "f1_at_0_5",
        "f1_at_opt",
        "acc_at_0_5",
        "acc_at_opt",
        "opt_threshold",
        "ddp_b_0_5",
        "ddp_b_opt",
        "ddp_c",
        "abpc",
        "abcc",
    }
    assert set(payload["report"]) == expected
    assert all(isinstance(v, float) for v in payload["report"].values())


def test_summary_reports_five_statistics_per_split(pipeline):
    _, out, _ = pipeline
    payload = json.loads((out / SUMMARY_FILE).read_text())
    for split in ("train", "valid", "test"):
        stats = payload["splits"][split]
        assert stats["n_prefixes"] > 0
        for key in ("pct_positive", "pct_s1", "pct_s0_positive", "pct_s1_positive"):
            assert isinstance(stats[key], float)
            assert 0.0 <= stats[key] <= 100.0


def test_provenance_in_every_artifact(pipeline):
    _, out, _ = pipeline
    hashes = set()
    for name in ("log.csv", SCORES_FILE):
        first = (out / name).read_text().splitlines()[0]
        assert first.startswith("# config_hash=")
        hashes.add(first.split()[1].split("=")[1])
    for name in ("schema.json", "bias_spec.json", SUMMARY_FILE, ENCODER_FILE, REPORT_FILE):
        payload = json.loads((out / name).read_text())
        prov = payload["provenance"]
        assert prov["seed"] == 7
        hashes.add(prov["config_hash"])
    for name in (TRAIN_NPZ, VALID_NPZ, TEST_NPZ):
        with np.load(out / name) as npz:
            prov = json.loads(str(npz["provenance"]))
        assert prov["seed"] == 7
        hashes.add(prov["config_hash"])
    ckpt = json.loads((out / CHECKPOINT_FILE).read_text())
    hashes.add(ckpt["provenance"]["config_hash"])
    assert len(hashes) == 1  # one config, one hash everywhere
    (config_hash,) = hashes
    assert len(config_hash) == 12 and int(config_hash, 16) >= 0


def test_checkpoint_references_encoder_hash(pipeline):
    _, out, _ = pipeline
    ckpt = json.loads((out / CHECKPOINT_FILE).read_text())
    digest = hashlib.sha256((out / ENCODER_FILE).read_bytes()).hexdigest()
    assert ckpt["encoder_ref"] == {"path": ENCODER_FILE, "sha256": digest}


def test_checkpoint_keeps_the_top_level_keys_read_outside_train(pipeline):
    # cli reads encoder_ref, provenance stamps every artifact, and the
    # ingest_eval benchmark reads epochs_run straight from the JSON
    _, out, _ = pipeline
    ckpt = json.loads((out / CHECKPOINT_FILE).read_text())
    assert ckpt["format_version"] == CHECKPOINT_VERSION
    assert set(ckpt["provenance"]) == {"config_hash", "seed"}
    assert set(ckpt["encoder_ref"]) == {"path", "sha256"}
    assert isinstance(ckpt["epochs_run"], int) and ckpt["epochs_run"] >= 1


def test_sweep_default_range_yields_eleven_rows(tmp_path):
    out = tmp_path / "sweep_run"
    config = base_config(out, n_cases=60, train={"max_epochs": 1, "patience": 1})
    config["hyper"] = dict(TINY_HYPER, hidden=2)
    cfg_path = write_config(tmp_path, config)
    assert run("synth", cfg_path) == EXIT_OK
    assert run("ingest", cfg_path) == EXIT_OK
    assert run("sweep", cfg_path) == EXIT_OK
    assert (out / SWEEP_FILE).read_text().startswith("# config_hash=")
    header, *rows = read_csv(out / SWEEP_FILE)
    assert header == ["lambda", "auc", "abpc", "abcc", "on_pareto_abpc", "on_pareto_abcc", "seed"]
    assert [float(r[0]) for r in rows] == [round(0.05 * i, 2) for i in range(11)]
    points = [SweepPoint(*map(float, r[:4]), int(r[6])) for r in rows]
    for col, key in ((4, "abpc"), (5, "abcc")):
        front = pareto_front(points, key)
        assert [r[col] for r in rows] == ["true" if p in front else "false" for p in points]


def test_sweep_names_each_failed_point_and_its_error(pipeline, tmp_path, capsys, monkeypatch):
    _, out, _ = pipeline
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)

    def sabotaged(train, valid, encoder, hyper, loss_cfg, seed, cfg=None):
        if loss_cfg.lam == 0.3:
            raise RuntimeError("diverged")
        return train_model(train, valid, encoder, hyper, loss_cfg, seed, cfg)

    monkeypatch.setattr("fairppm.train.train_model", sabotaged)
    capsys.readouterr()
    assert run("sweep", write_config(tmp_path, base_config(copy, sweep=[0.0, 0.3]))) == EXIT_OK
    captured = capsys.readouterr()
    assert "(1 failed)" in captured.out
    assert captured.err == "warning: lambda=0.3 failed: RuntimeError: diverged\n"
    _, ok, bad = read_csv(copy / SWEEP_FILE)
    assert ok[0] == "0.0" and ok[1] != "nan"
    assert bad[:4] == ["0.3", "nan", "nan", "nan"]


def test_report_merges_runs_and_writes_density_curves(pipeline, tmp_path):
    tmp, out_a, _ = pipeline
    out_b, _ = run_pipeline(tmp_path, "runb", n_cases=80)
    report_out = tmp_path / "merged"
    cfg_path = write_config(tmp_path, {"out": str(report_out), "seed": 7}, "report.json")
    code = main(
        ["report", "--config", cfg_path, "--runs", str(out_a), str(out_b)]
    )
    assert code == EXIT_OK
    lines = (report_out / "report.csv").read_text().splitlines()
    assert lines[1].split(",")[0] == "run"
    assert len(lines) == 2 + 2
    names = {line.split(",")[0] for line in lines[2:]}
    assert names == {out_a.name, out_b.name}
    for name in names:
        density = report_out / f"density_{name}.csv"
        assert density.is_file()
        body = density.read_text().splitlines()
        assert body[0].startswith("# config_hash=")
        assert body[1] == "x,f0,f1,F0,F1"
        assert len(body) == 2 + 10_001
        assert float(body[2].split(",")[0]) == 0.0


def test_report_on_two_runs_with_one_name_exits_2(pipeline, tmp_path, capsys):
    _, out, _ = pipeline
    first, second = tmp_path / "a" / "run", tmp_path / "b" / "run"
    shutil.copytree(out, first)
    shutil.copytree(out, second)
    report_out = tmp_path / "merged"
    cfg_path = write_config(tmp_path, {"out": str(report_out), "seed": 7})
    capsys.readouterr()
    assert main(["report", "--config", cfg_path, "--runs", str(first), str(second)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'{first}'" in err and f"'{second}'" in err and "internal error" not in err
    assert not (report_out / "report.csv").exists()


def test_every_csv_artifact_has_provenance_and_lf_line_ends(pipeline, tmp_path):
    _, out, _ = pipeline
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    cfg_path = write_config(tmp_path, {**base_config(copy), "sweep": [0.0], "runs": [str(copy)]})
    assert run("sweep", cfg_path) == EXIT_OK
    assert run("report", cfg_path) == EXIT_OK
    names = ["log.csv", SCORES_FILE, SWEEP_FILE, "report.csv", f"density_{copy.name}.csv"]
    assert sorted(path.name for path in copy.glob("*.csv")) == sorted(names)
    for name in names:
        data = (copy / name).read_bytes()
        assert data.startswith(b"# config_hash=") and b"\r" not in data, name


def test_report_quotes_a_run_name_with_a_comma(pipeline, tmp_path):
    _, out, _ = pipeline
    run_dir = tmp_path / "r,1"
    shutil.copytree(out, run_dir)
    cfg_path = write_config(tmp_path, {"out": str(tmp_path / "merged"), "seed": 7})
    assert main(["report", "--config", cfg_path, "--runs", str(run_dir)]) == EXIT_OK
    rows = read_csv(tmp_path / "merged" / "report.csv")
    assert [len(row) for row in rows] == [1 + len(fields(EvalReport))] * 2
    assert rows[1][0] == "r,1"


def test_report_reads_scores_with_a_byte_order_mark_as_without(pipeline, tmp_path):
    run_dir, merged = tmp_path / "run", tmp_path / "merged"
    shutil.copytree(pipeline[1], run_dir)
    scores = run_dir / SCORES_FILE
    data = scores.read_bytes()
    cfg_path = write_config(tmp_path, {"out": str(merged), "seed": 7})
    written = {}
    for bom in (b"", b"\xef\xbb\xbf"):
        scores.write_bytes(bom + data)
        assert main(["report", "--config", cfg_path, "--runs", str(run_dir)]) == EXIT_OK
        written[bom] = {path.name: path.read_bytes() for path in sorted(merged.glob("*.csv"))}
    assert list(written[b""]) == ["density_run.csv", "report.csv"]
    assert written[b"\xef\xbb\xbf"] == written[b""]


def csv_module_write(path, comment, columns):
    """The CSV file as the csv module writes it: the same text cells under
    the same comment line, through ``csv.writer`` with LF line ends."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows(zip(*columns.values()))


# cells that need quoting (or, as \r, do not), a lone empty field, and any other text
CSV_TEXT = st.text(st.sampled_from(',"\n\r a\x00\u00e9')) | st.text(
    st.characters(blacklist_categories=("Cs",))
)


@st.composite
def csv_columns(draw):
    rows = draw(st.integers(0, 5))
    column = st.one_of(
        st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=rows, max_size=rows),
        st.lists(st.integers(-(2**40), 2**40), min_size=rows, max_size=rows),
        st.lists(st.booleans(), min_size=rows, max_size=rows),
        st.lists(CSV_TEXT, min_size=rows, max_size=rows),
    )
    return draw(st.dictionaries(CSV_TEXT, column, max_size=4))


@settings(max_examples=200, deadline=None)
@given(columns=csv_columns())
# no columns; a one-column row of one empty field, which csv writes as "";
# and cells that need quoting beside \r, which needs none with LF line ends
@example(columns={})
@example(columns={"": [""]})
@example(columns={"a": ["", "x"], "b": ["", ""]})
@example(columns={"q": ['a"b', "c,d", "e\nf", "g\rh"]})
def test_csv_writer_matches_the_csv_module_byte_for_byte(tmp_path_factory, columns):
    tmp = tmp_path_factory.mktemp("csv")
    comment = cli._provenance_comment({"seed": 3, "out": str(tmp)})
    cells = {name: cli._csv_cells(column) for name, column in columns.items()}
    write_csv(tmp / "ours.csv", comment, [cells])
    csv_module_write(tmp / "csv.csv", comment, cells)
    assert (tmp / "ours.csv").read_bytes() == (tmp / "csv.csv").read_bytes()


# ---------------------------------------------------------------------------
# determinism


def test_reruns_are_byte_identical(pipeline):
    _, out, cfg_path = pipeline
    tracked = [
        "log.csv",
        TRAIN_NPZ,
        VALID_NPZ,
        TEST_NPZ,
        ENCODER_FILE,
        SUMMARY_FILE,
        CHECKPOINT_FILE,
        REPORT_FILE,
        SCORES_FILE,
    ]
    before = {name: (out / name).read_bytes() for name in tracked}
    for command in ("synth", "ingest", "train", "evaluate"):
        assert run(command, cfg_path) == EXIT_OK
    for name in tracked:
        assert (out / name).read_bytes() == before[name], f"{name} changed on rerun"


def test_seed_flag_changes_outputs(pipeline, tmp_path):
    _, out, cfg_path = pipeline
    other = tmp_path / "other_seed"
    assert run("synth", cfg_path, "--seed", "8", "--out", str(other)) == EXIT_OK
    original = (out / "log.csv").read_text().splitlines()
    reseeded = (other / "log.csv").read_text().splitlines()
    assert original[1:] != reseeded[1:]  # beyond the provenance comment


# ---------------------------------------------------------------------------
# flag overrides


def test_lambda_flag_reaches_checkpoint(pipeline, tmp_path):
    override = tmp_path / "lam_run"
    new_cfg = write_config(tmp_path, base_config(override, n_cases=100), "lam.json")
    assert run("synth", new_cfg) == EXIT_OK
    assert run("ingest", new_cfg) == EXIT_OK
    assert run("train", new_cfg, "--lambda", "0.1") == EXIT_OK
    ckpt = json.loads((override / CHECKPOINT_FILE).read_text())
    assert ckpt["loss_cfg"] == {"lam": 0.1}
    assert ckpt["effective_batch"] == 512


def test_a_sinkhorn_config_key_exits_2_listing_the_valid_keys(tmp_path, capsys):
    out = tmp_path / "sk"
    out.mkdir()
    config = base_config(out, sinkhorn={"epsilon": 0.01, "max_iters": 200})
    assert run("train", write_config(tmp_path, config)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unknown config key 'sinkhorn'" in err
    assert f"(valid keys: {', '.join(cli.CONFIG_KEYS)})" in err


def test_a_sinkhorn_flag_exits_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, base_config(tmp_path / "sk"))
    with pytest.raises(SystemExit) as exit_:
        run("train", cfg_path, "--sinkhorn-eps", "0.1")
    assert exit_.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --sinkhorn-eps 0.1" in capsys.readouterr().err


def test_schema_file_written_by_synth_is_read_back(pipeline, tmp_path):
    _, out, _ = pipeline
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    config = base_config(copy, schema=str(copy / "schema.json"))
    assert run("ingest", write_config(tmp_path, config)) == EXIT_OK
    by_file, inline = (json.loads((d / ENCODER_FILE).read_text()) for d in (copy, out))
    assert by_file["schema"] == inline["schema"] == {"attributes": SYNTH_SCHEMA_JSON}


def test_max_len_flag_reaches_encoder(tmp_path):
    out = tmp_path / "short"
    cfg_path = write_config(tmp_path, base_config(out, n_cases=40))
    assert run("synth", cfg_path) == EXIT_OK
    assert run("ingest", cfg_path, "--max-len", "3") == EXIT_OK
    payload = json.loads((out / ENCODER_FILE).read_text())
    assert payload["max_len"] == 3


def test_drop_sensitive_flag_removes_channel(tmp_path):
    out = tmp_path / "dropped"
    cfg_path = write_config(tmp_path, base_config(out, n_cases=40))
    assert run("synth", cfg_path) == EXIT_OK
    assert run("ingest", cfg_path, "--drop-sensitive") == EXIT_OK
    payload = json.loads((out / ENCODER_FILE).read_text())
    assert payload["drop_sensitive"] is True
    assert "case:protected" not in payload["numeric_ranges"]


# ---------------------------------------------------------------------------
# error paths


def test_missing_config_file_is_config_error(tmp_path, capsys):
    assert main(["ingest", "--config", str(tmp_path / "nope.json")]) == EXIT_CONFIG
    assert "nope.json" in capsys.readouterr().err
    assert main(["ingest", "--config", str(tmp_path)]) == EXIT_CONFIG  # a directory
    err = capsys.readouterr().err
    assert f"'{tmp_path}'" in err and "internal error" not in err


@pytest.mark.parametrize(
    "activities, named",
    [
        ([["a"], "b", "offer"], "activity ['a'] is not a string"),
        (["submit", "", "offer", "close"], "activity names must be nonempty"),
        (["a", "a", "offer"], "activity 'a' is named twice"),
    ],
    ids=["not-a-string", "empty", "repeated"],
)
def test_a_malformed_activity_alphabet_exits_2_before_writing_the_log(
    tmp_path, capsys, activities, named
):
    out = tmp_path / "run"
    config = base_config(out, bias_spec={"activities": activities})
    assert run("synth", write_config(tmp_path, config)) == EXIT_CONFIG
    assert f"bad 'bias_spec' config: {named}" in capsys.readouterr().err
    assert not (out / "log.csv").exists()


def test_malformed_json_config(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["synth", "--config", str(path)]) == EXIT_CONFIG
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["config", "schema file"])
def test_json_int_over_the_digit_limit_exits_2_naming_the_file(tmp_path, capsys, where):
    # json.loads raises a plain ValueError, not JSONDecodeError, for an
    # integer literal over Python's 4300-digit conversion limit
    huge = '{"max_epochs": 1' + "0" * 5000 + "}"
    out = tmp_path / "huge"
    out.mkdir()
    (out / "log.csv").write_text("")
    if where == "config":
        path = tmp_path / "config.json"
        path.write_text(json.dumps(base_config(out, train="HUGE")).replace('"HUGE"', huge))
        command = "train"
    else:
        path = tmp_path / "schema.json"
        path.write_text(huge)
        command = "ingest"
        write_config(tmp_path, base_config(out, schema=str(path)))
    assert run(command, str(tmp_path / "config.json")) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'{path}' is not valid JSON" in err and "internal error" not in err


def test_missing_required_field(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"out": str(tmp_path / "x"), "schema": SYNTH_SCHEMA_JSON})
    assert run("ingest", cfg_path) == EXIT_CONFIG
    assert "log" in capsys.readouterr().err


def test_missing_sensitive_attribute_names_it(tmp_path, capsys):
    out = tmp_path / "nosens"
    config = base_config(out, n_cases=30, sensitive_attr="case:absent")
    cfg_path = write_config(tmp_path, config)
    assert run("synth", cfg_path) == EXIT_OK
    assert run("ingest", cfg_path) == EXIT_CONFIG
    assert "case:absent" in capsys.readouterr().err


def test_mixed_timezones_in_a_case_is_config_error(tmp_path, capsys):
    log = tmp_path / "mixed.csv"
    log.write_text(
        "case_id,activity,timestamp,case:protected\n"
        "c1,submit,2024-01-05T08:00:00+01:00,TRUE\n"
        "c1,offer,2024-01-05T09:00:00,TRUE\n"
    )
    config = {
        "out": str(tmp_path / "mixed"),
        "log": str(log),
        "schema": {"case:protected": "boolean"},
        "target_activity": "offer",
    }
    assert run("ingest", write_config(tmp_path, config)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "line 3" in err and "internal error" not in err


def test_log_that_is_not_utf8_exits_2_naming_the_line(tmp_path, capsys):
    # the bad byte sits on physical line 5: after a comment line, the
    # header and a record whose quoted field spans two lines
    log = tmp_path / "latin1.csv"
    log.write_bytes(
        b"# provenance\n"
        b"case_id,activity,timestamp,case:protected\n"
        b'c1,"sub\nmit",2024-01-05T08:00:00,TRUE\n'
        b"c1,off\xffer,2024-01-05T09:00:00,TRUE\n"
    )
    config = {
        "out": str(tmp_path / "latin1"),
        "log": str(log),
        "schema": {"case:protected": "boolean"},
        "target_activity": "offer",
    }
    assert run("ingest", write_config(tmp_path, config)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "line 5: byte 0xff is not UTF-8" in err and "internal error" not in err


def test_log_field_over_the_csv_field_limit_exits_2_naming_the_line(tmp_path, capsys):
    log = tmp_path / "wide.csv"
    log.write_text(
        "# provenance\n"
        "case_id,activity,timestamp,case:protected\n"
        "c1,submit,2024-01-05T08:00:00,TRUE\n"
        f"c1,{'x' * 131073},2024-01-05T09:00:00,TRUE\n"
    )
    config = {
        "out": str(tmp_path / "wide"),
        "log": str(log),
        "schema": {"case:protected": "boolean"},
        "target_activity": "offer",
    }
    assert run("ingest", write_config(tmp_path, config)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "line 4: field larger than field limit (131072)" in err
    assert "internal error" not in err


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_ingest_pauses_the_collector_and_restores_the_callers_setting(tmp_path, enabled):
    # the stage runs no collector pass while it builds and writes records,
    # and leaves the collector as it found it, also when it fails
    out = tmp_path / "run"
    assert run("synth", write_config(tmp_path, base_config(out, n_cases=30))) == EXIT_OK
    passes = []

    def count(phase, info):
        passes.append(phase)

    was = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    gc.collect()  # no pass is due when the stage starts
    gc.callbacks.append(count)
    try:
        assert cli.cmd_ingest(base_config(out, n_cases=30)) == EXIT_OK
        assert not passes and gc.isenabled() is enabled
        with pytest.raises(ValueError, match="case:absent"):
            cli.cmd_ingest(base_config(out, sensitive_attr="case:absent"))
        assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(count)
        gc.enable() if was else gc.disable()


@pytest.mark.parametrize("where", ["config", "schema file", ENCODER_FILE, CHECKPOINT_FILE])
def test_json_nested_past_the_recursion_limit_exits_2_naming_the_file(
    pipeline, tmp_path, capsys, where
):
    deep = "[" * 200000
    copy = tmp_path / "copy"
    shutil.copytree(pipeline[1], copy)
    config = base_config(copy)
    command = {ENCODER_FILE: "train", CHECKPOINT_FILE: "evaluate"}
    if where == "config":
        path = tmp_path / "config.json"
        path.write_text(deep)
    elif where == "schema file":
        path = tmp_path / "schema.json"
        path.write_text(deep)
        write_config(tmp_path, {**config, "schema": str(path)})
    else:
        path = copy / where
        lines = path.read_text().split("\n")
        lines[0] = deep
        path.write_text("\n".join(lines))
        write_config(tmp_path, config)
    capsys.readouterr()
    assert run(command.get(where, "ingest"), str(tmp_path / "config.json")) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'{path}'" in err and "JSON nested too deeply" in err
    assert "internal error" not in err


@pytest.mark.parametrize(
    "where", ["config", "schema file", ENCODER_FILE, CHECKPOINT_FILE, REPORT_FILE, SCORES_FILE]
)
def test_a_file_that_is_not_utf8_exits_2_naming_the_line(pipeline, tmp_path, capsys, where):
    copy = tmp_path / "copy"
    shutil.copytree(pipeline[1], copy)
    config = {**base_config(copy), "runs": [str(copy)]}
    command = {ENCODER_FILE: "train", CHECKPOINT_FILE: "evaluate"}
    if where == "config":
        path = tmp_path / "config.json"
    elif where == "schema file":
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(SYNTH_SCHEMA_JSON, indent=2))
        config["schema"] = str(path)
    else:
        path = copy / where
    if where in (REPORT_FILE, SCORES_FILE):
        command[where], config["out"] = "report", str(tmp_path / "merged")
    write_config(tmp_path, config)
    lines = path.read_bytes().splitlines(keepends=True)
    lines[2] = b"\xff" + lines[2]
    path.write_bytes(b"".join(lines))
    capsys.readouterr()
    assert run(command.get(where, "ingest"), str(tmp_path / "config.json")) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'{path}'" in err and "line 3: byte 0xff is not UTF-8" in err
    assert "position" not in err and "internal error" not in err


def test_python_m_fairppm_runs_the_cli():
    # a source checkout has no installed script; the package runs as a module
    src = Path(cli.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "fairppm", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert "usage: fairppm" in done.stdout


BAD_SCHEMA_FILE = "<a schema file holding invalid JSON>"


@pytest.mark.parametrize(
    "command, overrides, named",
    [
        ("train", {"hyper": {"hiden": 2}}, "'hiden'"),
        ("train", {"train": {"max_epoch": 5}}, "'max_epoch'"),
        ("train", {"train": {"patience": 0}}, "patience must be >= 1"),
        ("train", {"train": {"max_epochs": 0}}, "max_epochs must be >= 1"),
        ("train", {"hyper": {"lr": float("inf")}}, "'lr' value inf is not a finite number"),
        pytest.param("train", {"hyper": {"lr": 10**400}}, "'lr' value 1000", id="lr-10**400"),
        ("train", {"hyper": "grid", "grid": {"hiden": [2]}}, "'hiden'"),
        ("train", {"hyper": "grid", "grid": {"hidden": 2}}, "'hidden'"),
        ("train", {"hyper": "grid", "grid": {"layers": [0]}}, "layers must be >= 1"),
        ("sweep", {"sweep": {"start": 0.0, "stp": 0.1}}, "'stp'"),
        ("sweep", {"sweep": ["a"]}, "'a'"),
        ("sweep", {"sweep": []}, "'sweep'"),
        ("sweep", {"sweep": [0.0, 0.3, 0.3]}, "'sweep' lists lambda 0.3 twice"),
        ("sweep", {"sweep": [0.0, 1.5]}, "'sweep' lambda 1.5 is outside [0,1]"),
        ("train", {"lambda": 1.5}, "'lambda' lambda 1.5 is outside [0,1]"),
        ("sweep", {"sweep": {"start": 0.0, "stop": 0.5, "step": 0.05}}, "'sweep' value"),
        ("synth", {"bias_spec": {"n_case": 10}}, "'n_case'"),
        ("synth", {"bias_spec": {"activities": "abc"}}, "'activities' value 'abc' does not cast"),
        ("ingest", {"schema": BAD_SCHEMA_FILE}, "not valid JSON"),
        ("train", {"lamda": 0.3}, "'lamda'"),
        ("sweep", {"jobs": "2"}, "'jobs'"),
        ("sweep", {"sweep": [0.0, True]}, "'sweep' value True"),
        ("synth", {"out": 5}, "'out'"),
        ("ingest", {"log": 5}, "'log'"),
        ("synth", {"n_cases": True}, "'n_cases'"),
        ("ingest", {"drop_sensitive": "false"}, "'drop_sensitive'"),
        ("train", {"lambda": True}, "'lambda'"),
        ("synth", {"seed": True}, "'seed'"),
        ("synth", {"seed": -1}, "'seed' must be an integer >= 0"),
        ("synth", {"n_cases": 0}, "n_cases must be >= 1"),
        ("ingest", {"max_len": 0}, "'max_len' must be an integer >= 1"),
        ("train", {"jobs": 0}, "'jobs' must be an integer >= 1"),
        ("ingest", {"max_len": True}, "'max_len'"),
        ("ingest", {"target_activity": 5}, "'target_activity'"),
        ("report", {"runs": "run"}, "'runs'"),
        ("report", {"runs": [5]}, "'runs'"),
        # paths the system cannot open as asked, each named in its message
        ("synth", {"out": "{out}/log.csv"}, "'{out}/log.csv'"),
        ("synth", {"out": "{out}/dir"}, "'{out}/dir/log.csv'"),
        ("ingest", {"log": "{out}/dir"}, "'{out}/dir'"),
        ("ingest", {"schema": "{out}/dir"}, "'{out}/dir'"),
    ],
    ids=lambda v: v if isinstance(v, str) else json.dumps(v),
)
def test_bad_config_exits_2_naming_the_key(tmp_path, capsys, command, overrides, named):
    out = tmp_path / "bad"
    (out / "dir" / "log.csv").mkdir(parents=True)  # a directory where a file belongs
    (out / "log.csv").write_text("")
    if overrides.get("schema") == BAD_SCHEMA_FILE:
        bad = tmp_path / "schema.json"
        bad.write_text("{not json")
        overrides = {"schema": str(bad)}
    overrides = {
        key: value.replace("{out}", str(out)) if isinstance(value, str) else value
        for key, value in overrides.items()
    }
    config = {**base_config(out), **overrides}  # overrides may replace 'out' itself
    assert run(command, write_config(tmp_path, config)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert named.replace("{out}", str(out)) in err and "internal error" not in err


def drop_key(*path):
    def edit(text):
        payload = json.loads(text)
        record = payload
        for key in path[:-1]:
            record = record[key]
        del record[path[-1]]
        return json.dumps(payload)

    return edit


def set_key(*path, value):
    def edit(text):
        payload = json.loads(text)
        record = payload
        for key in path[:-1]:
            record = record[key]
        record[path[-1]] = value
        return json.dumps(payload)

    return edit


def change_json(change):
    """Apply ``change`` to the payload of a JSON artifact."""

    def edit(text):
        payload = json.loads(text)
        change(payload)
        return json.dumps(payload)

    return edit


def replace_line(number, line):
    def edit(text):
        lines = text.split("\n")
        lines[number - 1] = line
        return "\n".join(lines)

    return edit


def not_json(text):
    return "{not json"


def edit_split(change):
    """Apply ``change`` to an .npz file's arrays, by member name, and save
    them back (an object array pickled)."""

    def edit(path):
        with np.load(path) as npz:
            arrays = dict(npz)
        change(arrays)
        np.savez(path, **arrays)

    return edit


def set_entry(name, index, value):
    """Set entry ``index`` of .npz member ``name`` to ``value``."""

    def change(arrays):
        arrays[name][index] = value

    return edit_split(change)


def set_member(name, array):
    """Set (or add) .npz member ``name`` to ``array``."""
    return edit_split(lambda arrays: arrays.update({name: array}))


def retype(name, dtype):
    """Store .npz member ``name`` as ``dtype`` (an object array pickled)."""
    return edit_split(lambda arrays: arrays.update({name: arrays[name].astype(dtype)}))


def restamped(edit):
    """``edit`` of checkpoint.npz, after which checkpoint.json records the
    edited file's sha256, so the checks past the hash meet the edit."""

    def apply(path):
        edit(path)
        ckpt = path.with_suffix(".json")
        payload = json.loads(ckpt.read_text())
        payload["params"]["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        ckpt.write_text(json.dumps(payload))

    return apply


def drop_last_event(arrays):
    for name in arrays:
        if name.startswith(("cat:", "num:")):
            arrays[name] = arrays[name][:-1]


def no_rows(arrays):
    for name, array in arrays.items():
        if array.ndim == 1:
            arrays[name] = array[:0]


def member_not_npy(path):
    """Replace member 'y' with bytes that are no .npy array."""
    edit_split(lambda arrays: arrays.pop("y"))(path)
    with zipfile.ZipFile(path, "a") as zf:
        zf.writestr("y.npy", b"not an array")


def truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


@pytest.mark.parametrize(
    "command, name, edit, named",
    [
        pytest.param("report", REPORT_FILE, not_json, "Expecting", id="report-not-json"),
        pytest.param(
            "report", REPORT_FILE, drop_key("report", "f1_at_0_5"), "'f1_at_0_5'",
            id="report-missing-field",
        ),
        pytest.param(
            "report", REPORT_FILE, set_key("report", "auc", value="0.9"), "'auc'",
            id="report-auc-a-string",
        ),
        pytest.param(
            "report", SCORES_FILE, replace_line(4, "abc,1,0"), "line 4", id="scores-bad-row"
        ),
        pytest.param(
            "report", SCORES_FILE, replace_line(4, "1.5,1,0"), "line 4",
            id="scores-score-above-one",
        ),
        pytest.param(
            "report", SCORES_FILE, replace_line(4, "0.5,1,5"), "line 4",
            id="scores-sensitive-not-a-flag",
        ),
        pytest.param(
            "report", SCORES_FILE, replace_line(5, "# stray"),
            "line 5: 1 fields where the header has 3",
            id="scores-comment-below-the-header",
        ),
        pytest.param(
            "report", SCORES_FILE, replace_line(4, "0.5,1,0,1,2"),
            "line 4: 5 fields where the header has 3", id="scores-two-extra-fields",
        ),
        pytest.param(
            "report", SCORES_FILE, replace_line(4, "0.5,1," + "x" * 131073),
            "line 4: field larger than field limit (131072)", id="scores-field-over-the-limit",
        ),
        pytest.param("evaluate", ENCODER_FILE, not_json, "Expecting", id="encoder-not-json"),
        pytest.param(
            "train", ENCODER_FILE, set_key("max_len", value="6"), "'max_len'",
            id="encoder-max-len-a-string",
        ),
        pytest.param(
            "train", ENCODER_FILE, set_key("labels", "resource", value=["r1", "r1"]), "'labels'",
            id="encoder-repeated-label",
        ),
        pytest.param(
            "train", ENCODER_FILE, set_key("numeric_ranges", "score", value=[1, "x"]),
            "'numeric_ranges'", id="encoder-range-not-numbers",
        ),
        pytest.param(
            "train", ENCODER_FILE, set_key("drop_sensitive", value="false"), "'drop_sensitive'",
            id="encoder-drop-sensitive-a-string",
        ),
        pytest.param(
            "train", ENCODER_FILE, set_key("embedding_dims", value={"activity": 3}),
            "'embedding_dims'", id="encoder-dropped-embedding-dims-key",
        ),
        pytest.param(
            "train", TRAIN_NPZ, edit_split(lambda arrays: arrays.pop("num:score")),
            "members missing ['num:score'] and unexpected []", id="split-missing-member",
        ),
        pytest.param(
            "evaluate", TEST_NPZ, edit_split(lambda arrays: arrays.pop("cat:resource")),
            "members missing ['cat:resource'] and unexpected []", id="split-missing-resource",
        ),
        pytest.param(
            "train", VALID_NPZ, edit_split(lambda arrays: arrays.update(extra=np.zeros(1))),
            "members missing [] and unexpected ['extra']", id="split-extra-member",
        ),
        pytest.param(
            "evaluate", TEST_NPZ, retype("lengths", np.int32), "member 'lengths' is int32",
            id="split-lengths-int32",
        ),
        pytest.param(
            "evaluate", TEST_NPZ, retype("y", object),
            "member 'y': Object arrays cannot be loaded when allow_pickle=False",
            id="split-object-member",
        ),
        pytest.param(
            "train", TRAIN_NPZ, member_not_npy, "member 'y' is not an .npy array",
            id="split-member-not-npy",
        ),
        pytest.param(
            "train", TRAIN_NPZ, set_entry("cat:resource", 0, 6),
            "member 'cat:resource' holds 6, outside [0, 5]", id="split-index-above-the-vocabulary",
        ),
        pytest.param(
            "train", VALID_NPZ, edit_split(no_rows),
            "'lengths' must be nonempty and each in [1, 6]", id="split-no-rows",
        ),
        pytest.param(
            "train", VALID_NPZ, set_entry("lengths", 0, 0),
            "'lengths' must be nonempty and each in [1, 6]", id="split-length-0",
        ),
        pytest.param(
            "evaluate", TEST_NPZ, set_entry("lengths", 0, 7),
            "'lengths' must be nonempty and each in [1, 6]", id="split-length-above-max-len",
        ),
        pytest.param(
            "evaluate", TEST_NPZ, edit_split(drop_last_event), "(the sum of 'lengths')",
            id="split-lengths-do-not-sum-to-the-events",
        ),
        pytest.param(
            "evaluate", TEST_NPZ, set_entry("y", 0, 0.5), "member 'y' holds 0.5, not 0 or 1",
            id="split-y-not-a-label",
        ),
        pytest.param(
            "train", TRAIN_NPZ, set_entry("s", 0, 2), "member 's' holds 2, not 0 or 1",
            id="split-s-not-a-flag",
        ),
        pytest.param(
            "train", TRAIN_NPZ, set_entry("num:score", 0, np.nan),
            "member 'num:score' holds nan, not a number in [0,1]", id="split-score-nan",
        ),
        pytest.param(
            "evaluate", TEST_NPZ, set_entry("num:case:proxy", 0, 1.5),
            "member 'num:case:proxy' holds 1.5, not a number in [0,1]", id="split-proxy-above-1",
        ),
        pytest.param(
            "train", VALID_NPZ, set_entry("num:case:proxy", 0, np.nan),
            "member 'num:case:proxy' holds nan, not a number in [0,1]", id="split-proxy-nan",
        ),
        pytest.param(
            "evaluate", TEST_NPZ, truncate, "not an .npz file", id="split-truncated"
        ),
        pytest.param(
            "train", VALID_NPZ, lambda path: path.write_text("lengths,y,s\n1,0,1\n"),
            "not an .npz file: File is not a zip file", id="split-not-a-zip",
        ),
        pytest.param(
            "evaluate", TEST_NPZ,
            edit_split(lambda arrays: arrays.update(encoder_sha256=np.array("0" * 64))),
            "packed with another encoder.json", id="split-encoder-sha256-mismatch",
        ),
        pytest.param(
            "evaluate", CHECKPOINT_FILE, lambda text: "[]", "list", id="checkpoint-a-list"
        ),
        pytest.param(
            "evaluate", CHECKPOINT_FILE, drop_key("seed"), "'seed'", id="checkpoint-no-seed"
        ),
        pytest.param(
            "evaluate", CHECKPOINT_FILE, set_key("encoder_ref", value=5), "'encoder_ref'",
            id="checkpoint-encoder-ref-not-an-object",
        ),
        pytest.param(
            "evaluate", CHECKPOINT_FILE, set_key("seed", value="5"), "'seed'",
            id="checkpoint-seed-a-string",
        ),
        pytest.param(
            "evaluate", CHECKPOINT_FILE, set_key("epochs_run", value=2.5), "'epochs_run'",
            id="checkpoint-epochs-run-a-float",
        ),
        pytest.param(
            "evaluate", CHECKPOINT_FILE, set_key("loss_cfg", "lam", value="0.3"), "'lam'",
            id="checkpoint-lambda-a-string",
        ),
        pytest.param(
            "evaluate", CHECKPOINT_FILE, set_key("params", "hyper", "depth", value=3), "'depth'",
            id="checkpoint-unknown-hyper-key",
        ),
        pytest.param(
            "evaluate", CHECKPOINT_FILE, set_key("opt_threshold", value="x"), "'opt_threshold'",
            id="checkpoint-opt-threshold-a-string",
        ),
        pytest.param(
            "evaluate", CHECKPOINT_FILE, set_key("opt_threshold", value=None), "'opt_threshold'",
            id="checkpoint-opt-threshold-null",
        ),
        pytest.param(
            "evaluate", CHECKPOINT_FILE, set_key("opt_threshold", value=[0.5]),
            "'opt_threshold'", id="checkpoint-opt-threshold-a-list",
        ),
        pytest.param(
            "evaluate", CHECKPOINT_FILE, drop_key("opt_threshold"), "missing key 'opt_threshold'",
            id="checkpoint-no-opt-threshold",
        ),
        pytest.param(
            "evaluate", CHECKPOINT_FILE, set_key("opt_threshold", value=1.5),
            "opt_threshold 1.5 must lie in [0,1]", id="checkpoint-opt-threshold-above-1",
        ),
        pytest.param(
            "evaluate", CHECKPOINT_FILE, set_key("valid_auc", value=float("nan")),
            "'valid_auc' value nan", id="checkpoint-valid-auc-nan",
        ),
        pytest.param(
            "evaluate", CHECKPOINT_FILE, set_key("valid_auc", value=True), "'valid_auc'",
            id="checkpoint-valid-auc-a-bool",
        ),
        pytest.param(
            "evaluate", CHECKPOINT_FILE, set_key("valid_auc", value=-0.1),
            "valid_auc -0.1 must lie in [0,1]", id="checkpoint-valid-auc-below-0",
        ),
        pytest.param(
            "evaluate", CHECKPOINT_NPZ, restamped(set_member("lstm0:f:b", np.array(5.0))),
            "member 'lstm0:f:b' is float64 of shape (), not float64 (16,)",
            id="checkpoint-array-a-scalar",
        ),
        pytest.param(
            "evaluate", CHECKPOINT_NPZ, restamped(set_member("lstm0:f:b", np.array([5.0]))),
            "member 'lstm0:f:b' is float64 of shape (1,), not float64 (16,)",
            id="checkpoint-array-wrong-shape",
        ),
        pytest.param(
            "evaluate", CHECKPOINT_NPZ, restamped(set_member("extra", np.array([1.0]))),
            "members missing [] and unexpected ['extra']", id="checkpoint-extra-array",
        ),
        pytest.param(
            "evaluate", CHECKPOINT_NPZ, restamped(set_entry("dense:b", 0, np.nan)),
            "member 'dense:b' holds nan, not a finite number", id="checkpoint-array-nan",
        ),
        pytest.param(
            "evaluate", CHECKPOINT_NPZ, restamped(retype("dense:w", np.float32)),
            "member 'dense:w' is float32", id="checkpoint-array-float32",
        ),
        pytest.param(
            "evaluate", CHECKPOINT_NPZ, restamped(retype("dense:w", object)),
            "member 'dense:w': Object arrays cannot be loaded when allow_pickle=False",
            id="checkpoint-array-pickled",
        ),
        pytest.param(
            "evaluate", CHECKPOINT_NPZ, restamped(truncate), "not an .npz file",
            id="checkpoint-npz-truncated",
        ),
        pytest.param(
            # another run's file: the same members with other weights, not re-hashed
            "evaluate", CHECKPOINT_NPZ, set_entry("dense:b", 0, 0.125),
            "its sha256 is not the one 'checkpoint.json' records",
            id="checkpoint-npz-of-another-run",
        ),
    ],
)
def test_malformed_artifact_exits_2_naming_the_file(
    pipeline, tmp_path, capsys, command, name, edit, named
):
    _, out, _ = pipeline
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    path = copy / name
    if path.suffix == ".npz":
        edit(path)
    else:
        path.write_text(edit(path.read_text()))
    config = {**base_config(copy), "runs": [str(copy)]}
    if command == "report":
        config["out"] = str(tmp_path / "merged")
    capsys.readouterr()
    assert run(command, write_config(tmp_path, config)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'{copy / name}'" in err and named in err and "internal error" not in err


def test_evaluate_on_an_older_checkpoint_exits_2(tmp_path, capsys):
    out, cfg_path = run_pipeline(tmp_path, "old", n_cases=40)
    path = out / CHECKPOINT_FILE
    payload = json.loads(path.read_text())
    payload["format_version"] = CHECKPOINT_VERSION - 1
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run("evaluate", cfg_path) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"format_version {CHECKPOINT_VERSION - 1}, expected {CHECKPOINT_VERSION}" in err
    assert "rerun `train`" in err and "internal error" not in err


README = Path(__file__).parents[1] / "README.md"


def as_json(value):
    return json.loads(json.dumps(value))


def test_readme_quick_start_config_passes_the_strict_readers():
    text = README.read_text(encoding="utf-8")
    config = json.loads(text.split("<<'JSON'\n", 1)[1].split("\nJSON\n", 1)[0])
    assert cli._record(Hyper, config, "hyper") == Hyper(hidden=16, batch=512, lr=0.01, dropout=0.0)
    assert cli._record(TrainConfig, config, "train") == TrainConfig(max_epochs=30, patience=10)
    assert len(cli._grid(config)) == 144
    assert cli._lambdas(config) == [round(0.05 * i, 2) for i in range(11)]


def test_readme_config_keys_match_the_record_defaults():
    section = README.read_text(encoding="utf-8").split("## Config keys", 1)[1]
    top_level = section.split("```json\n", 1)[0]
    assert tuple(re.findall(r"`(\w+)`", top_level)) == cli.CONFIG_KEYS
    keys = json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])
    assert keys == {
        "hyper": as_json(asdict(Hyper())),
        "train": as_json(asdict(TrainConfig())),
        "grid": as_json(GRID_AXES),
        "sweep": default_lambdas(),
        "bias_spec": as_json(asdict(BiasSpec())),
    }
    for key, cls in (("hyper", Hyper), ("train", TrainConfig)):
        assert cli._record(cls, keys, key) == cls()


def test_readme_flag_list_matches_the_parser():
    # the flags that override a config key: --config names the config itself,
    # and --runs is report's list of run directories
    sentence = README.read_text(encoding="utf-8").split("Useful flags", 1)[1].split(".", 1)[0]
    named = re.findall(r"`(--[\w-]+)`", sentence)
    (commands,) = [
        action
        for action in cli._build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    flags = {
        flag
        for parser in commands.choices.values()
        for action in parser._actions
        for flag in action.option_strings
        if flag.startswith("--")
    }
    assert len(named) == len(set(named))
    assert set(named) == flags - {"--help", "--config", "--runs"}


def test_readme_states_the_fixed_optimizer_constants():
    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = re.search(
        r"AdamW with betas \((\S+), (\S+)\), eps (\S+) and weight decay (\S+), and the "
        r"learning rate cut by (\S+) after (\d+) epochs whose validation loss does not beat "
        r"the best by more than (\S+?)\. ",
        text,
    )
    assert sentence is not None
    b1, b2, eps, decay, factor, patience, margin = map(float, sentence.groups())
    assert (b1, b2) == nn.ADAM_BETAS
    assert (eps, decay) == (nn.ADAM_EPS, nn.WEIGHT_DECAY)
    assert (factor, patience, margin) == (nn.LR_FACTOR, nn.LR_PATIENCE, nn.LR_MARGIN)


def test_readme_names_the_checkpoint_fields():
    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = re.search(
        r"Format (\d+) stores the `Checkpoint` record's fields (.*?) under their own names", text
    )
    assert sentence is not None
    assert int(sentence[1]) == CHECKPOINT_VERSION
    assert re.findall(r"`(\w+)`", sentence[2]) == [f.name for f in fields(Checkpoint)]


def test_readme_lists_the_split_file_members(pipeline):
    text = " ".join(README.read_text(encoding="utf-8").split())
    sentence = re.search(
        r"whose members are (.*?) \(a test checks this list against the code\)", text
    )
    assert sentence is not None
    encoder, _, _ = cli._load_inputs(pipeline[1])
    # each attribute's member once, under a placeholder name
    generic = [re.sub(r"^(cat|num):.*", r"\1:<attr>", name) for name in split_members(encoder)]
    assert re.findall(r"`([\w:<>]+)`", sentence[1]) == list(dict.fromkeys(generic))


def test_evaluate_without_the_checkpoint_npz_exits_2_naming_it(pipeline, tmp_path, capsys):
    _, out, _ = pipeline
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    (copy / CHECKPOINT_NPZ).unlink()
    capsys.readouterr()
    assert run("evaluate", write_config(tmp_path, base_config(copy))) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'{copy / CHECKPOINT_NPZ}'" in err and "internal error" not in err


@pytest.mark.parametrize(
    "command, extra, code",
    [
        ("synth", {"bias_spec": {"activities": ["a", "a", "offer"]}}, EXIT_CONFIG),
        ("ingest", {}, EXIT_CONFIG),  # its log, out/log.csv, is absent
        ("train", {}, EXIT_MISSING),
        ("sweep", {}, EXIT_MISSING),
        ("evaluate", {}, EXIT_MISSING),
        ("report", {"runs": []}, EXIT_CONFIG),
        ("report", {"runs": ["absent"]}, EXIT_MISSING),
    ],
    ids=["synth", "ingest", "train", "sweep", "evaluate", "report-no-runs", "report-absent-run"],
)
def test_a_stage_that_fails_leaves_no_out_directory(tmp_path, command, extra, code):
    out = tmp_path / "out"
    config = base_config(out, **extra)
    if command == "report":  # its runs lie beside out
        config["runs"] = [str(tmp_path / name) for name in extra["runs"]]
    assert run(command, write_config(tmp_path, config)) == code
    assert not out.exists()


def test_evaluate_before_train_is_missing_artifact(tmp_path, capsys):
    out = tmp_path / "norun"
    cfg_path = write_config(tmp_path, base_config(out, n_cases=30))
    assert run("synth", cfg_path) == EXIT_OK
    assert run("ingest", cfg_path) == EXIT_OK
    assert run("evaluate", cfg_path) == EXIT_MISSING
    assert CHECKPOINT_FILE in capsys.readouterr().err


def test_single_group_test_set_is_undefined_metric(tmp_path, capsys):
    # every parity metric needs both groups: ingest rejects the split before
    # any training, and no later stage runs on it
    out = tmp_path / "onegroup"
    config = base_config(
        out,
        bias_spec={"n_cases": 60, "p_s1": 0.0, "r0": 0.5, "r1": 0.5},
    )
    cfg_path = write_config(tmp_path, config)
    assert run("synth", cfg_path) == EXIT_OK
    assert run("ingest", cfg_path) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "every test prefix has sensitive value 0: 'sensitive_attr' 'case:protected'" in err
    for command in ("train", "evaluate"):
        assert run(command, cfg_path) == EXIT_MISSING


def test_evaluate_on_a_single_group_test_split_exits_4(pipeline, tmp_path, capsys):
    _, out, _ = pipeline
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    edit_split(lambda arrays: arrays["s"].fill(0))(copy / TEST_NPZ)
    capsys.readouterr()
    assert run("evaluate", write_config(tmp_path, base_config(copy))) == EXIT_UNDEFINED
    err = capsys.readouterr().err
    assert "undefined metric" in err and "group S1 is empty" in err


def test_encoder_checkpoint_mismatch_detected(tmp_path):
    out, cfg_path = run_pipeline(tmp_path, "mismatch", n_cases=60)
    # refit the encoder with a different max_len: hash no longer matches
    assert run("ingest", cfg_path, "--max-len", "2") == EXIT_OK
    assert run("evaluate", cfg_path) == EXIT_CONFIG


def test_sweep_requires_explicit_hyper(tmp_path, capsys):
    out = tmp_path / "nohyper"
    config = base_config(out, n_cases=40)
    del config["hyper"]
    cfg_path = write_config(tmp_path, config)
    assert run("synth", cfg_path) == EXIT_OK
    assert run("ingest", cfg_path) == EXIT_OK
    assert run("sweep", cfg_path) == EXIT_CONFIG
    assert "hyper" in capsys.readouterr().err


def test_report_without_runs_is_config_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"out": str(tmp_path / "r"), "seed": 0})
    assert main(["report", "--config", cfg_path]) == EXIT_CONFIG
    assert "runs" in capsys.readouterr().err


def test_bad_jobs_flag(tmp_path):
    cfg_path = write_config(tmp_path, base_config(tmp_path / "j", n_cases=30))
    assert run("synth", cfg_path, "--jobs", "0") == EXIT_CONFIG


def test_out_of_range_lambda_flag_exits_2_before_reading_artifacts(tmp_path, capsys):
    out = tmp_path / "flag"
    out.mkdir()
    assert run("train", write_config(tmp_path, base_config(out)), "--lambda", "1.5") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'lambda' lambda 1.5 is outside [0,1]" in err and "internal error" not in err


@pytest.mark.parametrize("key", ["valid_fraction", "test_fraction"])
def test_ingest_exits_2_naming_a_fraction_that_leaves_a_split_empty(tmp_path, capsys, key):
    cfg_path = write_config(tmp_path, base_config(tmp_path / "tiny", n_cases=60, **{key: 0.001}))
    assert run("synth", cfg_path) == EXIT_OK
    assert run("ingest", cfg_path) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"raise '{key}'" in err and "internal error" not in err


def test_ingest_exits_2_when_a_split_holds_one_outcome(tmp_path, capsys):
    # a target activity that never occurs labels every prefix negative;
    # no later stage then runs on the split, and none exits 1
    cfg_path = write_config(
        tmp_path, base_config(tmp_path / "never", n_cases=200, target_activity="nonexistent")
    )
    assert run("synth", cfg_path) == EXIT_OK
    assert run("ingest", cfg_path) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "every train prefix has outcome 0: 'target_activity' 'nonexistent'" in err
    for command in ("train", "sweep", "evaluate"):
        assert run(command, cfg_path) == EXIT_MISSING


@pytest.mark.parametrize("key", ["valid_fraction", "test_fraction"])
@pytest.mark.parametrize("value", [0.0, 1.0, -0.5])
def test_ingest_exits_2_naming_an_out_of_range_fraction(tmp_path, capsys, key, value):
    cfg_path = write_config(tmp_path, base_config(tmp_path / "frac", n_cases=30, **{key: value}))
    assert run("synth", cfg_path) == EXIT_OK
    assert run("ingest", cfg_path) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"'{key}' must be a number in (0,1), got {value!r}" in err
    assert "internal error" not in err
