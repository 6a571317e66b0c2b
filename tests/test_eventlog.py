"""Event-log parsing, labeling, splitting, and synthetic log generation.

Oracles: hand-built CSVs with known groupings, a sort oracle over permuted
rows, exact quota arithmetic for splits, chi-square contingency tests
(scipy) for proxy independence, and round-trips through the CSV writer.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import gc
import json
import math
import tempfile
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from fairppm import eventlog
from fairppm.eventlog import (
    SYNTH_SCHEMA,
    BiasSpec,
    BiasSpecError,
    ConsistencyError,
    Event,
    EventLog,
    EventLogError,
    RowError,
    SchemaConfig,
    SchemaError,
    SplitError,
    Trace,
    extract_prefixes,
    generate_synthetic_log,
    label_and_cut,
    parse_event_log,
    split_cases,
    validation_split,
    write_event_log,
)
from fairppm.records import from_fields

SCHEMA = SchemaConfig(attributes={"case:protected": "boolean", "cost": "numeric"})


def write_csv(tmp_path, text: str, name: str = "log.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def ts(minute: int) -> str:
    return f"2024-01-05T08:{minute:02d}:00"


def make_trace(case_id: str, activities, static=None) -> Trace:
    events = tuple(Event(a, datetime(2024, 1, 5, 8, i), {}) for i, a in enumerate(activities))
    if static is None:
        static = {"case:protected": False}
    return Trace(case_id, events, static)


def make_log(*traces) -> EventLog:
    return EventLog(tuple(traces), SchemaConfig(attributes={"case:protected": "boolean"}))


# ---------------------------------------------------------------------------
# parsing


def test_parse_groups_rows_into_traces(tmp_path):
    path = write_csv(
        tmp_path,
        "case_id,activity,timestamp,case:protected,cost\n"
        f"c1,submit,{ts(0)},TRUE,1.5\n"
        f"c1,review,{ts(5)},TRUE,2.0\n"
        f"c2,submit,{ts(1)},FALSE,0.5\n",
    )
    log = parse_event_log(path, SCHEMA)
    assert len(log) == 2
    by_id = {t.case_id: t for t in log.traces}
    assert len(by_id["c1"].events) == 2
    assert len(by_id["c2"].events) == 1
    assert by_id["c1"].static_attrs["case:protected"] is True
    assert by_id["c2"].static_attrs["case:protected"] is False
    assert by_id["c1"].events[0].dynamic_attrs["cost"] == 1.5


def test_parse_sorts_events_by_timestamp(tmp_path):
    path = write_csv(
        tmp_path,
        "case_id,activity,timestamp,case:protected,cost\n"
        f"c1,third,{ts(30)},TRUE,0\n"
        f"c1,first,{ts(10)},TRUE,0\n"
        f"c1,second,{ts(20)},TRUE,0\n",
    )
    log = parse_event_log(path, SCHEMA)
    assert [e.activity for e in log.traces[0].events] == ["first", "second", "third"]


def test_parse_timestamp_ties_keep_file_order(tmp_path):
    path = write_csv(
        tmp_path,
        "case_id,activity,timestamp,case:protected,cost\n"
        f"c1,a,{ts(10)},TRUE,0\n"
        f"c1,b,{ts(10)},TRUE,0\n"
        f"c1,c,{ts(10)},TRUE,0\n",
    )
    log = parse_event_log(path, SCHEMA)
    assert [e.activity for e in log.traces[0].events] == ["a", "b", "c"]


def test_parse_missing_column_is_schema_error(tmp_path):
    path = write_csv(tmp_path, f"case_id,activity\nc1,submit\n")
    with pytest.raises(SchemaError):
        parse_event_log(path, SCHEMA)


def test_parse_bad_timestamp_reports_line_number(tmp_path):
    path = write_csv(
        tmp_path,
        "# a comment line\n"
        "case_id,activity,timestamp,case:protected,cost\n"
        f"c1,submit,{ts(0)},TRUE,0\n"
        "c1,review,not-a-time,TRUE,0\n",
    )
    with pytest.raises(RowError, match="line 4"):
        parse_event_log(path, SCHEMA)


def test_parse_line_numbers_count_quoted_newlines(tmp_path):
    # the second record spans lines 2-3, so the bad row is physical line 4
    path = write_csv(
        tmp_path,
        "case_id,activity,timestamp,case:protected,cost\n"
        f'c1,"sub\nmit",{ts(0)},TRUE,0\n'
        "c1,review,not-a-time,TRUE,0\n",
    )
    with pytest.raises(RowError, match="line 4: unparseable timestamp"):
        parse_event_log(path, SCHEMA)


@pytest.mark.parametrize("cost", ["abc", "nan", "inf", "-Infinity"])
def test_parse_numeric_value_must_be_a_finite_number(tmp_path, cost):
    path = write_csv(
        tmp_path,
        "case_id,activity,timestamp,case:protected,cost\n"
        f"c1,submit,{ts(0)},TRUE,0\n"
        f"c1,review,{ts(5)},TRUE,{cost}\n",
    )
    with pytest.raises(RowError, match=f"line 3: column 'cost' value '{cost}' is not a finite"):
        parse_event_log(path, SCHEMA)


SHAPE_SCHEMA = SchemaConfig(
    attributes={"case:protected": "boolean", "cost": "numeric", "resource": "categorical"}
)


@pytest.mark.parametrize(
    "row, fields",
    [
        ("c1,review,{stamp},TRUE,0", 5),  # categorical column missing
        ("c1,review,{stamp},TRUE", 4),  # numeric column missing
        ("c1,review,{stamp}", 3),  # boolean column missing
        ("c1,review,{stamp},TRUE,0,r1,extra", 7),
    ],
)
def test_parse_row_with_wrong_field_count_reports_line(tmp_path, row, fields):
    path = write_csv(
        tmp_path,
        "case_id,activity,timestamp,case:protected,cost,resource\n"
        f"c1,submit,{ts(0)},TRUE,0,r1\n" + row.format(stamp=ts(5)) + "\n",
    )
    with pytest.raises(RowError, match=f"line 3: {fields} fields where the header has 6"):
        parse_event_log(path, SHAPE_SCHEMA)


def test_parse_duplicate_header_column_is_schema_error(tmp_path):
    path = write_csv(
        tmp_path,
        "# provenance\n"
        "case_id,activity,timestamp,case:protected,cost,cost\n"
        f"c1,submit,{ts(0)},TRUE,0,1\n",
    )
    with pytest.raises(SchemaError, match="line 2: duplicate column 'cost'"):
        parse_event_log(path, SCHEMA)


def test_parse_ignores_a_byte_order_mark(tmp_path):
    path = tmp_path / "log.csv"
    text = f"case_id,activity,timestamp,case:protected,cost\nc1,submit,{ts(0)},TRUE,0\n"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert parse_event_log(path, SCHEMA).traces[0].case_id == "c1"


@st.composite
def written_logs(draw):
    """One case written by csv.writer with activities that need quoting
    (commas, quotes, newlines), an optional byte-order mark and comment line,
    an optional duplicated header column and an optional bad timestamp.
    Returns the file bytes, the activities and the expected error."""
    text = st.text('ab ,"\n', min_size=1, max_size=5)
    activities = draw(st.lists(text, min_size=1, max_size=5))
    extra = ["cost"] if draw(st.booleans()) else []
    bad = draw(st.one_of(st.none(), st.integers(0, len(activities) - 1)))
    buf = io.StringIO()
    if draw(st.booleans()):
        buf.write("# provenance\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["case_id", "activity", "timestamp", "case:protected", "cost"] + extra)
    header_line = buf.getvalue().count("\n")
    for i, activity in enumerate(activities):
        writer.writerow(["c1", activity, "not-a-time" if i == bad else ts(i), "TRUE", "0"] + extra)
        if i == bad:
            bad_line = buf.getvalue().count("\n")  # the line the record's terminator closes
    if extra:
        error = (SchemaError, f"line {header_line}: duplicate column 'cost'")
    elif bad is not None:
        error = (RowError, f"line {bad_line}: unparseable timestamp")
    else:
        error = None
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + buf.getvalue().encode("utf-8"), activities, error


@settings(max_examples=100, deadline=None)
@given(written_logs())
def test_parse_csv_shape_property(log):
    # quoted newlines keep line numbers physical, a BOM is ignored, and a
    # duplicated header column is rejected on the header's line
    data, activities, error = log
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        path.write_bytes(data)
        if error is None:
            events = parse_event_log(path, SCHEMA).traces[0].events
            assert [e.activity for e in events] == activities
        else:
            with pytest.raises(error[0], match=error[1]):
                parse_event_log(path, SCHEMA)


def test_parse_varying_static_attr_names_case(tmp_path):
    path = write_csv(
        tmp_path,
        "case_id,activity,timestamp,case:protected,cost\n"
        f"c7,submit,{ts(0)},TRUE,0\n"
        f"c7,review,{ts(5)},FALSE,0\n",
    )
    with pytest.raises(ConsistencyError, match="c7"):
        parse_event_log(path, SCHEMA)


STATIC_SCHEMA = SchemaConfig(
    attributes={"case:protected": "boolean", "case:amount": "numeric", "cost": "numeric"}
)


@pytest.mark.parametrize(
    "first, later, error",
    [
        # an equal value spelt differently on a later row is the same value
        ("TRUE,1", " true,1", None),
        ("FALSE,1", "false ,1", None),
        ("TRUE,1", "TRUE,1.0", None),
        ("TRUE,1", "TRUE, 1e0", None),
        # a malformed value is a bad row, named by its line, not a varying case
        ("TRUE,1", "maybe,1", (RowError, "line 3: column 'case:protected' value 'maybe' is not")),
        ("TRUE,1", "TRUE,one", (RowError, "line 3: column 'case:amount' value 'one' is not")),
        ("TRUE,1", "TRUE,nan", (RowError, "line 3: column 'case:amount' value 'nan' is not")),
        # a changed value varies the case
        ("TRUE,1", " false,1", (ConsistencyError, "case 'c1': static attributes vary")),
        ("TRUE,1", "TRUE,1.5", (ConsistencyError, "case 'c1': static attributes vary")),
    ],
)
def test_parse_compares_a_later_rows_statics_by_parsed_value(tmp_path, first, later, error):
    path = write_csv(
        tmp_path,
        "case_id,activity,timestamp,case:protected,case:amount,cost\n"
        f"c1,submit,{ts(0)},{first},0\n"
        f"c1,review,{ts(5)},{later},0\n",
    )
    if error is None:
        trace = parse_event_log(path, STATIC_SCHEMA).traces[0]
        assert len(trace.events) == 2
        assert trace.static_attrs == {"case:protected": first.startswith("T"), "case:amount": 1.0}
    else:
        with pytest.raises(error[0], match=error[1]):
            parse_event_log(path, STATIC_SCHEMA)


# the spellings of each static value in generated logs: groups of equal
# values spelt differently, and malformed text
SPELLINGS = {
    "case:protected": (
        [["TRUE", "true", " True", "tRuE "], ["FALSE", "false", " False "]],
        ["yes", ""],
    ),
    "case:amount": ([["1", "1.0", " 1e0", "+1.00"], ["2", "2.0"], ["0.5"]], ["one", "inf"]),
}


def reference_parse(path, schema):
    """Every value of every row parsed, the statics of each later row
    compared with the case's first by value: the parse the shortcut for
    repeated static text must agree with. Handles logs of one physical line
    per row with naive timestamps. Returns case_id -> (statics, events), or
    the (type, message) of the first error."""

    def value(raw, column, line):
        kind = schema.attributes[column]
        if kind == "categorical":
            return raw
        if kind == "numeric":
            try:
                number = float(raw)
            except ValueError:
                number = math.nan
            if not math.isfinite(number):
                raise RowError(
                    f"line {line}: column '{column}' value '{raw}' is not a finite number"
                )
            return number
        if raw.strip().upper() in ("TRUE", "FALSE"):
            return raw.strip().upper() == "TRUE"
        raise RowError(f"line {line}: column '{column}' value '{raw}' is not TRUE/FALSE")

    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    cases = {}
    try:
        for line, row in enumerate(rows, 2):
            parsed = {c: value(row[c], c, line) for c in schema.attributes}
            statics = {c: v for c, v in parsed.items() if c.startswith("case:")}
            event = (row["activity"], datetime.fromisoformat(row["timestamp"]), parsed["cost"])
            entry = cases.setdefault(row["case_id"], (statics, []))
            if entry[0] != statics:
                raise ConsistencyError(
                    f"case '{row['case_id']}': static attributes vary between rows"
                )
            entry[1].append(event)
    except EventLogError as exc:
        return type(exc), str(exc)
    return {
        case_id: (statics, sorted(events, key=lambda e: e[1]))
        for case_id, (statics, events) in cases.items()
    }


@st.composite
def respelled_logs(draw):
    """A log of up to 4 interleaved cases whose rows spell their statics from
    ``SPELLINGS``: mostly a respelling of the value of the case's first row,
    at times another value, and rarely malformed text."""
    rows = []
    firsts = {}  # case_id -> the index of its first row's value group, per column
    for i in range(draw(st.integers(1, 12))):
        case_id = f"c{draw(st.integers(0, 3))}"
        spelt = []
        for column, (groups, malformed) in SPELLINGS.items():
            choice = draw(st.integers(0, 29))
            if choice == 0:
                spelt.append(draw(st.sampled_from(malformed)))
                continue
            group = firsts.get(case_id, {}).get(column)
            if group is None or choice < 3:
                group = draw(st.integers(0, len(groups) - 1))
            firsts.setdefault(case_id, {}).setdefault(column, group)
            spelt.append(draw(st.sampled_from(groups[group])))
        rows.append([case_id, f"a{i}", ts(i), *spelt, "0.5"])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["case_id", "activity", "timestamp", *SPELLINGS, "cost"])
    writer.writerows(rows)
    return buf.getvalue()


@settings(max_examples=150, deadline=None)
@given(respelled_logs())
def test_parse_static_shortcut_matches_a_full_parse_property(text):
    # a later row's static text is parsed only when it differs from the
    # case's first row; the traces, or the error and its line, are those of
    # a parse that converts every value of every row
    with tempfile.TemporaryDirectory() as tmp:
        path = write_csv(Path(tmp), text)
        expected = reference_parse(path, STATIC_SCHEMA)
        try:
            log = parse_event_log(path, STATIC_SCHEMA)
        except EventLogError as exc:
            assert (type(exc), str(exc)) == expected
            return
    got = {
        t.case_id: (
            t.static_attrs,
            [(e.activity, e.timestamp, e.dynamic_attrs["cost"]) for e in t.events],
        )
        for t in log.traces
    }
    assert got == expected


def test_parse_mixed_naive_and_offset_timestamps_reports_line(tmp_path):
    path = write_csv(
        tmp_path,
        "case_id,activity,timestamp,case:protected,cost\n"
        f"c1,submit,{ts(0)}+02:00,TRUE,0\n"
        f"c2,submit,{ts(1)},TRUE,0\n"
        f"c1,review,{ts(5)},TRUE,0\n",
    )
    with pytest.raises(RowError, match=r"line 4: .*c1"):
        parse_event_log(path, SCHEMA)


@st.composite
def one_case_stamps(draw):
    """Timestamps of one case, each naive or carrying a UTC offset."""
    minutes = draw(st.lists(st.integers(0, 59), min_size=1, max_size=8))
    offsets = draw(
        st.lists(
            st.one_of(st.none(), st.integers(-12 * 60, 14 * 60)),
            min_size=len(minutes),
            max_size=len(minutes),
        )
    )
    stamps = []
    for minute, offset in zip(minutes, offsets):
        stamp = ts(minute)
        if offset is not None:
            sign = "+" if offset >= 0 else "-"
            stamp += f"{sign}{abs(offset) // 60:02d}:{abs(offset) % 60:02d}"
        stamps.append((stamp, offset is not None))
    return stamps


@settings(max_examples=60, deadline=None)
@given(one_case_stamps())
def test_parse_offset_awareness_property(stamps):
    # a case parses iff its stamps are all naive or all carry an offset;
    # otherwise the error names the first row that differs from row one
    rows = "".join(f"c1,a{i},{stamp},TRUE,0\n" for i, (stamp, _) in enumerate(stamps))
    aware = [flag for _, flag in stamps]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_csv(Path(tmp), "case_id,activity,timestamp,case:protected,cost\n" + rows)
        if len(set(aware)) == 1:
            events = parse_event_log(path, SCHEMA).traces[0].events
            assert len(events) == len(stamps)
            assert all(a.timestamp <= b.timestamp for a, b in zip(events, events[1:]))
        else:
            first_other = aware.index(not aware[0])
            with pytest.raises(RowError, match=f"line {first_other + 2}:"):
                parse_event_log(path, SCHEMA)


def test_schema_rejects_unknown_kind_and_reserved_name():
    with pytest.raises(SchemaError):
        SchemaConfig(attributes={"cost": "money"})
    with pytest.raises(SchemaError):
        SchemaConfig(attributes={"case_id": "categorical"})


def test_schema_round_trip():
    assert from_fields(SchemaConfig, json.loads(json.dumps(dataclasses.asdict(SCHEMA)))) == SCHEMA


# activities that csv quotes: a comma, a quote and a newline, the target all three
QUOTED_SPEC = BiasSpec(
    n_cases=40,
    activities=("sub,mit", 'scr"een', "col\nlect", "interview", 'off,"er\n', "reject", "close"),
    target_activity='off,"er\n',
)


def csv_module_log(log) -> bytes:
    """A synthetic log's CSV as ``csv.writer`` writes it with LF line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    statics = ["case:protected", "case:proxy"]
    writer.writerow(["case_id", "activity", "timestamp", *statics, "resource", "score"])
    for trace in log.traces:
        flags = ["TRUE" if trace.static_attrs[c] else "FALSE" for c in statics]
        for e in trace.events:
            stamp, attrs = e.timestamp.isoformat(), e.dynamic_attrs
            writer.writerow(
                [trace.case_id, e.activity, stamp, *flags, attrs["resource"], repr(attrs["score"])]
            )
    return buf.getvalue().encode("utf-8")


def test_csv_round_trip(tmp_path):
    for spec in (BiasSpec(n_cases=40), QUOTED_SPEC):
        log = generate_synthetic_log(spec, seed=3)
        path = tmp_path / "out.csv"
        write_event_log(log, path)
        assert path.read_bytes() == csv_module_log(log)
        again = parse_event_log(path, log.schema)
        assert again == log


def test_a_log_written_in_several_blocks_matches_the_csv_module(tmp_path):
    # two full blocks of traces and one of a single trace, and a log of no trace
    full = generate_synthetic_log(BiasSpec(n_cases=2 * eventlog._WRITE_BLOCK + 1), seed=3)
    for log in (full, EventLog((), full.schema)):
        path = tmp_path / "out.csv"
        write_event_log(log, path, header_comment="provenance")
        assert path.read_bytes() == b"# provenance\n" + csv_module_log(log)


# ---------------------------------------------------------------------------
# labeling and prefixes


def test_label_and_cut_target_present():
    trace = make_trace("c1", ["A", "B", "Offer", "C"])
    assert label_and_cut(trace, "Offer") == (1, 2)


def test_label_and_cut_target_absent():
    assert label_and_cut(make_trace("c1", ["A", "B", "C"]), "Offer") == (0, 3)


def test_label_and_cut_target_first():
    assert label_and_cut(make_trace("c1", ["Offer"]), "Offer") == (1, 0)


def test_label_and_cut_first_occurrence_wins():
    assert label_and_cut(make_trace("c1", ["A", "Offer", "B", "Offer"]), "Offer") == (1, 1)


def test_extract_prefixes_positive_trace():
    log = make_log(make_trace("c1", ["A", "B", "Offer", "C"]))
    samples = extract_prefixes(log, "Offer", "case:protected")
    assert [len(s.events) for s in samples] == [1, 2]
    assert all(s.outcome == 1 for s in samples)
    assert [e.activity for e in samples[1].events] == ["A", "B"]


def test_extract_prefixes_negative_trace_capped():
    log = make_log(make_trace("c1", list("ABCDEFGH")))
    samples = extract_prefixes(log, "Offer", "case:protected", max_len=6)
    assert [len(s.events) for s in samples] == [1, 2, 3, 4, 5, 6]
    assert all(s.outcome == 0 for s in samples)


def test_extract_prefixes_target_first_yields_nothing():
    log = make_log(make_trace("c1", ["Offer", "A"]))
    assert extract_prefixes(log, "Offer", "case:protected") == []


def test_extract_prefixes_requires_boolean_static_sensitive():
    log = make_log(make_trace("c1", ["A"]))
    with pytest.raises(SchemaError, match="case:missing"):
        extract_prefixes(log, "Offer", "case:missing")


def test_extract_prefixes_missing_value_names_case():
    trace = make_trace("c9", ["A"], static={})
    log = make_log(trace)
    with pytest.raises(EventLogError, match="c9"):
        extract_prefixes(log, "Offer", "case:protected")


def prop_prefix_invariants(cases: int, seed: int = 61) -> None:
    """Prefixes are true trace prefixes, never contain the target of a
    positive trace, and come out in (trace, length) order, deterministically."""
    rng = np.random.default_rng(seed)
    alphabet = ["A", "B", "C", "Offer", "D"]
    for _ in range(cases):
        traces = []
        for i in range(int(rng.integers(1, 8))):
            length = int(rng.integers(1, 10))
            acts = [alphabet[int(k)] for k in rng.integers(0, len(alphabet), size=length)]
            traces.append(
                make_trace(f"c{i}", acts, static={"case:protected": bool(rng.integers(0, 2))})
            )
        log = make_log(*traces)
        max_len = int(rng.integers(1, 8))
        samples = extract_prefixes(log, "Offer", "case:protected", max_len=max_len)
        assert samples == extract_prefixes(log, "Offer", "case:protected", max_len=max_len)
        by_id = {t.case_id: t for t in traces}
        seen = []
        for s in samples:
            trace = by_id[s.case_id]
            outcome, cut = label_and_cut(trace, "Offer")
            assert s.events == trace.events[: len(s.events)]
            assert len(s.events) <= min(cut, max_len)
            assert s.outcome == outcome
            assert s.sensitive == int(trace.static_attrs["case:protected"])
            if outcome == 1:
                assert all(e.activity != "Offer" for e in s.events)
            seen.append((s.case_id, len(s.events)))
        # order: traces in log order, lengths ascending within a trace
        order = {t.case_id: i for i, t in enumerate(traces)}
        keys = [(order[c], l) for c, l in seen]
        assert keys == sorted(keys)


def test_prefix_invariants():
    prop_prefix_invariants(100)


# ---------------------------------------------------------------------------
# splits


def synthetic_log(n_cases: int, seed: int = 0) -> EventLog:
    return generate_synthetic_log(BiasSpec(n_cases=n_cases), seed=seed)


def test_split_cases_example_sizes():
    train, test = split_cases(synthetic_log(10), test_fraction=0.2, seed=1)
    assert len(train) == 8 and len(test) == 2


def test_split_cases_round_half_up():
    # 9999 * 0.2 = 1999.8 rounds up; 15 * 0.1 = 1.5 rounds up too
    train, test = split_cases(synthetic_log(15), test_fraction=0.1, seed=1)
    assert len(test) == 2 and len(train) == 13


def test_split_cases_deterministic():
    log = synthetic_log(30)
    a_train, a_test = split_cases(log, 0.2, seed=7)
    b_train, b_test = split_cases(log, 0.2, seed=7)
    assert [t.case_id for t in a_test.traces] == [t.case_id for t in b_test.traces]
    assert a_train == b_train


def test_split_cases_too_small():
    with pytest.raises(SplitError, match="at least 2 cases"):
        split_cases(make_log(make_trace("c1", ["A"])), 0.5, seed=0)


def test_split_cases_bad_fraction():
    log = synthetic_log(10)
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(EventLogError):
            split_cases(log, bad, seed=0)


def prop_split_partition(cases: int, seed: int = 67) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        n = int(rng.integers(2, 60))
        frac = float(rng.uniform(0.05, 0.95))
        log = synthetic_log(n, seed=int(rng.integers(0, 1000)))
        train, test = split_cases(log, frac, seed=int(rng.integers(0, 1000)))
        train_ids = {t.case_id for t in train.traces}
        test_ids = {t.case_id for t in test.traces}
        assert not train_ids & test_ids
        assert train_ids | test_ids == {t.case_id for t in log.traces}
        assert len(test) == int(np.floor(n * frac + 0.5))


def test_split_partition():
    prop_split_partition(60)


def test_validation_split_sizes():
    samples = list(range(100))
    train, valid = validation_split(samples, 0.2, seed=0)
    assert len(train) == 80 and len(valid) == 20
    train, valid = validation_split(list(range(5)), 0.2, seed=0)
    assert len(train) == 4 and len(valid) == 1


def test_validation_split_deterministic_partition():
    samples = list(range(37))
    a = validation_split(samples, 0.3, seed=5)
    b = validation_split(samples, 0.3, seed=5)
    assert a == b
    train, valid = a
    assert sorted(train + valid) == samples
    assert train == sorted(train) and valid == sorted(valid)  # both keep the input order


def test_validation_split_too_small():
    with pytest.raises(SplitError, match="at least 2 samples"):
        validation_split([1], 0.5, seed=0)


# ---------------------------------------------------------------------------
# synthetic generation


def group_stats(log: EventLog, spec: BiasSpec):
    s1 = [t for t in log.traces if t.static_attrs["case:protected"]]
    s0 = [t for t in log.traces if not t.static_attrs["case:protected"]]
    pos = lambda ts_: np.mean([label_and_cut(t, spec.target_activity)[0] for t in ts_])
    return len(s1) / len(log), pos(s0), pos(s1)


def test_generator_hits_spec_rates():
    spec = BiasSpec(n_cases=10_000)
    log = generate_synthetic_log(spec, seed=11)
    p_s1, r0, r1 = group_stats(log, spec)
    assert abs(p_s1 - spec.p_s1) <= 0.02
    assert abs(r0 - spec.r0) <= 0.02
    assert abs(r1 - spec.r1) <= 0.02


def test_generator_unbiased_spec_has_no_label_gap():
    spec = BiasSpec(n_cases=4000, r0=0.4, r1=0.4)
    log = generate_synthetic_log(spec, seed=2)
    _, r0, r1 = group_stats(log, spec)
    assert abs(r0 - r1) <= 0.02


def test_generator_positive_traces_contain_target_exactly():
    spec = BiasSpec(n_cases=500)
    log = generate_synthetic_log(spec, seed=5)
    for trace in log.traces:
        outcome, cut = label_and_cut(trace, spec.target_activity)
        hits = sum(e.activity == spec.target_activity for e in trace.events)
        assert hits == (1 if outcome else 0)
        if outcome:
            assert trace.events[cut].activity == spec.target_activity


def proxy_table(log: EventLog) -> np.ndarray:
    table = np.zeros((2, 2))
    for t in log.traces:
        table[int(t.static_attrs["case:protected"]), int(t.static_attrs["case:proxy"])] += 1
    return table


def test_generator_proxy_independent_at_zero_corr():
    log = generate_synthetic_log(BiasSpec(n_cases=4000, proxy_corr=0.0), seed=13)
    _, p, *_ = scipy.stats.chi2_contingency(proxy_table(log))
    assert p > 0.01


def test_generator_proxy_dependent_at_high_corr():
    log = generate_synthetic_log(BiasSpec(n_cases=4000, proxy_corr=0.8), seed=13)
    table = proxy_table(log)
    _, p, *_ = scipy.stats.chi2_contingency(table)
    assert p < 1e-10
    agree = (table[0, 0] + table[1, 1]) / table.sum()
    assert abs(agree - 0.9) <= 0.02  # (1 + corr) / 2


def test_generator_schema_and_determinism():
    spec = BiasSpec(n_cases=60)
    assert generate_synthetic_log(spec, seed=9) == generate_synthetic_log(spec, seed=9)
    log = generate_synthetic_log(spec, seed=9)
    assert log.schema == SYNTH_SCHEMA
    for t in log.traces:
        assert set(t.static_attrs) == {"case:protected", "case:proxy"}
        for e in t.events:
            assert set(e.dynamic_attrs) == {"resource", "score"}
            assert 0.0 <= e.dynamic_attrs["score"] <= 1.0


def test_bias_spec_validation():
    with pytest.raises(BiasSpecError):
        BiasSpec(n_cases=0)
    with pytest.raises(BiasSpecError):
        BiasSpec(p_s1=1.5)
    with pytest.raises(BiasSpecError):
        BiasSpec(target_activity="nonexistent")
    with pytest.raises(BiasSpecError, match="not a string"):
        BiasSpec(activities=(["a"], "b", "offer"))
    with pytest.raises(BiasSpecError, match="nonempty"):
        BiasSpec(activities=("submit", "", "offer", "close"))
    with pytest.raises(BiasSpecError, match="'a' is named twice"):
        BiasSpec(activities=("a", "a", "offer"))


def test_bias_spec_presets_and_serde():
    high = BiasSpec.preset("high")
    assert (high.r0, high.r1) == (0.49, 0.11)
    medium = BiasSpec.preset("medium")
    assert (medium.r0, medium.r1) == (0.50, 0.25)
    low = BiasSpec.preset("low")
    assert (low.r0, low.r1) == (0.50, 0.40)
    assert from_fields(BiasSpec, json.loads(json.dumps(dataclasses.asdict(high)))) == high
    with pytest.raises(BiasSpecError):
        BiasSpec.preset("extreme")


# ---------------------------------------------------------------------------
# samples


def sample_fixture():
    log = generate_synthetic_log(BiasSpec(n_cases=30), seed=21)
    return extract_prefixes(log, "offer", "case:protected")


def test_domain_type_invariants():
    with pytest.raises(EventLogError):
        Event("", datetime(2024, 1, 1), {})
    e1 = Event("a", datetime(2024, 1, 2), {})
    e2 = Event("b", datetime(2024, 1, 1), {})
    with pytest.raises(EventLogError):
        Trace("c1", (e1, e2), {})
    with pytest.raises(EventLogError):
        Trace("c1", (), {})
    t = Trace("c1", (e1,), {})
    with pytest.raises(EventLogError):
        EventLog((t, t), SchemaConfig())
    sample = sample_fixture()[0]
    with pytest.raises(EventLogError):
        dataclasses.replace(sample, outcome=2)
    with pytest.raises(EventLogError):
        dataclasses.replace(sample, sensitive=-1)


# ---------------------------------------------------------------------------
# collector pause


def reader_calls(tmp_path):
    """reader -> (a call that returns, a call that raises EventLogError, or
    None for a builder with no bad input), each building a few thousand
    objects, more than a collector pass waits for."""
    log = generate_synthetic_log(BiasSpec(n_cases=200), seed=3)
    good_csv = tmp_path / "log.csv"
    write_event_log(log, good_csv)
    bad_csv = write_csv(tmp_path, good_csv.read_text().replace("TRUE", "maybe", 1), "bad.csv")
    return {
        "parse_event_log": (
            lambda: parse_event_log(good_csv, SYNTH_SCHEMA),
            lambda: parse_event_log(bad_csv, SYNTH_SCHEMA),
        ),
        "extract_prefixes": (
            lambda: extract_prefixes(log, "offer", "case:protected"),
            lambda: extract_prefixes(log, "offer", "resource"),  # not a static boolean
        ),
        "generate_synthetic_log": (
            lambda: generate_synthetic_log(BiasSpec(n_cases=200), seed=3),
            None,
        ),
    }


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize(
    "reader, fails",
    [
        pytest.param(reader, fails, id=f"{reader}-{'raises' if fails else 'returns'}")
        for reader in ("parse_event_log", "extract_prefixes")
        for fails in (False, True)
    ]
    + [pytest.param("generate_synthetic_log", False, id="generate_synthetic_log-returns")],
)
def test_readers_pause_the_collector_and_restore_the_callers_setting(
    tmp_path, reader, fails, enabled
):
    call = reader_calls(tmp_path)[reader][fails]
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    was = gc.isenabled()
    gc.enable() if enabled else gc.disable()
    gc.callbacks.append(count)
    try:
        if fails:
            with pytest.raises(EventLogError):
                call()
        else:
            call()
            # read before anything allocates: a collector turned back on
            # runs its first pass at the next allocation
            assert not passes
        assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(count)
        gc.enable() if was else gc.disable()
