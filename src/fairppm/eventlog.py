"""Event-log data model, CSV parsing, labeling, splits and prefix extraction.

A log is a list of traces; a trace is one case's time-ordered events plus
its static (case-level) attributes. Outcome labels come from a target
activity: a case is positive iff the target occurs, and prefixes are taken
strictly before it. The module also ships a seeded synthetic generator that
plants a configurable group bias, used by tests and the `synth` command.

CSV format (UTF-8, a leading byte-order mark is ignored): a header row of
unique names with required columns `case_id`, `activity`, `timestamp`
(ISO-8601), and as many fields in every row as in the header; static
attributes use a `case:` name prefix
(boolean values TRUE/FALSE, case-insensitive); all other columns are
dynamic event attributes. Every non-required column must be declared in the
schema with a kind (categorical | numeric | boolean).
"""

from __future__ import annotations

import csv
import functools
import gc
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

from .records import json_cast, parse_json

__all__ = [
    "EventLogError",
    "SchemaError",
    "RowError",
    "ConsistencyError",
    "SplitError",
    "BiasSpecError",
    "SchemaConfig",
    "Event",
    "Trace",
    "EventLog",
    "RawPrefixSample",
    "BiasSpec",
    "parse_event_log",
    "write_event_log",
    "label_and_cut",
    "extract_prefixes",
    "split_cases",
    "validation_split",
    "generate_synthetic_log",
    "sample_to_dict",
    "sample_from_dict",
    "write_samples_jsonl",
    "read_samples_jsonl",
    "without_cyclic_gc",
]

REQUIRED_COLUMNS = ("case_id", "activity", "timestamp")
STATIC_PREFIX = "case:"
KINDS = ("categorical", "numeric", "boolean")


class EventLogError(ValueError):
    """Base class for event-log problems."""


class SchemaError(EventLogError):
    """Schema and file disagree (missing/undeclared column, bad kind)."""


class RowError(EventLogError):
    """A row cannot be parsed; the message carries the 1-based physical line
    the row ends on."""


class ConsistencyError(EventLogError):
    """A static attribute varies within one case."""


class SplitError(EventLogError):
    """A split cannot be formed (too few cases)."""


class BiasSpecError(EventLogError):
    """Synthetic-log spec is infeasible."""


@dataclass(frozen=True)
class SchemaConfig:
    """Kinds of all non-required columns. Names starting with `case:` are
    static (case-level); everything else is a dynamic event attribute."""

    attributes: dict = field(default_factory=dict)  # column name -> kind

    def __post_init__(self):
        for name, kind in self.attributes.items():
            if name in REQUIRED_COLUMNS:
                raise SchemaError(f"column '{name}' is reserved and needs no schema entry")
            if kind not in KINDS:
                raise SchemaError(f"attribute '{name}' has unknown kind '{kind}'")

    @property
    def static_attrs(self) -> dict[str, str]:
        return {n: k for n, k in self.attributes.items() if n.startswith(STATIC_PREFIX)}

    @property
    def dynamic_attrs(self) -> dict[str, str]:
        return {n: k for n, k in self.attributes.items() if not n.startswith(STATIC_PREFIX)}


@dataclass(frozen=True, slots=True)
class Event:
    activity: str
    timestamp: datetime
    dynamic_attrs: dict

    def __post_init__(self):
        if not self.activity:
            raise EventLogError("event activity must be nonempty")


@dataclass(frozen=True, slots=True)
class Trace:
    case_id: str
    events: tuple
    static_attrs: dict

    def __post_init__(self):
        if not self.events:
            raise EventLogError(f"trace '{self.case_id}' has no events")
        stamps = [e.timestamp for e in self.events]
        if any(b < a for a, b in zip(stamps, stamps[1:])):
            raise EventLogError(f"trace '{self.case_id}' events are not time-ordered")


@dataclass(frozen=True)
class EventLog:
    traces: tuple
    schema: SchemaConfig

    def __post_init__(self):
        ids = [t.case_id for t in self.traces]
        if len(set(ids)) != len(ids):
            raise EventLogError("duplicate case_id across traces")

    def __len__(self):
        return len(self.traces)


@dataclass(frozen=True, slots=True)
class RawPrefixSample:
    case_id: str
    events: tuple
    static_attrs: dict
    outcome: int
    sensitive: int

    def __post_init__(self):
        if self.outcome not in (0, 1):
            raise EventLogError("outcome must be 0 or 1")
        if self.sensitive not in (0, 1):
            raise EventLogError("sensitive must be 0 or 1")
        if not self.events:
            raise EventLogError("prefix must hold at least one event")


def _skip_comment_lines(fh, skipped: list):
    """Pass lines through, dropping leading '#' comments (provenance headers)."""
    in_preamble = True
    for line in _utf8_lines(fh):
        if in_preamble and line.startswith("#"):
            skipped.append(line)
            continue
        in_preamble = False
        yield line


def _utf8_lines(fh):
    """The lines of text file ``fh``; a byte that is not UTF-8 raises RowError."""
    try:
        yield from fh
    except UnicodeDecodeError:
        raise _not_utf8(fh.name) from None


def _not_utf8(path) -> RowError:
    """The error naming the physical line of the first byte of ``path`` that
    is not UTF-8. A text read decodes in chunks, so its error gives only an
    offset into one chunk: the file is read again as bytes, on this path only."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # lines end at \n, \r or \r\n, as text mode reads them
        line = len((data[: exc.start] + b"?").splitlines())
        byte = data[exc.start]
        return RowError(f"line {line}: byte 0x{byte:02x} is not UTF-8 ({exc.reason})")
    return RowError("the file is not UTF-8")


def _converter(kind: str, column: str):
    """The parser of ``column``'s raw values, ``parse(raw, line)``, bound once
    per column; a bad value raises RowError naming ``line``."""
    if kind == "categorical":
        return lambda raw, line: raw
    if kind == "numeric":

        def parse(raw, line):
            try:
                value = float(raw)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):  # "nan" and "inf" parse as floats but fit no range
                raise RowError(
                    f"line {line}: column '{column}' value '{raw}' is not a finite number"
                )
            return value

        return parse

    def parse(raw, line):
        upper = raw.strip().upper()
        if upper == "TRUE":
            return True
        if upper == "FALSE":
            return False
        raise RowError(f"line {line}: column '{column}' value '{raw}' is not TRUE/FALSE")

    return parse


def without_cyclic_gc(fn):
    """``fn`` with Python's cyclic garbage collector paused during the call.

    For a function that builds many small records and no reference cycles:
    reference counting frees all it drops, and the collector would only walk
    the growing result again and again. The caller's setting comes back on
    return or raise, and a collector the caller turned off stays off."""

    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@without_cyclic_gc
def parse_event_log(path, schema: SchemaConfig) -> EventLog:
    """Read a CSV event log into one Trace per case.

    Events are sorted by timestamp within each case (stable, so file order
    breaks ties); static attributes come from the case's first file row and
    must be constant across the case. A later row's static values are
    parsed only when their text differs from the first row's, and then
    compared by parsed value, so " true" and "TRUE" agree.
    """
    skipped: list = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(_skip_comment_lines(fh, skipped))
        try:
            cases = _read_cases(reader, skipped, schema)
        except csv.Error as exc:  # a field over csv.field_size_limit()
            raise RowError(f"line {reader.line_num + len(skipped)}: {exc}") from None

    traces = []
    for case_id, (_, statics, events) in cases.items():
        events.sort(key=lambda e: e.timestamp)
        traces.append(Trace(case_id, tuple(events), statics))
    return EventLog(tuple(traces), schema)


def _read_cases(reader, skipped: list, schema: SchemaConfig) -> dict:
    """case_id -> (raw static values, parsed static map, events in file order)
    from the rows of ``reader``, checking the header against ``schema``."""
    header = next(reader, [])
    for col in header:
        if header.count(col) > 1:
            raise SchemaError(f"line {reader.line_num + len(skipped)}: duplicate column '{col}'")
    for col in REQUIRED_COLUMNS:
        if col not in header:
            raise SchemaError(f"missing required column '{col}'")
    extra = [c for c in header if c not in REQUIRED_COLUMNS]
    for col in extra:
        if col not in schema.attributes:
            raise SchemaError(f"column '{col}' is not declared in the schema")
    for col in schema.attributes:
        if col not in header:
            raise SchemaError(f"schema attribute '{col}' is missing from the file")
    case_at, activity_at, stamp_at = map(header.index, REQUIRED_COLUMNS)
    columns = [(c, header.index(c), _converter(schema.attributes[c], c)) for c in extra]
    static = [col for col in columns if col[0].startswith(STATIC_PREFIX)]
    dynamic = [col for col in columns if not col[0].startswith(STATIC_PREFIX)]
    static_at = [i for _, i, _ in static]
    width = len(header)

    cases: dict[str, tuple] = {}
    for values in reader:
        if not values:
            continue  # a blank line
        # the physical line the record ends on: a quoted field may span lines
        line = reader.line_num + len(skipped)
        if len(values) != width:
            raise RowError(f"line {line}: {len(values)} fields where the header has {width}")
        case_id = values[case_at]
        if not case_id:
            raise RowError(f"line {line}: empty case_id")
        activity = values[activity_at]
        if not activity:
            raise RowError(f"line {line}: empty activity")
        try:
            stamp = datetime.fromisoformat(values[stamp_at])
        except ValueError:
            raise RowError(f"line {line}: unparseable timestamp '{values[stamp_at]}'") from None
        raw_statics = [values[i] for i in static_at]
        entry = cases.get(case_id)
        # a case's first row parses its statics; a later row only when they
        # are spelt differently
        statics = None
        if entry is None or raw_statics != entry[0]:
            statics = {c: parse(values[i], line) for c, i, parse in static}
        dynamics = {c: parse(values[i], line) for c, i, parse in dynamic}
        event = Event(activity, stamp, dynamics)
        if entry is None:
            cases[case_id] = (raw_statics, statics, [event])
            continue
        if statics is not None and statics != entry[1]:
            raise ConsistencyError(f"case '{case_id}': static attributes vary between rows")
        # naive and offset-carrying stamps do not compare; the sort in
        # parse_event_log would fail on them
        if (stamp.tzinfo is None) != (entry[2][0].timestamp.tzinfo is None):
            raise RowError(
                f"line {line}: timestamp '{values[stamp_at]}' mixes naive and "
                f"UTC-offset timestamps within case '{case_id}'"
            )
        entry[2].append(event)
    return cases


def write_event_log(log: EventLog, path, header_comment: str | None = None) -> None:
    """Write a log in the CSV format `parse_event_log` reads, after an optional # line."""
    static_cols = sorted(log.schema.static_attrs)
    dynamic_cols = sorted(log.schema.dynamic_attrs)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(REQUIRED_COLUMNS) + static_cols + dynamic_cols)
        for trace in log.traces:
            for event in trace.events:
                row = [trace.case_id, event.activity, event.timestamp.isoformat()]
                row += [_format_value(trace.static_attrs[c]) for c in static_cols]
                row += [_format_value(event.dynamic_attrs[c]) for c in dynamic_cols]
                writer.writerow(row)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def label_and_cut(trace: Trace, target_activity: str) -> tuple[int, int]:
    """Outcome and cut index: (1, first target index) if the target occurs,
    else (0, trace length). Events at/after the cut are excluded downstream."""
    for i, event in enumerate(trace.events):
        if event.activity == target_activity:
            return 1, i
    return 0, len(trace.events)


@without_cyclic_gc
def extract_prefixes(
    log: EventLog,
    target_activity: str,
    sensitive_attr: str,
    max_len: int = 6,
) -> list[RawPrefixSample]:
    """All prefixes of lengths 1..min(cut, max_len) per trace, labeled
    with the trace outcome and its binary sensitive value. Traces whose cut
    is 0 (target first) yield nothing and are skipped."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    if log.schema.static_attrs.get(sensitive_attr) != "boolean":
        raise SchemaError(
            f"sensitive attribute '{sensitive_attr}' must be a static boolean in the schema"
        )
    samples = []
    for trace in log.traces:
        if sensitive_attr not in trace.static_attrs:
            raise EventLogError(
                f"case '{trace.case_id}' is missing sensitive attribute '{sensitive_attr}'"
            )
        sensitive = int(bool(trace.static_attrs[sensitive_attr]))
        outcome, cut = label_and_cut(trace, target_activity)
        for length in range(1, min(cut, max_len) + 1):
            samples.append(
                RawPrefixSample(
                    case_id=trace.case_id,
                    events=trace.events[:length],
                    static_attrs=trace.static_attrs,
                    outcome=outcome,
                    sensitive=sensitive,
                )
            )
    return samples


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def _holdout(items, fraction: float, seed: int, fraction_name: str, what: str):
    """``items`` as (kept, held out) lists: a seeded permutation holds out
    the round half up of ``fraction * len(items)``, and both parts keep
    the input order."""
    if not 0.0 < fraction < 1.0:
        raise SplitError(f"'{fraction_name}' must be a number in (0,1), got {fraction!r}")
    n = len(items)
    if n < 2:
        raise SplitError(f"need at least 2 {what} to split")
    held = set(np.random.default_rng(seed).permutation(n)[: _round_half_up(fraction * n)].tolist())
    kept = [x for i, x in enumerate(items) if i not in held]
    return kept, [x for i, x in enumerate(items) if i in held]


def split_cases(log: EventLog, test_fraction: float, seed: int) -> tuple[EventLog, EventLog]:
    """Case-level partition; |test| = round half up of fraction * cases."""
    train, test = _holdout(log.traces, test_fraction, seed, "test_fraction", "cases")
    return EventLog(tuple(train), log.schema), EventLog(tuple(test), log.schema)


def validation_split(samples: list, valid_fraction: float, seed: int) -> tuple[list, list]:
    """Sample-level (not case-level) partition, round half up on the
    validation size; both halves keep the original relative order."""
    return _holdout(samples, valid_fraction, seed, "valid_fraction", "samples")


# ---------------------------------------------------------------------------
# synthetic generator


@dataclass(frozen=True)
class BiasSpec:
    """Recipe for a synthetic log with a planted group bias.

    ``p_s1`` is the protected-group proportion, ``r0``/``r1`` the positive
    rates per group, and ``proxy_corr`` in [0,1] the agreement strength of a
    second static feature with the protected one (1 = identical, 0 =
    independent). Group and outcome quotas are assigned by exact counts and
    then shuffled, so realized rates match the spec up to rounding.
    """

    n_cases: int = 2000
    activities: tuple = (
        "submit",
        "screen",
        "collect_docs",
        "interview",
        "offer",
        "reject",
        "close",
    )
    target_activity: str = "offer"
    p_s1: float = 0.20
    r0: float = 0.49
    r1: float = 0.11
    proxy_corr: float = 0.8

    def __post_init__(self):
        if self.n_cases < 1:
            raise BiasSpecError("n_cases must be >= 1")
        for name in ("p_s1", "r0", "r1", "proxy_corr"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise BiasSpecError(f"{name} must be in [0,1], got {v}")
        if self.target_activity not in self.activities:
            raise BiasSpecError("target_activity must be in the activity alphabet")
        if len(self.activities) < 3:
            raise BiasSpecError("need at least 3 activities")
        object.__setattr__(self, "activities", tuple(self.activities))

    PRESETS = {
        "high": {"r0": 0.49, "r1": 0.11},
        "medium": {"r0": 0.50, "r1": 0.25},
        "low": {"r0": 0.50, "r1": 0.40},
    }

    @classmethod
    def preset(cls, name: str, n_cases: int = 2000) -> "BiasSpec":
        if name not in cls.PRESETS:
            raise BiasSpecError(f"unknown preset '{name}' (have {sorted(cls.PRESETS)})")
        return cls(n_cases=n_cases, **cls.PRESETS[name])


SYNTH_SCHEMA = SchemaConfig(
    attributes={
        "case:protected": "boolean",
        "case:proxy": "boolean",
        "resource": "categorical",
        "score": "numeric",
    }
)


@without_cyclic_gc
def generate_synthetic_log(spec: BiasSpec, seed: int) -> EventLog:
    """Deterministic biased log: exact group/outcome quotas, a proxy static
    feature, outcome-dependent control flow and a numeric signal channel.
    The target activity appears exactly for positive cases."""
    rng = np.random.default_rng(seed)
    n = spec.n_cases

    protected = np.zeros(n, dtype=bool)
    protected[: _round_half_up(spec.p_s1 * n)] = True
    rng.shuffle(protected)

    outcome = np.zeros(n, dtype=bool)
    for group, rate in ((False, spec.r0), (True, spec.r1)):
        members = np.flatnonzero(protected == group)
        chosen = rng.permutation(members)[: _round_half_up(rate * members.size)]
        outcome[chosen] = True

    p_agree = (1.0 + spec.proxy_corr) / 2.0
    agree = rng.random(n) < p_agree
    proxy = np.where(agree, protected, ~protected)

    pool = [a for a in spec.activities if a != spec.target_activity]
    openers = pool[:2]
    optionals = pool[2:4]
    closers = pool[4:]

    width = len(str(n - 1))
    traces = []
    for i in range(n):
        positive = bool(outcome[i])
        path = list(openers)
        for j, step in enumerate(optionals):
            p_step = (0.7, 0.8)[j % 2] if positive else (0.3, 0.35)[j % 2]
            if rng.random() < p_step:
                path.append(step)
        if positive:
            path.append(spec.target_activity)
        if closers:
            path.append(closers[0] if not positive and len(closers) > 1 else closers[-1])

        case_id = f"c{i:0{width}d}"
        statics = {
            "case:protected": bool(protected[i]),
            "case:proxy": bool(proxy[i]),
        }
        stamp = datetime(2024, 1, 5, 8, 0) + timedelta(minutes=3 * i)
        events = []
        loc = 0.62 if positive else 0.45
        for activity in path:
            stamp = stamp + timedelta(minutes=int(rng.integers(2, 30)))
            events.append(
                Event(
                    activity=activity,
                    timestamp=stamp,
                    dynamic_attrs={
                        "resource": f"r{int(rng.integers(1, 6))}",
                        "score": min(max(float(rng.normal(loc, 0.15)), 0.0), 1.0),
                    },
                )
            )
        traces.append(Trace(case_id, tuple(events), statics))
    return EventLog(tuple(traces), SYNTH_SCHEMA)


# ---------------------------------------------------------------------------
# sample (de)serialization for ingest artifacts


def sample_to_dict(sample: RawPrefixSample) -> dict:
    return {
        "case_id": sample.case_id,
        "outcome": sample.outcome,
        "sensitive": sample.sensitive,
        "static_attrs": sample.static_attrs,
        "events": [
            {
                "activity": e.activity,
                "timestamp": e.timestamp.isoformat(),
                "dynamic_attrs": e.dynamic_attrs,
            }
            for e in sample.events
        ],
    }


def _event_from_dict(e: dict) -> Event:
    return Event(
        activity=json_cast("activity", e["activity"], str),
        timestamp=datetime.fromisoformat(json_cast("timestamp", e["timestamp"], str)),
        dynamic_attrs=json_cast("dynamic_attrs", e["dynamic_attrs"], dict),
    )


def sample_from_dict(d: dict) -> RawPrefixSample:
    """The sample ``sample_to_dict`` wrote; an id, label or attribute map of
    another JSON type (an outcome of 0.9 or "1", a list of pairs for a map)
    raises ValueError naming its key (``json_cast``)."""
    return RawPrefixSample(
        case_id=json_cast("case_id", d["case_id"], str),
        events=tuple(map(_event_from_dict, d["events"])),
        static_attrs=json_cast("static_attrs", d["static_attrs"], dict),
        outcome=json_cast("outcome", d["outcome"], int),
        sensitive=json_cast("sensitive", d["sensitive"], int),
    )


def _extends(shorter: RawPrefixSample, longer: RawPrefixSample) -> bool:
    """Whether ``longer`` is a longer prefix of the same labeled case."""
    n = len(shorter.events)
    return (
        len(longer.events) > n
        and longer.case_id == shorter.case_id
        and longer.outcome == shorter.outcome
        and longer.sensitive == shorter.sensitive
        and longer.events[:n] == shorter.events
        and longer.static_attrs == shorter.static_attrs
    )


def _nested_runs(samples):
    """``samples`` in order, cut into maximal runs where each sample extends
    the one before it."""
    run = []
    for sample in samples:
        if run and not _extends(run[-1], sample):
            yield run
            run = []
        run.append(sample)
    if run:
        yield run


def _prefix_lengths(value, n_events: int) -> list:
    """A record's ``lengths``: a non-empty JSON list of ints that rises
    strictly from at least 1 to ``n_events``, so no event goes unread."""
    lengths = [json_cast("lengths", n, int) for n in json_cast("lengths", value, list)]
    steps = zip([0] + lengths, lengths)
    if not lengths or lengths[-1] != n_events or any(a >= b for a, b in steps):
        raise ValueError(
            f"'lengths' value {value!r} does not rise strictly from at least 1 "
            f"to the record's {n_events} events"
        )
    return lengths


def write_samples_jsonl(samples, path, provenance: dict | None = None) -> None:
    """One JSON record per run of nested prefixes, after a ``_provenance``
    record when given. A record is ``sample_to_dict`` of the run's longest
    sample plus ``lengths``, the run's prefix lengths in ascending order; a
    sample that does not extend the one before it (``_extends``) starts a
    new record, so ``read_samples_jsonl`` gives back the list in order."""
    with open(path, "w", encoding="utf-8") as fh:
        if provenance:
            fh.write(json.dumps({"_provenance": provenance}, sort_keys=True))
            fh.write("\n")
        for run in _nested_runs(samples):
            record = sample_to_dict(run[-1])
            record["lengths"] = [len(s.events) for s in run]
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")


@without_cyclic_gc
def read_samples_jsonl(path) -> list:
    """The samples of a JSONL file; a malformed record raises RowError with its line.

    Each record is parsed once; its prefixes are slices of its events, so
    they share the ``Event`` objects and the static map."""
    samples = []
    with open(path, encoding="utf-8") as fh:
        for number, line in enumerate(_utf8_lines(fh), 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = parse_json(line)
                if type(record) is not dict:
                    raise ValueError(f"a record must be a JSON object, not {record!r}")
                # tooling may stamp a metadata record first; it carries no sample
                if "_provenance" in record:
                    continue
                if "lengths" not in record:
                    raise ValueError(
                        "the record has no 'lengths' (a samples file from an earlier "
                        "version, one prefix per record); rerun ingest"
                    )
                s = sample_from_dict(record)
                samples.extend(
                    RawPrefixSample(s.case_id, s.events[:n], s.static_attrs, s.outcome, s.sensitive)
                    for n in _prefix_lengths(record["lengths"], len(s.events))[:-1]
                )
                samples.append(s)
            except (KeyError, ValueError, TypeError, AttributeError) as exc:
                raise RowError(f"line {number}: {type(exc).__name__}: {exc}") from None
    return samples
