"""The JSON and CSV artifact formats, the type rule that reads configs and
JSON artifacts into dataclass records, the inverse of ``dataclasses.asdict``,
and the UTF-8 decoding every text artifact shares. It imports no other
``fairppm`` module, so every layer may use it."""

from __future__ import annotations

import csv
import itertools
import json
import sys
import typing
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass

import numpy as np

__all__ = [
    "json_cast", "from_fields", "float_array", "write_json", "json_payload", "parse_json",
    "utf8_text", "write_csv", "csv_records",
]

# the types a value may have for a field type other than that type alone
_JSON_KINDS = {float: (int, float), tuple: (tuple, list)}

# a float must lie within +-this: NaN fails both bounds, an int past float's range one
_FLOAT_MAX = sys.float_info.max


def utf8_text(data: bytes, error: type = ValueError) -> str:
    """``data`` decoded as UTF-8; a byte that is not UTF-8 raises ``error``
    naming its physical line (lines end at \\n, \\r or \\r\\n)."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start] + b"?").splitlines())
        reason = f"byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})"
        raise error(f"line {line}: {reason}") from None


def write_csv(path, comment: str | None, blocks) -> None:
    """The rows of ``blocks``, in order, as a CSV file after an optional
    ``# comment`` line; each block maps the same headers to lists of text
    cells, and only one block's text is in memory at a time. The bytes are
    ``csv.writer``'s with LF line ends: a cell holding a comma, a quote or a
    newline is quoted, its quotes doubled, and a row of one empty cell is ``""``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# {comment}\n" if comment else "")
        for i, columns in enumerate(blocks):
            quoted = []
            for column in [list(columns), *columns.values()]:
                text = "".join(column)  # a column of plain cells is scanned once
                if "," in text or '"' in text or "\n" in text:
                    column = [
                        '"' + c.replace('"', '""') + '"' if "," in c or '"' in c or "\n" in c else c
                        for c in column
                    ]
                quoted.append(column)
            header, *cells = quoted
            if len(cells) == 1:
                header, cells = [header[0] or '""'], [[cell or '""' for cell in cells[0]]]
            rows = itertools.chain([header] if i == 0 else [], zip(*cells))
            fh.write("".join([",".join(row) + "\n" for row in rows]))


@contextmanager
def csv_records(path, error: type = ValueError):
    """The records of the CSV file at ``path`` as ``(line, fields)``, header
    first; ``line`` is the physical line a record ends on. A leading
    byte-order mark, the '#' lines above the header (a later one is a
    record) and blank records are skipped. ``error`` is raised naming the
    line for a byte that is not UTF-8, a field over ``csv.field_size_limit()``
    and a record whose field count differs from the header's."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        yield _records(fh, error)


def _records(fh, error: type):
    comments, width = 0, None
    try:
        first = next(fh, "")
        while first.startswith("#"):
            comments, first = comments + 1, next(fh, "")
        reader = csv.reader(itertools.chain([first], fh))
        for values in reader:
            if values:
                line = reader.line_num + comments
                width = width or len(values)  # the header's
                if len(values) != width:
                    raise error(f"line {line}: {len(values)} fields where the header has {width}")
                yield line, values
    except csv.Error as exc:  # a field over csv.field_size_limit()
        raise error(f"line {reader.line_num + comments}: {exc}") from None
    except UnicodeDecodeError:
        # a text read decodes in chunks, so its error gives only an offset
        # into one chunk: the file is read again as bytes, on this path only
        with open(fh.name, "rb") as raw:
            utf8_text(raw.read(), error)
        raise


def write_json(path, payload: dict, provenance: dict | None = None) -> None:
    """``payload`` as a JSON artifact: sorted keys, indent 2, arrays as lists
    and a trailing newline, with ``provenance`` (when given) under its own key."""
    if provenance:
        payload = {**payload, "provenance": provenance}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2, default=np.ndarray.tolist)
        fh.write("\n")


def parse_json(text: str):
    """``json.loads(text)``, except that a value nested past the interpreter's
    recursion limit raises ValueError, as other malformed JSON does, and not
    RecursionError."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(f"JSON nested too deeply ({exc})") from None


def json_payload(data: bytes):
    """The payload of the JSON artifact ``data``, less the ``provenance``
    object that ``write_json`` stamps into it."""
    payload = parse_json(utf8_text(data))
    if isinstance(payload, dict) and isinstance(payload.get("provenance"), dict):
        del payload["provenance"]
    return payload


def json_cast(key: str, value, kind: type):
    """``value``, read from JSON for ``key``, as a ``kind``.

    The value must already have that type: a bool for bool, an int but not
    a bool for int, a finite int or float but not a bool for float (cast to
    float), a list for tuple (cast to tuple), an object for dict (copied),
    a str for str. A tuple, which a record's own ``asdict`` gives, passes for
    tuple too. Raises ValueError naming the key otherwise.
    """
    if isinstance(value, bool):
        fits = kind is bool
    else:
        fits = isinstance(value, _JSON_KINDS.get(kind, kind))
    if not fits:
        raise ValueError(f"'{key}' value {value!r} does not cast to {kind.__name__}")
    if kind is float and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        raise ValueError(f"'{key}' value {value!r} is not a finite number")
    return kind(value)


def float_array(key: str, value) -> np.ndarray:
    """``value``, a JSON list of numbers nested to any depth, as a float64
    array; each entry is read by ``json_cast`` as a float, so null, a bool,
    a ragged row, NaN or Infinity raises ValueError naming the key."""
    items = np.asarray(json_cast(key, value, list), dtype=object)
    return np.array([json_cast(key, v, float) for v in items.flat]).reshape(items.shape)


def from_fields(cls, raw):
    """Build the dataclass ``cls`` from a JSON object keyed by its field names.

    Each present value is read by the field's annotated type: a dataclass
    through ``from_fields``, ``X | None`` as None or as an ``X``, anything
    else by ``json_cast``. An absent key takes the field's default; a field
    without one is required. Raises ValueError for a non-object, an unknown
    key (listing the valid ones), a missing required key or a value the type
    rule or the class's own checks reject.
    """
    known = typing.get_type_hints(cls)
    if not isinstance(raw, dict):
        raise ValueError(f"expected an object with keys {', '.join(known)}, got {raw!r}")
    unknown = [repr(key) for key in raw if key not in known]
    if unknown:
        raise ValueError(f"unknown key {', '.join(unknown)} (valid keys: {', '.join(known)})")
    missing = [
        repr(f.name)
        for f in fields(cls)
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ValueError(f"missing key {', '.join(missing)}")
    return cls(**{key: _read_field(key, value, known[key]) for key, value in raw.items()})


def _read_field(key: str, value, kind):
    """``value``, read from JSON for ``key``, as the annotated type ``kind``."""
    options = typing.get_args(kind)
    if type(None) in options:
        if value is None:
            return None
        (kind,) = [t for t in options if t is not type(None)]
    if is_dataclass(kind):
        try:
            return from_fields(kind, value)
        except ValueError as exc:
            raise ValueError(f"in '{key}': {exc}") from None
    return json_cast(key, value, kind)
