"""Fixed-length tensor encoding of prefix samples.

Categorical attributes (the activity plus any declared categorical column)
become index sequences against train-fitted vocabularies, with index 0
reserved for padding and out-of-vocabulary labels. Numeric and boolean
attributes become min-max-scaled channels in [0,1], fitted on training data
and clamped elsewhere. Each attribute is read as one value per event (a
static one repeated at every event), so a sample that lacks an attribute
does not encode. Prefixes shorter than ``max_len`` are right-padded; longer
ones keep their last ``max_len`` events.

There is one value rule (``_values``) and two shapes it fills: ``encode``
turns one sample into rows of Python values, and
``PackedDataset.from_samples`` reads each attribute once over the kept
events of a whole sample list and packs the arrays column by column.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .eventlog import RawPrefixSample, SchemaConfig, STATIC_PREFIX

__all__ = [
    "EncoderSpec",
    "EncodedPrefix",
    "PackedDataset",
    "fit_encoder",
    "encode",
]

ACTIVITY = "activity"


@dataclass(frozen=True)
class EncoderSpec:
    """Train-fitted labels and scaling ranges; ``encoder.json`` is this record.

    ``labels`` lists each categorical attribute's labels in index order: a
    label's index is its position plus 1, and 0 is the padding and
    out-of-vocabulary index. The label -> index maps (``vocabularies``) and
    the embedding sizes are derived from it.
    """

    max_len: int
    schema: SchemaConfig
    labels: dict  # categorical attr -> labels in index order
    numeric_ranges: dict  # numeric/boolean attr -> (min, max) from train
    drop_sensitive: bool
    sensitive_attr: str

    def __post_init__(self):
        if self.max_len < 1:
            raise ValueError("'max_len' must be >= 1")
        for attr, ls in self.labels.items():
            if not (_holds_only(ls, (str, bool)) and len(set(ls)) == len(ls)):
                raise ValueError(f"'labels' of '{attr}' must be distinct strings or bools: {ls!r}")
        for attr, span in self.numeric_ranges.items():
            finite = _holds_only(span, (int, float)) and all(map(math.isfinite, span))
            if not (finite and len(span) == 2 and span[0] <= span[1]):
                raise ValueError(f"'numeric_ranges' of '{attr}' must be finite lo <= hi: {span!r}")
        vocabularies = {a: dict(zip(ls, range(1, len(ls) + 1))) for a, ls in self.labels.items()}
        ranges = {a: (float(lo), float(hi)) for a, (lo, hi) in self.numeric_ranges.items()}
        object.__setattr__(self, "vocabularies", vocabularies)  # categorical attr -> {label: index}
        object.__setattr__(self, "numeric_ranges", ranges)
        # the encoding order of the attributes
        object.__setattr__(self, "categorical_attrs", tuple(sorted(self.labels)))
        object.__setattr__(self, "numeric_attrs", tuple(sorted(ranges)))

    @property
    def embedding_dims(self) -> dict:
        """Categorical attr -> ceil(sqrt(number of labels))."""
        return {attr: math.ceil(math.sqrt(len(ls))) for attr, ls in self.labels.items()}


def _holds_only(items, kinds: tuple) -> bool:
    """Whether ``items`` is a list or tuple of entries of exactly these types."""
    return isinstance(items, (list, tuple)) and all(type(v) in kinds for v in items)


@dataclass(frozen=True)
class EncodedPrefix:
    """One sample as fixed-length index/value rows plus the event mask."""

    cat_indices: dict  # attr -> tuple of max_len indices
    num_values: dict  # attr -> tuple of max_len floats in [0,1]
    mask: tuple  # max_len booleans, contiguous True block from position 0
    y: int
    s: int


def fit_encoder(
    train: list,
    schema: SchemaConfig,
    max_len: int = 6,
    drop_sensitive: bool = False,
    sensitive_attr: str = "case:protected",
) -> EncoderSpec:
    """Fit labels and numeric ranges on training samples only.

    With ``drop_sensitive`` the sensitive attribute is excluded from every
    feature map (it survives only as the label ``s`` on each sample).
    A constant numeric attribute triggers a warning and encodes to 0.
    """
    if not train:
        raise ValueError("fit_encoder requires a nonempty training set")
    if drop_sensitive and sensitive_attr not in schema.attributes:
        raise ValueError(f"sensitive attribute '{sensitive_attr}' is not in the schema")

    excluded = {sensitive_attr} if drop_sensitive else set()
    cat_attrs = [ACTIVITY] + sorted(
        a for a, k in schema.attributes.items() if k == "categorical" and a not in excluded
    )
    num_attrs = sorted(
        a
        for a, k in schema.attributes.items()
        if k in ("numeric", "boolean") and a not in excluded
    )

    # a case's nested prefixes share their Event objects and static mapping,
    # and labels and ranges are sets, minima and maxima: read each distinct
    # object once
    events = list({id(e): e for sample in train for e in sample.events}.values())
    statics = list({id(sample.static_attrs): sample.static_attrs for sample in train}.values())

    labels = {
        attr: sorted(set(_column(attr, events, statics)), key=_label_key) for attr in cat_attrs
    }
    numeric_ranges = {}
    for attr in num_attrs:
        floats = list(map(float, _column(attr, events, statics)))
        lo, hi = min(floats), max(floats)
        if lo == hi:
            warnings.warn(
                f"numeric attribute '{attr}' is constant ({lo}) in training data; "
                "it will encode to 0",
                stacklevel=2,
            )
        numeric_ranges[attr] = (lo, hi)

    return EncoderSpec(
        max_len=max_len,
        schema=schema,
        labels=labels,
        numeric_ranges=numeric_ranges,
        drop_sensitive=drop_sensitive,
        sensitive_attr=sensitive_attr,
    )


def _column(attr: str, events, statics) -> list:
    """``attr``'s values: the activity or a dynamic attribute at each of
    ``events``, or a static ``case:`` value from each of ``statics``. A
    missing attribute raises KeyError."""
    if attr == ACTIVITY:
        return [e.activity for e in events]
    if attr.startswith(STATIC_PREFIX):
        return [static[attr] for static in statics]
    return [e.dynamic_attrs[attr] for e in events]


def _values(spec: EncoderSpec, attr: str, column: list) -> list:
    """The value rule: ``attr``'s raw values as vocabulary indices (0 out of
    vocabulary), or as floats min-max scaled and clamped into [0,1] (all 0 on
    a constant channel). A value that is not a finite number raises ValueError."""
    vocab = spec.vocabularies.get(attr)
    if vocab is not None:
        return [vocab.get(v, 0) for v in column]
    lo, hi = spec.numeric_ranges[attr]
    raw = list(map(float, column))
    if not all(map(math.isfinite, raw)):
        raise ValueError(f"'{attr}' holds a value that is not a finite number: {raw}")
    if hi > lo:
        span = hi - lo  # comparisons clamp bit-equal to min(max(x, 0.0), 1.0), and faster
        return [0.0 if (x := (v - lo) / span) < 0.0 else 1.0 if x > 1.0 else x for v in raw]
    return [0.0] * len(raw)


def _label_key(label) -> tuple:
    # labels may mix types (booleans beside strings): booleans first, then by text
    return (not isinstance(label, bool), str(label))


def encode(spec: EncoderSpec, sample: RawPrefixSample) -> EncodedPrefix:
    """Encode one sample; a missing attribute raises KeyError, a non-finite value ValueError."""
    events = sample.events[-spec.max_len :]
    statics = (sample.static_attrs,)
    pad = spec.max_len - len(events)
    cat_indices, num_values = {}, {}
    for attrs, rows, padding in (
        (spec.categorical_attrs, cat_indices, [0] * pad),
        (spec.numeric_attrs, num_values, [0.0] * pad),
    ):
        for attr in attrs:
            # a static value is encoded once and repeated at every event
            times = len(events) if attr.startswith(STATIC_PREFIX) else 1
            values = _values(spec, attr, _column(attr, events, statics))
            rows[attr] = tuple(values * times + padding)
    return EncodedPrefix(
        cat_indices=cat_indices,
        num_values=num_values,
        mask=tuple([True] * len(events) + [False] * pad),
        y=sample.outcome,
        s=sample.sensitive,
    )


@dataclass
class PackedDataset:
    """Column-packed encoded samples for batched model evaluation."""

    cat: dict  # attr -> (N, T) int64
    num: dict  # attr -> (N, T) float64
    mask: np.ndarray  # (N, T) bool
    y: np.ndarray  # (N,) float64
    s: np.ndarray  # (N,) int64

    @classmethod
    def from_encoded(cls, encoded: list) -> "PackedDataset":
        if not encoded:
            raise ValueError("cannot pack an empty sample list")
        return cls(
            cat={
                a: np.array([e.cat_indices[a] for e in encoded], dtype=np.int64)
                for a in sorted(encoded[0].cat_indices)
            },
            num={
                a: np.array([e.num_values[a] for e in encoded], dtype=np.float64)
                for a in sorted(encoded[0].num_values)
            },
            mask=np.array([e.mask for e in encoded], dtype=bool),
            y=np.array([e.y for e in encoded], dtype=np.float64),
            s=np.array([e.s for e in encoded], dtype=np.int64),
        )

    @classmethod
    def from_samples(cls, spec: EncoderSpec, samples: list) -> "PackedDataset":
        """``from_encoded([encode(spec, s) for s in samples])``, array for
        array, built a column at a time: each attribute is read once over the
        kept events of every sample and scattered into place through the mask.
        A sample that does not encode raises the error type ``encode`` raises,
        without saying which sample it was."""
        if not samples:
            raise ValueError("cannot pack an empty sample list")
        kept = [s.events[-spec.max_len :] for s in samples]
        lengths = np.array(list(map(len, kept)))
        mask = np.arange(spec.max_len) < lengths[:, None]
        # row-major, as a boolean mask indexes: sample by sample, event by event
        events = [e for k in kept for e in k]
        statics = [s.static_attrs for s in samples]

        def scatter(attr, dtype):
            values = _values(spec, attr, _column(attr, events, statics))
            if attr.startswith(STATIC_PREFIX):  # one per sample, repeated at its events
                values = np.repeat(values, lengths)
            out = np.zeros(mask.shape, dtype)
            out[mask] = values
            return out

        return cls(
            cat={a: scatter(a, np.int64) for a in spec.categorical_attrs},
            num={a: scatter(a, np.float64) for a in spec.numeric_attrs},
            mask=mask,
            y=np.array([s.outcome for s in samples], dtype=np.float64),
            s=np.array([s.sensitive for s in samples], dtype=np.int64),
        )

    def subset(self, indices) -> "PackedDataset":
        idx = np.asarray(indices)
        return PackedDataset(
            cat={a: m[idx] for a, m in self.cat.items()},
            num={a: m[idx] for a, m in self.num.items()},
            mask=self.mask[idx],
            y=self.y[idx],
            s=self.s[idx],
        )

    def __len__(self):
        return self.y.size
