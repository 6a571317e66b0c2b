"""Fixed-length tensor encoding of prefix samples.

Categorical attributes (the activity plus any declared categorical column)
become index sequences against train-fitted vocabularies, with index 0
reserved for padding and out-of-vocabulary labels. Numeric and boolean
attributes become min-max-scaled channels in [0,1], fitted on training data
and clamped elsewhere. Static attributes are replicated at every unmasked
position. Prefixes shorter than ``max_len`` are right-padded; longer ones
keep their last ``max_len`` events.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

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

    @property
    def embedding_dims(self) -> dict:
        """Categorical attr -> ceil(sqrt(number of labels))."""
        return {attr: math.ceil(math.sqrt(len(ls))) for attr, ls in self.labels.items()}

    @property
    def categorical_attrs(self) -> list:
        return sorted(self.labels)

    @property
    def numeric_attrs(self) -> list:
        return sorted(self.numeric_ranges)

    def inverse_vocabulary(self, attr: str) -> dict:
        return dict(enumerate(self.labels[attr], 1))


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

    labels = {}
    for attr in cat_attrs:
        found = set()
        for sample in train:
            if attr == ACTIVITY:
                found.update(e.activity for e in sample.events)
            elif attr.startswith(STATIC_PREFIX):
                found.add(sample.static_attrs[attr])
            else:
                found.update(e.dynamic_attrs[attr] for e in sample.events)
        labels[attr] = sorted(found, key=_label_key)

    numeric_ranges = {}
    for attr in num_attrs:
        values = []
        for sample in train:
            if attr.startswith(STATIC_PREFIX):
                values.append(float(sample.static_attrs[attr]))
            else:
                values.extend(float(e.dynamic_attrs[attr]) for e in sample.events)
        lo, hi = min(values), max(values)
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


def _label_key(label) -> tuple:
    # labels may mix types (booleans beside strings): booleans first, then by text
    return (not isinstance(label, bool), str(label))


def encode(spec: EncoderSpec, sample: RawPrefixSample) -> EncodedPrefix:
    """Encode one sample; a non-finite numeric or boolean value raises ValueError."""
    events = sample.events[-spec.max_len :]
    length = len(events)
    pad = spec.max_len - length

    cat_indices = {}
    for attr in spec.categorical_attrs:
        vocab = spec.vocabularies[attr]
        if attr == ACTIVITY:
            row = [vocab.get(e.activity, 0) for e in events]
        elif attr.startswith(STATIC_PREFIX):
            row = [vocab.get(sample.static_attrs.get(attr), 0)] * length
        else:
            row = [vocab.get(e.dynamic_attrs.get(attr), 0) for e in events]
        cat_indices[attr] = tuple(row + [0] * pad)

    num_values = {}
    for attr in spec.numeric_attrs:
        lo, hi = spec.numeric_ranges[attr]
        if attr.startswith(STATIC_PREFIX):
            raw = [float(sample.static_attrs[attr])] * length
        else:
            raw = [float(e.dynamic_attrs[attr]) for e in events]
        if not all(map(math.isfinite, raw)):
            raise ValueError(f"'{attr}' holds a value that is not a finite number: {raw}")
        if hi > lo:
            scaled = [min(max((v - lo) / (hi - lo), 0.0), 1.0) for v in raw]
        else:
            scaled = [0.0] * length
        num_values[attr] = tuple(scaled + [0.0] * pad)

    mask = tuple([True] * length + [False] * pad)
    return EncodedPrefix(
        cat_indices=cat_indices,
        num_values=num_values,
        mask=mask,
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
    cat_order: list = field(default_factory=list)
    num_order: list = field(default_factory=list)

    @classmethod
    def from_encoded(cls, encoded: list) -> "PackedDataset":
        if not encoded:
            raise ValueError("cannot pack an empty sample list")
        cat_order = sorted(encoded[0].cat_indices)
        num_order = sorted(encoded[0].num_values)
        return cls(
            cat={
                a: np.array([e.cat_indices[a] for e in encoded], dtype=np.int64)
                for a in cat_order
            },
            num={
                a: np.array([e.num_values[a] for e in encoded], dtype=np.float64)
                for a in num_order
            },
            mask=np.array([e.mask for e in encoded], dtype=bool),
            y=np.array([e.y for e in encoded], dtype=np.float64),
            s=np.array([e.s for e in encoded], dtype=np.int64),
            cat_order=cat_order,
            num_order=num_order,
        )

    def subset(self, indices) -> "PackedDataset":
        idx = np.asarray(indices)
        return PackedDataset(
            cat={a: m[idx] for a, m in self.cat.items()},
            num={a: m[idx] for a, m in self.num.items()},
            mask=self.mask[idx],
            y=self.y[idx],
            s=self.s[idx],
            cat_order=list(self.cat_order),
            num_order=list(self.num_order),
        )

    def __len__(self):
        return self.y.size
