"""Packed encoding of prefix samples.

Categorical attributes (the activity plus any declared categorical column)
become indices against train-fitted vocabularies, with index 0 reserved for
out-of-vocabulary labels. Numeric and boolean attributes become
min-max-scaled channels in [0,1], fitted on training data and clamped
elsewhere. Each attribute is read as one value per event (a static one
repeated at every event), so a sample that lacks an attribute does not
encode. A prefix longer than ``max_len`` keeps its last ``max_len`` events.

``PackedDataset.from_samples`` is the one way samples become model input:
it reads each attribute once over the kept events of a whole sample list,
through one value rule (``_values``), and stores them row after row with no
padding.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .eventlog import RawPrefixSample, SchemaConfig, STATIC_PREFIX

__all__ = [
    "EncoderSpec",
    "PackedDataset",
    "fit_encoder",
]

ACTIVITY = "activity"


@dataclass(frozen=True)
class EncoderSpec:
    """Train-fitted labels and scaling ranges; ``encoder.json`` is this record.

    ``labels`` lists each categorical attribute's labels in index order: a
    label's index is its position plus 1, and 0 is the out-of-vocabulary
    index. The label -> index maps (``vocabularies``) and the embedding
    sizes are derived from it.
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


def encode(spec: EncoderSpec, sample: RawPrefixSample) -> tuple:
    """``(spec, sample)`` for ``PackedDataset.from_encoded``. It exists only for
    ``benchmarks/workload.py:205``, and is deleted once ROADMAP item 8 moves that call."""
    return spec, sample


@dataclass
class PackedDataset:
    """Encoded samples for batched model evaluation: each attribute's values
    at the kept events, row after row with no padding (E = Σ ``lengths``)."""

    cat: dict  # attr -> (E,) int64
    num: dict  # attr -> (E,) float64
    lengths: np.ndarray  # (N,) int64, the kept events of each row
    y: np.ndarray  # (N,) float64
    s: np.ndarray  # (N,) int64

    @classmethod
    def from_encoded(cls, pairs: list) -> "PackedDataset":
        """``from_samples`` of ``encode``'s pairs. It exists only for
        ``benchmarks/workload.py:205``, and is deleted once ROADMAP item 8 moves that call."""
        return cls.from_samples(pairs[0][0], [sample for _, sample in pairs])

    @classmethod
    def from_samples(cls, spec: EncoderSpec, samples: list) -> "PackedDataset":
        """Pack ``samples``, reading each attribute once over the kept events
        of the whole list. A sample that does not encode raises ValueError
        naming its case and the error that packing it alone raises; with
        several such samples, the first in list order."""
        if not samples:
            raise ValueError("cannot pack an empty sample list")
        try:
            return cls._pack(spec, samples)
        except (ValueError, KeyError, TypeError):
            # the error met first may be a later sample's, as each attribute
            # is read over all of them: pack one at a time to find the first
            for sample in samples:
                try:
                    cls._pack(spec, [sample])
                except (ValueError, KeyError, TypeError) as exc:
                    raise ValueError(
                        f"case '{sample.case_id}' does not fit encoder.json: "
                        f"{type(exc).__name__}: {exc}"
                    ) from None
            raise

    @classmethod
    def _pack(cls, spec: EncoderSpec, samples: list) -> "PackedDataset":
        kept = [s.events[-spec.max_len :] for s in samples]
        lengths = np.array(list(map(len, kept)), dtype=np.int64)
        events = [e for k in kept for e in k]
        statics = [s.static_attrs for s in samples]

        def column(attr, dtype):
            values = np.array(_values(spec, attr, _column(attr, events, statics)), dtype)
            if attr.startswith(STATIC_PREFIX):  # one per sample, repeated at its events
                values = np.repeat(values, lengths)
            return values

        return cls(
            cat={a: column(a, np.int64) for a in spec.categorical_attrs},
            num={a: column(a, np.float64) for a in spec.numeric_attrs},
            lengths=lengths,
            y=np.array([s.outcome for s in samples], dtype=np.float64),
            s=np.array([s.sensitive for s in samples], dtype=np.int64),
        )

    @cached_property
    def _starts(self) -> np.ndarray:
        """Each row's first position in the event arrays."""
        return np.cumsum(self.lengths) - self.lengths

    def subset(self, indices) -> "PackedDataset":
        """The rows ``indices``, in that order; a row may repeat."""
        idx = np.asarray(indices)
        lengths = self.lengths[idx]
        ends = np.cumsum(lengths)
        # each chosen row's span of event positions, row after row
        spans = np.arange(lengths.sum()) + np.repeat(self._starts[idx] - ends + lengths, lengths)
        return PackedDataset(
            cat={a: v[spans] for a, v in self.cat.items()},
            num={a: v[spans] for a, v in self.num.items()},
            lengths=lengths,
            y=self.y[idx],
            s=self.s[idx],
        )

    def __len__(self):
        return self.y.size
