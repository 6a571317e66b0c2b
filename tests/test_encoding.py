"""Prefix encoding: vocabularies, min-max scaling, padding and truncation.

Oracles: hand-built samples with known vocabularies and ranges, plus
structural checks (attribute absence, mask shape, index round-trips).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict
from datetime import datetime

import numpy as np
import pytest

from fairppm.encoding import EncoderSpec, PackedDataset, encode, fit_encoder
from fairppm.eventlog import Event, RawPrefixSample, SchemaConfig
from fairppm.records import from_fields

SCHEMA = SchemaConfig(
    attributes={
        "case:protected": "boolean",
        "resource": "categorical",
        "cost": "numeric",
    }
)


def make_sample(
    activities,
    *,
    costs=None,
    resources=None,
    protected=False,
    outcome=0,
    case_id="c1",
) -> RawPrefixSample:
    n = len(activities)
    costs = costs if costs is not None else [10.0] * n
    resources = resources if resources is not None else ["r1"] * n
    events = tuple(
        Event(case_id, a, datetime(2024, 1, 5, 8, i), {"cost": c, "resource": r})
        for i, (a, c, r) in enumerate(zip(activities, costs, resources))
    )
    return RawPrefixSample(
        case_id=case_id,
        events=events,
        static_attrs={"case:protected": protected},
        outcome=outcome,
        sensitive=int(protected),
    )


TRAIN = [
    make_sample(["A", "B"], costs=[10.0, 20.0], resources=["r1", "r2"], protected=False),
    make_sample(["C"], costs=[30.0], resources=["r1"], protected=True, outcome=1),
]


# ---------------------------------------------------------------------------
# fitting


def test_fit_vocab_and_embedding_dim():
    spec = fit_encoder(TRAIN, SCHEMA)
    assert spec.vocabularies["activity"] == {"A": 1, "B": 2, "C": 3}
    assert spec.embedding_dims["activity"] == 2  # ceil(sqrt(3))
    assert spec.vocabularies["resource"] == {"r1": 1, "r2": 2}
    assert spec.embedding_dims["resource"] == 2  # ceil(sqrt(2))


def test_fit_embedding_dim_is_ceil_sqrt_vocab():
    for n_labels in (1, 2, 3, 4, 5, 9, 10):
        train = [make_sample([f"act{i}" for i in range(n_labels)], costs=[1.0] * n_labels)]
        train.append(make_sample(["act0"], costs=[2.0]))
        with pytest.warns(UserWarning, match="case:protected"):  # every sample has False
            spec = fit_encoder(train, SCHEMA)
        size = len(spec.vocabularies["activity"])
        assert size == n_labels
        assert spec.embedding_dims["activity"] == math.ceil(math.sqrt(size))


def test_fit_numeric_range_and_boolean_channel():
    spec = fit_encoder(TRAIN, SCHEMA)
    assert spec.numeric_ranges["cost"] == (10.0, 30.0)
    # booleans become numeric 0/1 channels, not embedded categoricals
    assert spec.numeric_ranges["case:protected"] == (0.0, 1.0)
    assert "case:protected" not in spec.vocabularies


def test_fit_requires_training_data():
    with pytest.raises(ValueError):
        fit_encoder([], SCHEMA)


def test_fit_constant_numeric_warns():
    train = [make_sample(["A"], costs=[5.0]), make_sample(["B"], costs=[5.0])]
    with pytest.warns(UserWarning, match="cost"), pytest.warns(UserWarning, match="protected"):
        spec = fit_encoder(train, SCHEMA)
    encoded = encode(spec, train[0])
    assert encoded.num_values["cost"][0] == 0.0


def test_drop_sensitive_removes_the_channel_but_keeps_label():
    spec = fit_encoder(TRAIN, SCHEMA, drop_sensitive=True)
    assert "case:protected" not in spec.numeric_ranges
    assert "case:protected" not in spec.vocabularies
    encoded = encode(spec, TRAIN[1])
    assert "case:protected" not in encoded.num_values
    assert encoded.s == 1


def test_drop_sensitive_unknown_attribute_rejected():
    with pytest.raises(ValueError, match="case:absent"):
        fit_encoder(TRAIN, SCHEMA, drop_sensitive=True, sensitive_attr="case:absent")


# ---------------------------------------------------------------------------
# encoding


def test_encode_midpoint_scales_to_half():
    spec = fit_encoder(TRAIN, SCHEMA)  # cost range (10, 30)
    encoded = encode(spec, make_sample(["A"], costs=[20.0]))
    assert encoded.num_values["cost"][0] == pytest.approx(0.5, abs=1e-15)


def test_encode_short_prefix_mask():
    spec = fit_encoder(TRAIN, SCHEMA, max_len=6)
    encoded = encode(spec, make_sample(["A", "B"], costs=[10.0, 20.0]))
    assert encoded.mask == (True, True, False, False, False, False)
    assert encoded.cat_indices["activity"] == (1, 2, 0, 0, 0, 0)
    assert encoded.num_values["cost"][2:] == (0.0,) * 4


def test_encode_long_prefix_keeps_last_events():
    spec = fit_encoder(TRAIN, SCHEMA, max_len=6)
    acts = ["A", "B", "C", "A", "B", "C", "A", "B", "C"]
    encoded = encode(spec, make_sample(acts, costs=list(range(1, 10))))
    assert encoded.mask == (True,) * 6
    inverse = spec.inverse_vocabulary("activity")
    decoded = [inverse[i] for i in encoded.cat_indices["activity"]]
    assert decoded == acts[3:]  # events 4..9


def test_encode_oov_label_maps_to_pad_index():
    spec = fit_encoder(TRAIN, SCHEMA)
    encoded = encode(spec, make_sample(["Z", "A"], costs=[10.0, 10.0]))
    assert encoded.cat_indices["activity"][:2] == (0, 1)
    assert encoded.mask[:2] == (True, True)


def test_encode_clamps_out_of_range_numerics():
    spec = fit_encoder(TRAIN, SCHEMA)
    encoded = encode(spec, make_sample(["A", "A"], costs=[-100.0, 100.0]))
    assert encoded.num_values["cost"][:2] == (0.0, 1.0)


def test_encode_replicates_statics_at_every_real_position():
    spec = fit_encoder(TRAIN, SCHEMA, max_len=4)
    encoded = encode(spec, make_sample(["A", "B"], costs=[10.0, 10.0], protected=True))
    assert encoded.num_values["case:protected"] == (1.0, 1.0, 0.0, 0.0)


def prop_encoding_invariants(cases: int, seed: int = 71) -> None:
    """Masks are contiguous, padded slots are zero, train encodes into
    [0,1], and in-vocabulary indices decode back to their labels."""
    rng = np.random.default_rng(seed)
    acts = ["A", "B", "C", "D", "E"]
    for _ in range(cases):
        max_len = int(rng.integers(1, 9))
        train = []
        for j in range(int(rng.integers(1, 12))):
            n = int(rng.integers(1, 10))
            train.append(
                make_sample(
                    [acts[int(k)] for k in rng.integers(0, len(acts), size=n)],
                    costs=rng.uniform(-5, 5, size=n).tolist(),
                    resources=[f"r{int(k)}" for k in rng.integers(0, 3, size=n)],
                    protected=bool(rng.integers(0, 2)),
                    outcome=int(rng.integers(0, 2)),
                    case_id=f"c{j}",
                )
            )
        with warnings.catch_warnings():
            # tiny random training sets can legitimately have constant channels
            warnings.simplefilter("ignore", UserWarning)
            spec = fit_encoder(train, SCHEMA, max_len=max_len)
        for sample in train:
            encoded = encode(spec, sample)
            assert encoded == encode(spec, sample)
            n_true = sum(encoded.mask)
            assert n_true == min(len(sample.events), max_len)
            assert encoded.mask == (True,) * n_true + (False,) * (max_len - n_true)
            for attr, row in encoded.num_values.items():
                assert all(0.0 <= v <= 1.0 for v in row)
                assert row[n_true:] == (0.0,) * (max_len - n_true)
            for attr, row in encoded.cat_indices.items():
                assert row[n_true:] == (0,) * (max_len - n_true)
            inverse = spec.inverse_vocabulary("activity")
            kept = sample.events[-max_len:]
            for e, idx in zip(kept, encoded.cat_indices["activity"]):
                assert inverse[idx] == e.activity


def test_encoding_invariants():
    prop_encoding_invariants(100)


# ---------------------------------------------------------------------------
# serialization and packing


def json_round_trip(spec: EncoderSpec) -> EncoderSpec:
    """``spec`` written as ``encoder.json`` is, then read back."""
    return from_fields(EncoderSpec, json.loads(json.dumps(asdict(spec), sort_keys=True)))


def flag_sample(flags) -> RawPrefixSample:
    """One prefix whose events carry the categorical ``flag`` labels given."""
    return RawPrefixSample(
        case_id="c1",
        events=tuple(
            Event("c1", "A", datetime(2024, 1, 5, i), {"flag": flag})
            for i, flag in enumerate(flags)
        ),
        static_attrs={"case:protected": False},
        outcome=0,
        sensitive=0,
    )


FLAG_SCHEMA = SchemaConfig(attributes={"flag": "categorical"})


def test_encoder_json_round_trip():
    for drop in (False, True):
        spec = fit_encoder(TRAIN, SCHEMA, max_len=5, drop_sensitive=drop)
        again = json_round_trip(spec)
        assert again == spec
        assert again.vocabularies == spec.vocabularies
        assert again.embedding_dims == spec.embedding_dims


def test_encoder_json_preserves_label_types():
    # boolean-valued categorical labels must not collapse into strings
    spec = fit_encoder([flag_sample([True, "True"])], FLAG_SCHEMA)
    again = json_round_trip(spec)
    assert again.vocabularies["flag"] == spec.vocabularies["flag"]
    assert True in again.vocabularies["flag"] and "True" in again.vocabularies["flag"]


def test_fit_orders_boolean_labels_before_strings():
    # the index order encoder.json has always had: booleans (False, True), then by text
    spec = fit_encoder([flag_sample(["b", "True", True, "False", False, "a"])], FLAG_SCHEMA)
    assert spec.vocabularies["flag"] == {False: 1, True: 2, "False": 3, "True": 4, "a": 5, "b": 6}
    spec = fit_encoder([flag_sample(["True", True])], FLAG_SCHEMA)
    assert spec.vocabularies["flag"] == {True: 1, "True": 2}


def test_packed_dataset_shapes_and_subset():
    spec = fit_encoder(TRAIN, SCHEMA, max_len=4)
    encoded = [encode(spec, s) for s in TRAIN]
    packed = PackedDataset.from_encoded(encoded)
    assert len(packed) == 2
    assert packed.cat["activity"].shape == (2, 4)
    assert packed.num["cost"].dtype == np.float64
    assert packed.mask.dtype == bool
    assert packed.y.tolist() == [0.0, 1.0]
    assert packed.s.tolist() == [0, 1]
    sub = packed.subset([1])
    assert len(sub) == 1
    assert sub.y.tolist() == [1.0]
    assert sub.cat_order == packed.cat_order
    with pytest.raises(ValueError):
        PackedDataset.from_encoded([])
