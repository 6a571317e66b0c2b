"""Prefix encoding: vocabularies, min-max scaling, truncation and packing.

Oracles: hand-built samples with known vocabularies and ranges, packed
against hand-built event arrays, plus structural checks (attribute absence,
row lengths, index round-trips, row independence of packing and subsets)
and bit-equal save/load round trips of the split-file format.
"""

from __future__ import annotations

import json
import math
import tempfile
import warnings
import zipfile
from dataclasses import asdict, replace
from datetime import datetime
from pathlib import Path

import numpy as np
import pytest

from fairppm.encoding import (
    EncoderSpec,
    PackedDataset,
    _values,
    encode,
    fit_encoder,
    split_members,
)
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
        Event(a, datetime(2024, 1, 5, 8, i), {"cost": c, "resource": r})
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
    assert PackedDataset.from_samples(spec, train[:1]).num["cost"].tolist() == [0.0]


def test_drop_sensitive_removes_the_channel_but_keeps_label():
    spec = fit_encoder(TRAIN, SCHEMA, drop_sensitive=True)
    assert "case:protected" not in spec.numeric_ranges
    assert "case:protected" not in spec.vocabularies
    packed = PackedDataset.from_samples(spec, TRAIN[1:])
    assert "case:protected" not in packed.num
    assert packed.s.tolist() == [1]


def test_drop_sensitive_unknown_attribute_rejected():
    with pytest.raises(ValueError, match="case:absent"):
        fit_encoder(TRAIN, SCHEMA, drop_sensitive=True, sensitive_attr="case:absent")


# ---------------------------------------------------------------------------
# encoding


def test_encode_midpoint_scales_to_half():
    spec = fit_encoder(TRAIN, SCHEMA)  # cost range (10, 30)
    packed = PackedDataset.from_samples(spec, [make_sample(["A"], costs=[20.0])])
    assert packed.num["cost"][0] == pytest.approx(0.5, abs=1e-15)


def test_encode_short_prefix_keeps_all_its_events():
    spec = fit_encoder(TRAIN, SCHEMA, max_len=6)
    packed = PackedDataset.from_samples(spec, [make_sample(["A", "B"], costs=[10.0, 20.0])])
    want = PackedDataset(
        cat={"activity": np.array([1, 2]), "resource": np.array([1, 1])},
        num={"case:protected": np.array([0.0, 0.0]), "cost": np.array([0.0, 0.5])},
        lengths=np.array([2]),
        y=np.array([0.0]),
        s=np.array([0]),
    )
    assert_packed_identical(packed, want)


def test_encode_long_prefix_keeps_last_events():
    spec = fit_encoder(TRAIN, SCHEMA, max_len=6)
    acts = ["A", "B", "C", "A", "B", "C", "A", "B", "C"]
    packed = PackedDataset.from_samples(spec, [make_sample(acts, costs=list(range(1, 10)))])
    assert packed.lengths.tolist() == [6]
    inverse = dict(enumerate(spec.labels["activity"], 1))
    decoded = [inverse[i] for i in packed.cat["activity"].tolist()]
    assert decoded == acts[3:]  # events 4..9


def test_encode_oov_label_maps_to_index_0():
    spec = fit_encoder(TRAIN, SCHEMA)
    packed = PackedDataset.from_samples(spec, [make_sample(["Z", "A"], costs=[10.0, 10.0])])
    assert packed.cat["activity"].tolist() == [0, 1]


@pytest.mark.parametrize("attr", ["resource", "cost", "case:protected"])
def test_encode_rejects_a_sample_missing_an_attribute(attr):
    """A categorical attribute too: it is not read as the out-of-vocabulary index."""
    spec = fit_encoder(TRAIN, SCHEMA)
    sample = make_sample(["A", "B"])
    last = sample.events[-1]
    dynamic = {k: v for k, v in last.dynamic_attrs.items() if k != attr}
    static = {k: v for k, v in sample.static_attrs.items() if k != attr}
    events = sample.events[:-1] + (replace(last, dynamic_attrs=dynamic),)
    bad = replace(sample, events=events, static_attrs=static)
    with pytest.raises(ValueError, match=f"case 'c1' does not fit .*: KeyError: '{attr}'"):
        PackedDataset.from_samples(spec, [bad])


def scalar_values(spec: EncoderSpec, attr: str, column: list) -> list:
    """The value rule one Python value at a time: the reference that the
    vectorized ``_values`` must match bit for bit."""
    vocab = spec.vocabularies.get(attr)
    if vocab is not None:
        return [vocab.get(v, 0) for v in column]
    lo, hi = spec.numeric_ranges[attr]
    if hi == lo:
        return [0.0] * len(column)
    return [min(max((float(v) - lo) / (hi - lo), 0.0), 1.0) for v in column]


def test_values_match_the_scalar_rule():
    rng = np.random.default_rng(17)
    spec = fit_encoder(TRAIN, SCHEMA)  # cost in [10, 30]
    # a range from 0.0 keeps a -0.0 value's sign; a constant channel encodes to 0
    specs = [spec] + [
        replace(spec, numeric_ranges={**spec.numeric_ranges, "cost": span})
        for span in ((0.0, 4.0), (2.0, 2.0))
    ]
    edges = [-0.0, 0.0, 10.0, 30.0, 9.999999999999998, 30.000000000000004, 5e-324, True, 7]
    for column in (edges, rng.uniform(-50, 80, 500).tolist()):
        for s in specs:
            want = np.array(scalar_values(s, "cost", column), dtype=np.float64)
            assert _values(s, "cost", column).tobytes() == want.tobytes()
    labels = ["A", "B", "C", "Z", True]
    column = [labels[int(k)] for k in rng.integers(0, len(labels), 200)]
    want = np.array(scalar_values(spec, "activity", column), dtype=np.int64)
    assert _values(spec, "activity", column).tobytes() == want.tobytes()


def test_encode_clamps_out_of_range_numerics():
    spec = fit_encoder(TRAIN, SCHEMA)
    packed = PackedDataset.from_samples(spec, [make_sample(["A", "A"], costs=[-100.0, 100.0])])
    assert packed.num["cost"].tolist() == [0.0, 1.0]


def test_encode_replicates_statics_at_every_real_position():
    spec = fit_encoder(TRAIN, SCHEMA, max_len=4)
    sample = make_sample(["A", "B"], costs=[10.0, 10.0], protected=True)
    packed = PackedDataset.from_samples(spec, [TRAIN[0], sample])
    assert packed.num["case:protected"].tolist() == [0.0, 0.0, 1.0, 1.0]


def random_sample(rng, acts, resources, n_max, cost_span, case_id, cost=None):
    """A prefix of 1..n_max events with labels drawn from ``acts`` and
    ``resources`` and costs uniform in +-``cost_span`` (or all ``cost``)."""
    n = int(rng.integers(1, n_max + 1))
    return make_sample(
        [acts[int(k)] for k in rng.integers(0, len(acts), size=n)],
        costs=[cost] * n if cost is not None else rng.uniform(-cost_span, cost_span, n).tolist(),
        resources=[resources[int(k)] for k in rng.integers(0, len(resources), size=n)],
        protected=bool(rng.integers(0, 2)),
        outcome=int(rng.integers(0, 2)),
        case_id=case_id,
    )


def packed_arrays(packed: PackedDataset) -> dict:
    """Every array of ``packed`` by name, in packing order."""
    return {
        **{f"cat:{a}": m for a, m in packed.cat.items()},
        **{f"num:{a}": m for a, m in packed.num.items()},
        "lengths": packed.lengths,
        "y": packed.y,
        "s": packed.s,
    }


def assert_packed_identical(got: PackedDataset, want: PackedDataset) -> None:
    got, want = packed_arrays(got), packed_arrays(want)
    assert list(got) == list(want)
    for name, array in want.items():
        assert got[name].dtype == array.dtype and got[name].shape == array.shape, name
        assert got[name].tobytes() == array.tobytes(), name


def concat_packed(parts: list) -> PackedDataset:
    """The rows of ``parts`` one after another, as one dataset."""
    first = parts[0]
    return PackedDataset(
        cat={a: np.concatenate([p.cat[a] for p in parts]) for a in first.cat},
        num={a: np.concatenate([p.num[a] for p in parts]) for a in first.num},
        lengths=np.concatenate([p.lengths for p in parts]),
        y=np.concatenate([p.y for p in parts]),
        s=np.concatenate([p.s for p in parts]),
    )


def random_spec_and_samples(rng):
    """An encoder fitted on random training samples, and those samples with
    random held-out ones in random order: out-of-vocabulary and boolean
    labels, numerics out of the training range or on a constant channel, and
    prefixes longer than ``max_len``."""
    acts = ["A", "B", "C", "D", "E"]
    resources = ["r0", "r1", "r2", True, False]
    max_len = int(rng.integers(1, 9))
    constant = 2.5 if rng.random() < 0.25 else None
    train = [
        random_sample(rng, acts, resources[:4], 9, 5, f"c{j}", constant)
        for j in range(int(rng.integers(1, 12)))
    ]
    held_out = [
        random_sample(rng, acts + ["Z"], resources + ["r9"], 14, 9, f"h{j}")
        for j in range(int(rng.integers(1, 6)))
    ]
    with warnings.catch_warnings():
        # tiny random training sets can legitimately have constant channels
        warnings.simplefilter("ignore", UserWarning)
        spec = fit_encoder(train, SCHEMA, max_len=max_len)
    samples = train + held_out
    return spec, [samples[i] for i in rng.permutation(len(samples))]


def prop_encoding_invariants(cases: int, seed: int = 71) -> None:
    """Each row keeps its last ``max_len`` events and nothing else, every
    numeric channel lies in [0,1], a static value repeats at each of its
    row's events, activity indices decode back to their labels (0 exactly
    for an unseen one), packing is deterministic, and packing a list gives
    the rows of packing any split of it, one part after the other."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        spec, samples = random_spec_and_samples(rng)
        packed = PackedDataset.from_samples(spec, samples)
        assert_packed_identical(PackedDataset.from_samples(spec, samples), packed)
        kept = [e for x in samples for e in x.events[-spec.max_len :]]
        assert packed.lengths.tolist() == [min(len(x.events), spec.max_len) for x in samples]
        for column in [*packed.cat.values(), *packed.num.values()]:
            assert column.shape == (len(kept),)
        for column in packed.num.values():
            assert ((0.0 <= column) & (column <= 1.0)).all()
        static = packed.num["case:protected"]
        firsts = np.cumsum(packed.lengths) - packed.lengths
        assert static.tolist() == np.repeat(static[firsts], packed.lengths).tolist()
        labels = spec.labels["activity"]
        decoded = [labels[i - 1] if i else None for i in packed.cat["activity"].tolist()]
        assert decoded == [e.activity if e.activity in labels else None for e in kept]
        k = int(rng.integers(1, len(samples)))
        parts = [PackedDataset.from_samples(spec, part) for part in (samples[:k], samples[k:])]
        assert_packed_identical(concat_packed(parts), packed)


def test_encoding_invariants():
    prop_encoding_invariants(100)


def prop_subset_matches_packing(cases: int, seed: int = 83) -> None:
    """``subset(idx)`` gives the arrays of packing the samples in ``idx``'s
    order, for indices with repeats, reversed, a single row, and none."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        spec, samples = random_spec_and_samples(rng)
        packed = PackedDataset.from_samples(spec, samples)
        n = len(samples)
        for idx in (
            rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1))),
            np.arange(n)[::-1],
            np.array([int(rng.integers(0, n))]),
        ):
            want = PackedDataset.from_samples(spec, [samples[i] for i in idx])
            assert_packed_identical(packed.subset(idx), want)
        empty = packed_arrays(packed.subset(np.array([], dtype=np.int64)))
        for name, array in packed_arrays(packed).items():
            assert empty[name].dtype == array.dtype and empty[name].shape == (0,), name


def test_subset_matches_packing():
    prop_subset_matches_packing(100)


def prop_save_load_round_trip(cases: int, seed: int = 89) -> None:
    """``load`` gives back the arrays ``save`` wrote, bit for bit and with
    their dtypes, for packed sample lists and for subsets of them with
    repeated rows; saving the same arrays again writes the same bytes."""
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "split.npz"
        for _ in range(cases):
            spec, samples = random_spec_and_samples(rng)
            packed = PackedDataset.from_samples(spec, samples)
            n = len(samples)
            sha256 = f"{int(rng.integers(0, 2**62)):064x}"
            repeated = rng.integers(0, n, size=int(rng.integers(1, 2 * n + 1)))
            for data in (packed, packed.subset(repeated)):
                data.save(path, {"seed": seed}, sha256)
                written = path.read_bytes()
                assert_packed_identical(PackedDataset.load(path, spec, sha256), data)
                data.save(path, {"seed": seed}, sha256)
                assert path.read_bytes() == written


def test_save_load_round_trip():
    prop_save_load_round_trip(30)


def test_save_writes_the_split_members_in_order_without_timestamps(tmp_path):
    spec = fit_encoder(TRAIN, SCHEMA, max_len=4)
    path = tmp_path / "train.npz"
    PackedDataset.from_samples(spec, TRAIN).save(path, {"seed": 3}, "ab" * 32)
    with zipfile.ZipFile(path) as zf:
        infos = zf.infolist()
    assert [i.filename for i in infos] == [f"{name}.npy" for name in split_members(spec)]
    assert {i.date_time for i in infos} == {(1980, 1, 1, 0, 0, 0)}
    assert {i.compress_type for i in infos} == {zipfile.ZIP_STORED}
    with np.load(path) as npz:
        assert json.loads(str(npz["provenance"])) == {"seed": 3}
        assert str(npz["encoder_sha256"]) == "ab" * 32


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
            Event("A", datetime(2024, 1, 5, i), {"flag": flag})
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
    packed = PackedDataset.from_samples(spec, TRAIN)
    assert len(packed) == 2
    assert packed.cat["activity"].shape == (3,)  # 2 + 1 events, no padding
    assert packed.cat["activity"].dtype == np.int64
    assert packed.num["cost"].dtype == np.float64
    assert packed.lengths.tolist() == [2, 1] and packed.lengths.dtype == np.int64
    assert packed.y.tolist() == [0.0, 1.0]
    assert packed.s.tolist() == [0, 1]
    sub = packed.subset([1])
    assert len(sub) == 1
    assert sub.y.tolist() == [1.0]
    assert sub.cat["activity"].tolist() == [3]
    assert list(sub.cat) == list(packed.cat) and list(sub.num) == list(packed.num)
    with pytest.raises(ValueError):
        PackedDataset.from_samples(spec, [])


def test_benchmark_shim_packs_as_from_samples():
    spec = fit_encoder(TRAIN, SCHEMA, max_len=4)
    assert_packed_identical(
        PackedDataset.from_encoded([encode(spec, s) for s in TRAIN]),
        PackedDataset.from_samples(spec, TRAIN),
    )


@pytest.mark.parametrize("attr", ["resource", "cost", "case:protected"])
def test_from_samples_names_the_first_sample_that_does_not_encode(attr):
    """Packing reads a whole column before it converts one, and 'resource'
    before any numeric, so it meets ``later``'s missing 'resource' before
    ``bad``'s list; the error still names ``bad``, with what packing it alone
    raises."""
    spec = fit_encoder(TRAIN, SCHEMA)
    bad = make_sample(["A"], case_id="bad")  # a list is neither a label nor a number
    if attr == "case:protected":
        bad = replace(bad, static_attrs={attr: [1]})
    else:
        dynamic = {**bad.events[0].dynamic_attrs, attr: [1]}
        bad = replace(bad, events=(replace(bad.events[0], dynamic_attrs=dynamic),))
    later = make_sample(["A"], case_id="later")
    later = replace(later, events=(replace(later.events[0], dynamic_attrs={"cost": 1.0}),))
    with pytest.raises(ValueError) as alone:
        PackedDataset.from_samples(spec, [bad])
    assert str(alone.value).startswith("case 'bad' does not fit encoder.json: TypeError: ")
    with pytest.raises(ValueError) as bulk:
        PackedDataset.from_samples(spec, TRAIN + [bad, later])
    assert str(bulk.value) == str(alone.value)
