"""The synthetic generator against the per-case loop it replaced, bit for bit.

``reference_generate_synthetic_log`` is that loop, copied verbatim: it casts
every drawn value with ``int()``, ``bool()`` or ``float()``, builds each gap
and resource label afresh and draws the score with ``rng.normal(loc, 0.15)``.
The generator makes the same draws in the same order around less Python
work, so it must return an equal log whose CSV keeps every byte.
"""

from __future__ import annotations

import tempfile
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairppm.eventlog import (
    SYNTH_SCHEMA,
    BiasSpec,
    Event,
    EventLog,
    Trace,
    _round_half_up,
    generate_synthetic_log,
    without_cyclic_gc,
    write_event_log,
)


@without_cyclic_gc
def reference_generate_synthetic_log(spec: BiasSpec, seed: int) -> EventLog:
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


def assert_same_log(spec: BiasSpec, seed: int) -> None:
    ours, theirs = generate_synthetic_log(spec, seed), reference_generate_synthetic_log(spec, seed)
    assert ours == theirs
    with tempfile.TemporaryDirectory() as tmp:
        paths = Path(tmp, "ours.csv"), Path(tmp, "theirs.csv")
        write_event_log(ours, paths[0])
        write_event_log(theirs, paths[1])
        assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("n_cases", [1, 2, 7, 2000])
@pytest.mark.parametrize("preset", sorted(BiasSpec.PRESETS))
def test_generator_matches_the_reference_on_the_presets(preset, n_cases):
    assert_same_log(BiasSpec.preset(preset, n_cases=n_cases), seed=n_cases)


@pytest.mark.parametrize("proxy_corr", [0.0, 1.0])
@pytest.mark.parametrize("p_s1", [0.0, 1.0])
def test_generator_matches_the_reference_with_one_group(p_s1, proxy_corr):
    assert_same_log(BiasSpec(n_cases=200, p_s1=p_s1, proxy_corr=proxy_corr), seed=3)


def alphabet(size: int, target_at: int) -> tuple:
    names = [f"a{k}" for k in range(size - 1)]
    names.insert(target_at, "target")
    return tuple(names)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("size", range(3, 10))
def test_generator_matches_the_reference_on_each_alphabet(size, where):
    # 3 to 9 names give 0 to 2 optional steps and 0 to 3 closers
    target_at = {"first": 0, "middle": size // 2, "last": size - 1}[where]
    spec = BiasSpec(n_cases=60, activities=alphabet(size, target_at), target_activity="target")
    assert_same_log(spec, seed=size)


@st.composite
def specs(draw):
    size = draw(st.integers(3, 9))
    rate = st.floats(0.0, 1.0)
    return BiasSpec(
        n_cases=draw(st.integers(1, 40)),
        activities=alphabet(size, draw(st.integers(0, size - 1))),
        target_activity="target",
        p_s1=draw(rate),
        r0=draw(rate),
        r1=draw(rate),
        proxy_corr=draw(rate),
    )


@settings(max_examples=100, deadline=None)
@given(spec=specs(), seed=st.integers(0, 2**32 - 1))
def test_generator_matches_the_reference_property(spec, seed):
    assert_same_log(spec, seed)
