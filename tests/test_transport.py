"""Wasserstein distances: exact closed form and Sinkhorn approximation.

Oracles: scipy.stats.wasserstein_distance (independent exact W1), the
sorted-matching closed form for equal sample counts, central finite
differences for gradients, soft-min updates and plan sums over the dense
cost matrix for the linear-time ones, and the overrelaxed Sinkhorn loop on
the dense cost matrix with a dense implicit gradient
(conftest.reference_sinkhorn) for the fused Sinkhorn node; the same oracle
with ``transport.OMEGA`` set to 1 is plain Sinkhorn. The node's gradient is
that of the fixed point, so gradient checks run on calls converged to a
tight tol, and a converged gradient must not depend on the relaxation
schedule that reached the fixed point.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

import conftest
from conftest import dense_softmin, grad_close, reference_sinkhorn, sorted_matching_w1
from fairppm import transport
from fairppm.autodiff import Tape
from fairppm.transport import STALL, SinkhornConfig, _Softmin, exact_w1_1d, sinkhorn_distance


# ---------------------------------------------------------------------------
# exact_w1_1d


def test_w1_identity(rng):
    a = rng.random(17)
    assert exact_w1_1d(a, a.copy()) == 0.0


def test_w1_point_masses():
    assert exact_w1_1d([0.2], [0.7]) == pytest.approx(0.5, abs=1e-15)


def test_w1_two_point_example():
    # sorted matching: (|0.1-0.2| + |0.3-0.6|) / 2
    assert exact_w1_1d([0.1, 0.3], [0.2, 0.6]) == pytest.approx(0.2, abs=1e-15)


def test_w1_rejects_empty():
    with pytest.raises(ValueError):
        exact_w1_1d([], [0.5])
    with pytest.raises(ValueError):
        exact_w1_1d([0.5], [])


def prop_w1_matches_scipy(cases: int, seed: int = 11) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        n, m = int(rng.integers(1, 200)), int(rng.integers(1, 200))
        a = rng.random(n)
        b = rng.random(m)
        ours = exact_w1_1d(a, b)
        ref = scipy.stats.wasserstein_distance(a, b)
        assert ours == pytest.approx(ref, abs=1e-12)
        if n == m:
            assert ours == pytest.approx(sorted_matching_w1(a, b), abs=1e-12)


def test_w1_matches_scipy():
    prop_w1_matches_scipy(120)


def test_w1_equal_counts_equals_sorted_matching(rng):
    for _ in range(50):
        n = int(rng.integers(1, 100))
        a, b = rng.random(n), rng.random(n)
        assert exact_w1_1d(a, b) == pytest.approx(sorted_matching_w1(a, b), abs=1e-12)


# ---------------------------------------------------------------------------
# sinkhorn: values


def test_sinkhorn_config_validation():
    with pytest.raises(ValueError):
        SinkhornConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        SinkhornConfig(max_iters=0)
    with pytest.raises(ValueError):
        SinkhornConfig(tol=-1.0)


def test_sinkhorn_identity_is_near_zero(rng):
    a = rng.random(20)
    for eps in (0.1, 0.01):
        result = sinkhorn_distance(a, a.copy(), SinkhornConfig(epsilon=eps))
        assert 0.0 <= result.value <= eps * np.log(a.size) + 1e-6


def test_sinkhorn_point_masses_exact():
    # a single source and target force the plan; the cost is |0.2 - 0.7|
    for eps in (0.1, 0.01, 0.001):
        result = sinkhorn_distance([0.2], [0.7], SinkhornConfig(epsilon=eps))
        assert result.value == pytest.approx(0.5, abs=1e-12)
        assert result.converged


def test_sinkhorn_close_to_exact_at_small_epsilon(rng):
    a, b = rng.random(50), rng.random(50)
    exact = exact_w1_1d(a, b)
    result = sinkhorn_distance(a, b, SinkhornConfig(epsilon=1e-3, max_iters=5000))
    assert abs(result.value - exact) / exact <= 0.05


def test_sinkhorn_rejects_bad_inputs():
    with pytest.raises(ValueError):
        sinkhorn_distance([], [0.5])
    with pytest.raises(ValueError):
        sinkhorn_distance([0.5], [np.nan])
    with pytest.raises(ValueError):
        sinkhorn_distance([[0.5]], [0.5])


def test_sinkhorn_nonconvergence_is_flagged_not_raised(rng):
    a, b = rng.random(30), rng.random(30)
    result = sinkhorn_distance(a, b, SinkhornConfig(epsilon=1e-3, max_iters=2, tol=1e-12))
    assert not result.converged
    assert result.iterations == 2
    assert np.isfinite(result.value)
    assert result.marginal_violation > 1e-12


def test_sinkhorn_fixed_budget_mode(rng):
    a, b = rng.random(10), rng.random(12)
    result = sinkhorn_distance(a, b, SinkhornConfig(epsilon=0.05, max_iters=37, tol=0.0))
    assert result.converged
    assert result.iterations == 37
    assert np.isfinite(result.marginal_violation)


# ---------------------------------------------------------------------------
# sinkhorn: invariants


def prop_sinkhorn_symmetry(cases: int, seed: int = 23) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        n, m = int(rng.integers(1, 20)), int(rng.integers(1, 20))
        a, b = rng.random(n), rng.random(m)
        cfg = SinkhornConfig(epsilon=0.05, max_iters=100)
        ab = sinkhorn_distance(a, b, cfg).value
        ba = sinkhorn_distance(b, a, cfg).value
        assert abs(ab - ba) <= 1e-9


def test_sinkhorn_symmetry():
    prop_sinkhorn_symmetry(100)


def prop_sinkhorn_epsilon_monotone(cases: int, seed: int = 31) -> None:
    """|sinkhorn - exact| is non-increasing over eps in {0.1, 0.01, 0.001}.

    Small-eps runs may hit the iteration cap; the reported marginal
    violation then certifies how far the value can sit from the true
    eps-fixpoint (costs are <= 1, so the value slack is about the
    violation itself). Comparisons get that much allowance.
    """
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        n = int(rng.integers(2, 16))
        m = int(rng.integers(2, 16))
        a, b = rng.random(n), rng.random(m)
        exact = exact_w1_1d(a, b)
        results = [
            sinkhorn_distance(a, b, SinkhornConfig(epsilon=eps, max_iters=5000))
            for eps in (0.1, 0.01, 0.001)
        ]
        errors = [abs(r.value - exact) for r in results]
        for i in (0, 1):
            slack = 1e-6 + results[i].marginal_violation + results[i + 1].marginal_violation
            assert errors[i] + slack >= errors[i + 1]


def test_sinkhorn_epsilon_monotone():
    prop_sinkhorn_epsilon_monotone(40)


def prop_sinkhorn_translation_invariance(cases: int, seed: int = 41) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        n, m = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        a, b = rng.random(n), rng.random(m)
        shift = float(rng.uniform(-5.0, 5.0))
        cfg = SinkhornConfig(epsilon=0.05, max_iters=200)
        base = sinkhorn_distance(a, b, cfg).value
        moved = sinkhorn_distance(a + shift, b + shift, cfg).value
        assert abs(base - moved) <= 1e-9


def test_sinkhorn_translation_invariance():
    prop_sinkhorn_translation_invariance(100)


def prop_sinkhorn_shift_sensitivity(cases: int, seed: int = 43) -> None:
    """Shifting only b by delta moves the distance by ~delta for separated sets."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        n = int(rng.integers(2, 12))
        a = rng.uniform(0.0, 0.15, size=n)
        b = rng.uniform(0.5, 0.65, size=n)
        delta = float(rng.uniform(0.05, 0.2))
        cfg = SinkhornConfig(epsilon=0.01, max_iters=2000)
        base = sinkhorn_distance(a, b, cfg).value
        moved = sinkhorn_distance(a, b + delta, cfg).value
        assert abs((moved - base) - delta) <= 0.1 * delta


def test_sinkhorn_shift_sensitivity():
    prop_sinkhorn_shift_sensitivity(50)


# ---------------------------------------------------------------------------
# sinkhorn: the linear-time soft-min update against a dense one


# a coarse grid makes duplicates within a set and ties across sets likely
sample = st.one_of(st.integers(0, 8).map(lambda k: k / 8), st.floats(0.0, 1.0))
samples = st.lists(sample, min_size=1, max_size=40).map(lambda v: np.sort(np.array(v)))
SPREAD = np.linspace(0.0, 1.0, 40)


@settings(max_examples=150, deadline=None)
@given(
    x=samples,
    y=samples,
    eps=st.sampled_from([0.1, 0.01, 1e-3]),
    pot_seed=st.integers(0, 2**32 - 1),
)
@example(x=SPREAD, y=SPREAD[::2] + 0.01, eps=1e-3, pot_seed=0)  # e^(A_j) alone would overflow
def test_linear_softmin_matches_dense_property(x, y, eps, pot_seed):
    rng = np.random.default_rng(pot_seed)
    pot = rng.normal(scale=0.3, size=y.size)
    log_w = np.log(rng.dirichlet(np.ones(y.size)))
    out = _Softmin(x, y, min(x[0], y[0]), eps, log_w)(pot / eps)
    ref = dense_softmin(pot, np.abs(x[:, None] - y[None, :]), eps, log_w, axis=1)
    np.testing.assert_allclose(eps * out, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@settings(max_examples=150, deadline=None)
@given(
    x=samples,
    y=samples,
    eps=st.sampled_from([0.1, 0.01, 1e-3]),
    rows=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(x=SPREAD, y=SPREAD[::2] + 0.01, eps=1e-3, rows=2, seed=0)  # e^(s_w_j + s_j) overflows
def test_softmin_sums_match_dense_property(x, y, eps, rows, seed):
    # P z and the signed sum P_ij sign(x_i - y_j) z_j from the dense plan; a
    # coarse grid puts ties x_i == y_j in most examples, and a tie counts in
    # P z but in neither side of the signed sum
    rng = np.random.default_rng(seed)
    diff = x[:, None] - y[None, :]
    s_w = rng.normal(scale=0.3, size=y.size) / eps + np.log(rng.dirichlet(np.ones(y.size)))
    t_w = -scipy.special.logsumexp(s_w[None, :] - np.abs(diff) / eps, axis=1)  # rows sum to 1
    plan = np.exp(t_w[:, None] + s_w[None, :] - np.abs(diff) / eps)
    z = rng.normal(size=(rows, y.size))
    z[:, rng.random(y.size) < 0.2] = 0.0
    p_z, signed = _Softmin(x, y, min(x[0], y[0]), eps, np.zeros(y.size)).sums(t_w, s_w, z)
    bound = 1e-12 * (np.abs(z) @ plan.T)
    assert (np.abs(p_z - z @ plan.T) <= bound).all()
    assert (np.abs(signed - z @ (plan * np.sign(diff)).T) <= bound).all()


def test_sinkhorn_memory_is_linear_in_the_sample_count():
    # 200 iterations with a backward at n = m = 5000; three (n, m) float64
    # arrays would take 600 MB, and keeping the potentials of every
    # iteration about 56 MB
    rng = np.random.default_rng(5)
    tape = Tape()
    a, b = tape.leaf(rng.random(5000)), tape.leaf(rng.random(5000))
    tracemalloc.start()
    try:
        result = sinkhorn_distance(a, b, SinkhornConfig(epsilon=0.01, max_iters=200, tol=0.0))
        tape.backward(result.var)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.iterations == 200
    assert np.isfinite(tape.grad(a)).all() and np.isfinite(tape.grad(b)).all()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MB"


# ---------------------------------------------------------------------------
# sinkhorn: gradients


def sinkhorn_with_grads(fn, a, b, cfg: SinkhornConfig):
    tape = Tape()
    va, vb = tape.leaf(a), tape.leaf(b)
    result = fn(va, vb, cfg)
    tape.backward(result.var)
    return result, np.concatenate([tape.grad(va), tape.grad(vb)])


def oracle_cases() -> dict:
    rng = np.random.default_rng(67)
    return {
        "n<m": (rng.random(17), rng.random(29)),
        "n>m, swapped": (rng.random(64), rng.uniform(0.2, 1.2, 48)),
        "n=1": (rng.random(1), rng.random(12)),
        "ties": (np.array([0.2, 0.5, 0.5, 0.8, 0.3]), np.array([0.5, 0.2, 0.9, 0.5])),
    }


def sinkhorn_fd_case(rng: np.random.Generator, max_side: int = 8):
    n = int(rng.integers(1, max_side + 1))
    m = int(rng.integers(1, max_side + 1))
    a = rng.random(n)
    b = rng.random(m)
    return a, b


def sinkhorn_grad_vs_fd(a, b, cfg: SinkhornConfig, step: float = 1e-5) -> None:
    """Check the gradients of a converged call against central differences."""
    tape = Tape()
    va, vb = tape.leaf(a), tape.leaf(b)
    result = sinkhorn_distance(va, vb, cfg)
    assert result.converged
    tape.backward(result.var)
    ga, gb = tape.grad(va).copy(), tape.grad(vb).copy()
    for arr, grad, other, swap in ((a, ga, b, False), (b, gb, a, True)):
        for i in range(arr.size):
            orig = arr[i]
            arr[i] = orig + step
            hi = sinkhorn_distance(*((other, arr) if swap else (arr, other)), cfg).value
            arr[i] = orig - step
            lo = sinkhorn_distance(*((other, arr) if swap else (arr, other)), cfg).value
            arr[i] = orig
            fd = (hi - lo) / (2 * step)
            assert grad_close(float(grad[i]), fd), (
                f"sinkhorn grad mismatch (swap={swap}) at {i}: ad={grad[i]!r} fd={fd!r}"
            )


def prop_sinkhorn_gradcheck(cases: int, seed: int = 53) -> None:
    rng = np.random.default_rng(seed)
    cfg = SinkhornConfig(epsilon=0.05, max_iters=50_000, tol=1e-12)
    for _ in range(cases):
        a, b = sinkhorn_fd_case(rng)
        sinkhorn_grad_vs_fd(a, b, cfg)


def test_sinkhorn_gradcheck():
    prop_sinkhorn_gradcheck(30)


def test_stopped_call_has_the_gradient_of_its_fixed_point():
    # the 64-vs-48 case of the oracle test at eps = 1e-3 converges at tol
    # 1e-6 in 543 iterations; its gradient must be that of the tightly
    # converged call, not the adjoint of the 543 iterations it happened to run
    a, b = oracle_cases()["n>m, swapped"]
    _, stopped = sinkhorn_with_grads(sinkhorn_distance, a, b, SinkhornConfig(1e-3, 5000))
    tight, converged = sinkhorn_with_grads(
        sinkhorn_distance, a, b, SinkhornConfig(1e-3, 5000, tol=1e-12)
    )
    assert tight.converged
    assert np.abs(stopped - converged).max() <= 1e-4 * np.abs(converged).max()


def test_converged_gradient_does_not_depend_on_the_relaxation(monkeypatch):
    # the stall safeguard turns relaxation off in the relaxed call; the plain
    # call (OMEGA = 1) takes another path to the same fixed point
    spread = np.linspace(0.0, 1.0, 40)
    a, b, cfg = spread, spread[::2] + 0.03, SinkhornConfig(epsilon=0.01, max_iters=5000)
    relaxed, relaxed_grad = sinkhorn_with_grads(sinkhorn_distance, a, b, cfg)
    monkeypatch.setattr(transport, "OMEGA", 1.0)
    plain, plain_grad = sinkhorn_with_grads(sinkhorn_distance, a, b, cfg)
    assert relaxed.converged and plain.converged
    assert (relaxed.stalled_at, plain.stalled_at) == (1 + STALL, 0)
    assert relaxed.iterations != plain.iterations
    assert np.abs(relaxed_grad - plain_grad).max() <= 1e-6 * np.abs(plain_grad).max()


def test_sinkhorn_gradients_flow_in_losses(rng):
    # composite usage: gradient of (sinkhorn + mean) w.r.t. inputs is finite
    a, b = rng.random(6), rng.random(4)
    tape = Tape()
    va, vb = tape.leaf(a), tape.leaf(b)
    result = sinkhorn_distance(va, vb, SinkhornConfig(epsilon=0.05, max_iters=50))
    tape.backward(result.var)
    assert np.isfinite(tape.grad(va)).all()
    assert np.isfinite(tape.grad(vb)).all()
    assert np.abs(tape.grad(va)).sum() > 0


# ---------------------------------------------------------------------------
# sinkhorn: the fused node against the dense oracle


@pytest.mark.parametrize("tol", [0.0, 1e-6])
@pytest.mark.parametrize("epsilon", [0.1, 0.01, 0.001])
def test_fused_sinkhorn_matches_unrolled_reference(epsilon, tol):
    # with tol > 0, a budget of 3 caps every case but n=1; a capped call's
    # gradient is the implicit one at its last potentials
    for max_iters in (3, 300):
        cfg = SinkhornConfig(epsilon=epsilon, max_iters=max_iters, tol=tol)
        for name, (a, b) in oracle_cases().items():
            got, got_grad = sinkhorn_with_grads(sinkhorn_distance, a, b, cfg)
            ref, ref_grad = sinkhorn_with_grads(reference_sinkhorn, a, b, cfg)
            label = f"{name}, max_iters={max_iters}"
            assert (got.iterations, got.converged) == (ref.iterations, ref.converged), label
            assert abs(got.value - ref.value) <= 1e-12 * abs(ref.value), label
            assert np.abs(got_grad - ref_grad).max() <= 1e-9 * np.abs(ref_grad).max(), label
            assert got.marginal_violation == pytest.approx(
                ref.marginal_violation, rel=1e-6, abs=1e-12
            ), label
            assert got.stalled_at == ref.stalled_at, label


# ---------------------------------------------------------------------------
# sinkhorn: overrelaxation and its stall safeguard


@pytest.mark.parametrize("epsilon", [0.05, 0.01])
def test_relaxed_sinkhorn_reaches_the_plain_fixed_point(epsilon, monkeypatch):
    # each call stops with both marginals within tol (L1) of exact, and a
    # unit of misplaced mass moves the cost by at most the span of the
    # samples, so two converged calls sit within about 2 * tol * span
    rng = np.random.default_rng(71)
    cfg = SinkhornConfig(epsilon=epsilon, max_iters=5000)
    for _ in range(4):
        a = rng.random(int(rng.integers(10, 40)))
        b = rng.beta(2.0, 3.0, int(rng.integers(10, 40)))
        relaxed = sinkhorn_distance(a, b, cfg)
        with monkeypatch.context() as plain_omega:
            plain_omega.setattr(transport, "OMEGA", 1.0)
            plain = reference_sinkhorn(a, b, cfg)
        assert relaxed.converged and plain.converged
        span = max(a.max(), b.max()) - min(a.min(), b.min())
        assert abs(relaxed.value - plain.value) <= 2 * cfg.tol * span
        if epsilon == 0.01:
            assert relaxed.iterations < plain.iterations


def test_stall_safeguard_falls_back_to_plain_updates():
    # a 40-point spread against every other point moved by 3 eps: the relaxed
    # violation never again reaches its first-iteration value
    spread = np.linspace(0.0, 1.0, 40)
    cfg = SinkhornConfig(epsilon=1e-3)
    result = sinkhorn_distance(spread, spread[::2] + 3e-3, cfg)
    assert result.stalled_at == 1 + STALL
    assert np.isfinite(result.value)
    assert result.converged == (result.marginal_violation <= cfg.tol)


def test_converged_needs_the_column_marginal_within_tol_too(monkeypatch):
    # a relaxed g leaves column j of the plan off by v_j |exp((1-w)(g_{k-1} -
    # U_g(f_k))_j) - 1|; here that is still above tol at the iteration where
    # the row violation first reaches it, so the call must run on
    rng = np.random.default_rng(0)
    a, b = rng.random(34), rng.beta(2.0, 3.0, 27)
    cfg = SinkhornConfig(epsilon=0.05, max_iters=5000)
    seen = []  # (row, column) violations of the oracle's dense plan, per iteration
    measure = conftest._marginal_violations

    def recording(*args):
        seen.append(measure(*args))
        return seen[-1]

    monkeypatch.setattr(conftest, "_marginal_violations", recording)
    ref = reference_sinkhorn(a, b, cfg)
    first = next(k for k, (row, _) in enumerate(seen, 1) if row <= cfg.tol)
    assert seen[first - 1][1] > cfg.tol
    capped = sinkhorn_distance(a, b, SinkhornConfig(epsilon=0.05, max_iters=first))
    assert not capped.converged and capped.marginal_violation > cfg.tol
    got = sinkhorn_distance(a, b, cfg)
    assert got.converged and got.iterations == ref.iterations > first
    assert max(seen[-1]) <= cfg.tol and got.marginal_violation <= cfg.tol
