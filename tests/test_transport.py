"""Exact 1-D Wasserstein-1: the closed form and its tape node.

Oracles: scipy.stats.wasserstein_distance (independent exact W1), the
sorted-matching closed form for equal sample counts, and one-sided finite
differences for the node's gradient. W1 is piecewise linear in the
samples, and the node's VJP is its right-derivative, so a forward
difference over a step shorter than the gap to the next sample equals it
up to rounding, at ties too.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.stats

from conftest import sorted_matching_w1
from fairppm.autodiff import Tape
from fairppm.transport import exact_w1_1d, w1_distance


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
# w1_distance: the tape node


def node_with_grads(a, b):
    """The node's value and its gradients in ``a`` and in ``b``."""
    tape = Tape()
    va, vb = tape.leaf(a), tape.leaf(b)
    out = w1_distance(va, vb)
    tape.backward(out)
    return float(out.value), tape.grad(va), tape.grad(vb)


def forward_differences(a, b, step: float = 1e-7):
    """(W1 with one sample moved right by ``step`` - W1) / ``step``, for
    every sample of ``a`` and then of ``b``."""
    base = exact_w1_1d(a, b)
    diffs = []
    for side in (0, 1):
        moved = [a.copy(), b.copy()]
        out = np.empty(moved[side].size)
        for i in range(out.size):
            moved[side][i] += step
            out[i] = (exact_w1_1d(*moved) - base) / step
            moved[side][i] = (a, b)[side][i]
        diffs.append(out)
    return diffs


def random_sides(rng: np.random.Generator, max_side: int = 20):
    n, m = rng.integers(1, max_side + 1, size=2)
    return rng.random(n), rng.random(m)


def test_w1_node_value_is_exact_w1(rng):
    for _ in range(20):
        a, b = random_sides(rng)
        assert node_with_grads(a, b)[0] == exact_w1_1d(a, b)


def test_w1_node_gradient_is_the_right_derivative_at_ties():
    # ties within a side and across the sides, and a single sample
    cases = [
        (np.array([0.2, 0.5, 0.5, 0.8, 0.3]), np.array([0.5, 0.2, 0.9, 0.5])),
        (np.array([0.5, 0.5]), np.array([0.5])),
        (np.array([0.4]), np.array([0.4, 0.4, 0.7])),
    ]
    for a, b in cases:
        _, grad_a, grad_b = node_with_grads(a, b)
        fd_a, fd_b = forward_differences(a, b)
        np.testing.assert_allclose(grad_a, fd_a, rtol=0, atol=1e-6)
        np.testing.assert_allclose(grad_b, fd_b, rtol=0, atol=1e-6)
    # [0.5, 0.5] against [0.5]: moving either 0.5 of a right opens a gap of
    # 1/2 between the CDFs, moving b's opens one of 1
    _, grad_a, grad_b = node_with_grads(np.array([0.5, 0.5]), np.array([0.5]))
    assert grad_a.tolist() == [0.5, 0.5] and grad_b.tolist() == [1.0]


def test_w1_distance_rejects_bad_inputs():
    tape = Tape()
    with pytest.raises(ValueError):
        w1_distance(tape.leaf(np.array([])), tape.leaf(np.array([0.5])))
    with pytest.raises(ValueError):
        w1_distance(tape.leaf(np.array([[0.5]])), tape.leaf(np.array([0.5])))


def prop_w1_node_swap(cases: int, seed: int = 23) -> None:
    """Swapping the groups swaps the value's arguments and the gradients."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        a, b = random_sides(rng)
        value, grad_a, grad_b = node_with_grads(a, b)
        swapped, grad_b_swapped, grad_a_swapped = node_with_grads(b, a)
        assert swapped == value
        assert np.array_equal(grad_a_swapped, grad_a) and np.array_equal(grad_b_swapped, grad_b)


def test_w1_node_swap():
    prop_w1_node_swap(100)


def prop_w1_node_translation_invariance(cases: int, seed: int = 41) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        a, b = random_sides(rng)
        shift = float(rng.uniform(-5.0, 5.0))
        assert abs(node_with_grads(a + shift, b + shift)[0] - node_with_grads(a, b)[0]) <= 1e-9


def test_w1_node_translation_invariance():
    prop_w1_node_translation_invariance(100)


def prop_w1_node_permutation_equivariance(cases: int, seed: int = 43) -> None:
    """Permuting the samples of a side permutes its gradient alike."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        a, b = random_sides(rng)
        # a coarse grid makes ties within and across the sides likely
        a, b = np.round(a * 8) / 8, np.round(b * 8) / 8
        value, grad_a, grad_b = node_with_grads(a, b)
        pa, pb = rng.permutation(a.size), rng.permutation(b.size)
        permuted, grad_pa, grad_pb = node_with_grads(a[pa], b[pb])
        assert permuted == value
        assert np.array_equal(grad_pa, grad_a[pa]) and np.array_equal(grad_pb, grad_b[pb])


def test_w1_node_permutation_equivariance():
    prop_w1_node_permutation_equivariance(100)


def prop_w1_node_gradcheck(cases: int, seed: int = 53) -> None:
    """The gradient matches one-sided finite differences (step 1e-7) to 1e-6."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        a, b = random_sides(rng, max_side=8)
        _, grad_a, grad_b = node_with_grads(a, b)
        fd_a, fd_b = forward_differences(a, b)
        worst = max(np.abs(grad_a - fd_a).max(), np.abs(grad_b - fd_b).max())
        assert worst <= 1e-6, f"w1 grad off by {worst:.2e} on a={a.tolist()}, b={b.tolist()}"


def test_w1_node_gradcheck():
    prop_w1_node_gradcheck(100)
