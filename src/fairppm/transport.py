"""Wasserstein-1 distances between one-dimensional sample sets.

Two routes: an exact closed form (integral of |F_a - F_b| over the merged
support, no grid), and an entropic-regularized Sinkhorn approximation that
can sit inside a training loss. The Sinkhorn iterations are log-domain
(stabilized) and run in plain NumPy; the whole loop is one tape node that,
like every node, carries its own VJP. It replays the stored potentials in
reverse, so its gradient is the exact adjoint of the unrolled iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Var, custom_op, take

__all__ = ["SinkhornConfig", "SinkhornResult", "exact_w1_1d", "sinkhorn_distance"]


def exact_w1_1d(a, b) -> float:
    """Exact W1 between the uniform empirical measures on ``a`` and ``b``.

    Computed as the integral of |F_a - F_b| over the merged support, which
    is piecewise constant between consecutive order statistics. For equal
    sample counts this equals the mean absolute difference of the sorted
    samples.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("exact_w1_1d requires two nonempty sample sets")
    a_sorted = np.sort(a)
    b_sorted = np.sort(b)
    support = np.sort(np.concatenate([a_sorted, b_sorted]))
    deltas = np.diff(support)
    f_a = np.searchsorted(a_sorted, support[:-1], side="right") / a.size
    f_b = np.searchsorted(b_sorted, support[:-1], side="right") / b.size
    return float(np.sum(np.abs(f_a - f_b) * deltas))


@dataclass(frozen=True)
class SinkhornConfig:
    """Entropic-OT settings. ``tol`` is an L1 bound on the row-marginal
    violation of the implied plan; ``tol=0`` disables early exit so the
    iteration count is input-independent (useful for finite-difference
    checks). Cost exponent is fixed at 1 (absolute difference)."""

    epsilon: float = 0.01
    max_iters: int = 200
    tol: float = 1e-6

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.tol < 0:
            raise ValueError("tol must be >= 0")


@dataclass
class SinkhornResult:
    """Sharp transport cost <P, C> plus convergence bookkeeping.

    ``var`` is the differentiable scalar (use in losses); ``value`` is its
    float. Non-convergence is reported through ``converged``, never raised.
    """

    var: Var
    value: float
    converged: bool
    iterations: int
    marginal_violation: float


def _canonical_key(values: np.ndarray):
    return (values.size, tuple(values.tolist()))


def sinkhorn_distance(a, b, config: SinkhornConfig | None = None) -> SinkhornResult:
    """Entropic W1 between two 1-D sample sets with uniform weights.

    ``a`` and ``b`` may be tape variables (gradients flow to them through
    the fused Sinkhorn node) or plain arrays (a throwaway tape is used).
    Inputs are sorted and the two sides put in a canonical order before
    iterating, so the result is symmetric in (a, b) and invariant to sample
    permutation; gradient routing follows the sort indices.
    """
    config = config or SinkhornConfig()
    if isinstance(a, Var):
        tape = a.tape
    elif isinstance(b, Var):
        tape = b.tape
    else:
        tape = Tape()
    av = a if isinstance(a, Var) else tape.constant(np.asarray(a, dtype=np.float64))
    bv = b if isinstance(b, Var) else tape.constant(np.asarray(b, dtype=np.float64))
    if av.value.ndim != 1 or bv.value.ndim != 1:
        raise ValueError("sinkhorn_distance expects 1-D sample sets")
    if av.value.size == 0 or bv.value.size == 0:
        raise ValueError("sinkhorn_distance requires two nonempty sample sets")
    if not (np.isfinite(av.value).all() and np.isfinite(bv.value).all()):
        raise ValueError("sinkhorn_distance requires finite inputs")

    a_sorted = take(av, np.argsort(av.value, kind="stable"))
    b_sorted = take(bv, np.argsort(bv.value, kind="stable"))
    if _canonical_key(b_sorted.value) < _canonical_key(a_sorted.value):
        a_sorted, b_sorted = b_sorted, a_sorted
    return _sinkhorn_node(a_sorted, b_sorted, config)


def _sinkhorn_node(x: Var, y: Var, config: SinkhornConfig) -> SinkhornResult:
    """Run the log-domain iterations on C = |x_i - y_j| and push the sharp
    cost <P, C> as one tape node.

    Iteration k sets f_k to the soft-min over j of C - g_{k-1} (g_0 = 0),
    then g_k to the soft-min over i of C - f_k. The row-marginal violation
    of the plan at (f_k, g_k) is read off the next f-update: row i of that
    plan sums to u_i * exp((f_k - f_{k+1})_i / eps), and f_{k+1} is the
    next iteration's f.
    """
    xs, ys = x.value, y.value
    n, m = xs.size, ys.size
    eps = config.epsilon
    log_u = np.full(n, -np.log(n))
    log_v = np.full(m, -np.log(m))
    u = np.full(n, 1.0 / n)
    cost = np.abs(xs[:, None] - ys[None, :])
    kernel = _Kernel(cost, eps)
    record = x.tape.nodes[x.idx].needs_grad or y.tape.nodes[y.idx].needs_grad
    history = []  # (f_k, g_k) per iteration, replayed by the backward pass

    converged = False
    f_next = kernel.update(np.zeros(m), log_v, 1)
    for iterations in range(1, config.max_iters + 1):
        f = f_next
        g = kernel.update(f, log_u, 0)
        f_next = kernel.update(g, log_v, 1)
        violation = float(np.abs(u * np.exp((f - f_next) / eps) - u).sum())
        if record:
            history.append((f, g))
        if config.tol > 0 and violation <= config.tol:
            converged = True
            break
    if config.tol == 0:
        converged = True  # fixed-budget mode: ran exactly as requested

    plan = np.exp(
        (f[:, None] + g[None, :] - cost) * (1.0 / eps) + log_u[:, None] + log_v[None, :]
    )
    total = np.sum(plan * cost)

    def vjp(g_out):
        # the sharp cost first, then each iteration's two soft-min updates in
        # reverse; every adjoint w.r.t. C lands in d_cost
        inner = g_out * cost * plan * (1.0 / eps)
        d_cost = g_out * plan - inner
        d_f, d_g = inner.sum(axis=1), inner.sum(axis=0)  # adjoints of f_K, g_K
        for k in range(len(history) - 1, -1, -1):
            f_k, g_k = history[k]
            w = kernel.weights(f_k, log_u, g_k, 0)  # the update g_k of f_k
            w *= d_g[None, :]
            d_cost += w
            d_f = d_f - kernel.row_sums(w)
            g_prev = history[k - 1][1] if k else np.zeros(m)
            w = kernel.weights(g_prev, log_v, f_k, 1)  # the update f_k of g_{k-1}
            w *= d_f[:, None]
            d_cost += w
            # f_{k-1} reaches the loss only through g_{k-1}
            d_f, d_g = 0.0, -kernel.col_sums(w)
        # dC/dx_i = sign(x_i - y_j); sign(0) = 0 matches the even split of
        # |.| at a tie
        d_cost *= np.sign(xs[:, None] - ys[None, :])
        return d_cost.sum(axis=1), -d_cost.sum(axis=0)

    var = custom_op((x, y), total, vjp if record else None)
    return SinkhornResult(
        var=var,
        value=float(total),
        converged=converged,
        iterations=iterations,
        marginal_violation=violation,
    )


class _Kernel:
    """The soft-min updates over one (n, m) cost matrix, sharing one scratch
    buffer. A whole-matrix NumPy pass costs about as much as the ``exp``
    itself, so the cost is scaled by -1/eps once and the sums are
    matrix-vector products."""

    def __init__(self, cost: np.ndarray, eps: float):
        n, m = cost.shape
        self.eps = eps
        self.neg_cost = cost * (-1.0 / eps)
        self.buf = np.empty((n, m))
        self.ones = (np.ones(n), np.ones(m))

    def row_sums(self, a):
        return a @ self.ones[1]

    def col_sums(self, a):
        return self.ones[0] @ a

    def _logits(self, pot, log_w, axis):
        """(pot - C) / eps + log_w, with ``pot`` and ``log_w`` along ``axis``."""
        return np.add(
            self.neg_cost, np.expand_dims(pot / self.eps + log_w, 1 - axis), out=self.buf
        )

    def update(self, pot, log_w, axis):
        """One potential update, the soft-min
        -eps * logsumexp((pot - C) / eps + log_w) over ``axis``."""
        z = self._logits(pot, log_w, axis)
        shift = z.max(axis=axis)
        z -= np.expand_dims(shift, axis)
        np.exp(z, out=z)
        sums = self.row_sums(z) if axis == 1 else self.col_sums(z)
        return -self.eps * (shift + np.log(sums))

    def weights(self, pot, log_w, out, axis):
        """The softmax weights behind ``out = update(pot, log_w, axis)``,
        i.e. d out / d C; they sum to 1 along ``axis``. Returns the scratch
        buffer."""
        z = self._logits(pot, log_w, axis)
        z += np.expand_dims(out / self.eps, axis)
        return np.exp(z, out=z)
