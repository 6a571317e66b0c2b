"""Wasserstein-1 distances between one-dimensional sample sets.

Two routes: an exact closed form (integral of |F_a - F_b| over the merged
support, no grid), and an entropic-regularized Sinkhorn approximation that
can sit inside a training loss. The Sinkhorn iterations are log-domain
(stabilized) and run in plain NumPy over the sorted samples, where each
soft-min update is a prefix and a suffix log-sum-exp: O(n + m) time and
memory, with no (n, m) cost matrix. The whole loop is one tape node that,
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
    next iteration's f. Samples and potentials are kept in units of eps,
    the samples shifted so that their minimum is 0; C is never formed.
    """
    xs, ys = x.value, y.value
    n, m = xs.size, ys.size
    eps = config.epsilon
    low = min(xs[0], ys[0])  # C is translation invariant
    log_u = np.full(n, -np.log(n))
    log_v = np.full(m, -np.log(m))
    u = np.full(n, 1.0 / n)
    f_of = _Softmin(xs, ys, low, eps, log_v)  # f from g
    g_of = _Softmin(ys, xs, low, eps, log_u)  # g from f
    record = x.tape.nodes[x.idx].needs_grad or y.tape.nodes[y.idx].needs_grad
    history = []  # f_k, g_k and their updates' slopes, replayed by the backward pass

    converged = False
    f_next, f_next_sums = f_of(np.zeros(m))
    for iterations in range(1, config.max_iters + 1):
        f, f_sums = f_next, f_next_sums
        g, g_sums = g_of(f)
        f_next, f_next_sums = f_of(g)
        violation = float(np.abs(u * np.exp(f - f_next) - u).sum())
        if record:
            history.append((f, g, f_of.slope(f, f_sums), g_of.slope(g, g_sums)))
        if config.tol > 0 and violation <= config.tol:
            converged = True
            break
    if config.tol == 0:
        converged = True  # fixed-budget mode: ran exactly as requested

    row_cost, d_x_cost = f_of.moments(f + log_u, g + log_v)
    total = eps * row_cost.sum()

    def vjp(g_out):
        # the sharp cost first, then each iteration's two soft-min updates in
        # reverse. In units of eps, d cost / d f is row_cost / eps, and an
        # adjoint of x is eps times that of x / eps, so no eps appears.
        col_cost, d_y_cost = g_of.moments(g + log_v, f + log_u)
        d_f, d_g = g_out * row_cost, g_out * col_cost  # adjoints of f_K, g_K
        d_x, d_y = g_out * d_x_cost, g_out * d_y_cost
        for k in range(len(history) - 1, -1, -1):
            f_k, g_k, f_slope, g_slope = history[k]
            d_pot, d_t, d_s = g_of.vjp(d_g, f_k, g_k, g_slope)  # the update g_k of f_k
            d_y += d_t
            d_x += d_s
            g_prev = history[k - 1][1] if k else np.zeros(m)
            # f_{k-1} reaches the loss only through g_{k-1}
            d_g, d_t, d_s = f_of.vjp(d_f + d_pot, g_prev, f_k, f_slope)
            d_x += d_t
            d_y += d_s
            d_f = 0.0
        return d_x, d_y

    var = custom_op((x, y), total, vjp if record else None)
    return SinkhornResult(var, float(total), converged, iterations, violation)


def _prefix_lse(v):
    """Entry k of each row: log-sum-exp of v[..., :k] (-inf at k = 0)."""
    out = np.empty(v.shape[:-1] + (v.shape[-1] + 1,))
    out[..., 0] = -np.inf
    np.logaddexp.accumulate(v, axis=-1, out=out[..., 1:])
    return out


def _suffix_lse(v):
    """Entry k of each row: log-sum-exp of v[..., k:] (-inf at the end)."""
    return _prefix_lse(v[..., ::-1])[..., ::-1]


class _Softmin:
    """The soft-min update out_i = -LSE_j(p_j + lw_j - |t_i - s_j|) of the
    potentials on sorted targets t from those on sorted sources s, in
    units of eps: t and s are the samples less ``low``, over eps. A source
    at or below t_i enters as A_j - t_i with A_j = p_j + lw_j + s_j, one
    above it as B_j + t_i with B_j = p_j + lw_j - s_j, so the sum over j is
    a prefix LSE of A and a suffix LSE of B at t_i's search index: O(n + m)
    time and memory. The raw samples decide the sides, so a tie
    (sign(t_i - s_j) = 0) falls on neither side."""

    def __init__(self, t, s, low, eps, log_w):
        self.t, self.s = te, se = (t - low) / eps, (s - low) / eps
        self.up, self.down = log_w + se, log_w - se
        self.below = np.searchsorted(s, t, "left")  # sources < t_i
        self.not_above = np.searchsorted(s, t, "right")  # sources <= t_i
        self.t_below = np.searchsorted(t, s, "left")  # targets < s_j
        self.t_not_above = np.searchsorted(t, s, "right")  # targets <= s_j
        # t_i's gaps to its nearest sources, and log(s_l - s_{l-1}) -inf-padded
        self.gap_below = te - se[self.below - 1]
        self.gap_above = np.append(se, 0.0)[self.not_above] - te
        with np.errstate(divide="ignore"):
            self.log_gaps = np.log(np.diff(se, prepend=se[0])), np.log(np.diff(se, append=se[-1]))

    def __call__(self, p):
        """The update of p, and the prefix and suffix LSEs it was built from."""
        pre, suf = _prefix_lse(p + self.up), _suffix_lse(p + self.down)
        k = self.not_above
        return -np.logaddexp(pre[k] - self.t, suf[k] + self.t), (pre, suf)

    def slope(self, out, sums):
        """d out_i / d t_i for ``out, sums = self(p)``: the weights of the
        sources below t_i less those of the sources above it."""
        below = np.exp(sums[0][self.below] + (out - self.t))
        return below - np.exp(sums[1][self.not_above] + (out + self.t))

    def vjp(self, d_out, p, out, slope):
        """Adjoints of p, t and s for the adjoint ``d_out`` of ``out``, with
        ``out`` and ``slope`` from ``self(p)`` and ``self.slope``. The positive
        and negative parts of d_out are the two rows of one log-domain sum,
        so no e^A or e^B is formed."""
        a, b = p + self.up, p + self.down
        with np.errstate(divide="ignore"):
            log_d = np.log(np.maximum(np.stack([d_out, -d_out]), 0.0)) + out
        lt = np.exp(_prefix_lse(log_d + self.t)[:, self.t_below] + b)  # targets < s_j
        suf = _suffix_lse(log_d - self.t)
        ge = np.exp(suf[:, self.t_below] + a)  # targets >= s_j
        gt = np.exp(suf[:, self.t_not_above] + a)  # targets > s_j
        lt, ge, gt = lt[0] - lt[1], ge[0] - ge[1], gt[0] - gt[1]
        return -(ge + lt), d_out * slope, lt - gt

    def moments(self, t_w, s_w):
        """Per target, the sums over sources of P_ij |t_i - s_j| and of
        P_ij (1 - |t_i - s_j|) sign(t_i - s_j), with P_ij =
        exp(t_w_i + s_w_j - |t_i - s_j|): the sharp cost and its direct
        adjoint. Below t_i, |t_i - s_j| = (t_i - s_{k-1}) + (s_{k-1} - s_j)
        for the nearest source s_{k-1}, and with e_j = e^{s_w_j + s_j},
        sum_{j<k} e_j (s_{k-1} - s_j) is the prefix sum of
        (s_l - s_{l-1}) sum_{j<l} e_j; above t_i likewise. Every term is
        nonnegative, so nothing cancels (t_i * sum e_j - sum e_j s_j would)."""
        pre, suf = _prefix_lse(s_w + self.s), _suffix_lse(s_w - self.s)
        far_below = _prefix_lse(self.log_gaps[0] + pre[:-1])[self.below]
        far_above = _suffix_lse(self.log_gaps[1] + suf[1:])[self.not_above]
        lo, hi = t_w - self.t, t_w + self.t
        m_below, m_above = np.exp(pre[self.below] + lo), np.exp(suf[self.not_above] + hi)
        below = m_below * self.gap_below + np.exp(far_below + lo)
        above = m_above * self.gap_above + np.exp(far_above + hi)
        return below + above, m_below - m_above - below + above
