"""Wasserstein-1 distances between one-dimensional sample sets.

Two routes: an exact closed form (integral of |F_a - F_b| over the merged
support, no grid), and an entropic-regularized Sinkhorn approximation that
can sit inside a training loss. The Sinkhorn iterations are log-domain
(stabilized) and run in plain NumPy over the sorted samples, where each
soft-min update is a prefix and a suffix log-sum-exp: O(n + m) time and
memory, with no (n, m) cost matrix. Every iteration after the first is
overrelaxed, f <- (1 - w) f + w U(g) and likewise for g with w = OMEGA,
which reaches the same fixed point in fewer iterations (Thibault et al.
2017, arXiv:1711.01851). A safeguard falls back to plain updates (w = 1)
for the rest of a call once the row-marginal violation has gone STALL
iterations without a new minimum. The whole loop is one tape node that,
like every node, carries its own VJP. It differentiates the fixed point
rather than the loop (Luise et al. 2018, arXiv:1805.11897; Eisenberger et
al. 2022, CVPR): one linear solve in the Jacobian of the plan's marginals,
by preconditioned conjugate gradients, gives the gradient from the final
potentials alone, so the node keeps O(n + m) memory whatever the number of
iterations. A call capped before convergence gets this implicit gradient at
its last potentials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Var, custom_op, take

__all__ = ["SinkhornConfig", "SinkhornResult", "exact_w1_1d", "sinkhorn_distance"]

OMEGA = 1.8  # overrelaxation factor of every Sinkhorn iteration after the first
STALL = 30  # iterations without a new minimum violation before w falls back to 1
CG_RTOL = 1e-12  # relative residual at which the backward's linear solve stops
# its cap is CG_CAP steps per sample: CG in floating point can need more than
# the n + m steps of exact arithmetic on the near-singular H of a capped call
CG_CAP = 4


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
    """Entropic-OT settings. ``tol`` is an L1 bound on the row- and on the
    column-marginal violation of the implied plan; ``tol=0`` disables early
    exit so the iteration count is input-independent (useful for finite-
    difference checks). Cost exponent is fixed at 1 (absolute difference)."""

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
    ``marginal_violation`` is the larger of the row and column L1
    violations. ``stalled_at`` is the iteration after which the stall
    safeguard turned overrelaxation off, 0 if it never did.
    """

    var: Var
    value: float
    converged: bool
    iterations: int
    marginal_violation: float
    stalled_at: int = 0


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
    """Solve for the potentials on C = |x_i - y_j| and push the sharp cost
    <P, C> as one tape node whose backward differentiates the fixed point.

    Samples and potentials are kept in units of eps, the samples shifted so
    that their minimum is 0; C is never formed. With a = f + log u and
    b = g + log v, P_ij = exp(a_i + b_j - |t_i - s_j|). The fixed point sets
    the row and column sums (r, c) of P to (u, v); their Jacobian in (f, g)
    is H = [[diag r, P], [P^T, diag c]], so with H lam = d cost / d(f, g) =
    (row_cost, col_cost), the gradient in x_i is the direct term plus
    sum_j P_ij sign(t_i - s_j) (lam_f_i + lam_g_j), and likewise in y_j.
    r and c are the plan's actual sums, so H is PSD with null vector (1, -1),
    to which the right-hand side is orthogonal: a capped call gets this
    gradient at its last potentials.
    """
    xs, ys = x.value, y.value
    n, m = xs.size, ys.size
    eps = config.epsilon
    low = min(xs[0], ys[0])  # C is translation invariant
    log_u = np.full(n, -np.log(n))
    log_v = np.full(m, -np.log(m))
    f_of = _Softmin(xs, ys, low, eps, log_v)  # f from g
    g_of = _Softmin(ys, xs, low, eps, log_u)  # g from f
    f, g, *counts = _solve(f_of, g_of, config)
    a, b = f + log_u, g + log_v
    row_cost, d_x_cost = f_of.moments(a, b)
    total = eps * row_cost.sum()

    def vjp(g_out):
        # an adjoint of x is eps times that of x / eps, so no eps appears
        col_cost, d_y_cost = g_of.moments(b, a)
        (r,), (x_sign,) = f_of.sums(a, b, np.ones((1, m)))
        (c,), (y_sign,) = g_of.sums(b, a, np.ones((1, n)))
        lam_f, lam_g = _implicit_solve(f_of, g_of, a, b, r, c, row_cost, col_cost)
        (x_lam,), (y_lam,) = f_of.sums(a, b, lam_g[None])[1], g_of.sums(b, a, lam_f[None])[1]
        d_x, d_y = d_x_cost + x_lam + lam_f * x_sign, d_y_cost + y_lam + lam_g * y_sign
        return g_out * d_x, g_out * d_y

    var = custom_op((x, y), total, vjp)
    return SinkhornResult(var, float(total), *counts)


def _solve(f_of, g_of, config: SinkhornConfig):
    """The overrelaxed log-domain iterations: the final potentials f, g (in
    units of eps) and the ``converged``, ``iterations``,
    ``marginal_violation`` and ``stalled_at`` of the call.

    With U_f(g) the soft-min over j of C - g and U_g(f) the soft-min over i
    of C - f, iteration k sets f_k = (1 - w_k) f_{k-1} + w_k U_f(g_{k-1})
    (g_0 = 0), then g_k = (1 - w_k) g_{k-1} + w_k U_g(f_k). The first
    iteration is plain (w_1 = 1); later ones use w = OMEGA until the
    row-marginal violation has gone STALL iterations without a new minimum
    while that minimum is above roundoff, and w = 1 from then on. The
    row violation of the plan at (f_k, g_k) is read off the unrelaxed
    U_f(g_k): row i of that plan sums to u_i * exp((f_k - U_f(g_k))_i / eps),
    and U_f(g_k) is what iteration k + 1 relaxes into f_{k+1}. Column j sums
    to v_j * exp((1 - w_k)(g_{k-1} - U_g(f_k))_j / eps), v_j when w_k = 1;
    both L1 violations must be within tol.
    """
    n, m = f_of.t.size, f_of.s.size
    u, v = np.full(n, 1.0 / n), np.full(m, 1.0 / m)

    def column_violation(g_prev, g_up, w):  # the L1 violation of the columns; 0 if w = 1
        return float((v * np.abs(np.expm1((1.0 - w) * (g_prev - g_up)))).sum())

    # below this a violation is rounding noise: f - U_f(g) subtracts terms of
    # the order of the span over eps, and the LSEs run over n + m samples
    roundoff = 16 * (n + m) * np.finfo(float).eps * (1.0 + max(f_of.t[-1], f_of.s[-1]))
    converged = False
    best, best_at, stalled_at = np.inf, 0, 0
    g = np.zeros(m)
    f_up = f_of(g)
    for iterations in range(1, config.max_iters + 1):
        w = OMEGA if iterations > 1 and not stalled_at else 1.0
        f = f_up if w == 1.0 else (1.0 - w) * f + w * f_up
        g_up = g_of(f)
        g_prev, g = g, (g_up if w == 1.0 else (1.0 - w) * g + w * g_up)
        f_up = f_of(g)
        row = float(np.abs(u * np.exp(f - f_up) - u).sum())
        # the column violation is computed only where it can decide the stop
        if config.tol > 0 and row <= config.tol and column_violation(g_prev, g_up, w) <= config.tol:
            converged = True
            break
        if row < best:
            best, best_at = row, iterations
        elif not stalled_at and iterations - best_at >= STALL and best > roundoff:
            stalled_at = iterations
    if config.tol == 0:
        converged = True  # fixed-budget mode: ran exactly as requested
    violation = max(row, column_violation(g_prev, g_up, w))
    return f, g, converged, iterations, violation, stalled_at


def _implicit_solve(f_of, g_of, a, b, r, c, rhs_f, rhs_g):
    """Solve H lam = (rhs_f, rhs_g), H = [[diag r, P], [P^T, diag c]], by
    conjugate gradients preconditioned with diag(r, c), to a relative
    residual of CG_RTOL or CG_CAP * (n + m) steps. Each product H z is one
    ``sums`` on either side."""
    n = r.size
    diag, rhs = np.concatenate([r, c]), np.concatenate([rhs_f, rhs_g])

    def product(z):
        (p_z,), (pt_z,) = f_of.sums(a, b, z[None, n:])[0], g_of.sums(b, a, z[None, :n])[0]
        return diag * z + np.concatenate([p_z, pt_z])

    lam, res = np.zeros_like(rhs), rhs.copy()
    z = res / diag
    step, rz = z, res @ z
    stop = CG_RTOL * np.linalg.norm(rhs)
    for _ in range(CG_CAP * rhs.size):
        if np.linalg.norm(res) <= stop:
            break
        h_step = product(step)
        alpha = rz / (step @ h_step)
        lam += alpha * step
        res -= alpha * h_step
        z = res / diag
        rz, rz_prev = res @ z, rz
        step = z + (rz / rz_prev) * step
    return lam[:n], lam[n:]


_SIGNS = np.array([1.0, -1.0])[:, None, None]  # the positive and negative parts


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
    time and memory. The raw samples decide the sides: a tie
    (sign(t_i - s_j) = 0) enters a sum over sources but neither side of a
    signed one."""

    def __init__(self, t, s, low, eps, log_w):
        self.t, self.s = te, se = (t - low) / eps, (s - low) / eps
        self.up, self.down = log_w + se, log_w - se
        self.below = np.searchsorted(s, t, "left")  # sources < t_i
        self.not_above = np.searchsorted(s, t, "right")  # sources <= t_i
        # t_i's gaps to its nearest sources, and log(s_l - s_{l-1}) -inf-padded
        self.gap_below = te - se[self.below - 1]
        self.gap_above = np.append(se, 0.0)[self.not_above] - te
        with np.errstate(divide="ignore"):
            self.log_gaps = np.log(np.diff(se, prepend=se[0])), np.log(np.diff(se, append=se[-1]))

    def __call__(self, p):
        """The update of p."""
        pre, suf = _prefix_lse(p + self.up), _suffix_lse(p + self.down)
        k = self.not_above
        return -np.logaddexp(pre[k] - self.t, suf[k] + self.t)

    def sums(self, t_w, s_w, z):
        """For each row of z (one entry per source), per target the sums over
        sources of P_ij z_j and of P_ij sign(t_i - s_j) z_j, with P_ij =
        exp(t_w_i + s_w_j - |t_i - s_j|). The positive and negative parts of
        z are the rows of one log-domain sum, so no e^(s_w_j + s_j) is formed.
        A tie enters P z but neither side of the signed sum."""
        with np.errstate(divide="ignore"):
            log_z = np.where(z * _SIGNS > 0, np.log(np.abs(z)) + s_w, -np.inf)
        pre, suf = _prefix_lse(log_z + self.s), _suffix_lse(log_z - self.s)
        lo, hi = t_w - self.t, t_w + self.t
        # each: the sum over the positive part of z less that over the negative
        below = np.subtract(*np.exp(pre[..., self.below] + lo))
        not_above = np.subtract(*np.exp(pre[..., self.not_above] + lo))
        above = np.subtract(*np.exp(suf[..., self.not_above] + hi))
        return not_above + above, below - above

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
