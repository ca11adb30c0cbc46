"""Damping integrals I^l_j, their closed bounds, and the hierarchy cascade.

The integrals are defined by I^0_j = 1 and the carry recurrence

    I^{l+1}_j(t) = beta * j * exp(-beta*j*t) * int_0^t exp(beta*j*s) I^l_{j+1}(s) ds,

so I^l_j is exactly the probability that a sum of independent exponential
waiting times with rates beta*j, beta*(j+1), ..., beta*(j+l-1) is at most t:
each application of the recurrence convolves one more waiting time onto the
front of the chain, and I^1_j = 1 - e^{-beta j t} is the base case.

That sum is an exponential order statistic.  Among n = j+l-1 independent
Exp(beta) clocks, the gap between the (k-1)-th and the k-th ring is
Exp(beta (n-k+1)) and the gaps are independent (Renyi's representation), so
the l-th ring of the n clocks comes after waiting times with rates beta*n,
beta*(n-1), ..., beta*j -- the same sum.  Hence I^l_j(t) is the probability
that at least l of j+l-1 clocks have rung by t, a binomial tail:

    I^l_j(t) = P(Bin(j+l-1, p) >= l),   p = 1 - e^{-beta t},  q = e^{-beta t}.

For whole-number l and j that tail is a finite sum of positive terms, so it
is evaluated exactly as such, with no special function and no cancellation.
Counting the clocks still silent when the l-th rings (negative binomial)
gives the top order as a j-term sum,

    I^L_j = p^L sum_{b<j} C(L-1+b, b) q^b,

and removing one ring at a time gives every lower order by adding the next
term of the binomial distribution,

    I^l_j = I^{l+1}_j + C(l+j-1, l) p^l q^j.

A table over l = 0..L at fixed j costs O(j + L) per time and O(L) memory.
p is formed as -expm1(-beta t) so that small times keep full relative
precision, and the partial products carry a binary exponent beside their
mantissa, so neither p^L q^j underflowing nor C(L-1+b, b) overflowing costs
precision, for any j.  Against 60-digit mpmath the values agree to within
4e-14 relative wherever they are at least 1e-300, measured for l up to 400
and j up to 1000 (and to 1.2e-14 at j = 20000, l <= 32).  The recurrence
itself is exercised separately by a quadrature residual check
(recurrence_residual_sweep).  It integrates over the lag beta j (t - s),
cut where the damping weight falls below 2^-60, so it takes at most 21
Gauss-Legendre panels for any j, beta and t; its nodes are constants, so
numpy.polynomial is never imported.  One sweep serves every time of a j:
the times share one outer table and one inner table over all their nodes.
Everything downstream (the polynomial and exponential decay bounds, the
cascade bound for hierarchies of differential inequalities, and the direct
ODE integration used to cross-check it) is plain float arithmetic on top of
that evaluator.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "eval_I",
    "eval_I_table",
    "recurrence_residual_sweep",
    "poly_bound",
    "exp_bound",
    "BoundCascade",
    "cascade_bound",
    "integrate_hierarchy",
]


def _check_args(ell: int, j: int, beta: float, t) -> None:
    """Validate the indices, beta, and every entry of the time t (scalar or array)."""
    if ell < 0:
        raise ValueError("order ell must be nonnegative")
    if j < 1:
        raise ValueError("index j must be at least 1")
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError("beta must be positive and finite")
    if isinstance(t, float):  # the scalar bounds' path; np.float64 is a float too
        ok = math.isfinite(t) and t >= 0
    else:
        t = np.asarray(t)
        ok = np.isfinite(t).all() and (t >= 0).all()
    if not ok:
        raise ValueError("time must be finite and nonnegative")


_POW_CHUNK = 1000  # p^ell is raised in chunks whose mantissa powers stay normal doubles


def _top_order(ell: int, j: int, a: np.ndarray):
    """I^ell_j and its last binomial term at damping exponents a = beta t, ell >= 1.

    Returns (i_m, e, t_m, p_m, p_e) with I^ell_j = i_m 2^e, the term
    C(ell+j-1, ell) p^ell q^j = t_m 2^e, and p = p_m 2^p_e (np.frexp).  i_m
    lies in [0.5, 1), or is 0 at t = 0; e is an int64 array.
    """
    p = -np.expm1(-a)
    # The sum needs q to be 1 - p, not only e^{-a} to an ulp: an ulp in q
    # moves q^b by b ulps, and b runs to j.  For p < 1/2, q (1 + rho) is 1 - p
    # exactly (rho is the rounding error of 1 - p).  Past 1/2, e^{-a} is the
    # accurate one and the terms peak at b ~ ell q / p < ell, so rho = 0.
    small = p < 0.5
    q = np.where(small, 1.0 - p, np.exp(-a))
    rho = np.where(small, ((1.0 - q) - p) / np.where(small, q, 1.0), 0.0)  # q may be 0 past 1/2
    # s 2^e = sum_{b<j} c_b, c_b = C(ell-1+b, b) q^b; ds 2^e = sum_b b c_b
    # carries the first-order rho correction, (1+rho)^b = 1 + b rho
    c = np.ones_like(a)
    s = np.ones_like(a)
    ds = np.zeros_like(a)
    e = np.zeros(a.shape, dtype=np.int64)
    for b in range(1, j):
        c = c * ((ell - 1 + b) / b) * q
        ds = ds + b * c
        s, d = np.frexp(s + c)
        c, ds, e = np.ldexp(c, -d), np.ldexp(ds, -d), e + d
    s = s + rho * ds
    term = c * ((ell - 1 + j) / ell) * q * (1.0 + j * rho)  # c_j j / ell, times p^ell below
    p_m, p_e = np.frexp(p)
    e = e + p_e.astype(np.int64) * ell
    for k in range(ell, 0, -_POW_CHUNK):
        f, d = np.frexp(p_m ** min(k, _POW_CHUNK))
        s, term, e = s * f, term * f, e + d
    s, d = np.frexp(s)
    return s, e + d, np.ldexp(term, -d), p_m, p_e


def eval_I(ell: int, j: int, beta: float, t: float) -> float:
    """The damping integral I^ell_j(t) as a float."""
    return float(eval_I_table(j, ell, beta, [t])[ell, 0])


def eval_I_table(j: int, ell_max: int, beta: float, ts) -> np.ndarray:
    """I^L_j at every time in ts for every order L = 0..ell_max.

    Returns an (ell_max+1, len(ts)) array.  Each row below ell_max adds one
    positive binomial term to the row above, so the rows never increase with L.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    _check_args(ell_max, j, beta, ts)
    out = np.ones((ell_max + 1, ts.size))
    if ell_max == 0:
        return out
    with np.errstate(over="ignore"):  # beta t past the double range is inf: p = 1, q = 0
        a = beta * ts
    i_m, e, t_m, p_m, p_e = _top_order(ell_max, j, a)
    # term_ell = term_{ell+1} h_ell 2^-p_e, h_ell = (ell+1) / ((ell+j) p_m), for
    # ell = ell_max-1 .. 1.  A running product of the h can leave the double
    # range, so each h is scaled (exactly) by the power of two that keeps the
    # product near 1, chosen from approximate log2 partial sums.
    ells = np.arange(ell_max - 1, 0, -1)
    h = ((ells + 1) / (ells + j))[:, None] / np.where(p_m == 0.0, 1.0, p_m)  # t = 0: terms are 0
    shift = np.rint(np.cumsum(np.log2(h), axis=0)).astype(np.int64)
    prod = np.cumprod(np.ldexp(h, -np.diff(shift, axis=0, prepend=0)), axis=0)
    terms = np.ldexp(t_m * prod, e + shift - p_e * (ell_max - ells)[:, None])
    # terms and sums lie in [0, 1], so plain doubles hold them: a term below
    # the double range cannot change a sum that is a normal double
    rows = np.cumsum(np.vstack([np.ldexp(i_m, e)[None, :], terms]), axis=0)
    out[1:] = np.minimum(rows[::-1], 1.0)
    return out


RESIDUAL_ORDER = 16  # Gauss-Legendre nodes per panel of the recurrence residual
# the positive half of leggauss(RESIDUAL_ORDER): (node, weight), nodes rising;
# the rule is symmetric, node -x carrying the weight of x
_GAUSS_HALF = (
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
)
_GAUSS_NODES = np.array([-x for x, _ in reversed(_GAUSS_HALF)] + [x for x, _ in _GAUSS_HALF])
_GAUSS_WEIGHTS = np.array([w for _, w in reversed(_GAUSS_HALF)] + [w for _, w in _GAUSS_HALF])
_GAUSS_NODES.flags.writeable = _GAUSS_WEIGHTS.flags.writeable = False
# The residual integral runs over the lag v = beta j (t - s), in damping
# times, up to _LAG_CUT at most: the weight e^{-v} dropped past it is
# e^{-42} < 2^-60, and 21 panels of width 2 reach it.
_LAG_CUT = 42.0


def _leggauss():
    """Gauss-Legendre nodes and weights of order RESIDUAL_ORDER on [-1, 1].

    They are constants (leggauss(RESIDUAL_ORDER), written out), shared
    read-only, so no command imports numpy.polynomial.
    """
    return _GAUSS_NODES, _GAUSS_WEIGHTS


def _panel_nodes(j: int, beta: float, t: float):
    """Times s and weights w with beta j int_0^t e^{-beta j (t-s)} f(s) ds ~ sum w f(s).

    The integral is taken over the lag v = beta j (t - s) on [0, min(beta j t,
    _LAG_CUT)], in Gauss-Legendre panels of width at most 2, so the damping
    factor e^{-v} varies by at most e^2 per panel and there are at most 21
    panels.  The weights carry e^{-v}, taken from the lag itself, so a huge t
    does not cancel to an empty panel; the times are t - v / (beta j), held
    at 0 against rounding.  t must be positive.
    """
    span = min(beta * j * t, _LAG_CUT)
    nodes, weights = _leggauss()
    edges = np.linspace(0.0, span, max(1, math.ceil(span / 2.0)) + 1)
    half = 0.5 * np.diff(edges)[:, None]
    vv = (half * nodes + 0.5 * (edges[:-1] + edges[1:])[:, None]).ravel()
    ww = (half * weights).ravel() * np.exp(-vv)
    return np.maximum(t - vv / (beta * j), 0.0), ww


def recurrence_residual_sweep(ell_max: int, j: int, beta: float, t) -> np.ndarray:
    """Recurrence residuals for every ell = 1..ell_max at one j and every time t.

    The residual at order ell is
    |I^ell_j(t) - beta j int_0^t e^{-beta j (t-s)} I^{ell-1}_{j+1}(s) ds|, the
    integral taken over the lag (see _panel_nodes), so the quadrature stays
    at most 21 panels for any j, beta and t.  The integrand values come from
    the evaluator itself, so this measures how well its values satisfy the
    defining recurrence.  One outer table serves every t, and one inner table
    is evaluated over the panel nodes of all t together, then reduced per t,
    so a whole lattice column of orders and times costs barely more than its
    largest single entry.  For a scalar t the result has shape (ell_max,),
    entry [ell-1] the residual at order ell; for a 1-D array of times it has
    shape (ell_max, len(t)), one column per time.
    """
    if ell_max < 1:
        raise ValueError("the recurrence starts at ell = 1")
    _check_args(ell_max, j, beta, t)
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1:
        raise ValueError("time must be a scalar or a 1-D array")
    cols = np.atleast_1d(ts)
    # the outer values; at t = 0 the integral is empty and they are the residuals
    res = eval_I_table(j, ell_max, beta, cols)[1:]
    live = np.flatnonzero(cols > 0)
    if live.size:
        ss, ww = zip(*(_panel_nodes(j, beta, tk) for tk in cols[live].tolist()))
        starts = np.cumsum([0] + [s.size for s in ss[:-1]])
        inner = eval_I_table(j + 1, ell_max - 1, beta, np.concatenate(ss))
        res[:, live] -= np.add.reduceat(inner * np.concatenate(ww), starts, axis=1)
    res = np.abs(res)
    return res[:, 0] if ts.ndim == 0 else res


def poly_bound(ell: int, j: int, b: int, beta: float, t: float) -> float:
    """Polynomial-decay bound ((j+b)/(j+ell))^b * e^{beta b t} on I^ell_j(t)."""
    _check_args(ell, j, beta, t)
    if b != int(b) or b < 1:
        raise ValueError("exponent b must be a positive integer")
    try:
        return float(((j + b) / (j + ell)) ** b * math.exp(beta * b * t))
    except OverflowError:  # a factor leaves the double range; the bound may not
        try:
            return math.exp(b * math.log((j + b) / (j + ell)) + beta * b * t)
        except OverflowError:
            return math.inf  # the bound leaves it too, and +inf holds


def exp_bound(ell: int, j: int, beta: float, t: float):
    """Stretched-exponential bound exp(-(1/3) e^{-2 beta t - 1} ell) on I^ell_j(t).

    Returns None when the hypothesis j <= (1/3) e^{-2 beta t - 1} ell fails,
    since the bound is simply not claimed there.
    """
    _check_args(ell, j, beta, t)
    rate = math.exp(-2.0 * beta * t - 1.0) * ell / 3.0
    if not j <= rate:
        return None
    return float(math.exp(-rate))


# ---------------------------------------------------------------------------
# the cascade for hierarchies of differential inequalities


class BoundCascade:
    """Data of the closed hierarchy  dx_k/dt <= beta k (alpha_k x_{k+1} - x_k) + r_k.

    alpha and r list the constants for k = j, j+1, ... (at least ell of them);
    the chain is closed ell levels up by a supremum on x_{j+ell}.  t is the
    evaluation time; a split time t0 separates an early window [0, t0] from
    the tail window [t0, t] in the two-supremum form of the bound.
    """

    def __init__(self, j: int, ell: int, beta: float, alpha, r, t: float,
                 t0: float | None = None):
        if j < 1 or ell < 1:
            raise ValueError("need j >= 1 and ell >= 1")
        if beta <= 0:
            raise ValueError("beta must be positive")
        alpha = tuple(float(a) for a in alpha)
        r = tuple(float(x) for x in r)
        if len(alpha) < ell or len(r) < ell:
            raise ValueError("alpha and r must cover k = j .. j+ell-1")
        if any(a < 1.0 for a in alpha):
            raise ValueError("alpha entries must be at least 1")
        if any(x < 0 for x in r):
            raise ValueError("r entries must be nonnegative")
        if t < 0:
            raise ValueError("t must be nonnegative")
        if t0 is not None and not 0 <= t0 <= t:
            raise ValueError("need 0 <= t0 <= t")
        self.j, self.ell, self.beta, self.t, self.t0 = j, ell, beta, t, t0
        self.alpha, self.r = alpha, r

    def log_A(self, k: int) -> float:
        """log of the prefactor A^k_j = alpha_j * ... * alpha_{j+k-1} (A^0_j = 1)."""
        if not 0 <= k <= len(self.alpha):
            raise ValueError("need 0 <= k <= number of alpha entries")
        return math.fsum(math.log(a) for a in self.alpha[:k])

    def A(self, k: int) -> float:
        return math.exp(self.log_A(k))


def cascade_bound(
    bc: BoundCascade, sup_tail: float, sup_tail_early: float | None = None
) -> float:
    """Closed-form bound on x_j(t) from the cascade data.

    Without a split time:
        A^l I^l_j(t) sup_tail
          + (1/beta) sum_{k<l} A^{k+1} I^{k+1}_j(t) r_{j+k} / (alpha_{j+k} (j+k)).

    With bc.t0 set, sup_tail bounds the tail on [t0, t] and sup_tail_early
    bounds it on [0, t0]; the leading term then decays in t - t0 and the early
    window enters through sum_k A^l I^k_{j+l-k}(t0) I^{l-k}_j(t-t0).
    """
    if sup_tail < 0:
        raise ValueError("sup_tail must be nonnegative")
    j, ell, beta, t = bc.j, bc.ell, bc.beta, bc.t
    rsum = 0.0
    for k in range(ell):
        rk = bc.r[k]
        if rk:
            rsum += math.exp(
                bc.log_A(k + 1) - math.log(bc.alpha[k])
            ) * eval_I(k + 1, j, beta, t) * rk / (j + k)
    rsum /= beta
    if bc.t0 is None:
        return bc.A(ell) * eval_I(ell, j, beta, t) * sup_tail + rsum
    if sup_tail_early is None:
        raise ValueError("the split form needs a bound for the tail on [0, t0]")
    if sup_tail_early < 0:
        raise ValueError("sup_tail_early must be nonnegative")
    head = bc.A(ell) * eval_I(ell, j, beta, t - bc.t0) * sup_tail
    early = 0.0
    for k in range(1, ell + 1):
        early += eval_I(k, j + ell - k, beta, bc.t0) * eval_I(ell - k, j, beta, t - bc.t0)
    early *= bc.A(ell) * sup_tail_early
    return head + early + rsum


def integrate_hierarchy(
    bc: BoundCascade,
    closure_value: float,
    k_max: int | None = None,
    n_out: int = 201,
    rtol: float = 1e-11,
    atol: float = 1e-14,
):
    """Integrate the closed hierarchy ODE system with equality signs.

    Solves dx_k/dt = beta k (alpha_k x_{k+1} - x_k) + r_k for k = j .. k_max
    with x_{k_max+1} pinned to the constant closure_value, x(0) = 0, by an
    implicit stiff integrator.  Returns (times, values) with values[m] the
    trajectory of x_{j+m} on n_out uniform output times.  For constant data
    this is the extremal trajectory of the differential inequalities, so
    cascade_bound on the same data dominates values[0] at time t.
    """
    j, beta = bc.j, bc.beta
    if k_max is None:
        k_max = bc.j + bc.ell - 1
    if k_max < j:
        raise ValueError("need k_max >= j")
    n_levels = k_max - j + 1
    if n_levels > len(bc.alpha):
        raise ValueError("alpha and r do not cover k = j .. k_max")
    if closure_value < 0:
        raise ValueError("closure_value must be nonnegative")
    ks = np.arange(j, k_max + 1, dtype=float)
    alpha = np.asarray(bc.alpha[:n_levels])
    r = np.asarray(bc.r[:n_levels])

    def rhs(_, y):
        upper = np.append(y[1:], closure_value)
        return beta * ks * (alpha * upper - y) + r

    def jac(_, y):
        m = np.diag(-beta * ks)
        for i in range(n_levels - 1):
            m[i, i + 1] = beta * ks[i] * alpha[i]
        return m

    from scipy.integrate import solve_ivp  # deferred: no CLI command needs it at start-up

    times = np.linspace(0.0, bc.t, n_out)
    sol = solve_ivp(
        rhs, (0.0, bc.t), np.zeros(n_levels), method="Radau", jac=jac,
        t_eval=times, rtol=rtol, atol=atol,
    )
    if not sol.success:
        raise RuntimeError(f"hierarchy integration failed: {sol.message}")
    return times, sol.y
