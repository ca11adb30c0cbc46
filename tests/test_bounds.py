"""Damping integrals, their decay bounds, and the hierarchy cascade.

The evaluator under test sums the binomial tail P(Bin(j+ell-1, p) >= ell),
p = 1 - e^{-beta t}, as a finite sum of positive terms: a j-term negative
binomial sum for the top order, then one added term per lower order.  For
whole-number ell and j that sum is the damping integral exactly, not an
approximation of it.  Reference values are frozen from
tests/oracles/damping_integral_expm.py, which evaluates the integrals as
absorption probabilities of a sequential phase chain via scipy.linalg.expm;
tests/oracles/damping_integral_partial_fractions.py sums the exact
partial-fraction expansion in adaptive multiple precision and is compared
live over a lattice; tests/oracles/damping_integral_betainc.py is scipy's
regularized incomplete beta function, the package's former evaluator; and
mpmath's betainc at 60 digits checks random (ell, j, beta t).  None shares a
mechanism with the finite sum.
"""
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pchaos.bounds import (
    BoundCascade,
    cascade_bound,
    eval_I,
    eval_I_table,
    exp_bound,
    integrate_hierarchy,
    poly_bound,
    recurrence_residual_sweep,
)
from pchaos.bounds import _LAG_CUT, RESIDUAL_ORDER, _leggauss, _panel_nodes
from pchaos.config import load_config

from conftest import REPO_ROOT
from oracles.damping_integral_betainc import damping_integral_betainc_table
from oracles.damping_integral_partial_fractions import damping_integral_table
from oracles.recurrence_residual_scalar import recurrence_residual

# frozen from tests/oracles/damping_integral_expm.py; the last entry sits at
# 1e-29 where the double-precision oracle itself keeps only ~8 digits
EXPM_ORACLE = [
    (1, 1, 1.0, 1.0, 6.3212055882855767e-01, 1e-12),
    (2, 1, 1.0, 1.0, 3.9957640089372837e-01, 1e-12),
    (3, 2, 1.0, 0.5, 1.7175878444894602e-01, 1e-12),
    (5, 1, 2.0, 0.7, 2.4273747495623033e-01, 1e-12),
    (8, 4, 1.0, 1.0, 3.7701132693315548e-01, 1e-12),
    (16, 1, 1.0, 3.0, 4.4170771448880131e-01, 1e-12),
    (32, 4, 1.0, 0.1, 1.0016093102815284e-29, 1e-6),
    (64, 16, 1.0, 3.0, 9.9999847786905982e-01, 1e-12),
]


def test_against_matrix_exponential_oracle():
    for ell, j, beta, t, want, rel in EXPM_ORACLE:
        got = eval_I(ell, j, beta, t)
        assert got == pytest.approx(want, rel=rel)


def test_against_partial_fraction_oracle():
    ts = (1e-3, 0.1, 1.0, 3.0, 10.0)
    for j in (1, 4, 16):
        got = eval_I_table(j, 64, 1.0, ts)
        for col, t in enumerate(ts):
            want = damping_integral_table(j, 64, 1.0, t)
            big = want > 1e-10
            assert np.allclose(got[big, col], want[big], rtol=1e-13, atol=0.0)


def test_deep_tail_keeps_relative_precision():
    # 4.3355e-99: a fixed absolute tolerance would certify 0.0 here
    with mp.workdps(400):
        p = -mp.expm1(mp.mpf(-0.001))
        want = float(mp.betainc(37, 16, 0, p, regularized=True))
    assert want == pytest.approx(4.3355e-99, rel=1e-4)
    assert eval_I(37, 16, 1.0, 0.001) == pytest.approx(want, rel=1e-13)


def test_against_betainc_oracle_on_the_shipped_lattice():
    # every value the shipped bounds.cfg certifies: the lattice itself and the
    # inner table at each recurrence-sweep quadrature node (largest measured
    # difference 6.9e-15, at a node)
    cfg = load_config(REPO_ROOT / "configs" / "bounds.cfg")
    ell_max, beta = cfg.get_int("ell_max"), cfg.get_float("beta")
    ts = cfg.get_float_list("t")
    cases = []
    for j in cfg.get_int_list("j"):
        cases.append((j, ell_max, ts))
        cases += [(j + 1, ell_max - 1, _panel_nodes(j, beta, t)[0]) for t in ts]
    for j, ell, times in cases:
        got = eval_I_table(j, ell, beta, times)
        want = damping_integral_betainc_table(j, ell, beta, times)
        assert np.all(want > 0.0)
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)


def _betainc_mp(ell: int, j: int, a: float):
    """I^ell_j at beta t = a from mpmath's regularized incomplete beta, 60 digits."""
    with mp.workdps(60):
        if ell == 0:
            return mp.mpf(1)
        return mp.betainc(ell, j, 0, -mp.expm1(-mp.mpf(a)), regularized=True)


@settings(max_examples=80, deadline=None)
@given(
    j=st.one_of(st.integers(1, 64), st.sampled_from((200, 1000))),
    ell=st.integers(0, 128),
    a=st.floats(-4.0, math.log10(20.0)).map(lambda x: 10.0 ** x),
    stretch=st.floats(1.0, 2.0),
)
def test_finite_sum_matches_mpmath_and_is_monotone(j, ell, a, stretch):
    table = eval_I_table(j, ell, 1.0, [a, a * stretch])
    assert np.all(np.isfinite(table)) and np.all((table >= 0.0) & (table <= 1.0))
    assert np.all(np.diff(table, axis=0) <= 0.0)  # falls as ell grows, exactly
    # rises with t, up to the evaluator's accuracy (and below normal doubles)
    assert np.all(table[:, 0] <= table[:, 1] * (1 + 1e-13) + 1e-300)
    # the top order (eval_I) and a lower one reached by the added terms
    for got, order in ((eval_I(ell, j, 1.0, a), ell), (table[ell // 2, 0], ell // 2)):
        want = _betainc_mp(order, j, a)
        if want >= 1e-200:
            assert abs(got - want) <= 1e-13 * want, (order, j, a, got, float(want))


def test_deep_rows_and_large_j_keep_relative_precision():
    # the terms p^l q^j underflow long before these values do; j = 1000
    # puts C(l+j-1, l) past the largest double; at j = 20000 a q = 1 - p
    # off by its rounding error would cost ~6e-13
    for j, ell_max, t in ((16, 128, 0.004), (1, 128, 0.007), (1000, 64, 1e-4),
                          (20000, 32, 1e-3)):
        table = eval_I_table(j, ell_max, 1.0, [t])[:, 0]
        for ell in range(0, ell_max + 1, 8):
            want = _betainc_mp(ell, j, t)
            assert abs(table[ell] - want) <= 1e-13 * want, (j, ell, t)
    assert eval_I(128, 16, 1.0, 0.004) == pytest.approx(6.4561723302525985e-288, rel=1e-13)


def test_working_memory_does_not_grow_with_j():
    ts = np.linspace(0.01, 3.0, 4000)
    peaks = []
    for j in (2, 1000):
        tracemalloc.start()
        try:
            eval_I_table(j, 8, 1.0, ts)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.25 * peaks[0]


def test_largest_shipped_lattice_point_returns_values():
    # the largest (j, ell) of the shipped lattice, where the values reach 5e-51
    cfg = load_config(REPO_ROOT / "configs" / "bounds.cfg")
    j, ell, beta = max(cfg.get_int_list("j")), cfg.get_int("ell_max"), cfg.get_float("beta")
    for t in cfg.get_float_list("t"):
        assert 0.0 < eval_I(ell, j, beta, t) <= 1.0
        assert np.all(recurrence_residual_sweep(ell, j, beta, t) < 1e-10)


def test_order_one_closed_form():
    for j in (1, 2, 7, 16):
        for beta in (0.5, 1.0, 4.0):
            for t in (0.0, 0.1, 1.0, 3.0):
                want = 1.0 - math.exp(-beta * j * t)
                assert eval_I(1, j, beta, t) == pytest.approx(want, abs=1e-12)


def test_order_two_closed_form_at_j_one():
    # two phases at rates beta and 2*beta: the maximum of two unit-rate clocks
    for beta in (0.5, 1.0, 2.0):
        for t in (0.2, 1.0, 2.5):
            want = (1.0 - math.exp(-beta * t)) ** 2
            assert eval_I(2, 1, beta, t) == pytest.approx(want, rel=1e-12)


def test_degenerate_and_extreme_arguments():
    assert eval_I(0, 3, 1.0, 0.5) == 1.0
    assert eval_I(4, 3, 1.0, 0.0) == 0.0
    assert eval_I(2, 1, 1.0, 50.0) == pytest.approx(1.0, abs=1e-12)


def test_values_are_probabilities_and_monotone():
    ts = np.array([0.1, 0.5, 1.0, 2.0, 3.0])
    prev = None
    for ell in (1, 2, 4, 8, 16, 32):
        vals = eval_I_table(2, ell, 1.0, ts)[ell]
        assert np.all((0.0 <= vals) & (vals <= 1.0))
        assert np.all(np.diff(vals) >= -1e-15)          # increasing in t
        if prev is not None:
            assert np.all(vals <= prev + 1e-15)         # decreasing in ell
        prev = vals
    # larger j means faster clocks, so larger probability
    assert eval_I(8, 1, 1.0, 1.0) < eval_I(8, 4, 1.0, 1.0) < eval_I(8, 16, 1.0, 1.0)


def test_table_matches_single_evaluations():
    ts = [0.1, 1.0, 3.0]
    table = eval_I_table(3, 20, 1.0, ts)
    assert table.shape == (21, 3)
    for ell in (0, 1, 7, 20):
        want = eval_I_table(3, ell, 1.0, ts)[ell]
        assert np.allclose(table[ell], want, rtol=1e-11, atol=1e-14)


def test_argument_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        eval_I(-1, 1, 1.0, 1.0)
    with pytest.raises(ValueError, match="at least 1"):
        eval_I(1, 0, 1.0, 1.0)
    with pytest.raises(ValueError, match="beta"):
        eval_I(1, 1, 0.0, 1.0)
    with pytest.raises(ValueError, match="time"):
        eval_I(1, 1, 1.0, -0.5)
    with pytest.raises(ValueError, match="recurrence"):
        recurrence_residual_sweep(0, 1, 1.0, 1.0)


def test_non_finite_time_and_beta_are_rejected():
    # NaN passes every `< 0` test, so each time entry and beta are checked finite
    nan = float("nan")
    with pytest.raises(ValueError, match="time"):
        eval_I(1, 1, 1.0, nan)
    with pytest.raises(ValueError, match="time"):
        eval_I(1, 1, 1.0, math.inf)
    with pytest.raises(ValueError, match="time"):
        eval_I_table(1, 1, 1.0, [0.5, nan])
    with pytest.raises(ValueError, match="time"):
        eval_I_table(1, 4, 1.0, [nan, 0.5])
    with pytest.raises(ValueError, match="time"):
        recurrence_residual_sweep(4, 1, 1.0, nan)
    with pytest.raises(ValueError, match="beta"):
        eval_I(1, 1, nan, 1.0)
    with pytest.raises(ValueError, match="beta"):
        eval_I_table(1, 4, math.inf, [0.5])


@pytest.mark.parametrize("t", [float("nan"), math.inf, -math.inf, -0.5, -1e-30])
@pytest.mark.parametrize("kind", [float, np.float64, np.float32])
def test_bad_scalar_time_is_rejected_everywhere(t, kind):
    # the scalar fast path of the argument check rejects what the array path does
    t = kind(t)
    for call in (lambda: poly_bound(4, 1, 2, 1.0, t), lambda: exp_bound(64, 1, 1.0, t),
                 lambda: eval_I(4, 1, 1.0, t),
                 lambda: recurrence_residual_sweep(4, 1, 1.0, t)):
        with pytest.raises(ValueError, match="time"):
            call()
    for good in (kind(0.0), kind(-0.0), kind(0.5)):
        assert poly_bound(4, 1, 2, 1.0, good) > 0 and exp_bound(64, 1, 1.0, good) is not None


def test_quadrature_nodes_are_shared_read_only():
    # the lag layout: v = beta j (t - s) on panels of width 2 from v = 0, the
    # weights carrying the damping factor e^{-v}
    ss, ww = _panel_nodes(2, 1.0, 3.0)
    ss2, ww2 = _panel_nodes(2, 1.0, 3.0)
    assert np.array_equal(ss, ss2) and np.array_equal(ww, ww2)
    assert ww.sum() == pytest.approx(-math.expm1(-6.0), rel=1e-14)  # int_0^6 e^{-v} dv
    nodes, weights = np.polynomial.legendre.leggauss(RESIDUAL_ORDER)
    v = 1.0 * nodes + 1.0  # the first panel, [0, 2]
    assert np.array_equal(ss[:RESIDUAL_ORDER], 3.0 - v / 2.0)
    assert np.array_equal(ww[:RESIDUAL_ORDER], 1.0 * weights * np.exp(-v))
    with pytest.raises(ValueError):
        _leggauss()[0][0] = 0.0


def test_gauss_legendre_constants_match_leggauss():
    # the literal table is numpy's rule to within 2 ulp, and exact through degree 31
    nodes, weights = _leggauss()
    want_nodes, want_weights = np.polynomial.legendre.leggauss(RESIDUAL_ORDER)
    for got, want in ((nodes, want_nodes), (weights, want_weights)):
        assert got.shape == (RESIDUAL_ORDER,)
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
    for k in range(2 * RESIDUAL_ORDER):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(math.fsum(weights * nodes ** k) - exact) <= 1e-15, k


def test_residual_quadrature_stops_at_the_lag_cut():
    # past v = _LAG_CUT the dropped weight int e^{-v} dv = e^{-_LAG_CUT} is
    # below 2^-60, and 21 panels of width 2 end exactly there
    assert math.exp(-_LAG_CUT) < 2.0 ** -60
    ss, ww = _panel_nodes(1, 1.0, 100.0)
    assert ss.size == 21 * RESIDUAL_ORDER
    nodes, weights = _leggauss()
    assert np.array_equal(ss[-RESIDUAL_ORDER:], 100.0 - (1.0 * nodes + 41.0) / 1.0)
    # (1, 0.5, 1.5e-323): a subnormal t whose lags round past t
    for j, beta, t in ((1, 1.0, 1e-300), (1, 0.5, 1.5e-323), (16, 1.0, 3.0), (100000, 1.0, 1.0),
                       (16, 1e300, 3.0), (16, 1.0, 1e308), (3, 0.7, 19.9), (3, 0.7, 20.1)):
        ss, ww = _panel_nodes(j, beta, t)
        assert ss.size % RESIDUAL_ORDER == 0 and ss.size <= 21 * RESIDUAL_ORDER
        assert np.all((ss >= 0.0) & (ss <= t)) and np.all(ww >= 0.0)


def test_array_time_sweep_equals_scalar_sweep():
    # one inner table over every time's nodes, reduced per time, gives each
    # time the residuals it gets alone, on the shipped lattice and at t = 0
    cfg = load_config(REPO_ROOT / "configs" / "bounds.cfg")
    ell_max, beta = cfg.get_int("ell_max"), cfg.get_float("beta")
    ts = [0.0] + cfg.get_float_list("t")
    for j in cfg.get_int_list("j"):
        sweep = recurrence_residual_sweep(ell_max, j, beta, ts)
        assert sweep.shape == (ell_max, len(ts))
        for k, t in enumerate(ts):
            assert np.array_equal(sweep[:, k], recurrence_residual_sweep(ell_max, j, beta, t))
        assert np.all(sweep[:, 0] == 0.0) and np.max(sweep) < 1e-10
    with pytest.raises(ValueError, match="1-D"):
        recurrence_residual_sweep(4, 1, 1.0, [[0.5]])


def test_recurrence_residual_small():
    for ell, j, t in ((1, 1, 1.0), (4, 2, 0.5), (16, 1, 3.0), (8, 16, 0.1)):
        assert recurrence_residual(ell, j, 1.0, t) < 1e-10


def test_residual_sweep_matches_scalar_residual():
    # the oracle integrates one order on its own panels, at 64 nodes each
    sweep = recurrence_residual_sweep(12, 2, 1.0, 0.8)
    assert sweep.shape == (12,)
    for ell in (1, 5, 12):
        scalar = recurrence_residual(ell, 2, 1.0, 0.8)
        assert sweep[ell - 1] == pytest.approx(scalar, abs=1e-13)
    assert np.max(sweep) < 1e-10


def test_poly_bound_dominates():
    for ell in (1, 4, 16, 64):
        for j in (1, 4):
            for b in (1, 3, 7):
                for t in (0.1, 1.0):
                    assert eval_I(ell, j, 1.0, t) <= poly_bound(ell, j, b, 1.0, t) * (1 + 1e-12)
    with pytest.raises(ValueError, match="positive integer"):
        poly_bound(1, 1, 0, 1.0, 1.0)


def test_poly_bound_past_the_exponential_range():
    # e^{beta b t} = e^720 leaves the double range, the bound 2/(10^6 + 1) e^720
    # = e^706.9 does not; where the bound itself leaves it, it is +inf (which holds)
    want = math.exp(math.log(2 / (10**6 + 1)) + 720.0)
    assert poly_bound(10**6, 1, 1, 240.0, 3.0) == pytest.approx(want, rel=1e-12)
    assert math.isfinite(want) and want > 1e306
    assert poly_bound(4, 1, 7, 100.0, 3.0) == math.inf
    # the values inside the range keep the product's bits
    assert poly_bound(4, 1, 7, 1.0, 3.0) == float((8 / 5) ** 7 * math.exp(21.0))


def test_exp_bound_hypothesis_and_domination():
    # hypothesis j <= (1/3) e^{-2 beta t - 1} ell, checked on both sides of the line
    ell, beta, t = 60, 1.0, 0.1
    cutoff = math.exp(-2 * beta * t - 1) * ell / 3.0
    for j in (1, 2, 4, 8):
        b = exp_bound(ell, j, beta, t)
        assert (b is not None) == (j <= cutoff)
        if b is not None:
            assert eval_I(ell, j, beta, t) <= b * (1 + 1e-12)
    # far outside the hypothesis nothing is claimed
    assert exp_bound(2, 16, 1.0, 3.0) is None


def test_cascade_data_validation():
    with pytest.raises(ValueError, match="j >= 1"):
        BoundCascade(0, 1, 1.0, (1.0,), (0.0,), 1.0)
    with pytest.raises(ValueError, match="beta"):
        BoundCascade(1, 1, 0.0, (1.0,), (0.0,), 1.0)
    with pytest.raises(ValueError, match="cover"):
        BoundCascade(1, 3, 1.0, (1.0,), (0.0,), 1.0)
    with pytest.raises(ValueError, match="at least 1"):
        BoundCascade(1, 1, 1.0, (0.9,), (0.0,), 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        BoundCascade(1, 1, 1.0, (1.0,), (-0.1,), 1.0)
    with pytest.raises(ValueError, match="t0"):
        BoundCascade(1, 1, 1.0, (1.0,), (0.0,), 1.0, t0=2.0)


def test_prefactor_product():
    alpha = (1.5, 1.25, 1.1, 1.0)
    bc = BoundCascade(2, 4, 1.0, alpha, (0.0,) * 4, 1.0)
    assert bc.A(0) == 1.0
    for k in (1, 2, 3, 4):
        assert bc.A(k) == pytest.approx(np.prod(alpha[:k]), rel=1e-15)
    with pytest.raises(ValueError, match="alpha entries"):
        bc.log_A(5)


def test_unit_alpha_cascade_is_exact():
    # with alpha = 1 the closed-form bound solves the equality hierarchy
    # exactly: the leading term is the phase-chain probability and each
    # residue term is its Duhamel integral; the stiff integrator must agree
    for j, ell, t in ((1, 4, 0.8), (2, 6, 1.5), (4, 3, 0.3)):
        r = tuple(0.7 ** k for k in range(ell))
        bc = BoundCascade(j, ell, 1.0, (1.0,) * ell, r, t)
        sup = 0.6
        _, vals = integrate_hierarchy(bc, sup, n_out=3)
        assert vals[0][-1] == pytest.approx(cascade_bound(bc, sup), rel=1e-8)


def test_cascade_bound_dominates_ode_with_growth_factors():
    for j, ell, t in ((1, 8, 1.0), (4, 12, 0.5)):
        ks = range(j, j + ell)
        alpha = tuple(1.0 + k * k / 1e4 for k in ks)
        r = tuple(math.exp(-k / 8.0) for k in ks)
        bc = BoundCascade(j, ell, 1.0, alpha, r, t, t0=t / 3.0)
        _, vals = integrate_hierarchy(bc, 1.0, n_out=5, rtol=1e-9, atol=1e-13)
        xj = vals[0][-1]
        plain = cascade_bound(BoundCascade(j, ell, 1.0, alpha, r, t), 1.0)
        split = cascade_bound(bc, 1.0, 1.0)
        assert xj <= plain * (1 + 1e-6)
        assert xj <= split * (1 + 1e-6)


def test_cascade_bound_split_needs_early_sup():
    bc = BoundCascade(1, 2, 1.0, (1.0, 1.0), (0.0, 0.0), 1.0, t0=0.5)
    with pytest.raises(ValueError, match="split form needs"):
        cascade_bound(bc, 1.0)
    with pytest.raises(ValueError, match="nonnegative"):
        cascade_bound(bc, -1.0, 1.0)


def test_integrate_hierarchy_validation_and_trajectory_shape():
    bc = BoundCascade(2, 3, 1.0, (1.0, 1.0, 1.0), (0.0, 0.0, 0.0), 1.0)
    times, vals = integrate_hierarchy(bc, 1.0, n_out=7)
    assert times.shape == (7,) and vals.shape == (3, 7)
    assert np.all(vals[:, 0] == 0.0)
    assert np.all(np.diff(vals[0]) >= -1e-12)
    with pytest.raises(ValueError, match="k_max"):
        integrate_hierarchy(bc, 1.0, k_max=1)
    with pytest.raises(ValueError, match="closure"):
        integrate_hierarchy(bc, -0.5)
