"""Weighted errors, histogram statistics, and the paired cumulant estimator.

Exact-enumeration unbiasedness of the replica combiner is certified by
tests/oracles/pair_cumulant_enumeration.py; here the same combiner is
checked mechanically and statistically.  The replica bootstrap, which forms
all resamples at once, must match the per-resample loop of
tests/oracles/bootstrap_loop.py bit for bit.
"""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pchaos import metrics
from pchaos.core import GridField, TorusGrid, fourier_field, product_field
from pchaos.metrics import (
    DivergenceReport,
    _binned_bootstrap,
    _cell_indices,
    _replica_count_matrix,
    bin_masses,
    chi_squared_from_samples,
    divergence_report_from_samples,
    paired_pair_cumulant_difference,
    weighted_l2_error,
)
from pchaos.particles import extract_marginal_samples, sample_initial

from oracles.bootstrap_loop import bootstrap_loop, chi2_stat


# ---------------------------------------------------------------------------
# weighted grid error


def test_weighted_l2_analytic():
    g = TorusGrid(128)
    rho = fourier_field(g, [1.0, 0.5])
    eps = 0.01
    # norm of a multiplicative perturbation eps*sin relative to the weight:
    # integral (eps sin rho)^2 / rho = eps^2 integral sin^2 rho = eps^2 / 2
    gamma = GridField(g, 1, eps * np.sin(2 * np.pi * g.points) * rho.values)
    assert weighted_l2_error(gamma, rho) == pytest.approx(eps ** 2 / 2, rel=1e-10)
    assert weighted_l2_error(GridField(g, 1, np.zeros(128)), rho) == 0.0
    # arity-2 field against the product weight: integral of rho x rho is one
    g2 = GridField(g, 2, np.outer(rho.values, rho.values))
    assert weighted_l2_error(g2, rho) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError, match="strictly positive"):
        weighted_l2_error(gamma, GridField(g, 1, np.zeros(128)))
    with pytest.raises(ValueError, match="arity-1"):
        weighted_l2_error(gamma, g2)


# ---------------------------------------------------------------------------
# histogram machinery


def _bin_integrals(m, bins):
    """Closed-form integrals of e^{2 pi i m x} over the cells [b/bins, (b+1)/bins)."""
    if m == 0:
        return np.full(bins, 1 / bins, dtype=complex)
    e = np.exp(2j * np.pi * m * np.arange(bins + 1) / bins)
    return (e[1:] - e[:-1]) / (2j * np.pi * m)


def test_bin_masses_aggregates_cells():
    # each cell takes the exact integral of the field over it, not the sum
    # of the grid points inside it (a rectangle rule shifted by half a cell)
    g = TorusGrid(16)
    f = fourier_field(g, [1.0, 0.5], [0.0, -0.25])
    m = bin_masses(f, 4)
    assert m.shape == (4,)
    assert m.sum() == pytest.approx(1.0, abs=1e-14)
    # 0.5 cos - 0.25 sin is the real part of (0.5 + 0.25i) e^{2 pi i x}
    want = (_bin_integrals(0, 4) + (0.5 + 0.25j) * _bin_integrals(1, 4)).real
    assert np.allclose(m, want, rtol=0, atol=1e-15)
    assert not np.allclose(m, f.values.reshape(4, 4).sum(axis=1) * g.h, rtol=0, atol=1e-3)
    with pytest.raises(ValueError, match="divide"):
        bin_masses(f, 5)


def _trig_terms(rng, M, arity):
    """Up to five terms c cos(2 pi m.x + phase) with every |m_a| < M/2 and |c| <= 1."""
    return [(rng.integers(-(M // 2) + 1, M // 2, size=arity), rng.uniform(-1, 1),
             rng.uniform(0, 2 * np.pi)) for _ in range(rng.integers(1, 6))]


@settings(max_examples=60, deadline=None)
@given(arity=st.sampled_from([1, 2]), log_m=st.integers(2, 6), log_bins=st.integers(0, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_bin_masses_integrate_trig_polynomials_exactly(arity, log_m, log_bins, seed):
    M, bins = 2 ** log_m, 2 ** min(log_bins, log_m)
    terms = _trig_terms(np.random.default_rng(seed), M, arity)
    axes = np.meshgrid(*[TorusGrid(M).points] * arity, indexing="ij")
    values = sum(c * np.cos(2 * np.pi * sum(k * x for k, x in zip(m, axes)) + phase)
                 for m, c, phase in terms)
    want = 0
    for m, c, phase in terms:
        cell = np.exp(1j * phase)
        for k in m:
            cell = np.multiply.outer(cell, _bin_integrals(k, bins))
        want = want + c * cell.real
    got = bin_masses(GridField(TorusGrid(M), arity, values), bins)
    assert got.shape == (bins,) * arity
    assert np.abs(got - want).max() <= 1e-14


@pytest.mark.parametrize("M, bins", [(16, 4), (64, 32), (256, 32), (48, 8)])
def test_bin_masses_of_a_density_and_its_product(M, bins):
    rho = fourier_field(TorusGrid(M), [1.0, 0.5, 0.1], [0.0, 0.2, -0.05])
    m1 = bin_masses(rho, bins)
    assert abs(m1.sum() - 1.0) <= 1e-14
    m2 = bin_masses(product_field(rho, 2), bins)
    assert abs(m2.sum() - 1.0) <= 1e-14
    assert np.abs(m2 - np.multiply.outer(m1, m1)).max() <= 1e-14


def test_bin_masses_arity_two():
    g = TorusGrid(8)
    f2 = GridField(g, 2, np.ones((8, 8)))
    m = bin_masses(f2, 2)
    assert m.shape == (2, 2)
    assert np.allclose(m, 0.25)


def test_chi_squared_from_samples_null_and_alternative():
    g = TorusGrid(64)
    f = fourier_field(g, [1.0, 0.5])
    n = 40_000
    x = sample_initial(f, n, np.random.default_rng(23))[:, None, :]
    est0, se0 = chi_squared_from_samples(x, f, 16)
    assert se0 > 0
    assert abs(est0) < 5 * se0 + 1e-4            # unbiased under the null
    # against the uniform reference the statistic estimates the binned
    # chi-squared of the sampling law itself
    q = bin_masses(f, 16)
    want = float(((q - 1 / 16) ** 2 / (1 / 16)).sum())
    est1, se1 = chi_squared_from_samples(x, fourier_field(g, [1.0]), 16)
    assert est1 == pytest.approx(want, abs=5 * se1 + 2e-3)


def test_chi_squared_cell_cap_and_zero_mass():
    g = TorusGrid(64)
    f = fourier_field(g, [1.0, 0.5])
    x = sample_initial(f, 500, np.random.default_rng(1))[:, None, :]
    with pytest.raises(ValueError, match="too many cells"):
        chi_squared_from_samples(x, f, 64)
    hole = GridField(g, 1, np.where(g.points < 0.5, 2.0, 0.0))
    # the step's interpolant rings below zero in the empty half
    with pytest.raises(ValueError, match=r"reference mass that is not positive: "
                                         r"-0\.00167, in cell \(4,\) of 8\^1"):
        chi_squared_from_samples(x, hole, 8)
    # a nan grid value makes nan masses, which fail the same refusal
    gap = 1.0 + 0.5 * np.cos(2 * np.pi * g.points)
    gap[3] = np.nan
    with pytest.raises(ValueError, match=r"reference mass that is not positive: nan, in cell"):
        chi_squared_from_samples(x, GridField(g, 1, gap), 8)
    with pytest.raises(ValueError, match="lie in"):
        chi_squared_from_samples(np.ones((5000, 1, 1)), f, 8)
    # a NaN coordinate compares false both ways, and is refused all the same
    x[7, 0, 0] = np.nan
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\)"):
        chi_squared_from_samples(x, f, 8)


@pytest.mark.parametrize("ids", [
    np.repeat(np.arange(6), 50),                       # extract_marginal_samples' labels
    np.tile([7, 3, 3, 12, 0, 7], 50),                  # gaps, unsorted
    np.repeat([-4, 2, 900, 5, 1, 8], 50),              # negative and large
    np.repeat(np.arange(6.0), 50),                     # float labels
])
def test_replica_count_matrix_matches_unique_and_add_at(ids):
    ravel = np.random.default_rng(4).integers(0, 16, size=len(ids))
    reps, inv = np.unique(ids, return_inverse=True)
    want = np.zeros((len(reps), 16), dtype=np.int64)
    np.add.at(want, (inv, ravel), 1)
    got = _replica_count_matrix(ravel, ids, 16)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _clumped_cloud():
    """Six replicas of 200 points; only replica 0 reaches [0, 0.25), so a
    resample that leaves it out has empty cells there."""
    rng = np.random.default_rng(8)
    x = np.concatenate([rng.uniform(0.0, 0.5, 200)] + [rng.uniform(0.25, 1.0, 200) for _ in range(5)])
    return x[:, None, None], np.repeat(np.arange(6), 200)


@pytest.mark.parametrize("block", [None, 50])  # 50 draws: blocks of 8 and of 1 resample
@pytest.mark.parametrize("j", [1, 2])
def test_bootstrap_matches_the_per_resample_loop(j, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(metrics, "_BOOTSTRAP_BLOCK", block)
    g = TorusGrid(64)
    f = fourier_field(g, [1.0, 0.5], [0.0, 0.2])
    if j == 1:
        (x, ids), bins = _clumped_cloud(), 16
    else:
        pos = sample_initial(f, 60 * 40, np.random.default_rng(6)).reshape(60, 40, 1)
        (x, ids), bins = extract_marginal_samples(pos, 2, True), 4
    ref = product_field(f, j)
    est, boots, n, R = _binned_bootstrap(x, ref, bins, ids, 3, 0xD1)
    ravel, axes = _cell_indices(x, bins)
    mat = _replica_count_matrix(ravel, ids, bins ** axes)
    q = bin_masses(ref, bins).reshape(-1)
    assert _same_bits(boots, bootstrap_loop(mat, q, metrics._N_BOOTSTRAP, 3, 0xD1))
    assert _same_bits(np.float64(est), np.float64(chi2_stat(mat.sum(axis=0), n, q, bins ** axes)))
    assert (n, R) == (len(ids), len(np.unique(ids)))


# ---------------------------------------------------------------------------
# paired pair-cumulant estimator


def _single(u, abar, bbar):
    """One system's estimate: the paired difference against an all-zero control."""
    zero = np.zeros(len(u))
    return paired_pair_cumulant_difference(u, abar, bbar, zero, zero, zero)


def test_replica_combiner_statistical_consistency():
    # correlated within-replica pairs with known covariance
    rng = np.random.default_rng(77)
    R = 4000
    cov = 0.3
    z = rng.standard_normal((R, 3))
    a = np.sqrt(cov) * z[:, 0] + np.sqrt(1 - cov) * z[:, 1]
    b = np.sqrt(cov) * z[:, 0] + np.sqrt(1 - cov) * z[:, 2]
    est, se = _single(a * b, a, b)
    assert se > 0
    assert est == pytest.approx(cov, abs=5 * se)
    with pytest.raises(ValueError, match="three replicas"):
        _single(a[:2], a[:2], b[:2])


def test_paired_difference_identities():
    rng = np.random.default_rng(5)
    R = 50
    u_a, aa, ba = rng.random(R), rng.random(R), rng.random(R)
    u_b, ab, bb = rng.random(R), rng.random(R), rng.random(R)
    est, se = paired_pair_cumulant_difference(u_a, aa, ba, u_b, ab, bb)
    ea, _ = _single(u_a, aa, ba)
    eb, _ = _single(u_b, ab, bb)
    assert est == pytest.approx(ea - eb, rel=1e-12)
    # identical inputs cancel exactly, and so does their jackknife spread
    est0, se0 = paired_pair_cumulant_difference(u_a, aa, ba, u_a, aa, ba)
    assert est0 == 0.0 and se0 == 0.0
    with pytest.raises(ValueError, match="share a length"):
        paired_pair_cumulant_difference(u_a, aa, ba, u_b[:-1], ab[:-1], bb[:-1])


def test_paired_difference_cancels_shared_noise():
    # coupled systems sharing their randomness: the differenced estimator is
    # far tighter than the single-system estimator
    rng = np.random.default_rng(10)
    R = 2000
    shared_u = rng.standard_normal(R)
    shared_m = 0.3 * rng.standard_normal(R)
    signal = 1e-3
    u_a = signal + shared_u + 1e-4 * rng.standard_normal(R)
    u_b = shared_u + 1e-4 * rng.standard_normal(R)
    a_a = shared_m + 1e-4 * rng.standard_normal(R)
    a_b = shared_m + 1e-4 * rng.standard_normal(R)
    est, se = paired_pair_cumulant_difference(u_a, a_a, a_a, u_b, a_b, a_b)
    _, se_single = _single(u_a, a_a, a_a)
    assert se < se_single / 20
    assert est == pytest.approx(signal, abs=5 * se)


# ---------------------------------------------------------------------------
# aggregated report


def test_divergence_report_fields_and_roundtrip():
    g = TorusGrid(64)
    f = fourier_field(g, [1.0, 0.5])
    x = sample_initial(f, 20_000, np.random.default_rng(2))[:, None, :]
    ids = np.repeat(np.arange(200), 100)
    rep = divergence_report_from_samples(x, f, 8, replica_ids=ids)
    payload = json.loads(rep.to_json())
    assert list(payload) == ["chi_squared", "se_chi_squared", "bins", "n_samples", "n_replicas"]
    assert payload["bins"] == 8
    assert payload["n_samples"] == 20_000
    assert payload["n_replicas"] == 200
    assert DivergenceReport(**payload) == rep
    # near the null, the bias-corrected chi-squared sits within its error bar
    assert abs(rep.chi_squared) < 5 * rep.se_chi_squared + 1e-4
