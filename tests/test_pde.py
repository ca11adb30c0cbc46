"""Mean-field solver, correction hierarchy, remainder, and energy checks.

The stationary pair-correlation amplitude is frozen from
tests/oracles/stationary_pair_amplitude.py; the written-out first-order
solvers come from tests/oracles/first_order_explicit.py, the all-k flux
assembler from tests/oracles/all_k_flux.py, the Fourier-space swap step
from tests/oracles/fourier_swap_step.py, the full half-spectrum stepper from
tests/oracles/full_width_step.py and the term-by-term BBGKY closure from
tests/oracles/bbgky_closure_dense.py.  The stepper's last-axis transforms
are DFT matrix products up to operators._DFT_MAX_M and pocketfft above it;
the stepper tests meet the full-width oracle bit for bit with pocketfft
(forced at small M by lowering the constant) and to 1e-14 relative with the
matrices, and the Fourier-swap oracle to 1e-13 on both sides.
"""
import itertools as it
import json
import math
import mmap
import os
import signal
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pchaos.core import KernelSpec, TorusGrid, fourier_field, product_field
from pchaos import operators, pde
from pchaos.experiments import fit_rate
from pchaos.partitions import (assemble_correction, cluster_moment, clusters_from_moments,
                               max_asymmetry)
from pchaos.operators import (
    STAR,
    _add_swapped,
    _dft_matrices,
    _EntrySolver,
    _Interaction,
    _kernel_matrix,
    _SpectralOps,
    compile_bbgky_terms,
    compile_entry_terms,
)
from pchaos.pde import (
    GTable,
    TimeGrid,
    _hierarchy_steps,
    _march,
    assemble_phi,
    check_energy_inequality,
    compute_remainder,
    solve_bbgky_reference,
    solve_g_hierarchy,
    solve_mckean_vlasov,
)

from conftest import (REPO_ROOT, RICH_KERNEL, band_limited_kernels, forks_shares, fresh_python,
                      record_forks)
from field_synth import random_consistent_triple, random_smooth_field
from oracles.all_k_flux import bbgky_fluxes, entry_fluxes
from oracles.bbgky_closure_dense import _cluster3, closure_f4
from oracles.first_order_explicit import solve_g1_pair, solve_g1_single
from oracles.fourier_swap_step import FourierSwapStep
from oracles.full_width_step import FullWidthStep
from oracles.n_particle_forward import n_particle_marginals


def l2_norm_sq(values: np.ndarray, h: float) -> float:
    return float(h ** values.ndim * (values ** 2).sum())


# ---------------------------------------------------------------------------
# time grid


def test_time_grid_properties():
    tg = TimeGrid(0.01, 100, store_every=10)
    assert tg.n_stored == 11
    assert np.allclose(tg.stored_times, np.linspace(0.0, 1.0, 11))
    assert list(tg.stored_steps[:3]) == [0, 10, 20]


def test_time_grid_validation():
    with pytest.raises(ValueError, match="dt"):
        TimeGrid(-0.1, 10)
    with pytest.raises(ValueError, match="one step"):
        TimeGrid(0.1, 0)
    with pytest.raises(ValueError, match="divide"):
        TimeGrid(0.1, 10, store_every=3)
    for dt in (0.0, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            TimeGrid(dt, 5)


# ---------------------------------------------------------------------------
# mean-field solver


def test_heat_evolution_is_exact_per_mode():
    # with no interaction the exponential integrator reproduces the heat
    # semigroup exactly on every Fourier mode
    g = TorusGrid(32)
    f = fourier_field(g, [1.0, 0.3, 0.0, -0.1], [0.0, 0.2, 0.1, 0.0])
    tg = TimeGrid(1e-3, 100)
    rho = solve_mckean_vlasov(f, KernelSpec.from_tables(), tg)
    x = g.points
    for s, t in ((50, 0.05), (100, 0.1)):
        want = (1.0
                + np.exp(-4 * np.pi ** 2 * t) * (0.3 * np.cos(2 * np.pi * x) + 0.2 * np.sin(2 * np.pi * x))
                + np.exp(-16 * np.pi ** 2 * t) * 0.1 * np.sin(4 * np.pi * x)
                - np.exp(-36 * np.pi ** 2 * t) * 0.1 * np.cos(6 * np.pi * x))
        assert np.max(np.abs(rho[s] - want)) < 1e-13


def test_mass_conserved_every_step(default_kernel):
    g = TorusGrid(32)
    f = fourier_field(g, [1.0, 0.5], [0.0, 0.25])
    tg = TimeGrid(2e-3, 100)
    rho = solve_mckean_vlasov(f, default_kernel, tg)
    masses = rho.sum(axis=1) * g.h
    assert np.max(np.abs(np.diff(masses))) < 1e-14
    assert np.max(np.abs(masses - 1.0)) < 1e-12


def test_l2_growth_bound_every_node(default_kernel):
    g = TorusGrid(32)
    f = fourier_field(g, [1.0, 0.5], [0.0, 0.25])
    tg = TimeGrid(2e-3, 200)
    rho = solve_mckean_vlasov(f, default_kernel, tg)
    base = l2_norm_sq(rho[0], g.h)
    ksq = default_kernel.sup_norm_bound ** 2
    for s, t in enumerate(tg.stored_times):
        assert l2_norm_sq(rho[s], g.h) <= np.exp(ksq * t) * base * (1 + 1e-12)


def test_constant_drift_advection_first_order(default_kernel):
    # constant b = c advects at speed c; halving dt halves the transport phase error
    g = TorusGrid(64)
    c = 0.5
    k = KernelSpec.from_tables(b={0: (c, 0.0)})
    f = fourier_field(g, [1.0, 0.4])
    t_end = 0.1
    x = g.points

    def run(dt):
        tg = TimeGrid(dt, int(round(t_end / dt)))
        rho = solve_mckean_vlasov(f, k, tg)
        want = 1.0 + 0.4 * np.exp(-4 * np.pi ** 2 * t_end) * np.cos(2 * np.pi * (x - c * t_end))
        return np.max(np.abs(rho[-1] - want))

    e1, e2 = run(1e-3), run(5e-4)
    assert e1 / e2 == pytest.approx(2.0, rel=0.1)


SOLVERS = {
    "solve_mckean_vlasov": solve_mckean_vlasov,
    "solve_g_hierarchy": lambda f, k, tg: solve_g_hierarchy(1, f, k, tg),
    "solve_bbgky_reference": lambda f, k, tg: solve_bbgky_reference(f, k, 8, tg),
}


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_solver_input_validation(solver, default_kernel):
    # every solver checks its inputs the same way before it steps
    solve = SOLVERS[solver]
    g = TorusGrid(16)
    with pytest.raises(ValueError, match="mass"):
        solve(fourier_field(g, [1.1]), default_kernel, TimeGrid(1e-3, 10))
    with pytest.raises(ValueError, match="positive"):
        solve(fourier_field(g, [1.0, 1.2]), default_kernel, TimeGrid(1e-3, 10))
    with pytest.raises(ValueError, match="CFL"):
        solve(fourier_field(g, [1.0, 0.5]), default_kernel, TimeGrid(0.2, 10))
    wide = KernelSpec.from_tables(khat={9: (0.5, 0.0)})
    with pytest.raises(ValueError, match="Nyquist"):
        solve(fourier_field(g, [1.0]), wide, TimeGrid(1e-3, 10))


# ---------------------------------------------------------------------------
# explicit first-order solvers and the generic hierarchy


# frozen from tests/oracles/stationary_pair_amplitude.py (kappa = 0.25)
STATIONARY_AMPLITUDE = -3.9012604663586373e-02


def test_pair_correlation_reaches_stationary_profile():
    # uniform background, pure sine interaction: the pair correlation relaxes
    # to amplitude * cos(2 pi (x - y)) with the frozen amplitude
    g = TorusGrid(32)
    kappa = 0.25
    k = KernelSpec.from_tables(khat={1: (0.0, kappa)})
    tg = TimeGrid(2e-3, 1000)       # t = 2: transient ~ e^{-160}
    rho = solve_mckean_vlasov(fourier_field(g, [1.0]), k, tg)
    assert np.max(np.abs(rho[-1] - 1.0)) < 1e-14   # uniform is invariant

    g12 = solve_g1_pair(rho, k, tg)
    x = g.points
    want = STATIONARY_AMPLITUDE * np.cos(2 * np.pi * (x[:, None] - x[None, :]))
    assert np.max(np.abs(g12[-1] - want)) < 1e-12

    g11 = solve_g1_single(rho, g12, k, tg)
    assert np.max(np.abs(g11[-1])) < 1e-13          # translation invariance


def test_generic_hierarchy_matches_explicit_first_order(default_kernel):
    g = TorusGrid(16)
    f = fourier_field(g, [1.0, 0.5], [0.0, 0.25])
    tg = TimeGrid(2e-3, 50)
    gt = solve_g_hierarchy(1, f, default_kernel, tg)
    rho = gt.entries[(0, 1)]
    assert np.max(np.abs(rho - solve_mckean_vlasov(f, default_kernel, tg))) == 0.0
    g12 = solve_g1_pair(rho, default_kernel, tg)
    g11 = solve_g1_single(rho, g12, default_kernel, tg)
    assert np.max(np.abs(g12 - gt.entries[(1, 2)])) < 1e-12
    assert np.max(np.abs(g11 - gt.entries[(1, 1)])) < 1e-12


def test_explicit_solvers_need_full_resolution(default_kernel):
    g = TorusGrid(16)
    f = fourier_field(g, [1.0, 0.5])
    tg = TimeGrid(2e-3, 50, store_every=10)
    rho = solve_mckean_vlasov(f, default_kernel, tg)
    with pytest.raises(ValueError, match="every time step"):
        solve_g1_pair(rho, default_kernel, tg)


def test_hierarchy_marginals_vanish(default_kernel):
    g = TorusGrid(12)
    f = fourier_field(g, [1.0, 0.5], [0.0, 0.25])
    tg = TimeGrid(2e-3, 50, store_every=10)
    gt = solve_g_hierarchy(2, f, default_kernel, tg)
    assert set(gt.entries) == {(0, 1), (1, 1), (1, 2), (2, 1), (2, 2), (2, 3)}
    for (i, j), arr in gt.entries.items():
        if (i, j) == (0, 1):
            continue
        for s in range(gt.n_stored):
            for c in range(j):
                assert np.max(np.abs(arr[s].sum(axis=c) * g.h)) < 1e-12


HIERARCHY_ENTRIES = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3)]

ZERO_KERNEL = KernelSpec.from_tables()
B_ONLY_KERNEL = KernelSpec.from_tables(b={0: (0.3, 0.0), 2: (0.5, -0.25)})
KHAT_CONSTANT_KERNEL = KernelSpec.from_tables(khat={0: (0.7, 0.0), 1: (0.0, 0.25)})


@pytest.mark.parametrize("entry", HIERARCHY_ENTRIES)
def test_flux_k_is_flux_1_with_axes_swapped(entry):
    # the stepper builds flux_k from flux_1 by swapping x_1 and x_k; on
    # symmetric states the full term table must agree with that, component
    # by component, and the compiled flux_1 must be the table's
    i, j = entry
    grid = TorusGrid(8)
    rng = np.random.default_rng(10 * i + j)
    state = {(o, a): random_smooth_field(grid, a, rng).values
             for o in range(i + 1) for a in range(1, o + 2)}
    op = _Interaction(RICH_KERNEL, grid)
    fluxes = entry_fluxes(i, j, op, state)
    scale = np.abs(fluxes[0]).max()
    assert scale > 1e-3
    for k in range(2, j + 1):
        assert np.abs(fluxes[k - 1] - np.swapaxes(fluxes[0], 0, k - 1)).max() <= 1e-13 * scale
    compiled = _EntrySolver(compile_entry_terms(i, j), j, op).flux1(state, {})
    assert np.abs(compiled - fluxes[0]).max() <= 1e-13 * scale


@settings(max_examples=30, deadline=None)
@given(kernel=band_limited_kernels(), M=st.sampled_from([8, 9]), seed=st.integers(0, 2 ** 32 - 1))
@example(kernel=ZERO_KERNEL, M=8, seed=0)
@example(kernel=B_ONLY_KERNEL, M=9, seed=1)
@example(kernel=KHAT_CONSTANT_KERNEL, M=8, seed=2)
def test_flux_k_is_flux_1_with_axes_swapped_for_any_kernel(kernel, M, seed):
    # the compiled flux_1 expands starred factors and pair weights through the
    # kernel's factors U and V, so b and khat with different bands, and zero
    # ones, must give the full table's flux_1 too
    grid = TorusGrid(M)
    rng = np.random.default_rng(seed)
    state = {(o, a): random_smooth_field(grid, a, rng).values for o in range(3) for a in range(1, o + 2)}
    op = _Interaction(kernel, grid)
    for i, j in HIERARCHY_ENTRIES:
        fluxes = entry_fluxes(i, j, op, state)
        scale = np.abs(fluxes[0]).max()
        for k in range(2, j + 1):
            assert np.abs(fluxes[k - 1] - np.swapaxes(fluxes[0], 0, k - 1)).max() <= 1e-13 * scale
        compiled = _EntrySolver(compile_entry_terms(i, j), j, op).flux1(state, {})
        assert np.abs(compiled - fluxes[0]).max() <= 1e-13 * scale, (i, j)


@pytest.mark.parametrize("a", [1, 2, 3])
def test_bbgky_flux_k_is_flux_1_with_axes_swapped(a):
    # the BBGKY-shaped flux c_upper H_k f_{a+1} + c_self sum_l S_{k,l} f_a,
    # evaluated for every k, must be flux_1 with x_1 and x_k swapped on
    # symmetric fields, and flux_1 must be that of the compiled table
    grid = TorusGrid(8)
    rng = np.random.default_rng(a)
    upper = random_smooth_field(grid, a + 1, rng).values
    u = random_smooth_field(grid, a, rng).values
    op = _Interaction(RICH_KERNEL, grid)
    fluxes = bbgky_fluxes(upper, u, 0.75, 0.25, op)
    scale = np.abs(fluxes[0]).max()
    for k in range(2, a + 1):
        assert np.abs(fluxes[k - 1] - np.swapaxes(fluxes[0], 0, k - 1)).max() <= 1e-13 * scale
    solver = _EntrySolver(compile_bbgky_terms(a, 0.75, 0.25, False), a, op)
    compiled = solver.flux1({("f", a + 1): upper, ("f", a): u}, {})
    assert np.abs(compiled - fluxes[0]).max() <= 1e-13 * scale


def _symmetrize(vals: np.ndarray, axes: tuple) -> np.ndarray:
    """Mean of vals over every permutation of the given axes."""
    out = np.zeros_like(vals)
    for perm in it.permutations(axes):
        order = list(range(vals.ndim))
        for src, dst in zip(axes, perm):
            order[src] = dst
        out += np.transpose(vals, order)
    return out / math.factorial(len(axes))


def _dealiased(x: np.ndarray, H: int) -> np.ndarray:
    """rfftn(x) with every mode that has a coordinate of |mode| >= H set to zero."""
    M = x.shape[0]
    spec = np.fft.rfftn(x)
    far = np.abs(np.fft.fftfreq(M, d=1.0 / M)) >= H
    for ax in range(x.ndim - 1):
        spec[(slice(None),) * ax + (far,)] = 0.0
    spec[..., H:] = 0.0
    return spec


@pytest.mark.parametrize("M", [12, 15, 32, 96])
@pytest.mark.parametrize("arity", [1, 2, 3])
def test_spectral_step_matches_fourier_swap_step(M, arity):
    # the step that carries u's half spectrum and sums the swapped spectra of
    # flux_1 there equals the one that transforms u and the full spectrum of
    # flux_1, on u symmetric in all coordinates and flux_1 symmetric in
    # x_2..x_j; white noise reaches every mode of flux_1, the dealiased and
    # (even M) the Nyquist ones included.  At full width u is white noise
    # too; at the dealiased width H = 1 + M//3 its spectrum is zero from
    # column H on.  The carried spectrum stays rfftn of the field.  M = 96
    # is above _DFT_MAX_M, so both last-axis transforms meet the oracle.
    rng = np.random.default_rng(100 * M + arity)
    shape = (M,) * arity
    dt = 1e-3
    for H in (M // 2 + 1, 1 + M // 3):
        u = _symmetrize(rng.standard_normal(shape), tuple(range(arity)))
        u = np.fft.irfftn(_dealiased(u, H), s=shape, axes=range(arity))
        flux1 = _symmetrize(rng.standard_normal(shape), tuple(range(1, arity)))
        u_hat = np.fft.rfftn(u)[..., :H]
        got = _SpectralOps(M, arity, dt, H).step(u_hat, flux1)
        want = FourierSwapStep(M, arity, dt).step(u, flux1)
        assert got.shape == shape and u_hat.shape[-1] == H
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), H
        assert np.abs(u_hat - np.fft.rfftn(got)[..., :H]).max() <= 1e-13 * np.abs(u_hat).max(), H


def _quadratic_fluxes(state: dict):
    """flux_1 of two unknowns: c(x_1) u^2 for the first, c(x_1) (1 + g) mean(u) for the second.

    c(x_1) = cos(2 pi x_1) / 2; on symmetric fields both are symmetric in
    x_2..x_j, and the squares reach every mode the grid holds.
    """
    (k0, u), (k1, g) = state.items()

    def lead(v):
        M = v.shape[0]
        return 0.5 * np.cos(2.0 * np.pi * np.arange(M) / M).reshape((M,) + (1,) * (v.ndim - 1))

    yield k0, lead(u) * u * u
    yield k1, lead(g) * (1.0 + g) * u.mean()


def _product_density(M: int, arity: int) -> np.ndarray:
    return product_field(fourier_field(TorusGrid(M), [1.0, 0.3], [0.0, 0.1]), arity).values


def _same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.tobytes() == want.tobytes()


def _within_roundoff(got: np.ndarray, want: np.ndarray) -> bool:
    return np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def _march_against_full_width(M: int, arity: int, widen: bool, agree) -> None:
    """Step _march and the full-width oracle side by side; agree(field, oracle's) every step.

    _march picks H = 1 + max(M//3, the highest column an initial spectrum of
    the arity holds nonzero) and steps the carried columns alone; the
    oracle's columns from H on stay exactly zero.  g starts at zero
    (dealiased) or holds a mode above M//3 (widened); a density of another
    arity drives it and guards the march.
    """
    x = np.arange(M) / M
    g0 = np.zeros((M,) * arity)
    if widen:
        for ax in range(arity):
            g0 = g0 + 0.01 * np.cos(2.0 * np.pi * (M // 3 + 1) * x).reshape(
                (M,) + (1,) * (arity - 1 - ax))
    initial = {"rho": _product_density(M, 2 if arity == 1 else 1), "g": g0}
    dt = 1e-3
    steps = _march(initial, lambda state, keys: _quadratic_fluxes(state), "rho", TimeGrid(dt, 24))
    state, spectra = next(steps)
    H = spectra["g"].shape[-1]
    g_hat = np.fft.rfftn(g0)
    assert not g_hat[..., H:].any()
    assert H == 1 + M // 3 if not widen else (H >= M // 3 + 2 and g_hat[..., H - 1].any())
    oracle = {a: FullWidthStep(M, a, dt) for a in (1, 2 if arity == 1 else arity)}
    ref = {key: u.copy() for key, u in initial.items()}
    ref_hat = {key: np.fft.rfftn(u) for key, u in ref.items()}
    for n, (state, _) in enumerate(steps):
        ref = {key: oracle[f.ndim].step(ref_hat[key], f) for key, f in _quadratic_fluxes(ref)}
        for key, u in ref.items():
            assert agree(state[key], u), (key, n)
            assert not ref_hat[key][..., spectra[key].shape[-1]:].any(), (key, n)
    assert n == 23


def _dealiased_against_full_width(M: int, arity: int, widen: bool, agree, dft: bool) -> None:
    """Step _SpectralOps at width H and the oracle at full width; agree(field, oracle's) every step.

    The carried spectrum is exactly zero from column H on, with H = 1 + M//3
    (dealiased) or one more (widened by a mode above M//3); a second one
    starts at zero.  The oracle's columns from H on stay zero.  dft says
    whether the stepper runs the last axis as DFT matrix products.
    """
    H = M // 3 + 1 + widen
    shape = (M,) * arity
    rng = np.random.default_rng(1000 * M + 10 * arity + widen)
    u_hat = _dealiased(_symmetrize(rng.standard_normal(shape), tuple(range(arity))), H)
    assert u_hat[..., H - 1].any()
    zero = np.zeros_like(u_hat)
    dt = 1e-3
    ops, oracle = _SpectralOps(M, arity, dt, H), FullWidthStep(M, arity, dt)
    assert (ops._dft is not None) == dft
    hats = {"u": u_hat[..., :H].copy(), "g": zero[..., :H].copy()}
    ref_hats = {"u": u_hat, "g": zero}
    fields = {"u": np.fft.irfftn(u_hat, s=shape, axes=range(arity)), "g": np.zeros(shape)}
    ref = {key: v.copy() for key, v in fields.items()}
    for n in range(24):
        fields = {key: ops.step(hats[key], f) for key, f in _quadratic_fluxes(fields)}
        ref = {key: oracle.step(ref_hats[key], f) for key, f in _quadratic_fluxes(ref)}
        for key, u in ref.items():
            assert agree(fields[key], u), (key, n)
            assert not ref_hats[key][..., H:].any(), (key, n)


@pytest.mark.parametrize("M", [12, 15, 16])
@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize("widen", [False, True])
def test_march_steps_bit_for_bit_as_full_width(M, arity, widen, monkeypatch):
    # with pocketfft on the last axis (every M here is forced above the
    # matrix cut-off), the carried columns step to the oracle's bits
    monkeypatch.setattr(operators, "_DFT_MAX_M", 0)
    _march_against_full_width(M, arity, widen, _same_bits)


@pytest.mark.parametrize("M", [12, 15, 16])
@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize("widen", [False, True])
def test_march_steps_match_full_width_with_dft_matrices(M, arity, widen):
    # with the last-axis DFT matrices, every field within 1e-14 of the
    # oracle's max every step
    _march_against_full_width(M, arity, widen, _within_roundoff)


@pytest.mark.parametrize("M", [12, 15, 16])
@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize("widen", [False, True])
def test_dealiased_columns_step_bit_for_bit_as_full_width(M, arity, widen, monkeypatch):
    # pocketfft on the last axis (forced, as above): the same bits every step
    monkeypatch.setattr(operators, "_DFT_MAX_M", 0)
    _dealiased_against_full_width(M, arity, widen, _same_bits, dft=False)


@pytest.mark.parametrize("M", [12, 15, 16])
@pytest.mark.parametrize("arity", [1, 2, 3])
@pytest.mark.parametrize("widen", [False, True])
def test_dealiased_columns_match_full_width_with_dft_matrices(M, arity, widen):
    # the last-axis DFT matrices: within 1e-14 of the oracle's max every step
    _dealiased_against_full_width(M, arity, widen, _within_roundoff, dft=True)


@pytest.mark.parametrize("arity", [1, 2])
def test_large_grid_steps_bit_for_bit_as_full_width(arity):
    # above _DFT_MAX_M the stepper picks pocketfft by itself, and keeps the
    # oracle's bits
    M = 96
    assert M > operators._DFT_MAX_M
    _dealiased_against_full_width(M, arity, False, _same_bits, dft=False)


@settings(max_examples=200, deadline=None)
@given(M=st.integers(1, operators._DFT_MAX_M), arity=st.integers(1, 3), data=st.data())
def test_dft_matrices_are_rfft_and_irfft(M, arity, data):
    # the last-axis pair the stepper runs up to _DFT_MAX_M, at every width
    # H <= M//2 + 1: x @ W is rfft(x)[..., :H] as interleaved (re, im), and
    # the real view of a spectrum zero from column H on, @ V, is its irfft;
    # Z's imaginary parts at DC and (even M) Nyquist are not zero, and both
    # must be ignored.  The scale is the largest value each transform can
    # take (a line's l1 norm, weighted 2/M for irfft): a single coefficient
    # such as the DC sum can cancel far below it.
    H = data.draw(st.integers(1, M // 2 + 1), label="H")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    W, V = _dft_matrices(M, H)
    x = rng.standard_normal((M,) * arity)
    want = np.fft.rfft(x, axis=-1)[..., :H]
    got = (x.reshape(-1, M) @ W).view(complex).reshape(want.shape)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(x).sum(axis=-1).max()
    Z = rng.standard_normal(want.shape) + 1j * rng.standard_normal(want.shape)
    want = np.fft.irfft(Z, n=M, axis=-1)
    got = (Z.view(float).reshape(-1, 2 * H) @ V).reshape(want.shape)
    assert np.abs(got - want).max() <= 1e-14 * 2.0 / M * np.abs(Z).sum(axis=-1).max()


@settings(max_examples=60, deadline=None)
@given(M=st.sampled_from([8, 9, 12, 15, 16]), arity=st.sampled_from([2, 3]),
       cut=st.integers(0, 8), seed=st.integers(0, 2 ** 32 - 1))
def test_half_spectrum_swap_matches_swapped_field(M, arity, cut, seed):
    # every swap of x_1 with x_k, the Hermitian mirror of the last axis
    # included, on a real array with no symmetry whose spectrum is zero from
    # column H on, at every H from M//2 + 1 (the full half spectrum) down
    x = np.random.default_rng(seed).standard_normal((M,) * arity)
    H = max(1, M // 2 + 1 - cut)
    x = np.fft.irfftn(np.fft.rfftn(x)[..., :H], s=x.shape, axes=range(arity))
    for k in range(2, arity + 1):
        want = np.fft.rfftn(np.swapaxes(x, 0, k - 1))[..., :H]
        got = np.zeros_like(want)
        _add_swapped(got, np.fft.rfftn(x)[..., :H], k - 1)
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), k


def _add_swapped_flip_roll(acc: np.ndarray, F: np.ndarray, ax: int) -> None:
    """_add_swapped as it read the Hermitian mirror before: a flip and a roll on every call."""
    if ax < F.ndim - 1:
        acc += np.swapaxes(F, 0, ax)
        return
    M, H = F.shape[0], F.shape[-1]
    lo = max(H, M - H + 1)  # the first mirrored row
    acc[:H] += np.swapaxes(F[:H], 0, ax)
    full = tuple(range(ax))
    mirror = np.roll(np.flip(F[..., M - lo:0:-1], full), 1, full)
    acc[lo:] += np.swapaxes(mirror[:H], 0, ax).conj()


@pytest.mark.parametrize("M", [8, 9, 12, 15, 16])
@pytest.mark.parametrize("arity", [2, 3, 4])
def test_mirror_gather_equals_flip_and_roll(M, arity):
    # the cached mirror index reads the same values into the same places,
    # so every swap adds the same bits, on a spectrum and accumulator with
    # no symmetry, at the full width and at H = M//2 + 1 - cut columns
    rng = np.random.default_rng(10 * M + arity)
    for cut in (0, 1, 2):
        F = np.fft.rfftn(rng.standard_normal((M,) * arity))[..., :M // 2 + 1 - cut].copy()
        for ax in range(1, arity):
            got = rng.standard_normal(F.shape) + 1j * rng.standard_normal(F.shape)
            want = got.copy()
            _add_swapped(got, F, ax)
            _add_swapped_flip_roll(want, F, ax)
            assert got.tobytes() == want.tobytes(), (cut, ax)


def test_carried_spectra_stay_transforms_of_states(default_kernel):
    # each entry's spectrum is advanced apart from its field; after many
    # steps the two must still agree on the carried columns, and the field
    # must hold next to nothing in the columns left out
    f = fourier_field(TorusGrid(16), [1.0, 0.5], [0.0, 0.25])
    for state, spectra in _hierarchy_steps(2, f, default_kernel, TimeGrid(1e-3, 200)):
        pass
    for key, u in state.items():
        H = spectra[key].shape[-1]
        assert H == 6 or u.ndim == 1, key  # arity 1 shares the width rho's roundoff sets
        scale = np.abs(spectra[key]).max()
        assert scale > 0.0, key
        full = np.fft.rfftn(u)
        assert np.abs(spectra[key] - full[..., :H]).max() <= 1e-13 * scale, key
        assert np.abs(full[..., H:]).max(initial=0.0) <= 1e-13 * scale, key


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_solvers_leave_the_initial_density_alone(solver, default_kernel):
    f = fourier_field(TorusGrid(12), [1.0, 0.5], [0.0, 0.25])
    before = f.values.copy()
    SOLVERS[solver](f, default_kernel, TimeGrid(2e-3, 4))
    assert np.array_equal(f.values, before)


@settings(max_examples=100, deadline=None)
@given(kernel=band_limited_kernels(), M=st.sampled_from([8, 9, 16]))
@example(kernel=ZERO_KERNEL, M=8)
@example(kernel=B_ONLY_KERNEL, M=9)
@example(kernel=KHAT_CONSTANT_KERNEL, M=8)
def test_kernel_factors_reproduce_kernel_matrix(kernel, M):
    grid = TorusGrid(M)
    op = _Interaction(kernel, grid)
    khat_modes = sum(kc != 0.0 or ks != 0.0 for _, _, _, kc, ks in kernel.mode_table)
    assert op.U.shape == (M, 1 + 2 * khat_modes) and op.V.shape == op.U.shape[::-1]
    # (U V)[y, x] = h K(x, y), against the kernel summed mode by mode at x - y
    assert np.abs(op.U @ op.V - grid.h * _kernel_matrix(kernel, grid).T).max() <= 1e-15


def _starred_patterns() -> set:
    """(coords, k, j) of every starred factor the hierarchy and the BBGKY flux contract."""
    patterns = {(tuple(range(1, a + 1)) + (STAR,), k, a) for a in (1, 2, 3) for k in range(1, a + 1)}
    tables = [(compile_entry_terms(i, j), j) for i in (0, 1, 2) for j in range(1, i + 2)]
    tables += [(compile_bbgky_terms(a, 1.0, 1.0, closed), a) for a in (1, 2, 3) for closed in (False, True)]
    for terms, j in tables:
        for t in terms:
            patterns.update((coords, t.k, j) for _, coords in t.factors if STAR in coords)
    return patterns


STARRED_PATTERNS = sorted(_starred_patterns())


def test_starred_patterns_cover_both_ties():
    # every factor arity 1-3, and x_k both among the factor's coordinates and not
    for arity in (1, 2, 3):
        ties = {k in coords[:-1] for coords, k, _ in STARRED_PATTERNS if len(coords) == arity}
        assert ties == ({False} if arity == 1 else {False, True})


@settings(max_examples=50, deadline=None)
@given(kernel=band_limited_kernels(), seed=st.integers(0, 2 ** 32 - 1))
@example(kernel=ZERO_KERNEL, seed=0)
@example(kernel=B_ONLY_KERNEL, seed=1)
@example(kernel=KHAT_CONSTANT_KERNEL, seed=2)
def test_starred_matches_direct_quadrature(kernel, seed):
    # starred() against h sum_y vals[..., y] K(x_k, y) with K from
    # KernelSpec.eval; einsum ties x_k on the diagonal when the factor has it
    grid = TorusGrid(8)
    M, x = grid.M, grid.points
    K = kernel.eval(x[:, None], x[None, :])
    op = _Interaction(kernel, grid)
    rng = np.random.default_rng(seed)
    letter = {1: "a", 2: "b", 3: "c"}
    for coords, k, j in STARRED_PATTERNS:
        rest = coords[:-1]
        vals = rng.standard_normal((M,) * len(coords))
        out = sorted(set(rest) | {k})
        spec = ("".join(letter[c] for c in rest) + "y," + letter[k] + "y->"
                + "".join(letter[c] for c in out))
        want = grid.h * np.einsum(spec, vals, K)
        want = want.reshape(tuple(M if c in out else 1 for c in range(1, j + 1)))
        got = op.starred(vals @ op.U, op.starred_route(coords, k, j))
        assert got.shape == want.shape, (coords, k, j)
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max()), (coords, k, j)


def test_solved_entries_are_symmetric(small_table):
    # a table entry that lost its symmetry would break the flux_1 shortcut
    gt = small_table
    for i, j in gt.entries:
        for s in range(gt.n_stored):
            assert max_asymmetry(gt.field(i, j, s)) <= 1e-13, (i, j, s)


def test_hierarchy_solve_keeps_to_one_cpu():
    # the solve is single-threaded work; a BLAS call large enough to start
    # OpenBLAS's worker threads left them spinning, ~1.9 CPU-seconds per
    # wall-second on two cores.  At M=64 a 2-D (64, Q) @ (Q, 4096) product
    # already crosses the threshold, and so would an unbatched last-axis DFT
    # product of an arity-3 unknown.  The solves cover order 2 at M=32 and 64,
    # order 1 at M=64 and the BBGKY reference at M=32, whose full-width
    # arity-3 marginals carry the largest last-axis products.  Other load
    # can only lower the ratio.  Importing numpy starts those workers, and
    # they spin ~0.12 CPU-seconds before they first sleep; the child waits
    # that out, so the timed window holds the solves alone.  The child keeps
    # numpy's default threading, not the CLI's one-thread policy.  The
    # order-2 solves step their top entry in a forked child on two usable
    # CPUs (counted as two here, whatever the machine has), which runs the
    # arity-3 products; its CPU, read from RUSAGE_CHILDREN once it is
    # reaped, is held to the same bound per wall-second of its solve.
    code = (
        "import resource, time\n"
        "from pchaos import pde\n"
        "from pchaos.core import KernelSpec, TorusGrid, fourier_field\n"
        "from pchaos.pde import TimeGrid, solve_bbgky_reference, solve_g_hierarchy\n"
        "pde._usable_cpus = lambda: 2\n"
        f"k = KernelSpec.from_file({str(REPO_ROOT / 'kernels' / 'default.txt')!r})\n"
        "f = {M: fourier_field(TorusGrid(M), [1.0, 0.5]) for M in (32, 64)}\n"
        "solves = [lambda: solve_g_hierarchy(2, f[32], k, TimeGrid(1e-3, 50)),\n"
        "          lambda: solve_g_hierarchy(2, f[64], k, TimeGrid(1e-3, 8)),\n"
        "          lambda: solve_g_hierarchy(1, f[64], k, TimeGrid(1e-3, 400)),\n"
        "          lambda: solve_bbgky_reference(f[32], k, 10, TimeGrid(1e-3, 40))]\n"
        "def children():\n"
        "    use = resource.getrusage(resource.RUSAGE_CHILDREN)\n"
        "    return use.ru_utime + use.ru_stime\n"
        "time.sleep(0.3)\n"
        "for solve in solves:\n"
        "    c0, k0, t0 = time.process_time(), children(), time.perf_counter()\n"
        "    solve()\n"
        "    wall = time.perf_counter() - t0\n"
        "    print((time.process_time() - c0) / wall, (children() - k0) / wall)\n"
    )
    rows = [[float(v) for v in line.split()] for line in fresh_python("-c", code).splitlines()]
    ratios = [parent for parent, _ in rows]
    assert len(ratios) == 4 and max(ratios) <= 1.3, ratios
    children = [child for _, child in rows]
    assert children[2:] == [0.0, 0.0] and max(children) <= 1.3, children
    if sys.platform.startswith("linux"):  # where the order-2 solves fork
        assert min(children[:2]) > 0.0, children


@forks_shares
@pytest.mark.parametrize("M", [16, 32])
def test_a_split_order_2_solve_has_the_bits_of_one_process(M, default_kernel, monkeypatch):
    # the top entry stepped in a forked child reads and writes the same
    # time-t fields as in one process: every entry at every step, bit for bit
    f = fourier_field(TorusGrid(M), [1.0, 0.5], [0.0, 0.25])
    tg = TimeGrid(1e-3, 40)
    forked = record_forks(monkeypatch)
    monkeypatch.setattr(pde, "_usable_cpus", lambda: 2)
    split = solve_g_hierarchy(2, f, default_kernel, tg)
    assert len(forked) == 1
    monkeypatch.setattr(pde, "_usable_cpus", lambda: 1)
    serial = solve_g_hierarchy(2, f, default_kernel, tg)
    assert len(forked) == 1
    assert set(split.entries) == set(serial.entries)
    for key, arr in serial.entries.items():
        assert split.entries[key].tobytes() == arr.tobytes(), key


@forks_shares
def test_split_solves_keep_their_bits_on_oversubscribed_cpus():
    # three split solves at once, six processes on the machine's CPUs, so
    # each barrier meets the other side at a different point of its step
    # from run to run; a write into a buffer still being read would change
    # some entry's bits
    code = (
        "from pchaos import pde\n"
        "from pchaos.core import KernelSpec, TorusGrid, fourier_field\n"
        "from pchaos.pde import TimeGrid, solve_g_hierarchy\n"
        f"k = KernelSpec.from_file({str(REPO_ROOT / 'kernels' / 'default.txt')!r})\n"
        "f = fourier_field(TorusGrid(12), [1.0, 0.5], [0.0, 0.25])\n"
        "tables = []\n"
        "for cpus in (2, 1):\n"
        "    pde._usable_cpus = lambda: cpus\n"
        "    tables.append(solve_g_hierarchy(2, f, k, TimeGrid(1e-3, 400, 5)).entries)\n"
        "print(all(tables[0][key].tobytes() == u.tobytes() for key, u in tables[1].items()))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    procs = [subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                              text=True) for _ in range(3)]
    try:
        outs = [proc.communicate(timeout=120)[0] for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    assert [proc.returncode for proc in procs] == [0, 0, 0]
    assert [out.strip() for out in outs] == ["True"] * 3


def test_only_the_top_entry_from_order_2_on_two_cpus_is_split(default_kernel, monkeypatch):
    # orders 0 and 1, one usable CPU and the BBGKY reference step in one
    # process; os.fork, os.pipe and mmap.mmap made to fail show that none of
    # them forks, opens the barrier's pipes or maps shared memory
    def refused(*args):
        raise AssertionError("a child's machinery was used")

    monkeypatch.setattr(pde, "_usable_cpus", lambda: 2)
    assert pde._entry_apart(2) == (2, 3)
    assert pde._entry_apart(0) is pde._entry_apart(1) is None
    for module, name in ((os, "fork"), (os, "pipe"), (mmap, "mmap")):
        monkeypatch.setattr(module, name, refused)
    f = fourier_field(TorusGrid(12), [1.0, 0.5])
    tg = TimeGrid(2e-3, 4)
    for order in (0, 1):
        solve_g_hierarchy(order, f, default_kernel, tg)
    solve_bbgky_reference(f, default_kernel, 10, tg)
    monkeypatch.setattr(pde, "_usable_cpus", lambda: 1)
    assert pde._entry_apart(2) is None
    solve_g_hierarchy(2, f, default_kernel, tg)


def _reaped(monkeypatch) -> dict:
    """Record the status of every child os.waitpid reaps: pid -> status."""
    statuses, waitpid = {}, os.waitpid

    def recording_waitpid(pid, options):
        got, status = waitpid(pid, options)
        if got:
            statuses[got] = status
        return got, status

    monkeypatch.setattr(os, "waitpid", recording_waitpid)
    return statuses


def _killed(status: int) -> bool:
    return os.WIFSIGNALED(status) and os.WTERMSIG(status) == signal.SIGKILL


class _ChildFault(Exception):
    pass


def _fail_top_entry(monkeypatch, exc, at_call: int = 3) -> None:
    """Make the top entry's flux (arity 3, assembled by the child alone) raise
    exc at its at_call-th call."""
    flux1, calls = _EntrySolver.flux1, []

    def failing(self, state, cache):
        if self.j == 3:
            calls.append(None)
            if len(calls) == at_call:
                raise exc
        return flux1(self, state, cache)

    monkeypatch.setattr(_EntrySolver, "flux1", failing)


@forks_shares
def test_a_failed_child_is_raised_here_and_reaped(default_kernel, monkeypatch):
    # an exception of a type that is not a built-in comes back as a
    # RuntimeError that names it (a built-in one as itself: test_cli.py's
    # MemoryError); the child has ended and is reaped
    forked, reaped = record_forks(monkeypatch), _reaped(monkeypatch)
    monkeypatch.setattr(pde, "_usable_cpus", lambda: 2)
    _fail_top_entry(monkeypatch, _ChildFault("the flux failed"))
    f = fourier_field(TorusGrid(12), [1.0, 0.5])
    with pytest.raises(RuntimeError) as info:
        solve_g_hierarchy(2, f, default_kernel, TimeGrid(1e-3, 20))
    assert type(info.value) is RuntimeError and str(info.value) == "_ChildFault: the flux failed"
    assert len(forked) == 1 and os.WEXITSTATUS(reaped[forked[0]]) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@forks_shares
def test_the_guard_kills_and_reaps_the_child(monkeypatch):
    # a strong confinement drives the density negative: this process's
    # guard raises, and the child stepping the top entry is SIGKILLed
    forked, reaped = record_forks(monkeypatch), _reaped(monkeypatch)
    monkeypatch.setattr(pde, "_usable_cpus", lambda: 2)
    f = fourier_field(TorusGrid(16), [1.0, 0.5])
    kernel = KernelSpec.from_tables(b={1: (100.0, 0.0)})
    with pytest.raises(pde.NegativeDensityError, match="density reached"):
        solve_g_hierarchy(2, f, kernel, TimeGrid(0.000625, 16))
    assert len(forked) == 1 and _killed(reaped[forked[0]])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@forks_shares
def test_closing_the_march_early_kills_and_reaps_the_child(default_kernel, monkeypatch):
    forked, reaped = record_forks(monkeypatch), _reaped(monkeypatch)
    monkeypatch.setattr(pde, "_usable_cpus", lambda: 2)
    f = fourier_field(TorusGrid(12), [1.0, 0.5])
    steps = _hierarchy_steps(2, f, default_kernel, TimeGrid(1e-3, 50))
    for _ in zip(range(5), steps):
        pass
    assert len(forked) == 1 and forked[0] not in reaped
    steps.close()
    assert _killed(reaped[forked[0]])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_hierarchy_order_cap_and_memory_guard(default_kernel):
    g = TorusGrid(16)
    f = fourier_field(g, [1.0, 0.5])
    with pytest.raises(ValueError, match="i_max"):
        solve_g_hierarchy(3, f, default_kernel, TimeGrid(2e-3, 10))
    big = fourier_field(TorusGrid(512), [1.0, 0.5])
    with pytest.raises(MemoryError, match="budget"):
        solve_g_hierarchy(2, big, default_kernel, TimeGrid(1e-3, 1000))


def test_gtable_save_load_roundtrip(tmp_path, default_kernel):
    g = TorusGrid(12)
    f = fourier_field(g, [1.0, 0.5], [0.0, 0.25])
    tg = TimeGrid(2e-3, 20, store_every=5)
    gt = solve_g_hierarchy(1, f, default_kernel, tg)
    gt.save(tmp_path / "table")
    back = GTable.load(tmp_path / "table")
    assert back.i_max == 1
    assert back.tg == tg
    assert back.kernel.to_text() == default_kernel.to_text()
    for key, arr in gt.entries.items():
        assert np.array_equal(back.entries[key], arr)


@pytest.fixture
def saved_table(tmp_path, default_kernel):
    g = TorusGrid(16)
    f = fourier_field(g, [1.0, 0.5], [0.0, 0.25])
    solve_g_hierarchy(1, f, default_kernel, TimeGrid(2e-3, 4, store_every=2)).save(tmp_path)
    return tmp_path


def test_gtable_load_rejects_stale_kernel_hash(saved_table):
    meta_path = saved_table / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta["kernel_text"] = meta["kernel_text"].replace("khat 1", "khat 2")
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="kernel_sha256"):
        GTable.load(saved_table)


def test_gtable_load_rejects_other_dimension(saved_table):
    meta_path = saved_table / "meta.json"
    meta = json.loads(meta_path.read_text())
    assert meta["dim"] == 1
    meta["dim"] = 2
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="dim is 2, expected 1"):
        GTable.load(saved_table)


@pytest.mark.parametrize("edit, message", [
    (lambda m: m.update(dim=True), r"dim is True, expected a non-negative integer"),
    (lambda m: m.update(dim=1.0), r"dim is 1\.0, expected a non-negative integer"),
    (lambda m: m.update(M="16"), r"M is '16', expected a non-negative integer"),
    (lambda m: m.update(n_steps=4.0), r"n_steps is 4\.0, expected a non-negative integer"),
    (lambda m: m.update(store_every=True), r"store_every is True, expected a non-negative"),
    (lambda m: m.update(i_max=-1), r"i_max is -1, expected a non-negative integer"),
    (lambda m: m["entries"][0].update(j="1"), r"j is '1', expected a non-negative integer"),
    (lambda m: m["entries"][0].update(i=None), r"i is None, expected a non-negative integer"),
    (lambda m: m.update(dt=None), r"dt is None, expected a finite number"),
    (lambda m: m.update(dt=float("nan")), r"dt is nan, expected a finite number"),
    (lambda m: m.update(dt="2e-3"), r"dt is '2e-3', expected a finite number"),
    (lambda m: m.update(entries={}), r"entries \[\] are not an order-1 table's"),
    (lambda m: m.update(i_max=2), r"entries \[\(0, 1\), \(1, 1\), \(1, 2\)\] are not an order-2"),
    (lambda m: m["entries"].pop(), r"entries \[\(0, 1\), \(1, 1\)\] are not an order-1"),
    (lambda m: m["entries"].append(dict(m["entries"][0])),
     r"entries \[\(0, 1\), \(0, 1\), \(1, 1\), \(1, 2\)\] are not an order-1"),
    (lambda m: m["entries"].append(5), r"expected an object, got int"),
    (lambda m: m.update(kernel_text=5), r"kernel_text, kernel_sha256 and files must be strings"),
    (lambda m: m["entries"][0].update(file=5), r"kernel_text, kernel_sha256 and files must be strings"),
    (lambda m: m["entries"][0].update(file="g_0_1.bin"),
     r"entry \(0, 1\) names file 'g_0_1\.bin', expected 'g_0_1\.f64'"),
], ids=[
    "dim-bool", "dim-float",
    "M-string", "n_steps-float", "store_every-bool", "i_max-negative", "j-string",
    "i-null", "dt-null", "dt-nan", "dt-string", "entries-object",
    "i_max-above-table", "entry-missing", "entry-repeated", "entry-not-object", "kernel_text-int",
    "file-int", "file-renamed",
])
def test_gtable_load_rejects_malformed_meta(saved_table, edit, message):
    # every malformed meta.json is a ValueError naming the file, not a
    # TypeError or KeyError, nor a table that loads and fails later
    meta_path = saved_table / "meta.json"
    meta = json.loads(meta_path.read_text())
    edit(meta)
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match="meta.json: " + message):
        GTable.load(saved_table)


def test_gtable_load_rejects_truncated_file(saved_table):
    path = saved_table / "g_1_2.f64"
    data = path.read_bytes()
    assert len(data) == 8 * 3 * 16 * 16
    path.write_bytes(data[:-8])
    with pytest.raises(ValueError, match=r"g_1_2\.f64 has 6136 bytes, meta.json describes 6144"):
        GTable.load(saved_table)


# ---------------------------------------------------------------------------
# expansion assembly, remainder scaling, energy inequality


@pytest.fixture(scope="module")
def small_table(default_kernel):
    g = TorusGrid(12)
    f = fourier_field(g, [1.0, 0.5], [0.0, 0.25])
    tg = TimeGrid(2e-3, 50, store_every=10)
    return solve_g_hierarchy(2, f, default_kernel, tg)


def test_assemble_phi_order_zero_is_product(small_table):
    gt = small_table
    phi = assemble_phi(0, 2, 100.0, gt)
    for s in range(gt.n_stored):
        want = product_field(gt.field(0, 1, s), 2).values
        assert np.allclose(phi[s], want, atol=1e-14)


def test_assemble_phi_has_unit_mass(small_table):
    gt = small_table
    for i in (1, 2):
        for j in (1, 2):
            phi = assemble_phi(i, j, 50.0, gt)
            for s in range(gt.n_stored):
                assert phi[s].sum() * gt.grid.h ** j == pytest.approx(1.0, abs=1e-11)
    with pytest.raises(ValueError, match="order"):
        assemble_phi(3, 1, 50.0, gt)


def test_remainder_exact_inverse_square_prefactor(small_table):
    gt = small_table
    s = gt.n_stored - 1
    for (i, j) in ((0, 1), (0, 2), (1, 1), (1, 2)):
        n1 = compute_remainder(i, j, 1e2, gt, s)[1]
        n2 = compute_remainder(i, j, 1e3, gt, s)[1]
        slope = (np.log(n2) - np.log(n1)) / np.log(10.0)
        assert slope == pytest.approx(-2.0 * (i + 1), abs=1e-9)


def test_remainder_arity_cap(small_table):
    with pytest.raises(ValueError, match="arity"):
        compute_remainder(0, 3, 100.0, small_table, 0)


def test_remainder_components_match_all_k_evaluation(small_table):
    # compute_remainder compiles flux_1 and swaps axes for the other
    # components; each must equal its direct evaluation through starred(., k)
    # and pair(k, l)
    gt = small_table
    s = gt.n_stored - 1
    fields = gt.fields_at(s)
    op = _Interaction(gt.kernel, gt.grid)
    N = 8.0
    for i in range(3):
        scale = N ** -(i + 1)
        for j in (1, 2):
            fij = assemble_correction(i, j, fields)
            fij1 = assemble_correction(i, j + 1, fields)
            want = np.array(bbgky_fluxes(fij1, fij, j * scale, -scale, op))
            comps = compute_remainder(i, j, N, gt, s)[0]
            assert comps.shape == want.shape
            assert np.abs(comps - want).max() <= 1e-13 * np.abs(want).max(), (i, j)


def test_bbgky_reference_and_energy_margins(default_kernel):
    g = TorusGrid(16)
    f = fourier_field(g, [1.0, 0.5], [0.0, 0.25])
    tg = TimeGrid(2e-3, 50, store_every=10)
    bb = solve_bbgky_reference(f, default_kernel, 8, tg)
    assert set(bb.marginals) == {1, 2, 3}
    for a, arr in bb.marginals.items():
        assert arr.shape == (tg.n_stored,) + (16,) * a
        masses = arr.reshape(tg.n_stored, -1).sum(axis=1) * g.h ** a
        assert np.max(np.abs(masses - 1.0)) < 1e-11
    # integrate f_{j+1} -> f_j compatibility: exact at t=0, then broken only
    # at the scale of the level-4 closure truncation
    assert bb.marginal_drift[0] < 1e-12
    assert np.max(bb.marginal_drift) < 1e-3
    assert np.max(bb.closure_size) < 0.05      # three-particle cluster stays small

    gt = solve_g_hierarchy(2, f, default_kernel, tg)
    for j in (1, 2):
        rep = check_energy_inequality(2, j, 8.0, gt, bb.marginals)
        assert rep.margin.min() >= -1e-4
        assert rep.apriori_margin.min() >= -1e-4
        assert rep.ok
        assert rep.k_norm <= default_kernel.sup_norm_bound + 1e-12


def test_energy_check_requires_reference_arities(small_table):
    with pytest.raises(ValueError, match="arity 3"):
        check_energy_inequality(1, 2, 8.0, small_table, {1: None, 2: None})


def test_cluster3_recovers_constructed_clusters():
    # f_2 and f_3 assembled from chosen clusters g_1, g_2, g_3 give them back,
    # and the cluster expansion of the recovered clusters gives f_1..f_3 back
    grid = TorusGrid(8)
    rng = np.random.default_rng(8)
    g1 = random_smooth_field(grid, 1, rng).values
    g2 = random_smooth_field(grid, 2, rng).values - 1.0
    g3 = random_smooth_field(grid, 3, rng).values - 1.0
    f2 = np.multiply.outer(g1, g1) + g2
    f3 = (np.einsum("a,b,c->abc", g1, g1, g1) + np.einsum("ab,c->abc", g2, g1)
          + np.einsum("ac,b->abc", g2, g1) + np.einsum("bc,a->abc", g2, g1) + g3)
    moments = {1: g1, 2: f2, 3: f3}
    got = clusters_from_moments(moments)
    assert np.array_equal(got[1], g1)
    assert np.max(np.abs(got[2] - g2)) < 1e-14
    assert np.max(np.abs(got[3] - g3)) < 1e-13
    for a in (1, 2, 3):
        back = cluster_moment(a, {b: got[b] for b in range(1, a + 1)})
        assert np.max(np.abs(back - moments[a])) <= 1e-13 * np.abs(moments[a]).max()


@pytest.mark.parametrize("M", [8, 12])
def test_partition_closure_matches_dense_oracle(M):
    # the level-4 closure of the BBGKY reference, from pchaos.partitions,
    # against the term-by-term closure it replaced
    rng = np.random.default_rng(M)
    for _ in range(3):
        f = {a: v.values for a, v in random_consistent_triple(TorusGrid(M), rng).items()}
        clusters = clusters_from_moments(f)
        want = _cluster3(f[1], f[2], f[3])
        for a in (1, 2, 3):
            assert np.abs(clusters[a] - want[a - 1]).max() <= 1e-13 * np.abs(want[a - 1]).max()
        f4 = closure_f4(f[1], f[2], f[3])
        assert np.abs(cluster_moment(4, clusters) - f4).max() <= 1e-13 * np.abs(f4).max()


@pytest.mark.parametrize("M", [8, 12])
def test_compiled_closure_flux_matches_dense_oracle(M):
    # the top level's flux contracts the cluster functions partition by
    # partition; against the dense f_4 of the term-by-term closure,
    # contracted through starred() and with the pair term added
    grid = TorusGrid(M)
    op = _Interaction(RICH_KERNEL, grid)
    c_upper, c_self = 5 / 8, 1 / 8
    solver = _EntrySolver(compile_bbgky_terms(3, c_upper, c_self, True), 3, op)
    rng = np.random.default_rng(100 + M)
    for _ in range(20):
        f = {a: v.values for a, v in random_consistent_triple(grid, rng).items()}
        fields = {("f", a): v for a, v in f.items()}
        fields.update((("g", a), g) for a, g in clusters_from_moments(f).items())
        f4 = closure_f4(f[1], f[2], f[3])
        want = bbgky_fluxes(f4, f[3], c_upper, c_self, op)[0]
        got = solver.flux1(fields, {})
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_bbgky_closure_size_falls_as_inverse_square(default_kernel):
    # the three-particle cluster of the N-particle hierarchy is O(N^-2)
    g = TorusGrid(16)
    f = fourier_field(g, [1.0, 0.5], [0.0, 0.25])
    tg = TimeGrid(1e-2, 50)
    sizes = [(N, solve_bbgky_reference(f, default_kernel, N, tg).closure_size[-1])
             for N in (8, 16, 32, 64)]
    assert fit_rate(sizes).slope == pytest.approx(-2.0, abs=0.1)


def test_bbgky_reference_matches_the_exact_n_particle_law(default_kernel):
    # at N = 4 the whole forward equation fits on a 12^4 grid; its marginals
    # (tests/oracles/n_particle_forward.py, which shares only core._series
    # with the package) are the exact ones of the same time discretization.
    # The level-3 reference's only error is its closure's, measured at
    # 8.2e-14 (f_1) and 3.7e-11 (f_2); a fault in the shared flux code moves
    # them far more
    g = TorusGrid(12)
    f = fourier_field(g, [1.0, 0.5])
    dt, n_steps = 2e-3, 250
    exact_f1, exact_f2 = n_particle_marginals(default_kernel, f.values, 4, dt, n_steps)
    ref = solve_bbgky_reference(f, default_kernel, 4, TimeGrid(dt, n_steps, n_steps))
    assert np.abs(ref.marginals[1][-1] - exact_f1).max() <= 1e-12
    assert np.abs(ref.marginals[2][-1] - exact_f2).max() <= 4e-10


def test_bbgky_step_never_forms_f4(default_kernel):
    # the closure is contracted block by block, so two steps at M = 32 peak
    # below the size of one M^4 float64 array, the dense f_4 of the old closure
    g = TorusGrid(32)
    f = fourier_field(g, [1.0, 0.5], [0.0, 0.25])
    tg = TimeGrid(1e-3, 2)
    solve_bbgky_reference(f, default_kernel, 16, tg)  # warm-up
    tracemalloc.start()
    try:
        solve_bbgky_reference(f, default_kernel, 16, tg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * g.M ** 4


def test_bbgky_level_four_closure(default_kernel, monkeypatch):
    # integrating f_4 and closing at level 5 moves f_1 and f_2 by less than
    # the level-3 closure size, and its own closure (g_4) is smaller
    g = TorusGrid(12)
    f = fourier_field(g, [1.0, 0.5], [0.0, 0.25])
    tg = TimeGrid(2e-3, 50, store_every=10)
    for N in (8, 16):
        three = solve_bbgky_reference(f, default_kernel, N, tg)
        monkeypatch.setattr(pde, "BBGKY_LEVELS", 4)
        four = solve_bbgky_reference(f, default_kernel, N, tg)
        monkeypatch.undo()
        assert set(four.marginals) == {1, 2, 3, 4}
        bound = three.closure_size.max()
        for a in (1, 2):
            assert np.abs(four.marginals[a] - three.marginals[a]).max() < bound
        assert four.closure_size.max() < bound
