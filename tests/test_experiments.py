"""Rate-experiment driver: config validation, chain moments, fused worker,
rate fits, persistence, and the bounds lattice report."""
import concurrent.futures
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pchaos import experiments, particles
from pchaos.cli import main
from pchaos.config import ConfigError, load_config
from pchaos.core import GridField, KernelSpec, TorusGrid, fourier_field
from pchaos.experiments import (
    _PHI_PANEL,
    _chain_moments,
    _companion_terms,
    _rate_worker,
    ExperimentConfig,
    fit_rate,
    run_bounds_report,
    run_rate_experiment,
)
from pchaos.particles import (
    SimConfig,
    em_step,
    mode_sum_drift,
    pair_drift,
    run_ensemble,
    sample_initial,
)

from conftest import KERNEL_PATH, RICH_KERNEL, band_limited_kernels, fresh_python
from oracles import chain_transfer_matrix
from oracles.chain_transfer_matrix import chain_moments_transfer_matrix
from oracles.companion_explicit import companion_terms_explicit
from oracles.plain_trig import plain_cos_sin


def _ecfg(tmp_path, **over):
    base = dict(
        kernel_path=str(KERNEL_PATH),
        density_cos=(1.0, 0.5),
        density_sin=(0.0, 0.25),
        N_list=(4, 6, 8),
        j_list=(1, 2),
        order=1,
        T=2e-3,
        dt=1e-3,
        replicas=100,
        seed=7,
        grid=32,
        sample_grid=64,
        bins=8,
        out_dir=str(tmp_path / "out"),
        workers=1,
    )
    base.update(over)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# configuration


def test_experiment_config_validation(tmp_path):
    with pytest.raises(ConfigError, match="at least one N"):
        _ecfg(tmp_path, N_list=())
    with pytest.raises(ConfigError, match="at least three N values for the rate fits, got 2"):
        _ecfg(tmp_path, N_list=(10, 20))
    with pytest.raises(ConfigError, match="j values must be distinct"):
        _ecfg(tmp_path, j_list=(1, 1))
    with pytest.raises(ConfigError, match="from .1, 2."):
        _ecfg(tmp_path, j_list=(1, 3))
    with pytest.raises(ConfigError, match="largest j"):
        _ecfg(tmp_path, N_list=(1, 8))
    with pytest.raises(ConfigError, match="order = 3 is not supported: rates is first order"):
        _ecfg(tmp_path, order=3)
    with pytest.raises(ConfigError, match="positive horizon"):
        _ecfg(tmp_path, T=0.0)
    with pytest.raises(ConfigError, match="replicas >= 10"):
        _ecfg(tmp_path, replicas=5)
    with pytest.raises(ConfigError, match="above 1e-3"):
        _ecfg(tmp_path, density_cos=(1.0, 1.0))


def test_experiment_config_rejects_order_two(tmp_path, capsys):
    # simulation cannot resolve the order-2 bias, so rates stays first order;
    # the CLI reports the refusal as a user error
    with pytest.raises(ConfigError, match="first order by design"):
        _ecfg(tmp_path, order=2)
    cfg = tmp_path / "rates.cfg"
    cfg.write_text(f"kernel = {KERNEL_PATH}\ndensity_cos = 1.0, 0.5\nN = 4, 6, 8\n"
                   "T = 2e-3\norder = 2\n", encoding="utf-8")
    assert main(["rates", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: order = 2 is not supported") and err.count("\n") == 1


def test_experiment_config_from_file_defaults(tmp_path):
    p = tmp_path / "exp.cfg"
    p.write_text(
        f"kernel = {KERNEL_PATH}\n"
        "density_cos = 1.0, 0.5\n"
        "N = 100, 200, 400\n"
        "T = 0.5\n",
        encoding="utf-8",
    )
    ecfg = ExperimentConfig.from_config(load_config(str(p)), str(tmp_path), 5)
    assert ecfg.j_list == (1, 2)
    assert ecfg.order == 1
    assert ecfg.dt == 1e-3
    assert ecfg.replicas == 10_000
    assert ecfg.grid == 64 and ecfg.sample_grid == 256 and ecfg.bins == 32
    assert ecfg.out_dir == str(tmp_path) and ecfg.seed == 5


def test_canonical_text_ignores_runtime_knobs(tmp_path):
    a = _ecfg(tmp_path, seed=1, out_dir=str(tmp_path / "a"), workers=1)
    b = _ecfg(tmp_path, seed=99, out_dir=str(tmp_path / "b"), workers=4)
    assert a.canonical_text() == b.canonical_text()
    c = _ecfg(tmp_path, dt=5e-4)
    assert c.canonical_text() != a.canonical_text()
    assert Path(KERNEL_PATH).read_text(encoding="utf-8") in a.canonical_text()


# ---------------------------------------------------------------------------
# rate fitting


def test_fit_rate_exact_power_law():
    pts = [(n, 2.0 * n ** -1.5) for n in (10, 100, 1000, 10000)]
    fit = fit_rate(pts)
    assert fit.slope == pytest.approx(-1.5, rel=1e-12)
    assert fit.intercept == pytest.approx(math.log(2.0), rel=1e-12)
    assert fit.slope_se == pytest.approx(0.0, abs=1e-10)
    with pytest.raises(ValueError, match="three points"):
        fit_rate(pts[:2])
    with pytest.raises(ValueError, match="positive finite"):
        fit_rate([(10, 1.0), (100, 0.0), (1000, 1.0)])
    with pytest.raises(ValueError, match="positive finite"):
        fit_rate([(10, 1.0), (100, math.inf), (1000, 1.0)])


# ---------------------------------------------------------------------------
# companion-chain moments


def test_chain_moments_mode_zero_and_initial_row(default_kernel):
    g = TorusGrid(128)
    density = fourier_field(g, [1.0, 0.5], [0.0, 0.25])
    C, S = _chain_moments(default_kernel, density, 1e-3, 3)
    assert np.all(C[:, 0] == 1.0) and np.all(S[:, 0] == 0.0)
    # row 0 is the exact law of the inverse-CDF sampler: check against a
    # large Monte Carlo draw from that very sampler
    x = sample_initial(density, 400_000, np.random.default_rng(0))[:, 0]
    for m in range(1, C.shape[1]):
        mc = np.cos(2 * np.pi * m * x).mean()
        ms = np.sin(2 * np.pi * m * x).mean()
        assert C[0, m] == pytest.approx(mc, abs=5 / math.sqrt(400_000))
        assert S[0, m] == pytest.approx(ms, abs=5 / math.sqrt(400_000))


def test_chain_moments_pure_diffusion_damps_exactly():
    g = TorusGrid(256)
    density = fourier_field(g, [1.0, 0.4, 0.2])
    dt = 1e-3
    still = KernelSpec(
        b_cos=np.zeros(1), b_sin=np.zeros(1),
        k_cos=np.zeros(3), k_sin=np.zeros(3),
    )
    C, S = _chain_moments(still, density, dt, 2)
    for n in (1, 2):
        for m in (1, 2):
            # the complex moment damps without rotating, so the cosine and
            # sine parts shrink by the same exact heat factor
            damp = math.exp(-((2 * math.pi * m) ** 2) * dt * n)
            assert C[n, m] == pytest.approx(damp * C[0, m], rel=1e-8, abs=1e-12)
            assert S[n, m] == pytest.approx(damp * S[0, m], rel=1e-6, abs=1e-12)


def test_chain_moments_erf_within_1e15_of_scipy(default_kernel, monkeypatch):
    # the transfer-matrix oracle's first step integrates the Gaussian with
    # math.erf; scipy's erf differs by at most an ulp per value, so the
    # moments agree to 1e-15
    from scipy.special import erf

    density = fourier_field(TorusGrid(256), [1.0, 0.5], [0.0, 0.25])
    got = chain_moments_transfer_matrix(default_kernel, density, 1e-3, 3)
    monkeypatch.setattr(chain_transfer_matrix, "_erf", erf)
    want = chain_moments_transfer_matrix(default_kernel, density, 1e-3, 3)
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= 1e-15


@pytest.mark.parametrize("steps", [3, 50])
@pytest.mark.parametrize("min_refine", [1, 4])
@pytest.mark.parametrize("dt", [1e-3, 1e-4])  # the 64 cells refine 2x and 5x
@pytest.mark.parametrize("sin_coeffs", [None, [0.0, 0.25]], ids=["cos", "cos_sin"])
@pytest.mark.parametrize("name", ["default", "rich"])
def test_chain_moments_match_transfer_matrix_oracle(name, sin_coeffs, dt, min_refine, steps,
                                                    default_kernel):
    # the Fourier-space chain is the transfer-matrix chain with the heat
    # factor applied diagonally: the same table to roundoff
    kernel = RICH_KERNEL if name == "rich" else default_kernel
    density = fourier_field(TorusGrid(64), [1.0, 0.5], sin_coeffs)
    got = _chain_moments(kernel, density, dt, steps, min_refine=min_refine)
    want = chain_moments_transfer_matrix(kernel, density, dt, steps, min_refine=min_refine)
    for a, b in zip(got, want):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-14


def test_chain_moments_leave_scipy_special_unimported():
    code = (
        "import sys\n"
        "from pchaos.core import KernelSpec, TorusGrid, fourier_field\n"
        "from pchaos.experiments import _chain_moments\n"
        f"k = KernelSpec.from_file({str(KERNEL_PATH)!r})\n"
        "_chain_moments(k, fourier_field(TorusGrid(64), [1.0, 0.5]), 1e-3, 2)\n"
        "print('scipy.special' in sys.modules)\n"
    )
    assert fresh_python("-c", code).strip() == "False"


def test_chain_moments_keep_to_one_cpu():
    # the chain task runs in a rates pool worker beside the others; its
    # (L + 1, M) spectrum sum at the shipped rates shape (34 x 256, complex)
    # woke OpenBLAS's worker threads as a matrix-vector product, ~1.9
    # CPU-seconds per wall-second on two cores under numpy's default
    # threading.  The child waits out the spin of numpy's import, as in
    # test_hierarchy_solve_keeps_to_one_cpu.
    code = (
        "import time\n"
        "from pchaos.core import KernelSpec, TorusGrid, fourier_field\n"
        "from pchaos.experiments import _chain_moments\n"
        f"k = KernelSpec.from_file({str(KERNEL_PATH)!r})\n"
        "f = fourier_field(TorusGrid(256), [1.0, 0.5])\n"
        "time.sleep(0.3)\n"
        "c0, t0 = time.process_time(), time.perf_counter()\n"
        "_chain_moments(k, f, 1e-3, 500)\n"
        "print((time.process_time() - c0) / (time.perf_counter() - t0))\n"
    )
    ratio = fresh_python("-c", code)
    assert float(ratio) <= 1.3, ratio


def test_chain_moments_quadrature_self_convergence(default_kernel):
    # refining the quadrature cells leaves the law unchanged; the moments
    # must settle at second order in the cell width
    g = TorusGrid(64)
    density = fourier_field(g, [1.0, 0.5], [0.0, 0.25])
    ref = _chain_moments(default_kernel, density, 1e-3, 4, min_refine=12)
    c_coarse, s_coarse = _chain_moments(default_kernel, density, 1e-3, 4, min_refine=1)
    c_fine, s_fine = _chain_moments(default_kernel, density, 1e-3, 4, min_refine=4)
    err_coarse = max(np.abs(c_coarse - ref[0]).max(), np.abs(s_coarse - ref[1]).max())
    err_fine = max(np.abs(c_fine - ref[0]).max(), np.abs(s_fine - ref[1]).max())
    assert err_coarse < 1e-6
    assert err_fine < 1e-7
    assert err_fine < err_coarse / 2


def test_chain_moments_one_step_against_fine_quadrature(default_kernel):
    # independent route: E cos(2 pi m X_1) equals the Gaussian-damped moment
    # of y + dt * drift(y) under the sampler law, by the characteristic
    # function of the wrapped Gaussian increment
    g = TorusGrid(64)
    density = fourier_field(g, [1.0, 0.5], [0.0, 0.25])
    dt = 1e-3
    C, S = _chain_moments(default_kernel, density, dt, 1)
    refine = 64
    h = g.h / refine
    y = (np.arange(g.M * refine) + 0.5) * h
    masses = np.repeat(density.values * g.h, refine) / refine
    shifted = y + dt * mode_sum_drift(default_kernel, y, C[0], S[0])
    for m in range(1, C.shape[1]):
        damp = math.exp(-((2 * math.pi * m) ** 2) * dt)
        want_c = damp * float((masses * np.cos(2 * np.pi * m * shifted)).sum())
        want_s = damp * float((masses * np.sin(2 * np.pi * m * shifted)).sum())
        assert C[1, m] == pytest.approx(want_c, abs=2e-6)
        assert S[1, m] == pytest.approx(want_s, abs=2e-6)


def test_predictions_check_the_band_before_the_pool_gets_work(tmp_path):
    # a kernel mode past the grid's Nyquist limit is a user error; it must
    # be raised before the chain moments go to the pool, where a mode that
    # high takes seconds to tabulate
    class RecordingPool:
        def __init__(self):
            self.submitted = []

        def submit(self, fn, *args):
            self.submitted.append(fn)

    kernel = KernelSpec.from_tables(b={1: (0.5, 0.0)}, khat={1500: (0.0, 0.25)})
    pool = RecordingPool()
    with pytest.raises(ValueError, match="Nyquist"):
        experiments._predictions(_ecfg(tmp_path, workers=2), kernel, pool)
    assert pool.submitted == []


# ---------------------------------------------------------------------------
# the fused simulation worker


def _payload(kernel, density, N, dt, n_steps, seed, r0, r1):
    C, S = _chain_moments(kernel, density, dt, n_steps)
    cfg = SimConfig(N=N, dt=dt, T=n_steps * dt, n_replicas=r1, base_seed=seed,
                    kernel=kernel, initial_density=density)
    return cfg, r0, r1, C, S, 0  # pair statistics of the panel's first observable


def test_worker_matches_canonical_ensemble(default_kernel):
    # the worker's interacting system is run_ensemble's stepper: bit for bit,
    # and to reassociation with a replay through the direct drift oracle
    g = TorusGrid(64)
    density = fourier_field(g, [1.0, 0.5], [0.0, 0.25])
    N, dt, n_steps, seed = 8, 1e-3, 3, 11
    _, _, _, x = _rate_worker(
        *_payload(default_kernel, density, N, dt, n_steps, seed, 0, 5)
    )
    cfg = SimConfig(
        N=N, dt=dt, T=n_steps * dt, n_replicas=5, base_seed=seed,
        kernel=default_kernel, initial_density=density,
    )
    assert np.array_equal(x, run_ensemble(cfg, [n_steps * dt]).positions[:, 0, :, 0])
    for r in range(5):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, r))))
        y = sample_initial(density, N, rng)
        for _ in range(n_steps):
            y = em_step(y, pair_drift(default_kernel, y, True, "direct"), dt,
                        rng.standard_normal(y.shape))
        assert np.abs(x[r] - y[:, 0]).max() < 1e-10


def test_companion_drift_is_the_moment_drift():
    # the fused companion evaluator sums the drift as mode_sum_drift does
    y = np.random.default_rng(4).random((3, 16))
    C = np.array([1.0, 0.3, -0.2])
    S = np.array([0.0, 0.1, 0.4])
    drift, _, _ = _companion_terms(RICH_KERNEL, y, C, S)
    assert np.array_equal(drift, mode_sum_drift(RICH_KERNEL, y, C, S))


def _assert_matches_explicit_companion(kernel, y, C, S, tol, scale=0.0):
    for got, want in zip(_companion_terms(kernel, y, C, S),
                         companion_terms_explicit(kernel, y, C, S)):
        assert np.max(np.abs(got - want)) <= tol * max(np.abs(want).max(), scale)


@pytest.mark.parametrize("name", ["rich", "default"])
def test_companion_terms_match_explicit_form(name, default_kernel):
    # the folded coefficients and the cos^2 + sin^2 = 1 self term reproduce
    # the leave-one-out form to roundoff
    kernel = RICH_KERNEL if name == "rich" else default_kernel
    rng = np.random.default_rng(12)
    y = rng.random((4, 50))
    modes = np.arange(len(kernel.k_cos))
    C = np.cos(2 * np.pi * np.outer(modes, rng.random(200))).mean(axis=1)
    S = np.sin(2 * np.pi * np.outer(modes, rng.random(200))).mean(axis=1)
    _assert_matches_explicit_companion(kernel, y, C, S, 1e-13)


@settings(max_examples=200, deadline=None)
@given(kernel=band_limited_kernels(), N=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
def test_companion_terms_match_explicit_form_for_any_kernel(kernel, N, seed):
    rng = np.random.default_rng(seed)
    y = rng.random((3, N))
    C, S = rng.uniform(-1, 1, len(kernel.k_cos)), rng.uniform(-1, 1, len(kernel.k_cos))
    C[0], S[0] = 1.0, 0.0
    # a term can cancel to far below its parts, so the scale covers them too
    scale = kernel.sup_norm_bound * (1 + 2 * np.pi * kernel.band)
    _assert_matches_explicit_companion(kernel, y, C, S, 1e-13, scale)


def test_companion_terms_at_quadrant_edges():
    # quarter turns, their neighbouring doubles, 0 and the last double below 1
    quarters = np.arange(4) / 4
    y = np.unique(np.concatenate([quarters, np.nextafter(quarters, 1.0),
                                  np.nextafter(quarters[1:], 0.0), [np.nextafter(1.0, 0.0)]]))
    y = np.stack([y, y[::-1]])
    C = np.array([1.0, 0.3, -0.2])
    S = np.array([0.0, 0.1, 0.4])
    scale = RICH_KERNEL.sup_norm_bound * (1 + 2 * np.pi * RICH_KERNEL.band)
    _assert_matches_explicit_companion(RICH_KERNEL, y, C, S, 1e-13, scale)
    drift, _, _ = _companion_terms(RICH_KERNEL, y, C, S)
    assert np.array_equal(drift, mode_sum_drift(RICH_KERNEL, y, C, S))


# The worker's trigonometry reduces 2 pi m x by exact quarter turns
# (particles._cos_sin).  The old form rounded the argument fl(2 pi m x)
# first, an error of up to ~m 4e-16 that the new values no longer carry;
# through the coupled steps that moves the corrected estimates by ~1e-11 of
# themselves and of their standard error.  This is the restated agreement
# with the old form, with two orders of magnitude to spare.
RESTATED_TRIG_TOL = 1e-9


def _assert_moved_within_restated_bound(new, old):
    # two _rate_worker results: the corrected estimates within the restated
    # bound of themselves and of their standard error
    diffs_new, diffs_old = new[0], old[0]
    est_new, est_old = diffs_new.mean(axis=0), diffs_old.mean(axis=0)
    se = diffs_old.std(axis=0, ddof=1) / np.sqrt(len(diffs_old))
    moved = np.abs(est_new - est_old)
    assert np.all(moved <= RESTATED_TRIG_TOL * np.abs(est_old))
    assert np.all(moved <= RESTATED_TRIG_TOL * se)
    # the plain means and the pair statistics see only the positions
    for k in (1, 2):
        assert np.max(np.abs(new[k] - old[k])) <= 1e-13


def test_quarter_turn_trig_moves_the_worker_within_the_restated_bound(default_kernel,
                                                                      monkeypatch):
    g = TorusGrid(64)
    density = fourier_field(g, [1.0, 0.5], [0.0, 0.25])
    payload = _payload(default_kernel, density, 20, 1e-3, 40, 5, 0, 50)
    new = _rate_worker(*payload)
    monkeypatch.setattr(particles, "_cos_sin", plain_cos_sin)
    old = _rate_worker(*payload)
    assert not np.array_equal(new[3], old[3])  # the oracle did take the helper's place
    _assert_moved_within_restated_bound(new, old)


def test_fourier_chain_moves_the_worker_within_the_restated_bound(default_kernel):
    # the same worker run on the transfer-matrix oracle's table and on the
    # Fourier-space one: the tables differ by roundoff, which the coupled
    # steps carry into the corrected estimates only
    g = TorusGrid(64)
    density = fourier_field(g, [1.0, 0.5], [0.0, 0.25])
    cfg, r0, r1, C, S, primary = _payload(default_kernel, density, 20, 1e-3, 40, 5, 0, 50)
    C_old, S_old = chain_moments_transfer_matrix(default_kernel, density, 1e-3, 40)
    assert not (np.array_equal(C, C_old) and np.array_equal(S, S_old))
    _assert_moved_within_restated_bound(_rate_worker(cfg, r0, r1, C, S, primary),
                                        _rate_worker(cfg, r0, r1, C_old, S_old, primary))


def test_drift_derivative_matches_finite_differences():
    rng = np.random.default_rng(9)
    x = rng.random((1, 32))
    C = np.array([1.0, 0.3, -0.2])
    S = np.array([0.0, 0.1, 0.4])
    _, deriv, _ = _companion_terms(RICH_KERNEL, x, C, S)
    eps = 1e-6
    fd = (mode_sum_drift(RICH_KERNEL, x + eps, C, S)
          - mode_sum_drift(RICH_KERNEL, x - eps, C, S)) / (2 * eps)
    assert np.max(np.abs(deriv - fd)) < 1e-7


def test_worker_zero_interaction_null(default_kernel):
    # with no interaction modes the coupled companion is bitwise identical to
    # the system, so every estimated difference vanishes exactly
    kernel = KernelSpec(
        b_cos=default_kernel.b_cos, b_sin=default_kernel.b_sin,
        k_cos=np.zeros(1), k_sin=np.zeros(1),
    )
    g = TorusGrid(64)
    density = fourier_field(g, [1.0, 0.5])
    diffs, _, pairs, _ = _rate_worker(*_payload(kernel, density, 6, 1e-3, 4, 3, 0, 4))
    assert np.all(diffs == 0.0)
    assert np.array_equal(pairs[:, :2], pairs[:, 2:])  # uX, aX against uY, aY


def test_worker_chunking_is_invisible(default_kernel):
    g = TorusGrid(64)
    density = fourier_field(g, [1.0, 0.5], [0.0, 0.25])
    whole = _rate_worker(*_payload(default_kernel, density, 6, 1e-3, 2, 9, 0, 6))
    lo = _rate_worker(*_payload(default_kernel, density, 6, 1e-3, 2, 9, 0, 3))
    hi = _rate_worker(*_payload(default_kernel, density, 6, 1e-3, 2, 9, 3, 6))
    assert len(whole) == 4
    for k in range(4):
        joined = np.concatenate([lo[k], hi[k]])
        assert np.array_equal(whole[k], joined)


# ---------------------------------------------------------------------------
# the full driver


def test_run_rate_experiment_smoke(tmp_path):
    ecfg = _ecfg(tmp_path)
    res = run_rate_experiment(ecfg)
    names = [p[0] for p in _PHI_PANEL]
    assert res.primary in names
    assert sorted(res.ratios) == sorted(ecfg.N_list)
    assert set(res.fits) == {"bias", "pair"}
    assert math.isfinite(res.fits["bias"].slope)

    lines = Path(res.csv_path).read_text(encoding="utf-8").splitlines()
    assert lines[0] == "N,j,i,t,observable,estimate,prediction,se"
    # per N: four observables twice (corrected and plain), one pair cumulant,
    # one chi-squared row per requested j
    per_n = 2 * len(names) + 1 + len(ecfg.j_list)
    assert len(lines) == 1 + per_n * len(ecfg.N_list)

    manifest = json.loads(Path(res.manifest_path).read_text(encoding="utf-8"))
    assert manifest["status"] == "complete"
    assert manifest["rows"] == len(lines) - 1
    assert manifest["seed"] == ecfg.seed
    want_sha = hashlib.sha256(ecfg.canonical_text().encode()).hexdigest()
    assert manifest["config_sha256"] == want_sha


@pytest.mark.parametrize("change", ["edit", "delete"])
def test_rate_manifest_hashes_the_kernel_as_read(tmp_path, monkeypatch, change):
    # the kernel file changing or vanishing mid-run leaves the hash of the
    # kernel that ran, and a complete manifest
    kernel = tmp_path / "kernel.txt"
    kernel.write_text(KERNEL_PATH.read_text(encoding="utf-8"), encoding="utf-8")
    ecfg = _ecfg(tmp_path, kernel_path=str(kernel))
    want_sha = hashlib.sha256(ecfg.canonical_text().encode()).hexdigest()
    real = experiments.solve_g_hierarchy

    def changing_kernel(*args):
        if change == "edit":
            kernel.write_text("b 1 0.5 0.0\n", encoding="utf-8")
        else:
            kernel.unlink()
        return real(*args)

    monkeypatch.setattr(experiments, "solve_g_hierarchy", changing_kernel)
    res = run_rate_experiment(ecfg)
    manifest = json.loads(Path(res.manifest_path).read_text(encoding="utf-8"))
    assert manifest["status"] == "complete"
    assert manifest["config_sha256"] == want_sha


@pytest.mark.parametrize("exc, status", [
    (ValueError("too many cells: injected at the second N"),
     "failed: ValueError: too many cells: injected at the second N"),
    (KeyboardInterrupt(), "failed: KeyboardInterrupt"),  # Ctrl-C during a run
], ids=["error", "interrupt"])
def test_run_rate_experiment_persists_failures(tmp_path, monkeypatch, exc, status):
    # a stage that dies at the second N must flush the first N's rows; the
    # histogram stage is made to fail there (the real cell cap is checked
    # before any simulation, see test_histogram_cell_cap_checked_per_n_and_j)
    ecfg = _ecfg(tmp_path, bins=8)
    real = experiments.chi_squared_from_samples

    def failing_at_second_n(samples, *args, **kw):
        if len(samples) == ecfg.replicas * sorted(ecfg.N_list)[1]:  # j = 1
            raise exc
        return real(samples, *args, **kw)

    monkeypatch.setattr(experiments, "chi_squared_from_samples", failing_at_second_n)
    with pytest.raises(type(exc)):
        run_rate_experiment(ecfg)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["status"] == status
    lines = (tmp_path / "out" / "rates.csv").read_text().splitlines()
    assert lines[0] == "N,j,i,t,observable,estimate,prediction,se"
    assert len(lines) > 1
    # the first N is complete, the second has the rows made before its
    # histograms, and the third never ran
    per_n = {}
    for line in lines[1:]:
        per_n.setdefault(int(line.split(",")[0]), []).append(line.split(",")[4])
    assert sorted(per_n) == [4, 6]
    assert len(per_n[4]) == 2 * len(_PHI_PANEL) + 1 + len(ecfg.j_list)
    assert len(per_n[6]) == 2 * len(_PHI_PANEL) + 1
    assert not any(name.startswith("chi2") for name in per_n[6])


def test_histogram_cell_cap_checked_per_n_and_j(tmp_path):
    # every (N, j) needs replicas * floor(N/j) / 50 >= bins_j^j, with pair
    # histograms on max(2, bins // 4) bins per axis
    _ecfg(tmp_path, N_list=(4, 8, 16), bins=8)  # N = 4: 100 * 4 / 50 = 8 cells for j = 1
    with pytest.raises(ConfigError, match=r"N = 4, j = 1: 16\^1 = 16 exceeds n/50 = 8"):
        _ecfg(tmp_path, N_list=(8, 4), bins=16)
    # j = 2 at N = 5: floor(5/2) = 2 tuples per replica, 12 // 4 = 3 bins per axis
    with pytest.raises(ConfigError, match=r"N = 5, j = 2: 3\^2 = 9 exceeds n/50 = 4"):
        _ecfg(tmp_path, N_list=(5, 8), j_list=(2,), bins=12, grid=48)
    _ecfg(tmp_path, N_list=(5, 8, 16), j_list=(2,), bins=12, grid=48, replicas=300)
    with pytest.raises(ConfigError, match="multiple"):
        _ecfg(tmp_path, bins=5)


def test_one_and_two_workers_write_the_same_csv(tmp_path):
    # one and two pool workers cut N = 60 into 3 and 4 chunks: the same bytes
    base = dict(N_list=(40, 60, 80), replicas=300)
    assert [len(experiments._chunks(300, N, 1)) for N in base["N_list"]] == [2, 3, 4]
    assert [len(experiments._chunks(300, N, 2)) for N in base["N_list"]] == [2, 4, 4]
    one = run_rate_experiment(_ecfg(tmp_path, out_dir=str(tmp_path / "w1"), workers=1, **base))
    two = run_rate_experiment(_ecfg(tmp_path, out_dir=str(tmp_path / "w2"), workers=2, **base))
    assert Path(one.csv_path).read_bytes() == Path(two.csv_path).read_bytes()


@pytest.mark.parametrize("workers", [1, 64])
def test_rate_pool_is_sized_to_the_machine(tmp_path, monkeypatch, workers):
    # the pool forks every worker at its first task, so 64 requested workers
    # on two CPUs get a pool of two and chunks for two, and one worker a pool
    # of one; the stub pool runs each task inline and starts no process
    pools, tasks = [], []

    class InlinePool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def submit(self, fn, *args, **kwargs):
            tasks.append(fn)
            future = concurrent.futures.Future()
            future.set_result(fn(*args, **kwargs))
            return future

        def shutdown(self, cancel_futures=False):
            pass

    # run_rate_experiment imports the pool class from concurrent.futures when it runs
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
    run_rate_experiment(_ecfg(tmp_path, N_list=(40, 60, 80), replicas=300, workers=workers))
    size = min(workers, 2)
    assert pools == [size]
    # the chain-moment table, then every N's chunks for the pool's workers
    assert tasks[0] is _chain_moments
    assert len(tasks) == 1 + sum(len(experiments._chunks(300, N, size)) for N in (40, 60, 80))


def test_chunks_cover_replicas_in_multiples_of_workers():
    for replicas, N, workers in ((600, 25, 2), (600, 100, 2), (10000, 800, 8), (10, 4, 3), (3, 10**6, 8)):
        chunks = experiments._chunks(replicas, N, workers)
        assert chunks[0][0] == 0 and chunks[-1][1] == replicas
        assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))
        assert all(r1 > r0 for r0, r1 in chunks)
        assert len(chunks) % workers == 0 or len(chunks) == replicas
    assert experiments._chunks(600, 100, 2) == [(60 * i, 60 * i + 60) for i in range(10)]


# ---------------------------------------------------------------------------
# bounds lattice report


def test_bounds_report_clean_lattice(tmp_path):
    out = tmp_path / "bounds.csv"
    rep = run_bounds_report(j_list=(1, 4), ell_max=8, b_list=(1, 3), t_list=(0.5,), out_csv=out)
    assert rep.ok and rep.violations == []
    assert len(rep.rows) == 2 * 8 * 2
    assert all(r["margin"] >= -1e-12 for r in rep.rows)
    assert len(rep.summary) == 4 and all("PASS" in s for s in rep.summary)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "j,ell,beta,t,I,poly_b,poly_bound,exp_bound,margin"
    assert len(lines) == 1 + len(rep.rows)
    # the exponential-bound column is blank where its hypothesis fails
    assert any(",," in line for line in lines[1:])


def test_bounds_report_flags_injected_fault():
    # at (j=16, ell=64, b=7, t=0.1) the polynomial bound sits near 3e-4, so
    # shifting every value up by 1e-3 must be caught
    rep = run_bounds_report(j_list=(16,), ell_max=64, b_list=(7,), t_list=(0.1,), inject=1e-3)
    assert not rep.ok
    assert any(v.startswith("poly") for v in rep.violations)
    assert any("FAIL" in s for s in rep.summary)


def _fails_every_check(summary_line):
    m = re.search(r"FAIL \((\d+) points\) over (\d+) checks", summary_line)
    return m is not None and m.group(1) == m.group(2)


def test_bounds_report_nan_fails_every_gate(monkeypatch):
    # a NaN value fails the gates that read I (inject does not reach the
    # recurrence residuals), a NaN residual fails the recurrence gate
    lattice = dict(j_list=(1, 4), ell_max=12, b_list=(1, 3), t_list=(0.1, 3.0))
    rng, rec, poly, exp = run_bounds_report(inject=math.nan, **lattice).summary
    assert all(_fails_every_check(line) for line in (rng, poly, exp))
    assert "PASS" in rec
    monkeypatch.setattr(experiments.bnd, "recurrence_residual_sweep",
                        lambda ell_max, j, beta, ts: np.full((ell_max, len(ts)), math.nan))
    rep = run_bounds_report(**lattice)
    assert _fails_every_check(rep.summary[1])
    assert all("PASS" in line for line in rep.summary[:1] + rep.summary[2:])


_GATES = ("range", "recurrence", "poly", "exp")  # the order of the summary lines


@pytest.mark.parametrize("gate", _GATES)
def test_each_bounds_gate_fires_on_its_own(gate, monkeypatch):
    # one fault per gate: the shipped inject control trips range and poly
    # together, so each gate is also shown to catch a fault the others pass
    lattice = dict(j_list=(1, 4), ell_max=12, b_list=(1, 3), t_list=(0.1, 3.0))
    inject = -1.5 if gate == "range" else 0.0
    if gate == "recurrence":
        monkeypatch.setattr(experiments.bnd, "recurrence_residual_sweep",
                            lambda ell_max, j, beta, ts: np.ones((ell_max, len(ts))))
    elif gate == "exp":
        real = experiments.bnd.exp_bound
        monkeypatch.setattr(experiments.bnd, "exp_bound",
                            lambda *args: None if real(*args) is None else 0.0)
    elif gate == "poly":
        monkeypatch.setattr(experiments.bnd, "poly_bound", lambda *args: 0.0)
    summary = run_bounds_report(inject=inject, **lattice).summary
    assert [("FAIL" in line) for line in summary] == [g == gate for g in _GATES], summary


def test_bounds_report_evaluates_one_column_per_j(monkeypatch):
    # every time of a j shares one value table and one residual sweep
    calls = []
    real_table = experiments.bnd.eval_I_table

    def table(j, ell_max, beta, ts):
        calls.append(("table", j, list(ts)))
        return real_table(j, ell_max, beta, ts)

    def sweep(ell_max, j, beta, ts):
        calls.append(("sweep", j, list(ts)))
        return np.zeros((ell_max, len(ts)))

    monkeypatch.setattr(experiments.bnd, "eval_I_table", table)
    monkeypatch.setattr(experiments.bnd, "recurrence_residual_sweep", sweep)
    t_list = [0.0, 0.1, 3.0]
    rep = run_bounds_report(j_list=(1, 4, 16), ell_max=8, b_list=(1,), t_list=t_list)
    assert rep.ok and len(rep.rows) == 3 * 8 * 3
    assert calls == [(kind, j, t_list) for j in (1, 4, 16) for kind in ("table", "sweep")]


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-6])
def test_bounds_report_rejects_bad_residual_tol(tol):
    with pytest.raises(ValueError, match="residual_tol must be finite and positive"):
        run_bounds_report(j_list=(1,), ell_max=2, residual_tol=tol)


def test_bounds_report_rejects_empty_lattice():
    with pytest.raises(ValueError, match="no lattice points"):
        run_bounds_report(j_list=())
