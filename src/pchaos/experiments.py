"""End-to-end experiment drivers: rate studies and bounds certification.

The rate experiment measures how fast the one-particle law of the interacting
system approaches the mean-field density.  The raw bias E[phi(X_1)] - int
phi rho is ~1/N, far below Monte Carlo noise at feasible replica counts, so
each replica also carries a companion system of N independent particles
driven by the *same* Brownian increments from the same initial positions.
The companion drift is the self-consistent time-discrete mean-field chain
(its per-step moments solve the same Euler recursion the particles follow),
which is exactly the large-N limit law of the interacting scheme; because
the two systems share that limit, the difference of their phi-means is an
estimate of the finite-N bias with no N-independent discretization offset
and with variance orders of magnitude below the raw estimate.  What noise
remains is, to leading order, the linear response of the interacting system
to the O(1/sqrt N) fluctuation of its empirical kernel moments.  That
response is itself observable: a per-particle derivative companion
integrates the linearized dynamics driven by the companion's own moment
discrepancies, and subtracting its phi-derivative projection removes the
response noise pathwise.  Two details keep the subtraction exactly centered:
the discrepancies are measured against the exact per-step moments of the
companion chain (computed by propagating its density in Fourier space, not
by simulation; see _chain_moments), and each particle's own contribution is
left out of the moments driving its correction (the retained self-term would
otherwise re-enter at the O(1/N) order being measured).  The correction term
then has expectation exactly zero by independence, so the corrected
difference stays unbiased while its standard error drops by a further order
of magnitude.

The worker steps both systems and the derivative companion in place, in
work arrays allocated once per chunk.  Per kernel mode it takes cos and sin
of 2 pi m x once per particle and system from particles._cos_sin (exact
quarter-turn reduction, then one libm sin on [-pi/4, pi/4] and cos as
sqrt(1 - sin^2)); b's coefficients and the moments (each replica's for the
interacting system, the chain's for the companion) fold into two per-mode
coefficients, so the drift, its Jacobian and the leave-one-out forcing each
cost one product per trigonometric value (see _companion_terms).  The
chain-moment table steps the chain's spectrum, band-limited by the heat
factor, so it costs O(M L) per step for M cells and L modes.
run_rate_experiment runs every task on one process pool of
min(workers, cpu_count) processes, one worker included: the pool builds the
chain-moment table while the main process solves the hierarchy, then takes
every N's replica chunks, all submitted up front.  Each worker runs BLAS on
its own thread under the CLI's thread policy (see pchaos.cli), and the
chain-moment table sums its spectrum with einsum rather than a BLAS product,
so a library caller whose OpenBLAS keeps its worker pool does not
oversubscribe the rate pool either.
A chunk holds about _CHUNK_PARTICLES particles and each N gets a multiple
of workers chunks.  Results are consumed in N order, so rows are built and
a failure is flushed per N.

Pair cumulants are estimated within replicas over all ordered distinct pairs
with the exact between-replica mean-covariance correction, for both coupled
systems; the companion's cumulant vanishes identically in law, so the paired
difference of the two estimates is again unbiased and strips the noise the
coupled systems share.

The bounds report certifies the damping integrals on a (j, ell, t) lattice
one j at a time: one value table (bounds.eval_I_table) and one
recurrence-residual sweep (bounds.recurrence_residual_sweep) cover every
order and time of that j.  The gates, the polynomial and exponential bounds
and the CSV rows stay per lattice point.

Everything is deterministic given (config, seed): replica RNG streams depend
only on the absolute replica index, results are reduced in index order, and
the manifest records the config hash and seed next to the CSV.
"""

from __future__ import annotations

import math
import os
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import bounds as bnd
from .config import Config, ConfigError, _write_csv, _write_manifest
from .core import GridField, KernelSpec, TorusGrid, fourier_field, product_field, step_count
from .metrics import (
    chi_squared_from_samples,
    histogram_bins,
    paired_pair_cumulant_difference,
    weighted_l2_error,
)
from .particles import (
    _MODE_WORK,
    SimConfig,
    _cell_cdf,
    _mode_terms,
    _replica_steps,
    em_step,
    extract_marginal_samples,
    mode_sum_drift,
)
from .partitions import assemble_correction
from .pde import TimeGrid, solve_g_hierarchy

__all__ = [
    "ExperimentConfig",
    "RateFit",
    "fit_rate",
    "RateResult",
    "run_rate_experiment",
    "BoundsReport",
    "run_bounds_report",
]

# particles (replicas x N) per worker task: enough to amortize each step's
# per-call overhead, few enough that the step's arrays stay in cache
_CHUNK_PARTICLES = 6000
_PHI_PANEL = (("cos1", "cos", 1), ("sin1", "sin", 1), ("cos2", "cos", 2), ("sin2", "sin", 2))


class ExperimentConfig:
    """Validated inputs of a rate experiment."""

    def __init__(self, kernel_path: str, density_cos: tuple, density_sin: tuple, N_list: tuple,
                 j_list: tuple, order: int, T: float, dt: float, replicas: int, seed: int,
                 grid: int, sample_grid: int, bins: int, out_dir: str, workers: int):
        self.kernel_path = kernel_path
        self.density_cos = density_cos
        self.density_sin = density_sin
        self.N_list = N_list
        self.j_list = j_list
        self.order = order
        self.T = T
        self.dt = dt
        self.replicas = replicas
        self.seed = seed
        self.grid = grid
        self.sample_grid = sample_grid
        self.bins = bins
        self.out_dir = out_dir
        self.workers = workers

        if not self.N_list:
            raise ConfigError("need at least one N")
        if len(set(self.N_list)) != len(self.N_list):
            raise ConfigError("N values must be distinct")
        if not self.j_list or any(j not in (1, 2) for j in self.j_list):
            raise ConfigError("marginal orders j must come from {1, 2}")
        if len(set(self.j_list)) != len(self.j_list):
            raise ConfigError("j values must be distinct")
        if min(self.N_list) < max(2, max(self.j_list)):
            raise ConfigError("every N must be at least 2 and at least the largest j")
        if self.order != 1:
            raise ConfigError(
                f"order = {self.order} is not supported: rates is first order by design, because "
                "simulation cannot resolve the order-2 bias; higher orders are checked "
                "deterministically against the N-particle hierarchy"
            )
        if self.T <= 0 or self.dt <= 0:
            raise ConfigError("need positive horizon and step")
        if self.replicas < 10 or self.seed < 0:
            raise ConfigError("need replicas >= 10 and a nonnegative seed")
        if self.workers < 1:
            raise ConfigError("need workers >= 1")
        # the chi2_j rows bin every N's final positions; check them all before
        # any simulation, so a bad (N, j) cannot end a run after the N before it
        for N in sorted(self.N_list):
            for j in sorted(self.j_list):
                bins = histogram_bins(self.bins, j)
                if bins < 1 or self.grid % bins:
                    raise ConfigError(f"grid = {self.grid} is not a multiple of the {bins} "
                                      f"histogram bins of j = {j}")
                n = self.replicas * (N // j)
                if bins ** j > n / 50:
                    raise ConfigError(
                        f"too many histogram cells at N = {N}, j = {j}: {bins}^{j} = "
                        f"{bins ** j} exceeds n/50 = {n / 50:g} (n = replicas * floor(N/j))"
                    )
        if len(self.N_list) < 3:
            raise ConfigError(f"need at least three N values for the rate fits, "
                              f"got {len(self.N_list)}")
        fine = fourier_field(TorusGrid(4096), self.density_cos, self.density_sin)
        if fine.values.min() < 1e-3:
            raise ConfigError("initial density must stay above 1e-3")

    @classmethod
    def from_config(cls, cfg: Config, out_dir: str, seed: int):
        return cls(
            kernel_path=cfg.get_str("kernel"),
            density_cos=tuple(cfg.get_float_list("density_cos")),
            density_sin=tuple(cfg.get_float_list("density_sin", [])),
            N_list=tuple(cfg.get_int_list("N")),
            j_list=tuple(cfg.get_int_list("j", [1, 2])),
            order=cfg.get_int("order", 1),
            T=cfg.get_float("T"),
            dt=cfg.get_float("dt", 1e-3),
            replicas=cfg.get_int("replicas", 10000),
            seed=seed,
            grid=cfg.get_int("grid", 64),
            sample_grid=cfg.get_int("sample_grid", 256),
            bins=cfg.get_int("bins", 32),
            out_dir=out_dir,
            workers=cfg.get_int("workers", 8),
        )

    def canonical_text(self) -> str:
        kernel_text = Path(self.kernel_path).read_text(encoding="utf-8")
        items = [
            f"density_cos = {', '.join(repr(v) for v in self.density_cos)}",
            f"density_sin = {', '.join(repr(v) for v in self.density_sin)}",
            f"N = {', '.join(str(n) for n in self.N_list)}",
            f"j = {', '.join(str(j) for j in self.j_list)}",
            f"order = {self.order}",
            f"T = {self.T!r}",
            f"dt = {self.dt!r}",
            f"replicas = {self.replicas}",
            f"grid = {self.grid}",
            f"sample_grid = {self.sample_grid}",
            f"bins = {self.bins}",
            "kernel:",
            kernel_text,
        ]
        return "\n".join(items)


class RateFit(NamedTuple):
    """Least-squares line through (log N, log y) with a slope standard error."""

    abscissae: tuple
    ordinates: tuple
    slope: float
    intercept: float
    slope_se: float


def fit_rate(points) -> RateFit:
    """Fit log y = slope * log N + intercept; points is a sequence of (N, y)."""
    pts = [(float(n), float(y)) for n, y in points]
    if len(pts) < 3:
        raise ValueError("need at least three points for a rate fit")
    if any(y <= 0 or not math.isfinite(y) for _, y in pts):
        raise ValueError("rate fit needs positive finite ordinates")
    x = np.log([n for n, _ in pts])
    y = np.log([y for _, y in pts])
    n = len(pts)
    xb, yb = x.mean(), y.mean()
    sxx = ((x - xb) ** 2).sum()
    slope = float(((x - xb) * (y - yb)).sum() / sxx)
    intercept = float(yb - slope * xb)
    resid = y - slope * x - intercept
    var = float((resid ** 2).sum() / max(n - 2, 1))
    return RateFit(tuple(x), tuple(y), slope, intercept, math.sqrt(var / sxx))


# ---------------------------------------------------------------------------
# the coupled simulation worker (top level so it pickles)


def _phi_values(kind: str, mode: int, x: np.ndarray) -> np.ndarray:
    if kind == "cos":
        return np.cos(2 * np.pi * mode * x)
    return np.sin(2 * np.pi * mode * x)


def _phi_deriv_values(kind: str, mode: int, x: np.ndarray) -> np.ndarray:
    w = 2 * np.pi * mode
    if kind == "cos":
        return -w * np.sin(w * x)
    return w * np.cos(w * x)


def _pair_stats(v: np.ndarray):
    """Within-replica distinct-pair mean and replica mean of terminal values."""
    N = v.shape[1]
    s1 = v.sum(axis=1)
    s2 = (v * v).sum(axis=1)
    return (s1 * s1 - s2) / (N * (N - 1)), v.mean(axis=1)


def _chain_moments(kernel: KernelSpec, sample_density: GridField, dt: float,
                   n_steps: int, min_refine: int = 1):
    """Exact per-step trigonometric moments of the self-consistent companion chain.

    The companion chain is the N -> infinity limit of the interacting Euler
    scheme: a time-discrete nonlinear chain whose step-n drift field is built
    from its own step-n moments, started from the sampler's law (the cell
    masses of particles._cell_cdf).  Driving the companion particles with this
    chain's moments (rather than the continuum density's, which differ at
    O(dt)) gives both coupled systems the same large-N limit law, so their
    difference carries no N-independent discretization offset.  The same
    table centers the moment discrepancies that drive the derivative
    companion, whose correction must have mean exactly zero.

    The chain's law is kept as weights w_j on the M cell midpoints.  A step
    pushes each node to y_j = mid_j + dt drift(mid_j) and spreads it with the
    periodic Gaussian of variance 2 dt; by Poisson summation the result has
    the Fourier coefficients

        a_m = e^{-2 pi^2 sigma^2 m^2} sum_j w_j e^{-2 pi i m y_j},

    times sinc(m h) on the first step, whose cells are the sampler's constant
    ones rather than points.  The step's moments are C[m] = Re a_m and
    S[m] = -Im a_m, and irfft of a_m e^{i pi m h} gives the next node
    weights.  The spectrum is cut at the band L past which the heat factor
    is below 2^-60 (at least the kernel's band); cells are refined until the
    one-step heat kernel is resolved and L lies below M/2.  min_refine
    forces extra subdivision of the sampler's cells (the law is unchanged,
    only the quadrature), which gives an honest self-convergence check.
    Returns moment arrays of shape (n_steps + 1, modes).
    """
    n_modes = max(len(kernel.k_cos), 1)
    sigma = math.sqrt(2.0 * dt)
    L = max(n_modes - 1, math.ceil(math.sqrt(30.0 * math.log(2.0)) / (math.pi * sigma)))
    grid = sample_density.grid
    masses = np.diff(_cell_cdf(sample_density))
    refine = max(min_refine, math.ceil(4.0 / (sigma * grid.M)), math.ceil((2 * L + 1) / grid.M))
    M = grid.M * refine
    h = 1.0 / M
    weights = np.repeat(masses, refine) / refine
    mid = (np.arange(M) + 0.5) * h
    m = np.arange(L + 1)
    heat = np.exp(-2.0 * (np.pi * sigma * m) ** 2)
    shift = np.exp(1j * np.pi * h * m)
    phases = np.empty((L + 1, M), dtype=complex)

    def spectrum(y, w):
        # sum_j w_j e^{-2 pi i m y_j} for m = 0..L
        phases[0] = 1.0
        phases[1:] = np.exp(-2j * np.pi * y)
        return np.einsum("mj,j->m", np.cumprod(phases, axis=0, out=phases), w)

    Cdt = np.zeros((n_steps + 1, n_modes))
    Sdt = np.zeros((n_steps + 1, n_modes))
    Cdt[:, 0] = 1.0
    cell = np.sinc(m * h)  # the sampler's weights fill constant cells; later ones are points
    a = spectrum(mid, weights) * cell
    for n in range(n_steps + 1):
        Cdt[n, 1:], Sdt[n, 1:] = a[1:n_modes].real, -a[1:n_modes].imag
        if n < n_steps:
            a = spectrum(mid + dt * mode_sum_drift(kernel, mid, Cdt[n], Sdt[n]), weights) * heat * cell
            weights, cell = np.fft.irfft(a * shift, M), 1.0
    return Cdt, Sdt


# scratch rows of _companion_terms: drift, jac, force, then _mode_terms'
# rows, whose third is free between modes
_COMPANION_WORK = 3 + _MODE_WORK


def _companion_terms(kernel: KernelSpec, y: np.ndarray, C: np.ndarray, S: np.ndarray,
                     work=None):
    """Companion drift, its Jacobian, and the derivative companion's forcing.

    y is the (R, N) companion block and C[m], S[m] the chain moments of the
    step.  particles._mode_terms sums the drift into one row, as
    mode_sum_drift does (so it equals the interacting drift bitwise when
    khat = 0), and yields per mode cos = cos(2 pi m y), sin = sin(2 pi m y)
    and the step's scalars a = b_c + k_c C[m] - k_s S[m] and
    b = b_s + k_c S[m] + k_s C[m].  With w = 2 pi m, mode m contributes

        jac    w (cos b - sin a), the drift's derivative in the evaluation point,
        force  cos (k_c P_c - k_s P_s) + sin (k_c P_s + k_s P_c) - k_c / N,

    where P = mean - C[m] (1 - 1/N) per replica.  force is the khat response
    to each replica's companion moment discrepancy with every particle's own
    contribution left out: cos^2 + sin^2 = 1 turns the left-out self terms
    into the constant -k_c / N.  cos/sin are evaluated once per mode.  The
    three results are rows of work, a (_COMPANION_WORK, *y.shape) scratch
    array (allocated when None) that the next call overwrites.
    """
    N = y.shape[-1]
    if work is None:
        work = np.empty((_COMPANION_WORK, *y.shape))
    drift, jac, force = work[:3]
    modes = work[3:]
    tmp = modes[2]
    jac.fill(0.0)
    force.fill(0.0)
    self_terms = 0.0
    for (m, _, _, kc, ks), cy, sy, a, b in _mode_terms(kernel, y, C, S, drift, modes):
        w = 2 * np.pi * m
        jac += np.multiply(cy, w * b, out=tmp)
        jac -= np.multiply(sy, w * a, out=tmp)
        if kc == 0.0 and ks == 0.0:
            continue
        Pc, Ps = np.add.reduce(modes[:2], axis=-1, keepdims=True) / N
        Pc -= C[m] * (1.0 - 1.0 / N)
        Ps -= S[m] * (1.0 - 1.0 / N)
        force += np.multiply(cy, kc * Pc - ks * Ps, out=tmp)
        force += np.multiply(sy, kc * Ps + ks * Pc, out=tmp)
        self_terms += kc
    force -= self_terms / N
    return drift, jac, force


def _rate_worker(cfg: SimConfig, r0, r1, Cdt, Sdt, primary: int):
    """Coupled estimates over replicas range(r0, r1) of the sim configuration.

    The interacting system x is particles._replica_steps; the companion y
    starts at the same positions, takes the same noise and drifts by the
    chain moments Cdt[n], Sdt[n]; delta is the derivative companion.  Returns
    diffs and plains, one column per _PHI_PANEL observable; pairs, the columns
    uX, aX, uY, aY of _pair_stats of _PHI_PANEL[primary] on x and on y; and x.
    """
    steps = _replica_steps(cfg, range(r0, r1), cfg.n_steps)
    x, _ = next(steps)
    y = x.copy()
    delta = np.zeros_like(y)
    work = np.empty((_COMPANION_WORK, *y.shape))
    for n, (x, noise) in enumerate(steps):
        dy, jac, force = _companion_terms(cfg.kernel, y, Cdt[n], Sdt[n], work)
        jac *= delta
        jac += force
        jac *= cfg.dt
        delta += jac
        em_step(y, dy, cfg.dt, noise, out=y, work=force)

    diffs, plains = np.empty((2, r1 - r0, len(_PHI_PANEL)))
    for p, (_, kind, mode) in enumerate(_PHI_PANEL):
        vx = _phi_values(kind, mode, x)
        vy = _phi_values(kind, mode, y)
        plains[:, p] = vx.mean(axis=1)
        diffs[:, p] = plains[:, p] - vy.mean(axis=1) - (_phi_deriv_values(kind, mode, y) * delta).mean(axis=1)
        if p == primary:
            pairs = np.stack((*_pair_stats(vx), *_pair_stats(vy)), axis=1)
    return diffs, plains, pairs, x


def _chunks(replicas: int, N: int, workers: int) -> list:
    """Replica ranges of one N for the worker pool, in order.

    Each holds about _CHUNK_PARTICLES particles (replicas x N), and their
    count is a multiple of workers, so every worker gets the same share.
    """
    n = min(replicas, workers * max(1, round(replicas * N / (_CHUNK_PARTICLES * workers))))
    edges = [i * replicas // n for i in range(n + 1)]
    return list(zip(edges[:-1], edges[1:]))


class RateResult(NamedTuple):
    """Rows of the rate CSV plus the fitted slopes and prediction ratios."""

    rows: list
    primary: str
    fits: dict
    ratios: dict
    csv_path: str
    manifest_path: str


class _RatePlan(NamedTuple):
    """Solved predictions and exact moment tables shared by every worker."""

    rho: GridField
    per_phi: dict
    chi_pred: dict
    Cdt: np.ndarray  # (n_steps + 1, modes): companion-chain trig moments
    Sdt: np.ndarray
    sample_density: GridField


def _predictions(ecfg: ExperimentConfig, kernel: KernelSpec, pool) -> _RatePlan:
    """Mean-field solve and first-order correction functionals for the panel.

    The process pool builds the chain-moment table while this process solves
    the hierarchy; the band is checked before the pool gets work.
    """
    sample_density = fourier_field(TorusGrid(ecfg.sample_grid), ecfg.density_cos,
                                   ecfg.density_sin)
    grid = TorusGrid(ecfg.grid)
    density = fourier_field(grid, ecfg.density_cos, ecfg.density_sin)
    kernel._check_band(grid.M)
    n_steps = step_count(ecfg.T, ecfg.dt)
    chain = pool.submit(_chain_moments, kernel, sample_density, ecfg.dt, n_steps)
    # only the final time is read, so only t = 0 and T are stored
    gt = solve_g_hierarchy(1, density, kernel, TimeGrid(ecfg.dt, n_steps, n_steps))
    rho = gt.field(0, 1, 1)
    fields = gt.fields_at(1)
    h = grid.h
    x = grid.points
    per_phi = {}
    for name, kind, mode in _PHI_PANEL:
        pv = _phi_values(kind, mode, x)
        per_phi[name] = {
            "mean": h * float((pv * rho.values).sum()),
            "bias": h * float((pv * fields[(1, 1)]).sum()),
            "pair": h * h * float(np.einsum("x,y,xy->", pv, pv, fields[(1, 2)])),
        }
    chi_pred = {j: weighted_l2_error(GridField(grid, j, assemble_correction(1, j, fields)), rho)
                for j in (1, 2)}
    Cdt, Sdt = chain.result()
    return _RatePlan(rho, per_phi, chi_pred, Cdt, Sdt, sample_density)


def run_rate_experiment(ecfg: ExperimentConfig) -> RateResult:
    """Simulate, estimate observable biases and pair cumulants per N, fit rates.

    Persists rates.csv (header N,j,i,t,observable,estimate,prediction,se) and
    manifest.json into the output directory; partial results are flushed with
    a failure note if a stage dies.
    """
    out = Path(ecfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # built before the run, so the manifest hashes the kernel that ran
    hashed = ecfg.canonical_text()
    kernel = KernelSpec.from_file(ecfg.kernel_path)
    # imported here: only this command needs multiprocessing and what it loads
    from concurrent.futures import ProcessPoolExecutor

    # the pool forks every worker at its first task, so it is sized to the machine
    workers = min(ecfg.workers, os.cpu_count() or 1)
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        return _run_rates(ecfg, hashed, kernel, pool, workers)
    finally:
        pool.shutdown(cancel_futures=True)


def _run_rates(ecfg: ExperimentConfig, hashed: str, kernel: KernelSpec, pool,
               workers: int) -> RateResult:
    """run_rate_experiment on the given process pool of workers; hashed is the
    manifest's hash text."""
    plan = _predictions(ecfg, kernel, pool)
    per_phi, chi_pred, rho = plan.per_phi, plan.chi_pred, plan.rho

    # the primary observable is fixed from the solved correction, not the data
    primary = max(per_phi, key=lambda k: abs(per_phi[k]["bias"]))
    primary_idx = [p[0] for p in _PHI_PANEL].index(primary)

    rows = []
    ratios = {}
    pair_points = []
    bias_points = []
    failure = None
    try:
        work = partial(_rate_worker, Cdt=plan.Cdt, Sdt=plan.Sdt, primary=primary_idx)
        futures = {}
        for N in sorted(ecfg.N_list):
            sim = SimConfig(N=N, dt=ecfg.dt, T=ecfg.T, n_replicas=ecfg.replicas,
                            base_seed=ecfg.seed, kernel=kernel,
                            initial_density=plan.sample_density)
            futures[N] = [pool.submit(work, sim, r0, r1)
                          for r0, r1 in _chunks(ecfg.replicas, N, workers)]
        for N, chunks in futures.items():
            diffs, plains, pairs, xs = (
                np.concatenate(arrays) for arrays in zip(*(f.result() for f in chunks))
            )
            R = diffs.shape[0]

            for p, (name, _, _) in enumerate(_PHI_PANEL):
                est = float(diffs[:, p].mean())
                se = float(diffs[:, p].std(ddof=1) / math.sqrt(R))
                pred = per_phi[name]["bias"] / N
                rows.append(_row(N, 1, ecfg.order, ecfg.T, name, est, pred, se))
                plain_est = float(plains[:, p].mean()) - per_phi[name]["mean"]
                plain_se = float(plains[:, p].std(ddof=1) / math.sqrt(R))
                rows.append(
                    _row(N, 1, ecfg.order, ecfg.T, name + "_plain", plain_est, pred, plain_se)
                )
                if name == primary:
                    bias_points.append((N, abs(est)))
                    ratios[N] = est / pred if pred else math.inf

            uX, aX, uY, aY = pairs.T
            kap, kap_se = paired_pair_cumulant_difference(uX, aX, aX, uY, aY, aY)
            rows.append(
                _row(
                    N, 2, ecfg.order, ecfg.T, "pair_" + primary,
                    kap, per_phi[primary]["pair"] / N, kap_se,
                )
            )
            pair_points.append((N, abs(kap)))

            for j in sorted(ecfg.j_list):
                bins = histogram_bins(ecfg.bins, j)
                samples, rep_ids = extract_marginal_samples(xs[:, :, None], j, True)
                est, se = chi_squared_from_samples(
                    samples, product_field(rho, j), bins, rep_ids, seed=ecfg.seed
                )
                rows.append(
                    _row(N, j, ecfg.order, ecfg.T, f"chi2_j{j}", est, chi_pred[j] / N ** 2, se)
                )
    except BaseException as exc:  # an interrupt too: persist what exists, then re-raise
        failure = type(exc).__name__ + (f": {exc}" if str(exc) else "")
        raise
    finally:
        csv_path, manifest_path = _persist_rates(ecfg, hashed, rows, failure)

    fits = {
        "bias": fit_rate(bias_points),
        "pair": fit_rate(pair_points),
    }
    return RateResult(rows, primary, fits, ratios, str(csv_path), str(manifest_path))


def _row(N, j, i, t, observable, estimate, prediction, se):
    return {
        "N": int(N), "j": int(j), "i": int(i), "t": float(t), "observable": str(observable),
        "estimate": float(estimate), "prediction": float(prediction), "se": float(se),
    }


def _persist_rates(ecfg: ExperimentConfig, hashed: str, rows, failure):
    out = Path(ecfg.out_dir)
    csv_path = out / "rates.csv"
    ordered = sorted(rows, key=lambda r: (r["N"], r["j"], r["observable"]))
    _write_csv(csv_path, ("N", "j", "i", "t", "observable", "estimate", "prediction", "se"),
               ordered)
    manifest_path = _write_manifest(
        out, hashed, ecfg.seed,
        rows=len(ordered), status="failed: " + failure if failure else "complete",
    )
    return csv_path, manifest_path


# ---------------------------------------------------------------------------
# bounds lattice certification


class BoundsReport(NamedTuple):
    """Lattice certification rows, violations, and per-inequality summaries."""

    rows: list
    violations: list
    summary: list

    @property
    def ok(self) -> bool:
        return not self.violations


def run_bounds_report(
    j_list=(1, 4, 16),
    ell_max: int = 64,
    b_list=(1, 3, 7),
    t_list=(0.1, 1.0, 3.0),
    beta: float = 1.0,
    out_csv=None,
    inject: float = 0.0,
    residual_tol: float = 1e-6,
) -> BoundsReport:
    """Certify the damping-integral inequalities on a finite lattice.

    For every (j, ell, t): the value lies in [0, 1], satisfies the defining
    recurrence to residual_tol, stays below the polynomial bound for every b,
    and below the exponential bound where its hypothesis holds.  Every gate
    is written as `not value <= bound`, so a NaN on either side fails it.
    `inject` shifts the evaluated values, not the recurrence residuals (a
    fault-injection negative control: a shift of +1e-3 must be flagged).
    Rows follow the report CSV schema j,ell,beta,t,I,poly_b,poly_bound,
    exp_bound,margin.
    """
    j_list, b_list, t_list = list(j_list), list(b_list), list(t_list)
    if not j_list or ell_max < 1 or not b_list or not t_list:
        raise ValueError("no lattice points")
    if not 0 < residual_tol < math.inf:
        raise ValueError(f"residual_tol must be finite and positive, got {residual_tol}")
    rows = []
    violations = []
    counts = {"range": 0, "recurrence": 0, "poly": 0, "exp": 0}
    failed = dict.fromkeys(counts, 0)

    def fail(gate: str, message: str) -> None:
        failed[gate] += 1
        violations.append(message)

    for j in j_list:
        # one column of the lattice: every order at every time, in two calls
        vals = bnd.eval_I_table(j, ell_max, beta, t_list)[1:] + inject
        residuals = bnd.recurrence_residual_sweep(ell_max, j, beta, t_list)
        for k, t in enumerate(t_list):
            for ell in range(1, ell_max + 1):
                I = float(vals[ell - 1, k])
                counts["range"] += 1
                if not -1e-12 <= I <= 1 + 1e-12:
                    fail("range", f"range: I^{ell}_{j}({t}) = {I} outside [0, 1]")
                res = float(residuals[ell - 1, k])
                counts["recurrence"] += 1
                if not res <= residual_tol:
                    fail("recurrence",
                         f"recurrence: residual {res:.3e} at (ell={ell}, j={j}, t={t})")
                eb = bnd.exp_bound(ell, j, beta, t)
                if eb is not None:
                    counts["exp"] += 1
                    if not I <= eb + 1e-12:
                        fail("exp", f"exp bound: I^{ell}_{j}({t}) = {I} > {eb}")
                for b in b_list:
                    pb = bnd.poly_bound(ell, j, b, beta, t)
                    counts["poly"] += 1
                    if not I <= pb + 1e-12:
                        fail("poly", f"poly bound: I^{ell}_{j}({t}) = {I} > {pb} (b={b})")
                    margin = min(pb, eb) - I if eb is not None else pb - I
                    rows.append(
                        {
                            "j": j, "ell": ell, "beta": beta, "t": t, "I": I,
                            "poly_b": b, "poly_bound": pb,
                            "exp_bound": eb if eb is not None else "",
                            "margin": margin,
                        }
                    )
    summary = []
    for name, label in (
        ("range", "0 <= I <= 1"),
        ("recurrence", f"recurrence residual <= {residual_tol:g}"),
        ("poly", "I <= poly_bound"),
        ("exp", "I <= exp_bound (where defined)"),
    ):
        status = "PASS" if failed[name] == 0 else f"FAIL ({failed[name]} points)"
        summary.append(f"{label}: {status} over {counts[name]} checks")
    if out_csv is not None:
        out_csv = Path(out_csv)
        out_csv.parent.mkdir(parents=True, exist_ok=True)
        _write_csv(out_csv, ("j", "ell", "beta", "t", "I", "poly_b", "poly_bound", "exp_bound",
                             "margin"), rows)
    return BoundsReport(rows, violations, summary)
