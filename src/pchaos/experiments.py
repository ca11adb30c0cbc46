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

The worker steps both systems through the package's one stepping loop,
particles._replica_steps, as the two rows of one (2, R, N) block: per
kernel mode one particles._cos_sin call over the block (exact quarter-turn
reduction, then one libm sin on [-pi/4, pi/4] and cos as sqrt(1 - sin^2)),
b's coefficients and the moments (each replica's for the interacting row,
the chain's for the companion row) folded into two coefficients per row,
one multiply-add into the block's drift, and one Euler-Maruyama step of the
block with the noise scaled once.  The worker keeps only the companion's
own arithmetic (_Companion): fed the companion row's trigonometry of each
mode, it sums the drift's Jacobian and the leave-one-out forcing, one
product per trigonometric value each, and steps the derivative companion,
in arrays allocated once per block.  The chain-moment table steps the
chain's spectrum, band-limited by the heat factor, so it costs O(M L) per
step for M cells and L modes.
run_rate_experiment forks through particles._Shares, the package's one
fork helper, on min(workers, usable CPUs) CPUs (usable CPUs are those of
the process's affinity mask, and one where _Shares does not fork:
particles._usable_cpus).  With two or more, one child builds the
chain-moment table while this process solves the hierarchy.  Then one
pool steps the whole ladder of N: each N's replicas are cut into blocks by
particles._replica_plan, the one rule of both ensemble commands, the
blocks of every N are queued at once in increasing N, and the pool's
workers, forked once, pull them (see particles._Shares) and write each
block's rows of the N's fixed-shape outputs (diffs, plains, pairs, final
positions) into one shared mapping.  N's rows are built as soon as
its last block is in, while the workers step the next N's blocks, so a
failure or an interrupt keeps every finished N's rows; a block that fails
names its N and replicas.  A block runs no BLAS product (the chain-moment
table sums its spectrum with einsum rather than a BLAS product), so a
library caller whose OpenBLAS keeps its worker pool does not oversubscribe
the workers.

Pair cumulants are estimated within replicas over all ordered distinct pairs
with the exact between-replica mean-covariance correction, for both coupled
systems; the companion's cumulant vanishes identically in law, so the paired
difference of the two estimates is again unbiased and strips the noise the
coupled systems share.

The bounds report certifies the damping integrals on a (j, ell, t) lattice
one j at a time: one value table (bounds.eval_I_table) and one
recurrence-residual sweep (bounds.recurrence_residual_sweep) cover every
order and time of that j.  The sweep is handed that table as its outer
values, taken before inject shifts them, so it evaluates only its inner
table and each j's values are evaluated once.  The gates, the polynomial
and exponential bounds and the CSV rows stay per lattice point; the CSV is
formatted a column at a time (config._write_csv).

Everything is deterministic given (config, seed): replica RNG streams depend
only on the absolute replica index, results are reduced in index order, and
the manifest records the config hash and seed next to the CSV.
"""

from __future__ import annotations

import math
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
    SimConfig,
    _cell_cdf,
    _replica_shares,
    _replica_steps,
    _Shares,
    _usable_cpus,
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

_PHI_PANEL = (("cos1", "cos", 1), ("sin1", "sin", 1), ("cos2", "cos", 2), ("sin2", "sin", 2))


class ExperimentConfig:
    """Validated inputs of a rate experiment.

    The kernel file is read once, here: kernel_text is what the manifest
    hashes (canonical_text) and kernel is parsed from it, so the kernel that
    runs is the one hashed, whatever happens to the file later.
    """

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
        # written so that NaN fails every check
        if not 0 < self.T < math.inf:
            raise ConfigError(f"T = {self.T!r}: need a finite positive horizon")
        if not 0 < self.dt < math.inf:
            raise ConfigError(f"dt = {self.dt!r}: need a finite positive step")
        try:
            step_count(self.T, self.dt)
        except ValueError:
            raise ConfigError(f"T = {self.T!r} is not a whole number of steps dt = {self.dt!r}") from None
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
        if not fine.values.min() >= 1e-3:
            raise ConfigError(f"density_cos, density_sin: initial density must stay above 1e-3, "
                              f"its minimum is {float(fine.values.min()):g}")
        self.kernel_text = Path(kernel_path).read_text(encoding="utf-8")
        self.kernel = KernelSpec.from_text(self.kernel_text)
        if not any(k_cos or k_sin for *_, k_cos, k_sin in self.kernel.mode_table):
            raise ConfigError("the kernel has no interaction (no nonzero khat mode m >= 1), so "
                              "every 1/N correction vanishes and no rate can be fitted")

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
            self.kernel_text,
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
# the coupled simulation worker


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


class _Companion:
    """The rate worker's companion arithmetic: the companion drift's Jacobian,
    the derivative companion's forcing, and the derivative companion delta.

    particles._replica_steps steps the interacting system and its companion
    y as rows 0 and 1 of one block and calls add(n, ...) with each mode of
    step n's drift (particles._mode_terms with companion): the block's cos
    = cos(2 pi m .) and sin = sin(2 pi m .), y's folded coefficients a =
    b_c + k_c C[m] - k_s S[m] and b = b_s + k_c S[m] + k_s C[m], and the
    block's empirical moments.  With w = 2 pi m, mode m contributes, on y's
    row,

        jac    w (cos b - sin a), the drift's derivative in the evaluation point,
        force  cos (k_c P_c - k_s P_s) + sin (k_c P_s + k_s P_c) - k_c / N,

    where P = mean - C[m] (1 - 1/N) per replica.  force is the khat response
    to each replica's companion moment discrepancy with every particle's own
    contribution left out: cos^2 + sin^2 = 1 turns the left-out self terms
    into the constant -k_c / N.  Each sum writes its first product rather
    than adding it to a zero fill.  terms() ends the step's sums and step(dt)
    then moves delta by dt (jac delta + force).
    """

    def __init__(self, shape: tuple, C: np.ndarray, S: np.ndarray):
        self.N = shape[-1]
        self.delta = np.zeros(shape)
        self.jac, self.force, self._tmp = np.empty((3, *shape))
        # C[m], S[m] (1 - 1/N) of every step, each a (2, 1, 1) column of P's centre
        self._centre = np.stack((C, S), axis=1)[..., None, None] * (1.0 - 1.0 / self.N)
        self._start()

    def _start(self) -> None:
        self._jac_fresh = self._force_fresh = True
        self._self_terms = 0.0

    def add(self, n: int, mode: tuple, cos, sin, a, b, means) -> None:
        m, _, _, kc, ks = mode
        cy, sy, tmp = cos[1], sin[1], self._tmp
        w = 2 * np.pi * m
        if self._jac_fresh:
            np.multiply(cy, w * b, out=self.jac)
            self._jac_fresh = False
        else:
            self.jac += np.multiply(cy, w * b, out=tmp)
        self.jac -= np.multiply(sy, w * a, out=tmp)
        if kc == 0.0 and ks == 0.0:
            return
        P = np.subtract(means[:, 1], self._centre[n, :, m])
        Pc, Ps = P[0], P[1]
        if self._force_fresh:
            np.multiply(cy, kc * Pc - ks * Ps, out=self.force)
            self._force_fresh = False
        else:
            self.force += np.multiply(cy, kc * Pc - ks * Ps, out=tmp)
        self.force += np.multiply(sy, kc * Ps + ks * Pc, out=tmp)
        self._self_terms += kc

    def terms(self) -> tuple:
        """(jac, force) of the step's modes added so far, which the next add overwrites."""
        if self._jac_fresh:
            self.jac.fill(0.0)
        if self._force_fresh:
            self.force.fill(0.0)
        else:
            self.force -= self._self_terms / self.N
        self._start()
        return self.jac, self.force

    def step(self, dt: float) -> None:
        jac, force = self.terms()
        jac *= self.delta
        jac += force
        jac *= dt
        self.delta += jac


def _rate_worker(cfg: SimConfig, r0, r1, Cdt, Sdt, primary: int):
    """Coupled estimates over replicas range(r0, r1) of the sim configuration.

    particles._replica_steps steps the interacting system x and the
    companion y, which starts at the same positions, takes the same noise
    and drifts by the chain moments Cdt[n], Sdt[n], as one (2, R, N) block;
    the derivative companion delta is _Companion's.  Returns diffs and
    plains, one column per _PHI_PANEL observable; pairs, the columns uX, aX,
    uY, aY of _pair_stats of _PHI_PANEL[primary] on x and on y; and x.
    """
    companion = _Companion((r1 - r0, cfg.N), Cdt, Sdt)
    steps = _replica_steps(cfg, range(r0, r1), cfg.n_steps, (Cdt, Sdt, companion.add))
    xy, _ = next(steps)
    for xy, _ in steps:
        companion.step(cfg.dt)
    x, y = xy

    diffs, plains = np.empty((2, r1 - r0, len(_PHI_PANEL)))
    for p, (_, kind, mode) in enumerate(_PHI_PANEL):
        vx, vy = _phi_values(kind, mode, xy)
        plains[:, p] = vx.mean(axis=1)
        diffs[:, p] = (plains[:, p] - vy.mean(axis=1)
                       - (_phi_deriv_values(kind, mode, y) * companion.delta).mean(axis=1))
        if p == primary:
            pairs = np.stack((*_pair_stats(vx), *_pair_stats(vy)), axis=1)
    return diffs, plains, pairs, x


class RateResult(NamedTuple):
    """Rows of the rate CSV plus the fitted slopes and prediction ratios."""

    rows: list
    primary: str
    fits: dict
    ratios: dict
    csv_path: str
    manifest_path: str


class _RatePlan(NamedTuple):
    """Solved predictions and exact moment tables shared by every block."""

    rho: GridField
    per_phi: dict
    chi_pred: dict
    Cdt: np.ndarray  # (n_steps + 1, modes): companion-chain trig moments
    Sdt: np.ndarray
    sample_density: GridField


def _predictions(ecfg: ExperimentConfig, workers: int) -> _RatePlan:
    """Mean-field solve and first-order correction functionals for the panel.

    With two workers or more, a forked child builds the chain-moment table
    while this process solves the hierarchy; the band is checked before
    the child is forked.
    """
    sample_density = fourier_field(TorusGrid(ecfg.sample_grid), ecfg.density_cos,
                                   ecfg.density_sin)
    grid = TorusGrid(ecfg.grid)
    density = fourier_field(grid, ecfg.density_cos, ecfg.density_sin)
    kernel = ecfg.kernel
    kernel._check_band(grid.M)
    n_steps = step_count(ecfg.T, ecfg.dt)
    shape = (n_steps + 1, max(len(kernel.k_cos), 1))  # _chain_moments' tables

    def chain(steps, out):
        out[0][:], out[1][:] = _chain_moments(kernel, sample_density, ecfg.dt, n_steps)

    with _Shares(chain, [(0, n_steps + 1)], [shape, shape],
                 lambda steps: f"chain-moment steps {steps[0]} to {steps[1] - 1}",
                 processes=1 if workers > 1 else 0) as table:
        table.release()
        # only the final time is read, so only t = 0 and T are stored
        gt = solve_g_hierarchy(1, density, kernel, TimeGrid(ecfg.dt, n_steps, n_steps))
        Cdt, Sdt = table.join()
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
    return _RatePlan(rho, per_phi, chi_pred, Cdt, Sdt, sample_density)


def _rate_pool(ecfg: ExperimentConfig, plan: _RatePlan, N_list: list, workers: int,
               primary: int) -> _Shares:
    """Start every N's coupled replicas, in the order of N_list, in one pool
    (particles._replica_shares): each block is one _rate_worker call, whose
    diffs, plains, pairs (R, 4 each) and final positions x (R, N) fill its
    rows of the N's four outputs, out[4 k:4 k + 4] for N_list[k].  A block
    that fails names its N and replicas in its message."""
    sims = [SimConfig(N=N, dt=ecfg.dt, T=ecfg.T, n_replicas=ecfg.replicas, base_seed=ecfg.seed,
                      kernel=ecfg.kernel, initial_density=plan.sample_density) for N in N_list]

    def step(k, r0, r1, out):
        try:
            blocks = _rate_worker(sims[k], r0, r1, plan.Cdt, plan.Sdt, primary)
        except Exception as exc:
            exc.args = (f"N = {N_list[k]}, replicas {r0} to {r1 - 1}: {exc}",)
            raise
        for rows, block in zip(out[4 * k:4 * k + 4], blocks):
            rows[r0:r1] = block

    R, panel = ecfg.replicas, len(_PHI_PANEL)
    shapes = [shape for N in N_list for shape in ((R, panel), (R, panel), (R, 4), (R, N))]
    return _replica_shares(R, N_list, workers, step, shapes)


def run_rate_experiment(ecfg: ExperimentConfig) -> RateResult:
    """Simulate, estimate observable biases and pair cumulants per N, fit rates.

    Persists rates.csv (header N,j,i,t,observable,estimate,prediction,se) and
    manifest.json into the output directory.  If anything fails or an
    interrupt comes first, the rows of every finished N are written and the
    manifest's status is "failed: " and the exception, and every child is
    killed and reaped before the exception goes on.
    """
    out = Path(ecfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    hashed = ecfg.canonical_text()
    # children are forked on the CPUs this process may run on: more would
    # time-share them
    workers = min(ecfg.workers, _usable_cpus())
    rows = []
    ratios = {}
    pair_points = []
    bias_points = []
    failure = None
    pool = None
    try:
        plan = _predictions(ecfg, workers)
        per_phi, chi_pred, rho = plan.per_phi, plan.chi_pred, plan.rho
        # the primary observable is fixed from the solved correction, not the data
        primary = max(per_phi, key=lambda k: abs(per_phi[k]["bias"]))
        primary_idx = [p[0] for p in _PHI_PANEL].index(primary)
        N_list = sorted(ecfg.N_list)
        pool = _rate_pool(ecfg, plan, N_list, workers, primary_idx)
        for k, N in enumerate(N_list):
            # N's rows are built while the workers step the next N's blocks
            stop = sum(task[0] <= k for task in pool.tasks)
            diffs, plains, pairs, xs = pool.wait(stop)[4 * k:4 * k + 4]
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
        pool.join()
        fits = {"bias": fit_rate(bias_points), "pair": fit_rate(pair_points)}
    except BaseException as exc:  # an interrupt too: persist what exists, then re-raise
        failure = type(exc).__name__ + (f": {exc}" if str(exc) else "")
        raise
    finally:
        if pool is not None:
            pool.close()
        csv_path, manifest_path = _persist_rates(ecfg, hashed, rows, failure)
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
        # one column of the lattice: every order at every time, from one
        # value table, which the residual sweep reads as its outer values
        table = bnd.eval_I_table(j, ell_max, beta, t_list)
        vals = table[1:] + inject
        residuals = bnd.recurrence_residual_sweep(ell_max, j, beta, t_list, outer=table)
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
