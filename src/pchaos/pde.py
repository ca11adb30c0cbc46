"""Spectral solvers for the mean-field density and the correction hierarchy.

All equations here have the form

    d/dt u - Laplacian u = - sum_k d/dx_k (flux_k),

on (T^1)^j, and are advanced by a first-order exponential integrator: the
heat semigroup is applied exactly in Fourier space and the transport/forcing
fluxes are assembled explicitly at the current time, dealiased by the 2/3
rule, and weighted by the phi_1 factor (1 - e^{-z})/z per mode.  That weight
makes linear steady states exact and keeps the mode-0 (mass) update exact.

Every unknown here (each g^i_j and each BBGKY marginal f_a) is symmetric in
its coordinates, and so are the equations, so every solver assembles flux_1
alone.  One stepper (operators._SpectralOps) carries each unknown's half
spectrum between steps and adds flux_k's spectrum as flux_1's with the axes
swapped.  compute_remainder, which reports R^i_j rather than stepping, still
evaluates every component.

The correction hierarchy g^i_j lives on the triangular index set
T = {(i, j): 1 <= j <= i + 1}.  Entry (0, 1) is the mean-field density rho,
the only nonlinear equation; solve_mckean_vlasov is the order-0 hierarchy.
Every other entry satisfies a linear transport equation whose right-hand side
couples lower entries through the operators S_{k,l} and H_k; pchaos.operators
holds their term tables, the one place that applies the kernel
(_Interaction) and the compiled flux of each entry (_EntrySolver).  The
written-out first-order solvers that cross-check it live with the tests, in
tests/oracles/first_order_explicit.py.
"""

from __future__ import annotations

import hashlib
import itertools as it
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import GridField, KernelSpec, TorusGrid, product_field
from .operators import _EntrySolver, _Interaction, _SpectralOps
from .partitions import assemble_correction, solve_order

__all__ = [
    "TimeGrid",
    "Trajectory",
    "GTable",
    "solve_mckean_vlasov",
    "solve_g_hierarchy",
    "assemble_phi",
    "compute_remainder",
    "check_energy_inequality",
    "solve_bbgky_reference",
    "EnergyReport",
    "BBGKYResult",
    "NegativeDensityError",
    "MemoryBudgetError",
]


MEMORY_BUDGET_BYTES = 2 * 1024 ** 3


class NegativeDensityError(RuntimeError):
    """A solved density went negative: the time step is too large for the transport."""


class MemoryBudgetError(MemoryError):
    """A hierarchy solve would need more memory than MEMORY_BUDGET_BYTES."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid dt * n_steps = T with snapshots every store_every steps."""

    dt: float
    n_steps: int
    store_every: int = 1

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.n_steps < 1:
            raise ValueError("need at least one step")
        if self.store_every < 1 or self.n_steps % self.store_every:
            raise ValueError("store_every must divide n_steps")

    @property
    def T(self) -> float:
        return self.dt * self.n_steps

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)

    @property
    def stored_steps(self) -> np.ndarray:
        return np.arange(0, self.n_steps + 1, self.store_every)

    @property
    def stored_times(self) -> np.ndarray:
        return self.dt * self.stored_steps

    @property
    def n_stored(self) -> int:
        return self.n_steps // self.store_every + 1


@dataclass
class Trajectory:
    """Time-indexed grid field: values[s] is the field at stored_times[s]."""

    grid: TorusGrid
    arity: int
    tg: TimeGrid
    values: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.tg.stored_times

    def at(self, s: int) -> GridField:
        return GridField(self.grid, self.arity, self.values[s])


def _sup_norm_grid(kernel: KernelSpec, samples: int = 4096) -> float:
    """Sup of |b(x) + khat(z)| over a fine grid (x and z vary independently)."""
    pts = np.arange(samples) / samples
    b = kernel.b_values(pts)
    k = kernel.khat_values(pts)
    return float(max(b.max() + k.max(), -(b.min() + k.min())))


def _check_problem(f: GridField, kernel: KernelSpec, tg: TimeGrid) -> None:
    """Inputs every solver needs: a positive density, a resolved band, the CFL bound."""
    grid = f.grid
    if f.arity != 1:
        raise ValueError("the solvers need an arity-1 density")
    kernel._check_band(grid.M)
    sup = kernel.sup_norm_bound
    if sup > 0 and tg.dt > grid.h / sup:
        raise ValueError(
            f"transport CFL violated: dt={tg.dt} exceeds h/|K|_inf = {grid.h / sup:.3e}"
        )
    if f.values.min() <= 0:
        raise ValueError("initial density must be bounded below by a positive constant")
    if not f.is_probability_density():
        raise ValueError(f"initial data has mass {f.integrate()!r}, expected 1")


def _guard_negative(rho: np.ndarray, t: float) -> None:
    m = rho.min()
    if m < -1e-10:
        raise NegativeDensityError(
            f"density reached {m:.3e} at t={t:.6f}; time step too large for the transport"
        )


def solve_mckean_vlasov(f: GridField, kernel: KernelSpec, tg: TimeGrid) -> Trajectory:
    """Mean-field density rho: d/dt rho - Lap rho + d/dx((K*rho) rho) = 0, rho(0) = f.

    This is the order-0 hierarchy.  Mass is conserved exactly each step; a
    density dipping below -1e-10 anywhere aborts with a diagnostic.
    """
    return solve_g_hierarchy(0, f, kernel, tg).rho()


# the meta.json keys GTable.load reads
_META_KEYS = ("dim", "M", "dt", "n_steps", "store_every", "i_max", "kernel_text",
              "kernel_sha256", "entries")


def _require_keys(meta_file: Path, obj: dict, keys) -> None:
    """Raise ValueError naming meta_file and the first of keys that obj lacks."""
    missing = next((k for k in keys if k not in obj), None)
    if missing is not None:
        raise ValueError(f"{meta_file}: missing key {missing!r}")


@dataclass
class GTable:
    """Solved correction hierarchy: trajectories for every (i, j) in T, i <= i_max."""

    grid: TorusGrid
    tg: TimeGrid
    i_max: int
    kernel: KernelSpec
    entries: dict

    @property
    def times(self) -> np.ndarray:
        return self.tg.stored_times

    @property
    def n_stored(self) -> int:
        return self.tg.n_stored

    def entry(self, i: int, j: int) -> np.ndarray:
        return self.entries[(i, j)]

    def field(self, i: int, j: int, s: int) -> GridField:
        return GridField(self.grid, j, self.entries[(i, j)][s])

    def fields_at(self, s: int) -> dict:
        return {key: GridField(self.grid, key[1], arr[s]) for key, arr in self.entries.items()}

    def rho(self) -> Trajectory:
        return Trajectory(self.grid, 1, self.tg, self.entries[(0, 1)])

    def save(self, path) -> None:
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        ktext = self.kernel.to_text()
        meta = {
            "M": self.grid.M,
            "dim": 1,
            "dt": self.tg.dt,
            "n_steps": self.tg.n_steps,
            "store_every": self.tg.store_every,
            "i_max": self.i_max,
            "kernel_text": ktext,
            "kernel_sha256": hashlib.sha256(ktext.encode()).hexdigest(),
            "times": [float(t) for t in self.times],
            "entries": [],
        }
        for (i, j), arr in sorted(self.entries.items()):
            meta["entries"].append({"i": i, "j": j, "file": f"g_{i}_{j}.f64"})
            with open(path / f"g_{i}_{j}.f64", "wb") as fh:
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        with open(path / "meta.json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh, indent=1)

    @classmethod
    def load(cls, path) -> "GTable":
        """Read a table written by save (dim 1); the kernel hash and every file size must match."""
        path = Path(path)
        meta_file = path / "meta.json"
        with open(meta_file, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        _require_keys(meta_file, meta, _META_KEYS)
        for ent in meta["entries"]:
            _require_keys(meta_file, ent, ("i", "j", "file"))
        if meta["dim"] != 1:
            raise ValueError(f"{meta_file}: dim is {meta['dim']!r}, expected 1")
        grid = TorusGrid(meta["M"])
        tg = TimeGrid(meta["dt"], meta["n_steps"], meta["store_every"])
        ktext = meta["kernel_text"]
        if hashlib.sha256(ktext.encode()).hexdigest() != meta["kernel_sha256"]:
            raise ValueError(f"{meta_file}: kernel_text does not match kernel_sha256")
        kernel = KernelSpec.from_text(ktext)
        entries = {}
        for ent in meta["entries"]:
            i, j = ent["i"], ent["j"]
            want = 8 * tg.n_stored * meta["M"] ** j
            data = (path / ent["file"]).read_bytes()
            if len(data) != want:
                raise ValueError(
                    f"table file {path / ent['file']} has {len(data)} bytes, meta.json describes {want}"
                )
            raw = np.frombuffer(data, dtype="<f8")
            entries[(i, j)] = raw.reshape((tg.n_stored,) + (meta["M"],) * j).copy()
        return cls(grid, tg, meta["i_max"], kernel, entries)


def _hierarchy_steps(i_max: int, f: GridField, kernel: KernelSpec, tg: TimeGrid):
    """Advance every entry (i, j), i <= i_max, in lockstep; yield (state, spectra) per step.

    Each step evaluates every right-hand side from the time-t state, then
    applies the exponential updates, so every entry sees exactly the values a
    sequential solve in the triangular order would have used.  state maps
    each entry to its field and spectra to its carried rfftn; the field
    arrays are reused two steps later, so a caller keeps copies.
    """
    keys = solve_order(i_max)  # (0, 1) first
    op = _Interaction(kernel, f.grid)
    ops = {a: _SpectralOps(f.grid.M, a, tg.dt) for a in range(1, i_max + 2)}
    solvers = {key: _EntrySolver(*key, op) for key in keys[1:]}
    state = {key: np.zeros((f.grid.M,) * key[1]) for key in keys}
    state[(0, 1)] = f.values.copy()
    spectra = {key: np.fft.rfftn(u) for key, u in state.items()}
    spare = {key: np.empty_like(u) for key, u in state.items()}
    for n in range(tg.n_steps):
        rho = state[(0, 1)]
        new = {(0, 1): ops[1].step(spectra[(0, 1)], op.mean_field_flux(rho), spare[(0, 1)])}
        _guard_negative(new[(0, 1)], (n + 1) * tg.dt)
        contractions = {}
        for key, solver in solvers.items():
            new[key] = ops[key[1]].step(spectra[key], solver.flux1(state, contractions), spare[key])
        state, spare = new, state
        yield state, spectra


def solve_g_hierarchy(
    i_max: int, f: GridField, kernel: KernelSpec, tg: TimeGrid
) -> GTable:
    """Solve all hierarchy entries (i, j) in T with i <= i_max, in lockstep (_hierarchy_steps)."""
    if not 0 <= i_max <= 2:
        raise ValueError("correction order capped at i_max = 2")
    grid = f.grid
    # the stored trajectory, then per step the field, its spare, its spectrum,
    # the flux and its scratch arrays
    need = (tg.n_stored + 6) * grid.M ** (i_max + 1) * 8
    if need > MEMORY_BUDGET_BYTES:
        raise MemoryBudgetError(
            f"hierarchy solve needs ~{need/1e9:.1f} GB (> {MEMORY_BUDGET_BYTES/1e9:.1f} GB budget)"
        )
    _check_problem(f, kernel, tg)

    store = {key: np.zeros((tg.n_stored,) + (grid.M,) * key[1]) for key in solve_order(i_max)}
    store[(0, 1)][0] = f.values
    steps = _hierarchy_steps(i_max, f, kernel, tg)
    for s, (state, _) in enumerate(it.islice(steps, tg.store_every - 1, None, tg.store_every), 1):
        for key, arr in store.items():
            arr[s] = state[key]
    return GTable(grid, tg, i_max, kernel, store)


# ---------------------------------------------------------------------------
# assembly of the expansion, the remainder, and the energy inequality


def assemble_phi(i: int, j: int, N: float, gt: GTable) -> Trajectory:
    """phi^i_j = sum_{k<=i} N^{-k} f^k_j at every stored time."""
    if i > gt.i_max:
        raise ValueError(f"table solved to order {gt.i_max}, requested {i}")
    out = np.zeros((gt.n_stored,) + (gt.grid.M,) * j)
    for s in range(gt.n_stored):
        fields = gt.fields_at(s)
        for k in range(i + 1):
            out[s] += float(N) ** (-k) * assemble_correction(k, j, fields).values
    return Trajectory(gt.grid, j, gt.tg, out)


def compute_remainder(i: int, j: int, N: float, gt: GTable, s: int):
    """Remainder field R^i_j at stored time s and its rho-weighted squared norm.

    R^i_j = N^{-(i+1)} sum_k e_k [ j * int K(x_k, x_*) f^i_{j+1} dx_*
                                   - sum_l K(x_k, x_l) f^i_j ],
    returned as an array of the j vector components; the norm is
    integral of |R / rho^j|^2 rho^j (sum over components).
    """
    if j + 1 > 3:
        raise ValueError("remainder needs arity j+1 fields; capped at j <= 2")
    if i > gt.i_max:
        raise ValueError(f"table solved to order {gt.i_max}, requested {i}")
    fields = gt.fields_at(s)
    fij = assemble_correction(i, j, fields).values
    fij1 = assemble_correction(i, j + 1, fields).values
    scale = float(N) ** (-(i + 1))
    op = _Interaction(gt.kernel, gt.grid)
    comps = np.array([op.bbgky_flux(fij1, fij, j * scale, -scale, k) for k in range(1, j + 1)])
    rho_j = product_field(gt.field(0, 1, s), j).values
    norm = _weighted_sq(comps, rho_j, gt.grid.h, j)
    return comps, norm


@dataclass
class EnergyReport:
    """Both sides of the hierarchy energy inequality along a reference trajectory."""

    times: np.ndarray
    x_j: np.ndarray
    x_j1: np.ndarray
    r_j: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    margin: np.ndarray
    apriori_margin: np.ndarray
    k_norm: float

    @property
    def ok(self) -> bool:
        return bool(self.margin.min() >= -1e-4 and self.apriori_margin.min() >= -1e-4)


def _weighted_sq(num: np.ndarray, rho_j: np.ndarray, h: float, j: int) -> float:
    return float(h ** j * (num ** 2 / rho_j).sum())


def check_energy_inequality(
    i: int, j: int, N: float, gt: GTable, f_ref: dict
) -> EnergyReport:
    """Margin of d/dt x_j <= 2j|K|^2 (x_{j+1} - x_j) + 4 j^3/N^2 |K|^2 x_j + r_j.

    x_a(t) is the rho-weighted L^2 distance between phi^i_a and the reference
    f_a; f_ref maps arity -> ndarray of shape (n_stored, (M,)*a) on the same
    grid and times.  Also reports the a-priori margin
    12 j |K|^2 y_j - d/dt y_j with y_j the weighted norm of f_j itself.
    """
    for a in (j, j + 1):
        if a not in f_ref:
            raise ValueError(f"reference trajectory for arity {a} is required")
    grid = gt.grid
    h = grid.h
    times = gt.times
    k_norm = _sup_norm_grid(gt.kernel)

    phi_j = assemble_phi(i, j, N, gt).values
    phi_j1 = assemble_phi(i, j + 1, N, gt).values
    x_j = np.empty(gt.n_stored)
    x_j1 = np.empty(gt.n_stored)
    y_j = np.empty(gt.n_stored)
    r_j = np.empty(gt.n_stored)
    for s in range(gt.n_stored):
        rho1 = gt.field(0, 1, s)
        w_j = product_field(rho1, j).values
        w_j1 = product_field(rho1, j + 1).values
        x_j[s] = _weighted_sq(phi_j[s] - f_ref[j][s], w_j, h, j)
        x_j1[s] = _weighted_sq(phi_j1[s] - f_ref[j + 1][s], w_j1, h, j + 1)
        y_j[s] = _weighted_sq(f_ref[j][s], w_j, h, j)
        r_j[s] = 2.0 * compute_remainder(i, j, N, gt, s)[1]

    lhs = np.gradient(x_j, times)
    rhs = 2 * j * k_norm ** 2 * (x_j1 - x_j) + 4 * (j ** 3 / N ** 2) * k_norm ** 2 * x_j + r_j
    apriori = 12 * j * k_norm ** 2 * y_j - np.gradient(y_j, times)
    return EnergyReport(times, x_j, x_j1, r_j, lhs, rhs, rhs - lhs, apriori, k_norm)


# ---------------------------------------------------------------------------
# truncated-BBGKY reference at small N


@dataclass
class BBGKYResult:
    """Marginal trajectories f_1..f_3 of the N-particle hierarchy, closed at level 4."""

    grid: TorusGrid
    tg: TimeGrid
    N: int
    marginals: dict
    closure_size: np.ndarray       # max |g_3| per stored time
    marginal_drift: np.ndarray     # max over j of |int f_{j+1} dx - f_j| per stored time

    @property
    def times(self) -> np.ndarray:
        return self.tg.stored_times


def _cluster3(f1, f2, f3):
    """Cluster functions g_1, g_2, g_3 of a consistent triple (dense, exact algebra)."""
    g1 = f1
    g2 = f2 - np.multiply.outer(f1, f1)
    prod3 = np.multiply.outer(np.multiply.outer(f1, f1), f1)
    s12 = np.multiply.outer(g2, f1)                       # g2(x1,x2) f1(x3)
    s13 = np.swapaxes(s12, 1, 2)                          # g2(x1,x3) f1(x2)
    s23 = np.moveaxis(s12, (0, 1, 2), (1, 2, 0))          # g2(x2,x3) f1(x1)
    g3 = f3 - s12 - s13 - s23 - prod3
    return g1, g2, g3


def solve_bbgky_reference(
    f: GridField, kernel: KernelSpec, N: int, tg: TimeGrid, j_max: int = 3
) -> BBGKYResult:
    """Integrate the hierarchy for f_1..f_{j_max} with a product closure above.

    Level j_max+1 is reconstructed each step from the cluster functions of the
    lower levels with the top cluster set to zero; the size of g_3 and the
    marginal-consistency drift are reported so the closure error is visible
    rather than hidden.
    """
    if j_max != 3:
        raise ValueError("reference solver is wired for closure at level 4 (j_max = 3)")
    if N < j_max + 1:
        raise ValueError("need N > j_max")
    _check_problem(f, kernel, tg)
    grid = f.grid
    M, h = grid.M, grid.h
    op = _Interaction(kernel, grid)
    ops = {a: _SpectralOps(M, a, tg.dt) for a in (1, 2, 3)}

    state = {a: product_field(f, a).values.copy() for a in (1, 2, 3)}
    store = {a: np.empty((tg.n_stored,) + (M,) * a) for a in (1, 2, 3)}
    closure_size = np.empty(tg.n_stored)
    marg_drift = np.empty(tg.n_stored)

    def closure_f4(f1, f2, f3):
        g1, g2, g3 = _cluster3(f1, f2, f3)
        out = np.zeros((M,) * 4)
        pairs = list(it.combinations(range(4), 2))
        # partitions of {1..4} with all blocks of size <= 3, assembled from g's
        # 1+1+1+1
        out += np.multiply.outer(np.multiply.outer(np.multiply.outer(g1, g1), g1), g1)
        # 2+1+1 (6 ways) and 2+2 (3 ways) and 3+1 (4 ways)
        for (a, b) in pairs:
            restc = [c for c in range(4) if c not in (a, b)]
            block = np.multiply.outer(g2, np.multiply.outer(g1, g1))
            out += np.moveaxis(block, (0, 1, 2, 3), (a, b) + tuple(restc))
        for (a, b) in ((0, 1), (0, 2), (0, 3)):
            c, d = [x for x in range(4) if x not in (a, b)]
            block = np.multiply.outer(g2, g2)
            out += np.moveaxis(block, (0, 1, 2, 3), (a, b, c, d))
        for rest in range(4):
            trip = [x for x in range(4) if x != rest]
            block = np.multiply.outer(g3, g1)
            out += np.moveaxis(block, (0, 1, 2, 3), tuple(trip) + (rest,))
        return out

    def diagnostics(s):
        f1, f2, f3 = state[1], state[2], state[3]
        _, _, g3 = _cluster3(f1, f2, f3)
        closure_size[s] = np.abs(g3).max()
        d1 = np.abs(f2.sum(axis=1) * h - f1).max()
        d2 = np.abs(f3.sum(axis=2) * h - f2).max()
        marg_drift[s] = max(d1, d2)

    for a in (1, 2, 3):
        store[a][0] = state[a]
    diagnostics(0)

    spectra = {a: np.fft.rfftn(u) for a, u in state.items()}
    spare = {a: np.empty_like(u) for a, u in state.items()}
    s = 1
    for n in range(tg.n_steps):
        upper = {1: state[2], 2: state[3], 3: closure_f4(state[1], state[2], state[3])}
        new = {a: ops[a].step(spectra[a], op.bbgky_flux(upper[a], state[a], (N - a) / N, 1 / N),
                              spare[a])
               for a in (1, 2, 3)}
        state, spare = new, state
        _guard_negative(state[1], (n + 1) * tg.dt)
        if (n + 1) % tg.store_every == 0:
            for a in (1, 2, 3):
                store[a][s] = state[a]
            diagnostics(s)
            s += 1
    return BBGKYResult(grid, tg, N, store, closure_size, marg_drift)
