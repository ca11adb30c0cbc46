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
alone (operators._EntrySolver) and marches through one loop, _march: one
operators._SpectralOps per arity carries each unknown's half spectrum
between steps and adds flux_k's spectrum as flux_1's with the axes swapped,
and _trajectories keeps the stored times.  The dealiasing zeroes every
forced mode above M//3, so an unknown that starts at zero (each g^i_j with
i >= 1) only ever holds columns 0..M//3 of its half spectrum, and only
those are carried and transformed; rho and the BBGKY marginals, whose
initial spectra hold roundoff in every column, run near full width.
compute_remainder swaps axes for R^i_j's other components.  The BBGKY reference closes its hierarchy with
the plain cluster expansion of pchaos.partitions, contracted block by block.

From order 2 on, where this process may run on two CPUs
(particles._usable_cpus), the same loop, _march, steps the top-arity entry
g^i_{i+1}, whose lattice takes most of each step, in one forked worker, one
particles._Shares task per time step in the lockstep order set out there;
every field keeps the bits of a one-process solve.  Orders 0 and 1 and the
BBGKY reference step in one process.

The correction hierarchy g^i_j lives on the triangular index set
T = {(i, j): 1 <= j <= i + 1}.  Entry (0, 1) is the mean-field density rho,
the only nonlinear equation; solve_mckean_vlasov is the order-0 hierarchy.
Every other entry satisfies a linear transport equation whose right-hand side
couples lower entries through the operators S_{k,l} and H_k; pchaos.operators
holds the term tables, the one place that applies the kernel (_Interaction)
and the one flux assembler (_EntrySolver).  The written-out first-order
solvers that cross-check it are tests/oracles/first_order_explicit.py.
"""

from __future__ import annotations

import hashlib
import itertools as it
import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .core import GridField, KernelSpec, TorusGrid, check_density, product_field
from .operators import (_EntrySolver, _Interaction, _SpectralOps, compile_bbgky_terms,
                        compile_entry_terms)
from .particles import _Shares, _usable_cpus
from .partitions import assemble_correction, clusters_from_moments, solve_order

__all__ = [
    "TimeGrid",
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


class TimeGrid:
    """Uniform time grid dt * n_steps = T with snapshots every store_every steps.

    Grids with the same dt, n_steps and store_every are equal.
    """

    def __init__(self, dt: float, n_steps: int, store_every: int = 1):
        if not (math.isfinite(dt) and dt > 0):
            raise ValueError(f"dt must be positive and finite, got {dt}")
        if n_steps < 1:
            raise ValueError("need at least one step")
        if store_every < 1 or n_steps % store_every:
            raise ValueError("store_every must divide n_steps")
        self.dt = dt
        self.n_steps = n_steps
        self.store_every = store_every

    def _key(self) -> tuple:
        return self.dt, self.n_steps, self.store_every

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is TimeGrid else NotImplemented

    def __hash__(self):
        return hash(self._key())

    @property
    def stored_steps(self) -> np.ndarray:
        return np.arange(0, self.n_steps + 1, self.store_every)

    @property
    def stored_times(self) -> np.ndarray:
        return self.dt * self.stored_steps

    @property
    def n_stored(self) -> int:
        return self.n_steps // self.store_every + 1


def _sup_norm_grid(kernel: KernelSpec) -> float:
    """Sup of |b(x) + khat(z)| over a 4096-point grid (x and z vary independently)."""
    pts = np.arange(4096) / 4096
    b = kernel.b_values(pts)
    k = kernel.khat_values(pts)
    return float(max(b.max() + k.max(), -(b.min() + k.min())))


def _cfl_margin(grid: TorusGrid, kernel: KernelSpec, tg: TimeGrid) -> float:
    """The CFL bound h / |K|_inf over dt (inf for a kernel with no transport); below 1 is refused."""
    sup = kernel.sup_norm_bound
    return grid.h / sup / tg.dt if sup > 0 else math.inf


def _check_problem(f: GridField, kernel: KernelSpec, tg: TimeGrid) -> None:
    """Inputs every solver needs: a density (core.check_density), a resolved band, the CFL bound."""
    check_density(f, "initial density")
    grid = f.grid
    kernel._check_band(grid.M)
    if _cfl_margin(grid, kernel, tg) < 1:
        raise ValueError(f"transport CFL violated: dt={tg.dt} exceeds "
                         f"h/|K|_inf = {grid.h / kernel.sup_norm_bound:.3e}")


def _march(initial: dict, fluxes, guard, tg: TimeGrid, apart=None):
    """Exponential-Euler steps of symmetric unknowns; yield (state, spectra), t = 0 first.

    initial maps each key to its field at t = 0, and fluxes(state, keys)
    yields (key, flux_1) for each of keys, in order, from the time-t state.
    The field of guard is a density: one dipping below -1e-10 aborts.  Each
    arity's spectra carry H = 1 + max(M//3, the highest last-axis column an
    initial spectrum of that arity holds nonzero) columns
    (operators._SpectralOps).

    The fields live in two buffers: step n reads buffer (n - 1) % 2 and
    writes buffer n % 2, and the state it yields is buffer n % 2 itself, so
    every flux is assembled from the time-t fields alone.  A state is
    rewritten two steps later, which a forked worker may begin while the next
    state is held, so a caller copies what it keeps before it asks for that
    state.

    With apart, one of the keys, that unknown steps in one forked worker of
    particles._Shares, one task per time step (task n - 1 is its step n),
    in the lockstep order set out there, and every field has the bits it
    has without it: step n + 1 is released once this process has ended its
    own step n and checked the guard, and step n is waited for before its
    state is yielded.  The helper's anonymous shared mapping holds apart's
    carried spectrum, which the worker steps in place, and both buffers;
    apart's spectrum is complete at the last yield, by which the worker has
    been reaped.  A worker that fails is re-raised here with its type and
    message, and one that is killed as a ChildProcessError naming apart's
    step; an exception here, the guard's included, or the generator's close
    kills and reaps it (_Shares).  Without apart, nothing is forked and no
    memory is shared.
    """
    M = next(iter(initial.values())).shape[0]
    spectra = {key: np.fft.rfftn(u) for key, u in initial.items()}
    top = {}  # per arity, the last column to carry
    for s in spectra.values():
        cols = np.flatnonzero(s.reshape(-1, s.shape[-1]).any(axis=0))
        top[s.ndim] = max(top.get(s.ndim, M // 3), int(cols[-1]) if cols.size else 0)
    ops = {a: _SpectralOps(M, a, tg.dt, c + 1) for a, c in top.items()}
    spectra = {key: np.ascontiguousarray(s[..., :top[s.ndim] + 1]) for key, s in spectra.items()}
    keys = tuple(key for key in initial if key != apart)
    shapes, apart_steps = [(2,) + u.shape for u in initial.values()], []
    if apart is not None:
        # apart's spectrum last, as (re, im) pairs: each field's two buffers
        # take a multiple of 16 bytes, so its complex view is aligned
        shapes.append(spectra[apart].shape[:-1] + (2 * spectra[apart].shape[-1],))
        apart_steps = list(range(1, tg.n_steps + 1))

    def buffers(out):
        """The two buffers of fields, key -> field, that lead out."""
        return [dict(zip(initial, (f[b] for f in out))) for b in (0, 1)]

    held = []  # in the worker: its two buffers and apart's spectrum, from its first step on

    def step_apart(n, out):
        if not held:
            held.extend([*buffers(out), out[-1].view(complex)])
        (_, flux), = fluxes(held[(n - 1) % 2], (apart,))
        ops[flux.ndim].step(held[2], flux, held[n % 2][apart])

    with _Shares(step_apart, apart_steps, shapes, lambda n: f"unknown {apart} at step {n}",
                 1) as shares:
        bufs = buffers(shares.out)
        for key, u in initial.items():
            bufs[0][key][...] = u
        if apart is not None:
            u_hat = shares.out[-1].view(complex)
            u_hat[...] = spectra[apart]
            spectra[apart] = u_hat
        for n in range(tg.n_steps + 1):
            if n:
                for key, flux in fluxes(bufs[(n - 1) % 2], keys):
                    ops[flux.ndim].step(spectra[key], flux, bufs[n % 2][key])
                _check_guard(bufs[n % 2][guard], n * tg.dt)
            shares.release(n + 1)
            if n < tg.n_steps:
                shares.wait(n)
            else:
                shares.join()
            yield bufs[n % 2], spectra


def _check_guard(u: np.ndarray, t: float) -> None:
    """Raise NegativeDensityError if the density u, at time t, dips below -1e-10."""
    m = u.min()
    if m < -1e-10:
        raise NegativeDensityError(f"density reached {m:.3e} at t={t:.6f}; "
                                   "time step too large for the transport")


def _trajectories(steps, tg: TimeGrid) -> dict:
    """key -> its field at every stored time, from the states of a _march."""
    store = {}
    for s, (state, _) in enumerate(it.islice(steps, 0, None, tg.store_every)):
        for key, u in state.items():
            if s == 0:
                store[key] = np.empty((tg.n_stored,) + u.shape)
            store[key][s] = u
    return store


def solve_mckean_vlasov(f: GridField, kernel: KernelSpec, tg: TimeGrid) -> np.ndarray:
    """Mean-field density rho: d/dt rho - Lap rho + d/dx((K*rho) rho) = 0, rho(0) = f.

    This is the order-0 hierarchy; row s of the (n_stored, M) result is rho
    at tg.stored_times[s].  The carried mean mode is conserved exactly, the
    grid sum of rho to roundoff; a density dipping below -1e-10 anywhere
    aborts with a diagnostic.
    """
    return solve_g_hierarchy(0, f, kernel, tg).entries[(0, 1)]


# the meta.json keys GTable.load reads
_META_KEYS = ("dim", "M", "dt", "n_steps", "store_every", "i_max", "kernel_text",
              "kernel_sha256", "entries")


def _require_keys(meta_file: Path, obj, keys) -> None:
    """Raise ValueError naming meta_file unless obj is an object holding every one of keys."""
    if not isinstance(obj, dict):
        raise ValueError(f"{meta_file}: expected an object, got {type(obj).__name__}")
    missing = next((k for k in keys if k not in obj), None)
    if missing is not None:
        raise ValueError(f"{meta_file}: missing key {missing!r}")


def _meta_count(meta_file: Path, obj: dict, key: str) -> int:
    """obj[key], which must be a non-negative integer (not a bool), else ValueError naming meta_file."""
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int) or v < 0:
        raise ValueError(f"{meta_file}: {key} is {v!r}, expected a non-negative integer")
    return v


class GTable(NamedTuple):
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

    def field(self, i: int, j: int, s: int) -> GridField:
        return GridField(self.grid, j, self.entries[(i, j)][s])

    def fields_at(self, s: int) -> dict:
        """(i, j) -> g^i_j at stored time s, as the plain arrays pchaos.partitions sums."""
        return {key: arr[s] for key, arr in self.entries.items()}

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
        """Read a table written by save (dim 1); the kernel hash and every file size must match,
        the entries must be exactly solve_order(i_max), each in the g_{i}_{j}.f64 file save
        names.  A malformed meta.json is a ValueError."""
        path = Path(path)
        meta_file = path / "meta.json"
        with open(meta_file, "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        _require_keys(meta_file, meta, _META_KEYS)
        for ent in meta["entries"]:
            _require_keys(meta_file, ent, ("i", "j", "file"))
        if _meta_count(meta_file, meta, "dim") != 1:
            raise ValueError(f"{meta_file}: dim is {meta['dim']!r}, expected 1")
        if not all(isinstance(v, str) for v in (meta["kernel_text"], meta["kernel_sha256"],
                                                *(ent["file"] for ent in meta["entries"]))):
            raise ValueError(f"{meta_file}: kernel_text, kernel_sha256 and files must be strings")
        M, n_steps, store_every, i_max = (_meta_count(meta_file, meta, key)
                                          for key in ("M", "n_steps", "store_every", "i_max"))
        dt = meta["dt"]
        if isinstance(dt, bool) or not isinstance(dt, (int, float)) or not math.isfinite(dt):
            raise ValueError(f"{meta_file}: dt is {dt!r}, expected a finite number")
        keys = [tuple(_meta_count(meta_file, ent, k) for k in "ij") for ent in meta["entries"]]
        if sorted(keys) != sorted(solve_order(i_max)):
            raise ValueError(f"{meta_file}: entries {sorted(keys)} are not an order-{i_max} table's")
        grid = TorusGrid(M)
        tg = TimeGrid(dt, n_steps, store_every)
        ktext = meta["kernel_text"]
        if hashlib.sha256(ktext.encode()).hexdigest() != meta["kernel_sha256"]:
            raise ValueError(f"{meta_file}: kernel_text does not match kernel_sha256")
        kernel = KernelSpec.from_text(ktext)
        entries = {}
        for (i, j), ent in zip(keys, meta["entries"]):
            if ent["file"] != f"g_{i}_{j}.f64":  # the name save writes
                raise ValueError(f"{meta_file}: entry ({i}, {j}) names file {ent['file']!r}, "
                                 f"expected 'g_{i}_{j}.f64'")
            want = 8 * tg.n_stored * M ** j
            data = (path / ent["file"]).read_bytes()
            if len(data) != want:
                raise ValueError(
                    f"table file {path / ent['file']} has {len(data)} bytes, meta.json describes {want}"
                )
            raw = np.frombuffer(data, dtype="<f8")
            entries[(i, j)] = raw.reshape((tg.n_stored,) + (M,) * j).copy()
        return cls(grid, tg, i_max, kernel, entries)


def _hierarchy_steps(i_max: int, f: GridField, kernel: KernelSpec, tg: TimeGrid):
    """_march over every entry (i, j), i <= i_max: rho = g^0_1 starts at f, the rest at 0.

    Every entry steps from the time-t state, so each sees exactly the values
    a sequential solve in the triangular order would have used.  The entry
    _entry_apart names steps in a forked child (_march).
    """
    entries = solve_order(i_max)  # (0, 1) first
    op = _Interaction(kernel, f.grid)
    solvers = {key: _EntrySolver(compile_entry_terms(*key), key[1], op) for key in entries}

    def fluxes(state, keys):
        contractions = {}
        for key in keys:
            yield key, solvers[key].flux1(state, contractions)

    initial = {key: np.zeros((f.grid.M,) * key[1]) for key in entries}
    initial[(0, 1)] = f.values
    return _march(initial, fluxes, (0, 1), tg, _entry_apart(i_max))


def _entry_apart(i_max: int):
    """The entry an order-i_max solve steps in a forked child (_march), or None.

    From order 2 on, that is the top-arity entry (i_max, i_max + 1), whose
    lattice has a coordinate more than any other entry's and takes most of
    each step; it goes to a second CPU where this process may run on two
    (particles._usable_cpus, which counts one where _Shares cannot fork).
    Lower orders step in one process.
    """
    return (i_max, i_max + 1) if i_max >= 2 and _usable_cpus() >= 2 else None


def solve_g_hierarchy(
    i_max: int, f: GridField, kernel: KernelSpec, tg: TimeGrid
) -> GTable:
    """Solve all hierarchy entries (i, j) in T with i <= i_max, in lockstep (_hierarchy_steps).

    From order 2 on, on two usable CPUs, the top-arity entry steps in a
    forked child beside this process (_entry_apart); the table is the same
    bit for bit.
    """
    if not 0 <= i_max <= 2:
        raise ValueError("correction order capped at i_max = 2")
    grid = f.grid
    # in lattices of the top arity: the stored trajectory, the field's two
    # buffers, the flux and its scratch (1 each), the carried spectrum and the
    # stepper's work array (complex, H <= M//2 + 1 columns: <= ~1 each) and,
    # above operators._DFT_MAX_M, pocketfft's full-width rfft output (~1); the
    # flux assembler's other buffers are smaller.  Stepped in a forked child
    # (_march), the entry's buffers and spectrum lie in the mapping both
    # processes share and the rest in the child, whose copy of this process's
    # arrays is shared until written, so the two processes hold the same
    # lattices between them
    need = (tg.n_stored + 7) * grid.M ** (i_max + 1) * 8
    if need > MEMORY_BUDGET_BYTES:
        raise MemoryBudgetError(
            f"hierarchy solve needs ~{need/1e9:.1f} GB (> {MEMORY_BUDGET_BYTES/1e9:.1f} GB budget)"
        )
    _check_problem(f, kernel, tg)
    store = _trajectories(_hierarchy_steps(i_max, f, kernel, tg), tg)
    return GTable(grid, tg, i_max, kernel, store)


# ---------------------------------------------------------------------------
# assembly of the expansion, the remainder, and the energy inequality


def assemble_phi(i: int, j: int, N: float, gt: GTable) -> np.ndarray:
    """phi^i_j = sum_{k<=i} N^{-k} f^k_j at every stored time, shape (n_stored, M, ..., M)."""
    if i > gt.i_max:
        raise ValueError(f"table solved to order {gt.i_max}, requested {i}")
    out = np.zeros((gt.n_stored,) + (gt.grid.M,) * j)
    for s in range(gt.n_stored):
        fields = gt.fields_at(s)
        for k in range(i + 1):
            out[s] += float(N) ** (-k) * assemble_correction(k, j, fields)
    return out


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
    f_i = {("f", a): assemble_correction(i, a, fields) for a in (j, j + 1)}
    scale = float(N) ** (-(i + 1))
    terms = compile_bbgky_terms(j, j * scale, -scale, False)
    flux1 = _EntrySolver(terms, j, _Interaction(gt.kernel, gt.grid)).flux1(f_i, {})
    comps = np.array([np.swapaxes(flux1, 0, k) for k in range(j)])
    rho_j = product_field(gt.field(0, 1, s), j).values
    return comps, _weighted_sq(comps, rho_j, gt.grid.h, j)


class EnergyReport(NamedTuple):
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

    phi_j = assemble_phi(i, j, N, gt)
    phi_j1 = assemble_phi(i, j + 1, N, gt)
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


BBGKY_LEVELS = 3  # the reference integrates f_1..f_top, top = BBGKY_LEVELS, and closes above


class BBGKYResult(NamedTuple):
    """Marginal trajectories f_1..f_top of the N-particle hierarchy, closed at level top + 1."""

    grid: TorusGrid
    tg: TimeGrid
    N: int
    marginals: dict
    closure_size: np.ndarray       # max |g_top| per stored time
    marginal_drift: np.ndarray     # max over j of |int f_{j+1} dx - f_j| per stored time

    @property
    def times(self) -> np.ndarray:
        return self.tg.stored_times


def solve_bbgky_reference(f: GridField, kernel: KernelSpec, N: int, tg: TimeGrid) -> BBGKYResult:
    """Integrate the hierarchy for f_1..f_top with a product closure above.

    f_{top+1} is the cluster expansion of the lower levels' cluster functions
    (partitions.clusters_from_moments) with g_{top+1} = 0, contracted block by
    block (operators.compile_bbgky_terms), so no array of arity above top is
    built.  The size of g_top and the marginal-consistency drift at the
    stored times are reported so the closure error is visible rather than hidden.
    """
    top = BBGKY_LEVELS
    if N <= top:
        raise ValueError(f"need N > {top}")
    _check_problem(f, kernel, tg)
    grid = f.grid
    levels = tuple(range(1, top + 1))
    op = _Interaction(kernel, grid)
    solvers = {("f", a): _EntrySolver(compile_bbgky_terms(a, (N - a) / N, 1 / N, a == top), a, op)
               for a in levels}

    def clusters(state):
        f_a = {a: state[("f", a)] for a in levels}
        return {("g", a): g for a, g in clusters_from_moments(f_a).items()}

    def fluxes(state, keys):
        fields, contractions = {**state, **clusters(state)}, {}
        for key in keys:
            yield key, solvers[key].flux1(fields, contractions)

    initial = {("f", a): product_field(f, a).values for a in levels}
    store = _trajectories(_march(initial, fluxes, ("f", 1), tg), tg)
    closure_size = np.array([np.abs(clusters({k: v[s] for k, v in store.items()})[("g", top)]).max()
                             for s in range(tg.n_stored)])
    marginals = {a: store[("f", a)] for a in levels}
    drift = np.max([np.abs(marginals[a + 1].sum(axis=-1) * grid.h - marginals[a]).max(axis=levels[:a])
                    for a in levels[:-1]], axis=0)
    return BBGKYResult(grid, tg, N, marginals, closure_size, drift)
