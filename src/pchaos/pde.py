"""Spectral solvers for the mean-field density and the correction hierarchy.

All equations here have the form

    d/dt u - Laplacian u = - sum_k d/dx_k (flux_k),

on (T^1)^j, and are advanced by a first-order exponential integrator: the
heat semigroup is applied exactly in Fourier space and the transport/forcing
fluxes are assembled explicitly at the current time, dealiased by the 2/3
rule, and weighted by the phi_1 factor (1 - e^{-z})/z per mode.  That weight
makes linear steady states exact and keeps the mode-0 (mass) update exact.

Every unknown here (each g^i_j and each BBGKY marginal f_a) is symmetric in
its coordinates, and so are the equations.  So flux_k is flux_1 with x_1 and
x_k swapped, and every solver assembles flux_1 alone.  One stepper,
_SpectralOps.step(u, flux1), solves the update whose divergence is d/dx_1
flux_1 and whose heat part is 1/j of u's, with real transforms only, and
sums that update over the j swaps of x_1 with x_k in real space: the heat
and phi_1 multipliers are invariant under coordinate permutations and u is
symmetric, so the sum is the full update.  test_pde.py guards the premise:
on symmetric states the full term table's flux_k equals the swapped flux_1
(tests/oracles/all_k_flux.py), the stepper matches one that transforms the
swapped fluxes (tests/oracles/fourier_swap_step.py), and the solved entries
stay symmetric to 1e-13.  compute_remainder, which reports R^i_j rather
than stepping, still evaluates every component.

The correction hierarchy g^i_j lives on the triangular index set
T = {(i, j): 1 <= j <= i + 1}.  Entry (0, 1) is the mean-field density rho,
the only nonlinear equation; solve_mckean_vlasov is the order-0 hierarchy.
Every other entry satisfies a linear transport equation whose right-hand side
couples lower entries through the operators

    S_{k,l} h = d/dx_k (K(x_k, x_l) h),
    H_k    h = d/dx_k (integral of K(x_k, x_*) h dx_*),

where H_k applied to a product integrates every factor carrying the starred
coordinate.  One interaction operator (_Interaction) is the only place that
applies K.  K is band-limited, so on the grid h K(x, y) factors through
Q = 1 + 2 (number of khat modes) functions of y, and every contraction
against K (the mean-field convolution and the starred axis of H_k) is two
small matrix products through those factors.  _Interaction also routes the
pair weight for S_{k,l} and assembles the BBGKY-shaped flux
c_upper H_k f_{a+1} + c_self sum_l K(x_k, x_l) f_a shared by the remainder
R^i_j and the truncated N-particle hierarchy.  The generic assembler compiles
the k = 1 terms of each entry's equation once (_EntrySolver) and evaluates
them per step, with the starred contractions shared between entries through
a per-step cache.  The written-out first-order solvers that cross-check it
live with the tests, in tests/oracles/first_order_explicit.py.
"""

from __future__ import annotations

import hashlib
import itertools as it
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import GridField, KernelSpec, TorusGrid, product_field
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

STAR = 10 ** 6  # sentinel for the integrated-out coordinate; sorts after any real one

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


class _SpectralOps:
    """Exponential-Euler stepper on (T^1)^arity for a symmetric unknown.

    The multipliers live in the half spectrum of rfftn (the last axis keeps
    modes 0..M//2).  step() takes flux_1 alone: u and every field its flux is
    built from are symmetric in their coordinates, so flux_k is flux_1 with
    x_1 and x_k swapped.  The heat and phi_1 multipliers are invariant under
    coordinate permutations, so the update with 1/arity of the heat part and
    only the d/dx_1 flux_1 divergence, swapped x_1 <-> x_k and summed over k,
    is the full update; the sum runs in real space.  force folds the phi_1
    weight, the minus sign of the divergence, the 2/3-rule dealiasing and
    d/dx_1 into one multiplier.  test_pde.py checks the premise on the full
    flux tables (test_flux_k_is_flux_1_with_axes_swapped), against a stepper
    that transforms the swapped fluxes (tests/oracles/fourier_swap_step.py)
    and on the solved entries (test_solved_entries_are_symmetric).
    """

    def __init__(self, M: int, arity: int, dt: float):
        freqs = np.fft.fftfreq(M, d=1.0 / M)  # integer mode numbers
        lam = np.zeros((M,) * arity)
        mask = np.ones((M,) * arity, dtype=bool)
        keep = np.abs(freqs) <= M // 3  # 2/3-rule dealiasing
        for ax in range(arity):
            shape = [1] * arity
            shape[ax] = M
            lam = lam + 4.0 * np.pi ** 2 * freqs.reshape(shape) ** 2
            mask &= keep.reshape(shape)
        half = M // 2 + 1
        lam = lam[..., :half]
        deriv1 = (2j * np.pi * freqs).reshape((M,) + (1,) * (arity - 1))[..., :half]
        self.heat = np.exp(-lam * dt) / arity
        with np.errstate(divide="ignore", invalid="ignore"):
            w = -np.expm1(-lam * dt) / lam
        self.force = np.where(mask[..., :half], -np.where(lam == 0.0, dt, w), 0.0) * deriv1

    def step(self, u: np.ndarray, flux1: np.ndarray) -> np.ndarray:
        """One step of du/dt = Lap u - sum_k d/dx_k flux_k with flux_k = flux_1 o (x_1 <-> x_k)."""
        axes = range(u.ndim)
        x = np.fft.irfftn(self.heat * np.fft.rfftn(u) + self.force * np.fft.rfftn(flux1),
                          s=u.shape, axes=axes)
        return sum(np.swapaxes(x, 0, ax) for ax in axes)


def _kernel_matrix(kernel: KernelSpec, grid: TorusGrid) -> np.ndarray:
    """Kmat[a, b] = K(x_a, x_b) on the grid nodes."""
    x = grid.points
    return kernel.eval(x[:, None], x[None, :])


def _sup_norm_grid(kernel: KernelSpec, samples: int = 4096) -> float:
    """Sup of |b(x) + khat(z)| over a fine grid (x and z vary independently)."""
    pts = np.arange(samples) / samples
    b = kernel.b_values(pts)
    k = kernel.khat_values(pts)
    return float(max(b.max() + k.max(), -(b.min() + k.min())))


def _check_problem(f: GridField, kernel: KernelSpec, tg: TimeGrid) -> None:
    """Inputs every solver needs: a positive 1-d density, a resolved band, the CFL bound."""
    grid = f.grid
    if f.arity != 1 or grid.dim != 1:
        raise ValueError("the solvers need an arity-1 density on a 1-d torus grid")
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


# ---------------------------------------------------------------------------
# generic hierarchy assembler


@dataclass(frozen=True)
class _Term:
    coef: int
    kind: str            # "H" (starred contraction) or "S" (pairwise)
    k: int               # 1-based divergence coordinate
    l: int | None        # second coordinate for S terms
    factors: tuple       # of (order, coords); coords sorted, STAR last


def _factor_nonzero(order: int, coords: tuple) -> bool:
    a = len(coords)
    if a == 0 or order < 0:
        return False
    if order == 0:
        return a == 1
    return a <= order + 1


def _mk(coords) -> tuple:
    return tuple(sorted(coords))


def compile_entry_terms(i: int, j: int) -> list:
    """Term table of the order-(i, j) cluster-correction equation, i >= 1.

    Both transport products (which involve the unknown itself) are folded in
    with negative coefficients, so the right-hand side for the time stepper is
    the signed sum of all returned terms.  Terms whose factors vanish (order
    and arity off the triangular set, or the empty coordinate set) are pruned.
    """
    if i < 1:
        raise ValueError("entry (0, 1) is the mean-field equation; no term table")
    terms: list[_Term] = []
    full = tuple(range(1, j + 1))

    def add(coef, kind, k, l, factors):
        if coef == 0:
            return
        fs = tuple((o, _mk(c)) for o, c in factors)
        if not all(_factor_nonzero(o, c) for o, c in fs):
            return
        if kind == "H":
            starred = sum(STAR in c for _, c in fs)
            if starred != 1:
                raise AssertionError("H term needs exactly one starred factor")
        terms.append(_Term(coef, kind, k, l, fs))

    for k in full:
        rest = tuple(c for c in full if c != k)
        add(-1, "H", k, None, [(0, (k,)), (i, rest + (STAR,))])
        add(-1, "H", k, None, [(i, full), (0, (STAR,))])
        add(-1, "H", k, None, [(i, full + (STAR,))])
        add(j, "H", k, None, [(i - 1, full + (STAR,))])
        for wlen in range(len(rest) + 1):
            for W in it.combinations(rest, wlen):
                Wk = W + (k,)
                rem = tuple(c for c in rest if c not in W)
                for m in range(1, i):
                    add(-1, "H", k, None, [(m, Wk), (i - m, rem + (STAR,))])
                for m in range(i):
                    add(j - 1 - wlen, "H", k, None, [(m, W + (k, STAR)), (i - 1 - m, rem)])
                    add(j, "H", k, None, [(m, Wk), (i - 1 - m, rem + (STAR,))])
                for rlen in range(len(rem) + 1):
                    for R in it.combinations(rem, rlen):
                        coef = j - 1 - wlen - rlen
                        rem2 = tuple(c for c in rem if c not in R)
                        for m in range(i):
                            for n in range(i - m):
                                add(coef, "H", k, None,
                                    [(m, Wk), (n, R + (STAR,)), (i - 1 - m - n, rem2)])
        for l in full:
            add(-1, "S", k, l, [(i - 1, full)])
            if l == k:
                continue
            pool = tuple(c for c in full if c not in (k, l))
            for wlen in range(len(pool) + 1):
                for W in it.combinations(pool, wlen):
                    rem = tuple(c for c in full if c != k and c not in W)
                    for m in range(i):
                        add(-1, "S", k, l, [(m, W + (k,)), (i - 1 - m, rem)])
    return terms


def _route(vals: np.ndarray, coords: tuple, j: int, M: int) -> np.ndarray:
    """Broadcast an array whose axes follow `coords` onto the full j-lattice."""
    ordered = sorted(coords)
    if ordered != list(coords):
        vals = np.transpose(vals, [coords.index(c) for c in ordered])
    present = set(ordered)
    return vals.reshape(tuple(M if c in present else 1 for c in range(1, j + 1)))


class _Interaction:
    """The kernel K on one grid: the only place the hierarchy operators apply it.

    mean_field_flux() is the transport (K * rho) rho of the mean-field
    equation, starred() the contraction behind H_k, pair() the routed weight
    K(x_k, x_l) behind S_{k,l}, and bbgky_flux() the flux
    c_upper H_k f_{a+1} + c_self sum_l K(x_k, x_l) f_a that the remainder and
    the truncated BBGKY hierarchy share.  The pair sums are built once per
    (k, a) and cached.

    Contractions go through the rank-Q factors h K(x, y) = sum_q V[q, x] U[y, q]
    of the kernel's mode table: a column of h paired with b(x) + khat_c[0],
    and per khat mode m the columns h cos(2 pi m y), h sin(2 pi m y) paired
    with k_c cos + k_s sin and k_c sin - k_s cos at x (the alpha/beta fold of
    particles._mode_terms).  Kmat, the kernel on the node pairs, gives the
    pair weights.
    """

    def __init__(self, kernel: KernelSpec, grid: TorusGrid):
        self.M = grid.M
        x = grid.points
        self.Kmat = _kernel_matrix(kernel, grid)
        self.Kdiag = np.diag(self.Kmat).copy()
        cols = [np.full(grid.M, grid.h)]
        rows = [kernel.b_values(x) + kernel.k_cos[0]]
        for m, _, _, kc, ks in kernel.mode_table:
            if kc == 0.0 and ks == 0.0:
                continue
            c, s = np.cos(2.0 * np.pi * m * x), np.sin(2.0 * np.pi * m * x)
            cols += [grid.h * c, grid.h * s]
            rows += [kc * c + ks * s, kc * s - ks * c]
        self.U = np.stack(cols, axis=1)
        self.V = np.stack(rows)
        self._pair_sums = {}

    def mean_field_flux(self, rho: np.ndarray) -> np.ndarray:
        """(K * rho) rho through the factors."""
        return ((rho @ self.U) @ self.V) * rho

    def starred(self, vals: np.ndarray, coords: tuple, k: int, j: int) -> np.ndarray:
        """Integrate the starred axis against K(x_k, .) and route onto the j-lattice.

        coords are sorted with STAR last, so the starred axis is the final one.
        The contraction appends an x_k axis; when the factor already carries x_k
        the two are tied on the diagonal.
        """
        rest = coords[:-1]
        w = (vals @ self.U) @ self.V
        if k in rest:
            w = np.diagonal(w, axis1=rest.index(k), axis2=w.ndim - 1)
            rest = tuple(c for c in rest if c != k)
        return _route(w, rest + (k,), j, self.M)

    def pair(self, k: int, l: int, j: int) -> np.ndarray:
        """K(x_k, x_l) routed onto the j-lattice (K(x_k, x_k) on the diagonal)."""
        if k == l:
            return _route(self.Kdiag, (k,), j, self.M)
        vals = self.Kmat if k < l else self.Kmat.T
        return _route(vals, _mk((k, l)), j, self.M)

    def bbgky_flux(self, upper: np.ndarray, u: np.ndarray, c_upper: float, c_self: float,
                   k: int = 1) -> np.ndarray:
        """flux_k = c_upper int K(x_k, x_*) upper dx_* + c_self sum_l K(x_k, x_l) u."""
        a = u.ndim
        if (k, a) not in self._pair_sums:
            self._pair_sums[(k, a)] = sum(self.pair(k, l, a) for l in range(1, a + 1))
        hk = self.starred(upper, tuple(range(1, a + 1)) + (STAR,), k, a)
        return c_upper * hk + c_self * (self._pair_sums[(k, a)] * u)


class _EntrySolver:
    """flux_1 of one hierarchy entry (i, j), i >= 1, compiled from its term table.

    Only the k = 1 terms are kept (the stepper derives flux_k by an axis
    swap).  Each term becomes a coefficient times sources (kind, arg, shape)
    on the j-lattice, multiplied from the smallest shape up so the products
    grow late: a "state" source is a stored entry reshaped onto the lattice
    (factor coordinates are sorted, so no transpose is needed), a "starred"
    source the contraction behind H_1, looked up in the per-step cache, and a
    "weight" source the routed pair weight of S_{1,l}.  S terms with equal
    factors share one weight summed over l.
    """

    def __init__(self, i: int, j: int, op: _Interaction):
        self.j = j
        self.op = op

        def lattice(coords):
            return tuple(op.M if c in coords else 1 for c in range(1, j + 1))

        pair_weights = {}
        self.terms = []
        for t in compile_entry_terms(i, j):
            if t.k != 1:
                continue
            sources = []
            for order, coords in t.factors:
                key = (order, len(coords))
                if STAR in coords:
                    out_coords = tuple(c for c in coords[:-1] if c != 1) + (1,)
                    sources.append(("starred", (key, coords), lattice(out_coords)))
                else:
                    sources.append(("state", key, lattice(coords)))
            # the table holds d/dt g - Lap g = sum coef * Op(...); the stepper
            # subtracts flux divergences, so the flux carries the opposite sign
            if t.kind == "S":
                w = -t.coef * op.pair(1, t.l, j)
                sources = tuple(sources)
                pair_weights[sources] = pair_weights[sources] + w if sources in pair_weights else w
            else:
                self.terms.append((-t.coef, sources))
        for sources, w in pair_weights.items():
            self.terms.append((1, list(sources) + [("weight", w, w.shape)]))
        for _, sources in self.terms:
            sources.sort(key=lambda src: np.prod(src[2]))

    def flux1(self, state: dict, contractions: dict) -> np.ndarray:
        """flux_1 at the time-t state; contractions caches starred factors for this step."""
        out = np.zeros((self.op.M,) * self.j)
        for coef, sources in self.terms:
            prod = coef
            for kind, arg, shape in sources:
                if kind == "state":
                    part = state[arg].reshape(shape)
                elif kind == "starred":
                    ckey = arg + (self.j,)
                    if ckey not in contractions:
                        contractions[ckey] = self.op.starred(state[arg[0]], arg[1], 1, self.j)
                    part = contractions[ckey]
                else:
                    part = arg
                prod = prod * part
            out += prod
        return out


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
            "dim": self.grid.dim,
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
        """Read a table written by save; the kernel hash and every file size must match."""
        path = Path(path)
        with open(path / "meta.json", "r", encoding="utf-8") as fh:
            meta = json.load(fh)
        grid = TorusGrid(meta["M"], meta["dim"])
        tg = TimeGrid(meta["dt"], meta["n_steps"], meta["store_every"])
        ktext = meta["kernel_text"]
        if hashlib.sha256(ktext.encode()).hexdigest() != meta["kernel_sha256"]:
            raise ValueError(f"{path / 'meta.json'}: kernel_text does not match kernel_sha256")
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


def solve_g_hierarchy(
    i_max: int, f: GridField, kernel: KernelSpec, tg: TimeGrid
) -> GTable:
    """Solve all hierarchy entries (i, j) in T with i <= i_max, in dependency order.

    All entries advance in lockstep: each step evaluates every right-hand side
    from the time-t state, then applies the exponential updates, so every
    entry sees exactly the values a sequential solve in the triangular order
    would have used.
    """
    if not 0 <= i_max <= 2:
        raise ValueError("correction order capped at i_max = 2")
    grid = f.grid
    need = (tg.n_stored + 2) * grid.M ** (i_max + 1) * 8
    if need > MEMORY_BUDGET_BYTES:
        raise MemoryBudgetError(
            f"hierarchy solve needs ~{need/1e9:.1f} GB (> {MEMORY_BUDGET_BYTES/1e9:.1f} GB budget)"
        )
    _check_problem(f, kernel, tg)

    keys = solve_order(i_max)  # (0, 1) first
    op = _Interaction(kernel, grid)
    ops = {a: _SpectralOps(grid.M, a, tg.dt) for a in range(1, i_max + 2)}
    solvers = {key: _EntrySolver(*key, op) for key in keys[1:]}

    state = {key: np.zeros((grid.M,) * key[1]) for key in keys}
    state[(0, 1)] = f.values.copy()
    store = {key: np.empty((tg.n_stored,) + state[key].shape) for key in keys}
    for key, arr in store.items():
        arr[0] = state[key]

    s = 1
    for n in range(tg.n_steps):
        rho = state[(0, 1)]
        new_state = {(0, 1): ops[1].step(rho, op.mean_field_flux(rho))}
        _guard_negative(new_state[(0, 1)], (n + 1) * tg.dt)
        contractions = {}
        for key, solver in solvers.items():
            new_state[key] = ops[key[1]].step(state[key], solver.flux1(state, contractions))
        state = new_state
        if (n + 1) % tg.store_every == 0:
            for key, arr in store.items():
                arr[s] = state[key]
            s += 1
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

    state = {a: product_field(f, a).values for a in (1, 2, 3)}
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

    s = 1
    for n in range(tg.n_steps):
        upper = {1: state[2], 2: state[3], 3: closure_f4(state[1], state[2], state[3])}
        state = {
            a: ops[a].step(state[a], op.bbgky_flux(upper[a], state[a], (N - a) / N, 1 / N))
            for a in (1, 2, 3)
        }
        _guard_negative(state[1], (n + 1) * tg.dt)
        if (n + 1) % tg.store_every == 0:
            for a in (1, 2, 3):
                store[a][s] = state[a]
            diagnostics(s)
            s += 1
    return BBGKYResult(grid, tg, N, store, closure_size, marg_drift)
