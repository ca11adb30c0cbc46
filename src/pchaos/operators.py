"""Lattice operators of the correction hierarchy and the stepper its solvers share.

Every equation here is d/dt u - Laplacian u = sum of coef * Op(factors), with

    S_{k,l} h = d/dx_k (K(x_k, x_l) h),
    H_k    h = d/dx_k (integral of K(x_k, x_*) h dx_*),

where H_k applied to a product integrates the factor carrying the starred
coordinate.  compile_entry_terms writes out the term table of each hierarchy
entry g^i_j (the mean-field density g^0_1 has one nonlinear H term), and
compile_bbgky_terms that of a BBGKY level's flux, c_upper H_1 f_{a+1} +
c_self sum_l S_{1,l} f_a, also the remainder R^i_j.  One interaction operator
(_Interaction) is the only place that applies K.  K is band-limited, so on
the grid h K(x, y) factors through Q = 1 + 2 (number of khat modes)
functions of y, and every contraction against K is two small matrix
products through those factors.  _EntrySolver, the one flux assembler,
compiles the k = 1 terms of a table once into a few batched products, rank
axis first.

Every unknown (each g^i_j and each BBGKY marginal) is symmetric in its
coordinates, and so are the equations.  So flux_k is flux_1 with x_1 and x_k
swapped, and _SpectralOps steps from flux_1 alone, in the half spectrum, up
to the last column the dealiased forcing or an initial spectrum reaches.
On the grids the solvers run at (M <= _DFT_MAX_M) its last-axis transforms
are products with precomputed real DFT matrices, which cost less than
pocketfft's per-line work there; the other axes, and larger grids, go
through np.fft.  test_pde.py guards the premise (tests/oracles/all_k_flux.py,
fourier_swap_step.py, full_width_step.py) and the solved entries' symmetry.
The solvers that drive these operators are in pchaos.pde.
"""

from __future__ import annotations

import functools
import itertools as it
import math
from typing import NamedTuple

import numpy as np

from .core import KernelSpec, TorusGrid
from .partitions import enumerate_partitions, in_triangle

__all__ = ["STAR", "compile_entry_terms", "compile_bbgky_terms"]

STAR = 10 ** 6  # sentinel for the integrated-out coordinate; sorts after any real one


class _Term(NamedTuple):
    coef: float
    kind: str            # "H" (starred contraction) or "S" (pairwise)
    k: int               # 1-based divergence coordinate
    l: int | None        # second coordinate for S terms
    factors: tuple       # of (tag, coords), the unknown keyed (tag, len(coords)); STAR last


def _mk(coords) -> tuple:
    return tuple(sorted(coords))


def compile_entry_terms(i: int, j: int) -> list:
    """Term table of the order-(i, j) cluster-correction equation.

    Both transport products (which involve the unknown itself) are folded in
    with negative coefficients, so the right-hand side for the time stepper is
    the signed sum of all returned terms.  Terms whose factors vanish (order
    and arity off the triangular set, or the empty coordinate set) are pruned.
    Entry (0, 1) has the one term -H_1 rho(x_1) rho(x_*).
    """
    if (i, j) == (0, 1):
        return [_Term(-1.0, "H", 1, None, ((0, (1,)), (0, (STAR,))))]
    if i < 1:
        raise ValueError(f"({i}, {j}) is not a hierarchy entry")
    terms: list[_Term] = []
    full = tuple(range(1, j + 1))

    def add(coef, kind, k, l, factors):
        if coef == 0:
            return
        fs = tuple((o, _mk(c)) for o, c in factors)
        if not all(in_triangle(o, len(c)) for o, c in fs):
            return
        if kind == "H":
            starred = sum(STAR in c for _, c in fs)
            if starred != 1:
                raise AssertionError("H term needs exactly one starred factor")
        terms.append(_Term(float(coef), kind, k, l, fs))

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


def compile_bbgky_terms(a: int, c_upper: float, c_self: float, closed: bool) -> list:
    """k = 1 terms of the flux c_upper H_1 f_{a+1} + c_self sum_l S_{1,l} f_a of ("f", a).

    When closed, f_{a+1} is the cluster expansion of the clusters ("g", 1..a)
    with g_{a+1} = 0: one H term per partition of {1..a, y} with more than
    one block, whose block holding y is the starred factor, so f_{a+1} is never formed.
    """
    full = tuple(range(1, a + 1))
    terms = [_Term(-c_self, "S", 1, l, (("f", full),)) for l in full]
    if not closed:
        return [_Term(-c_upper, "H", 1, None, (("f", full + (STAR,)),))] + terms
    for blocks in enumerate_partitions(a + 1):
        if len(blocks) > 1:  # y = a + 1 is the largest element, so STAR stays last
            factors = tuple(("g", tuple(STAR if c > a else c for c in b)) for b in blocks)
            terms.append(_Term(-c_upper, "H", 1, None, factors))
    return terms


def _route_plan(coords: tuple, j: int, M: int) -> tuple:
    """(perm, shape) that carry an array whose axes follow `coords` onto the full j-lattice.

    perm is the transpose that sorts the axes (None when they are sorted) and
    shape the array's broadcast shape on the j-lattice.
    """
    ordered = sorted(coords)
    perm = None if ordered == list(coords) else [coords.index(c) for c in ordered]
    return perm, tuple(M if c in coords else 1 for c in range(1, j + 1))


def _apply_route(vals: np.ndarray, plan: tuple) -> np.ndarray:
    perm, shape = plan
    if perm is not None:
        vals = np.transpose(vals, perm)
    return vals.reshape(shape)


def _route(vals: np.ndarray, coords: tuple, j: int, M: int) -> np.ndarray:
    """Broadcast an array whose axes follow `coords` onto the full j-lattice."""
    return _apply_route(vals, _route_plan(coords, j, M))


def _kernel_matrix(kernel: KernelSpec, grid: TorusGrid) -> np.ndarray:
    """Kmat[a, b] = K(x_a, x_b) on the grid nodes."""
    x = grid.points
    return kernel.eval(x[:, None], x[None, :])


class _Interaction:
    """The kernel K on one grid: the only place the hierarchy operators apply it.

    starred() is the contraction behind H_k and pair() the routed weight
    K(x_k, x_l) behind S_{k,l}; _EntrySolver builds every flux from them.

    Contractions go through the rank-Q factors h K(x, y) = sum_q V[q, x] U[y, q]
    of the kernel's mode table: a column of h paired with b(x) + khat_c[0],
    and per khat mode m the columns h cos(2 pi m y), h sin(2 pi m y) paired
    with k_c cos + k_s sin and k_c sin - k_s cos at x (the moment fold of
    particles._mode_terms).  Kmat, the kernel on the node pairs, gives the
    pair weights.
    """

    def __init__(self, kernel: KernelSpec, grid: TorusGrid):
        self.M, self.h = grid.M, grid.h
        x = grid.points
        self.Kmat = _kernel_matrix(kernel, grid)
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

    def starred_route(self, coords: tuple, k: int, j: int) -> tuple:
        """How starred() routes a factor on coords, contracted against K(x_k, .), onto the j-lattice.

        coords are sorted with STAR last, so the starred axis is the final
        one.  The contraction appends an x_k axis; when the factor already
        carries x_k the two are tied on the diagonal.  Returns (tie, plan):
        the factor's axis tied to x_k (or None) and the _route_plan of the
        contracted axes.
        """
        rest = coords[:-1]
        tie = rest.index(k) if k in rest else None
        return tie, _route_plan(tuple(c for c in rest if c != k) + (k,), j, self.M)

    def starred(self, vu: np.ndarray, route: tuple) -> np.ndarray:
        """Integrate a factor's starred axis against K(x_k, .), routed by starred_route.

        vu = vals @ U is the factor's contraction against the kernel's y
        columns.
        """
        tie, plan = route
        w = vu @ self.V
        if tie is not None:
            w = np.diagonal(w, axis1=tie, axis2=w.ndim - 1)
        return _apply_route(w, plan)

    def pair(self, k: int, l: int, j: int) -> np.ndarray:
        """K(x_k, x_l) routed onto the j-lattice (K(x_k, x_k) on the diagonal)."""
        if k == l:
            return _route(np.diag(self.Kmat), (k,), j, self.M)
        vals = self.Kmat if k < l else self.Kmat.T
        return _route(vals, _mk((k, l)), j, self.M)


def _support(src: tuple) -> set:
    """Coordinates a term's source depends on, on the entry's lattice (k = 1)."""
    kind, _, coords = src
    return (set(coords) - {STAR}) | ({1} if kind == "starred" else set())


class _EntrySolver:
    """flux_1 on the j-lattice of any term table: a hierarchy entry's or a BBGKY level's.

    Only the k = 1 terms are kept (the stepper derives flux_k by an axis
    swap).  A term is a coefficient times sources: a stored unknown on its
    coordinates ("state"), the contraction behind H_1, which always carries
    x_1 ("starred"), or the weight K(x_1, x_l) of S_{1,l} ("pair").  Sources
    on x_1 alone make up the term's x_1 part; each other source is mixed
    (it carries x_1) or free.  Each term compiles into one of three forms,
    and each form is evaluated once for all of its terms:

    (A) a(x_1) B(x_2..x_j): no mixed source, or a single one that factors
        through the rank-Q kernel factors, int K(x_1, y) g(., y) dy =
        sum_q V[q, x_1] (g @ U)[., q] and K(x_1, x_l) =
        sum_q V[q, x_1] U[x_l, q] / h.  Terms with the same x_1 part share
        columns of a (times V[q, x_1] when expanded) and sum their B parts
        at the size of x_2..x_j; one matmul batched over x_2 writes flux_1.
        B, the g @ U it reads and U / h are stored rank axis first, so each
        B part adds into a contiguous block, not Q-long inner loops.
    (B) F(x_1, x_2) G(x_1, x_3), j = 3: no source carries both x_2 and x_3.
        All such terms are one matmul batched over x_1, (M, M, T) @ (M, T, M),
        with F stored term-first.
    (D) the rest: d(x_1) times lattice sources, multiplied in a scratch
        lattice; terms with the same lattice sources sum their d at size M first.

    Each batch of a matmul is a small product (M x width x M^(j-2) for (A),
    M x T x M for (B)), which OpenBLAS runs on the calling thread at the
    sizes test_hierarchy_solve_keeps_to_one_cpu times, so a library caller
    on numpy's default threading stays on one CPU (a CLI process has no BLAS
    threads: pchaos.cli).  The starred contractions, and the g @ U they
    start from, are shared between unknowns through a per-step cache.

    Each source on each shape it is read at is one slot, fixed here with its
    kind, reshape, cache key and starred route, and read once per call
    (_read); each product is a fixed list of slots multiplied left to right
    (_running_product), without a coefficient 1.0 (1.0 * x is x bit for bit).
    """

    def __init__(self, terms: list, j: int, op: _Interaction):
        self.j = j
        self.op = op
        M, Q = op.M, op.U.shape[1]
        X = tuple(range(2, j + 1))
        slots = {}
        self._vals, self._reads = [], []

        def on(src, axes, head=()):
            return head + tuple(M if c in _support(src) else 1 for c in axes)

        def const(tag, value):
            if tag not in slots:
                slots[tag] = len(self._vals)
                self._vals.append(value)
            return slots[tag]

        def get(src, axes, head=(), kind=None):
            """Slot of a source's value on the given axes (kind "contracted": its g @ U, rank-first)."""
            kind = kind or src[0]
            _, key, coords = src
            shape = on(src, axes, head)
            if kind == "pair":
                return const((kind, key, shape), op.pair(1, key, j).reshape(shape))
            tag = (kind, key, coords, shape)
            if tag not in slots:
                natural = {"state": (M,) * len(coords),
                           "contracted": (Q,) + (M,) * (len(coords) - 1),
                           "starred": on(src, range(1, j + 1))}[kind]
                self._reads.append((const(tag, None), kind, key,
                                    (key, coords, j) if kind == "starred" else (key,),
                                    op.starred_route(coords, 1, j) if kind == "starred" else None,
                                    None if shape == natural else shape))
            return slots[tag]

        def product(coef, idx):
            """(first, rest): slots whose running product, left to right, is coef times idx's."""
            idx = list(idx)
            if coef != 1.0 or not idx:  # 1.0 * x is x, bit for bit
                idx.insert(0, const(("coef", coef), coef))
            return idx[0], tuple(idx[1:])

        groups, self.pairwise, diag = {}, [], {}
        for t in terms:
            if t.k != 1:
                continue
            srcs = [("starred" if STAR in c else "state", (o, len(c)), c) for o, c in t.factors]
            if t.kind == "S":
                srcs.append(("pair", t.l, (1, t.l)))
            # the table holds d/dt g - Lap g = sum coef * Op(...); the stepper
            # subtracts flux divergences, so the flux carries the opposite sign
            coef = -t.coef
            x1 = tuple(sorted(s for s in srcs if _support(s) == {1}))
            rest = [s for s in srcs if _support(s) != {1}]
            mixed = [s for s in rest if 1 in _support(s)]
            if X and not mixed:
                groups.setdefault((x1, False), []).append((coef, rest, None))
            elif len(mixed) == 1 and (mixed[0][0] == "pair" or 1 not in mixed[0][2]):
                free = [s for s in rest if s is not mixed[0]]
                groups.setdefault((x1, True), []).append((coef, free, mixed[0]))
            elif j == 3 and not any({2, 3} <= _support(s) for s in rest):
                near = [get(s, (1, 2)) for s in x1 + tuple(s for s in rest if 2 in _support(s))]
                far = [get(s, (1, 3)) for s in rest if 2 not in _support(s)]
                self.pairwise.append((product(coef, near), product(1.0, far)))
            else:
                diag.setdefault(tuple(sorted(rest)), []).append((coef, x1))
        self.diag = [([product(coef, [get(s, (1,)) for s in x1]) for coef, x1 in parts],
                      [get(s, range(1, j + 1)) for s in srcs]) for srcs, parts in diag.items()]
        self._dshape = (-1,) + (1,) * (j - 1)

        # (A): columns of a per x_1 part, and each term's B part on x_2..x_j,
        # rank axis first (U[x_l, q] / h for a pair weight, g @ U for a starred factor)
        self.columns, self.b_parts, width = [], [], 0
        for (x1, expand), terms in groups.items():
            cols = slice(width, width + (Q if expand else 1))
            width = cols.stop
            self.columns.append((product(1.0, [get(s, (1,)) for s in x1]), expand, cols))
            for coef, free, src in terms:
                parts = [get(s, X, (1,)) for s in free]
                if src is not None and src[0] == "pair":
                    shape = on(src, X, (Q,))
                    parts.append(const(("U/h", shape), (op.U / op.h).T.reshape(shape)))
                elif src is not None:
                    parts.append(get(src, X, (Q,), "contracted"))
                self.b_parts.append((product(coef, parts), cols))
        self.width = width
        self._out = np.empty((M,) * j)
        if self.columns:
            self._a = np.empty((M, width))
            self._B = np.empty((width,) + (M,) * (j - 1))
            self._Bt = self._B.reshape(width, M, -1).transpose(1, 0, 2)
            self._out_t = self._out.reshape(M, M, -1).transpose(1, 0, 2)
        if self.pairwise:
            self._F = np.empty((len(self.pairwise), M, M))
            self._G = np.empty((M, len(self.pairwise), M))
        self._tmp = np.empty((M,) * j)

    def _read(self, state: dict, cache: dict) -> list:
        """The slots' values at this state: the constants, then each source, read once."""
        vals = self._vals.copy()
        for i, kind, key, ckey, route, shape in self._reads:
            if kind == "state":
                v = state[key]
            else:
                v = cache.get(key)
                if v is None:
                    v = cache[key] = state[key] @ self.op.U
                w = cache.get(ckey)
                if w is None:
                    w = cache[ckey] = (self.op.starred(v, route) if kind == "starred"
                                       else np.moveaxis(v, -1, 0).copy())
                v = w
            vals[i] = v if shape is None else v.reshape(shape)
        return vals

    def flux1(self, state: dict, cache: dict) -> np.ndarray:
        """flux_1 at the time-t state, in a buffer the next call overwrites.

        cache holds this step's starred factors and their g @ U.
        """
        vals, out = self._read(state, cache), self._out
        if self.columns:
            a, B = self._a, self._B
            for (first, rest), expand, cols in self.columns:
                v = np.reshape(_running_product(vals, first, rest), (-1, 1))
                a[:, cols] = v * self.op.V.T if expand else v
            B.fill(0.0)
            for (first, rest), cols in self.b_parts:
                B[cols] += _running_product(vals, first, rest)
            np.matmul(a, self._Bt, out=self._out_t)
        else:
            out.fill(0.0)
        if self.pairwise:
            F, G = self._F, self._G
            for t, (near, far) in enumerate(self.pairwise):
                F[t] = _running_product(vals, *near)
                G[:, t] = _running_product(vals, *far)
            out += np.matmul(F.transpose(1, 2, 0), G, out=self._tmp)
        for parts, srcs in self.diag:
            d = 0  # summed from 0, as sum() adds
            for first, rest in parts:
                d = d + _running_product(vals, first, rest)
            p = np.reshape(d, self._dshape)
            for i in srcs:
                p = np.multiply(p, vals[i], out=self._tmp)
            out += p
        return out


def _running_product(vals: list, first: int, rest: tuple):
    """vals[first] times each of vals[rest] in turn, left to right."""
    p = vals[first]
    for i in rest:
        p = p * vals[i]
    return p


@functools.lru_cache(maxsize=None)
def _mirror_index(shape: tuple, ax: int) -> np.ndarray:
    """Flat indices into a half spectrum of this shape of the rows _add_swapped mirrors.

    Those rows a read F(-b, -m..., M - a), F's Hermitian mirror, from column
    min(M - H, H - 1) down to 1 (the slice clips its start).  xi -> -xi on the
    full axes is a flip and a roll by one; applied to F's own flat indices,
    they give where each value of the mirrored rows sits in F.
    """
    M, H = shape[0], shape[-1]
    full = tuple(range(ax))
    flat = np.arange(math.prod(shape)).reshape(shape)
    mirror = np.roll(np.flip(flat[..., M - H:0:-1], full), 1, full)
    return np.ascontiguousarray(np.swapaxes(mirror[:H], 0, ax))


def _add_swapped(acc: np.ndarray, F: np.ndarray, ax: int) -> None:
    """acc += the spectrum of f with axes 0 and ax swapped, given F = rfftn(f)[..., :H].

    f's spectrum is zero from column H on.  A swap that leaves the last axis
    alone swaps the spectrum's axes.  The swap with the last axis reads F
    where the new first-axis mode a is below H; for a >= max(H, M - H + 1)
    the conjugate of F's Hermitian mirror (a real field has F(xi) =
    conj F(-xi)), gathered through _mirror_index; rows in between would
    read zero columns, and receive nothing.
    """
    if ax < F.ndim - 1:
        acc += np.swapaxes(F, 0, ax)
        return
    H = F.shape[-1]
    acc[:H] += np.swapaxes(F[:H], 0, ax)
    mirror = F.take(_mirror_index(F.shape, ax))
    acc[len(acc) - len(mirror):] += np.conjugate(mirror, out=mirror)


# The largest M whose last-axis transforms are DFT matrix products (pocketfft
# above it, where the matrices, growing as M^2, read slower).  np.matmul runs
# them one (M, M) @ (M, 2H) slice at a time: at most 64 * 64 * 66
# multiply-adds, a quarter of the ~2^20 at which OpenBLAS 0.3.31 started its
# threads on a 2-core x86-64 machine (test_hierarchy_solve_keeps_to_one_cpu).
_DFT_MAX_M = 64


def _dft_matrices(M: int, H: int) -> tuple:
    """(W, V): x @ W is rfft(x)[:H] as interleaved (re, im), and Z @ V is irfft(Z, n=M).

    Z is such a real view of a spectrum zero from column H on.  The
    imaginary parts at DC and (even M) Nyquist get zero columns of W and rows
    of V, as rfft makes them and irfft ignores them; V weighs those columns'
    real parts 1/M and the others 2/M.
    """
    k = np.arange(H)
    edge = (k == 0) | (2 * k == M)
    turn = 2.0 * np.pi * (np.outer(np.arange(M), k) % M) / M
    W = np.stack([np.cos(turn), np.where(edge, 0.0, -np.sin(turn))], axis=-1).reshape(M, 2 * H)
    return W, (W * np.repeat(np.where(edge, 1.0, 2.0) / M, 2)).T.copy()


class _SpectralOps:
    """Exponential-Euler stepper on (T^1)^arity for a symmetric unknown.

    Every entry carries u_hat, columns 0..H-1 of rfftn(u)'s last axis,
    between steps.  force folds the phi_1 weight, the minus sign of the
    divergence, the 2/3-rule dealiasing and d/dx_1 into one multiplier that
    zeroes every mode with a coordinate above M//3, and heat only scales, so
    a column above M//3 that starts at zero stays exactly zero: pde._march
    picks H = 1 + max(M//3, the highest column an initial spectrum of the
    arity holds nonzero), and the columns left out are zeros.  step() takes
    flux_1 alone: u and every field its flux is built from are symmetric in
    their coordinates, so flux_k's spectrum is flux_1's with axes 0 and k-1
    swapped (_add_swapped).  The update is

        u_hat' = heat u_hat + sum_k P_1k (force rfftn(flux_1)),  u' = irfftn(u_hat'),

    where both multipliers are invariant under coordinate permutations.
    The transforms run one axis at a time, the last axis first forward and
    last inverse.  Up to M = _DFT_MAX_M the last-axis pass is a real product
    with the DFT matrices of _dft_matrices, written straight into (or read
    from) the real view of the complex work spectrum; above it, np.fft.rfft
    into a full-width buffer, whose kept columns are copied out, and irfft
    (which pads the short axis with the zeros it stands for).  The
    other axes are np.fft's complex passes, the first inverse one reading
    u_hat out of place.  The new field can go into a buffer the caller
    reuses.  test_pde.py checks the step against one that transforms the
    swapped fluxes (fourier_swap_step.py) and against the full half
    spectrum (full_width_step.py): to roundoff with the matrices, bit for
    bit with pocketfft.
    """

    def __init__(self, M: int, arity: int, dt: float, H: int):
        freqs = np.ix_(*[np.fft.fftfreq(M, d=1.0 / M)] * arity)  # integer mode numbers per axis
        lam = sum(4.0 * np.pi ** 2 * f ** 2 for f in freqs)[..., :H]
        keep = functools.reduce(np.logical_and, [np.abs(f) <= M // 3 for f in freqs])  # 2/3 rule
        self.M = M
        self.heat = np.exp(-lam * dt)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = -np.expm1(-lam * dt) / lam
        self.force = (np.where(keep[..., :H], -np.where(lam == 0.0, dt, w), 0.0)
                      * (2j * np.pi * freqs[0])[..., :H])
        self._work = np.empty(lam.shape, dtype=complex)
        self._dft = _dft_matrices(M, H) if M <= _DFT_MAX_M else None
        self._rfft = None if self._dft else np.empty(lam.shape[:-1] + (M // 2 + 1,), dtype=complex)

    def step(self, u_hat: np.ndarray, flux1: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """One step of du/dt = Lap u - sum_k d/dx_k flux_k with flux_k = flux_1 o (x_1 <-> x_k).

        u_hat is advanced in place; the new field is returned (written into
        out when given).
        """
        F, dft = self._work, self._dft
        if dft is None:
            np.copyto(F, np.fft.rfft(flux1, axis=-1, out=self._rfft)[..., :F.shape[-1]])
        else:
            np.matmul(flux1, dft[0], out=F.view(float))
        for ax in range(F.ndim - 2, -1, -1):
            np.fft.fft(F, axis=ax, out=F)
        F *= self.force
        u_hat *= self.heat
        u_hat += F
        for ax in range(1, F.ndim):
            _add_swapped(u_hat, F, ax)
        spec = u_hat
        for ax in range(F.ndim - 1):
            spec = np.fft.ifft(spec, axis=ax, out=F)
        if dft is None:
            return np.fft.irfft(spec, n=self.M, axis=-1, out=out)
        return np.matmul(spec.view(float), dft[1], out=out)
