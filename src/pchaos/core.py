"""Torus grids, grid fields, and band-limited interaction kernels.

Everything lives on the periodic unit circle T^1 = [0,1).  A function of j
torus points is stored densely as a numpy array of shape (M,)*j, with the
axis of x_1 first (row-major, x_1 slowest); GridField.integrate is the
rectangle rule, exact for trigonometric polynomials below the Nyquist mode.
Interaction kernels have the form K(x, y) = b(x) + Khat(x - y) and are
band-limited trigonometric polynomials kept as cosine/sine coefficient
tables, so convolutions against grid fields (operators._Interaction) are exact
whenever the grid resolves the band.

check_density is the one test of the paper's standing hypothesis on every
density the package takes in (simulator, sampler, solvers, the weight of
metrics.weighted_l2_error): arity 1, strictly positive, mass 1 to MASS_TOL.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "TorusGrid",
    "GridField",
    "KernelSpec",
    "check_density",
    "fourier_field",
    "product_field",
]

MASS_TOL = 1e-12  # allowed |mass - 1| of every probability density the package accepts
MAX_KERNEL_MODE = 1 << 16  # largest mode a kernel file may name


class TorusGrid:
    """Uniform periodic grid with M points on T^1.

    Nodes are {m/M : 0 <= m < M}; the spacing h = 1/M is exact in floating
    point for power-of-two M (recommended).  Grids with the same M are equal.
    """

    def __init__(self, M: int):
        if M < 2:
            raise ValueError(f"grid needs at least 2 points, got M={M}")
        self.M = M

    def __eq__(self, other):
        return self.M == other.M if type(other) is TorusGrid else NotImplemented

    def __hash__(self):
        return hash(self.M)

    @property
    def h(self) -> float:
        return 1.0 / self.M

    @property
    def points(self) -> np.ndarray:
        return np.arange(self.M) / self.M

    def shape(self, arity: int) -> tuple:
        return (self.M,) * arity

    def cell_volume(self, arity: int = 1) -> float:
        return self.h ** arity


class GridField:
    """Real-valued function samples on (T^1)^arity; values has shape grid.shape(arity)."""

    def __init__(self, grid: TorusGrid, arity: int, values):
        v = np.asarray(values, dtype=float)
        want = grid.shape(arity)
        if v.shape != want:
            raise ValueError(f"field values have shape {v.shape}, expected {want} "
                             f"for arity {arity} on M={grid.M}")
        self.grid = grid
        self.arity = arity
        self.values = v

    def integrate(self) -> float:
        """Rectangle-rule integral; exact for trigonometric polynomials below Nyquist."""
        return float(self.values.sum() * self.grid.cell_volume(self.arity))


def check_density(f: GridField, name: str) -> None:
    """Raise ValueError unless f is an arity-1, strictly positive field of mass 1 to MASS_TOL.

    name says which input f is in the message.  A NaN fails the positivity test.
    """
    if f.arity != 1:
        raise ValueError(f"{name} must be an arity-1 field, got arity {f.arity}")
    low = float(f.values.min())
    if not low > 0:
        raise ValueError(f"{name} must be strictly positive, but its minimum is {low!r}")
    mass = f.integrate()
    if not abs(mass - 1.0) <= MASS_TOL:
        raise ValueError(f"{name} must integrate to 1 to {MASS_TOL:g} as a probability "
                         f"density, but its mass is {mass!r}")


def step_count(T: float, dt: float) -> int:
    """Number of steps of size dt in the horizon T, which must be a multiple of dt.

    A T or dt that is not finite, a negative T and a dt that is not positive
    are each refused by key and value.
    """
    # written so that NaN fails every check
    if not 0 < dt < math.inf:
        raise ValueError(f"dt = {dt!r}: need a finite positive step")
    if not 0 <= T < math.inf:
        raise ValueError(f"T = {T!r}: need a finite positive horizon")
    q = T / dt
    if math.isfinite(q) and abs(T - round(q) * dt) <= 1e-12 * max(1, round(q)):
        return round(q)
    raise ValueError(f"T = {T!r} must be an integer multiple of dt = {dt!r}")


def _series(coeff_cos: np.ndarray, coeff_sin: np.ndarray, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for m, (a, b) in enumerate(zip(coeff_cos, coeff_sin)):
        if a != 0.0:
            out = out + a * np.cos(2.0 * np.pi * m * x)
        if b != 0.0:
            out = out + b * np.sin(2.0 * np.pi * m * x)
    return out


class KernelSpec:
    """Bounded interaction K(x, y) = b(x) + Khat(x - y) on the torus.

    b and Khat are trigonometric polynomials; arrays hold mode-m cosine/sine
    coefficients for m = 0..band.  sup_norm_bound is the cached L-infinity
    upper bound given by the sum of coefficient magnitudes.

    mode_table holds the rows (m, b_cos, b_sin, k_cos, k_sin) of every mode
    m >= 1 with a nonzero coefficient, in increasing m (the mode-0 constants
    are b_cos[0] and k_cos[0]); every per-particle mode sum walks it.
    """

    def __init__(self, b_cos, b_sin, k_cos, k_sin):
        for name, table in (("b_cos", b_cos), ("b_sin", b_sin), ("k_cos", k_cos), ("k_sin", k_sin)):
            arr = np.atleast_1d(np.asarray(table, dtype=float))
            if arr.ndim != 1:
                raise ValueError(f"{name} must be a 1-d coefficient table")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite coefficients")
            setattr(self, name, arr)
        if len(self.b_cos) != len(self.b_sin) or len(self.k_cos) != len(self.k_sin):
            raise ValueError("cos/sin coefficient tables must have equal length")
        if self.b_sin[0] != 0.0 or self.k_sin[0] != 0.0:
            raise ValueError("mode-0 sine coefficient must be 0")
        width = max(len(self.b_cos), len(self.k_cos))
        coeffs = np.stack([np.pad(a, (0, width - len(a)))
                           for a in (self.b_cos, self.b_sin, self.k_cos, self.k_sin)], axis=1)
        self.mode_table = tuple((m, *map(float, coeffs[m]))
                                for m in range(1, width) if coeffs[m].any())

    @property
    def band(self) -> int:
        """Largest mode index carried by either coefficient table."""
        return max(len(self.b_cos), len(self.k_cos)) - 1

    @property
    def sup_norm_bound(self) -> float:
        return float(
            np.abs(self.b_cos).sum()
            + np.abs(self.b_sin).sum()
            + np.abs(self.k_cos).sum()
            + np.abs(self.k_sin).sum()
        )

    def b_values(self, x) -> np.ndarray:
        return _series(self.b_cos, self.b_sin, x)

    def khat_values(self, z) -> np.ndarray:
        return _series(self.k_cos, self.k_sin, z)

    def eval(self, x, y) -> np.ndarray:
        z = np.mod(np.asarray(x, dtype=float) - np.asarray(y, dtype=float), 1.0)
        return self.b_values(x) + self.khat_values(z)

    def _check_band(self, M: int) -> None:
        if 2 * self.band >= M:
            raise ValueError(
                f"kernel band {self.band} exceeds the Nyquist limit of an M={M} grid"
            )

    @classmethod
    def from_tables(cls, b: dict | None = None, khat: dict | None = None) -> "KernelSpec":
        """Build from {mode: (cos, sin)} dicts for the two parts."""

        def expand(table):
            if not table:
                return np.zeros(1), np.zeros(1)
            top = max(table)
            cos_t = np.zeros(top + 1)
            sin_t = np.zeros(top + 1)
            for m, (a, s) in table.items():
                cos_t[m] = a
                sin_t[m] = s
            return cos_t, sin_t

        b_cos, b_sin = expand(b)
        k_cos, k_sin = expand(khat)
        return cls(b_cos, b_sin, k_cos, k_sin)

    @classmethod
    def from_text(cls, text: str) -> "KernelSpec":
        """Parse the kernel file format: lines `b|khat <mode> <cos> <sin>`.

        The tables are dense up to the largest mode, so a mode above
        MAX_KERNEL_MODE = 2^16 is rejected, naming its line.
        """
        tables: dict[str, dict[int, tuple]] = {"b": {}, "khat": {}}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"kernel line {lineno}: expected 4 fields, got {len(parts)}")
            kind, mode_s, cos_s, sin_s = parts
            if kind not in tables:
                raise ValueError(f"kernel line {lineno}: unknown part {kind!r} (want b or khat)")
            try:
                mode = int(mode_s)
                cos_c = float(cos_s)
                sin_c = float(sin_s)
            except ValueError as exc:
                raise ValueError(f"kernel line {lineno}: {exc}") from None
            if mode < 0:
                raise ValueError(f"kernel line {lineno}: negative mode {mode}")
            if mode > MAX_KERNEL_MODE:
                raise ValueError(f"kernel line {lineno}: mode {mode} exceeds the largest "
                                 f"supported mode {MAX_KERNEL_MODE}")
            if not (math.isfinite(cos_c) and math.isfinite(sin_c)):
                raise ValueError(f"kernel line {lineno}: non-finite coefficient")
            if mode == 0 and sin_c != 0.0:
                raise ValueError(f"kernel line {lineno}: mode 0 sin coefficient must be 0")
            if mode in tables[kind]:
                raise ValueError(f"kernel line {lineno}: duplicate {kind} mode {mode}")
            tables[kind][mode] = (cos_c, sin_c)
        return cls.from_tables(tables["b"], tables["khat"])

    @classmethod
    def from_file(cls, path) -> "KernelSpec":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())

    def to_text(self) -> str:
        lines = []
        for kind, cos_t, sin_t in (("b", self.b_cos, self.b_sin), ("khat", self.k_cos, self.k_sin)):
            for m in range(len(cos_t)):
                if cos_t[m] != 0.0 or sin_t[m] != 0.0:
                    lines.append(f"{kind} {m} {float(cos_t[m])!r} {float(sin_t[m])!r}")
        return "\n".join(lines) + "\n"


def fourier_field(grid: TorusGrid, cos_coeffs, sin_coeffs=None) -> GridField:
    """Arity-1 field sum_m a_m cos(2 pi m x) + s_m sin(2 pi m x).

    sin_coeffs None or empty means no sine terms; otherwise it lists one
    coefficient per cosine coefficient.
    """
    cos_coeffs = np.atleast_1d(np.asarray(cos_coeffs, dtype=float))
    if sin_coeffs is None or not np.size(sin_coeffs):
        sin_coeffs = np.zeros_like(cos_coeffs)
    sin_coeffs = np.atleast_1d(np.asarray(sin_coeffs, dtype=float))
    if len(sin_coeffs) != len(cos_coeffs):
        raise ValueError("cos/sin coefficient lists must have equal length")
    if 2 * (len(cos_coeffs) - 1) >= grid.M:
        raise ValueError("coefficient band exceeds the grid Nyquist limit")
    return GridField(grid, 1, _series(cos_coeffs, sin_coeffs, grid.points))


def product_field(rho: GridField, arity: int) -> GridField:
    """Tensor power rho^{⊗arity} as an arity-j field on the same grid."""
    if rho.arity != 1:
        raise ValueError("product_field expects an arity-1 factor")
    vals = rho.values
    out = vals
    for _ in range(arity - 1):
        out = np.multiply.outer(out, vals)
    return GridField(rho.grid, arity, out)

