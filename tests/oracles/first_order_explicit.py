"""Written-out first-order correction equations: a cross-check of the generic hierarchy.

The package solves every hierarchy entry g^i_j from a compiled term table
evaluated through one interaction operator.  This oracle writes the two
first-order equations out by hand instead, the pair correlation g^1_2 and
the single-coordinate correction g^1_1, with every H and S term spelled as
an explicit matrix product against the kernel matrix.  A sign, coefficient
or routing error in the term table therefore shows up as a disagreement
between the two solves (test_generic_hierarchy_matches_explicit_first_order
demands 1e-12); the pair solver alone also reaches the frozen stationary
amplitude of stationary_pair_amplitude.py.

It shares only the grid and the node table `_kernel_matrix` with the
package; term tables, routing, the interaction operator and the stepper are
not used.  Its own stepper, _AxisStepper, transforms every flux component on
its own, where the package's `_SpectralOps` derives flux_k from flux_1 by an
axis swap, so the comparison also checks that shortcut.  Both solvers take
the mean-field density at every time step, the (n_steps + 1, M) array that
solve_mckean_vlasov returns with store_every = 1, and return their
correction at every step in the same layout.
"""
import numpy as np

from pchaos.core import KernelSpec, TorusGrid
from pchaos.operators import _kernel_matrix
from pchaos.pde import TimeGrid


class _AxisStepper:
    """Exponential Euler on (T^1)^arity with one full transform per flux component."""

    def __init__(self, M: int, arity: int, dt: float):
        freqs = np.fft.fftfreq(M, d=1.0 / M)
        lam = np.zeros((M,) * arity)
        self.deriv = []
        self.mask = np.ones((M,) * arity, dtype=bool)
        keep = np.abs(freqs) <= M // 3  # 2/3-rule dealiasing
        for ax in range(arity):
            shape = [1] * arity
            shape[ax] = M
            kx = freqs.reshape(shape)
            lam = lam + 4.0 * np.pi ** 2 * kx ** 2
            self.deriv.append(2j * np.pi * kx)
            self.mask &= keep.reshape(shape)
        self.heat = np.exp(-lam * dt)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = -np.expm1(-lam * dt) / lam
        self.dtphi = np.where(lam == 0.0, dt, w)

    def step(self, u: np.ndarray, fluxes) -> np.ndarray:
        """One exponential-Euler step of du/dt = Lap u - sum_k d/dx_k flux_k."""
        rhs = np.zeros(u.shape, dtype=complex)
        for ax, flux in enumerate(fluxes):
            rhs -= self.deriv[ax] * np.fft.fftn(flux)
        rhs[~self.mask] = 0.0
        out = self.heat * np.fft.fftn(u) + self.dtphi * rhs
        return np.fft.ifftn(out).real


def _require_full_resolution(traj: np.ndarray, tg: TimeGrid) -> None:
    if tg.store_every != 1 or len(traj) != tg.n_steps + 1:
        raise ValueError("this solver needs the driving trajectory at every time step")


def solve_g1_pair(rho: np.ndarray, kernel: KernelSpec, tg: TimeGrid) -> np.ndarray:
    """First-order pair correlation: the written-out linear PDE with zero initial data.

    d/dt g - Lap g + d/dx[rho(x) int K(x,s)g(y,s)ds + g (K*rho)(x)]
                   + d/dy[rho(y) int K(y,s)g(x,s)ds + g (K*rho)(y)]
      = d/dx[(K*rho)(x) rho(x)rho(y)] + d/dy[(K*rho)(y) rho(x)rho(y)]
        - d/dx[K(x,y) rho rho] - d/dy[K(y,x) rho rho].
    """
    _require_full_resolution(rho, tg)
    grid = TorusGrid(rho.shape[1])
    ops = _AxisStepper(grid.M, 2, tg.dt)
    Kmat = _kernel_matrix(kernel, grid)
    h = grid.h

    g = np.zeros((grid.M,) * 2)
    out = np.empty((tg.n_stored, grid.M, grid.M))
    out[0] = g
    for n in range(tg.n_steps):
        r = rho[n]
        conv = h * (Kmat @ r)          # (K*rho)(x) on the nodes
        rr = np.outer(r, r)
        cx = h * np.einsum("xs,ys->xy", Kmat, g)   # int K(x,s) g(y,s) ds
        cy = h * np.einsum("ys,xs->xy", Kmat, g)   # int K(y,s) g(x,s) ds
        flux_x = r[:, None] * cx + g * conv[:, None] - conv[:, None] * rr + Kmat * rr
        flux_y = r[None, :] * cy + g * conv[None, :] - conv[None, :] * rr + Kmat.T * rr
        g = ops.step(g, [flux_x, flux_y])
        out[n + 1] = g
    return out


def solve_g1_single(
    rho: np.ndarray, g12: np.ndarray, kernel: KernelSpec, tg: TimeGrid
) -> np.ndarray:
    """First-order single-coordinate correction with zero initial data.

    d/dt g - Lap g + d/dx[rho(x) int K(x,s)g(s)ds + g(x)(K*rho)(x)]
      = d/dx[int K(x,s)(rho(s)rho(x) - g12(x,s))ds] - d/dx[K(x,x) rho(x)],

    the last term being the self-interaction carried by the diagonal of K.
    """
    _require_full_resolution(rho, tg)
    _require_full_resolution(g12, tg)
    grid = TorusGrid(rho.shape[1])
    ops = _AxisStepper(grid.M, 1, tg.dt)
    Kmat = _kernel_matrix(kernel, grid)
    Kdiag = np.diag(Kmat).copy()
    h = grid.h

    g = np.zeros(grid.M)
    out = np.empty((tg.n_stored, grid.M))
    out[0] = g
    for n in range(tg.n_steps):
        r = rho[n]
        conv = h * (Kmat @ r)
        cg = h * (Kmat @ g)
        pair_force = h * np.einsum("xs,xs->x", Kmat, g12[n])
        flux = r * cg + g * conv - conv * r + pair_force + Kdiag * r
        g = ops.step(g, [flux])
        out[n + 1] = g
    return out
