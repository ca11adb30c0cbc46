"""Euler-Maruyama simulation of the interacting particle system on the torus.

Each of N particles follows

    dX_j = (1/N) sum_{k=1..N} K(X_j, X_k) dt + sqrt(2) dW_j,

with the k = j self-interaction term included (the kernel need not vanish on
the diagonal), as in the correction hierarchy and the BBGKY reference.

One stepper, _replica_steps, simulates the system; run_ensemble and the rate
experiment's worker both iterate it.  It fixes the stream layout, which is
the reproducibility contract: replica r owns the Philox stream seeded with
SeedSequence((base_seed, r)) and draws from it in this order: one
sample_initial block of N positions, then one standard_normal draw of N
values per time step (the same bits as an (N, 1) draw).  The initial law
is the piecewise-constant one of _cell_cdf, from which the rate
experiment's companion chain (experiments._chain_moments) starts too.  A
replica's trajectory depends on its own stream alone, so all replicas step
together as one replica-major (R, N) block, and any range of replicas gives
each replica the bits it has when simulated alone.  Public arrays keep a trailing
coordinate axis of length 1: positions are (N, 1) per system and snapshots
(R, n_times, N, 1).

The pairwise drift sum costs O(N^2); for the translation-invariant kernel
part a mode-summation fast path costs O(N * modes) and agrees with the direct
sum to roundoff, since the kernels are trigonometric polynomials.  The
stepper always takes the fast path, which walks the kernel's mode table once
over the whole block: per mode it takes cos(2 pi m x) and sin(2 pi m x) of
every particle from _cos_sin, folds b's coefficients and each replica's
moments into two coefficients a, b, and adds cos * a + sin * b to one drift
row (see _mode_terms).  _cos_sin reduces m x by whole and quarter turns
exactly (Cody & Waite), takes sin from libm only on [-pi/4, pi/4], where
libm is about twice as fast as on [0, 2 pi) and the rounding of 2 pi m x
never enters, and takes cos from sin as sqrt(1 - sin^2), which cannot cancel
there.  The stepper's work arrays are allocated once per simulation, not per
step.  The direct path, kept as the oracle, loops over replicas so its
memory stays O(N^2).
"""

from __future__ import annotations

import struct
from typing import NamedTuple

import numpy as np

from .core import GridField, KernelSpec, check_density, step_count

__all__ = [
    "SimConfig",
    "SnapshotSet",
    "sample_initial",
    "pair_drift",
    "mode_sum_drift",
    "em_step",
    "run_ensemble",
    "extract_marginal_samples",
]

_RAW_MAGIC = b"PCEN"
_RAW_VERSION = 1
_RAW_HEADER = struct.Struct("<4sIIIII8x")  # magic, version, N, d (always 1), replicas, times
_NOISE_BLOCK_BYTES = 1 << 20  # noise _replica_steps draws ahead, all replicas together


class SimConfig:
    """Ensemble description: system size, time stepping, kernel, initial law."""

    def __init__(self, N: int, dt: float, T: float, n_replicas: int, base_seed: int,
                 kernel: KernelSpec, initial_density: GridField):
        if N < 1:
            raise ValueError("need at least one particle")
        if dt <= 0:
            raise ValueError("dt must be positive")
        if T < 0:
            raise ValueError("horizon must be nonnegative")
        if n_replicas < 1:
            raise ValueError("need at least one replica")
        check_density(initial_density, "initial density")
        step_count(T, dt)
        self.N = N
        self.dt = dt
        self.T = T
        self.n_replicas = n_replicas
        self.base_seed = base_seed
        self.kernel = kernel
        self.initial_density = initial_density

    @property
    def n_steps(self) -> int:
        return step_count(self.T, self.dt)


def _replica_rng(base_seed: int, replica: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((base_seed, replica))))


def _cell_cdf(f: GridField) -> np.ndarray:
    """The sampler's law: its cumulative mass at the M + 1 cell edges of f's grid.

    The law is piecewise constant.  Cell [k h, (k + 1) h) carries the
    rectangle-rule mass h f(k h) of grid point k, the quadrature used
    everywhere else; the last edge is set to exactly 1, so the last cell
    takes up the rounding of the sum.  f must pass core.check_density.
    """
    check_density(f, "initial density")
    cum = np.concatenate([[0.0], np.cumsum(f.values * f.grid.h)])
    cum[-1] = 1.0
    return cum


def _sampler_law(f: GridField):
    """The cell cumulative of f (_cell_cdf) and the cell edges it is taken at."""
    return _cell_cdf(f), np.arange(f.grid.M + 1) * f.grid.h


def sample_initial(f: GridField, N: int, rng: np.random.Generator) -> np.ndarray:
    """N i.i.d. samples from the piecewise-constant law of f (_cell_cdf); shape (N, 1).

    One uniform block of N values is mapped through the piecewise-linear
    inverse of the cell cumulative.
    """
    return np.interp(rng.random(N), *_sampler_law(f)).reshape(N, 1)


def pair_drift(
    kernel: KernelSpec,
    positions: np.ndarray,
    self_interaction: bool = True,
    method: str = "fast",
) -> np.ndarray:
    """Mean interaction force (1/N) sum_k K(x_j, x_k) for every particle j.

    positions has shape (..., N, 1): one system of N particles, or a block of
    independent replicas over the leading axes, each interacting only within
    itself.  The direct method evaluates all N^2 kernel values, one replica at
    a time; the fast method takes each replica's empirical trigonometric
    moments and evaluates the convolution by mode summation.  Both agree to
    roundoff for these band-limited kernels, and each replica's result is
    bitwise the same whether it is passed alone or inside a block.  With
    self_interaction false the k = j term is left out of the sum.
    """
    x = np.asarray(positions, dtype=float)
    if x.ndim < 2 or x.shape[-1] != 1:
        raise ValueError("positions must have shape (..., N, 1)")
    if method not in ("fast", "direct"):
        raise ValueError("method must be fast or direct")
    xc = x[..., 0]
    if method == "direct":
        out = np.empty_like(xc)
        for r in np.ndindex(xc.shape[:-1]):
            out[r] = kernel.khat_values(np.subtract.outer(xc[r], xc[r])).mean(axis=1)
        out = kernel.b_values(xc) + out
    else:
        out = mode_sum_drift(kernel, xc)
    if not self_interaction:
        out -= (kernel.b_values(xc) + kernel.khat_values(0.0)) / xc.shape[-1]
    return out[..., None]


# scratch rows, each of the block's shape: _mode_terms needs cos, sin and
# the four of _cos_sin, the first of which doubles as its product buffer;
# mode_sum_drift adds the drift row
_MODE_WORK = 6
_DRIFT_WORK = 1 + _MODE_WORK


def _cos_sin(m: int, x: np.ndarray, cos: np.ndarray, sin: np.ndarray, work: np.ndarray) -> None:
    """cos(2 pi m x) and sin(2 pi m x) into cos and sin, for a whole mode m >= 1.

    The argument is reduced exactly by quarter turns (Cody & Waite): with
    f = m x - rint(m x) and u = 4 f, the quarter turn k = rint(u) lies in
    {-2, ..., 2} and r = u - k in [-1/2, 1/2]; every step is exact when m is
    a power of two (x - rint(x) is taken first, so any finite x works), and
    otherwise only m (x - rint(x)) rounds, by at most m 2^-53 turns.  s =
    sin(phi) comes from libm at phi = (pi/2) r in [-pi/4, pi/4], and
    c = cos(phi) = sqrt(1 - s^2): there s^2 <= 1/2 and c >= 1/sqrt(2), so
    nothing cancels.  Both are rotated by k quarter turns through the table
    A = cos(k pi/2), B = -sin(k pi/2),

        k    -2  -1   0   1   2
        A    -1   0   1   0  -1      A = 1 - |k|
        B     0   1   0  -1   0      B = k (|k| - 2)

    as cos = A c + B s, sin = A s - B c, which is exact.  So quarter turns
    x = i / (4m) (r = 0, so s = 0 and c = 1) give exactly 0 and +-1, and for
    m a power of two both values lie within 2 ulp of the true ones.  work is
    (4, *x.shape) scratch.
    """
    u, k, c, s = work
    np.rint(x, out=u)
    np.subtract(x, u, out=u)
    if m != 1:
        u *= m
        u -= np.rint(u, out=k)
    u *= 4.0
    np.rint(u, out=k)
    u -= k
    u *= np.pi / 2
    np.sin(u, out=s)
    np.square(s, out=c)
    np.subtract(1.0, c, out=c)
    np.sqrt(c, out=c)
    np.abs(k, out=cos)
    np.subtract(1.0, cos, out=u)
    cos -= 2.0
    k *= cos
    np.multiply(c, u, out=cos)
    cos += np.multiply(s, k, out=sin)
    np.multiply(s, u, out=sin)
    sin -= np.multiply(c, k, out=k)


def _mode_terms(kernel: KernelSpec, xc: np.ndarray, C, S, drift: np.ndarray, work: np.ndarray):
    """Walk the kernel's mode table over the block xc, summing b + khat * law into drift.

    drift is first filled with the mode-0 term b_c[0] + k_c[0] C[0].  For
    mode m, with cos = cos(2 pi m xc) and sin = sin(2 pi m xc) from
    _cos_sin, the law's moments fold with b's coefficients into

        a = b_c + k_c C[m] - k_s S[m],    b = b_s + k_c S[m] + k_s C[m],

    and the mode adds cos a + sin b to drift.  The moments are C, S when
    given (a, b are then scalars) and each replica's empirical moments along
    the last axis when C is None (C[0] = 1; a, b have shape (..., 1)); they
    are read only where khat has the mode, and a mode khat lacks adds only
    its nonzero b terms.  Yields ((m, b_c, b_s, k_c, k_s), cos,
    sin, a, b) after adding.  work is (_MODE_WORK, *xc.shape) scratch: cos
    and sin are its first two rows, and rows from the third on are free
    until the next mode.
    """
    cm, sm, arg = work[0], work[1], work[2]
    N = xc.shape[-1]
    drift.fill(kernel.b_cos[0] + kernel.k_cos[0] * (1.0 if C is None else C[0]))
    for row in kernel.mode_table:
        m, bc, bs, kc, ks = row
        _cos_sin(m, xc, cm, sm, work[2:])
        a, b = bc, bs
        has_k = kc != 0.0 or ks != 0.0
        if has_k:
            if C is None:  # np.add.reduce / N is ndarray.mean bit for bit, at less call overhead
                Cm, Sm = np.add.reduce(work[:2], axis=-1, keepdims=True) / N
            else:
                Cm, Sm = C[m], S[m]
            a = bc + (kc * Cm - ks * Sm)
            b = bs + (kc * Sm + ks * Cm)
        if has_k or bc != 0.0:
            drift += np.multiply(cm, a, out=arg)
        if has_k or bs != 0.0:
            drift += np.multiply(sm, b, out=arg)
        yield row, cm, sm, a, b


def mode_sum_drift(kernel: KernelSpec, xc: np.ndarray, C=None, S=None, work=None) -> np.ndarray:
    """b(x) + (khat * law)(x) at every point of a (..., N) block xc.

    The law is given by its moments C[m], S[m] of cos(2 pi m .) and
    sin(2 pi m .): the moments of a density give the mean-field drift.  When
    they are omitted, the law is each replica's empirical measure along the
    last axis, and the result is the pairwise mean force (1/N) sum_k
    K(x_j, x_k).  Each mode costs one sin, one square root and
    cos * a + sin * b, with b's coefficients and the moments folded into
    per-replica (or given-law) coefficients a, b, summed into one drift row
    (see _mode_terms).  With work, a (_DRIFT_WORK, *xc.shape) scratch array
    reused from call to call, the result is its first row; without, it is a
    new array.
    """
    if work is None:
        drift, modes = np.empty(xc.shape), np.empty((_MODE_WORK, *xc.shape))
    else:
        drift, modes = work[0], work[1:]
    for _ in _mode_terms(kernel, xc, C, S, drift, modes):
        pass
    return drift


def em_step(x: np.ndarray, drift: np.ndarray, dt: float, noise: np.ndarray,
            out=None, work=None) -> np.ndarray:
    """One Euler-Maruyama step with periodic wrap: x + dt*drift + sqrt(2 dt)*noise.

    The sum z is wrapped as z - floor(z), which equals np.mod(z, 1.0) bit for
    bit except where a tiny negative z rounds up to exactly 1.0; that value is
    mapped to 0.0 (the representable point nearest to it on the torus), so
    every output lies in [0, 1).  x, drift and noise share one shape.  The
    result goes to out when given (x itself steps in place); no other
    argument is modified.  work, when given, is a scratch array of x's shape.
    """
    tmp = np.multiply(dt, drift, out=work)
    z = np.add(x, tmp, out=out)
    z += np.multiply(noise, np.sqrt(2.0 * dt), out=tmp)
    z -= np.floor(z, out=tmp)
    z -= np.floor(z, out=tmp)  # moves only an exact 1.0 (to 0.0); values in [0, 1) keep their bits
    return z


class SnapshotSet(NamedTuple):
    """Positions recorded at the requested output times, replica-major."""

    times: np.ndarray      # (n_times,)
    positions: np.ndarray  # (n_replicas, n_times, N, 1)

    def at_time(self, idx: int) -> np.ndarray:
        return self.positions[:, idx]

    def to_raw(self, path) -> None:
        R, nt, N, d = self.positions.shape
        if d != 1:
            raise ValueError(f"positions must have one coordinate, got {d}")
        with open(path, "wb") as fh:
            fh.write(_RAW_HEADER.pack(_RAW_MAGIC, _RAW_VERSION, N, d, R, nt))
            fh.write(np.ascontiguousarray(self.times, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(self.positions, dtype="<f8").tobytes())

    @classmethod
    def from_raw(cls, path) -> "SnapshotSet":
        """Read a file written by to_raw (d = 1); its size must match its header exactly."""
        with open(path, "rb") as fh:
            data = fh.read()
        if len(data) < _RAW_HEADER.size:
            raise ValueError(f"snapshot file {path} has {len(data)} bytes, too short for a header")
        magic, version, N, d, R, nt = _RAW_HEADER.unpack_from(data)
        if magic != _RAW_MAGIC or version != _RAW_VERSION:
            raise ValueError("unrecognized snapshot file")
        if d != 1:
            raise ValueError(f"snapshot file {path} has d = {d}; positions must have one coordinate")
        if not min(N, R, nt):
            raise ValueError(f"snapshot file {path} holds no positions: N = {N}, replicas = {R}, "
                             f"times = {nt}")
        want = _RAW_HEADER.size + 8 * nt * (1 + R * N * d)
        if len(data) != want:
            raise ValueError(f"snapshot file {path} has {len(data)} bytes, its header describes {want}")
        body = np.frombuffer(data, dtype="<f8", offset=_RAW_HEADER.size)
        return cls(body[:nt].copy(), body[nt:].reshape(R, nt, N, d).copy())


def _replica_steps(cfg: SimConfig, replicas: range, n_steps: int):
    """Yield (x, noise) for steps 0..n_steps of the given replicas.

    x is the (R, N) block of positions and noise the standard normal block
    that moved it there (None at step 0); both are overwritten by a later
    step.  Draws follow the stream layout in the module docstring.  The
    noise of as many steps as fit in _NOISE_BLOCK_BYTES (at least one) is
    drawn ahead with one call per replica, which yields the same bits as one
    draw of N values per step.
    """
    rngs = [_replica_rng(cfg.base_seed, r) for r in replicas]
    law = _sampler_law(cfg.initial_density)  # sample_initial's, built once for all replicas
    x = np.empty((len(rngs), cfg.N))
    for i, rng in enumerate(rngs):
        x[i] = np.interp(rng.random(cfg.N), *law)
    yield x, None
    steps_per_block = max(1, min(n_steps, _NOISE_BLOCK_BYTES // max(1, x.nbytes)))
    block = np.empty((len(rngs), steps_per_block, cfg.N))
    work = np.empty((_DRIFT_WORK, *x.shape))
    for n0 in range(0, n_steps, steps_per_block):
        nb = min(steps_per_block, n_steps - n0)
        for i, rng in enumerate(rngs):
            rng.standard_normal(out=block[i, :nb])
        for b in range(nb):
            noise = block[:, b]
            drift = mode_sum_drift(cfg.kernel, x, work=work)
            em_step(x, drift, cfg.dt, noise, out=x, work=work[1])
            yield x, noise


def run_ensemble(cfg: SimConfig, output_times) -> SnapshotSet:
    """Simulate all replicas and record positions at the requested times.

    Output times must be sorted, within the horizon [0, T], and multiples of
    dt (core.step_count).  The result is a deterministic function of the
    configuration.
    """
    output_times = np.asarray(output_times, dtype=float)
    if output_times.ndim != 1 or len(output_times) == 0:
        raise ValueError("need a nonempty list of output times")
    if np.any(np.diff(output_times) < 0):
        raise ValueError("output times must be sorted")
    if output_times[0] < 0 or output_times[-1] > cfg.T + 1e-12:
        raise ValueError("output times must lie within the horizon")
    try:
        steps = np.array([step_count(t, cfg.dt) for t in output_times])
    except ValueError:
        raise ValueError("output times must be multiples of dt") from None

    out = np.empty((cfg.n_replicas, len(output_times), cfg.N, 1))
    for n, (x, _) in enumerate(_replica_steps(cfg, range(cfg.n_replicas), steps[-1])):
        out[:, steps == n] = x[:, None, :, None]
    return SnapshotSet(output_times, out)


def extract_marginal_samples(
    positions: np.ndarray, j: int, disjoint_tuples: bool = False
):
    """j-particle tuples from a (n_replicas, N, d) position block.

    Returns (samples, replica_ids): samples has shape (n_tuples, j, d) and
    replica_ids records the replica each tuple came from, because tuples cut
    from the same replica are correlated and variance estimates must group
    them.  With disjoint_tuples, each replica contributes floor(N/j) tuples
    over disjoint particle blocks (exchangeability makes them identically
    distributed); otherwise just the first j particles.
    """
    pos = np.asarray(positions)
    if pos.ndim != 3:
        raise ValueError("positions must have shape (n_replicas, N, d)")
    R, N, d = pos.shape
    if not 1 <= j <= N:
        raise ValueError("need 1 <= j <= N")
    s = N // j if disjoint_tuples else 1
    samples = pos[:, : s * j, :].reshape(R, s, j, d).reshape(R * s, j, d).copy()
    replica_ids = np.repeat(np.arange(R), s)
    return samples, replica_ids
