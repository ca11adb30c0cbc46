"""The rate worker as two passes over one noise: the interacting system, then its companion.

The package steps the rate experiment's interacting system x and its
companion y as one (2, R, N) block (experiments._rate_worker).  This is the
worker as it was before: every step is taken twice, once for x with each
replica's empirical moments and once for y with the chain moments, each
pass with its own mode walk, zero fills and Euler-Maruyama step, and y's
Jacobian and leave-one-out forcing summed beside y's drift.  It keeps its
own mode walk and its own per-step stream draws (one standard normal draw
of N values per replica and step), so the fused worker can be checked
against it byte for byte.  Its trigonometry is particles._cos_sin, looked up
at call time as the package does.
"""
import numpy as np

from pchaos import particles
from pchaos.experiments import _PHI_PANEL, _pair_stats, _phi_deriv_values, _phi_values
from pchaos.particles import em_step, sample_initial

_MODE_ROWS = 6  # cos, sin and the four scratch rows of _cos_sin, the first doubling as a product row


def _mode_walk(kernel, xc, C, S, drift, work):
    """drift = b + khat * law over the (R, N) block xc, filled with the mode-0
    term and then added to per mode; the law is C, S, or each replica's
    empirical measure when C is None.  Yields ((m, b_c, b_s, k_c, k_s), cos,
    sin, a, b) after each mode."""
    cm, sm, arg = work[0], work[1], work[2]
    N = xc.shape[-1]
    drift.fill(kernel.b_cos[0] + kernel.k_cos[0] * (1.0 if C is None else C[0]))
    for row in kernel.mode_table:
        m, bc, bs, kc, ks = row
        particles._cos_sin(m, xc, cm, sm, work[2:])
        a, b = bc, bs
        has_k = kc != 0.0 or ks != 0.0
        if has_k:
            if C is None:
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


def _companion_terms(kernel, y, C, S, work):
    """y's drift, its Jacobian and the derivative companion's forcing, rows of work."""
    N = y.shape[-1]
    drift, jac, force = work[:3]
    modes = work[3:]
    tmp = modes[2]
    jac.fill(0.0)
    force.fill(0.0)
    self_terms = 0.0
    for (m, _, _, kc, ks), cy, sy, a, b in _mode_walk(kernel, y, C, S, drift, modes):
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


def rate_worker_two_pass(cfg, r0, r1, Cdt, Sdt, primary):
    """(diffs, plains, pairs, x) of experiments._rate_worker, by two passes per step."""
    rngs = [particles._replica_rng(cfg.base_seed, r) for r in range(r0, r1)]
    x = np.stack([sample_initial(cfg.initial_density, cfg.N, rng)[:, 0] for rng in rngs])
    y = x.copy()
    delta = np.zeros_like(y)
    x_work = np.empty((1 + _MODE_ROWS, *x.shape))
    y_work = np.empty((3 + _MODE_ROWS, *y.shape))
    for n in range(cfg.n_steps):
        noise = np.stack([rng.standard_normal(cfg.N) for rng in rngs])
        for _ in _mode_walk(cfg.kernel, x, None, None, x_work[0], x_work[1:]):
            pass
        em_step(x, x_work[0], cfg.dt, noise, out=x, work=x_work[1])
        dy, jac, force = _companion_terms(cfg.kernel, y, Cdt[n], Sdt[n], y_work)
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
