"""Particle sampling, pairwise drift, time stepping, and snapshot formats."""
import os
import signal
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pchaos import particles
from pchaos.core import KernelSpec, TorusGrid, fourier_field
from pchaos.metrics import weighted_l2_error
from pchaos.particles import (
    _RAW_HEADER,
    _RAW_MAGIC,
    _RAW_VERSION,
    SimConfig,
    SnapshotSet,
    _cos_sin,
    em_step,
    extract_marginal_samples,
    mode_sum_drift,
    pair_drift,
    run_ensemble,
    sample_initial,
)
from pchaos.pde import TimeGrid, solve_mckean_vlasov

from conftest import (REPO_ROOT, RICH_KERNEL, band_limited_kernels, force_shares, forks_shares,
                      fresh_python, record_forks)


# ---------------------------------------------------------------------------
# initial sampling


def test_uniform_sampler_consumes_one_uniform_block():
    # for the flat density the inverse-cumulative map is the identity, so the
    # samples are exactly the generator's next uniform block
    g = TorusGrid(32)
    f = fourier_field(g, [1.0])
    x = sample_initial(f, 100, np.random.default_rng(123))
    u = np.random.default_rng(123).random(100)
    assert x.shape == (100, 1)
    assert np.array_equal(x[:, 0], u)


def test_sampler_cell_frequencies_match_masses():
    g = TorusGrid(16)
    f = fourier_field(g, [1.0, 0.5], [0.0, 0.25])
    n = 200_000
    x = sample_initial(f, n, np.random.default_rng(7))[:, 0]
    counts = np.bincount((x * g.M).astype(int), minlength=g.M)
    masses = f.values * g.h
    # binomial 5-sigma band per cell
    sd = np.sqrt(n * masses * (1 - masses))
    assert np.all(np.abs(counts - n * masses) <= 5 * sd + 1.0)


def test_sampler_rejects_non_density():
    g = TorusGrid(16)
    with pytest.raises(ValueError, match="probability density"):
        sample_initial(fourier_field(g, [1.2]), 10, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# drift evaluation


def test_pair_drift_fast_equals_direct():
    rng = np.random.default_rng(11)
    x = rng.random((200, 1))
    fast = pair_drift(RICH_KERNEL, x, method="fast")
    direct = pair_drift(RICH_KERNEL, x, method="direct")
    assert np.max(np.abs(fast - direct)) < 1e-12


@settings(max_examples=200, deadline=None)
@given(kernel=band_limited_kernels(), N=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_mode_sum_drift_matches_direct_sum_for_any_kernel(kernel, N, seed):
    # empirical moments and given moments (tables as long as khat's, which
    # may be shorter than b's) both reproduce the O(N^2) pairwise sum
    x = np.random.default_rng(seed).random((2, N))
    direct = pair_drift(kernel, x[..., None], True, "direct")[..., 0]
    assert np.max(np.abs(mode_sum_drift(kernel, x) - direct)) < 1e-12
    modes = np.arange(len(kernel.k_cos))
    for r in range(2):
        C = np.cos(2 * np.pi * np.outer(modes, x[r])).mean(axis=1)
        S = np.sin(2 * np.pi * np.outer(modes, x[r])).mean(axis=1)
        assert np.max(np.abs(mode_sum_drift(kernel, x[r], C, S) - direct[r])) < 1e-12


def _turn_trig(m, x):
    x = np.asarray(x, dtype=float)
    c, s = np.empty_like(x), np.empty_like(x)
    _cos_sin(m, x, c, s, np.empty((4, *x.shape)))
    return c, s


def _assert_turn_trig_accurate(m, xs):
    # against cos(2 pi m x), sin(2 pi m x) of the exact double x at 40 digits:
    # within 2 ulp for m a power of two, within m 2^-50 absolute otherwise
    c, s = _turn_trig(m, xs)
    with mpmath.workdps(40):
        for x, got_c, got_s in zip(xs, c, s):
            for got, want in ((got_c, mpmath.cospi(2 * m * mpmath.mpf(x))),
                              (got_s, mpmath.sinpi(2 * m * mpmath.mpf(x)))):
                err = abs(mpmath.mpf(float(got)) - want)
                if m & (m - 1) == 0:
                    assert err <= 2 * np.spacing(abs(float(want))), (m, x, got, want)
                else:
                    assert err <= m * 2.0 ** -50, (m, x, got, want)


_turn_points = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.floats(-1.0, 0.0),
                         st.floats(-1e6, 1e6))


@settings(max_examples=150, deadline=None)
@given(m=st.integers(1, 16), xs=st.lists(_turn_points, min_size=1, max_size=8))
def test_cos_sin_matches_mpmath(m, xs):
    _assert_turn_trig_accurate(m, np.array(xs))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 12, 16])
def test_cos_sin_at_quarter_turns_and_their_neighbours(m):
    # x = i / (4m) is exactly a quarter turn: the values are exactly 0 and +-1
    # (fl(2 pi m x) is not, so the plain form gives cos(2 pi 0.25) = 6.1e-17);
    # the neighbouring doubles and far-off, negative and edge points stay
    # within the accuracy bound, and so do the eighth turns x = (2i+1) / (8m)
    # and their neighbours, where the reduced argument reaches +-pi/4 and the
    # cosine is sqrt(1 - s^2) at s^2 = 1/2
    i = np.arange(-8 * m, 8 * m + 1)
    quarter = np.concatenate([i / (4 * m), 1e6 + i / (4 * m), -1e6 + i / (4 * m)])
    c, s = _turn_trig(m, quarter)
    k = np.rint(quarter * 4 * m) % 4
    if m & (m - 1) == 0:  # i / (4m) is a double only when m is a power of two
        assert np.array_equal(c, np.select([k == 0, k == 2], [1.0, -1.0], 0.0))
        assert np.array_equal(s, np.select([k == 1, k == 3], [1.0, -1.0], 0.0))
    some = quarter[::m]
    edges = np.concatenate([some, np.nextafter(some, np.inf), np.nextafter(some, -np.inf),
                            [0.0, -0.0, np.nextafter(1.0, 0.0), 5e-324, 1e6, -1e6]])
    _assert_turn_trig_accurate(m, edges)
    j = np.arange(-4 * m, 4 * m)
    eighth = np.concatenate([(2 * j + 1) / (8 * m), 1e6 + (2 * j + 1) / (8 * m)])
    _assert_turn_trig_accurate(m, np.concatenate([eighth, np.nextafter(eighth, np.inf),
                                                  np.nextafter(eighth, -np.inf)]))


def test_drift_at_quadrant_edges():
    # positions on the quarter turns, one ulp to either side, 0 and the last
    # double below 1: the mode sum matches the direct sum to the usual
    # roundoff, and a step from there stays in [0, 1)
    quarters = np.arange(4) / 4
    x = np.unique(np.concatenate([quarters, np.nextafter(quarters, 1.0),
                                  np.nextafter(quarters[1:], 0.0), [np.nextafter(1.0, 0.0)]]))
    x = np.stack([x, x[::-1]])
    direct = pair_drift(RICH_KERNEL, x[..., None], True, "direct")[..., 0]
    assert np.max(np.abs(mode_sum_drift(RICH_KERNEL, x) - direct)) < 1e-12
    modes = np.arange(len(RICH_KERNEL.k_cos))
    for r in range(2):
        C = np.cos(2 * np.pi * np.outer(modes, x[r])).mean(axis=1)
        S = np.sin(2 * np.pi * np.outer(modes, x[r])).mean(axis=1)
        assert np.max(np.abs(mode_sum_drift(RICH_KERNEL, x[r], C, S) - direct[r])) < 1e-12
    for dt, noise in ((1e-3, 0.0), (1e-3, 1.0), (1e-3, -1.0), (1e-20, -1.0), (1e-20, 1.0)):
        got = em_step(x, mode_sum_drift(RICH_KERNEL, x), dt, np.full_like(x, noise))
        assert np.all((got >= 0.0) & (got < 1.0))


def test_pair_drift_two_particles_by_hand(default_kernel):
    x = np.array([[0.15], [0.70]])
    got = pair_drift(default_kernel, x, method="direct")
    for idx, other in ((0, 1), (1, 0)):
        b = 0.75 * np.cos(2 * np.pi * x[idx, 0])
        k_self = 0.25 * np.sin(0.0)
        k_other = 0.25 * np.sin(2 * np.pi * (x[idx, 0] - x[other, 0]))
        assert got[idx, 0] == pytest.approx(b + 0.5 * (k_self + k_other), rel=1e-13)


def test_self_interaction_flag_subtracts_self_term():
    rng = np.random.default_rng(2)
    x = rng.random((50, 1))
    with_self = pair_drift(RICH_KERNEL, x, self_interaction=True)
    without = pair_drift(RICH_KERNEL, x, self_interaction=False)
    want = (RICH_KERNEL.b_values(x[:, 0]) + RICH_KERNEL.khat_values(0.0)) / 50
    assert np.allclose(with_self - without, want[:, None], atol=1e-14)


def test_trig_moments_and_moment_drift():
    rng = np.random.default_rng(5)
    x = rng.random(64)
    modes = np.arange(len(RICH_KERNEL.k_cos))
    C = np.cos(2 * np.pi * np.outer(modes, x)).mean(axis=1)
    S = np.sin(2 * np.pi * np.outer(modes, x)).mean(axis=1)
    # with the empirical moments, the moment form is the pairwise mean force
    drift = mode_sum_drift(RICH_KERNEL, x, C, S)
    direct = RICH_KERNEL.b_values(x) + RICH_KERNEL.khat_values(x[:, None] - x[None, :]).mean(axis=1)
    assert np.max(np.abs(drift - direct)) < 1e-12


def test_em_step_formula_and_wrap():
    x = np.array([[0.95], [0.2]])
    drift = np.array([[1.0], [-0.5]])
    noise = np.array([[0.3], [-0.1]])
    dt = 0.01
    got = em_step(x, drift, dt, noise)
    want = np.mod(x + dt * drift + np.sqrt(2 * dt) * noise, 1.0)
    assert np.array_equal(got, want)
    assert np.all((got >= 0.0) & (got < 1.0))


def test_em_step_never_returns_one():
    # -1e-18 + 1 rounds to exactly 1.0; the wrap must land in [0, 1)
    x = np.array([[-1e-18]])
    got = em_step(x, np.zeros_like(x), 1e-3, np.zeros_like(x))
    assert got[0, 0] == 0.0
    assert x[0, 0] == -1e-18  # arguments are left untouched


_finite = st.floats(min_value=-1e15, max_value=1e15)


@settings(max_examples=300, deadline=None)
@given(x=_finite, drift=_finite, noise=_finite,
       dt=st.floats(min_value=1e-12, max_value=1.0))
def test_em_step_output_in_unit_interval(x, drift, noise, dt):
    got = em_step(np.array([[x]]), np.array([[drift]]), dt, np.array([[noise]]))
    assert 0.0 <= got[0, 0] < 1.0


# ---------------------------------------------------------------------------
# ensemble stepping and reproducibility


def _small_config(**kw):
    g = TorusGrid(32)
    base = dict(
        N=8, dt=1e-3, T=5e-3, n_replicas=3, base_seed=42,
        kernel=RICH_KERNEL, initial_density=fourier_field(g, [1.0, 0.5]),
    )
    base.update(kw)
    return SimConfig(**base)


def test_sim_config_validation():
    with pytest.raises(ValueError, match="particle"):
        _small_config(N=0)
    with pytest.raises(ValueError, match="dt"):
        _small_config(dt=-1e-3)
    with pytest.raises(ValueError, match="replica"):
        _small_config(n_replicas=0)
    with pytest.raises(ValueError, match="multiple of dt"):
        _small_config(T=2.5e-4)
    with pytest.raises(ValueError, match="strictly positive"):
        _small_config(initial_density=fourier_field(TorusGrid(32), [1.0, 1.0]))
    assert _small_config().n_steps == 5


def test_density_checks_share_one_mass_tolerance(default_kernel):
    # mass 1 + 5e-11 is outside MASS_TOL for the simulator, the sampler and
    # the solvers alike
    f = fourier_field(TorusGrid(32), [1.0 + 5e-11, 0.5])
    with pytest.raises(ValueError, match="integrate to 1"):
        _small_config(initial_density=f)
    with pytest.raises(ValueError, match="probability density"):
        sample_initial(f, 10, np.random.default_rng(0))
    with pytest.raises(ValueError, match="mass"):
        solve_mckean_vlasov(f, default_kernel, TimeGrid(1e-3, 10))
    with pytest.raises(ValueError, match="mass"):
        weighted_l2_error(f, f)


def test_every_density_reader_rejects_a_zero_cell(default_kernel):
    # 1 + cos(2 pi x) vanishes at x = 1/2, so no reader of a density takes it
    f = fourier_field(TorusGrid(32), [1.0, 1.0])
    assert f.values.min() == 0.0
    for reader in (lambda: _small_config(initial_density=f),
                   lambda: sample_initial(f, 10, np.random.default_rng(0)),
                   lambda: solve_mckean_vlasov(f, default_kernel, TimeGrid(1e-3, 10)),
                   lambda: weighted_l2_error(f, f)):
        with pytest.raises(ValueError, match="strictly positive"):
            reader()


def test_run_ensemble_deterministic_and_correct_shapes():
    cfg = _small_config()
    times = [0.0, 2e-3, 5e-3]
    snap1 = run_ensemble(cfg, times)
    snap2 = run_ensemble(cfg, times)
    assert snap1.positions.shape == (3, 3, 8, 1)
    assert np.array_equal(snap1.positions, snap2.positions)
    assert snap1.at_time(1).shape == (3, 8, 1)
    # a different seed decorrelates every coordinate
    snap3 = run_ensemble(_small_config(base_seed=43), times)
    assert np.max(np.abs(snap3.positions - snap1.positions)) > 1e-3


def test_run_ensemble_pure_diffusion_replay(default_kernel):
    # replaying the documented per-replica streams (Philox seeded with
    # (base_seed, replica), one initial block then one normal block per step)
    # one replica at a time must reproduce the (R, N, d) block stepper bit for
    # bit: with a zero kernel (pure Brownian motion) and with the stock kernel
    # through single-replica pair_drift.  At N = 20000 the stepper's noise
    # blocks hold two steps, so the replay crosses block boundaries.  A
    # replay through the direct O(N^2) oracle agrees to roundoff
    zero = KernelSpec.from_tables()
    cases = [(zero, "fast", 8), (zero, "fast", 20000)] + [
        (default_kernel, method, N)
        for method, N in (("fast", 8), ("fast", 64), ("fast", 800), ("direct", 8))
    ]
    for kernel, method, N in cases:
        cfg = _small_config(kernel=kernel, N=N)
        snap = run_ensemble(cfg, [cfg.T])
        for r in range(cfg.n_replicas):
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((42, r))))
            x = sample_initial(cfg.initial_density, cfg.N, rng)
            for _ in range(cfg.n_steps):
                drift = pair_drift(kernel, x, True, method)
                x = em_step(x, drift, cfg.dt, rng.standard_normal(x.shape))
            if method == "fast":
                assert np.array_equal(snap.positions[r, 0], x), (N, r)
            else:
                assert np.abs(snap.positions[r, 0] - x).max() < 1e-10, (N, r)


def test_run_ensemble_time_validation():
    cfg = _small_config()
    with pytest.raises(ValueError, match="nonempty"):
        run_ensemble(cfg, [])
    with pytest.raises(ValueError, match="sorted"):
        run_ensemble(cfg, [2e-3, 1e-3])
    with pytest.raises(ValueError, match="horizon"):
        run_ensemble(cfg, [1.0])
    with pytest.raises(ValueError, match="horizon"):
        run_ensemble(cfg, [-1e-3, 2e-3])
    with pytest.raises(ValueError, match="multiples"):
        run_ensemble(cfg, [2.5e-4])


def test_run_ensemble_repeated_output_time():
    # a time listed twice is recorded in both of its slots
    cfg = _small_config()
    snap = run_ensemble(cfg, [2e-3, 2e-3, 5e-3])
    assert np.array_equal(snap.positions[:, 0], snap.positions[:, 1])
    assert np.array_equal(snap.positions[:, 0], run_ensemble(cfg, [2e-3]).positions[:, 0])
    assert np.array_equal(snap.positions[:, 2], run_ensemble(cfg, [5e-3]).positions[:, 0])


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@forks_shares
@pytest.mark.parametrize("P", [2, 3])
def test_run_ensemble_shares_are_byte_identical(monkeypatch, P):
    # replica r draws from its own stream, so 7 replicas stepped in 2 or 3
    # uneven shares, each in its own forked child, give the bytes of one
    # process; a share of 1 is the serial path and forks nothing
    cfg = _small_config(n_replicas=7)
    times = [0.0, 2e-3, 2e-3, 5e-3]
    assert len(particles._replica_plan(7, cfg.N, particles._usable_cpus())[0]) == 1
    serial = run_ensemble(cfg, times)
    forked = force_shares(monkeypatch, P)
    split = run_ensemble(cfg, times)
    assert len(forked) == P
    assert split.positions.tobytes() == serial.positions.tobytes()
    assert np.array_equal(split.times, serial.times)
    _assert_no_child_left()


def test_share_count_follows_the_chunk_rule():
    def shares(replicas, N, workers):
        return len(particles._replica_plan(replicas, N, workers)[0])

    # the ensemble workload (R = 200, N = 64) takes both CPUs; the shipped
    # simulate.cfg (R = 128, N = 64: 8192 particles) stays in one process
    assert shares(200, 64, 2) == 2
    assert shares(128, 64, 2) == 1
    assert shares(1, 10 ** 6, 2) == 1
    assert shares(1000, 60, 64) == 10


@forks_shares
def test_run_ensemble_steps_a_share_in_blocks(monkeypatch):
    # 60 replicas of 400 particles (24000, four _CHUNK_PARTICLES) step on one
    # usable CPU in four blocks of 15 replicas, one _record call each, and
    # give the bytes of two forked shares of two such blocks
    cfg = _small_config(N=400, n_replicas=60, T=2e-3)
    calls, record = [], particles._record

    def recorded(cfg, r0, r1, steps, out):
        calls.append((r0, r1))
        record(cfg, r0, r1, steps, out)

    monkeypatch.setattr(particles, "_record", recorded)
    monkeypatch.setattr(particles, "_usable_cpus", lambda: 1)
    one = run_ensemble(cfg, [0.0, 2e-3])
    assert calls == [(0, 15), (15, 30), (30, 45), (45, 60)]
    monkeypatch.setattr(particles, "_usable_cpus", lambda: 2)
    forked = record_forks(monkeypatch)
    two = run_ensemble(cfg, [0.0, 2e-3])
    assert len(forked) == 2
    assert two.positions.tobytes() == one.positions.tobytes()
    _assert_no_child_left()


@forks_shares
def test_simulate_forks_after_numpy_random_is_loaded(tmp_path):
    # every share draws from numpy.random, so it is loaded before the first
    # fork and the children start with it; the stub fork records what is
    # loaded then and stops the run
    code = (
        "import os, sys\n"
        "from pchaos import cli, particles\n"
        "particles._usable_cpus = lambda: 2\n"
        "particles._CHUNK_PARTICLES = 1\n"  # the shipped config steps in one share otherwise
        "class Forked(Exception): pass\n"
        "def fork():\n"
        "    raise Forked('numpy.random' in sys.modules)\n"
        "os.fork = fork\n"
        "print('numpy.random' in sys.modules)\n"
        "try:\n"
        "    cli.main(['simulate', '--config', 'configs/simulate.cfg',\n"
        f"              '--out', {str(tmp_path)!r}])\n"
        "except Forked as exc:\n"
        "    print(exc.args[0])\n"
    )
    assert fresh_python("-c", code, cwd=REPO_ROOT).split() == ["False", "True"]


class _NotBuiltin(Exception):
    pass


@forks_shares
@pytest.mark.parametrize("fail, expected, match", [
    (lambda: MemoryError("share out of memory"), MemoryError, "^share out of memory$"),
    (lambda: _NotBuiltin("odd"), RuntimeError, "^_NotBuiltin: odd$"),
    (lambda: os.kill(os.getpid(), signal.SIGKILL), ChildProcessError,
     "replicas 2 to 3 ended with exit code -9"),
])
def test_a_failed_child_share_raises_in_the_parent(monkeypatch, fail, expected, match):
    # the child's failure comes back as its built-in type and message (other
    # types as a RuntimeError naming them; a killed child as ChildProcessError),
    # raised after the parent's own share and every child have ended
    record = particles._record

    def failing_record(cfg, r0, r1, steps, out):
        if r0 >= 2:  # share 1's blocks: each replica is its own block
            raise fail()
        record(cfg, r0, r1, steps, out)

    force_shares(monkeypatch, 2)
    monkeypatch.setattr(particles, "_record", failing_record)
    with pytest.raises(expected, match=match):
        run_ensemble(_small_config(n_replicas=4), [5e-3])
    _assert_no_child_left()


@forks_shares
def test_an_interrupted_parent_kills_and_reaps_its_children(monkeypatch):
    # every share would run for a minute in its child, and the parent is
    # interrupted while it waits for the first: each child is killed
    # (SIGKILL) and reaped before the interrupt goes on
    def slow_record(cfg, r0, r1, steps, out):
        time.sleep(60)

    statuses, waitpid = [], os.waitpid

    def interrupted_waitpid(pid, options):
        if not statuses:
            statuses.append(None)
            raise KeyboardInterrupt
        result = waitpid(pid, options)
        statuses.append(result[1])
        return result

    force_shares(monkeypatch, 3)
    monkeypatch.setattr(particles, "_record", slow_record)
    monkeypatch.setattr(particles.os, "waitpid", interrupted_waitpid)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_ensemble(_small_config(n_replicas=6), [5e-3])
    assert time.monotonic() - t0 < 30
    assert len(statuses) == 1 + 3
    assert all(os.WIFSIGNALED(s) and os.WTERMSIG(s) == signal.SIGKILL for s in statuses[1:])
    _assert_no_child_left()


# ---------------------------------------------------------------------------
# snapshot formats


@pytest.fixture()
def snapshot():
    return run_ensemble(_small_config(), [0.0, 5e-3])


def test_raw_roundtrip_and_header(tmp_path, snapshot):
    p = tmp_path / "snap.bin"
    snapshot.to_raw(p)
    R, nt, N, d = snapshot.positions.shape
    assert p.stat().st_size == 32 + 8 * nt + 8 * R * nt * N * d
    back = SnapshotSet.from_raw(p)
    assert np.array_equal(back.times, snapshot.times)
    assert np.array_equal(back.positions, snapshot.positions)


def test_raw_rejects_truncated_and_padded_files(tmp_path, snapshot):
    p = tmp_path / "snap.bin"
    snapshot.to_raw(p)
    data = p.read_bytes()
    n = len(data)
    p.write_bytes(data[:-8])
    with pytest.raises(ValueError, match=f"has {n - 8} bytes, its header describes {n}"):
        SnapshotSet.from_raw(p)
    p.write_bytes(data + b"\x00" * 8)
    with pytest.raises(ValueError, match=f"has {n + 8} bytes, its header describes {n}"):
        SnapshotSet.from_raw(p)
    p.write_bytes(data[:10])
    with pytest.raises(ValueError, match="too short for a header"):
        SnapshotSet.from_raw(p)
    # a header of no times, replicas or particles, with the size it describes
    for N, R, nt in ((8, 50, 0), (8, 0, 3), (0, 50, 3)):
        p.write_bytes(_RAW_HEADER.pack(_RAW_MAGIC, _RAW_VERSION, N, 1, R, nt) + b"\0" * 8 * nt)
        with pytest.raises(ValueError, match=f"holds no positions: N = {N}, replicas = {R}, "
                                             f"times = {nt}"):
            SnapshotSet.from_raw(p)


def test_raw_rejects_foreign_file(tmp_path):
    p = tmp_path / "bogus.bin"
    p.write_bytes(b"XXXX" + b"\x00" * 60)
    with pytest.raises(ValueError, match="unrecognized"):
        SnapshotSet.from_raw(p)


def test_raw_holds_one_coordinate(tmp_path, snapshot):
    # the header's d field is 1 on write, and a file claiming another d is refused
    p = tmp_path / "snap.bin"
    with pytest.raises(ValueError, match="one coordinate"):
        SnapshotSet(snapshot.times, np.zeros(snapshot.positions.shape[:3] + (2,))).to_raw(p)
    snapshot.to_raw(p)
    data = bytearray(p.read_bytes())
    assert data[12:16] == (1).to_bytes(4, "little")
    data[12:16] = (2).to_bytes(4, "little")
    p.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="has d = 2"):
        SnapshotSet.from_raw(p)


# ---------------------------------------------------------------------------
# marginal extraction


def test_extract_marginal_samples_first_block():
    pos = np.arange(2 * 6 * 1, dtype=float).reshape(2, 6, 1)
    samples, ids = extract_marginal_samples(pos, 2)
    assert samples.shape == (2, 2, 1)
    assert np.array_equal(ids, [0, 1])
    assert np.array_equal(samples[0, :, 0], [0.0, 1.0])


def test_extract_marginal_samples_disjoint():
    pos = np.arange(2 * 7 * 1, dtype=float).reshape(2, 7, 1)
    samples, ids = extract_marginal_samples(pos, 3, disjoint_tuples=True)
    assert samples.shape == (4, 3, 1)            # floor(7/3) = 2 tuples per replica
    assert np.array_equal(ids, [0, 0, 1, 1])
    assert np.array_equal(samples[1, :, 0], [3.0, 4.0, 5.0])   # second disjoint block
    with pytest.raises(ValueError, match="1 <= j <= N"):
        extract_marginal_samples(pos, 8)
    with pytest.raises(ValueError, match="shape"):
        extract_marginal_samples(pos[0], 2)
