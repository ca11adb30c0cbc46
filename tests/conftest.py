"""Shared fixtures: repository paths, the stock interaction kernel, a fresh interpreter,
a guard against child processes a test leaves behind, and the processes of one CLI run."""
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from pchaos.core import KernelSpec

REPO_ROOT = Path(__file__).resolve().parents[1]
KERNEL_PATH = REPO_ROOT / "kernels" / "default.txt"
RATES_CONFIG_PATH = REPO_ROOT / "configs" / "rates.cfg"


def fresh_python(*args, cwd=None, rc=0, **env) -> str:
    """Stdout of `python *args` run in a new interpreter on this checkout's src.

    What happens at import (pchaos.cli's process policy, which modules load)
    cannot be checked in the test process, which has imported everything
    already.  The child gets numpy's default BLAS threading: the thread
    counts OpenBLAS reads are dropped from its environment unless env sets
    them, so a runner that exports one cannot make a threading test pass
    untested.  The child must exit with code rc; otherwise its stderr is the
    failure message.
    """
    inherited = {k: v for k, v in os.environ.items()
                 if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, cwd=cwd,
                          env={**inherited, "PYTHONPATH": str(REPO_ROOT / "src"), **env},
                          timeout=600)
    assert proc.returncode == rc, proc.stderr
    return proc.stdout


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process unreaped: one still running, or
    ended and never waited for.  particles._Shares, which forks the workers
    of run_ensemble's and the rate driver's replica blocks, the rate
    driver's chain-moment table and the hierarchy's top-arity entry
    (pde._march), must reap every child on every path, a failure included."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    if not pid:  # still running: end it where Linux lists it, so later tests start clean
        for listing in Path("/proc/self/task").glob("*/children"):
            for child in map(int, listing.read_text().split()):
                os.kill(child, signal.SIGKILL)
                os.waitpid(child, 0)
    pytest.fail(f"the test left child process {pid} unreaped" if pid
                else "the test left a child process running")


def run_processes(config) -> list:
    """PIDs of the live processes of one CLI run, found by its config path.

    A process is listed when one argument of its /proc/PID/cmdline is the
    path: a forked child keeps its parent's argv, so this finds the run's
    children as well as the run, wherever they were reparented.  A process
    that has ended but was not reaped has an empty cmdline and is not
    listed.  It only reads /proc, and skips the test off Linux.
    """
    if not sys.platform.startswith("linux"):
        pytest.skip("processes are found through /proc/PID/cmdline")
    want = str(config).encode()
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            args = (entry / "cmdline").read_bytes().split(b"\0")
        except OSError:  # ended while listed
            continue
        if want in args:
            pids.append(int(entry.name))
    return pids


# run_ensemble forks its replica shares, and an order-2 solve its top entry, on Linux only
forks_shares = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                  reason="run_ensemble steps one share off Linux")


def record_forks(monkeypatch) -> list:
    """Record every os.fork; returns the list of the child pids, in order."""
    forked, fork = [], os.fork

    def recording_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording_fork)
    return forked


def force_shares(monkeypatch, P: int) -> list:
    """Make run_ensemble step any ensemble of at least P replicas in P
    workers, each replica its own block (the rate driver's blocks too);
    returns the list of the pids it forks."""
    from pchaos import particles

    monkeypatch.setattr(particles, "_CHUNK_PARTICLES", 1)
    monkeypatch.setattr(particles, "_usable_cpus", lambda: P)
    return record_forks(monkeypatch)


# a kernel with mode-0 and several higher b and khat terms, cos and sin
RICH_KERNEL = KernelSpec.from_tables(
    b={0: (0.1, 0.0), 1: (0.3, -0.2), 3: (0.05, 0.1)},
    khat={1: (0.2, 0.25), 2: (-0.1, 0.15)},
)


@pytest.fixture(scope="session")
def default_kernel() -> KernelSpec:
    """The stock kernel shipped with the repository: one cosine confinement
    mode plus one sine interaction mode, sup-norm bound 1."""
    return KernelSpec.from_file(KERNEL_PATH)


@st.composite
def band_limited_kernels(draw, max_band: int = 3):
    """Kernels with b and khat bands drawn apart (each up to max_band), whose
    coefficients, and whole tables, may be zero.  Nonzero coefficients lie in
    1e-3 <= |c| <= 1, so no product underflows."""
    coef = st.one_of(st.just(0.0), st.builds(lambda sign, v: sign * v, st.sampled_from((-1.0, 1.0)),
                                             st.floats(1e-3, 1.0)))

    def table(band):
        if draw(st.booleans()):
            return [0.0] * (band + 1)
        return draw(st.lists(coef, min_size=band + 1, max_size=band + 1))

    b_band = draw(st.integers(0, max_band))
    k_band = draw(st.integers(0, max_band))
    b_cos, k_cos = table(b_band), table(k_band)
    b_sin, k_sin = table(b_band), table(k_band)
    b_sin[0] = k_sin[0] = 0.0
    return KernelSpec(b_cos=b_cos, b_sin=b_sin, k_cos=k_cos, k_sin=k_sin)
