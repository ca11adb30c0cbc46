"""End-to-end smoke tests for every CLI subcommand on tiny configurations."""
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from pchaos import cli, experiments, operators, particles, pde
from pchaos.cli import main
from pchaos.core import KernelSpec
from pchaos.particles import SnapshotSet
from pchaos.pde import GTable

from conftest import (KERNEL_PATH, REPO_ROOT, force_shares, forks_shares, fresh_python,
                      record_forks, run_processes)


def _write_cfg(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


def _sim_cfg(tmp_path, extra=""):
    return _write_cfg(
        tmp_path, "sim.cfg",
        f"kernel = {KERNEL_PATH}\n"
        "density_cos = 1.0, 0.5\n"
        "density_sin = 0.0, 0.25\n"
        "sample_grid = 64\n"
        "N = 8\n"
        "dt = 1e-3\n"
        "T = 2e-3\n"
        "replicas = 50\n"
        "seed = 4\n" + extra,
    )


def test_simulate_writes_raw_by_default_and_metrics_reads_it(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["simulate", "--config", _sim_cfg(tmp_path), "--out", str(out)])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "snapshots.raw"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 4
    assert manifest["n_replicas"] == 50 and manifest["N"] == 8
    assert len(manifest["config_sha256"]) == 64
    assert "simulate: 50 replicas" in capsys.readouterr().out

    hier_cfg = _write_cfg(tmp_path, "h.cfg", f"kernel = {KERNEL_PATH}\ndensity_cos = 1.0, 0.5\n"
                          "density_sin = 0.0, 0.25\ngrid = 32\ndt = 1e-3\nT = 2e-3\n")
    assert main(["solve-hierarchy", "--config", hier_cfg, "--out", str(tmp_path / "h")]) == 0
    met_cfg = _write_cfg(tmp_path, "m.cfg", f"snapshots = {out / 'snapshots.raw'}\n"
                         f"gtable = {tmp_path / 'h' / 'gtable'}\nbins = 8\n")
    assert main(["metrics", "--config", met_cfg, "--out", str(tmp_path / "m")]) == 0
    assert json.loads((tmp_path / "m" / "divergence_j1.json").read_text())["n_samples"] == 50 * 8


def test_simulate_raw_and_seed_override(tmp_path):
    cfg = _sim_cfg(tmp_path, "snapshot_format = raw\n")
    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    assert main(["simulate", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out_b)]) == 0
    assert main(["simulate", "--config", cfg, "--out", str(out_c), "--seed", "99"]) == 0
    raw_a = (out_a / "snapshots.raw").read_bytes()
    assert raw_a == (out_b / "snapshots.raw").read_bytes()
    assert raw_a != (out_c / "snapshots.raw").read_bytes()
    assert json.loads((out_c / "manifest.json").read_text())["seed"] == 99
    snaps = SnapshotSet.from_raw(str(out_a / "snapshots.raw"))
    assert snaps.positions.shape == (50, 1, 8, 1)


def test_manifest_hash_covers_the_kernel_file(tmp_path):
    # the same config text naming an edited kernel file simulates different
    # positions, so its manifest must carry a different config hash
    kernel = tmp_path / "kernel.txt"
    kernel.write_text(KERNEL_PATH.read_text(encoding="utf-8"), encoding="utf-8")
    cfg = _write_cfg(
        tmp_path, "sim.cfg",
        f"kernel = {kernel}\ndensity_cos = 1.0, 0.5\nsample_grid = 64\nN = 8\n"
        "dt = 1e-3\nT = 2e-3\nreplicas = 5\nseed = 4\nsnapshot_format = raw\n",
    )
    runs = []
    for name, text in (("a", None), ("b", "b 1 0.5 0.0\nkhat 1 0.0 0.25\n")):
        if text is not None:
            kernel.write_text(text, encoding="utf-8")
        out = tmp_path / name
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        runs.append((json.loads((out / "manifest.json").read_text())["config_sha256"],
                     (out / "snapshots.raw").read_bytes()))
    assert runs[0][1] != runs[1][1]
    assert runs[0][0] != runs[1][0]


@pytest.mark.parametrize("change", ["edit", "delete"])
def test_manifest_hashes_the_kernel_as_read(tmp_path, monkeypatch, change):
    # the kernel file changing or vanishing while simulate runs leaves the
    # hash of the kernel that ran, and the manifest is still written
    kernel = tmp_path / "kernel.txt"
    kernel.write_text(KERNEL_PATH.read_text(encoding="utf-8"), encoding="utf-8")
    cfg = _write_cfg(tmp_path, "sim.cfg", f"kernel = {kernel}\ndensity_cos = 1.0, 0.5\n"
                     "sample_grid = 64\nN = 8\ndt = 1e-3\nT = 2e-3\nreplicas = 5\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "ref")]) == 0
    real = cli.run_ensemble

    def changing_kernel(*args):
        if change == "edit":
            kernel.write_text("b 1 0.5 0.0\n", encoding="utf-8")
        else:
            kernel.unlink()
        return real(*args)

    monkeypatch.setattr(cli, "run_ensemble", changing_kernel)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    hashes = [json.loads((tmp_path / name / "manifest.json").read_text())["config_sha256"]
              for name in ("ref", "o")]
    assert hashes[0] == hashes[1]


@pytest.mark.parametrize("sub", ["simulate", "rates"])
def test_kernel_rewritten_after_its_read_does_not_run(tmp_path, monkeypatch, sub):
    # the kernel file is read once: rewritten right after that read, the run
    # keeps the original kernel's hash and outputs
    kernel = tmp_path / "kernel.txt"
    kernel.write_text(KERNEL_PATH.read_text(encoding="utf-8"), encoding="utf-8")
    if sub == "simulate":
        cfg, output = _sim_cfg(tmp_path), "snapshots.raw"
    else:
        cfg, output = _rates_smoke_cfg(tmp_path, "slope_lo = -1000\nslope_hi = 1000\n"), "rates.csv"
    text = Path(cfg).read_text(encoding="utf-8").replace(str(KERNEL_PATH), str(kernel))
    Path(cfg).write_text(text, encoding="utf-8")
    assert main([sub, "--config", cfg, "--out", str(tmp_path / "ref")]) == 0
    real_read = Path.read_text

    def read_then_rewrite(path, *args, **kwargs):
        got = real_read(path, *args, **kwargs)
        if path == kernel:
            monkeypatch.setattr(Path, "read_text", real_read)
            kernel.write_text("b 1 0.5 0.0\nkhat 1 0.0 0.25\n", encoding="utf-8")
        return got

    monkeypatch.setattr(Path, "read_text", read_then_rewrite)
    assert main([sub, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert kernel.read_text(encoding="utf-8") == "b 1 0.5 0.0\nkhat 1 0.0 0.25\n"
    for name in ("manifest.json", output):
        assert (tmp_path / "o" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()


def test_simulate_rejects_bad_format(tmp_path, capsys):
    # a value no prediction or reader supports fails before any simulation
    for extra, message in (("snapshot_format = hdf5", "snapshot_format must be raw"),
                           ("snapshot_format = csv", "snapshot_format must be raw"),
                           ("d = 2", "d must be 1"),
                           ("self_interaction = false", "self_interaction must be true")):
        out = tmp_path / extra.split()[0]
        rc = main(["simulate", "--config", _sim_cfg(tmp_path, extra + "\n"), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: " + message)
        assert list(out.iterdir()) == []


def test_solve_mv(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path, "mv.cfg",
        f"kernel = {KERNEL_PATH}\n"
        "density_cos = 1.0, 0.5\n"
        "grid = 32\n"
        "dt = 1e-3\n"
        "T = 5e-3\n",
    )
    out = tmp_path / "o"
    assert main(["solve-mv", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "rho.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,x,value"
    assert len(lines) == 1 + 6 * 32        # six stored times, 32 grid points
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["max_mass_drift"] < 1e-12
    assert "max mass drift" in capsys.readouterr().out


def test_solve_hierarchy_and_metrics(tmp_path, capsys):
    hier_cfg = _write_cfg(
        tmp_path, "h.cfg",
        f"kernel = {KERNEL_PATH}\n"
        "density_cos = 1.0, 0.5\n"
        "density_sin = 0.0, 0.25\n"
        "grid = 32\n"
        "order = 1\n"
        "dt = 1e-3\n"
        "T = 2e-3\n",
    )
    hier_out = tmp_path / "h"
    assert main(["solve-hierarchy", "--config", hier_cfg, "--out", str(hier_out)]) == 0
    gt = GTable.load(str(hier_out / "gtable"))
    assert set(gt.entries) == {(0, 1), (1, 1), (1, 2)}
    assert json.loads((hier_out / "manifest.json").read_text())["entries"] == 3

    sim_cfg = _sim_cfg(tmp_path, "snapshot_format = raw\n")
    sim_out = tmp_path / "s"
    assert main(["simulate", "--config", sim_cfg, "--out", str(sim_out)]) == 0

    met_cfg = _write_cfg(
        tmp_path, "m.cfg",
        f"snapshots = {sim_out / 'snapshots.raw'}\n"
        f"gtable = {hier_out / 'gtable'}\n"
        "j = 1, 2\n"
        "bins = 8\n",
    )
    met_out = tmp_path / "m"
    assert main(["metrics", "--config", met_cfg, "--out", str(met_out)]) == 0
    for j in (1, 2):
        payload = json.loads((met_out / f"divergence_j{j}.json").read_text())
        assert list(payload) == ["chi_squared", "se_chi_squared", "bins", "n_samples",
                                 "n_replicas"]
        assert payload["bins"] == (8 if j == 1 else 2)
        assert np.isfinite(payload["chi_squared"])
    manifest = json.loads((met_out / "manifest.json").read_text())
    assert set(manifest["chi_squared"]) == {"j1", "j2"}
    assert manifest["time"] == 2e-3
    assert "metrics j=1: chi2" in capsys.readouterr().out

    bad = _write_cfg(tmp_path, "bad_t.cfg",
                     f"snapshots = {sim_out / 'snapshots.raw'}\n"
                     f"gtable = {hier_out / 'gtable'}\n"
                     "time = 1.5e-3\n")
    assert main(["metrics", "--config", bad, "--out", str(tmp_path / "x")]) == 2
    assert "no snapshot at time" in capsys.readouterr().err


def test_solve_hierarchy_manifest_records_mass_drift_and_asymmetry(tmp_path):
    cfg = _write_cfg(
        tmp_path, "h.cfg",
        f"kernel = {KERNEL_PATH}\n"
        "density_cos = 1.0, 0.5\n"
        "density_sin = 0.0, 0.25\n"
        "grid = 16\n"
        "order = 2\n"
        "dt = 1e-3\n"
        "T = 1e-2\n"
        "store_every = 5\n",
    )
    assert main(["solve-hierarchy", "--config", cfg, "--out", str(tmp_path / "h")]) == 0
    manifest = json.loads((tmp_path / "h" / "manifest.json").read_text())
    assert 0.0 <= manifest["max_mass_drift"] < 1e-12
    asymmetry = manifest["max_asymmetry"]
    assert set(asymmetry) == {"g_0_1", "g_1_1", "g_1_2", "g_2_1", "g_2_2", "g_2_3"}
    assert all(0.0 <= v <= 1e-13 for v in asymmetry.values()), asymmetry


@forks_shares
def test_a_split_solve_writes_the_same_table(tmp_path, monkeypatch):
    # the benchmark's order-2 solve at M=32 writes the same bytes whether its
    # top entry steps in a forked child or in this process, and the manifest
    # records which it was
    cfg = _write_cfg(tmp_path, "h.cfg", f"kernel = {KERNEL_PATH}\ndensity_cos = 1.0, 0.5\n"
                     "grid = 32\ndt = 1e-3\nT = 0.1\nstore_every = 50\norder = 2\n")
    forked = record_forks(monkeypatch)
    runs = {}
    for cpus in (2, 1):
        monkeypatch.setattr(pde, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}"
        assert main(["solve-hierarchy", "--config", cfg, "--out", str(out)]) == 0
        runs[cpus] = json.loads((out / "manifest.json").read_text())
    assert len(forked) == 1
    assert (runs[2]["processes"], runs[2]["child_entry"]) == (2, "g_2_3")
    assert (runs[1]["processes"], runs[1]["child_entry"]) == (1, None)
    assert ({k: v for k, v in runs[2].items() if k not in ("processes", "child_entry")}
            == {k: v for k, v in runs[1].items() if k not in ("processes", "child_entry")})
    names = sorted(p.name for p in (tmp_path / "cpus1" / "gtable").iterdir())
    assert len(names) == 7
    for name in names:
        assert ((tmp_path / "cpus2" / "gtable" / name).read_bytes()
                == (tmp_path / "cpus1" / "gtable" / name).read_bytes()), name


@forks_shares
def test_a_child_entry_out_of_memory_is_a_user_error(tmp_path, monkeypatch, capsys):
    # the forked top entry's MemoryError comes back as a MemoryError, so
    # solve-hierarchy exits 2 with one line and leaves no child
    flux1 = operators._EntrySolver.flux1

    def flux_or_fail(self, state, cache):
        if self.j == 3:
            raise MemoryError("Unable to allocate the entry's flux")
        return flux1(self, state, cache)

    monkeypatch.setattr(pde, "_usable_cpus", lambda: 2)
    forked = record_forks(monkeypatch)
    monkeypatch.setattr(operators._EntrySolver, "flux1", flux_or_fail)
    cfg = _write_cfg(tmp_path, "h.cfg", f"kernel = {KERNEL_PATH}\ndensity_cos = 1.0, 0.5\n"
                     "grid = 12\ndt = 1e-3\nT = 1e-2\norder = 2\n")
    assert main(["solve-hierarchy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: Unable to allocate the entry's flux\n"
    assert len(forked) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_solve_manifests_record_cfl_margin_and_min_density(tmp_path):
    # both solve commands record h / (dt sup|K|) and rho's minimum over the
    # stored rows with its time; this density dips lowest at t = 0
    cfg = _write_cfg(tmp_path, "s.cfg", f"kernel = {KERNEL_PATH}\n"
                     "density_cos = 1.0, 0.9\ngrid = 16\norder = 1\ndt = 1e-3\nT = 4e-3\n"
                     "store_every = 2\n")
    kernel = KernelSpec.from_file(KERNEL_PATH)
    for command in ("solve-mv", "solve-hierarchy"):
        assert main([command, "--config", cfg, "--out", str(tmp_path / command)]) == 0
        manifest = json.loads((tmp_path / command / "manifest.json").read_text())
        assert manifest["cfl_margin"] == pytest.approx(1 / 16 / kernel.sup_norm_bound / 1e-3)
        assert manifest["cfl_margin"] > 1
        assert manifest["min_density"] == pytest.approx(0.1, abs=1e-12)
        assert manifest["min_density_time"] == 0.0


def test_metrics_manifest_hash_covers_its_inputs(tmp_path):
    # one metrics config reading different snapshot or g-table bytes must
    # record a different config hash
    hier_cfg = _write_cfg(
        tmp_path, "h.cfg",
        f"kernel = {KERNEL_PATH}\ndensity_cos = 1.0, 0.5\ngrid = 16\ndt = 1e-3\nT = 2e-3\n",
    )
    sim_cfg = _sim_cfg(tmp_path, "snapshot_format = raw\n")
    for name, seed in (("s1", "1"), ("s2", "2")):
        assert main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / name),
                     "--seed", seed]) == 0
    assert main(["solve-hierarchy", "--config", hier_cfg, "--out", str(tmp_path / "h")]) == 0
    met_cfg = _write_cfg(
        tmp_path, "m.cfg",
        f"snapshots = {tmp_path / 'in.raw'}\ngtable = {tmp_path / 'in'}\nbins = 8\n",
    )

    def metrics_hash(snap, gtable_dt):
        shutil.copyfile(tmp_path / snap / "snapshots.raw", tmp_path / "in.raw")
        table = GTable.load(tmp_path / "h" / "gtable")
        table.entries[(0, 1)][-1] += gtable_dt
        shutil.rmtree(tmp_path / "in", ignore_errors=True)
        table.save(tmp_path / "in")
        out = tmp_path / "m"
        assert main(["metrics", "--config", met_cfg, "--out", str(out)]) == 0
        return json.loads((out / "manifest.json").read_text())["config_sha256"]

    base = metrics_hash("s1", 0.0)
    assert metrics_hash("s1", 0.0) == base
    assert metrics_hash("s2", 0.0) != base
    assert metrics_hash("s1", 1e-9) != base


def test_metrics_three_particle_marginal(tmp_path, capsys):
    # j = 3 is compared against rho^{⊗3}; a sample too small for the 2^3
    # cells exits 2 with the one-line cell-count message
    hier_cfg = _write_cfg(
        tmp_path, "h.cfg",
        f"kernel = {KERNEL_PATH}\n"
        "density_cos = 1.0, 0.5\n"
        "grid = 32\n"
        "dt = 1e-3\n"
        "T = 2e-3\n",
    )
    assert main(["solve-hierarchy", "--config", hier_cfg, "--out", str(tmp_path / "h")]) == 0
    for replicas, rc_want in ((200, 0), (50, 2)):
        sim_cfg = _write_cfg(
            tmp_path, f"s{replicas}.cfg",
            f"kernel = {KERNEL_PATH}\n"
            "density_cos = 1.0, 0.5\n"
            "sample_grid = 64\nN = 8\ndt = 1e-3\nT = 2e-3\n"
            f"replicas = {replicas}\nsnapshot_format = raw\n",
        )
        sim_out = tmp_path / f"s{replicas}"
        assert main(["simulate", "--config", sim_cfg, "--out", str(sim_out)]) == 0
        met_cfg = _write_cfg(
            tmp_path, f"m{replicas}.cfg",
            f"snapshots = {sim_out / 'snapshots.raw'}\n"
            f"gtable = {tmp_path / 'h' / 'gtable'}\n"
            "j = 3\nbins = 8\n",
        )
        met_out = tmp_path / f"m{replicas}"
        capsys.readouterr()
        assert main(["metrics", "--config", met_cfg, "--out", str(met_out)]) == rc_want
        if rc_want == 0:
            payload = json.loads((met_out / "divergence_j3.json").read_text())
            assert payload["bins"] == 2 and payload["n_samples"] == 400
            assert np.isfinite(payload["chi_squared"])
        else:
            err = capsys.readouterr().err
            assert err.startswith("error: too many cells: 2^3 = 8 exceeds")
            assert err.count("\n") == 1


def test_shipped_simulate_solve_metrics_chain(tmp_path, monkeypatch, capsys):
    # the shipped configs, unmodified, run from a directory laid out like the repo
    shutil.copytree(REPO_ROOT / "configs", tmp_path / "configs")
    shutil.copytree(REPO_ROOT / "kernels", tmp_path / "kernels")
    monkeypatch.chdir(tmp_path)
    for sub, cfg, out in (("simulate", "simulate.cfg", "results/simulate"),
                          ("solve-hierarchy", "solve.cfg", "results/solve"),
                          ("metrics", "metrics.cfg", "results/metrics")):
        assert main([sub, "--config", f"configs/{cfg}", "--out", out]) == 0, capsys.readouterr().err
    manifest = json.loads((tmp_path / "results/metrics/manifest.json").read_text())
    assert set(manifest["chi_squared"]) == {"j1", "j2"}


def test_cli_import_leaves_out_what_start_up_does_not_need():
    # mpmath and scipy.special are imported where they are used, not at
    # start-up, numpy.polynomial and multiprocessing nowhere, no
    # record class is generated (by dataclasses' exec), and the command line
    # is read without argparse and the gettext it loads
    mods = ("scipy.integrate", "mpmath", "scipy.special", "multiprocessing", "numpy.polynomial",
            "dataclasses", "argparse", "gettext")
    code = f"import sys, pchaos.cli; print([m for m in {mods!r} if m in sys.modules])"
    assert fresh_python("-c", code).strip() == "[]"


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(),
                    reason="native threads are counted in /proc/self/task")
def test_cli_process_runs_blas_on_one_thread():
    # the thread policy: OpenBLAS starts no worker pool in a CLI process
    code = ("import os, pchaos.cli\n"
            "print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])")
    assert fresh_python("-c", code).strip() == "1 1"


def test_cli_thread_policy_keeps_a_preset_count():
    code = "import os, pchaos.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert fresh_python("-c", code, OPENBLAS_NUM_THREADS="2").strip() == "2"


def test_cli_import_after_numpy_leaves_the_environment():
    # OpenBLAS has read its thread count by now; a library caller keeps its own
    code = ("import os, numpy\nbefore = dict(os.environ)\nimport pchaos.cli\n"
            "print(dict(os.environ) == before)")
    assert fresh_python("-c", code).strip() == "True"


def test_cli_process_freezes_its_import_heap():
    # the collector policy: what the imports made is left out of every later
    # collection, the interpreter's exit sweeps included
    code = "import gc, pchaos.cli; print(gc.get_freeze_count())"
    assert int(fresh_python("-c", code)) > 0


def test_cli_import_after_numpy_leaves_the_collector():
    # a library caller, or the test suite, keeps every object collectable
    code = "import gc, numpy, pchaos.cli; print(gc.get_freeze_count())"
    assert fresh_python("-c", code).strip() == "0"


# (command, config, its text, output directory); paths are relative to the run
# directory, so both runs of test_cli_processes_write_what_main_writes hash the same text
_PROCESS_RUNS = (
    ("simulate", "s.cfg", "kernel = kernel.txt\ndensity_cos = 1.0, 0.5\ndensity_sin = 0.0, 0.25\n"
     "sample_grid = 64\nN = 8\ndt = 1e-3\nT = 2e-3\nreplicas = 50\nseed = 4\n", "s"),
    ("solve-hierarchy", "h.cfg", "kernel = kernel.txt\ndensity_cos = 1.0, 0.5\n"
     "density_sin = 0.0, 0.25\ngrid = 32\ndt = 1e-3\nT = 2e-3\n", "h"),
    ("metrics", "m.cfg", "snapshots = s/snapshots.raw\ngtable = h/gtable\nj = 1, 2\nbins = 8\n",
     "m"),
    ("bounds", "b.cfg", "j = 1, 4\nell_max = 6\nb = 1, 3\nt = 0.1, 1.0\n", "b"),
    ("bounds", "bf.cfg", "j = 16\nell_max = 64\nb = 7\nt = 0.1\ninject = 1e-3\n", "bf"),
)


def test_cli_processes_write_what_main_writes(tmp_path, monkeypatch, capsys):
    # a CLI process freezes its import heap and keeps it frozen through exit;
    # every buffered write must still reach its file, and every output, line
    # of stdout and exit code must match a run of main() in this process,
    # which freezes nothing
    def files(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    for side in ("main", "process"):
        (tmp_path / side).mkdir()
        shutil.copy(KERNEL_PATH, tmp_path / side / "kernel.txt")
        for _, name, text, _ in _PROCESS_RUNS:
            (tmp_path / side / name).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path / "main")
    codes = []
    for sub, name, _, out in _PROCESS_RUNS:
        args = [sub, "--config", name, "--out", out]
        codes.append(main(args))
        stdout = fresh_python("-m", "pchaos.cli", *args, cwd=tmp_path / "process", rc=codes[-1])
        assert stdout == capsys.readouterr().out, sub
    assert codes == [0, 0, 0, 0, 1]
    assert files(tmp_path / "process") == files(tmp_path / "main")


def test_commands_leave_scipy_unimported(tmp_path):
    # bounds used to import scipy.special for betainc, ~0.3 s of its start-up;
    # integrate_hierarchy's deferred scipy.integrate is reached by no command
    sim = _sim_cfg(tmp_path)
    hier = _write_cfg(tmp_path, "h.cfg", f"kernel = {KERNEL_PATH}\ndensity_cos = 1.0, 0.5\n"
                      "grid = 16\ndt = 1e-3\nT = 2e-3\n")
    met = _write_cfg(tmp_path, "m.cfg", f"snapshots = {tmp_path / 's' / 'snapshots.raw'}\n"
                     f"gtable = {tmp_path / 'h' / 'gtable'}\nbins = 8\n")
    bnd = _write_cfg(tmp_path, "b.cfg", "j = 1, 4\nell_max = 6\nb = 1, 3\nt = 0.1, 1.0\n")
    for sub, cfg, out in (("simulate", sim, "s"), ("solve-hierarchy", hier, "h"),
                          ("metrics", met, "m"), ("bounds", bnd, "b")):
        code = (
            "import sys\nfrom pchaos.cli import main\n"
            f"rc = main([{sub!r}, '--config', {cfg!r}, '--out', {str(tmp_path / out)!r}])\n"
            "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        assert fresh_python("-c", code).splitlines()[-1] == "0 []", sub


def test_shipped_bounds_config_and_its_fault_control(tmp_path, capsys):
    shipped = REPO_ROOT / "configs" / "bounds.cfg"
    out = tmp_path / "clean"
    assert main(["bounds", "--config", str(shipped), "--out", str(out)]) == 0
    lines = (out / "bounds.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 3 * 64 * 3 * 3
    assert json.loads((out / "manifest.json").read_text())["violations"] == 0

    text = shipped.read_text(encoding="utf-8")
    assert "inject = 0.0\n" in text
    faulty = _write_cfg(tmp_path, "bf.cfg", text.replace("inject = 0.0\n", "inject = 1e-3\n"))
    assert main(["bounds", "--config", faulty, "--out", str(tmp_path / "f")]) == 1
    assert json.loads((tmp_path / "f" / "manifest.json").read_text())["violations"] == 195
    assert "FAIL" in capsys.readouterr().out


def test_hierarchy_over_memory_budget_is_a_user_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "big.cfg",
                     f"kernel = {KERNEL_PATH}\ndensity_cos = 1.0, 0.5\ngrid = 256\n"
                     "dt = 1e-3\nT = 0.02\norder = 2\n")
    assert main(["solve-hierarchy", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "budget" in err and err.count("\n") == 1


def test_allocation_the_machine_cannot_meet_is_a_user_error(tmp_path, capsys):
    # N = 2**50 asks for 8 PiB of positions, past what any address space can
    # map, so numpy's MemoryError comes at once
    cfg = _write_cfg(tmp_path, "huge.cfg",
                     f"kernel = {KERNEL_PATH}\ndensity_cos = 1.0, 0.5\nsample_grid = 64\n"
                     f"N = {2 ** 50}\ndt = 1e-3\nT = 2e-3\nreplicas = 1\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


@forks_shares
def test_simulate_in_two_shares_writes_the_same_snapshots(tmp_path, monkeypatch):
    cfg = _sim_cfg(tmp_path, "output_times = 0.0, 1e-3, 2e-3\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "one")]) == 0
    forked = force_shares(monkeypatch, 2)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "two")]) == 0
    assert len(forked) == 2
    assert ((tmp_path / "two" / "snapshots.raw").read_bytes()
            == (tmp_path / "one" / "snapshots.raw").read_bytes())


@forks_shares
def test_a_child_share_out_of_memory_is_a_user_error(tmp_path, monkeypatch, capsys):
    # the forked share's MemoryError comes back to the parent as a
    # MemoryError, so simulate exits 2 with one line
    record = particles._record

    def record_or_fail(cfg, r0, r1, steps, out):
        if r0 != 0:
            raise MemoryError("Unable to allocate the share's noise")
        record(cfg, r0, r1, steps, out)

    force_shares(monkeypatch, 2)
    monkeypatch.setattr(particles, "_record", record_or_fail)
    assert main(["simulate", "--config", _sim_cfg(tmp_path), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == "error: Unable to allocate the share's noise\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children").exists(),
                    reason="a process's children are listed in /proc/PID/task/TID/children")
def test_an_interrupted_simulate_leaves_no_child(tmp_path):
    # 400 replicas of 100 particles step in two shares for about twenty
    # seconds; a SIGINT to the parent alone, once its child share runs, ends
    # the run, and the parent kills and reaps that child before it exits
    cfg = _write_cfg(tmp_path, "long.cfg",
                     f"kernel = {KERNEL_PATH}\ndensity_cos = 1.0, 0.5\nsample_grid = 64\n"
                     "N = 100\ndt = 1e-3\nT = 20\nreplicas = 400\n")
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    proc = subprocess.Popen([sys.executable, "-m", "pchaos.cli", "simulate", "--config", cfg,
                             "--out", str(tmp_path / "o")], env=env, stderr=subprocess.DEVNULL)
    try:
        listing = Path(f"/proc/{proc.pid}/task/{proc.pid}/children")
        deadline = time.monotonic() + 60
        children = []
        while not children and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            children = [int(pid) for pid in listing.read_text().split()]
        assert children, "simulate forked no share"
        proc.send_signal(signal.SIGINT)
        proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode != 0
    assert not [pid for pid in children if Path(f"/proc/{pid}").exists()]
    assert not (tmp_path / "o" / "snapshots.raw").exists()


def _rates_cfg(tmp_path):
    return _write_cfg(
        tmp_path, "rates.cfg",
        f"kernel = {KERNEL_PATH}\n"
        "density_cos = 1.0, 0.5\n"
        "N = 4, 6, 8\n"
        "T = 2e-3\n"
        "replicas = 100\n"
        "grid = 32\n"
        "sample_grid = 64\n"
        "bins = 8\n"
        "workers = 2\n",
    )


@forks_shares
def test_rates_and_simulate_fork_without_a_process_pool(tmp_path):
    # both commands fork through particles._Shares alone: a rates run on two
    # CPUs (the chain table, then two shares per N) and a simulate in two
    # shares load neither concurrent.futures nor multiprocessing
    code = (
        "import os, sys\n"
        "from pchaos import cli, experiments, particles\n"
        "experiments._usable_cpus = particles._usable_cpus = lambda: 2\n"
        "particles._CHUNK_PARTICLES = 1\n"
        "forks, fork = [], os.fork\n"
        "def counted():\n"
        "    forks.append(None)\n"
        "    return fork()\n"
        "os.fork = counted\n"
        f"assert cli.main(['rates', '--config', {_rates_cfg(tmp_path)!r}, "
        f"'--out', {str(tmp_path / 'r')!r}]) in (0, 1)\n"
        f"assert cli.main(['simulate', '--config', {_sim_cfg(tmp_path)!r}, "
        f"'--out', {str(tmp_path / 's')!r}]) == 0\n"
        "pools = ('concurrent.futures', 'multiprocessing')\n"
        "print(len(forks), [m for m in pools if m in sys.modules])\n"
    )
    assert fresh_python("-c", code).splitlines()[-1] == "9 []"


@forks_shares
def test_sigterm_at_the_second_n_keeps_the_first_n_rows(tmp_path, monkeypatch, capsys):
    # main() turns SIGTERM into an interrupt while the command runs: a rates
    # run terminated at its second N kills and reaps the third N's shares,
    # records itself as failed with the first N's rows, and main() exits
    # 128 + SIGTERM with one line and puts back the handler it found
    force_shares(monkeypatch, 2)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 2)
    real, calls = experiments.paired_pair_cumulant_difference, []

    def terminated_at_second_n(*args):
        calls.append(None)
        if len(calls) == 2:
            os.kill(os.getpid(), signal.SIGTERM)
        return real(*args)

    monkeypatch.setattr(experiments, "paired_pair_cumulant_difference", terminated_at_second_n)
    previous = signal.getsignal(signal.SIGTERM)
    out = tmp_path / "o"
    assert main(["rates", "--config", _rates_cfg(tmp_path), "--out", str(out)]) == 143
    assert signal.getsignal(signal.SIGTERM) is previous
    assert capsys.readouterr().err == "error: interrupted by SIGTERM\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed: KeyboardInterrupt: SIGTERM"
    per_n = {}
    for line in (out / "rates.csv").read_text().splitlines()[1:]:
        per_n.setdefault(int(line.split(",")[0]), []).append(line.split(",")[4])
    # the first N's 4 observables and their plain rows, its pair row and two
    # chi2 rows; the second N's rows made before its pair row
    assert {N: len(names) for N, names in per_n.items()} == {4: 11, 6: 8}


# a command in a fresh interpreter that counts two usable CPUs, whatever the
# machine has, so simulate and rates each fork two shares and an order-2
# solve-hierarchy forks its top entry
_ON_TWO_CPUS = ("import sys\n"
                "from pchaos import cli, experiments, particles, pde\n"
                "experiments._usable_cpus = particles._usable_cpus = pde._usable_cpus = lambda: 2\n"
                "sys.exit(cli.main())\n")
# runs that step for tens of seconds in forked children, and their process count
_LONG_RUNS = {
    "simulate": ("N = 100\ndt = 1e-3\nT = 20\nreplicas = 400\n", 3),
    "rates": ("N = 100, 200, 400\nT = 0.5\nreplicas = 2000\nworkers = 2\n", 3),
    "solve-hierarchy": ("order = 2\ngrid = 32\ndt = 1e-3\nT = 20\nstore_every = 20000\n", 2),
}


def _start_long_run(tmp_path, command):
    """A long run of command, once its children run: (process, config path, process count)."""
    text, processes = _LONG_RUNS[command]
    cfg = _write_cfg(tmp_path, f"{command}.cfg", f"kernel = {KERNEL_PATH}\ndensity_cos = 1.0, 0.5\n"
                     f"sample_grid = 64\n{text}")
    proc = subprocess.Popen([sys.executable, "-c", _ON_TWO_CPUS, command, "--config", cfg,
                             "--out", str(tmp_path / "o")],
                            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    deadline = time.monotonic() + 60
    while (len(run_processes(cfg)) < processes and proc.poll() is None
           and time.monotonic() < deadline):
        time.sleep(0.02)
    return proc, cfg, processes


def _left_running(cfg, seconds: float) -> list:
    """The processes of the run of cfg still alive after up to seconds of polling."""
    deadline = time.monotonic() + seconds
    while (pids := run_processes(cfg)) and time.monotonic() < deadline:
        time.sleep(0.02)
    return pids


@pytest.mark.parametrize("command", list(_LONG_RUNS))
def test_a_terminated_command_leaves_no_process_and_keeps_its_record(tmp_path, command):
    proc, cfg, processes = _start_long_run(tmp_path, command)
    try:
        assert len(run_processes(cfg)) == processes, f"{command} is not stepping in children"
        proc.terminate()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert proc.returncode == 128 + signal.SIGTERM
    assert err == "error: interrupted by SIGTERM\n"
    assert _left_running(cfg, 2.0) == []
    if command == "rates":
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["status"].startswith("failed")


@pytest.mark.parametrize("command", list(_LONG_RUNS))
def test_a_killed_command_leaves_no_child(tmp_path, command):
    # every forked child asks to die with its parent, so SIGKILL, which no
    # handler sees, leaves no child running either
    proc, cfg, processes = _start_long_run(tmp_path, command)
    try:
        assert len(run_processes(cfg)) == processes, f"{command} is not stepping in children"
        proc.kill()
        proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert _left_running(cfg, 2.0) == []


def test_negative_density_is_a_user_error(tmp_path, capsys):
    # a strong confinement on a coarse grid: the step passes the CFL check
    # but the explicit transport drives the density negative
    kernel = _write_cfg(tmp_path, "strong.txt", "b 1 100.0 0.0\n")
    cfg = _write_cfg(tmp_path, "mv.cfg",
                     f"kernel = {kernel}\ndensity_cos = 1.0, 0.5\ngrid = 16\n"
                     "dt = 0.000625\nT = 0.01\n")
    assert main(["solve-mv", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: density reached") and err.count("\n") == 1


def test_metrics_rejects_truncated_gtable(tmp_path, capsys):
    hier_cfg = _write_cfg(
        tmp_path, "h.cfg",
        f"kernel = {KERNEL_PATH}\ndensity_cos = 1.0, 0.5\ngrid = 16\ndt = 1e-3\nT = 2e-3\n",
    )
    assert main(["solve-hierarchy", "--config", hier_cfg, "--out", str(tmp_path / "h")]) == 0
    sim_cfg = _sim_cfg(tmp_path, "snapshot_format = raw\n")
    assert main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "s")]) == 0
    table = tmp_path / "h" / "gtable" / "g_1_2.f64"
    table.write_bytes(table.read_bytes()[:-8])
    met_cfg = _write_cfg(
        tmp_path, "m.cfg",
        f"snapshots = {tmp_path / 's' / 'snapshots.raw'}\ngtable = {tmp_path / 'h' / 'gtable'}\n",
    )
    capsys.readouterr()
    assert main(["metrics", "--config", met_cfg, "--out", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: table file") and "g_1_2.f64" in err
    assert err.count("\n") == 1

    # a meta.json without one of the keys the loader reads
    meta_file = tmp_path / "h" / "gtable" / "meta.json"
    meta = json.loads(meta_file.read_text())
    del meta["store_every"]
    meta_file.write_text(json.dumps(meta))
    assert main(["metrics", "--config", met_cfg, "--out", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "meta.json" in err and "'store_every'" in err
    assert err.count("\n") == 1

    # a meta.json whose grid size is a string
    meta["store_every"] = 1
    meta["M"] = "16"
    meta_file.write_text(json.dumps(meta))
    assert main(["metrics", "--config", met_cfg, "--out", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("meta.json: M is '16', expected a non-negative integer\n")
    assert err.count("\n") == 1


def test_metrics_refuses_a_renamed_table_file(tmp_path, capsys):
    # the manifest hashes meta.json and the table's *.f64 files, so an entry
    # may name only the g_{i}_{j}.f64 file save writes: a file renamed to
    # g_0_1.bin would be read but not hashed
    hier_cfg = _write_cfg(
        tmp_path, "h.cfg",
        f"kernel = {KERNEL_PATH}\ndensity_cos = 1.0, 0.5\ngrid = 16\ndt = 1e-3\nT = 2e-3\n",
    )
    assert main(["solve-hierarchy", "--config", hier_cfg, "--out", str(tmp_path / "h")]) == 0
    assert main(["simulate", "--config", _sim_cfg(tmp_path), "--out", str(tmp_path / "s")]) == 0
    gdir = tmp_path / "h" / "gtable"
    (gdir / "g_0_1.f64").rename(gdir / "g_0_1.bin")
    meta = json.loads((gdir / "meta.json").read_text())
    assert meta["entries"][0] == {"i": 0, "j": 1, "file": "g_0_1.f64"}
    meta["entries"][0]["file"] = "g_0_1.bin"
    (gdir / "meta.json").write_text(json.dumps(meta))
    message = "meta.json: entry (0, 1) names file 'g_0_1.bin', expected 'g_0_1.f64'"
    with pytest.raises(ValueError, match=re.escape(message)):
        GTable.load(gdir)
    met_cfg = _write_cfg(tmp_path, "m.cfg",
                         f"snapshots = {tmp_path / 's' / 'snapshots.raw'}\ngtable = {gdir}\n")
    capsys.readouterr()
    assert main(["metrics", "--config", met_cfg, "--out", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(message + "\n")
    assert err.count("\n") == 1
    assert not (tmp_path / "m" / "manifest.json").exists()


def test_metrics_snapshot_file_without_positions_is_a_user_error(tmp_path, capsys):
    # a header of zero times (whose size matches) holds nothing to measure
    hier_cfg = _write_cfg(
        tmp_path, "h.cfg",
        f"kernel = {KERNEL_PATH}\ndensity_cos = 1.0, 0.5\ngrid = 16\ndt = 1e-3\nT = 2e-3\n",
    )
    assert main(["solve-hierarchy", "--config", hier_cfg, "--out", str(tmp_path / "h")]) == 0
    snaps = tmp_path / "empty.raw"
    snaps.write_bytes(particles._RAW_HEADER.pack(particles._RAW_MAGIC, particles._RAW_VERSION,
                                                 8, 1, 50, 0))
    met_cfg = _write_cfg(tmp_path, "m.cfg",
                         f"snapshots = {snaps}\ngtable = {tmp_path / 'h' / 'gtable'}\n")
    capsys.readouterr()
    assert main(["metrics", "--config", met_cfg, "--out", str(tmp_path / "m")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: snapshot file {snaps} holds no positions: N = 8, replicas = 50, times = 0\n"


def test_metrics_nan_time_is_a_user_error(tmp_path, capsys):
    # a NaN time matches no snapshot: one error line, nothing written
    hier_cfg = _write_cfg(
        tmp_path, "h.cfg",
        f"kernel = {KERNEL_PATH}\ndensity_cos = 1.0, 0.5\ngrid = 16\ndt = 1e-3\nT = 2e-3\n",
    )
    assert main(["solve-hierarchy", "--config", hier_cfg, "--out", str(tmp_path / "h")]) == 0
    sim_cfg = _sim_cfg(tmp_path, "snapshot_format = raw\n")
    assert main(["simulate", "--config", sim_cfg, "--out", str(tmp_path / "s")]) == 0
    met_cfg = _write_cfg(
        tmp_path, "m.cfg",
        f"snapshots = {tmp_path / 's' / 'snapshots.raw'}\ngtable = {tmp_path / 'h' / 'gtable'}\n"
        "time = nan\n",
    )
    capsys.readouterr()
    out = tmp_path / "m"
    assert main(["metrics", "--config", met_cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: no snapshot at time nan\n"
    assert list(out.iterdir()) == []


def test_bounds_nan_time_is_a_user_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "b.cfg", "j = 4\nell_max = 6\nb = 1\nt = nan\n")
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: time must be finite") and err.count("\n") == 1


def test_bounds_nan_residual_tol_is_a_user_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "b.cfg", "j = 4\nell_max = 6\nb = 1\nresidual_tol = nan\n")
    out = tmp_path / "o"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: residual_tol must be finite and positive, got nan\n"
    assert list(out.iterdir()) == []


def test_bounds_clean_and_faulted(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "b.cfg",
                     "j = 4\nell_max = 6\nb = 1, 3\nt = 0.5\n")
    out = tmp_path / "o"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "bounds.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "j,ell,beta,t,I,poly_b,poly_bound,exp_bound,margin"
    assert len(lines) == 1 + 6 * 2
    assert json.loads((out / "manifest.json").read_text())["violations"] == 0
    assert "PASS" in capsys.readouterr().out

    faulty = _write_cfg(tmp_path, "bf.cfg",
                        "j = 16\nell_max = 64\nb = 7\nt = 0.1\ninject = 1e-3\n")
    rc = main(["bounds", "--config", faulty, "--out", str(tmp_path / "f")])
    assert rc == 1
    text = capsys.readouterr().out
    assert "violation: poly bound" in text and "FAIL" in text


def test_bounds_with_a_large_beta(tmp_path, capsys):
    # beta b t = 2100 overflows e^{beta b t}: the bound is +inf there, and holds
    cfg = _write_cfg(tmp_path, "b.cfg", "j = 1, 4\nell_max = 8\nb = 1, 7\nt = 0.1, 3.0\nbeta = 100\n")
    out = tmp_path / "o"
    assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "bounds.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert any(r.split(",")[6] == "inf" for r in rows)
    assert json.loads((out / "manifest.json").read_text())["violations"] == 0
    assert "FAIL" not in capsys.readouterr().out


_EXTREME_LATTICES = {
    "huge_t": "j = 1, 4, 16\nell_max = 16\nb = 1, 3, 7\nt = 0.1, 1e308\n",
    "huge_beta": "j = 1, 4, 16\nell_max = 16\nb = 1, 3, 7\nt = 0.1, 1.0, 3.0\nbeta = 1e300\n",
    "large_j": "j = 100000\nell_max = 2\nb = 1\nt = 1\n",
    "beta_t_past_double_range": "j = 1, 16\nell_max = 16\nb = 1, 7\nt = 0.1, 3.0\nbeta = 1e308\n",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", _EXTREME_LATTICES)
def test_bounds_at_extreme_arguments(name, tmp_path, capsys):
    # the residual quadrature once had no size limit: t = 1e308 overflowed
    # its panel count, beta = 1e300 asked for more panels than memory holds,
    # and j = 100000 built 50000 panels; beta t = 3e308 overflowed with a
    # warning; every gate must pass, silently
    cfg = _write_cfg(tmp_path, "b.cfg", _EXTREME_LATTICES[name])
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    summary = out.splitlines()
    assert len(summary) == 4 and all(": PASS over " in line for line in summary), summary


def test_bounds_leaves_numpy_polynomial_unimported(tmp_path):
    # the residual's Gauss-Legendre nodes are constants in pchaos.bounds
    code = ("import sys\nfrom pchaos.cli import main\n"
            f"rc = main(['bounds', '--config', {str(REPO_ROOT / 'configs' / 'bounds.cfg')!r}, "
            f"'--out', {str(tmp_path / 'b')!r}])\n"
            "print(rc, 'numpy.polynomial' in sys.modules)\n")
    assert fresh_python("-c", code).splitlines()[-1] == "0 False"


def _rates_smoke_cfg(tmp_path, slope_band):
    return _write_cfg(
        tmp_path, "r.cfg",
        f"kernel = {KERNEL_PATH}\n"
        "density_cos = 1.0, 0.5\n"
        "density_sin = 0.0, 0.25\n"
        "N = 4, 6, 8\n"
        "j = 1\n"
        "T = 2e-3\n"
        "dt = 1e-3\n"
        "replicas = 100\n"
        "grid = 32\n"
        "sample_grid = 64\n"
        "bins = 8\n"
        "workers = 1\n" + slope_band,
    )


def test_rates_smoke(tmp_path, capsys):
    cfg = _rates_smoke_cfg(tmp_path, "slope_lo = -1000\nslope_hi = 1000\n")
    out = tmp_path / "o"
    assert main(["rates", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "rates.csv").exists()
    text = capsys.readouterr().out
    assert "rates bias: slope" in text and "primary observable" in text


def test_rates_checks_slope_band_before_simulating(tmp_path, capsys):
    for band, message in (("slope_lo = abc\n", "key 'slope_lo' is not a number"),
                          ("slope_hi = -2\n", "slope_lo = -1.3 must be below slope_hi = -2.0"),
                          ("slope_lo = 1\nslope_hi = 1\n", "must be below")):
        out = tmp_path / "o"
        assert main(["rates", "--config", _rates_smoke_cfg(tmp_path, band), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert list(out.iterdir()) == []


def test_rates_rejects_histogram_cells_before_simulating(tmp_path, capsys):
    # the shipped rates config cut to N = 100, 25 and 60 replicas: at N = 25
    # the one-particle histogram has 32 cells for 60 * 25 / 50 = 30; this is
    # refused before any N is simulated
    text = (REPO_ROOT / "configs" / "rates.cfg").read_text(encoding="utf-8")
    lines = [line for line in text.splitlines()
             if line.split("=")[0].strip() not in ("kernel", "N", "replicas", "workers")]
    cfg = _write_cfg(tmp_path, "r.cfg", "\n".join(lines + [
        f"kernel = {KERNEL_PATH}", "N = 100, 25", "replicas = 60", "workers = 1"]) + "\n")
    assert "bins = 32" in text
    out = tmp_path / "o"
    assert main(["rates", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: too many histogram cells")
    assert "N = 25, j = 1" in err and "32^1 = 32" in err and "n/50 = 30" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("line, message", [
    ("N = 10, 20", "need at least three N values for the rate fits, got 2"),
    ("j = 1, 1", "j values must be distinct"),
    ("kernel = {tmp}/b_only.txt", "the kernel has no interaction (no nonzero khat mode m >= 1), "
     "so every 1/N correction vanishes and no rate can be fitted"),
], ids=["two_N", "repeated_j", "b_only_kernel"])
def test_rates_rejects_unfittable_configs_before_simulating(tmp_path, capsys, line, message):
    # two N cannot be fitted, a repeated j would repeat its rows, and a
    # kernel without interaction has no 1/N bias to fit, so each is refused
    # before anything runs or is written
    (tmp_path / "b_only.txt").write_text("b 1 0.5 0.0\n", encoding="utf-8")
    line = line.format(tmp=tmp_path)
    key = line.split("=")[0]
    smoke = Path(_rates_smoke_cfg(tmp_path, "")).read_text(encoding="utf-8").splitlines()
    cfg = _write_cfg(tmp_path, "bad.cfg",
                     "\n".join([k for k in smoke if not k.startswith(key)] + [line]) + "\n")
    out = tmp_path / "o"
    assert main(["rates", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("sub", ["simulate", "solve-mv", "solve-hierarchy", "metrics", "bounds",
                                 "rates"])
def test_negative_seed_is_a_user_error_in_every_command(tmp_path, capsys, sub):
    # one seed rule: a negative seed from the config or from --seed is refused
    # by name before the command reads or writes anything
    cfg = _write_cfg(tmp_path, "c.cfg", "seed = -3\n")
    out = tmp_path / "o"
    assert main([sub, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {cfg}: seed is -3, expected a nonnegative integer\n"
    cfg = _write_cfg(tmp_path, "c.cfg", "seed = 3\n")
    assert main([sub, "--config", cfg, "--out", str(out), "--seed", "-5"]) == 2
    assert capsys.readouterr().err == "error: --seed is -5, expected a nonnegative integer\n"
    assert not out.exists()


def test_missing_config_and_missing_key(tmp_path, capsys):
    rc = main(["simulate", "--config", str(tmp_path / "nope.cfg"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    incomplete = _write_cfg(tmp_path, "i.cfg", f"kernel = {KERNEL_PATH}\n")
    rc = main(["simulate", "--config", incomplete, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate", "--config", "x", "--out", "y"])


_TINY_BOUNDS = "j = 1\nell_max = 2\nb = 1\nt = 0.1\n"


def test_bounds_run_leaves_locale_unimported(tmp_path):
    # argparse's first message lookup imports gettext and then locale, ~1.6 ms
    # of a run; the command line is read without them
    cfg = _write_cfg(tmp_path, "b.cfg", _TINY_BOUNDS)
    code = ("import sys\nfrom pchaos.cli import main\n"
            f"rc = main(['bounds', '--config', {cfg!r}, '--out', {str(tmp_path / 'o')!r}])\n"
            "print(rc, [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules])\n")
    assert fresh_python("-c", code).splitlines()[-1] == "0 []"


@pytest.mark.parametrize("line, seed", [
    (["bounds", "--config=b.cfg", "--out", "o"], 7),
    (["--out", "o", "--conf", "b.cfg", "bounds"], 7),
    (["--o=o", "--s", "3", "--c", "b.cfg", "bounds"], 3),
    (["bounds", "--config", "b.cfg", "--seed", "1", "--out", "o", "--seed=4"], 4),
    (["--config", "b.cfg", "--out", "o", "--seed", " 5", "--", "bounds"], 5),
    (["bounds", "--config", "-b c.cfg", "--out", "o"], 7),
], ids=["equals", "prefix_before_command", "short_prefixes", "last_wins", "end_of_options",
        "dash_value_with_space"])
def test_command_line_forms_argparse_accepted(tmp_path, monkeypatch, capsys, line, seed):
    # each of these lines ran under argparse, and runs the same command now
    monkeypatch.chdir(tmp_path)
    for name in ("b.cfg", "-b c.cfg"):
        _write_cfg(tmp_path, name, _TINY_BOUNDS + "seed = 7\n")
    assert main(line) == 0, capsys.readouterr().err
    assert json.loads((tmp_path / "o" / "manifest.json").read_text())["seed"] == seed


@pytest.mark.parametrize("flag", ["--help", "-h", "--he"])
def test_help_goes_to_stdout_and_exits_zero(capsys, flag):
    # help is printed where it is met, before the missing options are noticed
    with pytest.raises(SystemExit) as exc:
        main(["bounds", flag])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith("usage: pchaos [-h] COMMAND --config PATH --out DIR")
    assert "commands: simulate, solve-mv, solve-hierarchy, metrics, bounds, rates" in out


@pytest.mark.parametrize("line, message", [
    (["bounds", "--bogus", "--config", "c", "--out", "o"], "unrecognized arguments: --bogus"),
    (["bounds", "--=x", "--config", "c", "--out", "o"],
     "ambiguous option: --=x could match --help, --config, --out, --seed"),
    (["bounds", "extra", "--config", "c", "--out", "o"], "unrecognized arguments: extra"),
    (["bounds", "--config", "c"], "the following arguments are required: --out"),
    (["--out", "o"], "the following arguments are required: COMMAND, --config"),
    (["bounds", "--config", "c", "--out", "o", "--seed", "x"],
     "argument --seed: invalid int value: 'x'"),
    (["bounds", "--config", "c", "--out", "o", "--seed=1.5"],
     "argument --seed: invalid int value: '1.5'"),
    (["bounds", "--config", "--out", "o"], "argument --config: expected one argument"),
    (["bounds", "--config", "c", "--out"], "argument --out: expected one argument"),
    (["bounds", "--help=x"], "argument -h/--help: ignored explicit argument 'x'"),
], ids=["unknown_option", "ambiguous_option", "stray_positional", "missing_out",
        "missing_command_and_config", "non_integer_seed", "fractional_seed", "option_as_value",
        "no_value", "help_with_value"])
def test_malformed_command_line_exits_2_with_usage(tmp_path, monkeypatch, capsys, line,
                                                  message):
    # as under argparse: the usage line and one error line on stderr, exit 2,
    # and nothing written
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(line)
    assert exc.value.code == 2 and list(tmp_path.iterdir()) == []
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("usage: pchaos [-h] COMMAND --config PATH --out DIR [--seed N]\n"
                   f"pchaos: error: {message}\n")


@pytest.mark.parametrize("sub, config, out", [
    ("bounds", lambda d: _write_cfg(d, "b.cfg", "j = 1\n"), lambda d: _write_cfg(d, "f", "")),
    ("bounds", lambda d: str(d), lambda d: str(d / "o")),
    ("solve-hierarchy", lambda d: _write_cfg(d, "h.cfg", f"kernel = {d}\ndensity_cos = 1.0\n"
                                             "dt = 1e-3\nT = 2e-3\n"), lambda d: str(d / "o")),
], ids=["out_is_a_file", "config_is_a_directory", "kernel_is_a_directory"])
def test_os_errors_are_user_errors(tmp_path, capsys, sub, config, out):
    # exit 1 is the gates' failure code, so a path that cannot be read or
    # written must exit 2 with one line, not a traceback
    assert main([sub, "--config", config(tmp_path), "--out", out(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("sub", ["simulate", "solve-hierarchy"])
def test_kernel_mode_past_the_cap_is_a_user_error(tmp_path, capsys, sub):
    # the coefficient tables are dense, so this mode would ask for ~800 GB
    kernel = _write_cfg(tmp_path, "k.txt", "b 1 0.5 0.0\nkhat 100000000000 1 0\n")
    cfg = _write_cfg(tmp_path, "c.cfg", f"kernel = {kernel}\ndensity_cos = 1.0, 0.5\n"
                     "N = 8\ndt = 1e-3\nT = 2e-3\nreplicas = 2\ngrid = 32\n")
    assert main([sub, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: kernel line 2: mode 100000000000 exceeds") and err.count("\n") == 1
