"""Per-layer timings: each metric times a call into one public pchaos function.

    python benchmarks/layers.py OUT_JSON WORK_DIR [full|tiny]

Run from the root of a checkout with src/ on PYTHONPATH.  Writes
{metric: value} for every name in workloads.LAYER_METRICS except those that
run.py fills in itself (cli.import_s, the work counts and the trace figures).
Private names, and names the roadmap plans to delete, are never timed, so a
later optimisation does not have to edit this file.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from pchaos.core import GridField, KernelSpec, TorusGrid, fourier_field
from pchaos.experiments import ExperimentConfig, run_bounds_report, run_rate_experiment
from pchaos.bounds import eval_I_table, recurrence_residual_sweep
from pchaos.metrics import chi_squared_from_samples, divergence_report_from_samples
from pchaos.particles import (SimConfig, SnapshotSet, em_step, extract_marginal_samples,
                              pair_drift, run_ensemble, sample_initial)
from pchaos.pde import GTable, TimeGrid, solve_g_hierarchy

import workloads

# Layer sizes: "full" keeps the whole file near 30 s on a 2-core machine.
SIZES = {
    "full": {"ens_R": 16, "ens_T": 0.05, "rate_R": (80, 240), "rate_T": 0.05,
             "o2_m64_steps": 4, "o1_m64_steps": 100, "ell_max": 32, "repeat": 5},
    "tiny": {"ens_R": 2, "ens_T": 0.005, "rate_R": (40, 80), "rate_T": 0.005,
             "o2_m64_steps": 1, "o1_m64_steps": 2, "ell_max": 4, "repeat": 1},
}
DT = workloads.DT


def timed(fn, repeat: int) -> float:
    """Median wall seconds of repeat calls of fn()."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def particle_layers(kernel, density, work: Path, z: dict) -> dict:
    out = {}
    rep = z["repeat"]
    R, T = z["ens_R"], z["ens_T"]
    cfg = SimConfig(N=64, dt=DT, T=T, n_replicas=R, base_seed=1, kernel=kernel,
                    initial_density=density)
    steps = round(T / DT)
    out["particles.run_ensemble.us_per_replica_step"] = (
        timed(lambda: run_ensemble(cfg, [T]), max(1, rep // 2)) / (R * steps) * 1e6)

    rng = np.random.Generator(np.random.Philox(1))
    x64 = sample_initial(density, 64, rng)
    calls = 1000
    out["particles.pair_drift.fast.us.n64"] = timed(
        lambda: [pair_drift(kernel, x64, True, "fast") for _ in range(calls)], rep) / calls * 1e6

    x = rng.random((600, 100))
    drift = rng.standard_normal((600, 100))
    noise = rng.standard_normal((600, 100))
    out["particles.em_step.ns_per_particle"] = timed(
        lambda: [em_step(x, drift, DT, noise) for _ in range(100)], rep) / (100 * x.size) * 1e9

    n = 100_000
    out["particles.sample_initial.ns_per_particle"] = timed(
        lambda: sample_initial(density, n, rng), rep) / n * 1e9

    p = workloads.SIZES["full"]["ensemble"]
    snaps = SnapshotSet(np.array([0.0, 0.1, 0.2]), rng.random((p["R"], 3, p["N"], 1)))
    path = work / "layer_snapshots.raw"
    mb = workloads.snapshot_bytes(p) / 1e6
    out["particles.snapshot.write_mb_s"] = mb / timed(lambda: snaps.to_raw(path), rep)
    out["particles.snapshot.read_mb_s"] = mb / timed(lambda: SnapshotSet.from_raw(path), rep)
    return out


def rate_layers(work: Path, kernel_path: str, z: dict, size: str) -> dict:
    p = workloads.SIZES[size]["rates"]

    def experiment(R, T, workers, j):
        return ExperimentConfig(
            kernel_path=kernel_path, density_cos=(1.0, 0.5), density_sin=(), N_list=p["N"],
            j_list=j, order=1, T=T, dt=DT, replicas=R, seed=1, grid=64, sample_grid=256,
            bins=p["bins"], out_dir=str(work / "layer_rates"), workers=workers)

    out = {}
    # j = 1 only: the pair histogram needs more replicas than these fits use; the
    # one-particle histogram needs R * min(N) >= 50 * bins
    (r1, r2), T = z["rate_R"], z["rate_T"]
    rep = max(1, z["repeat"] // 2)
    t1 = timed(lambda: run_rate_experiment(experiment(r1, T, 1, (1,))), rep)
    t2 = timed(lambda: run_rate_experiment(experiment(r2, T, 1, (1,))), rep)
    per_replica = (t2 - t1) / (r2 - r1)
    out["experiments.rate.us_per_replica_step"] = (
        per_replica / (round(T / DT) * len(p["N"])) * 1e6)
    out["experiments.rate.plan_s"] = t1 - per_replica * r1

    # parallel efficiency on the rates workload's sizes, over half its horizon
    R, T = p["R"], p["T"] / 2
    w1 = timed(lambda: run_rate_experiment(experiment(R, T, 1, (1, 2))), 1)
    w2 = timed(lambda: run_rate_experiment(experiment(R, T, workloads.RATES_WORKERS, (1, 2))), 1)
    out["experiments.rate.parallel_efficiency"] = w1 / (workloads.RATES_WORKERS * w2)
    return out


def pde_layers(kernel, work: Path, z: dict, size: str) -> dict:
    out = {}

    def per_step(order, M, steps, store_every):
        f = fourier_field(TorusGrid(M), [1.0, 0.5])
        tg = TimeGrid(DT, steps, store_every)
        c0, t0 = time.process_time(), time.perf_counter()
        gt = solve_g_hierarchy(order, f, kernel, tg)
        wall = time.perf_counter() - t0
        return gt, wall / steps * 1e3, (time.process_time() - c0) / wall

    # the hierarchy workload's solve (order 2, M=32), so its table is pde.gtable_bytes
    h = workloads.SIZES[size]["hierarchy"]
    gt, ms, cpu_per_wall = per_step(h["order"], h["M"], round(h["T"] / DT), h["store_every"])
    out["pde.solve_g_hierarchy.ms_per_step.o2_m32"] = ms
    out["pde.solve_g_hierarchy.cpu_per_wall.o2_m32"] = cpu_per_wall
    out["pde.solve_g_hierarchy.ms_per_step.o2_m64"] = per_step(2, 64, z["o2_m64_steps"], 1)[1]
    out["pde.solve_g_hierarchy.ms_per_step.o1_m64"] = per_step(1, 64, z["o1_m64_steps"], 1)[1]

    path = work / "layer_gtable"
    mb = workloads.gtable_bytes(h) / 1e6
    out["pde.gtable.save_mb_s"] = mb / timed(lambda: gt.save(path), z["repeat"])
    out["pde.gtable.load_mb_s"] = mb / timed(lambda: GTable.load(path), z["repeat"])
    return out


def metrics_layers(z: dict) -> dict:
    out = {}
    rep = z["repeat"]
    rng = np.random.Generator(np.random.Philox(2))
    density = fourier_field(TorusGrid(64), [1.0, 0.5])
    grid = density.grid
    pair_ref = GridField(grid, 2, np.multiply.outer(density.values, density.values))
    # as the ensemble workload's metrics command calls it: R=100 replicas of N=64
    p = workloads.SIZES["full"]["ensemble"]
    pos = sample_initial(density, p["R"] * p["N"], rng).reshape(p["R"], p["N"], 1)
    for j, ref, bins in ((1, density, p["bins"]), (2, pair_ref, p["bins"] // 4)):
        samples, rep_ids = extract_marginal_samples(pos, j, True)
        out[f"metrics.divergence_report.ms.j{j}"] = timed(
            lambda: divergence_report_from_samples(samples, ref, bins, rep_ids, seed=1), rep) * 1e3
    # as the rate experiment calls it at its largest N
    r = workloads.SIZES["full"]["rates"]
    xs = sample_initial(density, r["R"] * r["N"][-1], rng).reshape(r["R"], r["N"][-1], 1)
    samples, rep_ids = extract_marginal_samples(xs, 2, True)
    out["metrics.chi_squared_from_samples.ms.j2"] = timed(
        lambda: chi_squared_from_samples(samples, pair_ref, r["bins"] // 4, rep_ids, seed=1),
        rep) * 1e3
    return out


def bounds_layers(work: Path, z: dict, size: str) -> dict:
    out = {}
    ell = z["ell_max"]
    for j in (1, 4, 16):
        out[f"bounds.eval_I_table.ms.j{j}"] = timed(
            lambda: eval_I_table(j, ell, 1.0, [1.0]), 1) * 1e3
    out["bounds.recurrence_residual_sweep.ms.j16"] = timed(
        lambda: recurrence_residual_sweep(ell, 16, 1.0, 1.0), 1) * 1e3
    c = workloads.SIZES[size]["certify"]
    out["experiments.run_bounds_report.s"] = timed(
        lambda: run_bounds_report(c["j"], c["ell_max"], c["b"], c["t"],
                                  out_csv=work / "layer_bounds.csv"), 1)
    return out


def main(argv) -> int:
    out_path, work = Path(argv[0]), Path(argv[1])
    size = argv[2] if len(argv) > 2 else "full"
    z = SIZES[size]
    work.mkdir(parents=True, exist_ok=True)
    kernel_path = str(work / workloads.KERNEL_FILE)
    Path(kernel_path).write_text(Path("kernels/default.txt").read_text(encoding="utf-8"),
                                 encoding="utf-8")
    kernel = KernelSpec.from_file(kernel_path)
    density = fourier_field(TorusGrid(256), [1.0, 0.5])
    values = {}
    sections = (
        ("particles", lambda: particle_layers(kernel, density, work, z)),
        ("pde", lambda: pde_layers(kernel, work, z, size)),
        ("metrics", lambda: metrics_layers(z)),
        ("bounds", lambda: bounds_layers(work, z, size)),
        ("experiments", lambda: rate_layers(work, kernel_path, z, size)),
    )
    section_s = {}
    for name, fn in sections:
        t0 = time.perf_counter()
        values.update(fn())
        section_s[name] = time.perf_counter() - t0
    out_path.write_text(json.dumps({"values": values, "section_s": section_s}, indent=1),
                        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
