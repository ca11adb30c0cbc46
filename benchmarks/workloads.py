"""The benchmark's four workloads: generated configs, work counts and output checks.

Every workload is a list of pchaos CLI commands whose configs are generated
here from the benchmark seed; the shipped `configs/` are never used as-is.
Sizes are fixed (the seed only picks random streams), so work counts are the
same for every seed and repeat exactly between runs.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

KERNEL_FILE = "kernel.txt"  # copy of the stock kernels/default.txt in each run directory
DENSITY_COS = "1.0, 0.5"  # rho_0 = 1 + 0.5 cos(2 pi x), as in the shipped configs
SNAPSHOT_HEADER_BYTES = 32  # struct "<4sIIIII8x" heading every raw snapshot file
HIERARCHY_ENTRIES = {1: ((0, 1), (1, 1), (1, 2)),
                     2: ((0, 1), (1, 1), (1, 2), (2, 1), (2, 2), (2, 3))}
BOOTSTRAP_RESAMPLES = 200  # the CLI's metrics command uses the library default

# "full" is what the benchmark measures; "tiny" is the self-test's quick pass.
SIZES = {
    "full": {
        "ensemble": {"N": 64, "R": 200, "T": 0.2, "M": 64, "bins": 32},
        "hierarchy": {"order": 2, "M": 32, "T": 0.1, "store_every": 50},
        "rates": {"N": (25, 50, 100), "R": 600, "T": 0.2, "bins": 32},
        "certify": {"j": (1, 4, 16), "ell_max": 16, "b": (1, 3, 7), "t": (0.1, 1.0, 3.0)},
    },
    "tiny": {
        "ensemble": {"N": 8, "R": 50, "T": 0.01, "M": 16, "bins": 8},
        "hierarchy": {"order": 2, "M": 8, "T": 0.01, "store_every": 5},
        "rates": {"N": (10, 20, 40), "R": 200, "T": 0.02, "bins": 8},
        "certify": {"j": (1, 4), "ell_max": 4, "b": (1, 3), "t": (0.1, 3.0)},
    },
}
DT = 1e-3

# Per-layer metrics of the traced run: metric -> (unit, which end-to-end metric
# and workload it should move).
LAYER_METRICS = {
    "particles.run_ensemble.us_per_replica_step": ("us", "throughput, wall_s on ensemble"),
    "particles.pair_drift.fast.us.n64": ("us", "throughput on ensemble"),
    "particles.em_step.ns_per_particle": ("ns", "throughput on ensemble and rates"),
    "particles.sample_initial.ns_per_particle": ("ns", "wall_s on ensemble"),
    "particles.snapshot.write_mb_s": ("MB/s", "wall_s on ensemble"),
    "particles.snapshot.read_mb_s": ("MB/s", "wall_s on ensemble"),
    "experiments.rate.us_per_replica_step": ("us", "throughput on rates"),
    "experiments.rate.plan_s": ("s", "wall_s on rates"),
    "experiments.rate.parallel_efficiency": ("ratio", "wall_s, cpu_s on rates"),
    "pde.solve_g_hierarchy.ms_per_step.o2_m32": ("ms", "throughput on hierarchy"),
    "pde.solve_g_hierarchy.cpu_per_wall.o2_m32": ("ratio", "cpu_s on hierarchy"),
    "pde.solve_g_hierarchy.ms_per_step.o2_m64": ("ms", "throughput on hierarchy"),
    "pde.solve_g_hierarchy.ms_per_step.o1_m64": ("ms", "wall_s on ensemble and rates"),
    "pde.gtable.save_mb_s": ("MB/s", "wall_s on hierarchy and ensemble"),
    "pde.gtable.load_mb_s": ("MB/s", "wall_s on hierarchy and ensemble"),
    "metrics.divergence_report.ms.j1": ("ms", "wall_s on ensemble"),
    "metrics.divergence_report.ms.j2": ("ms", "wall_s on ensemble"),
    "metrics.chi_squared_from_samples.ms.j2": ("ms", "wall_s on rates"),
    "bounds.eval_I_table.ms.j1": ("ms", "wall_s on certify"),
    "bounds.eval_I_table.ms.j4": ("ms", "wall_s on certify"),
    "bounds.eval_I_table.ms.j16": ("ms", "wall_s on certify"),
    "bounds.recurrence_residual_sweep.ms.j16": ("ms", "wall_s, throughput on certify"),
    "experiments.run_bounds_report.s": ("s", "throughput on certify"),
    "cli.import_s": ("s", "setup_s on all four workloads"),
    "ensemble.particle_steps": ("count", "base of throughput on ensemble"),
    "rates.particle_steps": ("count", "base of throughput on rates"),
    "hierarchy.entry_steps": ("count", "base of throughput on hierarchy"),
    "certify.lattice_points": ("count", "base of throughput on certify"),
    "particles.snapshot_bytes": ("count", "base of particles.snapshot.*_mb_s"),
    "pde.gtable_bytes": ("count", "base of pde.gtable.*_mb_s"),
    "metrics.bootstrap_resamples": ("count", "base of metrics.divergence_report.*"),
    "failed_frac": ("fraction", "share of repetitions that failed; 0 when correct"),
    "trace.overhead_s": ("s", "traced minus untraced wall_s of this workload"),
    "trace.spans": ("count", "spans recorded in one traced repetition"),
}

RATES_WORKERS = 2  # the rate experiment's process pool; never more than the cores


@dataclass(frozen=True)
class Command:
    sub: str  # CLI subcommand
    config: str  # config file name in the run directory
    out: str  # output directory, relative to the run directory


@dataclass
class Workload:
    name: str
    commands: list
    configs: dict  # config file name -> text
    work: float  # units of work in one repetition
    work_unit: str
    size: str
    params: dict

    def write(self, run_dir: Path, kernel_text: str) -> None:
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / KERNEL_FILE).write_text(kernel_text, encoding="utf-8")
        for name, text in self.configs.items():
            (run_dir / name).write_text(text, encoding="utf-8")

    def check(self, run_dir: Path, reference: dict) -> list:
        """Problems found in the outputs of one repetition (empty when correct)."""
        return _CHECKS[self.name](self, run_dir, reference)


def _lines(**kv) -> str:
    out = []
    for k, v in kv.items():
        if isinstance(v, (tuple, list)):
            v = ", ".join(str(x) for x in v)
        out.append(f"{k} = {v}")
    return "\n".join(out) + "\n"


def _steps(T: float) -> int:
    return round(T / DT)


def ensemble(seed: int, size: str = "full") -> Workload:
    p = SIZES[size]["ensemble"]
    T = p["T"]
    sim = _lines(kernel=KERNEL_FILE, density_cos=DENSITY_COS, N=p["N"], dt=DT, T=T,
                 replicas=p["R"], seed=seed, output_times=(0.0, T / 2, T),
                 snapshot_format="raw", sample_grid=256)
    solve = _lines(kernel=KERNEL_FILE, density_cos=DENSITY_COS, grid=p["M"], dt=DT, T=T,
                   store_every=_steps(T) // 2, order=1, seed=seed)
    metrics = _lines(snapshots="sim/snapshots.raw", gtable="solve/gtable", j=(1, 2),
                     bins=p["bins"], time=T, seed=seed)
    return Workload(
        "ensemble",
        [Command("simulate", "simulate.cfg", "sim"),
         Command("solve-hierarchy", "solve.cfg", "solve"),
         Command("metrics", "metrics.cfg", "metrics")],
        {"simulate.cfg": sim, "solve.cfg": solve, "metrics.cfg": metrics},
        float(p["N"] * p["R"] * _steps(T)), "particle-steps", size, p,
    )


def hierarchy(seed: int, size: str = "full") -> Workload:
    p = SIZES[size]["hierarchy"]
    cfg = _lines(kernel=KERNEL_FILE, density_cos=DENSITY_COS, grid=p["M"], dt=DT, T=p["T"],
                 store_every=p["store_every"], order=p["order"], seed=seed)
    entries = len(HIERARCHY_ENTRIES[p["order"]])
    return Workload(
        "hierarchy",
        [Command("solve-hierarchy", "hierarchy.cfg", "hier")],
        {"hierarchy.cfg": cfg},
        float(entries * _steps(p["T"])), "entry-steps", size, p,
    )


def rates(seed: int, size: str = "full") -> Workload:
    p = SIZES[size]["rates"]
    workers = min(RATES_WORKERS, os.cpu_count() or 1)
    cfg = _lines(kernel=KERNEL_FILE, density_cos=DENSITY_COS, N=p["N"], j=(1, 2), order=1,
                 T=p["T"], dt=DT, replicas=p["R"], seed=seed, grid=64, sample_grid=256,
                 bins=p["bins"], workers=workers)
    return Workload(
        "rates",
        [Command("rates", "rates.cfg", "rates")],
        {"rates.cfg": cfg},
        float(sum(p["N"]) * p["R"] * _steps(p["T"])), "particle-steps", size, p,
    )


def certify(seed: int, size: str = "full", inject: float = 0.0) -> Workload:
    p = SIZES[size]["certify"]
    cfg = _lines(j=p["j"], ell_max=p["ell_max"], b=p["b"], t=p["t"], beta=1.0,
                 inject=inject, residual_tol=1e-6, seed=seed)
    return Workload(
        "certify",
        [Command("bounds", "bounds.cfg", "bounds")],
        {"bounds.cfg": cfg},
        float(lattice_points(p)), "lattice-points", size, p,
    )


WORKLOADS = {"ensemble": ensemble, "hierarchy": hierarchy, "rates": rates, "certify": certify}


def lattice_points(p: dict) -> int:
    return len(p["j"]) * p["ell_max"] * len(p["t"])


def snapshot_bytes(p: dict) -> int:
    return SNAPSHOT_HEADER_BYTES + 8 * 3 + 8 * p["R"] * 3 * p["N"]


def gtable_bytes(p: dict) -> int:
    n_stored = _steps(p["T"]) // p["store_every"] + 1
    return 8 * n_stored * sum(p["M"] ** j for _, j in HIERARCHY_ENTRIES[p["order"]])


def counts(size: str = "full") -> dict:
    """Work counts of the workloads, computed from their inputs alone."""
    s = SIZES[size]
    ens, rat, hier = s["ensemble"], s["rates"], s["hierarchy"]
    return {
        "ensemble.particle_steps": ens["N"] * ens["R"] * _steps(ens["T"]),
        "rates.particle_steps": sum(rat["N"]) * rat["R"] * _steps(rat["T"]),
        "hierarchy.entry_steps": len(HIERARCHY_ENTRIES[hier["order"]]) * _steps(hier["T"]),
        "certify.lattice_points": lattice_points(s["certify"]),
        "particles.snapshot_bytes": snapshot_bytes(ens),
        "pde.gtable_bytes": gtable_bytes(hier),
        "metrics.bootstrap_resamples": BOOTSTRAP_RESAMPLES * 2,
    }


def hierarchy_functionals(gt) -> dict:
    """Final-time functionals of every entry: L2 norm and first cosine moment."""
    import numpy as np

    h = gt.grid.h
    x = gt.grid.points
    out = {}
    for (i, j), arr in sorted(gt.entries.items()):
        g = arr[-1]
        c = np.cos(2 * np.pi * x)
        proj = g
        for _ in range(j):
            proj = proj @ c * h  # contract the last axis against cos(2 pi x)
        out[f"{i},{j}"] = {"l2": math.sqrt(float((g * g).sum()) * h ** j), "cos1": float(proj)}
    return out


def _check_ensemble(w: Workload, run_dir: Path, reference: dict) -> list:
    import numpy as np
    from pchaos.particles import SnapshotSet

    p = w.params
    problems = []
    snaps = SnapshotSet.from_raw(run_dir / "sim" / "snapshots.raw")
    if snaps.positions.shape != (p["R"], 3, p["N"], 1):
        problems.append(f"snapshot shape {snaps.positions.shape}")
    x = snaps.positions
    if not (np.all(np.isfinite(x)) and np.all(x >= 0.0) and np.all(x < 1.0)):
        problems.append("positions outside [0, 1)")
    for j in (1, 2):
        rep = json.loads((run_dir / "metrics" / f"divergence_j{j}.json").read_text())
        chi2, se = rep["chi_squared"], rep["se_chi_squared"]
        if not (math.isfinite(chi2) and math.isfinite(se) and abs(chi2) <= 5 * se):
            problems.append(f"j={j}: chi2 {chi2!r} not within 5 se ({se!r})")
    return problems


def _check_hierarchy(w: Workload, run_dir: Path, reference: dict) -> list:
    import numpy as np
    from pchaos.partitions import max_asymmetry
    from pchaos.pde import GTable

    p = w.params
    tol = reference["invariant_tol"]
    problems = []
    path = run_dir / "hier" / "gtable"
    gt = GTable.load(path)
    if sorted(gt.entries) != sorted(HIERARCHY_ENTRIES[p["order"]]):
        return [f"entries {sorted(gt.entries)}"]
    size = sum(f.stat().st_size for f in path.glob("g_*.f64"))
    if size != gtable_bytes(p):
        problems.append(f"gtable holds {size} bytes, expected {gtable_bytes(p)}")
    h = gt.grid.h
    for (i, j), arr in gt.entries.items():
        if not np.all(np.isfinite(arr)):
            problems.append(f"entry ({i},{j}) not finite")
            continue
        if (i, j) == (0, 1):
            drift = float(np.max(np.abs(arr.sum(axis=1) * h - 1.0)))
            if drift > tol:
                problems.append(f"mass drift {drift:.3e}")
            continue
        for c in range(1, j + 1):
            worst = float(np.max(np.abs(arr.sum(axis=c) * h)))
            if worst > tol:
                problems.append(f"marginal {c} of ({i},{j}) is {worst:.3e}")
        for s in range(gt.n_stored):
            asym = max_asymmetry(gt.field(i, j, s))
            if asym > tol:
                problems.append(f"asymmetry of ({i},{j}) at store {s} is {asym:.3e}")
    ref = reference["hierarchy"].get(w.size)
    if ref is None:
        return problems + [f"no recorded functionals for size {w.size}"]
    rtol, atol = reference["functional_rtol"], reference["functional_atol"]
    got = hierarchy_functionals(gt)
    for key, vals in ref.items():
        for name, want in vals.items():
            have = got[key][name]
            if not abs(have - want) <= rtol * max(abs(want), abs(have)) + atol:
                problems.append(f"({key}) {name} = {have!r}, recorded {want!r}")
    return problems


def _check_rates(w: Workload, run_dir: Path, reference: dict) -> list:
    manifest = json.loads((run_dir / "rates" / "manifest.json").read_text())
    if manifest.get("status") != "complete":
        return [f"manifest status {manifest.get('status')!r}"]
    return []


def _check_certify(w: Workload, run_dir: Path, reference: dict) -> list:
    p = w.params
    problems = []
    manifest = json.loads((run_dir / "bounds" / "manifest.json").read_text())
    if manifest.get("violations") != 0:
        problems.append(f"{manifest.get('violations')} violations")
    with open(run_dir / "bounds" / "bounds.csv", newline="", encoding="utf-8") as fh:
        rows = sum(1 for _ in csv.DictReader(fh))
    want = lattice_points(p) * len(p["b"])
    if rows != want:
        problems.append(f"bounds.csv has {rows} rows, expected {want}")
    return problems


_CHECKS = {
    "ensemble": _check_ensemble,
    "hierarchy": _check_hierarchy,
    "rates": _check_rates,
    "certify": _check_certify,
}
