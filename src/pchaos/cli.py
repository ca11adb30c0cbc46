"""Command-line entry point: simulate, solve, compare, certify.

Every subcommand takes --config (flat key=value text), --out (a directory it
will create), and an optional --seed overriding the config seed:

    pchaos COMMAND --config PATH --out DIR [--seed N]

The line is read by _parse, not argparse.  The grammar is fixed and small,
and on a 2-core x86 machine argparse cost every run ~4 ms to import, with
the gettext it loads, and ~2.5 ms to build and run its parser, most of that
the `import locale` its first message lookup triggers; _parse takes ~0.03 ms.
_parse accepts every line argparse accepted: options before or after
COMMAND, `--opt value` or `--opt=value`, a unique prefix of an option name
(`--conf`), a value that starts with "-" where it is a number (`--seed -5`)
or holds a space, a repeated option (the last one wins), and "--" ending
the options.  -h/--help prints the help to stdout and exits 0; a malformed
line prints the usage line and one "pchaos: error: ..." line to stderr and
raises SystemExit(2).

Outputs are CSV/JSON plus a manifest recording the config hash and seed so
any row can be reproduced from the pair.  The seed, from --seed or the
config, is a nonnegative integer in every command.  A user error (a bad or missing config
value, an input the package rejects, a file that cannot be read or written, a
solve over its memory budget or an allocation the machine cannot meet, a
density driven negative) exits 2 with one line on stderr; exit 1 is left to
the rates and bounds gates.  An interrupt, SIGINT or SIGTERM, exits 128 plus
the signal's number with one line on stderr.

Process policy: while a command runs, main() turns SIGTERM into the
interrupt path (KeyboardInterrupt) and restores the previous handler when it
returns.  So a terminated command kills and reaps the workers it forked
through particles._Shares, whose docstring sets out how they take tasks
and report: simulate's and the rate driver's replica blocks, the rate
driver's chain-moment table and, from order 2 on, solve-hierarchy's
top-arity entry.  `rates` records its run as failed with the rows
of every finished N.  Each such child also dies with its parent, so a
SIGKILLed command leaves no child either.  The solve-hierarchy manifest
records whether the solve ran in one process or two, and which entry the
child stepped; it is a record of the CPUs the run could use, not an option.

This module also owns the process when it is imported before numpy, as by
`python -m pchaos.cli` or the `pchaos` script.  It then sets two things
that a process which has already loaded numpy (a library caller, the test
suite) keeps as it has them:

- BLAS runs on the calling thread.  Every product in the package is sized for
  one thread (see operators._EntrySolver), so numpy's OpenBLAS worker pool
  only costs: the pool starts when numpy loads, spins ~0.1 CPU-s before it
  first sleeps, and in the children forked from this process its threads
  compete with the other processes for the same cores.  So
  OPENBLAS_NUM_THREADS defaults to 1 before numpy loads, the only time
  OpenBLAS reads it; a value the user set is kept.
- The collector leaves alone what the imports made.  Those ~23k objects
  live until exit, so after its imports this module calls gc.freeze(), which
  moves them out of the collected generations.  Every full collection, the
  ones the interpreter runs at exit included (~7 ms apiece over the imports
  alone), then walks only what the command made.  Objects made after the
  freeze are collected as before.  The forked children start from that
  frozen heap, so no collection in them walks, and so copies, the imports'
  pages.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import re
import signal
import sys
import threading
from pathlib import Path

_OWNS_PROCESS = "numpy" not in sys.modules
if _OWNS_PROCESS:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from .config import Config, ConfigError, _write_csv, _write_manifest, load_config
from .core import KernelSpec, TorusGrid, fourier_field, product_field, step_count
from .experiments import ExperimentConfig, run_bounds_report, run_rate_experiment
from .metrics import divergence_report_from_samples, histogram_bins
from .particles import SimConfig, SnapshotSet, extract_marginal_samples, run_ensemble
from .partitions import max_asymmetry
from .pde import (GTable, NegativeDensityError, TimeGrid, _cfl_margin, _entry_apart,
                  solve_g_hierarchy, solve_mckean_vlasov)

if _OWNS_PROCESS:
    gc.freeze()

__all__ = ["main"]


def _density_from_config(cfg: Config, grid_key: str = "grid", default_grid: int = 64):
    grid = TorusGrid(cfg.get_int(grid_key, default_grid))
    return fourier_field(grid, cfg.get_float_list("density_cos"),
                         cfg.get_float_list("density_sin", []))


def _seed(cfg: Config, override) -> int:
    """The run's seed: --seed when given, else the config's seed (default 0)."""
    seed = override if override is not None else cfg.get_int("seed", 0)
    if seed < 0:
        where = "--seed" if override is not None else f"{cfg.source}: seed"
        raise ConfigError(f"{where} is {seed}, expected a nonnegative integer")
    return seed


def _hashed_text(cfg: Config, kernel_text: str | None = None) -> str:
    """The config's canonical text, then the text of the kernel file it names.

    The kernel is part of the input, so the manifest hash covers it, as in
    ExperimentConfig.canonical_text.  kernel_text is that file's text when
    the caller has read it; otherwise it is read here.  Each command builds
    its hash text before it runs, so an input changed during the run does
    not change the hash.
    """
    text = cfg.canonical_text()
    if kernel_text is None and cfg.has("kernel"):
        kernel_text = Path(cfg.get_str("kernel")).read_text(encoding="utf-8")
    return text if kernel_text is None else text + "\nkernel:\n" + kernel_text


def _hashed_kernel(cfg: Config) -> tuple[str, KernelSpec]:
    """The hash text of a command that runs the config's kernel, and that kernel.

    The file is read once and the kernel parsed from the text the hash
    covers, so a file rewritten during the run cannot run under the hash
    of another kernel.
    """
    kernel_text = Path(cfg.get_str("kernel")).read_text(encoding="utf-8")
    return _hashed_text(cfg, kernel_text), KernelSpec.from_text(kernel_text)


def _file_digests(paths) -> str:
    """One 'sha256  name' line per input file, so a manifest hash covers the bytes read."""
    return "".join(f"\n{hashlib.sha256(Path(p).read_bytes()).hexdigest()}  {p}" for p in paths)


def _gtable_inputs(gdir: Path) -> list:
    """meta.json of a saved table, then the files it lists in name order:
    the files GTable.load reads, taken from meta.json before the load."""
    meta_file = gdir / "meta.json"
    with open(meta_file, "r", encoding="utf-8") as fh:
        meta = json.load(fh)
    entries = meta.get("entries") if isinstance(meta, dict) else None
    if not isinstance(entries, list):
        entries = []  # the load refuses this meta.json and says why
    files = {ent["file"] for ent in entries if isinstance(ent, dict) and isinstance(ent.get("file"), str)}
    return [meta_file, *(gdir / name for name in sorted(files))]


def _time_grid(cfg: Config) -> TimeGrid:
    dt = cfg.get_float("dt")
    return TimeGrid(dt, step_count(cfg.get_float("T"), dt), cfg.get_int("store_every", 1))


def _max_mass_drift(rho: np.ndarray, grid: TorusGrid) -> float:
    """Largest |mass - 1| of a density over its stored times (the rows of rho)."""
    return max(abs(grid.h * row.sum() - 1.0) for row in rho)


def _solve_health(rho: np.ndarray, kernel: KernelSpec, grid: TorusGrid, tg: TimeGrid) -> dict:
    """Manifest fields of a solve: its CFL margin (null with no transport) and rho's minimum.

    The minimum is over rho's stored rows, with the stored time it falls at.
    """
    margin = _cfl_margin(grid, kernel, tg)
    s = int(rho.min(axis=1).argmin())
    return {"cfl_margin": margin if math.isfinite(margin) else None,
            "min_density": float(rho[s].min()), "min_density_time": float(tg.stored_times[s])}


def _cmd_simulate(cfg: Config, out: Path, seed: int) -> int:
    # settings whose other values no prediction or reader of this package supports
    if cfg.get_int("d", 1) != 1:
        raise ConfigError("d must be 1: particles live on the one-dimensional torus")
    if not cfg.get_bool("self_interaction", True):
        raise ConfigError("self_interaction must be true: every prediction includes the k = j term")
    if cfg.get_str("snapshot_format", "raw") != "raw":
        raise ConfigError("snapshot_format must be raw, the format metrics reads")
    hashed, kernel = _hashed_kernel(cfg)
    density = _density_from_config(cfg, "sample_grid", 256)
    sim = SimConfig(
        N=cfg.get_int("N"),
        dt=cfg.get_float("dt"),
        T=cfg.get_float("T"),
        n_replicas=cfg.get_int("replicas", 1),
        base_seed=seed,
        kernel=kernel,
        initial_density=density,
    )
    times = cfg.get_float_list("output_times", [sim.T])
    run_ensemble(sim, times).to_raw(out / "snapshots.raw")
    _write_manifest(out, hashed, sim.base_seed, n_replicas=sim.n_replicas, N=sim.N)
    print(f"simulate: {sim.n_replicas} replicas of N={sim.N} to t={sim.T} -> {out}")
    return 0


def _cmd_solve_mv(cfg: Config, out: Path, seed: int) -> int:
    hashed, kernel = _hashed_kernel(cfg)
    density = _density_from_config(cfg)
    grid = density.grid
    tg = _time_grid(cfg)
    rho = solve_mckean_vlasov(density, kernel, tg)
    _write_csv(out / "rho.csv", ("t", "x", "value"),
               ({"t": t, "x": x, "value": v} for t, vals in zip(tg.stored_times, rho)
                for x, v in zip(grid.points, vals)))
    drift = _max_mass_drift(rho, grid)
    _write_manifest(out, hashed, seed, max_mass_drift=drift, **_solve_health(rho, kernel, grid, tg))
    print(f"solve-mv: M={grid.M}, {tg.n_steps} steps, max mass drift {drift:.3e}")
    return 0


def _cmd_solve_hierarchy(cfg: Config, out: Path, seed: int) -> int:
    hashed, kernel = _hashed_kernel(cfg)
    density = _density_from_config(cfg)
    tg = _time_grid(cfg)
    i_max = cfg.get_int("order", 1)
    apart = _entry_apart(i_max)
    gt = solve_g_hierarchy(i_max, density, kernel, tg)
    gt.save(out / "gtable")
    asymmetry = {f"g_{i}_{j}": max(max_asymmetry(gt.field(i, j, s)) for s in range(gt.n_stored))
                 for i, j in sorted(gt.entries)}
    # how the solve was stepped: in one process, or with the entry apart in a forked child
    _write_manifest(out, hashed, seed, i_max=i_max, entries=len(gt.entries),
                    processes=1 if apart is None else 2,
                    child_entry=None if apart is None else "g_{}_{}".format(*apart),
                    max_mass_drift=_max_mass_drift(gt.entries[(0, 1)], gt.grid),
                    max_asymmetry=asymmetry, **_solve_health(gt.entries[(0, 1)], kernel, gt.grid, tg))
    print(f"solve-hierarchy: order {i_max}, {len(gt.entries)} entries -> {out / 'gtable'}")
    return 0


def _cmd_metrics(cfg: Config, out: Path, seed: int) -> int:
    gdir = Path(cfg.get_str("gtable"))
    inputs = [cfg.get_str("snapshots"), *_gtable_inputs(gdir)]
    hashed = _hashed_text(cfg) + _file_digests(inputs)
    snaps = SnapshotSet.from_raw(cfg.get_str("snapshots"))
    gt = GTable.load(gdir)
    t = cfg.get_float("time", float(snaps.times[-1]))
    # written so that a NaN time matches nothing
    tidx = int(np.argmin(np.abs(snaps.times - t)))
    if not abs(snaps.times[tidx] - t) <= 1e-9:
        raise ConfigError(f"no snapshot at time {t}")
    sidx = int(np.argmin(np.abs(gt.times - t)))
    if not abs(gt.times[sidx] - t) <= 1e-9:
        raise ConfigError(f"no solved density at time {t}")
    rho = gt.field(0, 1, sidx)
    bins = cfg.get_int("bins", 32)
    results = {}
    for j in cfg.get_int_list("j", [1]):
        ref = product_field(rho, j)
        samples, rep = extract_marginal_samples(snaps.at_time(tidx), j, True)
        report = divergence_report_from_samples(
            samples, ref, histogram_bins(bins, j), rep, seed=seed
        )
        path = out / f"divergence_j{j}.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
        results[f"j{j}"] = report.chi_squared
        print(f"metrics j={j}: chi2 {report.chi_squared:.4e} (se {report.se_chi_squared:.2e})")
    _write_manifest(out, hashed, seed, time=t, chi_squared=results)
    return 0


def _cmd_bounds(cfg: Config, out: Path, seed: int) -> int:
    hashed = _hashed_text(cfg)
    report = run_bounds_report(
        j_list=cfg.get_int_list("j", [1, 4, 16]),
        ell_max=cfg.get_int("ell_max", 64),
        b_list=cfg.get_int_list("b", [1, 3, 7]),
        t_list=cfg.get_float_list("t", [0.1, 1.0, 3.0]),
        beta=cfg.get_float("beta", 1.0),
        out_csv=out / "bounds.csv",
        inject=cfg.get_float("inject", 0.0),
        residual_tol=cfg.get_float("residual_tol", 1e-6),
    )
    for line in report.summary:
        print(line)
    for v in report.violations[:20]:
        print("violation:", v)
    if len(report.violations) > 20:
        print(f"... and {len(report.violations) - 20} more")
    _write_manifest(out, hashed, seed, violations=len(report.violations))
    return 0 if report.ok else 1


def _cmd_rates(cfg: Config, out: Path, seed: int) -> int:
    lo = cfg.get_float("slope_lo", -1.3)
    hi = cfg.get_float("slope_hi", -0.7)
    if not lo < hi:
        raise ConfigError(f"slope_lo = {lo} must be below slope_hi = {hi}")
    ecfg = ExperimentConfig.from_config(cfg, str(out), seed)
    result = run_rate_experiment(ecfg)
    ok = True
    for name, fit in result.fits.items():
        inside = lo <= fit.slope <= hi
        ok = ok and inside
        print(
            f"rates {name}: slope {fit.slope:+.3f} +- {fit.slope_se:.3f} "
            f"({'PASS' if inside else 'FAIL'} for [{lo}, {hi}])"
        )
    for N in sorted(result.ratios):
        print(f"rates ratio at N={N}: {result.ratios[N]:+.3f}")
    print(f"rates: primary observable {result.primary}, rows -> {result.csv_path}")
    return 0 if ok else 1


_COMMANDS = {
    "simulate": _cmd_simulate,
    "solve-mv": _cmd_solve_mv,
    "solve-hierarchy": _cmd_solve_hierarchy,
    "metrics": _cmd_metrics,
    "bounds": _cmd_bounds,
    "rates": _cmd_rates,
}


_USAGE = "usage: pchaos [-h] COMMAND --config PATH --out DIR [--seed N]\n"
_HELP = _USAGE + f"""
Interacting-particle simulation, mean-field solvers, and bound certification.

commands: {", ".join(_COMMANDS)}

options:
  -h, --help     show this help message and exit
  --config PATH  flat key=value config file
  --out DIR      output directory
  --seed N       override the config seed (an integer)
"""
_OPTIONS = ("--help", "--config", "--out", "--seed")
_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _usage_error(message: str):
    sys.stderr.write(f"{_USAGE}pchaos: error: {message}\n")
    raise SystemExit(2)


def _options_named(token: str):
    """The options token could name, or None when it is a value.

    argparse's rule: a token that does not start with "-", or that names no
    option and is a negative number or holds a space, is a value.  An
    option is named by any prefix of its name, with or without "=value".
    """
    if not token.startswith("-") or token == "-":
        return None
    if token == "-h":
        return ["--help"]
    name = token.partition("=")[0]
    matches = [o for o in _OPTIONS if o.startswith(name)] if name.startswith("--") else []
    if not matches and (_NUMBER.fullmatch(token) or " " in token):
        return None
    return matches


def _parse(argv) -> tuple:
    """(command, config, out, seed) from one command line; seed is None when not given.

    See the module docstring for the grammar.  The tokens are read in
    order, so -h exits before a later error does, and each option's value
    is checked as it is read.
    """
    command = None
    values = {}
    tokens = iter(argv)
    options_done = False
    for token in tokens:
        if token == "--" and not options_done:
            options_done = True
            continue
        options = None if options_done else _options_named(token)
        if options is None:
            if command is not None:
                _usage_error(f"unrecognized arguments: {token}")
            if token not in _COMMANDS:
                _usage_error(f"argument COMMAND: invalid choice: {token!r} "
                             f"(choose from {', '.join(_COMMANDS)})")
            command = token
            continue
        if len(options) != 1:
            _usage_error(f"ambiguous option: {token} could match {', '.join(options)}"
                         if options else f"unrecognized arguments: {token}")
        option = options[0]
        _, has_value, value = token.partition("=")
        if option == "--help":
            if has_value:
                _usage_error(f"argument -h/--help: ignored explicit argument {value!r}")
            sys.stdout.write(_HELP)
            raise SystemExit(0)
        if not has_value:
            value = next(tokens, None)
            if value is None or value == "--" or _options_named(value) is not None:
                _usage_error(f"argument {option}: expected one argument")
        if option == "--seed":
            try:
                value = int(value)
            except ValueError:
                _usage_error(f"argument --seed: invalid int value: {value!r}")
        values[option] = value
    missing = [name for name, given in (("COMMAND", command is not None),
                                        ("--config", "--config" in values),
                                        ("--out", "--out" in values)) if not given]
    if missing:
        _usage_error(f"the following arguments are required: {', '.join(missing)}")
    return command, values["--config"], values["--out"], values.get("--seed")


def _interrupt(signum, frame):
    raise KeyboardInterrupt(signal.Signals(signum).name)


def main(argv=None) -> int:
    command, config, out, seed = _parse(sys.argv[1:] if argv is None else argv)
    # SIGTERM takes the interrupt path while the command runs (see the module
    # docstring); only the main thread may set a handler
    main_thread = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _interrupt) if main_thread else None
    try:
        cfg = load_config(config)
        seed = _seed(cfg, seed)
        out = Path(out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[command](cfg, out, seed)
    except (OSError, ValueError, MemoryError, NegativeDensityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt as exc:
        name = exc.args[0] if exc.args == ("SIGTERM",) else "SIGINT"
        print(f"error: interrupted by {name}", file=sys.stderr)
        return 128 + signal.Signals[name]
    finally:
        if main_thread:
            signal.signal(signal.SIGTERM, signal.SIG_DFL if previous is None else previous)


if __name__ == "__main__":
    sys.exit(main())
