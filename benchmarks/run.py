"""Benchmark of the pchaos command-line tool.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it needs src/pchaos, kernels/ and
configs/ there, and exits with code 2 when they are missing.

Each workload (see workloads.py and BENCHMARK.json) is a closed loop with one
client: it runs the workload's CLI commands one after another, each in a fresh
interpreter as users run the tool, and starts the next repetition only when
the last one has ended, until S seconds have passed.  Every repetition's
outputs are checked.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json with --trace 0 (the median of each over the repetitions, with
timings scaled to a reference machine speed; see SpeedProbe), the per-layer
metrics with --trace 1.

The traced run alternates untraced and traced repetitions (the traced child
records spans around public pchaos calls; see child.py), reports self time per
span name and the tracing overhead, then times each layer (layers.py).

Before measuring, an untimed status pass runs simulate, solve-mv and
solve-hierarchy on the shipped configs/*.cfg and metrics on their outputs; it
records each exit status and stays out of the failure count.  A full report
(quartiles, sample counts, environment, load averages, status pass, spans)
goes to benchmarks/work/<workload>-seed<N>-trace<T>/report.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"
LAYERS = BENCH_DIR / "layers.py"
CHILD_TIMEOUT_S = 60  # one CLI command; a normal one takes under 10 s
LAYERS_TIMEOUT_S = 120
# End-to-end metrics; the result line reports each one's median over the run's
# repetitions (the report keeps quartiles, min, max and n as well).
E2E = ("wall_s", "setup_s", "throughput", "cpu_s", "peak_rss_mb")
# Timings are reported at a reference machine speed.  On a shared 2-core
# machine the same code runs up to 1.6x slower for seconds at a time and up to
# 1.8x slower for minutes, and wall, CPU and set-up times move together.  So
# while a repetition runs, a thread pinned to each CPU times a fixed piece of
# work over and over (SpeedProbe), and the set-up and the rest of each command
# are scaled by the busy-weighted mean of reference.json's probe_s over the
# samples taken meanwhile.  The slow spells are per CPU: a probe on a
# single-threaded command's own CPU tracked its time with correlation 0.95,
# one on the other CPU with 0.38, and a probe timed between commands made the
# spread wider.  The report keeps the raw figures as well.
PROBE_PERIOD_S = 0.05  # probe work (~2 ms) is done once per period: ~4% of each CPU
PROBE_LOOP = 10_000  # interpreter work, as in mpmath, imports and per-replica loops
PROBE_FFT = 5  # 2-d FFT round trips on a 32 x 32 grid, as in the hierarchy solver
# Shipped configs for the status pass; each pair runs concurrently, untimed.
STATUS_PASS = (
    (("simulate", "simulate.cfg", "results/simulate"),
     ("solve-hierarchy", "solve.cfg", "results/solve")),
    (("solve-mv", "solve.cfg", "results/mv"),
     ("metrics", "metrics.cfg", "results/metrics")),
)
STATUS_SKIPPED = {
    "bounds": "left out for cost: ~31 s per run on a 2-core machine",
    "rates": "left out for cost: ~40 core-minutes per run",
}


class Child:
    """One child process with its own stdout/stderr files and process group."""

    def __init__(self, args, cwd: Path, env: dict, log_stem: Path, t0: float):
        self.t0 = t0
        self.err_path = log_stem.with_suffix(".err")
        with open(log_stem.with_suffix(".out"), "wb") as out, open(self.err_path, "wb") as err:
            self.proc = subprocess.Popen(args, cwd=cwd, env=env, stdout=out, stderr=err,
                                         start_new_session=True)

    def wait(self, timeout: float) -> dict:
        """Reap the child with wait4, whose rusage covers this child alone."""
        timer = threading.Timer(timeout, self._kill)
        timer.start()
        try:
            _, status, ru = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - self.t0
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._kill()  # anything the child left behind in its process group
        lines = self.err_path.read_text(encoding="utf-8", errors="replace").splitlines()
        return {
            "rc": self.proc.returncode,
            "wall_s": wall,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "peak_rss_mb": ru.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB
            "stderr": lines[0] if lines else "",
        }

    def _kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


def cpu_busy(cpu: int) -> int:
    """Busy jiffies of one CPU since boot, from /proc/stat; 0 where unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            for line in fh:
                name, *ticks = line.split()
                if name == f"cpu{cpu}":
                    user, nice, system, _idle, _iowait, irq, softirq = map(int, ticks[:7])
                    return user + nice + system + irq + softirq
    except (OSError, ValueError):
        pass
    return 0


class SpeedProbe:
    """Samples the speed of each CPU while children run, from threads of this process.

    One thread is pinned to each CPU this process may use.  Each sample is the
    thread CPU time of a fixed mix of interpreter and FFT work, so time spent
    waiting for the CPU while a child holds it does not count.  Each sample is
    weighted by its CPU's busy time since the one before, so a single-threaded
    child is judged by the CPU it ran on at that moment.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.grid = np.random.default_rng(0).random((32, 32))
        self.cpus = sorted(os.sched_getaffinity(0))
        self.samples = {cpu: [] for cpu in self.cpus}  # (monotonic, busy jiffies, seconds)
        self.stop = threading.Event()
        self.threads = [threading.Thread(target=self._run, args=(cpu,), daemon=True)
                        for cpu in self.cpus]

    def _sample(self) -> float:
        t0 = time.thread_time()
        acc = 0.0
        for i in range(PROBE_LOOP):
            acc += (i % 7) * 0.5
        for _ in range(PROBE_FFT):
            self.np.fft.irfft2(self.np.fft.rfft2(self.grid), self.grid.shape)
        return time.thread_time() - t0

    def _run(self, cpu: int) -> None:
        os.sched_setaffinity(0, {cpu})  # pid 0: this thread alone
        busy = cpu_busy(cpu)
        while True:
            seconds = self._sample()
            now = cpu_busy(cpu)
            self.samples[cpu].append((time.monotonic(), now - busy, seconds))
            busy = now
            if self.stop.wait(PROBE_PERIOD_S):
                return

    def __enter__(self):
        for t in self.threads:
            t.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop.set()
        for t in self.threads:
            t.join()

    def scale(self, reference_s: float, start: float = -math.inf,
              end: float = math.inf) -> float:
        """The children's speed from start to end (monotonic), relative to reference_s.

        That is the busy-weighted mean of reference_s / sample over the samples
        taken in the interval; over all samples if none of those has weight, and
        unweighted if /proc/stat is not readable.
        """
        every = [s for cpu in self.cpus for s in self.samples[cpu]]
        for pool in ([s for s in every if start <= s[0] <= end], every):
            weight = sum(w for _, w, _ in pool)
            if weight > 0:
                return sum(w * reference_s / secs for _, w, secs in pool) / weight
        return statistics.fmean(reference_s / secs for _, _, secs in every)


def quartiles(values) -> dict:
    vals = sorted(values)
    if len(vals) == 1:
        q1 = q3 = vals[0]
    else:
        q1, _, q3 = statistics.quantiles(vals, n=4)
    return {"median": statistics.median(vals), "q1": q1, "q3": q3, "min": vals[0],
            "max": vals[-1], "n": len(vals)}


class Bench:
    def __init__(self, root: Path, workload: wl.Workload, run_dir: Path):
        self.root = root
        self.w = workload
        self.run_dir = run_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.reference = json.loads((BENCH_DIR / "reference.json").read_text())
        self.w.write(run_dir, (root / "kernels" / "default.txt").read_text(encoding="utf-8"))
        self.n_commands = 0

    def command(self, cmd: wl.Command, trace_id) -> dict:
        self.n_commands += 1
        stem = self.run_dir / "logs" / f"{self.n_commands:04d}-{cmd.sub}"
        stem.parent.mkdir(exist_ok=True)
        report = stem.with_suffix(".json")
        t0 = time.monotonic()
        head = [str(report), repr(t0)] + ([trace_id] if trace_id else [])
        args = [sys.executable, str(CHILD), *head, "--",
                cmd.sub, "--config", cmd.config, "--out", cmd.out]
        rec = Child(args, self.run_dir, self.env, stem, t0).wait(CHILD_TIMEOUT_S)
        rec.update(cmd=cmd.sub, t0=t0)
        try:
            child = json.loads(report.read_text())
        except (OSError, ValueError):
            child = {"import_s": None, "setup_s": None, "spans": []}
        rec.update(import_s=child["import_s"], setup_s=child["setup_s"], spans=child["spans"])
        return rec

    def repetition(self, index: int, trace: bool = False) -> dict:
        for cmd in self.w.commands:
            shutil.rmtree(self.run_dir / cmd.out, ignore_errors=True)
        load_before = os.getloadavg()
        trace_id = f"{self.w.name}-{index}" if trace else None
        cmds = []
        with SpeedProbe() as probe:
            for cmd in self.w.commands:
                cmds.append(self.command(cmd, trace_id))
                if cmds[-1]["rc"] != 0:
                    break
        load_after = os.getloadavg()
        bad = [c for c in cmds if c["rc"] != 0 or c["setup_s"] is None]
        if bad:
            problems = [f"{c['cmd']}: exit {c['rc']} {c['stderr']}".strip() for c in bad]
        else:
            try:
                problems = self.w.check(self.run_dir, self.reference)
            except Exception as exc:  # a broken output is a failed repetition
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        wall = sum(c["wall_s"] for c in cmds)
        setup = sum(c["setup_s"] or 0.0 for c in cmds)
        # each command's set-up and the rest of it, at the speed the probe saw then
        ref = self.reference["probe_s"]
        ref_setup = ref_rest = ref_cpu = 0.0
        for c in cmds:
            ready, end = c["t0"] + (c["setup_s"] or 0.0), c["t0"] + c["wall_s"]
            ref_setup += (ready - c["t0"]) * probe.scale(ref, c["t0"], ready)
            ref_rest += (end - ready) * probe.scale(ref, ready, end)
            ref_cpu += c["cpu_s"] * probe.scale(ref, c["t0"], end)
        return {
            "index": index, "traced": trace, "ok": not problems, "problems": problems,
            "wall_s": wall, "setup_s": setup,
            "throughput": self.w.work / (wall - setup) if wall > setup else 0.0,
            "cpu_s": sum(c["cpu_s"] for c in cmds),
            "peak_rss_mb": max(c["peak_rss_mb"] for c in cmds),
            "at_reference": {"wall_s": ref_setup + ref_rest, "setup_s": ref_setup,
                             "throughput": self.w.work / ref_rest if ref_rest > 0 else 0.0,
                             "cpu_s": ref_cpu},
            "scale": probe.scale(ref),
            "probe_samples": {cpu: len(v) for cpu, v in probe.samples.items()},
            "loadavg_before": load_before, "loadavg_after": load_after,
            "commands": cmds,
        }

    def loop(self, seconds: float, traced_too: bool) -> list:
        """Closed loop: repeat until `seconds` have passed (at least once)."""
        reps = []
        end = time.monotonic() + seconds
        while not reps or time.monotonic() < end:
            reps.append(self.repetition(len(reps)))
            if traced_too:
                reps.append(self.repetition(len(reps), trace=True))
        return reps

    def status_pass(self) -> dict:
        """Shipped configs, unmodified, from a directory laid out like the repo."""
        cwd = self.run_dir / "status"
        shutil.rmtree(cwd, ignore_errors=True)
        shutil.copytree(self.root / "kernels", cwd / "kernels")
        out = {}
        for group in STATUS_PASS:
            children = []
            for sub, cfg, dest in group:
                args = [sys.executable, "-m", "pchaos.cli", sub,
                        "--config", str(self.root / "configs" / cfg), "--out", dest]
                children.append((sub, cfg, Child(args, cwd, self.env, cwd / sub, time.monotonic())))
            for sub, cfg, child in children:
                rec = child.wait(CHILD_TIMEOUT_S)
                out[sub] = {"config": f"configs/{cfg}", "rc": rec["rc"], "stderr": rec["stderr"]}
        out["skipped"] = STATUS_SKIPPED
        return out


def summarize(reps: list, scaled: bool = True) -> dict:
    """Statistics of each end-to-end metric, timings at the reference speed if scaled."""
    return {m: quartiles([r["at_reference"][m] if scaled and m in r["at_reference"] else r[m]
                          for r in reps]) for m in E2E}


def self_times(reps: list) -> dict:
    """Self time per span name, per traced repetition: duration minus children."""
    traced = [r for r in reps if r["traced"]]
    agg = {}
    for rep in traced:
        for cmd in rep["commands"]:
            spans = cmd["spans"]
            child_time = [0.0] * len(spans)
            for s in spans:
                if s["parent"] is not None and "end" in s:
                    child_time[s["parent"]] += s["end"] - s["start"]
            for s, kids in zip(spans, child_time):
                if "end" not in s:
                    continue
                a = agg.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                a["calls"] += 1
                a["total_s"] += s["end"] - s["start"]
                a["self_s"] += s["end"] - s["start"] - kids
    n = max(len(traced), 1)
    return {k: {"calls": v["calls"] / n, "total_s": v["total_s"] / n, "self_s": v["self_s"] / n}
            for k, v in sorted(agg.items(), key=lambda kv: -kv[1]["self_s"])}


def environment(root: Path) -> dict:
    import numpy as np

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    rev = None
    if (root / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
        rev = got.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_revision": rev,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_start": os.getloadavg(),
    }


def layer_metrics(bench: Bench, reps: list, size: str) -> dict:
    out_path = bench.run_dir / "layers.json"
    t0 = time.monotonic()
    child = Child([sys.executable, str(LAYERS), str(out_path), str(bench.run_dir / "layers"),
                   size], bench.root, bench.env, bench.run_dir / "layers", t0)
    rec = child.wait(LAYERS_TIMEOUT_S)
    if rec["rc"] != 0:
        raise RuntimeError(f"layer timings failed: exit {rec['rc']} {rec['stderr']}")
    values = json.loads(out_path.read_text())["values"]
    values.update(wl.counts(size))
    traced = [r for r in reps if r["traced"]]
    imports = [c["import_s"] for r in reps for c in r["commands"] if c["import_s"] is not None]
    values["cli.import_s"] = statistics.median(imports)
    untraced = [r for r in reps if not r["traced"]]
    values["trace.overhead_s"] = (summarize(traced)["wall_s"]["median"]
                                  - summarize(untraced)["wall_s"]["median"])
    values["trace.spans"] = sum(len(c["spans"]) for c in traced[0]["commands"])
    return values


def run(root: Path, workload: wl.Workload, seed: int, seconds: float, trace: bool,
        size: str = "full") -> tuple:
    """Measure one workload; returns (result line, full report)."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    run_dir = BENCH_DIR / "work" / f"{workload.name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    bench = Bench(root, workload, run_dir)
    report = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
              "size": size, "loop": "closed, one client",
              "work_per_repetition": {"value": workload.work, "unit": workload.work_unit},
              "environment": environment(root)}
    report["status_pass"] = bench.status_pass()
    t0 = time.monotonic()
    reps = bench.loop(seconds, traced_too=trace)
    report["measured_s"] = time.monotonic() - t0
    report["probe"] = {"reference_s": bench.reference["probe_s"],
                       "scale": quartiles([r["scale"] for r in reps])}
    failed = sum(not r["ok"] for r in reps)
    report["failed_frac"] = failed / len(reps)
    report["repetitions"] = reps
    untraced = [r for r in reps if not r["traced"]]
    report["end_to_end"] = summarize(untraced)
    report["end_to_end_raw"] = summarize(untraced, scaled=False)
    if trace:
        report["traced_end_to_end"] = summarize([r for r in reps if r["traced"]])
        report["self_time"] = self_times(reps)
        values = layer_metrics(bench, reps, size)
        values["failed_frac"] = report["failed_frac"]
        wanted = spec["per_layer"]
        report["per_layer"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"],
                                           "moves": wl.LAYER_METRICS[m["name"]][1]}
                               for m in wanted}
    else:
        values = {m: report["end_to_end"][m]["median"] for m in E2E}
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed,
              "metrics": metrics}
    report["result"] = result
    report["path"] = str((run_dir / "report.json").relative_to(root))
    (run_dir / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return result, report


def print_summary(report: dict) -> None:
    print(f"workload {report['workload']} seed {report['seed']}: "
          f"{len(report['repetitions'])} repetitions, failed_frac {report['failed_frac']}")
    for name, st in report["status_pass"].items():
        if name != "skipped":
            print(f"status {name} ({st['config']}): exit {st['rc']} {st['stderr']}".rstrip())
    for rep in report["repetitions"]:
        for p in rep["problems"]:
            print(f"repetition {rep['index']} failed: {p}")
    scale = report["probe"]["scale"]
    print(f"speed probe: timings scaled by {scale['min']:.4g} to {scale['max']:.4g}, "
          f"median {scale['median']:.4g}")
    for m, q in report["end_to_end"].items():
        raw = report["end_to_end_raw"][m]
        print(f"{m}: median {q['median']:.6g} [q1 {q['q1']:.6g}, q3 {q['q3']:.6g}] n={q['n']}, "
              f"raw median {raw['median']:.6g}")
    for name, st in list(report.get("self_time", {}).items())[:12]:
        print(f"self {name}: {st['self_s']:.4f} s over {st['calls']:g} calls")
    for name, m in report.get("per_layer", {}).items():
        print(f"layer {name}: {m['value']:.6g} {m['unit']} [{m['moves']}]")
    print(f"report: {report['path']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = Path.cwd()
    missing = [p for p in ("BENCHMARK.json", "src/pchaos/cli.py", "kernels/default.txt",
                           "configs") if not (root / p).exists()]
    if missing:
        print(f"error: run from the root of a pchaos checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        print("error: --seed must be nonnegative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workload = wl.WORKLOADS[args.workload](args.seed)
    result, report = run(root, workload, args.seed, args.seconds, bool(args.trace))
    print_summary(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
