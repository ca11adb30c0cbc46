"""Alternating benchmark pairs of two checkouts, and the gain rule on their results.

    python3 tools/pairs.py --base DIR --change DIR --workload W --pairs K \
        --seconds T [--seed S] [--log FILE]
    python3 tools/pairs.py --summarize FILE

The first form runs K pairs of `python3 benchmarks/run.py --workload W --seed
S+i --seconds T`, one in each checkout, both with PYTHONDONTWRITEBYTECODE=1
so that neither tree gains bytecode the other lacks.  Pair i uses seed S+i,
and its base run goes first when that seed is even, so the order alternates
by seed.  Every run's result line (the last line of its stdout, one JSON
object) goes to the log as one JSON line {"tree", "seed", "result"},
appended as it comes, so an interrupted series keeps what it ran.  The
second form summarizes such a log.

For each end-to-end metric of the base checkout's BENCHMARK.json the summary
prints both medians, the base's interquartile range (statistics.quantiles,
as benchmarks/run.py takes its quartiles), the pairs the change won (ties
count for neither side), whether the gain rule holds (the change wins at
least nine tenths of the pairs and its median is better than the base's by
more than the base's interquartile range) and a verdict by the metric's
no-regression bound (its `bound`, a fraction of the base's median): "worse"
when the change's median is worse than the base's by more than the bound,
else "unresolved" when the base's interquartile range is wider than the
bound, unless every change run beats every base run, else "ok".  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def _quartile_gap(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(records: list, metrics: list) -> list:
    """One row per end-to-end metric from the log records of a series.

    records are {"tree": "base" | "change", "seed", "result"} dicts, each
    result a benchmarks/run.py result line whose metrics map a name to
    {"value", "unit"}; runs of one seed form a pair, and a seed with only
    one side is left out.
    metrics are BENCHMARK.json's end_to_end entries (name, better, bound).
    A row holds the metric's name, both medians, the base's interquartile
    range, the change's wins, the pair count, whether the gain rule holds
    and the verdict of the bound.
    """
    sides = {}
    for rec in records:
        sides.setdefault(rec["seed"], {})[rec["tree"]] = {
            k: v["value"] for k, v in rec["result"]["metrics"].items()}
    pairs = [(s["base"], s["change"]) for _, s in sorted(sides.items()) if len(s) == 2]
    rows = []
    for metric in metrics:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        both = [(b[name], c[name]) for b, c in pairs if name in b and name in c]
        if not both:
            continue
        base, change = [b for b, _ in both], [c for _, c in both]
        wins = sum(sign * (c - b) > 0 for b, c in both)
        median_b, median_c = statistics.median(base), statistics.median(change)
        iqr = _quartile_gap(base)
        gain = 10 * wins >= 9 * len(both) and sign * (median_c - median_b) > iqr
        bound = metric["bound"] * abs(median_b)
        if sign * (median_c - median_b) < -bound:
            verdict = "worse"
        elif iqr > bound and min(sign * c for c in change) <= max(sign * b for b in base):
            verdict = "unresolved"
        else:
            verdict = "ok"
        rows.append({"metric": name, "base": median_b, "change": median_c, "base_iqr": iqr,
                     "wins": wins, "pairs": len(both), "gain": gain, "verdict": verdict})
    return rows


def format_rows(rows: list) -> str:
    lines = [f"{'metric':<12} {'base':>12} {'change':>12} {'change %':>9} {'base IQR':>11} "
             f"{'wins':>7}  {'verdict':<10}  gain"]
    for r in rows:
        pct = 100.0 * (r["change"] - r["base"]) / r["base"] if r["base"] else float("nan")
        lines.append(f"{r['metric']:<12} {r['base']:>12.6g} {r['change']:>12.6g} {pct:>+8.2f}% "
                     f"{r['base_iqr']:>11.4g} {r['wins']:>3}/{r['pairs']:<3}  "
                     f"{r['verdict']:<10}  {'yes' if r['gain'] else 'no'}")
    return "\n".join(lines)


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{tree}: benchmarks/run.py exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _read_log(path: Path) -> list:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _end_to_end(tree: Path) -> list:
    return json.loads((tree / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--workload")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--log", type=Path, help="JSON lines of every run (default: pairs-W.jsonl)")
    ap.add_argument("--summarize", type=Path, help="summarize this log and run nothing")
    args = ap.parse_args(argv)
    if args.summarize:
        tree = args.base or Path.cwd()
        print(format_rows(summarize(_read_log(args.summarize), _end_to_end(tree))))
        return 0
    if not (args.base and args.change and args.workload):
        ap.error("--base, --change and --workload are required unless --summarize is given")
    log = args.log or Path(f"pairs-{args.workload}.jsonl")
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    for seed in range(args.seed, args.seed + args.pairs):
        order = ("base", "change") if seed % 2 == 0 else ("change", "base")
        for tree in order:
            result = _run(trees[tree], args.workload, seed, args.seconds)
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"tree": tree, "seed": seed, "result": result}) + "\n")
            print(f"seed {seed} {tree}: " + ", ".join(
                f"{k} {v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    print(format_rows(summarize(_read_log(log), _end_to_end(trees["base"]))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
