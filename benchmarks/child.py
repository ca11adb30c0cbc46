"""Run one pchaos CLI command in this fresh interpreter and record its set-up time.

    python benchmarks/child.py REPORT T0 [RUN_ID] -- <pchaos CLI arguments>

Set-up is what every CLI process pays before it does any work: interpreter
start, `import pchaos.cli`, and loading the command's config and kernel.  T0
is the parent's CLOCK_MONOTONIC reading taken just before it started this
process (the clock is shared by all processes), so interpreter start counts.

With RUN_ID, the public functions of the pchaos modules listed in TRACED are
wrapped so that each call records a span (name, start, end, parent, run id).
Spans stay in memory and are written to REPORT when the command ends.  The
wrappers are installed after set-up is measured, and only in this process:
functions called inside the rate experiment's pool workers are not wrapped.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# Layer boundaries: public calls made by the CLI and by pchaos.experiments.
# Per-step functions (pair_drift, em_step, sample_initial) are left out: they
# run millions of times and wrapping them would measure the wrapper.
TRACED = {
    "pchaos.config": ["load_config"],
    "pchaos.core": ["KernelSpec.from_file", "fourier_field"],
    "pchaos.particles": ["run_ensemble", "extract_marginal_samples",
                         "SnapshotSet.to_raw", "SnapshotSet.from_raw"],
    "pchaos.pde": ["solve_mckean_vlasov", "solve_g_hierarchy", "GTable.save", "GTable.load"],
    "pchaos.metrics": ["divergence_report_from_samples", "chi_squared_from_samples",
                       "paired_pair_cumulant_difference", "weighted_l2_error"],
    "pchaos.bounds": ["eval_I_table", "recurrence_residual_sweep", "poly_bound", "exp_bound"],
    "pchaos.experiments": ["ExperimentConfig.from_config", "run_rate_experiment",
                           "run_bounds_report", "fit_rate"],
}


class Tracer:
    """In-memory span recorder; parents come from the stack of open spans."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.stack = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append({"id": sid, "name": name, "parent": parent, "run": self.run_id,
                           "start": time.monotonic()})
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid]["end"] = time.monotonic()
        self.stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return traced

    def install(self) -> None:
        """Replace every traced function wherever a pchaos module holds it."""
        for modname, names in TRACED.items():
            mod = sys.modules[modname]
            short = modname.split(".", 1)[1]
            for name in names:
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    raw = inspect.getattr_static(cls, meth)
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self.wrap(f"{short}.{name}", raw.__func__)))
                    else:
                        setattr(cls, meth, self.wrap(f"{short}.{name}", raw))
                    continue
                orig = getattr(mod, name)
                wrapped = self.wrap(f"{short}.{name}", orig)
                for other in list(sys.modules.values()):
                    if getattr(other, "__name__", "").startswith("pchaos") and \
                            getattr(other, name, None) is orig:
                        setattr(other, name, wrapped)


def main(argv) -> int:
    sep = argv.index("--")
    head, cli_args = argv[:sep], argv[sep + 1:]
    report_path, t0 = head[0], float(head[1])
    run_id = head[2] if len(head) > 2 else None

    import pchaos.cli
    from pchaos.config import load_config
    from pchaos.core import KernelSpec

    t_import = time.monotonic()
    try:
        cfg = load_config(cli_args[cli_args.index("--config") + 1])
        if cfg.has("kernel"):
            KernelSpec.from_file(cfg.get_str("kernel"))
    except (ValueError, OSError):
        pass  # the CLI reports the same error below, with its own exit code
    t_ready = time.monotonic()

    tracer = Tracer(run_id) if run_id is not None else None
    if tracer is not None:
        tracer.install()
    rc = 1
    try:
        if tracer is None:
            rc = pchaos.cli.main(cli_args)
        else:
            sid = tracer.open(f"cli.{cli_args[0]}")
            try:
                rc = pchaos.cli.main(cli_args)
            finally:
                tracer.close(sid)
    finally:
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump({"t0": t0, "import_s": t_import - t0, "setup_s": t_ready - t0,
                       "spans": tracer.spans if tracer else []}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
