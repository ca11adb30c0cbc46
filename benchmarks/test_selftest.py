"""Self-test of the benchmark: a tiny pass of every workload and a fault control.

    python -m pytest benchmarks

Run from the root of a checkout.  Each workload runs one repetition at the
"tiny" sizes; every metric named in BENCHMARK.json must come back with its
unit and sample count.  A certify config with inject = 1e-3, which the
program must reject, must count as a failed repetition instead of crashing
the benchmark.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.E2E)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: unit for name, (unit, _) in wl.LAYER_METRICS.items()
    }


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_tiny_pass_reports_every_end_to_end_metric(name):
    result, report = run.run(ROOT, wl.WORKLOADS[name](5, "tiny"), 5, 0.0, False, "tiny")
    assert result["attempted"] == 1
    assert result["failed"] == 0, report["repetitions"][0]["problems"]
    assert set(result["metrics"]) == set(run.E2E)
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
        assert report["end_to_end"][m["name"]]["n"] == 1
        assert report["end_to_end_raw"][m["name"]]["median"] > 0
    rep = report["repetitions"][0]
    assert rep["scale"] > 0 and all(n >= 1 for n in rep["probe_samples"].values())
    assert report["status_pass"]["simulate"]["rc"] == 0


def test_tiny_traced_pass_reports_every_layer_metric():
    result, report = run.run(ROOT, wl.ensemble(5, "tiny"), 5, 0.0, True, "tiny")
    assert result["attempted"] == 2 and result["failed"] == 0
    assert set(result["metrics"]) == set(wl.LAYER_METRICS)
    for m in SPEC["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    for name, value in wl.counts("tiny").items():
        assert result["metrics"][name]["value"] == value
    assert "particles.run_ensemble" in report["self_time"]
    assert report["traced_end_to_end"]["wall_s"]["n"] == 1


def test_injected_fault_is_a_failed_repetition():
    result, report = run.run(ROOT, wl.certify(5, "tiny", inject=1e-3), 5, 0.0, False, "tiny")
    assert result["attempted"] == 1 and result["failed"] == 1
    assert not result["correct"]
    assert report["repetitions"][0]["problems"][0].startswith("bounds: exit 1")
