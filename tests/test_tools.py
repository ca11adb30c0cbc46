"""tools/pairs.py: the gain rule on canned benchmark result lines."""
import importlib.util
import json

import pytest

from conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location("pairs", REPO_ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

END_TO_END = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def _line(throughput: float, wall: float) -> dict:
    """A result line of benchmarks/run.py with two of its metrics."""
    return {"correct": True, "attempted": 4, "failed": 0,
            "metrics": {"throughput": {"value": throughput, "unit": "1/s"},
                        "wall_s": {"value": wall, "unit": "s"}}}


def _records(base: list, change: list) -> list:
    return ([{"tree": "base", "seed": s, "result": r} for s, r in enumerate(base)]
            + [{"tree": "change", "seed": s, "result": r} for s, r in enumerate(change)])


def _rows(records) -> dict:
    return {row["metric"]: row for row in pairs.summarize(records, END_TO_END)}


def test_a_clear_gain_holds_the_rule():
    # ten pairs: the change wins every throughput pair by ~6% against a base
    # spread of ~1%, and loses every wall_s pair (higher is worse there)
    base = [_line(1.0e7 + 1e4 * k, 2.0) for k in range(10)]
    change = [_line(1.06e7 + 1e4 * k, 2.1) for k in range(10)]
    rows = _rows(_records(base, change))
    assert set(rows) == {"throughput", "wall_s"}
    t = rows["throughput"]
    assert (t["wins"], t["pairs"], t["gain"]) == (10, 10, True)
    assert t["base"] == pytest.approx(1.0045e7) and t["change"] == pytest.approx(1.0645e7)
    assert t["base_iqr"] == pytest.approx(5.5e4)  # statistics.quantiles' exclusive method
    w = rows["wall_s"]
    assert (w["wins"], w["gain"]) == (0, False)


def test_eight_wins_in_ten_or_a_gap_inside_the_spread_is_no_gain():
    # 8 of 10 wins fails the nine-tenths rule however large the gap
    base = [_line(1.0e7, 2.0) for _ in range(10)]
    change = [_line(1.1e7, 1.9)] * 8 + [_line(0.9e7, 2.1)] * 2
    assert _rows(_records(base, change))["throughput"]["gain"] is False
    # 10 of 10 wins by less than the base's interquartile range is no gain either
    base = [_line(1.0e7 + 1e5 * (k % 4), 2.0) for k in range(10)]
    change = [_line(b["metrics"]["throughput"]["value"] + 5e4, 2.0) for b in base]
    row = _rows(_records(base, change))["throughput"]
    assert row["wins"] == 10 and row["base_iqr"] > 5e4 and row["gain"] is False
    # ties count for neither side
    assert _rows(_records(base, base))["wall_s"]["wins"] == 0


def test_a_seed_with_one_side_is_left_out_and_the_table_prints(tmp_path):
    base = [_line(1.0e7, 2.0) for _ in range(3)]
    change = [_line(1.1e7, 1.9) for _ in range(2)]
    records = _records(base, change)
    assert _rows(records)["throughput"]["pairs"] == 2
    log = tmp_path / "pairs.jsonl"
    log.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    table = pairs.format_rows(pairs.summarize(pairs._read_log(log), END_TO_END))
    assert table.splitlines()[0].split()[:3] == ["metric", "base", "change"]
    assert any(line.startswith("throughput") and "+10.00%" in line and line.split()[-2:] == ["ok", "yes"]
               for line in table.splitlines())


def test_the_bound_marks_a_change_worse_or_unresolved():
    # bounds of BENCHMARK.json: 0.25 of the base's median for both metrics
    tight = [_line(1.0e7, 2.0) for _ in range(10)]

    def verdicts(base, change):
        return {name: row["verdict"] for name, row in _rows(_records(base, change)).items()}

    # 30% worse on both metrics (throughput lower, wall_s higher): worse
    assert verdicts(tight, [_line(0.7e7, 2.6)] * 10) == {"throughput": "worse", "wall_s": "worse"}
    # 10% worse, inside the bound, on a tight base: ok, though every pair is lost
    assert verdicts(tight, [_line(0.9e7, 2.2)] * 10) == {"throughput": "ok", "wall_s": "ok"}
    # a base whose interquartile range (0.8e7, 2.0 s) is wider than the bound
    # cannot tell a change inside the bound from the base: unresolved
    wide = [_line(0.6e7, 1.0) if k % 2 else _line(1.4e7, 3.0) for k in range(10)]
    assert verdicts(wide, tight) == {"throughput": "unresolved", "wall_s": "unresolved"}
    # unless every change run beats every base run
    assert verdicts(wide, [_line(1.5e7, 0.9)] * 10) == {"throughput": "ok", "wall_s": "ok"}
    # and a median worse by more than the bound is worse however wide the base
    assert verdicts(wide, [_line(0.7e7, 2.6)] * 10) == {"throughput": "worse", "wall_s": "worse"}
