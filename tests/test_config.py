"""Flat key = value config parsing and typed access, and the CSV writer."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pchaos import config
from pchaos.config import Config, ConfigError, _write_csv, load_config, parse_config_text

from oracles.csv_rowwise import write_csv_rowwise

SAMPLE = """
# run parameters
N = 100, 200, 400   # particle counts
dt = 0.001
label = rate scan
flag = yes
empty_list =
"""


def test_parse_strips_comments_and_blanks():
    d = parse_config_text(SAMPLE)
    assert d == {
        "N": "100, 200, 400",
        "dt": "0.001",
        "label": "rate scan",
        "flag": "yes",
        "empty_list": "",
    }


def test_parse_rejects_missing_equals():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("a = 1\nnot a pair\n")


def test_parse_rejects_empty_key():
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text(" = 3\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a = 1\na = 2\n")


def test_typed_accessors():
    cfg = Config(parse_config_text(SAMPLE))
    assert cfg.get_int_list("N") == [100, 200, 400]
    assert cfg.get_float("dt") == 0.001
    assert cfg.get_str("label") == "rate scan"
    assert cfg.get_bool("flag") is True
    assert cfg.get_int_list("empty_list") == []
    assert cfg.has("dt") and not cfg.has("absent")


def test_defaults_and_required():
    cfg = Config({"a": "1"})
    assert cfg.get_int("missing", 7) == 7
    assert cfg.get_float_list("missing", [1.5]) == [1.5]
    with pytest.raises(ConfigError, match="missing required key"):
        cfg.get_str("missing")


def test_type_errors_name_the_key():
    cfg = Config({"x": "abc"}, source="inline")
    with pytest.raises(ConfigError, match="'x'"):
        cfg.get_int("x")
    with pytest.raises(ConfigError, match="'x'"):
        cfg.get_float("x")
    with pytest.raises(ConfigError, match="'x'"):
        cfg.get_bool("x")


def test_bool_spellings():
    for text, want in [("1", True), ("true", True), ("ON", True),
                       ("0", False), ("no", False), ("Off", False)]:
        assert Config({"b": text}).get_bool("b") is want


def test_canonical_text_is_order_and_comment_independent():
    a = Config(parse_config_text("x = 1\ny = 2  # note\n"))
    b = Config(parse_config_text("# leading\ny = 2\nx = 1\n"))
    assert a.canonical_text() == b.canonical_text()
    assert a.canonical_text() == "x = 1\ny = 2"


def test_load_config_reports_file_name(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("a = 1\n")
    cfg = load_config(p)
    assert cfg.get_int("a") == 1
    with pytest.raises(ConfigError, match="run.cfg"):
        cfg.get_str("b")


# every kind of cell a CSV row of the package holds, and those it could be handed
_CELLS = {
    "str": st.text(max_size=6),
    "int": st.integers(-10 ** 20, 10 ** 20),
    "bool": st.booleans(),
    "float": st.floats(),
    "np.float64": st.floats().map(np.float64),
    "np.int64": st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
}


@st.composite
def _csv_tables(draw):
    """(columns, rows): each column holds one to three kinds of cell."""
    columns = [f"c{k}" for k in range(draw(st.integers(1, 4)))]
    n_rows = draw(st.integers(0, 12))
    values = []
    for _ in columns:
        kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=3,
                              unique=True))
        cell = st.one_of(*(_CELLS[k] for k in kinds))
        values.append(draw(st.lists(cell, min_size=n_rows, max_size=n_rows)))
    return columns, [dict(zip(columns, row)) for row in zip(*values)]


@settings(max_examples=150, deadline=None)
@given(_csv_tables())
@example((["j", "I", "exp_bound", "n"],
          [{"j": 1, "I": math.inf, "exp_bound": "", "n": np.int64(3)},
           {"j": True, "I": math.nan, "exp_bound": np.float64(0.1), "n": np.float64(-0.0)},
           {"j": -2, "I": -0.0, "exp_bound": 0.25, "n": np.int64(-7)}]))
def test_column_writer_matches_row_writer(tmp_path_factory, table):
    # the column-at-a-time writer gives the row-at-a-time writer's bytes for
    # every cell type: str (empty too), int, bool, float (inf, nan, -0.0),
    # np.float64 and np.int64, alone or mixed within a column
    columns, rows = table
    d = tmp_path_factory.getbasetemp()
    write_csv_rowwise(d / "rowwise.csv", columns, rows)
    _write_csv(d / "columnwise.csv", columns, iter(rows))
    assert (d / "columnwise.csv").read_bytes() == (d / "rowwise.csv").read_bytes()


def test_column_writer_reads_rows_a_chunk_at_a_time(tmp_path, monkeypatch):
    # a generator of rows is read _CSV_CHUNK rows ahead at most, and the
    # chunks join into the row writer's bytes
    monkeypatch.setattr(config, "_CSV_CHUNK", 2)
    pulled, seen = [], []

    class Cell:  # written as repr(float(v)); notes how many rows were read by then
        def __init__(self, k):
            self.k = k

        def __float__(self):
            seen.append((self.k, len(pulled)))
            return self.k + 0.5

    def rows():
        for k in range(5):
            pulled.append(k)
            yield {"k": k, "v": Cell(k)}

    write_csv_rowwise(tmp_path / "rowwise.csv", ("k", "v"), rows())
    pulled.clear()
    seen.clear()
    _write_csv(tmp_path / "columnwise.csv", ("k", "v"), rows())
    assert [k for k, _ in seen] == list(range(5))
    assert all(n <= 2 * (k // 2 + 1) for k, n in seen)
    assert (tmp_path / "columnwise.csv").read_bytes() == (tmp_path / "rowwise.csv").read_bytes()
