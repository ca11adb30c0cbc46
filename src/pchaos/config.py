"""Flat key = value configuration files with # comments.

No sections, no nesting: one `key = value` per line, `#` starts a comment
anywhere, arrays are comma-separated.  Every typed accessor converts through
one Config._typed: a value read from the file is parsed, a caller's default
is returned as given, and a value that does not parse is a ConfigError
naming the file, the key and the value.  Missing keys without defaults fail
loudly with the file name.  Every output directory gets a manifest.json
written by _write_manifest.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from itertools import islice
from operator import itemgetter
from pathlib import Path

__all__ = ["parse_config_text", "load_config", "ConfigError", "Config"]


class ConfigError(ValueError):
    pass


class _Required:
    def __repr__(self):
        return "<required>"


_REQUIRED = _Required()
_CSV_CHUNK = 4096  # rows formatted and written together by _write_csv
_BOOLS = {**dict.fromkeys(("1", "true", "yes", "on"), True),
          **dict.fromkeys(("0", "false", "no", "off"), False)}


def _items(parse, text: str) -> list:
    """parse applied to each nonblank comma-separated item of text."""
    return [parse(s) for s in text.split(",") if s.strip()]


def parse_config_text(text: str) -> dict:
    """Parse flat key = value lines into a dict of strings."""
    out: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _write_manifest(out, canonical_text: str, seed, **fields) -> Path:
    """Write out/manifest.json: the sha256 of canonical_text, the seed, then fields."""
    manifest = {
        "config_sha256": hashlib.sha256(canonical_text.encode()).hexdigest(),
        "seed": seed,
        **fields,
    }
    path = Path(out) / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return path


def _cell_format(kind: type):
    """The text of a CSV cell of type kind: see _write_csv."""
    if issubclass(kind, float):
        return float.__repr__
    if issubclass(kind, (str, int)):
        return str
    return lambda v: repr(float(v))


def _write_csv(path, columns, rows) -> None:
    """Write path as CSV: the header, then each row's values in the header's column order.

    rows are mappings from column name to value, read _CSV_CHUNK at a time
    so a long generator is never held whole.  Each chunk's cells are
    formatted a column at a time, each by its value's type: float.__repr__
    for a float or a float subclass such as np.float64 (the shortest text
    that reads back as the same double), str for str and int (bool
    included), and repr(float(v)) for anything else, such as np.int64.  The
    chunk's lines are then joined from the zipped columns.
    tests/oracles/csv_rowwise.py is the row-at-a-time writer this replaced;
    the two write the same bytes.
    """
    getters = [itemgetter(c) for c in columns]
    rows = iter(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        while chunk := list(islice(rows, _CSV_CHUNK)):
            cells = []
            for values in (list(map(get, chunk)) for get in getters):
                formats = {kind: _cell_format(kind) for kind in set(map(type, values))}
                cells.append([formats[type(v)](v) for v in values])
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def load_config(path) -> "Config":
    text = Path(path).read_text(encoding="utf-8")
    return Config(parse_config_text(text), source=str(path))


class Config:
    """Typed access over a parsed flat config."""

    def __init__(self, values: dict, source: str = "<memory>"):
        self.values = dict(values)
        self.source = source

    def has(self, key: str) -> bool:
        return key in self.values

    def canonical_text(self) -> str:
        """Sorted key=value rendering, independent of comments and ordering.

        Manifest hashes are taken over this, so two files that parse to the
        same mapping get the same hash.
        """
        return "\n".join(f"{k} = {self.values[k]}" for k in sorted(self.values))

    def _raw(self, key: str, default):
        if key in self.values:
            return self.values[key]
        if default is _REQUIRED:
            raise ConfigError(f"{self.source}: missing required key {key!r}")
        return default

    def _typed(self, key: str, default, parse, kind: str):
        """The value of key converted by parse; a default passes through as given."""
        v = self._raw(key, default)
        if not isinstance(v, str):
            return v
        try:
            return parse(v)
        except (ValueError, KeyError) as e:
            raise ConfigError(f"{self.source}: key {key!r} is not {kind}: {v!r}") from e

    def get_str(self, key: str, default=_REQUIRED) -> str:
        return self._raw(key, default)

    def get_int(self, key: str, default=_REQUIRED) -> int:
        return self._typed(key, default, int, "an integer")

    def get_float(self, key: str, default=_REQUIRED) -> float:
        return self._typed(key, default, float, "a number")

    def get_bool(self, key: str, default=_REQUIRED) -> bool:
        return self._typed(key, default, lambda v: _BOOLS[v.lower()], "a boolean")

    def get_int_list(self, key: str, default=_REQUIRED):
        return self._typed(key, default, partial(_items, int), "an integer list")

    def get_float_list(self, key: str, default=_REQUIRED):
        return self._typed(key, default, partial(_items, float), "a number list")
