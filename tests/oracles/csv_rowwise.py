"""Row-at-a-time CSV writer: the reference for config._write_csv.

The package formats a column at a time, dispatching on each column's value
types; this writes one row at a time and decides each cell on its own, so
a type the column dispatch misses shows up as different bytes.
"""


def write_csv_rowwise(path, columns, rows) -> None:
    """Write path as CSV: the header, then each row's values in the header's column order.

    str and int values are written as str, every other value as
    repr(float(v)), the shortest text that reads back as the same double
    (float.__repr__ on a float or a float subclass such as np.float64).
    """
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join([
            float.__repr__(v) if isinstance(v, float)
            else str(v) if isinstance(v, (str, int)) else repr(float(v))
            for v in map(row.__getitem__, columns)]))
    lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
