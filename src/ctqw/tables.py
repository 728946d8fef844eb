"""CSV/JSON tables with round-trip-exact floating point formatting; emit_table
writes every table, to a file or to stdout."""

import json
import math
import sys
from typing import Iterable, Sequence


def write_csv(fh, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """One %.17g cell per column: each float parses back to itself, ints
    print as integers and non-finite values as inf, -inf and nan."""
    fh.write(",".join(header) + "\n")
    line = ",".join(["%.17g"] * len(header)) + "\n"
    fh.writelines(line % tuple(row) for row in rows)


def write_json(fh, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    def cell(v):
        f = float(v)
        return f if math.isfinite(f) else "%.17g" % f

    doc = {"columns": list(header), "rows": [[cell(v) for v in row] for row in rows]}
    json.dump(doc, fh, indent=1)
    fh.write("\n")


WRITERS = {"csv": write_csv, "json": write_json}


def emit_table(path, fmt: str, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    """Write one table (rows may be a 2-D array) in fmt to path, or to sys.stdout when
    path is None; an empty table or an unknown format is refused before any write."""
    if len(rows) == 0:
        raise ValueError("refusing to emit an empty table")
    if fmt not in WRITERS:
        raise ValueError(f"unknown format {fmt!r}")
    if path is None:
        return WRITERS[fmt](sys.stdout, header, rows)
    with open(path, "w", newline="") as fh:
        WRITERS[fmt](fh, header, rows)
