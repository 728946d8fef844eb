"""CSV/JSON emission with round-trip-exact floating point formatting."""

import json
import math
from typing import Iterable, Sequence


def format_value(v) -> str:
    """17-significant-digit text; parses back to the identical float."""
    if isinstance(v, int) and not isinstance(v, bool):
        return str(v)
    f = float(v)
    if math.isinf(f):
        return "inf" if f > 0 else "-inf"
    if math.isnan(f):
        return "nan"
    return format(f, ".17g")


def write_csv(fh, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(format_value(v) for v in row) + "\n")


def write_json(fh, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    def cell(v):
        f = float(v)
        if math.isinf(f) or math.isnan(f):
            return format_value(f)
        return f

    doc = {"columns": list(header), "rows": [[cell(v) for v in row] for row in rows]}
    json.dump(doc, fh, indent=1)
    fh.write("\n")


WRITERS = {"csv": write_csv, "json": write_json}


def emit_table(path, fmt: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    rows = list(rows)
    if not rows:
        raise ValueError("refusing to emit an empty table")
    if fmt not in WRITERS:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w", newline="") as fh:
        WRITERS[fmt](fh, header, rows)
