"""CSV/JSON tables: emit_table streams one float64 array with round-trip-exact cells."""

import json
import sys
from typing import Sequence

import numpy as np

CHUNK_ROWS = 4096  # rows made Python objects at once: about 0.13 MiB of floats a column


def write_csv(fh, header: Sequence[str], rows: np.ndarray) -> None:
    """One %.17g cell per column: each float parses back to itself, inf, -inf and nan."""
    fh.write(",".join(header) + "\n")
    line = ",".join(["%.17g"] * len(header)) + "\n"
    for chunk in np.split(rows, range(CHUNK_ROWS, len(rows), CHUNK_ROWS)):  # views
        fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))


def write_json(fh, header: Sequence[str], rows: np.ndarray) -> None:
    """The bytes of json.dump({"columns": header, "rows": rows}, fh, indent=1) and a newline:
    a finite cell is its repr, a non-finite one the string "inf", "-inf" or "nan"."""
    fh.write(json.dumps({"columns": list(header)}, indent=1)[:-2] + ',\n "rows": [')
    row = "\n  [\n   " + ",\n   ".join(["%s"] * len(header)) + "\n  ]"
    for k, chunk in enumerate(np.split(rows, range(CHUNK_ROWS, len(rows), CHUNK_ROWS))):
        cells, bad = chunk.astype(object), ~np.isfinite(chunk)  # str of a float is its repr
        cells[bad] = np.char.mod('"%.17g"', chunk[bad])
        fh.write("," * (k > 0) + ",".join([row] * len(chunk)) % tuple(cells.ravel()))
    fh.write("\n ]\n}\n")


WRITERS = {"csv": write_csv, "json": write_json}


def emit_table(path, fmt: str, header: Sequence[str], rows) -> None:
    """Write the rows, as one float64 array, in fmt to path, or to sys.stdout when path
    is None; an empty table or an unknown format is refused before any write."""
    rows = np.asarray(rows, dtype=float)
    if len(rows) == 0:
        raise ValueError("refusing to emit an empty table")
    if fmt not in WRITERS:
        raise ValueError(f"unknown format {fmt!r}")
    if path is None:
        return WRITERS[fmt](sys.stdout, header, rows)
    with open(path, "w", newline="") as fh:
        WRITERS[fmt](fh, header, rows)
