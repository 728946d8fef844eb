"""Read tables written by ``ctqw.tables`` back into numbers; used only by the tests."""


def read_csv(path):
    """Parse a file written by write_csv back into (header, float rows);
    'inf' cells come back as float('inf')."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    return header, rows
