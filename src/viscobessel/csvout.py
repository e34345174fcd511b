"""The one CSV writer: every CSV the CLI emits, and ``fracsim.write_history``.

It lives apart from ``fracsim`` so that writing a curve does not import the
simulators.
"""

import numpy as np

_CSV_ROWS = 4096  # rows per write_csv block: its Python floats stay bounded


def write_csv(stream, header: str, ts, *columns) -> None:
    """Write `header`, then one row per time: t and each column's value, every
    cell the repr of a Python float (shortest round-trip decimal).  Rows are
    formatted _CSV_ROWS at a time, a column at a time, so memory does not grow
    with the length."""
    cols = [np.asarray(c, dtype=float) for c in (ts, *columns)]
    stream.write(header + "\n")
    for lo in range(0, len(cols[0]), _CSV_ROWS):
        cells = [map(repr, c[lo : lo + _CSV_ROWS].tolist()) for c in cols]
        stream.write("\n".join(map(",".join, zip(*cells))) + "\n")
