"""The one CSV writer of the package.

Integers are written as integers and floats with 17 significant digits,
which read back bit-exact, so identical rows give identical files.  Column
meanings are documented in csv_schema.json.
"""

import numpy as np

__all__ = ["write_csv"]


def write_csv(path, columns, rows):
    """Write the header `columns`, then one line per row of values in that order."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return f"{float(v):.17g}"
