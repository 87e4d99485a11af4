"""The one CSV writer of the package.

Integers are written as integers and floats with 17 significant digits,
which read back bit-exact, so identical rows give identical files.  Column
meanings are documented in csv_schema.json.
"""

import numpy as np

__all__ = ["write_csv"]


def write_csv(path, columns, rows):
    """Write the header `columns`, then one line per row of values in that
    order, each formatted in one call by the line template of its value
    types: %d for an integer, %.17g for anything else."""
    templates = {}
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            row = tuple(row)
            kinds = tuple(map(type, row))
            line = templates.get(kinds)
            if line is None:
                line = templates[kinds] = ",".join(
                    "%d" if issubclass(k, (int, np.integer)) else "%.17g" for k in kinds) + "\n"
            fh.write(line % row)
