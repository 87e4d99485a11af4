"""Store the reference outputs of the current sources at the default seed.

Usage: python3 perfbench/record_reference.py [WORKLOAD ...]

Writes perfbench/reference/<workload>.json.  Later runs compare their
err_norm values and fitted slopes with it, and take from it the rows, gates
and identities a run must produce.  Record only from a commit whose outputs
are the intended baseline.
"""

import json
import os
import sys

import workloads
from run import HERE, RUN_DIR, Runner

KEEP = ("rows", "fits", "gates", "identities")


def main(names):
    for name in names or workloads.NAMES:
        workdir = os.path.join(RUN_DIR, f"reference-{name}")
        os.makedirs(workdir, exist_ok=True)
        outputs = Runner(name, workloads.DEFAULT_SEED, workdir).run("run")["outputs"]
        ref = {"seed": workloads.DEFAULT_SEED}
        ref.update({k: outputs[k] for k in KEEP if k in outputs})
        path = os.path.join(HERE, "reference", f"{name}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(dumps(ref))
        print(f"wrote {path}")


def dumps(ref):
    """JSON with one list entry per line, so diffs show single rows."""
    fields = []
    for key, val in ref.items():
        if isinstance(val, list):
            val = "[\n  " + ",\n  ".join(json.dumps(v) for v in val) + "\n ]"
        else:
            val = json.dumps(val)
        fields.append(f" {json.dumps(key)}: {val}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


if __name__ == "__main__":
    main(sys.argv[1:])
