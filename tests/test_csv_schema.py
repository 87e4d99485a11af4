"""Every CSV the command line writes has exactly the header that
csv_schema.json documents for it, and the schema documents no other file."""

import itertools
import json
import re
from pathlib import Path

import bogofluct
from bogofluct.cli import main

N_SINGLE = 4
CONFIG = {
    "model": {
        "modes": 3,
        "spacing": 1.0,
        "interaction": {"kind": "gaussian", "params": {"strength": 1.0, "range": 1.0}},
    },
    "u0": {"kind": "gaussian", "center": 0.0, "width": 0.8},
    "N_list": [3, 4, 6],
    "n_max": 7,
    "T": 0.5,
    "output_times": [0.0, 0.25, 0.5],
    "dt_hartree": 0.002,
    "dt_fock": 0.002,
    "dt_nbody": 0.1,
}
# ranges of the schema's placeholders for CONFIG: one {i} per mode; the
# sector columns {n} cover sectors 0..6, all present since n_max >= 6
PLACEHOLDERS = {"i": range(3), "n": range(7)}


def expand(columns):
    """Header named by a schema entry's column keys: a key 'a{i}/b{i}', and a
    run of keys with the same placeholder, are written interleaved over the
    placeholder's range."""
    def placeholder(key):
        found = re.findall(r"\{(\w)\}", key)
        return found[0] if found else None

    out = []
    for ph, keys in itertools.groupby(columns, key=placeholder):
        names = [name for key in keys for name in key.split("/")]
        if ph is None:
            out += names
        else:
            out += [name.replace(f"{{{ph}}}", str(k)) for k in PLACEHOLDERS[ph] for name in names]
    return out


def test_every_csv_header_matches_the_schema(tmp_path):
    out = tmp_path / "out"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(CONFIG, output_dir=str(out))))
    assert main(["run", str(path)]) == 0
    assert main(["run-single", str(path), str(N_SINGLE)]) == 0
    assert main(["compare-coherent", str(path)]) == 0

    schema = json.loads((Path(bogofluct.__file__).parent / "csv_schema.json").read_text())
    documented = {name.replace("{N}", str(N_SINGLE)): entry for name, entry in schema.items()}
    written = sorted(p.name for p in out.glob("*.csv"))
    assert written == sorted(documented)
    for name in written:
        with open(out / name) as fh:
            header = fh.readline().rstrip("\n").split(",")
        assert header == expand(documented[name]["columns"]), name
