"""The three benchmark workloads: inputs made from the seed, the one entry
call each makes into bogofluct, the outputs it leaves, and the checks on them.

``prepare`` and ``collect`` run in the child process and import bogofluct;
``check`` runs in the parent and needs only the standard library.
"""

import csv
import hashlib
import io
import json
import math
import os

DEFAULT_SEED = 1

NAMES = ("paper_scale", "excited_sweep", "verify_dense")

# Inputs that do not depend on the seed, so the reference applies to every seed.
SEED_FREE = ("paper_scale",)

# Calibration kernel with the workload's mix of hot operations (calibration.py).
KERNEL = {"paper_scale": "sparse", "excited_sweep": "interpreter", "verify_dense": "interpreter"}

VERIFY_SIZES = ((2, 3, 4), (3, 3, 4), (3, 6, 8), (4, 5, 6), (4, 6, 8))

# Reference tolerances: err_norm relative (floating-point reorderings), slopes absolute.
ERR_REL_TOL = 1e-9
SLOPE_TOL = 1e-6

# gates.json entry -> margin metric (gate value over gate bound)
MARGIN_GATES = (
    "initial_error", "tangency", "leakage", "bog_norm_drift",
    "nbody_energy_drift", "hartree_energy_drift",
)

OUTPUT_FILES = ("report.csv", "rates.csv", "gates.json")


def reference_applies(name, seed):
    return name in SEED_FREE or seed == DEFAULT_SEED


# ---------------------------------------------------------------- child side

def excited_sweep_config(seed):
    """Desk model with a seeded sector 0-2 start orthogonal to the condensate."""
    import numpy as np

    import bogofluct
    from bogofluct.fock import dense_to_sector

    raw = {
        "model": {
            "modes": 3,
            "spacing": 1.0,
            "interaction": {"kind": "gaussian", "params": {"strength": 1.5, "range": 1.0}},
        },
        "u0": {"kind": "gaussian", "center": 0.0, "width": 0.8},
        "N_list": list(range(4, 25, 2)),
        "n_max": 24,
        "T": 0.5,
        "output_times": [round(0.025 * k, 6) for k in range(21)],
        "dt_hartree": 0.001,
        "dt_fock": 0.002,
        "dt_nbody": 0.05,
        "output_dir": "excited_sweep_out",
    }
    vacuum_cfg = bogofluct.ExperimentConfig(raw)
    u0 = vacuum_cfg.condensate(vacuum_cfg.lattice())
    M = len(u0)
    q = np.eye(M) - np.outer(u0, np.conj(u0))
    rng = np.random.default_rng(seed)

    def gauss(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    pair = gauss(M, M)
    layers = [
        gauss(1),
        q @ gauss(M),
        dense_to_sector(q @ (pair + pair.T) @ q.T, bogofluct.enumerate_basis(M, 2), 2).amplitudes,
    ]
    scale = math.sqrt(sum(float(np.vdot(p, p).real) for p in layers))
    raw["phi0"] = {
        "kind": "table",
        "sectors": {
            str(n): [[float(z.real), float(z.imag)] for z in p / scale]
            for n, p in enumerate(layers)
        },
    }
    return bogofluct.ExperimentConfig(raw)


def prepare(name, root, seed):
    """Set-up for one workload: import, make the inputs, enumerate the basis.

    Returns (root span name, entry function, config or None).
    """
    import bogofluct

    if name == "paper_scale":
        cfg = bogofluct.load_config(os.path.join(root, "demos", "configs", "paper_scale.json"))
    elif name == "excited_sweep":
        cfg = excited_sweep_config(seed)
    elif name == "verify_dense":
        for M, _N, n_max in VERIFY_SIZES:
            bogofluct.enumerate_basis(M, n_max)
        return "verify", lambda: bogofluct.verify_algebra(sizes=VERIFY_SIZES, seed=seed), None
    else:
        raise ValueError(f"unknown workload {name!r}")
    bogofluct.enumerate_basis(cfg.model["modes"], cfg.n_max)
    return "experiment", lambda: bogofluct.run_convergence(cfg, write=True), cfg


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def collect(name, result, cfg):
    """Outputs of one entry call, as plain JSON data plus byte digests.

    Runs in the directory the call ran in, so cfg.output_dir resolves there.
    """
    if name == "verify_dense":
        identities = [[c.name, c.context, float(c.residual), float(c.tol), bool(c.ok)]
                      for c in result]
        blob = json.dumps(identities).encode()
        return {"identities": identities, "digests": {"identities": _sha(blob)}}
    raw = {}
    for fname in OUTPUT_FILES:
        with open(os.path.join(cfg.output_dir, fname), "rb") as fh:
            raw[fname] = fh.read()
    report = csv.DictReader(io.StringIO(raw["report.csv"].decode()))
    rates = csv.DictReader(io.StringIO(raw["rates.csv"].decode()))
    gates = json.loads(raw["gates.json"])
    return {
        "N_list": cfg.N_list,
        "output_times": cfg.output_times,
        "rows": [[int(r["N"]), float(r["time"]), float(r["err_norm"])] for r in report],
        "fits": [[float(r["time"]), float(r["slope"])] for r in rates],
        "gates": [[g["name"], g["value"], g["bound"], g["ok"]] for g in gates["gates"]],
        "failures": gates["failures"],
        "passed": gates["passed"],
        "digests": {fname: _sha(data) for fname, data in raw.items()},
    }


# --------------------------------------------------------------- parent side

def margins(outputs):
    """Gate value over gate bound for the gates named in MARGIN_GATES."""
    by_name = {g[0]: g for g in outputs.get("gates", [])}
    out = {}
    for gate in MARGIN_GATES:
        g = by_name.get(gate)
        out[f"margin.{gate}"] = g[1] / g[2] if g else 0.0
    ids = [i for i in outputs.get("identities", []) if i[3] > 0]
    out["margin.identity"] = max((i[2] / i[3] for i in ids), default=0.0)
    return out


def check(name, seed, outputs, reference):
    """Checked units of one entry call: list of (unit, ok, reason)."""
    use_ref = reference_applies(name, seed)
    if name == "verify_dense":
        got = {(i[0], i[1]): i for i in outputs["identities"]}
        units = []
        for key in [tuple(i[:2]) for i in reference["identities"]]:
            item = got.get(key)
            unit = f"identity {key[0]} [{key[1]}]"
            if item is None:
                units.append((unit, False, "missing"))
            else:
                units.append((unit, item[4], f"residual {item[2]:.3e} > tol {item[3]:.1e}"))
        return units

    units = []
    ref_rows = {(r[0], r[1]): r[2] for r in reference["rows"]}
    got_rows = {(r[0], r[1]): r[2] for r in outputs["rows"]}
    initial_bound = {g[0]: g[2] for g in outputs["gates"]}.get("initial_error", 0.0)
    for N in outputs["N_list"]:
        for t in outputs["output_times"]:
            unit = f"row N={N} t={t}"
            err = got_rows.get((N, t))
            if err is None:
                units.append((unit, False, "missing: " + outputs["failures"].get(str(N), "")))
            elif not math.isfinite(err):
                units.append((unit, False, f"err_norm {err}"))
            elif t == 0.0:
                # round-off only; bounded by the initial_error gate, not the reference
                units.append((unit, err <= initial_bound, f"initial err_norm {err:.3e}"))
            elif use_ref:
                ref = ref_rows.get((N, t))
                ok = ref is not None and abs(err - ref) <= ERR_REL_TOL * abs(ref)
                units.append((unit, ok, f"err_norm {err!r} vs reference {ref!r}"))
            else:
                units.append((unit, True, ""))
    got_fits = dict((f[0], f[1]) for f in outputs["fits"])
    for t, ref_slope in reference["fits"]:
        slope = got_fits.get(t)
        unit = f"slope t={t}"
        if slope is None:
            units.append((unit, False, "missing"))
        elif use_ref:
            units.append((unit, abs(slope - ref_slope) <= SLOPE_TOL,
                          f"slope {slope!r} vs reference {ref_slope!r}"))
        else:
            units.append((unit, math.isfinite(slope), f"slope {slope}"))
    got_gates = {g[0]: g for g in outputs["gates"]}
    for gate in [g[0] for g in reference["gates"]]:
        g = got_gates.get(gate)
        unit = f"gate {gate}"
        if g is None:
            units.append((unit, False, "missing"))
        else:
            units.append((unit, bool(g[3]), f"value {g[1]!r} bound {g[2]!r}"))
    units.append(("gates passed", bool(outputs["passed"]), "gates.json passed is false"))
    return units
