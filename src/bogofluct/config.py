"""Declarative experiment configuration: one JSON document describing the
lattice, interaction, initial data, time stepping, tolerances and output."""

import copy
import json
import math
import re
import sys

import numpy as np

from .fock import FockVector, OccupationBasis, hartree_block
from .model import (
    ModeBasis,
    build_interaction,
    build_lattice,
    build_laplacian,
    constant_profile,
    gaussian_profile,
)

__all__ = ["ExperimentConfig", "load_config", "DEFAULTS"]

DEFAULTS = {
    "model": {
        "modes": 4,
        "spacing": 1.0,
        "interaction": {"kind": "gaussian", "params": {"strength": 0.5, "range": 1.0}},
        "potential": None,
    },
    "N_list": [6, 8, 12, 16, 24],
    "n_max": 24,
    "u0": {"kind": "gaussian", "center": 0.0, "width": 1.0},
    "phi0": {"kind": "vacuum"},
    "T": 2.0,
    "output_times": [0.0, 0.25, 0.5, 1.0, 2.0],
    "dt_hartree": 0.0005,
    "dt_fock": 0.001,
    "dt_nbody": 0.05,
    "tolerances": {
        "hartree_norm_drift": 1e-8,
        "hartree_energy_drift": 1e-8,
        "nbody_norm_drift": 1e-8,
        "nbody_energy_drift": 1e-8,
        "bog_norm_drift": 1e-7,
        "tangency": 1e-6,
        "leakage": 1e-6,
        "initial_error": 1e-8,
    },
    "rate_gate": None,
    "output_dir": "bogofluct_out",
}

# the kinds of each section with a kind: per kind, the keys it needs and the
# keys it may take (the interaction's from its params); it reads no other
KINDS = {
    "model.interaction": {"zero": ((), ()), "constant": (("c",), ()),
                          "gaussian": (("strength",), ("range",)), "table": (("values",), ())},
    "u0": {"basis": (("index",), ()), "gaussian": ((), ("center", "width")),
           "table": (("re",), ("im",))},
    "phi0": {"vacuum": ((), ()), "table": (("sectors",), ())},
}


def _merge(base, override):
    # a section of another kind than the default's is taken as given, so it
    # carries none of the default kind's keys
    if override.get("kind", base.get("kind")) != base.get("kind"):
        return copy.deepcopy(override)
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def _integer(value, name):
    # JSON integers only: 6.5 or "6" is an error, not 6, and true is not 1
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _number(value, name):
    # JSON numbers only: "2.0" is an error, not 2.0, true is not 1.0, and
    # NaN, infinities and integers past the float range are refused
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not (number and abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def _positive(value, name):
    # a zero width, range or step, or a zero or negative tolerance, would
    # only fail deep inside the run
    if _number(value, name) <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def _array_of(check):
    def array(value, name):
        if not isinstance(value, list):
            raise ValueError(f"{name} must be an array, got {value!r}")
        for entry in value:
            check(entry, f"every entry of {name}")
        return value
    return array


_integers, _numbers = _array_of(_integer), _array_of(_number)


def _kind(value, name):
    section = name.removesuffix(".kind")
    if not isinstance(value, str) or value not in KINDS[section]:
        raise ValueError(f"unknown {section} kind {value!r}, "
                         f"expected one of {sorted(KINDS[section])}")


def _sectors(value, name):
    # {"n": [[re, im], ...]}, n a canonical sector number, so "01" cannot
    # alias sector 1
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {value!r}")
    for key, rows in value.items():
        if not (isinstance(key, str) and re.fullmatch(r"0|[1-9][0-9]*", key)):
            raise ValueError(f"{name} key {key!r} is not a sector number")
        if not isinstance(rows, list) or any(
                len(_numbers(row, f"{name}[{key!r}]")) != 2 for row in rows):
            raise ValueError(f"{name}[{key!r}] must be an array of [re, im] rows")


def _band(value, name):
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and _number(value[0], name) <= _number(value[1], name)):
        raise ValueError(f"{name} must be two finite numbers lo <= hi, got {value!r}")


def _boolean(value, name):
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")


def _nonempty_string(value, name):
    if not (isinstance(value, str) and value):
        raise ValueError(f"{name} must be a non-empty string, got {value!r}")


# the check of every key a document may hold, by section; a key outside its
# section's table is a typo, and a key whose default is null may be null
CHECKS = {
    "model": {
        "modes": _integer,
        "spacing": _positive,
        "interaction": {
            "kind": _kind,
            "params": {"strength": _number, "range": _positive, "c": _number,
                       "values": _numbers},
        },
        "potential": _numbers,
    },
    "N_list": _integers,
    "n_max": _integer,
    "u0": {"kind": _kind, "index": _integer, "center": _number, "width": _positive,
           "re": _numbers, "im": _numbers},
    "phi0": {"kind": _kind, "sectors": _sectors},
    "T": _positive,
    "output_times": _numbers,
    "dt_hartree": _positive,
    "dt_fock": _positive,
    "dt_nbody": _positive,
    "tolerances": dict.fromkeys(DEFAULTS["tolerances"], _positive),
    "rate_gate": {"band": _band, "require_monotone": _boolean, "at_time": _number},
    "output_dir": _nonempty_string,
}
NULLABLE = {"model.potential", "rate_gate"}


def _check(section, checks, name=""):
    if not isinstance(section, dict):
        raise ValueError(f"config section {name or '(top level)'} must be an object")
    unknown = set(section) - set(checks)
    if unknown:
        raise ValueError(f"unknown config keys{' in ' + name if name else ''}: {sorted(unknown)}")
    for key, value in section.items():
        path = f"{name}.{key}" if name else key
        if value is None and path in NULLABLE:
            continue
        if isinstance(checks[key], dict):
            _check(value, checks[key], path)
        else:
            checks[key](value, path)


class ExperimentConfig:
    """Validated convergence-experiment description.

    Every key is checked at load, and every rule between keys that needs only
    the document; unknown keys are rejected so typos fail fast. Every default
    is resolved at load time and the resolved document is what gets written
    next to the outputs for provenance.
    """

    def __init__(self, raw: dict):
        _check(raw, CHECKS)
        doc = _merge(DEFAULTS, raw)
        model, u0, phi0, gate = doc["model"], doc["u0"], doc["phi0"], doc["rate_gate"]
        interaction, params = model["interaction"], model["interaction"].get("params", {})
        M, n_max, N_list = model["modes"], doc["n_max"], doc["N_list"]
        T, times = float(doc["T"]), [float(t) for t in doc["output_times"]]
        for key, seq in (("N_list", N_list), ("output_times", times)):
            if not seq or sorted(set(seq)) != seq:
                raise ValueError(f"{key} must be a nonempty, strictly increasing array")
        if min(N_list) < 2:
            raise ValueError("every N must be at least 2")
        if any(t < 0 or t > T + 1e-12 for t in times):
            raise ValueError("output times must lie in [0, T]")
        if gate and "at_time" in gate and float(gate["at_time"]) not in times:
            raise ValueError(f"rate_gate.at_time {gate['at_time']} is not an output time")
        for name, spec, keys in [("model.interaction", interaction, params),
                                 ("u0", u0, u0), ("phi0", phi0, phi0)]:
            needs, takes = KINDS[name][spec["kind"]]
            missing = [key for key in needs if key not in keys]
            if missing:
                raise ValueError(f"{name} kind {spec['kind']!r} needs {', '.join(missing)}")
            unread = sorted(set(keys) - {"kind", *needs, *takes})
            if unread:
                raise ValueError(f"{name} kind {spec['kind']!r} does not read {', '.join(unread)}")
        if M < 2:
            raise ValueError(f"model.modes must be at least 2, got {M}")
        if model["potential"] is not None and len(model["potential"]) != M:
            raise ValueError(f"model.potential needs one entry per mode ({M})")
        if interaction["kind"] == "table":
            values = params["values"]
            if len(values) != M:
                raise ValueError(f"model.interaction.params.values needs one entry per "
                                 f"displacement ({M})")
            if any(abs(values[k] - values[-k % M]) > 1e-12 for k in range(M)):
                raise ValueError("model.interaction.params.values is not even under reflection")
        if "index" in u0 and not 0 <= u0["index"] < M:
            raise ValueError(f"u0.index must lie in 0..{M - 1}, got {u0['index']}")
        if u0["kind"] == "table":
            for key in ("re", "im"):
                if key in u0 and len(u0[key]) != M:
                    raise ValueError(f"u0.{key} needs one entry per mode ({M})")
            if abs(math.hypot(*u0["re"], *u0.get("im", ())) - 1.0) > 1e-10:
                raise ValueError("u0.re and u0.im must be normalized to 1e-10")
        if phi0["kind"] == "table":
            for key, rows in phi0["sectors"].items():
                if int(key) > n_max:
                    raise ValueError(f"phi0.sectors key {key!r} lies above n_max={n_max}")
                dim = math.comb(int(key) + M - 1, M - 1)
                if len(rows) != dim:
                    raise ValueError(f"phi0.sectors[{key!r}] needs {dim} rows, one per state "
                                     f"of sector {key}, got {len(rows)}")
            total = math.fsum(r * r + i * i for rows in phi0["sectors"].values() for r, i in rows)
            if abs(total - 1.0) > 1e-8:
                raise ValueError(f"phi0.sectors have total weight {total}, need 1 +- 1e-8")
        self.raw, self.model, self.u0_spec, self.phi0_spec = doc, model, u0, phi0
        self.N_list, self.n_max, self.T, self.output_times = list(N_list), n_max, T, times
        self.dt_hartree, self.dt_fock, self.dt_nbody = (
            float(doc[key]) for key in ("dt_hartree", "dt_fock", "dt_nbody"))
        self.tolerances, self.rate_gate, self.output_dir = doc["tolerances"], gate, doc["output_dir"]

    def require_exact_sectors(self, N=None):
        need = max(self.N_list) if N is None else N
        if need > self.n_max:
            raise ValueError(
                f"exact dynamics for N={need} needs n_max >= {need}, got {self.n_max}"
            )

    def lattice(self) -> ModeBasis:
        return build_lattice(self.model["modes"], self.model["spacing"])

    def one_body(self, lattice: ModeBasis) -> np.ndarray:
        h0 = build_laplacian(lattice)
        if self.model["potential"] is not None:
            h0 = h0 + np.diag(np.asarray(self.model["potential"], dtype=float)).astype(complex)
        return h0

    def interaction(self, lattice: ModeBasis) -> np.ndarray:
        # a zero interaction needs no params
        kind, params = self.model["interaction"]["kind"], self.model["interaction"].get("params")
        if kind == "zero":
            w = constant_profile(0.0)
        elif kind == "constant":
            w = constant_profile(params["c"])
        elif kind == "gaussian":
            w = gaussian_profile(params["strength"], params["range"])
        else:  # a table with one value per displacement
            def w(r):
                return params["values"][round(abs(r) / lattice.spacing) % lattice.M]
        return build_interaction(lattice, w)

    def condensate(self, lattice: ModeBasis) -> np.ndarray:
        spec = self.u0_spec
        if spec["kind"] == "basis":
            u = np.zeros(lattice.M, dtype=complex)
            u[spec["index"]] = 1.0
            return u
        if spec["kind"] == "gaussian":
            length = lattice.M * lattice.spacing
            d = np.abs(lattice.positions - spec["center"])
            d = np.minimum(d, length - d)
            u = np.exp(-(d**2) / (2.0 * spec["width"] ** 2)).astype(complex)
            return u / np.linalg.norm(u)
        return np.asarray(spec["re"], dtype=float) + 1j * np.asarray(
            spec.get("im", np.zeros(lattice.M)), dtype=float)

    def excitations(self, u0: np.ndarray, basis: OccupationBasis) -> FockVector:
        """Initial excitation layers phi_n, sector n of one Fock vector; load
        has checked their shapes and total weight, and a table's
        orthogonality to the condensate is checked here, on the basis (the
        vacuum is orthogonal to it by construction)."""
        if self.phi0_spec["kind"] == "vacuum":
            return FockVector.vacuum(basis)
        layers = FockVector(basis, np.zeros(basis.size, dtype=complex))
        for key, rows in self.phi0_spec["sectors"].items():
            layers.amplitudes[basis.sector_slice(int(key))] = [complex(r, im) for r, im in rows]
        # refuses a layer not orthogonal to u0, raising no further than the top layer
        hartree_block(u0, layers, max(map(int, self.phi0_spec["sectors"])))
        return layers

    def resolved_json(self) -> str:
        return json.dumps(self.raw, indent=2, sort_keys=True)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig(json.load(fh))
