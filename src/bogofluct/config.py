"""Declarative experiment configuration: one JSON document describing the
lattice, interaction, initial data, time stepping, tolerances and output."""

import copy
import json
import math
import re
import sys

import numpy as np

from .fock import OccupationBasis, SectorVector, hartree_block
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

# keys allowed inside the nested sections, by path from the top; a section
# with kinds allows the union of its kinds' keys, because _merge carries the
# default kind's keys into every kind
NESTED_KEYS = {
    ("model",): set(DEFAULTS["model"]),
    ("model", "interaction"): {"kind", "params"},
    ("model", "interaction", "params"): {"strength", "range", "c", "values"},
    ("u0",): {"kind", "index", "center", "width", "re", "im"},
    ("phi0",): {"kind", "sectors"},
    ("tolerances",): set(DEFAULTS["tolerances"]),
    ("rate_gate",): {"band", "require_monotone", "at_time"},
}

# the kinds of each section with a kind, and the keys each kind reads (the
# interaction's from its params)
KINDS = {
    "model.interaction": {"zero": (), "constant": ("c",), "gaussian": ("strength",),
                          "table": ("values",)},
    "u0": {"basis": ("index",), "gaussian": (), "table": ("re",)},
    "phi0": {"vacuum": (), "table": ("sectors",)},
}


def _merge(base, override):
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
    return value


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
    number = _number(value, name)
    if number <= 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return number


def _numbers(value, name):
    if not isinstance(value, list):
        raise ValueError(f"{name} must be an array, got {value!r}")
    return [_number(v, f"every entry of {name}") for v in value]


def _check_kind(name, kind, keys):
    # an unknown kind, or a missing key its kind reads, would only fail when
    # the run reads the section
    kinds = KINDS[name]
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"unknown {name} kind {kind!r}, expected one of {sorted(kinds)}")
    missing = [key for key in kinds[kind] if key not in keys]
    if missing:
        raise ValueError(f"{name} kind {kind!r} needs {', '.join(missing)}")


def _check_sectors(sectors, n_max):
    # phi0.sectors: {"n": [[re, im], ...]}, n a canonical sector number no
    # larger than n_max, so "01" cannot alias sector 1
    if not isinstance(sectors, dict):
        raise ValueError(f"phi0.sectors must be an object, got {sectors!r}")
    for key, rows in sectors.items():
        if not (isinstance(key, str) and re.fullmatch(r"0|[1-9][0-9]*", key)):
            raise ValueError(f"phi0.sectors key {key!r} is not a sector number")
        if int(key) > n_max:
            raise ValueError(f"phi0.sectors key {key!r} lies above n_max={n_max}")
        if not isinstance(rows, list) or any(
                len(_numbers(row, "a phi0.sectors row")) != 2 for row in rows):
            raise ValueError(f"phi0.sectors[{key!r}] must be an array of [re, im] rows")


class ExperimentConfig:
    """Validated convergence-experiment description.

    Unknown keys are rejected so typos fail fast; every default is resolved at
    load time and the resolved document is what gets written next to the
    outputs for provenance.
    """

    def __init__(self, raw: dict):
        unknown = set(raw) - set(DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        resolved = _merge(DEFAULTS, raw)
        for path, known in NESTED_KEYS.items():  # parents come first
            section = resolved
            for key in path:
                section = section[key]
            name = ".".join(path)
            if section is None and name == "rate_gate":
                continue
            if not isinstance(section, dict):
                raise ValueError(f"config section {name} must be an object")
            unknown = set(section) - known
            if unknown:
                raise ValueError(f"unknown config keys in {name}: {sorted(unknown)}")
        for key in ("N_list", "output_times"):
            if not isinstance(resolved[key], list):
                raise ValueError(f"{key} must be an array, got {resolved[key]!r}")
        self.raw = resolved
        self.model = resolved["model"]
        self.N_list = [_integer(n, "every N") for n in resolved["N_list"]]
        self.n_max = _integer(resolved["n_max"], "n_max")
        _integer(self.model["modes"], "model.modes")
        self.u0_spec = resolved["u0"]
        self.phi0_spec = resolved["phi0"]
        self.T = _positive(resolved["T"], "T")
        self.output_times = [_number(t, "every output time") for t in resolved["output_times"]]
        self.dt_hartree = _positive(resolved["dt_hartree"], "dt_hartree")
        self.dt_fock = _positive(resolved["dt_fock"], "dt_fock")
        self.dt_nbody = _positive(resolved["dt_nbody"], "dt_nbody")
        _positive(self.model["spacing"], "model.spacing")
        if self.model["potential"] is not None:
            _numbers(self.model["potential"], "model.potential")
        _number(self.u0_spec["center"], "u0.center")
        _positive(self.u0_spec["width"], "u0.width")
        if "index" in self.u0_spec:
            index = _integer(self.u0_spec["index"], "u0.index")
            if not 0 <= index < self.model["modes"]:
                raise ValueError(f"u0.index must lie in 0..{self.model['modes'] - 1}, "
                                 f"got {index}")
        for key in ("re", "im"):
            if key in self.u0_spec:
                _numbers(self.u0_spec[key], f"u0.{key}")
        params = self.model["interaction"]["params"]
        _check_kind("model.interaction", self.model["interaction"]["kind"], params)
        _check_kind("u0", self.u0_spec["kind"], self.u0_spec)
        _check_kind("phi0", self.phi0_spec["kind"], self.phi0_spec)
        if "sectors" in self.phi0_spec:
            _check_sectors(self.phi0_spec["sectors"], self.n_max)
        for key in ("strength", "c"):
            if key in params:
                _number(params[key], f"model.interaction.params.{key}")
        if "range" in params:
            _positive(params["range"], "model.interaction.params.range")
        if "values" in params:
            _numbers(params["values"], "model.interaction.params.values")
        for key, tol in resolved["tolerances"].items():
            _positive(tol, f"tolerances.{key}")
        self.tolerances = resolved["tolerances"]
        self.rate_gate = resolved["rate_gate"]
        self.output_dir = resolved["output_dir"]
        self._validate()

    def _validate(self):
        if not self.N_list:
            raise ValueError("N_list must name at least one N")
        if not self.output_times:
            raise ValueError("output_times must name at least one time")
        if sorted(self.N_list) != self.N_list or len(set(self.N_list)) != len(self.N_list):
            raise ValueError("N_list must be strictly increasing")
        if min(self.N_list) < 2:
            raise ValueError("every N must be at least 2")
        if any(t < 0 or t > self.T + 1e-12 for t in self.output_times):
            raise ValueError("output times must lie in [0, T]")
        if sorted(self.output_times) != self.output_times:
            raise ValueError("output times must be nondecreasing")
        band = (self.rate_gate or {}).get("band")
        if band is not None and not (
                isinstance(band, (list, tuple)) and len(band) == 2
                and _number(band[0], "rate_gate.band") <= _number(band[1], "rate_gate.band")):
            raise ValueError(f"rate_gate.band must be two finite numbers lo <= hi, got {band!r}")
        monotone = (self.rate_gate or {}).get("require_monotone", False)
        if not isinstance(monotone, bool):
            raise ValueError(f"rate_gate.require_monotone must be true or false, got {monotone!r}")
        if self.rate_gate and "at_time" in self.rate_gate:
            if _number(self.rate_gate["at_time"], "rate_gate.at_time") not in self.output_times:
                raise ValueError(
                    f"rate_gate.at_time {self.rate_gate['at_time']} is not an output time"
                )

    def require_exact_sectors(self, N=None):
        need = max(self.N_list) if N is None else N
        if need > self.n_max:
            raise ValueError(
                f"exact dynamics for N={need} needs n_max >= {need}, got {self.n_max}"
            )

    def lattice(self) -> ModeBasis:
        return build_lattice(self.model["modes"], float(self.model["spacing"]))

    def one_body(self, lattice: ModeBasis) -> np.ndarray:
        h0 = build_laplacian(lattice)
        pot = self.model.get("potential")
        if pot is not None:
            pot = np.asarray(pot, dtype=float)
            if pot.shape != (lattice.M,):
                raise ValueError("potential table must have one entry per mode")
            h0 = h0 + np.diag(pot).astype(complex)
        return h0

    def interaction(self, lattice: ModeBasis) -> np.ndarray:
        spec = self.model["interaction"]
        kind = spec["kind"]
        params = spec.get("params", {})
        if kind == "zero":
            return build_interaction(lattice, constant_profile(0.0))
        if kind == "constant":
            return build_interaction(lattice, constant_profile(float(params["c"])))
        if kind == "gaussian":
            return build_interaction(
                lattice,
                gaussian_profile(float(params["strength"]), float(params.get("range", 1.0))),
            )
        if kind == "table":
            values = [float(v) for v in params["values"]]
            M = lattice.M
            if len(values) != M:
                raise ValueError("interaction table needs one value per displacement")
            for k in range(M):
                if abs(values[k] - values[(M - k) % M]) > 1e-12:
                    raise ValueError("interaction table is not even under reflection")
            def w(r):
                return values[int(round(abs(r) / lattice.spacing)) % M]
            return build_interaction(lattice, w)
        raise ValueError(f"unknown interaction kind {kind!r}")

    def condensate(self, lattice: ModeBasis) -> np.ndarray:
        spec = self.u0_spec
        kind = spec["kind"]
        if kind == "basis":
            u = np.zeros(lattice.M, dtype=complex)
            u[spec["index"]] = 1.0
            return u
        if kind == "gaussian":
            center = float(spec.get("center", 0.0))
            width = float(spec.get("width", 1.0))
            length = lattice.M * lattice.spacing
            d = np.abs(lattice.positions - center)
            d = np.minimum(d, length - d)
            u = np.exp(-(d**2) / (2.0 * width**2)).astype(complex)
            return u / np.linalg.norm(u)
        if kind == "table":
            u = np.asarray(spec["re"], dtype=float) + 1j * np.asarray(
                spec.get("im", np.zeros(lattice.M)), dtype=float
            )
            nrm = np.linalg.norm(u)
            if abs(nrm - 1.0) > 1e-10:
                raise ValueError("condensate table must be normalized to 1e-10")
            return u
        raise ValueError(f"unknown condensate kind {kind!r}")

    def excitations(self, u0: np.ndarray, basis: OccupationBasis):
        """Initial excitation layers (phi_n) as sector vectors; normalized and
        orthogonal to the condensate, as the convergence statement requires."""
        spec = self.phi0_spec
        kind = spec["kind"]
        phis = [None] * (basis.n_max + 1)
        if kind == "vacuum":
            phis[0] = SectorVector(basis, 0, np.array([1.0 + 0.0j]))
        elif kind == "table":
            for key, rows in spec["sectors"].items():
                n = int(key)
                if n > basis.n_max:
                    raise ValueError(f"phi_{n} beyond truncation {basis.n_max}")
                amps = np.array([complex(r, im) for r, im in rows])
                phis[n] = SectorVector(basis, n, amps)
        else:
            raise ValueError(f"unknown excitation kind {kind!r}")
        total = math.fsum((p.norm() ** 2 if p is not None else 0.0) for p in phis)
        if abs(total - 1.0) > 1e-8:
            raise ValueError(f"excitation layers have total weight {total}, need 1 +- 1e-8")
        hartree_block(u0, phis, basis)  # refuses a layer not orthogonal to u0
        return phis

    def resolved_json(self) -> str:
        return json.dumps(self.raw, indent=2, sort_keys=True)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        return ExperimentConfig(json.load(fh))
