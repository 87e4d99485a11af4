"""Each module's __all__ resolves and lists every public function and class
the module defines, so nothing the package uses across modules is left out
of its exports."""

import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys

import pytest

import bogofluct

MODULES = [importlib.import_module(info.name)
           for info in pkgutil.iter_modules(bogofluct.__path__, "bogofluct.")]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]


def test_modules_with_exports_are_found():
    assert {m.__name__ for m in EXPORTING} >= {"bogofluct.fock", "bogofluct.excitation"}


@pytest.mark.parametrize("module", EXPORTING, ids=lambda m: m.__name__)
def test_exports_match_public_definitions(module):
    unresolved = [name for name in module.__all__ if not hasattr(module, name)]
    assert not unresolved, unresolved
    public = [name for name, obj in vars(module).items()
              if not name.startswith("_")
              and (inspect.isfunction(obj) or inspect.isclass(obj))
              and obj.__module__ == module.__name__]
    missing = [name for name in public if name not in module.__all__]
    assert not missing, missing


# what only the tests use lives in tests/oracles.py, outside the package
TEST_ONLY = ("BogHamiltonian", "WeylOperator", "weyl_op", "_poisson_tail", "TAIL_TOL",
             "coherent_state", "unprojected_hamiltonian", "solve_coherent_fluct",
             "verify_bog_bounds", "PSD_TOL", "sym_tensor", "orthogonal_sector_projector",
             "assert_hermitian")


def test_test_only_helpers_are_not_in_the_package():
    assert importlib.util.find_spec("bogofluct.coherent") is None
    found = [(m.__name__, name) for m in (bogofluct, *MODULES)
             for name in TEST_ONLY if hasattr(m, name)]
    assert not found, found


SRC = os.path.dirname(os.path.dirname(bogofluct.__file__))


def _loaded_after(code, cwd=None):
    # the scipy modules, scipy itself included, that running code in a fresh
    # interpreter has loaded
    code += "\nprint('loaded:', *sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         cwd=cwd, env={**os.environ, "PYTHONPATH": SRC})
    last = out.stdout.splitlines()[-1].split()
    assert last[0] == "loaded:", out.stdout
    return set(last[1:])


def test_package_import_leaves_out_the_slow_scipy_modules():
    # the run path is numpy alone: importing the package, its CLI and the
    # identity suite loads no scipy module (scipy.sparse alone took about
    # half of the import)
    loaded = _loaded_after("import sys, bogofluct, bogofluct.cli, bogofluct.verify")
    assert not loaded


# every run the CLI makes but the identity suite, on desk-sized configs: a
# convergence run from the vacuum (the quasi-free path and the relative
# bound constant) and from a table start (its creators raised on the
# quasi-free state), run_single (the Gronwall constant) and
# compare_coherent (both kernels)
SCIPY_FREE_RUNS = """
import sys
import numpy as np
from bogofluct import ExperimentConfig, compare_coherent, run_convergence, run_single
doc = {"model": {"modes": 3, "spacing": 1.0,
                 "interaction": {"kind": "gaussian", "params": {"strength": 1.0, "range": 1.0}}},
       "u0": {"kind": "gaussian", "center": 0.0, "width": 0.8},
       "N_list": [3, 4, 5], "n_max": 6, "T": 0.1, "output_times": [0.0, 0.05, 0.1],
       "dt_hartree": 0.002, "dt_fock": 0.002, "dt_nbody": 0.1, "output_dir": "vacuum"}
cfg = ExperimentConfig(doc)
assert run_convergence(cfg, write=True).passed
series, summary = run_single(cfg, 4, write=True)
assert summary["gronwall_constant"] > 0
assert len(compare_coherent(cfg, write=True)) == 3
u0 = cfg.condensate(cfg.lattice())
v = np.array([-np.conj(u0[1]), np.conj(u0[0]), 0.0])
v *= 0.6 / np.linalg.norm(v)
doc["phi0"] = {"kind": "table", "sectors": {
    "0": [[0.8, 0.0]], "1": [[float(x.real), float(x.imag)] for x in v]}}
doc["output_dir"] = "table"
assert run_convergence(ExperimentConfig(doc), write=True).passed
"""


def test_runs_load_no_scipy_module(tmp_path):
    assert not _loaded_after(SCIPY_FREE_RUNS, cwd=tmp_path)
    for name in ("vacuum/gates.json", "vacuum/summary_N4.json", "vacuum/coherent_comparison.csv",
                 "table/gates.json"):
        assert (tmp_path / name).is_file(), name


# a convergence run from the vacuum (the quasi-free path and the relative
# bound constant), one from a table start (its creators raised on the
# quasi-free state) and the identity suite at one size
RUNS = """
import sys
import numpy as np
from bogofluct import ExperimentConfig, run_convergence, verify_algebra
doc = {"model": {"modes": 3, "spacing": 1.0,
                 "interaction": {"kind": "gaussian", "params": {"strength": 1.0, "range": 1.0}}},
       "u0": {"kind": "gaussian", "center": 0.0, "width": 0.8},
       "N_list": [3, 4], "n_max": 6, "T": 0.1, "output_times": [0.0, 0.1],
       "dt_hartree": 0.002, "dt_fock": 0.002, "dt_nbody": 0.1, "output_dir": "vacuum"}
cfg = ExperimentConfig(doc)
assert run_convergence(cfg, write=True).passed
u0 = cfg.condensate(cfg.lattice())
v = np.array([-np.conj(u0[1]), np.conj(u0[0]), 0.0])
v *= 0.6 / np.linalg.norm(v)
doc["phi0"] = {"kind": "table", "sectors": {
    "0": [[0.8, 0.0]], "1": [[float(x.real), float(x.imag)] for x in v]}}
doc["output_dir"] = "table"
assert run_convergence(ExperimentConfig(doc), write=True).passed
assert all(c.ok for c in verify_algebra(sizes=((2, 3, 4),)))
"""


def test_runs_leave_out_scipy_linalg(tmp_path):
    loaded = _loaded_after(RUNS, cwd=tmp_path)
    assert "scipy.sparse" in loaded and "scipy.linalg" not in loaded
    assert (tmp_path / "vacuum" / "gates.json").is_file()
    assert (tmp_path / "table" / "gates.json").is_file()
