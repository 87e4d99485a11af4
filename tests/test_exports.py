"""Each module's __all__ resolves and lists every public function and class
the module defines, so nothing the package uses across modules is left out
of its exports."""

import importlib
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


def test_package_import_leaves_out_the_slow_scipy_modules():
    # scipy.integrate and scipy.special each add to every run's start-up time
    src = os.path.dirname(os.path.dirname(bogofluct.__file__))
    code = ("import sys, bogofluct, bogofluct.cli, bogofluct.verify; "
            "print(sorted({'scipy.integrate', 'scipy.special'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
