"""The package names that the benchmark tracer wraps.

perfbench/tracer.py patches module attributes by name from outside the
package, so a renamed or dropped function would only show in a traced
benchmark run.  The tracer is loaded here by file path, unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_spanned_name_resolves_in_the_package():
    spanned = _load_tracer().SPANNED
    assert spanned
    missing = [(mod, attr) for mod, attr, _ in spanned
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert not missing, f"names the tracer wraps are gone: {missing}"
