"""Per-layer tracing of bogofluct from outside the package.

Public functions are wrapped at the module attribute their caller looks up
(``bogofluct.experiment.solve_bogoliubov``, ``bogofluct.bogoliubov.krylov_expm``,
...), so no file of the package changes.  Each wrapped call records a span
(name, start, end, parent); spans stay in memory and are aggregated when the
workload has returned.  A layer's self time is its span time minus the time
covered by its child spans.

Krylov iterations are counted by handing ``krylov_expm`` a ``CountingOperand``
in place of its matrix.  The operand holds no reference back to the tracer,
so it and the generator it wraps are freed as soon as the call returns.
"""

import functools
import importlib
import time

# (module, attribute, span name).  The module is the one whose global the
# caller resolves at call time, so each call site is listed where it looks up.
SPANNED = (
    ("bogofluct.experiment", "solve_hartree", "hartree.solve"),
    ("bogofluct.experiment", "enumerate_basis", "fock.basis"),
    ("bogofluct.experiment", "hartree_block", "fock.hartree_block"),
    ("bogofluct.experiment", "solve_bogoliubov", "bogoliubov.solve"),
    ("bogofluct.experiment", "apply_u_n", "excitation.map"),
    ("bogofluct.experiment", "build_hamiltonian", "nbody.build"),
    ("bogofluct.experiment", "propagate_exact", "nbody.propagate"),
    ("bogofluct.experiment", "reduced_density", "nbody.reduced_density"),
    ("bogofluct.experiment", "trace_distance", "nbody.trace_distance"),
    ("bogofluct.bogoliubov", "bogoliubov_hamiltonian", "bogoliubov.assemble"),
    ("bogofluct.bogoliubov", "krylov_expm", "bogoliubov.krylov"),
    ("bogofluct.bogoliubov", "tangency_defect", "bogoliubov.tangency"),
    ("bogofluct.excitation", "assemble_r1", "excitation.remainder"),
    ("bogofluct.excitation", "assemble_r2", "excitation.remainder"),
    ("bogofluct.excitation", "func_of_number_plus", "excitation.spectral"),
    ("bogofluct.verify", "enumerate_basis", "fock.basis"),
    ("bogofluct.verify", "solve_hartree", "hartree.solve"),
    ("bogofluct.verify", "bogoliubov_hamiltonian", "bogoliubov.assemble"),
    ("bogofluct.verify", "hierarchy_rhs", "bogoliubov.hierarchy"),
    ("bogofluct.verify", "apply_u_n", "excitation.map"),
    ("bogofluct.verify", "dense_u_n", "excitation.dense_map"),
    ("bogofluct.verify", "conjugated_hamiltonian", "excitation.conjugated"),
    ("bogofluct.verify", "assemble_r1", "excitation.remainder"),
    ("bogofluct.verify", "assemble_r2", "excitation.remainder"),
    ("bogofluct.verify", "func_of_number_plus", "excitation.spectral"),
    ("bogofluct.verify", "du_generator", "excitation.du_generator"),
)

# Inclusive span times reported as "<span>_s".
TIMED = (
    "bogoliubov.assemble", "bogoliubov.krylov", "bogoliubov.tangency",
    "bogoliubov.solve", "bogoliubov.hierarchy",
    "excitation.map", "excitation.dense_map", "excitation.conjugated",
    "excitation.remainder", "excitation.spectral", "excitation.du_generator",
    "fock.basis", "fock.hartree_block",
    "nbody.build", "nbody.propagate", "nbody.reduced_density", "nbody.trace_distance",
    "hartree.solve",
)

# Self times reported under the layer's own name.
SELF_TIMED = {
    "bogoliubov.solve": "bogoliubov.self_s",
    "experiment": "experiment.self_s",
    "verify": "verify.self_s",
}

# Counts and computed bytes; each must repeat exactly between runs.
COUNTS = (
    "bogoliubov.assemble_calls", "bogoliubov.krylov_matvecs",
    "bogoliubov.matvec_bytes_computed", "bogoliubov.generator_nnz",
    "excitation.map_calls", "fock.basis_size",
    "nbody.krylov_matvecs", "nbody.sector_dim_max",
)


class CountingOperand:
    """Stands in for a matrix in ``H @ v`` and counts the products."""

    __slots__ = ("mat", "matvecs")

    def __init__(self, mat):
        self.mat = mat
        self.matvecs = 0

    def __matmul__(self, vec):
        self.matvecs += 1
        return self.mat @ vec


def _csr_bytes(mat):
    return int(mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes)


class Tracer:
    """Spans and counters for one traced workload call."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack = []
        self._patched = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def _patch(self, module, attr, wrapper):
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self):
        for mod_name, attr, span in SPANNED:
            module = importlib.import_module(mod_name)
            self._patch(module, attr, self._spanned(getattr(module, attr), span))
        linalg = importlib.import_module("bogofluct.linalg")
        self._patch(linalg, "krylov_expm",
                    self._krylov_counter(linalg.krylov_expm, "nbody"))

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def _spanned(self, fn, span):
        after = {
            "bogoliubov.assemble": self._after_assemble,
            "excitation.map": self._after_map,
            "fock.basis": self._after_basis,
            "nbody.build": self._after_build,
        }.get(span)
        if span == "bogoliubov.krylov":
            fn = self._krylov_counter(fn, "bogoliubov")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(span, fn, *args, **kwargs)
            if after is not None:
                after(result)
            return result
        return wrapper

    def _krylov_counter(self, fn, layer):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(H, v, *args, **kwargs):
            op = CountingOperand(H)
            try:
                return fn(op, v, *args, **kwargs)
            finally:
                counts[f"{layer}.krylov_matvecs"] += op.matvecs
                if layer == "bogoliubov":
                    counts["bogoliubov.matvec_bytes_computed"] += op.matvecs * (
                        _csr_bytes(H) + 2 * int(v.nbytes))
                    counts["bogoliubov.generator_nnz"] = max(
                        counts["bogoliubov.generator_nnz"], int(H.nnz))
        return wrapper

    def _after_assemble(self, result):
        self.counts["bogoliubov.assemble_calls"] += 1

    def _after_map(self, result):
        self.counts["excitation.map_calls"] += 1

    def _after_basis(self, basis):
        self.counts["fock.basis_size"] += int(basis.size)

    def _after_build(self, H):
        self.counts["nbody.sector_dim_max"] = max(
            self.counts["nbody.sector_dim_max"], int(H.mat.shape[0]))

    def layer_metrics(self):
        """Inclusive and self seconds per span name, plus the counters."""
        total = {}
        self_time = {}
        for name, start, end, parent in self.spans:
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            self_time[name] = self_time.get(name, 0.0) + dur
            if parent >= 0:
                pname = self.spans[parent][0]
                self_time[pname] = self_time.get(pname, 0.0) - dur
        out = {f"{name}_s": total.get(name, 0.0) for name in TIMED}
        for name, metric in SELF_TIMED.items():
            out[metric] = self_time.get(name, 0.0)
        out["trace.self_sum_s"] = sum(self_time.values())
        out.update(self.counts)
        return out
