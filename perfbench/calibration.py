"""Machine-speed calibration for the benchmark's timings.

The shared machines this benchmark runs on change speed by up to 1.5x for
seconds to minutes at a time (other tenants on the same cores), which moves
every timing of a run together.  Each child therefore times a fixed kernel
after its set-up and again after its entry call, and the benchmark reports
the child's times scaled to the speed at which that kernel takes its
reference time:

    reported = measured * REFERENCE_S[kernel] / median kernel time in the child

A slowdown hits compute-bound and memory-bound code differently, so each
workload is calibrated with a kernel that repeats its own hot operations at
its own sizes (workloads.KERNEL).  The larger sparse kernel runs only after
the workload's peak memory has been read, so that it cannot set it.  The kernels use numpy and scipy only, no
bogofluct code, so a change to the package cannot move them.  The reference
times are the kernels' times on a quiet 2-vCPU Xeon VM with Python 3.11,
numpy 2.4 and scipy 1.17, where reported and measured seconds then agree.
"""

import statistics
import time

REPEATS = 3

REFERENCE_S = {"interpreter": 0.09, "sparse": 0.2}


def _interpreter_kernel(np, sp):
    """Interpreter loops around small dense complex products, plus a sparse
    matvec that fits in cache: the verify and excitation-map mix."""
    rng = np.random.default_rng(0)
    dense = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    n, nnz = 20000, 100000
    coo = (rng.normal(size=nnz) + 0j,
           (rng.integers(0, n, size=nnz), rng.integers(0, n, size=nnz)))
    csr = sp.csr_matrix(coo, shape=(n, n))

    def run():
        v = np.ones(40, dtype=complex)
        acc = {}
        for i in range(10000):
            v = dense @ v
            v = v / np.linalg.norm(v)
            acc[i % 97] = acc.get(i % 97, 0.0) + abs(v[0])
        x = np.ones(n, dtype=complex)
        for _ in range(80):
            x = csr @ x
            x = x / np.linalg.norm(x)
        sp.coo_matrix(coo, shape=(n, n)).tocsr()
    return run


def _sparse_kernel(np, sp):
    """COO to CSR assembly and matvecs at the paper-scale generator's size
    (20,475 states, about 530,000 nonzeros): memory-bound."""
    rng = np.random.default_rng(0)
    n, nnz = 20475, 530000
    coo = (rng.normal(size=nnz) + 0j,
           (rng.integers(0, n, size=nnz), rng.integers(0, n, size=nnz)))

    def run():
        for _ in range(4):
            csr = sp.coo_matrix(coo, shape=(n, n)).tocsr()
            x = np.ones(n, dtype=complex)
            for _ in range(6):
                x = csr @ x
                x = x / np.linalg.norm(x)
    return run


KERNELS = {"interpreter": _interpreter_kernel, "sparse": _sparse_kernel}


def kernel_times(kernel):
    """Seconds of REPEATS runs of the named kernel, after one untimed run that
    pays first-touch page faults; its arrays are freed on return."""
    import numpy as np
    import scipy.sparse as sp

    run = KERNELS[kernel](np, sp)
    run()
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return times


def reference_scale(kernel, kernel_s):
    """Reference seconds per measured second, from one child's kernel times."""
    return REFERENCE_S[kernel] / statistics.median(kernel_s)
