"""One fresh interpreter of the benchmark: set up a workload and, unless only
set-up is measured, make its entry call, untraced or traced.

Usage: python3 perfbench/child.py SPEC.json

SPEC names the mode ("setup", "run" or "calibrate", which only times the
workload's calibration kernel), workload, seed, trace flag, checkout root,
working directory and result path.  The result is written as JSON to
the result path; nothing is printed on standard output.  Times in the result
are as measured; the calibration kernels' times (perfbench/calibration.py),
taken after set-up and again after the entry call, come with them.
"""

import json
import os
import platform
import resource
import sys
import time

import workloads
import calibration

THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_pins": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    name, seed, root = spec["workload"], spec["seed"], spec["root"]
    if spec["mode"] == "calibrate":
        kernel = workloads.KERNEL[name]
        write(spec, {"kernel_s": {kernel: calibration.kernel_times(kernel)}})
        return
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    os.makedirs(spec["workdir"], exist_ok=True)
    os.chdir(spec["workdir"])

    t0 = time.perf_counter()
    import bogofluct
    span, entry, cfg = workloads.prepare(name, root, seed)
    setup_s = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(bogofluct.__file__))) != src:
        raise SystemExit(f"imported bogofluct from {bogofluct.__file__}, not from {src}")

    result = {"setup_s": setup_s, "kernel_s": {}}

    def calibrate(kernel):
        result["kernel_s"].setdefault(kernel, []).extend(calibration.kernel_times(kernel))

    calibrate("interpreter")  # set-up is import and interpreter work in every workload
    if spec["mode"] == "run":
        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        out = tracer.call(span, entry) if tracer else entry()
        result["wall_s"] = time.perf_counter() - t0
        if tracer:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
            with open("spans.json", "w") as fh:
                json.dump(tracer.spans, fh)
        result["outputs"] = workloads.collect(name, out, cfg)
        # read before the workload's kernel runs: the sparse kernel's arrays
        # are larger than the interpreter kernel's and must not set the peak
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        calibrate(workloads.KERNEL[name])
    result["env"] = environment()
    write(spec, result)


def write(spec, result):
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
