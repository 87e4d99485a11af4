"""bogofluct benchmark.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every measurement is made in a fresh child
interpreter (perfbench/child.py) with BLAS and OpenMP pinned to one thread.

--trace 0: several set-up-only children give setup_s; then untraced workload
children, as many as fit in S seconds (at least one), give wall_s and
peak_rss_mb.
--trace 1: one untraced child, then traced children, as many as fit in S
seconds with it (at least one); they give the per-layer metrics.

Times are reported in reference seconds: each child's measured seconds
scaled by a calibration kernel timed in the same child (perfbench/
calibration.py), so that the machine's changing speed does not move them.
The measured values are printed as well.

Every child's outputs are checked (perfbench/workloads.py); outputs and
counts must also repeat exactly between children and between runs of the
same sources in this checkout.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from calibration import reference_scale
from child import THREAD_VARS
from tracer import COUNTS, SELF_TIMED, TIMED

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".perfbench_run")

SETUP_SAMPLES = 4
DEADLINE_S = 170.0  # every run must exit within 180 s


def child_env():
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Starts the children of one run, one at a time, within the deadline."""

    def __init__(self, workload, seed, workdir):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.started = time.perf_counter()
        self.count = 0

    def run(self, mode, trace=False):
        self.count += 1
        tag = f"{self.count:02d}-{mode}{'-traced' if trace else ''}"
        spec = {
            "mode": mode, "workload": self.workload, "seed": self.seed, "trace": trace,
            "root": ROOT, "workdir": os.path.join(self.workdir, tag),
            "result": os.path.join(self.workdir, f"{tag}.result.json"),
        }
        spec_path = os.path.join(self.workdir, f"{tag}.spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        start = time.perf_counter()
        left = DEADLINE_S - (start - self.started)
        try:
            # the child's own output goes to our stderr; our stdout carries the result
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path],
                env=child_env(), stdout=sys.stderr, timeout=max(left, 1.0),
            )
        except subprocess.TimeoutExpired:
            raise ChildFailed(f"{tag} did not finish within the {DEADLINE_S:.0f} s deadline")
        if proc.returncode != 0:
            raise ChildFailed(f"{tag} exited with code {proc.returncode}")
        with open(spec["result"]) as fh:
            result = json.load(fh)
        result["child_s"] = time.perf_counter() - start
        return result

    def rep(self, trace=False):
        """One workload child, after a child that times the workload's
        calibration kernel: run inside the workload child before its entry
        call, the kernel's arrays would count in its peak memory."""
        kernel = workloads.KERNEL[self.workload]
        pre = self.run("calibrate")
        rep = self.run("run", trace)
        rep["kernel_s"][kernel] = pre["kernel_s"][kernel] + rep["kernel_s"][kernel]
        rep["child_s"] += pre["child_s"]
        return rep


def source_digest():
    """Digest of the package sources and the benchmark, keying the run records."""
    h = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for fname in sorted(filenames):
                if fname.endswith((".py", ".json")):
                    path = os.path.join(dirpath, fname)
                    h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def compare_with_record(kind, workload, seed, values):
    """Check values against the first run of the same sources and inputs.

    The first run records them; returns (unit, ok, reason).
    """
    inputs = "any-seed" if workload in workloads.SEED_FREE else f"seed{seed}"
    path = os.path.join(RUN_DIR, "records", f"{workload}-{inputs}-{source_digest()}-{kind}.json")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(values, fh, sort_keys=True)
    with open(path) as fh:
        return same(f"{kind} repeat earlier runs", values, json.load(fh))


def same(unit, a, b):
    diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    return unit, not diff, f"differ: {diff}"


def tail_percentile(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("bytes_computed"):
        return "bytes"
    if metric.startswith(("margin.", "trace.coverage")):
        return "ratio"
    return "count"


def ref_s(child, seconds, kernel):
    """Measured seconds of a child in reference seconds (see calibration.py)."""
    return seconds * reference_scale(kernel, child["kernel_s"][kernel])


def fits(reps, seconds):
    """Whether one more child, as long as the last, ends within the window."""
    return sum(r["child_s"] for r in reps) + reps[-1]["child_s"] <= seconds


def measure_untraced(runner, seconds, reference):
    units = []
    children = [runner.run("setup") for _ in range(SETUP_SAMPLES)]
    reps = [runner.rep()]
    while fits(reps, seconds):
        reps.append(runner.rep())
    for k, rep in enumerate(reps):
        units += workloads.check(runner.workload, runner.seed, rep["outputs"], reference)
        if k:
            units.append(same(f"rep {k} outputs identical to rep 0",
                              rep["outputs"]["digests"], reps[0]["outputs"]["digests"]))
    units.append(compare_with_record("outputs", runner.workload, runner.seed,
                                     reps[0]["outputs"]["digests"]))
    children += reps
    kernel = workloads.KERNEL[runner.workload]
    walls = [ref_s(r, r["wall_s"], kernel) for r in reps]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(ref_s(r, r["setup_s"], "interpreter") for r in children),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
    }
    notes = {
        "wall_s samples": walls,
        "wall_s tail percentile": tail_percentile(walls),
        "measured wall_s": [r["wall_s"] for r in reps],
        "measured setup_s": [r["setup_s"] for r in children],
        "reference seconds per measured second, set-up":
            [ref_s(r, 1.0, "interpreter") for r in children],
        "reference seconds per measured second, wall": [ref_s(r, 1.0, kernel) for r in reps],
    }
    return metrics, units, reps[0]["env"], notes


def measure_traced(runner, seconds, reference):
    units = []
    base = runner.rep()
    traced = [runner.rep(trace=True)]
    while fits([base] + traced, seconds):
        traced.append(runner.rep(trace=True))
    for rep in [base] + traced:
        units += workloads.check(runner.workload, runner.seed, rep["outputs"], reference)
    counts = [{c: rep["layers"][c] for c in COUNTS} for rep in traced]
    for k, rep in enumerate(traced):
        units.append(same(f"traced rep {k} outputs identical to untraced",
                          rep["outputs"]["digests"], base["outputs"]["digests"]))
        if k:
            units.append(same(f"traced rep {k} counts identical to rep 0", counts[k], counts[0]))
    units.append(compare_with_record("counts", runner.workload, runner.seed, counts[0]))

    kernel = workloads.KERNEL[runner.workload]
    times = [f"{n}_s" for n in TIMED] + list(SELF_TIMED.values())
    metrics = {n: statistics.median(ref_s(r, r["layers"][n], kernel) for r in traced)
               for n in times}
    metrics.update({n: statistics.median(r["layers"][n] for r in traced) for n in COUNTS})
    metrics.update(workloads.margins(base["outputs"]))
    traced_wall = statistics.median(ref_s(r, r["wall_s"], kernel) for r in traced)
    metrics["trace.overhead_s"] = traced_wall - ref_s(base, base["wall_s"], kernel)
    metrics["trace.coverage"] = statistics.median(
        r["layers"]["trace.self_sum_s"] / r["wall_s"] for r in traced)
    notes = {
        "measured untraced wall_s": base["wall_s"],
        "measured traced wall_s": [r["wall_s"] for r in traced],
        "reference seconds per measured second":
            [ref_s(r, 1.0, kernel) for r in [base] + traced],
        "dominant layer": max((f"{n}_s" for n in TIMED), key=metrics.get),
    }
    return metrics, units, base["env"], notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    needed = [os.path.join(ROOT, "src", "bogofluct", "__init__.py"),
              os.path.join(ROOT, "demos", "configs", "paper_scale.json")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"error: not a bogofluct checkout, missing {missing}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference", f"{args.workload}.json")) as fh:
        reference = json.load(fh)

    workdir = os.path.join(RUN_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = Runner(args.workload, args.seed, workdir)
    measure = measure_traced if args.trace else measure_untraced
    try:
        metrics, units, env, notes = measure(runner, args.seconds, reference)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = [u for u in units if not u[1]]
    print("environment " + json.dumps(env, sort_keys=True))
    for key, val in notes.items():
        print(f"{key}: {val}")
    for name, val in metrics.items():
        print(f"{name} = {val!r} {unit_of(name)}")
    print(f"failed_frac = {len(failed) / len(units)!r} ({len(failed)} of {len(units)} units)")
    for unit, _ok, why in failed[:20]:
        print(f"FAILED {unit}: {why}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(units),
        "failed": len(failed),
        "metrics": {n: {"value": v, "unit": unit_of(n)} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
