"""Command-line entry point.

Subcommands:
  run               the convergence experiment from a JSON config
  verify-algebra    dense identity suite with a pass/fail table
  compare-coherent  projected vs bare-kernel fluctuation evolution
  rate              least-squares rate fit of an existing report.csv

Exit code 0 only when every configured tolerance gate (or identity) passes;
a config or report that does not load, and a run-single N outside
2..n_max, is a usage error (exit code 2).
"""

import argparse
import csv
import sys

from .config import load_config
from .experiment import compare_coherent, fit_rate, run_convergence, run_single
from .verify import DEFAULT_SIZES, skipped_identities, verify_algebra


def _config(path):
    """A config file that loads; one that does not is a usage error."""
    try:
        return load_config(path)
    except (OSError, ValueError) as exc:  # JSON decode errors are ValueErrors
        raise argparse.ArgumentTypeError(f"{path!r} does not load: {exc}") from None


def _report(path):
    """The (N, time, err_norm) rows of a report; a file that does not read, lacks
    one of these columns or holds a value that does not parse is a usage error."""
    try:
        with open(path) as fh:
            reader = csv.DictReader(fh, restval="")  # a short row fails to parse
            missing = sorted({"N", "time", "err_norm"} - set(reader.fieldnames or ()))
            if missing:
                raise ValueError(f"no column {', '.join(missing)}")
            return [(int(r["N"]), float(r["time"]), float(r["err_norm"])) for r in reader]
    except (OSError, ValueError) as exc:  # undecodable bytes are ValueErrors
        raise argparse.ArgumentTypeError(f"{path!r} does not load: {exc}") from None


def _cmd_run(args):
    cfg = args.config
    report = run_convergence(cfg)
    for name, val, bound, ok in report.gates:
        value = "none" if val is None else f"{val:.6g}"
        print(f"{'PASS' if ok else 'FAIL'}  {name:<28} value={value} bound={bound:.6g}")
    for N, reason in report.failures.items():
        print(f"FAIL  N={N} aborted: {reason}")
    for t, fit in sorted(report.fits.items()):
        print(f"rate at t={t:g}: slope={fit.slope:.4f} (stderr {fit.stderr:.4f}, "
              f"r2={fit.r_squared:.4f}, {fit.n_used} points)")
    print(f"report written to {cfg.output_dir}/report.csv")
    return 0 if report.passed else 1


def _cmd_run_single(args):
    cfg = args.config
    series, summary = run_single(cfg, args.N)
    print(f"max err_norm over series: {summary['max_err_norm']:.6g}")
    print(f"fitted growth constant for <N+1>: {summary['gronwall_constant']:.6g}")
    print(f"outputs written to {cfg.output_dir}/")
    return 0


def _size_token(tok):
    """One --sizes token M,N,n_max, with M >= 2 and 2 <= N <= n_max."""
    try:
        M, N, n_max = (int(x) for x in tok.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{tok!r} is not three integers M,N,n_max") from None
    if M < 2 or N < 2 or N > n_max:
        raise argparse.ArgumentTypeError(f"{tok!r} needs M >= 2 and 2 <= N <= n_max")
    return M, N, n_max


def _cmd_verify(args):
    sizes = tuple(args.sizes) if args.sizes else DEFAULT_SIZES
    checks = verify_algebra(sizes)
    skipped = skipped_identities(sizes)
    width = max(len(name) for name in [c.name for c in checks] + [s[0] for s in skipped])
    all_ok = True
    for c in checks:
        mark = "PASS" if c.ok else "FAIL"
        all_ok = all_ok and c.ok
        print(f"{mark}  {c.name:<{width}}  [{c.context}]  residual={c.residual:.3e} tol={c.tol:.1e}")
    for name, context, reason in skipped:  # not evaluated, so not a failure
        print(f"SKIP  {name:<{width}}  [{context}]  {reason}")
    print("all identities hold" if all_ok else "IDENTITY FAILURES PRESENT")
    return 0 if all_ok else 1


def _cmd_compare(args):
    cfg = args.config
    rows = compare_coherent(cfg)
    for row in rows:
        print(f"t={row['time']:g}: |projected - bare| = {row['gap_norm']:.6g}, "
              f"cut weight projected {row['proj_cut_weight']:.3g}, "
              f"bare {row['bare_cut_weight']:.3g}")
    print(f"comparison written to {cfg.output_dir}/coherent_comparison.csv")
    return 0


def _cmd_rate(args):
    times = sorted({t for _, t, _ in args.report if t > 0.0})
    if args.time is not None:
        times = [args.time]
    status = 0
    for t in times:
        sub = sorted((N, err) for N, time, err in args.report if abs(time - t) < 1e-12)
        try:
            fit = fit_rate([e for _, e in sub], [n for n, _ in sub])
            print(f"t={t:g}: slope={fit.slope:.4f} stderr={fit.stderr:.4f} "
                  f"r2={fit.r_squared:.4f} points={fit.n_used}")
        except ValueError as exc:
            print(f"t={t:g}: {exc}")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bogofluct",
        description="mean-field bosonic dynamics and the fluctuation convergence harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run the convergence experiment")
    p.add_argument("config", type=_config)
    p.set_defaults(func=_cmd_run)

    single = sub.add_parser("run-single", help="full diagnostics for one N")
    single.add_argument("config", type=_config)
    single.add_argument("N", type=int)
    single.set_defaults(func=_cmd_run_single)

    p = sub.add_parser("verify-algebra", help="dense identity suite")
    p.add_argument("--sizes", nargs="*", type=_size_token, metavar="M,N,n_max",
                   help="override the default sizes, e.g. 2,3,4 3,3,4")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("compare-coherent", help="projected vs bare-kernel runs")
    p.add_argument("config", type=_config)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("rate", help="fit a decay rate from a report.csv")
    p.add_argument("report", type=_report)
    p.add_argument("--time", type=float, default=None)
    p.set_defaults(func=_cmd_rate)

    args = parser.parse_args(argv)
    if args.command == "run-single" and not 2 <= args.N <= args.config.n_max:
        single.error(f"argument N: {args.N} is outside 2..n_max = {args.config.n_max}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
