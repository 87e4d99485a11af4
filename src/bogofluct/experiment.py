"""Experiment orchestration: the main convergence measurement, single-run
diagnostics, the coherent-frame comparison and rate fitting.

Everything here is deterministic: no randomness, no wall-clock values, and
floats are written with repr-faithful precision, so identical configurations
produce bit-identical CSV files.
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .bogoliubov import solve_bogoliubov
from .config import ExperimentConfig
from .csvio import write_csv
from .excitation import ExcitationFrame, apply_u_n
from .fock import FockVector, enumerate_basis, hartree_block
from .hartree import solve_hartree
from .model import relative_bound_constant
from .nbody import ReducedDensity, build_hamiltonian, propagate_exact, reduced_density, trace_distance

__all__ = [
    "RateFit",
    "fit_rate",
    "ConvergenceReport",
    "run_convergence",
    "run_single",
    "compare_coherent",
]


@dataclass
class RateFit:
    slope: float
    r_squared: float
    stderr: float
    n_used: int
    excluded: list = field(default_factory=list)


def fit_rate(errs, N_list) -> RateFit:
    """Least-squares slope of log(err) against log(N).

    Nonpositive or nonfinite errors are excluded and reported; fewer than
    three usable points is an error.
    """
    errs = np.asarray(errs, dtype=float)
    N_arr = np.asarray(N_list, dtype=float)
    if errs.shape != N_arr.shape:
        raise ValueError("errors and N values must align")
    good = np.isfinite(errs) & (errs > 0.0)
    excluded = [int(n) for n in N_arr[~good]]
    if int(good.sum()) < 3:
        raise ValueError("need at least three positive error values to fit a rate")
    x = np.log(N_arr[good])
    y = np.log(errs[good])
    n = len(x)
    xbar, ybar = x.mean(), y.mean()
    sxx = float(np.sum((x - xbar) ** 2))
    slope = float(np.sum((x - xbar) * (y - ybar)) / sxx)
    intercept = ybar - slope * xbar
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - ybar) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    stderr = math.sqrt(ss_res / (n - 2) / sxx)
    return RateFit(slope, r2, stderr, n, excluded)


REPORT_COLUMNS = (
    "N", "time", "err_norm", "err_energy_form", "trace_dist_k1",
    "expect_Nplus", "tangency", "leakage", "init_norm_deficit",
)


@dataclass
class ConvergenceReport:
    rows: list
    fits: dict
    gates: list
    failures: dict
    passed: bool

    def write_csv(self, path):
        write_csv(path, REPORT_COLUMNS, ([row[c] for c in REPORT_COLUMNS] for row in self.rows))

    def write_rates_csv(self, path):
        write_csv(path, ("time", "slope", "stderr", "r_squared", "n_used"),
                  ([t, f.slope, f.stderr, f.r_squared, f.n_used]
                   for t, f in sorted(self.fits.items())))


def _condensate_density(u: np.ndarray) -> ReducedDensity:
    return ReducedDensity(1, np.outer(u, np.conj(u)))


def _shared_setup(cfg: ExperimentConfig):
    lattice = cfg.lattice()
    h0 = cfg.one_body(lattice)
    W = cfg.interaction(lattice)
    u0 = cfg.condensate(lattice)
    traj = solve_hartree(u0, h0, W, cfg.T, cfg.dt_hartree)
    basis = enumerate_basis(lattice.M, cfg.n_max)
    return h0, W, u0, traj, basis


def _hartree_gates(traj, tol):
    norms = traj.norms()
    norm_drift = float(np.max(np.abs(norms - 1.0)))
    e0 = traj.energy[0]
    energy_drift = float(np.max(np.abs(traj.energy - e0)) / max(abs(e0), 1e-30))
    return [
        ("hartree_norm_drift", norm_drift, tol["hartree_norm_drift"]),
        ("hartree_energy_drift", energy_drift, tol["hartree_energy_drift"]),
    ]


class _Comparison:
    """The shared setup, the initial excitation layers and the one
    fluctuation run over `times` that the exact dynamics of every N is
    compared with."""

    def __init__(self, cfg: ExperimentConfig, times):
        self.cfg, self.times = cfg, times
        self.h0, self.W, self.u0, self.traj, self.basis = _shared_setup(cfg)
        self.phi0 = cfg.excitations(self.u0, self.basis)
        self.phi0_norms = self.phi0.sector_norms()
        self.run = solve_bogoliubov(
            self.phi0, self.traj, self.h0, self.W, cfg.dt_fock,
            t_grid=times, tangency_tol=max(1e-4, cfg.tolerances["tangency"]))

    def rows(self, N_list):
        """Compare every N at each output time; returns (rows, failures).

        First the exact side, N by N: the N-particle state built from the
        layers phi_0..phi_N (every N from one hartree_block call), evolved
        exactly, and the one-particle densities of its states (one
        reduced_density call).  A RuntimeError of the propagation is filed in
        failures for its N alone.  Then time by time, the states of every
        surviving N are mapped in one apply_u_n call, on one fill of a(u_t)
        up to the largest of them, and rows[N] lists per output time the
        comparison row against the fluctuation state, with the exact state's
        norm and energy.  The difference of the two states is the
        fluctuation state alone above sector N, so the energy form of the
        difference takes its sectors up to N and, above N, the sector terms
        of the fluctuation state, summed once per output time."""
        exact, failures = {}, {}
        for N, psi0 in zip(N_list, hartree_block(self.u0, self.phi0, N_list)):
            try:
                exact[N] = self._exact(N, psi0)
            except RuntimeError as exc:
                failures[N] = exc
        rows = {N: [] for N in exact}
        if not exact:
            return rows, failures
        totals, off = self.basis.totals(), self.basis.sector_offsets
        form = self.run.energy_form
        for k, (t, phi) in enumerate(zip(self.times, self.run.states)):
            u_t = self.traj.interpolate(t)
            images = apply_u_n(ExcitationFrame(u_t, max(exact)),
                               [states[k] for states, *_rest in exact.values()])
            # above[N]: the Gram matrix of phi over its sectors above N
            above, gram, top = {}, 0.0, self.basis.n_max
            for N in sorted(exact, reverse=True):
                gram = gram + form.gram(phi.amplitudes, N + 1, top)
                above[N], top = gram, N
            for (N, (_states, densities, nbody, deficit)), mapped in zip(exact.items(), images):
                delta = mapped.amplitudes - phi.amplitudes
                energy = np.sum(form.A * (form.gram(delta[:off[N + 1]]) + above[N]))
                rows[N].append(({
                    "time": t,
                    "err_norm": float(np.linalg.norm(delta)),
                    "err_energy_form": float(np.real(energy)),
                    "trace_dist_k1": trace_distance(densities[k], _condensate_density(u_t)),
                    "expect_Nplus": float(totals @ (np.abs(mapped.amplitudes) ** 2)),
                    "init_norm_deficit": deficit,
                }, *nbody[k]))
        return rows, failures

    def _exact(self, N, psi0):
        # the exact states of N from its initial block, their one-particle
        # densities, each state's norm and energy, and the initial norm
        # deficit; H lives only in here
        cut_weight = math.fsum(self.phi0_norms[:N + 1] ** 2)
        deficit = abs(1.0 - psi0.norm()) + abs(1.0 - cut_weight)
        psi0.amplitudes = psi0.amplitudes / psi0.norm()
        H = build_hamiltonian(self.h0, self.W, N, self.basis)
        states = propagate_exact(H, psi0, self.times)
        nbody = [(psi.norm(), float(np.real(np.vdot(psi.amplitudes, H.mat @ psi.amplitudes))))
                 for psi in states]
        return states, reduced_density(states, 1), nbody, deficit


def run_convergence(cfg: ExperimentConfig, write=True) -> ConvergenceReport:
    """The main experiment: for each N, build the initial N-particle state
    from the shared excitation data, evolve it exactly, map it through the
    excitation frame along the shared condensate history, and compare with
    the one fluctuation evolution; then fit the error against N.
    """
    cfg.require_exact_sectors()
    times = list(cfg.output_times)
    tol = cfg.tolerances
    comp = _Comparison(cfg, times)
    run = comp.run
    diag = np.array(run.diagnostics)
    col = run.DIAG_COLUMNS.index
    bog_norm_drift = float(np.max(np.abs(diag[:, col("norm")] - 1.0)))
    tangency_max = float(np.max(diag[:, col("tangency")]))
    leakage_max = float(np.max(diag[:, col("leakage")]))

    gates = _hartree_gates(comp.traj, tol)
    gates += [
        ("bog_norm_drift", bog_norm_drift, tol["bog_norm_drift"]),
        ("tangency", tangency_max, tol["tangency"]),
        ("leakage", leakage_max, tol["leakage"]),
    ]

    rows = []
    worst_initial = 0.0
    worst_nbody_norm = 0.0
    worst_nbody_energy = 0.0
    # per N only the exact propagation's norm-drift RuntimeError is filed;
    # the fluctuation run, whose RuntimeErrors end the whole run, ran in
    # _Comparison.__init__; programming errors propagate
    by_n, errors = comp.rows(cfg.N_list)
    failures = {N: f"{type(exc).__name__}: {exc}" for N, exc in errors.items()}
    for N, n_rows in by_n.items():
        e_ref = n_rows[0][2]
        for row, norm, e_t in n_rows:
            worst_nbody_norm = max(worst_nbody_norm, abs(norm - 1.0))
            worst_nbody_energy = max(
                worst_nbody_energy, abs(e_t - e_ref) / max(abs(e_ref), 1e-30)
            )
            if row["time"] == 0.0:
                worst_initial = max(worst_initial, row["err_norm"])
            rows.append({"N": N, **row, "tangency": tangency_max, "leakage": leakage_max})
    gates += [
        ("nbody_norm_drift", worst_nbody_norm, tol["nbody_norm_drift"]),
        ("nbody_energy_drift", worst_nbody_energy, tol["nbody_energy_drift"]),
        ("initial_error", worst_initial, tol["initial_error"]),
    ]

    fits = {}
    for t in times:
        if t == 0.0:
            continue
        sub = [(r["N"], r["err_norm"]) for r in rows if r["time"] == t]
        try:
            fits[t] = fit_rate([e for _, e in sub], [n for n, _ in sub])
        except ValueError:
            pass

    gate_results = [(name, val, bound, bool(val <= bound)) for name, val, bound in gates]
    if cfg.rate_gate:
        gate_results += _rate_gates(cfg, rows, fits)
    passed = all(ok for *_x, ok in gate_results) and not failures

    report = ConvergenceReport(rows, fits, gate_results, failures, passed)
    if write:
        os.makedirs(cfg.output_dir, exist_ok=True)
        report.write_csv(os.path.join(cfg.output_dir, "report.csv"))
        report.write_rates_csv(os.path.join(cfg.output_dir, "rates.csv"))
        run.write_csv(os.path.join(cfg.output_dir, "fluctuation_diagnostics.csv"))
        with open(os.path.join(cfg.output_dir, "resolved_config.json"), "w") as fh:
            fh.write(cfg.resolved_json() + "\n")
        with open(os.path.join(cfg.output_dir, "gates.json"), "w") as fh:
            json.dump({
                "gates": [
                    {"name": n, "value": v, "bound": b, "ok": ok}
                    for n, v, b, ok in gate_results
                ],
                "failures": {str(k): v for k, v in failures.items()},
                "passed": passed,
                "diagnostics": {
                    # how singular the interaction is relative to the kinetic
                    # operator; always finite on a lattice
                    "relative_bound_constant": relative_bound_constant(comp.W, comp.h0),
                },
            }, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


def _rate_gates(cfg, rows, fits):
    # the rows of the rate gates the config asks for, each evaluated whatever
    # the other gates read
    gate = cfg.rate_gate
    t_star = float(gate.get("at_time", cfg.output_times[-1]))
    results = []
    if gate.get("require_monotone", False):
        sub = sorted((r["N"], r["err_norm"]) for r in rows if r["time"] == t_star)
        errs = [e for _, e in sub]
        mono = all(a > b for a, b in zip(errs, errs[1:]))
        results.append(("err_monotone_decreasing", float(not mono), 0.5, mono))
    band = gate.get("band")
    if band is not None:
        # a slope that could not be fitted fails the gate, with value None
        # (null in gates.json)
        slope = fits[t_star].slope if t_star in fits else None
        in_band = slope is not None and band[0] <= slope <= band[1]
        results.append(("rate_slope_in_band", slope, band[1], in_band))
    return results


def run_single(cfg: ExperimentConfig, N: int, write=True):
    """Full time series of every diagnostic for one particle number.

    Writes the condensate trajectory, the per-step fluctuation diagnostics and
    the excitation-mapped comparison series; returns the summary dict.
    """
    cfg.require_exact_sectors(N)
    series_times = [k * cfg.T / 16.0 for k in range(17)]
    comp = _Comparison(cfg, series_times)
    traj = comp.traj
    by_n, failures = comp.rows([N])
    if failures:
        raise failures[N]
    series = [{
        "time": row["time"],
        "err_norm": row["err_norm"],
        "err_energy_form": row["err_energy_form"],
        "trace_dist_k1": row["trace_dist_k1"],
        "expect_Nplus_mapped": row["expect_Nplus"],
        "expect_Nplus_plus1": row["expect_Nplus"] + 1.0,
    } for row, *_nbody in by_n[N]]

    ratio = [row["expect_Nplus_plus1"] / series[0]["expect_Nplus_plus1"] for row in series]
    gron_c = _gronwall_constant(series_times, ratio)
    summary = {
        "N": N,
        "gronwall_constant": gron_c,
        "max_err_norm": max(r["err_norm"] for r in series),
        "interpolation_defect_mid": traj.interpolation_defect(0.5 * (traj.times[0] + traj.times[1])),
    }
    if write:
        os.makedirs(cfg.output_dir, exist_ok=True)
        traj.write_csv(os.path.join(cfg.output_dir, "hartree_trajectory.csv"))
        comp.run.write_csv(os.path.join(cfg.output_dir, f"fluctuation_diagnostics_N{N}.csv"))
        _write_dict_rows(os.path.join(cfg.output_dir, f"excitation_series_N{N}.csv"), series)
        with open(os.path.join(cfg.output_dir, f"summary_N{N}.json"), "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return series, summary


def _write_dict_rows(path, rows):
    cols = list(rows[0])
    write_csv(path, cols, ([row[c] for c in cols] for row in rows))


def _gronwall_constant(times, ratio):
    # smallest c with ratio(t) <= c*exp(c*t) for all t > 0; at each
    # point the bound c*t*exp(c*t) = t*ratio solves to c = W0(t*ratio)/t with
    # the principal Lambert W.  t = 0, where the ratio is 1, says nothing
    # about the growth
    points = [(t, r) for t, r in zip(times, ratio) if t > 0]
    if not all(math.isfinite(r) for _, r in points):
        raise RuntimeError("no finite Gronwall constant: the ratio is not finite")
    return max(_lambert_w0(t * r) / t for t, r in points)


def _lambert_w0(z):
    # the principal branch W0(z), w e^w = z, for z >= 0 by Halley's
    # iteration from log(1 + z) >= W0(z), which converges cubically; it
    # stops after the first step within a few ulp of w
    w = math.log1p(z)
    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - z
        step = f / (ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0))
        if not abs(step) > 4.0 * math.ulp(w):
            return w - step
        w -= step
    raise RuntimeError(f"Lambert W of {z!r} did not converge")


def compare_coherent(cfg: ExperimentConfig, write=True):
    """Side-by-side evolution of the same vacuum start under the projected
    and the bare-kernel quadratic generators, each the untruncated quasi-free
    map cut at n_max; returns the gap series with each state's cut weight,
    1 - ||state||^2, the weight the untruncated state holds above n_max."""
    h0, W, _u0, traj, basis = _shared_setup(cfg)
    vac = FockVector.vacuum(basis)
    times = [t for t in cfg.output_times]
    if times[0] != 0.0:
        times = [0.0] + times
    proj = solve_bogoliubov(vac.copy(), traj, h0, W, cfg.dt_fock, t_grid=times)
    bare = solve_bogoliubov(vac.copy(), traj, h0, W, cfg.dt_fock, t_grid=times, projected=False)
    rows = []
    for k, t in enumerate(times):
        gap = float(np.linalg.norm(proj.states[k].amplitudes - bare.states[k].amplitudes))
        row = {"time": t, "gap_norm": gap,
               "proj_cut_weight": 1.0 - proj.states[k].norm() ** 2,
               "bare_cut_weight": 1.0 - bare.states[k].norm() ** 2}
        pn = proj.states[k].sector_norms()
        bn = bare.states[k].sector_norms()
        for n in range(min(7, basis.n_max + 1)):
            row[f"proj_sector_{n}"] = float(pn[n])
            row[f"bare_sector_{n}"] = float(bn[n])
        rows.append(row)
    if write:
        os.makedirs(cfg.output_dir, exist_ok=True)
        _write_dict_rows(os.path.join(cfg.output_dir, "coherent_comparison.csv"), rows)
    return rows
