"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each.  Run with `pytest tests/test_acceptance.py -v -s` to see
the lines as they are produced."""

import math
import time

import numpy as np
import pytest
from scipy.sparse.linalg import expm_multiply

from bogofluct.bogoliubov import (
    bogoliubov_hamiltonian,
    build_kernels,
    hierarchy_rhs,
    mean_field_hamiltonian,
    solve_bogoliubov,
)
from bogofluct.config import ExperimentConfig
from bogofluct.excitation import (
    ExcitationFrame,
    assemble_r1,
    conjugated_hamiltonian,
    dense_u_n,
    du_generator,
)
from bogofluct.experiment import run_convergence
from bogofluct.fock import (
    FockVector,
    SectorVector,
    annihilate_op,
    create_op,
    dgamma,
    enumerate_basis,
    number_op,
    pairing_op,
    two_body_op,
)
from bogofluct.hartree import solve_hartree
from bogofluct.model import build_interaction, build_laplacian, build_lattice, gaussian_profile
from bogofluct.nbody import reduced_density, trace_distance
from oracles import coherent_state, orthogonal_sector_projector


def record(num, name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'}  criterion {num:>2} ({name}): {detail}"
    print(line)
    assert ok, line


def random_unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def bump(lat, width=1.0):
    d = np.minimum(lat.positions, lat.M * lat.spacing - lat.positions)
    u = np.exp(-(d**2) / (2 * width**2)).astype(complex)
    return u / np.linalg.norm(u)


PROD_CONFIG = {
    "model": {
        "modes": 4,
        "spacing": 1.0,
        "interaction": {"kind": "gaussian", "params": {"strength": 2.0, "range": 1.0}},
    },
    "u0": {"kind": "gaussian", "center": 0.0, "width": 1.0},
    "N_list": [6, 8, 12, 16, 24],
    "n_max": 24,
    "T": 1.0,
    "output_times": [0.0, 0.25, 0.5, 1.0],
    "dt_hartree": 0.0005,
    "dt_fock": 0.002,
    "dt_nbody": 0.05,
    "rate_gate": {"band": [-0.7, -0.3], "require_monotone": True, "at_time": 1.0},
}


@pytest.fixture(scope="module")
def production_run():
    t0 = time.time()
    report = run_convergence(ExperimentConfig(PROD_CONFIG), write=False)
    return report, time.time() - t0


@pytest.fixture(scope="module")
def desk_model():
    lat = build_lattice(3, 1.0)
    h0 = build_laplacian(lat)
    W = build_interaction(lat, gaussian_profile(1.0, 1.0))
    return lat, h0, W


def test_criterion_1_master_algebra_identity():
    t0 = time.time()
    worst = 0.0
    for M, N, n_max in ((2, 3, 4), (3, 3, 4)):
        lat = build_lattice(M, 1.0)
        h0 = build_laplacian(lat)
        W = build_interaction(lat, gaussian_profile(1.0, 1.0))
        basis = enumerate_basis(M, n_max)
        rng = np.random.default_rng(100 + M)
        u = random_unit(rng, M)
        frame = ExcitationFrame(u, N)
        HN = (dgamma(h0, basis) + (1.0 / (N - 1)) * two_body_op(W, basis))
        sl = basis.sector_slice(N)
        U = dense_u_n(frame, basis)
        B = conjugated_hamiltonian(frame, h0, W, basis)
        worst = max(worst, float(np.max(np.abs(HN[sl, sl].toarray() - U.conj().T @ B @ U))))
    elapsed = time.time() - t0
    record(1, "master algebra identity", worst <= 1e-10 and elapsed < 10.0,
           f"max residual {worst:.3e} <= 1e-10, runtime {elapsed:.2f}s < 10s")


def test_criterion_2_derivative_identity():
    M, N = 2, 3
    lat = build_lattice(M, 1.0)
    h0 = build_laplacian(lat)
    W = build_interaction(lat, gaussian_profile(1.0, 1.0))
    basis = enumerate_basis(M, N + 1)
    u0 = bump(lat, 0.9)
    dt = 1e-4
    traj = solve_hartree(u0, h0, W, T=0.04, dt=dt)
    center = len(traj.times) // 2
    uc = traj.u[center] / np.linalg.norm(traj.u[center])
    frame = ExcitationFrame(uc, N)
    G = du_generator(frame, traj.udot[center], basis)
    Uc = dense_u_n(frame, basis)
    residuals = []
    for steps in (80, 40):
        up = traj.u[center + steps] / np.linalg.norm(traj.u[center + steps])
        um = traj.u[center - steps] / np.linalg.norm(traj.u[center - steps])
        fd = (dense_u_n(ExcitationFrame(up, N), basis)
              - dense_u_n(ExcitationFrame(um, N), basis)) / (2 * steps * dt)
        residuals.append(float(np.max(np.abs(fd - (-1j) * G @ Uc))))
    ratio = residuals[0] / residuals[1]
    record(2, "derivative identity", ratio >= 3.5,
           f"residuals {residuals[0]:.3e} -> {residuals[1]:.3e}, gain {ratio:.2f} >= 3.5")


def test_criterion_3_hierarchy_equals_hamiltonian(desk_model):
    lat, h0, W = desk_model
    basis = enumerate_basis(3, 5)
    rng = np.random.default_rng(7)
    u = random_unit(rng, 3)
    kern = build_kernels(u, W)
    h1 = mean_field_hamiltonian(u, h0, W) + kern.k1
    bog = bogoliubov_hamiltonian(u, h0, W, basis)
    top = basis.sector_offsets[3]
    worst = 0.0
    for _ in range(100):
        v = random_unit(rng, basis.size)
        rhs = hierarchy_rhs(basis, v, kern, h1)
        worst = max(worst, float(np.max(np.abs(rhs[:top] - (bog @ v)[:top]))))
    record(3, "hierarchy = Hamiltonian", worst <= 1e-10,
           f"max residual over 100 random states {worst:.3e} <= 1e-10")


def test_criterion_4_conservation_suite():
    cfg = ExperimentConfig({
        "model": {"modes": 3, "spacing": 1.0,
                  "interaction": {"kind": "gaussian", "params": {"strength": 1.0, "range": 1.0}}},
        "u0": {"kind": "gaussian", "center": 0.0, "width": 0.8},
        "N_list": [4, 6, 8],
        "n_max": 8,
        "T": 2.0,
        "output_times": [0.0, 0.5, 1.0, 2.0],
        "dt_hartree": 0.0004,
        "dt_fock": 0.001,
        "dt_nbody": 0.05,
    })
    rep = run_convergence(cfg, write=False)
    gates = {name: (val, bound, ok) for name, val, bound, ok in rep.gates}
    wanted = ["hartree_norm_drift", "hartree_energy_drift", "nbody_norm_drift",
              "nbody_energy_drift", "bog_norm_drift", "tangency", "leakage"]
    ok = all(gates[k][2] for k in wanted) and not rep.failures
    detail = ", ".join(f"{k}={gates[k][0]:.2e}<={gates[k][1]:.0e}" for k in wanted)
    record(4, "conservation suite over T=2", ok, detail)


def test_criterion_5_main_convergence(production_run):
    report, elapsed = production_run
    errs = sorted((r["N"], r["err_norm"]) for r in report.rows if r["time"] == 1.0)
    mono = all(a[1] > b[1] for a, b in zip(errs, errs[1:]))
    fit = report.fits[1.0]
    in_band = -0.7 <= fit.slope <= -0.3
    ok = mono and in_band and elapsed < 1200.0 and not report.failures
    record(5, "main convergence", ok,
           f"errors {[f'{e:.3e}' for _, e in errs]} strictly decreasing={mono}, "
           f"slope {fit.slope:.3f} in [-0.7,-0.3], runtime {elapsed:.0f}s < 1200s")


def test_criterion_6_free_case_exactness():
    cfg = ExperimentConfig({
        "model": {"modes": 4, "spacing": 1.0, "interaction": {"kind": "zero"}},
        "u0": {"kind": "gaussian", "center": 0.0, "width": 1.0},
        "N_list": [6, 8, 12, 16, 24],
        "n_max": 24,
        "T": 2.0,
        "output_times": [0.0, 0.5, 1.0, 2.0],
        "dt_hartree": 0.0005,
        "dt_fock": 0.01,
        "dt_nbody": 0.05,
    })
    rep = run_convergence(cfg, write=False)
    worst = max(r["err_norm"] for r in rep.rows)
    ok = worst <= 5e-8 and not rep.failures
    record(6, "free-case exactness", ok, f"max err over all N, t<=2: {worst:.3e} <= 5e-8")


def test_criterion_7_density_matrix_control(production_run, desk_model):
    report, _ = production_run
    dists = sorted((r["N"], r["trace_dist_k1"]) for r in report.rows if r["time"] == 1.0)
    mono = all(a[1] > b[1] for a, b in zip(dists, dists[1:]))

    lat, h0, W = desk_model
    basis = enumerate_basis(3, 3)
    rng = np.random.default_rng(77)
    worst_residual = np.inf
    for _ in range(100):
        p = SectorVector(basis, 3, random_unit(rng, basis.sector_dim(3)))
        q_amp = p.amplitudes + 0.4 * (rng.normal(size=p.amplitudes.shape)
                                      + 1j * rng.normal(size=p.amplitudes.shape))
        q = SectorVector(basis, 3, q_amp / np.linalg.norm(q_amp))
        lhs = trace_distance(reduced_density(p, 1), reduced_density(q, 1))
        rhs = 2.0 * float(np.linalg.norm(p.amplitudes - q.amplitudes))
        worst_residual = min(worst_residual, rhs - lhs)
    ok = mono and worst_residual >= -1e-10
    record(7, "density-matrix control", ok,
           f"trace distance decreasing in N={mono}, "
           f"min(2||dPsi|| - trace dist) = {worst_residual:.3e} >= -1e-10")


def test_criterion_8_operator_inequality_suite(desk_model):
    lat, h0, W = desk_model
    basis = enumerate_basis(3, 4)
    rng = np.random.default_rng(8)
    u = random_unit(rng, 3)
    bog = bogoliubov_hamiltonian(u, h0, W, basis)
    kern = build_kernels(u, W)
    k2f = np.linalg.norm(kern.k2)
    nvals = basis.totals().astype(float)

    pair = pairing_op(kern.k2, basis).toarray()
    bound = k2f * np.diag(nvals + 2.0)
    pairing_margin = min(np.linalg.eigvalsh(bound - pair)[0],
                         np.linalg.eigvalsh(bound + pair)[0])

    nmat = number_op(basis)
    comm = (1j * (bog @ nmat - nmat @ bog)).toarray()
    cbound = 2.0 * k2f * np.diag(nvals + 1.0)
    comm_margin = min(np.linalg.eigvalsh(cbound - comm)[0],
                      np.linalg.eigvalsh(cbound + comm)[0])

    fitted = []
    half = np.diag(1.0 / np.sqrt(nvals + 1.0))
    for N in (4, 8, 16):
        r1 = assemble_r1(ExcitationFrame(u, N), h0, W, basis)
        for m_cut in (2, 4):
            P = orthogonal_sector_projector(u, basis, m_cut)
            w = np.linalg.eigvalsh(half @ (P @ r1 @ P) @ half)
            fitted.append(float(np.max(np.abs(w))) / math.sqrt(m_cut / N))
    c_fit = max(fitted)
    ok = pairing_margin >= -1e-10 and comm_margin >= -1e-10 and np.isfinite(c_fit)
    record(8, "operator inequality suite", ok,
           f"pairing margin {pairing_margin:.2e} >= -1e-10, "
           f"commutator margin {comm_margin:.2e} >= -1e-10, fitted remainder C={c_fit:.3f}")


def test_criterion_9_parity_and_nontriviality(desk_model):
    lat, h0, W = desk_model
    basis = enumerate_basis(3, 8)
    traj = solve_hartree(bump(lat, 0.8), h0, W, T=0.5, dt=0.001)
    run = solve_bogoliubov(FockVector.vacuum(basis), traj, h0, W, dt=0.001,
                           t_grid=[0.25, 0.5])
    odd_worst = 0.0
    for st in run.states:
        for n in (1, 3, 5, 7):
            odd_worst = max(odd_worst, float(np.linalg.norm(st.sector(n))))
    phi2_at_quarter = float(np.linalg.norm(run.states[0].sector(2)))
    ok = odd_worst <= 1e-12 and phi2_at_quarter >= 1e-4
    record(9, "parity and non-triviality", ok,
           f"odd sector mass {odd_worst:.2e} <= 1e-12, "
           f"two-quantum layer at t=0.25: {phi2_at_quarter:.3e} >= 1e-4")


def test_criterion_10_coherent_comparison(desk_model):
    lat, h0, W = desk_model
    basis = enumerate_basis(3, 20)
    rng = np.random.default_rng(10)
    f = 0.6 * random_unit(rng, 3) * 1.5
    # the displaced vacuum exp(a^dag(f) - a(f)) vacuum, from the sparse generator
    gen = create_op(f, basis) - annihilate_op(f, basis)
    displaced = expm_multiply(gen, FockVector.vacuum(basis).amplitudes)
    series = coherent_state(f, basis).amplitudes
    series_err = float(np.max(np.abs(displaced - series)))
    nexp = float(np.real(np.vdot(displaced, number_op(basis) @ displaced)))
    count_err = abs(nexp - float(np.linalg.norm(f)) ** 2)

    small = enumerate_basis(3, 8)
    traj = solve_hartree(bump(lat, 0.8), h0, W, T=1.0, dt=0.001)
    vac = FockVector.vacuum(small)
    proj = solve_bogoliubov(vac.copy(), traj, h0, W, dt=0.002, t_grid=[1.0])
    bare = solve_bogoliubov(vac.copy(), traj, h0, W, dt=0.002, t_grid=[1.0], projected=False)
    gap = float(np.linalg.norm(proj.states[0].amplitudes - bare.states[0].amplitudes))

    W0 = np.zeros((3, 3))
    traj0 = solve_hartree(bump(lat, 0.8), h0, W0, T=1.0, dt=0.001)
    proj0 = solve_bogoliubov(vac.copy(), traj0, h0, W0, dt=0.01, t_grid=[1.0])
    bare0 = solve_bogoliubov(vac.copy(), traj0, h0, W0, dt=0.01, t_grid=[1.0], projected=False)
    gap0 = float(np.linalg.norm(proj0.states[0].amplitudes - bare0.states[0].amplitudes))

    ok = series_err <= 1e-8 and count_err <= 1e-8 and gap >= 1e-3 and gap0 <= 1e-12
    record(10, "coherent comparison", ok,
           f"series match {series_err:.2e} <= 1e-8, counting {count_err:.2e} <= 1e-8, "
           f"kernel gap at t=1: {gap:.3e} >= 1e-3, free-case gap {gap0:.2e}")
