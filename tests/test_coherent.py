import json
import math

import numpy as np
import pytest

from bogofluct.bogoliubov import (
    bogoliubov_hamiltonian,
    build_kernels,
    mean_field_hamiltonian,
    solve_bogoliubov,
)
from bogofluct.config import ExperimentConfig
from bogofluct.experiment import compare_coherent
from bogofluct.fock import FockVector, annihilate_op, create_op, enumerate_basis, number_op, quadratic_op
from bogofluct.hartree import solve_hartree
from bogofluct.model import build_interaction, build_laplacian, build_lattice, gaussian_profile
from oracles import coherent_state, weyl_op


def setup_model(M=3, g=1.0):
    lat = build_lattice(M, 1.0)
    return lat, build_laplacian(lat), build_interaction(lat, gaussian_profile(g, 1.0))


def bump(lat, width=1.0):
    d = np.minimum(lat.positions, lat.M * lat.spacing - lat.positions)
    u = np.exp(-(d**2) / (2 * width**2)).astype(complex)
    return u / np.linalg.norm(u)


def test_weyl_zero_displacement_is_identity():
    basis = enumerate_basis(2, 6)
    w = weyl_op(np.zeros(2), basis)
    assert np.max(np.abs(w - np.eye(basis.size))) < 1e-12


def test_weyl_matches_the_dense_exponential():
    import scipy.linalg as sla

    basis = enumerate_basis(3, 10)
    f = np.array([0.4, -0.3j, 0.2 + 0.1j])
    a_f = annihilate_op(f, basis)
    want = sla.expm((a_f.conj().T - a_f).toarray())
    assert np.max(np.abs(weyl_op(f, basis) - want)) < 1e-12


def test_weyl_vacuum_matches_closed_form_and_counting():
    basis = enumerate_basis(2, 20)
    rng = np.random.default_rng(0)
    f = 0.9 * (rng.normal(size=2) + 1j * rng.normal(size=2))
    assert np.linalg.norm(f) ** 2 <= basis.n_max / 4
    w = weyl_op(f, basis)
    vac = FockVector.vacuum(basis).amplitudes
    displaced = w @ vac
    series = coherent_state(f, basis).amplitudes
    assert np.max(np.abs(displaced - series)) < 1e-8
    nexp = np.real(np.vdot(displaced, number_op(basis) @ displaced))
    assert abs(nexp - np.linalg.norm(f) ** 2) < 1e-8


def test_weyl_rejects_large_displacement():
    basis = enumerate_basis(2, 8)
    with pytest.raises(ValueError):
        weyl_op(np.array([1.6, 0.0]), basis)  # |f|^2 = 2.56 > 2
    with pytest.raises(ValueError):
        weyl_op(np.array([1.35, 0.4]), basis)  # passes n_max/4, fails the tail


def test_weyl_unitary_on_safe_core():
    basis = enumerate_basis(2, 16)
    rng = np.random.default_rng(1)
    f = 0.5 * (rng.normal(size=2) + 1j * rng.normal(size=2))
    w = weyl_op(f, basis)
    nf = float(np.linalg.norm(f))
    cut = basis.n_max - math.ceil(nf**2 + 6 * nf)
    assert cut >= 2
    safe = basis.sector_offsets[cut + 1]
    for _ in range(5):
        v = np.zeros(basis.size, dtype=complex)
        raw = rng.normal(size=safe) + 1j * rng.normal(size=safe)
        v[:safe] = raw / np.linalg.norm(raw)
        assert abs(np.linalg.norm(w @ v) - 1.0) < 1e-8


def test_weyl_composition_law():
    basis = enumerate_basis(2, 20)
    rng = np.random.default_rng(2)
    f = 0.4 * (rng.normal(size=2) + 1j * rng.normal(size=2))
    g = 0.4 * (rng.normal(size=2) + 1j * rng.normal(size=2))
    wf, wg, wfg = weyl_op(f, basis), weyl_op(g, basis), weyl_op(f + g, basis)
    phase = np.exp(-1j * np.imag(np.vdot(f, g)))
    lhs = (wf @ wg) @ FockVector.vacuum(basis).amplitudes
    rhs = phase * (wfg @ FockVector.vacuum(basis).amplitudes)
    assert np.linalg.norm(lhs - rhs) < 1e-7


def test_weyl_shifts_ladder_operators():
    # conjugation needs a deeper buffer than state unitarity: the creation
    # chains near the truncation carry sqrt-enhancements, so the identity is
    # compared on low occupation layers only
    basis = enumerate_basis(2, 24)
    rng = np.random.default_rng(3)
    g = 0.5 * (rng.normal(size=2) + 1j * rng.normal(size=2))
    h = rng.normal(size=2) + 1j * rng.normal(size=2)
    w = weyl_op(g, basis)
    cdag = create_op(h, basis).toarray()
    conj = w.conj().T @ cdag @ w
    shift = np.vdot(g, h)
    safe = basis.sector_offsets[5]  # sectors 0..4
    block = (conj - cdag - shift * np.eye(basis.size))[:safe, :safe]
    assert np.max(np.abs(block)) < 1e-7


def bare_generator(u, h0, W, basis):
    # the coherent-frame generator, from the kernels it keeps
    kern = build_kernels(u, W)
    return quadratic_op(mean_field_hamiltonian(u, h0, W) + kern.k1_bare, kern.k2_bare, basis)


def test_unprojected_generator_free_case_and_gap():
    lat, h0, _ = setup_model(3)
    basis = enumerate_basis(3, 4)
    u = bump(lat)
    W0 = np.zeros((3, 3))
    a = bogoliubov_hamiltonian(u, h0, W0, basis)
    b = bare_generator(u, h0, W0, basis)
    assert abs(a - b).max() < 1e-14

    lat, h0, W = setup_model(3, g=1.2)
    u = bump(lat)
    a = bogoliubov_hamiltonian(u, h0, W, basis).toarray()
    b = bare_generator(u, h0, W, basis).toarray()
    assert np.max(np.abs(a - b)) > 1e-3


def test_generator_difference_lives_on_condensate_directions():
    # the bare and projected kernels differ only where a slot touches the
    # condensate: compressing both slots to its orthogonal complement kills
    # the difference
    lat, h0, W = setup_model(4, g=1.3)
    rng = np.random.default_rng(4)
    v = rng.normal(size=4) + 1j * rng.normal(size=4)
    u = v / np.linalg.norm(v)
    from bogofluct.bogoliubov import build_kernels

    kern = build_kernels(u, W)
    q = kern.q
    assert np.max(np.abs(q @ (kern.k1_bare - kern.k1) @ q)) < 1e-12
    assert np.max(np.abs(q @ (kern.k2_bare - kern.k2) @ q.T)) < 1e-12


def test_coherent_run_free_case_keeps_vacuum():
    lat, h0, _ = setup_model(3)
    W0 = np.zeros((3, 3))
    basis = enumerate_basis(3, 4)
    traj = solve_hartree(bump(lat), h0, W0, T=1.0, dt=0.001)
    run = solve_bogoliubov(FockVector.vacuum(basis), traj, h0, W0, dt=0.01, t_grid=[1.0],
                           projected=False)
    assert abs(run.states[0].amplitudes[0] - 1.0) < 1e-12


def test_projected_and_bare_dynamics_separate():
    # both runs are the untruncated quasi-free map cut at n_max = 8; the bare
    # state holds weight above the cut (1.5e-3 here), the projected one none
    lat, h0, W = setup_model(3, g=1.2)
    basis = enumerate_basis(3, 8)
    traj = solve_hartree(bump(lat), h0, W, T=1.0, dt=0.001)
    vac = FockVector.vacuum(basis)
    proj = solve_bogoliubov(vac.copy(), traj, h0, W, dt=0.002, t_grid=[1.0])
    bare = solve_bogoliubov(vac.copy(), traj, h0, W, dt=0.002, t_grid=[1.0], projected=False)
    gap = np.linalg.norm(proj.states[0].amplitudes - bare.states[0].amplitudes)
    assert gap > 1e-3

    cfg = ExperimentConfig({
        "model": {"modes": 3, "spacing": 1.0,
                  "interaction": {"kind": "gaussian", "params": {"strength": 1.2, "range": 1.0}}},
        "u0": {"kind": "gaussian", "center": 0.0, "width": 1.0},
        "N_list": [4, 6, 8], "n_max": 8, "T": 1.0, "output_times": [0.0, 1.0],
        "dt_hartree": 0.001, "dt_fock": 0.002,
    })
    row = compare_coherent(cfg, write=False)[-1]
    assert row["gap_norm"] == gap
    assert row["bare_cut_weight"] == 1.0 - bare.states[0].norm() ** 2
    assert row["proj_cut_weight"] == 1.0 - proj.states[0].norm() ** 2
    assert abs(row["proj_cut_weight"]) < 1e-12
    assert row["bare_cut_weight"] > 1e-3


def test_only_the_projected_run_requires_a_tangent_start():
    # one quantum in the condensate mode: a(u0) of it has norm 1
    lat, h0, W = setup_model(3, g=1.2)
    basis = enumerate_basis(3, 6)
    traj = solve_hartree(bump(lat), h0, W, T=0.2, dt=0.001)
    start = FockVector(basis, create_op(traj.u[0], basis) @ FockVector.vacuum(basis).amplitudes)
    with pytest.raises(ValueError, match="initial state has tangency defect"):
        solve_bogoliubov(start.copy(), traj, h0, W, dt=0.01, t_grid=[0.1, 0.2])
    # the bare-kernel run takes only multiples of the vacuum, each quasi-free
    with pytest.raises(ValueError, match="multiple of the vacuum"):
        solve_bogoliubov(start.copy(), traj, h0, W, dt=0.01, t_grid=[0.1, 0.2],
                         projected=False)


def _per_state_coherent_amplitudes(f, basis):
    # reference: the factor-by-factor product over each occupation vector
    lam = float(np.linalg.norm(f)) ** 2
    amps = np.empty(basis.size, dtype=complex)
    for idx, occ in enumerate(basis.states):
        val = 1.0 + 0.0j
        for fi, c in zip(f, occ):
            c = int(c)
            if c:
                val *= fi**c / math.sqrt(math.factorial(c))
        amps[idx] = val
    return math.exp(-lam / 2) * amps


@pytest.mark.parametrize("M,n_max", [(2, 20), (3, 8), (4, 6)])
def test_coherent_state_matches_the_per_state_reference(M, n_max):
    basis = enumerate_basis(M, n_max)
    rng = np.random.default_rng(M + n_max)
    f = 0.6 * (rng.normal(size=M) + 1j * rng.normal(size=M))
    for g in (f, np.concatenate([[0.0], f[1:]])):
        got = coherent_state(g, basis).amplitudes
        assert np.max(np.abs(got - _per_state_coherent_amplitudes(g.astype(complex), basis))) <= 1e-15


COMPARISON = {
    "model": {"modes": 3, "spacing": 1.0,
              "interaction": {"kind": "gaussian", "params": {"strength": 1.2, "range": 1.0}}},
    "u0": {"kind": "gaussian", "center": 0.0, "width": 0.8},
    "N_list": [3, 4],
    "n_max": 6,
    "T": 0.5,
    "output_times": [0.0, 0.25, 0.5],
    "dt_hartree": 0.002,
    "dt_fock": 0.01,
    "dt_nbody": 0.1,
}


@pytest.mark.parametrize("interaction", ["gaussian", "zero"])
def test_compare_coherent_rows_are_the_projected_and_bare_runs(interaction):
    doc = json.loads(json.dumps(COMPARISON))
    if interaction == "zero":
        doc["model"]["interaction"] = {"kind": "zero"}
    cfg = ExperimentConfig(doc)
    rows = compare_coherent(cfg, write=False)

    lattice = cfg.lattice()
    h0, W, u0 = cfg.one_body(lattice), cfg.interaction(lattice), cfg.condensate(lattice)
    traj = solve_hartree(u0, h0, W, cfg.T, cfg.dt_hartree)
    vac = FockVector.vacuum(enumerate_basis(lattice.M, cfg.n_max))
    times = cfg.output_times
    proj = solve_bogoliubov(vac.copy(), traj, h0, W, cfg.dt_fock, t_grid=times)
    bare = solve_bogoliubov(vac.copy(), traj, h0, W, cfg.dt_fock, t_grid=times, projected=False)

    assert [row["time"] for row in rows] == times
    assert rows[0]["gap_norm"] == 0.0
    for row, p, b in zip(rows, proj.states, bare.states):
        assert row["proj_cut_weight"] == 1.0 - p.norm() ** 2
        assert row["bare_cut_weight"] == 1.0 - b.norm() ** 2
        pn, bn = p.sector_norms(), b.sector_norms()
        assert [row[f"proj_sector_{n}"] for n in range(7)] == pn[:7].tolist()
        assert [row[f"bare_sector_{n}"] for n in range(7)] == bn[:7].tolist()
    if interaction == "zero":
        assert max(row["gap_norm"] for row in rows) <= 1e-12
    else:
        assert rows[-1]["gap_norm"] > 1e-3
