"""Table starts on the quasi-free path, and the parity of the total number.

A table start p(a^dag) vacuum evolves to p(A^dag(t)) applied to the
evolved vacuum, each creator carried to a sum of one annihilator and one
creator, so each flips the parity of the total, while the evolved vacuum is
even: the amplitudes of a parity the start has no weight in stay exactly
zero.  The oracle is the full-basis midpoint Krylov loop of
oracles.full_basis_krylov, the dynamics of the generator cut at n_max, which
the untruncated run approaches as n_max grows.
"""

from pathlib import Path

import numpy as np
import pytest

import bogofluct.bogoliubov as bogoliubov
import bogofluct.linalg as linalg
from bogofluct.bogoliubov import _diag_row, solve_bogoliubov
from bogofluct.config import load_config
from bogofluct.experiment import _shared_setup
from bogofluct.fock import FockVector, OccupationBasis, enumerate_basis, pairing_raise
from bogofluct.hartree import solve_hartree
from bogofluct.model import build_interaction, build_laplacian, build_lattice, gaussian_profile
from oracles import full_basis_krylov


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_totals_are_cached_and_read_only():
    basis = enumerate_basis(3, 4)
    totals = basis.totals()
    assert basis.totals() is totals
    assert np.array_equal(totals, basis.states.sum(axis=1))
    with pytest.raises(ValueError):
        totals[0] = 7


# ------------------------------------------------ table starts and the vacuum

def setup_run(M=3, n_max=8, g=1.5, T=0.3):
    lat = build_lattice(M, 1.0)
    h0 = build_laplacian(lat)
    W = build_interaction(lat, gaussian_profile(g, 1.0))
    d = np.minimum(lat.positions, lat.M * lat.spacing - lat.positions)
    u0 = np.exp(-(d**2) / 2.0).astype(complex)
    u0 /= np.linalg.norm(u0)
    traj = solve_hartree(u0, h0, W, T=T, dt=0.001)
    return enumerate_basis(M, n_max), u0, traj, h0, W


def sector_one_start(basis, u0, rng):
    v = random_complex(rng, basis.M)
    v -= u0 * np.vdot(u0, v)
    amps = np.zeros(basis.size, dtype=complex)
    amps[basis.sector_slice(1)] = v / np.linalg.norm(v)
    return FockVector(basis, amps)


def vacuum_plus_pair_start(basis, u0, rng):
    # an even tangent start that is not a multiple of the vacuum, so a table
    # start: the vacuum plus a normalized pair layer q X q^T orthogonal to
    # the condensate
    q = np.eye(basis.M) - np.outer(u0, np.conj(u0))
    X = random_complex(rng, basis.M, basis.M)
    pair = FockVector(basis, pairing_raise(q @ (X + X.T) @ q.T, basis) @ FockVector.vacuum(basis).amplitudes)
    amps = pair.amplitudes / pair.norm()
    amps[0] = 1.0
    return FockVector(basis, amps / np.linalg.norm(amps))


@pytest.mark.parametrize("start", ["vacuum"])
def test_single_parity_start_matches_full_basis_krylov(start):
    # a vacuum start steps the untruncated quasi-free dynamics; at n_max = 20
    # the weight the full-basis Krylov loop loses at its cut is far below the
    # tolerance
    basis, u0, traj, h0, W = setup_run(n_max=20)
    grid = [0.1, 0.3]
    run = solve_bogoliubov(FockVector.vacuum(basis), traj, h0, W, dt=0.01, t_grid=grid)
    ref = full_basis_krylov(FockVector.vacuum(basis), traj, h0, W, 0.01, grid)
    odd = basis.totals() % 2 == 1
    for state, want in zip(run.states, ref):
        assert state.basis is basis
        assert np.linalg.norm(state.amplitudes - want) < 1e-12
        assert np.all(state.amplitudes[odd] == 0)
    assert np.linalg.norm(run.states[-1].amplitudes[~odd][1:]) > 1e-3


@pytest.mark.parametrize("start", ["vacuum plus sector 2", "sector 1"])
def test_single_parity_table_start_keeps_exact_zeros_in_the_other_parity(start):
    basis, u0, traj, h0, W = setup_run()
    if start == "vacuum plus sector 2":
        phi0, p = vacuum_plus_pair_start(basis, u0, np.random.default_rng(3)), 0
    else:
        phi0, p = sector_one_start(basis, u0, np.random.default_rng(4)), 1
    run = solve_bogoliubov(phi0, traj, h0, W, dt=0.01, t_grid=[0.1, 0.3])
    other = basis.totals() % 2 != p
    for state in run.states:
        assert state.basis is basis
        assert np.all(state.amplitudes[other] == 0)
    # the pairing has moved weight two sectors past the start's top one
    assert np.linalg.norm(run.states[-1].sector(4 - p)) > 1e-3


def test_table_start_approaches_the_krylov_oracle_as_n_max_grows():
    # the desk table start: the oracle is the dynamics of the generator cut
    # at n_max, the run the untruncated dynamics cut at n_max, so the gap is
    # the oracle's truncation, and four more sectors shrink it about 70-fold;
    # the gap does not depend on the step (the same to three digits at the
    # config's dt_fock = 0.002), so the coarser dt = 0.01 keeps the oracle cheap
    cfg = load_config(Path(__file__).resolve().parents[1] / "demos" / "configs"
                      / "desk_table_start.json")
    h0, W, u0, traj, _ = _shared_setup(cfg)
    gaps = []
    for n_max, bound in [(12, 1e-6), (16, 1.6e-8), (20, 2.5e-10)]:
        phi0 = cfg.excitations(u0, enumerate_basis(len(u0), n_max))
        run = solve_bogoliubov(phi0, traj, h0, W, dt=0.01, t_grid=[0.5, 1.0])
        want = full_basis_krylov(phi0, traj, h0, W, 0.01, [0.5, 1.0])[-1]
        gaps.append(np.linalg.norm(run.states[-1].amplitudes - want))
        assert gaps[-1] < bound
    assert gaps[0] > 30 * gaps[1] > 900 * gaps[2]


def test_table_start_steps_no_fock_generator(monkeypatch):
    # the run assembles no quadratic operator on the basis and takes no
    # Krylov exponential; its rows are at t = 0 and at each distinct output
    # time, each the row of its state
    def refuse(*args, **kwargs):
        raise AssertionError("a table start reached a Fock-space generator")

    for owner, name in [(bogoliubov, "krylov_expm"), (linalg, "krylov_expm"),
                        (bogoliubov, "bogoliubov_hamiltonian"),
                        (OccupationBasis, "quadratic_pattern")]:
        monkeypatch.setattr(owner, name, refuse)
    basis, u0, traj, h0, W = setup_run()
    phi0 = sector_one_start(basis, u0, np.random.default_rng(4))
    grid = [0.0, 0.1, 0.1, 0.3]
    run = solve_bogoliubov(phi0, traj, h0, W, dt=0.01, t_grid=grid)
    assert run.states[0].amplitudes.tobytes() == phi0.amplitudes.tobytes()
    rows = np.array(run.diagnostics)
    assert list(rows[:, 0]) == pytest.approx([0.0, 0.1, 0.3], abs=1e-14)
    for row, state in zip(rows, [run.states[0], *run.states[2:]]):
        assert np.array_equal(row, _diag_row(row[0], state, traj.interpolate(row[0]),
                                             run.energy_form))


def test_table_start_without_steps_returns_the_start():
    basis, u0, traj, h0, W = setup_run()
    phi0 = vacuum_plus_pair_start(basis, u0, np.random.default_rng(3))
    run = solve_bogoliubov(phi0, traj, h0, W, dt=0.01, t_grid=[0.0, 0.0])
    assert [s.amplitudes.tobytes() for s in run.states] == [phi0.amplitudes.tobytes()] * 2
    assert run.diagnostics == [_diag_row(0.0, phi0, traj.u[0], run.energy_form)]


def test_table_start_off_the_principal_branch_is_refused():
    # the table start shares the vacuum's path, so a step off the principal
    # square-root branch ends it the same way
    basis, u0, traj, h0, W = setup_run(g=100.0, T=0.25)
    phi0 = sector_one_start(basis, u0, np.random.default_rng(4))
    with pytest.raises(RuntimeError, match="principal square-root branch"):
        solve_bogoliubov(phi0, traj, h0, W, dt=0.25, t_grid=[0.25], tangency_tol=10.0)


@pytest.mark.parametrize("start", ["vacuum plus sector 2", "sector 1"])
def test_table_start_is_the_untruncated_dynamics_cut_at_n_max(start):
    # the same start on a basis four sectors larger gives the same states
    # up to n_max, the top sector of the start's parity included, where the
    # weight is not small
    basis, u0, traj, h0, W = setup_run(g=3.0, T=1.0)
    big = enumerate_basis(basis.M, basis.n_max + 4)
    make, top = ((vacuum_plus_pair_start, basis.n_max) if start == "vacuum plus sector 2"
                 else (sector_one_start, basis.n_max - 1))
    phi0 = make(basis, u0, np.random.default_rng(3))
    amps = np.zeros(big.size, dtype=complex)
    amps[:basis.size] = phi0.amplitudes
    runs = [solve_bogoliubov(phi, traj, h0, W, dt=0.01, t_grid=[0.5, 1.0], tangency_tol=1.0)
            for phi in (phi0, FockVector(big, amps))]
    for cut, whole in zip(*(run.states for run in runs)):
        assert np.linalg.norm(cut.amplitudes - whole.amplitudes[:basis.size]) < 1e-13
    assert np.linalg.norm(runs[0].states[-1].sector(top)) > 1e-3
