"""Parity of the total number under the fluctuation stepper.

The quadratic generator changes the total number by 0 or +-2, so the
amplitudes of a parity the start has no weight in stay exactly zero.  The
oracle for the stepper is the full-basis midpoint Krylov loop, written out
here.
"""

import numpy as np
import pytest

from bogofluct.bogoliubov import bogoliubov_hamiltonian, solve_bogoliubov
from bogofluct.fock import FockVector, enumerate_basis, pairing_raise
from bogofluct.hartree import solve_hartree
from bogofluct.linalg import krylov_expm
from bogofluct.model import build_interaction, build_laplacian, build_lattice, gaussian_profile


def random_complex(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_totals_are_cached_and_read_only():
    basis = enumerate_basis(3, 4)
    totals = basis.totals()
    assert basis.totals() is totals
    assert np.array_equal(totals, basis.states.sum(axis=1))
    with pytest.raises(ValueError):
        totals[0] = 7


# -------------------------------------------------------------- the stepper

def setup_run(M=3, n_max=8, g=1.5, T=0.3):
    lat = build_lattice(M, 1.0)
    h0 = build_laplacian(lat)
    W = build_interaction(lat, gaussian_profile(g, 1.0))
    d = np.minimum(lat.positions, lat.M * lat.spacing - lat.positions)
    u0 = np.exp(-(d**2) / 2.0).astype(complex)
    u0 /= np.linalg.norm(u0)
    traj = solve_hartree(u0, h0, W, T=T, dt=0.001)
    return enumerate_basis(M, n_max), u0, traj, h0, W


def full_basis_krylov(phi0, traj, h0, W, dt, t_grid):
    # the midpoint-frozen Krylov loop of solve_bogoliubov, on the full basis
    amps = phi0.amplitudes.copy()
    t = 0.0
    out = []
    for t_target in t_grid:
        n_sub = max(1, int(round((t_target - t) / dt)))
        step = (t_target - t) / n_sub
        for _ in range(n_sub):
            gen = bogoliubov_hamiltonian(traj.interpolate(t + 0.5 * step), h0, W, phi0.basis)
            amps = krylov_expm(gen, amps, -1j * step, tol=1e-12)
            t += step
        out.append(amps.copy())
    return out


def sector_one_start(basis, u0, rng):
    v = random_complex(rng, basis.M)
    v -= u0 * np.vdot(u0, v)
    amps = np.zeros(basis.size, dtype=complex)
    amps[basis.sector_slice(1)] = v / np.linalg.norm(v)
    return FockVector(basis, amps)


def vacuum_plus_pair_start(basis, u0, rng):
    # an even tangent start that is not a multiple of the vacuum, so it steps
    # Fock amplitudes: the vacuum plus a normalized pair layer q X q^T
    # orthogonal to the condensate
    q = np.eye(basis.M) - np.outer(u0, np.conj(u0))
    X = random_complex(rng, basis.M, basis.M)
    pair = FockVector(basis, pairing_raise(q @ (X + X.T) @ q.T, basis) @ FockVector.vacuum(basis).amplitudes)
    amps = pair.amplitudes / pair.norm()
    amps[0] = 1.0
    return FockVector(basis, amps / np.linalg.norm(amps))


@pytest.mark.parametrize("start", ["vacuum", "vacuum plus sector 2", "sector 1"])
def test_single_parity_start_matches_full_basis_krylov(start):
    # a vacuum start steps the untruncated quasi-free dynamics; at n_max = 20
    # the weight the full-basis Krylov loop loses at its cut is far below the
    # tolerance, at the default n_max = 8 it is not; the other starts step
    # the full basis with the loop's own arithmetic
    basis, u0, traj, h0, W = setup_run(n_max=20 if start == "vacuum" else 8)
    if start == "vacuum":
        phi0, p = FockVector.vacuum(basis), 0
    elif start == "vacuum plus sector 2":
        phi0, p = vacuum_plus_pair_start(basis, u0, np.random.default_rng(3)), 0
    else:
        phi0, p = sector_one_start(basis, u0, np.random.default_rng(4)), 1
    grid = [0.1, 0.3]
    run = solve_bogoliubov(phi0, traj, h0, W, dt=0.01, t_grid=grid)
    ref = full_basis_krylov(phi0, traj, h0, W, 0.01, grid)
    other = basis.totals() % 2 != p
    for state, want in zip(run.states, ref):
        assert state.basis is basis
        if start == "vacuum":
            assert np.linalg.norm(state.amplitudes - want) < 1e-12
        else:
            assert state.amplitudes.tobytes() == want.tobytes()
        assert np.all(state.amplitudes[other] == 0)
    assert np.linalg.norm(run.states[-1].amplitudes[~other][1:]) > 1e-3


def test_mixed_parity_start_steps_the_full_basis_bit_for_bit():
    basis, u0, traj, h0, W = setup_run()
    rng = np.random.default_rng(5)
    amps = sector_one_start(basis, u0, rng).amplitudes
    amps[0] = 0.6
    phi0 = FockVector(basis, amps / np.linalg.norm(amps))
    grid = [0.1, 0.3]
    run = solve_bogoliubov(phi0, traj, h0, W, dt=0.01, t_grid=grid)
    for state, want in zip(run.states, full_basis_krylov(phi0, traj, h0, W, 0.01, grid)):
        assert state.amplitudes.tobytes() == want.tobytes()
