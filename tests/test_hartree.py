import numpy as np
import pytest
import scipy.linalg as sla

from bogofluct.hartree import _rhs, hartree_energy, mean_field, mu_of, solve_hartree
from bogofluct.model import build_interaction, build_laplacian, build_lattice, constant_profile, gaussian_profile


def setup_model(M=4, g=1.0):
    lat = build_lattice(M, 1.0)
    h0 = build_laplacian(lat)
    W = build_interaction(lat, gaussian_profile(g, 1.0))
    return lat, h0, W


def bump(lat, width=1.0):
    d = np.minimum(lat.positions, lat.M * lat.spacing - lat.positions)
    u = np.exp(-(d**2) / (2 * width**2)).astype(complex)
    return u / np.linalg.norm(u)


def test_mean_field_examples():
    lat, h0, W = setup_model(2)
    u = np.array([1.0, 0.0], dtype=complex)
    assert np.allclose(mean_field(u, np.zeros((2, 2))), 0.0)
    Wc = build_interaction(lat, constant_profile(0.8))
    v = mean_field(bump(lat := build_lattice(2, 1.0)), Wc)
    assert np.allclose(v, 0.8)
    Wg = build_interaction(lat, gaussian_profile(1.0, 1.0))
    assert np.allclose(mean_field(u, Wg), Wg[:, 0])


def test_mu_examples_and_double_sum_oracle():
    lat = build_lattice(2, 1.0)
    Wc = build_interaction(lat, constant_profile(0.8))
    u = bump(lat)
    assert abs(mu_of(u, Wc) - 0.4) < 1e-14
    assert mu_of(u, np.zeros((2, 2))) == 0.0

    q = 0.37
    W = np.array([[1.0, q], [q, 1.0]])
    u = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
    # frozen from the explicit double sum: (1 + q)/4
    oracle = 0.5 * sum(
        abs(u[x]) ** 2 * W[x, y] * abs(u[y]) ** 2 for x in range(2) for y in range(2)
    )
    assert abs(mu_of(u, W) - oracle) < 1e-15
    assert abs(mu_of(u, W) - (1 + q) / 4) < 1e-15


def test_hartree_energy_examples():
    lat, h0, W = setup_model(3)
    evals, evecs = np.linalg.eigh(h0)
    u = evecs[:, 1].astype(complex)
    assert abs(hartree_energy(u, h0, np.zeros((3, 3))) - evals[1]) < 1e-12
    Wc = build_interaction(lat, constant_profile(0.6))
    kin = float(np.vdot(u, h0 @ u).real)
    assert abs(hartree_energy(u, h0, Wc) - (kin + 0.3)) < 1e-12


def test_free_solution_matches_expm():
    lat, h0, _ = setup_model(4)
    W0 = np.zeros((4, 4))
    u0 = bump(lat)
    traj = solve_hartree(u0, h0, W0, T=1.0, dt=0.001)
    exact = sla.expm(-1j * 1.0 * h0) @ u0
    assert np.linalg.norm(traj.u[-1] - exact) < 1e-10


def test_eigenvector_evolves_by_phase():
    lat, h0, _ = setup_model(3)
    evals, evecs = np.linalg.eigh(h0)
    u0 = evecs[:, 2].astype(complex)
    traj = solve_hartree(u0, h0, np.zeros((3, 3)), T=0.5, dt=0.001)
    assert np.linalg.norm(traj.u[-1] - np.exp(-1j * evals[2] * 0.5) * u0) < 1e-10


# T = 1 at dt = 0.01 is not a whole number of chunks: the rows of |h0| sum to
# 4 on the free 4-ring, so a chunk holds 12 steps of 0.01 and the last one
# keeps 4 of its 12 stored points; at T = 0.05 the whole horizon is one chunk
@pytest.mark.parametrize("T, dt", [(1.0, 0.01), (1.0, 0.0005), (0.05, 0.01)])
def test_free_stored_history_is_the_exact_propagator(T, dt):
    lat, h0, _ = setup_model(4)
    u0 = bump(lat)
    traj = solve_hartree(u0, h0, np.zeros((4, 4)), T=T, dt=dt)
    exact = sla.expm(-1j * traj.times[:, None, None] * h0) @ u0
    assert np.abs(traj.u - exact).max() < 1e-12


def test_stored_history_does_not_depend_on_dt():
    # the stored points interpolate the collocation solution of each chunk,
    # so a coarse and a fine grid agree at their shared times to round-off
    lat, h0, W = setup_model(4, g=1.0)
    u0 = bump(lat)
    coarse = solve_hartree(u0, h0, W, T=2.0, dt=0.002)
    fine = solve_hartree(u0, h0, W, T=2.0, dt=0.0005)
    assert np.abs(coarse.u - fine.u[::4]).max() < 1e-12


def test_norm_and_energy_conserved_interacting():
    lat, h0, W = setup_model(4, g=1.5)
    traj = solve_hartree(bump(lat), h0, W, T=2.0, dt=0.0005)
    assert np.max(np.abs(traj.norms() - 1.0)) < 1e-10
    e0 = traj.energy[0]
    assert np.max(np.abs(traj.energy - e0)) < 1e-8 * abs(e0)


def test_rhs_of_a_stack_is_the_rhs_of_each_row():
    lat, h0, W = setup_model(4, g=1.5)
    rng = np.random.default_rng(7)
    U = rng.normal(size=(7, 4)) + 1j * rng.normal(size=(7, 4))
    U /= np.linalg.norm(U, axis=1)[:, None]
    rows = np.array([_rhs(u, h0, W) for u in U])
    assert np.abs(_rhs(U, h0, W) - rows).max() < 1e-15
    traj = solve_hartree(bump(lat), h0, W, T=0.3, dt=0.001)
    assert np.abs(traj.udot - np.array([_rhs(u, h0, W) for u in traj.u])).max() < 1e-15


def test_gauge_consistency():
    # <u, i du/dt> equals the per-particle energy when the gauge is active
    lat, h0, W = setup_model(4, g=1.3)
    traj = solve_hartree(bump(lat), h0, W, T=0.5, dt=0.001)
    for k in (0, 200, 400):
        lhs = np.vdot(traj.u[k], 1j * traj.udot[k]).real
        assert abs(lhs - traj.energy[k]) < 1e-10


def test_interpolation_accuracy_and_defect():
    lat, h0, W = setup_model(4, g=1.2)
    u0 = bump(lat)
    coarse = solve_hartree(u0, h0, W, T=1.0, dt=0.01)
    fine = solve_hartree(u0, h0, W, T=1.0, dt=0.0005)
    for t in (0.123, 0.5005, 0.777):
        k = int(round(t / 0.0005))
        t_snap = fine.times[k]
        ui = coarse.interpolate(t_snap)
        assert np.linalg.norm(ui - fine.u[k]) < 1e-7
        assert coarse.interpolation_defect(t_snap) < 1e-3
    # at stored points the interpolant is the stored value up to renormalization
    assert np.linalg.norm(coarse.interpolate(coarse.times[37]) - coarse.u[37]) < 1e-9


def test_interpolation_of_an_array_is_the_scalar_form_bit_for_bit():
    lat, h0, W = setup_model(4, g=1.2)
    traj = solve_hartree(bump(lat), h0, W, T=1.0, dt=0.01)
    stored = traj.times[[0, 1, 37, -2, -1]]
    interior = [0.0123, 0.5005, 0.777, 0.9999]
    clamped = [-0.5, -1e-12, 1.0 + 1e-12, 3.0]
    ts = np.concatenate([stored, interior, clamped])
    rows = traj.interpolate(ts)
    assert rows.shape == (len(ts), 4)
    for t, row in zip(ts, rows):
        assert row.tobytes() == traj.interpolate(float(t)).tobytes()
    # the ends are the stored modes themselves, not renormalized
    assert rows[-4].tobytes() == rows[-3].tobytes() == traj.u[0].tobytes()
    assert rows[-2].tobytes() == rows[-1].tobytes() == traj.u[-1].tobytes()
    assert traj.interpolate(ts[5:6]).shape == (1, 4)
    assert traj.interpolate(np.array([])).shape == (0, 4)
    with pytest.raises(ValueError, match="finite"):
        traj.interpolate(np.array([0.5, np.nan]))


def test_interpolation_between_stored_times_is_independent_of_dt():
    # between stored times u is the chunk's collocation polynomial, so a
    # coarse dt_hartree agrees with a fine solve to round-off, not to O(dt^4)
    lat, h0, W = setup_model(4, g=2.0)
    u0 = bump(lat)
    ref = solve_hartree(u0, h0, W, T=1.0, dt=5e-5)
    idx = np.arange(7, len(ref.times) - 1, 97)
    for dt in (0.01, 0.002):
        traj = solve_hartree(u0, h0, W, T=1.0, dt=dt)
        assert np.abs(traj.interpolate(ref.times[idx]) - ref.u[idx]).max() < 1e-14


def test_interpolation_defect_is_the_collocation_residual():
    lat, h0, W = setup_model(4, g=2.0)
    traj = solve_hartree(bump(lat), h0, W, T=1.0, dt=0.01)
    ts = np.linspace(0.0, 1.0, 2002)[1:-1]
    assert max(traj.interpolation_defect(t) for t in ts) < 1e-11


def test_stored_gauge_and_energy_are_those_of_the_stored_modes():
    lat, h0, W = setup_model(4, g=1.5)
    traj = solve_hartree(bump(lat), h0, W, T=0.3, dt=0.001)
    for u, mu, energy in zip(traj.u, traj.mu, traj.energy):
        assert abs(mu - mu_of(u, W)) < 1e-14
        assert abs(energy - hartree_energy(u, h0, W)) < 1e-14


def test_rejects_bad_input_and_reports_drift():
    lat, h0, W = setup_model(3)
    with pytest.raises(ValueError):
        solve_hartree(2.0 * bump(lat), h0, W, T=1.0, dt=0.01)
    with pytest.raises(RuntimeError):
        # absurdly large step drives the norm off within a few steps
        solve_hartree(bump(lat), h0, 50.0 * W, T=5.0, dt=0.9)


def test_trajectory_csv(tmp_path):
    lat, h0, W = setup_model(3)
    traj = solve_hartree(bump(lat), h0, W, T=0.1, dt=0.01)
    path = tmp_path / "traj.csv"
    traj.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("time,re_u0,im_u0")
    assert len(lines) == len(traj.times) + 1
