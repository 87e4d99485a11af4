import numpy as np
import pytest
import scipy.linalg as sla

from bogofluct.model import (
    build_interaction,
    build_laplacian,
    build_lattice,
    constant_profile,
    gaussian_profile,
    relative_bound_constant,
)


def test_lattice_positions():
    lat = build_lattice(2, 1.0)
    assert np.allclose(lat.positions, [0.0, 1.0])
    lat = build_lattice(4, 0.5)
    assert np.allclose(lat.positions, [0.0, 0.5, 1.0, 1.5])


def test_lattice_rejects_single_mode():
    with pytest.raises(ValueError):
        build_lattice(1, 1.0)
    with pytest.raises(ValueError):
        build_lattice(4, 0.0)


def test_laplacian_two_site_ring():
    # the two neighbour couplings coincide on a 2-ring
    h = build_laplacian(build_lattice(2, 1.0))
    assert np.allclose(h, [[2.0, -2.0], [-2.0, 2.0]])


def test_laplacian_three_site_circulant():
    h = build_laplacian(build_lattice(3, 1.0))
    assert np.allclose(np.diag(h), 2.0)
    assert np.allclose(h[0, 1], -1.0) and np.allclose(h[0, 2], -1.0)


@pytest.mark.parametrize("M,spacing", [(2, 1.0), (3, 0.7), (5, 1.3), (8, 0.25)])
def test_laplacian_psd_with_constant_zero_mode(M, spacing):
    h = build_laplacian(build_lattice(M, spacing))
    evals, evecs = np.linalg.eigh(h)
    assert evals[0] > -1e-12
    assert abs(evals[0]) < 1e-12
    ground = evecs[:, 0]
    assert np.allclose(np.abs(ground), 1.0 / np.sqrt(M), atol=1e-10)


def test_interaction_constant_and_zero():
    lat = build_lattice(3, 1.0)
    W = build_interaction(lat, constant_profile(2.5))
    assert np.allclose(W, 2.5)
    assert np.allclose(build_interaction(lat, constant_profile(0.0)), 0.0)


def test_interaction_gaussian_two_sites():
    lat = build_lattice(2, 1.0)
    W = build_interaction(lat, gaussian_profile(1.0, 1.0))
    e1 = np.exp(-1.0)
    assert np.allclose(W, [[1.0, e1], [e1, 1.0]])


def test_interaction_symmetric_and_rejects_odd():
    lat = build_lattice(5, 0.9)
    W = build_interaction(lat, gaussian_profile(0.7, 1.3))
    assert np.array_equal(W, W.T)
    with pytest.raises(ValueError):
        build_interaction(lat, lambda r: r)  # odd function


def test_relative_bound_zero_and_constant():
    lat = build_lattice(4, 1.0)
    h0 = build_laplacian(lat)
    W0 = build_interaction(lat, constant_profile(0.0))
    assert relative_bound_constant(W0, h0) == 0.0
    W1 = build_interaction(lat, constant_profile(1.0))
    assert relative_bound_constant(W1, h0) <= 1.0 + 1e-12


def test_relative_bound_gaussian_ring_against_bisection_oracle():
    lat = build_lattice(4, 1.0)
    h0 = build_laplacian(lat)
    W = build_interaction(lat, gaussian_profile(1.0, 1.0))
    got = relative_bound_constant(W, h0)

    # oracle: bisect the smallest c with c(I + h0) - D^2 positive semidefinite
    D2 = np.diag(W[:, 0] ** 2)
    B = np.eye(4) + h0

    def psd(c):
        return np.linalg.eigvalsh(c * B - D2)[0] >= -1e-13

    lo, hi = 0.0, 4.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if psd(mid):
            hi = mid
        else:
            lo = mid
    assert abs(got - hi) < 1e-8
    assert abs(got - 0.49297701262) < 1e-6  # frozen from the oracle


def test_relative_bound_quadratic_scaling():
    lat = build_lattice(4, 1.0)
    h0 = build_laplacian(lat)
    W = build_interaction(lat, gaussian_profile(0.8, 1.0))
    c1 = relative_bound_constant(W, h0)
    c2 = relative_bound_constant(3.0 * W, h0)
    assert abs(c2 - 9.0 * c1) < 1e-10 * max(1.0, c2)


def test_relative_bound_matches_the_generalized_eigenproblem():
    rng = np.random.default_rng(11)
    for M, spacing, g in ((4, 1.0, 1.0), (5, 0.7, 2.3), (8, 0.5, 0.6)):
        lat = build_lattice(M, spacing)
        W = build_interaction(lat, gaussian_profile(g, 1.0))
        R = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
        for h0 in (build_laplacian(lat), build_laplacian(lat) + 0.3 * R @ R.conj().T):
            D2 = np.diag(W[:, 0] ** 2).astype(complex)
            want = sla.eigh(D2, np.eye(M) + h0, eigvals_only=True)[-1]
            assert abs(relative_bound_constant(W, h0) - want) <= 1e-12 * want


@pytest.mark.parametrize("diag", [[-1.0, -1.0, -1.0], [-1.0, 0.5, 0.5]])
def test_relative_bound_refuses_a_singular_energy_form(diag):
    W = build_interaction(build_lattice(3, 1.0), gaussian_profile(1.0, 1.0))
    with pytest.raises(ValueError, match=r"I \+ h0 is not positive definite"):
        relative_bound_constant(W, np.diag(diag).astype(complex))
