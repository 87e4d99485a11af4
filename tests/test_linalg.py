import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from bogofluct.linalg import (ChebyshevPropagator, KrylovError, _exp_coefficients, _expm_stack,
                              krylov_expm)
from oracles import integer_spectral_function, node_sum_coefficients


def random_hermitian(rng, n, scale=1.0):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (A + A.conj().T)


def test_krylov_matches_dense_exponential():
    rng = np.random.default_rng(0)
    H = random_hermitian(rng, 60)
    v = rng.normal(size=60) + 1j * rng.normal(size=60)
    v /= np.linalg.norm(v)
    got = krylov_expm(sp.csr_matrix(H), v, -0.3j, tol=1e-12, m_max=60)
    want = sla.expm(-0.3j * H) @ v
    assert np.linalg.norm(got - want) < 1e-10


def test_krylov_preserves_norm_and_handles_zero():
    rng = np.random.default_rng(1)
    H = random_hermitian(rng, 40)
    v = rng.normal(size=40) + 1j * rng.normal(size=40)
    out = krylov_expm(H, v, -0.05j)
    assert abs(np.linalg.norm(out) - np.linalg.norm(v)) < 1e-12
    zero = np.zeros(40, dtype=complex)
    assert np.array_equal(krylov_expm(H, zero, -1.0j), zero)


def test_krylov_invariant_subspace_breakdown():
    # an eigenvector spans a one-dimensional invariant subspace; the first
    # iteration already gives the exact answer
    rng = np.random.default_rng(2)
    H = random_hermitian(rng, 30)
    w, U = np.linalg.eigh(H)
    v = U[:, 3]
    out = krylov_expm(H, v, -2.0j)
    assert np.linalg.norm(out - np.exp(-2.0j * w[3]) * v) < 1e-11


def test_krylov_raises_instead_of_degrading():
    rng = np.random.default_rng(3)
    H = random_hermitian(rng, 200, scale=50.0)
    v = rng.normal(size=200) + 1j * rng.normal(size=200)
    v /= np.linalg.norm(v)
    with pytest.raises(KrylovError):
        krylov_expm(H, v, -5.0j, tol=1e-12, m_max=12)


def test_chebyshev_series_is_exact():
    rng = np.random.default_rng(4)
    H = random_hermitian(rng, 25)
    v = rng.normal(size=25) + 1j * rng.normal(size=25)
    prop = ChebyshevPropagator(sp.csr_matrix(H))
    for t in (1e-6, 0.3, 1.7):
        assert np.linalg.norm(prop.states(v, [t])[0] - sla.expm(-1j * t * H) @ v) < 1e-12


def test_chebyshev_series_needs_no_substep():
    # a step the Krylov subspace cannot take at its default m_max: the series
    # takes it in one call, to round-off, over a Gershgorin spread above 100
    rng = np.random.default_rng(3)
    H = random_hermitian(rng, 60)
    v = rng.normal(size=60) + 1j * rng.normal(size=60)
    v /= np.linalg.norm(v)
    with pytest.raises(KrylovError):
        krylov_expm(H, v, -2.0j, tol=1e-12)
    prop = ChebyshevPropagator(sp.csr_matrix(H))
    assert prop.half_width * 2.0 > 100
    assert np.linalg.norm(prop.states(v, [2.0])[0] - sla.expm(-2.0j * H) @ v) < 1e-12


def test_chebyshev_series_over_a_long_span_in_little_memory():
    # |x| = a t above 3,000: one series of over 3,000 terms, exact to
    # round-off against the eigendecomposition, while the memory it takes
    # stays at a few vectors and the O(n) coefficients (node sums through an
    # n x n cosine table peak above 400 MiB here)
    rng = np.random.default_rng(3)
    H = random_hermitian(rng, 60)
    v = rng.normal(size=60) + 1j * rng.normal(size=60)
    v /= np.linalg.norm(v)
    prop = ChebyshevPropagator(sp.csr_matrix(H))
    t = 50.0
    assert prop.half_width * t > 3000
    tracemalloc.start()
    try:
        got = prop.states(v, [t])[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    w, U = np.linalg.eigh(H)
    want = U @ (np.exp(-1j * t * w) * (U.conj().T @ v))
    assert np.linalg.norm(got - want) < 1e-11
    assert peak < 5 * 2**20


@pytest.mark.parametrize("n", [21, 45, 560, 2700])
def test_fft_coefficients_match_the_node_sums(n):
    for x in (0.9 * n, -0.7 * n):
        assert np.max(np.abs(_exp_coefficients(x, n) - node_sum_coefficients(x, n))) < 1e-13


def test_chebyshev_series_on_a_zero_width_interval_is_the_phase():
    v = np.random.default_rng(5).normal(size=7) + 0j
    prop = ChebyshevPropagator(0.9 * sp.identity(7, dtype=complex, format="csr"))
    assert prop.half_width == 0.0
    for t in (0.0, 0.3, 2.0):
        assert np.array_equal(prop.states(v, [t])[0], np.exp(-1j * 0.9 * t) * v)


@pytest.mark.parametrize("norm", [1e-3, 1.0, 10.0, 100.0])
def test_taylor_stack_exponential_matches_scipy(norm):
    # the largest 1-norm of the stack is norm (no squaring at 1e-3, then one,
    # five and eight), and the smaller matrices share its scale
    rng = np.random.default_rng(7)
    A = rng.normal(size=(6, 8, 8)) + 1j * rng.normal(size=(6, 8, 8))
    A *= (norm * np.linspace(0.1, 1.0, 6) / np.abs(A).sum(axis=1).max(axis=1))[:, None, None]
    for Ak, got in zip(A, _expm_stack(A)):
        want = sla.expm(Ak)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_taylor_stack_exponential_of_zero_and_of_one_matrix():
    assert np.array_equal(_expm_stack(np.zeros((3, 5, 5), dtype=complex)),
                          np.broadcast_to(np.eye(5), (3, 5, 5)))
    H = random_hermitian(np.random.default_rng(8), 6)
    got = _expm_stack(-0.7j * H[None])
    assert got.shape == (1, 6, 6)
    assert np.linalg.norm(got[0] - sla.expm(-0.7j * H)) < 1e-12
    with pytest.raises(ValueError, match="non-finite"):
        _expm_stack(np.full((1, 2, 2), np.nan))


def test_integer_spectral_function():
    rng = np.random.default_rng(5)
    # a number-like operator: unitary conjugate of an integer diagonal
    ints = np.array([0, 1, 1, 2, 3, 5], dtype=float)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    H = (Q * ints) @ Q.conj().T
    got = integer_spectral_function(H, lambda k: k * k)
    want = (Q * ints**2) @ Q.conj().T
    assert np.max(np.abs(got - want)) < 1e-10
    with pytest.raises(ValueError):
        integer_spectral_function(H + 0.3 * np.eye(6), lambda k: k)
