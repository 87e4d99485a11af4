"""Refilled quadratic operators against an independent assembly.

The fast path fills values into a sparsity pattern cached on the basis.  The
oracle here builds the same operators from products of the mode annihilators
L_i = oracles.mode_lowering(basis, i):
    dGamma(A) = sum_ij A_ij L_i^dag L_j,
    pairing(K) = (1/2) sum_ij K_ij L_i^dag L_j^dag + h.c.,
    a(f) = sum_i conj(f_i) L_i.
A product of truncated matrices drops exactly the creation amplitudes that
would leave the truncation, so the oracle matches on the edge sectors too.
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from bogofluct.bogoliubov import bogoliubov_hamiltonian, build_kernels, mean_field_hamiltonian
from bogofluct.fock import (
    CSRPattern,
    OneBodyForm,
    annihilate_op,
    create_op,
    dgamma,
    enumerate_basis,
    mode_raisings,
    pairing_op,
    pairing_raise,
    quadratic_op,
    sector_mode_lowerings,
)
from oracles import as_csr, mode_lowering

SIZES = [(1, 4), (2, 3), (3, 1), (3, 4), (4, 5)]
TOL = 1e-13


def lowerings(basis):
    return [mode_lowering(basis, i).toarray() for i in range(basis.M)]


def oracle_dgamma(A, basis):
    L = lowerings(basis)
    return sum(A[i, j] * L[i].conj().T @ L[j]
               for i in range(basis.M) for j in range(basis.M))


def oracle_raise(K, basis):
    L = lowerings(basis)
    return 0.5 * sum(K[i, j] * L[i].conj().T @ L[j].conj().T
                     for i in range(basis.M) for j in range(basis.M))


def random_inputs(rng, M):
    A = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    K = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    f = rng.normal(size=M) + 1j * rng.normal(size=M)
    return A, K + K.T, f


def assert_matches(op, ref):
    assert np.max(np.abs(op.toarray() - ref)) <= TOL


def snapshot(mat):
    return (mat.data.tobytes(), mat.indices.tobytes(), mat.indptr.tobytes(), mat.shape)


@pytest.mark.parametrize("M,n_max", SIZES)
def test_fills_match_lowering_oracle(M, n_max):
    rng = np.random.default_rng(10 * M + n_max)
    basis = enumerate_basis(M, n_max)
    A, K, f = random_inputs(rng, M)
    up = oracle_raise(K, basis)
    assert_matches(dgamma(A, basis), oracle_dgamma(A, basis))
    assert_matches(pairing_raise(K, basis), up)
    assert_matches(pairing_op(K, basis), up + up.conj().T)
    low = sum(np.conj(f[i]) * L for i, L in enumerate(lowerings(basis)))
    assert_matches(annihilate_op(f, basis), low)
    assert_matches(create_op(f, basis), low.conj().T)
    assert_matches(quadratic_op(A, K, basis), oracle_dgamma(A, basis) + up + up.conj().T)


@pytest.mark.parametrize("M,n_max", [(2, 3), (3, 4), (4, 5)])
def test_generator_matches_lowering_oracle(M, n_max):
    rng = np.random.default_rng(M + n_max)
    basis = enumerate_basis(M, n_max)
    u = rng.normal(size=M) + 1j * rng.normal(size=M)
    u /= np.linalg.norm(u)
    h0 = rng.normal(size=(M, M))
    W = rng.normal(size=(M, M))
    kern = build_kernels(u, W + W.T)
    h = mean_field_hamiltonian(u, h0 + h0.T, W + W.T)
    # the projected generator, and the bare one from its public formula
    for gen, k1, k2 in [
        (bogoliubov_hamiltonian(u, h0 + h0.T, W + W.T, basis), kern.k1, kern.k2),
        (quadratic_op(h + kern.k1_bare, kern.k2_bare, basis), kern.k1_bare, kern.k2_bare),
    ]:
        up = oracle_raise(k2, basis)
        assert_matches(gen, oracle_dgamma(h + k1, basis) + up + up.conj().T)


def test_refill_returns_first_matrix_exactly():
    rng = np.random.default_rng(3)
    basis = enumerate_basis(3, 5)
    A1, K1, f1 = random_inputs(rng, 3)
    A2, K2, f2 = random_inputs(rng, 3)
    K2[0, 1] = K2[1, 0] = 0.0  # a second fill with a block left out
    for build, first, second in [
        (dgamma, A1, A2),
        (pairing_op, K1, K2),
        (pairing_raise, K1, K2),
        (annihilate_op, f1, f2),
        (create_op, f1, f2),
        (lambda AK, b: quadratic_op(*AK, b), (A1, K1), (A2, K2)),
    ]:
        ref = snapshot(build(first, basis))
        assert snapshot(build(second, basis)) != ref
        assert snapshot(build(first, basis)) == ref


def test_in_place_changes_do_not_reach_the_next_fill():
    rng = np.random.default_rng(4)
    basis = enumerate_basis(3, 5)
    A, K, f = random_inputs(rng, 3)
    for build in (lambda: dgamma(A, basis), lambda: annihilate_op(f, basis),
                  lambda: quadratic_op(A, K, basis), lambda: pairing_raise(K, basis)):
        ref = snapshot(build())
        mat = build()
        mat.data[::2] = 0.0
        mat.eliminate_zeros()
        mat = build()
        mat.indices[:] = 0
        mat.indptr[:] = 0
        assert snapshot(build()) == ref


def test_zero_coefficients_leave_blocks_out():
    basis = enumerate_basis(3, 4)
    A = np.zeros((3, 3), dtype=complex)
    A[0, 1] = 1.0
    # only the hop a_0^dag a_1 is stored: the diagonal is zero everywhere
    assert dgamma(A, basis).nnz == basis.hop_structure(0, 1)[0].size
    assert quadratic_op(np.zeros((3, 3)), np.zeros((3, 3)), basis).nnz == 0
    # the vacuum diagonal entry of dGamma is an exact zero and is dropped
    d = dgamma(np.eye(3), basis)
    assert d.nnz == basis.size - 1 and d[0, 0] == 0
    # a coefficient 0.5 * K that underflows to zero: the Hermitian sum and
    # the creation half both drop the zeros
    K = np.zeros((3, 3))
    K[0, 0] = 5e-324
    assert pairing_op(K, basis).nnz == 0
    assert pairing_raise(K, basis).nnz == 0


def test_pattern_checks_band_once_when_built():
    basis = enumerate_basis(2, 3)
    dst, src, amps = basis.lowering_structure(0)
    CSRPattern(basis, [("a0", dst, src, amps, -1)])
    with pytest.raises(ValueError, match="particle number"):
        CSRPattern(basis, [("a0", dst, src, amps, 1)])
    with pytest.raises(ValueError, match="overlap"):
        CSRPattern(basis, [("a0", dst, src, amps, -1), ("again", dst, src, amps, -1)])


def test_vectorized_lookup_matches_row_dict():
    # the rank against a brute-force dict of the tuples in basis order:
    # total ascending, then the first mode filling first
    for M, n_max in [(1, 5), (2, 0), (3, 6), (4, 8)]:
        basis = enumerate_basis(M, n_max)
        rows = sorted((occ for occ in itertools.product(range(n_max + 1), repeat=M)
                       if sum(occ) <= n_max), key=lambda occ: (sum(occ), [-c for c in occ]))
        brute = {occ: i for i, occ in enumerate(rows)}
        assert [tuple(row) for row in basis.states.tolist()] == rows
        assert basis.lookup(np.array(rows)).tolist() == [brute[occ] for occ in rows]
        top = [n_max + 1] + [0] * (M - 1)
        for bad in ([top], [[-1] + [0] * (M - 1)], [[0] * (M + 1)]):
            with pytest.raises(KeyError):
                basis.lookup(np.array(bad))
    basis = enumerate_basis(4, 6)
    row_dict = {tuple(row): i for i, row in enumerate(basis.states.tolist())}
    assert np.array_equal(basis.lookup(basis.states), np.arange(basis.size))
    shifted = basis.states[basis.states[:, 2] > 0].copy()
    shifted[:, 2] -= 1
    shifted[:, 0] += 1
    expected = [row_dict[tuple(occ)] for occ in shifted.tolist()]
    assert basis.lookup(shifted).tolist() == expected
    assert [basis.index(occ) for occ in shifted] == expected
    assert basis.index((1, 0, 0, 0)) == row_dict[(1, 0, 0, 0)]
    for bad in ([[7, 0, 0, 0]], [[0, 0, 0, -1]], [[1, 0, 0]]):
        with pytest.raises(KeyError):
            basis.lookup(np.array(bad))
    with pytest.raises(KeyError):
        basis.index((0, 0, 7, 0))


@pytest.mark.parametrize("M,n_max", [(2, 3), (3, 4), (4, 5)])
def test_no_constructor_stores_an_exact_zero(M, n_max):
    rng = np.random.default_rng(100 + 10 * M + n_max)
    basis = enumerate_basis(M, n_max)
    A, K, f = random_inputs(rng, M)
    A_hops = A.copy()
    A_hops[0, 1] = A_hops[M - 1, 0] = 0.0  # zeroed hops leave blocks out
    A_cancel = A.copy()
    A_cancel[np.diag_indices(M)] = 0.0
    A_cancel[0, 0], A_cancel[1, 1] = 1.0, -1.0  # diagonal zero where n_0 == n_1
    K_tiny = K.copy()
    K_tiny[0, 0] = 5e-324  # 0.5 * K[0, 0] underflows to zero
    f[0] = 0.0
    low = sum(np.conj(f[i]) * L for i, L in enumerate(lowerings(basis)))
    built = [(dgamma(B, basis), oracle_dgamma(B, basis)) for B in (A, A_hops, A_cancel)]
    for kern in (K, K_tiny):
        up = oracle_raise(kern, basis)
        built += [(pairing_raise(kern, basis), up), (pairing_op(kern, basis), up + up.conj().T)]
        # every block named: only the zero array value or the zero scalar
        built += [(quadratic_op(B, kern, basis), oracle_dgamma(B, basis) + up + up.conj().T)
                  for B in (A, A_cancel)]
    built += [(annihilate_op(f, basis), low), (create_op(f, basis), low.conj().T)]
    for op, ref in built:
        assert np.all(op.data != 0)
        assert_matches(op, ref)


@pytest.mark.parametrize("M,n_max", SIZES)
def test_sector_mode_lowerings_stack_the_blocks_of_each_a_i(M, n_max):
    basis = enumerate_basis(M, n_max)
    for n in range(1, n_max + 1):
        rows, cols = basis.sector_slice(n - 1), basis.sector_slice(n)
        want = np.vstack([mode_lowering(basis, i).toarray()[rows, cols] for i in range(M)])
        assert np.array_equal(sector_mode_lowerings(basis, n).toarray(), want)
    whole = np.vstack([mode_lowering(basis, i).toarray().T for i in range(M)])
    assert np.array_equal(mode_raisings(basis).toarray(), whole)


@pytest.mark.parametrize("M,n_max", [(1, 4), (3, 4), (4, 5)])
def test_full_mode_lowering_stack_is_the_stack_of_each_a_i(M, n_max):
    # with no sector, the transposed rows of the whole raising table: the
    # values and index arrays of a stack of M annihilate_op fills; the energy
    # form, summed as a Gram matrix sector by sector, agrees with the form of
    # that stack to the bound of the dgamma expectation test
    basis = enumerate_basis(M, n_max)
    low = as_csr(sector_mode_lowerings(basis))
    want = sp.vstack([annihilate_op(e, basis) for e in np.eye(M)], format="csr")
    assert np.array_equal(low.toarray(), want.toarray())
    assert low.indices.tobytes() == want.indices.tobytes()
    assert low.indptr.tobytes() == want.indptr.tobytes()
    rng = np.random.default_rng(300 + 10 * M + n_max)
    A, _K, _f = random_inputs(rng, M)
    form = OneBodyForm(A, basis)
    for _ in range(3):
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        X = (want @ v).reshape(M, -1)
        full = complex(np.vdot(X, A @ X))
        assert abs(form(v) - full) <= 1e-13 * abs(full)


@pytest.mark.parametrize("M,n_max", [(2, 5), (3, 4), (4, 5)])
def test_energy_form_is_the_dgamma_expectation(M, n_max):
    # A is not Hermitian, so sum_ij A_ij <a_i v, a_j v> with i and j swapped
    # would give another value
    rng = np.random.default_rng(200 + 10 * M + n_max)
    basis = enumerate_basis(M, n_max)
    A, _K, _f = random_inputs(rng, M)
    v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    want = np.vdot(v, dgamma(A, basis) @ v)
    assert abs(OneBodyForm(A, basis)(v) - want) <= 1e-13 * abs(want)
    assert abs(OneBodyForm(A.T, basis)(v) - want) > 1e-3 * abs(want)


def test_energy_form_call_holds_no_array_of_the_lowering_stack():
    # at M=4, n_max=24 (20,475 states) one call of the form allocates less
    # than one M x size complex array, the image of v under the stacked mode
    # lowerings, and still gives the dgamma expectation
    import tracemalloc

    basis = enumerate_basis(4, 24)
    rng = np.random.default_rng(24)
    A, _K, _f = random_inputs(rng, basis.M)
    v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
    form = OneBodyForm(A, basis)
    tracemalloc.start()
    try:
        got = form(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < basis.M * basis.size * 16
    want = np.vdot(v, dgamma(A, basis) @ v)
    assert abs(got - want) <= 1e-13 * abs(want)


def test_pattern_refuses_an_amplitude_below_one():
    basis = enumerate_basis(2, 3)
    dst, src, amps = basis.lowering_structure(0)
    with pytest.raises(ValueError, match="amplitude below 1"):
        CSRPattern(basis, [("a0", dst, src, 0.5 * amps, -1)])


def expected_ladder(basis, down, up):
    # the ladder pattern state by state, in Python integers
    rows, cols, factors = [], [], []
    for s, occ in enumerate(basis.states.tolist()):
        factor = 1
        for j in down:
            factor *= occ[j]
            occ[j] -= 1
        for i in up:
            occ[i] += 1
            factor *= occ[i]
        if factor > 0 and sum(occ) <= basis.n_max:
            rows.append(basis.index(occ))
            cols.append(s)
            factors.append(factor)
    return rows, cols, factors


@pytest.mark.parametrize("M,n_max", [(1, 5), (3, 4), (4, 6)])
def test_ladder_amplitudes_are_roots_of_integer_products(M, n_max):
    basis = enumerate_basis(M, n_max)
    cases = [(basis.lowering_structure(i), (i,), ()) for i in range(M)]
    cases += [(basis.hop_structure(i, j), (j,), (i,))
              for i in range(M) for j in range(M) if i != j]
    cases += [(basis.pair_structure(i, j), (), (i, j)) for i in range(M) for j in range(i, M)]
    for (dst, src, amps), down, up in cases:
        rows, cols, factors = expected_ladder(basis, down, up)
        assert dst.tolist() == rows and src.tolist() == cols
        assert amps.tobytes() == np.sqrt(np.array(factors, dtype=float)).tobytes()


@pytest.mark.parametrize("M,n_max", SIZES)
def test_raise_family_alone_is_the_creation_half(M, n_max):
    rng = np.random.default_rng(300 + 10 * M + n_max)
    basis = enumerate_basis(M, n_max)
    _A, K, _f = random_inputs(rng, M)
    i, j = np.triu_indices(M)
    up = 0.5 * np.where(i == j, K[i, j], K[i, j] + K[j, i])
    filled = basis.quadratic_pattern().fill({"raise": up})
    assert snapshot(filled) == snapshot(pairing_raise(K, basis))


def test_fill_refuses_an_unknown_family_or_a_wrong_length():
    # a(f) has no pattern any more: test_raising_table's
    # test_lowerings_refuse_an_f_of_the_wrong_length refuses its wrong f
    basis = enumerate_basis(3, 4)
    quad = basis.quadratic_pattern()
    with pytest.raises(KeyError):
        quad.fill({("hop", 0, 1): 1.0})
    for family, val in [("hop", np.ones(3)), ("raise", np.ones((3, 2))),
                        ("diag", np.ones(basis.size))]:
        with pytest.raises(ValueError, match="coefficients"):
            quad.fill({family: val})


def test_one_mode_has_an_empty_hop_family():
    basis = enumerate_basis(1, 6)
    start, end = basis.quadratic_pattern().families["hop"]
    assert start == end
    A, K = np.array([[0.7 - 0.2j]]), np.array([[1.3 + 0.4j]])
    up = oracle_raise(K, basis)
    assert_matches(quadratic_op(A, K, basis), oracle_dgamma(A, basis) + up + up.conj().T)
    assert_matches(dgamma(A, basis), oracle_dgamma(A, basis))
