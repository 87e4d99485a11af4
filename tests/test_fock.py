import itertools
import math

import numpy as np
import pytest

from bogofluct.fock import (
    FockVector,
    SectorVector,
    annihilate_op,
    create_op,
    dense_to_sector,
    dgamma,
    enumerate_basis,
    hartree_block,
    number_op,
    pairing_op,
    sector_lowerings,
    sector_to_dense,
    two_body_op,
)
from oracles import embed, is_hermitian, project_out_mode, sym_tensor


def random_unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------- enumeration

def test_enumeration_examples():
    b = enumerate_basis(2, 1)
    assert [tuple(s) for s in b.states] == [(0, 0), (1, 0), (0, 1)]
    assert enumerate_basis(2, 2).size == 6
    assert enumerate_basis(3, 2).size == 10


def test_enumeration_sector_counts():
    b = enumerate_basis(4, 5)
    for n in range(6):
        assert b.sector_dim(n) == math.comb(n + 3, 3)
    # sectors ordered, lexicographic first-mode-first inside each sector
    sl = b.sector_slice(2)
    assert tuple(b.states[sl.start]) == (2, 0, 0, 0)
    assert tuple(b.states[sl.stop - 1]) == (0, 0, 0, 2)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_basis(10, 30, max_states=1000)


# ---------------------------------------------------------------- ladder ops

def test_create_on_vacuum_and_enhancement():
    b = enumerate_basis(3, 3)
    e0 = np.eye(3)[0]
    c = create_op(e0, b)
    v = FockVector(b, c @ FockVector.vacuum(b).amplitudes)
    assert abs(v.amplitudes[b.index((1, 0, 0))] - 1.0) < 1e-14
    v2 = FockVector(v.basis, c @ v.amplitudes)
    assert abs(v2.amplitudes[b.index((2, 0, 0))] - math.sqrt(2)) < 1e-14


def test_create_zero_vector_is_zero_operator():
    b = enumerate_basis(2, 2)
    assert create_op(np.zeros(2), b).nnz == 0


def test_annihilate_is_exact_adjoint():
    b = enumerate_basis(3, 3)
    rng = np.random.default_rng(5)
    f = random_unit(rng, 3)
    diff = annihilate_op(f, b) - create_op(f, b).conj().T
    assert diff.nnz == 0 or abs(diff).max() == 0.0


def test_annihilate_vacuum_and_two_quanta():
    b = enumerate_basis(2, 3)
    e0 = np.eye(2)[0]
    a = annihilate_op(e0, b)
    assert np.linalg.norm(FockVector(b, a @ FockVector.vacuum(b).amplitudes).amplitudes) == 0.0
    v = np.zeros(b.size, dtype=complex)
    v[b.index((2, 0))] = 1.0
    out = a @ v
    assert abs(out[b.index((1, 0))] - math.sqrt(2)) < 1e-14


def test_ccr_on_truncation_safe_band():
    b = enumerate_basis(3, 4)
    rng = np.random.default_rng(11)
    eye = np.eye(b.size)
    safe = b.sector_offsets[b.n_max]  # states with total <= n_max - 1
    for _ in range(5):
        f = rng.normal(size=3) + 1j * rng.normal(size=3)
        g = rng.normal(size=3) + 1j * rng.normal(size=3)
        af, ag = annihilate_op(f, b), annihilate_op(g, b)
        cg = create_op(g, b)
        comm = (af @ cg - cg @ af).toarray()
        assert np.max(np.abs(comm[:safe, :safe] - np.vdot(f, g) * eye[:safe, :safe])) < 1e-12
        comm2 = (af @ ag - ag @ af).toarray()
        assert np.max(np.abs(comm2)) < 1e-12


# --------------------------------------------------------------------- dgamma

def test_dgamma_identity_is_number_operator():
    b = enumerate_basis(3, 3)
    d = dgamma(np.eye(3), b) - number_op(b)
    assert d.nnz == 0 or abs(d).max() < 1e-14


def test_dgamma_zero_and_mode_occupation():
    b = enumerate_basis(3, 3)
    assert dgamma(np.zeros((3, 3)), b).nnz == 0
    A = np.diag([1.0, 0.0, 0.0])
    v = np.zeros(b.size, dtype=complex)
    v[b.index((2, 1, 0))] = 1.0
    out = dgamma(A, b) @ v
    assert abs(out[b.index((2, 1, 0))] - 2.0) < 1e-14


def test_dgamma_adjoint_identity():
    b = enumerate_basis(3, 3)
    rng = np.random.default_rng(2)
    A = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    d = dgamma(A, b).conj().T - dgamma(A.conj().T, b)
    assert d.nnz == 0 or abs(d).max() == 0.0


# -------------------------------------------------------------------- pairing

def test_pairing_zero_and_vacuum_amplitude():
    b = enumerate_basis(3, 3)
    assert pairing_op(np.zeros((3, 3)), b).nnz == 0
    K = np.zeros((3, 3)); K[0, 0] = 1.0
    out = FockVector(b, pairing_op(K, b) @ FockVector.vacuum(b).amplitudes)
    assert abs(out.amplitudes[b.index((2, 0, 0))] - 0.5 * math.sqrt(2)) < 1e-14


def test_pairing_hermitian_and_rejects_asymmetric():
    b = enumerate_basis(3, 4)
    rng = np.random.default_rng(8)
    K = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    K = K + K.T
    assert is_hermitian(pairing_op(K, b), 1e-13)
    with pytest.raises(ValueError):
        pairing_op(K + 1e-3 * np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), b)


def test_pairing_number_bound_on_safe_sectors():
    # +-pairing(K) <= ||K||_F (N + 2) compressed to sectors <= n_max - 2
    b = enumerate_basis(3, 5)
    rng = np.random.default_rng(21)
    K = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    K = K + K.T
    P = pairing_op(K, b).toarray()
    kf = np.linalg.norm(K)
    bound = kf * np.diag(b.totals() + 2.0)
    cut = b.sector_offsets[b.n_max - 1]  # totals <= n_max - 2
    for sign in (+1, -1):
        mat = (bound + sign * P)[:cut, :cut]
        assert np.linalg.eigvalsh(mat)[0] >= -1e-10 * max(1.0, kf)


# ------------------------------------------------------------------- two body

def test_two_body_single_particle_and_constant():
    b = enumerate_basis(3, 3)
    W = np.full((3, 3), 1.3)
    tb = two_body_op(W, b)
    for i in range(3):
        v = np.zeros(b.size); v[b.index(tuple(np.eye(3, dtype=int)[i]))] = 1.0
        assert np.linalg.norm(tb @ v) < 1e-14 or abs((tb @ v) @ v) < 1e-14
    # constant kernel on sector n: c n(n-1)/2
    sl = b.sector_slice(3)
    block = tb[sl, sl].toarray()
    assert np.allclose(block, 1.3 * 3 * 2 / 2 * np.eye(b.sector_dim(3)))


def _dense_pair_sum_oracle(W, basis, n):
    """First-quantized oracle: sum over particle pairs of W on the product
    basis, compressed to the symmetric sector."""
    M = basis.M
    dim = basis.sector_dim(n)
    embed = np.zeros((M**n, dim), dtype=complex)
    for a in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[a] = 1.0
        embed[:, a] = sector_to_dense(SectorVector(basis, n, e)).reshape(-1)
    diag = np.zeros(M**n)
    for flat, tup in enumerate(itertools.product(range(M), repeat=n)):
        diag[flat] = sum(W[tup[j], tup[k]] for j in range(n) for k in range(j + 1, n))
    return embed.conj().T @ (diag[:, None] * embed)


@pytest.mark.parametrize("M,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_two_body_matches_first_quantized_oracle(M, n):
    from bogofluct.model import build_interaction, build_lattice, gaussian_profile

    lat = build_lattice(M, 1.0)
    W = build_interaction(lat, gaussian_profile(0.9, 1.1))
    b = enumerate_basis(M, n)
    sl = b.sector_slice(n)
    block = two_body_op(W, b)[sl, sl].toarray()
    oracle = _dense_pair_sum_oracle(W, b, n)
    assert np.max(np.abs(block - oracle)) < 1e-12


# ----------------------------------------------------------------- sym tensor

def _permutation_oracle(psi_k, psi_l):
    """The exponential-cost permutation-sum definition, evaluated literally."""
    basis = psi_k.basis
    k, l = psi_k.n, psi_l.n
    Tk = sector_to_dense(psi_k)
    Tl = sector_to_dense(psi_l)
    n = k + l
    out = np.zeros((basis.M,) * n, dtype=complex)
    pref = 1.0 / math.sqrt(math.factorial(k) * math.factorial(l) * math.factorial(n))
    for sigma in itertools.permutations(range(n)):
        def term(idx):
            left = tuple(idx[sigma[j]] for j in range(k))
            right = tuple(idx[sigma[k + j]] for j in range(l))
            return Tk[left] * Tl[right]
        for idx in itertools.product(range(basis.M), repeat=n):
            out[idx] += pref * term(idx)
    return dense_to_sector(out, basis, n)


def test_sym_tensor_self_product_norm():
    b = enumerate_basis(3, 2)
    rng = np.random.default_rng(4)
    u = random_unit(rng, 3)
    su = SectorVector(b, 1, u)
    uu = sym_tensor(su, su)
    assert abs(uu.norm() - math.sqrt(2)) < 1e-12


def test_sym_tensor_with_scalar_is_identity():
    b = enumerate_basis(2, 2)
    rng = np.random.default_rng(9)
    s = SectorVector(b, 2, rng.normal(size=b.sector_dim(2)) + 0j)
    one = SectorVector(b, 0, np.array([1.0 + 0j]))
    out = sym_tensor(s, one)
    assert np.allclose(out.amplitudes, s.amplitudes)


@pytest.mark.parametrize("k,l", [(1, 1), (1, 2), (2, 2)])
def test_sym_tensor_matches_permutation_sum(k, l):
    b = enumerate_basis(2, 4)
    rng = np.random.default_rng(10 * k + l)
    pk = SectorVector(b, k, rng.normal(size=b.sector_dim(k)) + 1j * rng.normal(size=b.sector_dim(k)))
    pl = SectorVector(b, l, rng.normal(size=b.sector_dim(l)) + 1j * rng.normal(size=b.sector_dim(l)))
    got = sym_tensor(pk, pl)
    want = _permutation_oracle(pk, pl)
    assert np.max(np.abs(got.amplitudes - want.amplitudes)) < 1e-12


def test_sym_tensor_orthogonal_excitation_unit_norm():
    # u^(N-1) x_s v for unit v orthogonal to u: unit norm, and equals
    # a^dag(u)^{N-1}/sqrt((N-1)!) v
    N = 4
    b = enumerate_basis(2, N)
    rng = np.random.default_rng(6)
    u = random_unit(rng, 2)
    v = np.array([-np.conj(u[1]), np.conj(u[0])])  # orthogonal unit vector
    su = SectorVector(b, 1, u)
    power = su
    for _ in range(N - 2):
        power = sym_tensor(power, su)
    power = SectorVector(b, N - 1, power.amplitudes / power.norm())  # u^{(N-1)}
    out = sym_tensor(power, SectorVector(b, 1, v))
    assert abs(out.norm() - 1.0) < 1e-12
    oracle = np.zeros(b.size, dtype=complex)
    oracle[b.sector_slice(1)] = v
    cu = create_op(u, b)
    for k in range(1, N):
        oracle = cu @ oracle / math.sqrt(k)
    assert np.max(np.abs(out.amplitudes - oracle[b.sector_slice(N)])) < 1e-12

def test_sym_tensor_rejects_overflow():
    b = enumerate_basis(2, 2)
    s = SectorVector(b, 2, np.ones(b.sector_dim(2), dtype=complex))
    with pytest.raises(ValueError):
        sym_tensor(s, s)


# -------------------------------------------------------------- hartree block

def test_hartree_block_pure_condensate():
    N = 3
    b = enumerate_basis(2, N)
    rng = np.random.default_rng(12)
    u = random_unit(rng, 2)
    psi = hartree_block(u, FockVector.vacuum(b), N)
    su = SectorVector(b, 1, u)
    ref = sym_tensor(sym_tensor(su, su), su)
    ref_amp = ref.amplitudes / ref.norm()
    assert np.max(np.abs(psi.amplitudes - ref_amp)) < 1e-12


def test_hartree_block_one_excitation_norm_and_isometry():
    N = 4
    b = enumerate_basis(3, N)
    rng = np.random.default_rng(13)
    u = random_unit(rng, 3)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v -= u * np.vdot(u, v)
    v /= np.linalg.norm(v)
    layers = embed(SectorVector(b, 1, v))
    psi = hartree_block(u, layers, N)
    assert abs(psi.norm() - 1.0) < 1e-12

    # norm^2 of a mixed block = sum of layer norms^2
    layers.amplitudes[0] = 0.4 + 0.3j
    raw2 = rng.normal(size=b.sector_dim(2)) + 1j * rng.normal(size=b.sector_dim(2))
    proj2 = project_out_mode(u, embed(SectorVector(b, 2, raw2)))
    layers.amplitudes[b.sector_slice(2)] = proj2.sector(2)
    total = sum(p ** 2 for p in layers.sector_norms())
    psi = hartree_block(u, layers, N)
    assert abs(psi.norm() ** 2 - total) < 1e-10 * total


def test_hartree_block_rejects_nonorthogonal():
    N = 2
    b = enumerate_basis(2, N)
    rng = np.random.default_rng(14)
    u = random_unit(rng, 2)
    layers = embed(SectorVector(b, 1, u.copy()))
    with pytest.raises(ValueError):
        hartree_block(u, layers, N)


def test_hartree_block_reads_no_layer_above_its_sector():
    # a run hands every N the whole start vector: its sectors above N, here
    # not even orthogonal to u, change no byte of sector N
    N = 3
    b = enumerate_basis(3, 5)
    rng = np.random.default_rng(15)
    u = random_unit(rng, 3)
    cut = project_out_mode(u, FockVector(b, rng.normal(size=b.size) + 1j * rng.normal(size=b.size)))
    above = slice(int(b.sector_offsets[N + 1]), b.size)
    cut.amplitudes[above] = 0.0
    full = cut.copy()
    full.amplitudes[above] = rng.normal(size=b.size - above.start)
    assert np.array_equal(hartree_block(u, full, N).amplitudes, hartree_block(u, cut, N).amplitudes)


@pytest.mark.parametrize("M, n_max, zero_mode", [(2, 4, None), (3, 6, 1), (4, 5, None)])
def test_sector_lowerings_are_the_sector_blocks_of_a(M, n_max, zero_mode):
    b = enumerate_basis(M, n_max)
    u = random_unit(np.random.default_rng(16 + M), M)
    if zero_mode is not None:
        u[zero_mode] = 0.0
        u /= np.linalg.norm(u)
    full = annihilate_op(u, b)
    dense = full.toarray()
    low, up = sector_lowerings(u, b, n_max)
    assert len(low) == len(up) == n_max + 1 and low[0] is None and up[0] is None
    for n in range(1, n_max + 1):
        block = dense[b.sector_slice(n - 1), b.sector_slice(n)]
        assert np.array_equal(low[n].toarray(), block)
        assert np.array_equal(up[n].toarray(), low[n].conj().T.toarray())
    assert sum(blk.nnz for blk in low[1:]) == full.nnz
    assert sector_lowerings(u, b, 0) == ([None], [None])


# ------------------------------------------- occupation multiplicities (bases)

# References: state-by-state constructions of the same quantities, each
# deriving its states' mode tuples and prod s_i! on its own.

def _per_state_sector_to_dense(psi):
    basis, n = psi.basis, psi.n
    T = np.zeros((basis.M,) * n, dtype=complex) if n > 0 else np.zeros((), dtype=complex)
    if n == 0:
        T[()] = psi.amplitudes[0]
        return T
    sl = basis.sector_slice(n)
    for local, occ in enumerate(basis.states[sl]):
        amp = psi.amplitudes[local]
        if amp == 0:
            continue
        modes = []
        for m, cnt in enumerate(occ):
            modes.extend([m] * int(cnt))
        weight = amp * math.sqrt(
            np.prod([math.factorial(int(c)) for c in occ]) / math.factorial(n)
        )
        for perm in set(itertools.permutations(modes)):
            T[perm] = weight
    return T


def _per_state_dense_to_sector(T, basis, n):
    if n == 0:
        return SectorVector(basis, 0, np.array([complex(T)]))
    sl = basis.sector_slice(n)
    out = np.zeros(basis.sector_dim(n), dtype=complex)
    for local, occ in enumerate(basis.states[sl]):
        modes = []
        for m, cnt in enumerate(occ):
            modes.extend([m] * int(cnt))
        out[local] = T[tuple(modes)] * math.sqrt(
            math.factorial(n) / np.prod([math.factorial(int(c)) for c in occ])
        )
    return SectorVector(basis, n, out)


def _per_state_sym_tensor(psi_k, psi_l):
    basis = psi_k.basis
    n_out = psi_k.n + psi_l.n
    out = np.zeros(basis.sector_dim(n_out), dtype=complex)
    off_out = basis.sector_offsets[n_out]
    states_k = basis.states[basis.sector_slice(psi_k.n)]
    states_l = basis.states[basis.sector_slice(psi_l.n)]
    for ik in np.nonzero(psi_k.amplitudes)[0]:
        s = states_k[ik]
        ck = psi_k.amplitudes[ik]
        for il in np.nonzero(psi_l.amplitudes)[0]:
            t = states_l[il]
            coeff = 1.0
            for si, ti in zip(s, t):
                coeff *= math.comb(int(si + ti), int(si))
            idx = basis.index(s + t) - off_out
            out[idx] += ck * psi_l.amplitudes[il] * math.sqrt(coeff)
    return SectorVector(basis, n_out, out)


MULTIPLICITY_BASES = [(2, 6), (3, 5), (4, 4), (5, 3)]


@pytest.mark.parametrize("M,n_max", MULTIPLICITY_BASES)
def test_dense_tensors_equal_the_per_state_reference(M, n_max):
    b = enumerate_basis(M, n_max)
    rng = np.random.default_rng(10 * M + n_max)
    for n in range(n_max + 1):
        amps = random_unit(rng, b.sector_dim(n))
        amps[-1] = 0.0  # a zero amplitude (the whole vector at n = 0)
        psi = SectorVector(b, n, amps)
        T = sector_to_dense(psi)
        want = _per_state_sector_to_dense(psi)
        assert T.shape == want.shape and T.dtype == want.dtype
        assert np.array_equal(T, want)
        assert np.array_equal(dense_to_sector(T, b, n).amplitudes,
                              _per_state_dense_to_sector(want, b, n).amplitudes)
        # dense_to_sector reads one entry per state, also of a tensor that
        # is not symmetric
        raw = rng.normal(size=T.shape) + 1j * rng.normal(size=T.shape)
        assert np.array_equal(dense_to_sector(raw, b, n).amplitudes,
                              _per_state_dense_to_sector(raw, b, n).amplitudes)


@pytest.mark.parametrize("M,n_max", MULTIPLICITY_BASES[:3])
def test_sym_tensor_matches_the_per_state_reference(M, n_max):
    b = enumerate_basis(M, n_max)
    rng = np.random.default_rng(M + 7 * n_max)
    for k in range(n_max + 1):
        for l in range(n_max + 1 - k):
            pk = random_unit(rng, b.sector_dim(k))
            pk[0] = 0.0
            psi_k = SectorVector(b, k, pk)
            psi_l = SectorVector(b, l, random_unit(rng, b.sector_dim(l)))
            got = sym_tensor(psi_k, psi_l).amplitudes
            want = _per_state_sym_tensor(psi_k, psi_l).amplitudes
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-15


@pytest.mark.parametrize("M,n_max", MULTIPLICITY_BASES)
def test_tuple_map_invariants(M, n_max):
    b = enumerate_basis(M, n_max)
    for n in range(n_max + 1):
        states = b.states[b.sector_slice(n)]
        local = b.tuple_states(n)
        assert local.shape == (M,) * n
        tuples = list(itertools.product(range(M), repeat=n))
        for tup, s in zip(tuples, local.ravel()):
            assert np.array_equal(np.bincount(tup, minlength=M), states[s])
        seen, first = np.unique(local, return_index=True)
        assert np.array_equal(seen, np.arange(b.sector_dim(n)))
        for s, j in zip(seen, first):
            assert tuples[j] == tuple(sorted(tuples[j]))
        F = b.sector_factorials(n)
        assert [int(f) for f in F] == [
            math.prod(math.factorial(int(c)) for c in occ) for occ in states]


def test_factorials_stay_exact_past_int64():
    b = enumerate_basis(2, 22)
    assert b.sector_factorials(20).dtype == np.int64
    F = b.sector_factorials(22)
    assert F.dtype == object
    assert F[0] == math.factorial(22) and F[11] == math.factorial(11) ** 2


def test_dense_round_trip_at_twenty_one_quanta():
    b = enumerate_basis(2, 21)
    rng = np.random.default_rng(21)
    for n in (0, 1, 20, 21):
        psi = SectorVector(b, n, random_unit(rng, b.sector_dim(n)))
        T = sector_to_dense(psi)
        assert T.shape == (2,) * n
        back = dense_to_sector(T, b, n).amplitudes
        assert np.max(np.abs(back - psi.amplitudes)) <= 1e-15
