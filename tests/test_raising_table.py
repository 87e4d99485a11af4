"""The raising table and every ladder block cut from it, against the
lookup, lexsort, COO and kron builders in tests/oracles.py.

The table holds, for each state r below the top sector, the index of r + e_i
in closed form and the amplitude sqrt(r_i + 1).  a(f), its sector blocks,
the stacked mode lowerings, the one-body sector blocks and the quasi-free
states are built from it; each must be the oracle's matrix or state byte
for byte.
"""

import numpy as np
import pytest

from bogofluct.bogoliubov import _quasi_free_path, _quasi_free_states, _step_grid
from bogofluct.fock import (
    annihilate_op,
    enumerate_basis,
    one_body_block,
    sector_lowerings,
    sector_mode_lowerings,
)
from bogofluct.hartree import solve_hartree
from bogofluct.model import build_interaction, build_laplacian, build_lattice, gaussian_profile
from oracles import (
    as_csr,
    coo_mode_lowerings,
    kron_quasi_free_states,
    lookup_one_body_block,
    pattern_lowering,
    pattern_sector_lowerings,
)

TABLE_SIZES = [(M, n_max) for M in range(1, 7) for n_max in (0, 1, 7)]
TABLE_SIZES += [(M, 24) for M in range(1, 5)]
SIZES = [(1, 4), (2, 3), (3, 1), (3, 4), (4, 5), (3, 7)]


def arrays(mat):
    # a GatherOperator's nonzero entries in its row order, or a CSR matrix
    if not hasattr(mat, "data"):
        mat = as_csr(mat)
    return mat.data.tobytes(), mat.indices.tobytes(), mat.indptr.tobytes(), mat.shape


def random_f(rng, M, zero=None):
    f = rng.normal(size=M) + 1j * rng.normal(size=M)
    if zero is not None:
        f[zero] = 0.0
    return f


@pytest.mark.parametrize("M,n_max", TABLE_SIZES)
def test_table_is_the_lookup_of_every_raised_row(M, n_max):
    basis = enumerate_basis(M, n_max)
    index, amp = basis.raising_table()
    R = int(basis.sector_offsets[n_max])
    assert index.shape == amp.shape == (R, M)
    assert index.dtype == np.int32
    occ = basis.states[:R]
    raised = (occ[:, None, :] + np.eye(M, dtype=occ.dtype)).reshape(-1, M)
    assert np.array_equal(index.ravel(), basis.lookup(raised))
    assert amp.tobytes() == np.sqrt((occ + 1).astype(float)).tobytes()
    # every row ascends, so it is one CSR row of a(f)
    assert np.all(np.diff(index, axis=1) > 0)
    assert basis.raising_table()[0] is index


@pytest.mark.parametrize("M,n_max", TABLE_SIZES)
def test_lowering_table_is_the_lookup_of_every_lowered_row(M, n_max):
    # s - e_i and sqrt(s_i) where s_i > 0; elsewhere the first state of the
    # sector below (0 on the vacuum) with amplitude 0; the entries present
    # ascend from the last mode to the first, each lookup of the table
    # landing back on s under the raising table
    basis = enumerate_basis(M, n_max)
    index, amp = basis.lowering_table()
    occ = basis.states
    assert index.shape == amp.shape == (basis.size, M)
    has = occ > 0
    lowered = (occ[:, None, :] - np.eye(M, dtype=occ.dtype))[has]
    assert np.array_equal(index[has], basis.lookup(lowered))
    below = basis.sector_offsets[np.maximum(basis.totals() - 1, 0)]
    assert np.array_equal(index[~has], np.broadcast_to(below[:, None], has.shape)[~has])
    assert amp.tobytes() == np.sqrt(occ.astype(float)).tobytes()
    up = basis.raising_table()[0]
    rows, modes = np.nonzero(has)
    assert np.array_equal(up[index[rows, modes], modes], rows)
    present = np.where(has, index, -1)[:, ::-1]
    for row in present:
        kept = row[row >= 0]
        assert np.all(np.diff(kept) > 0)
    assert basis.lowering_table()[0] is index


def test_table_build_refuses_a_corrupted_rank():
    # shifting any one entry of the rank table by one either leaves the
    # table as it was (an entry the table never reads) or makes the build
    # raise; the reachable ones do raise
    good = enumerate_basis(3, 5).raising_table()[0]
    raised = 0
    for t in range(7):
        for m in range(4):
            for shift in (-1, 1):
                basis = enumerate_basis(3, 5)
                basis._below[t, m] += shift
                try:
                    index = basis.raising_table()[0]
                except ValueError as exc:
                    assert "r + e_i" in str(exc)
                    raised += 1
                else:
                    assert np.array_equal(index, good)
    assert raised >= 20
    basis = enumerate_basis(4, 6)
    basis._below[2, 2] += 1
    with pytest.raises(ValueError, match="r \\+ e_i"):
        basis.raising_table()


@pytest.mark.parametrize("M,n_max", SIZES)
def test_lowering_matches_the_pattern_fill(M, n_max):
    rng = np.random.default_rng(500 + 10 * M + n_max)
    basis = enumerate_basis(M, n_max)
    for f in (random_f(rng, M), rng.normal(size=M), random_f(rng, M, zero=M - 1)):
        assert arrays(annihilate_op(f, basis)) == arrays(pattern_lowering(f, basis))


@pytest.mark.parametrize("M,n_max", SIZES)
def test_sector_lowerings_match_the_pattern_slices(M, n_max):
    # low blocks byte for byte; up blocks the oracle's conjugated CSC blocks
    # row by row in ascending column order, their values f_i sqrt(s_i) the
    # oracle's conjugated ones but for the sign of a zero imaginary part
    # (conj gives -0.0, a real f times the table +0.0), which no product
    # with them can tell
    rng = np.random.default_rng(600 + 10 * M + n_max)
    basis = enumerate_basis(M, n_max)
    for f in (random_f(rng, M), rng.normal(size=M), random_f(rng, M, zero=0)):
        for top in {0, 1, n_max}:
            low, up = sector_lowerings(f, basis, top)
            want_low, want_up = pattern_sector_lowerings(f, basis, top)
            assert len(low) == len(up) == top + 1 and low[0] is None and up[0] is None
            for n in range(1, top + 1):
                assert arrays(low[n]) == arrays(want_low[n])
                got_up, want = as_csr(up[n]), want_up[n].tocsr()
                assert arrays(got_up)[1:] == arrays(want)[1:]
                assert (got_up.data + 0.0).tobytes() == (want.data + 0.0).tobytes()


def test_lowerings_refuse_an_f_of_the_wrong_length():
    basis = enumerate_basis(3, 4)
    for f in (np.ones(4), np.ones(2), 1.0, np.ones((3, 1))):
        with pytest.raises(ValueError, match="3 components"):
            annihilate_op(f, basis)
        with pytest.raises(ValueError, match="3 components"):
            sector_lowerings(f, basis, 2)


@pytest.mark.parametrize("M,n_max", SIZES + [(4, 24)])
def test_mode_lowering_stacks_match_the_coo_stacks(M, n_max):
    basis = enumerate_basis(M, n_max)
    for n in [None, *range(1, n_max + 1)]:
        assert arrays(sector_mode_lowerings(basis, n)) == arrays(coo_mode_lowerings(basis, n))


@pytest.mark.parametrize("M,n_max", SIZES + [(4, 24)])
def test_one_body_blocks_match_the_lookup_blocks(M, n_max):
    rng = np.random.default_rng(700 + 10 * M + n_max)
    basis = enumerate_basis(M, n_max)
    A = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    A_hops = A.copy()
    A_hops[0, M - 1] = A_hops[M - 1, 0] = 0.0  # zero hops leave their blocks out
    for B in (A, A_hops):
        for n in range(n_max + 1):
            assert arrays(one_body_block(B, basis, n)) == arrays(lookup_one_body_block(B, basis, n))


@pytest.mark.parametrize("projected", [True, False], ids=["projected", "bare"])
def test_quasi_free_states_match_the_kron_states(projected):
    # odd n_max, so the top sector is odd and stays empty; every output
    # time a column of one pass (six, so two chunks of columns), each the
    # per-time state byte for byte
    lat = build_lattice(3, 1.0)
    h0, W = build_laplacian(lat), build_interaction(lat, gaussian_profile(4.0, 1.0))
    u0 = np.exp(-np.minimum(lat.positions, 3.0 - lat.positions) ** 2).astype(complex)
    traj = solve_hartree(u0 / np.linalg.norm(u0), h0, W, T=1.0, dt=0.001)
    grid = np.array([0.0, 0.3, 0.3, 0.5, 0.7, 1.0])
    mids, taus, _, marks = _step_grid(grid, 0.01)
    Ts, cs, _, failure = _quasi_free_path(np.exp(0.4j), traj.interpolate(np.asarray(mids)),
                                          taus, h0, W, projected)
    assert failure is None
    basis = enumerate_basis(3, 9)
    got = _quasi_free_states(Ts[marks], cs[marks], basis)
    want = kron_quasi_free_states(Ts[marks], cs[marks], basis)
    assert len(got) == len(want) == len(grid)
    weights = got[-1].sector_norms()
    assert weights[0::2].min() > 0 and not weights[1::2].any()
    for g, w in zip(got, want):
        assert g.amplitudes.tobytes() == w.amplitudes.tobytes()
