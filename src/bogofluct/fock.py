"""Symmetric Fock space over M modes truncated at total particle number n_max.

Occupation bases, ladder operators, second quantization, pairing and two-body
operators, and the condensate block construction
sum_n a^dag(u)^(N-n)/sqrt((N-n)!) phi_n used to build N-particle states from
excitation data.

Basis ordering: sectors by increasing total particle number; inside a
sector, occupation vectors with the first mode filling first, i.e.
(n,0,...), (n-1,1,0,...), ..., so an index is the sector offset plus a
combinatorial rank.  Creation amplitudes that would leave the truncation are
dropped, which keeps every assembled operator a compression of its
untruncated counterpart.

The run path works on sector blocks cut from this basis: a(f) lowers the
total by exactly one, so sector_lowerings and sector_mode_lowerings cut a(f)
and the mode annihilators a_i into blocks from sector n to n-1;
sector_lowerings also gives the adjoints, which raise; one_body_block builds
dGamma(A) on a sector.

Every ladder block the run path uses is cut from one table on the basis, the
raised neighbours (OccupationBasis.raising_table): for each state r below
the top sector, the index of r + e_i and the amplitude sqrt(r_i + 1) of
a_i^dag, in closed form from the combinatorial rank.  Row r of a(f) is then
conj(f_i) sqrt(r_i + 1) at the columns r + e_i, already in CSR order, and
the hop a_i^dag a_j goes from row r's neighbour in mode j to its neighbour
in mode i.  The table build is the one place where the lowering structure
is checked.

Operators on the whole basis are scipy CSR matrices in basis order.  The
quadratic ones are value refills of a sparsity pattern cached on the basis
(CSRPattern) by one rule: a fill passes a coefficient array per named
family of blocks, and each stored value is one coefficient times one
amplitude.  dGamma(A), pairing(K) and their sum, which only the dense
identity checks use (the run path steps no Fock-space generator), fill the
four families of the quadratic pattern.  The pattern is built on first use, and
the particle-number band of each of its term blocks is checked once, then;
a fill only writes values into those positions.  number_op and two_body_op
are diagonal.  Every ladder amplitude is the square root of the exact
integer product of its bosonic factors, no operator stores an exact zero,
and the diagonal family starts at sector 1, since dGamma(A) vanishes on the
vacuum.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "OccupationBasis",
    "enumerate_basis",
    "CSRPattern",
    "FockVector",
    "SectorVector",
    "create_op",
    "annihilate_op",
    "sector_lowerings",
    "sector_mode_lowerings",
    "dgamma",
    "one_body_block",
    "one_body_form",
    "number_op",
    "pairing_op",
    "pairing_raise",
    "quadratic_op",
    "two_body_op",
    "two_body_diagonal",
    "hartree_block",
    "sector_to_dense",
    "dense_to_sector",
]

DEFAULT_MAX_STATES = 5_000_000


class OccupationBasis:
    """Ordered occupation-number basis of the truncated Fock space."""

    def __init__(self, M: int, n_max: int, max_states: int = DEFAULT_MAX_STATES):
        if M < 1:
            raise ValueError(f"need M >= 1 modes, got {M}")
        if n_max < 0:
            raise ValueError(f"need n_max >= 0, got {n_max}")
        dim = math.comb(n_max + M, M)
        if dim > max_states:
            raise ValueError(
                f"basis with M={M}, n_max={n_max} holds {dim} states, "
                f"above the cap {max_states}"
            )
        # below[t, m]: occupation rows of m modes with total below t.  The
        # rows of m + 1 modes with total t are t - s before each row of m
        # modes with total s, s = 0..t: the first below[t + 1, m] rows
        below = np.array([[math.comb(t + m - 1, m) if t else 0 for m in range(M + 1)]
                          for t in range(n_max + 2)])
        states = np.arange(n_max + 1)[:, None]
        for m in range(1, M):
            t = np.repeat(np.arange(n_max + 1), below[1:, m])
            j = np.concatenate([np.arange(c) for c in below[1:, m]])
            states = np.column_stack([t - states[j].sum(axis=1), states[j]])
        self.M = M
        self.n_max = n_max
        self.states = states
        self.sector_offsets = below[:, M]
        self.size = len(states)
        self._below = below
        self._totals = None
        self._quad_pattern = None
        self._raising = None

    def index(self, occ) -> int:
        return int(self.lookup(np.asarray(occ)[None, :])[0])

    def sector_slice(self, n: int) -> slice:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"sector {n} outside truncation n_max={self.n_max}")
        return slice(int(self.sector_offsets[n]), int(self.sector_offsets[n + 1]))

    def sector_dim(self, n: int) -> int:
        s = self.sector_slice(n)
        return s.stop - s.start

    def totals(self) -> np.ndarray:
        """Total particle number of each state (computed once, read-only)."""
        if self._totals is None:
            self._totals = self.states.sum(axis=1)
            self._totals.setflags(write=False)
        return self._totals

    def lookup(self, occ) -> np.ndarray:
        """Basis indices of a stack of occupation rows s: with tail_i =
        s_i + ... + s_{M-1}, the states before s are below[tail_0, M] of a
        lower total and, for i >= 1, below[tail_i, M - i] that agree with s
        on modes 0..i-2 and hold more in mode i-1."""
        occ = np.asarray(occ, dtype=np.int64)
        if occ.ndim != 2 or occ.shape[1] != self.M:
            raise KeyError(f"occupation rows of shape {occ.shape}, basis has {self.M} modes")
        tails = [occ[:, -1]]  # tails[m - 1] = tail_{M - m}
        for i in range(self.M - 2, -1, -1):
            tails.append(tails[-1] + occ[:, i])
        if np.any(occ < 0) or np.any(tails[-1] > self.n_max):
            raise KeyError("occupation vector outside the truncated basis")
        return sum(self._below[tail, m] for m, tail in enumerate(tails, 1))

    def sector_factorials(self, n: int) -> np.ndarray:
        """Exact prod_i s_i! of each state s of sector n: int64 up to n = 20,
        where no product exceeds n! < 2**63, Python integers (object dtype)
        from n = 21 on, where 21! passes int64."""
        fact = np.array([math.factorial(c) for c in range(n + 1)])
        return fact[self.states[self.sector_slice(n)]].prod(axis=1)

    def tuple_states(self, n: int) -> np.ndarray:
        """Local index in sector n of the state of every ordered mode tuple,
        shape (M,)*n in C order; the first tuple of each state is its
        ascending one."""
        occ = np.zeros((1, self.M), dtype=np.int64)
        for _ in range(n):  # the new mode is the fastest index
            occ = (occ[:, None, :] + np.eye(self.M, dtype=np.int64)).reshape(-1, self.M)
        local = self.lookup(occ) - self.sector_slice(n).start
        return local.reshape((self.M,) * n)

    def lowering_structure(self, i: int):
        """Index pattern (rows, cols, amps) of a_i: amplitude sqrt(n_i) from
        each state with n_i > 0."""
        return self._ladder(down=(i,))

    def hop_structure(self, i: int, j: int):
        """Index pattern (rows, cols, amps) of a_i^dag a_j for i != j:
        amplitude sqrt(n_j (n_i + 1)) from each state with n_j > 0."""
        return self._ladder(down=(j,), up=(i,))

    def pair_structure(self, i: int, j: int):
        """Index pattern of the double raising a_i^dag a_j^dag, from each state
        whose total lies at least two below the truncation."""
        return self._ladder(up=(i, j))

    def _ladder(self, down=(), up=()):
        # index pattern (rows, cols, amps) of prod a_up^dag prod a_down: the
        # sources are the states every a_down acts on whose image stays in
        # the truncation; amps is sqrt of the exact integer product of the
        # bosonic factors
        occ = self.states.copy()
        factor = np.ones(len(occ), dtype=np.int64)
        for j in down:
            factor *= occ[:, j]
            occ[:, j] -= 1
        for i in up:
            occ[:, i] += 1
            factor *= occ[:, i]
        src = np.flatnonzero((factor > 0) & (self.totals() <= self.n_max + len(down) - len(up)))
        return self.lookup(occ[src]), src, np.sqrt(factor[src].astype(float))

    def raising_table(self):
        """(index, amp), each R x M for the R = sector_offsets[n_max] states
        below the top sector (cached): index[r, i] is the basis index of
        r + e_i and amp[r, i] = sqrt(r_i + 1), the amplitude of a_i^dag from
        r.  With lookup's tails, raising mode i adds one to tail_j for every
        j <= i, so index[r, i] is r plus the cumulative sum over j <= i of
        below[tail_j + 1, M - j] - below[tail_j, M - j].  Each row ascends
        (r + e_i holds more than r + e_j in the earlier mode i < j, so it
        ranks first), so it is one CSR row of a(f).  The build checks that
        every entry lowered in its mode is r, which also holds the
        particle-number band of every ladder block cut from the table."""
        if self._raising is None:
            R, M = int(self.sector_offsets[self.n_max]), self.M
            occ = self.states[:R]
            tails = np.cumsum(occ[:, ::-1], axis=1)[:, ::-1]
            rise = np.diff(self._below, axis=0)  # below[t + 1, m] - below[t, m]
            index = np.cumsum(rise[tails, M - np.arange(M)], axis=1)
            index += np.arange(R)[:, None]
            index = index.astype(np.int32 if self.size < 2**31 else np.int64)
            unit = np.eye(M, dtype=occ.dtype)
            if np.any((index < 0) | (index >= self.size)) or any(
                    not np.array_equal(np.take(self.states, index[:, i], axis=0) - unit[i], occ)
                    for i in range(M)):
                raise ValueError("raising table: an entry is not the state r + e_i")
            self._raising = (index, np.sqrt(occ + 1.0))
        return self._raising

    def quadratic_pattern(self) -> "CSRPattern":
        """CSR pattern of the band-(-2, 0, 2) quadratic operators (cached).

        Families: "diag", one slot per state from sector 1 on; "hop", a
        block per i != j, row-major as A[~eye] (at M = 1 an empty block);
        "raise" and "lower", a block per i <= j in np.triu_indices order.
        The index patterns are built here and kept only inside the pattern.
        """
        if self._quad_pattern is None:
            rows = np.arange(self.sector_offsets[1], self.size)
            hops = [("hop", *self.hop_structure(i, j), 0) for i, j in _off_diagonal(self.M)]
            pairs = [self.pair_structure(i, j) for i, j in zip(*np.triu_indices(self.M))]
            self._quad_pattern = CSRPattern(self, [
                ("diag", rows, rows, None, 0),
                *(hops or [("hop", rows[:0], rows[:0], None, 0)]),
                *(("raise", dst, src, amps, 2) for dst, src, amps in pairs),
                *(("lower", src, dst, amps, -2) for dst, src, amps in pairs),
            ])
        return self._quad_pattern

    def __repr__(self):
        return f"OccupationBasis(M={self.M}, n_max={self.n_max}, size={self.size})"


def enumerate_basis(M: int, n_max: int, max_states: int = DEFAULT_MAX_STATES) -> OccupationBasis:
    return OccupationBasis(M, n_max, max_states)


def _off_diagonal(M):
    # the pairs (i, j), i != j, of M modes, row-major: the order of A[~eye]
    return zip(*np.nonzero(~np.eye(M, dtype=bool)))


class CSRPattern:
    """Sorted CSR index arrays of a fixed list of term blocks on one basis.

    Each block is (family, rows, cols, amps, band): one index pattern, its
    amplitudes and the particle-number change it makes, verified once, here.
    A family's blocks are consecutive and number its coefficient slots: one
    per block, or one per entry with amplitude 1 where amps is None.  The
    blocks must not overlap, so every stored value is one term, never a sum,
    and no amplitude may lie below 1, so a nonzero coefficient never makes a
    zero entry.  The pattern has one layout, built here; a fill writes values
    into it and hands out fresh index arrays, so the cached ones are never
    shared mutably.
    """

    def __init__(self, basis: OccupationBasis, blocks):
        rows = np.concatenate([b[1] for b in blocks])
        cols = np.concatenate([b[2] for b in blocks])
        totals = basis.totals()
        self.families = {}  # family -> (first slot, end slot)
        # slots of the smallest dtype from the start: no int64 copy of them
        widths = [len(b[1]) if b[3] is None else 1 for b in blocks]
        dtype = np.min_scalar_type(sum(widths))
        slots, amps, n_slots = [], [], 0
        for (family, r, c, a, band), width in zip(blocks, widths):
            dn = totals[r] - totals[c]
            if np.any(dn != band):
                raise ValueError(f"block of family {family!r} moves particle number by "
                                 f"{sorted(set(dn[dn != band].tolist()))}, declared {band}")
            if a is not None and np.any(a < 1.0):
                raise ValueError(f"block of family {family!r} has an amplitude below 1")
            start, end = self.families.get(family, (n_slots, n_slots))
            if end != n_slots:
                raise ValueError(f"the blocks of family {family!r} are not consecutive")
            slots.append(np.arange(n_slots, n_slots + len(r), dtype=dtype) if a is None
                         else np.full(len(r), n_slots, dtype=dtype))
            amps.append(np.ones(len(r)) if a is None else a)
            n_slots += width
            self.families[family] = (start, n_slots)
        order = np.lexsort((cols, rows))
        r_sorted, c_sorted = rows[order], cols[order]
        if np.any((np.diff(r_sorted) == 0) & (np.diff(c_sorted) == 0)):
            raise ValueError("term blocks overlap; values would need summing")
        n = basis.size
        self.shape = (n, n)
        self.n_slots = n_slots
        idx = np.int32 if max(len(rows), n) < 2**31 else np.int64
        # slot and amplitude of each stored entry, in CSR order
        self.slot = np.concatenate(slots)[order]
        self.amps = np.concatenate(amps)[order]
        self.indices = c_sorted.astype(idx)
        self.indptr = np.zeros(n + 1, dtype=idx)
        np.cumsum(np.bincount(rows, minlength=n), out=self.indptr[1:])

    def fill(self, values: dict) -> sp.csr_matrix:
        """CSR matrix of the families named in values, each an array of one
        coefficient per slot; the others are 0.  Every stored value is
        coeff[slot] * amps.  Exact zeros are not stored.  They can only come
        from a zero coefficient, a family left out included, so only then is
        the matrix compacted.
        """
        coeff = np.zeros(self.n_slots, dtype=complex)
        for family, val in values.items():
            start, end = self.families[family]  # KeyError: no such family
            if np.shape(val) != (end - start,):
                raise ValueError(f"family {family!r} takes {end - start} coefficients, "
                                 f"got shape {np.shape(val)}")
            coeff[start:end] = val
        data = np.take(coeff, self.slot)
        data *= self.amps
        mat = sp.csr_matrix((data, self.indices.copy(), self.indptr.copy()), shape=self.shape)
        if not np.all(coeff):
            mat.eliminate_zeros()
        return mat


@dataclass
class FockVector:
    """Complex amplitudes over a full truncated occupation basis."""

    basis: OccupationBasis
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.basis.size,):
            raise ValueError("amplitude vector does not match basis size")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def sector(self, n: int) -> np.ndarray:
        return self.amplitudes[self.basis.sector_slice(n)]

    def sector_norms(self) -> np.ndarray:
        return np.array(
            [np.linalg.norm(self.sector(n)) for n in range(self.basis.n_max + 1)]
        )

    def copy(self) -> "FockVector":
        return FockVector(self.basis, self.amplitudes.copy())

    @classmethod
    def vacuum(cls, basis: OccupationBasis) -> "FockVector":
        amps = np.zeros(basis.size, dtype=complex)
        amps[0] = 1.0
        return cls(basis, amps)


@dataclass
class SectorVector:
    """Amplitudes over the fixed-total-particle-number block of the basis."""

    basis: OccupationBasis
    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.shape != (self.basis.sector_dim(self.n),):
            raise ValueError(f"amplitude vector does not match sector {self.n}")

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def annihilate_op(f: np.ndarray, basis: OccupationBasis) -> sp.csr_matrix:
    """a(f) = sum_i conj(f_i) a_i, antilinear in f: row r of a state below
    the top sector holds conj(f_i) sqrt(r_i + 1) at the column r + e_i."""
    coeff, _f, modes = _coefficients(f, basis)
    index, amp = basis.raising_table()
    rows, width = len(index), len(coeff)
    ptr = np.full(basis.size + 1, rows * width, dtype=index.dtype)
    ptr[:rows + 1] = np.arange(rows + 1) * width
    return sp.csr_matrix(((coeff * amp[:, modes]).ravel(), index[:, modes].flatten(), ptr),
                         shape=(basis.size, basis.size))


def _coefficients(f, basis):
    # (conj(f), f) on the modes i with f_i != 0, and those modes (a slice
    # when they are all of them): a mode with f_i = 0 is left out of a(f),
    # so no block stores an exact zero
    if np.shape(f) != (basis.M,):
        raise ValueError(f"a(f) takes {basis.M} components, got shape {np.shape(f)}")
    modes = slice(None) if np.all(f) else np.flatnonzero(f)
    return np.conj(f).astype(complex)[modes], np.asarray(f, dtype=complex)[modes], modes


def sector_lowerings(f: np.ndarray, basis: OccupationBasis, top: int) -> tuple:
    """(low, up): low[n] is the block of annihilate_op(f, basis) from sector n
    to n-1 and up[n] = low[n]^dag raises sector n-1 to n, n = 1..top (index 0
    is None in both); up[n] is a CSC matrix on low[n]'s index arrays.

    The rows of sector n-1 of the raising table are the rows of low[n]:
    their values are conj(f_i) sqrt(r_i + 1), and up[n] stores
    f_i sqrt(r_i + 1) at the same positions.
    """
    coeff, f, modes = _coefficients(f, basis)
    index, amp = basis.raising_table()
    off = [int(o) for o in basis.sector_offsets]
    low, up = [None], [None]
    for n in range(1, top + 1):
        rows, shape = slice(off[n - 1], off[n]), (off[n] - off[n - 1], off[n + 1] - off[n])
        cols = (index[rows, modes] - off[n]).ravel()
        ptr = np.arange(shape[0] + 1, dtype=index.dtype) * len(coeff)
        block = amp[rows, modes]
        low.append(sp.csr_matrix(((coeff * block).ravel(), cols, ptr), shape=shape))
        up.append(sp.csc_matrix(((f * block).ravel(), cols, ptr), shape=shape[::-1]))
    return low, up


def sector_mode_lowerings(basis: OccupationBasis, n: int = None) -> sp.csr_matrix:
    """The blocks of the mode annihilators a_i from sector n to n-1, stacked:
    row i * dim(n-1) + r is row r of a_i, in sector-local indices.  They are
    the transposed rows of sector n-1 of the raising table; with no n, of
    all its rows, so the a_i on the whole basis."""
    rows, cols = ((slice(0, basis.size),) * 2 if n is None
                  else (basis.sector_slice(n - 1), basis.sector_slice(n)))
    return _mode_lowerings(basis, rows, cols)


def _mode_lowerings(basis: OccupationBasis, rows: slice, cols: slice) -> sp.csr_matrix:
    # the rows `rows` of the a_i stacked mode by mode, row i * len(rows) + r
    # being row rows.start + r of a_i, with the columns cols; cols must hold
    # every column those rows reach.  Each of the first k rows, those below
    # the top sector, has one entry in every a_i, the others none
    index, amp = basis.raising_table()
    dim = rows.stop - rows.start
    first, k = min(rows.start, len(index)), max(0, min(rows.stop, len(index)) - rows.start)
    ptr = np.arange(basis.M)[:, None] * k + np.minimum(np.arange(dim), k)
    ptr = np.append(ptr.ravel(), basis.M * k).astype(index.dtype)
    return sp.csr_matrix((amp[first:first + k].T.ravel(),
                          (index[first:first + k].T - cols.start).ravel(), ptr),
                         shape=(basis.M * dim, cols.stop - cols.start))


def create_op(f: np.ndarray, basis: OccupationBasis) -> sp.csr_matrix:
    """a^dag(f), the exact adjoint of annihilate_op(f); linear in f.

    Amplitudes that would land above the truncation are dropped.
    """
    return annihilate_op(f, basis).conj().T.tocsr()


def _square(X, basis, what):
    # X as a complex M x M matrix; a scalar fills it
    X = np.asarray(X, dtype=complex)
    if X.shape not in ((), (basis.M, basis.M)):
        raise ValueError(f"{what} has wrong shape")
    return np.broadcast_to(X, (basis.M, basis.M))


def _one_body_values(A, basis, states):
    # "diag": sum_j s_j A_jj on each row s of states; "hop": A_ij, i != j
    A = _square(A, basis, "one-body matrix")
    return {"diag": states @ np.diagonal(A), "hop": A[~np.eye(basis.M, dtype=bool)]}


def _pair_values(K, basis, lower: bool):
    # "raise" holds 0.5 * (K_ij + K_ji) for i < j and 0.5 * K_ii, "lower"
    # the conjugates; the Hermitian sum (lower) needs a symmetric kernel, the
    # creation half takes any
    K = _square(K, basis, "pairing kernel")
    if lower and np.max(np.abs(K - K.T)) > 1e-12:
        raise ValueError("pairing kernel is not symmetric")
    i, j = np.triu_indices(basis.M)
    up = 0.5 * np.where(i == j, K[i, j], K[i, j] + K[j, i])
    return {"raise": up, "lower": np.conj(up)} if lower else {"raise": up}


def dgamma(A: np.ndarray, basis: OccupationBasis) -> sp.csr_matrix:
    """Second quantization of the one-body operator A: acts as sum_j A_j on
    each sector."""
    return quadratic_op(A, 0, basis)


def one_body_block(A: np.ndarray, basis: OccupationBasis, n: int) -> sp.csr_matrix:
    """The block of dgamma(A) on sector n, in sector-local indices, built from
    the states of the sector alone: its diagonal and its hop entries.  The
    hop a_i^dag a_j maps r + e_j to r + e_i, with amplitude
    sqrt((r_j + 1)(r_i + 1)), for each state r of sector n-1: two reads of
    the raising table."""
    sl = basis.sector_slice(n)
    values = _one_body_values(A, basis, basis.states[sl])
    local = np.arange(sl.stop - sl.start)
    rows, cols, vals = [local], [local], [values["diag"]]
    if n:
        below = basis.sector_slice(n - 1)
        raised = basis.raising_table()[0][below] - sl.start
        occ = basis.states[below] + 1
        for (i, j), coeff in zip(_off_diagonal(basis.M), values["hop"]):
            if coeff != 0:
                rows.append(raised[:, i])
                cols.append(raised[:, j])
                vals.append(coeff * np.sqrt((occ[:, j] * occ[:, i]).astype(float)))
    mat = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(len(local), len(local)))
    mat.eliminate_zeros()
    return mat


# rows of a chunk of the energy form: its M x rows lowering images hold at
# most 2**14 values (256 kB)
_FORM_CHUNK_VALUES = 1 << 14


def one_body_form(A: np.ndarray, basis: OccupationBasis):
    """The quadratic form v -> <v, dGamma(A) v> = sum_ij A_ij G_ij on
    full-basis amplitudes, G_ij = <a_i v, a_j v> the Gram matrix of the M
    mode lowerings.  G is summed over chunks of rows, each from one stacked
    matrix of the a_i on those rows, so a call holds no M x size array."""
    step = max(1, _FORM_CHUNK_VALUES // basis.M)
    whole = slice(0, basis.size)
    chunks = [_mode_lowerings(basis, slice(r, min(r + step, basis.size)), whole).astype(complex)
              for r in range(0, basis.size, step)]  # cast once, not per call

    def form(v) -> complex:
        G = np.zeros((basis.M, basis.M), dtype=complex)
        for low in chunks:
            X = (low @ v).reshape(basis.M, -1)
            G += X.conj() @ X.T
        return complex(np.sum(A * G))

    return form


def quadratic_op(A: np.ndarray, K: np.ndarray, basis: OccupationBasis) -> sp.csr_matrix:
    """dGamma(A) + pairing_op(K) in one fill of the quadratic pattern; a
    scalar 0 for A or K leaves that part out."""
    values = _one_body_values(A, basis, basis.states[basis.sector_offsets[1]:])
    values.update(_pair_values(K, basis, lower=True))
    return basis.quadratic_pattern().fill(values)


def number_op(basis: OccupationBasis) -> sp.csr_matrix:
    return sp.diags(basis.totals().astype(complex), format="csr")


def pairing_op(K: np.ndarray, basis: OccupationBasis) -> sp.csr_matrix:
    """Hermitian pairing operator (1/2) sum_xy K[x,y] a_x^dag a_y^dag + h.c.

    K must be symmetric; the operator changes particle number by +-2.
    """
    return quadratic_op(0, K, basis)


def pairing_raise(K: np.ndarray, basis: OccupationBasis) -> sp.csr_matrix:
    """Creation half of the pairing operator, (1/2) sum K[x,y] a_x^dag a_y^dag."""
    return basis.quadratic_pattern().fill(_pair_values(K, basis, lower=False))


def two_body_op(W: np.ndarray, basis: OccupationBasis) -> sp.csr_matrix:
    """Normal-ordered density-density interaction
    (1/2) sum_xy W[x,y] a_x^dag a_y^dag a_y a_x.

    Diagonal in the occupation basis: on a state with occupations n it takes
    the value sum over particle pairs of W evaluated at their sites.
    """
    vals = two_body_diagonal(W, basis.states)
    return sp.diags(vals.astype(complex), format="csr")


def two_body_diagonal(W: np.ndarray, occ: np.ndarray) -> np.ndarray:
    """Value of two_body_op(W) on each occupation row s of occ:
    (1/2) sum_xy W[x,y] s_x (s_y - delta_xy)."""
    W = np.asarray(W)
    if np.max(np.abs(W - W.T)) > 1e-12:
        raise ValueError("two-body kernel is not symmetric")
    S = occ.astype(float)
    return 0.5 * (np.einsum("si,ij,sj->s", S, W, S) - S @ np.real(np.diag(W)))


# largest ||a(u) phi_n|| / max(1, ||phi_n||) accepted as orthogonal to the
# condensate, both when excitation data are loaded and when they are used
ORTH_TOL = 1e-10


def hartree_block(u: np.ndarray, layers: FockVector, N, orth_tol: float = ORTH_TOL):
    """Assemble sum_n a^dag(u)^(N-n)/sqrt((N-n)!) phi_n in sector N, where
    phi_n is sector n of layers, n = 0..N; sectors above N are not read.

    Each phi_n must be annihilated by a(u); the map is then an isometry from
    the direct sum of the phi_n onto sector N.  N may also be a sequence of
    distinct particle numbers: a list of their blocks is returned, built
    from one fill of a(u) and one raising chain per layer, each block the
    same bytes as when built alone.
    """
    u = np.asarray(u, dtype=complex)
    basis = layers.basis
    tops = [N] if np.ndim(N) == 0 else list(N)
    top = max(tops)
    if top > basis.n_max:
        raise ValueError(f"target sector {top} exceeds truncation {basis.n_max}")
    low, up = sector_lowerings(u, basis, top)
    totals = {n: np.zeros(basis.sector_dim(n), dtype=complex) for n in tops}
    for n in range(top + 1):
        w = layers.sector(n)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            continue
        if n >= 1 and np.linalg.norm(low[n] @ w) > orth_tol * max(1.0, nrm):
            raise ValueError(f"phi_{n} is not orthogonal to the condensate mode")
        for k in range(top - n + 1):
            if k:
                w = (up[n + k] @ w) / math.sqrt(k)
            if n + k in totals:
                totals[n + k] += w
    blocks = [SectorVector(basis, n, totals[n]) for n in tops]
    return blocks[0] if np.ndim(N) == 0 else blocks


def sector_to_dense(psi: SectorVector) -> np.ndarray:
    """First-quantized coefficient tensor of shape (M,)*n for a sector vector.

    The value at a mode tuple consistent with occupations s is
    amplitude(s) * sqrt(prod s_i! / n!), making the tensor the symmetric
    wave function in the product basis.
    """
    basis, n = psi.basis, psi.n
    if basis.M**max(n, 1) > 10_000_000:
        raise ValueError("dense sector tensor would be too large")
    if n == 0:
        return np.full((), psi.amplitudes[0])
    return _to_dense(psi.amplitudes, basis, n, basis.tuple_states(n))


def dense_to_sector(T: np.ndarray, basis: OccupationBasis, n: int) -> SectorVector:
    """Inverse of sector_to_dense for a symmetric coefficient tensor; reads
    each state's ascending mode tuple."""
    if n == 0:
        return SectorVector(basis, 0, np.array([complex(T)]))
    return SectorVector(basis, n, _from_dense(np.asarray(T), basis, n, basis.tuple_states(n)))


def _to_dense(amps, basis: OccupationBasis, n: int, tuples: np.ndarray) -> np.ndarray:
    # sector_to_dense on a stack of sector-n amplitudes (..., sector_dim(n)),
    # giving (..., M, ..., M); tuples is basis.tuple_states(n), passed in so a
    # caller converting several stacks builds it once
    weight = np.sqrt((basis.sector_factorials(n) / math.factorial(n)).astype(float))
    return (amps * weight)[..., tuples]


def _from_dense(T: np.ndarray, basis: OccupationBasis, n: int, tuples: np.ndarray) -> np.ndarray:
    # dense_to_sector on a stack of tensors (..., M, ..., M), giving the
    # amplitudes (..., sector_dim(n))
    _, first = np.unique(tuples, return_index=True)
    weight = np.sqrt((math.factorial(n) / basis.sector_factorials(n)).astype(float))
    return T.reshape(T.shape[:T.ndim - n] + (-1,))[..., first] * weight
