"""The unitary identification between the N-particle sector and the truncated
excitation layers orthogonal to the condensate.

Provides the map itself and its inverse, the generator of its time
derivative, the conjugated N-body Hamiltonian split into its leading quadratic
part plus two remainder operators, and dense helpers for verifying all of the
algebraic identities at small sizes.

The forward map is applied frame-free: component j of the image is the
zero-condensate-occupation projection P0 of a(u)^(N-j)/sqrt((N-j)!) applied
to the sector-N state, which is exact on the truncated basis.  One chain of
N lowerings a(u)^m psi serves every layer, and the layers' Horner passes of
the normal-ordered series for P0 run stacked.  Every product is with a sector
block of a(u) or a^dag(u) (fock.sector_lowerings) on sector-sized vectors;
only the layers are written into a full-basis vector.  States of several N
share one fill of a(u): their chains and Horner stacks are the columns of
one product per sector, and their images are written one at a time into
one buffer.  Functions of the excitation-number operator N+ are sums
f(j) P_j over the projectors onto j excitations, built sector by sector
from the same blocks of a(u), with no eigendecomposition and nothing to
round; N+ conserves the total, so neither
it nor any function of it has an entry between sectors, and each is kept as
a sparse block-diagonal matrix: sum_n d_n^2 stored entries for the sector
dimensions d_n, in place of size^2.  One pass of that recursion weights the
projectors for every function a builder needs.

The dense builders keep each ladder operator sparse, multiply it into those
block-diagonal weights and make the sum dense once; each hermitian pair
T + h.c. is formed once from T.  Both interaction remainders are written as
sum_i b_i^dag (.) b_i over the lowerings b_i = a(Q e_i) of the
condensate-orthogonal components: the cubic term of R1 with a^dag(Q (W_i u))
inside, and R2 with dGamma(Q diag(W_i) Q) / (2(N-1)).
"""

import math
from dataclasses import dataclass

import numpy as np

from .bogoliubov import _generator_kernels, tangency_defect
from .fock import (
    FockVector,
    OccupationBasis,
    SectorVector,
    annihilate_op,
    create_op,
    dgamma,
    hartree_block,
    pairing_raise,
    quadratic_op,
    sector_lowerings,
)

__all__ = [
    "ExcitationFrame",
    "apply_u_n",
    "apply_u_n_star",
    "dense_u_n",
    "func_of_number_plus",
    "du_generator",
    "leading_part",
    "conjugated_hamiltonian",
    "assemble_r1",
    "assemble_r2",
]


@dataclass
class ExcitationFrame:
    """Condensate mode, particle count and the orthogonal projector."""

    u: np.ndarray
    N: int

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=complex)
        if abs(np.linalg.norm(self.u) - 1.0) > 1e-10:
            raise ValueError("condensate mode must be unit norm to 1e-10")
        if self.N < 1:
            raise ValueError("need at least one particle")
        self.q = np.eye(len(self.u)) - np.outer(self.u, np.conj(self.u))


def apply_u_n(frame: ExcitationFrame, psi):
    """Map a sector-N state to its excitation decomposition.

    The output has support on sectors 0..N, each annihilated by a(u); its norm
    equals the input norm.  The lowerings a(u)^m psi, m = 0..N, are computed
    once; layer j is a Horner pass of j raisings over them from m = N-j on,
    scaled by 1/sqrt((N-j)!).

    psi may also be a list of states of sectors 1..frame.N, all mapped in one
    pass over the sectors on one fill of a(u) up to frame.N: each product is
    one block of a(u) or a^dag(u) on the columns of every state that reaches
    it.  An iterator over their images is then returned, in the list's order.
    The images share one buffer, so each is valid until the next is drawn;
    each is the same bytes as the image of its state mapped alone.
    """
    single = isinstance(psi, SectorVector)
    states = [psi] if single else list(psi)
    for p in states:
        if not (p.n == frame.N if single else 1 <= p.n <= frame.N):
            raise ValueError(f"expected a sector-{frame.N} state, got sector {p.n}")
    if not states:
        return iter(())
    basis = states[0].basis
    images = (FockVector(basis, out[:, 0]) for out in
              _u_n(frame.u, [(p.n, p.amplitudes[:, None]) for p in states], basis, frame.N))
    return next(images) if single else images


def _u_n(u, blocks, basis: OccupationBasis, top: int):
    # the map of every (N, amps) in blocks, amps a (dim_N, c) block of
    # sector-N columns, 1 <= N <= top, c the same for all, along one fill of
    # a(u) up to top; returns an iterator over their (size, c) images in the
    # order of blocks, each written into one buffer.  Every product is one
    # sector block on the columns of all blocks that reach that sector, and
    # column by column it is that product on one block alone
    low, up = sector_lowerings(u, basis, top)  # up[n] raises sector n-1 to n
    # the chain a(u)^m amps of each block joins at sector N; blocks join by
    # decreasing N, so downs[n] holds the chain columns of every N >= n,
    # those of larger N first, and width[n] counts them
    order = sorted(range(len(blocks)), key=lambda b: -blocks[b][0])
    start = {}  # block -> its first chain column
    downs = [None] * (top + 1)  # downs[n]: a(u)^(N-n) amps of each N >= n, in sector n
    chain = np.zeros((basis.sector_dim(top), 0), dtype=complex)
    for n in range(top, -1, -1):
        for b in order:
            if blocks[b][0] == n:
                start[b] = chain.shape[1]
                chain = np.concatenate((chain, blocks[b][1]), axis=1)
        downs[n] = chain
        if n:
            chain = low[n] @ chain
    width = [downs[n].shape[1] for n in range(top + 1)]
    # layer j is P0 = sum_m (-1)^m/m! a^dag(u)^m a(u)^m on a(u)^(N-j) psi, by Horner:
    # step s of every layer j >= s raises into sector s, divides by j - s + 1 and
    # subtracts from a(u)^(N-s) psi, so layers s..N of every N are stacked and
    # raised at once; layer s is then done.  acc starts at 0, so step 0
    # writes a(u)^N psi into every layer exactly.  The columns of acc are
    # layer by layer, layer j holding the first width[j]
    # chain columns; the layers first..last of a run share one width w, so
    # a run's subtraction is one broadcast
    ends = sorted({N for N, _amps in blocks})
    runs = [(first, last, width[last]) for first, last in zip([0] + [n + 1 for n in ends], ends)]
    j = np.repeat(np.arange(0.0, top + 1), width)
    acc = np.zeros((1, len(j)), dtype=complex)
    layers = []  # layers[s]: layer s of each N >= s, unscaled
    for s in range(top + 1):
        if s:
            acc = (up[s] @ acc) / (j - (s - 1))
        pos = 0
        for first, last, w in runs:
            if last >= s:
                run = acc[:, pos:pos + (last - max(first, s) + 1) * w].reshape(len(acc), -1, w)
                np.subtract(downs[s][:, None, :w], run, out=run)
                pos += run.shape[1] * w
        downs[s] = None
        layers.append(acc[:, :width[s]].copy())
        acc, j = acc[:, width[s]:], j[width[s]:]
    return _images(layers, blocks, start, basis)


def _images(layers, blocks, start, basis):
    # the image of each block in one buffer: sector s holds the block's
    # columns of layers[s] over sqrt((N-s)!), sectors above its N are zero
    out = np.zeros((basis.size, blocks[0][1].shape[1]), dtype=complex)
    off = basis.sector_offsets
    for b, (N, amps) in enumerate(blocks):
        cols = slice(start[b], start[b] + amps.shape[1])
        for s in range(N + 1):
            np.divide(layers[s][:, cols], math.sqrt(math.factorial(N - s)), out=out[off[s]:off[s + 1]])
        out[off[N + 1]:] = 0.0
        yield out


def apply_u_n_star(frame: ExcitationFrame, phi: FockVector,
                   tangency_tol: float = 1e-8) -> SectorVector:
    """Inverse map: rebuild the sector-N state from excitation layers.

    Rejects inputs with weight above sector N or with a tangency defect beyond
    tangency_tol; on its domain this is the exact inverse of apply_u_n.
    """
    N = frame.N
    norms = phi.sector_norms()
    if float(np.sum(norms[N + 1:] ** 2)) > 1e-24:
        raise ValueError("input has weight above sector N")
    defect = tangency_defect(phi, frame.u)
    if defect > tangency_tol * max(1.0, phi.norm()):
        raise ValueError(f"input has tangency defect {defect:.3e} > {tangency_tol:.1e}")
    return hartree_block(frame.u, phi, N, orth_tol=tangency_tol)


def dense_u_n(frame: ExcitationFrame, basis: OccupationBasis) -> np.ndarray:
    """Matrix of the excitation map from sector N into the full basis."""
    return next(_u_n(frame.u, [(frame.N, np.eye(basis.sector_dim(frame.N), dtype=complex))],
                     basis, frame.N))


def _by_sector(u, basis: OccupationBasis, top: int, *weights) -> list:
    # for each weight, the CSR matrix of sum_j weight(n, j) P_n[j] in each
    # sector block n <= top, rows above top empty, P_n[j] the projector of
    # sector n onto j excitations (n - j quanta in u); for a unit u,
    # a^dag(u) P_{n-1}[j] a(u) = (n - j) P_n[j] for j < n, and P_n[n] is
    # 1 - sum_{j<n} P_n[j]; one recursion serves every weight.  The term is
    # up (up P)^dag, as P is hermitian, so no sparse block sits on the right
    # of a dense one
    import scipy.sparse as sp

    if abs(np.linalg.norm(u) - 1.0) > 1e-10:
        raise ValueError("condensate mode must be unit norm to 1e-10")
    # each raising block as a CSR matrix of its rows, stored zeros included:
    # scipy's compiled product takes these dense blocks about a third faster
    # than the gather, with the same bits
    up = [None] + [sp.csr_matrix((b.vals.T.ravel(), b.cols.T.ravel(),
                                  np.arange(b.shape[0] + 1) * len(b.cols)), shape=b.shape)
                   for b in sector_lowerings(u, basis, top)[1][1:]]
    blocks = [[] for _ in weights]
    P = []
    for n in range(top + 1):
        P = [up[n] @ (up[n] @ p).conj().T / (n - j) for j, p in enumerate(P)]
        P.append(np.eye(basis.sector_dim(n)) - sum(P))
        for block, weight in zip(blocks, weights):
            block.append(sum(weight(n, j) * p for j, p in enumerate(P)))
    # sector n holds rows and columns off[n]..off[n+1]-1, each of its rows
    # the d_n columns of the block, stored row by row
    off = basis.sector_offsets[:top + 2]
    dims = np.diff(off)
    indices = np.concatenate([np.tile(np.arange(o, o + d), d) for o, d in zip(off, dims)])
    indptr = np.full(basis.size + 1, len(indices))
    indptr[:off[-1] + 1] = np.concatenate([[0], np.cumsum(np.repeat(dims, dims))])
    return [sp.csr_matrix((np.concatenate([b.ravel() for b in block]), indices, indptr),
                          shape=(basis.size, basis.size)) for block in blocks]


def func_of_number_plus(u, basis: OccupationBasis, func) -> np.ndarray:
    """Dense f(excitation number): sum_j f(j) times the projector onto j
    excitations in each sector block, entries between sectors exactly 0.
    Raises ValueError unless u is unit norm to 1e-10."""
    return _by_sector(u, basis, basis.n_max, lambda n, j: func(j))[0].toarray()


def _root_weight(N):
    # sqrt(N - N+) by excitation count k
    return lambda n, k: math.sqrt(max(N - k, 0))


def du_generator(frame: ExcitationFrame, udot: np.ndarray,
                 basis: OccupationBasis) -> np.ndarray:
    """Generator G with i dU/dt = G U along a norm-preserving condensate path.

    G = a^dag(u) a(v) - sqrt(N - Np) a(v) - a^dag(v) sqrt(N - Np)
        - <i du/dt, u> (N - Np),   v = Q (i du/dt),
    with Np the excitation number.  Dense, for verification sizes.
    """
    u = frame.u
    udot = np.asarray(udot, dtype=complex)
    if abs(np.vdot(u, udot).real) > 1e-8 * max(1.0, np.linalg.norm(udot)):
        raise ValueError("condensate path does not preserve norm")
    v = frame.q @ (1j * udot)
    N = frame.N
    sqrtN, n_minus = _by_sector(u, basis, basis.n_max, _root_weight(N),
                                lambda n, k: float(N - k))
    half = create_op(v, basis) @ sqrtN
    phase = np.vdot(1j * udot, u)
    return (dgamma(np.outer(u, np.conj(v)), basis)
            - (half + half.conj().T) - phase * n_minus).toarray()


def _projected_lowering(frame: ExcitationFrame, basis: OccupationBasis):
    # annihilators b_i = a(Q e_i) of the condensate-orthogonal components
    return [annihilate_op(frame.q[:, i], basis) for i in range(basis.M)]


def _require_pairs(frame: ExcitationFrame):
    if frame.N < 2:
        raise ValueError("mean-field coupling 1/(N-1) of the remainders needs N >= 2")


def _r1_weights(N):
    # d1..d4 of assemble_r1 by excitation count k
    return (lambda n, k: (1.0 - k) / (N - 1),
            lambda n, k: k * math.sqrt(max(N - k, 0)) / (N - 1),
            lambda n, k: math.sqrt(max((N - k) * (N - k - 1), 0)) / (N - 1) - 1.0,
            lambda n, k: math.sqrt(max(N - k, 0)) / (N - 1))


def assemble_r1(frame: ExcitationFrame, h0, W, basis: OccupationBasis) -> np.ndarray:
    """First remainder of the conjugated N-body Hamiltonian (dense).

    R1 = dGamma(Q (m + k1 - mu) Q) (1 - Np)/(N-1) + [T + h.c.], with m the
    mean field, k1 the bare exchange, mu the gauge and Np the excitation
    number, and T the sum of
      - the cubic condensate current -a^dag(Q m u) Np sqrt(N - Np)/(N-1),
      - the pairing weight correction Pc (sqrt((N-Np)(N-Np-1))/(N-1) - 1),
      - the one-condensate-leg cubic interaction X sqrt(N - Np)/(N-1),
        X = sum_ij W[i,j] u[j] b_i^dag b_j^dag b_i
          = sum_i b_i^dag a^dag(Q (W_i u)) b_i,  b_i = a(Q e_i).
    The operator orderings are the ones produced by conjugating the quartic
    interaction term class by term; the subtraction identity against the
    dense conjugation pins them down.  Raises ValueError for N < 2.
    """
    _require_pairs(frame)
    d = _by_sector(frame.u, basis, basis.n_max, *_r1_weights(frame.N))
    return _r1(frame, W, basis, *d).toarray()


def _r1(frame, W, basis, d1, d2, d3, d4) -> "sp.csr_matrix":
    # assemble_r1 on the weights d1..d4 of one projector pass; m + k1 - mu is
    # the generator's bare one-body matrix at h0 = 0, and m u is k1_bare u
    u, Q = frame.u, frame.q
    A, _, kern = _generator_kernels(u, 0.0, W, projected=False)
    X = sum(b.conj().T @ create_op(Q @ (W[i] * u), basis) @ b
            for i, b in enumerate(_projected_lowering(frame, basis)))
    half = (pairing_raise(kern.k2, basis) @ d3
            - create_op(Q @ (kern.k1_bare @ u), basis) @ d2 + X @ d4)
    return dgamma(Q @ A @ Q, basis) @ d1 + half + half.conj().T


def assemble_r2(frame: ExcitationFrame, W, basis: OccupationBasis) -> "sp.csr_matrix":
    """Second remainder: the fully condensate-orthogonal quartic interaction,
    (1/(2(N-1))) sum_ij W[i,j] b_i^dag b_j^dag b_i b_j
    = (1/(2(N-1))) sum_i b_i^dag dGamma(Q diag(W_i) Q) b_i,  b_i = a(Q e_i).

    The second form uses b_i b_j = b_j b_i, exact on the truncated basis
    because lowering never leaves it.  Raises ValueError for N < 2.
    """
    _require_pairs(frame)
    Q = frame.q
    mat = sum(b.conj().T @ dgamma(Q @ np.diag(W[i]) @ Q, basis) @ b
              for i, b in enumerate(_projected_lowering(frame, basis)))
    return (mat / (2.0 * (frame.N - 1))).tocsr()


def leading_part(frame: ExcitationFrame, h0, W, basis: OccupationBasis) -> np.ndarray:
    """Dense leading part of the conjugated N-body Hamiltonian:

    N e + dGamma(Q(A - e)Q) + [a^dag(Q A u) sqrt(N - Np) + h.c.]
    + pairing(k2), with A = h + k1 the generator's one-body matrix, e = <u, A u>.
    """
    sqrtN = _by_sector(frame.u, basis, basis.n_max, _root_weight(frame.N))[0]
    return _leading(frame, h0, W, basis, sqrtN).toarray()


def _leading(frame, h0, W, basis, sqrtN) -> "sp.csr_matrix":
    # leading_part on the sqrt(N - Np) of one projector pass, from the
    # matrices the fluctuation run steps with
    import scipy.sparse as sp

    u, N, Q = frame.u, frame.N, frame.q
    A, K, _ = _generator_kernels(u, h0, W)
    Au = A @ u
    e = float(np.vdot(u, Au).real)
    half = create_op(Q @ Au, basis) @ sqrtN
    return (quadratic_op(Q @ (A - e * np.eye(basis.M)) @ Q, K, basis)
            + N * e * sp.identity(basis.size, format="csr") + half + half.conj().T)


def conjugated_hamiltonian(frame: ExcitationFrame, h0, W,
                           basis: OccupationBasis) -> np.ndarray:
    """Dense right side of the conjugation identity on the excitation layers:
    leading_part + R1 + R2; equals the conjugated N-body Hamiltonian on the
    condensate-orthogonal layers with total at most N.  Raises ValueError
    for N < 2.
    """
    _require_pairs(frame)
    sqrtN, *d = _by_sector(frame.u, basis, basis.n_max, _root_weight(frame.N),
                           *_r1_weights(frame.N))
    return (_leading(frame, h0, W, basis, sqrtN) + _r1(frame, W, basis, *d)
            + assemble_r2(frame, W, basis)).toarray()
