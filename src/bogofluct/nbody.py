"""Exact N-boson dynamics on the symmetric N-particle sector.

Assembles the mean-field-scaled Hamiltonian, propagates with one Chebyshev
recurrence for all output times (each time's series cut at its own tail,
coefficients by one FFT, O(n) memory for n terms), and computes reduced
density matrices and trace distances between them, all on sector blocks cut
from the Fock basis: the Hamiltonian from the states of sector N alone and
the raising and lowering tables, reduced densities through the sector
blocks of the mode annihilators, each a numpy GatherOperator.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fock import (OccupationBasis, SectorVector, one_body_block, sector_mode_lowerings,
                   two_body_diagonal)
from .linalg import ChebyshevPropagator, GatherOperator

__all__ = [
    "NBodyHamiltonian",
    "build_hamiltonian",
    "propagate_exact",
    "ReducedDensity",
    "reduced_density",
    "trace_distance",
]


@dataclass
class NBodyHamiltonian:
    N: int
    basis: OccupationBasis
    mat: GatherOperator  # on sector N


def build_hamiltonian(h0, W, N: int, basis: OccupationBasis) -> NBodyHamiltonian:
    """The second-quantized Hamiltonian dGamma(h0) + (1/(N-1)) two-body(W)
    on the N-particle sector alone: the one-body block of the sector, with
    the pair energies of its states added to its diagonal."""
    if basis.n_max < N:
        raise ValueError(f"basis truncation {basis.n_max} below N={N}")
    if N < 2:
        raise ValueError("mean-field coupling 1/(N-1) needs N >= 2")
    pair = two_body_diagonal(W, basis.states[basis.sector_slice(N)]).astype(complex)
    mat = one_body_block(h0, basis, N, diagonal=pair * (1.0 / (N - 1)))
    return NBodyHamiltonian(N, basis, mat)


def propagate_exact(H: NBodyHamiltonian, psi0: SectorVector, t_grid):
    """States at the grid times under the time-independent N-body Hamiltonian.

    Every time is taken from t = 0 by its own Chebyshev series, exact to
    round-off at any length, and all of them share one recurrence, so the
    products with H are those of the longest span; the times may repeat and
    come in any order.  Any norm drift beyond 1e-9 per unit time raises, at
    the first grid time that shows it, instead of being silently
    renormalized.
    """
    if psi0.n != H.N:
        raise ValueError(f"initial state lives in sector {psi0.n}, expected {H.N}")
    if abs(psi0.norm() - 1.0) > 1e-10:
        raise ValueError("initial state must be normalized to 1e-10")
    t_grid = np.asarray(t_grid, dtype=float)
    if not np.all(np.isfinite(t_grid)):
        raise ValueError("grid times must be finite")
    out = []
    for t, v in zip(t_grid, ChebyshevPropagator(H.mat).states(psi0.amplitudes, t_grid)):
        out.append(SectorVector(H.basis, H.N, v))
        drift = abs(out[-1].norm() - 1.0)
        if drift > 1e-9 * (1.0 + abs(t)):
            raise RuntimeError(f"propagation norm drift {drift:.3e} at t={t:.4g} exceeds budget")
    return out


@dataclass
class ReducedDensity:
    """Trace-one hermitian k-particle density matrix on the k-sector basis."""

    k: int
    matrix: np.ndarray


def reduced_density(psi, k: int):
    """k-particle density matrix of a sector-N state, trace normalized to 1.

    Entry (s, t) is <A_t psi, A_s psi> / binom(N, k) with A_s the normalized
    occupation-lowering string of the k-sector basis state s.  psi may also
    be a list of states of one sector: each lowering is then one product on
    the columns of all of them, and a list of their densities is returned,
    each the same bytes as when taken alone.
    """
    states = [psi] if isinstance(psi, SectorVector) else list(psi)
    N = states[0].n
    if not 1 <= k <= N:
        raise ValueError(f"order k={k} outside 1..{N}")
    if any(p.n != N for p in states):
        raise ValueError("states of one sector only")
    basis = states[0].basis
    # column j * len(states) + i of cols is a_{m_1} ... a_{m_k} psi_i for
    # the j-th mode tuple in C order, in sector N - k; the ascending tuple of
    # each state s gives its string, over sqrt(prod s_i!)
    cols = np.stack([p.amplitudes for p in states], axis=1)
    for n in range(N, N - k, -1):
        low = (sector_mode_lowerings(basis, n) @ cols).reshape(basis.M, -1, cols.shape[1])
        cols = low.transpose(1, 0, 2).reshape(low.shape[1], -1)
    _, first = np.unique(basis.tuple_states(k), return_index=True)
    root = np.sqrt(basis.sector_factorials(k).astype(float))
    out = []
    for i in range(len(states)):
        lowered = (cols[:, first * len(states) + i] / root).T
        gram = lowered.conj() @ lowered.T  # gram[t, s] = <A_t psi, A_s psi>
        mat = gram.T / math.comb(N, k)
        out.append(ReducedDensity(k, 0.5 * (mat + mat.conj().T)))
    return out[0] if isinstance(psi, SectorVector) else out


def trace_distance(rho: ReducedDensity, sigma: ReducedDensity) -> float:
    """Sum of absolute eigenvalues of the hermitian difference."""
    if rho.k != sigma.k or rho.matrix.shape != sigma.matrix.shape:
        raise ValueError("reduced densities are not comparable")
    return float(np.sum(np.abs(np.linalg.eigvalsh(rho.matrix - sigma.matrix))))

