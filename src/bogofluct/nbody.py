"""Exact N-boson dynamics on the symmetric N-particle sector.

Assembles the mean-field-scaled Hamiltonian, propagates with a Krylov or
dense-spectral exponential, and computes reduced density matrices and trace
distances between them.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fock import OccupationBasis, SectorVector, dgamma, two_body_op
from .linalg import DENSE_FALLBACK_DIM, dense_propagator, propagate_substeps

__all__ = [
    "NBodyHamiltonian",
    "fock_hamiltonian",
    "build_hamiltonian",
    "propagate_exact",
    "ReducedDensity",
    "reduced_density",
    "trace_distance",
]


def fock_hamiltonian(h0, W, N: int, basis: OccupationBasis):
    """Second-quantized Hamiltonian dGamma(h0) + (1/(N-1)) two-body(W) on the
    whole truncated basis; coincides with the N-body operator on sector N."""
    if N < 2:
        raise ValueError("mean-field coupling 1/(N-1) needs N >= 2")
    return dgamma(h0, basis) + (1.0 / (N - 1)) * two_body_op(W, basis)


@dataclass
class NBodyHamiltonian:
    N: int
    basis: OccupationBasis
    mat: sp.csr_matrix  # restricted to sector N
    h0: np.ndarray
    W: np.ndarray


def build_hamiltonian(h0, W, N: int, basis: OccupationBasis) -> NBodyHamiltonian:
    """Restrict the second-quantized Hamiltonian to the N-particle sector."""
    if basis.n_max < N:
        raise ValueError(f"basis truncation {basis.n_max} below N={N}")
    full = fock_hamiltonian(h0, W, N, basis).mat
    sl = basis.sector_slice(N)
    return NBodyHamiltonian(N, basis, full[sl, sl].tocsr(), np.asarray(h0), np.asarray(W))


def propagate_exact(H: NBodyHamiltonian, psi0: SectorVector, t_grid,
                    dt_max: float = 0.1):
    """States at the grid times under the time-independent N-body Hamiltonian.

    Uses one dense eigendecomposition below DENSE_FALLBACK_DIM states and a
    substepped Krylov exponential above; any norm drift beyond 1e-9 per unit
    time raises instead of being silently renormalized.
    """
    if psi0.n != H.N:
        raise ValueError(f"initial state lives in sector {psi0.n}, expected {H.N}")
    if abs(psi0.norm() - 1.0) > 1e-10:
        raise ValueError("initial state must be normalized to 1e-10")
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(np.diff(t_grid) < 0):
        raise ValueError("time grid must be nondecreasing")
    dim = H.mat.shape[0]
    out = []
    if dim < DENSE_FALLBACK_DIM:
        prop = dense_propagator(H.mat)
        for t in t_grid:
            out.append(SectorVector(H.basis, H.N, prop.apply(psi0.amplitudes, t)))
    else:
        v = psi0.amplitudes.copy()
        t_prev = 0.0
        for t in t_grid:
            v = propagate_substeps(H.mat, v, t - t_prev, dt_max, tol=1e-12)
            t_prev = t
            out.append(SectorVector(H.basis, H.N, v.copy()))
    for t, psi in zip(t_grid, out):
        drift = abs(psi.norm() - 1.0)
        if drift > 1e-9 * (1.0 + abs(t)):
            raise RuntimeError(
                f"propagation norm drift {drift:.3e} at t={t:.4g} exceeds budget"
            )
    return out


@dataclass
class ReducedDensity:
    """Trace-one hermitian k-particle density matrix on the k-sector basis."""

    k: int
    matrix: np.ndarray


def reduced_density(psi: SectorVector, k: int) -> ReducedDensity:
    """k-particle density matrix of a sector-N state, trace normalized to 1.

    Entry (s, t) is <A_t psi, A_s psi> / binom(N, k) with A_s the normalized
    occupation-lowering string of the k-sector basis state s.
    """
    N = psi.n
    if not 1 <= k <= N:
        raise ValueError(f"order k={k} outside 1..{N}")
    basis = psi.basis
    # column j of cols is a_{m_1} ... a_{m_k} psi for the j-th mode tuple in
    # C order; the ascending tuple of each state s gives its string, over
    # sqrt(prod s_i!)
    cols = psi.embed().amplitudes[:, None]
    for _ in range(k):
        cols = np.hstack([basis.mode_lowering(m) @ cols for m in range(basis.M)])
    _, first = np.unique(basis.tuple_states(k), return_index=True)
    lowered = (cols[:, first] / np.sqrt(basis.sector_factorials(k).astype(float))).T
    gram = lowered.conj() @ lowered.T  # gram[t, s] = <A_t psi, A_s psi>
    mat = gram.T / math.comb(N, k)
    mat = 0.5 * (mat + mat.conj().T)
    return ReducedDensity(k, mat)


def trace_distance(rho: ReducedDensity, sigma: ReducedDensity) -> float:
    """Sum of absolute eigenvalues of the hermitian difference."""
    if rho.k != sigma.k or rho.matrix.shape != sigma.matrix.shape:
        raise ValueError("reduced densities are not comparable")
    return float(np.sum(np.abs(np.linalg.eigvalsh(rho.matrix - sigma.matrix))))

