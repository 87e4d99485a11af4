"""Independent constructions and checks that only the tests use."""

import math

import numpy as np
import scipy.sparse as sp

from bogofluct.bogoliubov import build_kernels
from bogofluct.excitation import func_of_number_plus
from bogofluct.fock import (
    FockVector,
    OccupationBasis,
    SectorVector,
    annihilate_op,
    create_op,
    dgamma,
    number_op,
    pairing_raise,
)
from bogofluct.hartree import mean_field, mu_of


def embed(psi: SectorVector) -> FockVector:
    """A sector vector as amplitudes over the whole basis, zero elsewhere."""
    amps = np.zeros(psi.basis.size, dtype=complex)
    amps[psi.basis.sector_slice(psi.n)] = psi.amplitudes
    return FockVector(psi.basis, amps)


def project_out_mode(u: np.ndarray, vec: FockVector) -> FockVector:
    """Project every sector onto the subspace with no quanta in the mode u.

    Uses the normal-ordered form of the projector,
    sum_k (-1)^k/k! a^dag(u)^k a(u)^k, evaluated Horner style; exact on the
    truncated basis in any frame.
    """
    low = annihilate_op(u, vec.basis)
    raise_u = low.conj().T.tocsr()
    downs = [vec.amplitudes]
    for _ in range(vec.basis.n_max):
        downs.append(low @ downs[-1])
    acc = downs[-1].copy()
    for k in range(vec.basis.n_max - 1, -1, -1):
        acc = downs[k] - (raise_u @ acc) / (k + 1)
    return FockVector(vec.basis, acc)


def mode_lowering(basis: OccupationBasis, i: int) -> sp.csr_matrix:
    """Sparse matrix of the mode annihilator a_i on the whole basis, built
    from its index pattern alone."""
    dst, src, amps = basis.lowering_structure(i)
    return sp.csr_matrix((amps, (dst, src)), shape=(basis.size, basis.size))


def two_body_general(B, basis) -> sp.csr_matrix:
    """(1/2) sum_{ijkl} B[i,j,k,l] a_i^dag a_j^dag a_k a_l for a full two-body
    coefficient tensor, as products of the mode ladder matrices."""
    M = basis.M
    B = np.asarray(B, dtype=complex)
    if B.shape != (M, M, M, M):
        raise ValueError("two-body tensor has wrong shape")
    mat = sp.csr_matrix((basis.size, basis.size), dtype=complex)
    lower = [mode_lowering(basis, i) for i in range(M)]
    raiser = [L.conj().T.tocsr() for L in lower]
    for k in range(M):
        for l in range(M):
            lowpair = (lower[k] @ lower[l]).tocsr()
            Cmat = sp.csr_matrix((basis.size, basis.size), dtype=complex)
            for i in range(M):
                for j in range(M):
                    if B[i, j, k, l] == 0:
                        continue
                    Cmat = Cmat + B[i, j, k, l] * (raiser[i] @ raiser[j])
            mat = mat + 0.5 * (Cmat @ lowpair)
    return mat.tocsr()


def checked_density(rho, tol=1e-10):
    """rho itself, after checking it is positive semidefinite with trace 1."""
    evals = np.linalg.eigvalsh(rho.matrix)
    if evals[0] < -tol:
        raise ValueError(f"reduced density has negative eigenvalue {evals[0]:.3e}")
    tr = float(np.trace(rho.matrix).real)
    if abs(tr - 1.0) > tol:
        raise ValueError(f"reduced density trace {tr} differs from 1")
    return rho


def is_hermitian(op, tol=1e-12) -> bool:
    d = op - op.conj().T
    return abs(d).max() <= tol if d.nnz else True


def number_plus_op(u: np.ndarray, basis: OccupationBasis) -> sp.csr_matrix:
    """Excitation number operator: total number minus condensate occupation."""
    n_u = create_op(u, basis) @ annihilate_op(u, basis)
    return number_op(basis) - n_u


def integer_spectral_function(mat, func):
    """Apply func to a dense hermitian matrix with (near) integer spectrum.

    Eigenvalues are rounded to the nearest integer before applying func, so
    occupation-count operators get exact weights like sqrt(max(N - n, 0)).
    """
    Hd = mat.toarray() if hasattr(mat, "toarray") else np.asarray(mat)
    w, U = np.linalg.eigh(Hd)
    k = np.rint(w.real).astype(int)
    if np.max(np.abs(w - k)) > 1e-8:
        raise ValueError("matrix spectrum is not close to integers")
    vals = np.array([func(int(x)) for x in k], dtype=complex)
    return (U * vals) @ U.conj().T


def dense_assemble_r1(frame, h0, W, basis) -> np.ndarray:
    """First remainder from full-basis dense matrices: one func_of_number_plus
    per weight, each hermitian partner written out, and the cubic term X as
    the explicit double sum over (i, j)."""
    u, N, Q = frame.u, frame.N, frame.q
    m = mean_field(u, W)
    mu = mu_of(u, W)
    kern = build_kernels(u, W)

    def f_np(func):
        return func_of_number_plus(u, basis, func)

    one_body = Q @ (np.diag(m).astype(complex) + kern.k1_bare - mu * np.eye(basis.M)) @ Q
    d1 = f_np(lambda k: (1.0 - k) / (N - 1))
    r1 = dgamma(one_body, basis).toarray() @ d1

    c_f = create_op(Q @ (m * u), basis).toarray()
    d2 = f_np(lambda k: k * math.sqrt(max(N - k, 0)) / (N - 1))
    r1 = r1 - (c_f @ d2 + d2 @ c_f.conj().T)

    pc = pairing_raise(kern.k2, basis).toarray()
    d3 = f_np(lambda k: math.sqrt(max((N - k) * (N - k - 1), 0)) / (N - 1) - 1.0)
    r1 = r1 + (pc @ d3 + d3 @ pc.conj().T)

    # X = sum_ij W[i,j] u[j] b_i^dag b_j^dag b_i, b_i = a(Q e_i)
    lows = [annihilate_op(Q[:, i], basis) for i in range(basis.M)]
    X = sp.csr_matrix((basis.size, basis.size), dtype=complex)
    for i in range(basis.M):
        for j in range(basis.M):
            coeff = W[i, j] * u[j]
            if coeff != 0:
                X = X + coeff * (lows[i].conj().T @ lows[j].conj().T @ lows[i])
    d4 = f_np(lambda k: math.sqrt(max(N - k, 0)) / (N - 1))
    Xd = X.toarray()
    return r1 + Xd @ d4 + d4 @ Xd.conj().T


def dense_du_generator(frame, udot, basis) -> np.ndarray:
    """Derivative generator from full-basis dense matrices, one
    func_of_number_plus per function of the excitation number."""
    u, N = frame.u, frame.N
    udot = np.asarray(udot, dtype=complex)
    v = frame.q @ (1j * udot)
    sqrtN = func_of_number_plus(u, basis, lambda k: math.sqrt(max(N - k, 0)))
    n_minus = func_of_number_plus(u, basis, lambda k: float(N - k))
    a_v = annihilate_op(v, basis).toarray()
    c_u = create_op(u, basis).toarray()
    phase = np.vdot(1j * udot, u)
    return c_u @ a_v - sqrtN @ a_v - a_v.conj().T @ sqrtN - phase * n_minus
