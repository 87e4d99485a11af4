"""Krylov propagation of hermitian generators, with an exact dense propagator
for small ones."""

import numpy as np
import scipy.linalg as sla

__all__ = [
    "KrylovError",
    "krylov_expm",
    "propagate_substeps",
    "dense_propagator",
]

# below this many states one dense eigendecomposition beats the substepped
# Krylov path over a paper-scale run (T = 1, dt 0.05): on one thread of a
# 2-vCPU x86 machine, eigh against propagate_substeps took 7 against 22 ms
# at 165 states, 30 against 26 ms at 286 and 133 against 30 ms at 455
DENSE_FALLBACK_DIM = 250


class KrylovError(RuntimeError):
    """Raised when the Krylov exponential fails to reach its tolerance."""


def krylov_expm(H, v, z, tol=1e-10, m_max=30):
    """Approximate exp(z*H) v for hermitian H by a Lanczos subspace.

    H may be a sparse matrix or any object supporting @ on vectors.  Iterates
    until two successive Krylov approximants agree to tol (relative to the
    input norm) and fails loudly otherwise; silent inaccuracy is never
    returned.
    """
    beta0 = np.linalg.norm(v)
    if beta0 == 0.0:
        return v.copy()
    dim = v.shape[0]
    m_max = min(m_max, dim)
    V = np.empty((m_max, dim), dtype=complex)
    alpha = np.zeros(m_max)
    beta = np.zeros(m_max)
    V[0] = v / beta0
    prev = None
    for j in range(m_max):
        w = H @ V[j]
        a = np.vdot(V[j], w).real
        alpha[j] = a
        w = w - a * V[j]
        if j > 0:
            w = w - beta[j - 1] * V[j - 1]
        # full reorthogonalization; m is small and this buys 1e-14 accuracy
        # (conj(V) @ w as conj(V @ conj(w)): conjugates a vector, not the block)
        w = w - V[: j + 1].T @ np.conj(V[: j + 1] @ np.conj(w))
        b = np.linalg.norm(w)
        approx = _tridiag_exp_col(alpha[: j + 1], beta[:j], z)
        # the rows of V are orthonormal, so two successive approximants
        # differ by beta0 times the change of their coefficients
        converged = prev is not None and np.linalg.norm(approx - np.append(prev, 0.0)) <= tol
        if converged or b <= 1e-13 * max(1.0, abs(a)):
            # converged, or an invariant subspace where the result is exact
            return beta0 * (V[: j + 1].T @ approx)
        prev = approx
        if j + 1 < m_max:
            beta[j] = b
            V[j + 1] = w / b
    raise KrylovError(
        f"Krylov exponential did not converge within {m_max} iterations "
        f"(|z|*||H|| too large for this subspace; reduce the substep)"
    )


def _tridiag_exp_col(alpha, beta, z):
    # first column of exp(z*T) for the real symmetric tridiagonal T
    if len(alpha) == 1:
        return np.array([np.exp(z * alpha[0])])
    w, U = sla.eigh_tridiagonal(alpha, beta)
    return U @ (np.exp(z * w) * U[0].conj())


def propagate_substeps(H, v, t, dt_max, tol=1e-10, m_max=30):
    """exp(-i t H) v, substepping so no step exceeds dt_max."""
    if t == 0.0:
        return v.copy()
    n_sub = max(1, int(np.ceil(abs(t) / dt_max)))
    dt = t / n_sub
    out = v
    for _ in range(n_sub):
        out = krylov_expm(H, out, -1j * dt, tol=tol, m_max=m_max)
    return out


class dense_propagator:
    """Exact propagator exp(-i t H) from one dense eigendecomposition.

    Serves as the oracle path for small problems and the fallback below
    DENSE_FALLBACK_DIM states.
    """

    def __init__(self, H):
        Hd = H.toarray() if hasattr(H, "toarray") else np.asarray(H)
        self.evals, self.evecs = np.linalg.eigh(Hd)

    def apply(self, v, t):
        coeff = self.evecs.conj().T @ v
        return self.evecs @ (np.exp(-1j * t * self.evals) * coeff)

