"""Matrix exponentials in numpy alone: Lanczos, which the tests take as an
oracle, one Chebyshev recurrence for every output time of a time-independent
sparse H, and a scaled Taylor polynomial for a stack of small dense matrices."""

import math

import numpy as np
import scipy.sparse as sp

__all__ = [
    "KrylovError",
    "krylov_expm",
    "ChebyshevPropagator",
]


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
    w, U = np.linalg.eigh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
    return U @ (np.exp(z * w) * U[0].conj())


def _expm_stack(A):
    # exp of each matrix of a (k, n, n) stack (Moler and Van Loan, SIAM Rev. 45,
    # 3 (2003)): one scale 2^-s brings the largest 1-norm theta to at most 1/2,
    # Horner evaluates the Taylor polynomial of the least degree m with
    # theta^(m+1)/(m+1)! <= eps/4 there, and s squarings undo the scale
    theta = float(np.abs(A).sum(axis=-2).max(initial=0.0))
    if not math.isfinite(theta):
        raise ValueError("matrix exponential of a stack with a non-finite entry")
    s = math.ceil(math.log2(theta)) + 1 if theta > 0.5 else 0
    X, theta = A * 2.0**-s, theta * 2.0**-s
    m, tail = 0, theta
    while tail > 0.25 * np.finfo(float).eps:
        m += 1
        tail *= theta / (m + 1)
    eye = np.eye(A.shape[-1])
    E = np.broadcast_to(eye, A.shape).astype(A.dtype)
    for k in range(m, 0, -1):
        E = eye + X @ E / k
    for _ in range(s):
        E = E @ E
    return E


class ChebyshevPropagator:
    """exp(-i t H) v for a hermitian sparse H, at many times from one
    Chebyshev recurrence.

    H is rescaled once onto its Gershgorin interval [c - a, c + a], with
    exp(-i t H) v = e^{-ict} sum_k (2 - delta_k0) (-i)^k J_k(at) T_k(X) v and
    X = (H - c)/a (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967 (1984)),
    cut where the Bessel tail bound falls below round-off: exact at any t,
    and e^{-ict} v on a zero-width interval (H = c).  The vectors T_k(X) v
    do not depend on t, so the series of every time share one recurrence,
    each cut at its own tail: n terms cost n - 1 products with H for the
    longest span, whatever the other times.  The coefficients of each time
    come from one FFT of length 2n, so the memory beyond a few vectors per
    time is O(n) however long the span.
    """

    def __init__(self, H):
        diag = H.diagonal().real
        radii = np.asarray(abs(H).sum(axis=1)).ravel() - np.abs(diag)
        lo, hi = np.min(diag - radii), np.max(diag + radii)
        self.center, self.half_width = 0.5 * (hi + lo), 0.5 * (hi - lo)
        # 2X, so that each term T_{k+1} = 2X T_k - T_{k-1} takes one product
        shifted = H - self.center * sp.identity(H.shape[0], dtype=H.dtype, format="csr")
        self.twice_scaled = shifted * (2.0 / self.half_width) if self.half_width else None

    def states(self, v, times):
        """exp(-i t H) v for each t of times, a (len(times), len(v)) array:
        row j is the series of times[j] alone, bit for bit, and the products
        with H are those of the longest span."""
        x = self.half_width * np.asarray(times, dtype=float)
        terms = np.array([_term_count(xj) if xj else 0 for xj in x], dtype=int)
        # the times with terms, most terms first: the series still open at
        # term k are the first still_open[k] of them
        live = np.argsort(-terms, kind="stable")[:np.count_nonzero(terms)]
        out = np.empty((len(x), len(v)), dtype=complex)
        if len(live):
            coef = np.zeros((len(live), terms[live[0]]), dtype=complex)
            for row, j in enumerate(live):
                coef[row, :terms[j]] = _exp_coefficients(x[j], terms[j])
            still_open = np.sum(terms[live, None] > np.arange(coef.shape[1]), axis=0)
            prev, cur = v, 0.5 * (self.twice_scaled @ v)
            acc = (0.5 * coef[:, 0, None]) * prev + coef[:, 1, None] * cur
            for k in range(2, coef.shape[1]):
                prev, cur = cur, self.twice_scaled @ cur - prev
                acc[:still_open[k]] += coef[:still_open[k], k, None] * cur
            out[live] = acc
        for j, t in enumerate(times):
            out[j] = np.exp(-1j * self.center * t) * (out[j] if terms[j] else v)
        return out


def _term_count(x):
    # ||T_k(X)|| <= 1 on [-1, 1], so the terms k < n leave a tail below
    # round-off: for n >= |x|, sum_{k >= n} 2 |J_k(x)| <= 4 (|x|/2)^n / n! <= eps
    n, log_tail = max(2, math.ceil(abs(x))), math.log(0.25 * np.finfo(float).eps)
    while n * math.log(0.5 * abs(x)) - math.lgamma(n + 1) > log_tail:
        n += 1
    return n


def _exp_coefficients(x, n):
    # the coefficients (2 - delta_k0) (-i)^k J_k(x) of exp(-ixs) on [-1, 1],
    # from its values at n Chebyshev nodes, which alias in only terms k > n:
    # (2/n) sum_j f_j cos(k theta_j), a DCT-II taken by one FFT of the even
    # extension, in O(n log n) time and O(n) memory at any span
    f = np.exp(-1j * x * np.cos(np.pi * (np.arange(n) + 0.5) / n))
    return np.fft.fft(np.r_[f, f[::-1]])[:n] * np.exp(-0.5j * np.pi * np.arange(n) / n) / n
