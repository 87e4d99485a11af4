"""Sparse operators and matrix exponentials in numpy alone: a fixed-width
row operator, Lanczos, which the tests take as an oracle, one Chebyshev
recurrence for every output time of a time-independent sparse H, and a
scaled Taylor polynomial for a stack of small dense matrices."""

import math

import numpy as np

__all__ = [
    "GatherOperator",
    "KrylovError",
    "krylov_expm",
    "ChebyshevPropagator",
]


# terms (width x rows x columns) a product forms at once: rows are taken in
# chunks of about this many, so its temporaries stay in cache
_CHUNK_TERMS = 1 << 16


class GatherOperator:
    """A sparse matrix held as rows of one fixed width: cols and vals are
    (width, rows) arrays, and row r of a product is
    sum_k vals[k, r] x[cols[k, r]], its terms added in k order onto zero.

    Each row lists its nonzero entries in ascending column order, with
    padding entries of value 0 anywhere among them, so a product adds the
    terms of a row in the order of a CSR row and, for complex values, forms
    each term as re = vr xr - vi xi, im = vr xi + vi xr with every product
    rounded on its own (numpy's einsum does; its complex multiply may fuse
    them): the same bits as a scipy CSR or CSC product on the same entries,
    since a 0 term added to a sum that starts at +0 leaves it as it was.
    The absolute row sums leave a stored 0 out, as a compressed matrix
    would.
    """

    def __init__(self, cols, vals, shape):
        self.cols = np.asarray(cols, dtype=np.intp)
        self.vals = np.asarray(vals)
        self.shape = tuple(int(d) for d in shape)
        if self.cols.ndim != 2 or self.cols.shape != self.vals.shape or (
                self.cols.shape[1] != self.shape[0]):
            raise ValueError(f"cols {self.cols.shape} and vals {self.vals.shape} are not "
                             f"(width, rows) for shape {self.shape}")
        self._pairs = None

    def __matmul__(self, x):
        x = np.asarray(x)
        if x.shape[:1] != self.shape[1:]:
            raise ValueError(f"operator of shape {self.shape} applied to shape {x.shape}")
        x = x.astype(np.result_type(self.vals, x, 1.0), copy=False)
        rows = self.shape[0]
        step = max(1, _CHUNK_TERMS // (len(self.cols) * max(1, x[:1].size)))
        if step >= rows:
            return self._rows(x, slice(0, rows))
        out = np.empty((rows,) + x.shape[1:], dtype=x.dtype)
        for first in range(0, rows, step):
            part = slice(first, min(first + step, rows))
            out[part] = self._rows(x, part)
        return out

    def _rows(self, x, part):
        # rows part of self @ x from every term at once, (width, rows, ...):
        # numpy's einsum adds a row's terms in width order onto 0, as a CSR
        # row adds them, each complex product formed term by term; a real
        # operator on a complex vector scales its float pairs (xr, xi)
        # instead, which has the same bits at less cost
        g = np.take(x, self.cols[:, part], axis=0)
        if x.ndim > 1 or x.dtype != complex or np.iscomplexobj(self.vals):
            return np.einsum("kr...,kr->r...", g, self.vals[:, part])
        pair = g.view(float)
        pair *= self._doubled()[:, part].reshape(pair.shape)
        return np.add.reduce(pair, axis=0, initial=0.0).view(complex)

    def _doubled(self):
        # each real value twice, (width, rows, 2), to scale the float pairs
        # of a vector; cached, as a propagator applies one operator many
        # times
        if self._pairs is None:
            self._pairs = np.repeat(self.vals[..., None], 2, axis=-1)
        return self._pairs

    def diagonal(self) -> np.ndarray:
        on = self.cols == np.arange(self.shape[0])
        return np.where(on, self.vals, 0).sum(axis=0)[:min(self.shape)]

    def abs_row_sums(self) -> np.ndarray:
        """sum_k |vals[k, r]| of each row r over its nonzero entries, in
        row order: the first plus numpy's sum of the rest, as
        np.add.reduceat sums a CSR row."""
        mags = np.abs(self.vals.T)
        keep = mags != 0
        counts = keep.sum(axis=1)
        out = np.zeros(self.shape[0])
        filled = np.flatnonzero(counts)
        if len(filled):
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            out[filled] = np.add.reduceat(mags[keep], starts[filled])
        return out

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.vals.dtype)
        rows = np.broadcast_to(np.arange(self.shape[0]), self.cols.shape)
        np.add.at(out, (rows, self.cols), self.vals)
        return out


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
    """exp(-i t H) v for a hermitian GatherOperator H, at many times from
    one Chebyshev recurrence.

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

    Every row of H must store its diagonal (a 0 included): the scaled copy
    2(H - c)/a shifts the first slot of each row that holds it.
    """

    def __init__(self, H: GatherOperator):
        diag = H.diagonal().real
        radii = H.abs_row_sums() - np.abs(diag)
        lo, hi = np.min(diag - radii), np.max(diag + radii)
        self.center, self.half_width = 0.5 * (hi + lo), 0.5 * (hi - lo)
        on = H.cols == np.arange(H.shape[0])
        if not on.any(axis=0).all():
            raise ValueError("every row of H must store its diagonal")
        on &= np.cumsum(on, axis=0) == 1
        # 2X, so that each term T_{k+1} = 2X T_k - T_{k-1} takes one product
        self.twice_scaled = None
        if self.half_width:
            scaled = np.where(on, H.vals - self.center, H.vals) * (2.0 / self.half_width)
            if np.iscomplexobj(scaled) and not scaled.imag.any():
                scaled = scaled.real  # a real operator: a product then has the same bits, faster
            self.twice_scaled = GatherOperator(H.cols, scaled, H.shape)

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
