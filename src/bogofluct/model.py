"""Discretized one-particle model: a periodic 1-D lattice, the kinetic operator
on it, and translation-invariant pair interactions.

All one-body operators are plain (M, M) complex hermitian ndarrays and the pair
interaction is a real symmetric (M, M) ndarray W with W[x, y] = w(dist(x, y)),
where dist is the minimal-image distance on the ring.
"""

import numpy as np

__all__ = [
    "ModeBasis",
    "build_lattice",
    "build_laplacian",
    "build_interaction",
    "relative_bound_constant",
    "gaussian_profile",
    "constant_profile",
]

HERMITICITY_TOL = 1e-12


class ModeBasis:
    """Finite one-particle basis: M equally spaced sites on a periodic ring."""

    def __init__(self, M: int, spacing: float):
        if M < 2:
            raise ValueError(f"need at least two modes, got M={M}")
        if spacing <= 0:
            raise ValueError(f"lattice spacing must be positive, got {spacing}")
        self.M = int(M)
        self.spacing = float(spacing)
        self.positions = spacing * np.arange(M, dtype=float)

    def distance(self, i: int, j: int) -> float:
        """Minimal-image distance between sites i and j."""
        d = abs(i - j) % self.M
        return self.spacing * min(d, self.M - d)

    def __repr__(self):
        return f"ModeBasis(M={self.M}, spacing={self.spacing})"


def build_lattice(M: int, spacing: float) -> ModeBasis:
    """Build the periodic lattice of M sites with the given spacing."""
    return ModeBasis(M, spacing)


def build_laplacian(basis: ModeBasis) -> np.ndarray:
    """Positive semidefinite finite-difference kinetic operator on the ring.

    Diagonal 2/spacing^2, nearest neighbours -1/spacing^2 with periodic wrap.
    Row sums vanish, so the constant vector is a zero mode.
    """
    M = basis.M
    inv2 = 1.0 / basis.spacing**2
    h = np.zeros((M, M), dtype=complex)
    np.fill_diagonal(h, 2.0 * inv2)
    for i in range(M):
        h[i, (i + 1) % M] += -inv2
        h[i, (i - 1) % M] += -inv2
    return h


def build_interaction(basis: ModeBasis, w) -> np.ndarray:
    """Sample an even pair potential w(r) on all minimal-image distances.

    w must satisfy w(-r) = w(r) on every lattice displacement; asymmetric
    samples are rejected.
    """
    M = basis.M
    dists = [basis.distance(i, 0) for i in range(M)]
    for r in dists:
        if abs(w(-r) - w(r)) > 1e-12 * max(1.0, abs(w(r))):
            raise ValueError(f"interaction is not even at displacement {r}")
    W = np.empty((M, M), dtype=float)
    for i in range(M):
        for j in range(M):
            W[i, j] = w(basis.distance(i, j))
    return 0.5 * (W + W.T)


def gaussian_profile(strength: float, rng: float = 1.0):
    """Gaussian pair potential w(r) = strength * exp(-(r/rng)^2)."""
    def w(r):
        return strength * np.exp(-((r / rng) ** 2))
    return w


def constant_profile(c: float):
    def w(r):
        return c
    return w


def _assert_hermitian(mat: np.ndarray, tol: float = HERMITICITY_TOL, name: str = "operator"):
    dev = np.max(np.abs(mat - mat.conj().T))
    if dev > tol:
        raise ValueError(f"{name} is not hermitian (max deviation {dev:.3e})")


def relative_bound_constant(W: np.ndarray, h0: np.ndarray) -> float:
    """Smallest C with C*(I + h0) >= D_w^2, D_w the multiplication operator
    by the interaction profile seen from one site.

    Always finite on a lattice; recorded as a diagnostic for how singular the
    interaction is relative to the kinetic operator.  Raises ValueError
    unless I + h0 is positive definite.
    """
    _assert_hermitian(h0, name="h0")
    evals, V = np.linalg.eigh(np.eye(h0.shape[0]) + h0)
    if evals[0] <= 0.0:
        raise ValueError("I + h0 is not positive definite")
    # the pencil (D^2, I + h0) has the eigenvalues of D (I + h0)^-1 D,
    # which is G diag(1/evals) G^dag with G = D V
    G = W[:, 0].astype(float)[:, None] * V
    lam = np.linalg.eigvalsh((G / evals) @ G.conj().T)
    return float(max(lam[-1], 0.0))
