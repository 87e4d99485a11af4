"""Gauged nonlinear Hartree dynamics for the condensate mode.

i u' = (h0 + diag(W |u|^2) - mu(u)) u with the gauge mu(u) chosen so the phase
of u tracks the per-particle energy.  Integrated by Chebyshev-Picard
collocation (Clenshaw and Norton, Comput. J. 6, 88 (1963)) on chunks of whole
stored steps, one stacked right-hand side per Picard sweep; the norm is
measured, never enforced, so step-size problems surface as drift.  The
trajectory keeps each chunk's Chebyshev polynomial, which gives u at any number
of times at once; the derivative, gauge and energy of every stored u are taken
in one pass over the whole history.
"""

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .csvio import write_csv

__all__ = [
    "mean_field",
    "mu_of",
    "hartree_energy",
    "solve_hartree",
    "HartreeTrajectory",
]


def mean_field(u: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Mean-field potential v[x] = sum_y W[x,y] |u[y]|^2."""
    return W @ np.abs(u) ** 2


def mu_of(u: np.ndarray, W: np.ndarray) -> float:
    """Gauge constant (1/2) sum_xy |u[x]|^2 W[x,y] |u[y]|^2."""
    d = np.abs(u) ** 2
    return 0.5 * float(d @ W @ d)


def hartree_energy(u: np.ndarray, h0: np.ndarray, W: np.ndarray) -> float:
    """Per-particle energy <u, h0 u> + (1/2) <u, (W|u|^2) u>; conserved."""
    kin = np.vdot(u, h0 @ u).real
    return kin + 0.5 * float(np.abs(u) ** 2 @ mean_field(u, W))


def _field_and_gauge(u, W):
    # one |u|^2 and one product with W give the mean field v and the gauge
    # mu = (1/2) <|u|^2, v>, for one u or for each row of a stack
    d = np.abs(u) ** 2
    v = d @ W.T
    return v, 0.5 * (d * v).sum(axis=-1)


def _rhs(u, h0, W):
    # for one u or for each row of a stack, with the gauge of that u
    v, mu = _field_and_gauge(u, W)
    return -1j * (u @ h0.T + (v - mu[..., None]) * u)


class HartreeTrajectory:
    """Stored condensate history u(t) with gauges, energies and derivatives.

    Between stored times, u is the collocation polynomial of its chunk,
    renormalized: coef[j] holds the Chebyshev coefficients of the chunk that
    starts at starts[j] and spans `span`.  udot, the equation right-hand side
    at the stored points, is kept for verify's derivative identity and demo 02.
    """

    def __init__(self, times, u, udot, mu, energy, h0, W, coef, starts, span):
        self.times = np.asarray(times)
        self.u = np.asarray(u)
        self.udot = np.asarray(udot)
        self.mu = np.asarray(mu)
        self.energy = np.asarray(energy)
        self.h0 = h0
        self.W = W
        self.coef, self.starts, self.span = coef, starts, span

    @property
    def dt(self):
        return float(self.times[1] - self.times[0])

    def norms(self):
        return np.linalg.norm(self.u, axis=1)

    def _chunk(self, t):
        # chunk index and its Chebyshev variable in [-1, 1] for each time
        j = np.searchsorted(self.starts, t, side="right") - 1
        return j, 2 * (t - self.starts[j]) / self.span - 1

    def interpolate(self, t):
        """Unit-norm condensate at a time in [0, T], or one row per entry of a
        1-D array of times; times outside [0, T] give the stored end points."""
        times = self.times
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.isfinite(ts).all():
            raise ValueError("interpolation times must be finite")
        j, x = self._chunk(np.clip(ts, times[0], times[-1]))
        # Clenshaw on the real and imaginary parts, elementwise so each row is its scalar form
        c, x = self.coef[j].view(float), x[:, None]
        b1, b2, x2 = c[:, -1], 0.0, 2 * x
        for k in range(c.shape[1] - 2, 0, -1):
            b1, b2 = c[:, k] + x2 * b1 - b2, b1
        val = (c[:, 0] + x * b1 - b2).view(complex)
        out = val / np.sqrt(np.sum(val.real**2 + val.imag**2, axis=1))[:, None]
        out[ts <= times[0]] = self.u[0]
        out[ts >= times[-1]] = self.u[-1]
        return out[0] if np.ndim(t) == 0 else out

    def interpolation_defect(self, t: float) -> float:
        """Residual of the Hartree equation at an interpolated time: the
        derivative of the chunk polynomial against the right-hand side on the
        interpolated u; zero outside (0, T)."""
        if not self.times[0] < t < self.times[-1]:
            return 0.0
        j, x = self._chunk(t)
        der = cheb.chebval(x, cheb.chebder(self.coef[j])) * (2 / self.span)
        return float(np.linalg.norm(der - _rhs(self.interpolate(t), self.h0, self.W)))

    def write_csv(self, path):
        """Columns: time, re/im of each amplitude, mu, energy, norm."""
        M = self.u.shape[1]
        re_im = [f"{part}_u{i}" for i in range(M) for part in ("re", "im")]
        re_im_values = np.dstack([self.u.real, self.u.imag]).reshape(len(self.u), 2 * M)
        rows = np.column_stack([self.times, re_im_values, self.mu, self.energy,
                                [np.linalg.norm(u) for u in self.u]])
        write_csv(path, ["time", *re_im, "mu", "energy", "norm"], rows)


# largest norm drift of a stored u before solve_hartree gives up
NORM_TOL = 1e-6
# Chebyshev degree of a chunk (H*L <= 1/2 is resolved far below round-off),
# and the update the Picard sweeps must shrink to within MAX_SWEEPS sweeps
DEGREE = 20
PICARD_TOL = 1e-15
MAX_SWEEPS = 60


def solve_hartree(u0, h0, W, T, dt) -> HartreeTrajectory:
    """Chebyshev-Picard collocation of the gauged Hartree equation on [0, T].

    Stores u, mu, energy and the exact derivative every dt; mu and the energy
    are those of mu_of and hartree_energy.  A chunk is the largest whole number
    of stored steps with H*L <= 1/2, L = max_x sum_y |h0[x,y]| + 2 max|W|; the
    last may reach past T.  Fails if the Picard update stops shrinking or the
    measured norm drift exceeds NORM_TOL, both signs that dt is too large.
    """
    u0, h0 = np.asarray(u0, dtype=complex), np.asarray(h0)
    if abs(np.linalg.norm(u0) - 1.0) > 1e-10:
        raise ValueError("initial condensate must be normalized to 1e-10")
    if dt <= 0 or T <= 0:
        raise ValueError("need positive dt and horizon")
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-12 * max(1.0, T):
        n_steps = int(np.ceil(T / dt))
    dt = T / n_steps
    times = dt * np.arange(n_steps + 1)
    L = np.abs(h0).sum(axis=1).max() + 2 * np.abs(W).max()  # row sums bound |h0|_2
    m = n_steps if L * T <= 0.5 else max(1, int(0.5 / (L * dt)))
    # on the Chebyshev-Lobatto nodes of [-1, 1], to_coef takes values to
    # Chebyshev coefficients, Q integrates their interpolant from -1 to each
    # node, scaled to a chunk, and E evaluates it at the chunk's stored points
    tau = -np.cos(np.pi * np.arange(DEGREE + 1) / DEGREE)
    to_coef = np.linalg.inv(cheb.chebvander(tau, DEGREE))
    Q = (0.5 * m * dt * cheb.chebvander(tau, DEGREE + 1)
         @ cheb.chebint(np.eye(DEGREE + 1), lbnd=-1) @ to_coef)
    E = cheb.chebvander(np.arange(1, m + 1) * (2 / m) - 1, DEGREE) @ to_coef
    u_hist = np.empty((n_steps + 1, u0.shape[0]), dtype=complex)
    u_hist[0] = u0
    starts = range(0, n_steps, m)
    coef = np.empty((len(starts), DEGREE + 1, u0.shape[0]), dtype=complex)
    for j, a in enumerate(starts):
        U, last = np.tile(u_hist[a], (DEGREE + 1, 1)), np.inf
        for _ in range(MAX_SWEEPS):
            new = u_hist[a] + Q @ _rhs(U, h0, W)
            update = np.abs(new - U).max()
            if update <= PICARD_TOL or not update < last:
                break
            U, last = new, update
        if not update <= PICARD_TOL:
            raise RuntimeError(f"collocation update {update:.3e} on the chunk at t={times[a]:.4g} "
                               f"stopped shrinking; reduce dt")
        u_hist[a + 1:a + m + 1] = E[:n_steps - a] @ new
        coef[j] = to_coef @ new
    drift = np.abs(np.linalg.norm(u_hist, axis=1) - 1.0)
    k = int(np.argmax(drift))
    if drift[k] > NORM_TOL:
        raise RuntimeError(f"norm drift {drift[k]:.3e} at t={times[k]:.4g} exceeds {NORM_TOL:.1e}; "
                           f"reduce dt")
    # energy <u, h0 u> + (1/2) <|u|^2, W |u|^2> = kinetic part + gauge
    _, mu_hist = _field_and_gauge(u_hist, W)
    kin = np.sum(np.conj(u_hist) * (u_hist @ h0.T), axis=1).real
    return HartreeTrajectory(times, u_hist, _rhs(u_hist, h0, W), mu_hist, kin + mu_hist, h0, W,
                             coef, times[:n_steps:m], m * dt)
