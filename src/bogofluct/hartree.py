"""Gauged nonlinear Hartree dynamics for the condensate mode.

i u' = (h0 + diag(W |u|^2) - mu(u)) u with the gauge mu(u) chosen so the phase
of u tracks the per-particle energy.  Integrated with classical RK4; the norm
is measured, never enforced, so step-size problems surface as drift.  The
step loop holds only the four stages and the norm check: the gauge and the
energy of every stored u are taken in one pass over the whole history after
it, and the stored history is interpolated at any number of times at once.
"""

import numpy as np

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
    # gauge re-evaluated from the stage's own u
    v, mu = _field_and_gauge(u, W)
    return -1j * (h0 @ u + (v - mu) * u)


class HartreeTrajectory:
    """Stored condensate history u(t) with gauges, energies and derivatives.

    Between stored times, u is interpolated by a componentwise cubic Hermite
    polynomial and renormalized; the derivative data for the Hermite form is
    the exact equation right-hand side at the stored points.
    """

    def __init__(self, times, u, udot, mu, energy, h0, W):
        self.times = np.asarray(times)
        self.u = np.asarray(u)
        self.udot = np.asarray(udot)
        self.mu = np.asarray(mu)
        self.energy = np.asarray(energy)
        self.h0 = h0
        self.W = W

    @property
    def dt(self):
        return float(self.times[1] - self.times[0])

    def norms(self):
        return np.linalg.norm(self.u, axis=1)

    def interpolate(self, t):
        """Unit-norm condensate at a time in [0, T], or one row per entry of a
        1-D array of times; times outside [0, T] give the stored end points."""
        times = self.times
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if not np.isfinite(ts).all():
            raise ValueError("interpolation times must be finite")
        tc = np.clip(ts, times[0], times[-1])
        k = np.minimum(np.searchsorted(times, tc, side="right") - 1, len(times) - 2)
        h = (times[k + 1] - times[k])[:, None]
        s = (tc - times[k])[:, None] / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s**2 * (3 - 2 * s)
        h11 = s**2 * (s - 1)
        val = (
            h00 * self.u[k]
            + h10 * h * self.udot[k]
            + h01 * self.u[k + 1]
            + h11 * h * self.udot[k + 1]
        )
        out = val / np.sqrt(np.sum(val.real**2 + val.imag**2, axis=1))[:, None]
        out[ts <= times[0]] = self.u[0]
        out[ts >= times[-1]] = self.u[-1]
        return out[0] if np.ndim(t) == 0 else out

    def interpolation_defect(self, t: float) -> float:
        """Residual of the Hartree equation at an interpolated time.

        Compares the Hermite derivative against the equation right-hand side
        evaluated on the interpolated u; zero at stored points up to rounding.
        """
        times = self.times
        if not times[0] < t < times[-1]:
            return 0.0
        k = int(np.searchsorted(times, t, side="right") - 1)
        h = times[k + 1] - times[k]
        s = (t - times[k]) / h
        d00 = (6 * s**2 - 6 * s) / h
        d10 = 3 * s**2 - 4 * s + 1
        d01 = (6 * s - 6 * s**2) / h
        d11 = 3 * s**2 - 2 * s
        der = (
            d00 * self.u[k]
            + d10 * self.udot[k]
            + d01 * self.u[k + 1]
            + d11 * self.udot[k + 1]
        )
        ui = self.interpolate(t)
        return float(np.linalg.norm(der - _rhs(ui, self.h0, self.W)))

    def write_csv(self, path):
        """Columns: time, re/im of each amplitude, mu, energy, norm."""
        M = self.u.shape[1]
        re_im = [f"{part}_u{i}" for i in range(M) for part in ("re", "im")]
        re_im_values = np.dstack([self.u.real, self.u.imag]).reshape(len(self.u), 2 * M)
        rows = np.column_stack([self.times, re_im_values, self.mu, self.energy,
                                [np.linalg.norm(u) for u in self.u]])
        write_csv(path, ["time", *re_im, "mu", "energy", "norm"], rows)


# largest norm drift of an RK4 step before solve_hartree gives up
NORM_TOL = 1e-6


def solve_hartree(u0, h0, W, T, dt) -> HartreeTrajectory:
    """RK4 integration of the gauged Hartree equation on [0, T].

    Stores u, mu, energy and the exact derivative at every step; mu and the
    energy are those of mu_of and hartree_energy.  Fails if the
    measured norm drift exceeds NORM_TOL, which signals that dt is too large.
    """
    u0 = np.asarray(u0, dtype=complex)
    if abs(np.linalg.norm(u0) - 1.0) > 1e-10:
        raise ValueError("initial condensate must be normalized to 1e-10")
    if dt <= 0 or T <= 0:
        raise ValueError("need positive dt and horizon")
    n_steps = int(round(T / dt))
    if abs(n_steps * dt - T) > 1e-12 * max(1.0, T):
        n_steps = int(np.ceil(T / dt))
    dt = T / n_steps
    times = dt * np.arange(n_steps + 1)
    M = u0.shape[0]
    u_hist = np.empty((n_steps + 1, M), dtype=complex)
    udot_hist = np.empty_like(u_hist)
    u = u0.copy()
    for k in range(n_steps + 1):
        u_hist[k] = u
        udot_hist[k] = k1 = _rhs(u, h0, W)
        if k == n_steps:
            break
        k2 = _rhs(u + 0.5 * dt * k1, h0, W)
        k3 = _rhs(u + 0.5 * dt * k2, h0, W)
        k4 = _rhs(u + dt * k3, h0, W)
        u = u + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        drift = abs(np.linalg.norm(u) - 1.0)
        if drift > NORM_TOL:
            raise RuntimeError(
                f"norm drift {drift:.3e} at t={times[k + 1]:.4g} exceeds {NORM_TOL:.1e}; "
                f"reduce dt"
            )
    # energy <u, h0 u> + (1/2) <|u|^2, W |u|^2> = kinetic part + gauge
    _, mu_hist = _field_and_gauge(u_hist, W)
    kin = np.sum(np.conj(u_hist) * (u_hist @ np.asarray(h0).T), axis=1).real
    return HartreeTrajectory(times, u_hist, udot_hist, mu_hist, kin + mu_hist, h0, W)
