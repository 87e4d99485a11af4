"""Quadratic fluctuation dynamics around the condensate.

Builds the time-dependent one-body and pairing kernels from the condensate
mode, assembles the quadratic generator on the truncated Fock basis for the
identity checks, propagates the fluctuation state with a midpoint-frozen
exponential (an order-2 scheme), and exposes the low-sector coupled system
as an independent cross-check.

Every term of the generator changes the number of excitations by 0 (the
one-body part dGamma(h + k1)) or by +-2 (pair creation and annihilation
through k2), so it never mixes states of even and odd total: the amplitudes
of a parity a state has no weight in stay exactly zero.

A quadratic generator maps a quasi-free state c exp(1/2 a^dag T a^dag) vacuum
to another one, so a run, with the projected or the bare kernels, carries
the symmetric M x M matrix T and the scalar c of the evolved vacuum instead
of Fock amplitudes.  Each step applies the same frozen-midpoint exponential
exp(-i tau H) exactly, through the 2M x 2M matrix exponential of its
Bogoliubov map; this is the untruncated dynamics.  The path works on the
whole step grid at once: the generators of all midpoints and their
exponentials are taken as one stack, a loop carries only the recurrence for
(T, c), and a vacuum start's diagnostics rows are closed forms in the
stacked T.  Fock amplitudes are built only at the output times, cut at
n_max, all of them in one pass over the sectors, through the raising table
and the sector blocks of the mode annihilators.  A table start p(a^dag)
vacuum becomes p(A^dag) on the evolved vacuum, with the creators A_i^dag
the same exponentials carry a_i^dag to.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .csvio import write_csv
from .fock import (
    FockVector,
    OccupationBasis,
    _from_dense,
    _to_dense,
    annihilate_op,
    enumerate_basis,
    one_body_form,
    quadratic_op,
    sector_mode_lowerings,
)
from .hartree import HartreeTrajectory, _field_and_gauge
from .linalg import _expm_stack
from .linalg import krylov_expm  # noqa: F401  unused here; perfbench/tracer.py wraps this name

__all__ = [
    "Kernels",
    "build_kernels",
    "bogoliubov_hamiltonian",
    "mean_field_hamiltonian",
    "FluctuationRun",
    "solve_bogoliubov",
    "hierarchy_rhs",
    "tangency_defect",
]


@dataclass
class Kernels:
    """Condensate-dressed kernels of the quadratic generator.

    k1 is the projected one-body exchange kernel Q k1_bare Q (hermitian), k2
    the projected pairing kernel Q k2_bare Q^T (symmetric); the bare versions
    keep the condensate directions.
    """

    k1: np.ndarray
    k2: np.ndarray
    k1_bare: np.ndarray
    k2_bare: np.ndarray
    q: np.ndarray


def build_kernels(u: np.ndarray, W: np.ndarray) -> Kernels:
    """Kernels from the condensate mode and interaction:
    k1_bare[x,y] = u[x] W[x,y] conj(u[y]), k2_bare[x,y] = u[x] W[x,y] u[y].
    A stack of modes (leading axes) gives stacks of kernels."""
    u = np.asarray(u, dtype=complex)
    if (abs(np.linalg.norm(u, axis=-1) - 1.0) > 1e-6).any():
        raise ValueError("condensate mode must be unit norm to 1e-6")
    col, row = u[..., :, None], u[..., None, :]
    k1_bare = col * W * np.conj(row)
    k2_bare = col * W * row
    q = np.eye(u.shape[-1]) - col * np.conj(row)
    k1 = q @ k1_bare @ q
    k2 = q @ k2_bare @ np.swapaxes(q, -1, -2)
    k2 = 0.5 * (k2 + np.swapaxes(k2, -1, -2))
    return Kernels(k1, k2, k1_bare, k2_bare, q)


def mean_field_hamiltonian(u, h0, W) -> np.ndarray:
    """One-body part h = h0 + diag(W|u|^2) - mu(u); a stack of modes (leading
    axes) gives a stack of h."""
    v, mu = _field_and_gauge(u, W)
    eye = np.eye(np.shape(u)[-1], dtype=complex)
    return h0 + v[..., :, None] * eye - mu[..., None, None] * eye


def _generator_kernels(u, h0, W, projected: bool = True):
    # one-body matrix A = h + k1 and pairing kernel K = k2 of the generator
    # dGamma(A) + pairing(K) at u, or at each row of a stack of u, with the
    # kernels; projected=False takes the bare kernels
    kern = build_kernels(u, W)
    h = mean_field_hamiltonian(u, h0, W)
    if projected:
        return h + kern.k1, kern.k2, kern
    return h + kern.k1_bare, kern.k2_bare, kern


def bogoliubov_hamiltonian(u, h0, W, basis: OccupationBasis) -> sp.csr_matrix:
    """Assemble the quadratic generator dGamma(h + k1) + pairing(k2) for
    fluctuations around u, with the condensate-projected kernels (the frame
    tied to an N-particle product state), as the CSR matrix quadratic_op
    fills.  The bare-kernel generator (the frame tied to a coherent state) is
    quadratic_op(mean_field_hamiltonian(u, h0, W) + kern.k1_bare, kern.k2_bare,
    basis)."""
    A, K, _ = _generator_kernels(u, h0, W)
    return quadratic_op(A, K, basis)


def tangency_defect(phi: FockVector, u: np.ndarray) -> float:
    """How far phi strays from the excitation space: ||a(u) phi||."""
    return float(np.linalg.norm(annihilate_op(u, phi.basis) @ phi.amplitudes))


@dataclass
class FluctuationRun:
    """States at the requested grid times, the energy form, a function
    v -> <v, dGamma(1 + h0) v>, and per-step diagnostics rows."""

    times: np.ndarray
    states: list
    energy_form: object
    diagnostics: list = field(default_factory=list)

    DIAG_COLUMNS = (
        "time", "norm", "tangency", "expect_n", "expect_energy_form",
        "leakage", *[f"sector_norm_{n}" for n in range(7)],
    )

    def write_csv(self, path):
        write_csv(path, self.DIAG_COLUMNS, self.diagnostics)


def _diag_row(t, phi: FockVector, u, energy_form):
    sector_norms = phi.sector_norms()
    n_max = phi.basis.n_max
    leakage = float(np.sum(sector_norms[max(0, n_max - 1):] ** 2))
    totals = phi.basis.totals()
    p = np.abs(phi.amplitudes) ** 2
    expect_n = float(totals @ p)
    expect_energy = float(np.real(energy_form(phi.amplitudes)))
    profile = [float(sector_norms[n]) if n <= n_max else 0.0 for n in range(7)]
    return [t, phi.norm(), tangency_defect(phi, u), expect_n, expect_energy,
            leakage, *profile]


def _step_grid(t_grid, dt):
    # every output interval in equal steps of about dt: the midpoint times,
    # the step lengths and the step ends, the ends accumulated step by step,
    # and for each output time the number of steps taken before it
    mids, taus, ends, marks = [], [], [], []
    t = 0.0
    for t_target in t_grid:
        if t_target < t - 1e-12:
            raise ValueError("t_grid must be nondecreasing from zero")
        span = t_target - t
        n_sub = max(1, int(round(span / dt))) if span > 1e-14 else 0
        step = span / n_sub if n_sub else 0.0
        for _ in range(n_sub):
            mids.append(t + 0.5 * step)
            taus.append(step)
            t += step
            ends.append(t)
        marks.append(len(ends))
    return mids, taus, ends, marks


def _quasi_free_path(c, u_mid, taus, h0, W, projected):
    """(T, c) of the state c exp(1/2 a^dag T a^dag) vacuum before the first
    step and after each, each step the exact Bogoliubov map of the generator,
    with the projected or the bare kernels, frozen at its midpoint mode, and
    after each step a view of the rows [R | S] of U a_i^dag U^* = R_i . a +
    S_i . a^dag.  A step off the principal branch of the square root ends
    the path: it is returned up to that step, with the error to raise once
    the steps before it have been checked."""
    # exp(-i tau H) acts on (a, a^dag) through the 2M x 2M exponential E;
    # the state after n steps is annihilated by the rows of [P_n | Q_n], the
    # top M rows of E_1 ... E_n (the vacuum's [1 | 0] carried along), so
    # T_n = -P_n^-1 Q_n, and the bottom M rows are [R_n | S_n] ([0 | 1]
    # before the first step, so not stored).  Step n's P is P_(n-1)^-1 P_n,
    # and its vacuum amplitude gives c <- c exp(i tau trA/2)/sqrt(det P)
    # (trA/2 is the normal-ordering constant of dGamma(A)).  The root is taken of
    # det P exp(-i tau trA), which is 1 without pairing, so the principal
    # branch holds however far tau trA turns the phase.
    M = len(h0)
    A, K, _ = _generator_kernels(u_mid, h0, W, projected)
    tau = np.asarray(taus)[:, None, None]
    gen = np.block([[A, K], [-np.conj(K), -np.swapaxes(A, 1, 2)]])
    E = _expm_stack(1j * tau * gen)
    # inclusive prefix products by doubling: after the pass with shift d,
    # E[n] is the product of the steps max(0, n - 2d + 1) .. n
    shift = 1
    while shift < len(E):
        E[shift:] = E[:-shift] @ E[shift:]
        shift *= 2
    P, Q = E[:, :M, :M], E[:, :M, M:]
    dets = np.linalg.det(P)
    det = dets / np.concatenate([[1.0], dets[:-1]]) * np.exp(
        -1j * tau[:, 0, 0] * np.trace(A, axis1=1, axis2=2))
    off = np.flatnonzero(det.real <= 0.0)
    done = off[0] if len(off) else len(det)
    Ts = np.zeros((done + 1, M, M), dtype=complex)
    T = -np.linalg.solve(P[:done], Q[:done])
    Ts[1:] = 0.5 * (T + np.swapaxes(T, 1, 2))
    cs = np.concatenate([[complex(c)], c / np.cumprod(np.sqrt(det[:done]))])
    if done == len(det):
        return Ts, cs, E[:done, M:], None
    return Ts, cs, E[:done, M:], RuntimeError(
        f"quasi-free step has det P exp(-i tau trA) = {det[done]:.3e}, off the "
        "principal square-root branch; reduce dt"
    )


def _quasi_free_rows(times, Ts, cs, u, h0, n_max):
    """Diagnostics rows of the quasi-free states (Ts[r], cs[r]) at times[r],
    with the condensate u[r], as one array."""
    # closed forms in T: gamma_ij = <a_i^dag a_j> = (G (1 - G)^-1)_ij with
    # G = conj(T) T, whose eigenvalues are the squared singular values s_j
    # of T; a(u) phi = a^dag(v) phi with v = u^dag T; the sector-2k weight
    # is |c|^2 [z^k] prod_j (1 - s_j^2 z)^(-1/2), whose coefficients f_k
    # follow from the power sums p_m = sum_j s_j^(2m) by
    # k f_k = 1/2 sum_{m=1..k} p_m f_{k-m}
    M = Ts.shape[-1]
    G = np.conj(Ts) @ Ts
    gamma = G @ np.linalg.inv(np.eye(M) - G)
    v = (np.conj(u)[:, None, :] @ Ts)[:, 0, :]
    defect = (np.sum(np.abs(v) ** 2, axis=1)
              + (v[:, None, :] @ gamma @ np.conj(v)[:, :, None])[:, 0, 0].real)
    s2 = np.linalg.eigvalsh(G)
    p = (s2[:, None, :] ** np.arange(1, n_max // 2 + 1)[None, :, None]).sum(axis=2)
    f = np.ones((len(Ts), n_max // 2 + 1))
    for k in range(1, n_max // 2 + 1):
        f[:, k] = np.sum(p[:, :k] * f[:, k - 1::-1], axis=1) / (2 * k)
    weights = np.zeros((len(Ts), n_max + 1))
    weights[:, 0::2] = np.abs(cs)[:, None] ** 2 * f
    profile = np.zeros((len(Ts), 7))
    profile[:, :n_max + 1] = np.sqrt(weights[:, :7])
    return np.column_stack([
        times,
        np.sqrt(np.sum(weights, axis=1)),
        np.sqrt(np.maximum(0.0, defect)),
        np.trace(gamma, axis1=1, axis2=2).real,
        np.sum((np.eye(M) + h0) * gamma, axis=(1, 2)).real,
        np.sum(weights[:, max(0, n_max - 1):], axis=1),
        profile,
    ])


# output times a pass of _quasi_free_states, or a walk of _raised_states,
# takes at once: its temporaries stay at a few M x dim arrays however many
_STATE_COLUMNS = 4


def _quasi_free_states(Ts, cs, basis: OccupationBasis) -> list:
    """c sum_{k <= n_max/2} (1/2 a^dag T a^dag)^k vacuum / k! for each (T, c),
    cut at n_max, with the (T, c) the columns of one pass over the sectors.
    Each pair raising v -> 1/2 sum_ij T_ij a_i^dag a_j^dag v from sector
    n - 2 to n takes x_j = a_j^dag v, one scatter from the raising table,
    then 1/2 sum_i a_i^dag (sum_j T_ij x_j), one product with the stacked
    sector blocks of the mode annihilators on up to _STATE_COLUMNS columns."""
    index, amp = basis.raising_table()
    off, M = basis.sector_offsets, basis.M
    amps = np.zeros((len(Ts), basis.size), dtype=complex)
    amps[:, 0] = cs
    for n in range(2, basis.n_max + 1, 2):
        rows, up = slice(off[n - 2], off[n - 1]), sector_mode_lowerings(basis, n).T
        for first in range(0, len(Ts), _STATE_COLUMNS):
            cols = slice(first, first + _STATE_COLUMNS)
            x = np.zeros((len(Ts[cols]), off[n] - off[n - 1], M), dtype=complex)
            x[:, index[rows] - off[n - 1], np.arange(M)] = amps[cols, rows, None] * amp[rows]
            y = (x @ np.swapaxes(Ts[cols], 1, 2)).transpose(2, 1, 0).reshape(-1, len(x))
            amps[cols, off[n]:off[n + 1]] = (0.5 * (up @ y) / (n // 2)).T
    return [FockVector(basis, a) for a in amps]


def _raised_states(phi0: FockVector, Ts, cs, RS) -> list:
    """p(A^dag) Omega for each (T, c, [R | S]), cut at n_max: phi0 = p(a^dag)
    vacuum, its amplitude at q the coefficient of prod_i (a_i^dag)^q_i /
    sqrt(q_i!), with each creator carried to A_i^dag = sum_j R_ij a_j +
    S_ij a_j^dag and the vacuum to Omega = c exp(1/2 a^dag T a^dag) vacuum.
    Omega is built on the basis cut at n_max + d, d the top sector phi0
    fills; each A^dag reaches one sector down, so after d of them the
    sectors up to n_max are exact."""
    # a depth-first walk raises state q from its parent q - e_i, i the last
    # mode q occupies, as A_i^dag / sqrt(q_i), so it holds at most d + 1
    # wide vectors, each time a column, up to _STATE_COLUMNS at once;
    # A_i^dag v takes one product with the stacked a_j and a_j^dag
    basis, M = phi0.basis, phi0.basis.M
    d = int(np.flatnonzero(phi0.sector_norms())[-1])
    wide = enumerate_basis(M, basis.n_max + d)
    low, dim = sector_mode_lowerings(wide), wide.size
    ladder = sp.vstack([low, *(low[j * dim:(j + 1) * dim].T for j in range(M))], format="csr")
    index, amp = basis.raising_table()
    out = np.zeros((len(Ts), basis.size), dtype=complex)

    def walk(q, first, v):
        out[part] += phi0.amplitudes[q] * v[:basis.size].T
        for i in range(first, M if basis.totals()[q] < d else 0):
            walk(index[q, i], i, np.einsum("tk,kwt->wt", RS[part, i],
                                           (ladder @ v).reshape(2 * M, dim, -1)) / amp[q, i])

    omega = np.array([s.amplitudes for s in _quasi_free_states(Ts, cs, wide)]).T
    for start in range(0, len(Ts), _STATE_COLUMNS):
        part = slice(start, start + _STATE_COLUMNS)
        walk(0, 0, omega[:, part])
    return [FockVector(basis, a) for a in out]


def solve_bogoliubov(phi0: FockVector, traj: HartreeTrajectory, h0, W, dt,
                     t_grid=None, projected: bool = True,
                     tangency_tol: float = 1e-4) -> FluctuationRun:
    """Propagate the fluctuation state along the stored condensate history.

    One step freezes the generator at the interpolated midpoint condensate and
    applies its exponential (an order-2 scheme) exactly, through the
    Bogoliubov map of the step, on the whole step grid at once; Fock
    amplitudes, cut at n_max, are built only at the t_grid times.  The
    projected dynamics (projected=True) lives on the excitation space, so its
    initial state must be tangent (defect at most 1e-8) and the run aborts at
    the first diagnostics row whose tangency defect exceeds tangency_tol,
    which signals truncation or step-size trouble; the bare-kernel dynamics
    (projected=False) has no such requirement.

    A phi0 whose one nonzero amplitude is at the vacuum stays quasi-free,
    with either kernels, and takes a diagnostics row per step in closed form
    (norm and leakage from the sector weights up to n_max).  Any other start
    (a table start) must be a projected one, and takes rows at t = 0 and at
    the t_grid times only; a bare-kernel run from it raises ValueError.
    """
    basis = phi0.basis
    if abs(phi0.norm() - 1.0) > 1e-9:
        raise ValueError("initial fluctuation state must be unit norm to 1e-9")
    quasi_free = np.flatnonzero(phi0.amplitudes).tolist() == [0]
    if not (quasi_free or projected):
        raise ValueError("a bare-kernel run needs a multiple of the vacuum as its start")
    if t_grid is None:
        t_grid = np.array([traj.times[-1]])
    t_grid = np.asarray(t_grid, dtype=float)
    mids, taus, ends, marks = _step_grid(t_grid, dt)
    row_times = [0.0, *ends]
    u_mid = traj.interpolate(np.asarray(mids))
    u_rows = traj.interpolate(np.asarray(row_times))
    energy_form = one_body_form(np.eye(basis.M) + h0, basis)
    tangency = FluctuationRun.DIAG_COLUMNS.index("tangency")
    if not quasi_free:
        first = _diag_row(0.0, phi0, u_rows[0], energy_form)
        if first[tangency] > 1e-8:
            raise ValueError(f"initial state has tangency defect {first[tangency]:.3e} > 1e-8")
    Ts, cs, RS, failure = _quasi_free_path(phi0.amplitudes[0] if quasi_free else 1.0,
                                           u_mid, taus, h0, W, projected)
    done = len(Ts)
    if quasi_free:
        del RS  # a view of the whole step stack, freed before the states are built
        rows = _quasi_free_rows(row_times[:done], Ts, cs, u_rows[:done], h0, basis.n_max)
    else:
        at = sorted({m for m in marks if 0 < m < done})
        raised = _raised_states(phi0, Ts[at], cs[at], RS[[m - 1 for m in at]])
        states = {0: phi0, **dict(zip(at, raised))}
        rows = np.array([first, *(_diag_row(row_times[m], states[m], u_rows[m], energy_form)
                                  for m in at)])
    over = np.flatnonzero(rows[:, tangency] > tangency_tol)
    if projected and len(over):
        t, defect = rows[over[0], 0], rows[over[0], tangency]
        raise RuntimeError(f"tangency defect {defect:.3e} at t={t:.4g} exceeds "
                           f"{tangency_tol:.1e}; increase n_max or reduce dt")
    if failure is not None:
        raise failure
    states = (_quasi_free_states(Ts[marks], cs[marks], basis) if quasi_free
              else [states[m].copy() for m in marks])
    return FluctuationRun(t_grid, states, energy_form, rows.tolist())


def hierarchy_rhs(basis: OccupationBasis, amps, kern: Kernels,
                  h_plus_k1: np.ndarray) -> np.ndarray:
    """Time derivative (times i) of the lowest three sectors, written directly
    from the coupled sector system.

    Each sector evolves with the one-body operator summed over its particles,
    is fed from two sectors above through conj(k2), and from two below through
    k2.  The coupling weights are the pair-counting square roots fixed by the
    quadratic generator itself: (1/2)sqrt((n+1)(n+2)) downward and the matching
    injection upward.  amps is a stack of states, shape (..., basis.size); the
    result has the same shape and is zero above sector 2.  Needs sectors up to
    4 present in the basis.
    """
    if basis.n_max < 4:
        raise ValueError("hierarchy needs sectors up to 4")
    amps = np.asarray(amps)
    if amps.shape[-1] != basis.size:
        raise ValueError(f"amplitudes of shape {amps.shape}, basis has {basis.size} states")
    k2 = kern.k2
    k2c = np.conj(k2)
    h1 = h_plus_k1
    tuples = {n: basis.tuple_states(n) for n in (2, 3, 4)}

    psi1 = amps[..., basis.sector_slice(1)]
    psi2, psi3, psi4 = (_to_dense(amps[..., basis.sector_slice(n)], basis, n, tuples[n])
                        for n in (2, 3, 4))
    phi0 = amps[..., 0, None, None]

    out0 = 0.5 * math.sqrt(2.0) * np.einsum("xy,...xy->...", k2c, psi2)

    out1 = np.einsum("xa,...a->...x", h1, psi1)
    out1 = out1 + 0.5 * math.sqrt(6.0) * np.einsum("yz,...xyz->...x", k2c, psi3)

    out2 = np.einsum("xa,...ay->...xy", h1, psi2) + np.einsum("yb,...xb->...xy", h1, psi2)
    out2 = out2 + 0.5 * math.sqrt(2.0) * k2 * phi0
    out2 = out2 + 0.5 * math.sqrt(12.0) * np.einsum("zw,...xyzw->...xy", k2c, psi4)

    out = np.zeros(amps.shape, dtype=complex)
    out[..., 0] = out0
    out[..., basis.sector_slice(1)] = out1
    out[..., basis.sector_slice(2)] = _from_dense(out2, basis, 2, tuples[2])
    return out
