"""Weyl displacement operators and fluctuation dynamics in the coherent-state
frame, where the quadratic generator keeps the bare (unprojected) kernels."""

import math
from dataclasses import dataclass

import numpy as np

from .bogoliubov import BogHamiltonian, FluctuationRun, bogoliubov_hamiltonian, solve_bogoliubov
from .fock import FockVector, OccupationBasis, annihilate_op

__all__ = [
    "WeylOperator",
    "weyl_op",
    "coherent_state",
    "unprojected_hamiltonian",
    "solve_coherent_fluct",
]


@dataclass
class WeylOperator:
    """exp(a^dag(f) - a(f)) on the truncated basis.

    Unitary on states whose displaced image stays inside the truncation; the
    safe core is roughly total occupation below n_max - (|f|^2 + 6|f|).
    """

    f: np.ndarray
    matrix: np.ndarray


def _poisson_tail(lam: float, n_max: int) -> float:
    # mass of the coherent occupation distribution beyond the truncation
    if lam == 0.0:
        return 0.0
    term = math.exp(-lam)
    total = term
    for n in range(1, n_max + 1):
        term *= lam / n
        total += term
    return max(0.0, 1.0 - total)


# largest coherent-state mass beyond the truncation that weyl_op accepts
TAIL_TOL = 1e-8


def weyl_op(f: np.ndarray, basis: OccupationBasis) -> WeylOperator:
    """Displacement unitary; rejects f whose coherent tail leaks past the
    truncation by more than TAIL_TOL."""
    f = np.asarray(f, dtype=complex)
    lam = float(np.linalg.norm(f)) ** 2
    if lam > basis.n_max / 4:
        raise ValueError(f"displacement too large: |f|^2={lam:.3g} > n_max/4")
    tail = _poisson_tail(lam, basis.n_max)
    if tail > TAIL_TOL:
        raise ValueError(f"coherent tail {tail:.3e} beyond truncation exceeds {TAIL_TOL:.1e}")
    a_f = annihilate_op(f, basis)
    # exp(gen) = exp(-i H) for the hermitian H = i gen
    w, V = np.linalg.eigh(1j * (a_f.conj().T - a_f).toarray())
    return WeylOperator(f, (V * np.exp(-1j * w)) @ V.conj().T)


def coherent_state(f: np.ndarray, basis: OccupationBasis) -> FockVector:
    """Closed-form amplitudes exp(-|f|^2/2) prod f_i^{s_i}/sqrt(s_i!)."""
    f = np.asarray(f, dtype=complex)
    lam = float(np.linalg.norm(f)) ** 2
    F = np.concatenate([basis.sector_factorials(n) for n in range(basis.n_max + 1)])
    amps = np.prod(f ** basis.states, axis=1) / np.sqrt(F.astype(float))
    return FockVector(basis, math.exp(-lam / 2) * amps)


def unprojected_hamiltonian(u, h0, W, basis: OccupationBasis) -> BogHamiltonian:
    """Quadratic generator with the bare kernels kept on the condensate
    directions; differs from the projected one whenever the interaction is
    nonzero."""
    return bogoliubov_hamiltonian(u, h0, W, basis, projected=False)


def solve_coherent_fluct(xi0: FockVector, traj, h0, W, dt, t_grid=None) -> FluctuationRun:
    """Same midpoint stepper as the condensate-frame dynamics, with the bare
    kernels and no tangency requirement."""
    return solve_bogoliubov(xi0, traj, h0, W, dt, t_grid=t_grid, projected=False)
