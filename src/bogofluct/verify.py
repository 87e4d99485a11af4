"""Dense verification of the excitation-map algebra at small sizes.

Every identity the reduction to the quadratic dynamics rests on is checked as
a matrix statement: unitarity of the excitation map, the four conjugation
rules for quadratic monomials, the full conjugated-Hamiltonian identity, the
time-derivative generator, the remainder subtraction, and the agreement of
the low-sector coupled system with the assembled generator.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bogoliubov import (
    bogoliubov_hamiltonian,
    build_kernels,
    hierarchy_rhs,
    mean_field_hamiltonian,
)
from .excitation import (
    ExcitationFrame,
    apply_u_n,
    apply_u_n_star,
    assemble_r1,  # noqa: F401  (perfbench/tracer.py wraps this name here)
    assemble_r2,  # noqa: F401  (perfbench/tracer.py wraps this name here)
    conjugated_hamiltonian,
    dense_u_n,
    du_generator,
    func_of_number_plus,  # noqa: F401  (perfbench/tracer.py wraps this name here)
)
from .fock import SectorVector, annihilate_op, create_op, dgamma, enumerate_basis
from .hartree import solve_hartree
from .model import build_interaction, build_laplacian, build_lattice, gaussian_profile
from .nbody import build_hamiltonian

__all__ = ["IdentityCheck", "verify_algebra", "skipped_identities", "DEFAULT_SIZES"]

DEFAULT_SIZES = ((2, 3, 4), (3, 3, 4))

# Hartree step of the derivative identity's trajectory
DERIVATIVE_DT = 1e-4

HIERARCHY_IDENTITY = "coupled system matches generator (sectors 0-2)"


@dataclass
class IdentityCheck:
    name: str
    context: str
    residual: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.residual <= self.tol


def _model(M):
    # lattice, interaction and the derivative identity's Hartree trajectory
    # depend on M only, so sizes that share M share one solve
    lattice = build_lattice(M, 1.0)
    h0 = build_laplacian(lattice)
    W = build_interaction(lattice, gaussian_profile(0.8, 1.0))
    u0 = np.exp(-np.linspace(0, 2, M) ** 2).astype(complex)
    u0 += 0.3 * np.roll(u0, 1)
    u0 /= np.linalg.norm(u0)
    return h0, W, solve_hartree(u0, h0, W, 0.03, DERIVATIVE_DT)


def verify_algebra(sizes=DEFAULT_SIZES, seed=20240601) -> list:
    """Run the identity suite and return one IdentityCheck per statement."""
    checks = []
    models = {}
    for M, N, n_max in sizes:
        ctx = _context(M, N, n_max)
        if M not in models:
            models[M] = _model(M)
        h0, W, traj = models[M]
        rng = np.random.default_rng(seed + M + 7 * N)
        basis = enumerate_basis(M, n_max)
        u = rng.normal(size=M) + 1j * rng.normal(size=M)
        u = u / np.linalg.norm(u)
        frame = ExcitationFrame(u, N)
        U = dense_u_n(frame, basis)
        sl = basis.sector_slice(N)

        gram = U.conj().T @ U
        checks.append(IdentityCheck(
            "unitarity U*U = 1", ctx,
            float(np.max(np.abs(gram - np.eye(gram.shape[0])))), 1e-10))

        psi = rng.normal(size=basis.sector_dim(N)) + 1j * rng.normal(size=basis.sector_dim(N))
        psi = SectorVector(basis, N, psi / np.linalg.norm(psi))
        round_trip = apply_u_n_star(frame, apply_u_n(frame, psi))
        checks.append(IdentityCheck(
            "round trip U* U = 1 on sector N", ctx,
            float(np.max(np.abs(round_trip.amplitudes - psi.amplitudes))), 1e-10))

        checks += _conjugation_identities(frame, basis, U, sl, rng, ctx)

        checks += _hamiltonian_identities(frame, h0, W, basis, U, ctx)
        checks += _derivative_identity(traj, N, basis, ctx)
        checks += _hierarchy_identity(basis, h0, W, u, rng, ctx)
    return checks


def _context(M, N, n_max):
    return f"M={M},N={N},n_max={n_max}"


def skipped_identities(sizes=DEFAULT_SIZES) -> list:
    """(name, context, reason) of each identity verify_algebra leaves out at
    these sizes: the coupled system reads sectors up to 4."""
    return [(HIERARCHY_IDENTITY, _context(M, N, n_max), "needs n_max >= 4")
            for M, N, n_max in sizes if n_max < 4]


def _conjugation_identities(frame, basis, U, sl, rng, ctx):
    u, N = frame.u, frame.N
    M = basis.M
    f = frame.q @ (rng.normal(size=M) + 1j * rng.normal(size=M))
    g = frame.q @ (rng.normal(size=M) + 1j * rng.normal(size=M))
    c_f = create_op(f, basis)
    a_f = annihilate_op(f, basis)
    a_g = annihilate_op(g, basis)
    # a left side a^dag(x) a(y) is the fill dGamma(x y^dag), a right side ladder
    # products on U.  U maps into the excitation layers, where N+ is the total,
    # and a(f) keeps them there as f is orthogonal to u: N - N+ and
    # sqrt(N - N+) act on U and on a(f) U as row weights
    n_minus = np.maximum(N - basis.totals(), 0)[:, None]

    def check(name, x, y, image):
        # image: the right side applied to U, built per call so one is alive
        op = dgamma(np.outer(x, np.conj(y)), basis)
        resid = float(np.max(np.abs(op[sl, sl].toarray() - U.conj().T @ image)))
        return IdentityCheck(name, ctx, resid, 1e-10)

    return [
        check("conjugation: condensate counter", u, u, n_minus * U),
        check("conjugation: raise against condensate", f, u, c_f @ (np.sqrt(n_minus) * U)),
        check("conjugation: lower against condensate", u, f, np.sqrt(n_minus) * (a_f @ U)),
        check("conjugation: orthogonal quadratic", f, g, c_f @ (a_g @ U)),
    ]


def _hamiltonian_identities(frame, h0, W, basis, U, ctx):
    H_sector = build_hamiltonian(h0, W, frame.N, basis).mat.toarray()
    rhs = conjugated_hamiltonian(frame, h0, W, basis)
    conjugated = U.conj().T @ rhs @ U
    # the conjugated difference defines R1 + R2 on the excitation layers
    rhs -= U @ H_sector @ U.conj().T
    return [
        IdentityCheck("conjugated Hamiltonian identity", ctx,
                      float(np.max(np.abs(H_sector - conjugated))), 1e-10),
        IdentityCheck("remainder subtraction R1 + R2", ctx,
                      float(np.max(np.abs(U.conj().T @ rhs @ U))), 1e-10),
    ]


def _derivative_identity(traj, N, basis, ctx):
    center = len(traj.times) // 2
    uc = traj.u[center] / np.linalg.norm(traj.u[center])
    frame = ExcitationFrame(uc, N)
    G = du_generator(frame, traj.udot[center], basis)
    target = (-1j) * G @ dense_u_n(frame, basis)
    fds, residuals = [], []
    for steps in (40, 20):
        up = traj.u[center + steps] / np.linalg.norm(traj.u[center + steps])
        um = traj.u[center - steps] / np.linalg.norm(traj.u[center - steps])
        Up = dense_u_n(ExcitationFrame(up, N), basis)
        Um = dense_u_n(ExcitationFrame(um, N), basis)
        fds.append((Up - Um) / (2 * steps * DERIVATIVE_DT))
        residuals.append(float(np.max(np.abs(fds[-1] - target))))
    ratio_check = IdentityCheck(
        "derivative identity O(delta^2) gain", ctx,
        # want residual(delta)/residual(2*delta) <= 1/3.5; inf when residual(2*delta) is 0
        residuals[1] / residuals[0] if residuals[0] > 0 else math.inf, 1 / 3.5)
    delta = 20 * DERIVATIVE_DT
    abs_check = IdentityCheck(
        "derivative identity residual at delta=2e-3", ctx, residuals[1],
        100.0 * delta**2)
    # Richardson's (4 fd(delta) - fd(2 delta))/3 is fourth order: its
    # residual sits orders of magnitude below the central difference's
    richardson_check = IdentityCheck(
        "derivative identity Richardson residual", ctx,
        float(np.max(np.abs((4.0 * fds[1] - fds[0]) / 3.0 - target))), 1e-6)
    return [abs_check, ratio_check, richardson_check]


def _hierarchy_identity(basis, h0, W, u, rng, ctx):
    if basis.n_max < 4:
        return []
    kern = build_kernels(u, W)
    h = mean_field_hamiltonian(u, h0, W)
    gen = bogoliubov_hamiltonian(u, h0, W, basis)
    # 100 random unit states as one block, drawn in the order of 100
    # successive real and imaginary draws; each row is normalized on its own,
    # as a single draw is, so each row equals that state drawn alone, bit for bit
    draws = rng.normal(size=(100, 2, basis.size))
    V = draws[:, 0] + 1j * draws[:, 1]
    V /= np.array([np.linalg.norm(v) for v in V])[:, None]
    rhs = hierarchy_rhs(basis, V, kern, h + kern.k1)
    full = (gen @ V.T).T
    top = basis.sector_offsets[3]
    worst = float(np.max(np.abs(rhs[:, :top] - full[:, :top])))
    return [IdentityCheck(HIERARCHY_IDENTITY, ctx, worst, 1e-10)]
