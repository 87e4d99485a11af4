"""Independent constructions and checks that only the tests use."""

import math

import numpy as np
import scipy.sparse as sp

from bogofluct.bogoliubov import (_generator_kernels, bogoliubov_hamiltonian, build_kernels,
                                  solve_bogoliubov)
from bogofluct.excitation import _by_sector, func_of_number_plus
from bogofluct.fock import (
    CSRPattern,
    FockVector,
    OccupationBasis,
    SectorVector,
    annihilate_op,
    create_op,
    dgamma,
    number_op,
    pairing_op,
    pairing_raise,
)
from bogofluct.hartree import mean_field, mu_of
from bogofluct.linalg import ChebyshevPropagator, _expm_stack, krylov_expm


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


def pattern_lowering(f, basis: OccupationBasis) -> sp.csr_matrix:
    """a(f) as one fill of a CSRPattern of the M blocks of the a_i, each
    index pattern from lookup and the CSR order from lexsort."""
    pattern = CSRPattern(basis, [("a", *basis.lowering_structure(i), -1) for i in range(basis.M)])
    return pattern.fill({"a": np.conj(f)})


def pattern_sector_lowerings(f, basis: OccupationBasis, top: int) -> tuple:
    """(low, up) as sector slices of pattern_lowering(f, basis): low[n] its
    rows of sector n-1 with the columns of sector n, up[n] the CSC matrix of
    the conjugated values on low[n]'s index arrays, n = 1..top."""
    off = [int(o) for o in basis.sector_offsets]
    low = pattern_lowering(f, basis)
    blocks = [None]
    for n in range(1, top + 1):
        ptr = low.indptr[off[n - 1]:off[n] + 1]
        a, b = int(ptr[0]), int(ptr[-1])
        blocks.append(sp.csr_matrix(
            (low.data[a:b], low.indices[a:b] - off[n], ptr - a),
            shape=(off[n] - off[n - 1], off[n + 1] - off[n])))
    return blocks, [None] + [sp.csc_matrix((b.data.conj(), b.indices, b.indptr),
                                           shape=b.shape[::-1]) for b in blocks[1:]]


def coo_mode_lowerings(basis: OccupationBasis, n: int = None) -> sp.csr_matrix:
    """The stacked blocks of the a_i from sector n to n-1 (all rows with no
    n), row i * dim + r being row r of a_i, through one COO -> CSR
    conversion of the index patterns of lowering_structure."""
    rows, cols = ((slice(0, basis.size),) * 2 if n is None
                  else (basis.sector_slice(n - 1), basis.sector_slice(n)))
    dim = rows.stop - rows.start
    stacked, src, vals = [], [], []
    for i in range(basis.M):
        dst, s, amps = basis.lowering_structure(i)
        keep = (dst >= rows.start) & (dst < rows.stop)
        stacked.append(i * dim + dst[keep] - rows.start)
        src.append(s[keep] - cols.start)
        vals.append(amps[keep])
    return sp.csr_matrix((np.concatenate(vals), (np.concatenate(stacked), np.concatenate(src))),
                         shape=(basis.M * dim, cols.stop - cols.start))


def lookup_one_body_block(A, basis: OccupationBasis, n: int) -> sp.csr_matrix:
    """The block of dgamma(A) on sector n from the states of the sector: the
    diagonal, and each nonzero hop A_ij a_i^dag a_j through a lookup of its
    targets (hop_structure cut to the sector)."""
    sl = basis.sector_slice(n)
    local = np.arange(sl.stop - sl.start)
    A = np.asarray(A, dtype=complex)
    rows, cols, vals = [local], [local], [basis.states[sl] @ np.diagonal(A)]
    for i, j in zip(*np.nonzero(~np.eye(basis.M, dtype=bool))):
        if A[i, j] != 0:
            dst, src, amps = basis.hop_structure(i, j)
            keep = (src >= sl.start) & (src < sl.stop)
            rows.append(dst[keep] - sl.start)
            cols.append(src[keep] - sl.start)
            vals.append(A[i, j] * amps[keep])
    mat = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(len(local), len(local)))
    mat.eliminate_zeros()
    return mat


def kron_quasi_free_states(Ts, cs, basis: OccupationBasis) -> list:
    """c sum_k (1/2 a^dag T a^dag)^k vacuum / k! cut at n_max, one (T, c) at
    a time: x_j = a_j^dag v as the product of the transposed mode-lowering
    stack with the block-diagonal kron(1, v), then 1/2 sum_i a_i^dag
    (sum_j T_ij x_j)."""
    up = [None] + [coo_mode_lowerings(basis, n).T for n in range(1, basis.n_max + 1)]
    states = []
    for T, c in zip(Ts, cs):
        amps = np.zeros(basis.size, dtype=complex)
        amps[0] = c
        for k in range(1, basis.n_max // 2 + 1):
            x = up[2 * k - 1] @ np.kron(np.eye(basis.M), amps[basis.sector_slice(2 * k - 2), None])
            amps[basis.sector_slice(2 * k)] = 0.5 * (up[2 * k] @ (x @ T.T).T.ravel()) / k
        states.append(FockVector(basis, amps))
    return states


def per_interval_states(mat, v, times) -> list:
    """exp(-i t H) v at nondecreasing times, one Chebyshev series per
    interval between them, each from the state at the interval's start."""
    prop = ChebyshevPropagator(mat)
    out = []
    for t_prev, t in zip(np.r_[0.0, times], times):
        v = prop.states(v, [t - t_prev])[0]
        out.append(v)
    return out


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


def node_sum_coefficients(x: float, n: int) -> np.ndarray:
    """The n Chebyshev coefficients of exp(-ixs) on [-1, 1] as direct sums
    (2/n) sum_j f(theta_j) cos(k theta_j) over the n Chebyshev nodes, with
    the n x n cosine table written out."""
    theta = np.pi * (np.arange(n) + 0.5) / n
    return np.cos(np.outer(np.arange(n), theta)) @ np.exp(-1j * x * np.cos(theta)) * (2.0 / n)


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


def sym_tensor(psi_k: SectorVector, psi_l: SectorVector) -> SectorVector:
    """Symmetric tensor product of two sector vectors.

    In occupation coordinates the permutation sum collapses to the closed form
    (s (+) t) with coefficient sqrt(prod_i binom(s_i + t_i, s_i)), in place
    of the exponential-cost permutation formula.
    Note the product is not an isometry in general: u (x)_s u has norm sqrt(2).
    """
    if psi_k.basis is not psi_l.basis:
        raise ValueError("sector vectors live on different bases")
    basis = psi_k.basis
    n_out = psi_k.n + psi_l.n
    if n_out > basis.n_max:
        raise ValueError(f"product sector {n_out} exceeds truncation {basis.n_max}")
    nz_k = np.flatnonzero(psi_k.amplitudes)
    nz_l = np.flatnonzero(psi_l.amplitudes)
    sum_occ = (basis.states[basis.sector_slice(psi_k.n)][nz_k, None]
               + basis.states[basis.sector_slice(psi_l.n)][nz_l])
    idx = basis.lookup(sum_occ.reshape(-1, basis.M)) - basis.sector_slice(n_out).start
    # prod_i binom(s_i + t_i, s_i) = F(s + t) / (F(s) F(t)), F = prod_i s_i!
    coeff = (basis.sector_factorials(n_out)[idx].reshape(len(nz_k), len(nz_l))
             // basis.sector_factorials(psi_k.n)[nz_k, None]
             // basis.sector_factorials(psi_l.n)[nz_l])
    vals = psi_k.amplitudes[nz_k, None] * psi_l.amplitudes[nz_l] * np.sqrt(coeff.astype(float))
    out = np.zeros(basis.sector_dim(n_out), dtype=complex)
    np.add.at(out, idx, vals.ravel())
    return SectorVector(basis, n_out, out)


def orthogonal_sector_projector(u, basis: OccupationBasis, n_cut: int) -> np.ndarray:
    """Dense projector onto condensate-orthogonal layers with total <= n_cut:
    the projector onto n excitations (no quantum in u) in each sector n up to
    the cut, zero above it.  Raises ValueError unless u is unit norm to 1e-10."""
    top = min(n_cut, basis.n_max)
    return _by_sector(u, basis, top, lambda n, j: float(j == n))[0].toarray()


def full_basis_krylov(phi0, traj, h0, W, dt, t_grid):
    """The fluctuation state at each t_grid time by the midpoint-frozen
    projected generator, assembled on the truncated basis and applied with
    the Krylov exponential step by step: the dynamics of the generator cut
    at n_max, so it differs from the untruncated run by the weight that
    reaches the cut."""
    amps = phi0.amplitudes.copy()
    t = 0.0
    out = []
    for t_target in t_grid:
        n_sub = max(1, int(round((t_target - t) / dt)))
        step = (t_target - t) / n_sub
        for _ in range(n_sub):
            gen = bogoliubov_hamiltonian(traj.interpolate(t + 0.5 * step), h0, W, phi0.basis)
            amps = krylov_expm(gen, amps, -1j * step, tol=1e-12)
            t += step
        out.append(amps.copy())
    return out


def sequential_quasi_free_path(c, u_mid, taus, h0, W, projected):
    """(T, c) of the quasi-free vacuum run step by step, with the projected or
    the bare kernels: each step's exponential E maps T to -P^-1 Q with
    P = E_aa - T E_ba, Q = E_ab - T E_bb, and c to c / sqrt(det P
    exp(-i tau trA)); stops before the first step off the principal
    square-root branch."""
    M = len(h0)
    A, K, _ = _generator_kernels(u_mid, h0, W, projected)
    tau = np.asarray(taus)[:, None, None]
    gen = np.block([[A, K], [-np.conj(K), -np.swapaxes(A, 1, 2)]])
    E = _expm_stack(1j * tau * gen)
    turn = np.exp(-1j * tau[:, 0, 0] * np.trace(A, axis1=1, axis2=2))
    Ts, cs = [np.zeros((M, M), dtype=complex)], [complex(c)]
    for i, Ei in enumerate(E):
        P = Ei[:M, :M] - Ts[-1] @ Ei[M:, :M]
        Q = Ei[:M, M:] - Ts[-1] @ Ei[M:, M:]
        det = np.linalg.det(P) * turn[i]
        if det.real <= 0.0:
            break
        T = -np.linalg.solve(P, Q)
        Ts.append(0.5 * (T + T.T))
        cs.append(cs[-1] / np.sqrt(det))
    return np.array(Ts), np.array(cs)


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


def weyl_op(f: np.ndarray, basis: OccupationBasis) -> np.ndarray:
    """Dense displacement unitary exp(a^dag(f) - a(f)) on the truncated basis;
    rejects f whose coherent tail leaks past the truncation by more than
    TAIL_TOL.

    Unitary on states whose displaced image stays inside the truncation; the
    safe core is roughly total occupation below n_max - (|f|^2 + 6|f|).
    """
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
    return (V * np.exp(-1j * w)) @ V.conj().T


def coherent_state(f: np.ndarray, basis: OccupationBasis) -> FockVector:
    """Closed-form amplitudes exp(-|f|^2/2) prod f_i^{s_i}/sqrt(s_i!)."""
    f = np.asarray(f, dtype=complex)
    lam = float(np.linalg.norm(f)) ** 2
    F = np.concatenate([basis.sector_factorials(n) for n in range(basis.n_max + 1)])
    amps = np.prod(f ** basis.states, axis=1) / np.sqrt(F.astype(float))
    return FockVector(basis, math.exp(-lam / 2) * amps)


# smallest eigenvalue, relative to the matrix scale, still counted as >= 0
PSD_TOL = 1e-10


def verify_bog_bounds(u, h0, W, basis: OccupationBasis) -> dict:
    """Finite-dimensional operator inequalities for the quadratic generator.

    Computes the smallest constants with
      c_up * dGamma(I + h0) - H >= 0   on the vacuum complement, and
      H - dGamma(h0) + c_low (N+1) >= 0,
    as extreme eigenvalues of two generalized eigenproblems, and checks the
    pairing and number-commutator bounds with the explicit Frobenius-norm
    constants.  I + h0 must be positive definite.  The vacuum is excluded
    from the upper bound because the pairing term couples it to two-quantum
    states with a fixed amplitude while the energy form vanishes on it, so no
    finite multiple dominates there (the untruncated bound carries an
    additive constant for the same reason).  Dense eigensolves; refuses large
    bases.
    """
    if basis.size > 5000:
        raise ValueError("verification basis too large (limit 5000 states)")
    if np.linalg.eigvalsh(np.eye(basis.M) + h0)[0] <= 0.0:
        raise ValueError("I + h0 is not positive definite")
    gen = bogoliubov_hamiltonian(u, h0, W, basis)
    kern = build_kernels(u, W)
    Hd = gen.toarray()
    energy_form = dgamma(np.eye(basis.M) + h0, basis).toarray()
    kinetic_form = dgamma(h0, basis).toarray()
    nvals = basis.totals().astype(float)

    # c_up = lambda_max(H, E) on the vacuum complement,
    # c_low = -lambda_min(H - dGamma(h0), N + 1), each pencil (A, L L^dag)
    # reduced by its Cholesky factor L to the hermitian L^-1 A L^-dag
    inv_l = np.linalg.inv(np.linalg.cholesky(energy_form[1:, 1:]))
    c_up = max(0.0, float(np.linalg.eigvalsh(inv_l @ Hd[1:, 1:] @ inv_l.conj().T)[-1]))
    d = 1.0 / np.sqrt(nvals + 1.0)  # L^-1 of the diagonal N + 1
    c_low = max(0.0, float(-np.linalg.eigvalsh(d[:, None] * (Hd - kinetic_form) * d)[0]))

    k2_f = float(np.linalg.norm(kern.k2))
    pair = pairing_op(kern.k2, basis).toarray()
    bound = k2_f * np.diag(nvals + 2.0)
    pairing_margin = min(
        float(np.linalg.eigvalsh(bound - pair)[0]),
        float(np.linalg.eigvalsh(bound + pair)[0]),
    )

    nmat = sp.diags(nvals).tocsr()
    comm = 1j * (gen @ nmat - nmat @ gen)
    commd = comm.toarray()
    cbound = 2.0 * k2_f * np.diag(nvals + 1.0)
    commutator_margin = min(
        float(np.linalg.eigvalsh(cbound - commd)[0]),
        float(np.linalg.eigvalsh(cbound + commd)[0]),
    )

    return {
        "c_up": c_up,
        "c_low": c_low,
        "k2_frobenius": k2_f,
        "pairing_margin": pairing_margin,
        "commutator_margin": commutator_margin,
        "pairing_ok": pairing_margin >= -PSD_TOL * max(1.0, k2_f * (basis.n_max + 2)),
        "commutator_ok": commutator_margin >= -PSD_TOL * max(1.0, 2 * k2_f * (basis.n_max + 1)),
    }


def per_pair_rows(cfg) -> list:
    """The rows of run_convergence's report, one (N, t) pair at a time: one
    hartree_block per N, and per pair one apply_u_n and one reduced_density
    on that pair alone, with the energy form <v, dGamma(1 + h0) v> taken as
    vdot(X, A X) over the whole-basis stack X of the M mode lowerings."""
    from bogofluct.excitation import ExcitationFrame, apply_u_n
    from bogofluct.experiment import _condensate_density, _shared_setup
    from bogofluct.fock import hartree_block, sector_mode_lowerings
    from bogofluct.nbody import build_hamiltonian, propagate_exact, reduced_density, trace_distance

    h0, W, u0, traj, basis = _shared_setup(cfg)
    phi0 = cfg.excitations(u0, basis)
    times = list(cfg.output_times)
    run = solve_bogoliubov(phi0, traj, h0, W, cfg.dt_fock, t_grid=times,
                           tangency_tol=max(1e-4, cfg.tolerances["tangency"]))
    low = sector_mode_lowerings(basis).astype(complex)
    A = np.eye(basis.M) + h0

    def energy_form(v):
        X = (low @ v).reshape(basis.M, -1)
        return complex(np.vdot(X, A @ X))

    diag = np.array(run.diagnostics)
    tangency = float(np.max(diag[:, run.DIAG_COLUMNS.index("tangency")]))
    leakage = float(np.max(diag[:, run.DIAG_COLUMNS.index("leakage")]))
    totals = basis.totals()
    rows = []
    for N in cfg.N_list:
        cut_weight = math.fsum(phi0.sector_norms()[:N + 1] ** 2)
        psi0 = hartree_block(u0, phi0, N)
        deficit = abs(1.0 - psi0.norm())
        psi0.amplitudes = psi0.amplitudes / psi0.norm()
        states = propagate_exact(build_hamiltonian(h0, W, N, basis), psi0, times)
        for t, psi, phi in zip(times, states, run.states):
            u_t = traj.interpolate(t)
            mapped = apply_u_n(ExcitationFrame(u_t, N), psi)
            delta = mapped.amplitudes - phi.amplitudes
            rows.append({
                "N": N,
                "time": t,
                "err_norm": float(np.linalg.norm(delta)),
                "err_energy_form": float(np.real(energy_form(delta))),
                "trace_dist_k1": trace_distance(reduced_density(psi, 1), _condensate_density(u_t)),
                "expect_Nplus": float(totals @ (np.abs(mapped.amplitudes) ** 2)),
                "tangency": tangency,
                "leakage": leakage,
                "init_norm_deficit": deficit + abs(1.0 - cut_weight),
            })
    return rows
