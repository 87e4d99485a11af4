import math

import numpy as np
import pytest
import scipy.sparse as sp

from bogofluct.bogoliubov import bogoliubov_hamiltonian
from bogofluct.excitation import (
    ExcitationFrame,
    apply_u_n,
    apply_u_n_star,
    assemble_r1,
    assemble_r2,
    conjugated_hamiltonian,
    dense_u_n,
    du_generator,
    func_of_number_plus,
    leading_part,
)
from bogofluct.fock import (
    FockVector,
    SectorVector,
    annihilate_op,
    create_op,
    dgamma,
    enumerate_basis,
    hartree_block,
    number_op,
    pairing_op,
    pairing_raise,
    quadratic_op,
    two_body_op,
)
from bogofluct.hartree import solve_hartree
from bogofluct.model import build_interaction, build_laplacian, build_lattice, gaussian_profile
from bogofluct.nbody import build_hamiltonian, propagate_exact
from bogofluct.verify import verify_algebra
from oracles import (
    dense_assemble_r1,
    dense_du_generator,
    embed,
    integer_spectral_function,
    number_plus_op,
    orthogonal_sector_projector,
    project_out_mode,
    sym_tensor,
)


def setup_model(M, g=0.8):
    lat = build_lattice(M, 1.0)
    return lat, build_laplacian(lat), build_interaction(lat, gaussian_profile(g, 1.0))


def random_unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def condensate_state(u, N, basis):
    su = SectorVector(basis, 1, np.asarray(u, dtype=complex))
    out = su
    for _ in range(N - 1):
        out = sym_tensor(out, su)
    return SectorVector(basis, N, out.amplitudes / out.norm())


def test_identity_suite_all_pass():
    # unitarity, conjugation rules, the conjugated-Hamiltonian identity, the
    # remainder subtraction, the derivative identity and the coupled system
    for check in verify_algebra(((2, 3, 4), (3, 3, 4), (2, 2, 3))):
        assert check.ok, f"{check.name} [{check.context}]: {check.residual:.3e} > {check.tol:.1e}"



def test_richardson_row_catches_a_generator_error_the_others_miss(monkeypatch):
    # a relative error of 1e-6 in the derivative generator moves the
    # delta = 2e-3 residual by under 5%, inside its O(delta^2) truncation
    # error; the fourth-order Richardson residual reads it at about 3-5e-6
    import bogofluct.verify as verify

    du_generator = verify.du_generator
    monkeypatch.setattr(verify, "du_generator",
                        lambda *args: (1.0 + 1e-6) * du_generator(*args))
    rows = {}
    for check in verify.verify_algebra():
        rows.setdefault(check.name, []).append(check.ok)
    assert rows["derivative identity residual at delta=2e-3"] == [True, True]
    assert rows["derivative identity O(delta^2) gain"] == [True, True]
    assert rows["derivative identity Richardson residual"] == [False, False]


def test_identity_suite_work_counts(monkeypatch):
    # per size: one block hierarchy call when n_max >= 4, and two projector
    # passes (conjugated_hamiltonian and du_generator; the conjugation rules
    # weigh the excitation layers by their totals); one Hartree solve per
    # lattice size M
    import bogofluct.excitation as excitation
    import bogofluct.verify as verify

    calls = {"hierarchy_rhs": 0, "solve_hartree": 0, "_by_sector": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counted(verify, "hierarchy_rhs")
    counted(verify, "solve_hartree")
    counted(excitation, "_by_sector")
    sizes = ((2, 2, 3), (2, 3, 4), (3, 3, 4), (3, 4, 4))
    checks = verify.verify_algebra(sizes)
    assert all(c.ok for c in checks)
    assert calls == {"hierarchy_rhs": 3, "solve_hartree": 2, "_by_sector": 2 * len(sizes)}


def failing_rows(checks):
    # name -> ok at each size, for the rows that fail at some size
    rows = {}
    for check in checks:
        rows.setdefault(check.name, []).append(check.ok)
    return {name: oks for name, oks in rows.items() if not all(oks)}


def test_conjugated_rows_check_the_generator_the_run_steps_with(monkeypatch):
    # the leading part and R1 take their one-body matrices from the builder
    # the fluctuation run steps with, so a relative error of 1e-6 in its A
    # fails the conjugated-Hamiltonian and remainder rows, and no other
    import bogofluct.bogoliubov as bogoliubov
    import bogofluct.excitation as excitation
    import bogofluct.verify as verify

    assert excitation._generator_kernels is bogoliubov._generator_kernels
    kernels = excitation._generator_kernels

    def scaled(*args, **kwargs):
        A, K, kern = kernels(*args, **kwargs)
        return (1.0 + 1e-6) * A, K, kern
    monkeypatch.setattr(excitation, "_generator_kernels", scaled)
    failing = failing_rows(verify.verify_algebra(verify.DEFAULT_SIZES))
    every = [False] * len(verify.DEFAULT_SIZES)
    assert failing == {"conjugated Hamiltonian identity": every,
                       "remainder subtraction R1 + R2": every}


def test_conjugation_rows_compare_the_quadratic_fill_with_ladder_products(monkeypatch):
    # each left side a^dag(x) a(y) is one dgamma fill and each right side is
    # built from ladder operators, so scaling the fill fails exactly the four
    # conjugation rows
    import bogofluct.verify as verify

    fill = verify.dgamma
    monkeypatch.setattr(verify, "dgamma", lambda *args: (1.0 + 1e-6) * fill(*args))
    failing = failing_rows(verify.verify_algebra(verify.DEFAULT_SIZES))
    every = [False] * len(verify.DEFAULT_SIZES)
    assert failing == {name: every for name in (
        "conjugation: condensate counter", "conjugation: raise against condensate",
        "conjugation: lower against condensate", "conjugation: orthogonal quadratic")}


def test_condensate_maps_to_vacuum():
    basis = enumerate_basis(3, 4)
    rng = np.random.default_rng(0)
    u = random_unit(rng, 3)
    psi = condensate_state(u, 4, basis)
    phi = apply_u_n(ExcitationFrame(u, 4), psi)
    assert abs(phi.amplitudes[0] - 1.0) < 1e-12
    assert np.linalg.norm(phi.amplitudes[1:]) < 1e-12


def test_map_output_is_tangent_sector_by_sector():
    basis = enumerate_basis(3, 4)
    rng = np.random.default_rng(1)
    u = random_unit(rng, 3)
    psi = SectorVector(basis, 4, random_unit(rng, basis.sector_dim(4)))
    phi = apply_u_n(ExcitationFrame(u, 4), psi)
    low = annihilate_op(u, basis)
    assert np.linalg.norm(low @ phi.amplitudes) < 1e-10
    assert abs(phi.norm() - 1.0) < 1e-12


def test_block_then_map_recovers_layers():
    basis = enumerate_basis(3, 3)
    rng = np.random.default_rng(2)
    u = random_unit(rng, 3)
    layers = embed(SectorVector(basis, 0, np.array([0.6 + 0.1j])))
    for n in (1, 2, 3):
        raw = rng.normal(size=basis.sector_dim(n)) + 1j * rng.normal(size=basis.sector_dim(n))
        proj = project_out_mode(u, embed(SectorVector(basis, n, raw)))
        layers.amplitudes[basis.sector_slice(n)] = proj.sector(n)
    psi = hartree_block(u, layers, 3)
    phi = apply_u_n(ExcitationFrame(u, 3), psi)
    for n in range(4):
        assert np.max(np.abs(phi.sector(n) - layers.sector(n))) < 1e-10


@pytest.mark.parametrize("M, n_max, Ns, top", [
    (3, 7, (2, 5, 7), 7), (2, 6, (6, 3, 6), 6), (3, 6, (1, 4), 6),
])
def test_stacked_map_and_blocks_are_the_single_ones_byte_for_byte(M, n_max, Ns, top):
    # several N on one fill of a(u), in any order, repeated, or all below
    # the fill's top: each image and each block is the same bytes as when
    # built alone
    basis = enumerate_basis(M, n_max)
    rng = np.random.default_rng(70 + M + n_max)
    u = random_unit(rng, M)
    states = [SectorVector(basis, N, random_unit(rng, basis.sector_dim(N))) for N in Ns]
    images = apply_u_n(ExcitationFrame(u, top), states)
    for psi, image in zip(states, images):
        alone = apply_u_n(ExcitationFrame(u, psi.n), psi).amplitudes
        assert image.amplitudes.tobytes() == alone.tobytes()
    layers = apply_u_n(ExcitationFrame(u, n_max), SectorVector(
        basis, n_max, random_unit(rng, basis.sector_dim(n_max))))
    distinct = list(dict.fromkeys(Ns))
    blocks = hartree_block(u, layers, distinct)
    for N, block in zip(distinct, blocks):
        assert block.n == N
        assert block.amplitudes.tobytes() == hartree_block(u, layers, N).amplitudes.tobytes()
    with pytest.raises(ValueError, match="sector"):
        apply_u_n(ExcitationFrame(u, min(Ns)), states)


def test_star_round_trip_and_domain_checks():
    basis = enumerate_basis(2, 4)
    rng = np.random.default_rng(3)
    u = random_unit(rng, 2)
    frame = ExcitationFrame(u, 3)
    psi = SectorVector(basis, 3, random_unit(rng, basis.sector_dim(3)))
    phi = apply_u_n(frame, psi)
    back = apply_u_n_star(frame, phi)
    assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-10

    # vacuum pulls back to the pure condensate
    vac = FockVector.vacuum(basis)
    psi_c = apply_u_n_star(frame, vac)
    ref = condensate_state(u, 3, basis)
    assert np.max(np.abs(psi_c.amplitudes - ref.amplitudes)) < 1e-12

    # non-tangent inputs are rejected
    from bogofluct.fock import create_op

    bad = FockVector(vac.basis, create_op(u, basis) @ vac.amplitudes)
    with pytest.raises(ValueError):
        apply_u_n_star(frame, bad)
    # weight above sector N is rejected
    amps = np.zeros(basis.size, dtype=complex)
    amps[basis.sector_slice(4)][:] = 0.0
    amps[basis.sector_offsets[4]] = 1.0
    with pytest.raises(ValueError):
        apply_u_n_star(frame, FockVector(basis, amps))


def test_du_generator_gauge_motion():
    # a pure phase drift of the condensate leaves only the counting term
    basis = enumerate_basis(2, 3)
    rng = np.random.default_rng(4)
    u = random_unit(rng, 2)
    N = 2
    lam = 0.7
    udot = 1j * lam * u
    G = du_generator(ExcitationFrame(u, N), udot, basis)
    n_minus = func_of_number_plus(u, basis, lambda k: float(N - k))
    # <i u', u> = <i i lam u, u> = -lam... the phase term is -(-lam)(N - Np)
    ref = lam * n_minus
    assert np.max(np.abs(G - ref)) < 1e-12
    assert np.max(np.abs(du_generator(ExcitationFrame(u, N), np.zeros(2), basis))) == 0.0


def test_du_generator_rejects_norm_changing_path():
    basis = enumerate_basis(2, 3)
    rng = np.random.default_rng(5)
    u = random_unit(rng, 2)
    with pytest.raises(ValueError):
        du_generator(ExcitationFrame(u, 2), 0.5 * u, basis)


def test_r1_r2_vanish_without_interaction():
    lat, h0, _ = setup_model(3)
    basis = enumerate_basis(3, 4)
    rng = np.random.default_rng(6)
    frame = ExcitationFrame(random_unit(rng, 3), 3)
    W0 = np.zeros((3, 3))
    assert np.max(np.abs(assemble_r1(frame, h0, W0, basis))) < 1e-14
    assert assemble_r2(frame, W0, basis).nnz == 0


def test_r2_kills_single_excitation():
    lat, h0, W = setup_model(3, g=1.1)
    basis = enumerate_basis(3, 4)
    rng = np.random.default_rng(7)
    u = random_unit(rng, 3)
    frame = ExcitationFrame(u, 3)
    r2 = assemble_r2(frame, W, basis)
    # any one-quantum state is annihilated: the term needs two excitations
    for a in range(basis.sector_dim(1)):
        v = np.zeros(basis.size, dtype=complex)
        v[basis.sector_offsets[1] + a] = 1.0
        assert np.linalg.norm(r2 @ v) < 1e-13


def test_r1_projected_bound_with_fitted_constant():
    # compressed to excitation layers with total at most m_cut, the first
    # remainder is controlled by c sqrt(m_cut/N) (number + 1)
    lat, h0, W = setup_model(3, g=1.0)
    basis = enumerate_basis(3, 4)
    rng = np.random.default_rng(8)
    u = random_unit(rng, 3)
    fitted = []
    for N in (3, 6, 12, 24):
        frame = ExcitationFrame(u, N)
        r1 = assemble_r1(frame, h0, W, basis)
        for m_cut in (2, 4):
            P = orthogonal_sector_projector(u, basis, m_cut)
            r1p = P @ r1 @ P
            nplus1 = np.diag(basis.totals() + 1.0)
            scale = math.sqrt(m_cut / N)
            # smallest c with +- r1p <= c*scale*(number + 1): extreme
            # eigenvalue of the symmetrically weighted remainder
            half = np.diag(1.0 / np.sqrt(basis.totals() + 1.0))
            w = np.linalg.eigvalsh(half @ r1p @ half)
            c = float(np.max(np.abs(w))) / scale
            fitted.append(c)
            bound = c * scale * nplus1
            for sign in (+1, -1):
                assert np.linalg.eigvalsh(bound + sign * r1p)[0] >= -1e-8
    assert all(np.isfinite(fitted))
    # the fitted constants stay of one size as N varies: the sqrt(m/N) shape
    assert max(fitted) / max(min(fitted), 1e-12) < 25.0


def test_r2_matches_general_two_body_assembly():
    # independent path: build the doubly compressed interaction as a full
    # two-body coefficient tensor and hand it to the generic assembler
    from oracles import two_body_general

    lat, h0, W = setup_model(3, g=1.2)
    basis = enumerate_basis(3, 4)
    rng = np.random.default_rng(12)
    u = random_unit(rng, 3)
    N = 5
    frame = ExcitationFrame(u, N)
    Q = frame.q
    B = np.einsum("ki,lj,ij,mi,nj->klmn", Q, Q, W + 0j, Q.conj(), Q.conj())
    ref = two_body_general(B / (N - 1), basis).toarray()
    got = assemble_r2(frame, W, basis).toarray()
    assert np.max(np.abs(got - ref)) < 1e-12


def test_r2_operator_norm_scales_like_pairs_over_N():
    lat, h0, W = setup_model(3, g=1.0)
    basis = enumerate_basis(3, 6)
    rng = np.random.default_rng(9)
    u = random_unit(rng, 3)
    ratios = []
    for N in (6, 12, 24):
        r2 = assemble_r2(ExcitationFrame(u, N), W, basis).toarray()
        for n_cut in (2, 4, 6):
            P = orthogonal_sector_projector(u, basis, n_cut)
            nrm = np.linalg.norm(P @ r2 @ P, 2)
            ratios.append(nrm / (n_cut * (n_cut - 1) / 2.0 / (N - 1)))
    ratios = np.asarray(ratios)
    # the pair-count over N shape captures the size: prefactors stay bounded
    assert ratios.max() < 10.0 * max(ratios.min(), 1e-12)


def test_evolution_identity_along_exact_dynamics():
    # d/dt (mapped exact state) = -i (generator + remainders) (mapped state)
    M, N, n_max = 2, 3, 4
    lat, h0, W = setup_model(M, g=0.8)
    basis = enumerate_basis(M, n_max)
    d = np.minimum(lat.positions, M - lat.positions)
    u0 = np.exp(-(d**2) / 2).astype(complex)
    u0 /= np.linalg.norm(u0)
    dt = 2e-4
    traj = solve_hartree(u0, h0, W, T=0.2, dt=dt)
    H = build_hamiltonian(h0, W, N, basis)
    psi0 = condensate_state(u0, N, basis)
    center = 0.1
    for delta_steps in (50, 25):
        delta = delta_steps * dt
        times = [center - delta, center, center + delta]
        states = propagate_exact(H, psi0, times)
        mapped = []
        for t, st in zip(times, states):
            k = int(round(t / dt))
            uk = traj.u[k] / np.linalg.norm(traj.u[k])
            mapped.append(apply_u_n(ExcitationFrame(uk, N), st).amplitudes)
        fd = (mapped[2] - mapped[0]) / (2 * delta)
        k = int(round(center / dt))
        uc = traj.u[k] / np.linalg.norm(traj.u[k])
        frame = ExcitationFrame(uc, N)
        gen = bogoliubov_hamiltonian(uc, h0, W, basis).toarray()
        gen = gen + assemble_r1(frame, h0, W, basis) + assemble_r2(frame, W, basis).toarray()
        rhs = -1j * (gen @ mapped[1])
        resid = np.linalg.norm(fd - rhs)
        if delta_steps == 50:
            coarse = resid
        else:
            fine = resid
    assert coarse < 1e-2
    assert coarse / fine > 3.4  # second-order finite difference


def test_master_identity_with_interaction_variants():
    # the conjugation identity is insensitive to the interaction profile
    for g in (0.0, 0.5, 2.0):
        lat, h0, W = setup_model(2, g=g)
        basis = enumerate_basis(2, 4)
        rng = np.random.default_rng(11)
        u = random_unit(rng, 2)
        frame = ExcitationFrame(u, 3)
        HN = (dgamma(h0, basis) + 0.5 * two_body_op(W, basis))
        sl = basis.sector_slice(3)
        U = dense_u_n(frame, basis)
        B = conjugated_hamiltonian(frame, h0, W, basis)
        resid = np.max(np.abs(HN[sl, sl].toarray() - U.conj().T @ B @ U))
        assert resid < 1e-10


def _projected_layer(u, psi, j):
    # the per-layer definition: P0 a(u)^k psi / sqrt(k!), k = N - j, in sector j
    k = psi.n - j
    low = annihilate_op(u, psi.basis)
    vec = embed(psi)
    for _ in range(k):
        vec = FockVector(vec.basis, low @ vec.amplitudes)
    vec = FockVector(psi.basis, vec.amplitudes / math.sqrt(math.factorial(k)))
    return project_out_mode(u, vec).sector(j)


@pytest.mark.parametrize("M, n_max, N, u_is_mode", [
    (2, 4, 4, False), (3, 5, 3, False), (3, 5, 5, True), (4, 4, 2, False), (2, 6, 6, True),
])
def test_map_matches_per_layer_projection(M, n_max, N, u_is_mode):
    # the shared lowering chain against one projector call per layer; with
    # u a mode vector and at most N - 2 quanta in that mode, the chain
    # vanishes after N - 2 lowerings
    basis = enumerate_basis(M, n_max)
    rng = np.random.default_rng(20 + 7 * M + N)
    amps = random_unit(rng, basis.sector_dim(N))
    if u_is_mode:
        u = np.eye(M, dtype=complex)[1]
        amps[basis.states[basis.sector_slice(N)][:, 1] > N - 2] = 0.0
    else:
        u = random_unit(rng, M)
    psi = SectorVector(basis, N, amps)
    phi = apply_u_n(ExcitationFrame(u, N), psi)
    for j in range(N + 1):
        assert np.max(np.abs(phi.sector(j) - _projected_layer(u, psi, j))) < 1e-13
    for n in range(N + 1, n_max + 1):
        assert not phi.sector(n).any()


@pytest.mark.parametrize("M, n_max, N", [(2, 3, 3), (3, 4, 2), (3, 5, 4)])
def test_dense_map_columns_equal_mapped_unit_vectors(M, n_max, N):
    basis = enumerate_basis(M, n_max)
    frame = ExcitationFrame(random_unit(np.random.default_rng(40 + M + N), M), N)
    U = dense_u_n(frame, basis)
    units = np.eye(basis.sector_dim(N))
    for a, e in enumerate(units):
        assert np.array_equal(U[:, a], apply_u_n(frame, SectorVector(basis, N, e)).amplitudes)


def _full_basis_u_n(u, N, amps, basis):
    # the map on full-basis vectors or column blocks, every product with the
    # whole a(u) or a^dag(u)
    low = annihilate_op(u, basis)
    raise_u = low.conj().T.tocsr()
    downs = [amps]
    for _ in range(N):
        downs.append(low @ downs[-1])
    out = np.zeros_like(amps)
    for j in range(N + 1):
        k = N - j
        acc = downs[-1]
        for m in range(j - 1, -1, -1):
            acc = downs[k + m] - (raise_u @ acc) / (m + 1)
        sl = basis.sector_slice(j)
        out[sl] = acc[sl] / math.sqrt(math.factorial(k))
    return out


def _full_basis_hartree_block(u, layers, N):
    # sum_n a^dag(u)^(N-n)/sqrt((N-n)!) phi_n, phi_n sector n of layers, with
    # full-basis raisings
    basis = layers.basis
    raise_u = annihilate_op(u, basis).conj().T.tocsr()
    total = np.zeros(basis.size, dtype=complex)
    for n in range(N + 1):
        w = embed(SectorVector(basis, n, layers.sector(n))).amplitudes
        for k in range(1, N - n + 1):
            w = (raise_u @ w) / math.sqrt(k)
        total += w
    return total[basis.sector_slice(N)]


@pytest.mark.parametrize("M, n_max, N, zero_mode", [
    (2, 4, 4, None), (3, 6, 4, 1), (4, 5, 3, None),
])
def test_sector_blocks_equal_the_full_basis_products(M, n_max, N, zero_mode):
    # the map, its dense matrix and the block builder run on sector blocks of
    # a(u); every entry equals the full-basis computation bit for bit
    basis = enumerate_basis(M, n_max)
    rng = np.random.default_rng(60 + 7 * M + N)
    u = random_unit(rng, M)
    if zero_mode is not None:
        u[zero_mode] = 0.0
        u /= np.linalg.norm(u)
    frame = ExcitationFrame(u, N)
    psi = SectorVector(basis, N, random_unit(rng, basis.sector_dim(N)))
    ref = _full_basis_u_n(u, N, embed(psi).amplitudes, basis)
    assert np.array_equal(apply_u_n(frame, psi).amplitudes, ref)

    units = np.zeros((basis.size, basis.sector_dim(N)), dtype=complex)
    units[basis.sector_slice(N)] = np.eye(basis.sector_dim(N))
    assert np.array_equal(dense_u_n(frame, basis), _full_basis_u_n(u, N, units, basis))

    layers = FockVector(basis, ref)
    built = hartree_block(u, layers, N).amplitudes
    assert np.array_equal(built, _full_basis_hartree_block(u, layers, N))


def _whole_basis_projector(u, basis, n_cut):
    # the whole-basis construction: the kernel of a^dag(u) a(u), cut to
    # totals <= n_cut from both sides
    zero_u = integer_spectral_function(create_op(u, basis) @ annihilate_op(u, basis),
                                       lambda k: 1.0 if k == 0 else 0.0)
    cut = np.diag((basis.totals() <= n_cut).astype(float))
    return cut @ zero_u @ cut


@pytest.mark.parametrize("M, n_max, N, zero_mode", [
    (3, 6, 4, None), (3, 5, 5, 2), (4, 4, 3, None), (4, 8, 6, None),
])
def test_sector_spectral_calculus_matches_the_whole_basis_form(M, n_max, N, zero_mode):
    # N+ and a^dag(u) a(u) conserve the total, so taking functions of them
    # sector block by sector block equals the whole-basis spectral calculus,
    # with every entry between two sectors exactly 0
    basis = enumerate_basis(M, n_max)
    rng = np.random.default_rng(80 + 7 * M + N)
    u = random_unit(rng, M)
    if zero_mode is not None:
        u[zero_mode] = 0.0
        u /= np.linalg.norm(u)
    totals = basis.totals()
    off = totals[:, None] != totals[None, :]
    n_plus = number_plus_op(u, basis)
    for func in (lambda k: math.sqrt(max(N - k, 0)), lambda k: float(N - k),
                 lambda k: k * math.sqrt(max(N - k, 0))):
        got = func_of_number_plus(u, basis, func)
        assert np.max(np.abs(got - integer_spectral_function(n_plus, func))) < 1e-12
        assert not np.any(got[off])
    for n_cut in (0, 2, n_max + 1):
        got = orthogonal_sector_projector(u, basis, n_cut)
        assert np.max(np.abs(got - _whole_basis_projector(u, basis, n_cut))) < 1e-12
        assert not np.any(got[off])


def test_func_of_number_plus_refuses_a_non_integer_spectrum():
    # with a mode of norm 1.1, N - a^dag a(u) has eigenvalues n - 1.21 k
    basis = enumerate_basis(3, 4)
    u = random_unit(np.random.default_rng(5), 3)
    with pytest.raises(ValueError, match="condensate mode must be unit norm"):
        func_of_number_plus(1.1 * u, basis, lambda k: float(k))
    with pytest.raises(ValueError, match="condensate mode must be unit norm"):
        orthogonal_sector_projector(1.1 * u, basis, 2)


def _norm_preserving_velocity(rng, u):
    # -i A u with A hermitian: Re <u, du/dt> = 0
    A = rng.normal(size=(len(u), len(u))) + 1j * rng.normal(size=(len(u), len(u)))
    return -1j * (A + A.conj().T) @ u


@pytest.mark.parametrize("M, n_max", [(3, 4), (4, 8)])
@pytest.mark.parametrize("N", [2, 5])
def test_builders_match_the_dense_full_basis_oracles(M, n_max, N):
    # the one-pass sparse builders against the dense assembly with one
    # projector pass per weight and the explicit double sum for X, and the
    # one-pass sum of the conjugated Hamiltonian against its three builders
    _, h0, W = setup_model(M, g=1.1)
    basis = enumerate_basis(M, n_max)
    rng = np.random.default_rng(90 + 7 * M + N)
    frame = ExcitationFrame(random_unit(rng, M), N)
    udot = _norm_preserving_velocity(rng, frame.u)
    r1 = assemble_r1(frame, h0, W, basis)
    assert np.max(np.abs(r1 - dense_assemble_r1(frame, h0, W, basis))) < 1e-13
    G = du_generator(frame, udot, basis)
    assert np.max(np.abs(G - dense_du_generator(frame, udot, basis))) < 1e-13
    # conjugated_hamiltonian's one pass against the builders' own passes
    parts = leading_part(frame, h0, W, basis) + r1 + assemble_r2(frame, W, basis).toarray()
    assert np.max(np.abs(conjugated_hamiltonian(frame, h0, W, basis) - parts)) < 1e-13


@pytest.mark.parametrize("M, n_max", [(3, 4), (4, 8)])
def test_one_projector_pass_equals_one_pass_per_weight(M, n_max):
    from bogofluct.excitation import _by_sector

    basis = enumerate_basis(M, n_max)
    u = random_unit(np.random.default_rng(100 + M), M)
    weights = (lambda n, j: math.sqrt(max(5 - j, 0)), lambda n, j: float(j == n),
               lambda n, j: (1.0 - j) / 4, lambda n, j: j * math.sqrt(max(5 - j, 0)) / 4)
    for top in (n_max, 2):
        together = _by_sector(u, basis, top, *weights)
        assert len(together) == len(weights)
        for weight, got in zip(weights, together):
            assert np.array_equal(got.toarray(), _by_sector(u, basis, top, weight)[0].toarray())


@pytest.mark.parametrize("M, n_max", [(3, 4), (4, 8)])
def test_functions_of_the_excitation_number_are_stored_by_sector(M, n_max):
    # one CSR matrix per weight, holding exactly the sector blocks up to top
    # (sum of d_n^2 stored entries, rows above top empty), equal there to the
    # whole-basis spectral calculus of N+
    from bogofluct.excitation import _by_sector

    basis = enumerate_basis(M, n_max)
    u = random_unit(np.random.default_rng(110 + M), M)
    n_plus = number_plus_op(u, basis)
    funcs = (lambda k: math.sqrt(max(5 - k, 0)), lambda k: k * math.sqrt(max(5 - k, 0)) / 4)
    for top in (n_max, 2):
        end = basis.sector_offsets[top + 1]
        cut = np.diag((basis.totals() <= top).astype(float))
        got = _by_sector(u, basis, top, *(lambda n, j, f=f: f(j) for f in funcs))
        for func, mat in zip(funcs, got):
            assert isinstance(mat, sp.csr_matrix)
            assert mat.nnz == sum(basis.sector_dim(n) ** 2 for n in range(top + 1))
            assert np.all(mat.indptr[end:] == mat.nnz)
            rows = np.repeat(np.arange(basis.size), np.diff(mat.indptr))
            assert np.array_equal(basis.totals()[rows], basis.totals()[mat.indices])
            want = cut @ integer_spectral_function(n_plus, func) @ cut
            assert np.max(np.abs(mat.toarray() - want)) < 1e-12


def test_identity_suite_memory_peak():
    # functions of N+ are kept by sector block and the builders' dense sums
    # are formed once, so the suite at the verify_dense benchmark's sizes
    # stays far below the 40.7 MB that full-basis dense storage needed
    import tracemalloc

    sizes = ((2, 3, 4), (3, 3, 4), (3, 6, 8), (4, 5, 6), (4, 6, 8))
    tracemalloc.start()
    try:
        checks = verify_algebra(sizes, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c.ok for c in checks)
    assert peak < 30e6, f"tracemalloc peak {peak / 1e6:.1f} MB"


def test_remainders_refuse_a_single_particle():
    # the remainders carry the mean-field coupling 1/(N-1); the map itself
    # is defined for N = 1
    _, h0, W = setup_model(3)
    basis = enumerate_basis(3, 4)
    frame = ExcitationFrame(random_unit(np.random.default_rng(11), 3), 1)
    U = dense_u_n(frame, basis)
    assert np.max(np.abs(U.conj().T @ U - np.eye(basis.sector_dim(1)))) < 1e-12
    for build in (lambda: assemble_r1(frame, h0, W, basis),
                  lambda: assemble_r2(frame, W, basis),
                  lambda: conjugated_hamiltonian(frame, h0, W, basis)):
        with pytest.raises(ValueError, match=r"1/\(N-1\)"):
            build()


def test_dense_builders_return_plain_arrays():
    # a sparse operand added to a dense one gives np.matrix; every builder
    # must hand back an ndarray, and every operator builder a CSR matrix
    _, h0, W = setup_model(3)
    basis = enumerate_basis(3, 4)
    rng = np.random.default_rng(12)
    frame = ExcitationFrame(random_unit(rng, 3), 3)
    udot = _norm_preserving_velocity(rng, frame.u)
    built = {
        "leading_part": leading_part(frame, h0, W, basis),
        "assemble_r1": assemble_r1(frame, h0, W, basis),
        "du_generator": du_generator(frame, udot, basis),
        "conjugated_hamiltonian": conjugated_hamiltonian(frame, h0, W, basis),
        "func_of_number_plus": func_of_number_plus(frame.u, basis, lambda k: float(k)),
        "orthogonal_sector_projector": orthogonal_sector_projector(frame.u, basis, 2),
    }
    for name, got in built.items():
        assert type(got) is np.ndarray, name
        assert got.shape == (basis.size, basis.size), name
    f = random_unit(rng, 3)
    K = np.outer(f, f)
    operators = {
        "annihilate_op": annihilate_op(f, basis),
        "create_op": create_op(f, basis),
        "dgamma": dgamma(h0, basis),
        "quadratic_op": quadratic_op(h0, K, basis),
        "number_op": number_op(basis),
        "pairing_op": pairing_op(K, basis),
        "pairing_raise": pairing_raise(K, basis),
        "two_body_op": two_body_op(W, basis),
        "assemble_r2": assemble_r2(frame, W, basis),
        "bogoliubov_hamiltonian": bogoliubov_hamiltonian(frame.u, h0, W, basis),
    }
    for name, op in operators.items():
        assert isinstance(op, sp.csr_matrix), name
        assert op.shape == (basis.size, basis.size), name
