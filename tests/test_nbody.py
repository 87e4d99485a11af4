import math

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.sparse.linalg import expm_multiply

from bogofluct.fock import SectorVector, dgamma, enumerate_basis, two_body_op
from bogofluct.model import build_interaction, build_laplacian, build_lattice, constant_profile, gaussian_profile
from bogofluct.nbody import (
    ReducedDensity,
    build_hamiltonian,
    propagate_exact,
    reduced_density,
    trace_distance,
)
from oracles import as_csr, checked_density, embed, mode_lowering, sym_tensor


def random_unit(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def condensate_state(u, N, basis):
    su = SectorVector(basis, 1, np.asarray(u, dtype=complex))
    out = su
    for _ in range(N - 1):
        out = sym_tensor(out, su)
    return SectorVector(basis, N, out.amplitudes / out.norm())


@pytest.mark.parametrize("M,N,n_max", [(3, 5, 6), (4, 8, 8)])
def test_sector_hamiltonian_is_the_full_basis_slice_byte_for_byte(M, N, n_max):
    # built from the states of sector N alone, H_N is the sector-N block of
    # the second-quantized Hamiltonian on the whole basis, entry for entry;
    # its nonzero entries, row by row in its order, are the CSR slice's
    lat = build_lattice(M, 1.0)
    h0 = build_laplacian(lat)
    W = build_interaction(lat, gaussian_profile(1.3, 0.9))
    b = enumerate_basis(M, n_max)
    sl = b.sector_slice(N)
    ref = (dgamma(h0, b) + (1.0 / (N - 1)) * two_body_op(W, b))[sl, sl]
    got = as_csr(build_hamiltonian(h0, W, N, b).mat)
    assert got.shape == ref.shape
    for name in ("data", "indices", "indptr"):
        assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()


def test_free_case_is_dgamma():
    lat = build_lattice(3, 1.0)
    h0 = build_laplacian(lat)
    W = build_interaction(lat, constant_profile(0.0))
    b = enumerate_basis(3, 3)
    H = build_hamiltonian(h0, W, 3, b)
    sl = b.sector_slice(3)
    ref = dgamma(h0, b)[sl, sl]
    assert np.max(np.abs(H.mat.toarray() - ref.toarray())) < 1e-14


def test_pair_coupling_constants():
    lat = build_lattice(2, 1.0)
    h0 = np.zeros((2, 2), dtype=complex)
    c = 0.9
    W = build_interaction(lat, constant_profile(c))
    b = enumerate_basis(2, 3)
    # N=2: coupling exactly 1, interaction = c * 1 pair
    H2 = build_hamiltonian(h0, W, 2, b)
    assert np.allclose(H2.mat.toarray(), c * np.eye(b.sector_dim(2)))
    # N=3 constant kernel: (1/2) * c * 3 pairs = 3c/2 on the whole sector
    H3 = build_hamiltonian(h0, W, 3, b)
    assert np.allclose(H3.mat.toarray(), 1.5 * c * np.eye(b.sector_dim(3)))


def test_rejects_small_N_and_truncation():
    lat = build_lattice(2, 1.0)
    h0 = build_laplacian(lat)
    W = build_interaction(lat, constant_profile(1.0))
    with pytest.raises(ValueError):
        build_hamiltonian(h0, W, 1, enumerate_basis(2, 2))
    with pytest.raises(ValueError):
        build_hamiltonian(h0, W, 4, enumerate_basis(2, 2))


def test_propagate_zero_hamiltonian_and_eigenstate_phase():
    lat = build_lattice(2, 1.0)
    b = enumerate_basis(2, 2)
    W0 = build_interaction(lat, constant_profile(0.0))
    H = build_hamiltonian(np.zeros((2, 2), dtype=complex), W0, 2, b)
    rng = np.random.default_rng(3)
    psi0 = SectorVector(b, 2, random_unit(rng, b.sector_dim(2)))
    out = propagate_exact(H, psi0, [0.0, 0.7, 1.9])
    for st in out:
        assert np.max(np.abs(st.amplitudes - psi0.amplitudes)) < 1e-12

    # diagonal one-body, basis occupation state evolves by a phase
    h0 = np.diag([0.4, 1.1]).astype(complex)
    H = build_hamiltonian(h0, W0, 2, b)
    e = np.zeros(b.sector_dim(2), dtype=complex)
    e[0] = 1.0  # occupation (2, 0): energy 0.8
    psi0 = SectorVector(b, 2, e)
    (st,) = propagate_exact(H, psi0, [1.3])
    assert abs(st.amplitudes[0] - np.exp(-1j * 0.8 * 1.3)) < 1e-12
    assert np.max(np.abs(np.abs(st.amplitudes) - np.abs(e))) < 1e-12


def test_propagate_matches_dense_expm_oracle():
    lat = build_lattice(2, 1.0)
    h0 = build_laplacian(lat)
    W = build_interaction(lat, gaussian_profile(1.0, 1.0))
    b = enumerate_basis(2, 2)
    H = build_hamiltonian(h0, W, 2, b)
    rng = np.random.default_rng(4)
    psi0 = SectorVector(b, 2, random_unit(rng, b.sector_dim(2)))
    t = 0.9
    (st,) = propagate_exact(H, psi0, [t])
    oracle = sla.expm(-1j * t * H.mat.toarray()) @ psi0.amplitudes
    assert np.max(np.abs(st.amplitudes - oracle)) < 1e-9


@pytest.mark.parametrize("N", [6, 12])
def test_propagate_matches_expm_multiply_at_any_span(N):
    # sectors of 84 and 455 states, on either side of the size where a dense
    # eigendecomposition once took over: one series per grid interval, exact
    # to round-off, and the same states at the output times whether the grid
    # steps every 0.05 or is the output grid itself
    lat = build_lattice(4, 1.0)
    h0 = build_laplacian(lat)
    W = build_interaction(lat, gaussian_profile(1.5, 1.0))
    b = enumerate_basis(4, N)
    H = build_hamiltonian(h0, W, N, b)
    psi0 = SectorVector(b, N, random_unit(np.random.default_rng(5), b.sector_dim(N)))
    times = [0.0, 0.25, 0.5, 1.0]
    oracle = expm_multiply(-1j * as_csr(H.mat), psi0.amplitudes, start=0.0, stop=1.0, num=5)
    fine = np.linspace(0.0, 1.0, 21)
    assert np.array_equal(fine[[0, 5, 10, 20]], times)
    short = [propagate_exact(H, psi0, fine)[i] for i in (0, 5, 10, 20)]
    whole = propagate_exact(H, psi0, times)
    for want, st, one in zip(oracle[[0, 1, 2, 4]], short, whole):
        assert np.max(np.abs(st.amplitudes - want)) < 1e-12
        assert np.max(np.abs(st.amplitudes - one.amplitudes)) < 1e-12


def test_one_recurrence_per_n_for_all_output_times(monkeypatch):
    # paper_scale: one ChebyshevPropagator.states call per N on the output
    # times; its products with H are those of the longest span's series,
    # one fewer than its terms (T_0 v = v takes none): 334 products for 339
    # terms in all, against 522 for 537 terms with one series per interval
    from pathlib import Path

    from bogofluct.config import load_config
    from bogofluct.experiment import run_convergence
    from bogofluct.linalg import ChebyshevPropagator, _term_count

    calls = []  # (half width, times, products) of each call
    states = ChebyshevPropagator.states

    def counted(self, v, times):
        mat, products = self.twice_scaled, []

        class Counting:
            def __matmul__(self, x):
                products.append(1)
                return mat @ x

        self.twice_scaled = Counting()
        try:
            return states(self, v, times)
        finally:
            self.twice_scaled = mat
            calls.append((self.half_width, list(times), len(products)))

    monkeypatch.setattr(ChebyshevPropagator, "states", counted)
    cfg = load_config(Path(__file__).resolve().parents[1] / "demos" / "configs" / "paper_scale.json")
    run_convergence(cfg, write=False)
    assert len(calls) == len(cfg.N_list)
    terms = [_term_count(a * max(times)) for a, times, _ in calls]
    assert all(times == cfg.output_times for _, times, _ in calls)
    assert [products for *_, products in calls] == [n - 1 for n in terms]
    assert sum(terms) == 339
    per_interval = sum(_term_count(a * dt) for a, times, _ in calls
                       for dt in np.diff(np.r_[0.0, times]) if dt)
    assert per_interval == 537


def sector_case(N=12, seed=5):
    # a 455-state sector of the M=4 gaussian model, and a random unit state
    lat = build_lattice(4, 1.0)
    b = enumerate_basis(4, N)
    H = build_hamiltonian(build_laplacian(lat), build_interaction(lat, gaussian_profile(1.5, 1.0)), N, b)
    return H, SectorVector(b, N, random_unit(np.random.default_rng(seed), b.sector_dim(N)))


def test_recurrence_states_match_the_per_interval_series():
    # each time from t = 0 by its own series, against the state carried
    # interval by interval; and each row of the shared recurrence is that
    # time's series alone, bit for bit
    from bogofluct.linalg import ChebyshevPropagator

    from oracles import per_interval_states

    H, psi0 = sector_case()
    times = [0.0, 0.1, 0.25, 0.5, 1.0, 2.5]
    got = propagate_exact(H, psi0, times)
    want = per_interval_states(H.mat, psi0.amplitudes, times)
    for st, w in zip(got, want):
        assert np.max(np.abs(st.amplitudes - w)) < 1e-13
    prop = ChebyshevPropagator(H.mat)
    for st, t in zip(got, times):
        assert st.amplitudes.tobytes() == prop.states(psi0.amplitudes, [t])[0].tobytes()


def test_repeated_zero_and_unsorted_times():
    H, psi0 = sector_case()
    times = [0.5, 0.0, 1.0, 0.5, 0.25, 0.0]
    got = propagate_exact(H, psi0, times)
    assert len(got) == len(times)
    for st, t in zip(got, times):
        assert st.amplitudes.tobytes() == propagate_exact(H, psi0, [t])[0].amplitudes.tobytes()
    assert np.array_equal(got[1].amplitudes, psi0.amplitudes)
    assert got[0].amplitudes.tobytes() == got[3].amplitudes.tobytes()
    with pytest.raises(ValueError, match="finite"):
        propagate_exact(H, psi0, [0.5, np.nan])


def drifting(monkeypatch, dim, start):
    # the states of a sector of dimension dim grow by 1e-6 from time start on
    from bogofluct.linalg import ChebyshevPropagator

    states = ChebyshevPropagator.states

    def grown(self, v, times):
        out = states(self, v, times)
        if len(v) == dim:
            out[np.asarray(times) >= start] *= 1.0 + 1e-6
        return out

    monkeypatch.setattr(ChebyshevPropagator, "states", grown)


def test_norm_drift_raises_at_the_first_offending_grid_time(monkeypatch):
    H, psi0 = sector_case()
    drifting(monkeypatch, psi0.amplitudes.size, 0.5)
    with pytest.raises(RuntimeError, match="at t=0.5 exceeds"):
        propagate_exact(H, psi0, [0.0, 0.25, 0.5, 1.0])
    with pytest.raises(RuntimeError, match="at t=1 exceeds"):
        propagate_exact(H, psi0, [0.25, 1.0, 0.5])
    assert len(propagate_exact(H, psi0, [0.0, 0.25, 0.4])) == 3


def test_norm_drift_is_filed_for_its_n_alone(monkeypatch):
    from bogofluct.config import ExperimentConfig
    from bogofluct.experiment import run_convergence

    doc = {
        "model": {"modes": 3, "spacing": 1.0,
                  "interaction": {"kind": "gaussian", "params": {"strength": 1.0, "range": 1.0}}},
        "u0": {"kind": "gaussian", "center": 0.0, "width": 0.8},
        "N_list": [4, 6, 8], "n_max": 8, "T": 0.2, "output_times": [0.0, 0.1, 0.2],
        "dt_hartree": 0.002, "dt_fock": 0.002, "dt_nbody": 0.1,
    }
    whole = run_convergence(ExperimentConfig(doc), write=False)
    drifting(monkeypatch, enumerate_basis(3, 6).sector_dim(6), 0.1)
    rep = run_convergence(ExperimentConfig(doc), write=False)
    assert list(rep.failures) == [6]
    assert rep.failures[6].startswith("RuntimeError: propagation norm drift 1.000e-06 at t=0.1 ")
    assert [repr(r) for r in rep.rows] == [repr(r) for r in whole.rows if r["N"] != 6]


def test_norm_and_energy_conservation():
    lat = build_lattice(3, 1.0)
    h0 = build_laplacian(lat)
    W = build_interaction(lat, gaussian_profile(1.2, 1.0))
    b = enumerate_basis(3, 4)
    H = build_hamiltonian(h0, W, 4, b)
    rng = np.random.default_rng(6)
    psi0 = SectorVector(b, 4, random_unit(rng, b.sector_dim(4)))
    times = [0.0, 0.5, 1.0, 2.0]
    states = propagate_exact(H, psi0, times)
    e0 = np.real(np.vdot(states[0].amplitudes, H.mat @ states[0].amplitudes))
    for st in states:
        assert abs(st.norm() - 1.0) < 1e-9
        e = np.real(np.vdot(st.amplitudes, H.mat @ st.amplitudes))
        assert abs(e - e0) <= 1e-8 * abs(e0)


# ----------------------------------------------------------- reduced densities

def test_reduced_density_pure_condensate():
    b = enumerate_basis(3, 4)
    rng = np.random.default_rng(7)
    u = random_unit(rng, 3)
    psi = condensate_state(u, 4, b)
    g1 = checked_density(reduced_density(psi, 1))
    assert np.max(np.abs(g1.matrix - np.outer(u, np.conj(u)))) < 1e-12

    # gamma^(2) is the rank-one projector on the symmetrized pair state
    g2 = checked_density(reduced_density(psi, 2))
    pair = sym_tensor(SectorVector(b, 1, u), SectorVector(b, 1, u))
    pair_amp = pair.amplitudes / pair.norm()
    assert np.max(np.abs(g2.matrix - np.outer(pair_amp, np.conj(pair_amp)))) < 1e-12


def test_reduced_density_one_excitation_oracle():
    # (N-1) particles in u, one in v orthogonal: gamma1 has weights (N-1)/N, 1/N
    N = 5
    b = enumerate_basis(2, N)
    rng = np.random.default_rng(8)
    u = random_unit(rng, 2)
    v = np.array([-np.conj(u[1]), np.conj(u[0])])
    from bogofluct.fock import hartree_block

    psi = hartree_block(u, embed(SectorVector(b, 1, v)), N)
    g1 = checked_density(reduced_density(psi, 1))
    oracle = ((N - 1) / N) * np.outer(u, np.conj(u)) + (1 / N) * np.outer(v, np.conj(v))
    assert np.max(np.abs(g1.matrix - oracle)) < 1e-12


def test_trace_distance_extremes_and_bound():
    b = enumerate_basis(2, 3)
    rng = np.random.default_rng(10)
    u = random_unit(rng, 2)
    v = np.array([-np.conj(u[1]), np.conj(u[0])])
    ru = ReducedDensity(1, np.outer(u, np.conj(u)))
    rv = ReducedDensity(1, np.outer(v, np.conj(v)))
    assert trace_distance(ru, ru) == 0.0
    assert abs(trace_distance(ru, rv) - 2.0) < 1e-12

    # the one-particle densities of nearby states stay within 2||psi - psi'||
    for _ in range(100):
        p = SectorVector(b, 3, random_unit(rng, b.sector_dim(3)))
        q_amp = p.amplitudes + 0.3 * (rng.normal(size=p.amplitudes.shape)
                                      + 1j * rng.normal(size=p.amplitudes.shape))
        q = SectorVector(b, 3, q_amp / np.linalg.norm(q_amp))
        lhs = trace_distance(reduced_density(p, 1), reduced_density(q, 1))
        rhs = 2.0 * float(np.linalg.norm(p.amplitudes - q.amplitudes))
        assert rhs - lhs >= -1e-10


def test_reduced_density_rejects_bad_order():
    b = enumerate_basis(2, 3)
    psi = SectorVector(b, 3, np.ones(b.sector_dim(3), dtype=complex))
    psi = SectorVector(b, 3, psi.amplitudes / psi.norm())
    with pytest.raises(ValueError):
        reduced_density(psi, 0)
    with pytest.raises(ValueError):
        reduced_density(psi, 4)


def _per_state_reduced_density(psi, k):
    # reference: one normalized lowering string per k-sector state
    basis, N = psi.basis, psi.n
    emb = embed(psi).amplitudes
    sl = basis.sector_slice(k)
    lowered = np.empty((basis.sector_dim(k), basis.size), dtype=complex)
    for local, occ in enumerate(basis.states[sl]):
        op = None
        for mode, cnt in enumerate(occ):
            for _ in range(int(cnt)):
                L = mode_lowering(basis, mode)
                op = L if op is None else (L @ op)
        norm = math.sqrt(np.prod([math.factorial(int(c)) for c in occ]))
        lowered[local] = (op.tocsr() / norm) @ emb
    gram = lowered.conj() @ lowered.T
    mat = gram.T / math.comb(N, k)
    return 0.5 * (mat + mat.conj().T)


@pytest.mark.parametrize("M,N", [(2, 6), (3, 5), (4, 4)])
def test_reduced_density_matches_the_per_state_reference(M, N):
    b = enumerate_basis(M, N + 1)
    rng = np.random.default_rng(M * N)
    amps = random_unit(rng, b.sector_dim(N))
    amps[1] = 0.0
    psi = SectorVector(b, N, amps / np.linalg.norm(amps))
    assert np.array_equal(reduced_density(psi, 1).matrix, _per_state_reduced_density(psi, 1))
    got = reduced_density(psi, 2).matrix
    assert np.max(np.abs(got - _per_state_reduced_density(psi, 2))) <= 1e-15
    # a list of states of one sector: each density the same bytes as alone
    other = SectorVector(b, N, random_unit(rng, b.sector_dim(N)))
    for k in (1, 2):
        stacked = reduced_density([psi, other, psi], k)
        alone = [reduced_density(p, k).matrix.tobytes() for p in (psi, other, psi)]
        assert [rho.matrix.tobytes() for rho in stacked] == alone
