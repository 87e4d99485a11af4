import json
import math

import numpy as np
import pytest

from bogofluct.cli import main
from bogofluct.config import ExperimentConfig
from bogofluct.experiment import fit_rate, run_convergence, run_single
from bogofluct.linalg import KrylovError

TINY = {
    "model": {
        "modes": 3,
        "spacing": 1.0,
        "interaction": {"kind": "gaussian", "params": {"strength": 1.0, "range": 1.0}},
    },
    "u0": {"kind": "gaussian", "center": 0.0, "width": 0.8},
    "N_list": [3, 4, 6],
    "n_max": 7,
    "T": 0.5,
    "output_times": [0.0, 0.25, 0.5],
    "dt_hartree": 0.002,
    "dt_fock": 0.002,
    "dt_nbody": 0.1,
}


def write_config(tmp_path, extra=None, name="cfg.json"):
    doc = json.loads(json.dumps(TINY))
    if extra:
        doc.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


# -------------------------------------------------------------------- parsing

def test_defaults_are_resolved_and_dumped():
    cfg = ExperimentConfig({})
    doc = json.loads(cfg.resolved_json())
    assert doc["n_max"] == 24 and doc["N_list"] == [6, 8, 12, 16, 24]
    assert doc["output_times"] == [0.0, 0.25, 0.5, 1.0, 2.0]
    assert doc["tolerances"]["tangency"] == 1e-6


def test_unknown_keys_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig({"nmax": 4})


@pytest.mark.parametrize("patch", [
    {"T": -1.0},
    {"dt_fock": 0.0},
    {"N_list": [4, 3]},
    {"N_list": [1, 2]},
    {"output_times": [0.0, 2.0], "T": 1.0},
    {"N_list": []},
    {"output_times": []},
    {"N_list": [4, 6.5, 8]},
    {"N_list": "468"},
    {"n_max": 12.9},
    {"model": {"modes": 3.7}},
    {"T": "2.0"},
    {"T": float("inf")},
    {"dt_fock": True},
    {"dt_nbody": 10**400},
    {"dt_hartree": float("nan")},
    {"output_times": ["0.0", 0.5]},
    {"model": {"spacing": "1.0"}},
    {"u0": {"kind": "gaussian", "center": None}},
    {"u0": {"kind": "gaussian", "width": [0.8]}},
    {"model": {"interaction": {"kind": "gaussian", "params": {"strength": "1.0"}}}},
    {"model": {"interaction": {"kind": "gaussian", "params": {"range": False}}}},
    {"model": {"interaction": {"kind": "constant", "params": {"c": "0.3"}}}},
    {"model": {"interaction": {"kind": "table", "params": {"values": [1.0, "0.5", 0.5]}}}},
    {"model": {"interaction": {"kind": "table", "params": {"values": "155"}}}},
    {"rate_gate": {"at_time": "0.5"}},
    {"tolerances": {"tangency": "1e-6"}},
    {"tolerances": {"leakage": float("nan")}},
    {"tolerances": {"initial_error": -1e-8}},
    {"tolerances": {"bog_norm_drift": 0}},
    {"tolerances": {"hartree_norm_drift": True}},
    {"model": {"spacing": 0}},
    {"u0": {"kind": "gaussian", "width": 0}},
    {"u0": {"kind": "gaussian", "width": -0.8}},
    {"model": {"interaction": {"kind": "gaussian", "params": {"range": 0}}}},
    {"output_dir": 5},
    {"output_dir": None},
    {"output_dir": ""},
    {"output_times": [0.0, 0.25, 0.25, 0.5]},
])
def test_invalid_configs_rejected(patch):
    doc = json.loads(json.dumps(TINY))
    doc.update(patch)
    with pytest.raises(ValueError):
        ExperimentConfig(doc)


def test_integer_valued_floats_are_accepted_and_recorded_as_given():
    doc = json.loads(json.dumps(TINY))
    doc.update({"T": 1, "output_times": [0, 0.5, 1], "dt_nbody": 1})
    doc["model"]["interaction"] = {"kind": "table", "params": {"values": [1, 0.5, 0.5]}}
    cfg = ExperimentConfig(doc)
    assert cfg.T == 1.0 and isinstance(cfg.T, float)
    assert cfg.output_times == [0.0, 0.5, 1.0] and cfg.dt_nbody == 1.0
    resolved = json.loads(cfg.resolved_json())
    assert resolved["T"] == 1 and isinstance(resolved["T"], int)
    assert resolved["output_times"] == [0, 0.5, 1]


def test_exact_sector_requirement():
    doc = json.loads(json.dumps(TINY))
    doc["n_max"] = 4
    cfg = ExperimentConfig(doc)
    with pytest.raises(ValueError):
        cfg.require_exact_sectors()


def test_interaction_kinds():
    cfg = ExperimentConfig(TINY)
    lat = cfg.lattice()
    doc = json.loads(json.dumps(TINY))
    doc["model"]["interaction"] = {"kind": "zero"}
    assert np.allclose(ExperimentConfig(doc).interaction(lat), 0.0)
    doc["model"]["interaction"] = {"kind": "constant", "params": {"c": 0.3}}
    assert np.allclose(ExperimentConfig(doc).interaction(lat), 0.3)
    doc["model"]["interaction"] = {"kind": "table", "params": {"values": [1.0, 0.5, 0.5]}}
    W = ExperimentConfig(doc).interaction(lat)
    assert np.allclose(np.diag(W), 1.0) and abs(W[0, 1] - 0.5) < 1e-14
    doc["model"]["interaction"] = {"kind": "table", "params": {"values": [1.0, 0.5, 0.4]}}
    with pytest.raises(ValueError):
        ExperimentConfig(doc).interaction(lat)


def test_condensate_and_potential():
    doc = json.loads(json.dumps(TINY))
    doc["u0"] = {"kind": "basis", "index": 1}
    cfg = ExperimentConfig(doc)
    lat = cfg.lattice()
    u = cfg.condensate(lat)
    assert abs(u[1] - 1.0) < 1e-14
    doc["model"]["potential"] = [0.0, 0.5, 0.0]
    cfg = ExperimentConfig(doc)
    h0 = cfg.one_body(lat)
    assert abs(h0[1, 1] - 2.5) < 1e-14


def test_phi0_table_validation():
    doc = json.loads(json.dumps(TINY))
    cfg = ExperimentConfig(doc)
    lat = cfg.lattice()
    u0 = cfg.condensate(lat)
    from bogofluct.fock import enumerate_basis

    basis = enumerate_basis(lat.M, 6)
    # a normalized scalar-plus-one-quantum table orthogonal to the condensate
    v = np.zeros(3, dtype=complex)
    v[0], v[1] = -np.conj(u0[1]), np.conj(u0[0])
    v /= np.linalg.norm(v)
    doc["phi0"] = {"kind": "table", "sectors": {
        "0": [[0.8, 0.0]],
        "1": [[float(x.real), float(x.imag)] for x in 0.6 * v],
    }}
    cfg = ExperimentConfig(doc)
    layers = cfg.excitations(u0, basis)
    assert abs(math.fsum(layers.sector_norms() ** 2) - 1.0) < 1e-12

    doc["phi0"]["sectors"]["1"] = [[float(x.real), float(x.imag)] for x in 0.6 * u0]
    with pytest.raises(ValueError):
        ExperimentConfig(doc).excitations(u0, basis)


# ----------------------------------------------------------------- experiment

def test_run_convergence_tiny_and_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    doc = json.loads(json.dumps(TINY))
    for out in (out1, out2):
        doc["output_dir"] = str(out)
        rep = run_convergence(ExperimentConfig(doc))
        assert rep.passed, (rep.gates, rep.failures)
    for name in ("report.csv", "rates.csv", "fluctuation_diagnostics.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    header = (out1 / "report.csv").read_text().splitlines()[0]
    assert header.startswith("N,time,err_norm")
    verdict = json.loads((out1 / "gates.json").read_text())
    assert verdict["passed"] is True
    assert verdict["diagnostics"]["relative_bound_constant"] > 0.0


def test_initial_error_vanishes_and_errors_grow_from_zero(tmp_path):
    doc = json.loads(json.dumps(TINY))
    doc["output_dir"] = str(tmp_path / "o")
    rep = run_convergence(ExperimentConfig(doc), write=False)
    for row in rep.rows:
        if row["time"] == 0.0:
            assert row["err_norm"] < 1e-8
        else:
            assert row["err_norm"] > 1e-6


def test_trace_distance_chain_inequality(tmp_path):
    # chain bound: the one-particle distance to the condensate is
    # controlled by twice the state error plus the approximant's distance
    from bogofluct.excitation import ExcitationFrame, apply_u_n_star
    from bogofluct.fock import enumerate_basis
    from bogofluct.nbody import reduced_density, trace_distance
    from bogofluct.experiment import _condensate_density

    doc = json.loads(json.dumps(TINY))
    cfg = ExperimentConfig(doc)
    lattice, = [cfg.lattice()]
    h0, W = cfg.one_body(lattice), cfg.interaction(lattice)
    u0 = cfg.condensate(lattice)
    from bogofluct.hartree import solve_hartree
    from bogofluct.nbody import build_hamiltonian, propagate_exact
    from bogofluct.bogoliubov import solve_bogoliubov
    from bogofluct.fock import hartree_block

    basis = enumerate_basis(3, 6)
    traj = solve_hartree(u0, h0, W, cfg.T, cfg.dt_hartree)
    layers = cfg.excitations(u0, basis)
    N = 6
    psi0 = hartree_block(u0, layers, N)
    H = build_hamiltonian(h0, W, N, basis)
    (psi_t,) = propagate_exact(H, psi0, [0.5])
    run = solve_bogoliubov(layers, traj, h0, W, cfg.dt_fock, t_grid=[0.5])
    u_t = traj.interpolate(0.5)
    frame = ExcitationFrame(u_t, N)
    phi_t = run.states[0]
    approx = apply_u_n_star(frame, phi_t, tangency_tol=1e-4)
    approx.amplitudes /= approx.norm()
    lhs = trace_distance(reduced_density(psi_t, 1), _condensate_density(u_t))
    err = np.linalg.norm(psi_t.amplitudes - approx.amplitudes)
    rhs = 2.0 * err + trace_distance(reduced_density(approx, 1), _condensate_density(u_t))
    assert lhs <= rhs + 1e-10


def test_run_single_outputs(tmp_path):
    doc = json.loads(json.dumps(TINY))
    doc["output_dir"] = str(tmp_path / "single")
    series, summary = run_single(ExperimentConfig(doc), 4)
    assert summary["N"] == 4
    assert np.isfinite(summary["gronwall_constant"])
    assert (tmp_path / "single" / "hartree_trajectory.csv").exists()
    assert (tmp_path / "single" / "excitation_series_N4.csv").exists()
    assert (tmp_path / "single" / "fluctuation_diagnostics_N4.csv").exists()
    # odd layers stay empty from a vacuum start; the two-quantum layer fills
    import csv

    with open(tmp_path / "single" / "fluctuation_diagnostics_N4.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert all(float(r["sector_norm_1"]) < 1e-12 for r in rows)
    assert all(float(r["sector_norm_3"]) < 1e-12 for r in rows)
    late = [r for r in rows if float(r["time"]) >= 0.25]
    assert all(float(r["sector_norm_2"]) > 1e-4 for r in late)


# ------------------------------------------------------------------- fit_rate

def test_fit_rate_synthetic_half_power():
    N = np.array([4, 8, 16, 32, 64])
    fit = fit_rate(2.0 * N**-0.5, N)
    assert abs(fit.slope + 0.5) < 1e-12
    assert abs(fit.r_squared - 1.0) < 1e-12


def test_fit_rate_constant_and_degenerate():
    N = [4, 8, 16, 32]
    fit = fit_rate([0.7] * 4, N)
    assert abs(fit.slope) < 1e-12
    fit = fit_rate([0.7, 0.5, 0.0, 0.4], N)
    assert fit.excluded == [16] and fit.n_used == 3
    with pytest.raises(ValueError):
        fit_rate([1.0, 0.0, 0.0, 0.0], N)


# ------------------------------------------------------------------------ CLI

def test_cli_run_and_rate(tmp_path, capsys):
    out = tmp_path / "cliout"
    path = write_config(tmp_path, {"output_dir": str(out)})
    code = main(["run", str(path)])
    text = capsys.readouterr().out
    assert code == 0
    assert "PASS" in text and "rate at t=" in text
    code = main(["rate", str(out / "report.csv"), "--time", "0.5"])
    text = capsys.readouterr().out
    assert code == 0 and "slope=" in text


def test_cli_verify_algebra(capsys):
    code = main(["verify-algebra", "--sizes", "2,2,3"])
    text = capsys.readouterr().out
    assert code == 0
    assert "all identities hold" in text
    # n_max = 3 is too low for the coupled system, and the table says so
    skips = [line for line in text.splitlines() if line.startswith("SKIP")]
    assert len(skips) == 1
    assert "coupled system matches generator" in skips[0]
    assert "[M=2,N=2,n_max=3]" in skips[0] and skips[0].endswith("needs n_max >= 4")


def test_cli_compare_coherent(tmp_path, capsys):
    out = tmp_path / "cohout"
    path = write_config(tmp_path, {"output_dir": str(out)})
    code = main(["compare-coherent", str(path)])
    text = capsys.readouterr().out
    assert code == 0
    assert (out / "coherent_comparison.csv").exists()
    assert "|projected - bare|" in text


def test_cli_run_single(tmp_path, capsys):
    out = tmp_path / "singleout"
    path = write_config(tmp_path, {"output_dir": str(out)})
    code = main(["run-single", str(path), "4"])
    capsys.readouterr()
    assert code == 0


# ------------------------------------------------------- nested keys and gates

@pytest.mark.parametrize("section,patch", [
    ("tolerances", {"tolerances": {"tangancy": 1e-6}}),
    ("model", {"model": {"modez": 3}}),
    ("model.interaction", {"model": {"interaction": {"kind": "zero", "parms": {}}}}),
    ("rate_gate", {"rate_gate": {"band": [-1.0, 0.0], "at_tme": 0.5}}),
])
def test_unknown_nested_keys_rejected(section, patch):
    doc = json.loads(json.dumps(TINY))
    doc.update(patch)
    with pytest.raises(ValueError, match=f"unknown config keys in {section}:"):
        ExperimentConfig(doc)


@pytest.mark.parametrize("patch", [{"rate_gate": True}, {"model": "ring"},
                                   {"model": {"interaction": "zero"}}])
def test_non_object_sections_rejected(patch):
    doc = json.loads(json.dumps(TINY))
    doc.update(patch)
    with pytest.raises(ValueError, match="must be an object"):
        ExperimentConfig(doc)


def test_shipped_configs_load():
    from pathlib import Path

    from bogofluct.config import load_config

    paths = sorted((Path(__file__).parent.parent / "demos" / "configs").glob("*.json"))
    assert paths
    for path in paths:
        load_config(path)


GATE_CASE = {
    "model": {"modes": 3, "spacing": 1.0,
              "interaction": {"kind": "gaussian", "params": {"strength": 1.0, "range": 1.0}}},
    "u0": {"kind": "gaussian", "center": 0.0, "width": 0.8},
    "N_list": [4, 6, 8],
    "n_max": 8,
    "T": 0.2,
    "output_times": [0.0, 0.1, 0.2],
    "dt_hartree": 0.002,
    "dt_fock": 0.002,
    "dt_nbody": 0.1,
}


def test_rate_gate_off_grid_time_rejected():
    # at_time 0.15 used to skip the band gate and let the run pass
    doc = dict(GATE_CASE, rate_gate={"band": [5, 6], "at_time": 0.15})
    with pytest.raises(ValueError, match="at_time"):
        ExperimentConfig(doc)


@pytest.mark.parametrize("at_time,evaluated", [(0.2, True), (0.0, False)])
def test_rate_gate_band_fails_when_missed_or_not_evaluated(tmp_path, at_time, evaluated):
    # no slope is fitted at t = 0, so that band cannot be evaluated
    doc = dict(GATE_CASE, rate_gate={"band": [5, 6], "at_time": at_time},
               output_dir=str(tmp_path / "o"))
    rep = run_convergence(ExperimentConfig(doc))
    assert not rep.passed
    # strict JSON: NaN or Infinity anywhere would raise here
    verdict = json.loads((tmp_path / "o" / "gates.json").read_text(),
                         parse_constant=lambda c: pytest.fail(f"non-JSON constant {c}"))
    assert verdict["passed"] is False
    (gate,) = [g for g in verdict["gates"] if g["name"] == "rate_slope_in_band"]
    assert gate["ok"] is False
    assert (gate["value"] is not None) == evaluated


def test_a_failing_run_still_evaluates_every_rate_gate(tmp_path):
    # a failed tangency gate used to leave both rate gates out of gates.json
    doc = dict(GATE_CASE, rate_gate={"band": [-10, 10], "require_monotone": True, "at_time": 0.2},
               tolerances={"tangency": 1e-15}, output_dir=str(tmp_path / "o"))
    rep = run_convergence(ExperimentConfig(doc))
    verdict = json.loads((tmp_path / "o" / "gates.json").read_text())
    ok = {g["name"]: g["ok"] for g in verdict["gates"]}
    assert ok["tangency"] is False and ok["rate_slope_in_band"] is True
    assert "err_monotone_decreasing" in ok
    assert verdict["passed"] is False and not rep.passed


def test_dt_nbody_is_accepted_and_inert(tmp_path):
    # the exact propagation takes one series per output interval, so the
    # step key changes no output byte; it goes when load refuses the key
    outputs = []
    for dt in (0.05, 1.0):
        out = tmp_path / f"dt{dt}"
        run_convergence(ExperimentConfig(dict(GATE_CASE, dt_nbody=dt, output_dir=str(out))))
        outputs.append([(out / name).read_bytes() for name in ("report.csv", "rates.csv", "gates.json")])
    assert outputs[0] == outputs[1]


def test_cli_reports_unevaluated_rate_gate(tmp_path, capsys):
    doc = dict(GATE_CASE, rate_gate={"band": [5, 6], "at_time": 0.0},
               output_dir=str(tmp_path / "o"))
    path = tmp_path / "gate.json"
    path.write_text(json.dumps(doc))
    code = main(["run", str(path)])
    text = capsys.readouterr().out
    assert code == 1
    assert "FAIL  rate_slope_in_band" in text and "value=none" in text


def test_phi0_table_orthogonality_bound_matches_the_block_builder():
    # a defect of 5e-9 used to load, then fail hartree_block at every N
    from bogofluct.fock import ORTH_TOL, enumerate_basis, hartree_block

    doc = json.loads(json.dumps(TINY))
    cfg = ExperimentConfig(doc)
    u0 = cfg.condensate(cfg.lattice())
    basis = enumerate_basis(3, 6)
    v = np.array([-np.conj(u0[1]), np.conj(u0[0]), 0.0])
    v /= np.linalg.norm(v)
    for eps, loads in [(0.5 * ORTH_TOL, True), (5e-9, False)]:
        layer1 = 0.3 * v + eps * u0
        doc["phi0"] = {"kind": "table", "sectors": {
            "0": [[float(np.sqrt(1.0 - 0.09)), 0.0]],
            "1": [[float(x.real), float(x.imag)] for x in layer1],
        }}
        if loads:
            layers = ExperimentConfig(doc).excitations(u0, basis)
            assert hartree_block(u0, layers, 4).n == 4
        else:
            with pytest.raises(ValueError, match="orthogonal"):
                ExperimentConfig(doc).excitations(u0, basis)


def test_phi0_table_is_refused_when_only_its_highest_layer_is_not_orthogonal():
    from bogofluct.fock import enumerate_basis

    doc = json.loads(json.dumps(TINY))
    cfg = ExperimentConfig(doc)
    u0 = cfg.condensate(cfg.lattice())
    basis = enumerate_basis(3, 6)
    v = np.array([-np.conj(u0[1]), np.conj(u0[0]), 0.0])
    v /= np.linalg.norm(v)
    layer2 = np.random.default_rng(27).normal(size=basis.sector_dim(2))
    layer2 *= 0.3 / np.linalg.norm(layer2)
    doc["phi0"] = {"kind": "table", "sectors": {
        "0": [[float(np.sqrt(1.0 - 0.18)), 0.0]],
        "1": [[float(x.real), float(x.imag)] for x in 0.3 * v],
        "2": [[float(x), 0.0] for x in layer2],
    }}
    with pytest.raises(ValueError, match="phi_2 is not orthogonal"):
        ExperimentConfig(doc).excitations(u0, basis)
    # without that layer the table loads
    del doc["phi0"]["sectors"]["2"]
    doc["phi0"]["sectors"]["0"] = [[float(np.sqrt(1.0 - 0.09)), 0.0]]
    layers = ExperimentConfig(doc).excitations(u0, basis)
    assert layers.basis is basis and not np.any(layers.sector(2))


def test_excitations_write_each_table_sector_into_one_fock_vector():
    from bogofluct.fock import FockVector, enumerate_basis, sector_lowerings

    doc = json.loads(json.dumps(TINY))
    cfg = ExperimentConfig(doc)
    u0 = cfg.condensate(cfg.lattice())
    basis = enumerate_basis(3, 6)
    v = np.array([-np.conj(u0[1]), np.conj(u0[0]), 0.0])
    v /= np.linalg.norm(v)
    _, up = sector_lowerings(v, basis, 2)
    pair = up[2] @ v  # a^dag(v)^2 vac, which a(u0) annihilates
    table = [np.array([0.6 + 0j]), 0.48 * v, 0.64 * pair / np.linalg.norm(pair)]
    doc["phi0"] = {"kind": "table", "sectors": {
        str(n): [[float(x.real), float(x.imag)] for x in rows] for n, rows in enumerate(table)}}
    layers = ExperimentConfig(doc).excitations(u0, basis)
    assert isinstance(layers, FockVector) and layers.basis is basis
    for n, rows in enumerate(table):
        assert np.array_equal(layers.sector(n), rows)
    assert not np.any(layers.amplitudes[basis.sector_offsets[3]:])
    assert abs(layers.norm() - 1.0) < 1e-12


@pytest.mark.parametrize("error", [RuntimeError, KrylovError])
def test_numerical_failure_is_filed_for_its_n(monkeypatch, error):
    # a middle, the largest and every N failing: each failure is filed for
    # its N alone, the other N keep their rows unchanged, the map's one fill
    # of a(u_t) per output time reaches the largest surviving N, and with no
    # survivor no map is built
    import bogofluct.excitation as excitation
    import bogofluct.experiment as experiment

    cfg = ExperimentConfig(GATE_CASE)
    whole = {(r["N"], r["time"]): r for r in run_convergence(cfg, write=False).rows}
    exact = experiment.propagate_exact
    fill = excitation.sector_lowerings
    for failing in ((6,), (8,), (4, 6, 8)):
        tops = []

        def failing_n(H, psi0, times, **kwargs):
            if psi0.n in failing:
                raise error("norm budget exceeded")
            return exact(H, psi0, times, **kwargs)

        def recorded_fill(u, basis, top):
            tops.append(top)
            return fill(u, basis, top)

        monkeypatch.setattr(experiment, "propagate_exact", failing_n)
        monkeypatch.setattr(excitation, "sector_lowerings", recorded_fill)
        rep = run_convergence(cfg, write=False)
        survivors = [N for N in GATE_CASE["N_list"] if N not in failing]
        assert list(rep.failures) == list(failing)
        assert set(rep.failures.values()) == {f"{error.__name__}: norm budget exceeded"}
        assert not rep.passed
        assert [(r["N"], r["time"]) for r in rep.rows] == [
            (N, t) for N in survivors for t in GATE_CASE["output_times"]
        ]
        for row in rep.rows:
            assert repr(row) == repr(whole[row["N"], row["time"]])
        assert tops == ([max(survivors)] * len(GATE_CASE["output_times"]) if survivors else [])


@pytest.mark.parametrize("name", ["desk_convergence", "desk_table_start"])
def test_time_major_comparison_matches_the_per_pair_loop(name):
    # every N is mapped at an output time in one pass; each report column is
    # the per-(N, t) loop's bit for bit, but the energy form, which sums its
    # Gram matrix over row chunks; desk_table_start has an odd layer
    from pathlib import Path

    from oracles import per_pair_rows

    from bogofluct.config import load_config
    from bogofluct.experiment import REPORT_COLUMNS

    cfg = load_config(Path(__file__).parent.parent / "demos" / "configs" / f"{name}.json")
    got, want = run_convergence(cfg, write=False).rows, per_pair_rows(cfg)
    assert [(r["N"], r["time"]) for r in got] == [(r["N"], r["time"]) for r in want]
    for g, w in zip(got, want):
        assert abs(g["err_energy_form"] - w["err_energy_form"]) <= 1e-12 * abs(w["err_energy_form"])
        assert [repr(g[c]) for c in REPORT_COLUMNS if c != "err_energy_form"] == [
            repr(w[c]) for c in REPORT_COLUMNS if c != "err_energy_form"]


def test_programming_error_propagates_out_of_the_n_loop(monkeypatch):
    import bogofluct.experiment as experiment

    def broken(H, psi0, times, **kwargs):
        raise TypeError("bad argument")

    monkeypatch.setattr(experiment, "propagate_exact", broken)
    with pytest.raises(TypeError, match="bad argument"):
        run_convergence(ExperimentConfig(GATE_CASE), write=False)


def test_gronwall_constant_fits_the_growth_after_t0():
    from pathlib import Path

    from bogofluct.config import load_config

    cfg = load_config(Path(__file__).parent.parent / "demos" / "configs" / "desk_convergence.json")
    series, summary = run_single(cfg, 6, write=False)
    c = summary["gronwall_constant"]
    # at t = 0 the ratio is 1, which used to hold the constant at 1 - 1e-12
    assert c < 0.99
    base = series[0]["expect_Nplus_plus1"]
    for row in series[1:]:
        assert row["time"] > 0
        assert row["expect_Nplus_plus1"] / base <= c * np.exp(c * row["time"]) + 1e-12


def test_vacuum_run_never_builds_the_quadratic_pattern(monkeypatch):
    # every operator of a vacuum-start run acts on sector blocks or through
    # the raising table; the full band-(-2, 0, 2) pattern is not built
    from pathlib import Path

    from bogofluct.config import load_config
    from bogofluct.fock import OccupationBasis

    def refuse(self):
        raise AssertionError("quadratic_pattern() built on the run path")

    monkeypatch.setattr(OccupationBasis, "quadratic_pattern", refuse)
    cfg = load_config(Path(__file__).parent.parent / "demos" / "configs" / "desk_convergence.json")
    rep = run_convergence(cfg, write=False)
    assert rep.passed and not rep.failures
    assert len(rep.rows) == len(cfg.N_list) * len(cfg.output_times)


def test_gronwall_constant_refuses_a_ratio_with_no_finite_constant():
    from bogofluct.experiment import _gronwall_constant

    assert _gronwall_constant([0.0, 0.5], [1.0, 1.0]) < 1.0
    with pytest.raises(RuntimeError, match="finite"):
        _gronwall_constant([0.0, 0.5], [1.0, float("inf")])


@pytest.mark.parametrize("section,patch", [
    ("u0", {"u0": {"kind": "gaussian", "widht": 2}}),
    ("model.interaction.params", {"model": {"interaction": {
        "kind": "gaussian", "params": {"strength": 0.5, "rnage": 3}}}}),
    ("phi0", {"phi0": {"kind": "vacuum", "sector": {}}}),
])
def test_typos_in_kind_sections_rejected(section, patch):
    doc = json.loads(json.dumps(TINY))
    doc.update(patch)
    with pytest.raises(ValueError, match=f"unknown config keys in {section}:"):
        ExperimentConfig(doc)


@pytest.mark.parametrize("band", [5, [0.5], [-0.3, -0.7], [-0.7, float("nan")],
                                  [-0.7, float("inf")], ["-0.7", -0.3], [True, 2],
                                  [-0.7, False]])
def test_malformed_rate_band_rejected_at_load(band):
    # a band that is not two finite numbers lo <= hi used to load and fail
    # only after the whole run
    doc = json.loads(json.dumps(TINY))
    doc["rate_gate"] = {"band": band, "at_time": 0.5}
    with pytest.raises(ValueError, match="rate_gate.band"):
        ExperimentConfig(doc)


def test_table_condensate_and_point_band_still_load():
    # u0 keys of a kind other than the default's, and a band with lo == hi
    doc = json.loads(json.dumps(TINY))
    doc["u0"] = {"kind": "table", "re": [1.0, 0.0, 0.0], "im": [0.0, 0.0, 0.0]}
    doc["rate_gate"] = {"band": [-1, -1]}
    cfg = ExperimentConfig(doc)
    assert np.array_equal(cfg.condensate(cfg.lattice()), [1.0, 0.0, 0.0])


@pytest.mark.parametrize("section,value,match", [
    ("u0", {"kind": "basis", "index": 1.7}, "u0.index"),
    ("u0", {"kind": "basis", "index": "1"}, "u0.index"),
    ("u0", {"kind": "basis", "index": True}, "u0.index"),
    ("u0", {"kind": "basis", "index": 3}, "u0.index"),
    ("u0", {"kind": "basis", "index": 99}, "u0.index"),
    ("u0", {"kind": "basis", "index": -1}, "u0.index"),
    ("u0", {"kind": "table", "re": [1.0, "0", 0.0]}, "u0.re"),
    ("u0", {"kind": "table", "re": [True, False, False]}, "u0.re"),
    ("u0", {"kind": "table", "re": 1.0}, "u0.re"),
    ("u0", {"kind": "table", "re": [1.0, 0.0, 0.0], "im": [0.0, float("nan"), 0.0]}, "u0.im"),
    ("model", {"potential": [0.0, "0.5", 0.0]}, "model.potential"),
    ("model", {"potential": [False, True, False]}, "model.potential"),
    ("model", {"potential": [0.0, float("nan"), 0.0]}, "model.potential"),
    ("model", {"potential": 0.5}, "model.potential"),
    ("phi0", {"kind": "table", "sectors": [[[1.0, 0.0]]]}, "phi0.sectors"),
    ("phi0", {"kind": "table", "sectors": {"0": [["1", 0.0]]}}, "phi0.sectors"),
    ("phi0", {"kind": "table", "sectors": {"0": [[True, False]]}}, "phi0.sectors"),
    ("phi0", {"kind": "table", "sectors": {"0": [[1.0, float("inf")]]}}, "phi0.sectors"),
    ("phi0", {"kind": "table", "sectors": {"0": [[1.0, 0.0, 0.0]]}}, "phi0.sectors"),
    ("phi0", {"kind": "table", "sectors": {"0": [1.0, 0.0]}}, "phi0.sectors"),
    ("phi0", {"kind": "table", "sectors": {"x": [[1.0, 0.0]]}}, "phi0.sectors"),
    ("phi0", {"kind": "table", "sectors": {"01": [[1.0, 0.0]]}}, "phi0.sectors"),
    ("phi0", {"kind": "table", "sectors": {"-1": [[1.0, 0.0]]}}, "phi0.sectors"),
    ("u0", {"kind": "table", "re": [1.0, 0.0]}, "u0.re"),
    ("u0", {"kind": "table", "re": [1.0, 0.0, 0.0, 0.0]}, "u0.re"),
    ("u0", {"kind": "table", "re": [1.0, 0.0, 0.0], "im": [0.0, 0.0]}, "u0.im"),
    ("phi0", {"kind": "table", "sectors": {"1": [[1.0, 0.0]]}}, "phi0.sectors"),
    ("phi0", {"kind": "table", "sectors": {"0": []}}, "phi0.sectors"),
    ("model", {"modes": 1}, "model.modes"),
    ("model", {"modes": 0}, "model.modes"),
])
def test_condensate_and_excitation_tables_checked_at_load(section, value, match):
    # each of these used to load and then select the wrong mode or sector,
    # or fail only when the run read the table; a u0 or phi0 section is set
    # whole, since TINY's gaussian u0 keys are refused in another kind
    doc = json.loads(json.dumps(TINY))
    doc[section] = dict(doc[section], **value) if section == "model" else value
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(doc)


@pytest.mark.parametrize("patch,match", [
    ({"u0": {"kind": "gausian"}}, "unknown u0 kind 'gausian'"),
    ({"u0": {"kind": "basis"}}, "u0 kind 'basis' needs index"),
    ({"u0": {"kind": "table"}}, "u0 kind 'table' needs re"),
    ({"phi0": {"kind": "tabel"}}, "unknown phi0 kind 'tabel'"),
    ({"phi0": {"kind": "table"}}, "phi0 kind 'table' needs sectors"),
    ({"phi0": {"kind": "table", "sectors": {"8": [[1.0, 0.0]]}}},
     "phi0.sectors key '8' lies above n_max=7"),
    ({"model": {"interaction": {"kind": "contant"}}}, "unknown model.interaction kind"),
    ({"model": {"interaction": {"kind": "constant"}}}, "model.interaction kind 'constant' needs c"),
    ({"model": {"interaction": {"kind": "table"}}}, "model.interaction kind 'table' needs values"),
    ({"u0": {"kind": "table", "re": [1.0, 0.0, 0.0], "width": 5.0}},
     "u0 kind 'table' does not read width"),
    ({"u0": {"kind": "basis", "index": 1, "center": 0.0}}, "u0 kind 'basis' does not read center"),
    ({"model": {"interaction": {"kind": "gaussian", "params": {"strength": 1.0, "c": 9}}}},
     "model.interaction kind 'gaussian' does not read c"),
    ({"model": {"interaction": {"kind": "constant", "params": {"c": 0.3, "range": 1.0}}}},
     "model.interaction kind 'constant' does not read range"),
], ids=["u0 kind", "u0 index", "u0 re", "phi0 kind", "phi0 sectors", "sector above n_max",
        "interaction kind", "interaction c", "interaction values", "u0 table width",
        "u0 basis center", "gaussian c", "constant range"])
def test_config_kinds_and_their_keys_checked_at_load(patch, match):
    # each of these used to load and fail only when the run read the section,
    # most of them with a bare KeyError, or load with a key the kind ignores
    doc = json.loads(json.dumps(TINY))
    for section, value in patch.items():
        if section == "model":
            doc["model"]["interaction"] = value["interaction"]
        else:
            doc[section] = value
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(doc)


def test_a_section_of_another_kind_resolves_to_its_own_keys():
    # the default kind's keys used to be carried into every kind, so a basis
    # u0 recorded a center and a width, and a constant interaction a strength
    doc = json.loads(json.dumps(TINY))
    doc["u0"] = {"kind": "basis", "index": 1}
    for interaction in ({"kind": "constant", "params": {"c": 0.3}}, {"kind": "zero"}):
        doc["model"]["interaction"] = interaction
        resolved = json.loads(ExperimentConfig(doc).resolved_json())
        assert resolved["model"]["interaction"] == interaction
        assert resolved["u0"] == {"kind": "basis", "index": 1}


def test_last_basis_mode_and_integer_tables_load():
    doc = json.loads(json.dumps(TINY))
    doc["u0"] = {"kind": "basis", "index": 2}
    doc["model"]["potential"] = [0, 1, 0]
    doc["phi0"] = {"kind": "table", "sectors": {"0": [[1, 0]]}}
    cfg = ExperimentConfig(doc)
    lat = cfg.lattice()
    u0 = cfg.condensate(lat)
    assert np.array_equal(u0, [0.0, 0.0, 1.0])
    assert cfg.one_body(lat)[1, 1] == 3.0
    from bogofluct.fock import enumerate_basis

    layers = cfg.excitations(u0, enumerate_basis(3, 4))
    assert layers.amplitudes.tolist() == [1.0] + [0.0] * (layers.basis.size - 1)


@pytest.mark.parametrize("flag", ["false", 1, 0, None, [True]])
def test_non_boolean_require_monotone_rejected(flag):
    # a non-empty string would read as true and switch the monotonicity gate on
    doc = json.loads(json.dumps(TINY))
    doc["rate_gate"] = {"band": [-0.7, -0.3], "require_monotone": flag}
    with pytest.raises(ValueError, match="rate_gate.require_monotone"):
        ExperimentConfig(doc)


@pytest.mark.parametrize("flag", [True, False])
def test_boolean_require_monotone_loads(flag):
    doc = json.loads(json.dumps(TINY))
    doc["rate_gate"] = {"band": [-0.7, -0.3], "require_monotone": flag}
    assert ExperimentConfig(doc).rate_gate["require_monotone"] is flag


@pytest.mark.parametrize("token", ["2,3", "2,5,3", "2,1,3"],
                         ids=["three integers", "N at most n_max", "two particles"])
def test_cli_verify_refuses_a_bad_size(token, capsys):
    # a bad --sizes token is a usage error from the parser, not a traceback
    # from inside the identity suite
    with pytest.raises(SystemExit) as exc:
        main(["verify-algebra", "--sizes", "2,2,3", token])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --sizes" in err and repr(token) in err


@pytest.mark.parametrize("patch,match", [
    ({"model": {"potential": [0.0, 0.5]}}, "model.potential"),
    ({"model": {"interaction": {"kind": "table", "params": {"values": [1.0, 0.5]}}}},
     "model.interaction.params.values"),
    ({"model": {"interaction": {"kind": "table", "params": {"values": [1.0, 0.5, 0.4]}}}},
     "not even under reflection"),
    ({"u0": {"kind": "table", "re": [0.6, 0.6, 0.6]}}, "normalized"),
    ({"u0": {"kind": "table", "re": [0.6, 0.0, 0.0], "im": [0.0, 0.8, 0.1]}}, "normalized"),
    ({"phi0": {"kind": "table", "sectors": {"0": [[0.9, 0.0]]}}}, "total weight"),
    ({"phi0": {"kind": "table", "sectors": {"0": [[0.8, 0.0]], "1": [[0.6, 0.0]] * 3}}},
     "total weight"),
], ids=["potential length", "interaction table length", "interaction table not even",
        "u0 table norm", "u0 table norm with im", "phi0 weight", "phi0 weight over sectors"])
def test_every_document_check_runs_at_load(patch, match):
    # each of these used to load and fail only when a builder ran, after the
    # load; now the document alone refuses it
    doc = json.loads(json.dumps(TINY))
    for section, value in patch.items():
        doc[section] = dict(doc[section], **value) if section == "model" else value
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(doc)


def _key_paths(tree, prefix=""):
    # every key at every depth, phi0.sectors counted as one value
    for key, value in tree.items():
        yield prefix + key
        if isinstance(value, dict) and prefix + key != "phi0.sectors":
            yield from _key_paths(value, prefix + key + ".")


def test_every_default_has_a_check_and_every_check_a_reachable_key():
    from bogofluct.config import CHECKS, DEFAULTS

    checked = set(_key_paths(CHECKS))
    assert set(_key_paths(DEFAULTS)) <= checked
    # documents that load and, between them, set every key a kind can read
    doc = json.loads(json.dumps(TINY))
    doc["model"]["potential"] = [0.0, 0.5, 0.0]
    doc["model"]["interaction"] = {"kind": "table", "params": {"values": [1.0, 0.5, 0.5]}}
    doc["u0"] = {"kind": "table", "re": [1.0, 0.0, 0.0], "im": [0.0, 0.0, 0.0]}
    doc["phi0"] = {"kind": "table", "sectors": {"0": [[1.0, 0.0]]}}
    doc["rate_gate"] = {"band": [-0.7, -0.3], "require_monotone": True, "at_time": 0.5}
    other = json.loads(json.dumps(TINY))
    other["model"]["interaction"] = {"kind": "constant", "params": {"c": 0.3}}
    other["u0"] = {"kind": "basis", "index": 1}
    reached = set()
    for raw in (doc, other, TINY):
        reached |= set(_key_paths(ExperimentConfig(raw).raw))
    assert checked == reached


@pytest.mark.parametrize("command", [["run", "CONFIG"], ["run-single", "CONFIG", "4"],
                                     ["compare-coherent", "CONFIG"]])
@pytest.mark.parametrize("text,match", [
    ('{"nmax": 4}', "unknown config keys"),
    ('{"T": ', "Expecting value"),
    (None, "No such file"),
], ids=["typo", "not JSON", "no file"])
def test_cli_refuses_a_config_that_does_not_load(tmp_path, capsys, command, text, match):
    # a refused config is a usage error (exit 2), not a traceback with the
    # exit code of a failed gate
    path = tmp_path / "cfg.json"
    if text is not None:
        path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main([str(path) if arg == "CONFIG" else arg for arg in command])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    (line,) = [line for line in err.splitlines() if "error:" in line]
    assert "argument config" in line and match in line


@pytest.mark.parametrize("N", ["1", "8"])
def test_cli_run_single_refuses_an_N_outside_2_to_n_max(tmp_path, capsys, monkeypatch, N):
    # TINY has n_max = 7: N = 1 has no mean-field coupling 1/(N - 1) and N = 8
    # no exact sector; either is a usage error, before any solve
    from bogofluct import experiment

    def no_solve(*args, **kwargs):
        raise AssertionError("run-single solved before checking N")

    monkeypatch.setattr(experiment, "solve_hartree", no_solve)
    with pytest.raises(SystemExit) as exc:
        main(["run-single", str(write_config(tmp_path)), N])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    (line,) = [line for line in err.splitlines() if "error:" in line]
    assert "argument N" in line and "2..n_max = 7" in line


@pytest.mark.parametrize("name,match", [("missing.csv", "No such file"),
                                        (".", "Is a directory")])
def test_cli_rate_refuses_a_report_that_does_not_read(tmp_path, capsys, name, match):
    # an unreadable report is a usage error (exit 2), not a traceback with the
    # exit code of a failed fit
    with pytest.raises(SystemExit) as exc:
        main(["rate", str(tmp_path / name)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    (line,) = [line for line in err.splitlines() if "error:" in line]
    assert "argument report" in line and match in line


@pytest.mark.parametrize("text,match", [("a,b\n1,2\n", "no column N, err_norm, time"),
                                        ("N,time,err_norm\n6,0.5,abc\n", "'abc'"),
                                        ("N,time,err_norm\n6,0.5\n", "convert")])
def test_cli_rate_refuses_a_file_that_is_not_a_report(tmp_path, capsys, text, match):
    path = tmp_path / "report.csv"
    path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["rate", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    (line,) = [line for line in err.splitlines() if "error:" in line]
    assert "argument report" in line and match in line


def test_cli_lets_errors_raised_during_the_run_propagate(tmp_path, monkeypatch):
    import bogofluct.cli as cli

    def broken(cfg):
        raise ValueError("raised inside the run")

    monkeypatch.setattr(cli, "run_convergence", broken)
    with pytest.raises(ValueError, match="raised inside the run"):
        main(["run", str(write_config(tmp_path))])
