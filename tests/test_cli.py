"""End-to-end command pipeline: config validation, exit codes, files.

Each test drives ``cli.main`` with a JSON scenario in a temp directory
and inspects the persisted documents.  Exit codes are part of the
scripting contract: 0 ok, 2 config, 3 steerability, 4 solver,
5 certification.
"""

import json
import math
import subprocess
import sys
from dataclasses import asdict, replace

import numpy as np
import pytest

from pidestab import cli, riccati, simulate
from pidestab.cli import scenario_from_dict
from pidestab.exceptions import ConfigError
from test_serialize import per_cell_csv, reference_dumps

INV_PI_SQ = 1.0 / math.pi ** 2
OPEN_LOOP_RATE = (5.0 - math.sqrt(5.0)) / 2.0


def write_config(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def headline_config(tmp_path, out, name="scenario.json", **overrides):
    doc = {
        "spectrum": {"kind": "dirichlet_1d", "scale": INV_PI_SQ,
                     "n_modes": 16},
        "kernel": {"b": 1.0, "delta": 4.0},
        "gamma": 2.0,
        "alpha": 0.5,
        "out": str(out),
    }
    doc.update(overrides)
    return write_config(tmp_path, doc, name=name)


def square_config(tmp_path, out, count, **overrides):
    doc = {
        "spectrum": {"kind": "square_2d", "scale": 0.025, "n_modes": 6},
        "kernel": {"b": 1.0, "delta": 4.0},
        "gamma": 2.0,
        "actuators": {"kind": "default", "count": count},
        "out": str(out),
    }
    doc.update(overrides)
    return write_config(tmp_path, doc, name=f"square_m{count}.json")


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# scenario parsing


def test_scenario_validation_errors():
    base = {"spectrum": {"kind": "dirichlet_1d", "n_modes": 4},
            "kernel": {"b": 1.0, "delta": 1.0}, "gamma": 0.5}
    for mutate in [
            lambda d: d.pop("spectrum"),
            lambda d: d["spectrum"].update(kind="triangular"),
            lambda d: d["spectrum"].update(n_modes=0),
            lambda d: d.pop("kernel"),
            lambda d: d.update(fluid={"model": "oldroyd"}),
            lambda d: d.update(gamma=-1.0),
            lambda d: d.update(gamma="fast"),
            lambda d: d["kernel"].update(delta=0.0),
            lambda d: d.update(truncation_k=0),
            lambda d: d.update(actuators={"kind": "piezo"}),
            lambda d: d.update(y0="ones"),
            lambda d: d.update(step=-0.1),
            lambda d: d.update(forcing={"kind": "ramp"})]:
        doc = json.loads(json.dumps(base))
        mutate(doc)
        with pytest.raises(ConfigError):
            scenario_from_dict(doc)


def test_scenario_defaults():
    sc = scenario_from_dict({
        "spectrum": {"kind": "user", "values": [1.0, 2.0]},
        "kernel": {"b": 1.0, "delta": 1.0}, "gamma": 0.5})
    assert sc.alpha == 0.5
    assert sc.out == "out"
    assert sc.seed == 0
    assert sc.actuators == {"kind": "default"}
    assert sc.spectrum["n_modes"] == 2


def test_missing_or_broken_config_file(tmp_path):
    assert cli.main(["analyze", "--config",
                     str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["analyze", "--config", str(bad)]) == 2


def test_missing_config_flag_is_a_usage_error():
    with pytest.raises(SystemExit):
        cli.main(["analyze"])


def test_consecutive_main_calls_parse_independently(tmp_path, monkeypatch):
    seen = []
    for name in ("analyze", "synthesize", "simulate", "certify"):
        monkeypatch.setattr(
            cli, f"cmd_{name}",
            lambda sc, controller=None, name=name:
                seen.append((name, asdict(sc), controller)))
    cfg = headline_config(tmp_path, tmp_path / "base")
    base = cli.load_scenario(cfg)
    runs = [
        (["synthesize", "--out", "a", "--horizon", "3"],
         "synthesize", replace(base, out="a", horizon=3.0), None),
        (["certify", "--controller", "c.json"], "certify", base, "c.json"),
        (["simulate", "--horizon", "5"],
         "simulate", replace(base, t_max=5.0), None),
        (["simulate", "--out", "b"], "simulate", replace(base, out="b"),
         None),
        (["analyze"], "analyze", base, None),
    ]
    for argv, name, scenario, controller in runs:
        assert cli.main(argv[:1] + ["--config", cfg] + argv[1:]) == 0
        assert seen.pop() == (name, asdict(scenario), controller)
    assert cli.build_parser() is cli.build_parser()


# ---------------------------------------------------------------------------
# analyze


def test_analyze_normalized_scenario(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "spectrum": {"kind": "dirichlet_1d", "scale": INV_PI_SQ,
                     "n_modes": 8},
        "kernel": {"b": 1.0, "delta": 1.0},
        "gamma": 1.9,
        "out": str(out)})
    assert cli.main(["analyze", "--config", cfg]) == 0
    report = read_json(out / "analysis.json")
    assert report["omega0"] == pytest.approx(2.0, rel=1e-12)
    assert report["partition"]["n"] == 1
    assert report["modes"][0]["lambda"] == pytest.approx(1.0, rel=1e-12)
    assert "omega0 = 2" in capsys.readouterr().out


def test_analyze_square_multiplicity(tmp_path):
    out = tmp_path / "out"
    cfg = square_config(tmp_path, out, count=2)
    assert cli.main(["analyze", "--config", cfg]) == 0
    report = read_json(out / "analysis.json")
    mults = [m["multiplicity"] for m in report["modes"]]
    assert mults == [1, 2, 1, 2]
    assert report["partition"]["m_max"] == 2
    assert report["partition"]["n"] == 3


def test_analyze_gamma_at_growth_bound(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "spectrum": {"kind": "dirichlet_1d", "scale": INV_PI_SQ,
                     "n_modes": 4},
        "kernel": {"b": 1.0, "delta": 1.0},
        "gamma": 2.0,
        "out": str(tmp_path / "out")})
    assert cli.main(["analyze", "--config", cfg]) == 2
    assert "GammaOutOfRangeError" in capsys.readouterr().err


def test_analyze_degenerate_writes_report_then_fails(tmp_path, capsys):
    # the double root at lam = 3 - 2 sqrt(2) (b = delta = 1) blocks
    # synthesis; analyze writes what it found, then exits 2
    doc = {
        "spectrum": {"kind": "user", "values": [3.0 - 2.0 * math.sqrt(2.0)]},
        "kernel": {"b": 1.0, "delta": 1.0},
        "gamma": 0.7,
        "out": str(tmp_path / "out")}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["analyze", "--config", cfg]) == 2
    assert "DegenerateSpectrumError" in capsys.readouterr().err
    written = (tmp_path / "out" / "analysis.json").read_bytes()
    report = json.loads(written)
    assert [d["kind"] for d in report["degeneracies"]] == ["double_root"]
    assert len(report["modes"]) == 1
    assert report["partition"]["n"] == 1
    # allowing the degeneracy changes the exit code, not the report
    allowed = write_config(tmp_path, dict(doc, allow_degenerate=True),
                           name="allowed.json")
    assert cli.main(["analyze", "--config", allowed]) == 0
    assert (tmp_path / "out" / "analysis.json").read_bytes() == written


# ---------------------------------------------------------------------------
# synthesize


def test_synthesize_underactuated_square_fails_rank(tmp_path, capsys):
    out = tmp_path / "m1"
    cfg = square_config(tmp_path, out, count=1)
    assert cli.main(["synthesize", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "RankConditionError" in err
    assert "cluster" in err


def test_synthesize_square_with_two_actuators(tmp_path):
    out = tmp_path / "m2"
    cfg = square_config(tmp_path, out, count=2)
    assert cli.main(["synthesize", "--config", cfg]) == 0
    assert (out / "controller.json").exists()
    assert (out / "null_control.csv").exists()
    report = read_json(out / "synthesis.json")
    assert all(entry["ok"] for entry in report["rank"])
    assert report["kalman_ok"] is True
    assert report["partition"]["m_max"] == 2
    assert report["null_control"]["terminal_error"] <= 1e-6
    assert report["riccati"]["residual"] <= 1e-8


def test_synthesize_headline_controller(tmp_path):
    out = tmp_path / "out"
    cfg = headline_config(tmp_path, out)
    assert cli.main(["synthesize", "--config", cfg]) == 0
    doc = read_json(out / "controller.json")
    assert doc["truncation_k"] == 16
    assert doc["gamma"] == 2.0
    assert float(doc["residual"]) <= 1e-8
    assert "raw_residual" not in doc and "newton_steps" not in doc
    riccati = read_json(out / "synthesis.json")["riccati"]
    assert riccati["raw_residual"] >= riccati["residual"]
    assert riccati["newton_steps"] == 0


def test_synthesize_defective_scenario_takes_jordan_path(tmp_path):
    # an exact double root (lam = 3 - 2 sqrt(2) at b = delta = 1) makes
    # the companion block non-diagonalizable; metadata must say so
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "spectrum": {"kind": "user", "values": [3.0 - 2.0 * math.sqrt(2.0)]},
        "kernel": {"b": 1.0, "delta": 1.0},
        "gamma": 0.7,
        "allow_degenerate": True,
        "out": str(out)})
    assert cli.main(["synthesize", "--config", cfg]) == 0
    report = read_json(out / "synthesis.json")
    assert report["transform"]["jordan_path"] is True
    assert report["transform"]["semisimple"] is False


def test_synthesize_degenerate_without_override_is_config_error(tmp_path,
                                                                capsys):
    cfg = write_config(tmp_path, {
        "spectrum": {"kind": "user", "values": [3.0 - 2.0 * math.sqrt(2.0)]},
        "kernel": {"b": 1.0, "delta": 1.0},
        "gamma": 0.7,
        "out": str(tmp_path / "out")})
    assert cli.main(["synthesize", "--config", cfg]) == 2
    assert "DegenerateSpectrumError" in capsys.readouterr().err


def test_synthesize_tiny_horizon_is_a_solver_failure(tmp_path, capsys):
    out = tmp_path / "m2"
    cfg = square_config(tmp_path, out, count=2)
    assert cli.main(["synthesize", "--config", cfg,
                     "--horizon", "0.01"]) == 4
    assert "HorizonTooSmallError" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate


def test_simulate_open_loop_rate(tmp_path):
    out = tmp_path / "out"
    cfg = headline_config(tmp_path, out)
    assert cli.main(["simulate", "--config", cfg]) == 0
    run = read_json(out / "run.json")
    assert run["mode"] == "open_loop"
    assert run["fit"]["rate"] == pytest.approx(OPEN_LOOP_RATE, rel=0.02)
    assert (out / "trajectory.csv").exists()
    assert (out / "decay_curve.csv").exists()


def test_simulate_closed_loop_and_certify(tmp_path):
    out = tmp_path / "out"
    cfg = headline_config(tmp_path, out)
    assert cli.main(["synthesize", "--config", cfg]) == 0
    ctrl = str(out / "controller.json")
    assert cli.main(["simulate", "--config", cfg,
                     "--controller", ctrl]) == 0
    run = read_json(out / "run.json")
    assert run["mode"] == "closed_loop"
    assert run["fit"]["rate"] >= 1.9
    assert cli.main(["certify", "--config", cfg]) == 0
    cert = read_json(out / "certificate.json")
    assert cert["pass"] is True
    assert cert["fitted_rate"] >= 0.98 * 2.0
    assert cert["energy_ratio"] <= 1.01
    assert math.isfinite(cert["weighted_integral"])


def test_certify_square_multiplicity_pipeline(tmp_path):
    out = tmp_path / "m2"
    cfg = square_config(tmp_path, out, count=2)
    assert cli.main(["synthesize", "--config", cfg]) == 0
    assert cli.main(["certify", "--config", cfg]) == 0
    cert = read_json(out / "certificate.json")
    assert cert["pass"] is True
    assert cert["fitted_rate"] >= 1.96


def test_certify_zeroed_gain_fails_with_open_loop_rate(tmp_path):
    out = tmp_path / "out"
    cfg = headline_config(tmp_path, out)
    assert cli.main(["synthesize", "--config", cfg]) == 0
    doc = read_json(out / "controller.json")
    doc["gain"] = np.zeros_like(np.asarray(doc["gain"])).tolist()
    broken = tmp_path / "zeroed.json"
    broken.write_text(json.dumps(doc))
    assert cli.main(["certify", "--config", cfg,
                     "--controller", str(broken)]) == 5
    cert = read_json(out / "certificate.json")
    assert cert["pass"] is False
    assert cert["fitted_rate"] == pytest.approx(OPEN_LOOP_RATE, rel=0.05)


def test_certify_without_controller_file(tmp_path, capsys):
    cfg = headline_config(tmp_path, tmp_path / "fresh")
    assert cli.main(["certify", "--config", cfg]) == 2
    assert "controller" in capsys.readouterr().err


def test_certify_open_loop_scenario(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "spectrum": {"kind": "user", "values": [12.0, 20.0]},
        "kernel": {"b": 1.0, "delta": 4.0},
        "gamma": 2.0,
        "out": str(out)})
    assert cli.main(["certify", "--config", cfg]) == 0
    cert = read_json(out / "certificate.json")
    assert cert["pass"] is True
    assert cert["note"] == "no control required"
    assert cert["energy_ratio"] == 0.0


def test_controller_kernel_mismatch(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = headline_config(tmp_path, out)
    assert cli.main(["synthesize", "--config", cfg]) == 0
    other = write_config(tmp_path, {
        "spectrum": {"kind": "dirichlet_1d", "scale": INV_PI_SQ,
                     "n_modes": 16},
        "kernel": {"b": 1.0, "delta": 3.5},
        "gamma": 2.0,
        "out": str(out)}, name="other.json")
    assert cli.main(["certify", "--config", other,
                     "--controller", str(out / "controller.json")]) == 2
    assert "different kernel" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# forcing runs


def test_forced_closed_loop_reaches_steady_state(tmp_path, capsys):
    # the headline design has one actuator, on mode 1 only
    out = tmp_path / "out"
    cfg = headline_config(
        tmp_path, out,
        forcing={"kind": "constant", "values": [1.0]},
        y0=[0.0])
    assert cli.main(["synthesize", "--config", cfg]) == 0
    assert cli.main(["simulate", "--config", cfg,
                     "--controller", str(out / "controller.json")]) == 0
    run = read_json(out / "run.json")
    assert run["mode"] == "forced_closed_loop"
    assert run["final_deviation"] <= 1e-4
    assert run["y_e_norm"] > 0.0
    assert run["range_residual"] <= 1e-8
    # a forcing on mode 2 as well cannot be cancelled by that actuator
    cfg = headline_config(
        tmp_path, out, name="reach.json",
        forcing={"kind": "constant", "values": [1.0, 0.5]},
        y0=[0.0])
    assert cli.main(["simulate", "--config", cfg,
                     "--controller", str(out / "controller.json")]) == 2
    assert "ForcingRangeError" in capsys.readouterr().err


def jeffreys_config(tmp_path, out, tau0):
    return write_config(tmp_path, {
        "spectrum": {"kind": "dirichlet_1d", "scale": INV_PI_SQ,
                     "n_modes": 8},
        "fluid": {"model": "jeffreys", "mu_visc": 2.0, "kappa": 1.0,
                  "lambda_relax": 4.0, "tau0": tau0},
        "gamma": 1.5, "t_max": 6.0, "out": str(out)}, name="jeffreys.json")


def test_stress_outside_the_actuator_range_is_refused(tmp_path, capsys):
    # stress on modes 1-3, one actuator on mode 1: the loop cannot cancel
    # it, so neither a run nor a certificate may pretend it does
    out = tmp_path / "out"
    cfg = jeffreys_config(tmp_path, out, [1.0, -0.5, 0.25])
    assert cli.main(["synthesize", "--config", cfg]) == 0
    capsys.readouterr()
    assert cli.main(["simulate", "--config", cfg,
                     "--controller", str(out / "controller.json")]) == 2
    assert "ForcingRangeError" in capsys.readouterr().err
    assert cli.main(["certify", "--config", cfg]) == 2
    assert "ForcingRangeError" in capsys.readouterr().err
    assert not (out / "trajectory.csv").exists()
    assert not (out / "certificate.json").exists()


class DeviationFeedback:
    """A feedback law on the state acting on its deviation from the
    steady path (y_e, (1 - e^{-delta t})/delta y_e): two extra controller
    states carry 1 and that fill, so the loop stays linear."""

    def __init__(self, feedback, y_e, delta):
        n, m = y_e.size, feedback.aux0.size
        dim = 2 * n + m + 2
        self.input_matrix = np.zeros((n, dim))
        self.input_matrix[:, :2 * n + m] = feedback.input_matrix
        v = feedback.aux_matrix
        self.aux_matrix = np.zeros((m + 2, dim))
        self.aux_matrix[:m, :2 * n + m] = v
        self.aux_matrix[:m, -2] = -v[:, :n] @ y_e
        self.aux_matrix[:m, -1] = -v[:, n:2 * n] @ y_e
        self.aux_matrix[m + 1, -2:] = [1.0, -delta]
        self.aux0 = np.r_[np.zeros(m), 1.0, 0.0]


def test_forced_closed_loop_is_the_control_shift_loop(tmp_path):
    out = tmp_path / "out"
    f_e = 1.0
    cfg = headline_config(tmp_path, out, t_max=3.0,
                          forcing={"kind": "constant", "values": [f_e]},
                          y0=[0.3, -0.2, 0.1])
    assert cli.main(["synthesize", "--config", cfg]) == 0
    assert cli.main(["simulate", "--config", cfg,
                     "--controller", str(out / "controller.json")]) == 0
    table = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)

    ctx = cli.prepare(cli.load_scenario(cfg))
    n, b, delta = ctx.spectrum.n_modes, ctx.kernel.b, ctx.kernel.delta
    solution, actuators = cli._load_controller(
        ctx, out / "controller.json", None)
    feedback = riccati.make_closed_loop(solution, actuators, ctx.kernel, n)
    y_e = simulate.steady_state(ctx.forcing, ctx.spectrum, ctx.kernel)
    kfac = b / (b + delta)
    forcing = np.r_[f_e, np.zeros(n - 1)]
    # the forced system driven by the forcing plus the shift, which is
    # the forcing less its translated residual
    net = simulate.ForcingField(np.column_stack([forcing, -kfac * forcing]),
                                [0.0, delta])
    grid = table[:, 0]
    ref = simulate.simulate_ode(ctx.spectrum, ctx.kernel,
                                cli._initial_state(ctx),
                                DeviationFeedback(feedback, y_e, delta), grid,
                                forcing=net)
    np.testing.assert_allclose(table[:, 1:1 + n], ref.alpha, rtol=0.0,
                               atol=1e-9)
    np.testing.assert_allclose(table[:, 1 + n:1 + 2 * n], ref.z, rtol=0.0,
                               atol=1e-9)
    shift = -kfac * f_e * np.exp(-delta * grid)
    u = table[:, 1 + 2 * n:1 + 3 * n]
    np.testing.assert_allclose(u[:, 0], ref.controls[:, 0] + shift,
                               rtol=0.0, atol=1e-9)
    np.testing.assert_allclose(u[:, 1:], ref.controls[:, 1:], rtol=0.0,
                               atol=1e-9)


def test_certify_translates_constant_forcing(tmp_path):
    # from y0 = 0 the deviation starts at -y_e, not at rest
    out = tmp_path / "out"
    cfg = headline_config(tmp_path, out,
                          forcing={"kind": "constant", "values": [1.0]},
                          y0=[0.0])
    assert cli.main(["synthesize", "--config", cfg]) == 0
    assert cli.main(["certify", "--config", cfg]) == 0
    cert = read_json(out / "certificate.json")
    ctx = cli.prepare(cli.load_scenario(cfg))
    solution, _ = cli._load_controller(ctx, out / "controller.json", None)
    y_e = simulate.steady_state(ctx.forcing, ctx.spectrum, ctx.kernel)
    xi0 = riccati.embed_initial(solution, -y_e[:solution.truncation_k])
    quad = float(xi0 @ solution.r_matrix @ xi0)
    assert quad > 1.0
    assert cert["quadratic_form"] == pytest.approx(quad, rel=1e-12)
    assert cert["y_e_norm"] == pytest.approx(0.8, rel=1e-12)
    assert cert["range_residual"] <= 1e-8
    assert math.isfinite(cert["fitted_rate"]) and cert["pass"]


def test_forced_fixed_point_stays_put(tmp_path):
    out = tmp_path / "out"
    # y_e for constant forcing f_e = lam (1 + b/delta) y_e
    y_e1 = 1.0 / (1.0 * (1.0 + 0.25))
    cfg = headline_config(
        tmp_path, out,
        forcing={"kind": "constant", "values": [1.0]},
        y0=[y_e1], t_max=5.0)
    assert cli.main(["synthesize", "--config", cfg]) == 0
    assert cli.main(["simulate", "--config", cfg,
                     "--controller", str(out / "controller.json")]) == 0
    run = read_json(out / "run.json")
    assert run["final_deviation"] <= 1e-8


def test_jeffreys_scenario_runs_forced_open_loop(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "spectrum": {"kind": "dirichlet_1d", "scale": INV_PI_SQ,
                     "n_modes": 4},
        "fluid": {"model": "jeffreys", "mu_visc": 2.0, "kappa": 1.0,
                  "lambda_relax": 3.0, "tau0": [1.0, -0.5]},
        "gamma": 1.0,
        "t_max": 5.0,
        "out": str(out)})
    assert cli.main(["simulate", "--config", cfg]) == 0
    run = read_json(out / "run.json")
    assert run["mode"] == "forced_open_loop"


def test_oldroyd_scenario_analyze(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "spectrum": {"kind": "dirichlet_1d", "scale": 1.0, "n_modes": 3},
        "fluid": {"model": "oldroyd", "nu": 1.0, "kappa": 0.5,
                  "lambda_relax": 1.0},
        "gamma": 1.5,
        "out": str(out)})
    assert cli.main(["analyze", "--config", cfg]) == 0
    report = read_json(out / "analysis.json")
    assert report["omega0"] == pytest.approx(2.0, rel=1e-12)
    assert "oldroyd" in report["fluid_note"]


def test_fluid_and_scenario_forcing_conflict(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "spectrum": {"kind": "dirichlet_1d", "scale": 1.0, "n_modes": 3},
        "fluid": {"model": "jeffreys", "mu_visc": 2.0, "kappa": 1.0,
                  "lambda_relax": 3.0, "tau0": [1.0]},
        "forcing": {"kind": "constant", "values": [1.0]},
        "gamma": 1.0,
        "out": str(tmp_path / "out")})
    assert cli.main(["simulate", "--config", cfg]) == 2
    assert "conflicts" in capsys.readouterr().err


def test_growing_forcing_is_refused(tmp_path, capsys):
    # e^{+t} forcing has no limit, so y_e = 0 would be false; it used to
    # run and report a fitted rate near -1
    out = tmp_path / "out"
    cfg = headline_config(
        tmp_path, out,
        forcing={"kind": "exponential", "coefficients": [1.0], "rate": -1.0})
    assert cli.main(["simulate", "--config", cfg]) == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not (out / "run.json").exists()


# ---------------------------------------------------------------------------
# determinism, round trips and overrides


def test_byte_identical_reruns(tmp_path):
    cfg_a = headline_config(tmp_path, tmp_path / "a", name="a.json",
                            t_max=3.0)
    cfg_b = headline_config(tmp_path, tmp_path / "b", name="b.json",
                            t_max=3.0)
    assert cli.main(["simulate", "--config", cfg_a]) == 0
    assert cli.main(["simulate", "--config", cfg_b]) == 0
    for name in ("trajectory.csv", "decay_curve.csv", "run.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_controller_round_trip_reproduces_trajectories(tmp_path):
    out = tmp_path / "out"
    cfg = headline_config(tmp_path, out, t_max=3.0)
    assert cli.main(["synthesize", "--config", cfg]) == 0
    ctrl = out / "controller.json"
    copied = tmp_path / "controller_copy.json"
    copied.write_bytes(ctrl.read_bytes())
    assert cli.main(["simulate", "--config", cfg, "--controller",
                     str(ctrl), "--out", str(tmp_path / "r1")]) == 0
    assert cli.main(["simulate", "--config", cfg, "--controller",
                     str(copied), "--out", str(tmp_path / "r2")]) == 0
    assert (tmp_path / "r1" / "trajectory.csv").read_bytes() == \
        (tmp_path / "r2" / "trajectory.csv").read_bytes()


def test_documents_are_fixed_points_of_the_reference_formatters(tmp_path):
    # every written file reads back to exactly its own text under the
    # per-value formatters: JSON through the placeholder route, CSV cell
    # by cell ('%.17g' writes -0.0 as "-0", which json reads as an int)
    def parse_int(text):
        return -0.0 if text == "-0" else int(text)

    out = tmp_path / "out"
    cfg = headline_config(tmp_path, out)
    assert cli.main(["synthesize", "--config", cfg]) == 0
    assert cli.main(["certify", "--config", cfg]) == 0
    assert cli.main(["simulate", "--config", cfg, "--controller",
                     str(out / "controller.json")]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == ["certificate.json", "controller.json", "decay_curve.csv",
                     "null_control.csv", "run.json", "synthesis.json",
                     "trajectory.csv"]
    for name in names:
        text = (out / name).read_text(encoding="utf-8")
        if name.endswith(".json"):
            doc = json.loads(text, parse_int=parse_int)
            assert text == reference_dumps(doc), name
        else:
            header = text.split("\n", 1)[0].split(",")
            table = np.loadtxt(out / name, delimiter=",", skiprows=1,
                               ndmin=2)
            assert text == per_cell_csv(header, table.tolist()), name


def test_horizon_and_step_overrides(tmp_path):
    out = tmp_path / "out"
    cfg = headline_config(tmp_path, out)
    assert cli.main(["simulate", "--config", cfg, "--horizon", "2.0",
                     "--step", "0.1"]) == 0
    run = read_json(out / "run.json")
    assert run["t_max"] == pytest.approx(2.0)
    assert run["samples"] == 21


def test_cli_import_leaves_out_scipy_interpolate():
    # no input is sampled, so nothing in the program needs a spline
    probe = ("import sys, pidestab.cli; "
             "print('scipy.interpolate' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe], check=True,
                          capture_output=True, text=True)
    assert done.stdout.strip() == "False"
