"""Command-line pipeline: analyze, synthesize, simulate, certify.

A scenario file (JSON) describes the system once; each subcommand
builds what it needs from it and persists results under the output
directory.  Exit codes are scripting-stable: 0 success, 2 configuration
or precondition problems, 3 steerability/rank failures, 4 numerical
solver failures, 5 certification failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import fluids, riccati, serialize, simulate, spectral, synthesis
from .exceptions import (
    ConfigError,
    DecayViolationError,
    PidestabError,
    RankConditionError,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RANK = 3
EXIT_SOLVER = 4
EXIT_CERTIFY = 5

_CODE_GROUPS = (
    (EXIT_CONFIG, (
        "ConfigError", "GammaOutOfRangeError", "GammaExceedsDeltaError",
        "AlphaRangeError", "DegenerateSpectrumError", "DegenerateRootError",
        "DimensionMismatchError", "ForcingRangeError", "WindowTooShortError",
        "NonpositiveAmplitudeError")),
    (EXIT_RANK, (
        "RankConditionError", "GramianSingularError", "NotStabilizableError",
        "ActuatorSearchError")),
    (EXIT_SOLVER, (
        "SolverFailureError", "StepInstabilityError",
        "IllConditionedTransformError", "HorizonTooSmallError")),
    (EXIT_CERTIFY, ("DecayViolationError",)),
)


def exit_code_for(exc: Exception) -> int:
    name = type(exc).__name__
    for code, names in _CODE_GROUPS:
        if name in names:
            return code
    if isinstance(exc, (ValueError, KeyError, OSError,
                        json.JSONDecodeError)):
        return EXIT_CONFIG
    return 1


# ---------------------------------------------------------------------------
# scenario


@dataclass(frozen=True, eq=False)
class Scenario:
    """Validated run description, the single source of configuration."""

    spectrum: dict
    kernel: dict | None
    fluid: dict | None
    gamma: float
    alpha: float = 0.5
    truncation_k: int | None = None
    actuators: dict = field(default_factory=lambda: {"kind": "default"})
    horizon: float | None = None
    t_max: float | None = None
    step: float | None = None
    y0: list | None = None
    forcing: dict | None = None
    out: str = "out"
    seed: int = 0
    allow_degenerate: bool = False

    @property
    def n_modes(self) -> int:
        return int(self.spectrum.get("n_modes", 0))


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _as_float(d: dict, key: str, context: str) -> float:
    v = d.get(key)
    _require(isinstance(v, (int, float)) and not isinstance(v, bool),
             f"{context}.{key} must be a number")
    return float(v)


def scenario_from_dict(doc: dict) -> Scenario:
    _require(isinstance(doc, dict), "scenario must be a JSON object")
    spec_cfg = doc.get("spectrum")
    _require(isinstance(spec_cfg, dict), "spectrum section is required")
    kind = spec_cfg.get("kind")
    _require(kind in ("dirichlet_1d", "square_2d", "user"),
             "spectrum.kind must be dirichlet_1d, square_2d or user")
    if kind == "user":
        _require(isinstance(spec_cfg.get("values"), list) and spec_cfg["values"],
                 "spectrum.values must be a nonempty list for user spectra")
        spec_cfg = dict(spec_cfg)
        spec_cfg.setdefault("n_modes", len(spec_cfg["values"]))
        spec_cfg.setdefault("scale", 1.0)
    else:
        spec_cfg = dict(spec_cfg)
        spec_cfg.setdefault("scale", 1.0)
        n = spec_cfg.get("n_modes")
        _require(isinstance(n, int) and n >= 1,
                 "spectrum.n_modes must be a positive integer")
        _require(_as_float(spec_cfg, "scale", "spectrum") > 0,
                 "spectrum.scale must be positive")

    kernel = doc.get("kernel")
    fluid = doc.get("fluid")
    _require((kernel is None) != (fluid is None),
             "exactly one of kernel / fluid must be given")
    if kernel is not None:
        _require(isinstance(kernel, dict), "kernel must be an object")
        b = _as_float(kernel, "b", "kernel")
        delta = _as_float(kernel, "delta", "kernel")
        _require(b >= 0.0, "kernel.b must be nonnegative")
        _require(delta > 0.0, "kernel.delta must be positive")
        kernel = {"b": b, "delta": delta}
    if fluid is not None:
        _require(isinstance(fluid, dict) and fluid.get("model")
                 in ("oldroyd", "jeffreys"),
                 "fluid.model must be 'oldroyd' or 'jeffreys'")

    gamma = _as_float(doc, "gamma", "scenario")
    _require(gamma > 0.0, "gamma must be positive")

    alpha = float(doc.get("alpha", 0.5))
    trunc = doc.get("truncation_k")
    _require(trunc is None or (isinstance(trunc, int) and trunc >= 1),
             "truncation_k must be a positive integer or null")

    actuators = doc.get("actuators", {"kind": "default"})
    _require(isinstance(actuators, dict), "actuators must be an object")
    _require(actuators.get("kind", "default") in
             ("default", "matrix", "indicator_1d", "indicator_2d"),
             "actuators.kind must be default, matrix, indicator_1d or "
             "indicator_2d")

    for key in ("horizon", "t_max", "step"):
        v = doc.get(key)
        _require(v is None or (isinstance(v, (int, float)) and v > 0),
                 f"{key} must be a positive number or null")

    y0 = doc.get("y0")
    _require(y0 is None or (isinstance(y0, list) and
                            all(isinstance(v, (int, float)) for v in y0)),
             "y0 must be a list of numbers or null")

    forcing = doc.get("forcing")
    if forcing is not None:
        _require(isinstance(forcing, dict) and forcing.get("kind")
                 in ("constant", "exponential"),
                 "forcing.kind must be 'constant' or 'exponential'")

    return Scenario(
        spectrum=spec_cfg, kernel=kernel, fluid=fluid, gamma=gamma,
        alpha=alpha,
        truncation_k=trunc, actuators=dict(actuators),
        horizon=doc.get("horizon"), t_max=doc.get("t_max"),
        step=doc.get("step"), y0=y0, forcing=forcing,
        out=str(doc.get("out", "out")), seed=int(doc.get("seed", 0)),
        allow_degenerate=bool(doc.get("allow_degenerate", False)))


def load_scenario(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"scenario file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario file is not valid JSON: {exc}")
    return scenario_from_dict(doc)


# ---------------------------------------------------------------------------
# shared construction


@dataclass(frozen=True, eq=False)
class RunContext:
    scenario: Scenario
    spectrum: spectral.Spectrum
    kernel: spectral.MemoryKernel
    forcing: simulate.ForcingField | None
    fluid_note: str | None


def _pad(values, n: int, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float).reshape(-1)
    _require(arr.size <= n,
             f"{what} lists {arr.size} modes but the spectrum has {n}")
    if arr.size < n:
        arr = np.concatenate([arr, np.zeros(n - arr.size)])
    return arr


def prepare(sc: Scenario) -> RunContext:
    spec_cfg = sc.spectrum
    scale = float(spec_cfg.get("scale", 1.0))
    fluid_note = None
    forcing = None

    if sc.fluid is not None:
        model = sc.fluid["model"]
        if model == "oldroyd":
            params = fluids.OldroydParams(
                nu=_as_float(sc.fluid, "nu", "fluid"),
                kappa=_as_float(sc.fluid, "kappa", "fluid"),
                lambda_relax=_as_float(sc.fluid, "lambda_relax", "fluid"))
            mu, kernel = fluids.oldroyd_to_abstract(params)
            scale = scale * mu
            fluid_note = (f"oldroyd: viscosity scale mu={mu:.17g}, "
                          f"omega0={spectral.growth_bound(kernel):.17g}")
        else:
            tau0 = sc.fluid.get("tau0", [])
            params = fluids.JeffreysParams(
                mu_visc=_as_float(sc.fluid, "mu_visc", "fluid"),
                kappa=_as_float(sc.fluid, "kappa", "fluid"),
                lambda_relax=_as_float(sc.fluid, "lambda_relax", "fluid"),
                tau0=tau0)
            kernel, forcing = fluids.jeffreys_reduce(params)
            fluid_note = "jeffreys: stress forcing attached"
    else:
        kernel = spectral.MemoryKernel(b=sc.kernel["b"],
                                       delta=sc.kernel["delta"])

    spectrum = fluids.model_spectrum(
        spec_cfg["kind"], scale, int(spec_cfg.get("n_modes", 1)),
        values=spec_cfg.get("values"),
        multiplicities=spec_cfg.get("multiplicities"),
        labels=spec_cfg.get("labels"))
    n = spectrum.n_modes

    if forcing is not None:
        # re-pad the stress footprint to the realized mode count
        forcing = simulate.ForcingField.exponential(
            _pad(forcing.modal_at(0.0)[:, 0] if forcing.k else [], n,
                 "fluid.tau0"),
            kernel.delta)
    if sc.forcing is not None:
        _require(forcing is None,
                 "scenario forcing conflicts with fluid-induced forcing")
        if sc.forcing["kind"] == "constant":
            forcing = simulate.ForcingField.constant(
                _pad(sc.forcing.get("values", []), n, "forcing.values"))
        else:
            forcing = simulate.ForcingField.exponential(
                _pad(sc.forcing.get("coefficients", []), n,
                     "forcing.coefficients"),
                _as_float(sc.forcing, "rate", "forcing"))

    return RunContext(scenario=sc, spectrum=spectrum, kernel=kernel,
                      forcing=forcing, fluid_note=fluid_note)


def _partition(ctx: RunContext) -> spectral.UnstablePartition:
    return spectral.partition_spectrum(
        ctx.spectrum, ctx.kernel, ctx.scenario.gamma,
        check_degenerate=not ctx.scenario.allow_degenerate)


def _build_actuators(ctx: RunContext,
                     partition: spectral.UnstablePartition) -> synthesis.ActuatorSet:
    cfg = ctx.scenario.actuators
    kind = cfg.get("kind", "default")
    n = ctx.spectrum.n_modes
    if kind == "default":
        count = cfg.get("count")
        return synthesis.default_actuators(
            partition, count=count, seed=ctx.scenario.seed)
    if kind == "matrix":
        coeffs = cfg.get("coefficients")
        _require(isinstance(coeffs, list) and coeffs,
                 "actuators.coefficients must be a nonempty matrix")
        return synthesis.default_actuators(partition, coefficients=coeffs)
    if kind == "indicator_1d":
        intervals = cfg.get("intervals")
        _require(isinstance(intervals, list) and intervals,
                 "actuators.intervals must list at least one interval")
        return fluids.indicator_actuators_1d(intervals, n)
    rects = cfg.get("rectangles")
    _require(isinstance(rects, list) and rects,
             "actuators.rectangles must list at least one rectangle")
    return fluids.indicator_actuators_2d(rects, n)


def _initial_state(ctx: RunContext) -> np.ndarray:
    n = ctx.spectrum.n_modes
    if ctx.scenario.y0 is None:
        return np.ones(n)
    return _pad(ctx.scenario.y0, n, "y0")


def _out_dir(sc: Scenario) -> Path:
    out = Path(sc.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _t_max(sc: Scenario) -> float:
    return sc.t_max if sc.t_max is not None else 20.0 / sc.gamma


def _sim_grid(sc: Scenario) -> np.ndarray:
    t_max = _t_max(sc)
    step = sc.step if sc.step is not None else 0.01
    n = max(2, int(round(t_max / step)) + 1)
    return np.linspace(0.0, t_max, n)


# ---------------------------------------------------------------------------
# analyze


def cmd_analyze(scenario: Scenario) -> dict:
    """Roots, growth bound, degeneracy report and rate partition."""
    ctx = prepare(scenario)
    kernel = ctx.kernel
    omega0 = spectral.growth_bound(kernel)
    entries = ctx.spectrum.entries
    roots = spectral.modal_roots(np.array([e.lam for e in entries]), kernel)
    modes = [{
        "label": entry.label,
        "lambda": entry.lam,
        "multiplicity": entry.multiplicity,
        "mu_plus": [mu_p.real, mu_p.imag],
        "mu_minus": [mu_m.real, mu_m.imag],
        "real_roots": real,
    } for entry, mu_p, mu_m, real in zip(
        entries, roots.mu_plus.tolist(), roots.mu_minus.tolist(),
        roots.is_real.tolist())]
    degeneracies = [{
        "kind": v.kind,
        "labels": list(v.labels),
        "value": [v.value.real, v.value.imag],
        "separation": v.separation,
    } for v in spectral.check_degeneracy(ctx.spectrum, kernel)]

    part = spectral.partition_spectrum(
        ctx.spectrum, kernel, scenario.gamma,
        check_degenerate=not scenario.allow_degenerate)
    report = {
        "omega0": omega0,
        "kernel": {"b": kernel.b, "delta": kernel.delta},
        "fluid_note": ctx.fluid_note,
        "modes": modes,
        "degeneracies": degeneracies,
        "partition": {
            "gamma": part.gamma,
            "n1": part.n1,
            "n2": part.n2,
            "n": part.n_total,
            "groups": list(part.unstable_labels),
            "group_sizes": list(part.group_sizes),
            "m_max": part.m_max,
            "stable_margin": part.stable_margin,
        },
    }
    out = _out_dir(scenario)
    serialize.json_dump(out / "analysis.json", report)
    print(f"omega0 = {omega0:.6g}; N = {part.n_total} "
          f"(N1={part.n1}, N2={part.n2}), m_max = {part.m_max}, "
          f"stable margin = {part.stable_margin:.6g}")
    if degeneracies:
        print(f"degeneracies: {len(degeneracies)} "
              f"({', '.join(d['kind'] for d in degeneracies)})")
    return report


# ---------------------------------------------------------------------------
# synthesize


def cmd_synthesize(scenario: Scenario) -> dict:
    """Steerability checks, steering control and feedback design."""
    ctx = prepare(scenario)
    part = _partition(ctx)
    actuators = _build_actuators(ctx, part)
    companion = synthesis.build_companion(
        part, ctx.kernel, actuators, ctx.spectrum,
        allow_degenerate=scenario.allow_degenerate)
    transformed = synthesis.transform_and_group(companion, part)
    rank_report = synthesis.rank_conditions(transformed, part)
    if not rank_report.passed:
        failing = [i for i, e in enumerate(rank_report.entries) if not e.ok]
        raise RankConditionError(
            f"steerability rank condition fails for cluster(s) "
            f"{failing}: " + "; ".join(
                f"cluster {i} needs rank {rank_report.entries[i].required}, "
                f"has {rank_report.entries[i].rank}" for i in failing),
            failures=rank_report.failures)
    kalman_ok = synthesis.kalman_observability_check(transformed)

    out = _out_dir(scenario)
    y0 = _initial_state(ctx)
    n = part.n_total
    null_info = None
    if n > 0:
        x0 = np.concatenate([y0[:n], -part.lambdas * y0[:n]])
        horizon = scenario.horizon if scenario.horizon is not None else 1.0
        nc = synthesis.min_energy_control(companion, x0, horizon)
        serialize.null_control_csv(out / "null_control.csv", nc)
        null_info = {
            "horizon": nc.horizon,
            "energy": nc.energy,
            "energy_ratio": nc.energy_ratio,
            "terminal_error": nc.terminal_error,
            "gramian_condition": nc.gramian_condition,
        }

    shifted = riccati.build_shifted(
        ctx.spectrum, ctx.kernel, scenario.gamma, actuators,
        scenario.truncation_k, scenario.alpha)
    solution = riccati.solve_are(shifted)
    serialize.json_dump(out / "controller.json",
                        serialize.controller_document(
                            solution, ctx.kernel, ctx.spectrum))

    report = {
        "partition": {"n": n, "m_max": part.m_max,
                      "groups": list(part.unstable_labels)},
        "actuators": {"count": actuators.count,
                      "description": actuators.description},
        "transform": {
            "semisimple": transformed.semisimple,
            "jordan_path": not transformed.semisimple,
            "condition": transformed.condition,
        },
        "rank": [{
            "value": [e.cluster.value.real, e.cluster.value.imag],
            "size": e.cluster.size,
            "required": e.required,
            "rank": e.rank,
            "ok": e.ok,
        } for e in rank_report.entries],
        "kalman_ok": bool(kalman_ok),
        "null_control": null_info,
        "riccati": {
            "truncation_k": solution.truncation_k,
            "residual": solution.residual,
            "slowest_closed_loop_real_part":
                float(solution.closed_loop_eigs[0].real)
                if solution.closed_loop_eigs.size else None,
        },
    }
    serialize.json_dump(out / "synthesis.json", report)
    path_note = "chain (Jordan)" if not transformed.semisimple else "diagonal"
    print(f"rank conditions pass ({len(rank_report.entries)} clusters, "
          f"{path_note} transform); Riccati residual "
          f"{solution.residual:.3e}; controller written to "
          f"{out / 'controller.json'}")
    return report


# ---------------------------------------------------------------------------
# simulate


def _load_controller(ctx: RunContext, path) -> tuple:
    doc = serialize.json_load(path)
    k = int(doc["truncation_k"])
    m = int(doc["m_actuators"])
    kernel = spectral.MemoryKernel(**doc["kernel"])
    spectrum = spectral.Spectrum.from_records(doc["spectrum"])
    if abs(kernel.b - ctx.kernel.b) > 1e-12 or \
            abs(kernel.delta - ctx.kernel.delta) > 1e-12:
        raise ConfigError(
            "controller file was designed for a different kernel")
    own, _ = ctx.spectrum.expanded(min(k, ctx.spectrum.n_modes))
    ctrl, _ = spectrum.expanded(min(k, ctx.spectrum.n_modes))
    if own.size < k or np.max(np.abs(own - ctrl)) > 1e-9 * np.max(ctrl):
        raise ConfigError(
            "controller file was designed for a different spectrum")
    c_km = np.asarray(doc["c_km"], dtype=float).reshape(k, m)
    actuators = synthesis.ActuatorSet(count=m, modal_coefficients=c_km,
                                      description="from controller file")
    shifted = riccati.build_shifted(ctx.spectrum, ctx.kernel,
                                    float(doc["gamma"]), actuators, k,
                                    float(doc["alpha"]))
    eigs = np.array([complex(re, im) for re, im in doc["closed_loop_eigs"]])
    solution = riccati.RiccatiSolution(
        r_matrix=np.asarray(doc["r_matrix"], dtype=float).reshape(2 * k, 2 * k),
        gain=np.asarray(doc["gain"], dtype=float).reshape(m, 2 * k),
        residual=float(doc["residual"]), alpha=float(doc["alpha"]),
        gamma=float(doc["gamma"]), closed_loop_eigs=eigs, system=shifted)

    # prefer the scenario's own actuator construction when it agrees with
    # the stored projection rows; it carries the tail-mode rows
    try:
        part = _partition(ctx)
        scenario_acts = _build_actuators(ctx, part)
        if scenario_acts.count == m and np.allclose(
                scenario_acts.rows(k), c_km, rtol=0.0, atol=1e-12):
            actuators = scenario_acts
    except PidestabError:
        pass
    return solution, actuators


def cmd_simulate(scenario: Scenario, controller=None) -> dict:
    """Open- or closed-loop run, with optional forcing translation."""
    ctx = prepare(scenario)
    sc = scenario
    grid = _sim_grid(sc)
    out = _out_dir(sc)
    y0 = _initial_state(ctx)
    n = ctx.spectrum.n_modes
    report: dict = {"t_max": float(grid[-1]), "samples": int(grid.size)}

    solution = None
    actuators = None
    if controller is not None:
        solution, actuators = _load_controller(ctx, controller)

    if ctx.forcing is None:
        if solution is None:
            traj = simulate.simulate_ode(
                ctx.spectrum, ctx.kernel, y0, simulate.ZeroSignal(n), grid,
                frac_alpha=sc.alpha)
            report["mode"] = "open_loop"
        else:
            feedback = riccati.make_closed_loop(solution, actuators,
                                                ctx.kernel, n)
            traj = simulate.simulate_ode(ctx.spectrum, ctx.kernel, y0,
                                         feedback, grid,
                                         frac_alpha=solution.alpha)
            report["mode"] = "closed_loop"
        deviation = traj
        y_e = np.zeros(n)
    else:
        y_e = simulate.steady_state(ctx.forcing, ctx.spectrum, ctx.kernel)
        report["y_e_norm"] = float(np.linalg.norm(y_e))
        if solution is None:
            traj = simulate.simulate_ode(ctx.spectrum, ctx.kernel, y0,
                                         simulate.ZeroSignal(n), grid,
                                         forcing=ctx.forcing,
                                         frac_alpha=sc.alpha)
            report["mode"] = "forced_open_loop"
            deviation = simulate.Trajectory(
                grid=traj.grid, alpha=traj.alpha - y_e[None, :],
                z=traj.z, lambdas=traj.lambdas, frac_alpha=sc.alpha)
        else:
            translated = simulate.translate_system(ctx.forcing, y_e,
                                                   ctx.kernel)
            y0_hat = y0 - y_e
            feedback = riccati.make_closed_loop(solution, actuators,
                                                ctx.kernel, n)
            traj_hat = simulate.simulate_ode(ctx.spectrum, ctx.kernel,
                                             y0_hat, feedback, grid,
                                             frac_alpha=solution.alpha)
            # map the translated run back: y = y_hat + y_e, and the memory
            # variable of the constant part fills in as (1-e^{-dt})/d
            fill = (1.0 - np.exp(-ctx.kernel.delta * grid)) / ctx.kernel.delta
            traj = simulate.Trajectory(
                grid=grid,
                alpha=traj_hat.alpha + y_e[None, :],
                z=traj_hat.z + fill[:, None] * y_e[None, :],
                lambdas=traj_hat.lambdas,
                controls=traj_hat.controls,
                control_labels=traj_hat.control_labels,
                frac_alpha=solution.alpha)
            deviation = traj_hat
            report["mode"] = "forced_closed_loop"
            report["final_deviation"] = float(
                np.linalg.norm(traj_hat.alpha[-1]))

    serialize.trajectory_csv(out / "trajectory.csv", traj)
    serialize.decay_curve_csv(out / "decay_curve.csv", deviation)
    try:
        fit = simulate.fit_decay_rate(deviation, "y")
        report["fit"] = {"rate": fit.rate, "constant": fit.constant,
                         "oscillation": fit.oscillation,
                         "window": list(fit.window)}
    except PidestabError as exc:
        report["fit"] = {"error": str(exc)}
    report["final_norm_y"] = float(deviation.norms["y"][-1])
    serialize.json_dump(out / "run.json", report)
    rate = report.get("fit", {}).get("rate")
    rate_text = f"{rate:.6g}" if isinstance(rate, float) else "n/a"
    print(f"{report['mode']}: {grid.size} samples to t={grid[-1]:.6g}, "
          f"fitted decay rate {rate_text}; files in {out}")
    return report


# ---------------------------------------------------------------------------
# certify


def cmd_certify(scenario: Scenario, controller=None) -> dict:
    """Machine-readable decay certificate for the configured target rate."""
    ctx = prepare(scenario)
    sc = scenario
    out = _out_dir(sc)
    gamma = sc.gamma
    t_max = _t_max(sc)
    part = _partition(ctx)
    y0 = _initial_state(ctx)

    if part.n_total == 0:
        grid = _sim_grid(sc)
        n = ctx.spectrum.n_modes
        traj = simulate.simulate_ode(ctx.spectrum, ctx.kernel, y0,
                                     simulate.ZeroSignal(n), grid,
                                     frac_alpha=sc.alpha)
        fit = simulate.fit_decay_rate(traj, "a_alpha_minus_half")
        weighted = traj.weighted_energy(sc.alpha, rate=gamma)
        doc = {
            "fitted_rate": fit.rate,
            "target_gamma": gamma,
            "pass": bool(fit.rate >= 0.98 * gamma),
            "weighted_integral": weighted,
            "energy_ratio": 0.0,
            "note": "no control required",
        }
        serialize.json_dump(out / "certificate.json", doc)
        print(f"certificate: pass={doc['pass']} (open loop, "
              f"rate {fit.rate:.6g} vs target {gamma:.6g})")
        if not doc["pass"]:
            raise DecayViolationError(
                f"open-loop rate {fit.rate:.6g} below 0.98*gamma")
        return doc

    path = Path(controller) if controller is not None \
        else _out_dir(sc) / "controller.json"
    if not path.exists():
        raise ConfigError(
            f"controller file {path} not found; run synthesize first")
    solution, actuators = _load_controller(ctx, path)

    try:
        cert = riccati.certify_decay(solution, ctx.spectrum, ctx.kernel,
                                     gamma, y0[:solution.truncation_k],
                                     t_max, actuators=actuators)
        violation = None
    except DecayViolationError as exc:
        cert = exc.certificate
        violation = exc

    ratio = (cert.weighted_integral / cert.quadratic_form
             if cert.quadratic_form > 0 else math.inf)
    doc = {
        "fitted_rate": cert.fitted_rate,
        "target_gamma": gamma,
        "pass": bool(violation is None and cert.passed),
        "weighted_integral": cert.weighted_integral,
        "energy_ratio": ratio,
        "rate_threshold": cert.rate_threshold,
        "quadratic_form": cert.quadratic_form,
        "a1": cert.a1,
        "a2": cert.a2,
        "oscillation": cert.oscillation,
    }
    serialize.json_dump(out / "certificate.json", doc)
    print(f"certificate: pass={doc['pass']} (rate {cert.fitted_rate:.6g} "
          f"vs threshold {cert.rate_threshold:.6g})")
    if violation is not None:
        raise violation
    if not doc["pass"]:
        raise DecayViolationError(
            "certificate bounds not met despite acceptable rate")
    return doc


# ---------------------------------------------------------------------------
# entry point


def _apply_overrides(sc: Scenario, args, command: str) -> Scenario:
    updates = {}
    if args.out is not None:
        updates["out"] = args.out
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.step is not None:
        updates["step"] = args.step
    if args.horizon is not None:
        if command == "synthesize":
            updates["horizon"] = args.horizon
        else:
            updates["t_max"] = args.horizon
    return replace(sc, **updates) if updates else sc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pidestab",
        description="Feedback stabilization toolkit for diffusion "
                    "equations with exponential memory kernels.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("analyze", "roots, growth bound and rate partition"),
            ("synthesize", "steerability checks and controller design"),
            ("simulate", "open- or closed-loop trajectory run"),
            ("certify", "closed-loop decay certificate")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="scenario JSON file")
        p.add_argument("--out", help="output directory override")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--step", type=float,
                       help="output grid step override")
        p.add_argument("--horizon", type=float,
                       help="time horizon override (steering horizon for "
                            "synthesize, run length otherwise)")
        if name in ("simulate", "certify"):
            p.add_argument("--controller",
                           help="controller JSON (default: "
                                "<out>/controller.json for certify)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.config)
        scenario = _apply_overrides(scenario, args, args.command)
        if args.command == "analyze":
            cmd_analyze(scenario)
        elif args.command == "synthesize":
            cmd_synthesize(scenario)
        elif args.command == "simulate":
            cmd_simulate(scenario, controller=args.controller)
        else:
            cmd_certify(scenario, controller=args.controller)
    except Exception as exc:        # mapped to scripting-stable exit codes
        code = exit_code_for(exc)
        print(f"error ({type(exc).__name__}): {exc}", file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
