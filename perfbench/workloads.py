"""Scenario generation, execution and checking for the three workloads.

Each workload is a class with the same four steps:

* ``__init__(seed, scratch)`` makes the round of scenarios from the seed
  alone (the program only ever sees the generated inputs);
* ``warm_up()`` runs one small scenario of the same kind, untimed;
* ``run(scenario)`` is the timed operation and returns its outputs;
* ``check(scenario, outputs)`` verifies them apart from the program;
* ``fingerprint(scenario, outputs)`` digests them, so later rounds only
  need to reproduce the first round's outputs exactly.

Costs are kept independent of the seed: the seed moves continuous
parameters, initial data and mode counts inside ranges that keep the
size of every controlled block and every integration fixed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from pidestab import cli, fluids, riccati, serialize, simulate, spectral, \
    synthesis

import checks

PI_SQ = math.pi ** 2


def _square_lams(scale: float, n_modes: int) -> np.ndarray:
    """scale pi^2 (j^2 + k^2) by whole levels, repeated by multiplicity."""
    m = math.isqrt(2 * n_modes) + 3
    sums = sorted(j * j + k * k for j in range(1, m + 1)
                  for k in range(1, m + 1) if j * j + k * k <= m * m + 1)
    out = []
    for s in sums:
        if len(out) >= n_modes and s != out[-1]:
            break
        out.append(s)
    return scale * PI_SQ * np.array(out, dtype=float)


def _gamma_for(lams, b: float, delta: float, n_target: int, rng):
    """A decay rate whose controlled block is exactly the first n_target
    modes, inside the admissible range with a margin on both sides.
    Returns None when no such rate exists for these parameters."""
    rates = checks.slow_rates(lams, b, delta)
    lo = rates[n_target - 1]
    hi = min(rates[n_target:].min(initial=math.inf), delta, b + delta)
    if not hi - lo > 0.1:
        return None
    return float(lo + rng.uniform(0.3, 0.7) * (hi - lo))


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _write_scenario(scratch: Path, doc: dict) -> dict:
    """Write a scenario file whose outputs go to their own directory."""
    out = scratch / doc["name"]
    out.mkdir(parents=True, exist_ok=True)
    doc = dict(doc, out=str(out))
    path = scratch / f"{doc['name']}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return {"doc": doc, "config": str(path), "out": out}


def _file_digest(*paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# design: the synthesis pipeline through the library


# (family, target block size, count) -- fixed, so every seed costs the same
DESIGN_MIX = (
    ("dirichlet", 1, 3), ("dirichlet", 2, 3), ("dirichlet", 3, 3),
    ("indicator", 1, 2), ("indicator", 2, 2),
    ("square", 3, 5),
    ("oldroyd", 1, 3), ("oldroyd", 2, 3),
    ("jeffreys", 1, 2), ("jeffreys", 2, 2), ("jeffreys", 3, 2),
)

# ranges of the lowest eigenvalue that admit each target block size
_LOWEST_RANGE = {1: (0.3, 1.2), 2: (0.12, 0.3), 3: (0.15, 0.3)}

# steering horizon per block size: three modes need a longer horizon
# before the Gramian test of min_energy_control stops rejecting them
_HORIZON = {1: 1.0, 2: 1.0, 3: 2.0}


def design_scenario(family: str, n_target: int, rng) -> dict:
    """One seeded synthesis scenario of the given family and block size."""
    while True:
        n_modes = int(rng.integers(16, 65))
        sc = {"family": family, "n_modes": n_modes,
              "spectrum": "square_2d" if family == "square" else
              "dirichlet_1d"}
        if family in ("dirichlet", "indicator", "square"):
            b, delta = rng.uniform(0.8, 1.2), rng.uniform(3.5, 4.5)
            sc["kernel"] = {"b": b, "delta": delta}
            mu = 1.0
        elif family == "oldroyd":
            nu, lam_r = rng.uniform(4.0, 4.5), rng.uniform(0.3, 0.36)
            sc["oldroyd"] = {"nu": nu, "kappa": 1.0, "lambda_relax": lam_r}
            mu, b, delta = 2.0 / lam_r, nu - 1.0 / lam_r, 1.0 / lam_r
        else:
            mu_visc, lam_r = rng.uniform(1.5, 2.5), rng.uniform(3.5, 4.5)
            sc["jeffreys"] = {"mu_visc": mu_visc, "kappa": 1.0,
                              "lambda_relax": lam_r}
            mu, b, delta = 1.0, 1.0 / mu_visc, lam_r
        if family == "square":
            scale = rng.uniform(0.02, 0.03)
            lams = _square_lams(scale, n_modes)
        else:
            lowest = rng.uniform(*_LOWEST_RANGE[n_target])
            scale = lowest / (mu * PI_SQ)
            lams = lowest * np.arange(1, n_modes + 1) ** 2.0
        gamma = _gamma_for(lams, b, delta, n_target, rng)
        if gamma is None:
            continue
        sc.update(scale=scale, gamma=gamma, n_target=n_target,
                  y0=rng.uniform(0.5, 1.5, lams.size).tolist(),
                  expected={"lams": lams, "b": b, "delta": delta})
        if family == "indicator":
            a = rng.uniform(0.05, 0.12)
            sc["interval"] = [a, a + rng.uniform(0.2, 0.3)]
        return sc


class Design:
    name = "design"

    def __init__(self, seed: int, scratch: Path):
        rng = np.random.default_rng([seed, 1])
        self.scenarios = [design_scenario(f, n, rng)
                          for f, n, count in DESIGN_MIX for _ in range(count)]

    def warm_up(self):
        sc = design_scenario("indicator", 2, np.random.default_rng(0))
        self.check(sc, self.run(sc))

    @staticmethod
    def run(sc: dict) -> dict:
        if "oldroyd" in sc:
            mu, kernel = fluids.oldroyd_to_abstract(
                fluids.OldroydParams(**sc["oldroyd"]))
        elif "jeffreys" in sc:
            kernel, _ = fluids.jeffreys_reduce(
                fluids.JeffreysParams(**sc["jeffreys"]))
            mu = 1.0
        else:
            kernel = spectral.MemoryKernel(**sc["kernel"])
            mu = 1.0
        spectrum = fluids.model_spectrum(sc["spectrum"], mu * sc["scale"],
                                         sc["n_modes"])
        part = spectral.partition_spectrum(spectrum, kernel, sc["gamma"])
        if "interval" in sc:
            acts = fluids.indicator_actuators_1d([sc["interval"]],
                                                 spectrum.n_modes)
        else:
            acts = synthesis.default_actuators(part)
        companion = synthesis.build_companion(part, kernel, acts, spectrum)
        transformed = synthesis.transform_and_group(companion, part)
        rank = synthesis.rank_conditions(transformed, part)
        kalman = synthesis.kalman_observability_check(transformed)
        n = part.n_total
        y0 = np.asarray(sc["y0"])
        x0 = np.concatenate([y0[:n], -part.lambdas * y0[:n]])
        null = synthesis.min_energy_control(companion, x0,
                                            _HORIZON[sc["n_target"]])
        shifted = riccati.build_shifted(spectrum, kernel, sc["gamma"], acts)
        solution = riccati.solve_are(shifted)
        lams, _ = spectrum.expanded()
        return {"lams": lams, "b": kernel.b, "delta": kernel.delta,
                "n_total": n, "p": companion.p_2n,
                "q": companion.q_2nm, "rank_passed": rank.passed,
                "kalman": kalman, "x0": x0, "null": null, "shifted": shifted,
                "solution": solution}

    @staticmethod
    def check(sc, out: dict) -> None:
        exp = sc["expected"]
        checks.check_inputs(out["lams"], out["b"], out["delta"],
                            exp["lams"], exp["b"], exp["delta"])
        checks.check_partition(exp["lams"], exp["b"], exp["delta"],
                               sc["gamma"], out["n_total"])
        if out["n_total"] != sc["n_target"]:
            raise checks.CheckError("controlled block differs from the "
                                    "generated target")
        checks.check_pbh(out["p"], out["q"], out["rank_passed"])
        null = out["null"]
        checks.check_steering(out["p"], out["q"], out["x0"], null.grid,
                              null.w, null.v, exp["delta"])
        sh, sol = out["shifted"], out["solution"]
        checks.check_riccati(sh.p_2k_shifted, sh.q_2km, sh.weight,
                             sol.r_matrix, sol.gain)

    @staticmethod
    def fingerprint(sc, out: dict) -> str:
        null, sol = out["null"], out["solution"]
        return _digest(null.w, null.v, sol.r_matrix, sol.gain,
                       np.array([out["kalman"]]))


# ---------------------------------------------------------------------------
# closed_loop_cli: synthesize, certify and simulate through cli.main


def closed_loop_scenarios(rng) -> list:
    """Headline, square multiplicity, Jeffreys forcing, indicator actuator."""
    def y0(n):
        return rng.uniform(0.5, 1.5, n).tolist()

    a = rng.uniform(0.05, 0.12)
    return [
        {"name": "headline",
         "spectrum": {"kind": "dirichlet_1d", "scale": 1.0 / PI_SQ,
                      "n_modes": 16},
         "kernel": {"b": 1.0, "delta": 4.0}, "gamma": 2.0, "y0": y0(16)},
        {"name": "square_m2",
         "spectrum": {"kind": "square_2d", "scale": 0.025, "n_modes": 6},
         "kernel": {"b": 1.0, "delta": 4.0}, "gamma": 2.0,
         "actuators": {"kind": "default", "count": 2}, "y0": y0(6)},
        {"name": "jeffreys_forced",
         "spectrum": {"kind": "dirichlet_1d", "scale": 1.0 / PI_SQ,
                      "n_modes": 8},
         "fluid": {"model": "jeffreys", "mu_visc": 2.0, "kappa": 1.0,
                   "lambda_relax": 4.0, "tau0": [rng.uniform(0.5, 1.5)]},
         "gamma": 1.5, "y0": y0(8)},
        {"name": "indicator_1d",
         "spectrum": {"kind": "dirichlet_1d", "scale": 1.0 / PI_SQ,
                      "n_modes": 12},
         "kernel": {"b": 1.0, "delta": 4.0}, "gamma": 2.0,
         "actuators": {"kind": "indicator_1d",
                       "intervals": [[a, a + rng.uniform(0.2, 0.3)]]},
         "y0": y0(12)},
    ]


class ClosedLoopCli:
    name = "closed_loop_cli"
    T_MAX = 6.0

    def __init__(self, seed: int, scratch: Path):
        rng = np.random.default_rng([seed, 2])
        self.scratch = scratch
        self.scenarios = [
            _write_scenario(scratch, dict(doc, t_max=self.T_MAX))
            for doc in closed_loop_scenarios(rng)]

    def warm_up(self):
        doc = closed_loop_scenarios(np.random.default_rng(0))[1]
        sc = _write_scenario(self.scratch,
                             dict(doc, name="warm_up", t_max=self.T_MAX))
        self.check(sc, self.run(sc))

    @staticmethod
    def run(sc: dict) -> dict:
        cfg, out = sc["config"], sc["out"]
        ctrl = str(out / "controller.json")
        codes = [cli.main(["synthesize", "--config", cfg]),
                 cli.main(["certify", "--config", cfg]),
                 cli.main(["simulate", "--config", cfg, "--controller",
                           ctrl])]
        # the integrator-free route on the design modes, from the saved file
        doc = serialize.json_load(ctrl)
        k, m = doc["truncation_k"], doc["m_actuators"]
        kernel = spectral.MemoryKernel(**doc["kernel"])
        spectrum = spectral.Spectrum.from_records(doc["spectrum"])
        acts = synthesis.ActuatorSet(
            count=m, modal_coefficients=np.reshape(doc["c_km"], (k, m)))
        shifted = riccati.build_shifted(spectrum, kernel, doc["gamma"], acts,
                                        k, doc["alpha"])
        solution = riccati.RiccatiSolution(
            r_matrix=np.reshape(doc["r_matrix"], (2 * k, 2 * k)),
            gain=np.reshape(doc["gain"], (m, 2 * k)),
            residual=doc["residual"], alpha=doc["alpha"], gamma=doc["gamma"],
            closed_loop_eigs=np.array([complex(*e) for e in
                                       doc["closed_loop_eigs"]]),
            system=shifted)
        y0 = np.asarray(sc["doc"]["y0"])
        samples = int(round(sc["doc"]["t_max"] / 0.01)) + 1
        route = riccati.simulate_closed_loop(solution, y0[:k],
                                             sc["doc"]["t_max"],
                                             samples=samples)
        return {"codes": codes, "controller": doc, "route": route}

    FILES = ("controller.json", "certificate.json", "trajectory.csv",
             "decay_curve.csv")

    @classmethod
    def check(cls, sc: dict, out: dict) -> None:
        if out["codes"] != [0, 0, 0]:
            raise checks.CheckError(f"exit codes {out['codes']}")
        files = [sc["out"] / n for n in cls.FILES]
        curve = np.loadtxt(files[3], delimiter=",", skiprows=1)
        gamma = sc["doc"]["gamma"]
        checks.check_decay_rate(curve[:, 0], curve[:, 1], gamma)
        doc = out["controller"]
        k = doc["truncation_k"]
        table = np.loadtxt(files[2], delimiter=",", skiprows=1)
        route = out["route"]
        if not np.array_equal(table[:, 0], route.grid):
            raise checks.CheckError("trajectory grids differ")
        checks.check_cross_route(table[:, 1:1 + k],
                                 np.exp(-gamma * route.grid)[:, None]
                                 * route.xi[:, :k], rtol=1e-5)
        y0 = np.asarray(sc["doc"]["y0"])[:k]
        lams, _ = spectral.Spectrum.from_records(doc["spectrum"]).expanded(k)
        xi0 = np.concatenate([y0, (gamma - lams) * y0])
        r = np.reshape(doc["r_matrix"], (2 * k, 2 * k))
        checks.check_certificate(json.loads(files[1].read_text()), r, xi0)

    @classmethod
    def fingerprint(cls, sc: dict, out: dict) -> str:
        return _file_digest(*(sc["out"] / n for n in cls.FILES)) + \
            _digest(np.array(out["codes"]), out["route"].xi)


# ---------------------------------------------------------------------------
# wide_spectrum: analyze, exact open loop over all modes, large CSV writes


def _user_values(rng, b: float, delta: float, count: int) -> list:
    """Seeded eigenvalues: one slow mode, the rest spread over 4..4e4,
    kept away from the two eigenvalues with a double decay root."""
    centre, half = 2.0 * b + delta, 2.0 * math.sqrt(b * (b + delta))
    doubles = (centre - half, centre + half)
    values = [rng.uniform(0.5, 0.8)]
    while len(values) < count:
        lam = math.exp(rng.uniform(math.log(4.0), math.log(4e4)))
        if all(abs(lam - d) > 1e-6 * d for d in doubles):
            values.append(lam)
    return values


def wide_scenarios(rng) -> list:
    def kernel():
        return {"b": rng.uniform(0.8, 1.2), "delta": rng.uniform(3.5, 4.5)}

    docs = [
        {"name": "dirichlet_1d", "spectrum": {
            "kind": "dirichlet_1d", "scale": rng.uniform(0.5, 0.8) / PI_SQ,
            "n_modes": 1200}, "kernel": kernel()},
        {"name": "square_2d", "spectrum": {
            "kind": "square_2d", "scale": rng.uniform(0.15, 0.3) / PI_SQ,
            "n_modes": 1500}, "kernel": kernel()},
    ]
    k = kernel()
    values = _user_values(rng, k["b"], k["delta"], 1000)
    docs.append({"name": "user", "kernel": k,
                 "spectrum": {"kind": "user", "values": values}})
    for d in docs:
        d["gamma"] = rng.uniform(0.3, 0.7) * (d["kernel"]["b"]
                                             + d["kernel"]["delta"])
    return docs


class WideSpectrum:
    name = "wide_spectrum"
    T_MAX = 10.0
    SAMPLES = 201

    def __init__(self, seed: int, scratch: Path):
        rng = np.random.default_rng([seed, 3])
        self.scratch = scratch
        self.scenarios = [self._write(doc, rng) for doc in wide_scenarios(rng)]

    def _write(self, doc: dict, rng) -> dict:
        spec = doc["spectrum"]
        if spec["kind"] == "square_2d":
            lams = _square_lams(spec["scale"], spec["n_modes"])
        elif spec["kind"] == "dirichlet_1d":
            lams = spec["scale"] * PI_SQ * np.arange(
                1, spec["n_modes"] + 1) ** 2.0
        else:
            lams = np.sort(spec["values"])
        return dict(_write_scenario(self.scratch, doc), lams=lams,
                    y0=rng.uniform(0.5, 1.5, lams.size))

    def warm_up(self):
        rng = np.random.default_rng(0)
        doc = {"name": "warm_up", "kernel": {"b": 1.0, "delta": 4.0},
               "gamma": 2.0, "spectrum": {"kind": "dirichlet_1d",
                                          "scale": 0.6 / PI_SQ,
                                          "n_modes": 60}}
        sc = self._write(doc, rng)
        self.check(sc, self.run(sc))

    def run(self, sc: dict) -> dict:
        code = cli.main(["analyze", "--config", sc["config"]])
        doc = sc["doc"]
        spec = doc["spectrum"]
        spectrum = fluids.model_spectrum(
            spec["kind"], spec.get("scale", 1.0),
            spec.get("n_modes", len(spec.get("values", ()))),
            values=spec.get("values"))
        kernel = spectral.MemoryKernel(**doc["kernel"])
        grid = np.linspace(0.0, self.T_MAX, self.SAMPLES)
        n = spectrum.n_modes
        traj = simulate.simulate_exact(spectrum, kernel, sc["y0"],
                                       simulate.ZeroSignal(n), grid)
        serialize.trajectory_csv(sc["out"] / "trajectory.csv", traj)
        serialize.decay_curve_csv(sc["out"] / "decay_curve.csv", traj)
        return {"code": code, "traj": traj}

    @staticmethod
    def check(sc: dict, out: dict) -> None:
        if out["code"] != 0:
            raise checks.CheckError(f"analyze exit code {out['code']}")
        report = json.loads((sc["out"] / "analysis.json").read_text())
        b, delta = sc["doc"]["kernel"]["b"], sc["doc"]["kernel"]["delta"]
        traj = out["traj"]
        checks.check_inputs(traj.lambdas, report["kernel"]["b"],
                            report["kernel"]["delta"], sc["lams"], b, delta)
        checks.check_vieta(report["modes"], b, delta)
        checks.check_slow_roots(report["modes"], b, delta)
        checks.check_degeneracy_report(report["modes"],
                                       report["degeneracies"])
        checks.check_exact_route(traj.alpha, sc["lams"], b, delta,
                                 sc["y0"], traj.grid)
        checks.check_late_decay(traj.grid, traj.alpha, sc["lams"], b, delta)
        paths = [sc["out"] / "trajectory.csv", sc["out"] / "decay_curve.csv"]
        checks.check_csv_roundtrip(*paths, traj.grid, traj.alpha, traj.z,
                                   traj.controls, traj.norms)

    @staticmethod
    def fingerprint(sc: dict, out: dict) -> str:
        return _file_digest(*(sc["out"] / n for n in (
            "analysis.json", "trajectory.csv", "decay_curve.csv"))) + \
            _digest(np.array([out["code"]]), out["traj"].alpha)


WORKLOADS = {w.name: w for w in (Design, ClosedLoopCli, WideSpectrum)}
