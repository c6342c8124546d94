"""Benchmark command for pidestab.

    python3 perfbench/run.py --workload design --seed 1 --seconds 55 --trace 0

Runs whole rounds of one workload's seeded scenarios for about
``--seconds`` of timed scenarios (at least one round, ending at the
round end nearest to that), checks every output of the first
round apart from the program (later rounds must reproduce the first
round's outputs exactly), and prints one JSON object as the last line of
standard output.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics from spans recorded around the
program's public functions.  Run from the root of a source checkout;
the program is imported from ``src``.
"""

import os

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402

_IMPORTED_AT = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

PER_LAYER = (
    ("synthesis.busy_s", "s"),
    ("synthesis.min_energy_control.busy_s", "s"),
    ("synthesis.transform_and_group.busy_s", "s"),
    ("synthesis.rank_conditions.busy_s", "s"),
    ("synthesis.kalman_observability_check.busy_s", "s"),
    ("synthesis.expm_calls", "count"),
    ("riccati.busy_s", "s"),
    ("riccati.build_shifted.busy_s", "s"),
    ("riccati.solve_are.busy_s", "s"),
    ("riccati.are_dim_sum", "count"),
    ("riccati.certify_decay.self_s", "s"),
    ("riccati.simulate_closed_loop.busy_s", "s"),
    ("simulate.simulate_ode.busy_s", "s"),
    ("spectral.busy_s", "s"),
    ("spectral.check_degeneracy.calls", "count"),
    ("spectral.check_degeneracy.busy_s", "s"),
    ("spectral.entries_scanned", "count"),
    ("simulate.busy_s", "s"),
    ("simulate.simulate_exact.busy_s", "s"),
    ("simulate.mode_samples", "count"),
    ("serialize.busy_s", "s"),
    ("serialize.calls", "count"),
    ("serialize.bytes_written", "B"),
    ("cli.self_s", "s"),
    ("fluids.busy_s", "s"),
)


def seconds_since_process_start() -> float:
    """Wall time since this process was created, from /proc when present."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _IMPORTED_AT


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("design", "closed_loop_cli",
                                 "wide_spectrum"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pidestab").is_dir():
        print(f"no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    scratch = WORK / "scratch" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workloads.WORKLOADS[args.workload], scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, workload_cls, scratch: Path) -> int:
    print("# env " + json.dumps(environment()), flush=True)
    workload = workload_cls(args.seed, scratch)
    workload.warm_up()
    tracer = spans.Tracer()
    if args.trace:
        tracer.install()
    gc.collect()
    setup_s = seconds_since_process_start()

    # wall time of every scenario, by its place in the round
    walls = [[] for _ in workload.scenarios]
    total_wall = total_cpu = 0.0
    attempted = failed = rounds = 0
    correct = True
    fingerprints = None
    while True:
        outputs = []
        for i, sc in enumerate(workload.scenarios):
            tracer.scenario = attempted
            attempted += 1
            tracer.active = bool(args.trace)
            w0, c0 = time.perf_counter(), time.process_time()
            try:
                out = workload.run(sc)
            except Exception as exc:        # a failed scenario, counted
                print(f"# scenario {i} failed: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                failed += 1
                out = None
            finally:
                c1, w1 = time.process_time(), time.perf_counter()
                tracer.active = False
            walls[i].append(w1 - w0)
            total_wall += w1 - w0
            total_cpu += c1 - c0
            outputs.append(out)
        rounds += 1
        # checks and fingerprints stay outside the timed scenarios
        prints = []
        for i, (sc, out) in enumerate(zip(workload.scenarios, outputs)):
            if out is None:
                prints.append(None)
                continue
            if fingerprints is None:
                try:
                    workload.check(sc, out)
                except checks.CheckError as exc:
                    print(f"# scenario {i} incorrect: {exc}", file=sys.stderr)
                    correct = False
            prints.append(workload.fingerprint(sc, out))
        if fingerprints is None:
            fingerprints = prints
        elif prints != fingerprints:
            print("# a later round did not reproduce the first round",
                  file=sys.stderr)
            correct = False
        del outputs
        gc.collect()
        # stop at the round end nearest to --seconds of timed scenarios
        if total_wall * (rounds + 0.5) / rounds > args.seconds:
            break

    completed = attempted - failed
    # totals over the whole timed part: the host's speed swings within
    # seconds, and a sum over every round averages them out, where the
    # median of a few rounds would pick one disturbed stretch
    per_s = completed / total_wall
    print(f"# scenarios_per_s {per_s:.6g} over {rounds} rounds, "
          f"{total_wall:.4f} s timed", file=sys.stderr)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.trace:
        tracer.uninstall()
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
        layer = spans.layer_metrics(tracer.spans, tracer.counters)
        metrics = {name: {"value": layer.get(name, 0) / rounds, "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "scenarios_per_s": {"value": per_s, "unit": "1/s"},
            "scenario_p50_s": {"value": statistics.median(
                statistics.fmean(w) for w in walls), "unit": "s"},
            "run_cpu_s": {"value": total_cpu / rounds, "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
