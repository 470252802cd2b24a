"""
Run one critfield benchmark workload, or all of them.

    python3 benchmarks/run.py --workload kac_rice --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout: the benchmark imports ``critfield``
from ``src/`` next to this directory and refuses any other copy.  With
``--trace 0`` the last line of standard output is one JSON object holding
the end-to-end metrics of the workload; with ``--trace 1`` it holds the
per-layer metrics of a separate traced run.  Progress and check failures go
to standard error.  See README.md.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402  (the clock above starts before any import)
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("kac_rice", "torus", "cli")
SETUP_PROBES = 2          # extra set-ups in fresh processes; setup_s is the median of 3
CHILD_TIMEOUT_S = 900


def cap_blas_threads():
    """Cap BLAS/OpenMP threads at the cores this process may run on."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cores:
            os.environ[var] = str(cores)
    return cores


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_argv(args, workload, *extra):
    return [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]


def import_workloads():
    """Import the benchmark's workloads against the checkout's own ``critfield``."""
    if not (SRC / "critfield" / "__init__.py").is_file():
        sys.exit(f"benchmark: no critfield sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import critfield
    import workloads

    if SRC.resolve() not in Path(critfield.__file__).resolve().parents:
        sys.exit(f"benchmark: imported critfield from {critfield.__file__}, not {SRC}")
    return workloads


def run_one(args):
    workloads = import_workloads()
    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        wl.warm_up()
        setup_s = time.perf_counter() - T_START
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, workloads, wl, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def setup_samples(args):
    """Set-up times of the same workload in fresh processes, run one at a time."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(child_argv(args, args.workload, "--setup-probe"),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S, check=True)
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def measure(args, workloads, wl, setup_s):
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
    else:
        setups = [setup_s] + setup_samples(args)
    ledger = workloads.Ledger(tracer)
    if tracer:
        workloads.instrument(tracer, ledger, wl)
    rounds = 0
    t0 = time.perf_counter()
    try:
        while rounds == 0 or time.perf_counter() - t0 < args.seconds or not wl.enough():
            wl.run_round(rounds, ledger)
            rounds += 1
    finally:
        if tracer:
            tracer.restore()
    elapsed = time.perf_counter() - t0
    wl.finish(ledger)

    round_s = ledger.busy_s / rounds
    if tracer:
        # round_s under tracing, for the overhead; not reported.
        print(f"  traced round_s = {round_s:.6g} s", file=sys.stderr)
        metrics = workloads.layer_metrics(tracer, rounds)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "round_s": (round_s, "s"),
        }
        print(f"{args.workload}: set-up samples {', '.join(f'{s:.3f}' for s in setups)} s",
              file=sys.stderr)
    print(f"{args.workload}: {rounds} rounds in {elapsed:.1f} s, {ledger.attempted} "
          f"operations, {ledger.failed} failed, {ledger.wrong} wrong; per round:",
          file=sys.stderr)
    for kind, busy in sorted(ledger.busy_by_kind.items(), key=lambda kv: -kv[1]):
        print(f"  {kind}: {1e3 * busy / rounds:.1f} ms", file=sys.stderr)
    result = {
        "correct": ledger.wrong == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Every workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(child_argv(args, name), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
            combined["metrics"][f"{name}.{metric}"] = m
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main(argv=None):
    args = parse_args(argv)
    cap_blas_threads()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
