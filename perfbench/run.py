"""Run one benchmark workload and print its metrics as the last line of stdout.

    python3 perfbench/run.py --workload gbm_capped --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it prints the per-layer metrics instead (see README.md).  Run it from any
directory; it imports mlmckit from the ``src/`` beside this directory.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Set-up is timed in this many fresh interpreters and the median reported.
SETUP_SPAWNS = 5
SETUP_TIMEOUT_S = 60

END_TO_END = (
    ("setup_s", "s"),
    ("pipeline_s", "s"),
    ("run_s", "s"),
    ("classical_s", "s"),
    ("mlmc_speedup", "ratio"),
    ("solves_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def round_seed(seed, k):
    """Base seed of round k; the round also uses the odd seed after it."""
    return (seed * 2**16 + k) * 2


def time_setup(workload):
    """Median wall time of a fresh interpreter that parses the config and builds the model."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--setup-only"]
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(workload, seed, seconds, trace, trace_path=None):
    """Whole rounds until ``seconds`` have passed, then the run's pooled checks.

    Returns (calls, untraced rounds, per-layer metrics of each traced round,
    first failed check or None).  With ``trace`` each round runs twice on
    the same seed, untraced and then traced, so the difference of the two
    pipeline times is the tracing overhead; only the untraced outputs are
    checked, since the traced round computes the same ones.  The spans of
    the last traced round go to ``trace_path`` if it is given.
    """
    from tracing import Tracer
    from workloads import CallFailed, Calls, CheckFailed

    calls = Calls()
    rounds, layers = [], []
    deadline = time.perf_counter() + seconds
    k = 0
    try:
        while True:
            s = round_seed(seed, k)
            k += 1
            try:
                plain = workload.round(s, calls)
                workload.check(plain.outputs)
                if trace:
                    tracer = Tracer()
                    with tracer.installed():
                        traced = workload.round(s, calls)
                    m = tracer.metrics()
                    m["trace.overhead_s"] = traced.pipeline_s - plain.pipeline_s
                    layers.append(m)
                    last_traced = tracer
            except CallFailed as exc:  # counted by Calls; the run goes on
                print(f"round {k - 1} (seed {s}): {exc}", file=sys.stderr)
            else:
                rounds.append(plain)
            if time.perf_counter() >= deadline:
                break
        if layers and trace_path is not None:
            last_traced.write(trace_path)
        if rounds:
            workload.check_pooled()
    except CheckFailed as exc:
        return calls, rounds, layers, str(exc)
    return calls, rounds, layers, None


def end_to_end(rounds, setup_s):
    # The ratios are taken within each round, whose parts ran seconds apart,
    # so that a slow spell of a shared host cancels out of them.
    med = statistics.median
    return {
        "setup_s": setup_s,
        "pipeline_s": med(r.pipeline_s for r in rounds),
        "run_s": med(r.run_s for r in rounds),
        "classical_s": med(r.classical_s for r in rounds),
        "mlmc_speedup": med(r.classical_s / r.run_s for r in rounds),
        "solves_per_s": med(r.solves / r.run_s for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def git_commit():
    """HEAD's commit id read from .git, or "unknown" outside a git checkout."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "mlmckit", "__init__.py")):
        print(f"error: no mlmckit package under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**40:
        print("error: --seed must lie in [0, 2^40)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    if args.setup_only:
        workload.setup()
        return 0

    setup_s = None if args.trace else time_setup(args.workload)
    workload.setup()
    trace_path = None
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(OUT, f"trace.{args.workload}.json")
    calls, rounds, layers, failure = measure(
        workload, args.seed, args.seconds, args.trace, trace_path
    )
    if failure is not None:
        print(f"check failed: {failure}", file=sys.stderr)
    if not rounds:
        print("error: no round finished", file=sys.stderr)
        return 1

    if args.trace:
        from tracing import PER_LAYER

        metrics = {
            name: {"value": statistics.median(m[name] for m in layers), "unit": unit}
            for name, unit in PER_LAYER
        }
    else:
        values = end_to_end(rounds, setup_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"env": environment(), "workload": args.workload, "rounds": len(rounds)}))
    print(
        json.dumps(
            {
                "correct": failure is None,
                "attempted": calls.attempted,
                "failed": calls.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if failure is None else 1


if __name__ == "__main__":
    sys.exit(main())
