"""Run one workload of the benchmark in this process and print its result.

    python3 perfbench/study.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/study.py --imports

``run.py`` starts this in a fresh process with BLAS pinned to one thread.
It imports ``reconv`` from src/ of the checkout it sits in and sets the workload up SETUP_REPEATS
times. It then runs whole rounds of the three timed phases for S seconds:
it starts another round only while the rounds so far plus one more of the
last round's length fit in S, and always runs at least one. The first
round's outputs are checked, and every later round must reproduce them
exactly. The last line printed is one JSON object.

With --imports it only imports what a workload imports and prints the
seconds that took; set-up time counts the median of IMPORT_SAMPLES such
fresh processes, because one import of a fifth of a second is too short
to time once.
"""

import time

T0 = time.perf_counter()

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
IMPORT_SAMPLES = 5
PHASES = ("verify", "train", "evaluate")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--imports", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.imports and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    return args


def import_all() -> float:
    """Import reconv from the checkout's source tree and nowhere else, then
    the benchmark's own modules; returns seconds since this process began
    importing."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import reconv
    import reconv.cli  # noqa: F401  (the depth-sweep drives it)
    if Path(reconv.__file__).resolve().parent.parent != src:
        raise ImportError(f"reconv imported from {reconv.__file__}, not {src}")
    import workloads  # noqa: F401
    import tracing  # noqa: F401
    return time.perf_counter() - T0


def import_seconds() -> float:
    """Median import time of IMPORT_SAMPLES fresh interpreters."""
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, __file__, "--imports"],
                              capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def main(argv=None) -> int:
    args = parse_args(argv)
    seconds = import_all()
    if args.imports:
        print(seconds)
        return 0
    import tracing
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer()
    if args.trace:
        tracer.install()
    out = ROOT / "perfbench" / "out"
    workdir = out / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, WORKLOADS[args.workload](args.seed, workdir), tracer, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def timed(tracer, fn):
    lo = tracer.mark()
    tracer.active = True
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        elapsed = time.perf_counter() - start
        tracer.active = False
    return elapsed, result, (lo, tracer.mark())


def run(args, workload, tracer, out: Path) -> int:
    import checks as chk
    import tracing

    imports_s = 0.0 if args.trace else import_seconds()
    setup_times, setup_spans = [], []
    for _ in range(SETUP_REPEATS):
        elapsed, _, spans = timed(tracer, workload.setup)
        setup_times.append(elapsed)
        setup_spans.append(spans)

    checks = chk.Checks()
    rounds, round_spans, first_outputs = [], [], None
    measured = 0.0
    while not rounds or measured + last <= args.seconds:
        phase = {}
        lo = tracer.mark()
        for name in PHASES:
            phase[name] = timed(tracer, getattr(workload, name))[:2]
            if workload.failed:
                break
        round_spans.append((lo, tracer.mark()))
        if workload.failed:
            checks.expect(False, f"{workload.failed} of {workload.attempted} operations failed")
            break
        rounds.append(phase)
        if first_outputs is None:
            first_outputs = workload.outputs()
            workload.check(checks)
        else:
            checks.expect(workload.outputs() == first_outputs,
                          f"round {len(rounds)} outputs differ from round 1")
        last = sum(seconds for seconds, _ in phase.values())
        measured += last

    metrics = {}
    if rounds:
        def rate(name):   # work over wall time, summed over the rounds
            return sum(r[name][1] for r in rounds) / sum(r[name][0] for r in rounds)
        run_s = statistics.median(sum(t for t, _ in r.values()) for r in rounds)
        if args.trace:
            metrics = tracing.layer_metrics(tracer, setup_spans, round_spans[:len(rounds)],
                                            workload.skipped(workload.reports))
            tracer.write(out / f"trace-{args.workload}.npz")
            # the program's own count of the coordinates it visited, checked or skipped
            calls = metrics["gradcheck.forward.calls"]["value"]
            checks.expect(calls == workload.fd_evals,
                          f"check_model_grads made {calls} forward passes a round, not 2 per "
                          f"coordinate of the closed-form counts ({workload.fd_evals})")
        else:
            metrics = {
                "setup_s": (imports_s + statistics.median(setup_times), "s"),
                "run_s": (run_s, "s"),
                "train_ex_per_s": (rate("train"), "1/s"),
                "eval_ex_per_s": (rate("evaluate"), "1/s"),
                "fd_evals_per_s": (rate("verify"), "1/s"),
            }
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        print("rounds " + json.dumps([{n: r[n] for n in PHASES} for r in rounds]))
        print(f"{args.workload}: imports {imports_s:.4f} s, set-up median "
              f"{statistics.median(setup_times):.4f} s of {SETUP_REPEATS}, {len(rounds)} "
              f"rounds, run_s {run_s:.4f}, {checks.count} checks, "
              f"{len(checks.failures)} failed, trace {args.trace}")
    for message in checks.failures:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"correct": checks.ok and bool(rounds),
                      "attempted": workload.attempted, "failed": workload.failed,
                      "metrics": metrics}))
    return 0 if checks.ok and rounds else 1

if __name__ == "__main__":
    sys.exit(main())
