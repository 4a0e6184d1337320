"""The benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see workloads.py) in a fresh Python process with BLAS
pinned to one thread, and waits for it. With --trace 0 it prints the
end-to-end metrics, adding the peak resident set of the workload process
(or of any process it waited for, if larger); with --trace 1 the per-layer
metrics of a traced run. The last line of output is one JSON object. The
exit code is 0 only when the workload ran to its end and every output
check passed.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 170
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    command = [sys.executable, str(HERE / "study.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             env={**os.environ, **SINGLE_THREAD})
    try:
        stdout, _ = child.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        print(f"{args.workload} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 1
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(stdout)
        print(f"{args.workload} exited {child.returncode} without a result", file=sys.stderr)
        return child.returncode or 1
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = {"value": peak_mb, "unit": "MB"}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return child.returncode


if __name__ == "__main__":
    sys.exit(main())
