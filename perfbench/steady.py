"""Steadiness series: the evidence for the bounds in BENCHMARK.json.

    python3 perfbench/steady.py [--runs 10] [--sets 1] [--seed 100]
    python3 perfbench/steady.py --overhead 3

Runs every workload of BENCHMARK.json --runs times per set through
run.py, each time with another seed, reversing the workload order on
every other run. For each
set it prints, per workload and end-to-end metric, the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread
(q3 - q1) / median next to the metric's bound and a third of it. With
--sets 2 it also prints how far the second set's median moved from the
first's in the metric's worse direction. All results are written to
perfbench/out/steady.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["rounds"] = [json.loads(l[len("rounds "):]) for l in lines if l.startswith("rounds ")]
    return result


def study_seconds(result: dict) -> float:
    """Median over the run's rounds of the three phases' wall time."""
    return statistics.median(sum(seconds for seconds, _ in r.values())
                             for r in result["rounds"][0])


def overhead(workloads, pairs: int, seed: int, seconds: int) -> None:
    print(f"{'workload':12s} {'untraced run_s':>15s} {'traced run_s':>13s} overhead")
    for w in workloads:
        runs = {0: [], 1: []}
        for i in range(pairs):
            for trace in ((0, 1) if i % 2 == 0 else (1, 0)):
                runs[trace].append(study_seconds(run_once(w, seed + i, seconds, trace)))
        plain, traced = statistics.median(runs[0]), statistics.median(runs[1])
        print(f"{w:12s} {plain:15.3f} {traced:13.3f} {100 * (traced - plain) / plain:+7.1f}%",
              flush=True)


def summarise(results: list[dict], metric: str) -> tuple[float, float, float]:
    values = [r["metrics"][metric]["value"] for r in results]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--overhead", type=int, default=0, metavar="N")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    if args.overhead:
        overhead(workloads, args.overhead, args.seed, bench["run_seconds"])
        return 0

    sets = []
    for s in range(args.sets):
        results = {w: [] for w in workloads}
        for i in range(args.runs):
            order = workloads if i % 2 == 0 else workloads[::-1]
            for w in order:
                seed = args.seed + 1000 * s + i
                results[w].append(run_once(w, seed, bench["run_seconds"]))
                print(f"set {s + 1} run {i + 1} {w} seed {seed} done", file=sys.stderr, flush=True)
        sets.append(results)
        print(f"\nset {s + 1}: {args.runs} runs per workload")
        print(f"{'workload':12s} {'metric':15s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s} {'bound/3':>7s} failed")
        for w in workloads:
            failed = sorted({r["failed"] / r["attempted"] for r in results[w]})
            for m in metrics:
                median, q1, q3 = summarise(results[w], m["name"])
                spread = (q3 - q1) / median
                print(f"{w:12s} {m['name']:15s} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                      f"{spread:7.3f} {m['bound']:6.3f} {m['bound'] / 3:7.3f} {failed}")

    if len(sets) >= 2:
        print("\nmedian of the last set against the first, in the worse direction")
        for w in workloads:
            for m in metrics:
                first = summarise(sets[0][w], m["name"])[0]
                last = summarise(sets[-1][w], m["name"])[0]
                worse = (last - first) / first if m["better"] == "lower" else (first - last) / first
                print(f"{w:12s} {m['name']:15s} {first:12.4f} {last:12.4f} "
                      f"worse by {worse:+.3f} (bound {m['bound']})")

    out = HERE / "out" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(sets, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
