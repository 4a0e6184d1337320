"""Split a traced run's loss_and_grads time by operation.

    python3 perfbench/split.py WORKLOAD [--cells N]

Reads perfbench/out/trace-WORKLOAD.npz, written by
``run.py --workload WORKLOAD --trace 1``, and prints each operation's
share of the time spent inside ``loss_and_grads``, with the stem
convolution (forward and kernel gradient) and the hidden 3x3
convolutions (forward, input and kernel gradients) summed. With
--cells N it also prints those two shares for each of the first N
``train`` calls, in the order they ran.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
MAX_DEPTH = 16
GROUPS = (("stem conv", "ops.conv_stem."), ("hidden 3x3 convs", "ops.conv_hidden."))


def nearest(name: np.ndarray, parent: np.ndarray, target: int) -> np.ndarray:
    """Index of each span's nearest ancestor named ``target``, or -1."""
    found = np.full(len(name), -1)
    cur = parent.copy()
    for _ in range(MAX_DEPTH):
        live = (cur >= 0) & (found < 0)
        hit = live.copy()
        hit[live] = name[cur[live]] == target
        found[hit] = cur[hit]
        cur[live] = parent[cur[live]]
    return found


def shares(names, name, dur, under) -> dict[str, float]:
    return {label: dur[under & np.isin(name, [i for i, n in enumerate(names)
                                              if n.startswith(prefix)])].sum()
            for label, prefix in GROUPS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--cells", type=int, default=0)
    args = parser.parse_args(argv)
    trace = np.load(HERE / "out" / f"trace-{args.workload}.npz")
    names = list(trace["names"])
    name, parent = trace["name"], trace["parent"]
    dur = trace["end"] - trace["start"]
    if "model.loss_and_grads" not in names:
        print("no loss_and_grads spans in the trace", file=sys.stderr)
        return 1
    lg = names.index("model.loss_and_grads")
    under = nearest(name, parent, lg) >= 0
    total = dur[name == lg].sum()
    by_name = np.bincount(name[under], weights=dur[under], minlength=len(names))
    print(f"{args.workload}: {total:.3f} s in loss_and_grads")
    for i in np.argsort(-by_name):
        if by_name[i] > 0 and names[i].startswith("ops."):
            print(f"  {names[i]:28s} {by_name[i]:9.3f} s {100 * by_name[i] / total:6.1f}%")
    for label, seconds in shares(names, name, dur, under).items():
        print(f"  {label:28s} {100 * seconds / total:6.1f}% of loss_and_grads")

    if args.cells and "train.train" in names:
        cell = nearest(name, parent, names.index("train.train"))
        for k, t in enumerate(np.nonzero(name == names.index("train.train"))[0][:args.cells]):
            in_cell = under & (cell == t)
            cell_total = dur[(name == lg) & (cell == t)].sum()
            split = ", ".join(f"{label} {100 * s / cell_total:.1f}%"
                              for label, s in shares(names, name, dur, in_cell).items())
            print(f"  train call {k + 1}: {cell_total:.3f} s in loss_and_grads; {split}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
