"""Compare two checkouts on one perfbench workload in alternating pairs.

    python3 tools/bench_pairs.py --parent DIR --change DIR --workload certify-corpus \
        --seed 7 --pairs 10 --seconds 20

Each pair runs `perfbench/run.py --trace 0` of both checkouts, each from its
own root, one after the other; the parent goes first in even pairs and the
change in odd ones.  Every run's metrics are written to standard error as
it finishes.  Then, per end-to-end metric of the change's BENCHMARK.json,
standard output gets each side's median and quartiles, the change/parent
ratio of the medians, the change's wins, ties and losses over the pairs,
and whether the gain rule holds: the change wins at least nine pairs in
ten and its median is better than the parent's by more than the parent's
interquartile range.  It exits with code 1 when a run fails to finish, is
not correct, or has a failed operation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """perfbench's result line for one untraced run of the checkout at root."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {root} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if result["correct"] is not True or result["failed"]:
        raise SystemExit(f"bench_pairs: {root} was not correct or had failed operations: {lines[-1]}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def compare(parent: list[float], change: list[float], lower_is_better: bool) -> dict:
    """Medians, quartiles and pair outcomes of one metric, and the gain rule."""
    sign = 1 if lower_is_better else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    ties = sum(p == c for p, c in zip(parent, change))
    p1, p2, p3 = quartiles(parent)
    c1, c2, c3 = quartiles(change)
    return {
        "parent": (p2, p1, p3),
        "change": (c2, c1, c3),
        "ratio": c2 / p2 if p2 else float("nan"),
        "wins": wins,
        "ties": ties,
        "losses": len(parent) - wins - ties,
        "gain": 10 * wins >= 9 * len(parent) and sign * (p2 - c2) > p3 - p1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="the parent checkout's root")
    parser.add_argument("--change", type=Path, required=True, help="the change's checkout root")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] == "lower" for m in benchmark["end_to_end"]}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            values = run(getattr(args, side), args.workload, args.seed, args.seconds)
            runs[side].append(values)
            print(f"pair {i} {side}: " + json.dumps({k: values.get(k) for k in metrics}), file=sys.stderr)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs at --seconds {args.seconds}: "
          "median [q1, q3] per side, change/parent, wins/ties/losses of the change")
    for name, lower in metrics.items():
        r = compare([v[name] for v in runs["parent"]], [v[name] for v in runs["change"]], lower)
        p, c = r["parent"], r["change"]
        print(f"  {name:12} parent {p[0]:.4g} [{p[1]:.4g}, {p[2]:.4g}]  change {c[0]:.4g} [{c[1]:.4g}, {c[2]:.4g}]"
              f"  x{r['ratio']:.3f}  {r['wins']}/{r['ties']}/{r['losses']}  gain rule {'met' if r['gain'] else 'not met'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
