"""Run one locallab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload certify-corpus --seed 7 --seconds 20 --trace 0

Run from the root of a checkout; locallab is imported from its src/.  Every
sample runs in a fresh interpreter (see worker.py).  With --trace 0 the
result carries the end-to-end metrics: the set-up time is the median of
SETUP_SAMPLES interpreters, one of which also runs the timed passes.  With
--trace 1 it carries the per-layer metrics of one traced process.
End-to-end timings are given at the reference host speed (hostspeed.py);
the report lines before the result also give them in wall-clock time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it name every metric with
its unit and every correctness gate.  A run that cannot start its workload
exits with a non-zero code and prints no result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 3
DEADLINE_S = 170  # the whole run, every child included


class BenchError(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> dict:
    """Run the worker in a fresh interpreter; its set-up time counts from here."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker did not finish within {remaining:.0f} s") from err
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    result["raw_setup_s"] = result["first_op_at"] - started
    result["setup_s"] = result["raw_setup_s"] * result["setup_scale"]
    return result


def tail(per_pass: list[list[float]]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with ten operations of
    a pass beyond it, estimated from the latencies of every pass pooled."""
    n = len(per_pass[0])
    pooled = sorted(x for latencies in per_pass for x in latencies)
    if n < 11:
        return pooled[-1], 100.0
    return pooled[len(pooled) - 10 * len(per_pass) - 1], 100.0 * (n - 10) / n


def timings(passes: list[dict], setups: list[dict], raw: bool) -> tuple[float, ...]:
    """(wall_s, op_p50_ms, op_tail_ms, setup_s, tail percentile), at the
    reference speed or, with raw=True, in wall-clock time."""
    prefix = "raw_" if raw else ""
    walls = [p[prefix + "wall_s"] for p in passes]
    latencies = [x for p in passes for x in p[prefix + "latencies_s"]]
    tail_s, percentile = tail([p[prefix + "latencies_s"] for p in passes])
    return (
        statistics.median(walls),
        1000 * statistics.median(latencies),
        1000 * tail_s,
        statistics.median(s[prefix + "setup_s"] for s in setups),
        percentile,
    )


def end_to_end(run: dict, setups: list[dict]) -> tuple[dict, list[str]]:
    passes = run["passes"]
    wall, p50, tail_ms, setup, percentile = timings(passes, setups, raw=False)
    raw = timings(passes, setups, raw=True)
    ops = len(passes[0]["latencies_s"])
    values = {
        "wall_s": (wall, "s", raw[0], f"median over {len(passes)} passes"),
        "op_p50_ms": (p50, "ms", raw[1], f"median of {ops * len(passes)} ops"),
        "op_tail_ms": (tail_ms, "ms", raw[2], f"p{percentile:.2f} of {ops} ops per pass, passes pooled"),
        "setup_s": (setup, "s", raw[3], f"median of {len(setups)} fresh interpreters"),
        "peak_rss_mb": (run["peak_rss_mb"], "MiB", None, "ru_maxrss of the timed process"),
    }
    metrics = {name: {"value": v, "unit": unit} for name, (v, unit, _, _) in values.items()}
    lines = [
        f"  {name:<14} {v:>14.4f} {unit:<5}"
        + (f" (wall clock {r:.4f})" if r is not None else " " * 22)
        + f" {note}"
        for name, (v, unit, r, note) in values.items()
    ]
    return metrics, lines


def per_layer(run: dict) -> tuple[dict, list[str]]:
    values = run["per_layer"]
    metrics = {}
    lines = []
    for name, value in values.items():
        unit = "count" if name.endswith(".calls") else "ratio" if name.endswith("_ratio") else "s"
        metrics[name] = {"value": value, "unit": unit}
        if value:
            lines.append(f"  {name:<52} {value:>14.6f} {unit}")
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "locallab" / "__init__.py").is_file():
        print(f"perfbench: no locallab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    # Set-up-only processes run before and after the timed one, so the
    # set-up median spans the whole run.
    extra = 0 if args.trace else SETUP_SAMPLES - 1
    try:
        setups = [spawn(common + ["--mode", "setup"], deadline) for _ in range(extra // 2)]
        run = spawn(
            common + ["--mode", "run", "--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline,
        )
        setups.append(run)
        setups += [spawn(common + ["--mode", "setup"], deadline) for _ in range(extra - extra // 2)]
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    if args.trace:
        metrics, lines = per_layer(run)
    else:
        metrics, lines = end_to_end(run, setups)
    failed_gates = [g for g in run["gates"] if not g["ok"]]
    failed = run["ops_failed"] + len(failed_gates)
    print(
        f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
        f"{len(run['passes'][0]['latencies_s'])} ops per pass, digest {run['digest']}"
    )
    print(f"  summary {json.dumps(run['summary'], sort_keys=True)}")
    if "trace_file" in run:
        print(f"  spans written to {run['trace_file']}")
    print("\n".join(lines))
    print(f"  {'ops':<14} {run['ops']:>14d} count")
    print(f"  {'ops_failed':<14} {run['ops_failed']:>14d} count (share {run['ops_failed'] / run['ops']:.4f})")
    for g in run["gates"]:
        status = "ok" if g["ok"] else "FAIL"
        print(f"  gate [{status}] {g['name']}" + (f": {g['detail']}" if g["detail"] else ""))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": run["ops"],
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
