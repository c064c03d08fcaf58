"""Record one benchmark snapshot: every workload of BENCHMARK.json, untraced
and traced, in one JSON file.

    python3 tools/bench_snapshot.py --seed 7 --seconds 20 --out BENCH_<n>.json

Run from anywhere; it runs `perfbench/run.py` of this checkout once with
`--trace 0` (end-to-end metrics) and once with `--trace 1` (per-layer
metrics) for each workload.  The file holds the commit, whether the sources
differ from it, the Python version, the number of processors, and per
workload the end-to-end metrics, the traced layers that did any work, and
each run's correct/attempted/failed counts.  It exits with code 1 when a run
fails to finish, is not correct, or has a failed operation or gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """perfbench's result line for one run, or a failed result when the run
    printed none."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": f"run.py exited with code {proc.returncode}"}
    return json.loads(lines[-1])


def snapshot(seed: int, seconds: int) -> tuple[dict, bool]:
    """The snapshot and whether every run was correct with nothing failed."""
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {
        "commit": _git("rev-parse", "HEAD"),
        "sources_differ_from_commit": bool(_git("status", "--porcelain", "--", "src", "perfbench")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "workloads": {},
    }
    ok = True
    for workload in (w["name"] for w in benchmark["workloads"]):
        untraced = _run(workload, seed, seconds, trace=0)
        traced = _run(workload, seed, seconds, trace=1)
        runs = {}
        for name, result in (("trace0", untraced), ("trace1", traced)):
            runs[name] = {k: result[k] for k in ("correct", "attempted", "failed")}
            if "error" in result:
                runs[name]["error"] = result["error"]
            ok = ok and result["correct"] is True and result["failed"] == 0
        out["workloads"][workload] = {
            "end_to_end": {name: m["value"] for name, m in untraced["metrics"].items()},
            "layers": {name: m["value"] for name, m in traced["metrics"].items() if m["value"]},
            "runs": runs,
        }
    return out, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--out", type=Path, required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    data, ok = snapshot(args.seed, args.seconds)
    args.out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    if not ok:
        print("bench_snapshot: a run was not correct or had failures", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
