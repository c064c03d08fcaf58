"""One benchmark process: set up a workload, run timed passes, check them.

Started by run.py in a fresh interpreter for every sample, because
locallab's corpora are cached per process and a second run in the same
process would hide their construction from the set-up time.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup
    python3 perfbench/worker.py --workload NAME --seed N --mode run --seconds S --trace 0|1

`setup` stops where the first operation would start.  Either mode prints one
JSON object on stdout; `first_op_at` is CLOCK_MONOTONIC, which the parent
shares, so the parent can time set-up from before the interpreter started.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
import traceback
import types
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
TRACE_DIR = BENCH_DIR / "out"
DIGESTS_FILE = BENCH_DIR / "digests.json"
MIN_PASSES = 3


def import_locallab() -> types.ModuleType:
    """Import locallab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC_DIR))
    import locallab

    if Path(locallab.__file__).resolve().parent != (SRC_DIR / "locallab").resolve():
        raise ImportError(f"locallab was imported from {locallab.__file__}, not {SRC_DIR}")
    return locallab


def attempt(op, failures: list[str]) -> bool:
    """Run one operation; an exception is a failed operation."""
    try:
        return op() is True
    except Exception:  # the benchmark counts the failure and goes on
        failures.append(traceback.format_exc())
        return False


def digest(summary: dict) -> str:
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()[:16]


def run_pass(workload, api, tracer=None) -> dict:
    """All operations of one pass, each timed from its start to its verdict.

    A host-speed probe runs before the first operation and after each one,
    outside the timed spans.  Each latency is also given at the reference
    speed, scaled by the mean of the two probes around it (see hostspeed.py).
    """
    workload.begin_pass()
    ops = workload.ops(api)
    latencies: list[float] = []
    probes = [hostspeed.probe()]
    failed = 0
    failures: list[str] = []
    clock = time.perf_counter
    for op in ops:
        t0 = clock()
        if tracer is None:
            ok = attempt(op, failures)
        else:
            with tracer.span("bench.op"):
                ok = attempt(op, failures)
        latencies.append(clock() - t0)
        probes.append(hostspeed.probe())
        failed += not ok
    reference = [
        lat * 2 * hostspeed.REFERENCE_PROBE_S / (before + after)
        for lat, before, after in zip(latencies, probes, probes[1:])
    ]
    summary = workload.summary()
    return {
        "wall_s": sum(reference),
        "raw_wall_s": sum(latencies),
        "latencies_s": reference,
        "raw_latencies_s": latencies,
        "failed": failed,
        "failures": failures[:3],
        "summary": summary,
        "digest": digest(summary),
    }


def timed_passes(workload, api, budget_s: float, tracer=None) -> list[dict]:
    """At least MIN_PASSES whole passes, then more while another one is
    expected to fit in the budget of wall-clock seconds."""
    passes = []
    clock = time.perf_counter
    start = clock()
    while True:
        pass_start = clock()
        if tracer is None:
            passes.append(run_pass(workload, api))
        else:
            with tracer.span("bench.pass"):
                passes.append(run_pass(workload, api, tracer))
        now = clock()
        if len(passes) >= MIN_PASSES and now - start + (now - pass_start) > budget_s:
            return passes


def recorded_digest(workload: str, seed: int):
    recorded = json.loads(DIGESTS_FILE.read_text())
    return recorded.get(workload, {}).get(str(seed))


def gates(workload, seed: int, passes: list[dict], plain, locallab) -> list[dict]:
    """Correctness checks outside the timed operations."""
    from workloads import planted_cases

    out = []
    digests = sorted({p["digest"] for p in passes})
    out.append(
        {
            "name": f"every pass computed digest {digests[0]}",
            "ok": len(digests) == 1,
            "detail": "" if len(digests) == 1 else f"digests {digests}",
        }
    )
    expected = recorded_digest(workload.name, seed)
    if expected is None:
        out.append({"name": f"no digest recorded for seed {seed}", "ok": True, "detail": ""})
    else:
        out.append(
            {
                "name": f"digest equals the one recorded for seed {seed}",
                "ok": digests == [expected],
                "detail": "" if digests == [expected] else f"recorded {expected}",
            }
        )
    for name, ok, detail in workload.oracle_checks(locallab):
        out.append({"name": f"oracle: {name}", "ok": ok, "detail": detail})
    for name, op in planted_cases(plain):
        failures: list[str] = []
        rejected = not attempt(op, failures)
        out.append(
            {
                "name": f"planted: {name}",
                "ok": rejected and not failures,
                "detail": failures[0] if failures else ("" if rejected else "accepted"),
            }
        )
    return out


def span_cost_s(repeats: int = 5, calls: int = 20000) -> float:
    """Extra time of one traced call over a plain one, around a trivial
    function in this process: the best of `repeats` batches."""
    from layers import Tracer

    def noop():
        return None

    traced = Tracer("calibration").wrap("noop", noop)
    clock = time.perf_counter
    best = float("inf")
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            traced()
        t2 = clock()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return best


def per_layer_metrics(tracer, setup_spans: int, traced: list[dict], workload) -> dict:
    """Set-up plus one traced pass (the mean over traced passes)."""
    from layers import LAYER_FUNCTION_NAMES

    setup = tracer.self_times(tracer.spans[:setup_spans])
    passes = tracer.self_times(tracer.spans[setup_spans:])
    k = len(traced)
    out: dict[str, float] = {}
    for name in LAYER_FUNCTION_NAMES:
        calls_setup, busy_setup = setup.get(name, (0, 0.0))
        calls_pass, busy_pass = passes.get(name, (0, 0.0))
        calls = calls_setup + calls_pass / k
        out[f"{name}.calls"] = int(calls) if calls == int(calls) else calls
        out[f"{name}.busy_s"] = busy_setup + busy_pass / k
    hit_ratio = getattr(workload, "hit_ratio", None)
    out["graphs.view_isomorphisms.hit_ratio"] = hit_ratio() if hit_ratio else 0.0
    out["bench.op.self_s"] = passes.get("bench.op", (0, 0.0))[1] / k
    # Spans of one pass times the measured cost of one span: a difference of
    # traced and untraced passes would be buried in pass-to-pass noise.
    spans_per_pass = (len(tracer.spans) - setup_spans) / k
    out["trace.overhead_s"] = spans_per_pass * span_cost_s()
    return out


def write_spans(tracer, path: Path, header: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        fh.write(json.dumps(header) + "\n")
        for sid, parent, name, start, end in tracer.spans:
            fh.write(
                json.dumps(
                    {"run": tracer.run_id, "id": sid, "parent": parent, "name": name,
                     "start": start, "end": end}
                )
                + "\n"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start_scale = hostspeed.scale()
    locallab = import_locallab()
    from layers import Layers, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}") if args.trace else None
    api = Layers(tracer)
    if tracer is None:
        workload.setup(api)
    else:
        with tracer.span("bench.setup"):
            workload.setup(api)
    first_op_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    # Set-up is scaled to the reference speed by probes at both of its ends.
    setup_scale = (start_scale + hostspeed.scale()) / 2
    if args.mode == "setup":
        print(json.dumps({"first_op_at": first_op_at, "setup_scale": setup_scale}))
        return 0

    result: dict = {"first_op_at": first_op_at, "setup_scale": setup_scale}
    setup_spans = len(tracer.spans) if tracer else 0
    passes = timed_passes(workload, api, args.seconds, tracer)
    result["passes"] = passes
    if tracer is not None:
        result["per_layer"] = per_layer_metrics(tracer, setup_spans, passes, workload)
        trace_file = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        write_spans(
            tracer,
            trace_file,
            {"run": tracer.run_id, "workload": args.workload, "seed": args.seed,
             "traced_passes": len(passes)},
        )
        result["trace_file"] = str(trace_file.relative_to(BENCH_DIR.parent))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["ops"] = sum(len(p["latencies_s"]) for p in passes)
    result["ops_failed"] = sum(p["failed"] for p in passes)
    for p in passes:
        for failure in p.pop("failures"):
            print(failure, file=sys.stderr)
    result["gates"] = gates(workload, args.seed, passes, Layers(), locallab)
    result["summary"] = passes[0]["summary"]
    result["digest"] = passes[0]["digest"]
    for p in result["passes"]:
        del p["summary"]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
