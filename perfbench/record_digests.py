"""Record the per-seed result digests that every benchmark run is checked against.

    python3 perfbench/record_digests.py

Runs one untimed pass per workload and seed in SEEDS and writes digests.json
afresh.  A seed whose pass has a failed operation is not recorded.
Re-record only when a workload's definition changes on purpose: a digest that
changes after a change to locallab is a correctness failure.
"""

from __future__ import annotations

import json
import sys

import worker

SEEDS = tuple(range(21)) + (1009,)  # 7 is the default seed, 1009 the held-out one


def main() -> int:
    worker.import_locallab()
    from layers import Layers
    from workloads import WORKLOADS

    api = Layers()
    recorded: dict[str, dict[str, str]] = {}
    status = 0
    for name in WORKLOADS:
        for seed in SEEDS:
            workload = WORKLOADS[name](seed)
            workload.setup(api)
            result = worker.run_pass(workload, api)
            if result["failed"]:
                print(f"{name} seed {seed}: {result['failed']} failed ops, not recorded", file=sys.stderr)
                for failure in result["failures"]:
                    print(failure, file=sys.stderr)
                status = 1
                continue
            recorded.setdefault(name, {})[str(seed)] = result["digest"]
            print(f"{name} seed {seed}: {result['digest']} {json.dumps(result['summary'], sort_keys=True)}")
    worker.DIGESTS_FILE.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
