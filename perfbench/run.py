"""panokit benchmark: file-to-file CLI throughput with a traced layer split.

    python3 perfbench/run.py --workload match --seed 1 --seconds 45 --trace 0

Prints a readable report, then as its last line one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Exits 2 without a result
when the checkout has no panokit sources or set-up fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from workloads import WORKLOADS, require_panokit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_panokit()
    import harness

    try:
        report = harness.run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    except harness.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(harness.format_report(report))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
