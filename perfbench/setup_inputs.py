"""Set-up child: import panokit, generate a workload's inputs and write them.

Run as its own process so that set-up time includes the import and set-up
memory stays out of the parent's peak RSS. Prints one JSON line: the
set-up seconds and, with --trace, the self time and counts of each layer.

    python3 perfbench/setup_inputs.py --spec JSON --seed N --out DIR [--trace]
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import Workload, require_panokit, write_inputs  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spec", required=True, help="workload as JSON")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    require_panokit()
    import panokit  # noqa: F401  (the import is part of set-up time)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    write_inputs(Workload.from_json(args.spec), args.seed, Path(args.out))
    seconds = perf_counter() - START
    report = {"setup_s": seconds}
    if tracer is not None:
        tracer.uninstall()
        report["self_s"] = {name: s for (_, name), s in tracer.self_times().items()}
        report["counts"] = {key: n for (_, key), n in tracer.counts.items()}
    print(json.dumps(report))


if __name__ == "__main__":
    main()
