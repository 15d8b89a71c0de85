"""The repro-stg benchmark: one command for every workload.

    python3 perfbench/run.py --workload check-scalable --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` is the separate traced run that replays the workload's inputs
through each layer's public call and reports the per-layer metrics.  The
last line of standard output is the JSON result; the line before it
(``report {...}``) holds provenance and detail.  The exit status is 0 only
when every verdict matched its known answer.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import benchlib

WORKLOADS = ("batch-table1", "check-scalable", "serve-mixed")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    benchlib.require_program()
    import wl_batch
    import wl_check
    import wl_serve

    module = {
        "batch-table1": wl_batch,
        "check-scalable": wl_check,
        "serve-mixed": wl_serve,
    }[args.workload]
    run = module.trace_run if args.trace else module.timed_run
    with benchlib.workdir(args.workload) as work:
        tally, metrics, report = run(args.seed, args.seconds, work)
    if args.trace:
        import pipeline

        report["attribution"] = pipeline.attribution()
    return benchlib.emit(tally, metrics, report)


if __name__ == "__main__":
    sys.exit(main())
