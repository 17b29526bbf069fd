#!/usr/bin/env python3
"""Benchmark command: two-party sessions over loopback TCP.

    python3 bench/run.py --workload demo|wide|deep --seed N --seconds S --trace 0|1

Runs sessions of one workload back to back for S seconds from the root
of a checkout, checks every session, and prints the result as one JSON
object on the last line of standard output: `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics, or with `--trace 1` the
per-layer ones).  A readable summary goes to standard error.  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOADS = ("demo", "wide", "deep")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed; sessions draw inputs from it")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to run sessions (at least one runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: time each layer and report per-layer metrics")
    return parser.parse_args(argv)


def pin_to_one_cpu() -> None:
    """Keep this process, and so both party threads, on one CPU.

    The parties share one interpreter lock, so their compute never
    overlaps.  On one CPU each hand-off between them is a local wake-up;
    across the CPUs of a shared virtual machine it waits until the other
    CPU is scheduled, which varies with the host's load (see README).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [path for path in (SRC / "asmpc" / "__init__.py",
                                 ROOT / "programs" / "demo.prog")
               if not path.is_file()]
    if missing:
        print(f"error: not a checkout of the asmpc repository; missing "
              f"{', '.join(str(p.relative_to(ROOT)) for p in missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Imported here, once src/ is on the path; this script's own directory
    # is already on it, so the benchmark's modules import by name.
    from harness import run_benchmark

    pin_to_one_cpu()
    result = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace), ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
