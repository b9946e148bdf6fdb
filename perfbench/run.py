#!/usr/bin/env python3
"""Burst-receiver benchmark of burstrx.

    python3 perfbench/run.py --workload paper_frame --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is loaded from the
checkout's ``src``.  The last line of standard output is the result object:
``correct``, ``attempted`` (bursts run), ``failed`` (bursts whose ``receive``
raised) and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``).  The line before it is the report: decision digest, burst
statuses, timing quartiles, metric-to-layer map and run metadata.

Exit status: 0 when every check passes, 1 when a check fails (the result is
still printed), 2 when the checkout holds no burstrx source.
"""

import argparse
import json
import sys
from pathlib import Path

from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    package = Path(__file__).resolve().parent.parent / "src" / "burstrx"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no burstrx source at {package}", file=sys.stderr)
        return 2

    import bench

    result, report = bench.measure(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
