"""Benchmark of mxpbench: time to solution, iteration penalty, per-layer spans.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 20 --trace 0

It imports ``mxpbench`` from the checkout's ``src/`` and from nowhere else,
and exits with code 2 without a result when that directory is missing.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a run whose timed solves alternate between traced and untraced.
It reports the metrics that ``BENCHMARK.json`` lists.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Spans of a traced run, and the exact counts that
later runs of the same sources must repeat, are written to
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _parser():
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   help="desk, mid or ranks2 (see BENCHMARK.json)")
    p.add_argument("--seed", type=int, default=0,
                   help="orders mixed and double solves; passed as the "
                        "program's seed")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 = per-layer metrics from a traced run")
    return p


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "mxpbench" / "__init__.py").is_file():
        print(f"perfbench: no mxpbench sources under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(HERE)]
    import harness

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"])
              for m in spec["per_layer" if args.trace else "end_to_end"]]

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(harness.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result = harness.Run(args.workload, args.seed, args.seconds,
                             args.trace, listed,
                             ROOT / ".perfbench_out").execute()
    except Exception:  # noqa: BLE001 - report the crash as an incorrect run
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
