"""perfbench: end-to-end and per-layer benchmark of the cloaking program.

Run from the repository root::

    python3 perfbench/run.py --workload cloak-cold --seed 1 --seconds 30 --trace 0

Prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.  The line
before it holds the raw figures (unscaled seconds, the run's speed
factor, sample counts).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cloak-cold", "churn-distributed", "churn-tree", "service-tcp")


def _parse(argv):
    parser = argparse.ArgumentParser(description="cloaking benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    if args.workload == "cloak-cold":
        import cold

        result = cold.run(args.seed, args.seconds)
    elif args.workload == "service-tcp":
        import service

        result = service.run(args.seed, args.seconds, bool(args.trace))
    else:
        import churn

        result = churn.run(
            args.seed, args.seconds, args.workload.split("-", 1)[1]
        )
    if tracer is not None:
        import layers

        metrics = layers.per_layer(result, tracer.spans)
        tracer.dump(HERE / "_traces" / f"{args.workload}-{args.seed}.json")
        result["raw"]["end_to_end_traced"] = {
            name: entry["value"] for name, entry in result["metrics"].items()
        }
    else:
        metrics = result["metrics"]
    print(json.dumps({"raw": result["raw"]}))
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
