"""Run one chainacl benchmark workload and print its metrics.

    python3 bench/run.py --workload sim_lifecycle --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced pass plus the tracing overhead against an untraced
pass of the same inputs. The line before it, ``{"info": ...}``, records
the machine, the inputs and the figures behind each metric. The run exits
non-zero, printing no result, when the program's source is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

import harness

WORKLOADS = {"sim_lifecycle": "wl_sim", "catchup_audit": "wl_catchup", "live_tcp": "wl_live"}


def main(argv=None) -> int:
    try:
        spec = harness.bench_spec()
        harness.import_program()
    except harness.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=int, default=spec["run_seconds"], help="length of the live open loop (default: run_seconds)"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test inputs")
    args = parser.parse_args(argv)

    result = importlib.import_module(WORKLOADS[args.workload]).run(args.seed, args.seconds, bool(args.trace), args.size)
    tally = result["tally"]
    if args.trace:
        metrics = result["metrics"]
    else:
        metrics = {m["name"]: {"value": float(result["metrics"][m["name"]]), "unit": m["unit"]} for m in spec["end_to_end"]}
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": harness.HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "machine": harness.machine_record(),
        "failures": tally.failures,
        "failed_share": tally.failed / max(1, tally.attempted),
        "hard_errors": tally.hard_errors,
        **result["info"],
    }
    print(json.dumps({"info": info}, sort_keys=True))
    print(
        json.dumps(
            {"correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
