"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload live_tcp --seeds 1-10 [--json runs.json] [--baseline]

Runs ``run.py`` once per seed, one run at a time, and prints each metric's
values, median and interquartile range as a share of the median (the
quartiles of ``statistics.quantiles(values, n=4)``). A benchmark is steady
when every spread except ``setup_s`` stays well inside its bound in
``BENCHMARK.json``. ``--baseline`` appends the set's medians and quartiles
to the workload's list in ``bench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--json", help="also write the per-run results here")
    parser.add_argument("--baseline", action="store_true", help="record this set in bench/baseline.json")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = []
    for seed in _seeds(args.seeds):
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        info, result = json.loads(lines[-2])["info"], json.loads(lines[-1])
        runs.append({"seed": seed, **result, "info": info})
        if not result["correct"]:
            print(f"seed {seed}: failures {info['failures']} errors {info['hard_errors']}", flush=True)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} {values}", flush=True)
    print(f"{'metric':<18} {'median':>12} {'spread':>8} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        s = spread(values) if len(values) >= 2 else 0.0
        print(f"{name:<18} {statistics.median(values):>12.4f} {s:>8.4f} {bounds.get(name, 0):>6}")
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))
    if args.baseline:
        _record_baseline(args.workload, runs)
    return 0


def _record_baseline(workload: str, runs: list[dict]) -> None:
    """Append this set's medians and quartiles to the workload's sets in baseline.json."""
    path = ROOT / "bench" / "baseline.json"
    baseline = json.loads(path.read_text()) if path.is_file() else {}
    entry = {"seeds": [r["seed"] for r in runs], "machine": runs[0]["info"]["machine"], "metrics": {}}
    for name, metric in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        entry["metrics"][name] = {"unit": metric["unit"], "median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}
    entry["failed"] = [r["failed"] for r in runs]
    entry["attempted"] = [r["attempted"] for r in runs]
    if workload == "catchup_audit":
        entry["catchup_ms_per_block"] = statistics.median(r["info"]["catchup_ms_per_block"] for r in runs)
    baseline.setdefault(workload, []).append(entry)
    path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
