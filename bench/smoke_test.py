"""Smoke test of the benchmark itself, on tiny inputs.

    python3 bench/smoke_test.py

For every workload, an untraced and a traced run must print each metric
named in BENCHMARK.json with its unit and pass the correctness gate. Two
traced runs of each logical workload must reach the same tip with the same
per-layer call counts, and the untraced run the same tip too. A traced
function that no longer exists must fail the install loudly, as must a
per-layer metric with no computation, and the
benchmark must refuse to run, printing no result, without the program's
source next to it. Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import harness

BENCH = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [*BENCH["command"], "--workload", workload, "--seed", str(SEED), "--seconds", "3", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=harness.ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def _check_result(workload: str, trace: int, result: dict) -> None:
    wanted = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(wanted))} differ"
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    assert result["correct"], f"{workload} trace={trace}: correctness gate failed"
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]


def main() -> int:
    harness.import_program()
    for workload in ("sim_lifecycle", "catchup_audit", "live_tcp"):
        info, result = _run(workload, 0)
        _check_result(workload, 0, result)
        traced_info, traced = _run(workload, 1)
        _check_result(workload, 1, traced)
        if workload != "live_tcp":
            again_info, _ = _run(workload, 1)
            assert traced_info["tip"] == again_info["tip"] == info["tip"], f"{workload}: tips differ"
            assert traced_info["layer_calls"] == again_info["layer_calls"], f"{workload}: layer counts differ"
        print(f"ok {workload}: {json.dumps({k: round(v['value'], 3) for k, v in result['metrics'].items()})}")

    import tracing

    tracing.LAYERS = tracing.LAYERS + (("ledger.gone", "chainacl.ledger", "no_such_function", None),)
    try:
        tracing.Tracer().install()
    except AttributeError as exc:
        print(f"ok missing layer fails loudly: {exc}")
    else:
        raise AssertionError("installing a missing layer did not fail")

    listed = tracing.bench_spec
    tracing.bench_spec = lambda: {"per_layer": [{"name": "ledger.gone.calls", "unit": "count"}]}
    try:
        tracing.per_layer_metrics({"layers": {}, "notes": {}}, 1.0, 1, 1, {"overhead_share": 0.0})
    except KeyError as exc:
        print(f"ok metric without a computation fails loudly: {exc}")
    else:
        raise AssertionError("a per-layer metric without a computation did not fail")
    finally:
        tracing.bench_spec = listed

    bare = harness.RUN_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(harness.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        cmd = [*BENCH["command"], "--workload", "sim_lifecycle", "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, "ran without the program source"
        print(f"ok without source: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
