"""A restarted validator: load and replay a saved chain, then answer audit reads.

    python3 bench/catchup_worker.py '<job json>'

Run by ``wl_catchup.py`` in a fresh process, so nothing computed while the
chain was built is still in memory. Writes timings, the replayed tip and
digest, a signature of every read's answer and, when tracing, the span
summary to the job's ``out`` file.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import harness


def log_signature(entries) -> str:
    """Order-sensitive hash of (kind, request id, height) triples."""
    h = hashlib.sha256()
    n = 0
    for kind, request_id, height in entries:
        h.update(f"{kind}|{request_id}|{height};".encode())
        n += 1
    return f"{n}:{h.hexdigest()[:16]}"


def poll_signature(status: str) -> str:
    return f"status:{status}"


class ReplayedNode:
    """Read-only service backend over a replayed ledger state."""

    role = "validator"

    def __init__(self, state, now: int):
        self.state = state
        self._now = now

    def now(self) -> int:
        return self._now

    def submit_tx(self, tx):
        return "read_only"

    def ledger_state(self):
        return self.state

    def redeem(self, link_token, nonce, operation):
        return False, "not_storage", b""


def _signature(request: dict, response: dict) -> str:
    if not response.get("ok"):
        return f"error:{response.get('error')}"
    if request["op"] == "poll":
        return poll_signature(response["status"])
    return log_signature((e["kind"], e["request_id"], e["height"]) for e in response["entries"])


def main(job: dict) -> None:
    harness.import_program()
    from chainacl.contracts import ContractRuntime
    from chainacl.crypto import Provider
    from chainacl.engine import load_model, parse_rules
    from chainacl.ledger import load_chain, replay_chain, state_digest
    from chainacl.service import dispatch_service

    runtime = ContractRuntime(load_model(job["model"]), parse_rules(Path(job["rules"]).read_text()))
    reads = json.loads(Path(job["reads"]).read_text())
    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        # installing rebinds module attributes; resolve the layers again
        from chainacl.ledger import load_chain, replay_chain, state_digest  # noqa: F811
        from chainacl.service import dispatch_service  # noqa: F811

    # time each block and sample the machine's speed after it, outside the
    # timed interval, so a slow minute can be scaled out block by block; a
    # traced pass does not sample, which keeps the samples out of its spans
    from chainacl import ledger

    speed = harness.Speedometer()
    blocks = []  # (apply seconds, speed sample index)
    apply_block = ledger.apply_block

    def apply_and_sample(*args, **kwargs):
        start = time.perf_counter()
        outcome = apply_block(*args, **kwargs)
        blocks.append((time.perf_counter() - start, speed.sample()))
        return outcome

    if tracer is None:
        ledger.apply_block = apply_and_sample
    t0 = time.perf_counter()
    state = replay_chain(load_chain(job["chain"]), runtime, Provider())
    catchup_s = time.perf_counter() - t0 - speed.total_s
    ledger.apply_block = apply_block
    catchup_scaled_s = None
    if blocks:
        applying_s = sum(seconds for seconds, _ in blocks)
        catchup_scaled_s = (catchup_s - applying_s) / speed.factor + sum(
            seconds / speed.local(i, i) for seconds, i in blocks
        )
    node = ReplayedNode(state, state.chain[-1].time + 1)
    read_ms, sigs, by_shape = [], [], {}
    for request in reads:
        a = time.perf_counter()
        response = dispatch_service(node, request)
        ms = (time.perf_counter() - a) * 1000.0
        read_ms.append(ms)
        sigs.append(_signature(request, response))
        shape = next((k for k in ("user_pk", "kind", "from_height") if k in request), "poll")
        by_shape.setdefault(shape, []).append(ms)
    t2 = time.perf_counter()
    digest = state_digest(state).hex()
    out = {
        "catchup_s": catchup_s,
        "catchup_scaled_s": catchup_scaled_s,
        "read_ms": read_ms,
        "read_ms_by_shape": {k: harness.quantile(v, 0.5) for k, v in by_shape.items()},
        "read_sigs": sigs,
        "digest_s": time.perf_counter() - t2,
        "wall_s": catchup_s + sum(read_ms) / 1000.0,
        "replay_speed_factor": speed.local(0, len(blocks) - 1) if blocks else None,
        "block_ms": [seconds * 1000.0 for seconds, _ in blocks],
        "block_ms_scaled": [seconds * 1000.0 / speed.local(i, i) for seconds, i in blocks],
        "tip": state.tip_hash.hex(),
        "digest": digest,
        "height": state.height,
    }
    if tracer is not None:
        from tracing import write_spans

        tracer.uninstall()
        out["trace"] = tracer.summary()
        out["spans_file"] = write_spans(tracer, "catchup_audit", job["seed"], "replay")
    Path(job["out"]).write_text(json.dumps(out))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
