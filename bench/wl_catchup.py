"""catchup_audit: a restarted validator replays a long chain, then serves audit reads.

Setup seals a seeded chain block by block with ``build_block`` and
``apply_block``, with a storage service minting links and users redeeming
them, so the chain holds all five transaction kinds; blocks are two seconds
apart, so abandoned links expire on chain. It is saved with ``save_chain``.
The timed phase runs in a fresh process (``catchup_worker.py``):
``load_chain`` + ``replay_chain`` from genesis, then audit reads through
``service.dispatch_service`` against the replayed state. The run's length
follows from its inputs, a fixed number of restarts; ``--seconds`` does not
change it.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import harness
from harness import Tally, check_decision

BLOCKS = {"full": 300, "tiny": 12}
PER_BLOCK = {"full": 20, "tiny": 6}
READS = {"full": 240, "tiny": 24}
BLOCK_STEP = 2  # seconds between blocks
# read mix, cycled: two cheap shapes and two that scan the whole log
READ_CYCLE = ("user", "range", "poll", "kind", "user", "range", "poll", "user")
# untraced replays per run, each in a fresh process; medians reported
RESTARTS = 3
WORKER_TIMEOUT = 60


def _build_chain(fx, plan, unreg, payloads, n_blocks, seed, speed, tally: Tally):
    from chainacl.contracts import encrypt_request_result
    from chainacl.crypto import Provider
    from chainacl.ledger import apply_block, build_block, genesis, slot_leader, submit_to_pool
    from chainacl.storage import StorageService, open_link_ciphertext
    from chainacl.transactions import LinkDeliveryTx, RequestInfo, build_access_request_tx, build_register_user_tx

    provider = Provider(seed)
    runtime = fx.runtime()
    state = genesis(fx.config)
    storage = StorageService(keypair=fx.storage, validators=fx.config.validators, provider=Provider(seed + 1), seed=seed + 1)
    for rid in range(fx.n_resources):
        storage.put_resource(rid, payloads[rid])
    leaders = {kp.public_key: kp for kp in fx.validators}
    by_rid = {r.request_id: r for r in plan.requests}
    carry = [build_register_user_tx(provider, fx.admin, kp.public_key, time=BLOCK_STEP) for kp in fx.users]
    redeemed = []
    for height in range(1, n_blocks + 1):
        now = height * BLOCK_STEP
        txs = list(carry)
        for req in plan.per_due.get(height, ()):
            key = fx.users[req.user] if req.user >= 0 else unreg[req.key_index]
            info = RequestInfo(resource_id=req.resource, operation=req.op, request_id=req.request_id)
            txs.append(build_access_request_tx(provider, key, info, time=now))
        if not txs:
            break
        for tx in txs:
            reason = submit_to_pool(state, tx, now, provider)
            if reason is not None:
                tally.hard(f"chain set-up: pool rejected a transaction at height {height}: {reason}")
        leader = leaders[slot_leader(now, fx.config)]
        block, _ = build_block(state, leader, now, runtime, provider)
        if block is None:
            tally.hard(f"chain set-up: nothing sealed at height {height}")
            break
        outcome = apply_block(state, block, runtime, provider)
        state = outcome.state
        carry = []
        for tx in block.transactions:
            if not isinstance(tx, LinkDeliveryTx) or by_rid[tx.request_id].abandon:
                continue
            req = by_rid[tx.request_id]
            grant = open_link_ciphertext(provider, fx.users[req.user], tx.ciphertext)
            payload, log_tx = storage.redeem(grant.link_token, grant.nonce, req.op, now)
            if payload != payloads[req.resource]:
                tally.fail("payload_mismatch")
            carry.append(log_tx)
            redeemed.append(req)
        for result in outcome.results:
            envelope = encrypt_request_result(provider, result, fx.storage.public_key, leader)
            link_tx = storage.handle_request_result(envelope, now)
            if link_tx is not None:
                carry.append(link_tx)
        speed.sample()
    return state, redeemed


def _read_plan(state, fx, seed: int, n_reads: int) -> list[dict]:
    from chainacl.ledger import LOG_KINDS

    rng = random.Random(f"chainacl-bench-reads/{seed}")
    request_ids = sorted(state.requests)
    reads = []
    for i in range(n_reads):
        shape = READ_CYCLE[i % len(READ_CYCLE)]
        if shape == "user":
            reads.append({"op": "logs", "user_pk": rng.choice(fx.users).public_key.hex()})
        elif shape == "kind":
            # kinds in rotation: answer sizes differ a hundredfold between kinds
            reads.append({"op": "logs", "kind": LOG_KINDS[(i // len(READ_CYCLE)) % len(LOG_KINDS)]})
        elif shape == "range":
            lo = rng.randrange(1, max(2, state.height - 8))
            reads.append({"op": "logs", "from_height": lo, "to_height": lo + 8})
        else:
            reads.append({"op": "poll", "request_id": rng.choice(request_ids).hex()})
    return reads


def _expected(state, reads: list[dict], now: int) -> list[str]:
    """Signatures of the correct answers, by plain filtering of the state that sealed the chain."""
    from chainacl.ledger import poll_request

    import catchup_worker

    out = []
    for q in reads:
        if q["op"] == "poll":
            record = poll_request(state, bytes.fromhex(q["request_id"]), now)
            out.append(catchup_worker.poll_signature(record.status if record else "pending"))
            continue
        entries = state.access_log
        if "user_pk" in q:
            pk = bytes.fromhex(q["user_pk"])
            entries = [e for e in entries if e.user_pk == pk]
        if "kind" in q:
            entries = [e for e in entries if e.kind == q["kind"]]
        if "from_height" in q:
            entries = [e for e in entries if q["from_height"] <= e.block_height <= q["to_height"]]
        out.append(catchup_worker.log_signature((e.kind, e.request_id.hex(), e.block_height) for e in entries))
    return out


def _replay(work: Path, trace: bool, seed: int) -> dict:
    out = work / ("traced.json" if trace else "untraced.json")
    job = {
        "chain": str(work / "chain.bin"),
        "model": str(work / "model.bin"),
        "rules": str(work / "rules.txt"),
        "reads": str(work / "reads.json"),
        "trace": trace,
        "seed": seed,
        "out": str(out),
    }
    worker = Path(__file__).with_name("catchup_worker.py")
    subprocess.run(
        [sys.executable, str(worker), json.dumps(job)],
        check=True,
        timeout=WORKER_TIMEOUT,
        env=harness.child_env(),
        cwd=harness.ROOT,
    )
    return json.loads(out.read_text())


def run(seed: int, seconds: int, trace: bool, size: str) -> dict:
    from chainacl.engine import format_rules, save_model
    from chainacl.ledger import save_chain, state_digest

    t0 = time.perf_counter()
    fx = harness.fixtures()
    fixtures_s = time.perf_counter() - t0
    n_blocks = BLOCKS[size]
    plan = harness.make_plan(seed, range(2, n_blocks - 1), PER_BLOCK[size], fx.pairs, len(fx.users), fx.n_resources)
    unreg = harness.unregistered_keys(fx.provider, seed)
    payloads = {r: harness.payload_for(fx.seed, r) for r in range(fx.n_resources)}
    ref = harness.Reference(fx.model, fx.rules, {i: i for i in range(len(fx.users))})
    ref.prime(plan)
    tally = Tally(attempted=len(plan.requests))

    work = harness.RUN_DIR / f"catchup-{seed}-{int(time.time() * 1000)}"
    work.mkdir(parents=True)
    try:
        speed = harness.Speedometer()
        t1 = time.perf_counter()
        state, redeemed = _build_chain(fx, plan, unreg, payloads, n_blocks, seed, speed, tally)
        save_chain(state.chain, work / "chain.bin")
        save_model(fx.model, work / "model.bin")
        (work / "rules.txt").write_text(format_rules(fx.rules))
        setup_raw_s = time.perf_counter() - t1 - speed.total_s

        if any(state.user_record(kp.public_key).user_index != i for i, kp in enumerate(fx.users)):
            tally.hard("on-chain user indices do not follow registration order")
        for req in plan.requests:
            check_decision(tally, ref, req, state.requests.get(req.request_id))
        misattributed = harness.check_redemptions(
            tally, plan, ref, redeemed, lambda req: state.requests[req.request_id].status
        )

        reads = _read_plan(state, fx, seed, READS[size])
        (work / "reads.json").write_text(json.dumps(reads))
        now = state.chain[-1].time + 1
        expected = _expected(state, reads, now)
        tip, digest = state.tip_hash.hex(), state_digest(state).hex()

        untraced = [_replay(work, False, seed) for _ in range(RESTARTS)]
        passes = untraced + ([_replay(work, True, seed)] if trace else [])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for p in passes:
        if p["tip"] != tip or p["digest"] != digest:
            tally.hard(f"replayed state tip/digest {p['tip'][:12]}/{p['digest'][:12]} != sealed {tip[:12]}/{digest[:12]}")
    tally.attempted += len(reads)
    tally.fail("audit_read_mismatch", sum(any(p["read_sigs"][i] != want for p in passes) for i, want in enumerate(expected)))
    n_requests = len(plan.requests)
    # metrics are speed-scaled (see harness.Speedometer); raw figures go to info
    catchup_s = median(p["catchup_scaled_s"] for p in untraced)
    raw_catchup_s = median(p["catchup_s"] for p in untraced)
    # one op is one replayed block; the audit reads are memory-bound, which the
    # speed reference does not follow, so their latencies go to the info line
    lat = harness.timing_summary([ms for p in untraced for ms in p["block_ms_scaled"]])
    metrics = {
        "setup_s": setup_raw_s / speed.factor,
        "requests_per_s": n_requests / catchup_s,
        "op_ms_p50": lat["p50"],
        "op_ms_tail": lat["tail"],
    }
    info = {
        "fixtures_s": fixtures_s,
        "setup_raw_s": setup_raw_s,
        "setup_speed_factor": speed.factor,
        "catchup_s_samples": [p["catchup_s"] for p in untraced],
        "replay_speed_factors": [p["replay_speed_factor"] for p in untraced],
        "catchup_ms_per_block": raw_catchup_s * 1000.0 / state.height,
        "state_digest_s": median(p["digest_s"] for p in untraced),
        "block_ms_scaled": lat,
        "block_ms_raw": harness.timing_summary([ms for p in untraced for ms in p["block_ms"]]),
        "audit_read_ms": harness.timing_summary([ms for p in untraced for ms in p["read_ms"]]),
        "audit_read_ms_by_op": untraced[0]["read_ms_by_shape"],
        "blocks": state.height,
        "requests_per_block": n_requests / max(1, state.height),
        "log_entries": len(state.access_log),
        "redeemed": len(redeemed),
        "misattributed_redemptions": misattributed,
        "tip": tip,
        "digest": digest,
        "mix": harness.mix_record(plan, ref),
    }
    if trace:
        from tracing import per_layer_metrics

        traced = passes[-1]
        # raw replay times: the traced pass takes no speed samples
        extra = {"overhead_share": traced["catchup_s"] / raw_catchup_s - 1.0}
        metrics = per_layer_metrics(traced["trace"], traced["wall_s"], n_requests, state.height, extra)
        info["traced_wall_s"] = traced["wall_s"]
        info["layer_calls"] = {k: v[0] for k, v in sorted(traced["trace"]["layers"].items())}
        info["spans_file"] = traced["spans_file"]
    return {"metrics": metrics, "tally": tally, "info": info}
