"""sim_lifecycle: the full request lifecycle on the deterministic simulator.

Cast: ``scenarios.shared_fixtures`` (three validators, ``s0``, a hundred
registered users) on ``network.simulator.World`` with one-slot messages and
no drops. Load is an open loop in logical time: a fixed number of new
requests per slot for more than ``LINK_LIFETIME`` slots, so abandoned links
expire on chain, then a fixed number of drain slots. Users poll validator
``v0`` after every slot, decrypt their link, redeem it at ``s0`` and
replay a share of spent links.
"""

from __future__ import annotations

import time
from collections import deque
from statistics import median

import harness
from harness import Tally, check_decision

LOAD_SLOTS = {"full": 320, "tiny": 24}
PER_SLOT = {"full": 6, "tiny": 3}
DRAIN_SLOTS = 15
REPLAY_DELAY = 2  # slots between a redemption reply and its replay
SETUP_REPEATS = 5


def _setup(fx, seed):
    """A fresh world with every fixture user registered on all validators."""
    from chainacl import scenarios
    from chainacl.network import NetworkConfig
    from chainacl.transactions import build_register_user_tx

    world = scenarios.build_world(fx, NetworkConfig(seed=seed))
    for kp in fx.users:
        world.submit_transaction("admin", build_register_user_tx(fx.provider, fx.admin, kp.public_key, time=world.tick))
    for _ in range(10):
        world.step()
        if all(len(n.core.state.users) == len(fx.users) for n in world.honest_validators()):
            return world
    raise RuntimeError("user registration did not reach every validator")


def _simulate(world, fx, plan, ref, unreg, payloads, load_slots, tally: Tally) -> dict:
    """One pass over the plan; returns timings, outcomes and the final chain.

    A speedometer sample follows every slot; wall times exclude the samples.
    """
    from chainacl.network import RedeemCall
    from chainacl.storage import open_link_ciphertext
    from chainacl.transactions import RequestInfo, build_access_request_tx

    provider = fx.provider
    speed = harness.Speedometer()
    start_height = world.nodes["v0"].core.state.height
    inflight: dict[int, tuple] = {}  # index -> (req, due wall time, due slot)
    waiting: dict[str, deque] = {}  # user node -> redemptions awaiting a reply, in send order
    consumed: dict[str, int] = {}
    replays_due: dict[int, list] = {}
    redeemed: list = []
    latencies, slot_ms, grant_slots = [], [], []
    finalized = 0

    def node_of(req):
        return f"u{req.user:03d}" if req.user >= 0 else f"x{req.key_index:02d}"

    def key_of(req):
        return fx.users[req.user] if req.user >= 0 else unreg[req.key_index]

    def send_redeem(req, creds, replay):
        node = node_of(req)
        world.send_message(node, "s0", RedeemCall(link_token=creds[0], nonce=creds[1], operation=req.op, reply_to=node))
        waiting.setdefault(node, deque()).append((req, creds, replay))

    for slot in range(load_slots + DRAIN_SLOTS):
        t_due = time.perf_counter() - speed.total_s
        for req in plan.per_due.get(slot, ()):
            info = RequestInfo(resource_id=req.resource, operation=req.op, request_id=req.request_id)
            tx = build_access_request_tx(provider, key_of(req), info, time=world.tick)
            world.submit_transaction(node_of(req), tx)
            inflight[req.index] = (req, t_due, slot)
        for req, creds in replays_due.pop(slot, ()):
            send_redeem(req, creds, True)
        world.step()

        now = time.perf_counter() - speed.total_s
        for index, (req, due_wall, due_slot) in list(inflight.items()):
            record = world.poll(req.request_id)
            if record is None or (record.status == "granted" and not record.link_ciphertext):
                continue
            del inflight[index]
            ok = check_decision(tally, ref, req, record)
            if not record.link_ciphertext:
                finalized += 1
                continue
            latencies.append((now - due_wall, due_slot, slot))
            grant_slots.append(slot + 1 - due_slot)
            grant = open_link_ciphertext(provider, key_of(req), record.link_ciphertext)
            if req.abandon or not ok:
                finalized += 1
            else:
                send_redeem(req, (grant.link_token, grant.nonce), False)
        for node, queue in waiting.items():
            replies = world.nodes[node].core.replies
            while queue and consumed.get(node, 0) < len(replies):
                reply = replies[consumed.get(node, 0)]
                consumed[node] = consumed.get(node, 0) + 1
                req, creds, replay = queue.popleft()
                if replay:
                    if reply.ok or reply.reason != "already_redeemed":
                        tally.fail("replay_accepted")
                    continue
                finalized += 1
                if not reply.ok:
                    tally.fail("redeem_refused")
                    continue
                if reply.payload != payloads[req.resource]:
                    tally.fail("payload_mismatch")
                redeemed.append(req)
                if req.replay:
                    replays_due.setdefault(slot + REPLAY_DELAY, []).append((req, creds))
        slot_ms.append((time.perf_counter() - speed.total_s - t_due) * 1000.0)
        speed.sample()
    # speed-scaled figures: each interval divided by the machine speed around it
    scaled_slot_ms = [ms / speed.local(i, i) for i, ms in enumerate(slot_ms)]
    scaled_grant_ms = [lat * 1000.0 / speed.local(first, last) for lat, first, last in latencies]

    tally.fail("not_decided", len(inflight))
    tally.fail("redeem_unanswered", sum(len(q) for q in waiting.values()))
    misattributed = harness.check_redemptions(
        tally, plan, ref, redeemed, lambda req: getattr(world.poll(req.request_id), "status", None)
    )
    report = world.report()
    if not report.agreement:
        tally.hard(f"validators disagree: tips={report.tips} digests={report.digests}")
    blocks = report.height - start_height
    return {
        "wall_s": sum(slot_ms) / 1000.0,
        "scaled_wall_s": sum(scaled_slot_ms) / 1000.0,
        "speed_factor": speed.factor,
        "slot_ms": slot_ms,
        "scaled_slot_ms": scaled_slot_ms,
        "grant_ms": [lat * 1000.0 for lat, _, _ in latencies],
        "scaled_grant_ms": scaled_grant_ms,
        "finalized": finalized,
        "grant_slots": grant_slots,
        "tip": report.tips.get("v0", ""),
        "digest": report.digests.get("v0", ""),
        "height": report.height,
        "blocks": blocks,
        "redeemed": len(redeemed),
        "misattributed": misattributed,
        "messages": sum(" send src=" in line for line in world.trace),
    }


def run(seed: int, seconds: int, trace: bool, size: str) -> dict:
    t0 = time.perf_counter()
    fx = harness.fixtures()
    fixtures_s = time.perf_counter() - t0
    load_slots = LOAD_SLOTS[size]
    plan = harness.make_plan(seed, range(load_slots), PER_SLOT[size], fx.pairs, len(fx.users), fx.n_resources)
    unreg = harness.unregistered_keys(fx.provider, seed)
    payloads = {r: harness.payload_for(fx.seed, r) for r in range(fx.n_resources)}

    setup_times = []
    setup_speed = harness.Speedometer()
    for _ in range(SETUP_REPEATS):
        for _ in range(10):
            setup_speed.sample()
        t = time.perf_counter()
        world = _setup(fx, seed)
        setup_times.append(time.perf_counter() - t)
    state = world.nodes["v0"].core.state
    index = {i: state.user_record(kp.public_key).user_index for i, kp in enumerate(fx.users)}
    ref = harness.Reference(fx.model, fx.rules, index)
    ref.prime(plan)

    tally = Tally(attempted=len(plan.requests))
    if any(index[i] != i for i in index):
        tally.hard("on-chain user indices do not follow registration order")
    result = _simulate(world, fx, plan, ref, unreg, payloads, load_slots, tally)

    # metrics are speed-scaled (see harness.Speedometer); raw figures go to info
    slot = harness.timing_summary(result["scaled_slot_ms"])
    metrics = {
        "setup_s": median(setup_times) / setup_speed.factor,
        "requests_per_s": result["finalized"] / result["scaled_wall_s"],
        "op_ms_p50": slot["p50"],
        "op_ms_tail": slot["tail"],
    }
    info = {
        "fixtures_s": fixtures_s,
        "speed_factor": result["speed_factor"],
        "setup_speed_factor": setup_speed.factor,
        "setup_s_samples": setup_times,
        "slot_ms_raw": harness.timing_summary(result["slot_ms"]),
        "grant_ms_scaled": harness.timing_summary(result["scaled_grant_ms"]),
        "grant_ms_raw": harness.timing_summary(result["grant_ms"]),
        "grant_slots_p99": harness.quantile(result["grant_slots"], 0.99) if result["grant_slots"] else 0,
        "wall_s": result["wall_s"],
        "load_slots": load_slots,
        "drain_slots": DRAIN_SLOTS,
        "requests_per_slot": PER_SLOT[size],
        "blocks": result["blocks"],
        "requests_per_block": len(plan.requests) / max(1, result["blocks"]),
        "redeemed": result["redeemed"],
        "misattributed_redemptions": result["misattributed"],
        "tip": result["tip"],
        "digest": result["digest"],
        "mix": harness.mix_record(plan, ref),
    }

    if trace:
        from tracing import Tracer, per_layer_metrics, write_spans

        world = _setup(fx, seed)
        tracer = Tracer()
        tracer.install()
        try:
            traced_tally = Tally(attempted=len(plan.requests))
            traced = _simulate(world, fx, plan, ref, unreg, payloads, load_slots, traced_tally)
        finally:
            tracer.uninstall()
        if traced["tip"] != result["tip"]:
            tally.hard(f"traced run reached tip {traced['tip']}, untraced {result['tip']}")
        if traced_tally.failures != tally.failures:
            tally.hard(f"traced run failures {traced_tally.failures} differ from {tally.failures}")
        extra = {
            "sim_messages": traced["messages"],
            # raw, like the other workloads' overhead (see README)
            "overhead_share": traced["wall_s"] / result["wall_s"] - 1.0,
        }
        summary = tracer.summary()
        metrics = per_layer_metrics(summary, traced["wall_s"], len(plan.requests), traced["blocks"], extra)
        info["traced_wall_s"] = traced["wall_s"]
        info["layer_calls"] = {k: v[0] for k, v in sorted(summary["layers"].items())}
        info["spans_file"] = write_spans(tracer, "sim_lifecycle", seed, "bench")
    return {"metrics": metrics, "tally": tally, "info": info}
