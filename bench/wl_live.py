"""live_tcp: four node processes on localhost TCP under an open-loop client.

``chainacl init --seed`` writes keys, genesis, model, rules and configs;
v0-v2 and s0 then run as separate OS processes through the command line's
``node start`` (``node_launcher.py``). One generator thread, holding one
connection at a time, sends requests at a fixed rate: submit to a
validator, poll until decided, decrypt the link, redeem it at s0, replay a
share of spent links. Each request is timed from the moment it was due.
"""

from __future__ import annotations

import heapq
import json
import math
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from types import SimpleNamespace

import harness
from harness import Tally, check_decision

RATE = {"full": 20, "tiny": 10}  # requests per second
# the first poll waits FIRST_POLL_S plus a per-request offset below
# POLL_EVERY_S, so the poll grid does not quantize every latency alike
FIRST_POLL_S = 0.3
POLL_EVERY_S = 0.2
REPLAY_AFTER_S = 0.5
DRAIN_S = 8.0
NODE_NAMES = ("v0", "v1", "v2", "s0")
SETUP_REPEATS = 3  # cluster starts timed per run, each until every node answers
NODE_CAP_S = 150  # ``--run-seconds`` cap, so no node can outlive a run
LATE_LIMIT_S = 0.25  # generator lateness (p99) beyond which a run is flagged


def _ports_free(ports) -> bool:
    for port in ports:
        with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
            s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                s.bind(("127.0.0.1", port))
            except OSError:
                return False
    return True


def _base_port(seed: int) -> int:
    """A base port whose node ports (base+1..3, base+10) are free.

    The range 20000-32010 stays clear of the tests' 9450-9490 and of the
    kernel's usual ephemeral ports (from 32768): a client connecting to a
    not-yet-listening port inside that range can be handed the same port
    as its source and talk to itself.
    """
    for attempt in range(64):
        base = 20000 + (seed * 7919 + attempt * 211) % 12000
        if _ports_free((base + 1, base + 2, base + 3, base + 10)):
            return base
    raise RuntimeError("no free port range for the live cluster")


class Client:
    """Service calls over fresh connections, each one timed and keyed."""

    def __init__(self):
        from chainacl.network.live import service_call

        from tracing import rpc_key

        self._call = service_call
        self._key = rpc_key
        self.calls: list[tuple[str, str, float]] = []  # op, key, seconds
        self.busy_s = 0.0

    def __call__(self, addr, request: dict) -> dict:
        a = time.perf_counter()
        reply = self._call(addr, request, timeout=5.0)
        dur = time.perf_counter() - a
        self.busy_s += dur
        self.calls.append((request["op"], self._key(request), dur))
        return reply

    def ms(self, op: str) -> list[float]:
        return [d * 1000.0 for o, _, d in self.calls if o == op]


class Cluster:
    def __init__(self, net: Path, work: Path, trace: bool, seed: int, tag: str):
        self.net, self.work, self.trace, self.seed, self.tag = net, work, trace, seed, tag
        self.procs: dict[str, subprocess.Popen] = {}
        self.addrs: dict[str, tuple[str, int]] = {}
        for name in NODE_NAMES:
            for line in (net / f"{name}.cfg").read_text().splitlines():
                key, _, value = line.partition("=")
                if key == "port":
                    self.addrs[name] = ("127.0.0.1", int(value))

    def out_file(self, name: str) -> Path:
        return self.work / f"{self.tag}-{name}.json"

    def start(self) -> list[float]:
        """Launch every node; returns each one's seconds from the first launch to answering."""
        launcher = Path(__file__).with_name("node_launcher.py")
        t0 = time.perf_counter()
        for name in NODE_NAMES:
            job = {
                "config": str(self.net / f"{name}.cfg"),
                "run_seconds": NODE_CAP_S,
                "out": str(self.out_file(name)),
                "trace": self.trace,
                "seed": self.seed,
            }
            log = open(self.work / f"{self.tag}-{name}.log", "w")
            self.procs[name] = subprocess.Popen(
                [sys.executable, str(launcher), json.dumps(job)],
                stdout=log,
                stderr=subprocess.STDOUT,
                env=harness.child_env(),
                cwd=harness.ROOT,
            )
            log.close()
        from chainacl.network.live import service_call

        ready = {}
        deadline = time.perf_counter() + 60
        while len(ready) < len(NODE_NAMES):
            if time.perf_counter() > deadline:
                raise RuntimeError(f"nodes not answering: {sorted(set(NODE_NAMES) - set(ready))}")
            for name in NODE_NAMES:
                if name in ready:
                    continue
                if self.procs[name].poll() is not None:
                    raise RuntimeError(f"node {name} exited early; see {self.tag}-{name}.log")
                try:
                    if service_call(self.addrs[name], {"op": "status"}, timeout=1.0).get("ok"):
                        ready[name] = time.perf_counter() - t0
                except (OSError, ValueError):
                    pass  # not listening yet
            time.sleep(0.01)
        return [ready[n] for n in NODE_NAMES]

    def stop(self) -> dict[str, dict]:
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        for proc in self.procs.values():
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        outs = {}
        for name in self.procs:
            path = self.out_file(name)
            outs[name] = json.loads(path.read_text()) if path.is_file() else {}
        self.procs.clear()
        return outs


def _register(cluster: Cluster, client: Client, admin, users) -> dict[int, int]:
    """Register every user on every validator in order; returns fixture -> chain index."""
    from chainacl.crypto import Provider
    from chainacl.transactions import build_register_user_tx, encode_transaction

    provider = Provider()
    for kp in users:
        tx = build_register_user_tx(provider, admin, kp.public_key, time=int(time.time()))
        request = {"op": "submit_tx", "tx": encode_transaction(tx).hex()}
        for name in ("v0", "v1", "v2"):
            client(cluster.addrs[name], request)  # a peer's gossip may win: "duplicate" is fine
    deadline = time.perf_counter() + 20
    while time.perf_counter() < deadline:
        if all(client(cluster.addrs[n], {"op": "status"}).get("users") == len(users) for n in ("v0", "v1", "v2")):
            break
        time.sleep(0.1)
    else:
        raise RuntimeError("user registration did not reach every validator")
    order = []
    for block in client(cluster.addrs["v0"], {"op": "chain"})["blocks"]:
        for line in block["txs"]:
            if line.startswith("register(user="):
                order.append(line[len("register(user=") :].split(" ")[0])
    prefix = {kp.public_key.hex()[:12]: i for i, kp in enumerate(users)}
    return {prefix[p]: idx for idx, p in enumerate(order)}


def _drive(cluster, client, plan, ref, keys, payloads, rate, tally: Tally) -> dict:
    """The open loop: one thread, one connection at a time."""
    from chainacl.crypto import Provider
    from chainacl.storage import open_link_ciphertext
    from chainacl.transactions import RequestInfo, build_access_request_tx, encode_transaction

    provider = Provider()
    validators = ("v0", "v1", "v2")
    wall0 = math.ceil(time.time()) + 0.5  # first request mid-slot
    time.sleep(max(0.0, wall0 - time.time()))
    t0 = time.perf_counter()
    n = len(plan.requests)
    events = [(t0 + r.index / rate, 0, r.index, "submit", None) for r in plan.requests]
    heapq.heapify(events)
    seq = 1
    lateness, latencies, done_at = [], [], []
    redeemed, open_reqs = [], set(range(n))
    last_due = t0 + (n - 1) / rate
    deadline = last_due + DRAIN_S
    sleep_s = 0.0
    last_redeem = t0

    def push(at, index, action, data=None):
        nonlocal seq
        heapq.heappush(events, (at, seq, index, action, data))
        seq += 1

    while events:
        at, _, index, action, data = heapq.heappop(events)
        now = time.perf_counter()
        if at > now:
            time.sleep(at - now)
            sleep_s += at - now
            now = time.perf_counter()
        if now > deadline and action != "submit":
            continue
        req = plan.requests[index]
        due = t0 + index / rate
        if action == "submit":
            lateness.append(now - at)
            info = RequestInfo(resource_id=req.resource, operation=req.op, request_id=req.request_id)
            tx = build_access_request_tx(provider, keys(req), info, time=int(time.time()))
            addr = cluster.addrs[validators[index % 3]]
            reply = client(addr, {"op": "submit_tx", "tx": encode_transaction(tx).hex()})
            if not reply.get("ok"):
                tally.fail("submit_rejected")
                open_reqs.discard(index)
                continue
            offset = int.from_bytes(req.request_id[:4], "big") / 2**32 * POLL_EVERY_S
            push(now + FIRST_POLL_S + offset, index, "poll", addr)
        elif action == "poll":
            reply = client(data, {"op": "poll", "request_id": req.request_id.hex()})
            status = reply.get("status")
            if not reply.get("ok") or status == "pending" or (status == "granted" and "link_ciphertext" not in reply):
                push(now + POLL_EVERY_S, index, "poll", data)
                continue
            record = SimpleNamespace(status=status, deny_reason=reply.get("reason", ""), access_list=reply.get("access_list"))
            ok = check_decision(tally, ref, req, record)
            if "link_ciphertext" in reply:
                latencies.append(now - due)
            if "link_ciphertext" not in reply or req.abandon or not ok:
                open_reqs.discard(index)
                done_at.append(now)
                continue
            grant = open_link_ciphertext(provider, keys(req), bytes.fromhex(reply["link_ciphertext"]))
            push(now, index, "redeem", grant)
        elif action in ("redeem", "replay"):
            request = {"op": "redeem", "token": data.link_token.hex(), "nonce": data.nonce.hex(), "operation": req.op}
            reply = client(cluster.addrs["s0"], request)
            last_redeem = time.perf_counter()
            if action == "replay":
                if reply.get("ok") or reply.get("reason") != "already_redeemed":
                    tally.fail("replay_accepted")
                continue
            open_reqs.discard(index)
            done_at.append(now)
            if not reply.get("ok"):
                tally.fail("redeem_refused")
                continue
            if bytes.fromhex(reply["payload"]) != payloads[req.resource]:
                tally.fail("payload_mismatch")
            redeemed.append(req)
            if req.replay:
                push(now + REPLAY_AFTER_S, index, "replay", data)
    end = time.perf_counter()
    tally.fail("not_decided", len(open_reqs))
    wall = end - t0
    return {
        "wall0": wall0,
        "wall_s": wall,
        "end_wall": wall0 + wall,
        "lateness": lateness,
        "latencies": latencies,
        "finalized": len(done_at),
        "active_s": (max(done_at) - t0) if done_at else wall,
        "redeemed": redeemed,
        "last_redeem": last_redeem,
        "generator_self_share": max(0.0, wall - sleep_s - client.busy_s) / wall,
    }


def _settle(cluster, client, drive: dict, plan, ref, tally: Tally) -> dict:
    """Wait until the chain holds every redemption, then compare with the client's view."""
    time.sleep(max(0.0, drive["last_redeem"] + 1.5 - time.perf_counter()))
    deadline = time.perf_counter() + 10
    quiet = 0
    while time.perf_counter() < deadline and quiet < 2:
        status = [client(cluster.addrs[n], {"op": "status"}) for n in ("v0", "v1", "v2")]
        settled = all(s.get("pool") == 0 for s in status) and len({s.get("tip") for s in status}) == 1
        quiet = quiet + 1 if settled else 0
        time.sleep(0.6)
    def status(req):
        return client(cluster.addrs["v0"], {"op": "poll", "request_id": req.request_id.hex()}).get("status")

    misattributed = harness.check_redemptions(tally, plan, ref, drive["redeemed"], status)
    return {"misattributed": misattributed, "settled": quiet >= 2}


def _pass(net, work, trace, seed, tag, plan, users, admin, unreg, model, rules, payloads, rate, tally):
    cluster = Cluster(net, work, trace, seed, tag)
    client = Client()
    tracer = None
    try:
        ready = cluster.start()
        t = time.perf_counter()
        index = _register(cluster, client, admin, users)
        registration_s = time.perf_counter() - t
        ref = harness.Reference(model, rules, index)
        ref.prime(plan)
        client.calls.clear()
        client.busy_s = 0.0
        if trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()

        def keys(req):
            return users[req.user] if req.user >= 0 else unreg[req.key_index]

        drive = _drive(cluster, client, plan, ref, keys, payloads, rate, tally)
        if tracer is not None:
            tracer.uninstall()
        settle = _settle(cluster, client, drive, plan, ref, tally)
    finally:
        outs = cluster.stop()
    tips = {n: outs[n].get("tip") for n in ("v0", "v1", "v2")}
    digests = {n: outs[n].get("digest") for n in ("v0", "v1", "v2")}
    if len(set(tips.values())) != 1 or len(set(digests.values())) != 1 or None in tips.values():
        tally.hard(f"validators disagree: tips={tips} digests={digests}")
    if any(outs[n].get("rc") != 0 for n in NODE_NAMES):
        tally.hard(f"node exit codes {[outs[n].get('rc') for n in NODE_NAMES]}")
    block_times = outs["v0"].get("block_times", [])
    window = [t for t in block_times if drive["wall0"] <= t < drive["end_wall"]]
    slots = max(1, len(range(math.ceil(drive["wall0"]), math.ceil(drive["end_wall"]))))
    return {
        "ready": ready,
        "registration_s": registration_s,
        "drive": drive,
        "settle": settle,
        "client": client,
        "ref": ref,
        "outs": outs,
        "tracer": tracer,
        "blocks_in_window": len(window),
        "slot_fill": len(window) / slots,
        "cpu_s": sum(outs[n].get("cpu_s", 0.0) for n in NODE_NAMES),
        "tip": tips["v0"],
    }


def _rpc_wait_share(client: Client, summaries: list[dict]) -> float:
    server: dict[str, list[float]] = {}
    for s in summaries:
        for key, dur in s["notes"].get("service.dispatch_service", ()):
            server.setdefault(key, []).append(dur)
    shares = []
    for _, key, dur in client.calls:
        if server.get(key):
            shares.append((dur - server[key].pop(0)) / dur)
    return median(shares) if shares else 0.0


def run(seed: int, seconds: int, trace: bool, size: str) -> dict:
    from chainacl.crypto import load_keypair
    from chainacl.engine import load_model, parse_rules
    from chainacl.scenarios import FIXTURE_SEED, N_RESOURCES, N_USERS

    rate = RATE[size]
    work = harness.RUN_DIR / f"live-{seed}-{int(time.time() * 1000)}"
    net = work / "net"
    work.mkdir(parents=True)
    try:
        base = _base_port(seed)
        t = time.perf_counter()
        subprocess.run(
            [sys.executable, "-m", "chainacl.cli", "init", "--dir", str(net), "--seed", str(FIXTURE_SEED), "--base-port", str(base)],
            check=True,
            capture_output=True,
            timeout=120,
            env=harness.child_env(),
            cwd=harness.ROOT,
        )
        init_s = time.perf_counter() - t
        keys = net / "keys"
        users = [load_keypair(keys, f"u{i:03d}") for i in range(N_USERS)]
        admin = load_keypair(keys, "admin")
        model = load_model(net / "model.bin")
        rules = parse_rules((net / "rules.txt").read_text())
        payloads = {r: harness.payload_for(FIXTURE_SEED, r) for r in range(N_RESOURCES)}
        from chainacl.crypto import Provider

        unreg = harness.unregistered_keys(Provider(), seed)
        plan = harness.make_plan(seed, range(rate * seconds), 1, harness.rule_pairs(rules), N_USERS, N_RESOURCES)
        tally = Tally(attempted=len(plan.requests))
        setup_times = []
        for i in range(SETUP_REPEATS):
            cluster = Cluster(net, work, False, seed, f"setup{i}")
            try:
                setup_times.append(max(cluster.start()))
            finally:
                cluster.stop()
        args = (plan, users, admin, unreg, model, rules, payloads, rate)
        first = _pass(net, work, False, seed, "untraced", *args, tally)
        traced = None
        if trace:
            traced_tally = Tally(attempted=len(plan.requests))
            traced = _pass(net, work, True, seed, "traced", *args, traced_tally)
            if not traced_tally.correct:
                tally.hard(f"traced pass failed its checks: {traced_tally.failures} {traced_tally.hard_errors}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    drive = first["drive"]
    lat = harness.timing_summary([x * 1000.0 for x in drive["latencies"]])
    late = drive["lateness"]
    late_p99 = harness.quantile(late, 0.99)
    generator_bound = late_p99 > LATE_LIMIT_S and drive["generator_self_share"] > 0.5
    metrics = {
        # raw: node start-up (process launch, imports) does not follow the
        # speed reference, and scaling it tripled the spread over ten seeds
        "setup_s": median(setup_times),
        "requests_per_s": drive["finalized"] / drive["active_s"],
        "op_ms_p50": lat["p50"],
        "op_ms_tail": lat["tail"],
    }
    client = first["client"]
    info = {
        "init_s": init_s,
        "setup_s_samples": setup_times,
        "node_ready_s": first["ready"],
        "registration_s": first["registration_s"],
        "rate_per_s": rate,
        "open_loop_s": seconds,
        "grant_ms": lat,
        "submit_ms": harness.timing_summary(client.ms("submit_tx")),
        "poll_ms": harness.timing_summary(client.ms("poll")),
        "redeem_ms": harness.timing_summary(client.ms("redeem")),
        "generator_lateness_s": {"p99": late_p99, "max": max(late)},
        "generator_self_share": drive["generator_self_share"],
        "generator_fell_behind": generator_bound,
        "blocks": first["blocks_in_window"],
        "slot_fill": first["slot_fill"],
        "requests_per_block": len(plan.requests) / max(1, first["blocks_in_window"]),
        "node_cpu_s": first["cpu_s"],
        "redeemed": len(drive["redeemed"]),
        "misattributed_redemptions": first["settle"]["misattributed"],
        "chain_settled": first["settle"]["settled"],
        "tip": first["tip"],
        "mix": harness.mix_record(plan, first["ref"]),
    }
    if generator_bound:
        print("warning: the load generator, not the cluster, fell behind; this run is invalid", file=sys.stderr)
    if trace:
        from tracing import merge, per_layer_metrics, write_spans

        summaries = [traced["outs"][n]["trace"] for n in NODE_NAMES if "trace" in traced["outs"][n]]
        summaries.append(traced["tracer"].summary())
        extra = {
            "slot_fill": traced["slot_fill"],
            "rpc_wait_share_p50": _rpc_wait_share(traced["client"], summaries),
            "overhead_share": traced["cpu_s"] / first["cpu_s"] - 1.0,
        }
        merged = merge(summaries)
        metrics = per_layer_metrics(merged, traced["drive"]["wall_s"], len(plan.requests), traced["blocks_in_window"], extra)
        info["traced_node_cpu_s"] = traced["cpu_s"]
        info["layer_calls"] = {k: v[0] for k, v in sorted(merged["layers"].items())}
        info["spans_files"] = [traced["outs"][n].get("spans_file") for n in NODE_NAMES]
        info["spans_files"].append(write_spans(traced["tracer"], "live_tcp", seed, "client"))
    return {"metrics": metrics, "tally": tally, "info": info}
