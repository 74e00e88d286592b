"""Span tracing of chainacl layers, installed from outside the program.

``Tracer.install`` replaces each public function named in ``LAYERS`` with
a wrapper on every binding callers resolve: the defining module, every
``chainacl`` module that imported the name, and class attributes for
methods. A name that no longer exists raises, so a rename cannot silently
drop a layer. Each call becomes a span (id, layer, start, end, parent id,
self time, note), where the note is the request id for the contract and
poll layers and the figure a metric needs for the others; spans stay in
memory until ``write``. Self time is a span's duration minus the time its
child spans cover in the same thread.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import sys
import threading
import time

from harness import OUT_DIR, bench_spec, quantile

# layer name, defining module, attribute path, note recorded per call
LAYERS = (
    ("crypto.sha256", "chainacl.crypto", "sha256", None),
    ("crypto.sign", "chainacl.crypto", "Provider.sign", None),
    ("crypto.verify", "chainacl.crypto", "Provider.verify", None),
    ("crypto.encrypt", "chainacl.crypto", "Provider.encrypt", None),
    ("crypto.decrypt", "chainacl.crypto", "Provider.decrypt", None),
    ("transactions.encode_transaction", "chainacl.transactions", "encode_transaction", None),
    ("transactions.tx_id", "chainacl.transactions", "tx_id", None),
    ("blocks.block_hash", "chainacl.blocks", "block_hash", None),
    ("engine.forward", "chainacl.engine.model", "forward", "rows"),
    ("engine.decide_access", "chainacl.engine.rules", "decide_access", None),
    ("contracts.authenticate", "chainacl.contracts", "ContractRuntime.authenticate", "rid"),
    ("contracts.authorize", "chainacl.contracts", "ContractRuntime.authorize", "rid"),
    ("ledger.submit_to_pool", "chainacl.ledger", "submit_to_pool", "reject"),
    ("ledger.build_block", "chainacl.ledger", "build_block", "seal"),
    ("ledger.apply_block", "chainacl.ledger", "apply_block", "height"),
    ("ledger.LedgerState.clone", "chainacl.ledger", "LedgerState.clone", None),
    ("ledger.load_chain", "chainacl.ledger", "load_chain", None),
    ("ledger.replay_chain", "chainacl.ledger", "replay_chain", None),
    ("ledger.state_digest", "chainacl.ledger", "state_digest", None),
    ("ledger.query_access_log", "chainacl.ledger", "query_access_log", None),
    ("ledger.poll_request", "chainacl.ledger", "poll_request", "rid"),
    ("storage.handle_request_result", "chainacl.storage", "StorageService.handle_request_result", None),
    ("storage.redeem", "chainacl.storage", "StorageService.redeem", "raise"),
    ("storage.expire_links", "chainacl.storage", "StorageService.expire_links", None),
    ("network.simulator.World.step", "chainacl.network.simulator", "World.step", None),
    ("network.nodes.ValidatorCore.handle", "chainacl.network.nodes", "ValidatorCore.handle", None),
    ("network.nodes.ValidatorCore.on_tick", "chainacl.network.nodes", "ValidatorCore.on_tick", None),
    ("network.nodes.StorageCore.handle", "chainacl.network.nodes", "StorageCore.handle", None),
    ("network.nodes.StorageCore.on_tick", "chainacl.network.nodes", "StorageCore.on_tick", None),
    ("network.messages.encode_message", "chainacl.network.messages", "encode_message", None),
    ("network.messages.decode_message", "chainacl.network.messages", "decode_message", None),
    ("network.transport.call", "chainacl.network.transport", "call", None),
    ("network.transport.send_oneway", "chainacl.network.transport", "send_oneway", None),
    ("service.dispatch_service", "chainacl.service", "dispatch_service", "rpc"),
)

_NOTE_KIND = {layer: kind for layer, _, _, kind in LAYERS}

# every module that can hold a binding; importing them all first means the
# binding scan sees each ``from .x import y`` copy
PROGRAM_MODULES = (
    "chainacl",
    "chainacl.cli",
    "chainacl.scenarios",
    "chainacl.service",
    "chainacl.network.live",
    "chainacl.network.simulator",
)


def _request_id(args) -> str | None:
    for a in args[:3]:
        info = getattr(a, "info", None)
        if info is not None and hasattr(info, "request_id"):
            return info.request_id.hex()
        rid = getattr(a, "request_id", None)
        if isinstance(rid, bytes):
            return rid.hex()
        if isinstance(a, dict) and isinstance(a.get("request_id"), str):
            return a["request_id"]
    return None


def rpc_key(request: dict) -> str:
    """Key pairing a client RPC with its server span: op plus the object it names."""
    op = request.get("op")
    if op == "submit_tx":
        return f"submit_tx:{request.get('tx', '')[-32:]}"
    if op == "redeem":
        return f"redeem:{request.get('token')}:{request.get('nonce')}"
    if op == "poll":
        return f"poll:{request.get('request_id')}"
    return f"{op}:"


def _note(kind, args, result, raised):
    if kind == "rows":
        shape = getattr(args[1], "shape", ())
        return shape[0] if len(shape) == 2 else 1
    if kind == "reject":
        return result is not None
    if kind == "seal":
        block, outcome = result if result is not None else (None, None)
        return [len(args[0].pending_pool), block is not None, len(outcome.skipped) if outcome else 0]
    if kind == "height":
        return [args[1].height, bool(result is not None and result.ok)]
    if kind == "raise":
        return raised
    if kind == "rpc":
        return rpc_key(args[1]) if isinstance(args[1], dict) else None
    if kind == "rid":
        return _request_id(args)
    return None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, layer: str, fn, note_kind):
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1][0] if stack else 0
            frame = [next(ids), 0.0]
            stack.append(frame)
            result = None
            raised = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                raised = True
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                note = None
                if note_kind:
                    try:
                        note = _note(note_kind, args, result, raised)
                    except (IndexError, AttributeError, TypeError):
                        pass  # called with keywords; the span still counts
                spans.append((frame[0], layer, start, end, parent, dur - frame[1], note))

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        return traced

    def install(self) -> None:
        for name in PROGRAM_MODULES:
            importlib.import_module(name)
        program = [m for n, m in sys.modules.items() if n == "chainacl" or n.startswith("chainacl.")]
        for layer, module_name, attr, note_kind in LAYERS:
            module = importlib.import_module(module_name)
            owner_name, _, fn_name = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                if owner is None or fn_name not in vars(owner):
                    raise AttributeError(f"traced layer {layer}: {module_name}.{attr} is missing")
                original = vars(owner)[fn_name]
                self._restore.append((owner, fn_name, original))
                setattr(owner, fn_name, self._wrap(layer, original, note_kind))
                continue
            original = getattr(module, fn_name, None)
            if original is None or not callable(original):
                raise AttributeError(f"traced layer {layer}: {module_name}.{attr} is missing")
            wrapped = self._wrap(layer, original, note_kind)
            for mod in program:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- output -------------------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer calls, busy and self seconds, plus the notes metrics need."""
        layers: dict[str, list] = {}
        notes: dict[str, list] = {}
        for _, layer, start, end, _, self_s, note in self.spans:
            agg = layers.get(layer)
            if agg is None:
                agg = layers[layer] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += self_s
            if note is not None and _NOTE_KIND[layer] != "rid":
                notes.setdefault(layer, []).append([note, end - start])
        return {"layers": layers, "notes": notes}

    def write(self, path) -> None:
        """All spans as gzipped JSON lines: id, layer, start, end, parent, self, note."""
        with gzip.open(path, "wt") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def write_spans(tracer: Tracer, workload: str, seed: int, process: str) -> str:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{workload}-seed{seed}-{process}.jsonl.gz"
    tracer.write(path)
    return str(path.relative_to(OUT_DIR.parent))


def merge(summaries: list[dict]) -> dict:
    out: dict = {"layers": {}, "notes": {}}
    for s in summaries:
        for layer, (calls, busy, self_s) in s["layers"].items():
            agg = out["layers"].setdefault(layer, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += busy
            agg[2] += self_s
        for layer, items in s["notes"].items():
            out["notes"].setdefault(layer, []).extend(items)
    return out


def _median(xs) -> float:
    return quantile(xs, 0.5) if xs else 0.0


def per_layer_metrics(trace: dict, wall_s: float, requests: int, blocks: int, extra: dict) -> dict:
    """Layer metrics of one traced pass, named and in the order of ``BENCHMARK.json``.

    ``trace`` is a merged summary; ``wall_s`` the traced pass's wall time
    (busy and self shares divide by it, summed over processes); ``extra``
    carries the values measured outside the wrappers: simulator messages,
    live slot fill and RPC wait, and the tracing overhead. A
    ``<layer>.busy_share`` or ``<layer>.self_share`` is read off the layer's
    spans; every other name needs its computation below, and a listed
    metric without one raises.
    """
    layers, notes = trace["layers"], trace["notes"]

    def calls(layer):
        return layers.get(layer, (0, 0.0, 0.0))[0]

    def per(n, d):
        return n / d if d else 0.0

    values = {
        "transactions.encode_transaction.calls_per_request": per(calls("transactions.encode_transaction"), requests),
        "transactions.tx_id.calls_per_request": per(calls("transactions.tx_id"), requests),
        "crypto.sha256.calls_per_request": per(calls("crypto.sha256"), requests),
        "crypto.verify.calls_per_request": per(calls("crypto.verify"), requests),
        "crypto.sign.calls_per_request": per(calls("crypto.sign"), requests),
        "blocks.block_hash.calls_per_block": per(calls("blocks.block_hash"), blocks),
        "engine.forward.calls": calls("engine.forward"),
        "engine.forward.rows_per_call": per(sum(n for n, _ in notes.get("engine.forward", ())), calls("engine.forward")),
        "ledger.apply_block.calls_per_block": per(calls("ledger.apply_block"), blocks),
        "ledger.LedgerState.clone.calls_per_block": per(calls("ledger.LedgerState.clone"), blocks),
        "ledger.replay_chain.calls": calls("ledger.replay_chain"),
    }
    seals = notes.get("ledger.build_block", ())
    considered = sum(pool for (pool, _, _), _ in seals)
    values["ledger.build_block.skipped_share"] = per(sum(skipped for (_, _, skipped), _ in seals), considered)
    values["ledger.pool_depth_at_seal_p50"] = _median([pool for (pool, sealed, _), _ in seals if sealed])
    submits = notes.get("ledger.submit_to_pool", ())
    values["ledger.submit_to_pool.reject_share"] = per(sum(1 for rejected, _ in submits if rejected), len(submits))
    redeems = notes.get("storage.redeem", ())
    values["storage.redeem.reject_share"] = per(sum(1 for raised, _ in redeems if raised), len(redeems))
    values["network.simulator.messages_per_request"] = per(extra.get("sim_messages", 0), requests)
    connections = calls("network.transport.call") + calls("network.transport.send_oneway")
    values["network.transport.connections_per_request"] = per(connections, requests)
    values["network.live.slot_fill"] = extra.get("slot_fill", 0.0)
    values["network.live.rpc_wait_share_p50"] = extra.get("rpc_wait_share_p50", 0.0)

    applies = [(height, dur * 1000.0) for (height, ok), dur in notes.get("ledger.apply_block", ()) if ok]
    heights = sorted(h for h, _ in applies)
    if heights:
        lo = heights[max(0, len(heights) // 10 - 1)]
        hi = heights[min(len(heights) - 1, len(heights) - len(heights) // 10)]
        values["ledger.apply_block.ms_p50"] = _median([ms for _, ms in applies])
        values["ledger.apply_block.ms_first_decile"] = _median([ms for h, ms in applies if h <= lo])
        values["ledger.apply_block.ms_last_decile"] = _median([ms for h, ms in applies if h >= hi])
    else:
        for name in ("ms_p50", "ms_first_decile", "ms_last_decile"):
            values[f"ledger.apply_block.{name}"] = 0.0
    values["trace.overhead_share"] = extra["overhead_share"]

    traced = {layer for layer, _, _, _ in LAYERS}
    column = {"busy_share": 1, "self_share": 2}
    out = {}
    for metric in bench_spec()["per_layer"]:
        name = metric["name"]
        layer, _, kind = name.rpartition(".")
        if name in values:
            value = values[name]
        elif kind in column and layer in traced:
            value = per(layers.get(layer, (0, 0.0, 0.0))[column[kind]], wall_s)
        else:
            raise KeyError(f"per-layer metric {name} in BENCHMARK.json has no computation")
        out[name] = {"value": float(value), "unit": metric["unit"]}
    return out
