"""Operator-facing service: config file parsing and the JSON request API.

The API is a thin adapter over a node: it validates input shape, forwards
to the ledger or the storage service, and translates outcomes into a
closed response taxonomy. No access decision is made here.

Responses always carry ``ok``; failures add ``error`` from ERROR_KINDS
plus a human-readable ``reason``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Protocol

from .blocks import block_hash
from .ledger import LedgerState, LogEntry, poll_request, query_access_log
from .transactions import decode_transaction, format_transaction, tx_id

ERROR_KINDS = ("usage", "rejected", "redeem_rejected", "unavailable", "not_supported")

ENV_PORT = "CHAINACL_PORT"
ENV_DATA_DIR = "CHAINACL_DATA_DIR"


class ServiceConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ServiceConfig:
    """node configuration, parsed from key=value text with env overrides.

    ``format`` writes the fields in this order, ``peers`` as one
    ``peer=name:host:port`` line each.
    """

    name: str = "v0"
    role: str = "validator"
    host: str = "127.0.0.1"
    port: int = 9100
    key_file: str = ""
    genesis_file: str = ""
    data_dir: str = ""
    storage_node: str = "s0"  # peer name that serves redemptions
    model_file: str = ""
    rules_file: str = ""
    peers: tuple[tuple[str, str, int], ...] = ()  # (name, host, port)

    @classmethod
    def parse(cls, text: str) -> "ServiceConfig":
        keys = {f.name for f in fields(cls)} - {"peers"}
        values: dict = {}
        peers: list[tuple[str, str, int]] = []
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ServiceConfigError(f"line {line_no}: expected key=value")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key == "peer":
                parts = value.split(":")
                if len(parts) != 3:
                    raise ServiceConfigError(f"line {line_no}: peer wants name:host:port")
                peers.append((parts[0], parts[1], int(parts[2])))
            elif key in keys:
                values[key] = int(value) if key == "port" else value
            else:
                raise ServiceConfigError(f"line {line_no}: unknown key {key!r}")
        config = cls(peers=tuple(peers), **values)
        if config.role not in ("validator", "storage"):
            raise ServiceConfigError(f"unknown role {config.role!r}")
        return config

    def format(self) -> str:
        """The text ``parse`` reads back as this config; empty fields are left out."""
        lines = [
            f"{f.name}={getattr(self, f.name)}"
            for f in fields(self)
            if f.name != "peers" and getattr(self, f.name) != ""
        ]
        lines += [f"peer={name}:{host}:{port}" for name, host, port in self.peers]
        return "\n".join(lines) + "\n"

    @classmethod
    def load(cls, path) -> "ServiceConfig":
        config = cls.parse(Path(path).read_text())
        if os.environ.get(ENV_PORT):
            config = replace(config, port=int(os.environ[ENV_PORT]))
        if os.environ.get(ENV_DATA_DIR):
            config = replace(config, data_dir=os.environ[ENV_DATA_DIR])
        return config

    def require_files(self) -> None:
        needed = [self.key_file, self.genesis_file]
        if self.role == "validator":
            needed += [self.model_file, self.rules_file]
        for p in needed:
            if not p or not Path(p).is_file():
                raise ServiceConfigError(f"missing required file: {p or '(unset)'}")


class ServiceBackend(Protocol):
    """What a node must expose for the API to serve requests on it."""

    role: str

    def now(self) -> int: ...

    def submit_tx(self, tx) -> str | None: ...

    def ledger_state(self) -> LedgerState | None: ...

    def redeem(self, link_token: bytes, nonce: bytes, operation: int) -> tuple[bool, str, bytes]: ...


def _fail(error: str, reason: str) -> dict:
    assert error in ERROR_KINDS
    return {"ok": False, "error": error, "reason": reason}


def _entry_dict(e: LogEntry) -> dict:
    return {
        "kind": e.kind,
        "user_pk": e.user_pk.hex(),
        "resource_id": e.resource_id,
        "operation": e.operation,
        "decision": e.decision,
        "height": e.block_height,
        "time": e.time,
        "request_id": e.request_id.hex(),
        "reason": e.reason,
    }


def _hex_field(request: dict, key: str, required: bool = True) -> bytes | None:
    value = request.get(key)
    if value is None:
        if required:
            raise ValueError(f"missing field {key!r}")
        return None
    return bytes.fromhex(value)


def dispatch_service(backend: ServiceBackend, request: dict) -> dict:
    """Serve one API request; never raises."""
    try:
        op = request.get("op")
        handler = _OPS.get(op) if isinstance(op, str) else None
        if handler is None:
            return _fail("usage", f"unknown op {op!r}")
        return handler(backend, request)
    except (ValueError, KeyError, TypeError) as exc:
        return _fail("usage", str(exc))
    except Exception as exc:  # pragma: no cover - defensive
        return _fail("unavailable", f"{type(exc).__name__}: {exc}")


def _op_status(backend: ServiceBackend, request: dict) -> dict:
    state = backend.ledger_state()
    out = {"ok": True, "role": backend.role, "now": backend.now()}
    if state is not None:
        out.update(
            height=state.height,
            tip=state.tip_hash.hex(),
            users=len(state.users),
            pool=len(state.pending_pool),
            log=len(state.access_log),
        )
    return out


def _op_submit(backend: ServiceBackend, request: dict) -> dict:
    if backend.role != "validator":
        return _fail("not_supported", "transactions are submitted to validators")
    raw = _hex_field(request, "tx")
    assert raw is not None
    try:
        tx = decode_transaction(raw)
    except ValueError as exc:
        return _fail("usage", f"undecodable transaction: {exc}")
    reason = backend.submit_tx(tx)
    if reason is not None:
        return _fail("rejected", reason)
    return {"ok": True, "tx_id": tx_id(tx).hex(), "summary": format_transaction(tx)}


def _op_poll(backend: ServiceBackend, request: dict) -> dict:
    state = backend.ledger_state()
    if state is None:
        return _fail("not_supported", "this node keeps no ledger replica")
    request_id = _hex_field(request, "request_id")
    assert request_id is not None
    record = poll_request(state, request_id, backend.now())
    if record is None:
        return {"ok": True, "status": "pending", "reason": "request not seen on chain yet"}
    out = {
        "ok": True,
        "status": record.status,
        "resource_id": record.resource_id,
        "operation": record.operation,
        "reason": record.deny_reason,
    }
    if record.access_list is not None:
        out["access_list"] = list(record.access_list)
        out["overridden"] = list(record.overridden or ())
    if record.link_ciphertext:
        out["link_ciphertext"] = record.link_ciphertext.hex()
        out["link_issued_at"] = record.link_issued_at
    return out


def _op_logs(backend: ServiceBackend, request: dict) -> dict:
    state = backend.ledger_state()
    if state is None:
        return _fail("not_supported", "this node keeps no ledger replica")
    height_range = None
    if "from_height" in request or "to_height" in request:
        height_range = (
            int(request.get("from_height", 0)),
            int(request.get("to_height", state.height)),
        )
    kind = request.get("kind")
    decision = request.get("decision")
    resource_id = request.get("resource_id")
    for name, value in (("kind", kind), ("decision", decision)):
        if value is not None and not isinstance(value, str):
            raise ValueError(f"{name} must be a string")
    if resource_id is not None and type(resource_id) is not int:  # bool is an int subclass
        raise ValueError("resource_id must be an integer")
    entries = query_access_log(
        state,
        user_pk=_hex_field(request, "user_pk", required=False),
        resource_id=resource_id,
        decision=decision,
        kind=kind,
        height_range=height_range,
    )
    return {"ok": True, "entries": [_entry_dict(e) for e in entries]}


def _op_chain(backend: ServiceBackend, request: dict) -> dict:
    state = backend.ledger_state()
    if state is None:
        return _fail("not_supported", "this node keeps no ledger replica")
    # block i has height i; both ends are clamped to the chain, so a negative
    # height cannot turn into a slice from the tip
    start = max(0, int(request.get("from_height", 0)))
    stop = max(0, min(int(request.get("to_height", state.height)), state.height) + 1)
    blocks = [
        {
            "height": block.height,
            "time": block.time,
            "hash": block_hash(block).hex(),
            "prev": block.prev_hash.hex(),
            "validator": block.validator_pk.hex(),
            "txs": [format_transaction(tx) for tx in block.transactions],
        }
        for block in state.chain[start:stop]
    ]
    return {"ok": True, "blocks": blocks}


def _op_redeem(backend: ServiceBackend, request: dict) -> dict:
    if backend.role != "storage":
        return _fail("not_supported", "redemption is served by the storage node")
    token = _hex_field(request, "token")
    nonce = _hex_field(request, "nonce")
    assert token is not None and nonce is not None
    operation = int(request["operation"])
    ok, reason, payload = backend.redeem(token, nonce, operation)
    if not ok:
        return _fail("redeem_rejected", reason)
    return {"ok": True, "payload": payload.hex()}


_OPS = {
    "status": _op_status,
    "submit_tx": _op_submit,
    "poll": _op_poll,
    "logs": _op_logs,
    "chain": _op_chain,
    "redeem": _op_redeem,
}
