"""Node configuration parsing and the JSON service API."""

import pytest

from chainacl.blocks import GenesisConfig
from chainacl.crypto import Provider, sha256
from chainacl.ledger import LogEntry, RequestRecord, genesis, submit_to_pool
from chainacl.service import (
    ERROR_KINDS,
    ServiceConfig,
    ServiceConfigError,
    dispatch_service,
)
from chainacl.transactions import (
    RequestInfo,
    build_access_request_tx,
    build_register_user_tx,
    encode_transaction,
)


@pytest.fixture(scope="module")
def p():
    return Provider(seed=71)


@pytest.fixture(scope="module")
def actors(p):
    return {
        "admin": p.generate_keypair(),
        "storage": p.generate_keypair(),
        "validators": [p.generate_keypair() for _ in range(3)],
        "user": p.generate_keypair(),
    }


@pytest.fixture
def state(p, actors, seal_next):
    config = GenesisConfig(
        admin_pks=(actors["admin"].public_key,),
        validators=tuple(v.public_key for v in actors["validators"]),
        storage_pk=actors["storage"].public_key,
        engine_fingerprint=sha256(b"pin"),
    )
    st = genesis(config)
    reg = build_register_user_tx(p, actors["admin"], actors["user"].public_key, time=1)
    return seal_next(st, p, actors, None, 1, [reg])


class Backend:
    """Protocol stand-in over a real ledger state."""

    def __init__(self, state=None, role="validator", now=10,
                 redeem_result=(False, "unknown_token", b"")):
        self.role = role
        self.state = state
        self._now = now
        self._redeem_result = redeem_result

    def now(self):
        return self._now

    def submit_tx(self, tx):
        return submit_to_pool(self.state, tx, self._now)

    def ledger_state(self):
        return self.state

    def redeem(self, link_token, nonce, operation):
        return self._redeem_result


# -- configuration ----------------------------------------------------------------


def test_config_parse_full():
    cfg = ServiceConfig.parse(
        """
        # validator one
        name = v1
        role = validator
        host = 0.0.0.0
        port = 9200
        key_file = keys/v1
        genesis_file = genesis.bin
        model_file = model.bin
        rules_file = rules.txt
        storage_node = store
        peer = v2:127.0.0.1:9201
        peer = s0:127.0.0.1:9210
        """
    )
    assert cfg.name == "v1" and cfg.port == 9200
    assert cfg.storage_node == "store"
    assert cfg.peers == (("v2", "127.0.0.1", 9201), ("s0", "127.0.0.1", 9210))


def test_config_defaults():
    cfg = ServiceConfig.parse("")
    assert cfg.role == "validator" and cfg.port == 9100 and cfg.storage_node == "s0"


def test_config_parse_errors():
    with pytest.raises(ServiceConfigError):
        ServiceConfig.parse("not a key value line")
    with pytest.raises(ServiceConfigError):
        ServiceConfig.parse("mystery = 1")
    with pytest.raises(ServiceConfigError):
        ServiceConfig.parse("peer = missingport:127.0.0.1")
    with pytest.raises(ServiceConfigError):
        ServiceConfig.parse("role = auditor")


def test_config_env_overrides(tmp_path, monkeypatch):
    path = tmp_path / "node.conf"
    path.write_text("name = v1\nport = 9000\ndata_dir = /tmp/a\n")
    monkeypatch.setenv("CHAINACL_PORT", "9999")
    monkeypatch.setenv("CHAINACL_DATA_DIR", str(tmp_path / "d"))
    cfg = ServiceConfig.load(path)
    assert cfg.port == 9999
    assert cfg.data_dir == str(tmp_path / "d")
    monkeypatch.delenv("CHAINACL_PORT")
    monkeypatch.delenv("CHAINACL_DATA_DIR")
    assert ServiceConfig.load(path).port == 9000


def test_require_files_by_role(tmp_path):
    key = tmp_path / "k.sk"
    gen = tmp_path / "g.bin"
    key.write_text("00")
    gen.write_text("00")
    storage = ServiceConfig.parse(
        f"role = storage\nkey_file = {key}\ngenesis_file = {gen}\n"
    )
    storage.require_files()  # storage does not need model or rules
    validator = ServiceConfig.parse(
        f"role = validator\nkey_file = {key}\ngenesis_file = {gen}\n"
    )
    with pytest.raises(ServiceConfigError):
        validator.require_files()


# -- dispatch ---------------------------------------------------------------------


def test_unknown_op_is_usage_error(state):
    out = dispatch_service(Backend(state), {"op": "frobnicate"})
    assert out == {"ok": False, "error": "usage", "reason": "unknown op 'frobnicate'"}


def test_status_reports_ledger_shape(state):
    out = dispatch_service(Backend(state), {"op": "status"})
    assert out["ok"] and out["role"] == "validator"
    assert out["height"] == 1 and out["users"] == 1 and out["pool"] == 0


def test_status_without_ledger(state):
    out = dispatch_service(Backend(None, role="storage"), {"op": "status"})
    assert out["ok"] and "height" not in out


def test_submit_round_trip(state, p, actors):
    tx = build_access_request_tx(
        p, actors["user"], RequestInfo(3, 1, b"\x01" * 16), time=10
    )
    backend = Backend(state)
    out = dispatch_service(backend, {"op": "submit_tx", "tx": encode_transaction(tx).hex()})
    assert out["ok"] and len(out["tx_id"]) == 64
    again = dispatch_service(backend, {"op": "submit_tx", "tx": encode_transaction(tx).hex()})
    assert again == {"ok": False, "error": "rejected", "reason": "duplicate"}


def test_submit_usage_errors(state):
    backend = Backend(state)
    assert dispatch_service(backend, {"op": "submit_tx"})["error"] == "usage"
    assert dispatch_service(backend, {"op": "submit_tx", "tx": "zz"})["error"] == "usage"
    junk = dispatch_service(backend, {"op": "submit_tx", "tx": "99aa"})
    assert junk["error"] == "usage" and "undecodable" in junk["reason"]


def test_submit_gated_to_validators(state):
    out = dispatch_service(Backend(state, role="storage"), {"op": "submit_tx", "tx": "00"})
    assert out["error"] == "not_supported"


def test_poll_unknown_request_reads_pending(state):
    out = dispatch_service(Backend(state), {"op": "poll", "request_id": "ab" * 16})
    assert out["ok"] and out["status"] == "pending"


def test_poll_renders_record(state, actors):
    rid = b"\x05" * 16
    state.requests[rid] = RequestRecord(
        request_id=rid,
        user_pk=actors["user"].public_key,
        resource_id=7,
        operation=2,
        submitted_at=9,
        status="link_issued",
        access_list=(True, False, True, False),
        overridden=(False,) * 4,
        link_issued_at=9,
        link_ciphertext=b"\xaa\xbb",
    )
    out = dispatch_service(Backend(state), {"op": "poll", "request_id": rid.hex()})
    assert out["status"] == "link_issued"
    assert out["access_list"] == [True, False, True, False]
    assert out["link_ciphertext"] == "aabb"
    # read-time expiry applies through the API too
    late = Backend(state, now=9 + 301)
    out = dispatch_service(late, {"op": "poll", "request_id": rid.hex()})
    assert out["status"] == "expired"


def test_logs_filters_and_shape(state, actors):
    state.access_log.append(
        LogEntry(
            kind="requested",
            user_pk=actors["user"].public_key,
            resource_id=3,
            operation=1,
            decision="",
            block_height=1,
            time=10,
            request_id=b"\x06" * 16,
        )
    )
    state.access_log.append(
        LogEntry(
            kind="denied",
            user_pk=actors["user"].public_key,
            resource_id=3,
            operation=1,
            decision="denied",
            block_height=1,
            time=10,
            request_id=b"\x06" * 16,
            reason="unregistered",
        )
    )
    backend = Backend(state)
    out = dispatch_service(backend, {"op": "logs"})
    assert out["ok"] and len(out["entries"]) == 2
    entry = out["entries"][1]
    assert entry["kind"] == "denied" and entry["reason"] == "unregistered"
    assert entry["request_id"] == ("06" * 16)
    only_denied = dispatch_service(backend, {"op": "logs", "decision": "denied"})
    assert len(only_denied["entries"]) == 1
    bounded = dispatch_service(backend, {"op": "logs", "from_height": 2})
    assert bounded["entries"] == []
    assert dispatch_service(backend, {"op": "logs", "kind": 5})["error"] == "usage"
    assert len(dispatch_service(backend, {"op": "logs", "resource_id": 3})["entries"]) == 2
    for bad in ({"resource_id": "3"}, {"resource_id": True}, {"resource_id": 3.0}, {"decision": 1}, {"decision": ["denied"]}):
        out = dispatch_service(backend, {"op": "logs", **bad})
        assert out["ok"] is False and out["error"] == "usage", bad


def test_chain_render_and_range(state):
    out = dispatch_service(Backend(state), {"op": "chain"})
    assert out["ok"] and len(out["blocks"]) == 2
    assert [b["height"] for b in out["blocks"]] == [0, 1]
    empty = dispatch_service(Backend(state), {"op": "chain", "from_height": 5})
    assert empty["blocks"] == []


def test_chain_range_matches_a_height_filter(p, actors, state, seal_next):
    """Negative, reversed and past-the-tip ranges give exactly the blocks a
    filter on ``from_height <= height <= min(to_height, tip)`` keeps."""
    for t in (20, 30, 40):
        user = p.generate_keypair()
        state = seal_next(state, p, actors, None, t, [build_register_user_tx(p, actors["admin"], user.public_key, time=t)])
    assert state.height == 4
    backend = Backend(state)
    bounds = (-7, -3, -1, 0, 1, 2, 4, 5, 12)
    for lo in bounds:
        for hi in bounds:
            out = dispatch_service(backend, {"op": "chain", "from_height": lo, "to_height": hi})
            want = [b.height for b in state.chain if lo <= b.height <= min(hi, state.height)]
            assert [b["height"] for b in out["blocks"]] == want, (lo, hi)
        out = dispatch_service(backend, {"op": "chain", "from_height": lo})
        assert [b["height"] for b in out["blocks"]] == [h for h in range(5) if h >= lo]
        out = dispatch_service(backend, {"op": "chain", "to_height": lo})
        assert [b["height"] for b in out["blocks"]] == [h for h in range(5) if h <= lo]


def test_redeem_paths(state):
    ok_backend = Backend(state, role="storage", redeem_result=(True, "", b"payload"))
    out = dispatch_service(
        ok_backend,
        {"op": "redeem", "token": "00" * 16, "nonce": "11" * 16, "operation": 1},
    )
    assert out == {"ok": True, "payload": b"payload".hex()}
    refused = Backend(state, role="storage", redeem_result=(False, "already_redeemed", b""))
    out = dispatch_service(
        refused,
        {"op": "redeem", "token": "00" * 16, "nonce": "11" * 16, "operation": 1},
    )
    assert out == {"ok": False, "error": "redeem_rejected", "reason": "already_redeemed"}
    wrong_role = dispatch_service(
        Backend(state), {"op": "redeem", "token": "00", "nonce": "11", "operation": 1}
    )
    assert wrong_role["error"] == "not_supported"


def test_dispatch_never_raises_and_errors_stay_closed(state):
    backend = Backend(state)
    probes = [
        {},
        {"op": None},
        {"op": "poll"},
        {"op": "poll", "request_id": "not hex"},
        {"op": "redeem"},
        {"op": "logs", "from_height": "NaN"},
        {"op": "submit_tx", "tx": 42},
        {"op": "chain", "from_height": []},
    ]
    for request in probes:
        out = dispatch_service(backend, request)
        assert out["ok"] is False
        assert out["error"] in ERROR_KINDS
