"""Socket transport: real nodes on localhost driving the full access flow."""

import json
import os
import socket
import struct
import threading
import time
import tracemalloc

import pytest

from chainacl.blocks import make_genesis_block
from chainacl.codec import CodecError
from chainacl.contracts import RequestResult, encrypt_request_results
from chainacl.crypto import Provider
from chainacl.network.live import LiveNode, service_call
from chainacl.network.messages import (
    BlockAnnounce,
    ChainQuery,
    ChainReply,
    MessageError,
    RedeemCall,
    RedeemReply,
    ResultDelivery,
    TipNotice,
    TxGossip,
    decode_message,
    encode_message,
)
from chainacl.network.nodes import StorageCore, ValidatorCore
from chainacl.network import transport
from chainacl.network.transport import TransportError, call, recv_frame, send_frame
from chainacl.storage import open_link_ciphertext
from chainacl.transactions import (
    RedemptionLogTx,
    RequestInfo,
    build_access_request_tx,
    build_register_user_tx,
    encode_transaction,
)

BASE_PORT = int(os.environ.get("CHAINACL_TEST_PORT", "9451"))
VNAMES = ("v0", "v1", "v2")


def test_message_codec_round_trip(fixtures):
    tx = build_register_user_tx(
        fixtures.provider, fixtures.admin, fixtures.users[0].public_key, time=1
    )
    samples = [
        TxGossip(tx=tx),
        TipNotice(height=4, tip_hash=b"\x0a" * 32),
        ChainQuery(after_height=2),
        ResultDelivery(envelope=b"sealed"),
        RedeemCall(link_token=b"t" * 16, nonce=b"n" * 16, operation=2, reply_to="u7"),
        RedeemReply(ok=False, reason="expired", payload=b""),
    ]
    for msg in samples:
        assert decode_message(encode_message(msg)) == msg


def test_block_messages_round_trip(fixtures):
    genesis = make_genesis_block(fixtures.config)
    for msg in (BlockAnnounce(block=genesis), ChainReply(blocks=(genesis,))):
        assert decode_message(encode_message(msg)) == msg


def test_unknown_message_kind_and_type_raise_message_error():
    with pytest.raises(MessageError):
        decode_message(bytes([99]))
    with pytest.raises(MessageError):
        encode_message(object())
    with pytest.raises(CodecError):
        decode_message(encode_message(ChainQuery(after_height=1)) + b"\x00")


def test_call_to_dead_port_raises():
    with pytest.raises(TransportError):
        call(("127.0.0.1", 1), b"\x01{}", timeout=0.5)


def test_large_frame_round_trips_over_a_socket_pair():
    payload = os.urandom(8 * 1024 * 1024)
    a, b = socket.socketpair()
    with a, b:
        sender = threading.Thread(target=send_frame, args=(a, payload))
        sender.start()
        received = recv_frame(b)
        sender.join(timeout=10.0)
        assert not sender.is_alive()
    assert received == payload


def test_close_mid_frame_raises():
    a, b = socket.socketpair()
    with b:
        with a:
            a.sendall(struct.pack(">I", 100) + b"x" * 10)
        with pytest.raises(TransportError):
            recv_frame(b)


def test_declared_length_is_not_allocated_up_front():
    """A peer that declares a MAX_FRAME frame and sends a few bytes costs
    memory for those bytes, not for the length it declared."""
    a, b = socket.socketpair()
    with b:
        with a:
            a.sendall(struct.pack(">I", transport.MAX_FRAME) + b"x" * 100)
        tracemalloc.start()
        try:
            with pytest.raises(TransportError):
                recv_frame(b)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 1024 * 1024


def _storage_node(fixtures, peers):
    core = StorageCore(
        name="s0",
        keypair=fixtures.storage,
        config=fixtures.config,
        provider=Provider(2001),
        validator_names=VNAMES,
    )
    return LiveNode("s0", core, "127.0.0.1", 0, peers=peers)


def test_unsent_message_is_reported_on_stderr(fixtures, capsys, monkeypatch):
    """A send that fails names the peer, the message kind and the error,
    whether the peer is down or the frame can never be sent."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        closed = probe.getsockname()
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        node = _storage_node(fixtures, {"v1": closed, "v2": listener.getsockname()})
        node._dispatch([("v1", ChainQuery(after_height=3))])
        monkeypatch.setattr(transport, "MAX_FRAME", 8)
        node._dispatch([("v2", ChainQuery(after_height=3))])
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 2
    assert "v1" in lines[0] and "ChainQuery" in lines[0] and "cannot reach" in lines[0]
    assert "v2" in lines[1] and "ChainQuery" in lines[1] and "frame too large" in lines[1]


def test_live_redemption_joins_the_retransmit_backlog(fixtures):
    """A redemption through the service API is re-gossiped at a retransmit
    tick, as one through a ``RedeemCall`` is. No socket is opened."""
    u, r, op = fixtures.pairs["model_allows"]
    user = fixtures.users[u]
    core = StorageCore(
        name="s0",
        keypair=fixtures.storage,
        config=fixtures.config,
        provider=Provider(2001),
        validator_names=VNAMES,
        retransmit_interval=2,
    )
    core.service.put_resource(r, fixtures.payload(r))
    node = LiveNode("s0", core, "127.0.0.1", 0, peers={})
    now = node.now()
    result = RequestResult(
        request_id=b"\x5a" * 16,
        user_pk=user.public_key,
        resource_id=r,
        operation=op,
        access_list=(True,) * 4,
        granted=True,
        time=now,
    )
    envelope = encrypt_request_results(Provider(2002), [result], fixtures.config.storage_pk, fixtures.validators[0])
    ((_, minted), *_) = core.handle(ResultDelivery(envelope=envelope), "v0", now)
    grant = open_link_ciphertext(fixtures.provider, user, minted.tx.ciphertext)

    assert node.redeem(grant.link_token, grant.nonce, op) == (True, "", fixtures.payload(r))
    tick = now - now % core.retransmit_interval + core.retransmit_interval
    resent = [msg.tx for _, msg in core.on_tick(tick) if isinstance(msg.tx, RedemptionLogTx)]
    assert len(resent) == len(VNAMES)
    assert {(tx.request_id, tx.nonce, tx.user_pk) for tx in resent} == {(result.request_id, grant.nonce, user.public_key)}
    assert not core.events  # nothing accumulates for a trace no live node keeps


def _serve_one(node, request):
    """Serve one service call through ``_serve_conn`` on a socket pair, on
    this thread; returns the reply and each send as (peer, kind, thread)."""
    sent = []
    node._dispatch = lambda outgoing: sent.extend(
        (dst, type(msg).__name__, threading.current_thread()) for dst, msg in outgoing
    )
    client, server = socket.socketpair()
    with client:
        send_frame(client, bytes([transport.CHANNEL_SERVICE]) + json.dumps(request).encode())
        client.shutdown(socket.SHUT_WR)
        node._serve_conn(server)
        reply = json.loads(recv_frame(client))
    return reply, sent


def test_submitted_tx_is_gossiped_to_validators_by_the_serving_thread(fixtures):
    core = ValidatorCore(
        name="v0",
        keypair=fixtures.validators[0],
        config=fixtures.config,
        runtime=fixtures.runtime(),
        provider=Provider(2003),
        validator_names=VNAMES,
        storage_name="s0",
    )
    peers = {name: ("127.0.0.1", 1) for name in ("v1", "v2", "s0")}
    node = LiveNode("v0", core, "127.0.0.1", 0, peers=peers)
    reg = build_register_user_tx(
        fixtures.provider, fixtures.admin, fixtures.users[0].public_key, time=node.now()
    )
    request = {"op": "submit_tx", "tx": encode_transaction(reg).hex()}

    reply, sent = _serve_one(node, request)
    assert reply["ok"], reply
    here = threading.current_thread()
    assert sent == [("v1", "TxGossip", here), ("v2", "TxGossip", here)]
    assert len(core.state.pending_pool) == 1 and not core.events

    reply, sent = _serve_one(node, request)  # a refused transaction is not gossiped
    assert reply == {"ok": False, "error": "rejected", "reason": "duplicate"}
    assert sent == []


def test_redemption_is_gossiped_by_the_serving_thread(fixtures):
    u, r, op = fixtures.pairs["model_allows"]
    user = fixtures.users[u]
    core = StorageCore(
        name="s0",
        keypair=fixtures.storage,
        config=fixtures.config,
        provider=Provider(2004),
        validator_names=VNAMES,
    )
    core.service.put_resource(r, fixtures.payload(r))
    node = LiveNode("s0", core, "127.0.0.1", 0, peers={})
    now = node.now()
    result = RequestResult(
        request_id=b"\x5b" * 16,
        user_pk=user.public_key,
        resource_id=r,
        operation=op,
        access_list=(True,) * 4,
        granted=True,
        time=now,
    )
    envelope = encrypt_request_results(Provider(2005), [result], fixtures.config.storage_pk, fixtures.validators[0])
    ((_, minted), *_) = core.handle(ResultDelivery(envelope=envelope), "v0", now)
    grant = open_link_ciphertext(fixtures.provider, user, minted.tx.ciphertext)
    request = {"op": "redeem", "token": grant.link_token.hex(), "nonce": grant.nonce.hex(), "operation": op}

    reply, sent = _serve_one(node, request)
    assert reply == {"ok": True, "payload": fixtures.payload(r).hex()}
    here = threading.current_thread()
    assert sent == [(v, "TxGossip", here) for v in VNAMES]

    reply, sent = _serve_one(node, request)
    assert reply == {"ok": False, "error": "redeem_rejected", "reason": "already_redeemed"}
    assert sent == []


@pytest.fixture
def cluster(fixtures):
    """Three validators and a storage node on localhost TCP ports."""
    peers = {name: ("127.0.0.1", BASE_PORT + i) for i, name in enumerate(VNAMES)}
    peers["s0"] = ("127.0.0.1", BASE_PORT + 3)
    nodes = []
    for i, name in enumerate(VNAMES):
        core = ValidatorCore(
            name=name,
            keypair=fixtures.validators[i],
            config=fixtures.config,
            runtime=fixtures.runtime(),
            provider=Provider(1000 + i),
            validator_names=VNAMES,
            storage_name="s0",
            retransmit_interval=2,
        )
        nodes.append(LiveNode(name, core, "127.0.0.1", BASE_PORT + i, peers, tick_period=0.05))
    storage_core = StorageCore(
        name="s0",
        keypair=fixtures.storage,
        config=fixtures.config,
        provider=Provider(2000),
        validator_names=VNAMES,
        retransmit_interval=2,
    )
    pair_resources = {r for (_, r, _) in fixtures.pairs.values()}
    for rid in sorted(pair_resources):
        storage_core.service.put_resource(rid, fixtures.payload(rid))
    nodes.append(LiveNode("s0", storage_core, "127.0.0.1", BASE_PORT + 3, peers, tick_period=0.05))
    for node in nodes:
        node.start()
    try:
        yield {n.name: n for n in nodes}, peers
    finally:
        for node in nodes:
            node.stop()


def _await(predicate, timeout=30.0, interval=0.1):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    return None


def test_full_flow_over_tcp(cluster, fixtures):
    nodes, peers = cluster
    u, r, op = fixtures.pairs["model_allows"]
    v0 = peers["v0"]

    # on-chain user indices follow registration order, so register 0..u
    for i in range(u + 1):
        reg = build_register_user_tx(
            fixtures.provider, fixtures.admin, fixtures.users[i].public_key, time=nodes["v0"].now()
        )
        out = service_call(v0, {"op": "submit_tx", "tx": encode_transaction(reg).hex()})
        assert out["ok"], out

    assert _await(
        lambda: all(
            len(n.core.state.users) == u + 1 for n in nodes.values() if n.role == "validator"
        )
    ), "registration never replicated"

    rid = os.urandom(16)
    req = build_access_request_tx(
        fixtures.provider, fixtures.users[u], RequestInfo(r, op, rid), time=nodes["v0"].now()
    )
    out = service_call(v0, {"op": "submit_tx", "tx": encode_transaction(req).hex()})
    assert out["ok"], out

    polled = _await(
        lambda: (
            lambda o: o if o.get("status") == "link_issued" else None
        )(service_call(v0, {"op": "poll", "request_id": rid.hex()}))
    )
    assert polled, "link never issued on chain"
    grant = open_link_ciphertext(
        fixtures.provider, fixtures.users[u], bytes.fromhex(polled["link_ciphertext"])
    )

    out = service_call(
        peers["s0"],
        {
            "op": "redeem",
            "token": grant.link_token.hex(),
            "nonce": grant.nonce.hex(),
            "operation": op,
        },
    )
    assert out["ok"], out
    assert bytes.fromhex(out["payload"]) == fixtures.payload(r)

    again = service_call(
        peers["s0"],
        {
            "op": "redeem",
            "token": grant.link_token.hex(),
            "nonce": grant.nonce.hex(),
            "operation": op,
        },
    )
    assert again == {"ok": False, "error": "redeem_rejected", "reason": "already_redeemed"}

    assert _await(
        lambda: service_call(v0, {"op": "poll", "request_id": rid.hex()}).get("status")
        == "redeemed"
    ), "redemption never reached the chain"

    status = service_call(v0, {"op": "status"})
    assert status["ok"] and status["users"] == u + 1 and status["height"] >= 3
    logs = service_call(v0, {"op": "logs"})
    kinds = [e["kind"] for e in logs["entries"] if e["request_id"] == rid.hex()]
    assert kinds == ["requested", "authenticated", "decided", "link_issued", "redeemed"]
    chain = service_call(v0, {"op": "chain"})
    assert chain["ok"] and chain["blocks"][0]["height"] == 0

    # replicas settle on a single tip
    assert _await(
        lambda: len({service_call(peers[v], {"op": "status"})["tip"] for v in VNAMES}) == 1
    ), "validators diverged"


def test_storage_node_service_surface(cluster):
    nodes, peers = cluster
    status = service_call(peers["s0"], {"op": "status"})
    assert status["ok"] and status["role"] == "storage"
    assert "height" not in status  # storage keeps no replica
    out = service_call(
        peers["s0"],
        {"op": "redeem", "token": "00" * 16, "nonce": "11" * 16, "operation": 0},
    )
    assert out == {"ok": False, "error": "redeem_rejected", "reason": "unknown_token"}
    assert (
        service_call(peers["s0"], {"op": "poll", "request_id": "00" * 16})["error"]
        == "not_supported"
    )

