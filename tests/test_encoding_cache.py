"""Encodings cached on frozen records are invisible: the cached bytes are the
fresh bytes, a ``replace``d copy computes its own, and ``==``, ``hash`` and
pickling behave as before the first encode."""

import pickle
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from chainacl.blocks import block_hash, decode_block, encode_block, seal_block
from chainacl.crypto import Provider
from chainacl.transactions import (
    RESOURCE_BITS_WIDTH,
    USER_BITS_WIDTH,
    RequestInfo,
    VerifiedRequestTx,
    build_access_request_tx,
    build_link_delivery_tx,
    build_redemption_log_tx,
    build_register_user_tx,
    decode_transaction,
    encode_transaction,
    payload_bytes,
    tx_id,
)

P = Provider(seed=19)
ADMIN, USER, STORAGE, LEADER = (P.generate_keypair() for _ in range(4))

user_bits = st.tuples(*[st.integers(0, 1)] * USER_BITS_WIDTH)
req_bits = st.tuples(*[st.integers(0, 1)] * RESOURCE_BITS_WIDTH)
rids = st.binary(min_size=16, max_size=16)
times = st.integers(0, 2**40)

transactions = st.one_of(
    st.builds(lambda t: build_register_user_tx(P, ADMIN, USER.public_key, time=t), times),
    st.builds(
        lambda res, op, rid, t: build_access_request_tx(P, USER, RequestInfo(res, op, rid), time=t),
        st.integers(0, 2**16 - 1), st.integers(0, 3), rids, times,
    ),
    st.builds(lambda ct, rid: build_link_delivery_tx(P, STORAGE, ct, rid), st.binary(max_size=40), rids),
    st.builds(lambda n, t, rid: build_redemption_log_tx(P, STORAGE, n, t, USER.public_key, rid), rids, times, rids),
    st.builds(
        lambda t, ub, rb, rid: VerifiedRequestTx(time=t, user_bits=ub, req_bits=rb, request_id=rid),
        times, user_bits, req_bits, rids,
    ),
)


def _changed(value):
    """A value of the same shape as ``value`` that differs from it."""
    if isinstance(value, int):
        return value ^ 1
    if isinstance(value, bytes):
        return bytes([value[0] ^ 1]) + value[1:] if value else b"\x01"
    if isinstance(value, tuple):  # a bit vector
        return (1 - value[0],) + value[1:]
    assert isinstance(value, RequestInfo)
    return replace(value, operation=(value.operation + 1) % 4)


def _snapshot(record):
    return pickle.dumps(record), hash(record)


def _wire_names(tx):
    return [name for name, _ in tx.FIELDS] + ([tx.SIGNATURE] if tx.SIGNATURE else [])


@settings(max_examples=60, deadline=None)
@given(tx=transactions, which=st.integers(0, 7))
def test_cached_transaction_encoding_is_invisible(tx, which):
    before = _snapshot(tx)
    wire, ident, payload = encode_transaction(tx), tx_id(tx), payload_bytes(tx)
    assert encode_transaction(tx) is wire and tx_id(tx) is ident  # served from the cache
    fresh = decode_transaction(wire)
    assert encode_transaction(fresh) == wire and tx_id(fresh) == ident and payload_bytes(fresh) == payload
    assert fresh == tx and _snapshot(tx) == before
    assert pickle.loads(pickle.dumps(tx)) == tx

    names = _wire_names(tx)
    name = names[which % len(names)]
    edited = replace(tx, **{name: _changed(getattr(tx, name))})
    assert tx_id(edited) != ident and encode_transaction(edited) != wire


@settings(max_examples=30, deadline=None)
@given(txs=st.lists(transactions, max_size=4), time=st.integers(1, 2**40), which=st.sampled_from(["time", "height", "validator_sig"]))
def test_cached_block_encoding_is_invisible(txs, time, which):
    block = seal_block(P, LEADER, 7, b"\x05" * 32, time, tuple(txs))
    before = _snapshot(block)
    wire, digest, payload = encode_block(block), block_hash(block), block.signing_payload()
    assert encode_block(block) is wire and block_hash(block) is digest
    fresh = decode_block(wire)
    assert encode_block(fresh) == wire and block_hash(fresh) == digest and fresh.signing_payload() == payload
    assert fresh == block and _snapshot(block) == before
    assert pickle.loads(pickle.dumps(block)) == block

    edited = replace(block, **{which: _changed(getattr(block, which))})
    assert block_hash(edited) != digest and encode_block(edited) != wire
    assert (edited.signing_payload() == payload) == (which == "validator_sig")
