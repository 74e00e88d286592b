"""Transaction encoding, identity, and signature plumbing."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from chainacl.codec import CodecError, Writer
from chainacl.crypto import PUBLIC_KEY_LEN, Provider
from chainacl.transactions import (
    MAX_RESOURCE_ID,
    N_OPERATIONS,
    OPERATION_NAMES,
    REQUEST_ID_LEN,
    RESOURCE_BITS_WIDTH,
    USER_BITS_WIDTH,
    AccessRequestTx,
    LinkDeliveryTx,
    RedemptionLogTx,
    RegisterUserTx,
    RequestInfo,
    TransactionError,
    VerifiedRequestTx,
    build_access_request_tx,
    build_link_delivery_tx,
    build_redemption_log_tx,
    build_register_user_tx,
    decode_transaction,
    encode_transaction,
    format_transaction,
    operation_index,
    operation_name,
    payload_bytes,
    transaction_signature_check,
    tx_id,
    verify_transaction_signature,
)


@pytest.fixture(scope="module")
def keys():
    p = Provider(seed=7)
    return {
        "admin": p.generate_keypair(),
        "user": p.generate_keypair(),
        "storage": p.generate_keypair(),
    }


def _info(rid=7, op=1, request_id=b"r" * 16):
    return RequestInfo(resource_id=rid, operation=op, request_id=request_id)


def _sample_txs(provider, keys):
    user_pk = keys["user"].public_key
    return [
        build_register_user_tx(provider, keys["admin"], user_pk, time=5),
        build_access_request_tx(provider, keys["user"], _info(), time=9),
        build_link_delivery_tx(provider, keys["storage"], b"ciphertext!", b"r" * 16),
        build_redemption_log_tx(provider, keys["storage"], b"n" * 16, 30, user_pk, b"r" * 16),
        VerifiedRequestTx(
            time=9,
            user_bits=(0,) * USER_BITS_WIDTH,
            req_bits=(0, 1) * (RESOURCE_BITS_WIDTH // 2),
            request_id=b"r" * 16,
        ),
    ]


def test_operation_names_and_indices():
    assert OPERATION_NAMES == ("op1", "op2", "op3", "op4")
    for i, name in enumerate(OPERATION_NAMES):
        assert operation_index(name) == i
        assert operation_name(i) == name
    with pytest.raises(TransactionError):
        operation_index("op5")
    with pytest.raises(TransactionError):
        operation_name(N_OPERATIONS)


def test_request_info_bounds():
    _info(rid=MAX_RESOURCE_ID)  # boundary ok
    with pytest.raises(TransactionError):
        _info(rid=MAX_RESOURCE_ID + 1)
    with pytest.raises(TransactionError):
        _info(op=N_OPERATIONS)
    with pytest.raises(TransactionError):
        _info(op=-1)
    with pytest.raises(TransactionError):
        _info(request_id=b"short")


def test_round_trip_every_variant(provider, keys):
    for tx in _sample_txs(provider, keys):
        decoded = decode_transaction(encode_transaction(tx))
        assert decoded == tx
        assert type(decoded) is type(tx)


def test_decoded_verified_tx_is_not_locally_derived(provider, keys):
    original = _sample_txs(provider, keys)[-1]
    stamped = VerifiedRequestTx(
        time=original.time,
        user_bits=original.user_bits,
        req_bits=original.req_bits,
        request_id=original.request_id,
        locally_derived=True,
    )
    decoded = decode_transaction(encode_transaction(stamped))
    assert decoded == stamped  # provenance flag is excluded from equality
    assert decoded.locally_derived is False
    assert not verify_transaction_signature(provider, decoded)
    assert verify_transaction_signature(provider, stamped)


def test_verified_tx_validation():
    good = dict(
        time=0,
        user_bits=(0,) * USER_BITS_WIDTH,
        req_bits=(0,) * RESOURCE_BITS_WIDTH,
        request_id=b"r" * REQUEST_ID_LEN,
    )
    VerifiedRequestTx(**good)
    with pytest.raises(TransactionError):
        VerifiedRequestTx(**{**good, "user_bits": (0,) * 5})
    with pytest.raises(TransactionError):
        VerifiedRequestTx(**{**good, "req_bits": (0, 2) * (RESOURCE_BITS_WIDTH // 2)})
    with pytest.raises(TransactionError):
        VerifiedRequestTx(**{**good, "request_id": b""})


def test_signatures_verify_and_localize(provider, keys):
    reg, req, link, redeem, unsigned = _sample_txs(provider, keys)
    storage_pk = keys["storage"].public_key
    assert verify_transaction_signature(provider, reg)
    assert verify_transaction_signature(provider, req)
    assert verify_transaction_signature(provider, link, storage_pk=storage_pk)
    assert verify_transaction_signature(provider, redeem, storage_pk=storage_pk)
    # storage-signed variants need the storage key to check against
    assert not verify_transaction_signature(provider, link)
    assert not verify_transaction_signature(provider, redeem)
    wrong = keys["user"].public_key
    assert not verify_transaction_signature(provider, link, storage_pk=wrong)
    # the triple that in-line verification and replay's workers both verify
    assert transaction_signature_check(reg) == (reg.admin_pk, payload_bytes(reg), reg.admin_sig)
    assert transaction_signature_check(req)[0] == req.user_pk
    assert transaction_signature_check(link) is None
    assert transaction_signature_check(redeem, storage_pk)[0] == storage_pk
    assert transaction_signature_check(unsigned, storage_pk) is None


def test_register_refuses_a_malformed_user_key(provider, keys):
    """A registered key that cannot sign would still take a user index."""
    for length in (0, 1, PUBLIC_KEY_LEN - 1, PUBLIC_KEY_LEN + 1):
        with pytest.raises(TransactionError):
            build_register_user_tx(provider, keys["admin"], b"\x07" * length, time=5)

    def field(data):
        w = Writer()
        w.bytes_(data)
        return w.getvalue()

    good = build_register_user_tx(provider, keys["admin"], keys["user"].public_key, time=5)
    wire = encode_transaction(good)
    short = wire.replace(field(good.user_pk), field(good.user_pk[:-1]))
    assert short != wire
    with pytest.raises(TransactionError):
        decode_transaction(short)


def test_signature_covers_payload(provider, keys):
    reg = _sample_txs(provider, keys)[0]
    moved = RegisterUserTx(
        admin_pk=reg.admin_pk, user_pk=reg.user_pk, time=reg.time + 1, admin_sig=reg.admin_sig
    )
    assert not verify_transaction_signature(provider, moved)


def test_field_sensitivity_of_encoding(provider, keys):
    req = _sample_txs(provider, keys)[1]
    base = encode_transaction(req)
    for variant in (
        build_access_request_tx(provider, keys["user"], _info(rid=8), time=9),
        build_access_request_tx(provider, keys["user"], _info(op=2), time=9),
        build_access_request_tx(provider, keys["user"], _info(request_id=b"s" * 16), time=9),
        build_access_request_tx(provider, keys["user"], _info(), time=10),
    ):
        assert encode_transaction(variant) != base
        assert tx_id(variant) != tx_id(req)


def test_encoding_injective_over_corpus(provider, keys):
    """10k randomized transactions, no two encodings or ids collide."""
    rng = random.Random(17)
    admin, user, storage = keys["admin"], keys["user"], keys["storage"]
    seen_enc, seen_ids = set(), set()
    for i in range(10_000):
        kind = rng.randrange(5)
        if kind == 0:
            tx = RegisterUserTx(
                admin_pk=admin.public_key,
                user_pk=rng.randbytes(64),
                time=rng.randrange(1 << 32),
                admin_sig=rng.randbytes(64),
            )
        elif kind == 1:
            tx = AccessRequestTx(
                user_pk=user.public_key,
                time=rng.randrange(1 << 32),
                info=RequestInfo(
                    resource_id=rng.randrange(MAX_RESOURCE_ID + 1),
                    operation=rng.randrange(N_OPERATIONS),
                    request_id=rng.randbytes(REQUEST_ID_LEN),
                ),
                user_sig=rng.randbytes(64),
            )
        elif kind == 2:
            tx = LinkDeliveryTx(
                ciphertext=rng.randbytes(rng.randrange(1, 80)),
                storage_sig=rng.randbytes(64),
                request_id=rng.randbytes(REQUEST_ID_LEN),
            )
        elif kind == 3:
            tx = RedemptionLogTx(
                nonce=rng.randbytes(16),
                time=rng.randrange(1 << 32),
                user_pk=rng.randbytes(64),
                request_id=rng.randbytes(REQUEST_ID_LEN),
                storage_sig=rng.randbytes(64),
            )
        else:
            tx = VerifiedRequestTx(
                time=rng.randrange(1 << 32),
                user_bits=tuple(rng.randrange(2) for _ in range(USER_BITS_WIDTH)),
                req_bits=tuple(rng.randrange(2) for _ in range(RESOURCE_BITS_WIDTH)),
                request_id=rng.randbytes(REQUEST_ID_LEN),
            )
        enc = encode_transaction(tx)
        assert decode_transaction(enc) == tx
        seen_enc.add(enc)
        seen_ids.add(tx_id(tx))
    assert len(seen_enc) == 10_000
    assert len(seen_ids) == 10_000


def test_tx_id_is_stable(provider, keys):
    tx = _sample_txs(provider, keys)[1]
    assert tx_id(tx) == tx_id(decode_transaction(encode_transaction(tx)))
    assert len(tx_id(tx)) == 32


def test_decode_rejects_unknown_tag():
    with pytest.raises(CodecError):
        decode_transaction(b"\x99" + b"\x00" * 8)


def test_decode_rejects_trailing_bytes(provider, keys):
    enc = encode_transaction(_sample_txs(provider, keys)[0])
    with pytest.raises(Exception):
        decode_transaction(enc + b"\x00")


def test_format_is_single_line(provider, keys):
    for tx in _sample_txs(provider, keys):
        text = format_transaction(tx)
        assert "\n" not in text and len(text) < 300
        # every record about a request names it
        if not isinstance(tx, RegisterUserTx):
            rid = tx.info.request_id if isinstance(tx, AccessRequestTx) else tx.request_id
            assert f"rid={rid.hex()[:12]}" in text


@settings(max_examples=100)
@given(
    rid=st.integers(0, MAX_RESOURCE_ID),
    op=st.integers(0, N_OPERATIONS - 1),
    request_id=st.binary(min_size=REQUEST_ID_LEN, max_size=REQUEST_ID_LEN),
    time=st.integers(0, 2**63),
)
def test_access_request_round_trip_property(rid, op, request_id, time):
    provider = Provider(seed=23)
    user = provider.generate_keypair()
    tx = build_access_request_tx(
        provider, user, RequestInfo(rid, op, request_id), time=time
    )
    assert decode_transaction(encode_transaction(tx)) == tx
