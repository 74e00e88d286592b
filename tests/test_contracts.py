"""Authentication and authorization contracts, plus the delivery envelope."""

import numpy as np
import pytest

from chainacl.blocks import GenesisConfig
from chainacl.contracts import (
    AUTH_FAIL_UNREGISTERED,
    ContractError,
    ContractRuntime,
    EnvelopeError,
    RequestResult,
    decrypt_request_results,
    encrypt_request_result,
    engine_fingerprint,
    run_authentication,
    run_authorization,
)
from chainacl.crypto import Provider, sha256
from chainacl.engine import ALLOW, DENY, PriorityRule, init_model, zero_model
from chainacl.ledger import genesis
from chainacl.transactions import (
    AccessRequestTx,
    N_OPERATIONS,
    RequestInfo,
    VerifiedRequestTx,
    build_access_request_tx,
    build_register_user_tx,
)


@pytest.fixture(scope="module")
def p():
    return Provider(seed=51)


@pytest.fixture(scope="module")
def actors(p):
    return {
        "admin": p.generate_keypair(),
        "storage": p.generate_keypair(),
        "validators": [p.generate_keypair() for _ in range(3)],
        "user": p.generate_keypair(),
        "ghost": p.generate_keypair(),
    }


@pytest.fixture(scope="module")
def state(p, actors, seal_next):
    config = GenesisConfig(
        admin_pks=(actors["admin"].public_key,),
        validators=tuple(v.public_key for v in actors["validators"]),
        storage_pk=actors["storage"].public_key,
        engine_fingerprint=sha256(b"engine pin"),
    )
    st = genesis(config)
    reg = build_register_user_tx(p, actors["admin"], actors["user"].public_key, time=1)
    return seal_next(st, p, actors, None, 1, [reg])


def _request(p, actors, rid=b"\x01" * 16, time=10, resource=5, op=2):
    return build_access_request_tx(
        p, actors["user"], RequestInfo(resource, op, rid), time=time
    )


def test_request_result_invariant():
    RequestResult(
        request_id=b"r" * 16,
        user_pk=b"u" * 64,
        resource_id=1,
        operation=2,
        access_list=(False, False, True, False),
        granted=True,
        time=9,
    )
    with pytest.raises(ContractError):
        RequestResult(
            request_id=b"r" * 16,
            user_pk=b"u" * 64,
            resource_id=1,
            operation=2,
            access_list=(False, False, True, False),
            granted=False,
            time=9,
        )
    with pytest.raises(ContractError):
        RequestResult(
            request_id=b"r" * 16,
            user_pk=b"u" * 64,
            resource_id=1,
            operation=0,
            access_list=(True,),
            granted=True,
            time=9,
        )
    with pytest.raises(ContractError):
        RequestResult(
            request_id=b"r" * 16,
            user_pk=b"u" * 64,
            resource_id=1,
            operation=4,
            access_list=(False,) * 4,
            granted=False,
            time=9,
        )


def test_request_result_round_trip():
    result = RequestResult(
        request_id=b"r" * 16,
        user_pk=b"u" * 64,
        resource_id=7,
        operation=1,
        access_list=(True, True, False, False),
        granted=True,
        time=44,
        overridden=(False, True, False, False),
    )
    assert RequestResult.decode(result.encode()) == result


def test_runtime_authentication_leaves_signature_to_the_ledger(p, actors, state):
    """Block execution has already checked the signature; the contract
    checks registration only, so a zeroed signature still authenticates."""
    good = _request(p, actors)
    zeroed = AccessRequestTx(
        user_pk=good.user_pk, time=good.time, info=good.info, user_sig=b"\x00" * 64
    )
    verified, failure = ContractRuntime(zero_model(), []).authenticate(zeroed, state)
    assert failure is None
    assert isinstance(verified, VerifiedRequestTx)
    assert verified.request_id == good.info.request_id


def test_authentication_emits_binary_identity(p, actors, state):
    tx = _request(p, actors, resource=5)
    verified, failure = run_authentication(tx, state)
    assert failure is None
    assert verified.locally_derived
    assert verified.request_id == tx.info.request_id
    assert verified.time == tx.time
    user_index = state.user_record(actors["user"].public_key).user_index
    assert sum(b << (15 - i) for i, b in enumerate(verified.user_bits)) == user_index
    assert sum(b << (15 - i) for i, b in enumerate(verified.req_bits)) == 5


def test_authentication_failure_returns_no_tx(p, actors, state):
    ghost_tx = build_access_request_tx(
        p, actors["ghost"], RequestInfo(5, 2, b"\x03" * 16), time=10
    )
    verified, failure = run_authentication(ghost_tx, state)
    assert verified is None and failure == AUTH_FAIL_UNREGISTERED


def test_authorization_model_only(p, actors, state):
    tx = _request(p, actors, op=2)
    verified, _ = run_authentication(tx, state)
    result = run_authorization(zero_model(), [], verified, tx, now=10)
    # zero model scores 0.5 everywhere, threshold grants
    assert result.access_list == (True,) * N_OPERATIONS
    assert result.granted is True
    assert result.overridden == (False,) * N_OPERATIONS
    assert result.resource_id == 5 and result.operation == 2


def test_authorization_rule_override(p, actors, state):
    tx = _request(p, actors, op=2)
    verified, _ = run_authentication(tx, state)
    deny_all = [PriorityRule(10, None, None, None, DENY)]
    result = run_authorization(zero_model(), deny_all, verified, tx, now=10)
    assert result.granted is False
    assert result.access_list == (False,) * N_OPERATIONS
    assert result.overridden == (True,) * N_OPERATIONS


def test_authorization_requires_local_derivation(p, actors, state):
    tx = _request(p, actors)
    verified, _ = run_authentication(tx, state)
    from chainacl.transactions import decode_transaction, encode_transaction

    wire_copy = decode_transaction(encode_transaction(verified))
    with pytest.raises(ContractError):
        run_authorization(zero_model(), [], wire_copy, tx, now=10)


def test_runtime_truth_table(p, actors, state):
    """Model grant x rule effect, all six combinations, at the contract level."""
    tx = _request(p, actors, op=0)
    verified, _ = run_authentication(tx, state)
    grant_model = zero_model()  # scores 0.5: grants
    deny_model = zero_model()
    deny_model.biases[-1][:] = -5.0  # scores ~0.007: denies
    cases = [
        (grant_model, [], True, False),
        (deny_model, [], False, False),
        (grant_model, [PriorityRule(9, None, None, None, ALLOW)], True, False),
        (grant_model, [PriorityRule(9, None, None, None, DENY)], False, True),
        (deny_model, [PriorityRule(9, None, None, None, ALLOW)], True, True),
        (deny_model, [PriorityRule(9, None, None, None, DENY)], False, False),
    ]
    for model, rules, want_grant, want_override in cases:
        result = run_authorization(model, rules, verified, tx, now=10)
        assert result.granted is want_grant
        assert result.overridden[0] is want_override


def test_fingerprint_sensitivity():
    model = init_model(seed=1)
    rules = [PriorityRule(1, None, None, None, DENY)]
    base = engine_fingerprint(model, rules)
    assert engine_fingerprint(model, rules) == base
    assert engine_fingerprint(model, []) != base
    other_model = init_model(seed=2)
    assert engine_fingerprint(other_model, rules) != base
    runtime = ContractRuntime(model, rules)
    assert runtime.fingerprint() == base


def test_envelope_round_trip(p, actors):
    result = RequestResult(
        request_id=b"r" * 16,
        user_pk=actors["user"].public_key,
        resource_id=3,
        operation=1,
        access_list=(False, True, False, False),
        granted=True,
        time=12,
    )
    validator = actors["validators"][0]
    vset = tuple(v.public_key for v in actors["validators"])
    envelope = encrypt_request_result(p, result, actors["storage"].public_key, validator)
    opened = decrypt_request_results(p, actors["storage"], envelope, vset)
    assert opened == (result,)


def test_envelope_rejects_unknown_sender(p, actors):
    result = RequestResult(
        request_id=b"r" * 16,
        user_pk=actors["user"].public_key,
        resource_id=3,
        operation=1,
        access_list=(False, True, False, False),
        granted=True,
        time=12,
    )
    outsider = p.generate_keypair()
    vset = tuple(v.public_key for v in actors["validators"])
    envelope = encrypt_request_result(p, result, actors["storage"].public_key, outsider)
    with pytest.raises(EnvelopeError):
        decrypt_request_results(p, actors["storage"], envelope, vset)


def test_envelope_rejects_tampering_and_junk(p, actors):
    result = RequestResult(
        request_id=b"r" * 16,
        user_pk=actors["user"].public_key,
        resource_id=3,
        operation=1,
        access_list=(False, True, False, False),
        granted=True,
        time=12,
    )
    validator = actors["validators"][0]
    vset = tuple(v.public_key for v in actors["validators"])
    envelope = bytearray(
        encrypt_request_result(p, result, actors["storage"].public_key, validator)
    )
    envelope[10] ^= 0x40
    with pytest.raises(EnvelopeError):
        decrypt_request_results(p, actors["storage"], bytes(envelope), vset)
    with pytest.raises(EnvelopeError):
        decrypt_request_results(p, actors["storage"], b"not an envelope", vset)


def test_envelope_encrypted_to_storage_only(p, actors):
    result = RequestResult(
        request_id=b"r" * 16,
        user_pk=actors["user"].public_key,
        resource_id=3,
        operation=1,
        access_list=(False, True, False, False),
        granted=True,
        time=12,
    )
    validator = actors["validators"][0]
    vset = tuple(v.public_key for v in actors["validators"])
    envelope = encrypt_request_result(p, result, actors["storage"].public_key, validator)
    eavesdropper = p.generate_keypair()
    with pytest.raises(EnvelopeError):
        decrypt_request_results(p, eavesdropper, envelope, vset)
    assert result.encode() not in envelope
