"""Storage service: resources, link minting, single-use redemption."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from chainacl.contracts import RequestResult, encrypt_request_result, encrypt_request_results
from chainacl.crypto import Provider, sha256
from chainacl.ledger import LINK_LIFETIME, link_deadline
from chainacl.storage import (
    LINK_TOKEN_LEN,
    NONCE_LEN,
    REDEEM_ALREADY_REDEEMED,
    REDEEM_EXPIRED,
    REDEEM_OP_NOT_PERMITTED,
    REDEEM_UNKNOWN_TOKEN,
    REDEEM_WRONG_NONCE,
    DenialRecord,
    LinkGrant,
    RedeemError,
    StorageError,
    StorageService,
    open_link_ciphertext,
)
from chainacl.transactions import LinkDeliveryTx, RedemptionLogTx, encode_transaction


@pytest.fixture
def p():
    return Provider(seed=61)


@pytest.fixture
def actors(p):
    return {
        "storage": p.generate_keypair(),
        "validators": [p.generate_keypair() for _ in range(3)],
        "user": p.generate_keypair(),
    }


@pytest.fixture
def service(p, actors):
    svc = StorageService(
        keypair=actors["storage"],
        validators=tuple(v.public_key for v in actors["validators"]),
        provider=p,
    )
    svc.put_resource(5, b"the quick brown payload", name="r5")
    return svc


def _granted_envelope(p, actors, rid=b"\x01" * 16, resource=5, op=1,
                      access=(False, True, True, False), time=10):
    result = RequestResult(
        request_id=rid,
        user_pk=actors["user"].public_key,
        resource_id=resource,
        operation=op,
        access_list=access,
        granted=access[op],
        time=time,
    )
    return encrypt_request_result(
        p, result, actors["storage"].public_key, actors["validators"][0]
    )


def _issue(service, p, actors, **kw):
    tx = service.handle_request_result(_granted_envelope(p, actors, **kw), now=10)
    assert isinstance(tx, LinkDeliveryTx)
    return open_link_ciphertext(p, actors["user"], tx.ciphertext)


def test_put_resource_and_metadata(service):
    meta = service.get_metadata(5)
    assert meta.digest == sha256(b"the quick brown payload")
    assert meta.size == len(b"the quick brown payload")
    with pytest.raises(StorageError):
        service.put_resource(5, b"again")
    with pytest.raises(StorageError):
        service.get_metadata(6)


def test_granted_result_mints_encrypted_link(service, p, actors):
    grant = _issue(service, p, actors)
    assert len(grant.link_token) == LINK_TOKEN_LEN
    assert len(grant.nonce) == NONCE_LEN
    assert grant.issued_at == 10
    assert grant.expires_at == 10 + LINK_LIFETIME


def test_link_ciphertext_is_user_bound(service, p, actors):
    tx = service.handle_request_result(_granted_envelope(p, actors), now=10)
    stranger = p.generate_keypair()
    from chainacl.crypto import DecryptionError

    with pytest.raises(DecryptionError):
        open_link_ciphertext(p, stranger, tx.ciphertext)


def test_denied_result_records_denial(service, p, actors):
    envelope = _granted_envelope(p, actors, access=(False,) * 4, op=2)
    assert service.handle_request_result(envelope, now=10) is None
    assert service.denials[-1].reason == "denied_by_policy"


def test_replayed_request_id_refused(service, p, actors):
    _issue(service, p, actors, rid=b"\x02" * 16)
    dup = service.handle_request_result(
        _granted_envelope(p, actors, rid=b"\x02" * 16), now=11
    )
    assert dup is None
    assert service.denials[-1].reason == "already_served"


def test_unknown_resource_refused(service, p, actors):
    envelope = _granted_envelope(p, actors, resource=999)
    assert service.handle_request_result(envelope, now=10) is None
    assert service.denials[-1].reason == "unknown_resource"


def test_garbage_envelope_refused(service):
    assert service.handle_request_result(b"junk", now=10) is None
    assert service.denials[-1].reason.startswith("bad_envelope")


def test_redeem_happy_path(service, p, actors):
    grant = _issue(service, p, actors)
    payload, log_tx = service.redeem(grant.link_token, grant.nonce, operation=1, now=20)
    assert payload == b"the quick brown payload"
    assert isinstance(log_tx, RedemptionLogTx)
    assert log_tx.nonce == grant.nonce
    assert log_tx.user_pk == actors["user"].public_key
    assert log_tx.time == 20


def test_second_redemption_always_refused(service, p, actors):
    grant = _issue(service, p, actors)
    service.redeem(grant.link_token, grant.nonce, operation=1, now=20)
    with pytest.raises(RedeemError) as info:
        service.redeem(grant.link_token, grant.nonce, operation=1, now=21)
    assert info.value.reason == REDEEM_ALREADY_REDEEMED
    # also refused for a different permitted operation
    with pytest.raises(RedeemError) as info:
        service.redeem(grant.link_token, grant.nonce, operation=2, now=21)
    assert info.value.reason == REDEEM_ALREADY_REDEEMED


def test_redeem_check_order(service, p, actors):
    """Operation range, then token, then nonce, then reuse, then expiry."""
    grant = _issue(service, p, actors)
    with pytest.raises(RedeemError) as info:
        service.redeem(b"\x00" * LINK_TOKEN_LEN, b"\x00" * NONCE_LEN, operation=9, now=20)
    assert info.value.reason == REDEEM_OP_NOT_PERMITTED
    with pytest.raises(RedeemError) as info:
        service.redeem(b"\x00" * LINK_TOKEN_LEN, grant.nonce, operation=1, now=20)
    assert info.value.reason == REDEEM_UNKNOWN_TOKEN
    with pytest.raises(RedeemError) as info:
        service.redeem(grant.link_token, b"\x00" * NONCE_LEN, operation=1, now=20)
    assert info.value.reason == REDEEM_WRONG_NONCE
    service.redeem(grant.link_token, grant.nonce, operation=1, now=20)
    with pytest.raises(RedeemError) as info:
        # reuse reported even when the operation would now be refused too
        service.redeem(grant.link_token, grant.nonce, operation=0, now=9999)
    assert info.value.reason == REDEEM_ALREADY_REDEEMED


def test_redeem_expiry_boundary(service, p, actors):
    grant = _issue(service, p, actors)
    deadline = grant.expires_at
    with pytest.raises(RedeemError) as info:
        service.redeem(grant.link_token, grant.nonce, operation=1, now=deadline + 1)
    assert info.value.reason == REDEEM_EXPIRED
    # the failed attempt latched the link as expired, even for earlier times
    with pytest.raises(RedeemError) as info:
        service.redeem(grant.link_token, grant.nonce, operation=1, now=deadline)
    assert info.value.reason == REDEEM_EXPIRED


def test_redeem_at_exact_deadline_succeeds(service, p, actors):
    grant = _issue(service, p, actors)
    payload, _ = service.redeem(grant.link_token, grant.nonce, operation=1, now=grant.expires_at)
    assert payload == b"the quick brown payload"


def test_links_expire_at_the_chains_deadline(service, p, actors):
    """A link issued at 10 pays out at ``10 + LINK_LIFETIME`` and is refused
    one second later: the boundary at which the chain refuses the
    redemption record, so no payload is served without an audit entry."""
    on_time = _issue(service, p, actors, rid=b"\x0a" * 16)
    late = _issue(service, p, actors, rid=b"\x0b" * 16)
    deadline = 10 + LINK_LIFETIME
    assert link_deadline(10) == deadline
    payload, _ = service.redeem(on_time.link_token, on_time.nonce, operation=1, now=deadline)
    assert payload == b"the quick brown payload"
    with pytest.raises(RedeemError) as info:
        service.redeem(late.link_token, late.nonce, operation=1, now=deadline + 1)
    assert info.value.reason == REDEEM_EXPIRED


def test_unpermitted_operation_refused(service, p, actors):
    grant = _issue(service, p, actors, access=(False, True, False, False))
    with pytest.raises(RedeemError) as info:
        service.redeem(grant.link_token, grant.nonce, operation=3, now=20)
    assert info.value.reason == REDEEM_OP_NOT_PERMITTED
    # the refusal must not consume the link
    payload, _ = service.redeem(grant.link_token, grant.nonce, operation=1, now=20)
    assert payload == b"the quick brown payload"


def test_expire_links_bulk(service, p, actors):
    g1 = _issue(service, p, actors, rid=b"\x03" * 16)
    g2 = _issue(service, p, actors, rid=b"\x04" * 16)
    service.redeem(g1.link_token, g1.nonce, operation=1, now=20)
    assert service.expire_links(now=g2.expires_at) == 0
    assert service.expire_links(now=g2.expires_at + 1) == 1  # only the unredeemed one
    assert service.expire_links(now=g2.expires_at + 2) == 0  # already latched


def test_expire_links_matches_a_full_scan(service, p, actors):
    """Over a seeded mint/redeem/tick sequence (the clock sometimes steps
    back), each call expires exactly the links a scan of every link would."""
    rng = random.Random(62)
    grants, now = [], 10
    for _ in range(150):
        action = rng.random()
        if action < 0.35:
            envelope = _granted_envelope(p, actors, rid=rng.randbytes(16), time=now)
            tx = service.handle_request_result(envelope, now=now)
            grants.append(open_link_ciphertext(p, actors["user"], tx.ciphertext))
        elif action < 0.55 and grants:
            grant = rng.choice(grants)
            try:
                service.redeem(grant.link_token, grant.nonce, operation=1, now=now)
            except RedeemError:
                pass
        now = max(0, now + rng.choice((-40, 0, 1, 7, 60, 250)))
        due = {
            token for token, link in service.links.items()
            if not (link.redeemed or link.expired) and link.expires_at < now
        }
        was = {token: link.expired for token, link in service.links.items()}
        assert service.expire_links(now) == len(due)
        assert {t: link.expired for t, link in service.links.items()} == {t: was[t] or t in due for t in was}
    links = service.links.values()
    assert len(grants) > 40 and any(link.expired for link in links) and any(link.redeemed for link in links)


def test_link_grant_round_trip():
    grant = LinkGrant(link_token=b"t" * 16, nonce=b"n" * 16, issued_at=77)
    assert LinkGrant.decode(grant.encode()) == grant
    assert grant.expires_at == 77 + LINK_LIFETIME


def test_distinct_links_distinct_credentials(service, p, actors):
    grants = [
        _issue(service, p, actors, rid=bytes([i]) * 16) for i in range(8)
    ]
    tokens = {g.link_token for g in grants}
    nonces = {g.nonce for g in grants}
    assert len(tokens) == 8 and len(nonces) == 8


def _minted_link(p, actors, provider):
    svc = StorageService(
        keypair=actors["storage"],
        validators=tuple(v.public_key for v in actors["validators"]),
        provider=provider,
    )
    svc.put_resource(5, b"five")
    assert isinstance(svc.handle_request_result(_granted_envelope(p, actors), now=10), LinkDeliveryTx)
    (link,) = svc.links.values()
    return link


def test_unseeded_link_credentials_come_from_os_urandom(p, actors, monkeypatch):
    """Bearer credentials are drawn from the OS CSPRNG, not a seeded PRNG."""
    import chainacl.crypto

    drawn = []

    def counting_urandom(n):
        drawn.append(bytes([len(drawn) + 1]) * n)
        return drawn[-1]

    monkeypatch.setattr(chainacl.crypto.os, "urandom", counting_urandom)
    link = _minted_link(p, actors, Provider())
    assert link.link_token in drawn and link.nonce in drawn
    assert len(link.link_token) == LINK_TOKEN_LEN and len(link.nonce) == NONCE_LEN


def test_seeded_link_credentials_are_reproducible(p, actors):
    first, again = (_minted_link(p, actors, Provider(seed=65)) for _ in range(2))
    other = _minted_link(p, actors, Provider(seed=66))
    assert (first.link_token, first.nonce) == (again.link_token, again.nonce)
    assert first.link_token != other.link_token and first.nonce != other.nonce


# -- one envelope per block ------------------------------------------------------

_BATCH = Provider(seed=63)
_STORAGE = _BATCH.generate_keypair()
_VALIDATORS = [_BATCH.generate_keypair() for _ in range(3)]
_USERS = [_BATCH.generate_keypair() for _ in range(2)]


def _batch_service() -> StorageService:
    svc = StorageService(
        keypair=_STORAGE,
        validators=tuple(v.public_key for v in _VALIDATORS),
        provider=Provider(seed=64),
    )
    svc.put_resource(5, b"five")
    svc.put_resource(6, b"six")
    return svc


_results = st.builds(
    lambda rid, user, resource, op, access, time: RequestResult(
        request_id=bytes([rid]) * 16,
        user_pk=_USERS[user].public_key,
        resource_id=resource,
        operation=op,
        access_list=access,
        granted=access[op],
        time=time,
    ),
    rid=st.integers(0, 5),  # few ids, so some results repeat one
    user=st.integers(0, 1),
    resource=st.sampled_from((5, 6, 999)),
    op=st.integers(0, 3),
    access=st.tuples(*[st.booleans()] * 4),
    time=st.integers(0, 100),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(_results, min_size=1, max_size=6), st.integers(0, 2))
def test_one_envelope_equals_one_envelope_per_result(results, sender):
    validator = _VALIDATORS[sender]
    batched, single = _batch_service(), _batch_service()
    envelope = encrypt_request_results(_BATCH, results, _STORAGE.public_key, validator)
    out = batched.handle_request_results(envelope, now=50)
    txs = [
        single.handle_request_result(encrypt_request_result(_BATCH, r, _STORAGE.public_key, validator), now=50)
        for r in results
    ]
    assert len(out) == len(results)
    assert [encode_transaction(o) if isinstance(o, LinkDeliveryTx) else None for o in out] == [
        encode_transaction(tx) if tx is not None else None for tx in txs
    ]
    assert [o.request_id for o in out] == [r.request_id for r in results]
    assert [o for o in out if isinstance(o, DenialRecord)] == single.denials
    assert (batched.links, batched.denials, batched.served_requests) == (
        single.links, single.denials, single.served_requests
    )


def _two_results():
    return [
        RequestResult(
            request_id=bytes([i]) * 16, user_pk=_USERS[0].public_key, resource_id=5,
            operation=1, access_list=(False, True, False, False), granted=True, time=10,
        )
        for i in (1, 2)
    ]


def test_bad_envelopes_mint_nothing():
    outsider = _BATCH.generate_keypair()
    good = encrypt_request_results(_BATCH, _two_results(), _STORAGE.public_key, _VALIDATORS[0])
    ciphertext_byte = 4 + 40  # inside the ciphertext, past its length prefix
    tampered = bytearray(good)
    tampered[ciphertext_byte] ^= 0x01
    bad = {
        "tampered": bytes(tampered),
        "foreign": encrypt_request_results(_BATCH, _two_results(), _STORAGE.public_key, outsider),
        "truncated": good[:-1],
        "empty": b"",
    }
    for name, envelope in bad.items():
        svc = _batch_service()
        (denial,) = svc.handle_request_results(envelope, now=10)
        assert isinstance(denial, DenialRecord) and denial.reason.startswith("bad_envelope"), name
        assert svc.denials == [denial] and not svc.links and not svc.served_requests, name
    # the untouched envelope mints both links
    out = _batch_service().handle_request_results(good, now=10)
    assert [type(o) for o in out] == [LinkDeliveryTx, LinkDeliveryTx]
