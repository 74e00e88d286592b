"""Ledger state machine: slots, validation, blocks, queries, persistence."""

import os
import random
from dataclasses import replace

import pytest

from chainacl.blocks import Block, GenesisConfig, block_hash, make_genesis_block, seal_block
from chainacl.contracts import ContractRuntime, engine_fingerprint
from chainacl.crypto import Provider, sha256
from chainacl.engine import ALLOW, DENY, PriorityRule, zero_model
from chainacl.ledger import (
    _HANDLERS,
    FRESHNESS_WINDOW,
    LINK_LIFETIME,
    LOG_KINDS,
    REJECT_BAD_SIGNATURE,
    REJECT_DUPLICATE,
    REJECT_DUPLICATE_REQUEST,
    REJECT_DUPLICATE_USER,
    REJECT_INTERNAL_ONLY,
    REJECT_REPLAYED_NONCE,
    REJECT_STALE_TIME,
    REJECT_UNAUTHORIZED,
    REJECT_UNKNOWN_REQUEST,
    LedgerError,
    apply_block,
    build_block,
    expected_leader,
    fork_choice,
    genesis,
    load_chain,
    poll_request,
    query_access_log,
    replay_chain,
    save_chain,
    slot_leader,
    slot_of,
    state_digest,
    submit_to_pool,
    validate_transaction,
)
from chainacl.transactions import (
    _WIRE,
    AccessRequestTx,
    RequestInfo,
    VerifiedRequestTx,
    build_access_request_tx,
    build_link_delivery_tx,
    build_redemption_log_tx,
    build_register_user_tx,
    tx_id,
)

REJECT_REASONS = {
    REJECT_BAD_SIGNATURE,
    REJECT_STALE_TIME,
    REJECT_UNAUTHORIZED,
    REJECT_DUPLICATE,
    REJECT_DUPLICATE_REQUEST,
    REJECT_DUPLICATE_USER,
    REJECT_UNKNOWN_REQUEST,
    REJECT_REPLAYED_NONCE,
    REJECT_INTERNAL_ONLY,
}


@pytest.fixture(scope="module")
def p():
    return Provider(seed=41)


@pytest.fixture(scope="module")
def actors(p):
    return {
        "admin": p.generate_keypair(),
        "storage": p.generate_keypair(),
        "validators": [p.generate_keypair() for _ in range(3)],
        "users": [p.generate_keypair() for _ in range(4)],
    }


@pytest.fixture(scope="module")
def runtime():
    # dense-layer model with all-zero weights scores exactly 0.5 everywhere,
    # which the threshold treats as allow; rules are empty
    return ContractRuntime(zero_model(), [])


@pytest.fixture(scope="module")
def config(actors, runtime):
    return GenesisConfig(
        admin_pks=(actors["admin"].public_key,),
        validators=tuple(v.public_key for v in actors["validators"]),
        storage_pk=actors["storage"].public_key,
        engine_fingerprint=runtime.fingerprint(),
        genesis_time=0,
        block_interval=1,
    )


@pytest.fixture
def state(config):
    return genesis(config)


def _registered(seal_next, state, p, actors, users=None, now=1):
    txs = [
        build_register_user_tx(p, actors["admin"], u.public_key, time=now)
        for u in (users if users is not None else actors["users"])
    ]
    return seal_next(state, p, actors, None, now, txs)


def test_slot_arithmetic(config):
    assert slot_of(0, config) == 0
    assert slot_of(5, config) == 5
    wide = GenesisConfig(
        admin_pks=config.admin_pks,
        validators=config.validators,
        storage_pk=config.storage_pk,
        engine_fingerprint=config.engine_fingerprint,
        block_interval=10,
    )
    assert slot_of(9, wide) == 0
    assert slot_of(10, wide) == 1


def test_leader_rotation_round_robin(config):
    vs = config.validators
    for t in range(12):
        assert slot_leader(t, config) == vs[t % 3]
        assert expected_leader(t, vs) == vs[t % 3]


def test_register_users_dense_indices(seal_next, state, p, actors):
    st = _registered(seal_next, state, p, actors)
    indices = sorted(
        st.user_record(u.public_key).user_index for u in actors["users"]
    )
    assert indices == list(range(len(actors["users"])))


def test_register_rejects_duplicate_user(seal_next, state, p, actors):
    st = _registered(seal_next, state, p, actors)
    tx = build_register_user_tx(p, actors["admin"], actors["users"][0].public_key, time=2)
    assert validate_transaction(st, tx, now=2) == REJECT_DUPLICATE_USER


def test_register_rejects_non_admin(state, p, actors):
    interloper = actors["users"][0]
    tx = build_register_user_tx(p, interloper, actors["users"][1].public_key, time=1)
    assert validate_transaction(state, tx, now=1) == REJECT_UNAUTHORIZED


def test_register_rejects_bad_signature(state, p, actors):
    from chainacl.transactions import RegisterUserTx

    good = build_register_user_tx(p, actors["admin"], actors["users"][0].public_key, time=1)
    forged = RegisterUserTx(
        admin_pk=good.admin_pk, user_pk=good.user_pk, time=good.time, admin_sig=b"\x00" * 64
    )
    assert validate_transaction(state, forged, now=1) == REJECT_BAD_SIGNATURE


def test_freshness_window_boundaries(state, p, actors):
    tx = build_register_user_tx(p, actors["admin"], actors["users"][0].public_key, time=0)
    assert validate_transaction(state, tx, now=FRESHNESS_WINDOW) is None
    assert validate_transaction(state, tx, now=FRESHNESS_WINDOW + 1) == REJECT_STALE_TIME
    future = build_register_user_tx(
        p, actors["admin"], actors["users"][0].public_key, time=FRESHNESS_WINDOW + 1
    )
    assert validate_transaction(state, future, now=0) == REJECT_STALE_TIME


def _forged_request(p, user, rid, time):
    good = build_access_request_tx(p, user, RequestInfo(3, 1, rid), time=time)
    return AccessRequestTx(
        user_pk=good.user_pk, time=good.time, info=good.info, user_sig=b"\x00" * 64
    )


def test_access_request_signature_and_freshness(state, p, actors):
    """The one check of a request's signature and time; registration is left
    to the authentication contract, so an unregistered sender passes here."""
    user = actors["users"][0]
    t = 200
    good = build_access_request_tx(p, user, RequestInfo(3, 1, b"\x21" * 16), time=t)
    assert validate_transaction(state, good, now=t) is None
    assert validate_transaction(state, _forged_request(p, user, b"\x21" * 16, t), now=t) == REJECT_BAD_SIGNATURE
    assert validate_transaction(state, good, now=t - FRESHNESS_WINDOW) is None
    assert validate_transaction(state, good, now=t + FRESHNESS_WINDOW) is None
    assert validate_transaction(state, good, now=t - FRESHNESS_WINDOW - 1) == REJECT_STALE_TIME
    assert validate_transaction(state, good, now=t + FRESHNESS_WINDOW + 1) == REJECT_STALE_TIME


def test_build_block_skips_stale_and_forged_requests(seal_next, state, p, actors, runtime):
    user = actors["users"][0]
    st = _registered(seal_next, state, p, actors, users=[user])
    stale = build_access_request_tx(p, user, RequestInfo(3, 1, b"\x31" * 16), time=2)
    assert submit_to_pool(st, stale, now=2) is None  # fresh when pooled
    now = 2 + FRESHNESS_WINDOW + 1
    forged = _forged_request(p, user, b"\x32" * 16, now)
    st.pending_pool.append(forged)  # a pool entry that never passed admission
    good = build_access_request_tx(p, user, RequestInfo(3, 1, b"\x33" * 16), time=now)
    assert submit_to_pool(st, good, now=now) is None
    leader = next(v for v in actors["validators"] if v.public_key == slot_leader(now, st.config))
    block, outcome = build_block(st, leader, now, runtime, provider=p)
    assert block is not None, outcome.reason
    assert outcome.skipped == [(stale, REJECT_STALE_TIME), (forged, REJECT_BAD_SIGNATURE)]
    assert block.transactions[0] == good and len(block.transactions) == 2
    assert {e.request_id for e in outcome.state.access_log[len(st.access_log):]} == {good.info.request_id}
    applied = apply_block(st, block, runtime, provider=p)
    assert applied.ok, applied.reason
    assert {e.request_id for e in applied.state.access_log} == {good.info.request_id}
    assert stale.info.request_id not in applied.state.requests
    assert forged.info.request_id not in applied.state.requests


def test_apply_block_refuses_stale_or_forged_request(seal_next, state, p, actors, runtime):
    user = actors["users"][0]
    st = _registered(seal_next, state, p, actors, users=[user])
    now = 2 + FRESHNESS_WINDOW + 1
    leader = next(v for v in actors["validators"] if v.public_key == slot_leader(now, st.config))
    logged = len(st.access_log)
    stale = build_access_request_tx(p, user, RequestInfo(3, 1, b"\x41" * 16), time=2)
    forged = _forged_request(p, user, b"\x42" * 16, now)
    for tx, reason in ((stale, REJECT_STALE_TIME), (forged, REJECT_BAD_SIGNATURE)):
        block = seal_block(p, leader, st.height + 1, st.tip_hash, now, (tx,))
        outcome = apply_block(st, block, runtime, provider=p)
        assert not outcome.ok and outcome.reason.startswith(reason + ":"), outcome.reason
        assert outcome.state is None and outcome.results == [] and len(st.access_log) == logged


def test_verified_tx_never_admitted(state):
    tx = VerifiedRequestTx(
        time=1, user_bits=(0,) * 16, req_bits=(0,) * 16, request_id=b"x" * 16
    )
    assert validate_transaction(state, tx, now=1) == REJECT_INTERNAL_ONLY
    assert submit_to_pool(state, tx, now=1) == REJECT_INTERNAL_ONLY


def test_reject_reasons_stay_in_closed_set(seal_next, state, p, actors):
    """Randomized probes never produce a reason outside the documented set."""
    rng = random.Random(9)
    st = _registered(seal_next, state, p, actors)
    for _ in range(300):
        kind = rng.randrange(4)
        t = rng.randrange(0, 400)
        if kind == 0:
            tx = build_register_user_tx(
                p, rng.choice([actors["admin"], actors["users"][0]]),
                rng.choice(actors["users"]).public_key, time=t,
            )
        elif kind == 1:
            tx = build_access_request_tx(
                p, rng.choice(actors["users"]),
                RequestInfo(rng.randrange(50), rng.randrange(4), rng.randbytes(16)),
                time=t,
            )
        elif kind == 2:
            tx = build_link_delivery_tx(
                p, actors["storage"], rng.randbytes(24), rng.randbytes(16)
            )
        else:
            tx = build_redemption_log_tx(
                p, actors["storage"], rng.randbytes(16), t,
                rng.choice(actors["users"]).public_key, rng.randbytes(16),
            )
        reason = validate_transaction(st, tx, now=200)
        assert reason is None or reason in REJECT_REASONS


def test_pool_duplicate_vs_execution_duplicate(state, p, actors):
    tx = build_register_user_tx(p, actors["admin"], actors["users"][0].public_key, time=1)
    assert submit_to_pool(state, tx, now=1) is None
    # second admission of the same bytes is a duplicate
    assert submit_to_pool(state, tx, now=1) == REJECT_DUPLICATE
    # but judged against chain history alone the pooled tx is fine
    assert validate_transaction(state, tx, now=1, against_pool=False) is None
    assert validate_transaction(state, tx, now=1, against_pool=True) == REJECT_DUPLICATE


def _grow_chain(state, p, actors, runtime, ticks=6):
    """Drive a few slots: register two users then send one request each."""
    users = actors["users"][:2]
    st = state
    chain_time = 0
    for u in users:
        submit_to_pool(st, build_register_user_tx(p, actors["admin"], u.public_key, time=1), now=1)
    for now in range(1, ticks):
        leader_pk = slot_leader(now, st.config)
        leader = next(v for v in actors["validators"] if v.public_key == leader_pk)
        block, outcome = build_block(st, leader, now, runtime)
        if block is None:
            if now == 3:
                for i, u in enumerate(users):
                    submit_to_pool(
                        st,
                        build_access_request_tx(
                            p, u, RequestInfo(i, 0, bytes([i]) * 16), time=now
                        ),
                        now=now,
                    )
            continue
        applied = apply_block(st, block, runtime)
        assert applied.ok, applied.reason
        st = applied.state
        chain_time = now
        if now >= 3 and len(st.requests) == 0:
            for i, u in enumerate(users):
                submit_to_pool(
                    st,
                    build_access_request_tx(
                        p, u, RequestInfo(i, 0, bytes([i]) * 16), time=now
                    ),
                    now=now,
                )
    assert st.height >= 2
    return st


def test_block_flow_and_interleaved_verification(state, p, actors, runtime):
    st = _grow_chain(state, p, actors, runtime)
    # every access request sealed with its derived verification record after it
    for block in st.chain[1:]:
        txs = block.transactions
        for i, tx in enumerate(txs):
            if type(tx).__name__ == "AccessRequestTx":
                assert i + 1 < len(txs)
                follower = txs[i + 1]
                assert isinstance(follower, VerifiedRequestTx)
                assert follower.request_id == tx.info.request_id
    kinds = [e.kind for e in st.access_log]
    assert "requested" in kinds and "authenticated" in kinds and "decided" in kinds
    assert set(kinds) <= set(LOG_KINDS)


def test_build_block_gating(state, p, actors, runtime):
    leader0 = actors["validators"][1]  # slot 1 leader
    block, outcome = build_block(state, leader0, now=1, runtime=runtime)
    assert block is None and outcome.reason == "empty_pool"
    block, outcome = build_block(state, actors["validators"][2], now=1, runtime=runtime)
    assert block is None and outcome.reason == "not_leader"
    block, outcome = build_block(state, actors["validators"][0], now=0, runtime=runtime)
    assert block is None and outcome.reason == "stale_slot"


def test_apply_block_rejects_wrong_leader(state, p, actors, runtime):
    submit_to_pool(
        state,
        build_register_user_tx(p, actors["admin"], actors["users"][0].public_key, time=1),
        now=1,
    )
    wrong = actors["validators"][2]
    forged = seal_block(
        p, wrong, 1, block_hash(state.chain[0]), 1, tuple(state.pending_pool)
    )
    outcome = apply_block(state, forged, runtime)
    assert not outcome.ok and "wrong_leader" in outcome.reason


def test_apply_block_rejects_bad_signature(state, p, actors, runtime):
    leader = actors["validators"][1]
    good = seal_block(p, leader, 1, block_hash(state.chain[0]), 1, ())
    tampered = Block(
        height=good.height,
        prev_hash=good.prev_hash,
        time=good.time,
        transactions=good.transactions,
        validator_pk=good.validator_pk,
        validator_sig=b"\x11" * 64,
    )
    outcome = apply_block(state, tampered, runtime)
    assert not outcome.ok and outcome.reason == "bad_block_signature"


def test_apply_block_rejects_height_and_hash_breaks(state, p, actors, runtime):
    leader = actors["validators"][1]
    skip = seal_block(p, leader, 5, block_hash(state.chain[0]), 1, ())
    assert "bad_height" in apply_block(state, skip, runtime).reason
    broken = seal_block(p, leader, 1, sha256(b"junk"), 1, ())
    assert "broken_hash_chain" in apply_block(state, broken, runtime).reason


def test_apply_block_rejects_stale_slot(state, p, actors, runtime):
    leader = actors["validators"][0]
    stale = seal_block(p, leader, 1, block_hash(state.chain[0]), 0, ())
    assert "stale_slot" in apply_block(state, stale, runtime).reason


def test_fork_choice_longest_then_tip_hash(state, p, actors, runtime):
    st = _grow_chain(state, p, actors, runtime)
    short, long_ = st.chain[:-1], st.chain
    assert fork_choice([short, long_]) is long_
    assert fork_choice([long_, short]) is long_
    # equal length: smaller tip hash wins, order independent
    a, b = st.chain, list(st.chain)
    assert fork_choice([a, b]) in (a, b)
    alt_tip = seal_block(
        p,
        next(v for v in actors["validators"] if v.public_key == slot_leader(99, st.config)),
        st.height + 1,
        st.tip_hash,
        99,
        (),
    )
    with_alt = list(st.chain) + [alt_tip]
    winner = fork_choice([with_alt, long_])
    assert winner is with_alt  # longer still wins


def test_save_load_replay_round_trip(tmp_path, state, p, actors, runtime):
    st = _grow_chain(state, p, actors, runtime)
    path = tmp_path / "chain.bin"
    save_chain(st.chain, path)
    loaded = load_chain(path)
    assert [block_hash(b) for b in loaded] == [block_hash(b) for b in st.chain]
    replayed = replay_chain(loaded, runtime)
    assert state_digest(replayed) == state_digest(st)


def test_replay_rejects_tampered_bytes(tmp_path, state, p, actors, runtime):
    st = _grow_chain(state, p, actors, runtime)
    path = tmp_path / "chain.bin"
    save_chain(st.chain, path)
    raw = bytearray(path.read_bytes())
    rng = random.Random(12)
    rejected = 0
    for _ in range(40):
        mutated = bytearray(raw)
        mutated[rng.randrange(len(mutated))] ^= 1 << rng.randrange(8)
        out = tmp_path / "mutated.bin"
        out.write_bytes(bytes(mutated))
        try:
            blocks = load_chain(out)
        except Exception:
            rejected += 1
            continue
        try:
            replay_chain(blocks, runtime)
        except ValueError:
            rejected += 1
    assert rejected == 40


def test_state_digest_excludes_pool(state, p, actors):
    before = state_digest(state)
    submit_to_pool(
        state,
        build_register_user_tx(p, actors["admin"], actors["users"][0].public_key, time=1),
        now=1,
    )
    assert state_digest(state) == before


def test_state_digest_tracks_replicated_state(seal_next, state, p, actors):
    before = state_digest(state)  # apply_block executes on the state it is given
    st = _registered(seal_next, state, p, actors, users=actors["users"][:1])
    assert state_digest(st) != before


def test_query_access_log_filters(state, p, actors, runtime):
    st = _grow_chain(state, p, actors, runtime)
    everything = query_access_log(st)
    assert everything == st.access_log
    one_user = query_access_log(st, user_pk=actors["users"][0].public_key)
    assert one_user and all(e.user_pk == actors["users"][0].public_key for e in one_user)
    decided = query_access_log(st, kind="decided")
    assert decided and all(e.kind == "decided" for e in decided)
    assert query_access_log(st, resource_id=9999) == []
    bounded = query_access_log(st, height_range=(0, 1))
    assert all(e.block_height <= 1 for e in bounded)


def _pipeline_state(seal_next, state, p, actors, runtime):
    """One request taken all the way to a live link at tick 3."""
    user = actors["users"][0]
    rid = b"\x07" * 16
    st = seal_next(
        state, p, actors, runtime, 1,
        [build_register_user_tx(p, actors["admin"], user.public_key, time=1)],
    )
    st = seal_next(
        st, p, actors, runtime, 2,
        [build_access_request_tx(p, user, RequestInfo(3, 1, rid), time=2)],
    )
    assert st.requests[rid].status == "granted"
    st = seal_next(
        st, p, actors, runtime, 3,
        [build_link_delivery_tx(p, actors["storage"], b"sealed link bytes", rid)],
    )
    assert st.requests[rid].status == "link_issued"
    return st, user, rid


def test_poll_request_read_time_expiry(seal_next, state, p, actors, runtime):
    st, user, rid = _pipeline_state(seal_next, state, p, actors, runtime)
    issued_at = st.requests[rid].link_issued_at
    fresh = poll_request(st, rid, now=issued_at + LINK_LIFETIME)
    assert fresh.status == "link_issued"
    assert fresh.link_ciphertext == b"sealed link bytes"
    stale = poll_request(st, rid, now=issued_at + LINK_LIFETIME + 1)
    assert stale.status == "expired"
    assert st.requests[rid].status == "link_issued"  # read does not mutate
    assert poll_request(st, b"no such id 1234!", now=0) is None


def test_redemption_closes_the_loop(seal_next, state, p, actors, runtime):
    st, user, rid = _pipeline_state(seal_next, state, p, actors, runtime)
    nonce = b"\x0b" * 16
    st = seal_next(
        st, p, actors, runtime, 4,
        [build_redemption_log_tx(p, actors["storage"], nonce, 4, user.public_key, rid)],
    )
    assert st.requests[rid].status == "redeemed"
    assert st.nonce_registry[nonce].redeemed
    assert st.nonce_registry[nonce].issued_at == st.requests[rid].link_issued_at
    kinds = [e.kind for e in query_access_log(st, user_pk=user.public_key)]
    assert kinds == ["requested", "authenticated", "decided", "link_issued", "redeemed"]
    # replaying the same nonce is inadmissible
    replay = build_redemption_log_tx(p, actors["storage"], nonce, 5, user.public_key, rid)
    assert validate_transaction(st, replay, now=5, provider=p) == REJECT_REPLAYED_NONCE


def test_reused_request_id_is_refused(seal_next, state, p, actors, runtime):
    """B reusing A's request id is refused at admission and in a block, and
    A's record and log are untouched; A's redemption stays A's."""
    st, a, rid = _pipeline_state(seal_next, state, p, actors, runtime)
    b = actors["users"][1]
    st = seal_next(st, p, actors, runtime, 4, [build_register_user_tx(p, actors["admin"], b.public_key, time=4)])
    record, log = st.requests[rid], list(st.access_log)
    reuse = build_access_request_tx(p, b, RequestInfo(5, 2, rid), time=5)
    assert submit_to_pool(st, reuse, now=5, provider=p) == REJECT_DUPLICATE_REQUEST

    block = seal_block(p, _leader_at(5, st.config, actors), st.height + 1, st.tip_hash, 5, (reuse,))
    outcome = apply_block(st, block, runtime, provider=p)
    assert not outcome.ok and outcome.reason.startswith(REJECT_DUPLICATE_REQUEST + ":"), outcome.reason

    # two requests under one fresh id, both pooled: the first one sealed wins
    fresh = b"\x08" * 16
    first = build_access_request_tx(p, a, RequestInfo(3, 1, fresh), time=5)
    second = build_access_request_tx(p, b, RequestInfo(5, 2, fresh), time=5)
    assert submit_to_pool(st, first, now=5, provider=p) is None
    assert submit_to_pool(st, second, now=5, provider=p) is None
    block, sealed = build_block(st, _leader_at(5, st.config, actors), 5, runtime, provider=p)
    assert sealed.skipped == [(second, REJECT_DUPLICATE_REQUEST)]
    st = sealed.state
    assert st.requests[fresh].user_pk == a.public_key
    assert st.requests[rid] == record and st.access_log[: len(log)] == log
    assert all(e.request_id == fresh for e in st.access_log[len(log):])

    st = seal_next(
        st, p, actors, runtime, 6,
        [build_redemption_log_tx(p, actors["storage"], b"\x0d" * 16, 6, a.public_key, rid)],
    )
    redeemed = query_access_log(st, kind="redeemed")
    assert [(e.request_id, e.user_pk) for e in redeemed] == [(rid, a.public_key)]
    assert st.requests[rid].status == "redeemed" and st.requests[rid].user_pk == a.public_key


def test_unlinked_redemption_rejected(seal_next, state, p, actors, runtime):
    st, user, rid = _pipeline_state(seal_next, state, p, actors, runtime)
    stranger = actors["users"][1]
    tx = build_redemption_log_tx(p, actors["storage"], b"\x0c" * 16, 4, stranger.public_key, rid)
    assert validate_transaction(st, tx, now=4, provider=p) == REJECT_UNKNOWN_REQUEST
    # a request id never seen on chain
    tx = build_redemption_log_tx(p, actors["storage"], b"\x0c" * 16, 4, user.public_key, b"\x0f" * 16)
    assert validate_transaction(st, tx, now=4, provider=p) == REJECT_UNKNOWN_REQUEST


def test_expiry_sweep_is_consensus_state(seal_next, state, p, actors, runtime):
    st, user, rid = _pipeline_state(seal_next, state, p, actors, runtime)
    issued_at = st.requests[rid].link_issued_at
    late = issued_at + LINK_LIFETIME + 50
    other = actors["users"][1]
    st = seal_next(
        st, p, actors, runtime, late,
        [build_register_user_tx(p, actors["admin"], other.public_key, time=late)],
    )
    assert st.requests[rid].status == "expired"
    late_redemption = build_redemption_log_tx(p, actors["storage"], b"\x0e" * 16, late, user.public_key, rid)
    assert validate_transaction(st, late_redemption, now=late, provider=p) == REJECT_UNKNOWN_REQUEST
    swept = query_access_log(st, kind="expired")
    assert len(swept) == 1 and swept[0].request_id == rid


def test_redemption_after_the_link_lifetime_is_refused_before_the_sweep(seal_next, state, p, actors, runtime):
    """A link issued at t=3 and never swept: a redemption stamped at the
    last second of its lifetime is admitted, one stamped 308 is refused as
    the sweep would have it refused, while ``poll_request`` reads expired."""
    st, user, rid = _pipeline_state(seal_next, state, p, actors, runtime)
    assert st.requests[rid].link_issued_at == 3 and st.requests[rid].status == "link_issued"
    assert poll_request(st, rid, now=308).status == "expired"
    late = build_redemption_log_tx(p, actors["storage"], b"\x0b" * 16, 308, user.public_key, rid)
    assert validate_transaction(st, late, now=308, provider=p) == REJECT_UNKNOWN_REQUEST
    assert submit_to_pool(st, late, now=308, provider=p) == REJECT_UNKNOWN_REQUEST
    deadline = 3 + LINK_LIFETIME
    on_time = build_redemption_log_tx(p, actors["storage"], b"\x0b" * 16, deadline, user.public_key, rid)
    assert validate_transaction(st, on_time, now=deadline, provider=p) is None
    # in a block at 308 the stamp is judged against the lifetime too
    forced = seal_block(p, _leader_at(308, st.config, actors), st.height + 1, st.tip_hash, 308, (late,))
    outcome = apply_block(st, forced, runtime, provider=p)
    assert not outcome.ok and outcome.reason.startswith(REJECT_UNKNOWN_REQUEST + ":"), outcome.reason


def test_replay_rejects_forged_genesis(config):
    drifted = Block(
        height=0,
        prev_hash=make_genesis_block(config).prev_hash,
        time=5,  # diverges from the config-derived genesis block
        transactions=(),
        validator_pk=b"",
        validator_sig=b"",
        genesis_config=config,
    )
    with pytest.raises(LedgerError):
        replay_chain([drifted])
    with pytest.raises(LedgerError):
        replay_chain([])


def test_leader_adopts_the_state_it_sealed(p, actors):
    """``build_block``'s ``outcome.state`` equals ``apply_block`` of the sealed
    block on the parent state, over a seeded run with model grants, rule
    denials, unregistered senders, link deliveries, redemptions, expiries
    and a skipped stale request."""
    rng = random.Random(11)
    runtime = ContractRuntime(zero_model(), [PriorityRule(5, None, 2, None, DENY)])
    config = GenesisConfig(
        admin_pks=(actors["admin"].public_key,),
        validators=tuple(v.public_key for v in actors["validators"]),
        storage_pk=actors["storage"].public_key,
        engine_fingerprint=runtime.fingerprint(),
    )
    leaders = {v.public_key: v for v in actors["validators"]}
    users, ghost = actors["users"][:3], actors["users"][3]
    st = genesis(config)
    pending = [build_register_user_tx(p, actors["admin"], u.public_key, time=1) for u in users]
    now, seals, skips, links = 1, 0, 0, []
    for step in range(40):
        for tx in pending:
            assert submit_to_pool(st, tx, now=now, provider=p) is None
        pending = []
        if step == 5:  # pooled fresh, stale by the time it is sealed
            stale = build_access_request_tx(p, users[0], RequestInfo(1, 0, b"\xee" * 16), time=now)
            assert submit_to_pool(st, stale, now=now, provider=p) is None
            now += FRESHNESS_WINDOW + 1
        block, outcome = build_block(st, leaders[slot_leader(now, config)], now, runtime, provider=p)
        skips += len(outcome.skipped)
        if block is not None:
            applied = apply_block(st, block, runtime, provider=p)
            assert applied.ok, applied.reason
            adopted = outcome.state
            assert state_digest(adopted) == state_digest(applied.state)
            assert adopted.access_log == applied.state.access_log
            assert adopted.pending_pool == applied.state.pending_pool
            assert adopted.pool_ids == applied.state.pool_ids
            assert outcome.results == applied.results
            st, seals = adopted, seals + 1
        for record in st.requests.values():
            if record.status == "granted":
                pending.append(build_link_delivery_tx(p, actors["storage"], rng.randbytes(24), record.request_id))
            elif record.status == "link_issued" and record.request_id not in links:
                links.append(record.request_id)
                if rng.random() < 0.5:  # redeemed; the rest expire
                    pending.append(build_redemption_log_tx(
                        p, actors["storage"], rng.randbytes(16), now + 1, record.user_pk, record.request_id
                    ))
        now += rng.choice((1, 1, 2, 90))
        for _ in range(rng.randrange(3)):
            sender = rng.choice(users + [ghost])
            info = RequestInfo(rng.randrange(4), rng.randrange(4), rng.randbytes(16))
            pending.append(build_access_request_tx(p, sender, info, time=now))
    kinds = {e.kind for e in st.access_log}
    assert kinds == set(LOG_KINDS), kinds
    assert seals >= 20 and skips >= 1


class CountingProvider(Provider):
    """A provider that counts signature verifications."""

    def __init__(self, seed):
        super().__init__(seed)
        self.verifies = 0

    def verify(self, *args):
        self.verifies += 1
        return super().verify(*args)


def _leader_at(now, config, actors):
    return next(v for v in actors["validators"] if v.public_key == slot_leader(now, config))


def test_signature_reuse_is_keyed_to_the_admitted_bytes(seal_next, state, p, actors, runtime):
    user, newcomer = actors["users"][0], actors["users"][1]
    st = _registered(seal_next, state, p, actors, users=[user])

    # (a) the fields of a pooled request under another, invalid signature
    good = build_access_request_tx(p, user, RequestInfo(3, 1, b"\x51" * 16), time=2)
    assert submit_to_pool(st, good, now=2, provider=p) is None
    forged = AccessRequestTx(user_pk=good.user_pk, time=good.time, info=good.info, user_sig=b"\x00" * 64)
    block = seal_block(p, _leader_at(2, st.config, actors), st.height + 1, st.tip_hash, 2, (forged,))
    outcome = apply_block(st, block, runtime, provider=p)
    assert not outcome.ok and outcome.reason.startswith(REJECT_BAD_SIGNATURE + ":"), outcome.reason

    # (b) sealing and applying a block of pooled transactions verifies only
    # the block signature
    assert submit_to_pool(st, build_register_user_tx(p, actors["admin"], newcomer.public_key, time=2), now=2) is None
    counter = CountingProvider(5)
    block, sealed = build_block(st, _leader_at(2, st.config, actors), 2, runtime, provider=counter)
    assert block is not None and not sealed.skipped and counter.verifies == 0
    applied = apply_block(st, block, runtime, provider=counter)
    assert applied.ok and counter.verifies == 1
    st = applied.state
    delivery = build_link_delivery_tx(p, actors["storage"], b"link", good.info.request_id)
    assert submit_to_pool(st, delivery, now=3, provider=p) is None
    block, _ = build_block(st, _leader_at(3, st.config, actors), 3, runtime, provider=p)
    counter.verifies = 0
    applied = apply_block(st, block, runtime, provider=counter)
    assert applied.ok and counter.verifies == 1

    # (c) replay has no pool: every signed transaction and every block, once
    chain = applied.state.chain
    counter.verifies = 0
    replay_chain(chain, runtime, provider=counter)
    signed = sum(tx.SIGNATURE is not None for block in chain[1:] for tx in block.transactions)
    assert signed == 4 and counter.verifies == signed + len(chain) - 1


def test_expiry_sweep_order_and_deadline(seal_next, state, p, actors, runtime):
    """Links expire in the first block later than issue time + lifetime, and
    one sweep logs them in request order whatever order they were issued in;
    a redeemed link never expires."""
    holder, redeemer = actors["users"][0], actors["users"][1]
    st = _registered(seal_next, state, p, actors, users=[holder, redeemer])
    first, second, kept = b"\x61" * 16, b"\x62" * 16, b"\x63" * 16
    st = seal_next(st, p, actors, runtime, 2, [
        build_access_request_tx(p, holder, RequestInfo(1, 0, first), time=2),
        build_access_request_tx(p, holder, RequestInfo(1, 0, second), time=2),
        build_access_request_tx(p, redeemer, RequestInfo(1, 0, kept), time=2),
    ])
    def link(rid):
        return build_link_delivery_tx(p, actors["storage"], b"link " + rid, rid)

    st = seal_next(st, p, actors, runtime, 3, [link(second), link(kept)])
    st = seal_next(st, p, actors, runtime, 4, [
        link(first),
        build_redemption_log_tx(p, actors["storage"], b"\x64" * 16, 4, redeemer.public_key, kept),
    ])
    assert st.requests[kept].status == "redeemed"

    late = 3 + LINK_LIFETIME  # the second link's deadline: not yet past it
    more = iter(actors["users"][2:])

    def register(now):  # something to seal
        return [build_register_user_tx(p, actors["admin"], next(more).public_key, time=now)]

    st = seal_next(st, p, actors, runtime, late, register(late))
    assert query_access_log(st, kind="expired") == []
    st = seal_next(st, p, actors, runtime, late + 2, register(late + 2))
    swept = query_access_log(st, kind="expired")
    assert [e.request_id for e in swept] == [first, second]
    assert {e.block_height for e in swept} == {st.height}
    assert st.requests[kept].status == "redeemed"
    assert st.requests[first].status == st.requests[second].status == "expired"


def test_redemption_names_its_request(seal_next, state, p, actors, runtime):
    """A user holding two links redeems the newer one: that request logs
    ``redeemed`` and the older one later logs ``expired``."""
    user = actors["users"][0]
    st = _registered(seal_next, state, p, actors, users=[user])
    older, newer = b"\x71" * 16, b"\x72" * 16
    st = seal_next(st, p, actors, runtime, 2, [
        build_access_request_tx(p, user, RequestInfo(1, 0, older), time=2),
        build_access_request_tx(p, user, RequestInfo(1, 0, newer), time=2),
    ])
    st = seal_next(st, p, actors, runtime, 3, [
        build_link_delivery_tx(p, actors["storage"], b"link " + rid, rid) for rid in (older, newer)
    ])
    st = seal_next(st, p, actors, runtime, 4, [
        build_redemption_log_tx(p, actors["storage"], b"\x73" * 16, 4, user.public_key, newer),
    ])
    late = 3 + LINK_LIFETIME + 1
    other = actors["users"][1]
    st = seal_next(st, p, actors, runtime, late, [build_register_user_tx(p, actors["admin"], other.public_key, time=late)])

    def kinds(rid):
        return [e.kind for e in st.access_log if e.request_id == rid]

    assert kinds(newer)[-1] == "redeemed" and st.requests[newer].status == "redeemed"
    assert kinds(older)[-1] == "expired" and st.requests[older].status == "expired"


def test_every_wire_type_but_the_contract_output_has_a_handler():
    """A new transaction type must get a ledger handler, or be the one type
    that only contract execution produces."""
    wire_types = {cls for cls, _ in _WIRE.values()}
    assert set(_HANDLERS) == wire_types - {VerifiedRequestTx}


# -- in-place execution under the undo journal -----------------------------------


def _fields(st):
    """Every field of a ledger state, in a form equal only for equal contents
    and order; ``seq``, which records don't compare, is listed beside them."""
    return {
        "chain": list(st.chain),
        "users": list(st.users.items()),
        "nonce_registry": list(st.nonce_registry.items()),
        "access_log": list(st.access_log),
        "requests": [(rid, r, r.seq) for rid, r in st.requests.items()],
        "seen_tx_ids": set(st.seen_tx_ids),
        "pending_pool": list(st.pending_pool),
        "pool_ids": set(st.pool_ids),
        "link_expiry": list(st.link_expiry),
    }


def test_in_place_apply_equals_apply_on_a_clone(p, actors):
    """At every height of a seeded run, ``apply_block`` on the state itself
    gives that state exactly what ``apply_block(state.clone(), block)``, the
    reference, gives the copy; the run seals all five transaction kinds,
    model grants, rule denials, an unregistered sender, expiries and a
    skipped stale request, so pool entries outlive their block."""
    rng = random.Random(23)
    runtime = ContractRuntime(zero_model(), [PriorityRule(5, None, 2, None, DENY)])
    config = GenesisConfig(
        admin_pks=(actors["admin"].public_key,),
        validators=tuple(v.public_key for v in actors["validators"]),
        storage_pk=actors["storage"].public_key,
        engine_fingerprint=runtime.fingerprint(),
    )
    users, ghost = actors["users"][:3], actors["users"][3]
    st = genesis(config)
    pending = [build_register_user_tx(p, actors["admin"], u.public_key, time=1) for u in users]
    now, links = 1, set()
    for step in range(40):
        for tx in pending:
            assert submit_to_pool(st, tx, now=now, provider=p) is None
        pending = []
        if step == 5:  # pooled fresh, stale by the time it is sealed
            stale = build_access_request_tx(p, users[0], RequestInfo(1, 0, b"\xef" * 16), time=now)
            assert submit_to_pool(st, stale, now=now, provider=p) is None
            now += FRESHNESS_WINDOW + 1
        block, _ = build_block(st, _leader_at(now, config, actors), now, runtime, provider=p)
        if block is not None:
            reference = apply_block(st.clone(), block, runtime, provider=p)
            applied = apply_block(st, block, runtime, provider=p)
            assert reference.ok and applied.ok, (reference.reason, applied.reason)
            assert applied.state is st
            assert state_digest(st) == state_digest(reference.state)
            assert _fields(st) == _fields(reference.state)
            assert applied.results == reference.results
        for record in st.requests.values():
            if record.status == "granted":
                pending.append(build_link_delivery_tx(p, actors["storage"], rng.randbytes(24), record.request_id))
            elif record.status == "link_issued" and record.request_id not in links:
                links.add(record.request_id)
                if rng.random() < 0.5:  # redeemed; the rest expire
                    pending.append(build_redemption_log_tx(
                        p, actors["storage"], rng.randbytes(16), now + 1, record.user_pk, record.request_id
                    ))
        now += rng.choice((1, 1, 2, 90))
        for _ in range(rng.randrange(3)):
            info = RequestInfo(rng.randrange(4), rng.randrange(4), rng.randbytes(16))
            pending.append(build_access_request_tx(p, rng.choice(users + [ghost]), info, time=now))
    assert {type(tx) for block in st.chain[1:] for tx in block.transactions} == {cls for cls, _ in _WIRE.values()}
    assert {e.kind for e in st.access_log} == set(LOG_KINDS)
    assert stale in st.pending_pool



def _rich_state(seal_next, state, p, actors, runtime):
    """A request with a live link, another granted and awaiting its link,
    and a user still to register: every kind of write has something to do."""
    st, user, rid = _pipeline_state(seal_next, state, p, actors, runtime)
    waiting = b"\x91" * 16
    st = seal_next(st, p, actors, runtime, 4, [build_access_request_tx(p, user, RequestInfo(2, 0, waiting), time=4)])
    assert st.requests[waiting].status == "granted" and st.link_expiry
    return st, user, rid, waiting


def _assert_untouched(st, before, outcome):
    assert outcome.state is None and outcome.results == []
    assert _fields(st) == before


def test_rejected_block_rolls_back_the_transactions_it_executed(seal_next, state, p, actors, runtime):
    """A forged redemption after a registration, a request, a link delivery
    and a valid redemption: the block is refused and every write of the
    four executed transactions is taken back."""
    st, user, rid, waiting = _rich_state(seal_next, state, p, actors, runtime)
    now = 5
    executed = [
        build_register_user_tx(p, actors["admin"], actors["users"][1].public_key, time=now),
        build_access_request_tx(p, user, RequestInfo(3, 1, b"\x92" * 16), time=now),
        build_link_delivery_tx(p, actors["storage"], b"second link", waiting),
        build_redemption_log_tx(p, actors["storage"], b"\x93" * 16, now, user.public_key, rid),
    ]
    for tx in executed:
        assert submit_to_pool(st, tx, now=now, provider=p) is None
    sealed, _ = build_block(st, _leader_at(now, st.config, actors), now, runtime, provider=p)
    assert len(sealed.transactions) == 5  # the request's verification record included
    valid = build_redemption_log_tx(p, actors["storage"], b"\x94" * 16, now, user.public_key, waiting)
    forged = replace(valid, storage_sig=b"\x00" * 64)
    block = seal_block(p, _leader_at(now, st.config, actors), st.height + 1, st.tip_hash, now,
                       sealed.transactions + (forged,))
    before = _fields(st)
    outcome = apply_block(st, block, runtime, provider=p)
    assert not outcome.ok and outcome.reason.startswith(REJECT_BAD_SIGNATURE + ":"), outcome.reason
    _assert_untouched(st, before, outcome)
    # the same state still takes the block without the forgery
    assert apply_block(st, sealed, runtime, provider=p).state is st
    assert st.requests[rid].status == "redeemed" and st.requests[waiting].status == "link_issued"


@pytest.mark.parametrize("field_name", ["time", "user_bits", "req_bits", "request_id"])
def test_verified_mismatch_in_one_field_rolls_back(seal_next, state, p, actors, runtime, field_name):
    st, user, rid, waiting = _rich_state(seal_next, state, p, actors, runtime)
    now = 5
    for tx in (
        build_link_delivery_tx(p, actors["storage"], b"second link", waiting),
        build_access_request_tx(p, user, RequestInfo(3, 1, b"\x95" * 16), time=now),
    ):
        assert submit_to_pool(st, tx, now=now, provider=p) is None
    sealed, _ = build_block(st, _leader_at(now, st.config, actors), now, runtime, provider=p)
    *head, verified = sealed.transactions
    assert isinstance(verified, VerifiedRequestTx)
    value = getattr(verified, field_name)
    if field_name == "time":
        value += 1
    elif field_name == "request_id":
        value = b"\x96" * 16
    else:
        value = (1 - value[0],) + value[1:]
    tampered = replace(verified, **{field_name: value})
    block = seal_block(p, _leader_at(now, st.config, actors), st.height + 1, st.tip_hash, now, (*head, tampered))
    before = _fields(st)
    outcome = apply_block(st, block, runtime, provider=p)
    assert not outcome.ok and outcome.reason.startswith("verified_mismatch:"), outcome.reason
    _assert_untouched(st, before, outcome)


class _FailingRuntime:
    """The contract runtime, except that the second ``authorize`` raises."""

    def __init__(self, runtime):
        self._runtime = runtime
        self.authorized = 0

    def fingerprint(self):
        return self._runtime.fingerprint()

    def authenticate(self, tx, state):
        return self._runtime.authenticate(tx, state)

    def authorize(self, verified, request, now):
        self.authorized += 1
        if self.authorized == 2:
            raise RuntimeError("authorize failed")
        return self._runtime.authorize(verified, request, now)


def test_exception_mid_block_rolls_back_and_propagates(seal_next, state, p, actors, runtime):
    st, user, rid, waiting = _rich_state(seal_next, state, p, actors, runtime)
    now = 5
    for tx in (
        build_link_delivery_tx(p, actors["storage"], b"second link", waiting),
        build_access_request_tx(p, user, RequestInfo(3, 1, b"\x97" * 16), time=now),
        build_access_request_tx(p, user, RequestInfo(4, 2, b"\x98" * 16), time=now),
    ):
        assert submit_to_pool(st, tx, now=now, provider=p) is None
    block, _ = build_block(st, _leader_at(now, st.config, actors), now, runtime, provider=p)
    before = _fields(st)
    failing = _FailingRuntime(runtime)
    with pytest.raises(RuntimeError, match="authorize failed"):
        apply_block(st, block, failing, provider=p)
    assert failing.authorized == 2
    assert _fields(st) == before
    assert apply_block(st, block, runtime, provider=p).state is st
