"""Acceptance gate: ten end-to-end criteria, one verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines;
each test also fails loudly on its own.
"""

import random
import time as wallclock

import numpy as np
import pytest

from chainacl.blocks import decode_block, encode_block
from chainacl.contracts import encrypt_request_result
from chainacl.crypto import Provider, sha256
from chainacl.engine import (
    SyntheticPolicy,
    TrainConfig,
    generate_dataset,
    init_model,
    loss_and_gradient,
    model_to_bytes,
    train,
)
from chainacl.ledger import (
    LedgerError,
    apply_block,
    build_block,
    genesis,
    poll_request,
    replay_chain,
    slot_leader,
    state_digest,
    submit_to_pool,
)
from chainacl.network.simulator import NetworkConfig
from chainacl.scenarios import (
    FIXTURE_SEED,
    SCENARIO_NAMES,
    build_world,
    run_matrix,
    run_scenario,
    run_suite,
    standard_scenario,
)
from chainacl.storage import StorageService, RedeemError, open_link_ciphertext
from chainacl.transactions import (
    RequestInfo,
    build_access_request_tx,
    build_redemption_log_tx,
    build_register_user_tx,
    encode_transaction,
)


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"\nC{num:02d} {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- shared direct-ledger helpers ------------------------------------------------


def _leader_keypair(fixtures, config, now):
    pk = slot_leader(now, config)
    return next(v for v in fixtures.validators if v.public_key == pk)


def _seal(fixtures, state, runtime, now, provider):
    leader = _leader_keypair(fixtures, state.config, now)
    block, outcome = build_block(state, leader, now, runtime, provider)
    assert block is not None, f"nothing sealed: {outcome.reason}"
    outcome = apply_block(state, block, runtime, provider)
    assert outcome.ok, outcome.reason
    return outcome


@pytest.fixture(scope="module")
def pipeline(fixtures):
    """A small chain that exercises all five transaction kinds."""
    p = Provider(777)
    runtime = fixtures.runtime()
    state = genesis(fixtures.config)
    storage = StorageService(
        keypair=fixtures.storage, validators=fixtures.config.validators, seed=777
    )
    u, r, op = fixtures.pairs["model_allows"]
    storage.put_resource(r, fixtures.payload(r))

    now = 1
    for i in (u, (u + 1) % len(fixtures.users)):
        tx = build_register_user_tx(p, fixtures.admin, fixtures.users[i].public_key, time=now)
        assert submit_to_pool(state, tx, now, p) is None
    outcome = _seal(fixtures, state, runtime, now, p)
    state = outcome.state

    now = 2
    rid = sha256(b"acceptance/pipeline")[:16]
    tx = build_access_request_tx(p, fixtures.users[u], RequestInfo(r, op, rid), time=now)
    assert submit_to_pool(state, tx, now, p) is None
    outcome = _seal(fixtures, state, runtime, now, p)
    state = outcome.state
    result = next(res for res in outcome.results if res.request_id == rid)
    assert result.granted

    now = 3
    sealer = _leader_keypair(fixtures, state.config, 2)
    envelope = encrypt_request_result(p, result, fixtures.config.storage_pk, sealer)
    link_tx = storage.handle_request_result(envelope, now)
    assert link_tx is not None
    assert submit_to_pool(state, link_tx, now, p) is None
    outcome = _seal(fixtures, state, runtime, now, p)
    state = outcome.state

    record = poll_request(state, rid, now)
    assert record.status == "link_issued"
    grant = open_link_ciphertext(p, fixtures.users[u], record.link_ciphertext)

    now = 4
    payload, red_tx = storage.redeem(grant.link_token, grant.nonce, op, now)
    assert payload == fixtures.payload(r)
    assert submit_to_pool(state, red_tx, now, p) is None
    outcome = _seal(fixtures, state, runtime, now, p)
    state = outcome.state
    assert poll_request(state, rid, now).status == "redeemed"

    return {
        "state": state,
        "runtime": runtime,
        "provider": p,
        "grant": grant,
        "red_tx": red_tx,
        "user": fixtures.users[u],
        "operation": op,
    }


# -- criteria ---------------------------------------------------------------------


def test_c01_scenario_reproduction(fixtures):
    """Scenarios 1-4 end with their stated outcomes, under ten seconds total."""
    outcomes = {}
    t0 = wallclock.perf_counter()
    for name in ("1", "2", "3", "4"):
        report = run_scenario(standard_scenario(name, fixtures, base_seed=0), fixtures)
        outcomes[name] = report.passed
    elapsed = wallclock.perf_counter() - t0
    ok = all(outcomes.values()) and elapsed < 10.0
    _verdict(
        1,
        ok,
        f"scenarios 1-4 outcomes {outcomes} in {elapsed:.2f}s (budget 10s)",
    )


def test_c02_hundred_users(fixtures):
    """100 registered users all authenticate; an unregistered 101st is denied."""
    p = Provider(101)
    runtime = fixtures.runtime()
    state = genesis(fixtures.config)

    now = 1
    for user in fixtures.users:
        tx = build_register_user_tx(p, fixtures.admin, user.public_key, time=now)
        assert submit_to_pool(state, tx, now, p) is None
    state = _seal(fixtures, state, runtime, now, p).state
    registered = len(state.users)

    now = 2
    rids = []
    for i, user in enumerate(fixtures.users):
        rid = sha256(f"c2/{i}".encode())[:16]
        rids.append(rid)
        info = RequestInfo(i % fixtures.n_resources, i % 4, rid)
        tx = build_access_request_tx(p, user, info, time=now)
        assert submit_to_pool(state, tx, now, p) is None
    state = _seal(fixtures, state, runtime, now, p).state

    authed = {
        e.request_id for e in state.access_log if e.kind == "authenticated"
    }
    all_authenticated = all(rid in authed for rid in rids)

    now = 3
    intruder = p.generate_keypair(seed=sha256(b"c2/intruder"))
    rid = sha256(b"c2/rid/intruder")[:16]
    tx = build_access_request_tx(p, intruder, RequestInfo(0, 0, rid), time=now)
    assert submit_to_pool(state, tx, now, p) is None
    state = _seal(fixtures, state, runtime, now, p).state
    record = poll_request(state, rid, now)
    intruder_denied = record.status == "denied" and record.deny_reason == "unregistered"

    ok = registered == 100 and all_authenticated and intruder_denied
    _verdict(
        2,
        ok,
        f"registered={registered}/100 authenticated={len(authed & set(rids))}/100 "
        f"intruder={record.status}({record.deny_reason})",
    )


def test_c03_replay_resistance(fixtures, pipeline):
    """No ordering of replay attempts ever yields a second redemption."""
    rng = random.Random(20240819)
    p = Provider(333)
    storage = StorageService(
        keypair=fixtures.storage, validators=fixtures.config.validators, seed=333
    )
    u, r, op = fixtures.pairs["model_allows"]
    storage.put_resource(r, fixtures.payload(r))
    user = fixtures.users[u]
    sealer = fixtures.validators[0]

    orderings = 0
    second_successes = 0
    from chainacl.contracts import RequestResult

    for trial in range(1000):
        rid = sha256(f"c3/{trial}".encode())[:16]
        now = 10 + trial
        result = RequestResult(
            request_id=rid,
            user_pk=user.public_key,
            resource_id=r,
            operation=op,
            access_list=(True,) * 4,
            granted=True,
            time=now,
        )
        envelope = encrypt_request_result(p, result, fixtures.config.storage_pk, sealer)
        link_tx = storage.handle_request_result(envelope, now)
        grant = open_link_ciphertext(p, user, link_tx.ciphertext)

        deck = [
            ("legit", grant.link_token, grant.nonce),
            ("replay", grant.link_token, grant.nonce),
            ("forged_token", rng.randbytes(16), grant.nonce),
            ("forged_nonce", grant.link_token, rng.randbytes(16)),
        ]
        rng.shuffle(deck)
        orderings += 1
        successes = 0
        for _, token, nonce in deck:
            try:
                payload, _ = storage.redeem(token, nonce, op, now)
            except RedeemError:
                continue
            assert payload == fixtures.payload(r)
            successes += 1
        if successes > 1:
            second_successes += successes - 1
        assert successes == 1, "link was never redeemable or redeemed twice"

    # replaying the on-chain redemption record is also refused
    state = pipeline["state"]
    now = state.chain[-1].time + 1
    exact = submit_to_pool(state, pipeline["red_tx"], now, pipeline["provider"])
    fresh = build_redemption_log_tx(
        pipeline["provider"],
        fixtures.storage,
        pipeline["grant"].nonce,
        now,
        pipeline["user"].public_key,
        pipeline["red_tx"].request_id,
    )
    crafted = submit_to_pool(state, fresh, now, pipeline["provider"])
    onchain_ok = exact == "duplicate" and crafted == "replayed_nonce"

    ok = second_successes == 0 and onchain_ok
    _verdict(
        3,
        ok,
        f"{orderings} randomized orderings, second redemptions={second_successes}, "
        f"on-chain replays rejected ({exact}, {crafted})",
    )


def test_c04_tamper_evidence(fixtures, pipeline):
    """Any single-byte change to any historical block is rejected everywhere."""
    rng = random.Random(404)
    chain = pipeline["state"].chain
    encoded = [encode_block(b) for b in chain]
    replicas = 3
    mutations = 210
    undetected = 0

    for _ in range(mutations):
        bi = rng.randrange(len(chain))
        raw = bytearray(encoded[bi])
        pos = rng.randrange(len(raw))
        raw[pos] ^= rng.randrange(1, 256)
        try:
            mutated = decode_block(bytes(raw))
        except Exception:
            continue  # unparseable on every replica: rejected
        blocks = list(chain)
        blocks[bi] = mutated
        for _replica in range(replicas):
            try:
                replay_chain(blocks, pipeline["runtime"], pipeline["provider"])
            except LedgerError:
                continue
            undetected += 1

    ok = undetected == 0
    _verdict(
        4,
        ok,
        f"{mutations} single-byte mutations x {replicas} replicas, "
        f"undetected={undetected}",
    )


def _consensus_run(fixtures, seed):
    world = build_world(fixtures, NetworkConfig(seed=seed))
    submitted = 0

    def push(tx):
        nonlocal submitted
        world.submit_transaction(f"u{submitted % 10}", tx)
        submitted += 1
        if submitted % 20 == 0:
            world.run(1)

    for user in fixtures.users:
        push(
            build_register_user_tx(
                fixtures.provider, fixtures.admin, user.public_key, time=world.tick
            )
        )
    for i in range(400):
        user = fixtures.users[i % len(fixtures.users)]
        rid = sha256(f"c5/{seed}/{i}".encode())[:16]
        info = RequestInfo((i * 7) % fixtures.n_resources, i % 4, rid)
        push(build_access_request_tx(fixtures.provider, user, info, time=world.tick))

    report = world.run_until_converged(max_ticks=3000)
    return world, report, submitted


def test_c05_consensus_agreement(fixtures):
    """500 transactions, identical tips and digests; survivors outlive a crash."""
    world1, report1, submitted = _consensus_run(fixtures, seed=9)
    world2, report2, _ = _consensus_run(fixtures, seed=9)

    agree = report1.agreement and len(set(report1.tips.values())) == 1
    digests_agree = len(set(report1.digests.values())) == 1
    deterministic = (
        report1.tips == report2.tips and report1.digests == report2.digests
    )

    height_before = world2.nodes["v0"].core.state.height
    world2.crash("v2")
    for i in range(30):
        user = fixtures.users[i]
        rid = sha256(f"c5/crash/{i}".encode())[:16]
        info = RequestInfo(i % fixtures.n_resources, i % 4, rid)
        world2.submit_transaction(
            "u0",
            build_access_request_tx(fixtures.provider, user, info, time=world2.tick),
        )
    world2.run(300)
    v0 = world2.nodes["v0"].core
    v1 = world2.nodes["v1"].core
    survivors_extended = (
        v0.state.height > height_before
        and v0.state.height == v1.state.height
        and v0.tip() == v1.tip()
    )

    ok = agree and digests_agree and deterministic and survivors_extended
    _verdict(
        5,
        ok,
        f"{submitted} txs, tips_agree={agree} digests_agree={digests_agree} "
        f"deterministic={deterministic} survivors_extended={survivors_extended} "
        f"(height {height_before}->{v0.state.height})",
    )


def test_c06_decision_engine_accuracy():
    """Train on the 100x50 synthetic policy; held-out accuracy >= 0.95."""
    policy = SyntheticPolicy(seed=FIXTURE_SEED)
    dataset = generate_dataset(policy, 100, 50)
    t0 = wallclock.perf_counter()
    report = train(
        init_model(seed=FIXTURE_SEED), dataset, TrainConfig(seed=FIXTURE_SEED)
    )
    elapsed = wallclock.perf_counter() - t0
    achieved = report.final_holdout_accuracy
    ok = achieved >= 0.95 and elapsed < 60.0
    _verdict(
        6,
        ok,
        f"holdout accuracy {achieved:.4f} (threshold 0.95) in {elapsed:.1f}s (budget 60s)",
    )


def test_c07_gradient_check():
    """Analytic gradients match central differences on 20 random small models."""
    eps = 1e-5
    dims = (6, 5, 4, 3)
    worst = 0.0
    trials = candidate = 0
    while trials < 20:
        rng = np.random.default_rng(5000 + candidate)
        model = init_model(dims, seed=6000 + candidate)
        x = rng.random((8, dims[0]))
        y = (rng.random((8, dims[-1])) > 0.5).astype(np.float64)
        candidate += 1

        from chainacl.engine.model import _forward_internals

        pre, _ = _forward_internals(model, x)
        if not all(np.min(np.abs(z)) > 1e-3 for z in pre[:-1]):
            continue  # finite differences may not straddle a relu kink
        trials += 1

        _, grads = loss_and_gradient(model, x, y)
        analytic = np.concatenate(
            [dw.ravel() for dw, _ in grads] + [db for _, db in grads]
        )
        theta = np.concatenate(
            [w.ravel() for w in model.weights] + [b for b in model.biases]
        )
        numeric = np.empty_like(theta)
        probe = model.copy()

        def assign(flat):
            pos = 0
            for w in probe.weights:
                w[...] = flat[pos : pos + w.size].reshape(w.shape)
                pos += w.size
            for b in probe.biases:
                b[...] = flat[pos : pos + b.size]
                pos += b.size

        for i in range(len(theta)):
            bumped = theta.copy()
            bumped[i] += eps
            assign(bumped)
            up, _ = loss_and_gradient(probe, x, y)
            bumped[i] -= 2 * eps
            assign(bumped)
            down, _ = loss_and_gradient(probe, x, y)
            numeric[i] = (up - down) / (2 * eps)
        rel = np.abs(analytic - numeric) / np.maximum(
            np.abs(analytic) + np.abs(numeric), 1e-8
        )
        worst = max(worst, float(rel.max()))

    ok = trials == 20 and worst < 1e-4
    _verdict(7, ok, f"{trials} models, max relative error {worst:.2e} (bound 1e-4)")


def test_c08_model_file_size(fixtures):
    size = len(model_to_bytes(fixtures.model))
    ok = size <= 1 << 20
    _verdict(8, ok, f"default model serializes to {size} bytes (cap 1 MiB)")


def test_c09_truth_table(fixtures):
    report = run_matrix(fixtures, base_seed=0)
    rows = len(report.rows)
    failed = [row.line() for row in report.rows if not row.ok]
    ok = report.passed and rows == 12 and not failed
    _verdict(9, ok, f"{rows}/12 combinations correct" + (f"; failed: {failed}" if failed else ""))


def test_c10_suite_determinism(fixtures):
    first = run_suite(fixtures, base_seed=0).text(with_traces=True)
    second = run_suite(fixtures, base_seed=0).text(with_traces=True)
    ok = first == second and len(first) > 0
    _verdict(
        10,
        ok,
        f"two suite runs over {len(SCENARIO_NAMES)} scenarios: "
        + ("byte-identical traces" if ok else "traces differ"),
    )
