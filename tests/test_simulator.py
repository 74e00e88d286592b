"""Discrete-event network: determinism, convergence, faults, adversaries."""

import re

import pytest

from chainacl.blocks import ConfigurationError, GenesisConfig, seal_block
from chainacl.crypto import Provider
from chainacl.ledger import apply_block, genesis, slot_leader
from chainacl.network.messages import ChainReply
from chainacl.network.nodes import ValidatorCore
from chainacl.network.simulator import ADVERSARY_BEHAVIORS, NetworkConfig, World
from chainacl.scenarios import build_world
from chainacl.transactions import RequestInfo, VerifiedRequestTx, build_access_request_tx, build_register_user_tx


def _world(fixtures, **net_kw):
    return build_world(fixtures, net=NetworkConfig(**net_kw))


def _register(world, fixtures, indices):
    for i in indices:
        tx = build_register_user_tx(
            fixtures.provider, fixtures.admin, fixtures.users[i].public_key, time=world.tick
        )
        world.submit_transaction("admin", tx)


def test_network_config_validation():
    with pytest.raises(ConfigurationError):
        NetworkConfig(drop_prob=1.0)
    with pytest.raises(ConfigurationError):
        NetworkConfig(latency=0)
    with pytest.raises(ConfigurationError):
        NetworkConfig(latency=(3, 2))


def test_same_seed_reproduces_trace_and_state(fixtures):
    def run():
        world = _world(fixtures, seed=77, latency=(1, 3), drop_prob=0.1)
        _register(world, fixtures, range(5))
        world.run(15)
        return world

    a, b = run(), run()
    assert a.trace == b.trace
    ra, rb = a.report(), b.report()
    assert ra.tips == rb.tips and ra.digests == rb.digests


def test_different_seed_schedules_differently(fixtures):
    def trace_for(seed):
        world = _world(fixtures, seed=seed, latency=(1, 3))
        _register(world, fixtures, range(5))
        world.run(15)
        return world.trace

    assert trace_for(1) != trace_for(2)


def test_validators_converge_after_burst(fixtures):
    world = _world(fixtures, seed=3)
    _register(world, fixtures, range(20))
    report = world.run_until_converged(60)
    assert report.agreement and not report.timed_out
    assert report.height >= 1
    assert len(set(report.digests.values())) == 1


def test_one_result_delivery_per_sealed_block(fixtures):
    """A block deciding k > 1 requests reaches storage as one envelope, and
    storage still logs one outcome per result."""
    world = _world(fixtures, seed=10)
    _register(world, fixtures, range(6))
    world.run_until_converged(40)
    start = len(world.trace)
    for i in range(6):
        info = RequestInfo(resource_id=i % fixtures.n_resources, operation=i % 4, request_id=bytes([0xC0 + i]) * 16)
        world.submit_transaction(f"u{i}", build_access_request_tx(fixtures.provider, fixtures.users[i], info, time=world.tick))
    world.run(6)
    trace = world.trace[start:]
    chain = world.nodes["v0"].core.state.chain
    decided = {b.height: sum(isinstance(tx, VerifiedRequestTx) for tx in b.transactions) for b in chain[1:]}
    assert max(decided.values()) > 1
    seals = (re.match(r"tick=(\d+) node=(\S+) seal h=(\d+) ", line) for line in trace)
    sealed = [(m[1], m[2]) for m in seals if m and decided[int(m[3])] > 0]
    sends = (re.match(r"tick=(\d+) send src=(\S+) dst=s0 ResultDelivery ", line) for line in trace)
    sent = [(m[1], m[2]) for m in sends if m]
    assert sent == sealed and len(sent) < 6
    outcomes = [line for line in trace if "node=s0 link_minted" in line or "node=s0 result_no_link" in line]
    assert len(outcomes) == 6


def test_crashed_validator_survivors_extend(fixtures):
    world = _world(fixtures, seed=4)
    _register(world, fixtures, range(4))
    report = world.run_until_converged(40)
    assert report.agreement
    height_before = report.height
    world.crash("v2")
    _register(world, fixtures, range(4, 8))
    report = world.run_until_converged(60)
    assert report.agreement and not report.timed_out
    assert report.height > height_before
    assert set(report.tips) == {"v0", "v1"}  # crashed node not consulted
    survivors = [n.core.state for n in world.honest_validators()]
    assert all(len(s.users) == 8 for s in survivors)


def test_partition_forks_then_heals(fixtures):
    world = _world(
        fixtures, seed=5, partitions=((3, 12, frozenset({"v0"})),)
    )
    _register(world, fixtures, range(3))
    world.run(12)  # crosses the partition window
    assert any("partitioned" in line for line in world.trace)
    _register(world, fixtures, range(3, 6))  # fresh traffic forces resync
    report = world.run_until_converged(60)
    assert report.agreement and not report.timed_out
    assert all(len(n.core.state.users) == 6 for n in world.honest_validators())


def test_lossy_network_converges_via_retransmits(fixtures):
    world = _world(fixtures, seed=6, drop_prob=0.25, latency=(1, 2))
    _register(world, fixtures, range(6))
    report = world.run_until_converged(150)
    assert report.agreement and not report.timed_out
    assert any(line.endswith("TxGossip") and " drop " in line for line in world.trace) or any(
        "drop src=" in line for line in world.trace
    )


def test_unknown_adversary_behavior_rejected(fixtures):
    world = _world(fixtures, seed=7)
    with pytest.raises(ConfigurationError):
        world.inject_adversary("grand_theft")
    assert set(ADVERSARY_BEHAVIORS) == {
        "replay_link",
        "tamper_block",
        "unauthorized_request",
        "reuse_nonce",
    }


def test_unauthorized_request_is_denied_on_chain(fixtures):
    world = _world(fixtures, seed=8)
    _register(world, fixtures, range(2))
    world.run_until_converged(40)
    rid = b"\xaa" * 16
    world.inject_adversary("unauthorized_request", resource_id=1, operation=0, request_id=rid)
    world.run(8)
    record = world.poll(rid)
    assert record is not None
    assert record.status == "denied"
    assert record.deny_reason == "unregistered"
    for node in world.honest_validators():
        entries = [e for e in node.core.state.access_log if e.request_id == rid]
        assert [e.kind for e in entries] == ["requested", "denied"]
        assert entries[-1].reason == "unregistered"


def test_tampered_block_rejected_by_every_validator(fixtures):
    world = _world(fixtures, seed=9)
    _register(world, fixtures, range(2))
    world.run_until_converged(40)
    heights = {n.core.state.height for n in world.honest_validators()}
    world.inject_adversary("tamper_block")
    world.run(4)
    rejects = [line for line in world.trace if "block_reject" in line and "bad_block_signature" in line]
    for v in ("v0", "v1", "v2"):
        assert any(f"node={v} " in line for line in rejects), f"{v} accepted the forgery"
    assert {n.core.state.height for n in world.honest_validators()} == heights
    report = world.report()
    assert report.agreement


def test_adversaries_without_material_log_skips(fixtures):
    world = _world(fixtures, seed=10)
    world.run(1)
    world.inject_adversary("replay_link")
    world.inject_adversary("reuse_nonce")
    world.inject_adversary("tamper_block")
    assert any("replay_skip" in line for line in world.trace)
    assert any("reuse_skip" in line for line in world.trace)
    assert any("tamper_skip" in line for line in world.trace)


def test_direct_nonce_reuse_refused_by_storage(fixtures):
    world = _world(fixtures, seed=11)
    world.run(1)
    world.inject_adversary("reuse_nonce", link_token=b"\x01" * 16, nonce=b"\x02" * 16)
    world.run(5)
    replies = world.nodes["adv"].core.replies
    assert replies and not replies[0].ok
    assert replies[0].reason == "unknown_token"


def test_submit_transaction_autocreates_origin(fixtures):
    world = _world(fixtures, seed=12)
    tx = build_register_user_tx(
        fixtures.provider, fixtures.admin, fixtures.users[0].public_key, time=0
    )
    world.submit_transaction("walk-in", tx)
    assert "walk-in" in world.nodes
    assert world.nodes["walk-in"].role == "user"


def test_node_names_are_unique(fixtures):
    world = _world(fixtures, seed=12)
    with pytest.raises(ConfigurationError, match="already exists"):
        world.add_user("v0")
    assert world.nodes["v0"].role == "validator"


def _empty_chain(config, keys, length):
    """``length`` empty blocks on ``config``'s genesis, each sealed by its slot's leader."""
    state = genesis(config)
    by_pk = {k.public_key: k for k in keys}
    for now in range(1, length + 1):
        block = seal_block(Provider(3), by_pk[slot_leader(now, config)], now, state.tip_hash, now, ())
        state = apply_block(state, block).state
    return tuple(state.chain)


def test_validator_refuses_a_longer_chain_of_another_genesis(fixtures):
    def fresh_v0():
        return ValidatorCore(
            name="v0", keypair=fixtures.validators[0], config=fixtures.config,
            runtime=fixtures.runtime(), provider=Provider(1),
            validator_names=("v0", "v1", "v2"), storage_name="s0",
        )

    rogue = Provider(seed=66)
    attackers = [rogue.generate_keypair() for _ in range(3)]
    foreign = GenesisConfig(
        admin_pks=(attackers[0].public_key,),
        validators=tuple(k.public_key for k in attackers),
        storage_pk=attackers[1].public_key,
        engine_fingerprint=fixtures.config.engine_fingerprint,
    )
    v0 = fresh_v0()
    v0.handle(ChainReply(blocks=_empty_chain(foreign, attackers, 3)), "v1", now=4)
    assert v0.events == ["chain_reject reason=foreign_genesis"]
    assert v0.state.height == 0 and v0.state.config == fixtures.config

    # a longer chain of the node's own genesis is still adopted
    v0 = fresh_v0()
    v0.handle(ChainReply(blocks=_empty_chain(fixtures.config, fixtures.validators, 2)), "v1", now=3)
    assert v0.state.height == 2 and v0.events[-1].startswith("chain_adopt h=2")
