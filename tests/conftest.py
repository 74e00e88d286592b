import pytest

from chainacl import scenarios
from chainacl.crypto import Provider
from chainacl.ledger import apply_block, build_block, slot_leader, submit_to_pool


@pytest.fixture(scope="session")
def fixtures():
    """Trained model, keys, genesis config; built once per test session."""
    return scenarios.shared_fixtures()


@pytest.fixture()
def provider():
    return Provider(seed=7)


def _seal_next(state, p, actors, runtime, now, txs):
    for tx in txs:
        reason = submit_to_pool(state, tx, now=now, provider=p)
        assert reason is None, reason
    leader_pk = slot_leader(now, state.config)
    leader = next(v for v in actors["validators"] if v.public_key == leader_pk)
    block, outcome = build_block(state, leader, now, runtime, provider=p)
    assert block is not None, outcome.reason
    applied = apply_block(state, block, runtime, provider=p)
    assert applied.ok, applied.reason
    return applied.state


@pytest.fixture(scope="session")
def seal_next():
    """Pool ``txs``, seal the slot at ``now`` with its leader from
    ``actors["validators"]`` and apply the block; returns the new state."""
    return _seal_next
