"""Replay with signatures verified ahead of execution in forked workers.

The pool threshold and chunk size are turned down so a short chain takes
the pooled path in several chunks; every test that expects the pool checks
that an executor was built, so a silent fallback to in-line verification
fails it.
"""

import functools
import multiprocessing
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import pytest

from chainacl import ledger
from chainacl.blocks import GenesisConfig, encode_block, seal_block
from chainacl.contracts import ContractRuntime
from chainacl.crypto import Provider
from chainacl.engine import DENY, PriorityRule, zero_model
from chainacl.ledger import LedgerError, build_block, genesis, replay_chain, slot_leader, state_digest, submit_to_pool
from chainacl.transactions import (
    AccessRequestTx,
    RequestInfo,
    build_access_request_tx,
    build_link_delivery_tx,
    build_redemption_log_tx,
    build_register_user_tx,
)

P = Provider(seed=71)
ADMIN, STORAGE = P.generate_keypair(), P.generate_keypair()
VALIDATORS = [P.generate_keypair() for _ in range(3)]
USERS = [P.generate_keypair() for _ in range(3)]
RUNTIME = ContractRuntime(zero_model(), [PriorityRule(5, None, 1, None, DENY)])
CONFIG = GenesisConfig(
    admin_pks=(ADMIN.public_key,),
    validators=tuple(v.public_key for v in VALIDATORS),
    storage_pk=STORAGE.public_key,
    engine_fingerprint=RUNTIME.fingerprint(),
    genesis_time=0,
    block_interval=1,
)
BLOCKS = 14
THRESHOLD = ledger._POOL_MIN_SIGNATURES
USABLE_CPUS = ledger._usable_cpus


def _leader(now):
    return next(v for v in VALIDATORS if v.public_key == slot_leader(now, CONFIG))


@functools.cache
def _chain():
    """Registrations, granted and denied requests, link deliveries and
    redemptions: every signer the replay verifies."""
    state = genesis(CONFIG)
    pending = [build_register_user_tx(P, ADMIN, u.public_key, time=1) for u in USERS]
    for now in range(1, BLOCKS + 1):
        for tx in pending:
            assert submit_to_pool(state, tx, now, P) is None
        block, outcome = build_block(state, _leader(now), now, RUNTIME, P)
        assert block is not None, outcome.reason
        state = outcome.state
        pending = []
        for rid, record in sorted(state.requests.items()):
            if record.status == "granted":
                pending.append(build_link_delivery_tx(P, STORAGE, b"link " + rid, rid))
            elif record.status == "link_issued" and rid[0] % 2 == 0:
                pending.append(build_redemption_log_tx(P, STORAGE, b"nonce" + rid[5:], now + 1, record.user_pk, rid))
        for i, user in enumerate(USERS[:2]):
            rid = bytes([now, i]) * 8
            pending.append(build_access_request_tx(P, user, RequestInfo(now % 3, i, rid), time=now + 1))
    return tuple(state.chain)


class CountingProvider(Provider):
    """Counts the verifications made in the process that holds it."""

    def __init__(self):
        super().__init__()
        self.verifies = 0

    def verify(self, *args):
        self.verifies += 1
        return super().verify(*args)


class RecordingPool(ProcessPoolExecutor):
    """The real pool, noting its worker count and the live child processes."""

    made: list = []

    def __init__(self, max_workers, **kwargs):
        super().__init__(max_workers, **kwargs)
        self.max_workers = max_workers
        self.children_seen = 0
        RecordingPool.made.append(self)

    def submit(self, fn, *args, **kwargs):
        future = super().submit(fn, *args, **kwargs)
        self.children_seen = max(self.children_seen, len(multiprocessing.active_children()))
        return future


@pytest.fixture
def pooled(monkeypatch):
    """The pooled path for a short chain: a low threshold, small chunks and
    two usable CPUs, so one worker; returns the list of pools built. The
    pool needs a single-threaded process: wait out threads an earlier test
    left behind (a live node's connection threads end within seconds)."""
    for thread in threading.enumerate():
        if thread is not threading.main_thread():
            thread.join(timeout=10)
    assert threading.active_count() == 1, threading.enumerate()
    RecordingPool.made = []
    monkeypatch.setattr(ledger, "_POOL_MIN_SIGNATURES", 1)
    monkeypatch.setattr(ledger, "_CHUNK_SIGNATURES", 6)
    monkeypatch.setattr(ledger, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(ledger, "ProcessPoolExecutor", RecordingPool)
    return RecordingPool.made


def _per_block(chain):
    return [1 + sum(tx.SIGNATURE is not None for tx in block.transactions) for block in chain[1:]]


def _signatures(chain):
    return sum(_per_block(chain))


def _outcome(chain, provider=None):
    """The error text of a replay, or what the replayed state holds."""
    try:
        state = replay_chain(list(chain), RUNTIME, provider or Provider())
    except LedgerError as exc:
        return str(exc)
    return state_digest(state), state.access_log, [encode_block(b) for b in state.chain]


def _serial(chain, provider=None):
    """``_outcome`` with a threshold the chain falls below, so in-line."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ledger, "_POOL_MIN_SIGNATURES", _signatures(chain) + 1)
        return _outcome(chain, provider)


def test_pooled_replay_matches_serial(pooled):
    chain = _chain()
    assert _signatures(chain) < THRESHOLD  # the real threshold keeps this chain in-line
    assert len(ledger._chunk_bounds(_per_block(chain))) > 5
    provider = CountingProvider()
    pooled_result = _outcome(chain, provider)
    assert len(pooled) == 1 and pooled[0].max_workers == 1 and pooled[0].children_seen == 1
    # the worker verified at least one chunk, so this process did not verify everything
    assert provider.verifies < _signatures(chain)

    provider = CountingProvider()
    serial_result = _serial(chain, provider)
    assert len(pooled) == 1 and provider.verifies == _signatures(chain)
    assert pooled_result == serial_result


def _forged_tx_at(chain, k):
    """The chain with block ``k`` re-sealed around a request whose user
    signature is flipped; later blocks are left as they were."""
    block = chain[k]
    i = next(i for i, tx in enumerate(block.transactions) if isinstance(tx, AccessRequestTx))
    tx = block.transactions[i]
    forged = replace(tx, user_sig=bytes([tx.user_sig[0] ^ 1]) + tx.user_sig[1:])
    txs = block.transactions[:i] + (forged,) + block.transactions[i + 1 :]
    resealed = seal_block(P, _leader(block.time), block.height, block.prev_hash, block.time, txs)
    return chain[:k] + (resealed,) + chain[k + 1 :]


def _forged_block_signature_at(chain, k):
    block = chain[k]
    forged = replace(block, validator_sig=bytes([block.validator_sig[0] ^ 1]) + block.validator_sig[1:])
    return chain[:k] + (forged,) + chain[k + 1 :]


@pytest.mark.parametrize("forge", [_forged_tx_at, _forged_block_signature_at])
@pytest.mark.parametrize("k", [2, BLOCKS - 3])
def test_forgery_fails_at_the_same_height_with_the_same_error(pooled, forge, k):
    chain = forge(_chain(), k)
    pooled_error = _outcome(chain)
    serial_error = _serial(chain)
    assert len(pooled) == 1
    assert isinstance(pooled_error, str) and pooled_error == serial_error
    assert pooled_error.startswith(f"invalid_block: height {k}: ")
    assert ("bad_block_signature" if forge is _forged_block_signature_at else "bad_signature:") in pooled_error


def test_no_pool_while_another_thread_runs(pooled):
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        provider = CountingProvider()
        result = _outcome(_chain(), provider)
    finally:
        release.set()
        other.join()
    assert pooled == []
    assert provider.verifies == _signatures(_chain())
    assert result == _serial(_chain())


def test_no_pool_without_a_spare_cpu(pooled, monkeypatch):
    monkeypatch.setattr(ledger, "_usable_cpus", lambda: 1)
    _outcome(_chain())
    assert pooled == []


def test_workers_are_the_usable_cpus_but_one(pooled, monkeypatch):
    monkeypatch.setattr(ledger.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(ledger, "_usable_cpus", USABLE_CPUS)
    _outcome(_chain())
    assert len(pooled) == 1 and pooled[0].max_workers == 2
    assert 1 <= pooled[0].children_seen <= 2


def test_a_pool_that_cannot_start_replays_in_line(pooled, monkeypatch):
    class Unforkable:
        def __init__(self, *args, **kwargs):
            raise OSError("fork failed")

    monkeypatch.setattr(ledger, "ProcessPoolExecutor", Unforkable)
    provider = CountingProvider()
    assert _outcome(_chain(), provider) == _serial(_chain())
    assert provider.verifies == _signatures(_chain())


def test_a_pool_whose_worker_dies_replays_in_line(pooled, monkeypatch):
    import os

    monkeypatch.setattr(ledger, "_adopt_provider", lambda provider: os._exit(3))
    chain = _chain()
    provider = CountingProvider()
    assert _outcome(chain, provider) == _serial(chain)
    assert len(pooled) == 1 and provider.verifies == _signatures(chain)
