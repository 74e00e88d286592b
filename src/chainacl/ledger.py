"""Chain state machine: the replicated key-value memory behind access control.

State is only ever derived by replaying blocks from genesis, so every
replica that applies the same blocks holds bit-identical state. Leadership
rotates round-robin over time slots (slot = time // block_interval); a
block is valid only if its slot is later than its parent's and it is
signed by that slot's validator. Binding leadership to slots rather than
heights keeps the rotation live when a validator stops sealing.

Contract execution is injected through a small hook object so this module
stays free of model/rule logic; the hooks must be deterministic, which the
genesis engine fingerprint pins down across replicas.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Collection, Container, Iterable, Iterator, NamedTuple, Protocol, Sequence

from .blocks import (
    Block,
    ConfigurationError,
    GenesisConfig,
    block_hash,
    block_signature_check,
    make_genesis_block,
    seal_block,
    verify_block_signature,
)
from .codec import Reader, Writer
from .crypto import KeyPair, Provider, sha256
from .transactions import (
    AccessRequestTx,
    LinkDeliveryTx,
    RedemptionLogTx,
    RegisterUserTx,
    Transaction,
    USER_BITS_WIDTH,
    VerifiedRequestTx,
    transaction_signature_check,
    tx_id,
    verify_transaction_signature,
)

FRESHNESS_WINDOW = 120  # seconds; max |tx.time - now|
LINK_LIFETIME = 300  # seconds from issuance to link/nonce expiry

LOG_KINDS = (
    "requested",
    "authenticated",
    "decided",
    "link_issued",
    "redeemed",
    "denied",
    "expired",
)

# validate_transaction reject reasons
REJECT_BAD_SIGNATURE = "bad_signature"
REJECT_STALE_TIME = "stale_time"
REJECT_UNAUTHORIZED = "unauthorized_sender"
REJECT_DUPLICATE = "duplicate"
REJECT_DUPLICATE_USER = "duplicate_user"
REJECT_DUPLICATE_REQUEST = "duplicate_request"
REJECT_UNKNOWN_REQUEST = "unknown_request"
REJECT_REPLAYED_NONCE = "replayed_nonce"
REJECT_INTERNAL_ONLY = "internal_only"
REJECT_USER_LIMIT = "user_limit"

# A user's index is its registration order, and the contracts encode it in
# USER_BITS_WIDTH bits, so the chain registers at most this many users.
MAX_USERS = 1 << USER_BITS_WIDTH

_VERIFIER = Provider()


class LedgerError(ValueError):
    """Invalid ledger operation; carries a short machine-readable reason."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


class LogEntry(NamedTuple):
    """One audit event. The log is append-only and replay-reproducible."""

    kind: str
    user_pk: bytes
    resource_id: int | None
    operation: int | None
    decision: str  # "granted" | "denied" | ""
    block_height: int
    time: int
    request_id: bytes = b""
    reason: str = ""

    def encode_into(self, w: Writer) -> None:
        w.string(self.kind)
        w.bytes_(self.user_pk)
        w.boolean(self.resource_id is not None)
        w.u32(self.resource_id or 0)
        w.boolean(self.operation is not None)
        w.u8(self.operation or 0)
        w.string(self.decision)
        w.u64(self.block_height)
        w.u64(self.time)
        w.bytes_(self.request_id)
        w.string(self.reason)


class UserRecord(NamedTuple):
    user_index: int
    registered_at: int


class NonceRecord(NamedTuple):
    issued_at: int
    redeemed: bool
    redeemed_at: int | None = None


class RequestRecord(NamedTuple):
    """Lifecycle of one access request, keyed by request_id."""

    request_id: bytes
    user_pk: bytes
    resource_id: int
    operation: int
    submitted_at: int
    status: str = "pending"  # pending|denied|granted|link_issued|redeemed|expired
    deny_reason: str = ""
    access_list: tuple[bool, ...] | None = None
    overridden: tuple[bool, ...] | None = None
    link_issued_at: int | None = None
    link_ciphertext: bytes = b""
    redeemed_at: int | None = None
    # position of the request in execution order; orders the expiries of one
    # sweep as the request map does. Not encoded: it is derived from the
    # chain, so every replica holds the same value and ``==`` may compare it.
    seq: int = 0

    def encode_into(self, w: Writer) -> None:
        w.bytes_(self.request_id)
        w.bytes_(self.user_pk)
        w.u32(self.resource_id)
        w.u8(self.operation)
        w.u64(self.submitted_at)
        w.string(self.status)
        w.string(self.deny_reason)
        w.boolean(self.access_list is not None)
        for b in self.access_list or ():
            w.boolean(b)
        w.boolean(self.link_issued_at is not None)
        w.u64(self.link_issued_at or 0)
        w.bytes_(self.link_ciphertext)
        w.boolean(self.redeemed_at is not None)
        w.u64(self.redeemed_at or 0)


class ContractHooks(Protocol):
    """Deterministic contract layer invoked during block execution."""

    def fingerprint(self) -> bytes: ...

    def prepare_block(self, state: "LedgerState", txs: Collection[Transaction]) -> None:
        """Called once per executed block, before its first transaction,
        with the pre-block state; may decide ahead what ``authorize`` will
        ask, and must not change what it returns."""

    def authenticate(self, tx: AccessRequestTx, state: "LedgerState") -> tuple[VerifiedRequestTx | None, str | None]: ...

    def authorize(self, verified: VerifiedRequestTx, request: AccessRequestTx, now: int): ...


class LedgerState:
    """Replayed view of the chain plus the node-local pending pool.

    Everything except ``pending_pool`` is consensus state and feeds
    ``state_digest``; ``link_expiry`` is an index derived from
    ``requests``. The pool maps each admitted transaction's id to it, in
    admission order; its keys double as the ids whose signatures this node
    checked on admission, which block execution need not check again.
    ``apply_block`` writes the consensus state in place, each write through
    an undo journal that takes a failed block back out. Values inside the
    maps and the log are named tuples, immutable, that writes replace
    (``_replace``), never edit, so ``clone``, which ``build_block``
    executes on, is a set of shallow copies.
    """

    def __init__(self, config: GenesisConfig):
        genesis = make_genesis_block(config)
        self.config = config
        self.chain: list[Block] = [genesis]
        self.users: dict[bytes, UserRecord] = {}
        self.nonce_registry: dict[bytes, NonceRecord] = {}
        self.access_log: list[LogEntry] = []
        self.requests: dict[bytes, RequestRecord] = {}
        self.seen_tx_ids: set[bytes] = set()
        self.pending_pool: dict[bytes, Transaction] = {}  # tx_id -> tx
        # heap of (deadline, request seq, request_id), one per issued link
        self.link_expiry: list[tuple[int, int, bytes]] = []

    # -- views ------------------------------------------------------------

    @property
    def validators(self) -> tuple[bytes, ...]:
        return self.config.validators

    @property
    def admin_pks(self) -> tuple[bytes, ...]:
        return self.config.admin_pks

    @property
    def storage_pk(self) -> bytes:
        return self.config.storage_pk

    @property
    def height(self) -> int:
        return self.chain[-1].height

    @property
    def tip_hash(self) -> bytes:
        return block_hash(self.chain[-1])

    def user_record(self, user_pk: bytes) -> UserRecord | None:
        return self.users.get(sha256(user_pk))

    def clone(self) -> "LedgerState":
        st = LedgerState.__new__(LedgerState)
        st.config = self.config
        st.chain = list(self.chain)
        st.users = dict(self.users)
        st.nonce_registry = dict(self.nonce_registry)
        st.access_log = list(self.access_log)
        st.requests = dict(self.requests)
        st.seen_tx_ids = set(self.seen_tx_ids)
        st.pending_pool = dict(self.pending_pool)
        st.link_expiry = list(self.link_expiry)
        return st


def user_key(tx: RegisterUserTx | AccessRequestTx) -> bytes:
    """The ``users`` key of the user ``tx`` names, the hash of its public
    key, computed once per transaction however often execution asks."""
    return tx.memo("_memo_user_key", _hash_user_pk)


def _hash_user_pk(tx: RegisterUserTx | AccessRequestTx) -> bytes:
    return sha256(tx.user_pk)


def genesis(config: GenesisConfig) -> LedgerState:
    """Fresh state whose chain holds only the derived genesis block."""
    return LedgerState(config)


def expected_leader(index: int, validators: Sequence[bytes]) -> bytes:
    """Round-robin rotation: validators[index mod v]."""
    if not validators:
        raise ConfigurationError("validators must not be empty")
    return validators[index % len(validators)]


def slot_of(time: int, config: GenesisConfig) -> int:
    return time // config.block_interval


def slot_leader(time: int, config: GenesisConfig) -> bytes:
    return expected_leader(slot_of(time, config), config.validators)


# -- transaction admission -----------------------------------------------------


def _fresh(tx_time: int, now: int) -> bool:
    return abs(tx_time - now) <= FRESHNESS_WINDOW


def link_deadline(issued_at: int) -> int:
    """The last second at which a link issued at ``issued_at`` is redeemable;
    the chain and the storage node both hold links to it."""
    return issued_at + LINK_LIFETIME


def validate_transaction(
    state: LedgerState,
    tx: Transaction,
    now: int,
    provider: Provider = _VERIFIER,
    verified: Container[bytes] = (),
) -> str | None:
    """None when admissible against the chain history of ``state``, else a
    reject reason; the pool is not consulted (``submit_to_pool`` does that).

    ``verified`` holds the ids whose signatures this node has already
    checked; a transaction among them keeps that check. Its ``tx_id``
    covers every field and the signature, so the bytes are the ones
    verified then, against the same genesis keys.
    """
    txid = tx_id(tx)
    if txid in state.seen_tx_ids:
        return REJECT_DUPLICATE
    handler = _HANDLERS.get(type(tx))
    if handler is None:
        return REJECT_INTERNAL_ONLY  # contract output; never admitted from the network
    if isinstance(tx, RegisterUserTx) and tx.admin_pk not in state.admin_pks:
        return REJECT_UNAUTHORIZED  # refused before its signature is checked
    if txid not in verified and not verify_transaction_signature(provider, tx, storage_pk=state.storage_pk):
        return REJECT_BAD_SIGNATURE
    return handler.check(state, tx, now)


def _check_register(state: LedgerState, tx: RegisterUserTx, now: int) -> str | None:
    if not _fresh(tx.time, now):
        return REJECT_STALE_TIME
    if user_key(tx) in state.users:
        return REJECT_DUPLICATE_USER
    return REJECT_USER_LIMIT if len(state.users) >= MAX_USERS else None


def _check_access_request(state: LedgerState, tx: AccessRequestTx, now: int) -> str | None:
    """A request id names one request for good, so a reused one is refused
    rather than overwrite that request's record. Registration is
    deliberately not checked: the authentication contract decides that and
    logs the denial."""
    if not _fresh(tx.time, now):
        return REJECT_STALE_TIME
    return REJECT_DUPLICATE_REQUEST if tx.info.request_id in state.requests else None


def _check_link_delivery(state: LedgerState, tx: LinkDeliveryTx, now: int) -> str | None:
    record = state.requests.get(tx.request_id)
    if record is None or record.status == "pending":
        return REJECT_UNKNOWN_REQUEST
    if record.status != "granted":
        return REJECT_DUPLICATE if record.status in ("link_issued", "redeemed") else REJECT_UNKNOWN_REQUEST
    return None


def _check_redemption(state: LedgerState, tx: RedemptionLogTx, now: int) -> str | None:
    """The nonce is checked first, so a replayed record reads as a replay
    whatever became of its request; then the named request must be a
    ``link_issued`` request of the redeeming user, redeemed within its
    link's lifetime. An overdue link is refused as the sweep that will
    expire it would have it refused."""
    if not _fresh(tx.time, now):
        return REJECT_STALE_TIME
    existing = state.nonce_registry.get(tx.nonce)
    if existing is not None and existing.redeemed:
        return REJECT_REPLAYED_NONCE
    record = state.requests.get(tx.request_id)
    if (
        record is None
        or record.status != "link_issued"
        or record.user_pk != tx.user_pk
        or tx.time > link_deadline(record.link_issued_at)
    ):
        return REJECT_UNKNOWN_REQUEST
    return None


# -- pool ----------------------------------------------------------------------


def submit_to_pool(state: LedgerState, tx: Transaction, now: int, provider: Provider = _VERIFIER) -> str | None:
    """Admit into the local pending pool; returns reject reason or None.
    A transaction already pooled is a duplicate, as one already on chain."""
    txid = tx_id(tx)
    reason = REJECT_DUPLICATE if txid in state.pending_pool else validate_transaction(state, tx, now, provider)
    if reason is None:
        state.pending_pool[txid] = tx
    return reason


# -- block execution -----------------------------------------------------------


@dataclass
class ApplyOutcome:
    ok: bool
    reason: str = ""
    state: LedgerState | None = None
    results: list = field(default_factory=list)  # contract outputs, block order
    skipped: list[tuple[Transaction, str]] = field(default_factory=list)


_ABSENT = object()


class _Journal:
    """Undo entries for one block's writes to consensus state.

    Block execution writes ``users``, ``nonce_registry``, ``requests``,
    ``access_log``, ``seen_tx_ids`` and ``link_expiry`` only through these
    methods, each of which records how to take its write back.
    ``rollback`` undoes them newest first, which restores every container
    to exactly what it held before the first write.
    """

    def __init__(self):
        self._undo: list[tuple] = []  # (callable, *args)
        self._saved_heaps: set[int] = set()

    def put(self, table: dict, key, value) -> None:
        old = table.get(key, _ABSENT)
        self._undo.append((table.pop, key) if old is _ABSENT else (table.__setitem__, key, old))
        table[key] = value

    def append(self, items: list, item) -> None:
        self._undo.append((items.pop,))
        items.append(item)

    def add(self, members: set, member) -> None:
        if member not in members:
            self._undo.append((members.discard, member))
            members.add(member)

    def heappush(self, heap: list, item) -> None:
        self._save_heap(heap)
        heapq.heappush(heap, item)

    def heappop(self, heap: list):
        self._save_heap(heap)
        return heapq.heappop(heap)

    def _save_heap(self, heap: list) -> None:
        # a heap write moves other entries, so its undo entry is the whole
        # heap as the block found it: the links of one lifetime, not history
        if id(heap) not in self._saved_heaps:
            self._saved_heaps.add(id(heap))
            self._undo.append((heap.__setitem__, slice(None), list(heap)))

    def rollback(self) -> None:
        for undo, *args in reversed(self._undo):
            undo(*args)


def _log(
    state: LedgerState,
    journal: _Journal,
    record: RequestRecord,
    kind: str,
    height: int,
    time: int,
    decision: str = "",
    reason: str = "",
) -> None:
    """Append one audit entry about ``record``'s request; the one place
    block execution builds a ``LogEntry``, so the one check of its kind."""
    if kind not in LOG_KINDS:
        raise LedgerError("bad_log_kind", kind)
    journal.append(state.access_log, LogEntry(
        kind=kind,
        user_pk=record.user_pk,
        resource_id=record.resource_id,
        operation=record.operation,
        decision=decision,
        block_height=height,
        time=time,
        request_id=record.request_id,
        reason=reason,
    ))


def _sweep_expired(state: LedgerState, journal: _Journal, height: int, now: int) -> None:
    """Expire every issued link whose lifetime ended before ``now``, logging
    them in request order. A request gets at most one link, so an index
    entry whose link was since redeemed is dropped as it comes due."""
    due: dict[int, RequestRecord] = {}
    heap = state.link_expiry
    while heap and heap[0][0] < now:
        _, seq, rid = journal.heappop(heap)
        record = state.requests[rid]
        if record.status == "link_issued":
            due[seq] = record
    for seq in sorted(due):
        record = due[seq]
        journal.put(state.requests, record.request_id, record._replace(status="expired"))
        _log(state, journal, record, "expired", height, now, "denied", "link_lifetime_elapsed")


# Executors share one signature: (state, journal, outcome, tx, runtime,
# height, now). Each applies one admitted transaction, writing through the
# journal; only an access request returns anything, the verification
# transaction derived from it.


def _execute_register(
    state: LedgerState, journal: _Journal, outcome: ApplyOutcome, tx: RegisterUserTx, runtime, height: int, now: int
) -> None:
    journal.put(state.users, user_key(tx), UserRecord(user_index=len(state.users), registered_at=tx.time))


def _execute_access_request(
    state: LedgerState,
    journal: _Journal,
    outcome: ApplyOutcome,
    tx: AccessRequestTx,
    runtime: ContractHooks,
    height: int,
    now: int,
) -> VerifiedRequestTx | None:
    """Runs the contract pipeline for one admitted request and writes its
    record once, in its final state; the contracts read no request record.

    Returns the derived verification transaction when authentication
    passed (the block must carry it immediately after the request).
    """
    verified, failure = runtime.authenticate(tx, state)
    result = None
    if verified is None:
        status, deny_reason, access_list, overridden = "denied", failure or "unspecified", None, None
    else:
        result = runtime.authorize(verified, tx, now)
        outcome.results.append(result)
        status = "granted" if result.granted else "denied"
        deny_reason = "" if result.granted else "policy"
        access_list, overridden = tuple(result.access_list), tuple(result.overridden)
    record = RequestRecord(
        request_id=tx.info.request_id,
        user_pk=tx.user_pk,
        resource_id=tx.info.resource_id,
        operation=tx.info.operation,
        submitted_at=tx.time,
        status=status,
        deny_reason=deny_reason,
        access_list=access_list,
        overridden=overridden,
        seq=len(state.requests),
    )
    journal.put(state.requests, record.request_id, record)
    _log(state, journal, record, "requested", height, tx.time)
    if result is None:
        _log(state, journal, record, "denied", height, now, "denied", deny_reason)
        return None
    _log(state, journal, record, "authenticated", height, now)
    _log(state, journal, record, "decided", height, now, status, "rule_override" if any(overridden) else "model")
    if not result.granted:
        _log(state, journal, record, "denied", height, now, "denied", "policy")
    return verified


def _execute_link_delivery(
    state: LedgerState, journal: _Journal, outcome: ApplyOutcome, tx: LinkDeliveryTx, runtime, height: int, now: int
) -> None:
    record = state.requests[tx.request_id]
    journal.put(state.requests, tx.request_id, record._replace(
        status="link_issued",
        link_issued_at=now,
        link_ciphertext=tx.ciphertext,
    ))
    journal.heappush(state.link_expiry, (link_deadline(now), record.seq, tx.request_id))
    _log(state, journal, record, "link_issued", height, now, "granted")


def _execute_redemption(
    state: LedgerState, journal: _Journal, outcome: ApplyOutcome, tx: RedemptionLogTx, runtime, height: int, now: int
) -> None:
    record = state.requests[tx.request_id]  # admitted: a link_issued request of tx.user_pk
    journal.put(state.nonce_registry, tx.nonce, NonceRecord(
        issued_at=record.link_issued_at, redeemed=True, redeemed_at=tx.time
    ))
    journal.put(state.requests, tx.request_id, record._replace(status="redeemed", redeemed_at=tx.time))
    _log(state, journal, record, "redeemed", height, tx.time, "granted")


class _Handler(NamedTuple):
    check: Callable[[LedgerState, Transaction, int], str | None]  # after the shared checks
    execute: Callable[..., VerifiedRequestTx | None]


# one entry per admissible type; a type without one (VerifiedRequestTx) is
# refused as internal only
_HANDLERS: dict[type, _Handler] = {
    RegisterUserTx: _Handler(_check_register, _execute_register),
    AccessRequestTx: _Handler(_check_access_request, _execute_access_request),
    LinkDeliveryTx: _Handler(_check_link_delivery, _execute_link_delivery),
    RedemptionLogTx: _Handler(_check_redemption, _execute_redemption),
}


def _execute_block_txs(
    state: LedgerState,
    journal: _Journal,
    outcome: ApplyOutcome,
    txs: Collection[Transaction],
    runtime: ContractHooks | None,
    height: int,
    block_time: int,
    provider: Provider,
    verified: Container[bytes],
) -> tuple[Transaction, ...]:
    """Execute ``txs`` in order as the block at ``height``: the one engine
    behind both sealing and verification.

    An inadmissible transaction is skipped and listed in
    ``outcome.skipped``. Each request that passes authentication is
    followed in the returned tuple by the verification transaction its
    contracts derived. That tuple is what a leader seals, so a replica
    verifies a block by running its transactions less those verification
    records through here and comparing. Signatures of transactions whose
    ids are in ``verified`` are not checked again. Every write to ``state``
    goes through ``journal``. The runtime, when there is one, first sees
    the whole of ``txs`` against the pre-block state.
    """
    if runtime is not None:
        runtime.prepare_block(state, txs)
    included: list[Transaction] = []
    for tx in txs:
        reason = validate_transaction(state, tx, block_time, provider, verified)
        if reason is not None:
            outcome.skipped.append((tx, reason))
            continue
        output = _HANDLERS[type(tx)].execute(state, journal, outcome, tx, runtime, height, block_time)
        included.append(tx)
        journal.add(state.seen_tx_ids, tx_id(tx))
        if output is not None:
            included.append(output)
    _sweep_expired(state, journal, height, block_time)
    return tuple(included)


def _needs_engine(txs: Iterable[Transaction]) -> bool:
    return any(isinstance(tx, AccessRequestTx) for tx in txs)


def _engine_ok(state: LedgerState, runtime: ContractHooks | None, txs: Iterable[Transaction]) -> str | None:
    if not _needs_engine(txs):
        return None
    if runtime is None:
        return "engine_missing: block contains access requests"
    if runtime.fingerprint() != state.config.engine_fingerprint:
        return "engine_mismatch: local engine differs from genesis fingerprint"
    return None


def _commit(state: LedgerState, block: Block, outcome: ApplyOutcome) -> None:
    """Append ``block`` to the state that executed it, record its
    transactions as seen and drop them from the pool, and make that state
    the outcome.

    Execution recorded the ids of the admitted transactions, which a later
    one in the block may repeat; a verification record's id, which no
    admissible transaction can repeat, is recorded here from the block's
    own copy, whose encoding sealing or hashing the block has cached.
    """
    state.chain.append(block)
    for tx in block.transactions:
        txid = tx_id(tx)
        state.seen_tx_ids.add(txid)
        state.pending_pool.pop(txid, None)
    outcome.ok = True
    outcome.state = state


def apply_block(
    state: LedgerState,
    block: Block,
    runtime: ContractHooks | None = None,
    provider: Provider = _VERIFIER,
    verified: Container[bytes] | None = None,
) -> ApplyOutcome:
    """Validate one block and execute it on ``state`` in place.

    On success ``outcome.state is state``, now holding the block. On a
    rejected block ``outcome.state`` is None and ``state`` is exactly as
    it was: the block's writes go through an undo journal that lives for
    this call and is rolled back. An exception raised while the block
    executes, by the contract hooks for one, is re-raised after the same
    rollback. ``verified`` holds the ids, transaction ids and block hashes,
    whose signatures this node has already checked; by default those of
    its pool.

    The block's transactions, less its verification records, execute
    exactly as ``build_block`` executes a pool; the block is accepted only
    if none of them is skipped and the result is the block's own
    transactions, so every record is the one this node's contracts derive.
    """
    if verified is None:
        verified = state.pending_pool
    outcome = ApplyOutcome(ok=False)
    tip = state.chain[-1]

    if block.height != tip.height + 1:
        outcome.reason = f"bad_height: expected {tip.height + 1}, got {block.height}"
        return outcome
    if block.prev_hash != block_hash(tip):
        outcome.reason = "broken_hash_chain: prev_hash does not match tip"
        return outcome
    if block.genesis_config is not None:
        outcome.reason = "bad_block: config allowed only at genesis"
        return outcome
    if slot_of(block.time, state.config) <= slot_of(tip.time, state.config):
        outcome.reason = "stale_slot: block does not advance the slot clock"
        return outcome
    leader = slot_leader(block.time, state.config)
    if block.validator_pk != leader:
        outcome.reason = "wrong_leader: block not signed by the slot's validator"
        return outcome
    if block_hash(block) not in verified and not verify_block_signature(provider, block):
        outcome.reason = "bad_block_signature"
        return outcome
    engine_problem = _engine_ok(state, runtime, block.transactions)
    if engine_problem is not None:
        outcome.reason = engine_problem
        return outcome

    journal = _Journal()
    submitted = [tx for tx in block.transactions if type(tx) is not VerifiedRequestTx]
    try:
        executed = _execute_block_txs(
            state, journal, outcome, submitted, runtime, block.height, block.time, provider, verified=verified
        )
    except BaseException:
        journal.rollback()
        raise
    if outcome.skipped:
        outcome.reason = f"{outcome.skipped[0][1]}: inadmissible transaction in block"
    elif executed != block.transactions:
        # the codec has exactly one encoding per value, so equal values are equal bytes
        outcome.reason = "verified_mismatch: contract re-derivation disagrees with block"
    if outcome.reason:
        journal.rollback()
        outcome.results = []
        return outcome

    _commit(state, block, outcome)
    return outcome


def build_block(
    state: LedgerState,
    leader: KeyPair,
    now: int,
    runtime: ContractHooks | None = None,
    provider: Provider = _VERIFIER,
) -> tuple[Block | None, ApplyOutcome]:
    """Seal the pending pool into a block for the slot at ``now``.

    Returns (None, outcome) when there is nothing admissible to seal, the
    slot has not advanced past the tip, or this keypair does not lead the
    current slot. On a seal, ``outcome.state`` is the state after the block,
    exactly what ``apply_block`` on the input state would return, so the
    leader adopts it instead of executing its own block a second time.
    Skipped transactions stay in that state's pool. The block executes on a
    ``clone``, so the input state is left as it was: a caller may still
    apply the sealed block to it.
    """
    outcome = ApplyOutcome(ok=False)
    tip = state.chain[-1]
    if slot_of(now, state.config) <= slot_of(tip.time, state.config):
        outcome.reason = "stale_slot"
        return None, outcome
    if slot_leader(now, state.config) != leader.public_key:
        outcome.reason = "not_leader"
        return None, outcome
    if not state.pending_pool:
        outcome.reason = "empty_pool"
        return None, outcome
    engine_problem = _engine_ok(state, runtime, state.pending_pool.values())
    if engine_problem is not None:
        outcome.reason = engine_problem
        return None, outcome

    scratch = state.clone()
    pool = state.pending_pool
    executed = _execute_block_txs(
        scratch, _Journal(), outcome, pool.values(), runtime, tip.height + 1, now, provider, verified=pool
    )
    if not executed:
        outcome.reason = "empty_pool"
        return None, outcome

    block = seal_block(
        provider=provider,
        leader=leader,
        height=tip.height + 1,
        prev_hash=block_hash(tip),
        time=now,
        transactions=executed,
    )
    _commit(scratch, block, outcome)
    return block, outcome


# -- queries -------------------------------------------------------------------


def query_access_log(
    state: LedgerState,
    user_pk: bytes | None = None,
    resource_id: int | None = None,
    decision: str | None = None,
    kind: str | None = None,
    height_range: tuple[int, int] | None = None,
) -> list[LogEntry]:
    """Matching entries in chain order; every filter is optional."""
    out = []
    for e in state.access_log:
        if user_pk is not None and e.user_pk != user_pk:
            continue
        if resource_id is not None and e.resource_id != resource_id:
            continue
        if decision is not None and e.decision != decision:
            continue
        if kind is not None and e.kind != kind:
            continue
        if height_range is not None and not (height_range[0] <= e.block_height <= height_range[1]):
            continue
        out.append(e)
    return out


def poll_request(state: LedgerState, request_id: bytes, now: int | None = None) -> RequestRecord | None:
    """Current lifecycle record, with read-time expiry applied."""
    record = state.requests.get(request_id)
    if record is None:
        return None
    if now is not None and record.status == "link_issued" and now > link_deadline(record.link_issued_at):
        return record._replace(status="expired")
    return record


# -- chain selection and persistence ---------------------------------------------


def fork_choice(candidate_chains: Sequence[Sequence[Block]]) -> Sequence[Block]:
    """Longest chain; ties broken by lexicographically smaller tip hash."""
    if not candidate_chains:
        raise LedgerError("no_candidates", "fork choice over empty set")
    return min(candidate_chains, key=lambda c: (-len(c), block_hash(c[-1])))


def state_digest(state: LedgerState) -> bytes:
    """Digest of the replicated state; node-local pool excluded."""
    w = Writer()
    w.raw(state.tip_hash)
    w.u64(len(state.users))
    for key in sorted(state.users):
        record = state.users[key]
        w.raw(key)
        w.u32(record.user_index)
        w.u64(record.registered_at)
    w.u64(len(state.nonce_registry))
    for nonce in sorted(state.nonce_registry):
        record = state.nonce_registry[nonce]
        w.bytes_(nonce)
        w.u64(record.issued_at)
        w.boolean(record.redeemed)
        w.u64(record.redeemed_at or 0)
    w.u64(len(state.access_log))
    for entry in state.access_log:
        entry.encode_into(w)
    w.u64(len(state.requests))
    for rid in sorted(state.requests):
        state.requests[rid].encode_into(w)
    return sha256(w.getvalue())


def save_chain(chain: Sequence[Block], path) -> None:
    """Append-only file of length-prefixed canonical block encodings."""
    from .blocks import encode_block

    w = Writer()
    for block in chain:
        w.bytes_(encode_block(block))
    Path(path).write_bytes(w.getvalue())


def load_chain(path) -> list[Block]:
    from .blocks import decode_block

    data = Path(path).read_bytes()
    r = Reader(data)
    blocks = []
    while r.remaining():
        blocks.append(decode_block(r.bytes_()))
    r.expect_end()
    return blocks


# -- replay: signatures verified ahead of execution ----------------------------

# Where pooled replay starts to beat in-line replay, measured on a 2-vCPU
# x86 host (one worker; each replay in a fresh process that loads the chain,
# alternating, 9 of each): 0.87x at 269 signatures, 0.95x at 1,013, 1.16x
# at 1,506, 1.49x at 2,003 (faster in 9/9). Starting a worker and shutting
# it down cost only about 10 ms, but the replaying process waits out the
# first chunk, and there the worker verified at half speed while the
# replaying process computed (300 verifications: 53 ms beside an idle
# process, 111 ms beside a busy one).
_POOL_MIN_SIGNATURES = 1_500
# signatures per pool task, whole blocks each: about 25 ms of verification,
# long against a task's hand-off, short against a replay
_CHUNK_SIGNATURES = 128

# a worker's forked copy of the replaying caller's provider
_worker_provider: Provider = _VERIFIER


class _Check(NamedTuple):
    ident: bytes  # tx_id or block hash
    signer: bytes
    message: bytes
    signature: bytes


def _signature_checks(blocks: Sequence[Block], storage_pk: bytes) -> list[_Check]:
    """Each block's signature check, then those of its signed transactions,
    made as ``apply_block`` would make them."""
    checks = []
    for block in blocks:
        checks.append(_Check(block_hash(block), *block_signature_check(block)))
        for tx in block.transactions:
            check = transaction_signature_check(tx, storage_pk)
            if check is not None:
                checks.append(_Check(tx_id(tx), *check))
    return checks


def _adopt_provider(provider: Provider) -> None:
    global _worker_provider
    _worker_provider = provider


def _confirmed_in_worker(checks: Sequence[_Check]) -> set[bytes]:
    """The ids among ``checks`` whose signature verifies."""
    return {c.ident for c in checks if _worker_provider.verify(c.signer, c.message, c.signature)}


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _chunk_bounds(signatures: Sequence[int]) -> list[tuple[int, int]]:
    """Consecutive block ranges of about ``_CHUNK_SIGNATURES`` signatures,
    given each block's count."""
    bounds, start, count = [], 0, 0
    for i, n in enumerate(signatures):
        count += n
        if count >= _CHUNK_SIGNATURES or i == len(signatures) - 1:
            bounds.append((start, i + 1))
            start, count = i + 1, 0
    return bounds


def _verified_ahead(blocks: Sequence[Block], storage_pk: bytes, provider: Provider) -> Iterator[Container[bytes]]:
    """For each block in turn, the ids whose signatures were verified before
    it executes.

    Worker processes forked from this one verify chunks of blocks in chain
    order with their copy of ``provider``, each worker about two chunks
    ahead of execution. An id found false, or that no worker reached, is
    left out, so ``apply_block`` checks it in-line as ever. The pool is
    used only with a CPU to spare, from a process of one thread (forking a
    threaded process is unsafe), and with enough signatures to repay its
    start; it has ``usable CPUs - 1`` workers. If it cannot start or
    breaks, the rest is verified in-line.
    """
    workers = _usable_cpus() - 1
    signatures = [1 + sum(tx.SIGNATURE is not None for tx in b.transactions) for b in blocks]
    if workers < 1 or threading.active_count() != 1 or sum(signatures) < _POOL_MIN_SIGNATURES:
        for _ in blocks:
            yield ()
        return
    bounds = _chunk_bounds(signatures)

    def checks(chunk: int) -> list[_Check]:
        start, end = bounds[chunk]
        return _signature_checks(blocks[start:end], storage_pk)

    futures: dict[int, Future] = {}
    given = 0
    executor = None
    try:
        executor = ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_adopt_provider,
            initargs=(provider,),
        )
    except OSError:
        pass
    broken = executor is None
    try:
        for c, (start, end) in enumerate(bounds):
            while not broken and given < min(len(bounds), c + 2 * workers + 1):
                try:
                    futures[given] = executor.submit(_confirmed_in_worker, checks(given))
                    given += 1
                except (OSError, BrokenProcessPool):
                    broken = True
            ids: Container[bytes] = ()
            if c in futures:
                try:
                    ids = futures.pop(c).result()
                except BrokenProcessPool:
                    broken = True
            for _ in range(start, end):
                yield ids
    finally:
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)


def replay_chain(
    blocks: Sequence[Block],
    runtime: ContractHooks | None = None,
    provider: Provider = _VERIFIER,
) -> LedgerState:
    """Rebuild state from genesis, enforcing every block rule on the way.

    Signatures are verified ahead of execution where that pays (see
    ``_verified_ahead``); one not confirmed there is checked in-line, so a
    forgery fails at the same height with the same error either way.
    """
    if not blocks:
        raise LedgerError("empty_chain", "no genesis block")
    from .blocks import encode_block

    head = blocks[0]
    if head.genesis_config is None:
        raise LedgerError("bad_genesis", "first block carries no config")
    if encode_block(head) != encode_block(make_genesis_block(head.genesis_config)):
        raise LedgerError("bad_genesis", "genesis block not derived from its config")
    state = genesis(head.genesis_config)
    with closing(_verified_ahead(blocks[1:], head.genesis_config.storage_pk, provider)) as ahead:
        for block, verified in zip(blocks[1:], ahead):
            outcome = apply_block(state, block, runtime, provider, verified)
            if not outcome.ok:
                raise LedgerError("invalid_block", f"height {block.height}: {outcome.reason}")
            assert outcome.state is not None
            state = outcome.state
    return state
