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
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Protocol, Sequence

from .blocks import (
    Block,
    ConfigurationError,
    GenesisConfig,
    block_hash,
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
    VerifiedRequestTx,
    encode_transaction,
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

_VERIFIER = Provider()


class LedgerError(ValueError):
    """Invalid ledger operation; carries a short machine-readable reason."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason}: {detail}" if detail else reason)
        self.reason = reason


@dataclass(frozen=True)
class LogEntry:
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

    def __post_init__(self):
        if self.kind not in LOG_KINDS:
            raise LedgerError("bad_log_kind", self.kind)

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


@dataclass(frozen=True)
class UserRecord:
    user_index: int
    registered_at: int


@dataclass(frozen=True)
class NonceRecord:
    issued_at: int
    redeemed: bool
    redeemed_at: int | None = None


@dataclass(frozen=True)
class RequestRecord:
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
    # sweep as the request map does. Derived, so not compared or encoded.
    seq: int = field(default=0, compare=False, repr=False)

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

    def authenticate(self, tx: AccessRequestTx, state: "LedgerState") -> tuple[VerifiedRequestTx | None, str | None]: ...

    def authorize(self, verified: VerifiedRequestTx, request: AccessRequestTx, now: int): ...


class LedgerState:
    """Replayed view of the chain plus the node-local pending pool.

    Everything except ``pending_pool``/``pool_ids`` is consensus state and
    feeds ``state_digest``; ``link_expiry`` is an index derived from
    ``requests``. Values inside the maps are frozen records; updates replace
    entries, so ``clone`` is a set of shallow copies.
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
        self.pending_pool: list[Transaction] = []
        self.pool_ids: set[bytes] = set()
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

    def is_registered(self, user_pk: bytes) -> bool:
        return sha256(user_pk) in self.users

    def clone(self) -> "LedgerState":
        st = LedgerState.__new__(LedgerState)
        st.config = self.config
        st.chain = list(self.chain)
        st.users = dict(self.users)
        st.nonce_registry = dict(self.nonce_registry)
        st.access_log = list(self.access_log)
        st.requests = dict(self.requests)
        st.seen_tx_ids = set(self.seen_tx_ids)
        st.pending_pool = list(self.pending_pool)
        st.pool_ids = set(self.pool_ids)
        st.link_expiry = list(self.link_expiry)
        return st


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


def validate_transaction(
    state: LedgerState,
    tx: Transaction,
    now: int,
    provider: Provider = _VERIFIER,
    against_pool: bool = True,
) -> str | None:
    """None when admissible against the given state, else a reject reason.

    ``against_pool`` treats pool membership as a duplicate too; admission
    wants that, but block execution must judge pool transactions against
    chain history alone or they would collide with themselves. A block
    transaction in this node's pool keeps the signature check it passed at
    admission: its ``tx_id`` covers every field and the signature, so the
    bytes are the ones verified then, against the same genesis keys.
    """
    txid = tx_id(tx)
    if txid in state.seen_tx_ids or (against_pool and txid in state.pool_ids):
        return REJECT_DUPLICATE
    handler = _HANDLERS.get(type(tx))
    if handler is None:
        return REJECT_INTERNAL_ONLY  # contract output; never admitted from the network
    if isinstance(tx, RegisterUserTx) and tx.admin_pk not in state.admin_pks:
        return REJECT_UNAUTHORIZED  # refused before its signature is checked
    if (against_pool or txid not in state.pool_ids) and not verify_transaction_signature(
        provider, tx, storage_pk=state.storage_pk
    ):
        return REJECT_BAD_SIGNATURE
    return handler.check(state, tx, now)


def _check_register(state: LedgerState, tx: RegisterUserTx, now: int) -> str | None:
    if not _fresh(tx.time, now):
        return REJECT_STALE_TIME
    return REJECT_DUPLICATE_USER if state.is_registered(tx.user_pk) else None


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
    ``link_issued`` request of the redeeming user."""
    if not _fresh(tx.time, now):
        return REJECT_STALE_TIME
    existing = state.nonce_registry.get(tx.nonce)
    if existing is not None and existing.redeemed:
        return REJECT_REPLAYED_NONCE
    record = state.requests.get(tx.request_id)
    if record is None or record.status != "link_issued" or record.user_pk != tx.user_pk:
        return REJECT_UNKNOWN_REQUEST
    return None


# -- pool ----------------------------------------------------------------------


def submit_to_pool(state: LedgerState, tx: Transaction, now: int, provider: Provider = _VERIFIER) -> str | None:
    """Admit into the local pending pool; returns reject reason or None."""
    reason = validate_transaction(state, tx, now, provider)
    if reason is not None:
        return reason
    state.pending_pool.append(tx)
    state.pool_ids.add(tx_id(tx))
    return None


# -- block execution -----------------------------------------------------------


@dataclass
class ApplyOutcome:
    ok: bool
    reason: str = ""
    state: LedgerState | None = None
    results: list = field(default_factory=list)  # contract outputs, block order
    skipped: list[tuple[Transaction, str]] = field(default_factory=list)


def _log(
    state: LedgerState,
    record: RequestRecord,
    kind: str,
    height: int,
    time: int,
    decision: str = "",
    reason: str = "",
) -> None:
    """Append one audit entry about ``record``'s request."""
    state.access_log.append(LogEntry(
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


def _sweep_expired(state: LedgerState, height: int, now: int) -> None:
    """Expire every issued link whose lifetime ended before ``now``, logging
    them in request order. A request gets at most one link, so an index
    entry whose link was since redeemed is dropped as it comes due."""
    due: dict[int, RequestRecord] = {}
    heap = state.link_expiry
    while heap and heap[0][0] < now:
        _, seq, rid = heapq.heappop(heap)
        record = state.requests[rid]
        if record.status == "link_issued":
            due[seq] = record
    for seq in sorted(due):
        record = due[seq]
        state.requests[record.request_id] = replace(record, status="expired")
        _log(state, record, "expired", height, now, "denied", "link_lifetime_elapsed")


# Executors share one signature: (state, outcome, tx, runtime, height, now).
# Each applies one admitted transaction; only an access request returns
# anything, the verification transaction derived from it.


def _execute_register(
    state: LedgerState, outcome: ApplyOutcome, tx: RegisterUserTx, runtime, height: int, now: int
) -> None:
    state.users[sha256(tx.user_pk)] = UserRecord(user_index=len(state.users), registered_at=tx.time)


def _execute_access_request(
    state: LedgerState,
    outcome: ApplyOutcome,
    tx: AccessRequestTx,
    runtime: ContractHooks,
    height: int,
    now: int,
) -> VerifiedRequestTx | None:
    """Runs the contract pipeline for one admitted request.

    Returns the derived verification transaction when authentication
    passed (the block must carry it immediately after the request).
    """
    rid = tx.info.request_id
    record = RequestRecord(
        request_id=rid,
        user_pk=tx.user_pk,
        resource_id=tx.info.resource_id,
        operation=tx.info.operation,
        submitted_at=tx.time,
        seq=len(state.requests),
    )
    state.requests[rid] = record
    _log(state, record, "requested", height, tx.time)

    verified, failure = runtime.authenticate(tx, state)
    if verified is None:
        reason = failure or "unspecified"
        state.requests[rid] = replace(record, status="denied", deny_reason=reason)
        _log(state, record, "denied", height, now, "denied", reason)
        return None

    _log(state, record, "authenticated", height, now)

    result = runtime.authorize(verified, tx, now)
    outcome.results.append(result)
    decision = "granted" if result.granted else "denied"
    basis = "rule_override" if any(result.overridden) else "model"
    state.requests[rid] = replace(
        record,
        status=decision,
        access_list=tuple(result.access_list),
        overridden=tuple(result.overridden),
    )
    _log(state, record, "decided", height, now, decision, basis)
    if not result.granted:
        state.requests[rid] = replace(state.requests[rid], deny_reason="policy")
        _log(state, record, "denied", height, now, "denied", "policy")
    return verified


def _execute_link_delivery(
    state: LedgerState, outcome: ApplyOutcome, tx: LinkDeliveryTx, runtime, height: int, now: int
) -> None:
    record = state.requests[tx.request_id]
    state.requests[tx.request_id] = replace(
        record,
        status="link_issued",
        link_issued_at=now,
        link_ciphertext=tx.ciphertext,
    )
    heapq.heappush(state.link_expiry, (now + LINK_LIFETIME, record.seq, tx.request_id))
    _log(state, record, "link_issued", height, now, "granted")


def _execute_redemption(
    state: LedgerState, outcome: ApplyOutcome, tx: RedemptionLogTx, runtime, height: int, now: int
) -> None:
    record = state.requests[tx.request_id]  # admitted: a link_issued request of tx.user_pk
    state.nonce_registry[tx.nonce] = NonceRecord(
        issued_at=record.link_issued_at, redeemed=True, redeemed_at=tx.time
    )
    state.requests[tx.request_id] = replace(record, status="redeemed", redeemed_at=tx.time)
    _log(state, record, "redeemed", height, tx.time, "granted")


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
    outcome: ApplyOutcome,
    txs: Sequence[Transaction],
    runtime: ContractHooks | None,
    height: int,
    block_time: int,
    derive: bool,
    provider: Provider,
) -> tuple[Transaction, ...] | None:
    """Shared engine for sealing (derive=True) and verification.

    When deriving, inadmissible pool transactions are skipped and the
    returned tuple (with verification transactions interleaved) is what
    the leader seals. When verifying, the tuple must match the block's
    transactions exactly; any divergence fails the whole block by
    returning None with outcome.reason set.
    """
    included: list[Transaction] = []
    expected_verified: VerifiedRequestTx | None = None

    def fail(reason: str, detail: str = "") -> None:
        outcome.reason = f"{reason}: {detail}" if detail else reason

    for tx in txs:
        if expected_verified is not None:
            # verification mode only: the tx after a passing request must
            # be the bit-identical contract output
            if not isinstance(tx, VerifiedRequestTx) or encode_transaction(tx) != encode_transaction(expected_verified):
                fail("verified_mismatch", "contract re-derivation disagrees with block")
                return None
            included.append(expected_verified)
            state.seen_tx_ids.add(tx_id(expected_verified))
            expected_verified = None
            continue

        handler = _HANDLERS.get(type(tx))
        if handler is None:
            if derive:
                outcome.skipped.append((tx, REJECT_INTERNAL_ONLY))
                continue
            fail(REJECT_INTERNAL_ONLY, "verification tx without preceding request")
            return None

        reason = validate_transaction(state, tx, block_time, provider, against_pool=False)
        if reason is not None:
            if derive:
                outcome.skipped.append((tx, reason))
                continue
            fail(reason, "inadmissible transaction in block")
            return None

        verified = handler.execute(state, outcome, tx, runtime, height, block_time)
        included.append(tx)
        state.seen_tx_ids.add(tx_id(tx))
        if verified is not None:
            if derive:
                included.append(verified)
                state.seen_tx_ids.add(tx_id(verified))
            else:
                expected_verified = verified

    if expected_verified is not None:
        fail("verified_mismatch", "missing contract output at end of block")
        return None

    _sweep_expired(state, height, block_time)
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


def _commit(scratch: LedgerState, block: Block, outcome: ApplyOutcome) -> None:
    """Append ``block`` to the executed scratch state, drop its transactions
    from the pool, and make the scratch state the outcome."""
    scratch.chain.append(block)
    included = {tx_id(tx) for tx in block.transactions}
    scratch.pending_pool = [tx for tx in scratch.pending_pool if tx_id(tx) not in included]
    scratch.pool_ids -= included
    outcome.ok = True
    outcome.state = scratch


def apply_block(
    state: LedgerState,
    block: Block,
    runtime: ContractHooks | None = None,
    provider: Provider = _VERIFIER,
) -> ApplyOutcome:
    """Validate and append one block; the input state is never mutated."""
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
    if not verify_block_signature(provider, block):
        outcome.reason = "bad_block_signature"
        return outcome
    engine_problem = _engine_ok(state, runtime, block.transactions)
    if engine_problem is not None:
        outcome.reason = engine_problem
        return outcome

    scratch = state.clone()
    executed = _execute_block_txs(
        scratch,
        outcome,
        block.transactions,
        runtime,
        block.height,
        block.time,
        derive=False,
        provider=provider,
    )
    if executed is None:
        outcome.results = []
        return outcome

    _commit(scratch, block, outcome)
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
    Skipped transactions stay in that state's pool.
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
    engine_problem = _engine_ok(state, runtime, state.pending_pool)
    if engine_problem is not None:
        outcome.reason = engine_problem
        return None, outcome

    scratch = state.clone()
    executed = _execute_block_txs(
        scratch,
        outcome,
        list(state.pending_pool),
        runtime,
        tip.height + 1,
        now,
        derive=True,
        provider=provider,
    )
    assert executed is not None  # derive mode skips instead of failing
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
    if (
        now is not None
        and record.status == "link_issued"
        and record.link_issued_at is not None
        and now > record.link_issued_at + LINK_LIFETIME
    ):
        return replace(record, status="expired")
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


def replay_chain(
    blocks: Sequence[Block],
    runtime: ContractHooks | None = None,
    provider: Provider = _VERIFIER,
) -> LedgerState:
    """Rebuild state from genesis, enforcing every block rule on the way."""
    if not blocks:
        raise LedgerError("empty_chain", "no genesis block")
    from .blocks import encode_block

    head = blocks[0]
    if head.genesis_config is None:
        raise LedgerError("bad_genesis", "first block carries no config")
    if encode_block(head) != encode_block(make_genesis_block(head.genesis_config)):
        raise LedgerError("bad_genesis", "genesis block not derived from its config")
    state = genesis(head.genesis_config)
    for block in blocks[1:]:
        outcome = apply_block(state, block, runtime, provider)
        if not outcome.ok:
            raise LedgerError("invalid_block", f"height {block.height}: {outcome.reason}")
        assert outcome.state is not None
        state = outcome.state
    return state
