"""Contract layer: authentication and authorization of admitted requests.

These run inside block execution on every replica, so they are pure
functions of (transaction, state snapshot, model, rules, block time).
Signature and freshness are checked once, by the ledger's admission check,
before a request reaches them. The authorization outcome travels to the
storage service as an encrypted, validator-signed envelope; the on-chain
record is the decision log entry. The sealing validator puts all of one
block's results into a single envelope.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import Collection, Sequence

from .codec import (
    BOOLEAN,
    BYTES,
    U8,
    U32,
    U64,
    Reader,
    Writer,
    array,
    counted,
    decode_record,
    encode_record,
    inline,
)
from .crypto import KeyPair, Provider, sha256
from .engine import (
    DecisionModel,
    FixedPointModel,
    PriorityRule,
    apply_priority_rules,
    binary_repr,
    encode_pairs,
    fixed_point_grants,
    format_rules,
    model_to_bytes,
    quantize_model,
)
from .ledger import LedgerState, user_key
from .transactions import (
    AccessRequestTx,
    N_OPERATIONS,
    RESOURCE_BITS_WIDTH,
    USER_BITS_WIDTH,
    VerifiedRequestTx,
)

AUTH_FAIL_UNREGISTERED = "unregistered"


class ContractError(ValueError):
    pass


class EnvelopeError(ContractError):
    """Request-result envelope failed authenticity or decryption checks."""


@dataclass(frozen=True)
class RequestResult:
    """Authorization outcome bound for the storage service."""

    request_id: bytes
    user_pk: bytes
    resource_id: int
    operation: int
    access_list: tuple[bool, ...]
    granted: bool
    time: int
    overridden: tuple[bool, ...] = (False,) * N_OPERATIONS

    FIELDS = (
        ("request_id", BYTES),
        ("user_pk", BYTES),
        ("resource_id", U32),
        ("operation", U8),
        ("access_list", array(BOOLEAN, N_OPERATIONS)),
        ("granted", BOOLEAN),
        ("time", U64),
        ("overridden", array(BOOLEAN, N_OPERATIONS)),
    )

    def __post_init__(self):
        if len(self.access_list) != N_OPERATIONS:
            raise ContractError(f"access_list must have {N_OPERATIONS} entries")
        if not 0 <= self.operation < N_OPERATIONS:
            raise ContractError(f"no such operation {self.operation}")
        if self.granted != self.access_list[self.operation]:
            raise ContractError("granted must equal access_list[operation]")

    def encode(self) -> bytes:
        return encode_record(self, self.FIELDS)

    @classmethod
    def decode(cls, data: bytes) -> "RequestResult":
        return decode_record(cls, data, cls.FIELDS)


def run_authentication(
    tx: AccessRequestTx, state: LedgerState
) -> tuple[VerifiedRequestTx | None, str | None]:
    """Registration check, then the request re-expressed in binary form.

    The produced transaction is unsigned; its authority comes from every
    replica deriving it identically during block execution.
    """
    record = state.users.get(user_key(tx))
    if record is None:
        return None, AUTH_FAIL_UNREGISTERED
    verified = VerifiedRequestTx(
        time=tx.time,
        user_bits=binary_repr(record.user_index, USER_BITS_WIDTH),
        req_bits=binary_repr(tx.info.resource_id, RESOURCE_BITS_WIDTH),
        request_id=tx.info.request_id,
        locally_derived=True,
    )
    return verified, None


def _bits_to_int(bits: tuple[int, ...]) -> int:
    value = 0
    for b in bits:
        value = (value << 1) | b
    return value


Decision = tuple[tuple[bool, ...], tuple[bool, ...]]  # (access_list, overridden)


def _decide_cells(
    fixed: FixedPointModel, rules: list[PriorityRule], cells: Sequence[tuple[int, int]]
) -> list[Decision]:
    """The decision of each (user_index, resource_id) cell: the fixed-point
    model's grants, all cells in one batch, folded with priority rules.
    ``fixed_point_grants`` is looked up when called, so a wrapper installed
    on this module sees each batch."""
    users, resources = zip(*cells)
    grants = fixed_point_grants(fixed, encode_pairs(users, resources)).tolist()
    return [apply_priority_rules(rules, g, u, r) for g, u, r in zip(grants, users, resources)]


def _decide_cell(fixed: FixedPointModel, rules: list[PriorityRule], user_index: int, resource_id: int) -> Decision:
    return _decide_cells(fixed, rules, ((user_index, resource_id),))[0]


def _authorize(decide, verified: VerifiedRequestTx, request: AccessRequestTx, now: int) -> RequestResult:
    """The request's result, its cell decided by ``decide(user_index, resource_id)``."""
    if not verified.locally_derived:
        raise ContractError("authorization requires a locally derived verification")
    resource_id = _bits_to_int(verified.req_bits)
    access_list, overridden = decide(_bits_to_int(verified.user_bits), resource_id)
    return RequestResult(
        request_id=verified.request_id,
        user_pk=request.user_pk,
        resource_id=resource_id,
        operation=request.info.operation,
        access_list=access_list,
        granted=access_list[request.info.operation],
        time=now,
        overridden=overridden,
    )


def run_authorization(
    model: DecisionModel,
    rules: list[PriorityRule],
    verified: VerifiedRequestTx,
    request: AccessRequestTx,
    now: int,
) -> RequestResult:
    """Model grants folded with priority rules into the final grant vector,
    decided afresh on the fixed-point path block execution uses."""
    return _authorize(partial(_decide_cell, quantize_model(model), rules), verified, request, now)


def engine_fingerprint(model: DecisionModel, rules: list[PriorityRule]) -> bytes:
    """Pins (model weights, rule set); goes into the genesis config."""
    return sha256(model_to_bytes(model) + b"\x00" + format_rules(rules).encode())


# Decided cells one runtime keeps. The 300-block catch-up chain of the
# benchmark (seed 1) makes 5,364 authorizations over 3,114 distinct cells:
# at 4,096 an LRU keeps every repeat (hit rate 0.42), at 1,024 only 0.27.
# Full, the cache holds about 1.3 MB.
DECISION_CACHE_SIZE = 4096


class ContractRuntime:
    """Engine bundle every validator runs; hooks consumed by block execution.

    Decisions come from a fixed-point copy of the model, made once here,
    so they are exact on every host (see ``engine.quantize_model``, which
    refuses a model it cannot decide exactly). A cell's decision depends
    only on the model and rules, which are fixed for the runtime's life
    (its fingerprint pins them at construction), so the runtime keeps each
    decided (user_index, resource_id) cell in a bounded LRU; a repeat
    returns the very ``(access_list, overridden)`` a fresh decision would.
    ``prepare_block`` fills the cache for a whole block in one batch, and
    ``authorize`` decides a cell it still lacks on its own.
    """

    def __init__(self, model: DecisionModel, rules: list[PriorityRule]):
        self.model = model
        self.rules = list(rules)
        self._fingerprint = engine_fingerprint(model, rules)
        self._fixed = quantize_model(model)
        self._cells: OrderedDict[tuple[int, int], Decision] = OrderedDict()

    def fingerprint(self) -> bytes:
        return self._fingerprint

    def prepare_block(self, state: LedgerState, txs: Collection) -> None:
        """Decide, in one batch, the cells of the access requests among
        ``txs`` whose users ``state`` has registered and that the cache
        lacks. Requests of users registered later in the block are decided
        one by one when authorized."""
        wanted: dict[tuple[int, int], None] = {}
        for tx in txs:
            if type(tx) is AccessRequestTx and len(wanted) < DECISION_CACHE_SIZE:
                record = state.users.get(user_key(tx))
                if record is not None and (cell := (record.user_index, tx.info.resource_id)) not in self._cells:
                    wanted[cell] = None
        if wanted:
            for cell, decision in zip(wanted, _decide_cells(self._fixed, self.rules, tuple(wanted))):
                self._keep(cell, decision)

    def authenticate(self, tx: AccessRequestTx, state: LedgerState) -> tuple[VerifiedRequestTx | None, str | None]:
        return run_authentication(tx, state)

    def authorize(self, verified: VerifiedRequestTx, request: AccessRequestTx, now: int) -> RequestResult:
        return _authorize(self._decide, verified, request, now)

    def _decide(self, user_index: int, resource_id: int) -> Decision:
        cell = (user_index, resource_id)
        decision = self._cells.get(cell)
        if decision is None:
            decision = _decide_cell(self._fixed, self.rules, user_index, resource_id)
            self._keep(cell, decision)
        else:
            self._cells.move_to_end(cell)
        return decision

    def _keep(self, cell: tuple[int, int], decision: Decision) -> None:
        self._cells[cell] = decision
        if len(self._cells) > DECISION_CACHE_SIZE:
            self._cells.popitem(last=False)


# -- delivery envelope -----------------------------------------------------------

# the plaintext of one envelope: every result of one sealed block, in block order
_write_results, _read_results = counted(inline(RequestResult))


def encrypt_request_results(
    provider: Provider, results: Sequence[RequestResult], storage_pk: bytes, validator: KeyPair
) -> bytes:
    """Seal a block's results for storage: one encrypted payload, one validator signature."""
    plaintext = Writer()
    _write_results(plaintext, tuple(results))
    ciphertext = provider.encrypt(storage_pk, plaintext.getvalue())
    sig = provider.sign(validator.secret_key, ciphertext)
    w = Writer()
    w.bytes_(ciphertext)
    w.bytes_(validator.public_key)
    w.bytes_(sig)
    return w.getvalue()


def encrypt_request_result(
    provider: Provider, result: RequestResult, storage_pk: bytes, validator: KeyPair
) -> bytes:
    """An envelope holding the one result."""
    return encrypt_request_results(provider, (result,), storage_pk, validator)


def decrypt_request_results(
    provider: Provider, storage: KeyPair, envelope: bytes, validators: tuple[bytes, ...]
) -> tuple[RequestResult, ...]:
    """Open a delivery envelope, enforcing that a known validator sent it."""
    try:
        r = Reader(envelope)
        ciphertext = r.bytes_()
        validator_pk = r.bytes_()
        sig = r.bytes_()
        r.expect_end()
    except ValueError as exc:
        raise EnvelopeError(f"malformed envelope: {exc}") from exc
    if validator_pk not in validators:
        raise EnvelopeError("envelope not signed by a known validator")
    if not provider.verify(validator_pk, ciphertext, sig):
        raise EnvelopeError("bad validator signature on envelope")
    try:
        payload = provider.decrypt(storage.secret_key, ciphertext)
    except Exception as exc:
        raise EnvelopeError(f"cannot decrypt envelope: {exc}") from exc
    try:
        r = Reader(payload)
        results = _read_results(r)
        r.expect_end()
    except ValueError as exc:
        raise EnvelopeError(f"malformed result payload: {exc}") from exc
    return results
