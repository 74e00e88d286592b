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

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Sequence

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
    PriorityRule,
    binary_repr,
    decide_access,
    encode_pair,
    format_rules,
    forward,
    model_to_bytes,
)
from .ledger import LedgerState
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
    record = state.user_record(tx.user_pk)
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


def _decide_cell(
    model: DecisionModel, rules: list[PriorityRule], user_index: int, resource_id: int
) -> tuple[tuple[bool, ...], tuple[bool, ...]]:
    """(access_list, overridden) of one (user, resource) cell: model scores
    folded with priority rules. ``forward`` and ``decide_access`` are looked
    up when called, so a wrapper installed on this module sees each call."""
    decision = decide_access(rules, forward(model, encode_pair(user_index, resource_id)), user_index, resource_id)
    return decision.access_list, decision.overridden


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
    """Model scores folded with priority rules into the final grant vector."""
    return _authorize(partial(_decide_cell, model, rules), verified, request, now)


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

    A cell's decision depends only on the model and rules, which are fixed
    for the runtime's life (its fingerprint pins them at construction), so
    ``authorize`` decides each (user_index, resource_id) cell once and
    keeps the decision in a bounded LRU; a repeat returns the very
    ``(access_list, overridden)`` a fresh decision would.
    """

    def __init__(self, model: DecisionModel, rules: list[PriorityRule]):
        self.model = model
        self.rules = list(rules)
        self._fingerprint = engine_fingerprint(model, rules)
        self._decide = lru_cache(maxsize=DECISION_CACHE_SIZE)(partial(_decide_cell, self.model, self.rules))

    def fingerprint(self) -> bytes:
        return self._fingerprint

    def authenticate(self, tx: AccessRequestTx, state: LedgerState) -> tuple[VerifiedRequestTx | None, str | None]:
        return run_authentication(tx, state)

    def authorize(self, verified: VerifiedRequestTx, request: AccessRequestTx, now: int) -> RequestResult:
        return _authorize(self._decide, verified, request, now)


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
