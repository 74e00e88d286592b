"""The five ledger transaction types and their canonical wire encoding.

Each type states its layout once, as a field table; the signing payload,
the wire encoding, decoding and signature checks are all read off it.
Signed variants carry a signature over the canonical encoding of all their
payload fields (the signature itself excluded), so any post-signing edit is
detectable. ``VerifiedRequestTx`` is the one unsigned variant: it is only
ever produced by local contract execution during block application and is
never accepted off the wire.

Transactions are frozen, so each caches its signing payload, wire encoding
and ``tx_id`` on first use (see ``codec.Memoized``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Union

from .codec import BYTES, U8, U64, CodecError, Memoized, Reader, Writer, inline, read_fields, write_fields
from .crypto import KeyPair, Provider, sha256

N_OPERATIONS = 4
OPERATION_NAMES = ("op1", "op2", "op3", "op4")
REQUEST_ID_LEN = 16
USER_BITS_WIDTH = 16
RESOURCE_BITS_WIDTH = 16
MAX_RESOURCE_ID = (1 << RESOURCE_BITS_WIDTH) - 1

TAG_REGISTER = 1
TAG_ACCESS_REQUEST = 2
TAG_LINK_DELIVERY = 3
TAG_REDEMPTION_LOG = 4
TAG_VERIFIED = 5


class TransactionError(ValueError):
    """Invalid field values when building or decoding a transaction."""


def operation_index(name: str) -> int:
    """Map an operation name like ``op2`` to its index; raises on unknown names."""
    try:
        return OPERATION_NAMES.index(name)
    except ValueError:
        raise TransactionError(f"unknown operation {name!r}; expected one of {OPERATION_NAMES}")


def operation_name(index: int) -> str:
    if not 0 <= index < N_OPERATIONS:
        raise TransactionError(f"operation index {index} out of range")
    return OPERATION_NAMES[index]


@dataclass(frozen=True)
class RequestInfo:
    """What is being asked for: a resource, one of the four operations, and
    a random 16-byte request id used to correlate the request across the
    verification, link-delivery, and redemption records."""

    resource_id: int
    operation: int
    request_id: bytes

    FIELDS = (("resource_id", U64), ("operation", U8), ("request_id", BYTES))

    def __post_init__(self) -> None:
        if not 0 <= self.operation < N_OPERATIONS:
            raise TransactionError(f"operation index {self.operation} out of range [0,{N_OPERATIONS})")
        if not 0 <= self.resource_id <= MAX_RESOURCE_ID:
            raise TransactionError(f"resource_id {self.resource_id} exceeds {RESOURCE_BITS_WIDTH}-bit width")
        if len(self.request_id) != REQUEST_ID_LEN:
            raise TransactionError(f"request_id must be {REQUEST_ID_LEN} bytes")


# Each transaction declares ``FIELDS``, its signed fields in wire order after
# the tag byte; ``SIGNATURE``, the attribute whose bytes follow them on the
# wire (None when unsigned); and ``SIGNER``, the attribute holding the public
# key that signs (None when the storage key, passed in, signs).


@dataclass(frozen=True)
class RegisterUserTx(Memoized):
    """Admin-signed registration of a new user public key."""

    admin_pk: bytes
    user_pk: bytes
    time: int
    admin_sig: bytes

    tag = TAG_REGISTER
    FIELDS = (("admin_pk", BYTES), ("user_pk", BYTES), ("time", U64))
    SIGNATURE = "admin_sig"
    SIGNER = "admin_pk"


@dataclass(frozen=True)
class AccessRequestTx(Memoized):
    """User-signed request for an operation on a resource."""

    user_pk: bytes
    time: int
    info: RequestInfo
    user_sig: bytes

    tag = TAG_ACCESS_REQUEST
    FIELDS = (("user_pk", BYTES), ("time", U64), ("info", inline(RequestInfo)))
    SIGNATURE = "user_sig"
    SIGNER = "user_pk"


@dataclass(frozen=True)
class LinkDeliveryTx(Memoized):
    """Storage-signed delivery of an access link, encrypted to the requester.

    The ciphertext holds (link token, nonce, issue time); request_id rides in
    clear so the chain can route the ciphertext without decrypting it.
    """

    ciphertext: bytes
    storage_sig: bytes
    request_id: bytes

    tag = TAG_LINK_DELIVERY
    FIELDS = (("ciphertext", BYTES), ("request_id", BYTES))
    SIGNATURE = "storage_sig"
    SIGNER = None

    def __post_init__(self) -> None:
        if len(self.request_id) != REQUEST_ID_LEN:
            raise TransactionError(f"request_id must be {REQUEST_ID_LEN} bytes")


@dataclass(frozen=True)
class RedemptionLogTx(Memoized):
    """Storage-signed on-chain record that a user redeemed the link, with
    this nonce, that was issued for request ``request_id``."""

    nonce: bytes
    time: int
    user_pk: bytes
    request_id: bytes
    storage_sig: bytes

    tag = TAG_REDEMPTION_LOG
    FIELDS = (("nonce", BYTES), ("time", U64), ("user_pk", BYTES), ("request_id", BYTES))
    SIGNATURE = "storage_sig"
    SIGNER = None

    def __post_init__(self) -> None:
        if len(self.request_id) != REQUEST_ID_LEN:
            raise TransactionError(f"request_id must be {REQUEST_ID_LEN} bytes")


# a bit vector: a u32 count, then one u8 per bit; the layout of
# ``counted(U8)``, which is that of ``BYTES`` over the bits, written in one piece
_BITS = (lambda w, bits: w.bytes_(bytes(bits)), lambda r: tuple(r.bytes_()))


@dataclass(frozen=True)
class VerifiedRequestTx(Memoized):
    """Authentication-contract output: the request in binary-encoded form.

    Unsigned by design. A ``VerifiedRequestTx`` is trusted only when the
    local contract execution produced it; instances decoded from the wire
    carry ``locally_derived=False`` and never verify.
    """

    time: int
    user_bits: tuple[int, ...]
    req_bits: tuple[int, ...]
    request_id: bytes
    locally_derived: bool = field(default=False, compare=False, repr=False)

    tag = TAG_VERIFIED
    FIELDS = (("time", U64), ("user_bits", _BITS), ("req_bits", _BITS), ("request_id", BYTES))
    SIGNATURE = None
    SIGNER = None

    def __post_init__(self) -> None:
        if len(self.user_bits) != USER_BITS_WIDTH:
            raise TransactionError(f"user_bits must have width {USER_BITS_WIDTH}")
        if len(self.req_bits) != RESOURCE_BITS_WIDTH:
            raise TransactionError(f"req_bits must have width {RESOURCE_BITS_WIDTH}")
        if any(b not in (0, 1) for b in self.user_bits + self.req_bits):
            raise TransactionError("bit vectors may contain only 0 and 1")
        if len(self.request_id) != REQUEST_ID_LEN:
            raise TransactionError(f"request_id must be {REQUEST_ID_LEN} bytes")


Transaction = Union[
    RegisterUserTx,
    AccessRequestTx,
    LinkDeliveryTx,
    RedemptionLogTx,
    VerifiedRequestTx,
]

# tag -> (class, wire table: the signed fields, then the signature)
_WIRE = {
    cls.tag: (cls, cls.FIELDS + (((cls.SIGNATURE, BYTES),) if cls.SIGNATURE else ()))
    for cls in (RegisterUserTx, AccessRequestTx, LinkDeliveryTx, RedemptionLogTx, VerifiedRequestTx)
}


def payload_bytes(tx: Transaction) -> bytes:
    """The signed bytes: the tag and every field but the signature."""
    return tx.memo("_memo_payload", _payload)


def _payload(tx: Transaction) -> bytes:
    w = Writer()
    w.u8(tx.tag)
    write_fields(w, tx, tx.FIELDS)
    return w.getvalue()


# --- construction ------------------------------------------------------------


def _signed(provider: Provider, key: KeyPair, tx):
    return replace(tx, **{tx.SIGNATURE: provider.sign(key.secret_key, payload_bytes(tx))})


def build_register_user_tx(provider: Provider, admin: KeyPair, user_pk: bytes, time: int) -> RegisterUserTx:
    return _signed(provider, admin, RegisterUserTx(admin_pk=admin.public_key, user_pk=user_pk, time=time, admin_sig=b""))


def build_access_request_tx(provider: Provider, user: KeyPair, info: RequestInfo, time: int) -> AccessRequestTx:
    return _signed(provider, user, AccessRequestTx(user_pk=user.public_key, time=time, info=info, user_sig=b""))


def build_link_delivery_tx(provider: Provider, storage: KeyPair, ciphertext: bytes, request_id: bytes) -> LinkDeliveryTx:
    return _signed(provider, storage, LinkDeliveryTx(ciphertext=ciphertext, storage_sig=b"", request_id=request_id))


def build_redemption_log_tx(
    provider: Provider, storage: KeyPair, nonce: bytes, time: int, user_pk: bytes, request_id: bytes
) -> RedemptionLogTx:
    tx = RedemptionLogTx(nonce=nonce, time=time, user_pk=user_pk, request_id=request_id, storage_sig=b"")
    return _signed(provider, storage, tx)


# --- signature verification ---------------------------------------------------


def transaction_signature_check(tx: Transaction, storage_pk: bytes | None = None) -> tuple[bytes, bytes, bytes] | None:
    """The (signer, signed bytes, signature) a signed variant is verified
    with: its stated signer, or ``storage_pk`` for link and redemption
    records, which do not carry the storage key. None for an unsigned
    variant, or when the storage key is needed and not given.
    """
    if tx.SIGNATURE is None:
        return None
    signer = getattr(tx, tx.SIGNER) if tx.SIGNER else storage_pk
    if signer is None:
        return None
    return signer, payload_bytes(tx), getattr(tx, tx.SIGNATURE)


def verify_transaction_signature(provider: Provider, tx: Transaction, storage_pk: bytes | None = None) -> bool:
    """Check the variant's signature against its stated or implied signer
    (see ``transaction_signature_check``; without the storage key, link and
    redemption records fail). Verified transactions pass only when locally
    derived.
    """
    if tx.SIGNATURE is None:
        return tx.locally_derived
    check = transaction_signature_check(tx, storage_pk)
    return check is not None and provider.verify(*check)


# --- wire encoding -------------------------------------------------------------


def encode_transaction(tx: Transaction) -> bytes:
    """Full canonical encoding: tag, payload fields, then the signature."""
    return tx.memo("_memo_wire", _wire)


def _wire(tx: Transaction) -> bytes:
    w = Writer()
    w.raw(payload_bytes(tx))
    write_fields(w, tx, _WIRE[tx.tag][1][len(tx.FIELDS) :])  # the signature, if any
    return w.getvalue()


def decode_transaction(data: bytes) -> Transaction:
    r = Reader(data)
    tag = r.u8()
    if tag not in _WIRE:
        raise CodecError(f"unknown transaction tag {tag}")
    cls, fields = _WIRE[tag]
    values = read_fields(r, fields)
    r.expect_end()
    return cls(**values)


def tx_id(tx: Transaction) -> bytes:
    """32-byte identity of a transaction: hash of its canonical encoding."""
    return tx.memo("_memo_id", _identity)


def _identity(tx: Transaction) -> bytes:
    return sha256(encode_transaction(tx))


# a transaction carried inside another record: its encoding, length-prefixed
TRANSACTION = (
    lambda w, tx: w.bytes_(encode_transaction(tx)),
    lambda r: decode_transaction(r.bytes_()),
)


# --- human-readable rendering ---------------------------------------------------


def _short(b: bytes) -> str:
    return b.hex()[:12]


def format_transaction(tx: Transaction) -> str:
    if isinstance(tx, RegisterUserTx):
        return f"register(user={_short(tx.user_pk)} admin={_short(tx.admin_pk)} time={tx.time})"
    if isinstance(tx, AccessRequestTx):
        return (
            f"access_request(user={_short(tx.user_pk)} resource={tx.info.resource_id} "
            f"op={operation_name(tx.info.operation)} rid={_short(tx.info.request_id)} time={tx.time})"
        )
    if isinstance(tx, LinkDeliveryTx):
        return f"link_delivery(rid={_short(tx.request_id)} ct={len(tx.ciphertext)}B)"
    if isinstance(tx, RedemptionLogTx):
        return f"redemption(rid={_short(tx.request_id)} nonce={_short(tx.nonce)} user={_short(tx.user_pk)} time={tx.time})"
    if isinstance(tx, VerifiedRequestTx):
        return f"verified(rid={_short(tx.request_id)} time={tx.time})"
    return repr(tx)
