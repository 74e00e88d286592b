"""The five ledger transaction types and their canonical wire encoding.

Signed variants carry a signature over the canonical encoding of all their
payload fields (the signature itself excluded), so any post-signing edit is
detectable. ``VerifiedRequestTx`` is the one unsigned variant: it is only
ever produced by local contract execution during block application and is
never accepted off the wire.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

from .codec import CodecError, Reader, Writer
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

    def __post_init__(self) -> None:
        if not 0 <= self.operation < N_OPERATIONS:
            raise TransactionError(f"operation index {self.operation} out of range [0,{N_OPERATIONS})")
        if not 0 <= self.resource_id <= MAX_RESOURCE_ID:
            raise TransactionError(f"resource_id {self.resource_id} exceeds {RESOURCE_BITS_WIDTH}-bit width")
        if len(self.request_id) != REQUEST_ID_LEN:
            raise TransactionError(f"request_id must be {REQUEST_ID_LEN} bytes")

    def encode_into(self, w: Writer) -> None:
        w.u64(self.resource_id)
        w.u8(self.operation)
        w.bytes_(self.request_id)

    @classmethod
    def decode_from(cls, r: Reader) -> "RequestInfo":
        return cls(resource_id=r.u64(), operation=r.u8(), request_id=r.bytes_())


@dataclass(frozen=True)
class RegisterUserTx:
    """Admin-signed registration of a new user public key."""

    admin_pk: bytes
    user_pk: bytes
    time: int
    admin_sig: bytes

    tag = TAG_REGISTER

    def payload_bytes(self) -> bytes:
        w = Writer()
        w.u8(self.tag)
        w.bytes_(self.admin_pk)
        w.bytes_(self.user_pk)
        w.u64(self.time)
        return w.getvalue()


@dataclass(frozen=True)
class AccessRequestTx:
    """User-signed request for an operation on a resource."""

    user_pk: bytes
    time: int
    info: RequestInfo
    user_sig: bytes

    tag = TAG_ACCESS_REQUEST

    def payload_bytes(self) -> bytes:
        w = Writer()
        w.u8(self.tag)
        w.bytes_(self.user_pk)
        w.u64(self.time)
        self.info.encode_into(w)
        return w.getvalue()


@dataclass(frozen=True)
class LinkDeliveryTx:
    """Storage-signed delivery of an access link, encrypted to the requester.

    The ciphertext holds (link token, nonce, issue time); request_id rides in
    clear so the chain can route the ciphertext without decrypting it.
    """

    ciphertext: bytes
    storage_sig: bytes
    request_id: bytes

    tag = TAG_LINK_DELIVERY

    def __post_init__(self) -> None:
        if len(self.request_id) != REQUEST_ID_LEN:
            raise TransactionError(f"request_id must be {REQUEST_ID_LEN} bytes")

    def payload_bytes(self) -> bytes:
        w = Writer()
        w.u8(self.tag)
        w.bytes_(self.ciphertext)
        w.bytes_(self.request_id)
        return w.getvalue()


@dataclass(frozen=True)
class RedemptionLogTx:
    """Storage-signed on-chain record that a nonce was redeemed by a user."""

    nonce: bytes
    time: int
    user_pk: bytes
    storage_sig: bytes

    tag = TAG_REDEMPTION_LOG

    def payload_bytes(self) -> bytes:
        w = Writer()
        w.u8(self.tag)
        w.bytes_(self.nonce)
        w.u64(self.time)
        w.bytes_(self.user_pk)
        return w.getvalue()


@dataclass(frozen=True)
class VerifiedRequestTx:
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

    def __post_init__(self) -> None:
        if len(self.user_bits) != USER_BITS_WIDTH:
            raise TransactionError(f"user_bits must have width {USER_BITS_WIDTH}")
        if len(self.req_bits) != RESOURCE_BITS_WIDTH:
            raise TransactionError(f"req_bits must have width {RESOURCE_BITS_WIDTH}")
        if any(b not in (0, 1) for b in self.user_bits + self.req_bits):
            raise TransactionError("bit vectors may contain only 0 and 1")
        if len(self.request_id) != REQUEST_ID_LEN:
            raise TransactionError(f"request_id must be {REQUEST_ID_LEN} bytes")

    def payload_bytes(self) -> bytes:
        w = Writer()
        w.u8(self.tag)
        w.u64(self.time)
        w.u32(len(self.user_bits))
        for b in self.user_bits:
            w.u8(b)
        w.u32(len(self.req_bits))
        for b in self.req_bits:
            w.u8(b)
        w.bytes_(self.request_id)
        return w.getvalue()


Transaction = Union[
    RegisterUserTx,
    AccessRequestTx,
    LinkDeliveryTx,
    RedemptionLogTx,
    VerifiedRequestTx,
]


# --- construction ------------------------------------------------------------


def build_register_user_tx(provider: Provider, admin: KeyPair, user_pk: bytes, time: int) -> RegisterUserTx:
    tx = RegisterUserTx(admin_pk=admin.public_key, user_pk=user_pk, time=time, admin_sig=b"")
    sig = provider.sign(admin.secret_key, tx.payload_bytes())
    return RegisterUserTx(admin_pk=admin.public_key, user_pk=user_pk, time=time, admin_sig=sig)


def build_access_request_tx(provider: Provider, user: KeyPair, info: RequestInfo, time: int) -> AccessRequestTx:
    tx = AccessRequestTx(user_pk=user.public_key, time=time, info=info, user_sig=b"")
    sig = provider.sign(user.secret_key, tx.payload_bytes())
    return AccessRequestTx(user_pk=user.public_key, time=time, info=info, user_sig=sig)


def build_link_delivery_tx(provider: Provider, storage: KeyPair, ciphertext: bytes, request_id: bytes) -> LinkDeliveryTx:
    tx = LinkDeliveryTx(ciphertext=ciphertext, storage_sig=b"", request_id=request_id)
    sig = provider.sign(storage.secret_key, tx.payload_bytes())
    return LinkDeliveryTx(ciphertext=ciphertext, storage_sig=sig, request_id=request_id)


def build_redemption_log_tx(provider: Provider, storage: KeyPair, nonce: bytes, time: int, user_pk: bytes) -> RedemptionLogTx:
    tx = RedemptionLogTx(nonce=nonce, time=time, user_pk=user_pk, storage_sig=b"")
    sig = provider.sign(storage.secret_key, tx.payload_bytes())
    return RedemptionLogTx(nonce=nonce, time=time, user_pk=user_pk, storage_sig=sig)


# --- signature verification ---------------------------------------------------


def verify_transaction_signature(provider: Provider, tx: Transaction, storage_pk: bytes | None = None) -> bool:
    """Check the variant's signature against its stated or implied signer.

    Link and redemption records are signed by the storage key, which is not
    carried in the transaction; pass ``storage_pk`` to check them (without
    it they fail). Verified transactions pass only when locally derived.
    """
    if isinstance(tx, RegisterUserTx):
        return provider.verify(tx.admin_pk, tx.payload_bytes(), tx.admin_sig)
    if isinstance(tx, AccessRequestTx):
        return provider.verify(tx.user_pk, tx.payload_bytes(), tx.user_sig)
    if isinstance(tx, (LinkDeliveryTx, RedemptionLogTx)):
        if storage_pk is None:
            return False
        return provider.verify(storage_pk, tx.payload_bytes(), tx.storage_sig)
    if isinstance(tx, VerifiedRequestTx):
        return tx.locally_derived
    return False


# --- wire encoding -------------------------------------------------------------


def encode_transaction(tx: Transaction) -> bytes:
    """Full canonical encoding: payload fields followed by the signature."""
    w = Writer()
    w.raw(tx.payload_bytes())
    if isinstance(tx, RegisterUserTx):
        w.bytes_(tx.admin_sig)
    elif isinstance(tx, AccessRequestTx):
        w.bytes_(tx.user_sig)
    elif isinstance(tx, (LinkDeliveryTx, RedemptionLogTx)):
        w.bytes_(tx.storage_sig)
    elif isinstance(tx, VerifiedRequestTx):
        pass
    else:  # pragma: no cover - union is closed
        raise TransactionError(f"unknown transaction type {type(tx)!r}")
    return w.getvalue()


def decode_transaction(data: bytes) -> Transaction:
    r = Reader(data)
    tx = decode_transaction_from(r)
    r.expect_end()
    return tx


def decode_transaction_from(r: Reader) -> Transaction:
    tag = r.u8()
    if tag == TAG_REGISTER:
        admin_pk = r.bytes_()
        user_pk = r.bytes_()
        time = r.u64()
        sig = r.bytes_()
        return RegisterUserTx(admin_pk=admin_pk, user_pk=user_pk, time=time, admin_sig=sig)
    if tag == TAG_ACCESS_REQUEST:
        user_pk = r.bytes_()
        time = r.u64()
        info = RequestInfo.decode_from(r)
        sig = r.bytes_()
        return AccessRequestTx(user_pk=user_pk, time=time, info=info, user_sig=sig)
    if tag == TAG_LINK_DELIVERY:
        ciphertext = r.bytes_()
        request_id = r.bytes_()
        sig = r.bytes_()
        return LinkDeliveryTx(ciphertext=ciphertext, storage_sig=sig, request_id=request_id)
    if tag == TAG_REDEMPTION_LOG:
        nonce = r.bytes_()
        time = r.u64()
        user_pk = r.bytes_()
        sig = r.bytes_()
        return RedemptionLogTx(nonce=nonce, time=time, user_pk=user_pk, storage_sig=sig)
    if tag == TAG_VERIFIED:
        time = r.u64()
        n_user = r.u32()
        user_bits = tuple(r.u8() for _ in range(n_user))
        n_req = r.u32()
        req_bits = tuple(r.u8() for _ in range(n_req))
        request_id = r.bytes_()
        return VerifiedRequestTx(time=time, user_bits=user_bits, req_bits=req_bits, request_id=request_id)
    raise CodecError(f"unknown transaction tag {tag}")


def tx_id(tx: Transaction) -> bytes:
    """32-byte identity of a transaction: hash of its canonical encoding."""
    return sha256(encode_transaction(tx))


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
        return f"redemption(nonce={_short(tx.nonce)} user={_short(tx.user_pk)} time={tx.time})"
    if isinstance(tx, VerifiedRequestTx):
        return f"verified(rid={_short(tx.request_id)} time={tx.time})"
    return repr(tx)
