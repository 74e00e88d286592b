"""Wire messages exchanged between nodes, canonical-encoded.

The same encoding serves the in-memory simulator traces and the socket
transport, so simulated and live runs speak an identical protocol. Each
message declares its ``KIND`` byte and its ``FIELDS`` table; the encoding
is the kind byte followed by the fields in table order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from ..blocks import BLOCK, Block
from ..codec import BOOLEAN, BYTES, STRING, U8, U64, Reader, Writer, counted, read_fields, write_fields
from ..transactions import TRANSACTION, Transaction


class MessageError(ValueError):
    pass


@dataclass(frozen=True)
class TxGossip:
    tx: Transaction

    KIND = 1
    FIELDS = (("tx", TRANSACTION),)


@dataclass(frozen=True)
class BlockAnnounce:
    block: Block

    KIND = 2
    FIELDS = (("block", BLOCK),)


@dataclass(frozen=True)
class TipNotice:
    height: int
    tip_hash: bytes

    KIND = 3
    FIELDS = (("height", U64), ("tip_hash", BYTES))


@dataclass(frozen=True)
class ChainQuery:
    after_height: int

    KIND = 4
    FIELDS = (("after_height", U64),)


@dataclass(frozen=True)
class ChainReply:
    blocks: tuple[Block, ...]

    KIND = 5
    FIELDS = (("blocks", counted(BLOCK)),)


@dataclass(frozen=True)
class ResultDelivery:
    """Validator-to-storage envelope with the RequestResults of one sealed block."""

    envelope: bytes

    KIND = 6
    FIELDS = (("envelope", BYTES),)


@dataclass(frozen=True)
class RedeemCall:
    link_token: bytes
    nonce: bytes
    operation: int
    reply_to: str

    KIND = 7
    FIELDS = (("link_token", BYTES), ("nonce", BYTES), ("operation", U8), ("reply_to", STRING))


@dataclass(frozen=True)
class RedeemReply:
    ok: bool
    reason: str
    payload: bytes

    KIND = 8
    FIELDS = (("ok", BOOLEAN), ("reason", STRING), ("payload", BYTES))


Message = Union[
    TxGossip,
    BlockAnnounce,
    TipNotice,
    ChainQuery,
    ChainReply,
    ResultDelivery,
    RedeemCall,
    RedeemReply,
]

_TYPES = (TxGossip, BlockAnnounce, TipNotice, ChainQuery, ChainReply, ResultDelivery, RedeemCall, RedeemReply)
_BY_KIND = {cls.KIND: cls for cls in _TYPES}


def encode_message(msg: Message) -> bytes:
    if type(msg) not in _TYPES:
        raise MessageError(f"unknown message type {type(msg).__name__}")
    w = Writer()
    w.u8(msg.KIND)
    write_fields(w, msg, msg.FIELDS)
    return w.getvalue()


def decode_message(data: bytes) -> Message:
    r = Reader(data)
    kind = r.u8()
    cls = _BY_KIND.get(kind)
    if cls is None:
        raise MessageError(f"unknown message kind {kind}")
    values = read_fields(r, cls.FIELDS)
    r.expect_end()
    return cls(**values)
