"""Canonical binary encoding primitives.

Every record that gets signed, hashed, or sent over a wire is serialized
through these helpers so the byte layout is fixed: integers are big-endian
fixed width, byte strings and UTF-8 strings are length-prefixed with a u32.

Each wire record declares its layout once, as an ordered table of
(attribute, codec) pairs; ``write_fields`` and ``read_fields`` walk that
table, so a record's encoder and decoder cannot disagree on field order.
A codec is a (write, read) pair over the checked ``Writer``/``Reader``
methods below.
"""

from __future__ import annotations

import io
import struct


class CodecError(ValueError):
    """Raised on malformed or truncated canonical encodings."""


class Writer:
    """Accumulates a canonical byte encoding."""

    def __init__(self) -> None:
        self._buf = io.BytesIO()

    def u8(self, value: int) -> None:
        if not 0 <= value <= 0xFF:
            raise CodecError(f"u8 out of range: {value}")
        self._buf.write(struct.pack(">B", value))

    def u32(self, value: int) -> None:
        if not 0 <= value <= 0xFFFFFFFF:
            raise CodecError(f"u32 out of range: {value}")
        self._buf.write(struct.pack(">I", value))

    def u64(self, value: int) -> None:
        if not 0 <= value <= 0xFFFFFFFFFFFFFFFF:
            raise CodecError(f"u64 out of range: {value}")
        self._buf.write(struct.pack(">Q", value))

    def boolean(self, value: bool) -> None:
        self.u8(1 if value else 0)

    def raw(self, data: bytes) -> None:
        """Append bytes with no length prefix (fixed-width fields only)."""
        self._buf.write(data)

    def bytes_(self, data: bytes) -> None:
        self.u32(len(data))
        self._buf.write(data)

    def string(self, text: str) -> None:
        self.bytes_(text.encode("utf-8"))

    def getvalue(self) -> bytes:
        return self._buf.getvalue()


class Reader:
    """Decodes a canonical byte encoding produced by :class:`Writer`."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def _take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise CodecError("truncated encoding")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self._take(1)[0]

    def u32(self) -> int:
        return struct.unpack(">I", self._take(4))[0]

    def u64(self) -> int:
        return struct.unpack(">Q", self._take(8))[0]

    def boolean(self) -> bool:
        v = self.u8()
        if v not in (0, 1):
            raise CodecError(f"invalid boolean byte: {v}")
        return v == 1

    def raw(self, n: int) -> bytes:
        return self._take(n)

    def bytes_(self) -> bytes:
        n = self.u32()
        return self._take(n)

    def string(self) -> str:
        try:
            return self.bytes_().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecError("invalid utf-8 in string field") from exc

    def remaining(self) -> int:
        return len(self._data) - self._pos

    def expect_end(self) -> None:
        if self._pos != len(self._data):
            raise CodecError(f"{self.remaining()} trailing bytes after record")


# -- field codecs ----------------------------------------------------------------

U8 = (Writer.u8, Reader.u8)
U32 = (Writer.u32, Reader.u32)
U64 = (Writer.u64, Reader.u64)
BOOLEAN = (Writer.boolean, Reader.boolean)
BYTES = (Writer.bytes_, Reader.bytes_)
STRING = (Writer.string, Reader.string)


def fixed(n: int):
    """Exactly ``n`` raw bytes, no length prefix."""
    return Writer.raw, lambda r: r.raw(n)


def array(codec, n: int):
    """Exactly ``n`` elements with no count (the writer writes what it is
    given); reads back a tuple."""
    write, read = codec

    def write_all(w: Writer, values) -> None:
        for value in values:
            write(w, value)

    return write_all, lambda r: tuple(read(r) for _ in range(n))


def counted(codec):
    """A u32 element count, then each element; reads back a tuple."""
    write, read = codec

    def write_all(w: Writer, values) -> None:
        w.u32(len(values))
        for value in values:
            write(w, value)

    return write_all, lambda r: tuple(read(r) for _ in range(r.u32()))


def optional(codec):
    """A presence boolean, then the value when present (``None`` otherwise)."""
    write, read = codec

    def write_opt(w: Writer, value) -> None:
        w.boolean(value is not None)
        if value is not None:
            write(w, value)

    return write_opt, lambda r: read(r) if r.boolean() else None


def inline(cls):
    """A record of type ``cls`` written in place from its ``FIELDS`` table."""
    return (
        lambda w, value: write_fields(w, value, cls.FIELDS),
        lambda r: cls(**read_fields(r, cls.FIELDS)),
    )


def write_fields(w: Writer, obj, fields) -> None:
    """Write ``obj``'s attributes in table order."""
    for name, (write, _) in fields:
        write(w, getattr(obj, name))


def read_fields(r: Reader, fields) -> dict:
    """Read a table's fields back, in order, as keyword arguments."""
    return {name: read(r) for name, (_, read) in fields}


_MEMO_PREFIX = "_memo_"


class Memoized:
    """Base of frozen records that cache values derived from their fields,
    such as an encoding or a hash.

    ``memo`` keeps each value in the instance dict, outside the dataclass
    fields, so ``==``, ``hash`` and ``repr`` never see it, a
    ``dataclasses.replace`` copy computes its own, and pickling leaves it
    out. A value is only ever computed from the fields, never taken from
    received bytes.
    """

    def memo(self, key: str, compute):
        """``compute(self)``, computed on first use; ``key`` starts with ``_memo_``."""
        cache = self.__dict__
        value = cache.get(key)
        if value is None:
            value = cache[key] = compute(self)
        return value

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if not k.startswith(_MEMO_PREFIX)}


def encode_record(obj, fields) -> bytes:
    """``obj``'s fields alone, in table order."""
    w = Writer()
    write_fields(w, obj, fields)
    return w.getvalue()


def decode_record(cls, data: bytes, fields):
    """The inverse of ``encode_record``; trailing bytes are an error."""
    r = Reader(data)
    values = read_fields(r, fields)
    r.expect_end()
    return cls(**values)
