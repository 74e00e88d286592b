"""Length-prefixed framing over TCP sockets.

One frame = u32 big-endian payload length + payload. The first payload
byte selects the channel: node gossip (binary envelope) or service calls
(JSON). Helpers here stay protocol-agnostic so both channels share them.
"""

from __future__ import annotations

import socket
import struct

MAX_FRAME = 16 * 1024 * 1024

CHANNEL_NODE = 0
CHANNEL_SERVICE = 1


class TransportError(ConnectionError):
    pass


def send_frame(sock: socket.socket, payload: bytes) -> None:
    if len(payload) > MAX_FRAME:
        raise TransportError(f"frame too large: {len(payload)}")
    sock.sendall(struct.pack(">I", len(payload)) + payload)


_RECV_CHUNK = 1 << 16


def _recv_exact(sock: socket.socket, n: int) -> bytes | None:
    # the buffer grows with the bytes that arrive, not with the length a
    # peer declares; appending to a bytearray is amortized linear
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(min(n - len(buf), _RECV_CHUNK))
        if not chunk:
            return None
        buf += chunk
    return bytes(buf)


def recv_frame(sock: socket.socket) -> bytes | None:
    """One frame, or None on clean EOF."""
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    if length > MAX_FRAME:
        raise TransportError(f"frame too large: {length}")
    payload = _recv_exact(sock, length)
    if payload is None:
        raise TransportError("connection closed mid-frame")
    return payload


def send_oneway(addr: tuple[str, int], payload: bytes, timeout: float = 5.0) -> None:
    """Fire-and-forget frame; raises TransportError when unreachable."""
    try:
        with socket.create_connection(addr, timeout=timeout) as sock:
            send_frame(sock, payload)
    except OSError as exc:
        raise TransportError(f"cannot reach {addr}: {exc}") from exc


def call(addr: tuple[str, int], payload: bytes, timeout: float = 5.0) -> bytes:
    """Request/response round trip on a fresh connection."""
    try:
        with socket.create_connection(addr, timeout=timeout) as sock:
            send_frame(sock, payload)
            sock.shutdown(socket.SHUT_WR)
            reply = recv_frame(sock)
    except OSError as exc:
        raise TransportError(f"cannot reach {addr}: {exc}") from exc
    if reply is None:
        raise TransportError(f"no reply from {addr}")
    return reply
