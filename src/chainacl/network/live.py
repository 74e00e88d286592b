"""Live nodes: the same cores as the simulator, served over local sockets.

Each node owns one listener. Incoming frames carry either a peer envelope
(binary message plus sender name) or a service call (JSON); the node
handles both under a single lock, so core state stays single-writer. A
ticker thread drives sealing off the wall clock, one slot per second by
default.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time

from ..codec import Reader, Writer
from ..ledger import submit_to_pool
from ..transactions import Transaction
from .messages import Message, TxGossip, decode_message, encode_message
from .nodes import StorageCore, ValidatorCore
from .transport import (
    CHANNEL_NODE,
    CHANNEL_SERVICE,
    TransportError,
    call,
    recv_frame,
    send_frame,
    send_oneway,
)
from ..service import dispatch_service


def _encode_envelope(src: str, msg: Message) -> bytes:
    w = Writer()
    w.u8(CHANNEL_NODE)
    w.string(src)
    w.bytes_(encode_message(msg))
    return w.getvalue()


class LiveNode:
    """Hosts one core on a TCP port and gossips to named peers."""

    def __init__(
        self,
        name: str,
        core: ValidatorCore | StorageCore,
        host: str,
        port: int,
        peers: dict[str, tuple[str, int]],
        tick_period: float = 0.2,
    ):
        self.name = name
        self.core = core
        self.host = host
        self.port = port
        self.peers = dict(peers)
        self.tick_period = tick_period
        self.role = "validator" if isinstance(core, ValidatorCore) else "storage"
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(32)
        listener.settimeout(0.2)
        self._listener = listener
        accept = threading.Thread(target=self._accept_loop, name=f"{self.name}-accept", daemon=True)
        ticker = threading.Thread(target=self._tick_loop, name=f"{self.name}-tick", daemon=True)
        self._threads = [accept, ticker]
        accept.start()
        ticker.start()

    def stop(self) -> None:
        self._stop.set()
        for t in self._threads:
            t.join(timeout=2.0)
        if self._listener is not None:
            self._listener.close()

    # -- network ------------------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            t = threading.Thread(target=self._serve_conn, args=(conn,), daemon=True)
            t.start()

    def _serve_conn(self, conn: socket.socket) -> None:
        with conn:
            conn.settimeout(5.0)
            try:
                frame = recv_frame(conn)
            except (TransportError, OSError):
                return
            if frame is None or not frame:
                return
            channel = frame[0]
            if channel == CHANNEL_NODE:
                self._handle_envelope(frame)
            elif channel == CHANNEL_SERVICE:
                reply = self._handle_service(frame[1:])
                try:
                    send_frame(conn, reply)
                except OSError:
                    pass

    def _handle_envelope(self, frame: bytes) -> None:
        try:
            r = Reader(frame)
            r.u8()
            src = r.string()
            msg = decode_message(r.bytes_())
            r.expect_end()
        except ValueError:
            return
        with self._lock:
            outgoing = self.core.handle(msg, src, self.now())
            self.core.events.clear()
        self._dispatch(outgoing)

    def _handle_service(self, payload: bytes) -> bytes:
        try:
            request = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            request = {"op": None}
        with self._lock:
            response = dispatch_service(self, request)
        return json.dumps(response, sort_keys=True).encode("utf-8")

    def _dispatch(self, outgoing: list[tuple[str, Message]]) -> None:
        for dst, msg in outgoing:
            if dst == self.name:
                with self._lock:
                    more = self.core.handle(msg, self.name, self.now())
                    self.core.events.clear()
                self._dispatch(more)
                continue
            addr = self.peers.get(dst)
            if addr is None:
                continue
            try:
                send_oneway(addr, _encode_envelope(self.name, msg), timeout=2.0)
            except TransportError as exc:
                # retransmission covers a peer that is down, but not a
                # message that can never be sent, such as one over MAX_FRAME
                print(f"{self.name}: {type(msg).__name__} to {dst} not sent: {exc}", file=sys.stderr)

    def _tick_loop(self) -> None:
        last = 0
        while not self._stop.is_set():
            now = self.now()
            if now > last:
                last = now
                with self._lock:
                    outgoing = self.core.on_tick(now)
                    self.core.events.clear()
                self._dispatch(outgoing)
            time.sleep(self.tick_period)

    # -- ServiceBackend -------------------------------------------------------

    def now(self) -> int:
        return int(time.time())

    def submit_tx(self, tx: Transaction) -> str | None:
        # caller already holds no lock; dispatch_service locked us
        if not isinstance(self.core, ValidatorCore):
            return "not_a_validator"
        reason = submit_to_pool(self.core.state, tx, self.now(), self.core.provider)
        if reason is not None:
            return reason
        msg = TxGossip(tx=tx)
        self._send_later([(p, msg) for p in self.peers if p != self.name])
        return None

    def _send_later(self, outgoing: list[tuple[str, Message]]) -> None:
        """Dispatch from a thread: the service caller holds the node lock,
        and its reply must not wait on peer availability."""
        threading.Thread(target=self._dispatch, args=(outgoing,), daemon=True).start()

    def ledger_state(self):
        if isinstance(self.core, ValidatorCore):
            return self.core.state
        return None

    def redeem(self, link_token: bytes, nonce: bytes, operation: int) -> tuple[bool, str, bytes]:
        if not isinstance(self.core, StorageCore):
            return False, "not_storage", b""
        reply, gossip = self.core.redeem(link_token, nonce, operation, self.now())
        self.core.events.clear()
        self._send_later(gossip)
        return reply.ok, reply.reason, reply.payload


def service_call(addr: tuple[str, int], request: dict, timeout: float = 5.0) -> dict:
    """Client side of the JSON service channel."""
    payload = bytes([CHANNEL_SERVICE]) + json.dumps(request).encode("utf-8")
    reply = call(addr, payload, timeout=timeout)
    return json.loads(reply.decode("utf-8"))
