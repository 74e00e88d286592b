"""Live nodes: the same cores as the simulator, served over local sockets.

Each node serves one TCP port, a thread per connection. Incoming frames
carry either a peer envelope (binary message plus sender name) or a
service call (JSON); the node handles both under a single lock, so core
state stays single-writer. The messages that handling produces are sent
by the connection's own thread, once its reply is written and the
connection closed. A ticker thread drives sealing off the wall clock, one
slot per second by default.
"""

from __future__ import annotations

import json
import socket
import socketserver
import sys
import threading
import time

from ..codec import Reader, Writer
from ..transactions import Transaction
from .messages import Message, decode_message, encode_message
from .nodes import Outgoing, StorageCore, ValidatorCore
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


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True  # SO_REUSEADDR
    request_queue_size = 32  # listen backlog
    daemon_threads = True
    block_on_close = False  # handler threads are not joined on close


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
        self._server: _Server | None = None
        self._threads: list[threading.Thread] = []
        # what the service call being served under the lock has to send
        self._outbox: Outgoing = []

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        server = _Server((self.host, self.port), lambda conn, _addr, _server: self._serve_conn(conn))
        self._server = server
        serve = threading.Thread(
            target=server.serve_forever, args=(0.2,), name=f"{self.name}-serve", daemon=True
        )
        ticker = threading.Thread(target=self._tick_loop, name=f"{self.name}-tick", daemon=True)
        self._threads = [serve, ticker]
        serve.start()
        ticker.start()

    def stop(self) -> None:
        self._stop.set()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        for t in self._threads:
            t.join(timeout=2.0)

    # -- network ------------------------------------------------------------

    def _serve_conn(self, conn: socket.socket) -> None:
        outgoing: Outgoing = []
        with conn:
            conn.settimeout(5.0)
            try:
                frame = recv_frame(conn)
            except (TransportError, OSError):
                return
            if not frame:
                return
            channel = frame[0]
            if channel == CHANNEL_NODE:
                outgoing = self._handle_envelope(frame)
            elif channel == CHANNEL_SERVICE:
                reply, outgoing = self._handle_service(frame[1:])
                try:
                    send_frame(conn, reply)
                except OSError:
                    pass
        self._dispatch(outgoing)

    def _handle_envelope(self, frame: bytes) -> Outgoing:
        try:
            r = Reader(frame)
            r.u8()
            src = r.string()
            msg = decode_message(r.bytes_())
            r.expect_end()
        except ValueError:
            return []
        with self._lock:
            outgoing = self.core.handle(msg, src, self.now())
            self.core.events.clear()
        return outgoing

    def _handle_service(self, payload: bytes) -> tuple[bytes, Outgoing]:
        try:
            request = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            request = {"op": None}
        with self._lock:
            response = dispatch_service(self, request)
            outgoing, self._outbox = self._outbox, []
        return json.dumps(response, sort_keys=True).encode("utf-8"), outgoing

    def _dispatch(self, outgoing: Outgoing) -> None:
        for dst, msg in outgoing:
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

    # -- ServiceBackend: called by dispatch_service under the node lock ------

    def now(self) -> int:
        return int(time.time())

    def submit_tx(self, tx: Transaction) -> str | None:
        reason, gossip = self.core.admit(tx, self.now())
        self.core.events.clear()
        self._outbox += gossip
        return reason

    def ledger_state(self):
        if isinstance(self.core, ValidatorCore):
            return self.core.state
        return None

    def redeem(self, link_token: bytes, nonce: bytes, operation: int) -> tuple[bool, str, bytes]:
        reply, gossip = self.core.redeem(link_token, nonce, operation, self.now())
        self.core.events.clear()
        self._outbox += gossip
        return reply.ok, reply.reason, reply.payload


def service_call(addr: tuple[str, int], request: dict, timeout: float = 5.0) -> dict:
    """Client side of the JSON service channel."""
    payload = bytes([CHANNEL_SERVICE]) + json.dumps(request).encode("utf-8")
    reply = call(addr, payload, timeout=timeout)
    return json.loads(reply.decode("utf-8"))
