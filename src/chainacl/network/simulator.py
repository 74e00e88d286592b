"""Deterministic discrete-event network simulator.

Every run is a pure function of (node set, scripted inputs, seed): message
latency, drops, and partitions come from one seeded generator, nodes are
served in name order, and the logical clock is the block-slot clock. The
full event trace is kept as lines, so two runs with equal seeds can be
compared byte for byte.
"""

from __future__ import annotations

import bisect
import heapq
import random
from dataclasses import dataclass, field

from ..blocks import Block, ConfigurationError, GenesisConfig, block_hash
from ..crypto import KeyPair, Provider, sha256
from ..ledger import ContractHooks, poll_request, slot_leader
from ..transactions import (
    LinkDeliveryTx,
    RedemptionLogTx,
    RequestInfo,
    Transaction,
    build_access_request_tx,
    tx_id,
)
from .messages import (
    BlockAnnounce,
    Message,
    RedeemCall,
    RedeemReply,
    TipNotice,
    TxGossip,
)
from .nodes import StorageCore, UserCore, ValidatorCore

ADVERSARY_BEHAVIORS = ("replay_link", "tamper_block", "unauthorized_request", "reuse_nonce")

ROLE_VALIDATOR = "validator"
ROLE_STORAGE = "storage"
ROLE_USER = "user"


@dataclass(frozen=True)
class NetworkConfig:
    seed: int = 0
    latency: int | tuple[int, int] = 1
    drop_prob: float = 0.0
    partitions: tuple[tuple[int, int, frozenset[str]], ...] = ()
    retransmit_interval: int = 5

    def __post_init__(self):
        if not (0.0 <= self.drop_prob < 1.0):
            raise ConfigurationError("drop_prob must be in [0, 1)")
        lo = self.latency if isinstance(self.latency, int) else self.latency[0]
        hi = self.latency if isinstance(self.latency, int) else self.latency[1]
        if lo < 1 or hi < lo:
            raise ConfigurationError("latency must be >= 1 tick")


@dataclass
class SimNode:
    name: str
    role: str
    core: object
    inbox: list[tuple[str, Message]] = field(default_factory=list)
    crashed: bool = False


@dataclass
class ConvergenceReport:
    ticks: int
    agreement: bool
    height: int
    tips: dict[str, str]
    digests: dict[str, str]
    timed_out: bool


class World:
    def __init__(self, net: NetworkConfig = NetworkConfig()):
        self.net = net
        self.tick = 0
        self.rng = random.Random(net.seed)
        self.nodes: dict[str, SimNode] = {}
        # node names in sorted order, all and validators only; users join
        # lazily, on their first message, so the lists are kept as nodes
        # are added rather than sorted on each tick and poll
        self._names: list[str] = []
        self._validator_names: list[str] = []
        self.trace: list[str] = []
        self._queue: list[tuple[int, int, str, str, Message]] = []
        self._seq = 0

    # -- construction -----------------------------------------------------------

    def _add(self, node: SimNode) -> None:
        if node.name in self.nodes:
            raise ConfigurationError(f"node {node.name!r} already exists")
        bisect.insort(self._names, node.name)
        if node.role == ROLE_VALIDATOR:
            bisect.insort(self._validator_names, node.name)
        self.nodes[node.name] = node

    def _derived_seed(self, name: str) -> int:
        return int.from_bytes(sha256(f"{self.net.seed}/{name}".encode())[:8], "big")

    def add_validator(
        self,
        name: str,
        keypair: KeyPair,
        config: GenesisConfig,
        runtime: ContractHooks | None,
        validator_names: tuple[str, ...],
        storage_name: str,
    ) -> ValidatorCore:
        core = ValidatorCore(
            name=name,
            keypair=keypair,
            config=config,
            runtime=runtime,
            provider=Provider(self._derived_seed(name)),
            validator_names=validator_names,
            storage_name=storage_name,
            retransmit_interval=self.net.retransmit_interval,
        )
        self._add(SimNode(name=name, role=ROLE_VALIDATOR, core=core))
        return core

    def add_storage(
        self,
        name: str,
        keypair: KeyPair,
        config: GenesisConfig,
        validator_names: tuple[str, ...],
    ) -> StorageCore:
        core = StorageCore(
            name=name,
            keypair=keypair,
            config=config,
            provider=Provider(self._derived_seed(name)),
            validator_names=validator_names,
            retransmit_interval=self.net.retransmit_interval,
        )
        self._add(SimNode(name=name, role=ROLE_STORAGE, core=core))
        return core

    def add_user(self, name: str) -> UserCore:
        core = UserCore(name=name)
        self._add(SimNode(name=name, role=ROLE_USER, core=core))
        return core

    # -- routing ------------------------------------------------------------------

    def _log(self, text: str) -> None:
        self.trace.append(f"tick={self.tick} {text}")

    def _partitioned(self, a: str, b: str) -> bool:
        for start, end, group in self.net.partitions:
            if start <= self.tick < end and (a in group) != (b in group):
                return True
        return False

    def _latency(self) -> int:
        if isinstance(self.net.latency, int):
            return max(1, self.net.latency)
        lo, hi = self.net.latency
        return self.rng.randint(lo, hi)

    def _send(self, src: str, dst: str, msg: Message) -> None:
        kind = type(msg).__name__
        if dst not in self.nodes:
            self._log(f"send_fail src={src} dst={dst} {kind} (unknown destination)")
            return
        if self._partitioned(src, dst):
            self._log(f"partitioned src={src} dst={dst} {kind}")
            return
        if self.net.drop_prob > 0.0 and self.rng.random() < self.net.drop_prob:
            self._log(f"drop src={src} dst={dst} {kind}")
            return
        deliver_at = self.tick + self._latency()
        heapq.heappush(self._queue, (deliver_at, self._seq, src, dst, msg))
        self._seq += 1
        self._log(f"send src={src} dst={dst} {kind} eta={deliver_at}")

    def submit_transaction(self, origin: str, tx: Transaction) -> None:
        """Gossip a transaction from origin to every validator."""
        if origin not in self.nodes:
            self.add_user(origin)
        for name in self._validator_names:
            self._send(origin, name, TxGossip(tx=tx))

    def send_message(self, src: str, dst: str, msg: Message) -> None:
        if src not in self.nodes:
            self.add_user(src)
        self._send(src, dst, msg)

    # -- clock ----------------------------------------------------------------------

    def _drain_events(self, node: SimNode) -> None:
        for event in node.core.events:
            self._log(f"node={node.name} {event}")
        node.core.events.clear()

    def step(self) -> None:
        """Advance one tick: deliver due messages, handle, then clock every node."""
        self.tick += 1
        while self._queue and self._queue[0][0] <= self.tick:
            _, _, src, dst, msg = heapq.heappop(self._queue)
            node = self.nodes[dst]
            if node.crashed:
                self._log(f"lost_to_crashed dst={dst} {type(msg).__name__}")
                continue
            node.inbox.append((src, msg))
        for name in self._names:
            node = self.nodes[name]
            if node.crashed:
                node.inbox.clear()
                continue
            inbox, node.inbox = node.inbox, []
            for src, msg in inbox:
                for dst, out in node.core.handle(msg, src, self.tick):
                    self._send(name, dst, out)
                self._drain_events(node)
        for name in self._names:
            node = self.nodes[name]
            if node.crashed:
                continue
            for dst, out in node.core.on_tick(self.tick):
                self._send(name, dst, out)
            self._drain_events(node)

    def run(self, ticks: int) -> None:
        for _ in range(ticks):
            self.step()

    # -- inspection -------------------------------------------------------------------

    def validator_names(self) -> list[str]:
        return list(self._validator_names)

    def honest_validators(self) -> list[SimNode]:
        return [
            self.nodes[n]
            for n in self.validator_names()
            if not self.nodes[n].crashed
        ]

    def storage_node(self) -> SimNode:
        for name in self._names:
            if self.nodes[name].role == ROLE_STORAGE:
                return self.nodes[name]
        raise ConfigurationError("world has no storage node")

    def poll(self, request_id: bytes, validator: str | None = None):
        name = validator or self._validator_names[0]
        return poll_request(self.nodes[name].core.state, request_id, self.tick)

    def _message_material(self, dst: str, msg: Message) -> bool:
        node = self.nodes[dst]
        if node.crashed:
            return False
        if isinstance(msg, TipNotice):
            return False
        if isinstance(msg, TxGossip) and node.role == ROLE_VALIDATOR:
            txid = tx_id(msg.tx)
            state = node.core.state
            return txid not in state.seen_tx_ids and txid not in state.pending_pool
        if isinstance(msg, BlockAnnounce) and node.role == ROLE_VALIDATOR:
            return msg.block.height > node.core.state.height
        if isinstance(msg, RedeemReply):
            return False
        return True

    def converged(self) -> bool:
        honest = self.honest_validators()
        if not honest:
            return False
        tips = {node.core.tip() for node in honest}
        if len(tips) != 1:
            return False
        digests = {node.core.digest() for node in honest}
        if len(digests) != 1:
            return False
        if any(node.core.state.pending_pool for node in honest):
            return False
        return not any(self._message_material(dst, msg) for _, _, _, dst, msg in self._queue)

    def report(self, timed_out: bool = False) -> ConvergenceReport:
        honest = self.honest_validators()
        tips = {n.name: n.core.tip().hex() for n in honest}
        digests = {n.name: n.core.digest().hex() for n in honest}
        return ConvergenceReport(
            ticks=self.tick,
            agreement=len(set(tips.values())) == 1 and len(set(digests.values())) == 1,
            height=max((n.core.state.height for n in honest), default=0),
            tips=tips,
            digests=digests,
            timed_out=timed_out,
        )

    def run_until_converged(self, max_ticks: int) -> ConvergenceReport:
        start = self.tick
        while self.tick - start < max_ticks:
            self.step()
            if self.converged():
                return self.report(timed_out=False)
        return self.report(timed_out=not self.converged())

    # -- faults and adversaries -------------------------------------------------------

    def crash(self, name: str) -> None:
        self.nodes[name].crashed = True
        self._log(f"crash node={name}")

    def inject_adversary(self, behavior: str, **kw) -> None:
        """Install one catalogued attack; assertions run on the trace after."""
        if behavior not in ADVERSARY_BEHAVIORS:
            raise ConfigurationError(f"unknown adversary behavior: {behavior}")
        if "adv" not in self.nodes:
            self.add_user("adv")
        self._log(f"adversary behavior={behavior}")
        if behavior == "unauthorized_request":
            self._unauthorized_request(**kw)
        elif behavior == "tamper_block":
            self._tamper_block(**kw)
        elif behavior == "replay_link":
            self._replay_link(**kw)
        elif behavior == "reuse_nonce":
            self._reuse_nonce(**kw)

    def _unauthorized_request(
        self,
        keypair: KeyPair | None = None,
        resource_id: int = 1,
        operation: int = 0,
        request_id: bytes | None = None,
    ) -> None:
        provider = Provider(self._derived_seed("adv"))
        kp = keypair or provider.generate_keypair(seed=sha256(b"adv-key"))
        info = RequestInfo(
            resource_id=resource_id,
            operation=operation,
            request_id=request_id or self.rng.randbytes(16),
        )
        tx = build_access_request_tx(provider, kp, info, time=self.tick)
        self.submit_transaction("adv", tx)

    def _tamper_block(self, validator: str | None = None) -> None:
        """Replay a sealed block's payload at the next height under a junk seal.

        Nodes only validate blocks that extend their chain, so the mutation
        is staged as the next block: right height, right slot leader key,
        but the signature cannot match the doctored content.
        """
        name = validator or self.validator_names()[0]
        state = self.nodes[name].core.state
        if len(state.chain) < 2:
            self._log("tamper_skip no sealed block to mutate")
            return
        victim = state.chain[self.rng.randrange(1, len(state.chain))]
        forge_time = self.tick + 1
        forged = Block(
            height=state.height + 1,
            prev_hash=state.tip_hash,
            time=forge_time,
            transactions=victim.transactions,
            validator_pk=slot_leader(forge_time, state.config),
            validator_sig=sha256(b"forged" + block_hash(victim)) * 2,
        )
        self._log(
            f"tamper_block h={victim.height} orig={block_hash(victim).hex()[:10]} "
            f"reannounced at h={forged.height}"
        )
        for v in self.validator_names():
            self._send("adv", v, BlockAnnounce(block=forged))

    def _find_chain_tx(self, predicate) -> Transaction | None:
        for name in self.validator_names():
            for block in reversed(self.nodes[name].core.state.chain):
                for tx in reversed(block.transactions):
                    if predicate(tx):
                        return tx
        return None

    def _replay_link(self, tx: Transaction | None = None) -> None:
        victim = tx or self._find_chain_tx(lambda t: isinstance(t, LinkDeliveryTx))
        if victim is None:
            self._log("replay_skip no link delivery on chain yet")
            return
        self._log(f"replay_link id={tx_id(victim).hex()[:10]}")
        self.submit_transaction("adv", victim)

    def _reuse_nonce(
        self,
        link_token: bytes | None = None,
        nonce: bytes | None = None,
        operation: int = 0,
        tx: Transaction | None = None,
    ) -> None:
        if link_token is not None and nonce is not None:
            call = RedeemCall(link_token=link_token, nonce=nonce, operation=operation, reply_to="adv")
            self._log("reuse_nonce direct redemption replay")
            self._send("adv", self.storage_node().name, call)
            return
        victim = tx or self._find_chain_tx(lambda t: isinstance(t, RedemptionLogTx))
        if victim is None:
            self._log("reuse_skip no redemption on chain yet")
            return
        self._log(f"reuse_nonce id={tx_id(victim).hex()[:10]}")
        self.submit_transaction("adv", victim)
