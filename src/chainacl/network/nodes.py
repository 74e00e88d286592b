"""Transport-agnostic node state machines.

A core consumes one message (or a clock tick) and returns the messages it
wants sent, as (destination name, message) pairs. The simulator and the
socket transport both drive these same cores, so consensus behavior is
identical in tests and live runs. Cores append human-readable strings to
``events`` for the world trace.
"""

from __future__ import annotations

from ..blocks import Block, block_hash, encode_block
from ..crypto import KeyPair, Provider
from ..ledger import (
    ContractHooks,
    LedgerState,
    apply_block,
    build_block,
    fork_choice,
    genesis,
    replay_chain,
    state_digest,
    submit_to_pool,
)
from ..storage import DenialRecord, RedeemError, StorageService
from ..contracts import encrypt_request_results
from ..transactions import tx_id
from .messages import (
    BlockAnnounce,
    ChainQuery,
    ChainReply,
    Message,
    RedeemCall,
    RedeemReply,
    ResultDelivery,
    TipNotice,
    TxGossip,
)

Outgoing = list[tuple[str, Message]]

# the storage node's transactions re-gossiped at each retransmit tick
RETRANSMIT_BACKLOG = 32


class ValidatorCore:
    """One validator: pool admission, slot sealing, chain sync."""

    def __init__(
        self,
        name: str,
        keypair: KeyPair,
        config,
        runtime: ContractHooks | None,
        provider: Provider,
        validator_names: tuple[str, ...],
        storage_name: str,
        retransmit_interval: int = 5,
    ):
        self.name = name
        self.keypair = keypair
        self.runtime = runtime
        self.provider = provider
        self.validator_names = tuple(validator_names)
        self.storage_name = storage_name
        self.retransmit_interval = max(1, retransmit_interval)
        self.state: LedgerState = genesis(config)
        self.events: list[str] = []

    # -- helpers ------------------------------------------------------------

    def _peers(self) -> list[str]:
        return [n for n in self.validator_names if n != self.name]

    def digest(self) -> bytes:
        return state_digest(self.state)

    def tip(self) -> bytes:
        return self.state.tip_hash

    # -- inbound ------------------------------------------------------------

    def admit(self, tx, now: int) -> tuple[str | None, Outgoing]:
        """Pool admission: the reject reason, or None and the gossip of the
        admitted transaction to the other validators."""
        reason = submit_to_pool(self.state, tx, now, self.provider)
        if reason is not None:
            self.events.append(f"tx_reject id={tx_id(tx).hex()[:10]} reason={reason}")
            return reason, []
        self.events.append(f"tx_accept id={tx_id(tx).hex()[:10]}")
        gossip = TxGossip(tx=tx)
        return None, [(peer, gossip) for peer in self._peers()]

    def handle(self, msg: Message, src: str, now: int) -> Outgoing:
        if isinstance(msg, TxGossip):
            self.admit(msg.tx, now)  # received gossip is not relayed
            return []
        if isinstance(msg, BlockAnnounce):
            return self._receive_block(msg.block, src, now)
        if isinstance(msg, TipNotice):
            if msg.height > self.state.height:
                return [(src, ChainQuery(after_height=0))]
            return []
        if isinstance(msg, ChainQuery):
            return [(src, ChainReply(blocks=tuple(self.state.chain)))]
        if isinstance(msg, ChainReply):
            self._consider_chain(msg.blocks)
            return []
        self.events.append(f"ignored {type(msg).__name__}")
        return []

    def _receive_block(self, block: Block, src: str, now: int) -> Outgoing:
        if block.height <= self.state.height:
            return []
        if block.height > self.state.height + 1:
            return [(src, ChainQuery(after_height=0))]
        outcome = apply_block(self.state, block, self.runtime, self.provider)
        if not outcome.ok:
            self.events.append(
                f"block_reject h={block.height} hash={block_hash(block).hex()[:10]} reason={outcome.reason}"
            )
            return []
        assert outcome.state is not None
        self.state = outcome.state
        self.events.append(f"block_apply h={block.height} hash={block_hash(block).hex()[:10]}")
        return []

    def _consider_chain(self, blocks: tuple[Block, ...]) -> None:
        if not blocks:
            return
        if encode_block(blocks[0]) != encode_block(self.state.chain[0]):
            # another network's chain: adopting it would replace this node's
            # validators, admins and storage key
            self.events.append("chain_reject reason=foreign_genesis")
            return
        mine = self.state.chain
        if fork_choice([mine, list(blocks)]) is mine:
            return
        try:
            fresh = replay_chain(blocks, self.runtime, self.provider)
        except ValueError as exc:
            self.events.append(f"chain_reject reason={exc}")
            return
        # carry over pool entries the new chain has not included
        fresh.pending_pool = {
            txid: tx for txid, tx in self.state.pending_pool.items() if txid not in fresh.seen_tx_ids
        }
        self.state = fresh
        self.events.append(f"chain_adopt h={fresh.height} tip={fresh.tip_hash.hex()[:10]}")

    # -- clock ----------------------------------------------------------------

    def on_tick(self, now: int) -> Outgoing:
        out: Outgoing = []
        block, outcome = build_block(self.state, self.keypair, now, self.runtime, self.provider)
        if outcome.state is not None:
            self.state = outcome.state  # the sealed block, already executed
        for tx, why in outcome.skipped:
            self.events.append(f"tx_drop id={tx_id(tx).hex()[:10]} reason={why}")
            self.state.pending_pool.pop(tx_id(tx), None)
        if block is not None:
            self.events.append(
                f"seal h={block.height} hash={block_hash(block).hex()[:10]} txs={len(block.transactions)}"
            )
            announce = BlockAnnounce(block=block)
            out.extend((peer, announce) for peer in self._peers())
            # only the sealing validator delivers the decisions off-chain,
            # all of one block's in one envelope
            if outcome.results:
                envelope = encrypt_request_results(
                    self.provider, outcome.results, self.state.storage_pk, self.keypair
                )
                out.append((self.storage_name, ResultDelivery(envelope=envelope)))
        if now % self.retransmit_interval == 0:
            notice = TipNotice(height=self.state.height, tip_hash=self.state.tip_hash)
            out.extend((peer, notice) for peer in self._peers())
            for tx in self.state.pending_pool.values():
                gossip = TxGossip(tx=tx)
                out.extend((peer, gossip) for peer in self._peers())
        return out


class StorageCore:
    """The storage entity wired to the network: links in, payloads out."""

    def __init__(
        self,
        name: str,
        keypair: KeyPair,
        config,
        provider: Provider,
        validator_names: tuple[str, ...],
        retransmit_interval: int = 5,
    ):
        self.name = name
        self.validator_names = tuple(validator_names)
        self.retransmit_interval = max(1, retransmit_interval)
        self.service = StorageService(keypair=keypair, validators=config.validators, provider=provider)
        self._recent_txs: list = []
        self.events: list[str] = []

    def _gossip_tx(self, tx) -> Outgoing:
        self._recent_txs.append(tx)
        if len(self._recent_txs) > RETRANSMIT_BACKLOG:
            self._recent_txs = self._recent_txs[-RETRANSMIT_BACKLOG:]
        gossip = TxGossip(tx=tx)
        return [(v, gossip) for v in self.validator_names]

    def handle(self, msg: Message, src: str, now: int) -> Outgoing:
        if isinstance(msg, ResultDelivery):
            gossip: Outgoing = []
            for issued in self.service.handle_request_results(msg.envelope, now):
                if isinstance(issued, DenialRecord):
                    self.events.append(f"result_no_link reason={issued.reason}")
                else:
                    self.events.append(f"link_minted req={issued.request_id.hex()[:10]}")
                    gossip.extend(self._gossip_tx(issued))
            return gossip
        if isinstance(msg, RedeemCall):
            reply, gossip = self.redeem(msg.link_token, msg.nonce, msg.operation, now)
            return [(msg.reply_to, reply)] + gossip
        self.events.append(f"ignored {type(msg).__name__}")
        return []

    def redeem(self, link_token: bytes, nonce: bytes, operation: int, now: int) -> tuple[RedeemReply, Outgoing]:
        """Spend a link: the caller's reply, and the gossip of the redemption
        record, which also joins the retransmit backlog."""
        try:
            payload, log_tx = self.service.redeem(link_token, nonce, operation, now)
        except RedeemError as exc:
            self.events.append(f"redeem_reject reason={exc.reason}")
            return RedeemReply(ok=False, reason=exc.reason, payload=b""), []
        self.events.append(f"redeem_ok user={log_tx.user_pk.hex()[:10]}")
        return RedeemReply(ok=True, reason="", payload=payload), self._gossip_tx(log_tx)

    def on_tick(self, now: int) -> Outgoing:
        self.service.expire_links(now)
        out: Outgoing = []
        if now % self.retransmit_interval == 0:
            for tx in self._recent_txs:
                gossip = TxGossip(tx=tx)
                out.extend((v, gossip) for v in self.validator_names)
        return out


class UserCore:
    """User nodes only originate transactions and collect direct replies."""

    def __init__(self, name: str):
        self.name = name
        self.replies: list[RedeemReply] = []
        self.events: list[str] = []

    def handle(self, msg: Message, src: str, now: int) -> Outgoing:
        if isinstance(msg, RedeemReply):
            self.replies.append(msg)
            self.events.append(f"redeem_reply ok={msg.ok} reason={msg.reason or '-'}")
        return []

    def on_tick(self, now: int) -> Outgoing:
        return []
