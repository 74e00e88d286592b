"""Blocks: signed, hash-chained containers of transactions.

The genesis block (height 0) is special: it carries the network
configuration instead of transactions and is unsigned, because every node
derives it locally from the shared configuration and requires bit-equality.
All later blocks are signed by the validator whose time slot they fall in.
"""

from __future__ import annotations

from dataclasses import dataclass

from .codec import Reader, Writer
from .crypto import DIGEST_LEN, KeyPair, Provider, sha256
from .transactions import Transaction, decode_transaction_from, encode_transaction

GENESIS_PREV_HASH = b"\x00" * DIGEST_LEN


class ConfigurationError(ValueError):
    """Invalid network configuration (too few validators, empty key sets)."""


@dataclass(frozen=True)
class GenesisConfig:
    """Everything a node needs to agree on before the first block.

    ``engine_fingerprint`` pins the decision engine (model weights plus
    priority rules) so every validator provably runs the same one.
    """

    admin_pks: tuple[bytes, ...]
    validators: tuple[bytes, ...]
    storage_pk: bytes
    engine_fingerprint: bytes
    genesis_time: int = 0
    block_interval: int = 1

    def __post_init__(self) -> None:
        if self.block_interval < 1:
            raise ConfigurationError("block_interval must be at least 1")
        if len(self.validators) < 3:
            raise ConfigurationError(
                f"need at least 3 validators, got {len(self.validators)}"
            )
        if not self.admin_pks:
            raise ConfigurationError("admin_pks must not be empty")
        if not self.storage_pk:
            raise ConfigurationError("storage_pk must not be empty")
        if len(self.engine_fingerprint) != DIGEST_LEN:
            raise ConfigurationError("engine_fingerprint must be a 32-byte digest")
        if len(set(self.validators)) != len(self.validators):
            raise ConfigurationError("validator keys must be distinct")

    def encode(self) -> bytes:
        w = Writer()
        w.u32(len(self.admin_pks))
        for pk in self.admin_pks:
            w.bytes_(pk)
        w.u32(len(self.validators))
        for pk in self.validators:
            w.bytes_(pk)
        w.bytes_(self.storage_pk)
        w.bytes_(self.engine_fingerprint)
        w.u64(self.genesis_time)
        w.u32(self.block_interval)
        return w.getvalue()

    @classmethod
    def decode(cls, data: bytes) -> "GenesisConfig":
        r = Reader(data)
        admin_pks = tuple(r.bytes_() for _ in range(r.u32()))
        validators = tuple(r.bytes_() for _ in range(r.u32()))
        storage_pk = r.bytes_()
        fingerprint = r.bytes_()
        genesis_time = r.u64()
        block_interval = r.u32()
        r.expect_end()
        return cls(
            admin_pks=admin_pks,
            validators=validators,
            storage_pk=storage_pk,
            engine_fingerprint=fingerprint,
            genesis_time=genesis_time,
            block_interval=block_interval,
        )


@dataclass(frozen=True)
class Block:
    height: int
    prev_hash: bytes
    time: int
    transactions: tuple[Transaction, ...]
    validator_pk: bytes
    validator_sig: bytes
    genesis_config: GenesisConfig | None = None

    def signing_payload(self) -> bytes:
        """Canonical encoding of every field except the signature."""
        w = Writer()
        w.u64(self.height)
        w.raw(self.prev_hash)
        w.u64(self.time)
        w.u32(len(self.transactions))
        for tx in self.transactions:
            w.bytes_(encode_transaction(tx))
        w.bytes_(self.validator_pk)
        if self.genesis_config is None:
            w.boolean(False)
        else:
            w.boolean(True)
            w.bytes_(self.genesis_config.encode())
        return w.getvalue()


def encode_block(block: Block) -> bytes:
    w = Writer()
    w.raw(block.signing_payload())
    w.bytes_(block.validator_sig)
    return w.getvalue()


def decode_block(data: bytes) -> Block:
    r = Reader(data)
    height = r.u64()
    prev_hash = r.raw(DIGEST_LEN)
    time = r.u64()
    n_txs = r.u32()
    txs = []
    for _ in range(n_txs):
        tx_bytes = r.bytes_()
        tr = Reader(tx_bytes)
        txs.append(decode_transaction_from(tr))
        tr.expect_end()
    validator_pk = r.bytes_()
    config = GenesisConfig.decode(r.bytes_()) if r.boolean() else None
    sig = r.bytes_()
    r.expect_end()
    return Block(
        height=height,
        prev_hash=prev_hash,
        time=time,
        transactions=tuple(txs),
        validator_pk=validator_pk,
        validator_sig=sig,
        genesis_config=config,
    )


def block_hash(block: Block) -> bytes:
    return sha256(encode_block(block))


def make_genesis_block(config: GenesisConfig) -> Block:
    """Derive the genesis block from configuration; identical on every node."""
    return Block(
        height=0,
        prev_hash=GENESIS_PREV_HASH,
        time=config.genesis_time,
        transactions=(),
        validator_pk=b"",
        validator_sig=b"",
        genesis_config=config,
    )


def seal_block(
    provider: Provider,
    leader: KeyPair,
    height: int,
    prev_hash: bytes,
    time: int,
    transactions: tuple[Transaction, ...],
) -> Block:
    """Build and sign a block as the scheduled leader."""
    unsigned = Block(
        height=height,
        prev_hash=prev_hash,
        time=time,
        transactions=transactions,
        validator_pk=leader.public_key,
        validator_sig=b"",
    )
    sig = provider.sign(leader.secret_key, unsigned.signing_payload())
    return Block(
        height=height,
        prev_hash=prev_hash,
        time=time,
        transactions=transactions,
        validator_pk=leader.public_key,
        validator_sig=sig,
    )


def verify_block_signature(provider: Provider, block: Block) -> bool:
    return provider.verify(block.validator_pk, block.signing_payload(), block.validator_sig)

