"""Blocks: signed, hash-chained containers of transactions.

The genesis block (height 0) is special: it carries the network
configuration instead of transactions and is unsigned, because every node
derives it locally from the shared configuration and requires bit-equality.
All later blocks are signed by the validator whose time slot they fall in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .codec import BYTES, U32, U64, Memoized, Writer, counted, decode_record, encode_record, fixed, optional, write_fields
from .crypto import DIGEST_LEN, KeyPair, Provider, sha256
from .transactions import TRANSACTION, Transaction

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

    FIELDS = (
        ("admin_pks", counted(BYTES)),
        ("validators", counted(BYTES)),
        ("storage_pk", BYTES),
        ("engine_fingerprint", BYTES),
        ("genesis_time", U64),
        ("block_interval", U32),
    )

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
        return encode_record(self, self.FIELDS)

    @classmethod
    def decode(cls, data: bytes) -> "GenesisConfig":
        return decode_record(cls, data, cls.FIELDS)


# a genesis configuration carried inside a block: its encoding, length-prefixed
_CONFIG = (lambda w, config: w.bytes_(config.encode()), lambda r: GenesisConfig.decode(r.bytes_()))


@dataclass(frozen=True)
class Block(Memoized):
    """A frozen block; its signing payload, wire encoding and hash are
    computed once and cached (see ``codec.Memoized``)."""

    height: int
    prev_hash: bytes
    time: int
    transactions: tuple[Transaction, ...]
    validator_pk: bytes
    validator_sig: bytes
    genesis_config: GenesisConfig | None = None

    # signed fields in wire order; the signature follows them on the wire
    FIELDS = (
        ("height", U64),
        ("prev_hash", fixed(DIGEST_LEN)),
        ("time", U64),
        ("transactions", counted(TRANSACTION)),
        ("validator_pk", BYTES),
        ("genesis_config", optional(_CONFIG)),
    )

    def signing_payload(self) -> bytes:
        """Canonical encoding of every field except the signature."""
        return self.memo("_memo_payload", lambda b: encode_record(b, b.FIELDS))


_SIGNATURE = (("validator_sig", BYTES),)
_BLOCK_WIRE = Block.FIELDS + _SIGNATURE


def encode_block(block: Block) -> bytes:
    return block.memo("_memo_wire", _wire)


def _wire(block: Block) -> bytes:
    w = Writer()
    w.raw(block.signing_payload())
    write_fields(w, block, _SIGNATURE)
    return w.getvalue()


def decode_block(data: bytes) -> Block:
    return decode_record(Block, data, _BLOCK_WIRE)


def block_hash(block: Block) -> bytes:
    return block.memo("_memo_hash", lambda b: sha256(encode_block(b)))


# a block carried inside another record: its encoding, length-prefixed
BLOCK = (lambda w, block: w.bytes_(encode_block(block)), lambda r: decode_block(r.bytes_()))


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
    return replace(unsigned, validator_sig=sig)


def block_signature_check(block: Block) -> tuple[bytes, bytes, bytes]:
    """The (signer, signed bytes, signature) the block is verified with."""
    return block.validator_pk, block.signing_payload(), block.validator_sig


def verify_block_signature(provider: Provider, block: Block) -> bool:
    return provider.verify(*block_signature_check(block))

