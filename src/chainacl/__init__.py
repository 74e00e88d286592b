"""Permissioned proof-of-authority chain for data access control.

Registered users request operations on resources; validator nodes
authenticate and score each request with a small neural model layered
under admin priority rules, then record every step in an on-chain audit
log. Grants arrive as encrypted single-use links served by a storage
node. Everything is deterministic under explicit seeds, from key
generation to the network simulator.
"""

from .blocks import Block, ConfigurationError, GenesisConfig, block_hash, make_genesis_block, seal_block
from .contracts import (
    ContractError,
    ContractRuntime,
    EnvelopeError,
    RequestResult,
    decrypt_request_results,
    encrypt_request_result,
    encrypt_request_results,
    engine_fingerprint,
)
from .crypto import CryptoError, KeyPair, Provider, sha256
from .ledger import (
    FRESHNESS_WINDOW,
    LINK_LIFETIME,
    LedgerError,
    LedgerState,
    LogEntry,
    apply_block,
    build_block,
    fork_choice,
    genesis,
    poll_request,
    query_access_log,
    replay_chain,
    state_digest,
    validate_transaction,
)
from .storage import AccessLink, LinkGrant, RedeemError, StorageService, open_link_ciphertext
from .transactions import (
    AccessRequestTx,
    LinkDeliveryTx,
    OPERATION_NAMES,
    RedemptionLogTx,
    RegisterUserTx,
    RequestInfo,
    TransactionError,
    VerifiedRequestTx,
    build_access_request_tx,
    build_link_delivery_tx,
    build_redemption_log_tx,
    build_register_user_tx,
    decode_transaction,
    encode_transaction,
    tx_id,
)

__version__ = "0.1.0"

__all__ = [
    "AccessLink",
    "AccessRequestTx",
    "Block",
    "ConfigurationError",
    "ContractError",
    "ContractRuntime",
    "CryptoError",
    "EnvelopeError",
    "FRESHNESS_WINDOW",
    "GenesisConfig",
    "KeyPair",
    "LINK_LIFETIME",
    "LedgerError",
    "LedgerState",
    "LinkDeliveryTx",
    "LinkGrant",
    "LogEntry",
    "OPERATION_NAMES",
    "Provider",
    "RedeemError",
    "RedemptionLogTx",
    "RegisterUserTx",
    "RequestInfo",
    "RequestResult",
    "StorageService",
    "TransactionError",
    "VerifiedRequestTx",
    "apply_block",
    "block_hash",
    "build_access_request_tx",
    "build_block",
    "build_link_delivery_tx",
    "build_redemption_log_tx",
    "build_register_user_tx",
    "decode_transaction",
    "decrypt_request_results",
    "encode_transaction",
    "encrypt_request_result",
    "encrypt_request_results",
    "engine_fingerprint",
    "fork_choice",
    "genesis",
    "make_genesis_block",
    "open_link_ciphertext",
    "poll_request",
    "query_access_log",
    "replay_chain",
    "seal_block",
    "sha256",
    "state_digest",
    "tx_id",
    "validate_transaction",
    "__version__",
]
