"""Pinned wire bytes: the SHA-256 of one fixed encoding per wire type.

Round-trip tests pass for any self-consistent layout, so they cannot see a
field that moved. These digests can: they were taken from the encoding
before the layouts became field tables, and every type's bytes must stay
exactly as they were. The one deliberate change since: the redemption record
gained the request id it redeems, which re-pinned it and the three digests
whose bytes carry it (``sealed``, ``block_announce``, ``chain_reply``). Signatures are deterministic Ed25519 over keys derived
from fixed seeds, so each signed record also pins its signing payload.
"""

import pytest

from chainacl.blocks import Block, GenesisConfig, encode_block, make_genesis_block, seal_block
from chainacl.codec import Reader
from chainacl.contracts import RequestResult, encrypt_request_results
from chainacl.crypto import Provider, sha256
from chainacl.network.messages import (
    BlockAnnounce,
    ChainQuery,
    ChainReply,
    RedeemCall,
    RedeemReply,
    ResultDelivery,
    TipNotice,
    TxGossip,
    encode_message,
)
from chainacl.storage import LinkGrant
from chainacl.transactions import (
    RESOURCE_BITS_WIDTH,
    RequestInfo,
    VerifiedRequestTx,
    build_access_request_tx,
    build_link_delivery_tx,
    build_redemption_log_tx,
    build_register_user_tx,
    encode_transaction,
)

P = Provider()
ADMIN = P.generate_keypair(seed=b"pin/admin")
USER = P.generate_keypair(seed=b"pin/user")
STORAGE = P.generate_keypair(seed=b"pin/storage")
VALIDATORS = [P.generate_keypair(seed=b"pin/v%d" % i) for i in range(3)]
RID = bytes(range(16))

TXS = {
    "register": build_register_user_tx(P, ADMIN, USER.public_key, time=1_700_000_005),
    "access_request": build_access_request_tx(
        P, USER, RequestInfo(resource_id=513, operation=2, request_id=RID), time=1_700_000_009
    ),
    "link_delivery": build_link_delivery_tx(P, STORAGE, b"sealed link ciphertext", RID),
    "redemption": build_redemption_log_tx(P, STORAGE, b"n" * 16, 1_700_000_030, USER.public_key, RID),
    "verified": VerifiedRequestTx(
        time=1_700_000_009,
        user_bits=(0,) * 13 + (1, 0, 1),
        req_bits=(1, 0) * (RESOURCE_BITS_WIDTH // 2),
        request_id=RID,
    ),
}

CONFIG = GenesisConfig(
    admin_pks=(ADMIN.public_key,),
    validators=tuple(v.public_key for v in VALIDATORS),
    storage_pk=STORAGE.public_key,
    engine_fingerprint=sha256(b"pin/engine"),
    genesis_time=1_700_000_000,
    block_interval=2,
)
GENESIS = make_genesis_block(CONFIG)
BLOCK = seal_block(P, VALIDATORS[1], 1, b"\x11" * 32, 1_700_000_010, tuple(TXS.values()))

MESSAGES = {
    "tx_gossip": TxGossip(tx=TXS["access_request"]),
    "block_announce": BlockAnnounce(block=BLOCK),
    "tip_notice": TipNotice(height=42, tip_hash=b"\x22" * 32),
    "chain_query": ChainQuery(after_height=7),
    "chain_reply": ChainReply(blocks=(GENESIS, BLOCK)),
    "result_delivery": ResultDelivery(envelope=b"encrypted result envelope"),
    "redeem_call": RedeemCall(link_token=b"t" * 24, nonce=b"n" * 16, operation=3, reply_to="u17"),
    "redeem_reply": RedeemReply(ok=True, reason="", payload=b"resource payload"),
}

# records encoded on their own: the genesis file, the result a validator
# encrypts to the storage node, and the grant inside a link delivery
RECORDS = {
    "genesis_config": CONFIG,
    "request_result": RequestResult(
        request_id=RID,
        user_pk=USER.public_key,
        resource_id=513,
        operation=2,
        access_list=(True, False, True, False),
        granted=True,
        time=1_700_000_010,
        overridden=(False, True, False, False),
    ),
    "link_grant": LinkGrant(link_token=b"t" * 24, nonce=b"n" * 16, issued_at=1_700_000_020),
}

TX_DIGESTS = {
    "register": "802908b6d4bb60a9c2541bf7bafd3909b38fb4dd60780d7a7ce354eec498ae56",
    "access_request": "96f083093d5bc2d2be0aa9b252c71b98c664659ad95b2db8e6c40e4f432e922b",
    "link_delivery": "c9a619a9769c7b850adac9ac6a500546846f806f571f8a606c3be36f36020a51",
    "redemption": "69c68760c36906df33b11561508ab6d8bad21ab4cf51422bb1b903a79649bacb",
    "verified": "aae9d29a1924aa5d487b80126567ace8d55441b6984334145ef15863b90c70d1",
}

MESSAGE_DIGESTS = {
    "tx_gossip": "87df3b77aec770cffd249ec97da22f70ab2c2229f2f080134fb331a472d61953",
    "block_announce": "bde1195f89fda5f780c3b0f4e185a7f3927df6ce77576083a3c9f7dfb0117943",
    "tip_notice": "e5190517daa6dca4d5656d01ccbadabe09869dd4bebde29baaffbd8fd441ff1e",
    "chain_query": "ff7ea9afa16aff0fe857c4d8b24c7325211241217b12fee4e5214d85a785d21c",
    "chain_reply": "7e9315943ec06589041130e19b561f2bbb163fd2ea6ff8176eebb72ba67ffcb6",
    "result_delivery": "6ec1e85598cbbdfef60fc3629f1219ead898e93b986ded1289fa7bc65a50e393",
    "redeem_call": "96c4b8daeb7ffb606ebe4b0e361be3266822b419e34dc1a479474167d05a34ac",
    "redeem_reply": "db9d792c23545355560fe818c52c7ec656904dc9334f669f9dff15bb83809044",
}

BLOCK_DIGESTS = {
    "genesis": "340f8cd123dcd2ca3b11118a8e271a3025f93cd7ff223972b3fef40f554d2794",
    "sealed": "96fe6e3b33a35c70860021c191aa1e26309700a2af21716b40cb27c9543aa7ff",
}

RECORD_DIGESTS = {
    "genesis_config": "a4b24246623675a632500bfbcd7f7367e1e163f18f70ec82ba1037ed43619031",
    "request_result": "3338356e30b2b3dca7ca4fe9b78d0ee5e3708ad7904a63ad2bc07e6f80e3d80b",
    "link_grant": "9969f6a9b78fd8133bf8502ed6d20923ed2e77cc194c5ab0ec614afb2ec34799",
}


@pytest.mark.parametrize("name", sorted(TX_DIGESTS))
def test_transaction_bytes_are_pinned(name):
    assert sha256(encode_transaction(TXS[name])).hex() == TX_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(MESSAGE_DIGESTS))
def test_message_bytes_are_pinned(name):
    assert sha256(encode_message(MESSAGES[name])).hex() == MESSAGE_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(BLOCK_DIGESTS))
def test_block_bytes_are_pinned(name):
    block = {"genesis": GENESIS, "sealed": BLOCK}[name]
    assert sha256(encode_block(block)).hex() == BLOCK_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(RECORD_DIGESTS))
def test_record_bytes_are_pinned(name):
    assert sha256(RECORDS[name].encode()).hex() == RECORD_DIGESTS[name]


# the plaintext a validator seals for storage: one block's results, in order.
# Its digest was taken when one envelope began to carry a whole block.
ENVELOPE_RESULTS = (
    RECORDS["request_result"],
    RequestResult(
        request_id=bytes(range(16, 32)),
        user_pk=ADMIN.public_key,
        resource_id=7,
        operation=0,
        access_list=(False, False, True, True),
        granted=False,
        time=1_700_000_011,
    ),
)
ENVELOPE_PLAINTEXT_DIGEST = "445efde1be1d64ebd7bb5de7803bcc2ae8c26331bb021d9b93e5d918b7a720a5"


def test_result_envelope_plaintext_is_pinned():
    envelope = encrypt_request_results(P, ENVELOPE_RESULTS, STORAGE.public_key, VALIDATORS[0])
    plaintext = P.decrypt(STORAGE.secret_key, Reader(envelope).bytes_())
    assert plaintext == len(ENVELOPE_RESULTS).to_bytes(4, "big") + b"".join(r.encode() for r in ENVELOPE_RESULTS)
    assert sha256(plaintext).hex() == ENVELOPE_PLAINTEXT_DIGEST


def test_every_wire_type_is_pinned():
    assert {type(tx).__name__ for tx in TXS.values()} == {
        "RegisterUserTx",
        "AccessRequestTx",
        "LinkDeliveryTx",
        "RedemptionLogTx",
        "VerifiedRequestTx",
    }
    assert len({type(m) for m in MESSAGES.values()}) == 8
    assert isinstance(BLOCK, Block) and BLOCK.transactions and GENESIS.genesis_config is not None
