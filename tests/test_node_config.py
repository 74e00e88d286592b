"""Node config files: ``ServiceConfig.format`` is the inverse of ``parse``."""

from chainacl.service import ServiceConfig


def test_format_writes_fields_in_order_and_parses_back():
    storage = ServiceConfig(
        name="s0",
        role="storage",
        port=9110,
        key_file="net/keys/s0.sk",
        genesis_file="net/genesis.bin",
        data_dir="net",
        peers=(("v0", "127.0.0.1", 9101), ("v1", "127.0.0.1", 9102)),
    )
    assert storage.format() == (
        "name=s0\nrole=storage\nhost=127.0.0.1\nport=9110\nkey_file=net/keys/s0.sk\n"
        "genesis_file=net/genesis.bin\ndata_dir=net\nstorage_node=s0\n"
        "peer=v0:127.0.0.1:9101\npeer=v1:127.0.0.1:9102\n"
    )
    validator = ServiceConfig(
        name="v1", port=9102, model_file="net/model.bin", rules_file="net/rules.txt", peers=storage.peers[:1]
    )
    for config in (storage, validator):
        assert ServiceConfig.parse(config.format()) == config
