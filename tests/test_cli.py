"""Command line: exit codes, init output, and the client verbs end to end."""

import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import chainacl
from chainacl.blocks import GenesisConfig
from chainacl.cli import (
    EXIT_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    CliError,
    _parse_addr,
    _parse_operation,
    main,
)
from chainacl.crypto import Provider, save_keypair
from chainacl.engine import load_model, parse_rules
from chainacl.network.live import LiveNode
from chainacl.network.nodes import StorageCore, ValidatorCore
from chainacl.service import ServiceConfig
from chainacl.transactions import OPERATION_NAMES

CLI_PORT = 9470


def run_cli(*argv):
    return main(list(argv))


def run_python(*args):
    """This interpreter in a child process that imports the same ``chainacl``
    as the tests, whether or not ``src`` is on the caller's PYTHONPATH."""
    src = str(Path(chainacl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )


# -- argument handling ----------------------------------------------------------


def test_help_exits_zero():
    proc = run_python("-m", "chainacl", "--help")
    assert proc.returncode == 0
    for verb in ("init", "node", "register-user", "redeem", "scenario", "model"):
        assert verb in proc.stdout


@pytest.mark.skipif(
    shutil.which("chainacl") is None, reason="chainacl console script not installed"
)
def test_console_script_help():
    proc = subprocess.run(
        ["chainacl", "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    for verb in ("init", "node", "register-user", "redeem", "scenario", "model"):
        assert verb in proc.stdout


def test_unknown_command_is_usage_error():
    proc = run_python("-c", "from chainacl.cli import main; raise SystemExit(main(['frobnicate']))")
    assert proc.returncode == EXIT_USAGE


def test_parse_addr():
    assert _parse_addr("10.0.0.2:9000") == ("10.0.0.2", 9000)
    for bad in ("nohost", ":123", "host:", "host:abc"):
        with pytest.raises(CliError):
            _parse_addr(bad)


def test_parse_operation_accepts_names_and_indices():
    # names are 1-based labels over 0-based indices
    assert _parse_operation("op2") == 1
    assert _parse_operation("3") == 3
    for bad in ("op0", "op5", "4", "read"):
        with pytest.raises(CliError):
            _parse_operation(bad)


def test_unreachable_node_is_usage_error(tmp_path, capsys):
    save_keypair(tmp_path, "admin", Provider(3).generate_keypair())
    rc = run_cli(
        "register-user",
        "--admin-key",
        str(tmp_path / "admin"),
        "--user-pk",
        "00" * 64,
        "--node",
        "127.0.0.1:1",
    )
    assert rc == EXIT_USAGE
    assert "cannot reach node" in capsys.readouterr().err


# -- init -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def deployment(tmp_path_factory):
    directory = tmp_path_factory.mktemp("deploy") / "net"
    rc = main(
        [
            "init",
            "--dir",
            str(directory),
            "--seed",
            "9",
            "--users",
            "8",
            "--resources",
            "6",
            "--base-port",
            "9480",
        ]
    )
    assert rc == EXIT_OK
    return directory


def test_init_lays_out_a_deployment(deployment):
    keys = {p.name for p in (deployment / "keys").iterdir()}
    for name in ("admin", "s0", "v0", "v1", "v2", "u000", "u007"):
        assert f"{name}.sk" in keys and f"{name}.pk" in keys

    config = GenesisConfig.decode((deployment / "genesis.bin").read_bytes())
    assert len(config.validators) == 3

    model = load_model(deployment / "model.bin")
    assert model.layer_dims[-1] == 4
    rules = parse_rules((deployment / "rules.txt").read_text())
    assert len(rules) == 2

    blobs = sorted(p.name for p in (deployment / "resources").iterdir())
    assert blobs == [f"{i}.bin" for i in range(6)]

    cfg = ServiceConfig.load(deployment / "v1.cfg")
    assert cfg.role == "validator" and cfg.port == 9482
    assert ("s0", "127.0.0.1", 9490) in cfg.peers
    cfg = ServiceConfig.load(deployment / "s0.cfg")
    assert cfg.role == "storage"
    cfg.require_files()  # key, genesis all present


def test_init_refuses_nonempty_dir(deployment, capsys):
    assert run_cli("init", "--dir", str(deployment)) == EXIT_USAGE
    assert "--force" in capsys.readouterr().err


def test_node_start_from_config(deployment, capsys):
    rc = run_cli(
        "node", "start", "--config", str(deployment / "s0.cfg"), "--run-seconds", "0.3"
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "storage s0 listening on 127.0.0.1:9490" in out
    assert "s0 stopped" in out


def test_node_start_role_mismatch(deployment, capsys):
    rc = run_cli(
        "node", "start", "--config", str(deployment / "v0.cfg"), "--role", "storage"
    )
    assert rc == EXIT_USAGE
    assert "role" in capsys.readouterr().err


# -- client verbs against a live pair ----------------------------------------------


@pytest.fixture(scope="module")
def verb_net(fixtures, tmp_path_factory):
    """One validator plus storage, with key files on disk for the CLI."""
    keydir = tmp_path_factory.mktemp("clikeys")
    save_keypair(keydir, "admin", fixtures.admin)
    save_keypair(keydir, "u0", fixtures.users[0])
    peers = {"v0": ("127.0.0.1", CLI_PORT), "s0": ("127.0.0.1", CLI_PORT + 1)}
    validator = LiveNode(
        "v0",
        ValidatorCore(
            name="v0",
            keypair=fixtures.validators[0],
            config=fixtures.config,
            runtime=fixtures.runtime(),
            provider=Provider(400),
            validator_names=("v0",),
            storage_name="s0",
            retransmit_interval=2,
        ),
        "127.0.0.1",
        CLI_PORT,
        peers,
        tick_period=0.05,
    )
    storage_core = StorageCore(
        name="s0",
        keypair=fixtures.storage,
        config=fixtures.config,
        provider=Provider(401),
        validator_names=("v0",),
        retransmit_interval=2,
    )
    for rid in {r for (_, r, _) in fixtures.pairs.values()}:
        storage_core.service.put_resource(rid, fixtures.payload(rid))
    storage = LiveNode("s0", storage_core, "127.0.0.1", CLI_PORT + 1, peers, tick_period=0.05)
    validator.start()
    storage.start()
    try:
        yield {"keys": keydir, "validator": f"127.0.0.1:{CLI_PORT}", "storage": f"127.0.0.1:{CLI_PORT + 1}"}
    finally:
        validator.stop()
        storage.stop()


def _poll_until(net, rid, user_key, want, capsys, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        rc = run_cli(
            "poll", "--request-id", rid, "--user-key", user_key, "--node", net["validator"]
        )
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        if f"status={want}" in out:
            return out
        time.sleep(0.2)
    pytest.fail(f"request never reached status={want}")


def test_client_verbs_full_flow(verb_net, fixtures, capsys, tmp_path):
    net = verb_net
    admin_key = str(net["keys"] / "admin")
    user_key = str(net["keys"] / "u0")
    _, r, op = fixtures.pairs["model_allows"]

    rc = run_cli(
        "register-user", "--admin-key", admin_key, "--user-key", user_key,
        "--node", net["validator"],
    )
    assert rc == EXIT_OK
    assert "submitted tx_id=" in capsys.readouterr().out

    # admission takes the request even before the registration seals; the
    # pool orders them so authentication still sees the user on chain
    rc = run_cli(
        "request-access", "--user-key", user_key, "--resource", str(r),
        "--op", OPERATION_NAMES[op], "--node", net["validator"],
    )
    assert rc == EXIT_OK
    match = re.search(r"request_id=([0-9a-f]{32})", capsys.readouterr().out)
    assert match
    rid = match.group(1)

    out = _poll_until(net, rid, user_key, "link_issued", capsys)
    token = re.search(r"link_token=([0-9a-f]+)", out).group(1)
    nonce = re.search(r"nonce=([0-9a-f]+)", out).group(1)
    assert "access_list" in out and f"{OPERATION_NAMES[op]}=y" in out

    payload_file = tmp_path / "payload.bin"
    rc = run_cli(
        "redeem", "--token", token, "--nonce", nonce, "--op", str(op),
        "--node", net["storage"], "--out", str(payload_file),
    )
    assert rc == EXIT_OK
    assert "wrote" in capsys.readouterr().out
    assert payload_file.read_bytes() == fixtures.payload(r)

    rc = run_cli(
        "redeem", "--token", token, "--nonce", nonce, "--op", str(op),
        "--node", net["storage"],
    )
    assert rc == EXIT_FAILED
    assert "error=redeem_rejected already_redeemed" in capsys.readouterr().out

    _poll_until(net, rid, user_key, "redeemed", capsys)

    rc = run_cli("logs", "--node", net["validator"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    for kind in ("requested", "authenticated", "decided", "link_issued", "redeemed"):
        assert kind in out
    assert re.search(r"\(\d+ entries\)", out)

    rc = run_cli("logs", "--kind", "redeemed", "--node", net["validator"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK and "(1 entries)" in out

    rc = run_cli("chain", "--verbose", "--node", net["validator"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "h=0" in out and "register(" in out and "redemption(" in out

    # user is on chain now, so re-registering is a deterministic rejection
    rc = run_cli(
        "register-user", "--admin-key", admin_key, "--user-key", user_key,
        "--node", net["validator"],
    )
    assert rc == EXIT_FAILED
    assert "error=rejected duplicate_user" in capsys.readouterr().out


def test_poll_unknown_request_is_pending(verb_net, capsys):
    rc = run_cli("poll", "--request-id", "ff" * 16, "--node", verb_net["validator"])
    assert rc == EXIT_OK
    assert "status=pending" in capsys.readouterr().out


# -- scenarios and model --------------------------------------------------------------


def test_scenario_run_single(capsys):
    rc = run_cli("scenario", "run", "1")
    assert rc == EXIT_OK
    assert "result=PASS" in capsys.readouterr().out


def test_scenario_run_unknown_name(capsys):
    rc = run_cli("scenario", "run", "bogus")
    assert rc == EXIT_USAGE
    assert "bogus" in capsys.readouterr().err


def test_model_train_then_eval(tmp_path, capsys):
    out_file = tmp_path / "m.bin"
    rc = run_cli(
        "model", "train", "--seed", "3", "--users", "16", "--resources", "8",
        "--epochs", "120", "--out", str(out_file),
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "train_acc=" in out and "holdout_acc=" in out
    assert out_file.stat().st_size <= 1 << 20

    rc = run_cli(
        "model", "eval", "--model", str(out_file), "--seed", "3",
        "--users", "16", "--resources", "8",
    )
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert re.search(r"accuracy=[01]\.\d+", out)
    assert "op1" in out and "op4" in out
