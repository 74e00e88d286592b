"""Command line: a key that cannot be used is a usage error, not a crash."""

from chainacl import cli
from chainacl.cli import EXIT_USAGE, main
from chainacl.crypto import Provider, save_keypair


def _outputs(capsys) -> tuple[str, str]:
    """Standard output, and the one ``error:`` line on standard error."""
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    return captured.out, lines[0]


def test_admin_key_file_that_is_not_hex(tmp_path, capsys):
    for suffix in (".sk", ".pk"):
        (tmp_path / f"admin{suffix}").write_text("not a key\n")
    rc = main(
        ["register-user", "--admin-key", str(tmp_path / "admin"), "--user-pk", "00" * 64, "--node", "127.0.0.1:1"]
    )
    assert rc == EXIT_USAGE
    assert "not lowercase hex" in _outputs(capsys)[1]


def test_poll_with_the_wrong_user_key(fixtures, tmp_path, capsys, monkeypatch):
    save_keypair(tmp_path, "u1", fixtures.users[1])
    ciphertext = Provider(5).encrypt(fixtures.users[0].public_key, b"a grant for user 0")
    reply = {"ok": True, "status": "link_issued", "link_ciphertext": ciphertext.hex()}
    monkeypatch.setattr(cli, "service_call", lambda addr, request: reply)
    rc = main(
        ["poll", "--request-id", "00" * 16, "--user-key", str(tmp_path / "u1"), "--node", "127.0.0.1:1"]
    )
    assert rc == EXIT_USAGE
    out, err = _outputs(capsys)
    assert out == "status=link_issued\n" and "authentication failed" in err


def test_register_user_with_a_short_key_is_refused_before_sending(tmp_path, capsys):
    save_keypair(tmp_path, "admin", Provider(3).generate_keypair())
    rc = main(["register-user", "--admin-key", str(tmp_path / "admin"), "--user-pk", "00", "--node", "127.0.0.1:1"])
    assert rc == EXIT_USAGE
    # the node address is unreachable: an error about the key shows that no
    # connection was tried
    assert "user_pk must be 64 bytes" in _outputs(capsys)[1]


def test_init_on_a_grid_too_small_for_the_fixtures_writes_nothing(tmp_path, capsys):
    target = tmp_path / "net"
    rc = main(["init", "--dir", str(target), "--users", "2", "--resources", "1"])
    assert rc == EXIT_USAGE
    assert "no free cell" in _outputs(capsys)[1]
    assert not target.exists()
