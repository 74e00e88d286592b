"""Signature, encryption, and hashing primitives against independent oracles."""

import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ed25519, x25519
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF

from chainacl import crypto
from chainacl.crypto import (
    KEY_CACHE_SIZE,
    DecryptionError,
    KeyPair,
    MalformedKeyError,
    Provider,
    load_keypair,
    save_keypair,
    sha256,
)


@pytest.fixture(scope="module")
def p():
    return Provider(seed=11)


def test_seeded_generation_is_deterministic():
    a = Provider(seed=3).generate_keypair()
    b = Provider(seed=3).generate_keypair()
    assert a == b


def test_explicit_seed_material_repeats(p):
    seed = sha256(b"fixed seed material")
    assert p.generate_keypair(seed=seed) == p.generate_keypair(seed=seed)


def test_distinct_seeds_distinct_keys(p):
    a = p.generate_keypair(seed=sha256(b"one"))
    b = p.generate_keypair(seed=sha256(b"two"))
    assert a.public_key != b.public_key


def test_ten_thousand_generations_no_duplicate_public_keys():
    p = Provider(seed=99)
    seen = {p.generate_keypair().public_key for _ in range(10_000)}
    assert len(seen) == 10_000


def test_sign_verify_round_trip(p):
    kp = p.generate_keypair()
    sig = p.sign(kp.secret_key, b"abc")
    assert p.verify(kp.public_key, b"abc", sig)
    assert not p.verify(kp.public_key, b"abd", sig)


def test_verify_fails_under_unrelated_key(p):
    kp, other = p.generate_keypair(), p.generate_keypair()
    sig = p.sign(kp.secret_key, b"abc")
    assert not p.verify(other.public_key, b"abc", sig)


def test_empty_message_signs(p):
    kp = p.generate_keypair()
    assert p.verify(kp.public_key, b"", p.sign(kp.secret_key, b""))


def test_truncated_signature_false_not_raise(p):
    kp = p.generate_keypair()
    sig = p.sign(kp.secret_key, b"m")
    assert p.verify(kp.public_key, b"m", sig[:-1]) is False
    assert p.verify(kp.public_key, b"m", b"") is False


def test_garbage_inputs_never_raise(p):
    kp = p.generate_keypair()
    assert p.verify(b"\x01" * 7, b"m", b"\x02" * 64) is False
    assert p.verify(kp.public_key, b"m", b"\xff" * 200) is False


def test_bit_flip_fuzz_kills_verification():
    """Any single-bit change to message, signature, or signing key fails.

    Only the first half of the public key participates in verification;
    the second half is the encryption key, so flips there are out of scope.
    """
    p = Provider(seed=5)
    rng = random.Random(5)
    kp = p.generate_keypair()
    msg = bytes(rng.randrange(256) for _ in range(40))
    sig = p.sign(kp.secret_key, msg)
    sign_half = 32
    for _ in range(300):
        field = rng.randrange(3)
        blob = [bytearray(msg), bytearray(sig), bytearray(kp.public_key)][field]
        pos = rng.randrange(sign_half if field == 2 else len(blob))
        blob[pos] ^= 1 << rng.randrange(8)
        m, s, k = msg, sig, kp.public_key
        if field == 0:
            m = bytes(blob)
        elif field == 1:
            s = bytes(blob)
        else:
            k = bytes(blob)
        assert not p.verify(k, m, s)


def test_encrypt_round_trip(p):
    kp = p.generate_keypair()
    for m in (b"", b"x", b"hello world", bytes(1000)):
        assert p.decrypt(kp.secret_key, p.encrypt(kp.public_key, m)) == m


def test_one_mebibyte_round_trip(p):
    kp = p.generate_keypair()
    payload = random.Random(1).randbytes(1 << 20)
    assert p.decrypt(kp.secret_key, p.encrypt(kp.public_key, payload)) == payload


def test_ciphertexts_are_randomized(p):
    kp = p.generate_keypair()
    assert p.encrypt(kp.public_key, b"same") != p.encrypt(kp.public_key, b"same")


def test_wrong_key_decryption_errors(p):
    kp, other = p.generate_keypair(), p.generate_keypair()
    c = p.encrypt(kp.public_key, b"secret")
    with pytest.raises(DecryptionError):
        p.decrypt(other.secret_key, c)


def test_tampered_ciphertext_errors(p):
    kp = p.generate_keypair()
    c = bytearray(p.encrypt(kp.public_key, b"secret"))
    rng = random.Random(2)
    for _ in range(50):
        mutated = bytearray(c)
        pos = rng.randrange(len(mutated))
        mutated[pos] ^= 1 << rng.randrange(8)
        with pytest.raises(DecryptionError):
            p.decrypt(kp.secret_key, bytes(mutated))


def test_malformed_public_key_rejected(p):
    with pytest.raises(MalformedKeyError):
        p.encrypt(b"short", b"m")


def test_sha256_reference_vectors(p):
    assert (
        p.hash(b"").hex()
        == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )
    assert (
        p.hash(b"abc").hex()
        == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_sha256_matches_hashlib_on_random_inputs(p):
    rng = random.Random(3)
    for _ in range(1000):
        data = rng.randbytes(rng.randrange(200))
        assert p.hash(data) == hashlib.sha256(data).digest()


@settings(max_examples=50)
@given(st.binary(max_size=500))
def test_encrypt_decrypt_property(data):
    p = Provider(seed=21)
    kp = p.generate_keypair()
    assert p.decrypt(kp.secret_key, p.encrypt(kp.public_key, data)) == data


def test_key_files_round_trip(tmp_path, p):
    kp = p.generate_keypair()
    save_keypair(tmp_path, "alice", kp)
    assert load_keypair(tmp_path, "alice") == kp
    # hex, one key per file
    text = (tmp_path / "alice.pk").read_text().strip()
    assert bytes.fromhex(text) == kp.public_key


def test_keypair_length_enforced():
    with pytest.raises(MalformedKeyError):
        KeyPair(public_key=b"short", secret_key=b"also short")


# -- parsed-key caches ---------------------------------------------------------


def _direct_verify(pk: bytes, message: bytes, sig: bytes) -> bool:
    try:
        ed25519.Ed25519PublicKey.from_public_bytes(pk[:32]).verify(sig, hashlib.sha256(message).digest())
        return True
    except InvalidSignature:
        return False


def _direct_envelope(pk: bytes, plaintext: bytes, rng: random.Random) -> bytes:
    """The documented envelope layout, built with ``cryptography`` alone."""
    eph = x25519.X25519PrivateKey.from_private_bytes(rng.randbytes(32))
    eph_pub = eph.public_key().public_bytes_raw()
    shared = eph.exchange(x25519.X25519PublicKey.from_public_bytes(pk[32:]))
    key = HKDF(
        algorithm=hashes.SHA256(), length=32, salt=None,
        info=b"chainacl/envelope/v1" + eph_pub + pk[32:],
    ).derive(shared)
    nonce = rng.randbytes(12)
    return eph_pub + nonce + AESGCM(key).encrypt(nonce, plaintext, None)


def test_cached_keys_match_direct_calls(p):
    rng = random.Random(4)
    pairs = [p.generate_keypair() for _ in range(3)]
    # each key several times, interleaved, so later calls hit the caches
    for round_ in range(3):
        for kp in pairs:
            message = rng.randbytes(40)
            direct = ed25519.Ed25519PrivateKey.from_private_bytes(kp.secret_key[:32])
            sig = p.sign(kp.secret_key, message)
            assert sig == direct.sign(hashlib.sha256(message).digest())
            forged = bytes([sig[0] ^ 1]) + sig[1:]
            for candidate in (sig, forged):
                assert p.verify(kp.public_key, message, candidate) == _direct_verify(
                    kp.public_key, message, candidate
                )
            plaintext = rng.randbytes(round_ * 50)
            assert p.decrypt(kp.secret_key, _direct_envelope(kp.public_key, plaintext, rng)) == plaintext
            other = pairs[(pairs.index(kp) + 1) % len(pairs)]
            with pytest.raises(DecryptionError):
                p.decrypt(other.secret_key, _direct_envelope(kp.public_key, plaintext, rng))


def test_malformed_keys_are_still_refused(p):
    kp = p.generate_keypair()
    sig = p.sign(kp.secret_key, b"m")
    for bad in (b"", b"short", kp.public_key[:-1], kp.public_key + b"\x00", "not bytes"):
        for _ in range(2):  # a refused key is not cached into acceptance
            assert p.verify(bad, b"m", sig) is False
    for bad in (b"", kp.secret_key[:-1], kp.secret_key + b"\x00"):
        for _ in range(2):
            with pytest.raises(MalformedKeyError):
                p.sign(bad, b"m")
            with pytest.raises(MalformedKeyError):
                p.decrypt(bad, p.encrypt(kp.public_key, b"m"))
    assert p.verify(kp.public_key, b"m", sig)


def test_key_caches_stay_bounded():
    caches = (crypto._signing_key, crypto._verify_key, crypto._exchange_key)
    assert all(c.cache_info().maxsize == KEY_CACHE_SIZE for c in caches)
    p = Provider(seed=13)
    sealed = p.encrypt(p.generate_keypair().public_key, b"m")
    for _ in range(KEY_CACHE_SIZE + 1):
        kp = p.generate_keypair()
        sig = p.sign(kp.secret_key, b"m")
        assert p.verify(kp.public_key, b"m", sig)
        with pytest.raises(DecryptionError):
            p.decrypt(kp.secret_key, sealed)
    for cache in caches:
        info = cache.cache_info()
        assert info.currsize <= KEY_CACHE_SIZE and info.misses > KEY_CACHE_SIZE
