"""Cryptographic provider: keypairs, signatures, public-key encryption, hashing.

One keypair serves both signing and encryption. The public and secret keys
are opaque fixed-length byte strings that concatenate an Ed25519 key with an
X25519 key:

    public_key = ed25519 verify key (32) || x25519 public key (32)
    secret_key = ed25519 seed       (32) || x25519 private key (32)

Signatures are Ed25519 over the SHA-256 digest of the message. Encryption is
a hybrid envelope: a fresh ephemeral X25519 key agrees a shared secret with
the recipient, HKDF-SHA256 derives an AES-256-GCM key, and the ciphertext is

    ephemeral x25519 public key (32) || GCM nonce (12) || sealed payload

so any tampering fails authenticated decryption. Hashing is SHA-256.

Parsed key objects are kept in small bounded caches keyed by the key bytes
(``KEY_CACHE_SIZE`` entries each, least recently used evicted), so a node
that signs, verifies or decrypts under the same keys again and again parses
each key once. Key objects are immutable, and a key that fails to load is
never cached.

The provider is swappable: construct :class:`Provider` with a seed to get
fully reproducible key generation and encryption randomness for simulations
and tests. Seeded randomness is NOT cryptographically strong; production use
leaves the seed unset, which draws from ``os.urandom``.
"""

from __future__ import annotations

import functools
import hashlib
import os
import random
from dataclasses import dataclass
from pathlib import Path

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric import ed25519, x25519
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.kdf.hkdf import HKDF
from cryptography.hazmat.primitives import hashes as _hashes

SIGN_KEY_LEN = 32
ENC_KEY_LEN = 32
PUBLIC_KEY_LEN = SIGN_KEY_LEN + ENC_KEY_LEN
SECRET_KEY_LEN = SIGN_KEY_LEN + ENC_KEY_LEN
SIGNATURE_LEN = 64
DIGEST_LEN = 32

KEY_CACHE_SIZE = 1024

_GCM_NONCE_LEN = 12
_HKDF_INFO = b"chainacl/envelope/v1"


class CryptoError(Exception):
    """Base class for provider failures."""


class MalformedKeyError(CryptoError):
    """A key has the wrong length or cannot be loaded."""


class DecryptionError(CryptoError):
    """Ciphertext was tampered with or the wrong secret key was used."""


class KeyGenerationError(CryptoError):
    """The entropy source failed or produced unusable material."""


@dataclass(frozen=True)
class KeyPair:
    public_key: bytes
    secret_key: bytes

    def __post_init__(self) -> None:
        if len(self.public_key) != PUBLIC_KEY_LEN:
            raise MalformedKeyError(f"public key must be {PUBLIC_KEY_LEN} bytes")
        if len(self.secret_key) != SECRET_KEY_LEN:
            raise MalformedKeyError(f"secret key must be {SECRET_KEY_LEN} bytes")


def sha256(data: bytes) -> bytes:
    """SHA-256 digest of ``data`` (32 bytes)."""
    return hashlib.sha256(data).digest()


def _split_public(pk: bytes) -> tuple[bytes, bytes]:
    if not isinstance(pk, (bytes, bytearray)) or len(pk) != PUBLIC_KEY_LEN:
        raise MalformedKeyError("public key must be 64 bytes")
    return bytes(pk[:SIGN_KEY_LEN]), bytes(pk[SIGN_KEY_LEN:])


def _split_secret(sk: bytes) -> tuple[bytes, bytes]:
    if not isinstance(sk, (bytes, bytearray)) or len(sk) != SECRET_KEY_LEN:
        raise MalformedKeyError("secret key must be 64 bytes")
    return bytes(sk[:SIGN_KEY_LEN]), bytes(sk[SIGN_KEY_LEN:])


@functools.lru_cache(maxsize=KEY_CACHE_SIZE)
def _signing_key(seed: bytes) -> ed25519.Ed25519PrivateKey:
    return ed25519.Ed25519PrivateKey.from_private_bytes(seed)


@functools.lru_cache(maxsize=KEY_CACHE_SIZE)
def _verify_key(public: bytes) -> ed25519.Ed25519PublicKey:
    return ed25519.Ed25519PublicKey.from_public_bytes(public)


@functools.lru_cache(maxsize=KEY_CACHE_SIZE)
def _exchange_key(private: bytes) -> tuple[x25519.X25519PrivateKey, bytes]:
    """An X25519 private key and its raw public bytes."""
    key = x25519.X25519PrivateKey.from_private_bytes(private)
    return key, key.public_key().public_bytes_raw()


class Provider:
    """Default provider. Seed it for deterministic simulation randomness."""

    def __init__(self, seed: int | None = None) -> None:
        self._rng = random.Random(seed) if seed is not None else None

    def _rand(self, n: int) -> bytes:
        if self._rng is not None:
            return self._rng.randbytes(n)
        data = os.urandom(n)
        if len(data) != n:
            raise KeyGenerationError("entropy source returned short read")
        return data

    def generate_keypair(self, seed: bytes | None = None) -> KeyPair:
        """Create a signing+encryption keypair.

        With ``seed`` the pair is a pure function of the seed bytes, which
        tests use to pin identities. Distinct seeds give distinct keys.
        """
        if seed is not None:
            sign_seed = sha256(b"chainacl/keygen/sign" + seed)
            enc_seed = sha256(b"chainacl/keygen/enc" + seed)
        else:
            sign_seed = self._rand(32)
            enc_seed = self._rand(32)
        try:
            sign_key = ed25519.Ed25519PrivateKey.from_private_bytes(sign_seed)
            enc_key = x25519.X25519PrivateKey.from_private_bytes(enc_seed)
        except Exception as exc:  # pragma: no cover - library-level failure
            raise KeyGenerationError(str(exc)) from exc
        public = (
            sign_key.public_key().public_bytes_raw()
            + enc_key.public_key().public_bytes_raw()
        )
        secret = sign_seed + enc_key.private_bytes_raw()
        return KeyPair(public_key=public, secret_key=secret)

    def sign(self, sk: bytes, message: bytes) -> bytes:
        """Sign the SHA-256 digest of ``message``; verifies under the matching pk."""
        sign_seed, _ = _split_secret(sk)
        try:
            key = _signing_key(sign_seed)
        except Exception as exc:
            raise MalformedKeyError(str(exc)) from exc
        return key.sign(sha256(message))

    def verify(self, pk: bytes, message: bytes, sig: bytes) -> bool:
        """True iff ``sig`` is a valid signature of ``message`` under ``pk``.

        Never raises: malformed keys, garbage signatures, and any other
        defect all return False.
        """
        try:
            sign_pub, _ = _split_public(pk)
            _verify_key(sign_pub).verify(bytes(sig), sha256(bytes(message)))
            return True
        except (InvalidSignature, MalformedKeyError, ValueError, TypeError):
            return False

    def encrypt(self, pk: bytes, plaintext: bytes) -> bytes:
        """Encrypt to the holder of ``pk``; fresh randomness every call."""
        _, enc_pub = _split_public(pk)
        try:
            recipient = x25519.X25519PublicKey.from_public_bytes(enc_pub)
        except Exception as exc:
            raise MalformedKeyError(str(exc)) from exc
        eph = x25519.X25519PrivateKey.from_private_bytes(self._rand(32))
        eph_pub = eph.public_key().public_bytes_raw()
        key = self._derive_envelope_key(eph.exchange(recipient), eph_pub, enc_pub)
        nonce = self._rand(_GCM_NONCE_LEN)
        sealed = AESGCM(key).encrypt(nonce, bytes(plaintext), None)
        return eph_pub + nonce + sealed

    def decrypt(self, sk: bytes, ciphertext: bytes) -> bytes:
        """Open an envelope; wrong key or any bit flip raises DecryptionError."""
        _, enc_priv = _split_secret(sk)
        if len(ciphertext) < ENC_KEY_LEN + _GCM_NONCE_LEN + 16:
            raise DecryptionError("ciphertext too short")
        eph_pub = bytes(ciphertext[:ENC_KEY_LEN])
        nonce = bytes(ciphertext[ENC_KEY_LEN : ENC_KEY_LEN + _GCM_NONCE_LEN])
        sealed = bytes(ciphertext[ENC_KEY_LEN + _GCM_NONCE_LEN :])
        try:
            me, my_pub = _exchange_key(enc_priv)
            shared = me.exchange(x25519.X25519PublicKey.from_public_bytes(eph_pub))
            key = self._derive_envelope_key(shared, eph_pub, my_pub)
            return AESGCM(key).decrypt(nonce, sealed, None)
        except InvalidTag as exc:
            raise DecryptionError("authentication failed") from exc
        except ValueError as exc:
            raise DecryptionError(str(exc)) from exc

    @staticmethod
    def _derive_envelope_key(shared: bytes, eph_pub: bytes, recipient_pub: bytes) -> bytes:
        return HKDF(
            algorithm=_hashes.SHA256(),
            length=32,
            salt=None,
            info=_HKDF_INFO + eph_pub + recipient_pub,
        ).derive(shared)

    def hash(self, data: bytes) -> bytes:
        return sha256(data)


# --- key files: one key per file, lowercase hex text ------------------------


def write_key_file(path: str | Path, key: bytes) -> None:
    Path(path).write_text(key.hex() + "\n")


def read_key_file(path: str | Path) -> bytes:
    text = Path(path).read_text().strip()
    try:
        return bytes.fromhex(text)
    except ValueError as exc:
        raise MalformedKeyError(f"{path}: not lowercase hex") from exc


def save_keypair(directory: str | Path, name: str, pair: KeyPair) -> tuple[Path, Path]:
    """Write ``<name>.pk`` / ``<name>.sk`` under ``directory``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    pk_path = directory / f"{name}.pk"
    sk_path = directory / f"{name}.sk"
    write_key_file(pk_path, pair.public_key)
    write_key_file(sk_path, pair.secret_key)
    return pk_path, sk_path


def load_keypair(directory: str | Path, name: str) -> KeyPair:
    directory = Path(directory)
    return KeyPair(
        public_key=read_key_file(directory / f"{name}.pk"),
        secret_key=read_key_file(directory / f"{name}.sk"),
    )
