"""Node key material: Ed25519 signatures and X25519 key agreement.

Every node (and every member of a shared identity) owns a signing keypair;
simulator nodes additionally own an encryption keypair used for the secure
point-to-point channels. Keypairs can be derived deterministically from a
seed so whole scenario runs replay bit-identically.

A KeyPair holds its two private keys and its encryption public key both as
raw bytes (the keypair's value: equality, repr and the text form use only
these) and as parsed key objects, built once per KeyPair. Parsing a private
key re-derives its public key, which costs about as much as a signature or
a key exchange, and parsing a public key costs a few microseconds more per
agreement; so signing and channel set-up use the held objects instead of
re-parsing the bytes.

seal and unseal take an AES-GCM context rather than key bytes, so the
context is built once per key, not once per message: the EncryptedBus
keeps one per communicating pair and seals and opens every message of that
pair with it. Each message is still one seal and one unseal call.

Public keys are always handled as 32 raw bytes, which lines up with the
256-bit key/address space used by the ledger and the DHT.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.serialization import (
    Encoding,
    NoEncryption,
    PrivateFormat,
    PublicFormat,
)


def _raw_private(key) -> bytes:
    return key.private_bytes(Encoding.Raw, PrivateFormat.Raw, NoEncryption())


def _raw_public(key) -> bytes:
    return key.public_bytes(Encoding.Raw, PublicFormat.Raw)


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


@dataclass(frozen=True)
class KeyPair:
    """A node's signing and encryption key material.

    sign_key, enc_key and enc_pub are the parsed forms of sign_sk, enc_sk
    and enc_pk; they are built from the bytes when not given or when they
    do not match them, and take no part in comparison.
    """

    sign_sk: bytes
    sign_pk: bytes
    enc_sk: bytes
    enc_pk: bytes
    sign_key: Ed25519PrivateKey = field(default=None, compare=False, repr=False)
    enc_key: X25519PrivateKey = field(default=None, compare=False, repr=False)
    enc_pub: X25519PublicKey = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        # Parse a held object that is missing or does not serialize to its
        # field, as after dataclasses.replace; serializing is far cheaper.
        if self.sign_key is None or _raw_private(self.sign_key) != self.sign_sk:
            object.__setattr__(self, "sign_key",
                               Ed25519PrivateKey.from_private_bytes(self.sign_sk))
        if self.enc_key is None or _raw_private(self.enc_key) != self.enc_sk:
            object.__setattr__(self, "enc_key",
                               X25519PrivateKey.from_private_bytes(self.enc_sk))
        if self.enc_pub is None or _raw_public(self.enc_pub) != self.enc_pk:
            object.__setattr__(self, "enc_pub",
                               X25519PublicKey.from_public_bytes(self.enc_pk))

    @classmethod
    def generate(cls, rng: random.Random) -> "KeyPair":
        """Derive a keypair deterministically from the given rng."""
        sign_seed = rng.randbytes(32)
        enc_seed = rng.randbytes(32)
        sk = Ed25519PrivateKey.from_private_bytes(sign_seed)
        ek = X25519PrivateKey.from_private_bytes(enc_seed)
        epub = ek.public_key()
        return cls(
            sign_sk=sign_seed,
            sign_pk=_raw_public(sk.public_key()),
            enc_sk=_raw_private(ek),
            enc_pk=_raw_public(epub),
            sign_key=sk,
            enc_key=ek,
            enc_pub=epub,
        )

    def sign(self, message: bytes) -> bytes:
        return self.sign_key.sign(message)

    def to_text(self) -> str:
        return (
            f"sign_sk={self.sign_sk.hex()}\n"
            f"sign_pk={self.sign_pk.hex()}\n"
            f"enc_sk={self.enc_sk.hex()}\n"
            f"enc_pk={self.enc_pk.hex()}\n"
        )


def verify(sign_pk: bytes, signature: bytes, message: bytes) -> bool:
    """Check an Ed25519 signature; never raises."""
    try:
        Ed25519PublicKey.from_public_bytes(sign_pk).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


def shared_key(my_enc_key: X25519PrivateKey, their_enc_pub: X25519PublicKey) -> bytes:
    """Pairwise symmetric key via X25519 agreement (symmetric in the pair).

    my_enc_key is one KeyPair's parsed enc_key, their_enc_pub the other's
    parsed enc_pub.
    """
    return sha256(b"mpcnet-channel-v1" + my_enc_key.exchange(their_enc_pub))


def seal(aead: AESGCM, nonce_counter: int, plaintext: bytes) -> bytes:
    """AES-GCM encryption with an explicit counter nonce (12 bytes, BE)."""
    return aead.encrypt(nonce_counter.to_bytes(12, "big"), plaintext, None)


def unseal(aead: AESGCM, nonce_counter: int, ciphertext: bytes) -> bytes:
    """AES-GCM decryption; raises InvalidTag on a wrong key or tampering."""
    return aead.decrypt(nonce_counter.to_bytes(12, "big"), ciphertext, None)

