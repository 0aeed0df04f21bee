"""Message-channel abstractions for simulated protocol runs.

Two implementations of the same small interface:

  LocalChannel    -- plain in-memory delivery with message accounting; used
                     by engine-level tests where transport security is not
                     the point.
  EncryptedBus    -- models the secure point-to-point channels as a broadcast
                     medium carrying public-key-encrypted payloads. Every
                     ciphertext is visible to everyone; only the addressee
                     can decrypt. Keeps per-node traffic logs so tests can
                     byte-scan for plaintext leaks and compare message-length
                     marginals across runs.

Each communicating pair on an EncryptedBus makes one X25519 agreement, from
the parsed keys its KeyPairs hold, and keeps one AES-GCM context under the
derived key for the bus's lifetime; every message between the two, in
either direction, is sealed and opened for the addressee with that context.
Most pairs carry few messages (a `faults` benchmark pass has 509 pairs
carrying 3,177 messages, a `deep` pass 690 carrying 2,038), and building a
context costs about twice as much as sealing one short message with it.

Both count every point-to-point send, in total and per round, which
is what the message-complexity assertions measure.
"""

from __future__ import annotations

from collections import defaultdict, deque

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import keys


class LocalChannel:
    """In-memory point-to-point channel with counters. Self-sends are a bug."""

    def __init__(self):
        self.messages = 0
        self._round_messages = 0
        self._inbox = defaultdict(deque)

    def send(self, src, dst, payload: bytes):
        if src == dst:
            raise ValueError("self-sends are local state, not messages")
        self.messages += 1
        self._round_messages += 1
        self._deliver(src, dst, payload)

    def _deliver(self, src, dst, payload: bytes):
        self._inbox[dst].append((src, payload))

    def recv_all(self, dst) -> list:
        """Drain dst's inbox in delivery order as (src, payload) pairs."""
        box = self._inbox[dst]
        out = list(box)
        box.clear()
        return out

    def new_round(self):
        """Close the current accounting round; returns its message count."""
        n = self._round_messages
        self._round_messages = 0
        return n


class EncryptedBus(LocalChannel):
    """Broadcast medium with per-recipient encryption and traffic logs."""

    def __init__(self):
        super().__init__()
        self._keypairs = {}
        self._pair_keys = {}              # (a, b) -> AESGCM, one per pair
        self._nonces = defaultdict(int)
        # node -> list of (direction, peer, ciphertext); ciphertext bytes are
        # what a wiretap of that node would record.
        self.logs = defaultdict(list)
        self.broadcast_log = []

    def register(self, node, keypair: keys.KeyPair):
        self._keypairs[node] = keypair

    def _aead_for(self, a, b) -> AESGCM:
        """The pair's AES-GCM context, built at its first message."""
        pair = (a, b) if (a, b) in self._pair_keys else (b, a)
        if pair not in self._pair_keys:
            self._pair_keys[(a, b)] = AESGCM(keys.shared_key(self._keypairs[a].enc_key,
                                                             self._keypairs[b].enc_pub))
            pair = (a, b)
        return self._pair_keys[pair]

    def nonce(self, src, dst, counter: int) -> int:
        """The 96-bit AES-GCM nonce of the counter-th message src -> dst.

        Both directions of a pair share one key, so the top bit names the
        direction (set when src's encryption key sorts above dst's) and the
        two counters never produce the same nonce.
        """
        return (self._keypairs[src].enc_pk > self._keypairs[dst].enc_pk) << 95 | counter

    def _deliver(self, src, dst, payload: bytes):
        aead = self._aead_for(src, dst)
        counter = self._nonces[(src, dst)]
        self._nonces[(src, dst)] += 1
        nonce = self.nonce(src, dst, counter)
        ciphertext = keys.seal(aead, nonce, payload)
        self.broadcast_log.append((src, dst, counter, ciphertext))
        self.logs[src].append(("sent", dst, ciphertext))
        self.logs[dst].append(("recv", src, ciphertext))
        # Addressee decrypts on delivery; everyone else only sees ciphertext.
        self._inbox[dst].append((src, keys.unseal(aead, nonce, ciphertext)))

    def raw_bytes(self, node) -> bytes:
        """Everything this node's wiretap saw, concatenated."""
        return b"".join(ct for _, _, ct in self.logs[node])
