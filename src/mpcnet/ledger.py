"""Simulated blockchain: a signed, append-only key/value bulletin board.

The ledger is the network's controller and audit substrate: identities and
ACL predicates, storage predicates, commitment trails, deposits and fee
settlements all land here as signed transactions. Consensus is out of
scope, so a single serialized writer with instant finality stands in for
the chain; what is preserved faithfully is the contract everything else
depends on -- append-only totally-ordered history, signature-checked writes,
keys that only their first writer may rewrite, identity registrations that
parse as ACLs and bind their address to their keys, balance accounting with
zero-sum settlements that only the genesis authority may post, at most one
per computation, and bit-exact replayability.

Keys live in one `Board`. The live `Ledger` is a Board that validates what
it appends, and `load_dump` returns one, so `get`, `get_at`, `height` and
`writer` (a key's first author) read alike on the ledger and on its dump.

A keyed transaction (`kv-put`, `identity-registration`, `commitment-post`)
carries a non-empty list of (key, value) writes, applied atomically: every
write must pass, and each becomes one entry in list order. So a data owner
registers an input -- its commitments and its pointer predicate -- with one
signature.

Keys are 256-bit. Arbitrary strings/byte strings are admitted at the API
and hashed down to the shared keyspace.

`Ledger.dump` writes one entry per line, each line ending in a newline:

    <height> TAB <key: 64 hex digits> TAB <value: base64> TAB <author: 64 hex digits>

Heights run 1, 2, 3, ... in line order; the value is standard padded
base64 (RFC 4648, alphabet A-Z a-z 0-9 + /, `=` padding to a multiple of
four characters), and an empty value is an empty field. `load_dump` skips a
line that is empty or only whitespace and refuses, with CorruptDump naming
the line, any other line that:

- does not split on tabs into exactly four fields;
- has a height other than the entry's own (the count of entries read so
  far plus one), written in decimal without sign, spaces or leading zeros;
- has a key or author that is not exactly 64 hex digits (either case);
- has a value with a character outside the base64 alphabet (a non-ASCII
  character among them), a `=` anywhere but in the padding, or padding
  that does not bring it to the length of its decoding's encoding (`QUJD=`
  and `QQ=` are refused).

Only a newline ends a line: a carriage return, or any other character at
which `str.splitlines` would also break, stays inside its field, and no
field admits it.

As with strict base64 decoding, the bits that the last character of a
padded value carries beyond its bytes are not checked: `QR==` reads as
`QQ==`, the byte `A`.
"""

from __future__ import annotations

import json
from binascii import a2b_base64, a2b_hex, b2a_base64
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

from . import keys as keymod
from .errors import CorruptDump, LedgerRejected
from .keys import sha256

KEYED_TYPES = ("kv-put", "identity-registration", "commitment-post")
PAYLOAD_TYPES = KEYED_TYPES + ("deposit", "fee-settlement")

ZERO_HASH = bytes(32)


def normalize_key(k) -> bytes:
    """Map an arbitrary key onto the 256-bit keyspace."""
    if isinstance(k, bytes):
        return k if len(k) == 32 else sha256(k)
    if isinstance(k, str):
        return sha256(k.encode())
    raise TypeError(f"ledger keys are str or bytes, got {type(k).__name__}")


def decode_base64(text) -> bytes:
    """The bytes of a padded base64 field, as Ledger.dump writes values.

    binascii's lenient decoder skips every character outside the alphabet
    and stops at the padding, so the field is well-formed exactly when it
    is as long as the encoding of what it decodes to. Raises ValueError
    (binascii.Error) for anything else, TypeError for a non-string.
    """
    data = a2b_base64(text)
    if len(text) != (len(data) + 2) // 3 * 4:
        raise ValueError(f"{len(text)} characters do not encode {len(data)} bytes")
    return data


def writes_payload(writes) -> list:
    """A keyed transaction's payload: one [key hex, value hex] per write."""
    return [[key.hex(), value.hex()] for key, value in writes]


@dataclass(frozen=True)
class Transaction:
    sender: bytes          # signing public key, 32 bytes
    payload_type: str
    payload: dict | list   # a list of writes for the keyed types
    nonce: int
    signature: bytes

    def signing_bytes(self) -> bytes:
        return signing_bytes(self.payload_type, self.payload, self.nonce)


def signing_bytes(payload_type: str, payload: dict | list, nonce: int) -> bytes:
    """What a transaction's signature covers: everything but its sender."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return payload_type.encode() + b"\x00" + body.encode() + nonce.to_bytes(8, "big")


def make_tx(keypair, payload_type: str, payload: dict | list, nonce: int) -> Transaction:
    if payload_type not in PAYLOAD_TYPES:
        raise ValueError(f"unknown payload type {payload_type!r}")
    return Transaction(keypair.sign_pk, payload_type, payload, nonce,
                       keypair.sign(signing_bytes(payload_type, payload, nonce)))


class LedgerEntry(NamedTuple):
    key: bytes
    value: bytes
    height: int
    author: bytes

    def canonical_bytes(self) -> bytes:
        return (self.height.to_bytes(8, "big") + self.key
                + len(self.value).to_bytes(4, "big") + self.value + self.author)


class Board:
    """Every entry in height order and, per key, the entries it has held.

    Heights grow with each entry, so the value as of height t is found by
    bisection; a key's first entry names the only author that may rewrite it.
    """

    def __init__(self):
        self.entries: list = []
        self._history: dict = {}          # key -> [LedgerEntry]

    def _record(self, entry: LedgerEntry):
        self.entries.append(entry)
        history = self._history.get(entry.key)
        if history is None:
            self._history[entry.key] = [entry]
        else:
            history.append(entry)

    @property
    def height(self) -> int:
        return len(self.entries)

    def get(self, k) -> bytes | None:
        history = self._history.get(normalize_key(k))
        return history[-1].value if history else None

    def get_at(self, k, t: int) -> bytes | None:
        """Value of k as of height t: the newest entry with height <= t."""
        history = self._history.get(normalize_key(k), ())
        pos = bisect_right(history, t, key=attrgetter("height"))
        return history[pos - 1].value if pos else None

    def writer(self, k) -> bytes | None:
        """The author of k's first entry, or None if k was never written."""
        history = self._history.get(normalize_key(k))
        return history[0].author if history else None


@dataclass
class Account:
    """Spendable balance plus the locked security deposit, in fee units."""

    balance: int = 0
    deposit: int = 0


class Ledger(Board):
    """Append-only bulletin board with balance accounts and full history.

    `authority` is the settlement authority's signing key, named at genesis;
    a ledger without one accepts no settlement.
    """

    def __init__(self, genesis_balances: dict | None = None,
                 authority: bytes | None = None):
        super().__init__()
        self.chain_hashes: list = []
        self.accepted: list = []          # (tx, [entry heights])
        self.rejected: list = []          # (tx, reason)
        self.accounts: dict = {}
        self._nonces: dict = {}
        self.authority = authority
        for pk, amount in (genesis_balances or {}).items():
            self.accounts[pk] = Account(balance=amount)

    # -- state access ------------------------------------------------------

    # Its own attribute, so perfbench's `ledger.Ledger.get` span times the
    # live ledger's reads apart from an auditor's reads of a dump.
    get = Board.get

    def account(self, pk: bytes) -> Account:
        return self.accounts.setdefault(pk, Account())

    def next_nonce(self, pk: bytes) -> int:
        return self._nonces.get(pk, -1) + 1

    # -- writes ------------------------------------------------------------

    def submit_tx(self, tx: Transaction) -> int:
        """Verify and apply a transaction; returns the height of its last entry.

        Rejected transactions raise LedgerRejected and leave no state behind:
        no entry, no nonce used up (they are kept on the rejection log only).
        """
        try:
            if not keymod.verify(tx.sender, tx.signature, tx.signing_bytes()):
                raise LedgerRejected("bad signature")
            if tx.nonce <= self._nonces.get(tx.sender, -1):
                raise LedgerRejected(f"stale nonce {tx.nonce}")
            try:
                pending = self._apply(tx)
            except (KeyError, TypeError, ValueError) as exc:
                raise LedgerRejected(f"malformed payload: {exc}") from exc
        except LedgerRejected as exc:
            self.rejected.append((tx, str(exc)))
            raise
        # Commit point: all validation passed.
        self._nonces[tx.sender] = tx.nonce
        heights = []
        for key, value in pending:
            heights.append(self._append(key, value, tx.sender))
        self.accepted.append((tx, heights))
        return heights[-1]

    def _append(self, key: bytes, value: bytes, author: bytes) -> int:
        entry = LedgerEntry(key, value, self.height + 1, author)
        prev = self.chain_hashes[-1] if self.chain_hashes else ZERO_HASH
        self.chain_hashes.append(sha256(prev + entry.canonical_bytes()))
        self._record(entry)
        return entry.height

    def _apply(self, tx: Transaction) -> list:
        """Validate a payload and return the entries it produces."""
        p = tx.payload
        if tx.payload_type in KEYED_TYPES:
            if not isinstance(p, list) or not p:
                raise ValueError("a keyed payload is a non-empty list of writes")
            return [self._check_write(tx, key_hex, value_hex) for key_hex, value_hex in p]

        if tx.payload_type == "deposit":
            amount = int(p["amount"])
            if amount < 0:
                raise LedgerRejected("negative deposit")
            acct = self.account(tx.sender)
            if acct.balance < amount:
                raise LedgerRejected("insufficient balance for deposit")
            acct.balance -= amount
            acct.deposit += amount
            return [(sha256(b"account" + tx.sender), self._account_record(tx.sender))]

        if tx.payload_type == "fee-settlement":
            if tx.sender != self.authority:
                raise LedgerRejected("settlements are posted only by the authority")
            key = sha256(b"settlement" + bytes.fromhex(p["computation"]))
            # Anyone can compute this key and kv-put there first, so only an
            # entry the authority wrote counts as a settlement.
            if any(e.author == self.authority for e in self._history.get(key, ())):
                raise LedgerRejected("the computation is already settled")
            transfers = [(bytes.fromhex(pk), int(d)) for pk, d in p.get("balance_deltas", [])]
            slashes = [(bytes.fromhex(pk), int(d)) for pk, d in p.get("deposit_deltas", [])]
            if sum(d for _, d in transfers + slashes):
                raise LedgerRejected("settlement deltas do not sum to zero")
            staged = {}
            for pk, delta in transfers:
                acct = self.account(pk)
                staged[pk] = staged.get(pk, (acct.balance, acct.deposit))
                staged[pk] = (staged[pk][0] + delta, staged[pk][1])
            for pk, delta in slashes:
                acct = self.account(pk)
                staged[pk] = staged.get(pk, (acct.balance, acct.deposit))
                staged[pk] = (staged[pk][0], staged[pk][1] + delta)
            for pk, (bal, dep) in staged.items():
                if bal < 0 or dep < 0:
                    raise LedgerRejected("insufficient balance in settlement")
            for pk, (bal, dep) in staged.items():
                acct = self.account(pk)
                acct.balance, acct.deposit = bal, dep
            entries = [(key, json.dumps(p, sort_keys=True).encode())]
            for pk in staged:
                entries.append((sha256(b"account" + pk), self._account_record(pk)))
            return entries

        raise LedgerRejected(f"unknown payload type {tx.payload_type!r}")

    def _check_write(self, tx: Transaction, key_hex: str, value_hex: str) -> tuple:
        """Validate one write of a keyed transaction; returns (key, value)."""
        key = bytes.fromhex(key_hex)
        if len(key) != 32:
            raise LedgerRejected("key must be 256-bit")
        # Only a key's first writer may rewrite it, so an ACL or a
        # predicate cannot be replaced by whoever signs next.
        first_writer = self.writer(key)
        if first_writer not in (None, tx.sender):
            raise LedgerRejected(f"key {key.hex()[:16]} belongs to another writer")
        value = bytes.fromhex(value_hex)
        if tx.payload_type == "identity-registration":
            # Every later permission check parses this ACL.
            from .identity import identity_address, parse_acl
            acl = parse_acl(value)
            # A first registration binds the address to its keys, so nobody
            # can claim an identity that is not theirs before its owners do.
            if first_writer is None:
                if key != identity_address(list(acl)):
                    raise LedgerRejected("address is not the identity address of the ACL's keys")
                if tx.sender not in acl:
                    raise LedgerRejected("the registrar is not in the ACL")
        return key, value

    def _account_record(self, pk: bytes) -> bytes:
        acct = self.account(pk)
        return json.dumps({"balance": acct.balance, "deposit": acct.deposit},
                          sort_keys=True).encode()

    # -- integrity ---------------------------------------------------------

    def verify_log(self) -> int | None:
        """Replay-style integrity check; returns first corrupt height, or None.

        Recomputes the hash chain over the stored entries and re-verifies
        every accepted transaction's signature; the first height where
        either check fails is reported.
        """
        prev = ZERO_HASH
        for entry, stored in zip(self.entries, self.chain_hashes):
            prev = sha256(prev + entry.canonical_bytes())
            if prev != stored:
                return entry.height
        for tx, heights in self.accepted:
            if not keymod.verify(tx.sender, tx.signature, tx.signing_bytes()):
                return heights[0] if heights else 0
        return None

    # -- dump format -------------------------------------------------------

    def dump(self) -> str:
        """One entry per line in the module docstring's grammar."""
        lines = []
        for e in self.entries:
            value64 = b2a_base64(e.value, newline=False).decode()
            lines.append(f"{e.height}\t{e.key.hex()}\t{value64}\t{e.author.hex()}\n")
        return "".join(lines)


def load_dump(text: str) -> Board:
    """Parse a ledger dump; a line outside the module docstring's grammar
    raises CorruptDump."""
    board = Board()
    height = 1
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        fields = line.split("\t")
        if len(fields) != 4:
            raise CorruptDump(f"line {lineno}: expected 4 tab-separated fields, got {len(fields)}")
        height_text, key_hex, value64, author_hex = fields
        if height_text != str(height):
            raise CorruptDump(f"line {lineno}: height {height_text!r}, expected {height}")
        try:
            key = a2b_hex(key_hex)
            author = a2b_hex(author_hex)
        except ValueError as exc:
            raise CorruptDump(f"line {lineno}: key and author must be 64 hex digits: "
                              f"{exc}") from exc
        if len(key) != 32 or len(author) != 32:
            raise CorruptDump(f"line {lineno}: key and author must be 64 hex digits")
        try:
            value = decode_base64(value64)
        except ValueError as exc:
            raise CorruptDump(f"line {lineno}: value is not padded base64: {exc}") from exc
        board._record(LedgerEntry(key, value, height, author))
        height += 1
    return board
