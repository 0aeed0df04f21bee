"""Shared identities and predicate-based access control.

A shared identity binds n freshly generated signing keys to one 256-bit
address obtained by XOR-folding the hashed public keys; the address maps to
an ACL on the ledger. Access decisions are made by predicates: small,
deterministic, publicly evaluable expressions over (ACL, requester key), so
any ledger verifier reaches the same verdict. The secret halves of the
keypairs stay off-ledger with their parties.

Predicate text form (documented grammar, bit-exact):

    <pred> := (any) | (owner) | (policy) | (keys 0xHH.. 0xHH..)
            | (and <pred> <pred>) | (or <pred> <pred>) | (not <pred>)

`(owner)` admits any key registered in the identity's ACL; `(policy)`
defers to the requester's own registered policy, which is how per-party
store rights are expressed; `(keys ...)` admits an explicit list.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .keys import sha256
from .ledger import Ledger, make_tx, writes_payload

ZERO_ADDR = bytes(32)


def fold_address(key_hashes: list) -> bytes:
    """XOR-fold hashed public keys, starting from the zero string."""
    addr = ZERO_ADDR
    for h in key_hashes:
        addr = bytes(x ^ y for x, y in zip(addr, h.ljust(len(addr), b"\x00")))
    return addr


def identity_address(pks: list) -> bytes:
    """addr_P = XOR over H(pk_i); for a single key this is just H(pk_1)."""
    return fold_address([sha256(pk) for pk in pks])


@dataclass(frozen=True)
class SharedIdentity:
    addr: bytes
    pks: tuple

    @property
    def n(self) -> int:
        return len(self.pks)


class Predicate:
    """Expression tree over the closed combinator set."""

    def __init__(self, op: str, children: tuple = (), keys: tuple = ()):
        self.op = op
        self.children = children
        self.keys = keys

    # -- constructors --------------------------------------------------------

    @classmethod
    def owner(cls):
        return cls("owner")

    @classmethod
    def policy(cls):
        return cls("policy")

    @classmethod
    def key_list(cls, pks):
        return cls("keys", keys=tuple(bytes(pk) for pk in pks))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, acl: dict, pk: bytes, _policy_depth: int = 1) -> bool:
        """Total function over (ACL, requester key); no side effects."""
        if self.op == "any":
            return True
        if self.op == "owner":
            return pk in acl
        if self.op == "keys":
            return pk in self.keys
        if self.op == "policy":
            if _policy_depth <= 0 or pk not in acl:
                return False
            return acl[pk].evaluate(acl, pk, _policy_depth - 1)
        if self.op == "and":
            return all(c.evaluate(acl, pk, _policy_depth) for c in self.children)
        if self.op == "or":
            return any(c.evaluate(acl, pk, _policy_depth) for c in self.children)
        if self.op == "not":
            return not self.children[0].evaluate(acl, pk, _policy_depth)
        raise ValueError(f"unknown predicate op {self.op!r}")

    # -- text form -----------------------------------------------------------

    def to_text(self) -> str:
        if self.op in ("any", "owner", "policy"):
            return f"({self.op})"
        if self.op == "keys":
            rendered = " ".join("0x" + k.hex() for k in self.keys)
            return f"(keys {rendered})" if rendered else "(keys)"
        inner = " ".join(c.to_text() for c in self.children)
        return f"({self.op} {inner})"

    def __eq__(self, other):
        return isinstance(other, Predicate) and other.to_text() == self.to_text()

    def __repr__(self):
        return f"Predicate[{self.to_text()}]"


def _tokenize(text: str) -> list:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_predicate(text: str) -> Predicate:
    tokens = _tokenize(text)
    pos = 0

    def parse() -> Predicate:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != "(":
            raise ValueError(f"predicate syntax error near token {pos}")
        pos += 1
        op = tokens[pos]
        pos += 1
        if op in ("any", "owner", "policy"):
            node = Predicate(op)
        elif op == "keys":
            pks = []
            while tokens[pos] != ")":
                tok = tokens[pos]
                if not tok.startswith("0x"):
                    raise ValueError(f"expected hex key, got {tok!r}")
                pks.append(bytes.fromhex(tok[2:]))
                pos += 1
            node = Predicate("keys", keys=tuple(pks))
        elif op in ("and", "or"):
            node = Predicate(op, children=(parse(), parse()))
        elif op == "not":
            node = Predicate(op, children=(parse(),))
        else:
            raise ValueError(f"unknown predicate op {op!r}")
        if tokens[pos] != ")":
            raise ValueError(f"expected ')' near token {pos}")
        pos += 1
        return node

    try:
        node = parse()
    except (IndexError, RecursionError):
        raise ValueError("predicate truncated or nested too deeply") from None
    if pos != len(tokens):
        raise ValueError("trailing tokens after predicate")
    return node


def serialize_acl(acl: dict) -> bytes:
    body = {pk.hex(): pred.to_text() for pk, pred in acl.items()}
    return json.dumps(body, sort_keys=True).encode()


def parse_acl(data: bytes) -> dict:
    body = json.loads(data.decode())
    if not isinstance(body, dict) or not all(isinstance(t, str) for t in body.values()):
        raise ValueError("an ACL is a JSON object of predicate texts")
    return {bytes.fromhex(pk): parse_predicate(text) for pk, text in body.items()}


@lru_cache(maxsize=16)
def _acl_view(data: bytes) -> MappingProxyType:
    """Read-only parsed ACL, memoised by its stored bytes.

    Every store and load checks a permission against the same few ACLs, and
    a parse is a pure function of the bytes, so a replaced ACL is simply a
    new key. The entries hold predicates over public keys, nothing secret.
    """
    return MappingProxyType(parse_acl(data))


def gen_shared_identity(keygens: list, policies: list, ledger: Ledger):
    """Protocol: fresh keypair per party, fold the address, register the ACL.

    keygens are zero-argument callables returning a KeyPair (so callers
    control the randomness source); policies align with them one-to-one.
    Returns (SharedIdentity, keypairs); the secret keys never touch the
    ledger.
    """
    if not keygens:
        raise ValueError("need at least one party")
    if len(policies) != len(keygens):
        raise ValueError("one policy per party")
    pairs = [gen() for gen in keygens]
    acl = {kp.sign_pk: pol for kp, pol in zip(pairs, policies)}
    addr = identity_address([kp.sign_pk for kp in pairs])

    registrar = pairs[0]
    tx = make_tx(registrar, "identity-registration",
                 writes_payload([(addr, serialize_acl(acl))]),
                 nonce=ledger.next_nonce(registrar.sign_pk))
    ledger.submit_tx(tx)
    return SharedIdentity(addr=addr, pks=tuple(kp.sign_pk for kp in pairs)), pairs


def check_permission(pk: bytes, addr: bytes, q: Predicate, board) -> int:
    """Permissions check against the board: 1 iff the identity exists and
    the predicate admits pk. Unknown addresses deny."""
    stored = board.get(addr)
    if stored is None:
        return 0
    return 1 if q.evaluate(_acl_view(stored), pk) else 0
