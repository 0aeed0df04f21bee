"""Shared identities and predicate-based access control.

A shared identity binds n signing keys to one 256-bit address, the hash of
the sorted public keys; the address maps to an ACL on the ledger. Access
decisions are made by predicates: small, deterministic, publicly evaluable
expressions over (ACL, requester key), so any ledger verifier reaches the
same verdict. The secret halves of the
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

def identity_address(pks: list) -> bytes:
    """addr_P = H(sorted pks concatenated); for a single key this is H(pk_1).

    The paper folds H(pk_i) by XOR, which is linear over GF(2): about 256
    keys of one's own reach any chosen address. A hash over the whole sorted
    key set binds the address to keys that nobody else can produce.
    """
    return sha256(b"".join(sorted(pks)))


@dataclass(frozen=True)
class SharedIdentity:
    addr: bytes
    pks: tuple


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


def gen_shared_identity(keypairs: list, policies: list, ledger: Ledger) -> SharedIdentity:
    """Protocol: hash the parties' keys into the address, register the ACL.

    policies align with keypairs one-to-one; the first party signs the
    registration. The secret keys never touch the ledger.
    """
    if not keypairs:
        raise ValueError("need at least one party")
    if len(policies) != len(keypairs):
        raise ValueError("one policy per party")
    pks = tuple(kp.sign_pk for kp in keypairs)
    acl = dict(zip(pks, policies))
    addr = identity_address(pks)

    registrar = keypairs[0]
    tx = make_tx(registrar, "identity-registration",
                 writes_payload([(addr, serialize_acl(acl))]),
                 nonce=ledger.next_nonce(registrar.sign_pk))
    ledger.submit_tx(tx)
    return SharedIdentity(addr=addr, pks=pks)


def check_permission(pk: bytes, addr: bytes, q: Predicate, board) -> bool:
    """Permissions check against the board: True iff the identity exists and
    the predicate admits pk. Unknown addresses deny."""
    stored = board.get(addr)
    return stored is not None and q.evaluate(_acl_view(stored), pk)
