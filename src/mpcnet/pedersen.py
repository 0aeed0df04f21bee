"""Pedersen commitments in an order-p subgroup of Z_q*.

The commitment to s with blinding r is g^s * h^r mod q, where g and h
generate the subgroup of prime order p (the sharing field's modulus) inside
the multiplicative group of a larger prime q with p | q-1. h is derived from
a hash so nobody knows log_g(h); the scheme is hiding (r uniform) and
binding (under discrete log), and multiplying commitments commits to the
sum of the openings -- the property the public audit trail leans on.

These are toy parameters: over M61, setup picks q = 52p + 1, a 67-bit
prime, and a discrete log in the order-p subgroup costs about 2^31 group
operations (Pollard's rho), so whoever computes log_g(h) can open a
commitment to any value. Binding is nominal here; hiding is unaffected.

g and h are fixed for a parameter set, so each CommitParams carries 8-bit
fixed-base window tables for them (Brickell, Gordon, McCurley and Wilson,
"Fast exponentiation with precomputation", EUROCRYPT 1992): row j of a
table holds base^(d * 256^j) for every byte d, and a power is the product
of one entry per byte of the exponent. A commitment to exponents below p
then costs two table look-ups and two multiplications per exponent byte
instead of two square-and-multiply exponentiations.

On the ledger a vector of commitments is fixed-width big-endian integers,
width(params) = ceil(bits(q) / 8) bytes each (9 over M61), back to back:
an input's VSS record is one such vector, and a trail's triple step holds
three (see audit).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .field import Field, is_prime
from .keys import sha256


def _window_table(base: int, q: int, p: int) -> tuple:
    """Rows base^(d * 256^j) mod q, d in [0, 256), one row per exponent byte
    needed to write any value below p."""
    rows = []
    for _ in range((p.bit_length() + 7) // 8):
        row = [1]
        for _ in range(255):
            row.append(row[-1] * base % q)
        rows.append(tuple(row))
        base = row[-1] * base % q
    return tuple(rows)


@dataclass(frozen=True)
class CommitParams:
    """Group modulus q, subgroup order p, and generators g, h.

    g_table and h_table are the fixed-base window tables of g and h, built
    once per parameter set; they are derived from q, p, g and h and take no
    part in comparison.
    """

    q: int
    p: int
    g: int
    h: int
    g_table: tuple = dc_field(init=False, compare=False, repr=False)
    h_table: tuple = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if (self.q - 1) % self.p != 0:
            raise ValueError("subgroup order must divide q - 1")
        for gen in (self.g, self.h):
            if gen in (0, 1) or pow(gen, self.p, self.q) != 1:
                raise ValueError("generator does not have order p")
        object.__setattr__(self, "g_table", _window_table(self.g, self.q, self.p))
        object.__setattr__(self, "h_table", _window_table(self.h, self.q, self.p))


def _derive_generator(tag: bytes, q: int, p: int, exclude=()) -> int:
    """Deterministically hash into the order-p subgroup."""
    cofactor = (q - 1) // p
    counter = 0
    while True:
        digest = sha256(tag + q.to_bytes((q.bit_length() + 7) // 8, "big") + bytes([counter]))
        u = int.from_bytes(digest, "big") % q
        if u > 1:
            g = pow(u, cofactor, q)
            if g != 1 and g not in exclude:
                return g
        counter += 1


_PARAM_CACHE: dict = {}


def setup(field: Field) -> CommitParams:
    """Deterministic parameters for the given field: smallest q = kp+1 prime.

    For the p=101 test field this lands on q=607; generators come from
    hashing-to-group so log_g(h) is unknown by construction.
    """
    if field.p in _PARAM_CACHE:
        return _PARAM_CACHE[field.p]
    k = 2
    while not is_prime(k * field.p + 1):
        k += 2
    q = k * field.p + 1
    g = _derive_generator(b"mpcnet-pedersen-g", q, field.p)
    h = _derive_generator(b"mpcnet-pedersen-h", q, field.p, exclude=(g,))
    params = CommitParams(q=q, p=field.p, g=g, h=h)
    _PARAM_CACHE[field.p] = params
    return params


def commit(s: int, r: int, params: CommitParams) -> int:
    """g^s * h^r mod q, as a product of one window-table entry per byte."""
    width = len(params.g_table)
    s_bytes = (s % params.p).to_bytes(width, "little")
    r_bytes = (r % params.p).to_bytes(width, "little")
    q = params.q
    acc = 1
    for g_row, h_row, s_byte, r_byte in zip(params.g_table, params.h_table,
                                            s_bytes, r_bytes):
        acc = acc * g_row[s_byte] * h_row[r_byte] % q
    return acc


def verify_open(commitment: int, s: int, r: int, params: CommitParams) -> bool:
    return commitment == commit(s, r, params)


def width(params: CommitParams) -> int:
    """Bytes per posted commitment: ceil(bits(q) / 8)."""
    return (params.q.bit_length() + 7) // 8


def pack_commitments(commitments: list, params: CommitParams) -> bytes:
    """The commitments as ceil(bits(q) / 8)-byte big-endian integers, back
    to back: a VSS record as posted."""
    w = width(params)
    return b"".join([c.to_bytes(w, "big") for c in commitments])


def unpack_commitments(data: bytes, n: int, params: CommitParams) -> list:
    """The n commitments of a pack_commitments string.

    Raises ValueError unless `data` is exactly n integers long. No range is
    checked: a value >= q reads back as posted, and the auditor folds it
    exactly.
    """
    w = width(params)
    if len(data) != n * w:
        raise ValueError(f"expected {n} commitments of {w} bytes, got {len(data)} bytes")
    return [int.from_bytes(data[i:i + w], "big") for i in range(0, len(data), w)]
