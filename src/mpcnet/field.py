"""Prime-field arithmetic shared by every sharing scheme in the package.

All secret values, shares and MACs live in GF(p) for a configurable prime p.
The default runtime field is the Mersenne prime M61 = 2^61 - 1. Reduction is
a plain `%`: a shift-and-add Mersenne reduction written in Python measured
slower than CPython's own big-int modulo. Tests mostly use p = 101 so
expected values can be checked by hand.

Values are plain Python ints in [0, p); a Field instance carries the modulus
and provides the operations. There is deliberately no element wrapper class:
profiling desk-scale protocol runs showed the wrapper costing more than the
arithmetic.

is_prime is memoized: every Field(p), every scenario check and Pedersen's
search for its group modulus ask about the same few numbers on each run,
and a twelve-base Miller-Rabin of M61 costs about 0.2 ms.

Field.rand draws exactly as random.Random.randrange(p) does, by the same
rejection loop over getrandbits(p.bit_length()), so every seeded run keeps
its draws and leaves the generator in the same state; it only skips
randrange's argument checks and its two extra calls per draw.
"""

from __future__ import annotations

import functools
import random

M61 = (1 << 61) - 1  # default runtime modulus, 2305843009213693951

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@functools.lru_cache(typed=True)
def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, memoized per (n, type).

    Deterministic (exact) only for n < 3.3 * 10^24. Above that bound it is
    only a probable-prime test: a composite that is a strong pseudoprime to
    all twelve bases passes, and such composites can be constructed.
    """
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """GF(p) for prime p.

    Attributes:
        p: The prime modulus.
        bits: p's bit length, the width of each draw that rand tries.
        elem_size: Fixed byte width used when encoding elements on the wire.
    """

    __slots__ = ("p", "bits", "elem_size")

    def __init__(self, p: int = M61):
        # A float such as 3.0 would pass is_prime's small-prime loop.
        if type(p) is not int:
            raise ValueError(f"field modulus must be an int, got {p!r}")
        if not is_prime(p):
            raise ValueError(f"field modulus must be prime, got {p}")
        self.p = p
        self.bits = p.bit_length()
        self.elem_size = (p - 1).bit_length() // 8 + 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("Field", self.p))

    def __repr__(self) -> str:
        return f"Field({self.p})"

    def add(self, a: int, b: int) -> int:
        s = a + b
        if s >= self.p:
            s -= self.p
        return s

    def sub(self, a: int, b: int) -> int:
        s = a - b
        if s < 0:
            s += self.p
        return s

    def neg(self, a: int) -> int:
        return self.p - a if a else 0

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("no inverse of 0 in GF(p)")
        return pow(a, -1, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def rand(self, rng: random.Random) -> int:
        """Uniform element of [0, p): rng.randrange(p)'s value and draws."""
        p, k = self.p, self.bits
        getrandbits = rng.getrandbits
        r = getrandbits(k)
        while r >= p:
            r = getrandbits(k)
        return r

    def encode(self, a: int) -> bytes:
        """Fixed-width big-endian encoding (width never depends on the value)."""
        return a.to_bytes(self.elem_size, "big")

    def decode(self, data: bytes) -> int:
        return self.decode_many([data], 1)[0]

    def encode_many(self, values) -> bytes:
        """The encodings of `values`, concatenated in order."""
        w = self.elem_size
        return b"".join([v.to_bytes(w, "big") for v in values])

    def decode_many(self, payloads: list, count: int) -> list:
        """The elements of every payload, in order, each payload holding
        exactly `count` encodings: a flat list of count * len(payloads).

        Raises ValueError when a payload is not count * elem_size bytes long
        or holds an element >= p.
        """
        w = self.elem_size
        for data in payloads:
            if len(data) != count * w:
                raise ValueError(f"expected {count * w} bytes, got {len(data)}")
        data = b"".join(payloads)
        values = [int.from_bytes(data[i:i + w], "big") for i in range(0, len(data), w)]
        if values and max(values) >= self.p:
            raise ValueError("encoded value out of field range")
        return values


def eval_poly(coeffs: list, xs: list, p: int) -> list:
    """a_0 + a_1 x + ... (lowest degree first) at every x in xs, mod p.

    Horner's rule runs across the whole vector of points in exact integers,
    reduced once at the end, so no call is made per coefficient.
    """
    acc = [0] * len(xs)
    for c in reversed(coeffs):
        acc = [a * x + c for a, x in zip(acc, xs)]
    return [a % p for a in acc]


DEFAULT_FIELD = Field(M61)
