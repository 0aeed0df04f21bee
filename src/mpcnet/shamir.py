"""Shamir secret sharing with its homomorphisms and product degree reduction.

A secret s is embedded as the constant term of a random degree-t polynomial
q over GF(p); party i holds the point q(i) for the canonical evaluation
points 1..n. Any t+1 distinct points reconstruct q(0) by Lagrange
interpolation; any t points are information-theoretically independent of s.

Addition and scalar multiplication act share-wise with no interaction.
Multiplying two degree-t sharings yields points on a degree-2t polynomial,
so a re-share-and-recombine reduction step brings the product back to
degree t. That step is the only one here that touches the network. The
independent products of one multiplication layer share it: it costs
exactly n(n-1) point-to-point messages per multiplication *layer*, each
carrying one sub-share per product (Damgård–Nielsen, CRYPTO 2007).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from .field import Field, eval_poly


@dataclass(frozen=True)
class ShamirShare:
    """One party's point on the sharing polynomial.

    index is the party's evaluation point (never 0 -- that is the secret);
    threshold is the polynomial degree t of the sharing it belongs to.
    """

    index: int
    value: int
    threshold: int


def share(secret: int, t: int, n: int, field: Field, rng: random.Random) -> list:
    """Deal n shares of `secret` with reconstruction threshold t+1.

    The polynomial is q(x) = secret + a_1 x + ... + a_t x^t with a_1..a_t
    uniform in [0, p); shares are q(1)..q(n).
    """
    if not 0 <= t < n:
        raise ValueError(f"invalid threshold: need 0 <= t < n, got t={t}, n={n}")
    if n >= field.p:
        raise ValueError(f"field too small: need n < p, got n={n}, p={field.p}")
    coeffs = [secret % field.p] + [field.rand(rng) for _ in range(t)]
    return [ShamirShare(i, y, t)
            for i, y in enumerate(eval_poly(coeffs, range(1, n + 1), field.p), 1)]


@lru_cache(maxsize=4096)
def weights_at_zero(indices: tuple, p: int) -> tuple:
    """Lagrange coefficients L_i(0) for the given distinct evaluation points."""
    field = Field(p)
    out = []
    for i, xi in enumerate(indices):
        num, den = 1, 1
        for j, xj in enumerate(indices):
            if j == i:
                continue
            num = field.mul(num, field.neg(xj))
            den = field.mul(den, field.sub(xi, xj))
        out.append(field.div(num, den))
    return tuple(out)


def interpolate_at_zero(points: list, field: Field) -> int:
    """Evaluate the unique polynomial through `points` at x=0."""
    indices = tuple(x for x, _ in points)
    weights = weights_at_zero(indices, field.p)
    acc = 0
    for (_, y), w in zip(points, weights):
        acc = field.add(acc, field.mul(w, y))
    return acc


def lagrange_eval(points: list, x: int, field: Field) -> int:
    """Evaluate the unique polynomial through `points` at an arbitrary x."""
    acc = 0
    for i, (xi, yi) in enumerate(points):
        num, den = 1, 1
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            num = field.mul(num, field.sub(x, xj))
            den = field.mul(den, field.sub(xi, xj))
        acc = field.add(acc, field.mul(yi, field.div(num, den)))
    return acc


def reconstruct(shares: list, field: Field) -> int:
    """Recover the secret from at least t+1 distinct-index shares."""
    if not shares:
        raise ValueError("insufficient shares: none supplied")
    t = shares[0].threshold
    for s in shares:
        if s.threshold != t:
            raise ValueError("mismatched thresholds across shares")
    if len(shares) <= t:
        raise ValueError(f"insufficient shares: got {len(shares)}, need {t + 1}")
    indices = [s.index for s in shares]
    if len(set(indices)) != len(indices):
        raise ValueError("duplicate share index")
    return interpolate_at_zero([(s.index, s.value) for s in shares], field)


def _check_aligned(share_lists: list) -> tuple:
    """All input sharings must agree on (t, n) and party indices."""
    first = share_lists[0]
    t = first[0].threshold
    indices = tuple(s.index for s in first)
    for lst in share_lists[1:]:
        if tuple(s.index for s in lst) != indices or lst[0].threshold != t:
            raise ValueError("mismatched sharing parameters across inputs")
    return t, indices

def linear_combine(share_lists: list, coeffs: list, constant: int, field: Field) -> list:
    """Share-wise sum(c_j * [s_j]) + constant; purely local, no messages.

    Adding the constant to every share adds the constant polynomial, so the
    reconstruction shifts by exactly `constant`.
    """
    if len(share_lists) != len(coeffs):
        raise ValueError("mismatched parameters: one coefficient per sharing")
    if not share_lists:
        raise ValueError("mismatched parameters: need at least one sharing")
    t, indices = _check_aligned(share_lists)
    # Each share is one exact integer sum, reduced once.
    columns = zip(*([s.value for s in lst] for lst in share_lists))
    return [ShamirShare(idx, (sum(c * v for c, v in zip(coeffs, column)) + constant)
                        % field.p, t)
            for idx, column in zip(indices, columns)]


def mul_with_reduction(x: list, y: list, field: Field, net, rng: random.Random) -> list:
    """Secure product of two degree-t sharings, reduced back to degree t.

    A multiplication layer holding this one product: exactly n(n-1)
    messages, as for every multiplication layer (see mul_layer).
    """
    return mul_layer([(x, y)], field, net, rng)[0]


def mul_layer(pairs: list, field: Field, net, rng: random.Random) -> list:
    """Secure products of independent degree-t sharing pairs, one batch.

    Each party multiplies its shares locally (a point on the degree-2t
    product polynomial) and the points are re-shared at degree t to every
    party (see reshare), which combines them with the degree-2t Lagrange
    weights. Requires an honest majority (2t < n) so the product
    polynomial is determined by the n available points.

    Exactly n(n-1) messages cross `net` per multiplication *layer*, however
    many products it holds. Sub-sharings are dealt products-outer,
    parties-inner, so the rng draws are those of one mul_with_reduction
    call per pair in turn.
    """
    t, indices = _check_aligned([s for pair in pairs for s in pair])
    n = len(indices)
    if 2 * t >= n:
        raise ValueError(f"honest majority violated: need 2t < n, got t={t}, n={n}")
    points = [[field.mul(a.value, b.value) for a, b in zip(x, y)] for x, y in pairs]
    return reshare(points, indices, weights_at_zero(indices, field.p),
                   [(i, i) for i in indices], t, field, net, rng)


def reshare(points: list, sources: list, weights: list, targets: list, t: int,
            field: Field, net, rng: random.Random) -> list:
    """Re-share weighted points at degree t from `sources` to `targets`.

    points[k][i] is party sources[i]'s point of the k-th value and weights[i]
    its recombination weight; targets lists (party, evaluation point) pairs,
    and a target need not be a source. Every source deals a fresh degree-t
    sharing of each of its points at the targets' evaluation points (values
    outer, sources inner) and sends each other target one message with its
    sub-share of every value, in order; it keeps its own. A source encodes
    all its sub-shares once, target-major, and each message is its target's
    len(points) * elem_size byte slice of that encoding. Each target's new
    share of value k is the weighted sum of the sub-shares it holds. This is
    the Damgård–Nielsen re-share step (CRYPTO 2007). Returns, per value, the
    targets' degree-t shares indexed by their evaluation points.
    """
    # subs[i][k][j] is source i's sub-share of value k for target j.
    p = field.p
    xs = [x for _, x in targets]
    subs = [[] for _ in sources]
    for values in points:
        for d, rows in zip(values, subs):
            rows.append(eval_poly([d] + [field.rand(rng) for _ in range(t)], xs, p))

    # kept[party] holds the sub-shares a source keeps for itself. flat holds
    # a source's sub-shares target-major: target j's are
    # flat[j * count:(j + 1) * count].
    count = len(points)
    width = count * field.elem_size
    kept = {}
    for src, rows in zip(sources, subs):
        flat = [0] * (count * len(targets))
        for k, row in enumerate(rows):
            flat[k::count] = row
        encoded = field.encode_many(flat)
        for j, (tgt, _) in enumerate(targets):
            if tgt == src:
                kept[tgt] = tuple(flat[j * count:(j + 1) * count])
            else:
                net.send(src, tgt, encoded[j * width:(j + 1) * width])

    weight_of = dict(zip(sources, weights))
    shares = [[] for _ in points]
    for tgt, x in targets:
        # Every payload in the inbox is decoded in one pass: held is flat,
        # count sub-shares per source, and the target's own come last.
        inbox = net.recv_all(tgt)
        held = field.decode_many([payload for _, payload in inbox], count)
        held_weights = [weight_of[src] for src, _ in inbox]
        if tgt in kept:
            held += kept[tgt]
            held_weights.append(weight_of[tgt])
        # Exact integer sums of the weighted sub-shares, reduced once.
        for k in range(count):
            total = sum(map(mul, held_weights, held[k::count]))
            shares[k].append(ShamirShare(x, total % p, t))
    return shares
