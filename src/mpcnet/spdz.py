"""SPDZ-style online phase: additive shares authenticated by linear MACs.

Every shared value s is held as n additive value shares plus n additive
shares of the MAC alpha*s under a global key alpha that is itself only ever
held in additive shares. Linear operations are local; multiplication
consumes a precomputed Beaver triple and only opens the masked differences
eps = x-a and delta = y-b. Every exchange is one broadcast round
(broadcast), n(n-1) messages read at party 0's view: the masks of a whole
multiplication layer open together in one (open_many), and each opened
value joins the MAC-check queue, a plain list, with its MAC shares. The
deferred batched check weighs the queue by public coins drawn from the
transcript and runs a commit round and an open round on the per-party check
values, so a single additive tamper survives only with probability 1/p.

Triples and authenticated sharings come from a trusted dealer here. The
production story replaces that dealer with an offline preprocessing phase;
everything downstream interacts with it only through deal_* calls, so the
substitution is confined to this module's dealer section.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from .errors import CheatDetected, TripleReuse
from .field import Field
from .keys import sha256


@dataclass(frozen=True)
class MacKey:
    """Global MAC key alpha and its additive split across parties.

    alpha is never opened during normal operation, which is what lets the
    key be reused across computations.
    """

    alpha: int
    alpha_shares: tuple

    @property
    def n(self) -> int:
        return len(self.alpha_shares)


@dataclass(frozen=True)
class AuthShare:
    """One party's (value share, MAC share) pair for a shared value."""

    value_share: int
    mac_share: int
    owner: int


@dataclass
class BeaverTriple:
    """Single-use multiplication triple: open(c) = open(a) * open(b)."""

    a: list
    b: list
    c: list
    consumed: bool = dc_field(default=False)


def additive_split(value: int, n: int, field: Field, rng: random.Random) -> list:
    """n uniform values summing to `value` mod p."""
    parts = [field.rand(rng) for _ in range(n - 1)]
    parts.append((value - sum(parts)) % field.p)
    return parts


def gen_mac_key(n: int, field: Field, rng: random.Random) -> MacKey:
    if n < 2:
        raise ValueError("need at least 2 parties")
    alpha = field.rand(rng)
    return MacKey(alpha=alpha, alpha_shares=tuple(additive_split(alpha, n, field, rng)))


def deal_authenticated(secret: int, n: int, key: MacKey, field: Field,
                       rng: random.Random) -> list:
    """Deal <secret>: value shares summing to s, MAC shares to alpha*s."""
    if n != key.n:
        raise ValueError("party count does not match MAC key split")
    secret %= field.p
    values = additive_split(secret, n, field, rng)
    macs = additive_split(field.mul(key.alpha, secret), n, field, rng)
    return [AuthShare(v, m, i) for i, (v, m) in enumerate(zip(values, macs))]


def deal_triples(count: int, n: int, key: MacKey, field: Field,
                 rng: random.Random) -> list:
    if count < 1:
        raise ValueError("need at least one triple")
    out = []
    for _ in range(count):
        a = field.rand(rng)
        b = field.rand(rng)
        out.append(BeaverTriple(
            a=deal_authenticated(a, n, key, field, rng),
            b=deal_authenticated(b, n, key, field, rng),
            c=deal_authenticated(field.mul(a, b), n, key, field, rng),
        ))
    return out


def auth_linear(terms: list, constant: int, key: MacKey, field: Field) -> list:
    """sum(coeff * <s>) + constant, computed locally by every party.

    The public constant lands on party 0's value share; its MAC is covered
    by every party adding alpha_share_i * constant to its MAC share.
    """
    n = key.n
    for _, shares in terms:
        if len(shares) != n or any(s.owner != i for i, s in enumerate(shares)):
            raise ValueError("mismatched parties across terms")
    # Each share is one exact integer sum, reduced once.
    p = field.p
    out = []
    for i, alpha_i in enumerate(key.alpha_shares):
        v = sum(c * shares[i].value_share for c, shares in terms)
        m = sum(c * shares[i].mac_share for c, shares in terms)
        out.append(AuthShare((v + constant if i == 0 else v) % p,
                             (m + alpha_i * constant) % p, i))
    return out


def broadcast(payloads: list, net) -> list:
    """One round of n(n-1) messages: party i sends payloads[i] to every other
    party. Every party would compute the same from its own inbox, so every
    inbox is drained and only party 0's is returned, as (src, payload)
    pairs in sender order: the round is read at party 0's view.
    """
    n = len(payloads)
    for i, payload in enumerate(payloads):
        for j in range(n):
            if j != i:
                net.send(i, j, payload)
    inbox = net.recv_all(0)
    for j in range(1, n):
        net.recv_all(j)
    return inbox


def open_many(sharings: list, field: Field, net, queue: list) -> list:
    """Reveal every sharing's value (not its MAC) in one broadcast round.

    Party i broadcasts one message carrying its value share of every
    sharing, in order: n(n-1) messages however many sharings there are.
    Each (opened value, MAC shares) pair is appended to the MAC-check queue,
    in order, for the deferred verification round.
    """
    n = len(sharings[0])
    inbox = broadcast([field.encode_many([shares[i].value_share for shares in sharings])
                       for i in range(n)], net)
    # Each total is one exact integer sum, reduced once.
    count = len(sharings)
    held = [shares[0].value_share for shares in sharings] + \
        field.decode_many([payload for _, payload in inbox], count)
    totals = [sum(held[k::count]) % field.p for k in range(count)]
    queue.extend((total, [s.mac_share for s in shares])
                 for total, shares in zip(totals, sharings))
    return totals


def partial_open(shares: list, field: Field, net, queue: list) -> int:
    """Reveal one sharing's value: n(n-1) messages (see open_many)."""
    return open_many([shares], field, net, queue)[0]


def open_pair(a: list, b: list, field: Field, net, queue: list) -> tuple:
    """Partially open two sharings in one broadcast round (see open_many)."""
    return tuple(open_many([a, b], field, net, queue))


def beaver_mul(x: list, y: list, triple: BeaverTriple, key: MacKey, field: Field,
               net, queue: list) -> list:
    """Multiply <x> and <y> by consuming a Beaver triple (see beaver_layer)."""
    return beaver_layer([(x, y)], [triple], key, field, net, queue)[0]


def beaver_layer(pairs: list, triples: list, key: MacKey, field: Field,
                 net, queue: list) -> list:
    """Multiply every pair (<x>, <y>) of one layer, one Beaver triple each.

    Parties open eps = x-a and delta = y-b of every product in a single
    broadcast round (n(n-1) sends per layer, eps and delta interleaved per
    product), then locally assemble <c> + eps<b> + delta<a> + eps*delta.
    MAC verification of the opened masks is deferred to the queued batch
    check.
    """
    if len(triples) != len(pairs):
        raise ValueError("need one triple per product")
    for triple in triples:
        if triple.consumed:
            raise TripleReuse("triple already consumed")
        triple.consumed = True
    minus_one = field.p - 1
    masks = []
    for (x, y), triple in zip(pairs, triples):
        masks.append(auth_linear([(1, x), (minus_one, triple.a)], 0, key, field))
        masks.append(auth_linear([(1, y), (minus_one, triple.b)], 0, key, field))
    opened = open_many(masks, field, net, queue)
    return [auth_linear([(1, triple.c), (eps, triple.b), (delta, triple.a)],
                        field.mul(eps, delta), key, field)
            for triple, eps, delta in zip(triples, opened[0::2], opened[1::2])]


def mac_check(queue: list, key: MacKey, field: Field, net,
              rng: random.Random) -> None:
    """Batched verification that every queued opening satisfies mac = alpha*s.

    A public coefficient rho_k weights each queued value; party i computes
    sigma_i = sum_k rho_k * (mac_share_{k,i} - alpha_share_i * s_k),
    commits to it with a salted hash, then opens. The batch passes iff the
    sigmas sum to zero, which never exposes alpha itself. Failure condemns
    the batch, not a specific party, and raises CheatDetected; the queue is
    emptied once every received opening matches its commitment.

    Both rounds are broadcasts read at party 0's view: each opening party 0
    received must hash to the commitment it received from that sender, and
    party 0's own sigma plus the received ones must sum to zero. The coins
    come from the transcript (Fiat-Shamir), rho_k = sha256(T || k as 8 bytes
    big-endian) mod p with T the queued values encoded in order, so none is
    known before the openings it weighs; only the salts come from rng.
    """
    if not queue:
        raise ValueError("empty MAC-check queue")
    p = field.p
    transcript = field.encode_many([value for value, _ in queue])
    rhos = [int.from_bytes(sha256(transcript + k.to_bytes(8, "big")), "big") % p
            for k in range(len(queue))]
    # Each sigma is one exact integer sum, reduced once.
    sigmas = [sum(rho * (mac_shares[i] - alpha_i * value)
                  for rho, (value, mac_shares) in zip(rhos, queue)) % p
              for i, alpha_i in enumerate(key.alpha_shares)]

    # Commit round, then open round: prevents a rushing party from choosing
    # its sigma after seeing the others.
    openings = [field.encode(sigma) + rng.randbytes(16) for sigma in sigmas]
    commits = broadcast([sha256(opening) for opening in openings], net)
    total = sigmas[0]
    for (committer, commit), (src, opening) in zip(commits, broadcast(openings, net)):
        if src != committer or sha256(opening) != commit:
            raise CheatDetected("commitment mismatch in MAC check")
        total += field.decode(opening[:field.elem_size])

    queue.clear()
    if total % p != 0:
        raise CheatDetected("MAC check failed on opened batch")
