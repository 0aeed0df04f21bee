"""Committee machinery: network reduction, log-depth multiplication, re-sharing.

Three ways of not paying the full n^2 price of naive MPC:

  select_committee   -- uniform random sampling of a working subset of the
                        network.
  hierarchical_mul   -- the committee-tree multiplication: the n(n-1)
                        all-to-all re-share of degree reduction is replaced
                        by constant-size committees arranged in a tree of
                        depth log_c(n), dropping total messages from
                        quadratic to linear in n.
  reduce_parties     -- re-shares values from N holders to the first m of
                        them, m being the layered plan's next committee
                        size (circuits.layerize sets the schedule).

Every Shamir hand-off -- a tree hop, a party reduction -- is one call of
shamir.reshare; reduce_parties_spdz is its additive (SPDZ) counterpart.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .field import Field
from .shamir import reconstruct, reshare, weights_at_zero
from . import spdz
from .spdz import AuthShare, MacKey


def select_committee(candidates: list, k: int, rng: random.Random) -> list:
    """Uniform sampling of k candidates without replacement, in draw order.

    Each draw pops the candidate at index floor(u * len(pool)) for one
    uniform u = rng.random().
    """
    if k > len(candidates):
        raise ValueError(f"insufficient nodes: need {k}, have {len(candidates)} selectable")
    pool = list(candidates)
    return [pool.pop(min(int(rng.random() * len(pool)), len(pool) - 1))
            for _ in range(k)]


@dataclass(frozen=True)
class CommitteeTree:
    """Leaf committees of size c composed up to a single root committee.

    Parties are integers 0..n_padded-1; ids >= n_real are virtual padding
    whose contributions are publicly zero. levels[0] are the leaves; each
    higher-level committee is formed from the first member of each of its c
    children, so the root always has exactly c members.
    """

    n_real: int
    c: int
    levels: tuple  # tuple of levels, each a tuple of committees (party tuples)

    @classmethod
    def build(cls, n: int, c: int) -> "CommitteeTree":
        if c < 2:
            raise ValueError("committee size must be at least 2")
        if n < c:
            raise ValueError(f"need at least c={c} parties")
        padded = c
        while padded < n:
            padded *= c
        leaves = tuple(tuple(range(i, i + c)) for i in range(0, padded, c))
        levels = [leaves]
        while len(levels[-1]) > 1:
            prev = levels[-1]
            nxt = tuple(tuple(child[0] for child in prev[j:j + c])
                        for j in range(0, len(prev), c))
            levels.append(nxt)
        return cls(n_real=n, c=c, levels=tuple(levels))

    @property
    def depth(self) -> int:
        return len(self.levels)

    @property
    def root(self) -> tuple:
        return self.levels[-1][0]


@dataclass
class CommitteeSharing:
    """A degree-t sharing held by one committee (local points 1..c)."""

    members: tuple       # party ids, position matters
    shares: list         # ShamirShare with index = local position + 1
    threshold: int

    def open(self, field: Field) -> int:
        return reconstruct(self.shares, field)


def hierarchical_mul(x: list, y: list, tree: CommitteeTree, field: Field,
                     net, rng: random.Random) -> CommitteeSharing:
    """Multiply two degree-t sharings through the committee tree.

    Party i's weighted local product w_i * x_i * y_i is a private summand of
    x*y (w_i are the degree-2t interpolation weights over all real points).
    Each party deals its summand only within its size-c leaf committee;
    committees aggregate locally and re-share their partial sums up the
    tree, c^2 messages per edge, until the root committee holds a degree-t_c
    sharing of the full product. Total messages are O(n * c^2) against the
    flat protocol's n(n-1); for n = c the tree degenerates to exactly
    mul_with_reduction.

    Every hop re-shares at degree t_c = (c - 1) // 2, so t_c + 1 colluding
    members of one committee open what it holds: a sharing of threshold
    t > t_c is refused, since the tree would not keep it.
    """
    n = tree.n_real
    if len(x) != n or len(y) != n:
        raise ValueError("sharing size does not match tree")
    t = x[0].threshold
    if 2 * t >= n:
        raise ValueError(f"honest majority violated: 2t={2 * t} >= n={n}")
    c = tree.c
    t_c = (c - 1) // 2
    if t > t_c:
        raise ValueError(f"threshold t={t} exceeds the t_c={t_c} that "
                         f"committees of c={c} keep")
    party_weight = weights_at_zero(tuple(s.index for s in x), field.p)

    # Leaf phase: every real party deals its weighted local product within
    # its leaf committee only. Virtual dealers contribute a public zero and
    # send nothing, but virtual members still receive.
    local_points = range(1, c + 1)
    current = {}
    for committee in tree.levels[0]:
        real = [d for d in committee if d < n]
        current[committee] = reshare(
            [[field.mul(x[d].value, y[d].value) for d in real]], real,
            [party_weight[d] for d in real], list(zip(committee, local_points)),
            t_c, field, net, rng)[0]

    # Tree phase: each child committee re-shares its partial-sum shares to
    # the parent committee, which recombines with the child-local weights
    # and sums over its children.
    local_weights = weights_at_zero(tuple(local_points), field.p)
    for level in range(1, tree.depth):
        below, current = current, {}
        for j, parent in enumerate(tree.levels[level]):
            children = tree.levels[level - 1][j * c:(j + 1) * c]
            current[parent] = reshare(
                [[s.value for child in children for s in below[child]]],
                [member for child in children for member in child],
                local_weights * len(children), list(zip(parent, local_points)),
                t_c, field, net, rng)[0]

    root = tree.root
    return CommitteeSharing(members=root, shares=current[root], threshold=t_c)


def reduce_parties(values: list, m: int, field: Field, net, rng: random.Random) -> list:
    """Re-share every sharing in `values` from its N holders to the first m.

    Each source party deals a fresh degree-t sharing of each of its shares
    to the m target parties (one batched message per source/target pair,
    shamir.reshare); targets recombine with the source-point interpolation
    weights. Opened values are unchanged; the departing parties' shares
    simply stop being part of any quorum.
    """
    if not values:
        return []
    n = len(values[0])
    t = values[0][0].threshold
    for v in values:
        if len(v) != n or v[0].threshold != t:
            raise ValueError("mismatched sharings in reduction batch")
    if m > n:
        raise ValueError(f"cannot re-share {n} parties to {m}")
    if m < t + 1:
        raise ValueError(f"below quorum: cannot reduce {n} parties to {m} < t+1")
    indices = tuple(s.index for s in values[0])
    return reshare([[s.value for s in v] for v in values], indices,
                   weights_at_zero(indices, field.p), [(i, i) for i in indices[:m]],
                   t, field, net, rng)


def reduce_parties_spdz(values: list, m: int, key: MacKey, field: Field,
                        net, rng: random.Random) -> tuple:
    """Additive re-share of SPDZ values (and the MAC key split) to the first
    m parties.

    Every source splits one flat row -- each value's (value, MAC) shares,
    then its alpha share -- into m additive summands and sends target j one
    message with the j-th summand of every element, in row order; it keeps
    its own. Target j's new row is the sum of what it holds. Sums over the
    whole committee are preserved exactly, so openings and MAC relations
    are unchanged. Returns (new values, new MacKey).
    """
    n = key.n
    if not 1 <= m <= n:
        raise ValueError(f"cannot re-share {n} parties to {m}")
    kept = {}
    for src in range(n):
        row = [x for sharing in values
               for x in (sharing[src].value_share, sharing[src].mac_share)]
        parts = [spdz.additive_split(x, m, field, rng)
                 for x in row + [key.alpha_shares[src]]]
        for tgt, column in enumerate(zip(*parts)):
            if tgt == src:
                kept[tgt] = column
            else:
                net.send(src, tgt, field.encode_many(column))

    count = 2 * len(values) + 1
    sums = []
    for tgt in range(m):
        rows = [kept[tgt]] + [field.decode_many([payload], count)
                              for _, payload in net.recv_all(tgt)]
        sums.append([sum(column) % field.p for column in zip(*rows)])
    new_key = MacKey(alpha=key.alpha, alpha_shares=tuple(row[-1] for row in sums))
    new_values = [[AuthShare(row[2 * k], row[2 * k + 1], tgt) for tgt, row in enumerate(sums)]
                  for k in range(len(values))]
    return new_values, new_key
