"""Committee machinery: network reduction, log-depth multiplication, re-sharing.

Three ways of not paying the full n^2 price of naive MPC:

  select_committee   -- uniform random sampling of a working subset of the
                        network.
  hierarchical_mul   -- the committee-tree multiplication: the n(n-1)
                        all-to-all re-share of degree reduction is replaced
                        by committees of c to 2c - 1 of the n parties
                        arranged in a tree of depth about log_c(n)
                        (committee_levels), dropping total messages from
                        quadratic to linear in n. There is no padding: every
                        committee member is a real party.
  reduce_parties     -- re-shares values from N holders to the first m of
                        them, m being the layered plan's next committee
                        size (circuits.layerize sets the schedule).

Every Shamir hand-off -- a tree hop, a party reduction -- is one call of
shamir.reshare; reduce_parties_spdz is its additive (SPDZ) counterpart.
"""

from __future__ import annotations

import random

from .field import Field
from .shamir import reshare, weights_at_zero
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


def _cut(items: list, c: int) -> list:
    """Consecutive groups of c; a short last group joins its neighbour."""
    groups = [items[i:i + c] for i in range(0, len(items), c)]
    if len(groups) > 1 and len(groups[-1]) < c:
        groups[-2:] = [groups[-2] + groups[-1]]
    return groups


def committee_levels(n: int, c: int) -> list:
    """The committee tree over parties 0..n-1, leaves first, root last.

    The leaves cut the parties into consecutive groups of c; each higher
    level cuts the committees below into consecutive groups of c children,
    and a parent takes its children's members rank by rank (every child's
    first member, then every child's second, ...) up to max(c, children).
    A short last group joins its neighbour, so every committee has c to
    2c - 1 members (all n when n < 2c). At n = c^k every committee has c
    members and a parent is its children's first members.
    """
    if c < 2:
        raise ValueError("committee size must be at least 2")
    if n < c:
        raise ValueError(f"need at least c={c} parties")
    levels = [_cut(list(range(n)), c)]
    while len(levels[-1]) > 1:
        levels.append([[m for rank in zip(*children) for m in rank][:max(c, len(children))]
                       for children in _cut(levels[-1], c)])
    return levels


def _points(committee: list) -> list:
    """A committee's (party, local evaluation point) pairs, points 1, 2, ..."""
    return [(member, x) for x, member in enumerate(committee, 1)]


def hierarchical_mul(x: list, y: list, c: int, field: Field,
                     net, rng: random.Random) -> list:
    """Multiply two degree-t sharings through the committee tree of
    committee_levels(len(x), c); returns the root committee's shares.

    Party i's weighted local product w_i * x_i * y_i is a private summand of
    x*y (w_i are the degree-2t interpolation weights over all n points).
    Each party deals its summand only within its leaf committee; committees
    aggregate locally and re-share their partial sums up the tree, one
    shamir.reshare per parent, until the root committee holds a degree-t_c
    sharing of the full product at its local points 1, 2, ... Every
    committee has c to 2c - 1 of the n real parties, so total messages are
    O(n * c^2) against the flat protocol's n(n-1), and no message goes to
    or comes from a party that does not exist. For n < 2c the tree is the
    one committee of all n, whose one re-share is mul_with_reduction's at
    degree t_c.

    Every hop re-shares at degree t_c = (c - 1) // 2, so t_c + 1 colluding
    members of one committee open what it holds: a sharing of threshold
    t > t_c is refused, since the tree would not keep it.
    """
    n = len(x)
    levels = committee_levels(n, c)
    if len(y) != n:
        raise ValueError("sharings differ in size")
    t = x[0].threshold
    if 2 * t >= n:
        raise ValueError(f"honest majority violated: 2t={2 * t} >= n={n}")
    t_c = (c - 1) // 2
    if t > t_c:
        raise ValueError(f"threshold t={t} exceeds the t_c={t_c} that "
                         f"committees of c={c} keep")
    p = field.p
    party_weight = weights_at_zero(tuple(s.index for s in x), p)

    # Leaf phase: every party deals its weighted local product within its
    # leaf committee only.
    held = [reshare([[field.mul(x[d].value, y[d].value) for d in leaf]], leaf,
                    [party_weight[d] for d in leaf], _points(leaf), t_c, field, net, rng)[0]
            for leaf in levels[0]]

    # Tree phase: each parent's children re-share their partial-sum shares
    # to it; it recombines with each child's local-point weights and sums
    # over its children.
    for below, level in zip(levels, levels[1:]):
        held = [reshare([[s.value for _, shares in children for s in shares]],
                        [m for child, _ in children for m in child],
                        [w for _, shares in children
                         for w in weights_at_zero(tuple(s.index for s in shares), p)],
                        _points(parent), t_c, field, net, rng)[0]
                for parent, children in zip(level, _cut(list(zip(below, held)), c))]
    return held[0]


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
