"""Committee machinery: network reduction, log-depth multiplication, re-sharing.

Three ways of not paying the full n^2 price of naive MPC:

  select_committee   -- weighted random sampling of a working subset of the
                        network (reputation- and load-aware).
  hierarchical_mul   -- the committee-tree multiplication: the n(n-1)
                        all-to-all re-share of degree reduction is replaced
                        by constant-size committees arranged in a tree of
                        depth log_c(n), dropping total messages from
                        quadratic to linear in n.
  reduce_parties     -- re-shares values from N holders to the first m of
                        them, m being the layered plan's next committee
                        size (circuits.layerize sets the schedule).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .field import Field
from .shamir import ShamirShare, reconstruct, reshare, share, weights_at_zero
from . import spdz
from .spdz import AuthShare, MacKey


def selection_weight(node) -> float:
    """(1 + reputation) * capacity; zero-capacity nodes are never picked."""
    return (1.0 + node.reputation) * node.capacity


def select_committee(registry: list, k: int, rng: random.Random) -> list:
    """Weighted sampling without replacement from the node registry.

    Every node with positive weight has positive selection probability;
    equal weights degrade to uniform sampling.
    """
    candidates = [(node, selection_weight(node)) for node in registry]
    candidates = [(n, w) for n, w in candidates if w > 0]
    if k > len(candidates):
        raise ValueError(f"insufficient nodes: need {k}, have {len(candidates)} selectable")
    chosen = []
    for _ in range(k):
        total = sum(w for _, w in candidates)
        pick = rng.random() * total
        acc = 0.0
        for pos, (node, w) in enumerate(candidates):
            acc += w
            if pick < acc or pos == len(candidates) - 1:
                chosen.append(node)
                candidates.pop(pos)
                break
    return chosen


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


def _hop(senders: list, committee: tuple, t_c: int, field: Field, net,
         rng: random.Random) -> list:
    """One tree step: every (party, value, weight) sender deals a degree-t_c
    sharing of its value to `committee` (keeping its own sub-share if it is
    a member), and member k's new share is the weighted sum of the
    sub-shares it holds. Returns the members' shares in committee order."""
    weight_of = {party: weight for party, _, weight in senders}
    kept = {}
    for party, value, weight in senders:
        for member, sub in zip(committee, share(value, t_c, len(committee), field, rng)):
            if member == party:
                kept[member] = weight * sub.value
            else:
                net.send(party, member, field.encode(sub.value))
    return [(kept.get(member, 0) + sum(weight_of[src] * field.decode(payload)
                                       for src, payload in net.recv_all(member))) % field.p
            for member in committee]


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
    """
    n = tree.n_real
    if len(x) != n or len(y) != n:
        raise ValueError("sharing size does not match tree")
    t = x[0].threshold
    if 2 * t >= n:
        raise ValueError(f"honest majority violated: 2t={2 * t} >= n={n}")
    c = tree.c
    t_c = (c - 1) // 2
    party_weight = weights_at_zero(tuple(s.index for s in x), field.p)

    # Leaf phase: every real party deals its weighted local product within
    # its leaf committee only. Virtual dealers contribute a public zero and
    # send nothing, but virtual members still receive.
    current = {committee: _hop([(d, field.mul(x[d].value, y[d].value), party_weight[d])
                                for d in committee if d < n], committee, t_c, field, net, rng)
               for committee in tree.levels[0]}

    # Tree phase: each child committee re-shares its partial-sum shares to
    # the parent committee, which recombines with the child-local weights
    # and sums over its children.
    local_weights = weights_at_zero(tuple(range(1, c + 1)), field.p)
    for level in range(1, tree.depth):
        current = {parent: _hop([(member, current[child][pos], local_weights[pos])
                                 for child in tree.levels[level - 1][j * c:(j + 1) * c]
                                 for pos, member in enumerate(child)],
                                parent, t_c, field, net, rng)
                   for j, parent in enumerate(tree.levels[level])}

    root = tree.root
    shares = [ShamirShare(pos + 1, v, t_c) for pos, v in enumerate(current[root])]
    return CommitteeSharing(members=root, shares=shares, threshold=t_c)


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
    return reshare([[s.value for s in v] for v in values], indices, m, t, field,
                   net, rng)


def reduce_parties_spdz(values: list, m: int, key: MacKey, field: Field,
                        net, rng: random.Random) -> tuple:
    """Additive re-share of SPDZ values (and the MAC key split) to the first
    m parties.

    Every source splits each of its value/MAC shares (and its alpha share)
    into m summands; target j's new share is the sum of what it received.
    Sums over the whole committee are preserved exactly, so openings and
    MAC relations are unchanged. Returns (new values, new MacKey).
    """
    n = key.n
    if not 1 <= m <= n:
        raise ValueError(f"cannot re-share {n} parties to {m}")
    kept = {}
    for src in range(n):
        payloads = [b""] * m
        for sharing in values:
            v_parts = spdz.additive_split(sharing[src].value_share, m, field, rng)
            m_parts = spdz.additive_split(sharing[src].mac_share, m, field, rng)
            for tgt in range(m):
                payloads[tgt] += field.encode(v_parts[tgt]) + field.encode(m_parts[tgt])
        a_parts = spdz.additive_split(key.alpha_shares[src], m, field, rng)
        for tgt in range(m):
            payloads[tgt] += field.encode(a_parts[tgt])
            if tgt == src:
                kept[tgt] = payloads[tgt]
            else:
                net.send(src, tgt, payloads[tgt])

    w = field.elem_size
    acc_v = [[0] * len(values) for _ in range(m)]
    acc_m = [[0] * len(values) for _ in range(m)]
    acc_alpha = [0] * m
    for tgt in range(m):
        batches = [(tgt, kept[tgt])] if tgt in kept else []
        batches += net.recv_all(tgt)
        for _, payload in batches:
            for v_idx in range(len(values)):
                off = 2 * v_idx * w
                acc_v[tgt][v_idx] = field.add(
                    acc_v[tgt][v_idx], field.decode(payload[off:off + w]))
                acc_m[tgt][v_idx] = field.add(
                    acc_m[tgt][v_idx], field.decode(payload[off + w:off + 2 * w]))
            acc_alpha[tgt] = field.add(acc_alpha[tgt], field.decode(payload[-w:]))

    new_key = MacKey(alpha=key.alpha, alpha_shares=tuple(acc_alpha))
    new_values = [[AuthShare(acc_v[tgt][v_idx], acc_m[tgt][v_idx], tgt)
                   for tgt in range(m)] for v_idx in range(len(values))]
    return new_values, new_key
