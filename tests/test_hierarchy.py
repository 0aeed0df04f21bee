import math
import random

import pytest

from mpcnet import shamir
from mpcnet.field import Field, M61
from mpcnet.hierarchy import (
    CommitteeTree,
    hierarchical_mul,
    reduce_parties,
    reduce_parties_spdz,
    select_committee,
)
from mpcnet.net import LocalChannel
from mpcnet.spdz import gen_mac_key, deal_authenticated, open_value


def make_nodes(count, rng):
    return [rng.randbytes(32) for _ in range(count)]


# -- committee selection --------------------------------------------------------

def test_uniform_weights_uniform_selection(rng):
    nodes = make_nodes(8, rng)
    counts = {n: 0 for n in nodes}
    draws = 10000
    k = 3
    for _ in range(draws):
        for picked in select_committee(nodes, k, rng):
            counts[picked] += 1
    expected = draws * k / len(nodes)
    sigma = math.sqrt(draws * (k / len(nodes)) * (1 - k / len(nodes)))
    for value, count in counts.items():
        assert abs(count - expected) <= 3 * sigma


def test_full_registry_selection(rng):
    nodes = make_nodes(4, rng)
    picked = select_committee(nodes, 4, rng)
    assert set(picked) == set(nodes)


def test_insufficient_nodes(rng):
    nodes = make_nodes(2, rng)
    with pytest.raises(ValueError, match="insufficient"):
        select_committee(nodes, 3, rng)


def test_pinned_committee_draw():
    # Each draw pops index floor(u * len(pool)); this is the draw the
    # network's committees have always been sampled with.
    rng = random.Random(2026)
    assert select_committee(list(range(20)), 7, rng) == [2, 10, 11, 17, 1, 5, 13]
    assert rng.random() == 0.5565590219245474


# -- committee tree --------------------------------------------------------------

def test_tree_shape():
    tree = CommitteeTree.build(27, 3)
    assert tree.depth == 3
    assert len(tree.levels[0]) == 9
    assert len(tree.root) == 3
    flat = [p for committee in tree.levels[0] for p in committee]
    assert flat == list(range(27))      # every party in exactly one leaf


def test_tree_padding():
    tree = CommitteeTree.build(5, 3)
    assert tree.n_real == 5
    assert len(tree.levels[0]) == 3     # padded to 9 virtual slots
    with pytest.raises(ValueError):
        CommitteeTree.build(2, 3)


def test_hierarchical_product_oracle(f101, rng):
    x = shamir.share(2, 1, 9, f101, rng)
    y = shamir.share(3, 1, 9, f101, rng)
    tree = CommitteeTree.build(9, 3)
    root = hierarchical_mul(x, y, tree, f101, LocalChannel(), rng)
    assert root.open(f101) == 6


def test_hierarchical_random_products():
    field = Field(M61)
    rng = random.Random(12)
    tree = CommitteeTree.build(9, 3)
    for _ in range(50):
        a, b = field.rand(rng), field.rand(rng)
        x = shamir.share(a, 1, 9, field, rng)
        y = shamir.share(b, 1, 9, field, rng)
        root = hierarchical_mul(x, y, tree, field, LocalChannel(), rng)
        assert root.open(field) == field.mul(a, b)


def test_hierarchical_padded_committee(f101, rng):
    # 5 real parties padded into a 9-slot tree; virtual summands are zero.
    x = shamir.share(7, 1, 5, f101, rng)
    y = shamir.share(8, 1, 5, f101, rng)
    tree = CommitteeTree.build(5, 3)
    root = hierarchical_mul(x, y, tree, f101, LocalChannel(), rng)
    assert root.open(f101) == 56


def test_degenerate_tree_equals_flat_protocol(f101, rng):
    x = shamir.share(4, 1, 3, f101, rng)
    y = shamir.share(5, 1, 3, f101, rng)
    flat_net = LocalChannel()
    shamir.mul_with_reduction(x, y, f101, flat_net, rng)
    tree_net = LocalChannel()
    root = hierarchical_mul(x, y, CommitteeTree.build(3, 3), f101, tree_net, rng)
    assert tree_net.messages == flat_net.messages == 6
    assert root.open(f101) == 20


def test_hierarchical_scaling_trend():
    field = Field(M61)
    rng = random.Random(3)
    ratios = {}
    for n in (9, 27, 81):
        x = shamir.share(2, 1, n, field, rng)
        y = shamir.share(3, 1, n, field, rng)
        net = LocalChannel()
        root = hierarchical_mul(x, y, CommitteeTree.build(n, 3), field, net, rng)
        assert root.open(field) == 6
        assert net.messages <= 2 * n * 3 ** 2    # K*n*c^2 with a generous K = 2
        ratios[n] = net.messages / n
    assert max(ratios.values()) / min(ratios.values()) < 2
    baseline_ratio = {n: n - 1 for n in ratios}
    assert baseline_ratio[81] / baseline_ratio[9] >= 8


@pytest.mark.parametrize("n,messages", [(5, 34), (9, 42), (10, 116), (27, 150),
                                        (28, 368)])
def test_hierarchical_exact_message_counts(n, messages):
    # Padding counts: at n = 10 the tree pads to 27 parties, and virtual
    # members still receive (ROADMAP item 7).
    field = Field(M61)
    rng = random.Random(n)
    x = shamir.share(6, 1, n, field, rng)
    y = shamir.share(7, 1, n, field, rng)
    net = LocalChannel()
    root = hierarchical_mul(x, y, CommitteeTree.build(n, 3), field, net, rng)
    assert net.messages == messages
    assert root.open(field) == 42


def test_hierarchical_requires_honest_majority(f101, rng):
    x = shamir.share(1, 5, 9, f101, rng)
    y = shamir.share(1, 5, 9, f101, rng)
    with pytest.raises(ValueError, match="honest majority"):
        hierarchical_mul(x, y, CommitteeTree.build(9, 3), f101, LocalChannel(), rng)


# -- party reduction --------------------------------------------------------------

def test_reduce_parties_shamir(f101, rng):
    values = [shamir.share(v, 1, 9, f101, rng) for v in (10, 20, 30)]
    net = LocalChannel()
    reduced = reduce_parties(values, 3, f101, net, rng)
    assert all(len(r) == 3 for r in reduced)
    assert [shamir.reconstruct(r, f101) for r in reduced] == [10, 20, 30]
    # One batched message per (source, target) pair, no self-sends.
    assert net.messages == 3 * 8


def test_reduce_parties_same_size_reshare(f101, rng):
    # Re-sharing to m = N keeps the holders and refreshes their shares;
    # the floor that stops a schedule at 3 lives in circuits.layerize.
    values = [shamir.share(5, 1, 9, f101, rng)]
    first = reduce_parties(values, 3, f101, LocalChannel(), rng)
    assert len(first[0]) == 3
    net = LocalChannel()
    second = reduce_parties(first, 3, f101, net, rng)
    assert [s.index for s in second[0]] == [1, 2, 3]
    assert [s.value for s in second[0]] != [s.value for s in first[0]]
    assert shamir.reconstruct(second[0], f101) == 5
    assert net.messages == 3 * 2


def test_reduce_parties_rejects_growing(f101, rng):
    values = [shamir.share(5, 1, 3, f101, rng)]
    with pytest.raises(ValueError, match="cannot re-share 3 parties to 4"):
        reduce_parties(values, 4, f101, LocalChannel(), rng)
    key = gen_mac_key(3, f101, rng)
    auth = [deal_authenticated(5, 3, key, f101, rng)]
    with pytest.raises(ValueError, match="cannot re-share 3 parties to 4"):
        reduce_parties_spdz(auth, 4, key, f101, LocalChannel(), rng)


def test_reduce_parties_below_quorum(f101, rng):
    values = [shamir.share(5, 3, 9, f101, rng)]
    with pytest.raises(ValueError, match="quorum"):
        reduce_parties(values, 3, f101, LocalChannel(), rng)


def test_reduce_random_values_survive():
    field = Field(M61)
    rng = random.Random(31)
    secrets = [field.rand(rng) for _ in range(100)]
    values = [shamir.share(s, 1, 8, field, rng) for s in secrets]
    reduced = reduce_parties(values, 4, field, LocalChannel(), rng)
    assert all(len(r) == 4 for r in reduced)
    assert [shamir.reconstruct(r, field) for r in reduced] == secrets


def test_reduce_parties_spdz(f101, rng):
    key = gen_mac_key(6, f101, rng)
    values = [deal_authenticated(v, 6, key, f101, rng) for v in (11, 22)]
    net = LocalChannel()
    reduced, new_key = reduce_parties_spdz(values, 3, key, f101, net, rng)
    assert new_key.n == 3
    assert sum(new_key.alpha_shares) % 101 == key.alpha
    for sharing, expected in zip(reduced, (11, 22)):
        assert open_value(sharing, f101) == expected
        mac_total = sum(s.mac_share for s in sharing) % 101
        assert mac_total == f101.mul(key.alpha, expected)
