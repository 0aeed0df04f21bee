import random

import pytest

from mpcnet import spdz
from mpcnet.errors import CheatDetected, MissingParty, TripleReuse
from mpcnet.field import Field, M61
from mpcnet.net import LocalChannel


@pytest.fixture
def key(f101, rng):
    return spdz.gen_mac_key(3, f101, rng)


def test_deal_authenticated_mac_sum(f101, rng):
    key = spdz.MacKey(alpha=7, alpha_shares=tuple(spdz.additive_split(7, 3, f101, rng)))
    shares = spdz.deal_authenticated(4, 3, key, f101, rng)
    assert sum(s.value_share for s in shares) % 101 == 4
    assert sum(s.mac_share for s in shares) % 101 == 28


def test_deal_zero(f101, rng, key):
    shares = spdz.deal_authenticated(0, 3, key, f101, rng)
    assert sum(s.value_share for s in shares) % 101 == 0
    assert sum(s.mac_share for s in shares) % 101 == 0


def test_independent_dealings_same_sums(f101, rng, key):
    a = spdz.deal_authenticated(42, 3, key, f101, rng)
    b = spdz.deal_authenticated(42, 3, key, f101, rng)
    assert [s.value_share for s in a] != [s.value_share for s in b]
    assert sum(s.value_share for s in a) % 101 == sum(s.value_share for s in b) % 101


def test_triple_defining_property(f101, rng, key):
    for triple in spdz.deal_triples(20, 3, key, f101, rng):
        a = spdz.open_value(triple.a, f101)
        b = spdz.open_value(triple.b, f101)
        assert spdz.open_value(triple.c, f101) == f101.mul(a, b)


def test_triple_forced_values(f101, key, scripted):
    triple = spdz.deal_triples(1, 3, key, f101, scripted([2, 3]))[0]
    assert spdz.open_value(triple.a, f101) == 2
    assert spdz.open_value(triple.b, f101) == 3
    assert spdz.open_value(triple.c, f101) == 6


def test_triples_distinct_at_large_field():
    field = Field(M61)
    rng = random.Random(8)
    key = spdz.gen_mac_key(3, field, rng)
    triples = spdz.deal_triples(100, 3, key, field, rng)
    pairs = {(spdz.open_value(t.a, field), spdz.open_value(t.b, field)) for t in triples}
    assert len(pairs) == 100


def test_auth_linear_sum_and_constant(f101, rng, key):
    s1 = spdz.deal_authenticated(10, 3, key, f101, rng)
    s2 = spdz.deal_authenticated(20, 3, key, f101, rng)
    out = spdz.auth_linear([(1, s1), (1, s2)], 0, key, f101)
    assert spdz.open_value(out, f101) == 30
    assert sum(s.mac_share for s in out) % 101 == f101.mul(key.alpha, 30)

    const_only = spdz.auth_linear([], 9, key, f101)
    assert spdz.open_value(const_only, f101) == 9
    assert sum(s.mac_share for s in const_only) % 101 == f101.mul(key.alpha, 9)

    zeroed = spdz.auth_linear([(0, s1), (0, s2)], 0, key, f101)
    assert spdz.open_value(zeroed, f101) == 0


def test_beaver_mul_forced_triple(f101, rng, key, scripted):
    # a=2, b=3, c=6; x=4, y=5 -> eps=2, delta=2, result 6+6+4+4 = 20.
    triple = spdz.deal_triples(1, 3, key, f101, scripted([2, 3]))[0]
    x = spdz.deal_authenticated(4, 3, key, f101, rng)
    y = spdz.deal_authenticated(5, 3, key, f101, rng)
    net = LocalChannel()
    queue = spdz.MacCheckQueue()
    z = spdz.beaver_mul(x, y, triple, key, f101, net, queue)
    assert spdz.open_value(z, f101) == 20
    assert net.messages == 3 * 2
    assert len(queue.entries) == 2
    assert queue.entries[0][0] == 2 and queue.entries[1][0] == 2


def test_beaver_zero_x(f101, rng, key):
    triple = spdz.deal_triples(1, 3, key, f101, rng)[0]
    x = spdz.deal_authenticated(0, 3, key, f101, rng)
    y = spdz.deal_authenticated(77, 3, key, f101, rng)
    z = spdz.beaver_mul(x, y, triple, key, f101, LocalChannel(), spdz.MacCheckQueue())
    assert spdz.open_value(z, f101) == 0


def test_triple_reuse_rejected(f101, rng, key):
    triple = spdz.deal_triples(1, 3, key, f101, rng)[0]
    x = spdz.deal_authenticated(1, 3, key, f101, rng)
    y = spdz.deal_authenticated(2, 3, key, f101, rng)
    spdz.beaver_mul(x, y, triple, key, f101, LocalChannel(), spdz.MacCheckQueue())
    with pytest.raises(TripleReuse):
        spdz.beaver_mul(x, y, triple, key, f101, LocalChannel(), spdz.MacCheckQueue())


def test_partial_open_round_trip(f101, rng, key):
    shares = spdz.deal_authenticated(42, 3, key, f101, rng)
    net = LocalChannel()
    queue = spdz.MacCheckQueue()
    assert spdz.partial_open(shares, f101, net, queue) == 42
    assert net.messages == 6
    assert queue.entries[0][0] == 42


def test_open_after_deal_identity():
    # partial_open(deal_authenticated(s)) == s for 1,000 random s.
    field = Field(M61)
    rng = random.Random(55)
    key = spdz.gen_mac_key(3, field, rng)
    net = LocalChannel()
    for _ in range(1000):
        s = field.rand(rng)
        shares = spdz.deal_authenticated(s, 3, key, field, rng)
        assert spdz.partial_open(shares, field, net, spdz.MacCheckQueue()) == s


def test_partial_open_missing_party(f101, rng, key):
    shares = spdz.deal_authenticated(5, 3, key, f101, rng)
    shares[1] = None
    with pytest.raises(MissingParty):
        spdz.partial_open(shares, f101, LocalChannel(), spdz.MacCheckQueue())


def test_mac_check_passes_honest_batch(f101, rng, key):
    net = LocalChannel()
    queue = spdz.MacCheckQueue()
    for v in (3, 1, 4, 1, 5):
        spdz.partial_open(spdz.deal_authenticated(v, 3, key, f101, rng), f101, net, queue)
    assert spdz.mac_check(queue, key, f101, net, rng) is True
    assert not queue.entries


def test_mac_check_empty_queue(f101, rng, key):
    with pytest.raises(ValueError, match="empty"):
        spdz.mac_check(spdz.MacCheckQueue(), key, f101, LocalChannel(), rng)


def test_mac_check_linear_ops_message_free(f101, rng, key):
    net = LocalChannel()
    s1 = spdz.deal_authenticated(1, 3, key, f101, rng)
    s2 = spdz.deal_authenticated(2, 3, key, f101, rng)
    spdz.auth_linear([(5, s1), (7, s2)], 3, key, f101)
    assert net.messages == 0


def test_tamper_detection_large_field():
    # Any single additive tamper of an opened value or a MAC share is
    # caught; the miss probability is 1/p at p = 2^61 - 1.
    field = Field(M61)
    rng = random.Random(99)
    key = spdz.gen_mac_key(2, field, rng)
    for trial in range(2000):
        net = LocalChannel()
        queue = spdz.MacCheckQueue()
        shares = spdz.deal_authenticated(field.rand(rng), 2, key, field, rng)
        spdz.partial_open(shares, field, net, queue)
        value, macs = queue.entries[0]
        if trial % 2:
            queue.entries[0] = (field.add(value, field.rand_nonzero(rng)), macs)
        else:
            macs[trial % len(macs)] = field.add(macs[trial % len(macs)],
                                                field.rand_nonzero(rng))
        with pytest.raises(CheatDetected):
            spdz.mac_check(queue, key, field, net, rng)


class LyingChannel(LocalChannel):
    """Records payload sizes; party `liar` (if any) adds one to its share of
    the `slot`-th value in every broadcast it sends."""

    def __init__(self, field, liar=None, slot=0):
        super().__init__()
        self.field, self.liar, self.slot = field, liar, slot
        self.sizes = []

    def send(self, src, dst, payload):
        if src == self.liar:
            w = self.field.elem_size
            lo, hi = self.slot * w, (self.slot + 1) * w
            share = self.field.decode(payload[lo:hi])
            payload = payload[:lo] + self.field.encode(self.field.add(share, 1)) + payload[hi:]
        self.sizes.append(len(payload))
        super().send(src, dst, payload)


@pytest.mark.parametrize("liar", [None, 2], ids=["honest", "eps-plus-one"])
def test_beaver_layer_one_round_and_tampered_eps_caught(liar):
    # Four products open all their eps/delta values in one n(n-1) round,
    # eps and delta interleaved per product. One party adding 1 to its eps
    # share of the third product is caught by the deferred MAC check.
    field = Field(M61)
    rng = random.Random(23)
    n, k = 4, 4
    key = spdz.gen_mac_key(n, field, rng)
    xs = [field.rand(rng) for _ in range(k)]
    ys = [field.rand(rng) for _ in range(k)]
    pairs = [(spdz.deal_authenticated(x, n, key, field, rng),
              spdz.deal_authenticated(y, n, key, field, rng)) for x, y in zip(xs, ys)]
    triples = spdz.deal_triples(k, n, key, field, rng)
    net = LyingChannel(field, liar, slot=2 * 2)
    queue = spdz.MacCheckQueue()
    products = spdz.beaver_layer(pairs, triples, key, field, net, queue)
    assert net.messages == n * (n - 1)
    assert net.sizes == [2 * k * field.elem_size] * (n * (n - 1))
    assert len(queue) == 2 * k
    if liar is None:
        assert [spdz.open_value(z, field) for z in products] == \
            [field.mul(x, y) for x, y in zip(xs, ys)]
        assert spdz.mac_check(queue, key, field, LocalChannel(), rng) is True
    else:
        with pytest.raises(CheatDetected):
            spdz.mac_check(queue, key, field, LocalChannel(), rng)
