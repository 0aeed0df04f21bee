import random

import pytest

from mpcnet import spdz
from mpcnet.errors import CheatDetected, TripleReuse
from mpcnet.field import Field, M61
from mpcnet.keys import sha256
from mpcnet.net import LocalChannel
from oracles import open_value, rand_nonzero


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
        a = open_value(triple.a, f101)
        b = open_value(triple.b, f101)
        assert open_value(triple.c, f101) == f101.mul(a, b)


def test_triple_forced_values(f101, key, scripted):
    triple = spdz.deal_triples(1, 3, key, f101, scripted([2, 3]))[0]
    assert open_value(triple.a, f101) == 2
    assert open_value(triple.b, f101) == 3
    assert open_value(triple.c, f101) == 6


def test_triples_distinct_at_large_field():
    field = Field(M61)
    rng = random.Random(8)
    key = spdz.gen_mac_key(3, field, rng)
    triples = spdz.deal_triples(100, 3, key, field, rng)
    pairs = {(open_value(t.a, field), open_value(t.b, field)) for t in triples}
    assert len(pairs) == 100


def test_auth_linear_sum_and_constant(f101, rng, key):
    s1 = spdz.deal_authenticated(10, 3, key, f101, rng)
    s2 = spdz.deal_authenticated(20, 3, key, f101, rng)
    out = spdz.auth_linear([(1, s1), (1, s2)], 0, key, f101)
    assert open_value(out, f101) == 30
    assert sum(s.mac_share for s in out) % 101 == f101.mul(key.alpha, 30)

    const_only = spdz.auth_linear([], 9, key, f101)
    assert open_value(const_only, f101) == 9
    assert sum(s.mac_share for s in const_only) % 101 == f101.mul(key.alpha, 9)

    zeroed = spdz.auth_linear([(0, s1), (0, s2)], 0, key, f101)
    assert open_value(zeroed, f101) == 0


def test_beaver_mul_forced_triple(f101, rng, key, scripted):
    # a=2, b=3, c=6; x=4, y=5 -> eps=2, delta=2, result 6+6+4+4 = 20.
    triple = spdz.deal_triples(1, 3, key, f101, scripted([2, 3]))[0]
    x = spdz.deal_authenticated(4, 3, key, f101, rng)
    y = spdz.deal_authenticated(5, 3, key, f101, rng)
    net = LocalChannel()
    queue = []
    z = spdz.beaver_mul(x, y, triple, key, f101, net, queue)
    assert open_value(z, f101) == 20
    assert net.messages == 3 * 2
    assert len(queue) == 2
    assert queue[0][0] == 2 and queue[1][0] == 2


def test_beaver_zero_x(f101, rng, key):
    triple = spdz.deal_triples(1, 3, key, f101, rng)[0]
    x = spdz.deal_authenticated(0, 3, key, f101, rng)
    y = spdz.deal_authenticated(77, 3, key, f101, rng)
    z = spdz.beaver_mul(x, y, triple, key, f101, LocalChannel(), [])
    assert open_value(z, f101) == 0


def test_triple_reuse_rejected(f101, rng, key):
    triple = spdz.deal_triples(1, 3, key, f101, rng)[0]
    x = spdz.deal_authenticated(1, 3, key, f101, rng)
    y = spdz.deal_authenticated(2, 3, key, f101, rng)
    spdz.beaver_mul(x, y, triple, key, f101, LocalChannel(), [])
    with pytest.raises(TripleReuse):
        spdz.beaver_mul(x, y, triple, key, f101, LocalChannel(), [])


@pytest.mark.parametrize("n", [3, 5])
def test_broadcast_returns_party_0s_inbox_and_drains_the_rest(n):
    net = LocalChannel()
    payloads = [bytes([i]) * (i + 1) for i in range(n)]
    inbox = spdz.broadcast(payloads, net)
    assert net.messages == n * (n - 1)
    assert inbox == [(i, payloads[i]) for i in range(1, n)]
    assert all(net.recv_all(j) == [] for j in range(n))


def test_partial_open_round_trip(f101, rng, key):
    shares = spdz.deal_authenticated(42, 3, key, f101, rng)
    net = LocalChannel()
    queue = []
    assert spdz.partial_open(shares, f101, net, queue) == 42
    assert net.messages == 6
    assert queue[0][0] == 42


def test_open_after_deal_identity():
    # partial_open(deal_authenticated(s)) == s for 1,000 random s.
    field = Field(M61)
    rng = random.Random(55)
    key = spdz.gen_mac_key(3, field, rng)
    net = LocalChannel()
    for _ in range(1000):
        s = field.rand(rng)
        shares = spdz.deal_authenticated(s, 3, key, field, rng)
        assert spdz.partial_open(shares, field, net, []) == s


def test_mac_check_passes_honest_batch(f101, rng, key):
    net = LocalChannel()
    queue = []
    for v in (3, 1, 4, 1, 5):
        spdz.partial_open(spdz.deal_authenticated(v, 3, key, f101, rng), f101, net, queue)
    spdz.mac_check(queue, key, f101, net, rng)
    assert not queue


def test_mac_check_empty_queue(f101, rng, key):
    with pytest.raises(ValueError, match="empty"):
        spdz.mac_check([], key, f101, LocalChannel(), rng)


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
        queue = []
        shares = spdz.deal_authenticated(field.rand(rng), 2, key, field, rng)
        spdz.partial_open(shares, field, net, queue)
        value, macs = queue[0]
        if trial % 2:
            queue[0] = (field.add(value, rand_nonzero(field, rng)), macs)
        else:
            macs[trial % len(macs)] = field.add(macs[trial % len(macs)],
                                                rand_nonzero(field, rng))
        with pytest.raises(CheatDetected):
            spdz.mac_check(queue, key, field, net, rng)


def test_mac_check_coins_come_from_the_openings_not_from_rng():
    # Two opened values shifted by rho_2 and -rho_1, the next two draws of
    # the check's rng: coins drawn from rng would cancel the shifts, while
    # coins derived from the opened values catch them.
    field = Field(M61)
    rng = random.Random(61)
    key = spdz.gen_mac_key(3, field, rng)
    net, queue = LocalChannel(), []
    for v in (3, 4):
        spdz.partial_open(spdz.deal_authenticated(v, 3, key, field, rng), field, net, queue)
    state = rng.getstate()
    rho1, rho2 = field.rand(rng), field.rand(rng)
    rng.setstate(state)
    (v1, m1), (v2, m2) = queue
    queue[:] = [(field.add(v1, rho2), m1), (field.sub(v2, rho1), m2)]
    with pytest.raises(CheatDetected, match="MAC check failed"):
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
    queue = []
    products = spdz.beaver_layer(pairs, triples, key, field, net, queue)
    assert net.messages == n * (n - 1)
    assert net.sizes == [2 * k * field.elem_size] * (n * (n - 1))
    assert len(queue) == 2 * k
    if liar is None:
        assert [open_value(z, field) for z in products] == \
            [field.mul(x, y) for x, y in zip(xs, ys)]
        spdz.mac_check(queue, key, field, LocalChannel(), rng)
    else:
        with pytest.raises(CheatDetected):
            spdz.mac_check(queue, key, field, LocalChannel(), rng)


class OpeningTamperChannel(LocalChannel):
    """Rewrites what party 1 sends party 0 in the MAC check's two rounds:
    `commit` maps the 32-byte commitment and `opening` the sigma-and-salt
    opening (elem_size + 16 bytes) to what arrives."""

    def __init__(self, field, commit=None, opening=None):
        super().__init__()
        self.opening_size = field.elem_size + 16
        self.commit, self.opening = commit, opening

    def send(self, src, dst, payload):
        if (src, dst) == (1, 0):
            if len(payload) == 32 and self.commit:
                payload = self.commit(payload)
            elif len(payload) == self.opening_size and self.opening:
                payload = self.opening(payload)
        super().send(src, dst, payload)


def queued_honest_batch(field, rng, key, net):
    queue = []
    for v in (3, 1, 4):
        spdz.partial_open(spdz.deal_authenticated(v, 3, key, field, rng), field, net, queue)
    return queue


def test_mac_check_reads_the_received_salt():
    # One flipped salt byte in party 1's opening no longer matches the
    # commitment party 0 received from it.
    field = Field(M61)
    rng = random.Random(41)
    key = spdz.gen_mac_key(3, field, rng)
    net = OpeningTamperChannel(field, opening=lambda p: p[:-1] + bytes([p[-1] ^ 1]))
    queue = queued_honest_batch(field, rng, key, net)
    with pytest.raises(CheatDetected, match="commitment mismatch"):
        spdz.mac_check(queue, key, field, net, rng)


def test_mac_check_sums_the_received_sigmas():
    # Party 1's sigma replaced by 5 together with a commitment that matches
    # it: the commitment check passes, and the received sigmas no longer
    # sum to zero.
    field = Field(M61)
    rng = random.Random(43)
    key = spdz.gen_mac_key(3, field, rng)
    forged = field.encode(5) + bytes(16)
    net = OpeningTamperChannel(field, commit=lambda _: sha256(forged),
                               opening=lambda _: forged)
    queue = queued_honest_batch(field, rng, key, net)
    with pytest.raises(CheatDetected, match="MAC check failed"):
        spdz.mac_check(queue, key, field, net, rng)

