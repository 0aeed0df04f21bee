"""The vectorised sharing kernels and the integer-id DHT lookups agree with
the per-element oracles in tests/oracles.py: the same shares, wire bytes and
rng state afterwards, and the same lookup results and hop counts. The
payload decoders reject a payload of the wrong length or with an element
outside the field."""

import random
from types import SimpleNamespace

import pytest

from mpcnet import shamir, spdz
from mpcnet.dht import K_BUCKET, DhtNetwork
from mpcnet.field import M61, Field
from mpcnet.hierarchy import reduce_parties_spdz
from mpcnet.net import LocalChannel
from mpcnet.network import HONEST, reveal
import oracles


class RecordingChannel(LocalChannel):
    """LocalChannel that keeps every (src, dst, payload) it delivers."""

    def __init__(self):
        super().__init__()
        self.sent = []

    def _deliver(self, src, dst, payload: bytes):
        self.sent.append((src, dst, payload))
        super()._deliver(src, dst, payload)


# (n, t, values): every honest-majority shape with 1 and 32 values, except
# that at n = 81, where the per-element oracle takes seconds, 32 values are
# re-shared only at t = 7.
CASES = [(n, t, count) for n in (3, 15, 81) for t in (0, 1, 7) for count in (1, 32)
         if 2 * t < n and (n < 81 or count == 1 or t == 7)]


@pytest.mark.parametrize("n,t,count", CASES)
@pytest.mark.parametrize("p", [101, M61])
def test_share_and_reshare_match_the_per_element_oracle(p, n, t, count):
    field = Field(p)
    seed = f"reshare-{p}-{n}-{t}-{count}"
    draw = random.Random(seed)
    secrets = ([p + 5, -3] + [field.rand(draw) for _ in range(count)])[:count]
    indices = tuple(range(1, n + 1))
    weights = shamir.weights_at_zero(indices, p)
    # Every party to every party (a multiplication layer); below n = 81, where
    # the oracle is slow, also to fewer targets and one party that is not a
    # source (a reduction or a tree hop).
    handoffs = [[(i, i) for i in indices]]
    if n < 81:
        handoffs.append([(i, i) for i in indices[:n // 2 + 1]] + [("outsider", n + 1)])
    runs = []
    for deal, hand_off in ((shamir.share, shamir.reshare), (oracles.share, oracles.reshare)):
        rng = random.Random(seed)
        dealt = [deal(s, t, n, field, rng) for s in secrets]
        points = [[s.value for s in shares] for shares in dealt]
        outcome = [dealt]
        for targets in handoffs:
            net = RecordingChannel()
            outcome += [hand_off(points, indices, weights, targets, t, field, net, rng),
                        net.sent]
        runs.append((outcome, rng.getstate()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("n", [3, 15, 81])
@pytest.mark.parametrize("p", [101, M61])
def test_additive_split_and_auth_linear_match_the_per_element_oracle(p, n):
    field = Field(p)
    seed = f"additive-{p}-{n}"
    values = [0, 1, p - 1, p + 7, -5, 12345]
    runs = []
    for split in (spdz.additive_split, oracles.additive_split):
        rng = random.Random(seed)
        runs.append(([split(v, n, field, rng) for v in values], rng.getstate()))
    assert runs[0] == runs[1]

    rng = random.Random(seed)
    key = spdz.gen_mac_key(n, field, rng)
    sharings = [spdz.deal_authenticated(field.rand(rng), n, key, field, rng)
                for _ in range(4)]
    for coeffs in ([], [1], [p - 1, 3], [-2, 0, p + 4, 7]):
        terms = list(zip(coeffs, sharings))
        for constant in (0, 9, -1, p + 2):
            assert spdz.auth_linear(terms, constant, key, field) == \
                oracles.auth_linear(terms, constant, key, field)


@pytest.mark.parametrize("size", [5, 9, 17, 40])
def test_lookups_match_the_byte_id_oracle(size):
    rng = random.Random(f"dht-{size}")
    net = DhtNetwork()
    ids = [rng.randbytes(32) for _ in range(size)]
    for nid in ids:
        net.add_node(nid)
    net.bootstrap()
    stored = [rng.randbytes(32) for _ in range(6)]
    for key in stored:
        net.dht_store(key, b"data")
    for nid in rng.sample(ids, size // 3):
        net.nodes[nid].alive = False
    targets = stored + [rng.randbytes(32) for _ in range(6)] + ids[:3]
    for target in targets:
        goal = int.from_bytes(target, "big")
        for node in net.nodes.values():
            for count in (1, K_BUCKET, size):
                assert [p for _, p in node.table.closest(goal, count)] == \
                    oracles.closest(node.table, target, count)
        for start in ids[::3]:
            assert net.iterative_find(start, target) == \
                oracles.iterative_find(net, start, target)


# -- payload decoding ----------------------------------------------------------
# At p = 101 an element is one byte, and the byte 101 is outside the field.

TAMPERS = {
    "long": lambda payload: payload + b"\x00\x00\x00",
    "short": lambda payload: payload[:-1],
    "out-of-range": lambda payload: bytes([101]) + payload[1:],
}


class TamperingChannel(LocalChannel):
    """LocalChannel that rewrites every payload it delivers."""

    def __init__(self, tamper):
        super().__init__()
        self.tamper = tamper

    def _deliver(self, src, dst, payload: bytes):
        super()._deliver(src, dst, self.tamper(payload))


@pytest.fixture(params=sorted(TAMPERS))
def tampered(request):
    return TamperingChannel(TAMPERS[request.param])


def test_reshare_rejects_a_malformed_payload(f101, rng, tampered):
    x = shamir.share(5, 1, 3, f101, rng)
    y = shamir.share(7, 1, 3, f101, rng)
    with pytest.raises(ValueError):
        shamir.mul_layer([(x, y)], f101, tampered, rng)


def test_open_many_rejects_a_malformed_payload(f101, rng, tampered):
    key = spdz.gen_mac_key(3, f101, rng)
    sharings = [spdz.deal_authenticated(v, 3, key, f101, rng) for v in (4, 5)]
    with pytest.raises(ValueError):
        spdz.open_many(sharings, f101, tampered, [])


def test_spdz_reduction_rejects_a_malformed_payload(f101, rng, tampered):
    key = spdz.gen_mac_key(4, f101, rng)
    sharings = [spdz.deal_authenticated(v, 4, key, f101, rng) for v in (4, 5)]
    with pytest.raises(ValueError):
        reduce_parties_spdz(sharings, 3, key, f101, tampered, rng)


def test_reveal_rejects_a_malformed_payload(f101, tampered):
    rt = SimpleNamespace(field=f101, bus=tampered)
    members = [SimpleNamespace(index=i, behavior=HONEST) for i in range(3)]
    with pytest.raises(ValueError):
        reveal(members, [[1, 2], [3, 4], [5, 6]], "requester", rt)
