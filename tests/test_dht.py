import math
import random

import pytest

from mpcnet.dht import (
    REPLICATION,
    Bucket,
    DhtNetwork,
    DhtRecord,
    NodeId,
    protocol_load,
    protocol_store,
    record_address,
    reputation_norm,
    weighted_distance,
    xor_distance,
)
from mpcnet.identity import Predicate, gen_shared_identity
from mpcnet.keys import KeyPair
from mpcnet.ledger import Ledger


def build_network(size, seed=5, lam=0.5):
    rng = random.Random(seed)
    net = DhtNetwork(lam=lam)
    ids = []
    for _ in range(size):
        nid = NodeId(value=rng.randbytes(32))
        net.add_node(nid, KeyPair.generate(rng))
        ids.append(nid)
    net.bootstrap()
    return net, ids, rng


# -- distance metrics ----------------------------------------------------------

def test_xor_distance_identity_and_toy():
    a = bytes(31) + b"\x0a"
    b = bytes(31) + b"\x06"
    assert xor_distance(a, a) == 0
    assert xor_distance(a, b) == 12


def test_xor_distance_symmetry(rng):
    for _ in range(1000):
        a, b = rng.randbytes(32), rng.randbytes(32)
        assert xor_distance(a, b) == xor_distance(b, a)


def test_weighted_distance_lambda_zero_is_xor(rng):
    target = rng.randbytes(32)
    nodes = [NodeId(value=rng.randbytes(32), reputation=rng.random() * 10,
                    capacity=rng.random()) for _ in range(20)]
    by_weighted = sorted(nodes, key=lambda n: weighted_distance(target, n, 0.0))
    by_xor = sorted(nodes, key=lambda n: xor_distance(target, n))
    assert [n.value for n in by_weighted] == [n.value for n in by_xor]


def test_weighted_distance_reputation_monotone():
    target = bytes(32)
    addr = bytes(31) + b"\x40"
    low = NodeId(value=addr, reputation=0, capacity=1)
    high = NodeId(value=addr, reputation=4, capacity=1)
    assert weighted_distance(target, high, 0.5) < weighted_distance(target, low, 0.5)
    with pytest.raises(ValueError):
        weighted_distance(target, low, -1)


def test_weighted_distance_bonus_bound():
    # A node with preference weight w at distance 2^r outranks a plain node
    # at distance 2^(r - lam*w), but not one at half that distance.
    target = bytes(32)
    lam = 8.0
    for r in (10, 14, 18):
        for rep, cap in ((1, 0.5), (1, 1.0), (3, 1.0)):
            w = reputation_norm(NodeId(value=bytes(32), reputation=rep,
                                       capacity=cap)) * cap
            bonus_bits = int(lam * w)
            boosted = NodeId(value=(1 << r).to_bytes(32, "big"),
                             reputation=rep, capacity=cap)
            at_bound = NodeId(value=(1 << (r - bonus_bits)).to_bytes(32, "big"))
            below = NodeId(value=(1 << (r - bonus_bits - 1)).to_bytes(32, "big"))
            assert weighted_distance(target, boosted, lam) < \
                weighted_distance(target, at_bound, lam)
            assert weighted_distance(target, boosted, lam) > \
                weighted_distance(target, below, lam)


def test_node_id_validation():
    with pytest.raises(ValueError):
        NodeId(value=b"short")
    with pytest.raises(ValueError):
        NodeId(value=bytes(32), reputation=-1)
    with pytest.raises(ValueError):
        NodeId(value=bytes(32), capacity=1.5)


def test_bucket_lru_eviction():
    bucket = Bucket(capacity=3)
    for peer in (b"a", b"b", b"c"):
        bucket.touch(peer)
    bucket.touch(b"a")                  # refresh: a is now most recent
    bucket.touch(b"d")                  # evicts b, the stalest
    assert bucket.peers == [b"c", b"a", b"d"]


# -- routing and storage ---------------------------------------------------------

def test_store_lookup_round_trip_and_hops():
    net, ids, rng = build_network(32)
    bound = math.ceil(math.log2(32)) + 2
    for i in range(500):
        key = rng.randbytes(32)
        net.dht_store(key, b"v%d" % i, encrypted=False)
        origin = ids[rng.randrange(len(ids))].value
        record, hops = net.dht_lookup(key, origin=origin)
        assert record.data == b"v%d" % i
        assert hops <= bound


def test_lookup_never_stored():
    net, _, rng = build_network(16)
    with pytest.raises(KeyError, match="not found"):
        net.dht_lookup(rng.randbytes(32))


def test_routed_miss_raises_although_an_unqueried_node_holds_the_record():
    # A lookup answers only from the nodes its routing queries. A record
    # that sits on a live node outside that set is a routing failure, and
    # the lookup must report it rather than find the record by a scan.
    net, ids, rng = build_network(64)
    key, origin = rng.randbytes(32), ids[0].value
    queried = set()

    class WatchedStore(dict):
        def __init__(self, owner):
            super().__init__()
            self.owner = owner

        def __contains__(self, k):
            queried.add(self.owner)
            return super().__contains__(k)

    for nid, node in net.nodes.items():
        node.store = WatchedStore(nid)
    net.iterative_find(origin, key)
    hidden = next(nid for nid in net.nodes if nid not in queried)
    net.nodes[hidden].store[key] = DhtRecord(key=key, data=b"off-route",
                                             encrypted=False, replicas=(hidden,))
    with pytest.raises(KeyError, match="not found"):
        net.dht_lookup(key, origin=origin)


def test_replication_and_churn():
    net, _, rng = build_network(24)
    for _ in range(50):
        key = rng.randbytes(32)
        replicas = net.dht_store(key, b"precious", encrypted=False)
        assert len(replicas) == REPLICATION
        # Kill less than half the replica set; the record must survive.
        net.nodes[replicas[0]].alive = False
        record, _ = net.dht_lookup(key)
        assert record.data == b"precious"
        net.nodes[replicas[0]].alive = True


def test_placement_prefers_reputable_nodes():
    rng = random.Random(2)
    net = DhtNetwork(lam=5.0)
    key = rng.randbytes(32)
    # One highly reputable node among plain ones; it should enter placement
    # sets far more often than uniform placement would allow.
    star = NodeId(value=rng.randbytes(32), reputation=9, capacity=1)
    net.add_node(star, KeyPair.generate(rng))
    for _ in range(15):
        net.add_node(NodeId(value=rng.randbytes(32)), KeyPair.generate(rng))
    net.bootstrap()
    hits = 0
    for _ in range(200):
        key = rng.randbytes(32)
        placement = net.placement(key)
        hits += any(n.node_id.value == star.value for n in placement)
    assert hits > 100


# -- predicate-gated store/load ---------------------------------------------------

@pytest.fixture
def gated_env():
    net, _, rng = build_network(16, seed=77)
    ledger = Ledger()
    gens = [lambda s=i: KeyPair.generate(random.Random(1000 + s)) for i in range(2)]
    ident, pairs = gen_shared_identity(gens, [Predicate.owner()] * 2, ledger)
    eve = KeyPair.generate(random.Random(4321))
    return net, ledger, ident, pairs, eve


def test_protocol_store_load_allowed_and_denied(gated_env):
    net, ledger, ident, (alice, bob), eve = gated_env
    q_read = Predicate.key_list([alice.sign_pk, bob.sign_pk])
    a_x = protocol_store(alice, ident.addr, b"payroll", q_read, ledger, net,
                         encrypt=False)
    assert a_x is not None
    assert protocol_load(alice, ident.addr, a_x, ledger, net) == b"payroll"
    assert protocol_load(bob, ident.addr, a_x, ledger, net) == b"payroll"
    assert protocol_load(eve, ident.addr, a_x, ledger, net) is None


def test_protocol_store_denied_leaves_nothing(gated_env):
    net, ledger, ident, pairs, eve = gated_env
    height = ledger.height
    stored = {k for n in net.nodes.values() for k in n.store}
    assert protocol_store(eve, ident.addr, b"spam", Predicate.any(), ledger, net) is None
    assert ledger.height == height
    assert {k for n in net.nodes.values() for k in n.store} == stored


def test_protocol_store_deterministic_address(gated_env):
    net, ledger, ident, (alice, _), _ = gated_env
    q = Predicate.owner()
    a1 = protocol_store(alice, ident.addr, b"same-bytes", q, ledger, net)
    a2 = protocol_store(alice, ident.addr, b"same-bytes", q, ledger, net)
    assert a1 == a2


def test_missing_policy_defaults_closed(gated_env):
    net, ledger, ident, (alice, _), _ = gated_env
    orphan = random.Random(5).randbytes(32)
    net.dht_store(orphan, b"stray", encrypted=False)
    assert protocol_load(alice, ident.addr, orphan, ledger, net) is None


def test_protocol_store_rolls_back_on_ledger_rejection(gated_env):
    # If the predicate registration is refused, the already-placed DHT
    # record must not survive: both writes exist or neither does.
    from mpcnet.errors import LedgerRejected

    net, ledger, ident, (alice, _), _ = gated_env

    class RefusingBoard:
        def __init__(self, inner):
            self.inner = inner

        def get(self, k):
            return self.inner.get(k)

        def next_nonce(self, pk):
            return self.inner.next_nonce(pk)

        def submit_tx(self, tx):
            raise LedgerRejected("board refuses writes")

    board = RefusingBoard(ledger)
    before = {k for n in net.nodes.values() for k in n.store}
    with pytest.raises(LedgerRejected):
        protocol_store(alice, ident.addr, b"doomed", Predicate.any(), board, net,
                       encrypt=False)
    assert {k for n in net.nodes.values() for k in n.store} == before


def test_rejected_store_keeps_the_first_writers_record(gated_env):
    # Records are addressed by content, so a second owner storing the same
    # bytes hits alice's key; the ledger refuses bob's predicate, and
    # alice's record and predicate stay as they were.
    from mpcnet.errors import LedgerRejected

    net, ledger, ident, (alice, bob), _ = gated_env
    a_x = protocol_store(alice, ident.addr, b"same-bytes", Predicate.owner(), ledger,
                         net, encrypt=False)
    holders = net.holders(a_x)
    with pytest.raises(LedgerRejected, match="another writer"):
        protocol_store(bob, ident.addr, b"same-bytes", Predicate.any(), ledger, net,
                       encrypt=False)
    assert net.holders(a_x) == holders
    assert ledger.get(a_x) == b"(owner)"
    assert protocol_load(alice, ident.addr, a_x, ledger, net) == b"same-bytes"


def test_store_with_a_rejected_preceding_write_places_nothing(gated_env):
    # The caller's writes and the predicate are one transaction: a write to
    # alice's key rejects bob's whole store, so neither his predicate nor
    # his record lands, and his nonce stays unused.
    from mpcnet.errors import LedgerRejected

    net, ledger, ident, (alice, bob), _ = gated_env
    a_x = protocol_store(alice, ident.addr, b"alice-data", Predicate.owner(), ledger,
                         net, encrypt=False)
    height, nonce = ledger.height, ledger.next_nonce(bob.sign_pk)
    with pytest.raises(LedgerRejected, match="another writer"):
        protocol_store(bob, ident.addr, b"bob-data", Predicate.owner(), ledger, net,
                       encrypt=False, writes=[(a_x, b"(any)")])
    bob_x = record_address(ident.addr, b"bob-data")
    assert (ledger.height, ledger.next_nonce(bob.sign_pk)) == (height, nonce)
    assert ledger.get(bob_x) is None and not net.holders(bob_x)
    assert ledger.get(a_x) == b"(owner)"


def test_encrypted_records_owner_only(gated_env):
    net, ledger, ident, (alice, bob), _ = gated_env
    a_x = protocol_store(alice, ident.addr, b"diary-entry", Predicate.owner(),
                         ledger, net, encrypt=True)
    assert protocol_load(alice, ident.addr, a_x, ledger, net) == b"diary-entry"
    assert protocol_load(bob, ident.addr, a_x, ledger, net) is None
    for node in net.nodes.values():
        for record in node.store.values():
            assert b"diary-entry" not in record.data
