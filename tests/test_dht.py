import math
import random

import pytest

from mpcnet.dht import (
    K_BUCKET,
    REPLICATION,
    Bucket,
    DhtNetwork,
    DhtRecord,
    place_record,
    protocol_load,
    protocol_store,
    record_address,
    xor_distance,
)
from mpcnet.identity import Predicate, gen_shared_identity
from mpcnet.keys import KeyPair
from mpcnet.ledger import Ledger


def build_network(size, seed=5):
    rng = random.Random(seed)
    net = DhtNetwork()
    ids = []
    for _ in range(size):
        nid = rng.randbytes(32)
        net.add_node(nid)
        ids.append(nid)
    net.bootstrap()
    return net, ids, rng


def holding(net, key):
    """Ids of the nodes whose store holds `key`."""
    return [nid for nid, node in net.nodes.items() if key in node.store]


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


def test_bucket_lru_eviction():
    bucket = Bucket()
    peers = [bytes([i]) for i in range(K_BUCKET + 1)]
    for peer in peers[:K_BUCKET]:
        bucket.touch(peer)
    bucket.touch(peers[0])              # refresh: peer 0 is now most recent
    bucket.touch(peers[K_BUCKET])       # evicts peer 1, the stalest
    assert bucket.peers == peers[2:K_BUCKET] + [peers[0], peers[K_BUCKET]]


# -- routing and storage ---------------------------------------------------------

def test_store_lookup_round_trip_and_hops():
    net, ids, rng = build_network(32)
    bound = math.ceil(math.log2(32)) + 2
    for i in range(500):
        key = rng.randbytes(32)
        net.dht_store(key, b"v%d" % i)
        origin = ids[rng.randrange(len(ids))]
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
    key, origin = rng.randbytes(32), ids[0]
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
    net.nodes[hidden].store[key] = DhtRecord(key=key, data=b"off-route")
    with pytest.raises(KeyError, match="not found"):
        net.dht_lookup(key, origin=origin)


def test_replication_and_churn():
    net, _, rng = build_network(24)
    for _ in range(50):
        key = rng.randbytes(32)
        replicas = net.dht_store(key, b"precious")
        assert len(replicas) == REPLICATION
        # Kill less than half the replica set; the record must survive.
        net.nodes[replicas[0]].alive = False
        record, _ = net.dht_lookup(key)
        assert record.data == b"precious"
        net.nodes[replicas[0]].alive = True


def test_placement_is_the_xor_closest_live_nodes():
    net, ids, rng = build_network(16, seed=2)
    for round_ in range(200):
        if round_ % 50 == 0:
            for nid in ids:
                net.nodes[nid].alive = True
            for nid in rng.sample(ids, 4):
                net.nodes[nid].alive = False
        key = rng.randbytes(32)
        live = [nid for nid in ids if net.nodes[nid].alive]
        expected = sorted(live, key=lambda nid: xor_distance(key, nid))[:REPLICATION]
        assert [n.node_id for n in net.placement(key)] == expected
        assert net.dht_store(key, b"v") == expected


# -- predicate-gated store/load ---------------------------------------------------

@pytest.fixture
def gated_env():
    net, _, rng = build_network(16, seed=77)
    ledger = Ledger()
    pairs = [KeyPair.generate(random.Random(1000 + i)) for i in range(2)]
    ident = gen_shared_identity(pairs, [Predicate.owner()] * 2, ledger)
    eve = KeyPair.generate(random.Random(4321))
    return net, ledger, ident, pairs, eve


def test_protocol_store_load_allowed_and_denied(gated_env):
    net, ledger, ident, (alice, bob), eve = gated_env
    q_read = Predicate.key_list([alice.sign_pk, bob.sign_pk])
    a_x = protocol_store(alice, ident.addr, b"payroll", q_read, ledger, net)
    assert a_x is not None
    assert protocol_load(alice, ident.addr, a_x, ledger, net) == b"payroll"
    assert protocol_load(bob, ident.addr, a_x, ledger, net) == b"payroll"
    assert protocol_load(eve, ident.addr, a_x, ledger, net) is None


def test_protocol_store_denied_leaves_nothing(gated_env):
    net, ledger, ident, pairs, eve = gated_env
    height = ledger.height
    stored = {k for n in net.nodes.values() for k in n.store}
    assert protocol_store(eve, ident.addr, b"spam", Predicate("any"), ledger, net) is None
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
    net.dht_store(orphan, b"stray")
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
        protocol_store(alice, ident.addr, b"doomed", Predicate("any"), board, net)
    assert {k for n in net.nodes.values() for k in n.store} == before


def test_rejected_store_keeps_the_first_writers_record(gated_env):
    # Records are addressed by content, so a second owner storing the same
    # bytes hits alice's key; the ledger refuses bob's predicate, and
    # alice's record and predicate stay as they were.
    from mpcnet.errors import LedgerRejected

    net, ledger, ident, (alice, bob), _ = gated_env
    a_x = protocol_store(alice, ident.addr, b"same-bytes", Predicate.owner(), ledger, net)
    holders = holding(net, a_x)
    with pytest.raises(LedgerRejected, match="another writer"):
        protocol_store(bob, ident.addr, b"same-bytes", Predicate("any"), ledger, net)
    assert holding(net, a_x) == holders
    assert ledger.get(a_x) == b"(owner)"
    assert protocol_load(alice, ident.addr, a_x, ledger, net) == b"same-bytes"


def test_store_with_a_rejected_preceding_write_places_nothing(gated_env):
    # The caller's writes and the predicate are one transaction: a write to
    # alice's key rejects bob's whole store, so neither his predicate nor
    # his record lands, and his nonce stays unused.
    from mpcnet.errors import LedgerRejected

    net, ledger, ident, (alice, bob), _ = gated_env
    a_x = protocol_store(alice, ident.addr, b"alice-data", Predicate.owner(), ledger, net)
    height, nonce = ledger.height, ledger.next_nonce(bob.sign_pk)
    with pytest.raises(LedgerRejected, match="another writer"):
        place_record(bob, ident.addr, b"bob-data", Predicate.owner(), ledger, net,
                     writes=[(a_x, b"(any)")])
    bob_x = record_address(ident.addr, b"bob-data")
    assert (ledger.height, ledger.next_nonce(bob.sign_pk)) == (height, nonce)
    assert ledger.get(bob_x) is None and not holding(net, bob_x)
    assert ledger.get(a_x) == b"(owner)"

