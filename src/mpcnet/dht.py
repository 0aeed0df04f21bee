"""Kademlia-style DHT with XOR routing and XOR placement.

Routing uses the classic XOR metric over 256-bit node identifiers with
prefix-range buckets, so iterative lookups converge in O(log n) hops
(Maymounkov and Mazières, IPTPS 2002). A record's replicas are the
REPLICATION live nodes closest to its key by the same metric. Lookups and
placement convert the target to an integer once and compare integer XORs
against ids each table or node holds already converted.

Records are plaintext pointer metadata (sharing id, mode, n, t,
committee); the secret itself never reaches the DHT, since the committee
holds it only as shares. The protocol-level store/load pair gates every
record through ledger-hosted predicates: a store registers the read
predicate under the record address a_x = H(addr_P || x), and a load
re-evaluates it before any bytes move. Sealing a record under the storer's
own key would serve no request: the requester that the predicate admits is
in general another key, and could not open it.

Desk-scale parameters: bucket size 8, replication 3, lookup parallelism 3.
"""

from __future__ import annotations

from dataclasses import dataclass

from .identity import Predicate, check_permission, parse_predicate
from .keys import KeyPair, sha256
from .ledger import Ledger, make_tx, writes_payload

K_BUCKET = 8
REPLICATION = 3
PARALLELISM = 3


def xor_distance(a: bytes, b: bytes) -> int:
    """The original Kademlia distance metric."""
    return int.from_bytes(a, "big") ^ int.from_bytes(b, "big")


@dataclass
class DhtRecord:
    key: bytes
    data: bytes


class Bucket:
    """At most K_BUCKET peers, ordered least- to most-recently seen."""

    def __init__(self):
        self.peers: list = []

    def touch(self, peer: bytes):
        """Insert or refresh a peer; full buckets evict the stalest entry."""
        if peer in self.peers:
            self.peers.remove(peer)
        elif len(self.peers) >= K_BUCKET:
            self.peers.pop(0)
        self.peers.append(peer)


class RoutingTable:
    """256 buckets; bucket i holds peers at XOR distance in [2^i, 2^(i+1)).

    Lookups read a flat list of (integer id, id) over every bucket, built on
    the first lookup after an insert; an insert drops it.
    """

    def __init__(self, owner: bytes):
        self.owner = owner
        self.buckets = [Bucket() for _ in range(256)]
        self._flat = None

    def insert(self, peer: bytes):
        d = xor_distance(self.owner, peer)
        if d == 0:
            return
        self.buckets[d.bit_length() - 1].touch(peer)
        self._flat = None

    def known_peers(self) -> list:
        return [p for b in self.buckets for p in b.peers]

    def closest(self, target: int, count: int) -> list:
        """The `count` known peers XOR-closest to the integer `target`, as
        (distance, id) pairs in increasing distance."""
        if self._flat is None:
            self._flat = [(int.from_bytes(p, "big"), p) for p in self.known_peers()]
        return sorted([(key ^ target, p) for key, p in self._flat])[:count]


class DhtNode:
    """One simulated storage node: routing table plus a local record store."""

    def __init__(self, node_id: bytes):
        self.node_id = node_id
        self.int_id = int.from_bytes(node_id, "big")
        self.table = RoutingTable(node_id)
        self.store: dict = {}
        self.alive = True


class DhtNetwork:
    """In-process network of DhtNodes with iterative XOR routing."""

    def __init__(self):
        self.nodes: dict = {}

    def add_node(self, node_id: bytes) -> DhtNode:
        node = DhtNode(node_id)
        self.nodes[node_id] = node
        return node

    def bootstrap(self):
        """Introduce every node to every other; buckets cap what is kept."""
        ids = list(self.nodes)
        for node in self.nodes.values():
            for other in ids:
                node.table.insert(other)

    def alive_nodes(self) -> list:
        return [n for n in self.nodes.values() if n.alive]

    # -- routing -------------------------------------------------------------

    def iterative_find(self, start: bytes, target: bytes) -> tuple:
        """Iterative lookup from `start`; returns (closest ids, value, hops).

        Each round queries the PARALLELISM closest un-queried live peers and
        merges their k-closest answers; it stops when a round brings nothing
        closer (or a stored value surfaces). The shortlist holds (distance,
        id) pairs, the target converted to an integer once per lookup.
        """
        goal = int.from_bytes(target, "big")
        origin = self.nodes[start]
        shortlist = origin.table.closest(goal, K_BUCKET)
        if start not in {p for _, p in shortlist}:
            shortlist.append((origin.int_id ^ goal, start))
            shortlist.sort()
        queried = set()
        hops = 0
        value = None
        while True:
            pending = [p for _, p in shortlist if p not in queried
                       and self.nodes[p].alive][:PARALLELISM]
            if not pending:
                break
            hops += 1
            best_before = shortlist[0][0]
            listed = {p for _, p in shortlist}
            for peer in pending:
                queried.add(peer)
                node = self.nodes[peer]
                if target in node.store and value is None:
                    value = node.store[target]
                for entry in node.table.closest(goal, K_BUCKET):
                    if entry[1] not in listed:
                        listed.add(entry[1])
                        shortlist.append(entry)
            shortlist.sort()
            shortlist = shortlist[:K_BUCKET * 2]
            if value is not None:
                break
            if shortlist[0][0] >= best_before and \
                    all(p in queried or not self.nodes[p].alive
                        for _, p in shortlist[:K_BUCKET]):
                break
        return [p for _, p in shortlist], value, hops

    def placement(self, key: bytes) -> list:
        """Replica set: the REPLICATION live nodes XOR-closest to `key`."""
        goal = int.from_bytes(key, "big")
        return sorted(self.alive_nodes(), key=lambda n: n.int_id ^ goal)[:REPLICATION]

    def dht_store(self, key: bytes, data: bytes) -> list:
        """Replicate a record to its placement set; returns replica ids."""
        if not self.alive_nodes():
            raise LookupError("no route: network is empty")
        replicas = self.placement(key)
        for node in replicas:
            node.store[key] = DhtRecord(key=key, data=data)
        return [n.node_id for n in replicas]

    def dht_lookup(self, key: bytes, origin: bytes | None = None) -> tuple:
        """Fetch a record via iterative routing; returns (record, hops)."""
        alive = self.alive_nodes()
        if not alive:
            raise LookupError("no route: network is empty")
        start = origin if origin is not None and self.nodes[origin].alive \
            else alive[0].node_id
        _, value, hops = self.iterative_find(start, key)
        if value is None:
            raise KeyError(f"not found: {key.hex()}")
        return value, hops


# -- predicate-gated store/load (the link protocol over ledger + DHT) --------

def record_address(addr: bytes, x: bytes) -> bytes:
    """a_x = H(addr_P || x): deterministic address for the stored payload."""
    return sha256(addr + x)


def protocol_store(requester: KeyPair, addr: bytes, x: bytes, q_read: Predicate,
                   board: Ledger, dht: DhtNetwork):
    """Authorize, then place_record: returns a_x, or None with nothing
    written or placed when the identity's `(policy)` denies the requester."""
    if not check_permission(requester.sign_pk, addr, Predicate.policy(), board):
        return None
    return place_record(requester, addr, x, q_read, board, dht)


def place_record(requester: KeyPair, addr: bytes, x: bytes, q_read: Predicate,
                 board: Ledger, dht: DhtNetwork, writes: tuple = ()) -> bytes:
    """protocol_store after its `(policy)` check, which the caller has made.

    The predicate goes on the ledger first, as the last write of one
    transaction that starts with the caller's (key, value) `writes`, so a
    transaction the ledger rejects (LedgerRejected propagates) places
    nothing, and a record some other writer already holds at a_x stays as
    it is.
    """
    a_x = record_address(addr, x)
    writes = [*writes, (a_x, q_read.to_text().encode())]
    board.submit_tx(make_tx(requester, "kv-put", writes_payload(writes),
                            nonce=board.next_nonce(requester.sign_pk)))
    dht.dht_store(a_x, x)
    return a_x


def protocol_load(requester: KeyPair, addr: bytes, a_x: bytes,
                  board: Ledger, dht: DhtNetwork):
    """Fetch a record if the ledger-stored read predicate admits the caller.

    Returns the record's bytes on success and None otherwise; records
    without a registered predicate default closed.
    """
    stored = board.get(a_x)
    if stored is None:
        return None
    q_read = parse_predicate(stored.decode())
    if not check_permission(requester.sign_pk, addr, q_read, board):
        return None
    try:
        record, _ = dht.dht_lookup(a_x)
    except KeyError:
        return None
    return record.data
