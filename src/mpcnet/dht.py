"""Kademlia-style DHT with preference-weighted placement.

Routing uses the classic XOR metric over 256-bit node identifiers with
prefix-range buckets, so iterative lookups converge in O(log n) hops.
Storage placement (and only placement -- routing stays pure-XOR so the
convergence argument holds) is biased toward reputable, under-loaded nodes
through a weighted distance score.

Values are encrypted client-side by default, under a key derived from the
owner's signing keypair; record bytes at rest on any non-owner node are
ciphertext. The protocol-level store/load pair gates everything through
ledger-hosted predicates: a store registers the read predicate under the
record address a_x = H(addr_P || x), and a load re-evaluates it before any
bytes move.

Desk-scale parameters: bucket size 8, replication 3, lookup parallelism 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

from cryptography.exceptions import InvalidTag

from . import keys as keymod
from .identity import Predicate, check_permission, parse_predicate
from .keys import KeyPair, sha256
from .ledger import Ledger, make_tx, writes_payload

K_BUCKET = 8
REPLICATION = 3
PARALLELISM = 3
DEFAULT_LAMBDA = 0.5


@dataclass(frozen=True)
class NodeId:
    """A node's identifier plus the preference inputs used for placement."""

    value: bytes
    reputation: float = 0.0
    capacity: float = 1.0

    def __post_init__(self):
        if len(self.value) != 32:
            raise ValueError("node identifiers are 256-bit")
        if self.reputation < 0:
            raise ValueError("reputation is non-negative")
        if not 0 <= self.capacity <= 1:
            raise ValueError("capacity is a load headroom in [0,1]")


def _ident(node) -> bytes:
    return node.value if isinstance(node, NodeId) else node


def xor_distance(a, b) -> int:
    """The original Kademlia distance metric."""
    return int.from_bytes(_ident(a), "big") ^ int.from_bytes(_ident(b), "big")


def reputation_norm(node: NodeId) -> float:
    """Squash unbounded reputation into [0, 1)."""
    return node.reputation / (1.0 + node.reputation)


def weighted_distance(a, b: NodeId, lam: float = DEFAULT_LAMBDA) -> float:
    """Placement score: log-distance minus a preference bonus; lower wins.

    With lam=0 the induced ranking is exactly the XOR ranking. A node with
    preference weight w = reputation_norm * capacity can outrank nodes up
    to roughly a factor 2^(lam*w) farther away, and no more.
    """
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    return log2(1 + xor_distance(a, b)) - lam * reputation_norm(b) * b.capacity


@dataclass
class DhtRecord:
    key: bytes
    data: bytes
    encrypted: bool
    replicas: tuple = ()


class Bucket:
    """Fixed-capacity peer list ordered least- to most-recently seen."""

    def __init__(self, capacity: int = K_BUCKET):
        self.capacity = capacity
        self.peers: list = []

    def touch(self, peer: bytes) -> bool:
        """Insert or refresh a peer; full buckets evict the stalest entry."""
        if peer in self.peers:
            self.peers.remove(peer)
            self.peers.append(peer)
            return True
        if len(self.peers) >= self.capacity:
            self.peers.pop(0)
        self.peers.append(peer)
        return True


class RoutingTable:
    """256 buckets; bucket i holds peers at XOR distance in [2^i, 2^(i+1))."""

    def __init__(self, owner: bytes, capacity: int = K_BUCKET):
        self.owner = owner
        self.buckets = [Bucket(capacity) for _ in range(256)]

    def insert(self, peer: bytes):
        d = xor_distance(self.owner, peer)
        if d == 0:
            return
        self.buckets[d.bit_length() - 1].touch(peer)

    def known_peers(self) -> list:
        return [p for b in self.buckets for p in b.peers]

    def closest(self, target: bytes, count: int) -> list:
        return sorted(self.known_peers(), key=lambda p: xor_distance(p, target))[:count]


class DhtNode:
    """One simulated storage node: routing table plus a local record store."""

    def __init__(self, node_id: NodeId, keypair: KeyPair):
        self.node_id = node_id
        self.keypair = keypair
        self.table = RoutingTable(node_id.value)
        self.store: dict = {}
        self.alive = True


class DhtNetwork:
    """In-process network of DhtNodes with iterative XOR routing."""

    def __init__(self, lam: float = DEFAULT_LAMBDA):
        self.nodes: dict = {}
        self.lam = lam

    def add_node(self, node_id: NodeId, keypair: KeyPair) -> DhtNode:
        node = DhtNode(node_id, keypair)
        self.nodes[node_id.value] = node
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
        closer (or a stored value surfaces).
        """
        origin = self.nodes[start]
        shortlist = sorted(set(origin.table.closest(target, K_BUCKET)) | {start},
                           key=lambda p: xor_distance(p, target))
        queried = set()
        hops = 0
        value = None
        while True:
            pending = [p for p in shortlist if p not in queried
                       and self.nodes[p].alive][:PARALLELISM]
            if not pending:
                break
            hops += 1
            best_before = xor_distance(shortlist[0], target)
            for peer in pending:
                queried.add(peer)
                node = self.nodes[peer]
                if target in node.store and value is None:
                    value = node.store[target]
                for cand in node.table.closest(target, K_BUCKET):
                    if cand not in shortlist:
                        shortlist.append(cand)
            shortlist.sort(key=lambda p: xor_distance(p, target))
            shortlist = shortlist[:K_BUCKET * 2]
            if value is not None:
                break
            if xor_distance(shortlist[0], target) >= best_before and \
                    all(p in queried or not self.nodes[p].alive for p in shortlist[:K_BUCKET]):
                break
        return shortlist, value, hops

    def placement(self, key: bytes) -> list:
        """Replica set: the r closest live nodes by weighted distance."""
        ranked = sorted(self.alive_nodes(),
                        key=lambda n: weighted_distance(key, n.node_id, self.lam))
        return ranked[:REPLICATION]

    def dht_store(self, key: bytes, data: bytes, encrypted: bool) -> list:
        """Replicate a record to its placement set; returns replica ids."""
        if not self.alive_nodes():
            raise LookupError("no route: network is empty")
        replicas = self.placement(key)
        replica_ids = tuple(n.node_id.value for n in replicas)
        for node in replicas:
            node.store[key] = DhtRecord(key=key, data=data, encrypted=encrypted,
                                        replicas=replica_ids)
        return list(replica_ids)

    def dht_lookup(self, key: bytes, origin: bytes | None = None) -> tuple:
        """Fetch a record via iterative routing; returns (record, hops)."""
        alive = self.alive_nodes()
        if not alive:
            raise LookupError("no route: network is empty")
        start = origin if origin is not None and self.nodes[origin].alive \
            else alive[0].node_id.value
        _, value, hops = self.iterative_find(start, key)
        if value is None:
            raise KeyError(f"not found: {key.hex()}")
        return value, hops

    def holders(self, key: bytes) -> list:
        return [n.node_id.value for n in self.nodes.values() if key in n.store]


# -- predicate-gated store/load (the link protocol over ledger + DHT) --------

def record_address(addr: bytes, x: bytes) -> bytes:
    """a_x = H(addr_P || x): deterministic address for the stored payload."""
    return sha256(addr + x)


def protocol_store(requester: KeyPair, addr: bytes, x: bytes, q_read: Predicate,
                   board: Ledger, dht: DhtNetwork, encrypt: bool = True,
                   q_store: Predicate | None = None, writes: tuple = ()):
    """Authorize, then register the read predicate and place the record.

    Returns a_x on success and None when the store permission is denied; a
    denial leaves neither a ledger entry nor a DHT record behind. The write
    permission defaults to the requester's own registered policy.

    The predicate goes on the ledger first, as the last write of one
    transaction that starts with the caller's (key, value) `writes`, so a
    transaction the ledger rejects (LedgerRejected propagates) places
    nothing, and a record some other writer already holds at a_x stays as
    it is.
    """
    q_store = q_store if q_store is not None else Predicate.policy()
    if not check_permission(requester.sign_pk, addr, q_store, board):
        return None
    a_x = record_address(addr, x)
    if encrypt:
        data = keymod.seal(keymod.storage_key(requester),
                           int.from_bytes(a_x[:12], "big"), x)
    else:
        data = x
    writes = [*writes, (a_x, q_read.to_text().encode())]
    board.submit_tx(make_tx(requester, "kv-put", writes_payload(writes),
                            nonce=board.next_nonce(requester.sign_pk)))
    dht.dht_store(a_x, data, encrypted=encrypt)
    return a_x


def protocol_load(requester: KeyPair, addr: bytes, a_x: bytes,
                  board: Ledger, dht: DhtNetwork):
    """Fetch a record if the ledger-stored read predicate admits the caller.

    Returns the plaintext on success and None otherwise; records without a
    registered predicate default closed. Encrypted records only open for
    the key that stored them.
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
    if not record.encrypted:
        return record.data
    try:
        return keymod.unseal(keymod.storage_key(requester),
                             int.from_bytes(a_x[:12], "big"), record.data)
    except InvalidTag:
        return None
