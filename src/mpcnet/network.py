"""Deterministic multi-node simulator for the share/compute link protocols.

Everything a scenario run needs lives in a Runtime: the field, the ledger,
the DHT, the sealed broadcast bus, and the node registry. On top of it,
protocol_share deals verifiable shares to the committee it is given, posts
their commitments as the owner's VSS record at the sharing id and
registers the computation reference behind a predicate; protocol_compute
loads the reference, compiles the circuit into the layered plan
(circuits.layerize) and evaluates it over shares -- the plaintext never
exists at any single node.

Both engines run one layer loop, _evaluate: inputs, add and mul layers,
per-node tallies, per-round message counts and party reduction. The engine
supplies only load, linear, mul_layer, reduce and open: ShamirEngine,
AuditedSpdzEngine (Pedersen trail, fixed committee) or SpdzEngine (no
trail, party reduction), chosen once when the evaluation starts.

Every opening to a client goes through one path, reveal: each member
sends the requester one message carrying all of its values (every output of
a computation, or a declassified share with its blinding), and the result is
read from the requester's inbox. A member whose message is missing is
silent, whatever the reason; the engines time it out once per opening.

Node misbehavior is injected per scenario and surfaces through the
protocol's own detection channels (MAC check, commitment audit, share
consistency, timeout); the trace records what was detected and how.

Identifiers: registry nodes appear on the bus under their integer index,
client parties (data owners, requesters) under string labels. Inside an
engine, parties are committee-local points mapped back to bus identities by
a CommitteeChannel.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field as dc_field

from . import audit as auditmod
from . import pedersen, shamir, spdz
from .circuits import Circuit, layerize
from .dht import DhtNetwork, place_record, protocol_load
from .errors import CheatDetected
from .field import Field, eval_poly
from .hierarchy import reduce_parties, reduce_parties_spdz, select_committee
from .identity import Predicate, check_permission
from .keys import KeyPair, sha256
from .ledger import Ledger
from .net import EncryptedBus
from .spdz import MacKey
from .trace import ComputationTrace

HONEST = "honest"
ABORT_AFTER_OUTPUT = "abort-after-output"
WRONG_SHARE = "wrong-share"
BROKEN_COMMITMENT = "broken-commitment"
BEHAVIORS = (HONEST, ABORT_AFTER_OUTPUT, WRONG_SHARE, BROKEN_COMMITMENT)

IDLE_TIMEOUT = 3  # idle simulator steps before a silent party is timed out


class AbortedComputation(Exception):
    """Raised when an abort leaves the result unrecoverable (SPDZ mode)."""

    def __init__(self, nodes):
        self.nodes = tuple(nodes)
        super().__init__(f"aborted by nodes {self.nodes}")


@dataclass
class SimNode:
    index: int
    node_id: bytes
    keypair: KeyPair
    behavior: str = HONEST
    shares: dict = dc_field(default_factory=dict)   # sharing_id -> material


def inject_fault(node: SimNode, behavior: str):
    """Fix a node's behavior for the rest of the scenario."""
    if behavior not in BEHAVIORS:
        raise ValueError(f"unknown behavior {behavior!r}")
    node.behavior = behavior


def child_rng(seed: int, label: str) -> random.Random:
    """Independent, label-addressed randomness stream for one subsystem."""
    digest = sha256(seed.to_bytes(8, "big") + label.encode())
    return random.Random(int.from_bytes(digest[:8], "big"))


class Runtime:
    """Shared substrate for one scenario: nodes, ledger, DHT, bus, params."""

    def __init__(self, field: Field, seed: int, n_nodes: int,
                 genesis_balance: int = 1000):
        self.field = field
        self.seed = seed
        self.params = pedersen.setup(field)
        self.bus = EncryptedBus()
        self.dht = DhtNetwork()
        self.registry: list = []
        self.clients: dict = {}

        rng = child_rng(seed, "nodes")
        balances = {}
        for i in range(n_nodes):
            kp = KeyPair.generate(rng)
            node_id = rng.randbytes(32)
            node = SimNode(index=i, node_id=node_id, keypair=kp)
            self.registry.append(node)
            self.bus.register(i, kp)
            self.dht.add_node(node_id)
            balances[kp.sign_pk] = genesis_balance
        self.dht.bootstrap()

        self.authority = KeyPair.generate(child_rng(seed, "authority"))
        balances[self.authority.sign_pk] = 0
        self._starting_balance = genesis_balance
        self.ledger = Ledger(genesis_balances=balances, authority=self.authority.sign_pk)

    def add_client(self, label: str) -> KeyPair:
        kp = KeyPair.generate(child_rng(self.seed, f"client:{label}"))
        self.clients[label] = kp
        self.bus.register(label, kp)
        self.ledger.account(kp.sign_pk).balance += self._starting_balance
        return kp

    def eligible_nodes(self) -> list:
        return [n for n in self.registry
                if self.ledger.account(n.keypair.sign_pk).deposit > 0]

    def sample_committee(self, k: int, rng: random.Random) -> list:
        return select_committee(self.eligible_nodes(), k, rng)


class CommitteeChannel:
    """Maps engine-local party points onto bus identities."""

    def __init__(self, bus, mapping: dict):
        self.bus = bus
        self.mapping = dict(mapping)
        self.reverse = {v: k for k, v in self.mapping.items()}

    def send(self, src, dst, payload: bytes):
        self.bus.send(self.mapping[src], self.mapping[dst], payload)

    def recv_all(self, dst) -> list:
        return [(self.reverse[s], p) for s, p in self.bus.recv_all(self.mapping[dst])]


# -- sharing registration (the MPC namespace's set) ---------------------------

def sharing_key(addr: bytes, x_ref: str) -> bytes:
    return sha256(addr + x_ref.encode())


def protocol_share(owner: KeyPair, owner_label: str, addr: bytes, x: int,
                   x_ref: str, q_compute: Predicate, committee: list, t: int,
                   rt: Runtime, rng: random.Random, mode: str = "shamir",
                   mac_key: MacKey | None = None):
    """Verifiably share x with `committee` and register the pointer.

    Deals the sharing (Shamir or SPDZ per `mode`) with its per-party
    Pedersen commitments (the VSS layer). The owner signs one ledger
    transaction that posts the commitments at the sharing id (so the owner
    is the one key that may declassify it) and the pointer's predicate
    q_compute, places the computation reference in the DHT, and only then
    sends each member its share and blinding over the secure channel.
    Returns the pointer, or None before anything is sent or written when
    the identity's `(policy)` denies the owner; LedgerRejected propagates
    with nothing sent.
    """
    if not check_permission(owner.sign_pk, addr, Predicate.policy(), rt.ledger):
        return None
    n = len(committee)
    field = rt.field
    sharing_id = sharing_key(addr, x_ref)

    if mode == "shamir":
        value_shares = shamir.share(x, t, n, field, rng)
        blind_shares = blinds = [field.rand(rng) for _ in range(n)]
        values = [s.value for s in value_shares]
        payloads = [field.encode(v) + field.encode(r) for v, r in zip(values, blinds)]
    elif mode == "spdz":
        if mac_key is None or mac_key.n != n:
            raise ValueError("spdz mode needs a MAC key split for n parties")
        value_shares = spdz.deal_authenticated(x, n, mac_key, field, rng)
        blind_shares = spdz.deal_authenticated(field.rand(rng), n, mac_key, field, rng)
        values = [v.value_share for v in value_shares]
        blinds = [r.value_share for r in blind_shares]
        payloads = [field.encode(v.value_share) + field.encode(v.mac_share)
                    + field.encode(r.value_share) + field.encode(r.mac_share)
                    for v, r in zip(value_shares, blind_shares)]
    else:
        raise ValueError(f"unknown engine mode {mode!r}")
    # A broken-commitment node publishes a commitment inconsistent with the
    # share it actually holds.
    commitments = auditmod.commit_shares(
        values, blinds, rt.params,
        {pos for pos, node in enumerate(committee) if node.behavior == BROKEN_COMMITMENT})

    blob = json.dumps({
        "ref": x_ref,
        "sharing": sharing_id.hex(),
        "mode": mode,
        "n": n,
        "t": t,
        "committee": [node.index for node in committee],
    }, sort_keys=True).encode()
    # One owner transaction: the commitments, then (through place_record)
    # the pointer's predicate.
    writes = ((sharing_id, pedersen.pack_commitments(commitments, rt.params)),)
    pointer = place_record(owner, addr, blob, q_compute, rt.ledger, rt.dht,
                           writes=writes)
    # A rejected transaction raised above: only an accepted input is dealt.
    for node, payload, share, blind in zip(committee, payloads, value_shares, blind_shares):
        rt.bus.send(owner_label, node.index, payload)
        rt.bus.recv_all(node.index)
        node.shares[sharing_id] = {"share": share, "blind": blind}
    return pointer


def load_reference(requester: KeyPair, addr: bytes, pointer: bytes, rt: Runtime):
    blob = protocol_load(requester, addr, pointer, rt.ledger, rt.dht)
    return None if blob is None else json.loads(blob.decode())


def reveal(members: list, rows: list, requester, rt: Runtime) -> dict:
    """Open rows[k] to the requester: member k sends one message carrying
    every value in its row, and an abort-after-output member sends nothing.

    Returns {k: row} decoded from the requester's inbox; a member whose
    message is not there is silent, and the caller decides what that costs.
    A message that is not a row of len(rows[k]) elements raises ValueError.
    """
    field = rt.field
    for node, row in zip(members, rows):
        if node.behavior != ABORT_AFTER_OUTPUT:
            rt.bus.send(node.index, requester, field.encode_many(row))
    position = {node.index: k for k, node in enumerate(members)}
    return {position[src]: field.decode_many([payload], len(rows[position[src]]))
            for src, payload in rt.bus.recv_all(requester)}


def mpc_declassify(requester: KeyPair, requester_label: str, addr: bytes,
                   pointer: bytes, rt: Runtime):
    """Collect the raw shares back and reconstruct, verifying each opening
    against the VSS commitments as the dealer first posted them, the ones
    the shares were dealt under.

    Returns (value, faults); value is None when the requester is not the
    first writer of the VSS record (the dealer) or too few verified shares
    remain. faults lists (node index, channel) pairs for shares that failed
    their commitment. A VSS record that is missing or whose first posting
    is not n commitments long raises ValueError.
    """
    ref = load_reference(requester, addr, pointer, rt)
    if ref is None:
        return None, []
    sharing_id = bytes.fromhex(ref["sharing"])
    if rt.ledger.writer(sharing_id) != requester.sign_pk:
        return None, []

    commitments = auditmod.vss_commitments(rt.ledger, ref["sharing"], ref["n"], rt.params)
    field = rt.field
    committee = [rt.registry[i] for i in ref["committee"]]
    rows = []
    for node in committee:
        mat = node.shares[sharing_id]
        if ref["mode"] == "shamir":
            value, blind = mat["share"].value, mat["blind"]
        else:
            value, blind = mat["share"].value_share, mat["blind"].value_share
        if node.behavior == WRONG_SHARE:
            value = field.add(value, 1)
        rows.append([value, blind])

    good, faults = [], []
    for pos, (value, blind) in sorted(reveal(committee, rows, requester_label, rt).items()):
        if pedersen.verify_open(commitments[pos], value, blind, rt.params):
            good.append((pos, value))
        else:
            faults.append((committee[pos].index, "audit_trail"))

    if ref["mode"] == "shamir":
        t = ref["t"]
        if len(good) <= t:
            return None, faults
        points = [(pos + 1, value) for pos, value in good]
        return shamir.interpolate_at_zero(points[:t + 1], field), faults
    if len(good) != ref["n"]:
        return None, faults
    return sum(value for _, value in good) % field.p, faults


# -- secure evaluation ---------------------------------------------------------

def detect_bad_shares(points: list, t: int, field: Field) -> tuple:
    """Berlekamp–Welch decoding of claimed degree-t points (BGW error correction).

    Returns (value_at_zero, positions of outliers) when a unique consensus
    exists. A degree-t polynomial other than the true one can agree with at
    most t honest points plus all corrupted ones, so identification is
    unambiguous only when the winner's agreement m satisfies 2m > n + t,
    i.e. at most e = floor((n - t - 1) / 2) points are wrong; anything less
    is detectable corruption without an identifiable culprit, reported as
    CheatDetected.

    With E monic of degree e (the error locator, padded) and Q = P*E of
    degree at most t + e, every point satisfies Q(x_i) = y_i * E(x_i). That
    is n linear equations in t + 2e + 1 unknowns, solved by Gaussian
    elimination: O(n^3) field multiplications and at most n inversions.
    The system has a solution with E dividing Q exactly when some degree-t
    P misses at most e points, which is the same 2m > n + t condition; the
    quotient Q/E is then that P (its degree is at most t by construction).
    """
    n = len(points)
    e = (n - t - 1) // 2
    if e < 0:
        raise CheatDetected("inconsistent shares without an identifiable culprit")
    # Unknowns q_0..q_{t+e}, then E_0..E_{e-1}; the leading E_e = 1 moves
    # to the right-hand side: sum q_j x^j - y * sum E_k x^k = y * x^e.
    rows = []
    for x, y in points:
        powers = [1]
        for _ in range(t + e):
            powers.append(field.mul(powers[-1], x))
        rows.append(powers
                    + [field.neg(field.mul(y, powers[k])) for k in range(e)]
                    + [field.mul(y, powers[e])])
    solution = _solve_linear(rows, t + 2 * e + 1, field)
    if solution is None:
        raise CheatDetected("inconsistent shares without an identifiable culprit")
    poly, remainder = _divide_monic(solution[:t + e + 1],
                                    solution[t + e + 1:] + [1], field)
    if any(remainder):
        raise CheatDetected("inconsistent shares without an identifiable culprit")
    fitted = eval_poly(poly, [x for x, _ in points], field.p)
    outliers = tuple(i for i, ((_, y), v) in enumerate(zip(points, fitted)) if v != y)
    return poly[0], outliers


def _solve_linear(rows: list, cols: int, field: Field) -> list | None:
    """One solution of the augmented system `rows` (free unknowns set to 0),
    or None when it is inconsistent. Reduces `rows` in place."""
    pivots = []
    for col in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = field.inv(rows[r][col])
        head = [field.mul(scale, v) for v in rows[r][col:]]
        rows[r][col:] = head
        for i in range(r + 1, len(rows)):
            factor = rows[i][col]
            if factor:
                rows[i][col:] = [field.sub(a, field.mul(factor, b))
                                 for a, b in zip(rows[i][col:], head)]
        pivots.append(col)
    # Below the pivot rows every coefficient is now zero.
    if any(row[cols] for row in rows[len(pivots):]):
        return None
    solution = [0] * cols
    for r in reversed(range(len(pivots))):
        col = pivots[r]
        acc = rows[r][cols]
        for j in range(col + 1, cols):
            if rows[r][j] and solution[j]:
                acc = field.sub(acc, field.mul(rows[r][j], solution[j]))
        solution[col] = acc
    return solution


def _divide_monic(num: list, den: list, field: Field) -> tuple:
    """(quotient, remainder) of num / den, coefficients lowest degree first;
    den's leading coefficient is 1."""
    rem = list(num)
    d = len(den) - 1
    quot = [0] * (len(num) - d)
    for k in reversed(range(len(quot))):
        c = rem[k + d]
        quot[k] = c
        if c:
            for j in range(d):
                rem[k + j] = field.sub(rem[k + j], field.mul(c, den[j]))
    return quot, rem[:d]


def protocol_compute(requester: KeyPair, requester_label: str, addr: bytes,
                     pointers: list, circ: Circuit, rt: Runtime,
                     trace: ComputationTrace, rng: random.Random,
                     mac_key: MacKey | None = None, reduction: int | None = None):
    """Evaluate `circ` over previously shared inputs named by `pointers`.

    Returns the opened output list, or None when a reference is denied (no
    MPC message is sent in that case). CheatDetected and AbortedComputation
    propagate to the caller. A SPDZ run posts its commitment trail exactly
    when the committee stays fixed (`reduction` is None).
    """
    refs = []
    for pointer in pointers:
        ref = load_reference(requester, addr, pointer, rt)
        if ref is None:
            trace.event("denied", pointer=pointer)
            trace.finalize("denied")
            return None
        refs.append(ref)

    first = refs[0]
    mode, n, t = first["mode"], first["n"], first["t"]
    committee_idx = first["committee"]
    for ref in refs[1:]:
        if (ref["mode"], ref["n"], ref["committee"]) != (mode, n, committee_idx):
            raise ValueError("inputs were shared under incompatible parameters")
    if len(refs) != circ.n_inputs:
        raise ValueError(f"arity mismatch: circuit takes {circ.n_inputs} inputs, "
                         f"got {len(refs)}")
    committee = [rt.registry[i] for i in committee_idx]
    trace.event("compute", gates=len(circ.gates), mode=mode, n=n)

    plan = layerize(circ, n, reduction, threshold=t if mode == "shamir" else 1)
    context = (committee, rt, trace, rng, requester_label)
    if mode == "shamir":
        engine = ShamirEngine(*context)
    elif reduction is None:
        muls = sum(len(gates) for kind, gates in plan.layers if kind == "mul")
        engine = AuditedSpdzEngine(mac_key, muls, *context)
    else:
        engine = SpdzEngine(mac_key, *context)
    return _evaluate(engine, refs, plan)


def _evaluate(engine, refs: list, plan) -> list:
    """Walk the plan's layers over `engine`'s sharings; returns the opened
    outputs. With party reduction, each multiplication layer is followed by
    a re-share to the plan's next committee size that carries only the live
    wires: those a later layer reads or an output gate names.
    A layer's round-messages entry counts the bus messages from its start
    to the next layer's start; messages_eval gains the loop's total.
    """
    rt, trace = engine.rt, engine.trace
    gates = plan.circuit.gates
    outputs = [g.args[0] for g in gates if g.kind == "output"]
    sharings = iter(refs)
    wires = {idx: engine.load(bytes.fromhex(next(sharings)["sharing"]))
             for idx, g in enumerate(gates) if g.kind == "input"}
    start = layer_start = rt.bus.messages
    stage = 0
    for pos, (kind, gate_indices) in enumerate(plan.layers):
        members = engine.committee[:plan.schedule[stage]]
        for node in members:
            trace.tally(node.index).rounds += 1
        if kind == "mul":
            products = engine.mul_layer([(wires[a], wires[b]) for a, b in
                                         (gates[gi].args for gi in gate_indices)])
            wires.update(zip(gate_indices, products))
            for node in members:
                trace.tally(node.index).muls += len(gate_indices)
        else:
            for gi in gate_indices:
                g = gates[gi]
                if g.kind == "add":
                    terms = [(1, wires[g.args[0]]), (1, wires[g.args[1]])]
                else:
                    terms = [(g.scalar % rt.field.p, wires[g.args[0]])]
                wires[gi] = engine.linear(terms)
            for node in members:
                trace.tally(node.index).adds += len(gate_indices)
        if kind == "mul" and plan.reduction and stage + 1 < len(plan.schedule):
            stage += 1
            read_later = set(outputs).union(*(gates[gi].args for _, later in
                                              plan.layers[pos + 1:] for gi in later))
            live = sorted(read_later & wires.keys())
            wires = dict(zip(live, engine.reduce([wires[i] for i in live],
                                                 plan.schedule[stage])))
            trace.event("reduce", parties=plan.schedule[stage])
        trace.per_round_messages.append(rt.bus.messages - layer_start)
        layer_start = rt.bus.messages
    trace.messages_eval += layer_start - start
    return engine.open([wires[i] for i in outputs])


class _Engine:
    """State shared by the engines that _evaluate drives through load,
    linear, mul_layer, reduce and open; party points start at first_point."""

    first_point = 0

    def __init__(self, committee, rt, trace, rng, requester):
        self.committee = committee
        self.rt = rt
        self.field = rt.field
        self.trace = trace
        self.rng = rng
        self.requester = requester
        self.chan = CommitteeChannel(rt.bus, {pos + self.first_point: node.index
                                              for pos, node in enumerate(committee)})

    def load(self, sharing_id: bytes) -> list:
        return [node.shares[sharing_id]["share"] for node in self.committee]

    def _deliver(self, rows: list) -> tuple:
        """Reveal to the requester: rows[k] is member k's share of every
        output (after a reduction only the first len(rows) members hold
        one). Returns the rows that arrived, {k: row}, and the silent
        members, for whom the requester waits IDLE_TIMEOUT steps once."""
        members = self.committee[:len(rows)]
        arrived = reveal(members, rows, self.requester, self.rt)
        silent = [node for k, node in enumerate(members) if k not in arrived]
        if silent:
            for step in range(IDLE_TIMEOUT):
                self.trace.event("idle", step=step + 1)
        return arrived, silent


class ShamirEngine(_Engine):
    """Degree-t Shamir sharings at points 1..n. The output opening
    reconstructs without silent parties and names wrong contributions by
    Berlekamp–Welch decoding."""

    first_point = 1

    def linear(self, terms: list) -> list:
        return shamir.linear_combine([s for _, s in terms], [c for c, _ in terms],
                                     0, self.field)

    def mul_layer(self, pairs: list) -> list:
        return shamir.mul_layer(pairs, self.field, self.chan, self.rng)

    def reduce(self, values: list, m: int) -> list:
        return reduce_parties(values, m, self.field, self.chan, self.rng)

    def open(self, outputs: list) -> list:
        arrived, silent = self._deliver([
            [self.field.add(s.value, 1) if node.behavior == WRONG_SHARE else s.value
             for s in row] for node, row in zip(self.committee, zip(*outputs))])
        for node in silent:
            self.trace.fault(node.index, "timeout")
            self.trace.event("recover", action="reconstruct-without", node=node.index)
        positions = sorted(arrived)
        results, outliers = [], set()
        for i, shares in enumerate(outputs):
            value, bad = detect_bad_shares([(k + 1, arrived[k][i]) for k in positions],
                                           shares[0].threshold, self.field)
            outliers.update(positions[j] for j in bad)
            results.append(value)
        for k in sorted(outliers):
            node = self.committee[k]
            self.trace.fault(node.index, "share-consistency")
            self.trace.event("recover", action="exclude-share", node=node.index)
        return results


class SpdzEngine(_Engine):
    """SPDZ without a trail (party reduction posts none), so wires are bare
    AuthShare vectors with no blinding sharing. The deferred MAC check runs
    before each reduction and before the output opening; a silent party at
    the output forces a restart, as additive shares are all-or-nothing."""

    def __init__(self, mac_key: MacKey | None, *context):
        super().__init__(*context)
        if mac_key is None:
            raise ValueError("spdz evaluation needs the MAC key split")
        self.key = mac_key
        self.queue = []
        self.check_rng = child_rng(self.rt.seed, "mac-check")

    def load(self, sharing_id: bytes) -> list:
        # A wrong-share node contributes a share off by one; its MAC share is
        # not adjusted, which is exactly what the MAC check exists to catch.
        return [spdz.AuthShare(self.field.add(s.value_share, 1), s.mac_share, s.owner)
                if node.behavior == WRONG_SHARE else s
                for node, s in zip(self.committee, super().load(sharing_id))]

    def linear(self, terms: list) -> list:
        return spdz.auth_linear(terms, 0, self.key, self.field)

    def mul_layer(self, pairs: list) -> list:
        triples = spdz.deal_triples(len(pairs), self.key.n, self.key, self.field, self.rng)
        return spdz.beaver_layer(pairs, triples, self.key, self.field, self.chan,
                                 self.queue)

    def check_macs(self):
        if self.queue:
            spdz.mac_check(self.queue, self.key, self.field, self.chan, self.check_rng)

    def reduce(self, values: list, m: int) -> list:
        # Openings queued so far belong to the current key split; check them
        # before the re-share rotates the per-party attribution.
        self.check_macs()
        values, self.key = reduce_parties_spdz(values, m, self.key, self.field,
                                               self.chan, self.rng)
        return values

    def open(self, outputs: list) -> list:
        self.check_macs()
        arrived, silent = self._deliver([[s.value_share for s in row]
                                         for row in zip(*outputs)])
        if silent:
            for node in silent:
                self.trace.fault(node.index, "timeout")
            raise AbortedComputation([node.index for node in silent])
        return [sum(column) % self.field.p for column in zip(*arrived.values())]


class AuditedSpdzEngine(SpdzEngine):
    """SPDZ with the public Pedersen trail (see audit): wires are PVShares,
    a value sharing and a MAC-free blinding sharing. The dealer deals all
    `muls` triples of the evaluation up front, in the order the layers
    consume them, so an evaluation posts its trail in two transactions:
    inputs and triples before the first mask opens, then the online steps
    with the metadata at close. A MAC failure or an abort posts the online
    steps without the metadata. Built only for a fixed committee, so it
    never reduces."""

    def __init__(self, mac_key: MacKey | None, muls: int, *context):
        super().__init__(mac_key, *context)
        self.writer = auditmod.TrailWriter(self.rt.ledger, self.trace.computation_id,
                                           self.rt.authority, self.field, self.key.n)
        self.triples = iter([auditmod.pv_triple(self.key, self.rt.params, self.writer,
                                                self.field, self.rng) for _ in range(muls)])

    def load(self, sharing_id: bytes) -> auditmod.PVShare:
        # The input step names the owner's VSS record, and the auditor
        # reads the input commitments from its first posting.
        step = self.writer.post_input(sharing_id)
        return auditmod.PVShare(
            value=super().load(sharing_id),
            randomness=[node.shares[sharing_id]["blind"].value_share
                        for node in self.committee],
            step=step)

    def linear(self, terms: list) -> auditmod.PVShare:
        return auditmod.pv_linear(terms, 0, self.key, self.field, self.writer)

    def mul_layer(self, pairs: list) -> list:
        triples = [next(self.triples) for _ in pairs]
        return auditmod.pv_beaver_layer(pairs, triples, self.key, self.rt.params,
                                        self.field, self.chan, self.queue, self.writer)

    def open(self, outputs: list) -> list:
        # Commitments still pending (a circuit without a multiplication) go
        # on the ledger before the MAC check and the reveal.
        self.writer.flush_commitments()
        try:
            results = super().open([pv.value for pv in outputs])
        except (CheatDetected, AbortedComputation):
            # A failed attempt posts its online steps, with no metadata.
            self.writer.flush()
            raise
        for pv in outputs:
            auditmod.pv_output(pv, self.field, self.writer)
        self.writer.close()
        return results
