"""Test-only oracles: plaintext evaluators the secure engines are checked
against, a step-by-step audit fold the batched auditor is checked against,
per-element sharing kernels and DHT lookups the vectorised ones are checked
against, a seeded random-circuit generator, and the helpers only tests
call: a sharing's plaintext, a ledger with some values reposted, a wiretap
on the bus, and reading back the key files `mpcnet keygen` writes. numpy is
a test dependency, so the vectorised evaluator lives here and not in the
package."""

import numpy as np
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from mpcnet import keys, pedersen
from mpcnet.audit import AuditReport
from mpcnet.circuits import Circuit, LayeredCircuit, parse_circuit
from mpcnet.dht import K_BUCKET, PARALLELISM, xor_distance
from mpcnet.errors import IncompleteTrail
from mpcnet.field import Field
from mpcnet.keys import KeyPair
from mpcnet.ledger import Board
from mpcnet.shamir import ShamirShare
from mpcnet.spdz import AuthShare


def random_circuit(rng, n_inputs=None, max_gates=20):
    """Seeded random DAG over the gate grammar (test-only generator)."""
    n_inputs = n_inputs or rng.randrange(1, 5)
    lines = [f"in x{i}" for i in range(n_inputs)]
    wires = [f"x{i}" for i in range(n_inputs)]
    for g in range(rng.randrange(1, max_gates - n_inputs + 1)):
        kind = rng.choice(["add", "smul", "mul", "select"])
        name = f"w{g}"
        if kind == "add":
            lines.append(f"{name} = add {rng.choice(wires)} {rng.choice(wires)}")
        elif kind == "smul":
            lines.append(f"{name} = smul {rng.randrange(-5, 100)} {rng.choice(wires)}")
        elif kind == "mul":
            lines.append(f"{name} = mul {rng.choice(wires)} {rng.choice(wires)}")
        else:
            c, a, b = (rng.choice(wires) for _ in range(3))
            lines.append(f"{name} = select {c} {a} {b}")
        wires.append(name)
    lines.append(f"out {wires[-1]}")
    return parse_circuit("\n".join(lines))


def eval_plain_vec(circuit: Circuit, inputs: list, field: Field) -> list:
    """Vectorized evaluator over int64 numpy arrays (exhaustive small-field runs).

    Only valid when (p-1)^2 fits in int64; meant for test fields like p=101
    where sweeping the whole input cube is feasible.
    """
    if (field.p - 1) ** 2 >= 2 ** 63:
        raise ValueError("field too large for int64 vectorized evaluation")
    p = field.p
    values = [None] * len(circuit.gates)
    outputs = []
    it = iter(inputs)
    for idx, g in enumerate(circuit.gates):
        if g.kind == "input":
            values[idx] = np.asarray(next(it), dtype=np.int64) % p
        elif g.kind == "add":
            values[idx] = (values[g.args[0]] + values[g.args[1]]) % p
        elif g.kind == "smul":
            values[idx] = (g.scalar % p) * values[g.args[0]] % p
        elif g.kind == "mul":
            values[idx] = values[g.args[0]] * values[g.args[1]] % p
        elif g.kind == "select":
            c, a, b = (values[a] for a in g.args)
            values[idx] = (c * a + (1 - c) % p * b) % p
        elif g.kind == "output":
            outputs.append(values[g.args[0]])
    return outputs


def eval_layered(layered: LayeredCircuit, inputs: list, field: Field) -> list:
    """Evaluate the circuit in layer order (plaintext transform oracle)."""
    circ = layered.circuit
    if len(inputs) != circ.n_inputs:
        raise ValueError("arity mismatch")
    values = {}
    it = iter(inputs)
    for idx, g in enumerate(circ.gates):
        if g.kind == "input":
            values[idx] = next(it) % field.p
    for kind, indices in layered.layers:
        for idx in indices:
            g = circ.gates[idx]
            if g.kind == "add":
                values[idx] = field.add(values[g.args[0]], values[g.args[1]])
            elif g.kind == "smul":
                values[idx] = field.mul(g.scalar % field.p, values[g.args[0]])
            else:
                values[idx] = field.mul(values[g.args[0]], values[g.args[1]])
    return [values[g.args[0]] for g in circ.gates if g.kind == "output"]


def reposted(board, values: dict) -> Board:
    """A Board holding `board`'s entries in height order, with each entry
    at a key in `values` holding values[key] instead, or left out where
    that is None."""
    out = Board()
    for entry in board.entries:
        value = values.get(entry.key, entry.value)
        if value is not None:
            out._record(entry._replace(value=value))
    return out


def fold_trail(board, records: list, n: int, p: int) -> AuditReport:
    """The audit as a per-step, per-party fold over a trail's record list,
    reading each input's commitments from the VSS record on `board` that
    its step names, as first posted.

    Every derived commitment is reduced mod q as soon as its step is read:
    a linear step raises each source to its coefficient, a Beaver step
    multiplies C(c_i) by C(b_i)^eps and C(a_i)^delta, and a mask opening is
    checked against C(x_i) / C(a_i), a posted commitment divisible by q
    standing for 0 as c^(q-2) would.
    """
    field = Field(p)
    params = pedersen.setup(field)
    q = params.q
    commitments = {}
    guilty = set()
    reasons = []
    output_seen = False

    def inverse_or_zero(c):
        return pow(c, -1, q) if c % q else 0

    def check_openings(derived, opens, label):
        for i, (c, (s, r)) in enumerate(zip(derived, opens)):
            if not pedersen.verify_open(c, s, r, params):
                guilty.add(i)
                reasons.append(f"party {i} broke its commitment at {label}")

    for step, rec in enumerate(records):
        kind = rec["kind"]
        if kind == "input":
            first = board.first(bytes.fromhex(rec["sharing"]))
            if first is None:
                raise IncompleteTrail(f"input step {step} names no VSS record")
            commitments[step] = pedersen.unpack_commitments(first.value, n, params)
        elif kind == "triple":
            commitments[step] = {name: pedersen.decode_commitments(rec[name], n, params)
                                 for name in ("a", "b", "c")}
        elif kind == "linear":
            acc = [pedersen.commit(rec["constant"] if i == 0 else 0, 0, params)
                   for i in range(n)]
            for coeff, ref in rec["terms"]:
                src = commitments[ref]
                for i in range(n):
                    acc[i] = acc[i] * pow(src[i], coeff, q) % q
            commitments[step] = acc
        elif kind == "beaver":
            trip = commitments[rec["triple"]]
            x_c, y_c = commitments[rec["x"]], commitments[rec["y"]]
            eps_opens = pedersen.decode_openings(rec["eps_openings"], n, field)
            delta_opens = pedersen.decode_openings(rec["delta_openings"], n, field)
            eps_c = [x_c[i] * inverse_or_zero(trip["a"][i]) % q for i in range(n)]
            delta_c = [y_c[i] * inverse_or_zero(trip["b"][i]) % q for i in range(n)]
            check_openings(eps_c, eps_opens, f"step {step} (eps)")
            check_openings(delta_c, delta_opens, f"step {step} (delta)")
            eps = sum(s for s, _ in eps_opens) % field.p
            delta = sum(s for s, _ in delta_opens) % field.p
            acc = []
            for i in range(n):
                c = trip["c"][i] * pow(trip["b"][i], eps, q) % q
                c = c * pow(trip["a"][i], delta, q) % q
                if i == 0:
                    c = c * pedersen.commit(field.mul(eps, delta), 0, params) % q
                acc.append(c)
            commitments[step] = acc
        elif kind == "output":
            output_seen = True
            opens = pedersen.decode_openings(rec["openings"], n, field)
            check_openings(commitments[rec["source"]], opens, f"step {step} (output)")
            total = sum(s for s, _ in opens) % field.p
            if total != rec["value"] % field.p:
                reasons.append(f"claimed output {rec['value']} != opened total {total}")
        else:
            raise IncompleteTrail(f"unknown trail record kind {kind!r}")

    if not output_seen:
        raise IncompleteTrail("trail has no output step")
    return AuditReport(ok=not guilty and not reasons, guilty=tuple(sorted(guilty)),
                       reason="; ".join(reasons))


# -- per-element sharing kernels ------------------------------------------------
# One field operation per coefficient and per term: the same draws, shares and
# wire bytes as the package's vectorised kernels, at interpreter speed.

def horner(coeffs: list, x: int, field: Field) -> int:
    """a_0 + a_1 x + ... (lowest degree first) at one point."""
    acc = 0
    for c in reversed(coeffs):
        acc = field.add(field.mul(acc, x), c)
    return acc


def share(secret: int, t: int, n: int, field: Field, rng) -> list:
    secret %= field.p
    coeffs = [secret] + [field.rand(rng) for _ in range(t)]
    return [ShamirShare(i, horner(coeffs, i, field), t) for i in range(1, n + 1)]


def reshare(points: list, sources: list, weights: list, targets: list, t: int,
            field: Field, net, rng) -> list:
    payloads = [[b""] * len(targets) for _ in sources]
    kept = {}
    for values in points:
        for src, d, row in zip(sources, values, payloads):
            coeffs = [d] + [field.rand(rng) for _ in range(t)]
            for j, (tgt, x) in enumerate(targets):
                sub = horner(coeffs, x, field)
                if tgt == src:
                    kept.setdefault(tgt, []).append(sub)
                else:
                    row[j] += field.encode(sub)

    for src, row in zip(sources, payloads):
        for (tgt, _), payload in zip(targets, row):
            if tgt != src:
                net.send(src, tgt, payload)

    weight_of = dict(zip(sources, weights))
    w = field.elem_size
    shares = [[] for _ in points]
    for tgt, x in targets:
        inbox = net.recv_all(tgt)
        own = kept.get(tgt)
        for k in range(len(points)):
            lo, hi = k * w, (k + 1) * w
            total = sum(weight_of[src] * field.decode(payload[lo:hi])
                        for src, payload in inbox)
            if own is not None:
                total += weight_of[tgt] * own[k]
            shares[k].append(ShamirShare(x, total % field.p, t))
    return shares


def additive_split(value: int, n: int, field: Field, rng) -> list:
    parts = [field.rand(rng) for _ in range(n - 1)]
    last = value % field.p
    for x in parts:
        last = field.sub(last, x)
    parts.append(last)
    return parts


def auth_linear(terms: list, constant: int, key, field: Field) -> list:
    constant %= field.p
    out = []
    for i in range(key.n):
        v = constant if i == 0 else 0
        m = field.mul(key.alpha_shares[i], constant)
        for coeff, shares in terms:
            c = coeff % field.p
            v = field.add(v, field.mul(c, shares[i].value_share))
            m = field.add(m, field.mul(c, shares[i].mac_share))
        out.append(AuthShare(v, m, i))
    return out


# -- DHT lookups by byte ids ----------------------------------------------------

def closest(table, target: bytes, count: int) -> list:
    return sorted(table.known_peers(), key=lambda p: xor_distance(p, target))[:count]


def iterative_find(net, start: bytes, target: bytes) -> tuple:
    """DhtNetwork.iterative_find over byte ids, sorting by xor_distance."""
    origin = net.nodes[start]
    shortlist = sorted(set(closest(origin.table, target, K_BUCKET)) | {start},
                       key=lambda p: xor_distance(p, target))
    queried = set()
    hops = 0
    value = None
    while True:
        pending = [p for p in shortlist if p not in queried
                   and net.nodes[p].alive][:PARALLELISM]
        if not pending:
            break
        hops += 1
        best_before = xor_distance(shortlist[0], target)
        for peer in pending:
            queried.add(peer)
            node = net.nodes[peer]
            if target in node.store and value is None:
                value = node.store[target]
            for cand in closest(node.table, target, K_BUCKET):
                if cand not in shortlist:
                    shortlist.append(cand)
        shortlist.sort(key=lambda p: xor_distance(p, target))
        shortlist = shortlist[:K_BUCKET * 2]
        if value is not None:
            break
        if xor_distance(shortlist[0], target) >= best_before and \
                all(p in queried or not net.nodes[p].alive for p in shortlist[:K_BUCKET]):
            break
    return shortlist, value, hops


# -- helpers only tests call ----------------------------------------------------

def open_value(shares: list, field: Field) -> int:
    """Dealer-side plaintext of an authenticated sharing."""
    total = 0
    for s in shares:
        total = field.add(total, s.value_share)
    return total


def rand_nonzero(field: Field, rng) -> int:
    """Uniform element of [1, p)."""
    return rng.randrange(1, field.p)


def combine_commitments(commitments: list, params) -> int:
    """Product of commitments = commitment to the sum of openings."""
    acc = 1
    for c in commitments:
        acc = acc * c % params.q
    return acc


def eavesdrop(bus, node, src, dst, counter, ciphertext) -> bytes:
    """Attempt decryption of a broadcast entry with `node`'s keys.

    Succeeds only when node is the addressee (or shares its key, i.e. is
    the sender); raises cryptography's InvalidTag otherwise.
    """
    peer = bus._keypairs[dst if node != dst else src]
    key = keys.shared_key(bus._keypairs[node].enc_key, peer.enc_pub)
    return keys.unseal(AESGCM(key), bus.nonce(src, dst, counter), ciphertext)


def length_sequence(bus, node) -> list:
    """Per-node marginal traffic shape: (direction, peer, nbytes) list."""
    return [(d, peer, len(ct)) for d, peer, ct in bus.logs[node]]


def keypair_from_text(text: str) -> KeyPair:
    """A KeyPair read back from KeyPair.to_text's format."""
    fields = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        name, _, value = line.partition("=")
        fields[name] = bytes.fromhex(value)
    return KeyPair(sign_sk=fields["sign_sk"], sign_pk=fields["sign_pk"],
                   enc_sk=fields["enc_sk"], enc_pk=fields["enc_pk"])
