"""Test-only oracles: plaintext evaluators the secure engines are checked
against, a step-by-step audit fold the batched auditor is checked against,
and a seeded random-circuit generator. numpy is a test dependency, so the
vectorised evaluator lives here and not in the package."""

import numpy as np

from mpcnet import pedersen
from mpcnet.audit import AuditReport
from mpcnet.circuits import Circuit, LayeredCircuit, parse_circuit
from mpcnet.errors import IncompleteTrail
from mpcnet.field import Field


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


def fold_trail(records: list, n: int, p: int, claimed_output=None,
               openings=None) -> AuditReport:
    """The audit as a per-step, per-party fold over a trail's record list.

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
        if len(opens) != n:
            raise IncompleteTrail(f"{label}: expected {n} openings, got {len(opens)}")
        for i, (c, (s, r)) in enumerate(zip(derived, opens)):
            if not pedersen.verify_open(c, s, r, params):
                guilty.add(i)
                reasons.append(f"party {i} broke its commitment at {label}")

    for step, rec in enumerate(records):
        kind = rec["kind"]
        if kind == "input":
            commitments[step] = [int(c, 16) for c in rec["commitments"]]
        elif kind == "triple":
            commitments[step] = {name: [int(c, 16) for c in rec[name]]
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
            eps_opens = rec["eps_openings"]
            delta_opens = rec["delta_openings"]
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
            opens = openings if openings is not None else rec["openings"]
            check_openings(commitments[rec["source"]], opens, f"step {step} (output)")
            total = sum(s for s, _ in opens) % field.p
            claimed = claimed_output if claimed_output is not None else rec["value"]
            if total != claimed % field.p:
                reasons.append(f"claimed output {claimed} != opened total {total}")
        else:
            raise IncompleteTrail(f"unknown trail record kind {kind!r}")

    if not output_seen:
        raise IncompleteTrail("trail has no output step")
    return AuditReport(ok=not guilty and not reasons, guilty=tuple(sorted(guilty)),
                       reason="; ".join(reasons))
