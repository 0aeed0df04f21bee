"""Test-only oracles: plaintext evaluators the secure engines are checked
against, and a seeded random-circuit generator. numpy is a test dependency,
so the vectorised evaluator lives here and not in the package."""

import numpy as np

from mpcnet.circuits import Circuit, LayeredCircuit, parse_circuit
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
