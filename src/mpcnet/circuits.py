"""Arithmetic-circuit representation and transforms.

Circuits are the unit of computation handed to the secure engines: a
topologically ordered gate list over named wires, restricted to add,
scalar-mul, mul and a select gate for secret conditionals. The plaintext
evaluator here is the reference oracle every secure evaluation is checked
against.

Text grammar (one statement per line, `#` starts a comment):

    in <name>
    <name> = add <w1> <w2>
    <name> = smul <decimal-scalar> <w>
    <name> = mul <w1> <w2>
    <name> = select <c> <a> <b>
    out <w>

Wire names match [a-zA-Z_][a-zA-Z0-9_]*; the scalar is a decimal integer,
optionally negative, reduced into the field at evaluation time.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .field import Field

GATE_KINDS = ("input", "add", "smul", "mul", "select", "output")

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_SCALAR_RE = re.compile(r"-?[0-9]+$")


@dataclass(frozen=True)
class Gate:
    kind: str
    args: tuple = ()
    scalar: int | None = None
    name: str | None = None


@dataclass(frozen=True)
class Circuit:
    """Topologically ordered gate list; operands always point backwards."""

    gates: tuple
    n_inputs: int
    n_outputs: int

    def validate(self) -> "Circuit":
        for idx, g in enumerate(self.gates):
            if g.kind not in GATE_KINDS:
                raise ValueError(f"unknown gate kind {g.kind!r}")
            for a in g.args:
                if not 0 <= a < len(self.gates):
                    raise ValueError(f"dangling reference {a} at gate {idx}")
                if a >= idx:
                    raise ValueError(f"cycle detected: gate {idx} references gate {a}")
                if self.gates[a].kind == "output":
                    raise ValueError(f"gate {idx} references an output marker")
        return self

    def counts(self) -> dict:
        out = {k: 0 for k in GATE_KINDS}
        for g in self.gates:
            out[g.kind] += 1
        return out


class CircuitSyntaxError(ValueError):
    """Parse failure with 1-based line/column diagnostics."""

    def __init__(self, message: str, line: int, col: int):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, col {col}: {message}")


def _fail(msg: str, lineno: int, line: str, token: str) -> CircuitSyntaxError:
    col = line.find(token) + 1 if token and token in line else 1
    raise CircuitSyntaxError(msg, lineno, col)


def parse_circuit(text: str) -> Circuit:
    """Parse the line-oriented circuit grammar into a validated Circuit."""
    gates = []
    wires = {}  # name -> gate index
    n_inputs = 0
    n_outputs = 0

    def resolve(name: str, lineno: int, line: str) -> int:
        if name not in wires:
            _fail(f"dangling reference to undefined wire {name!r}", lineno, line, name)
        return wires[name]

    def define(name: str, lineno: int, line: str, gate: Gate):
        if not _NAME_RE.match(name):
            _fail(f"invalid wire name {name!r}", lineno, line, name)
        if name in wires:
            _fail(f"wire {name!r} already defined", lineno, line, name)
        wires[name] = len(gates)
        gates.append(gate)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        tokens = line.split()
        if tokens[0] == "in":
            if len(tokens) != 2:
                _fail("expected: in <name>", lineno, line, tokens[0])
            define(tokens[1], lineno, line, Gate("input", name=tokens[1]))
            n_inputs += 1
        elif tokens[0] == "out":
            if len(tokens) != 2:
                _fail("expected: out <wire>", lineno, line, tokens[0])
            gates.append(Gate("output", args=(resolve(tokens[1], lineno, line),)))
            n_outputs += 1
        elif len(tokens) >= 3 and tokens[1] == "=":
            name, op = tokens[0], tokens[2]
            operands = tokens[3:]
            if op == "add" and len(operands) == 2:
                args = tuple(resolve(w, lineno, line) for w in operands)
                define(name, lineno, line, Gate("add", args=args, name=name))
            elif op == "mul" and len(operands) == 2:
                args = tuple(resolve(w, lineno, line) for w in operands)
                define(name, lineno, line, Gate("mul", args=args, name=name))
            elif op == "smul" and len(operands) == 2:
                if not _SCALAR_RE.match(operands[0]):
                    _fail(f"invalid scalar {operands[0]!r}", lineno, line, operands[0])
                arg = resolve(operands[1], lineno, line)
                define(name, lineno, line,
                       Gate("smul", args=(arg,), scalar=int(operands[0]), name=name))
            elif op == "select" and len(operands) == 3:
                args = tuple(resolve(w, lineno, line) for w in operands)
                define(name, lineno, line, Gate("select", args=args, name=name))
            else:
                _fail(f"malformed statement for {op!r}", lineno, line, op)
        else:
            _fail(f"unrecognized statement {tokens[0]!r}", lineno, line, tokens[0])

    return Circuit(tuple(gates), n_inputs, n_outputs).validate()


def eval_plain(circuit: Circuit, inputs: list, field: Field) -> list:
    """Reference in-order evaluation over the field.

    select(c, a, b) = c*a + (1-c)*b: both branches are always computed, the
    condition only blends them.
    """
    input_gates = sum(1 for g in circuit.gates if g.kind == "input")
    if len(inputs) != input_gates:
        raise ValueError(f"arity mismatch: circuit takes {input_gates} inputs, got {len(inputs)}")
    values = [0] * len(circuit.gates)
    outputs = []
    it = iter(inputs)
    for idx, g in enumerate(circuit.gates):
        if g.kind == "input":
            values[idx] = next(it) % field.p
        elif g.kind == "add":
            values[idx] = field.add(values[g.args[0]], values[g.args[1]])
        elif g.kind == "smul":
            values[idx] = field.mul(g.scalar % field.p, values[g.args[0]])
        elif g.kind == "mul":
            values[idx] = field.mul(values[g.args[0]], values[g.args[1]])
        elif g.kind == "select":
            c, a, b = (values[a] for a in g.args)
            values[idx] = field.add(field.mul(c, a), field.mul(field.sub(1, c), b))
        elif g.kind == "output":
            outputs.append(values[g.args[0]])
    return outputs


def lower_select(circuit: Circuit) -> Circuit:
    """Rewrite select(c, a, b) as c*(a-b) + b using one mul per select.

    After lowering no data-dependent control flow remains: every gate is
    evaluated on every input. Select-free circuits come back unchanged.
    """
    if not any(g.kind == "select" for g in circuit.gates):
        return circuit
    gates = []
    remap = {}
    for idx, g in enumerate(circuit.gates):
        args = tuple(remap[a] for a in g.args)
        if g.kind != "select":
            remap[idx] = len(gates)
            gates.append(Gate(g.kind, args=args, scalar=g.scalar, name=g.name))
            continue
        c, a, b = args
        gates.append(Gate("smul", args=(b,), scalar=-1))
        gates.append(Gate("add", args=(a, len(gates) - 1)))
        gates.append(Gate("mul", args=(c, len(gates) - 1)))
        gates.append(Gate("add", args=(len(gates) - 1, b), name=g.name))
        remap[idx] = len(gates) - 1
    return Circuit(tuple(gates), circuit.n_inputs, circuit.n_outputs).validate()


def mul_heights(circuit: Circuit) -> list:
    """Multiplicative depth of each gate (inputs at 0, each mul adds 1)."""
    h = [0] * len(circuit.gates)
    for idx, g in enumerate(circuit.gates):
        if g.kind in ("input",):
            h[idx] = 0
        elif g.kind == "mul":
            h[idx] = max(h[a] for a in g.args) + 1
        elif g.kind == "select":
            raise ValueError("lower selects before layering")
        elif g.args:
            h[idx] = max(h[a] for a in g.args)
    return h


@dataclass(frozen=True)
class LayeredCircuit:
    """Alternating addition/multiplication layers plus the party schedule.

    Stage k (the k-th addition layer and the multiplication layer after it)
    runs with schedule[k] parties; the schedule follows ceil(N/c^k) but
    never drops below the quorum floor max(3, 2t+1), so degree reduction
    after every multiplication still has the 2t+1 parties it needs.
    """

    circuit: Circuit
    layers: tuple  # of (kind, tuple of gate indices)
    schedule: tuple
    reduction: int


def layerize(circuit: Circuit, n_parties: int, c: int | None = None,
             threshold: int = 1) -> LayeredCircuit:
    """Regroup gates into the feed-forward add/mul layering.

    Addition-family gates at multiplicative height k form addition layer k;
    mul gates at height k+1 form the multiplication layer between addition
    layers k and k+1. Dependencies only ever point to earlier layers (or
    earlier gates in the same addition layer), so evaluating layers in order
    reproduces the original circuit.

    With c=None the committee stays fixed: every stage runs with all
    n_parties and the plan's reduction is 0.
    """
    if c is not None and c < 2:
        raise ValueError(f"invalid reduction factor {c}, need c >= 2")
    if c is not None and n_parties < c:
        raise ValueError(f"need at least c={c} parties, got {n_parties}")
    lowered = lower_select(circuit)
    heights = mul_heights(lowered)
    depth = max((heights[i] for i, g in enumerate(lowered.gates) if g.kind != "output"),
                default=0)

    layers = []
    for level in range(depth + 1):
        adds = tuple(i for i, g in enumerate(lowered.gates)
                     if g.kind in ("add", "smul") and heights[i] == level)
        if adds or level == 0:
            layers.append(("add", adds))
        muls = tuple(i for i, g in enumerate(lowered.gates)
                     if g.kind == "mul" and heights[i] == level + 1)
        if muls:
            layers.append(("mul", muls))

    n_mul_layers = sum(1 for kind, _ in layers if kind == "mul")
    if c is None:
        return LayeredCircuit(circuit=lowered, layers=tuple(layers),
                              schedule=(n_parties,) * (n_mul_layers + 1), reduction=0)
    floor = max(3, 2 * threshold + 1)
    schedule = tuple(max(floor, math.ceil(n_parties / c ** k))
                     for k in range(n_mul_layers + 1))
    schedule = tuple(min(n_parties, s) for s in schedule)
    return LayeredCircuit(circuit=lowered, layers=tuple(layers),
                          schedule=schedule, reduction=c)


@dataclass(frozen=True)
class CostModel:
    """Round/operation/message costs of one secure evaluation of a circuit."""

    rounds: int
    adds: int
    muls: int

    def messages(self, n: int) -> int:
        """Point-to-point messages at a fixed committee size n.

        Linear gates are local. Every multiplication *layer* costs one
        n(n-1) round, however many products it holds: one re-share
        (Shamir reduction) or masked-opening (Beaver) message per ordered
        pair of parties carries the whole layer.
        """
        return self.rounds * n * (n - 1)


def cost_model(circuit: Circuit) -> CostModel:
    """Static costs; selects are lowered first so their mul is counted."""
    lowered = lower_select(circuit)
    heights = mul_heights(lowered)
    counts = lowered.counts()
    rounds = max((heights[i] for i, g in enumerate(lowered.gates) if g.kind == "mul"),
                 default=0)
    return CostModel(rounds=rounds,
                     adds=counts["add"] + counts["smul"],
                     muls=counts["mul"])
