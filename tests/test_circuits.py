import math
import random

import numpy as np
import pytest

from mpcnet.circuits import (
    CircuitSyntaxError,
    cost_model,
    eval_plain,
    layerize,
    lower_select,
    parse_circuit,
)
from oracles import eval_layered, eval_plain_vec, random_circuit

MUL2 = "in x\nin y\nm = mul x y\nout m\n"


# -- parsing ------------------------------------------------------------------

def test_parse_mul_circuit():
    circ = parse_circuit(MUL2)
    assert len(circ.gates) == 4
    assert [g.kind for g in circ.gates] == ["input", "input", "mul", "output"]
    assert (circ.n_inputs, circ.n_outputs) == (2, 1)


def test_parse_identity_circuit():
    circ = parse_circuit("in x\nout x")
    assert (circ.n_inputs, circ.n_outputs) == (1, 1)


def test_parse_dangling_reference():
    with pytest.raises(CircuitSyntaxError, match="dangling") as info:
        parse_circuit("in x\ny = add x z\nout y")
    assert info.value.line == 2


def test_parse_comments_and_errors():
    circ = parse_circuit("# a comment\nin x  # trailing\nout x\n")
    assert circ.n_inputs == 1
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("in x\nx = add x x\nout x")   # redefinition
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("frobnicate x")
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("in x\ny = smul 1.5 x\nout y")


def test_validate_detects_cycles():
    from mpcnet.circuits import Circuit, Gate
    bad = Circuit((Gate("input"), Gate("add", args=(0, 2)), Gate("add", args=(1, 0))), 1, 0)
    with pytest.raises(ValueError, match="cycle"):
        bad.validate()


def test_validate_rejects_output_operands():
    from mpcnet.circuits import Circuit, Gate
    bad = Circuit((Gate("input"), Gate("output", args=(0,)),
                   Gate("add", args=(1, 1))), 1, 1)
    with pytest.raises(ValueError, match="output marker"):
        bad.validate()


# -- plaintext evaluation -------------------------------------------------------

def test_eval_plain_mul(f101):
    assert eval_plain(parse_circuit(MUL2), [4, 5], f101) == [20]


def test_eval_select_mux(f101):
    circ = parse_circuit("in c\nin a\nin b\ns = select c a b\nout s")
    assert eval_plain(circ, [1, 7, 9], f101) == [7]
    assert eval_plain(circ, [0, 7, 9], f101) == [9]


def test_eval_empty_output(f101):
    circ = parse_circuit("in x\ny = add x x")
    assert eval_plain(circ, [3], f101) == []


def test_eval_arity_mismatch(f101):
    with pytest.raises(ValueError, match="arity"):
        eval_plain(parse_circuit(MUL2), [1], f101)


def test_eval_vec_matches_scalar(f101, rng):
    circ = random_circuit(random.Random(33), n_inputs=2)
    xs = np.arange(101)
    grid = np.stack(np.meshgrid(xs, xs, indexing="ij")).reshape(2, -1)
    vec = eval_plain_vec(circ, list(grid), f101)
    for probe in range(0, grid.shape[1], 997):
        scalar = eval_plain(circ, [int(grid[0][probe]), int(grid[1][probe])], f101)
        assert [int(v[probe]) for v in vec] == scalar


# -- select lowering -----------------------------------------------------------

def test_lower_select_exhaustive(f101):
    circ = parse_circuit("in c\nin a\nin b\ns = select c a b\nout s")
    low = lower_select(circ)
    assert all(g.kind != "select" for g in low.gates)
    assert sum(1 for g in low.gates if g.kind == "mul") == 1
    xs = np.arange(101)
    grid = np.stack(np.meshgrid(xs, xs, xs, indexing="ij")).reshape(3, -1)
    got = eval_plain_vec(low, list(grid), f101)
    want = eval_plain_vec(circ, list(grid), f101)
    assert (got[0] == want[0]).all()


def test_lower_select_free_unchanged():
    circ = parse_circuit(MUL2)
    assert lower_select(circ) is circ


def test_lower_nested_selects(f101):
    circ = parse_circuit(
        "in c\nin d\nin a\nin b\ns1 = select c a b\ns2 = select d s1 a\nout s2")
    low = lower_select(circ)
    assert all(g.kind != "select" for g in low.gates)
    rng = random.Random(1)
    for _ in range(200):
        inputs = [rng.randrange(101) for _ in range(4)]
        assert eval_plain(low, inputs, f101) == eval_plain(circ, inputs, f101)


# -- layering -------------------------------------------------------------------

def mul_layer_count(lay) -> int:
    return sum(1 for kind, _ in lay.layers if kind == "mul")


def test_layerize_schedule_and_floor():
    circ = parse_circuit(
        "in a\nin b\nin c\ns = add a b\nm1 = mul s c\nm2 = mul m1 m1\nout m2")
    lay = layerize(circ, 9, 3)
    assert lay.schedule == (9, 3, 3)
    assert mul_layer_count(lay) == 2


def test_layerize_pure_addition():
    circ = parse_circuit("in a\nin b\ns = add a b\nt = add s a\nout t")
    lay = layerize(circ, 9, 3)
    assert lay.schedule == (9,)
    assert [k for k, _ in lay.layers] == ["add"]


def test_layerize_invalid_factor():
    circ = parse_circuit(MUL2)
    with pytest.raises(ValueError, match="factor"):
        layerize(circ, 9, 1)
    with pytest.raises(ValueError, match="parties"):
        layerize(circ, 2, 3)


def test_layerize_schedule_formula(f101):
    rng = random.Random(7)
    for _ in range(50):
        circ = random_circuit(rng)
        n, c = rng.randrange(3, 30), rng.randrange(2, 5)
        t = rng.randrange(1, 3)
        lay = layerize(circ, n, c, threshold=t)
        floor = max(3, 2 * t + 1)
        for k, size in enumerate(lay.schedule):
            assert size == min(n, max(floor, math.ceil(n / c ** k)))
        assert all(a >= b for a, b in zip(lay.schedule, lay.schedule[1:]))


def test_fixed_committee_plan_matches_reduction_layers():
    # c=None keeps the committee at n: same layers as any reduction plan,
    # every stage with all n parties, and no reduction.
    rng = random.Random(13)
    for _ in range(100):
        circ = random_circuit(rng)
        n = rng.randrange(3, 30)
        fixed = layerize(circ, n)
        assert fixed.layers == layerize(circ, n, c=2).layers
        assert fixed.schedule == (n,) * (mul_layer_count(fixed) + 1)
        assert fixed.reduction == 0


def test_layered_eval_matches_plain(f101):
    rng = random.Random(11)
    for _ in range(100):
        circ = random_circuit(rng)
        lay = layerize(circ, 9, 3)
        inputs = [rng.randrange(101) for _ in range(circ.n_inputs)]
        assert eval_layered(lay, inputs, f101) == eval_plain(circ, inputs, f101)


# -- cost model -----------------------------------------------------------------

def test_cost_model_single_mul():
    cm = cost_model(parse_circuit(MUL2))
    assert (cm.rounds, cm.adds, cm.muls) == (1, 0, 1)
    assert cm.messages(4) == 12


def test_cost_model_parallel_muls_share_one_round():
    # Independent products form one multiplication layer: one n(n-1) round.
    k = 5
    lines = [f"in a{i}" for i in range(k)] + [f"in b{i}" for i in range(k)]
    lines += [f"p{i} = mul a{i} b{i}" for i in range(k)]
    lines += ["s1 = add p0 p1"] + [f"s{i} = add s{i - 1} p{i}" for i in range(2, k)]
    lines.append(f"out s{k - 1}")
    cm = cost_model(parse_circuit("\n".join(lines)))
    assert (cm.rounds, cm.adds, cm.muls) == (1, k - 1, k)
    assert cm.messages(7) == 7 * 6


def test_cost_model_parallel_adds():
    lines = ["in a", "in b"] + [f"s{i} = add a b" for i in range(10)] + ["out s9"]
    cm = cost_model(parse_circuit("\n".join(lines)))
    assert cm.rounds == 0
    assert cm.adds == 10
    assert cm.messages(7) == 0


def test_cost_model_mul_chain_depth():
    circ = parse_circuit("in a\nm1 = mul a a\nm2 = mul m1 a\nout m2")
    assert cost_model(circ).rounds == 2
