"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; any failure is a red criterion.
"""

import itertools
import math
import random
import time
from pathlib import Path

import numpy as np

from mpcnet import audit as auditmod
from mpcnet import pedersen, shamir, spdz
from mpcnet.circuits import eval_plain, layerize, parse_circuit
from mpcnet.dht import protocol_load, protocol_store
from mpcnet.errors import CheatDetected
from mpcnet.field import Field, M61
from mpcnet.identity import Predicate, check_permission, gen_shared_identity
from mpcnet.incentives import FeeSchedule, post_deposit, settle_computation
from mpcnet.keys import KeyPair, sha256
from mpcnet.ledger import Ledger, make_tx, normalize_key, writes_payload
from mpcnet.net import LocalChannel
from mpcnet.network import Runtime, child_rng, mpc_declassify, protocol_compute, protocol_share
from mpcnet.runner import run_scenario
from mpcnet.scenario import parse_scenario
from mpcnet.trace import ComputationTrace, NodeTally
from oracles import eval_layered, eval_plain_vec, open_value, rand_nonzero, random_circuit

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
BUNDLED = ("average", "cheater", "abort", "broken", "scaling", "select")


def report(criterion, text):
    print(f"\nACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_shamir_reconstruction_suite():
    field = Field(M61)
    rng = random.Random(101)
    started = time.perf_counter()
    checked = 0
    for n in range(2, 11):
        for t in range(1, n):
            for _ in range(100):
                secret = field.rand(rng)
                shares = shamir.share(secret, t, n, field, rng)
                for subset in itertools.combinations(shares, t + 1):
                    assert shamir.reconstruct(list(subset), field) == secret
                    checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10, f"took {elapsed:.1f}s"
    report(1, f"{checked} subset reconstructions exact in {elapsed:.1f}s")


def test_criterion_2_homomorphism_suite():
    field = Field(M61)
    rng = random.Random(202)
    for _ in range(1000):
        k = field.rand(rng)
        secrets = [field.rand(rng) for _ in range(3)]
        coeffs = [field.rand(rng) for _ in range(3)]
        lists = [shamir.share(s, 1, 4, field, rng) for s in secrets]
        out = shamir.linear_combine(lists, coeffs, k, field)
        expected = (sum(c * s for c, s in zip(coeffs, secrets)) + k) % M61
        assert shamir.reconstruct(out, field) == expected
    for _ in range(1000):
        n = rng.randrange(3, 8)
        t = rng.randrange(1, (n + 1) // 2)
        a, b = field.rand(rng), field.rand(rng)
        net = LocalChannel()
        z = shamir.mul_with_reduction(shamir.share(a, t, n, field, rng),
                                      shamir.share(b, t, n, field, rng),
                                      field, net, rng)
        assert shamir.reconstruct(z, field) == field.mul(a, b)
        assert net.messages == n * (n - 1)
    report(2, "1000 linear combinations and 1000 reduced products match "
              "plaintext; every product cost n(n-1) messages")


def test_criterion_3_spdz_suite():
    field = Field(M61)
    rng = random.Random(303)
    started = time.perf_counter()
    key3 = spdz.gen_mac_key(3, field, rng)
    for _ in range(1000):
        a, b = field.rand(rng), field.rand(rng)
        x = spdz.deal_authenticated(a, 3, key3, field, rng)
        y = spdz.deal_authenticated(b, 3, key3, field, rng)
        triple = spdz.deal_triples(1, 3, key3, field, rng)[0]
        net, queue = LocalChannel(), []
        z = spdz.beaver_mul(x, y, triple, key3, field, net, queue)
        assert open_value(z, field) == field.mul(a, b)
        spdz.mac_check(queue, key3, field, net, rng)

    key2 = spdz.gen_mac_key(2, field, rng)
    caught = 0
    for trial in range(10000):
        net, queue = LocalChannel(), []
        shares = spdz.deal_authenticated(field.rand(rng), 2, key2, field, rng)
        spdz.partial_open(shares, field, net, queue)
        value, macs = queue[0]
        if trial % 2:
            queue[0] = (field.add(value, rand_nonzero(field, rng)), macs)
        else:
            victim = trial % len(macs)
            macs[victim] = field.add(macs[victim], rand_nonzero(field, rng))
        try:
            spdz.mac_check(queue, key2, field, net, rng)
        except CheatDetected:
            caught += 1
    elapsed = time.perf_counter() - started
    assert caught == 10000
    assert elapsed < 60, f"took {elapsed:.1f}s"
    report(3, f"1000 Beaver products exact; 10000/10000 tampers caught "
              f"in {elapsed:.1f}s")


def test_criterion_4_public_audit_suite():
    field = Field(101)
    params = pedersen.setup(field)
    rng = random.Random(404)
    poster = KeyPair.generate(rng)
    cases = 0
    for n in range(2, 6):
        for culprit in range(n):
            key = spdz.gen_mac_key(n, field, rng)
            ledger = Ledger()
            comp_id = sha256(b"criterion4" + bytes([n, culprit]))
            writer = auditmod.TrailWriter(ledger, comp_id, poster, field, n)
            x = auditmod.pv_share(4, n, key, params, writer, field, rng,
                                  broken={culprit})
            y = auditmod.pv_share(5, n, key, params, writer, field, rng)
            triple = auditmod.pv_triple(key, params, writer, field, rng)
            net, queue = LocalChannel(), []
            z = auditmod.pv_beaver(x, y, triple, key, params, field, net,
                                   queue, writer)
            auditmod.pv_output(z, field, writer)
            writer.close()
            verdict = auditmod.audit_trail(ledger, comp_id)
            assert not verdict.ok
            assert verdict.guilty == (culprit,)
            cases += 1
    report(4, f"{cases}/{cases} single-party broken commitments named exactly")


def test_criterion_5_scaling_reproduction(tmp_path):
    started = time.perf_counter()
    from mpcnet.cli import main
    outdir = tmp_path / "scaling"
    assert main(["run", str(SCENARIOS / "scaling.scn"), "--out", str(outdir)]) == 0
    table = (outdir / "metrics.csv").read_text().splitlines()
    assert table[0] == "n,baseline_msgs,hierarchical_msgs,rounds"
    rows = {int(r.split(",")[0]): [int(v) for v in r.split(",")[1:]]
            for r in table[1:]}
    assert set(rows) == {9, 27, 81}
    hier_ratio = {n: rows[n][1] / n for n in rows}
    base_ratio = {n: rows[n][0] / n for n in rows}
    assert rows[9][0] == 72 and rows[27][0] == 702 and rows[81][0] == 6480
    assert max(hier_ratio.values()) / min(hier_ratio.values()) < 2
    assert base_ratio[81] / base_ratio[9] >= 8
    elapsed = time.perf_counter() - started
    assert elapsed < 300, f"took {elapsed:.1f}s"
    report(5, f"hierarchical msgs/n spread "
              f"{max(hier_ratio.values()) / min(hier_ratio.values()):.2f}x (< 2x) "
              f"vs baseline growth {base_ratio[81] / base_ratio[9]:.0f}x (>= 8x)")


def test_criterion_6_adaptable_circuits():
    field = Field(101)
    rng = random.Random(606)
    for _ in range(100):
        circ = random_circuit(rng)
        n, c = rng.randrange(3, 28), rng.randrange(2, 5)
        lay = layerize(circ, n, c)
        inputs = [rng.randrange(101) for _ in range(circ.n_inputs)]
        assert eval_layered(lay, inputs, field) == eval_plain(circ, inputs, field)
        floor = max(3, 2 * 1 + 1)
        for k, size in enumerate(lay.schedule):
            assert size == min(n, max(floor, math.ceil(n / c ** k)))

    # Exhaustive equivalence over the full input cube for 3-input circuits.
    xs = np.arange(101)
    cube = np.stack(np.meshgrid(xs, xs, xs, indexing="ij")).reshape(3, -1)
    exhaustive = 0
    for seed in range(5):
        circ = random_circuit(random.Random(6000 + seed), n_inputs=3, max_gates=12)
        lay = layerize(circ, 9, 3)
        plain = eval_plain_vec(circ, list(cube), field)
        lowered = eval_plain_vec(lay.circuit, list(cube), field)
        for got, want in zip(lowered, plain):
            assert (got == want).all()
        exhaustive += 1
    report(6, f"100 random circuits layer-evaluate identically; "
              f"{exhaustive} three-input circuits verified over all 101^3 inputs")


def test_criterion_7_protocols_end_to_end():
    rt = Runtime(Field(M61), seed=707, n_nodes=8, genesis_balance=5000)
    for node in rt.registry:
        post_deposit(node.keypair, 100, rt.ledger)

    # Protocol 1: a 2-party shared identity on the ledger.
    alice = rt.add_client("alice")
    bob = rt.add_client("bob")
    ident = gen_shared_identity([alice, bob], [Predicate.owner()] * 2, rt.ledger)
    assert rt.ledger.get(ident.addr) is not None

    # Protocol 2: permission checks against the board.
    eve = rt.add_client("eve")
    assert check_permission(alice.sign_pk, ident.addr, Predicate.owner(), rt.ledger)
    assert not check_permission(eve.sign_pk, ident.addr, Predicate.owner(), rt.ledger)

    # Protocol 3: store with a key-list read predicate; allowed and denied loads.
    q_read = Predicate.key_list([alice.sign_pk, bob.sign_pk])
    a_x = protocol_store(alice, ident.addr, b"group-report", q_read,
                         rt.ledger, rt.dht)
    assert a_x is not None
    assert protocol_load(bob, ident.addr, a_x, rt.ledger, rt.dht) == b"group-report"
    assert protocol_load(eve, ident.addr, a_x, rt.ledger, rt.dht) is None

    # Protocol 4: share a secret, compute, declassify to the owner only.
    rng = child_rng(707, "e2e")
    committee = rt.sample_committee(3, rng)
    q_compute = Predicate.key_list([alice.sign_pk, bob.sign_pk])
    salaries = [52000, 61000, 46000]
    pointers = []
    for i, v in enumerate(salaries):
        owner, label = (alice, "alice") if i == 0 else (bob, "bob")
        ptr = protocol_share(owner, label, ident.addr, v, f"salary{i}",
                             q_compute, t=1, rt=rt, rng=rng,
                             committee=committee)
        pointers.append(ptr)

    identity_circ = parse_circuit("in x\nout x")
    trace = ComputationTrace(computation_id=sha256(b"e2e-ident"), mode="shamir",
                             seed=707, committee=[n.index for n in committee],
                             committee_pks=[n.keypair.sign_pk for n in committee],
                             requester_pk=alice.sign_pk)
    out = protocol_compute(alice, "alice", ident.addr, [pointers[0]],
                           identity_circ, rt, trace, rng)
    assert out == [52000]

    mean_circ = parse_circuit(
        (SCENARIOS / "mean3.circ").read_text())
    trace2 = ComputationTrace(computation_id=sha256(b"e2e-mean"), mode="shamir",
                              seed=707, committee=[n.index for n in committee],
                              committee_pks=[n.keypair.sign_pk for n in committee],
                              requester_pk=bob.sign_pk)
    out = protocol_compute(bob, "bob", ident.addr, pointers, mean_circ, rt,
                           trace2, rng)
    assert out == eval_plain(mean_circ, salaries, rt.field) == [53000]

    # Declassify: dealer only.
    value, faults = mpc_declassify(alice, "alice", ident.addr, pointers[0], rt)
    assert value == 52000 and faults == []
    denied, _ = mpc_declassify(bob, "bob", ident.addr, pointers[0], rt)
    assert denied is None
    denied, _ = mpc_declassify(eve, "eve", ident.addr, pointers[0], rt)
    assert denied is None

    # No committee node's wiretap contains any salary plaintext.
    for node in rt.registry:
        wiretap = rt.bus.raw_bytes(node.index)
        for v in salaries:
            assert rt.field.encode(v) not in wiretap
    report(7, "identity registered, gated store/load enforced, mean and "
              "identity circuits computed, declassify restricted to the dealer")


def test_criterion_8_incentive_suite():
    # Fixture-pinned fee: tallies (rounds=5, adds=2, muls=3) at w=(1,1,10) -> 37.
    schedule = FeeSchedule(w_round=1, w_add=1, w_mul=10)
    rng = random.Random(808)
    keypairs = [KeyPair.generate(rng) for _ in range(3)]
    authority = KeyPair.generate(rng)
    ledger = Ledger(genesis_balances={kp.sign_pk: 1000 for kp in keypairs},
                    authority=authority.sign_pk)
    trace = ComputationTrace(computation_id=b"\x08" * 32, mode="shamir", seed=8,
                             committee=[0, 1], committee_pks=[keypairs[0].sign_pk,
                                                              keypairs[1].sign_pk],
                             requester_pk=keypairs[2].sign_pk)
    trace.per_node[0] = NodeTally(rounds=5, adds=2, muls=3)
    trace.per_node[1] = NodeTally(rounds=0, adds=0, muls=0)
    trace.finalize("ok")
    rep = settle_computation(trace, schedule, ledger, authority)
    assert rep.lines[0].fee == 37
    assert ledger.account(keypairs[0].sign_pk).balance == 1037

    # Conservation across 500 randomized settlements.
    for case in range(500):
        crng = random.Random(8000 + case)
        n = crng.randrange(2, 6)
        pairs = [KeyPair.generate(crng) for _ in range(n + 1)]
        authority = KeyPair.generate(crng)
        lg = Ledger(genesis_balances={kp.sign_pk: crng.randrange(100, 3000)
                                      for kp in pairs},
                    authority=authority.sign_pk)
        for kp in pairs[:n]:
            cap = lg.account(kp.sign_pk).balance
            post_deposit(kp, crng.randrange(0, cap), lg)
        tr = ComputationTrace(computation_id=bytes([case % 256]) * 32,
                              mode="shamir", seed=case,
                              committee=list(range(n)),
                              committee_pks=[kp.sign_pk for kp in pairs[:n]],
                              requester_pk=pairs[n].sign_pk)
        for i in range(n):
            tr.per_node[i] = NodeTally(crng.randrange(6), crng.randrange(6),
                                       crng.randrange(4))
            if crng.random() < 0.25:
                tr.fault(i, "share-consistency")
        tr.finalize("ok")
        sched = FeeSchedule(w_round=crng.randrange(3), w_add=crng.randrange(3),
                            w_mul=crng.randrange(12),
                            min_balance=crng.randrange(100))
        total_before = sum(a.balance + a.deposit for a in lg.accounts.values())
        settle_computation(tr, sched, lg, authority)
        total_after = sum(a.balance + a.deposit for a in lg.accounts.values())
        assert total_after == total_before

    # Abort scenario: the full deposit is slashed and split equally.
    result = run_scenario(parse_scenario(SCENARIOS / "abort.scn"))
    slash_lines = [l for l in result.settlement.lines if l.slash]
    assert len(slash_lines) == 1 and slash_lines[0].slash == 90
    honest = [l for l in result.settlement.lines if not l.slash]
    ledger_after = result.runtime.ledger
    bonus = [ledger_after.account(l.node_pk).balance for l in honest]
    assert bonus[0] == bonus[1]   # 90 split over 2 honest nodes, 45 each
    report(8, "fixture fee 37 exact; conservation held over 500 settlements; "
              "abort slashes 90 split equally")


def test_criterion_9_ledger_history():
    rng = random.Random(909)
    kp = KeyPair.generate(rng)
    ledger = Ledger(genesis_balances={kp.sign_pk: 10})
    history = []
    keys = [f"key{i}" for i in range(9)]
    for _ in range(1000):
        k = rng.choice(keys)
        v = rng.randbytes(5)
        tx = make_tx(kp, "kv-put", writes_payload([(normalize_key(k), v)]),
                     nonce=ledger.next_nonce(kp.sign_pk))
        h = ledger.submit_tx(tx)
        history.append((h, k, v))
    for _ in range(500):
        k = rng.choice(keys)
        t = rng.randrange(0, ledger.height + 1)
        expected = None
        for h, hk, hv in history:
            if hk == k and h <= t:
                expected = hv
        assert ledger.get_at(k, t) == expected

    flips = 0
    for target in range(1, min(40, ledger.height) + 1):
        entry = ledger.entries[target - 1]
        for pos in range(len(entry.value)):
            corrupted = bytearray(entry.value)
            corrupted[pos] ^= 0x55
            ledger.entries[target - 1] = entry._replace(value=bytes(corrupted))
            assert ledger.verify_log() == target
            flips += 1
        ledger.entries[target - 1] = entry
    assert ledger.verify_log() is None
    report(9, f"get_at exact on 1000-op history; {flips}/{flips} byte flips detected")


def test_criterion_10_determinism():
    for name in BUNDLED:
        first = run_scenario(parse_scenario(SCENARIOS / f"{name}.scn"))
        second = run_scenario(parse_scenario(SCENARIOS / f"{name}.scn"))
        assert first.trace.to_text() == second.trace.to_text(), name
        assert first.runtime.ledger.dump() == second.runtime.ledger.dump(), name
    report(10, f"{len(BUNDLED)} bundled scenarios byte-identical across reruns")
