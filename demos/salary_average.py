#!/usr/bin/env python3
"""Walkthrough: a group computes its average salary without revealing any
individual salary to anyone -- not even to the nodes doing the work.

The flow mirrors the link protocols end to end: a shared identity on the
ledger, permission-gated sharing to a sampled committee, secure evaluation
of the mean circuit, and declassification restricted to each data owner.
"""

from pathlib import Path

from mpcnet.circuits import eval_plain, parse_circuit
from mpcnet.field import Field, M61
from mpcnet.identity import Predicate, gen_shared_identity
from mpcnet.incentives import post_deposit
from mpcnet.keys import sha256
from mpcnet.network import Runtime, child_rng, mpc_declassify, protocol_compute, protocol_share
from mpcnet.trace import ComputationTrace

SEED = 2718
salaries = [52000, 61000, 46000]

rt = Runtime(Field(M61), seed=SEED, n_nodes=8, genesis_balance=10000)
for node in rt.registry:
    post_deposit(node.keypair, 100, rt.ledger)

# Three colleagues form a shared identity; its ACL lives on the ledger.
owners = [rt.add_client(f"owner{i}") for i in range(3)]
ident = gen_shared_identity(owners, [Predicate.owner()] * 3, rt.ledger)
print("shared identity:", ident.addr.hex()[:16], "...")

# Each salary is secret-shared to the same 3-node committee; the pointer
# registered in the DHT is compute-gated to the group's keys.
rng = child_rng(SEED, "demo")
committee = rt.sample_committee(3, rng)
print("committee nodes:", [n.index for n in committee])
q_compute = Predicate.key_list([kp.sign_pk for kp in owners])
pointers = []
for i, salary in enumerate(salaries):
    ptr = protocol_share(owners[i], f"owner{i}", ident.addr, salary,
                         f"salary{i}", q_compute, t=1, rt=rt,
                         rng=rng, committee=committee)
    pointers.append(ptr)
    print(f"owner{i} shared a salary; pointer {ptr.hex()[:16]}...")

# Any group member can now ask the committee for the mean. The committee
# evaluates over shares; the raw salaries never exist at any single node.
circuit = parse_circuit((Path(__file__).parent.parent / "scenarios" / "mean3.circ").read_text())
trace = ComputationTrace(computation_id=sha256(b"salary-demo"), mode="shamir",
                         seed=SEED, committee=[n.index for n in committee],
                         committee_pks=[n.keypair.sign_pk for n in committee],
                         requester_pk=owners[1].sign_pk)
outputs = protocol_compute(owners[1], "owner1", ident.addr, pointers, circuit,
                           rt, trace, rng)
print("\nsecure mean:", outputs[0])
print("plain oracle:", eval_plain(circuit, salaries, rt.field)[0])
print("evaluation messages:", trace.messages_eval)

# Each owner can take their own value back; nobody else can.
mine, _ = mpc_declassify(owners[0], "owner0", ident.addr, pointers[0], rt)
theirs, _ = mpc_declassify(owners[1], "owner1", ident.addr, pointers[0], rt)
print("\nowner0 declassifies its own salary:", mine)
print("owner1 asking for owner0's salary:", theirs)

# The committee's wiretaps contain ciphertext only.
leaked = any(rt.field.encode(s) in rt.bus.raw_bytes(n.index)
             for s in salaries for n in rt.registry)
print("salary bytes visible on any node's wire:", leaked)
