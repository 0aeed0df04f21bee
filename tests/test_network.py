import base64
import copy
import dataclasses
import itertools
import json
import random

import pytest
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from mpcnet import audit, pedersen
from mpcnet.circuits import cost_model, eval_plain, layerize, parse_circuit
from mpcnet.dht import place_record
from mpcnet.errors import CheatDetected, LedgerRejected
from mpcnet.field import M61, Field, eval_poly
from mpcnet.identity import Predicate, gen_shared_identity
from mpcnet import network, shamir
from mpcnet.incentives import post_deposit
from mpcnet.keys import KeyPair, _raw_private, _raw_public
from mpcnet.ledger import load_dump, make_tx, writes_payload
from mpcnet.net import EncryptedBus
from mpcnet.network import (
    Runtime,
    child_rng,
    detect_bad_shares,
    mpc_declassify,
    protocol_compute,
    protocol_share,
)
from mpcnet.spdz import gen_mac_key
from mpcnet.trace import ComputationTrace
from mpcnet.keys import sha256, shared_key, verify
from oracles import (eavesdrop, fold_trail, keypair_from_text, length_sequence, rand_nonzero,
                     random_circuit, reposted, reposted_trail, trail_records)

MEAN3 = """
in x0
in x1
in x2
s0 = add x0 x1
s1 = add s0 x2
m = smul 34 s1
out m
"""  # 34 = inv(3) mod 101

MUL2 = "in x\nin y\nm = mul x y\nout m\n"


def make_env(mode="shamir", seed=11, nodes=6, committee=3, p=101):
    rt = Runtime(Field(p), seed, nodes, genesis_balance=1000)
    for node in rt.registry:
        post_deposit(node.keypair, 100, rt.ledger)
    owners = [rt.add_client(f"owner{i}") for i in range(3)]
    ident = gen_shared_identity(owners, [Predicate.owner()] * 3, rt.ledger)
    rng = child_rng(seed, "test")
    committee_nodes = rt.sample_committee(committee, rng)
    mac_key = gen_mac_key(committee, rt.field, rng) if mode == "spdz" else None
    return rt, owners, ident, committee_nodes, mac_key, rng


def fresh_trace(rt, committee, requester, seed=11):
    return ComputationTrace(
        computation_id=sha256(b"test-computation" + bytes([seed % 251])),
        mode="any", seed=seed,
        committee=[n.index for n in committee],
        committee_pks=[n.keypair.sign_pk for n in committee],
        requester_pk=requester.sign_pk)


# -- key material ----------------------------------------------------------------

def test_keypair_value_ignores_the_held_key_objects(rng):
    kp = KeyPair.generate(rng)
    again = keypair_from_text(kp.to_text())
    assert again.sign_key is not kp.sign_key and again.enc_key is not kp.enc_key
    assert again.enc_pub is not kp.enc_pub
    assert again == kp and hash(again) == hash(kp)
    assert repr(again) == repr(kp)
    assert "sign_key" not in repr(kp) and "enc_key" not in repr(kp)
    assert "enc_pub" not in repr(kp)
    assert again.to_text() == kp.to_text()
    assert [line.partition("=")[0] for line in kp.to_text().splitlines()] == \
        ["sign_sk", "sign_pk", "enc_sk", "enc_pk"]
    assert dataclasses.replace(kp, enc_pk=bytes(32)) != kp


def test_replaced_key_bytes_replace_the_held_key_objects(rng):
    # dataclasses.replace hands the held objects to the new KeyPair; any
    # that no longer serializes to its byte field is parsed from the bytes.
    a, b = KeyPair.generate(rng), KeyPair.generate(rng)
    assert _raw_public(dataclasses.replace(a, enc_pk=b.enc_pk).enc_pub) == b.enc_pk
    assert _raw_private(dataclasses.replace(a, enc_sk=b.enc_sk).enc_key) == b.enc_sk
    assert _raw_private(dataclasses.replace(a, sign_sk=b.sign_sk).sign_key) == b.sign_sk
    same = dataclasses.replace(a, sign_pk=a.sign_pk)
    assert (same.sign_key, same.enc_key, same.enc_pub) == (a.sign_key, a.enc_key, a.enc_pub)


def test_sign_matches_a_freshly_parsed_key(rng):
    kp = KeyPair.generate(rng)
    fresh = Ed25519PrivateKey.from_private_bytes(kp.sign_sk)
    reloaded = keypair_from_text(kp.to_text())
    for message in (b"", b"ledger entry", bytes(range(256))):
        # Ed25519 signatures are deterministic, so they must agree bytewise.
        assert kp.sign(message) == fresh.sign(message) == reloaded.sign(message)
        assert verify(kp.sign_pk, kp.sign(message), message)


def test_shared_key_is_symmetric_in_the_pair(rng):
    a, b, c = (KeyPair.generate(rng) for _ in range(3))
    ab = shared_key(a.enc_key, b.enc_pub)
    assert ab == shared_key(b.enc_key, a.enc_pub)
    assert ab == shared_key(keypair_from_text(a.to_text()).enc_key, b.enc_pub)
    assert ab == shared_key(a.enc_key, keypair_from_text(b.to_text()).enc_pub)
    assert ab != shared_key(a.enc_key, c.enc_pub)
    assert len(ab) == 32


# -- sealed broadcast bus --------------------------------------------------------

def test_bus_non_recipients_cannot_decrypt(rng):
    bus = EncryptedBus()
    keys = {name: KeyPair.generate(rng) for name in ("a", "b", "c")}
    for name, kp in keys.items():
        bus.register(name, kp)
    bus.send("a", "b", b"for bob only")
    src, dst, counter, ciphertext = bus.broadcast_log[0]
    assert eavesdrop(bus, "b", src, dst, counter, ciphertext) == b"for bob only"
    with pytest.raises(InvalidTag):
        eavesdrop(bus, "c", src, dst, counter, ciphertext)


def test_bus_directions_of_a_pair_use_distinct_nonces(rng):
    # Both directions share one key and both counters start at 0, so the
    # nonce's top bit names the direction: the same plaintext sealed each
    # way gives different ciphertexts, and either end (never a third node)
    # can read both.
    bus = EncryptedBus()
    keys = {name: KeyPair.generate(rng) for name in ("a", "b", "c")}
    for name, kp in keys.items():
        bus.register(name, kp)
    bus.send("a", "b", b"same words")
    bus.send("b", "a", b"same words")
    (s1, d1, n1, ct1), (s2, d2, n2, ct2) = bus.broadcast_log
    assert n1 == n2 == 0
    assert ct1 != ct2
    for src, dst, counter, ct in bus.broadcast_log:
        for reader in ("a", "b"):
            assert eavesdrop(bus, reader, src, dst, counter, ct) == b"same words"
        with pytest.raises(InvalidTag):
            eavesdrop(bus, "c", src, dst, counter, ct)


def test_bus_logs_and_length_sequences(rng):
    bus = EncryptedBus()
    for name in ("a", "b"):
        kp = KeyPair.generate(rng)
        bus.register(name, kp)
    bus.send("a", "b", b"xyz")
    bus.send("a", "b", b"pqrs")
    assert [d for d, _, _ in bus.logs["a"]] == ["sent", "sent"]
    lengths = [n for _, _, n in length_sequence(bus, "b")]
    assert lengths[1] - lengths[0] == 1   # AES-GCM: length mirrors plaintext
    assert b"xyz" not in bus.raw_bytes("b")


# -- share / declassify ----------------------------------------------------------

@pytest.mark.parametrize("mode", ["shamir", "spdz"])
def test_share_then_declassify_owner_only(mode):
    rt, owners, ident, committee, mac_key, rng = make_env(mode)
    alice = owners[0]
    q_compute = Predicate.key_list([kp.sign_pk for kp in owners])
    pointer = protocol_share(alice, "owner0", ident.addr, 57, "salary",
                             q_compute, t=1, rt=rt, rng=rng, mode=mode,
                             mac_key=mac_key, committee=committee)
    assert pointer is not None
    value, faults = mpc_declassify(alice, "owner0", ident.addr, pointer, rt)
    assert value == 57 and faults == []
    # Only the original dealer may ask for the raw data back.
    bob = owners[1]
    denied, _ = mpc_declassify(bob, "owner1", ident.addr, pointer, rt)
    assert denied is None


def test_share_posts_n_commitments():
    # One owner transaction: the VSS record at the sharing id, then the
    # pointer's predicate.
    rt, owners, ident, committee, _, rng = make_env()
    q = Predicate.key_list([owners[0].sign_pk])
    accepted = len(rt.ledger.accepted)
    pointer = protocol_share(owners[0], "owner0", ident.addr, 9, "x", q, t=1,
                             rt=rt, rng=rng, committee=committee)
    from mpcnet.network import sharing_key
    sharing = sharing_key(ident.addr, "x")
    assert len(audit.vss_commitments(rt.ledger, sharing, 3, rt.params)) == 3
    (tx, heights), = rt.ledger.accepted[accepted:]
    assert tx.sender == owners[0].sign_pk
    assert [rt.ledger.entries[h - 1].key for h in heights] == \
        [sharing, pointer]


def test_share_denied_for_non_member():
    rt, owners, ident, committee, _, rng = make_env()
    eve = rt.add_client("eve")
    height = rt.ledger.height
    pointer = protocol_share(eve, "eve", ident.addr, 1, "spam",
                             Predicate("any"), t=1, rt=rt, rng=rng,
                             committee=committee)
    assert pointer is None
    assert rt.ledger.height == height
    assert rt.bus.messages == 0


def test_share_the_ledger_rejects_deals_no_share():
    # eve first-writes the sharing id of alice's next input, computable
    # from the identity address and x_ref. The ledger rejects alice's
    # registration, and no member may hold her shares, or eve's own pointer
    # naming the sharing would declassify them.
    rt, owners, ident, committee, _, rng = make_env()
    alice, eve = owners[0], rt.add_client("eve")
    sharing = network.sharing_key(ident.addr, "salary")
    dummy = pedersen.pack_commitments([1] * 3, rt.params)
    rt.ledger.submit_tx(make_tx(eve, "kv-put", writes_payload([(sharing, dummy)]),
                                nonce=rt.ledger.next_nonce(eve.sign_pk)))
    before = rt.bus.messages
    with pytest.raises(LedgerRejected, match="another writer"):
        protocol_share(alice, "owner0", ident.addr, 42, "salary",
                       Predicate.key_list([alice.sign_pk]), t=1, rt=rt, rng=rng,
                       committee=committee)
    assert rt.bus.messages == before
    assert not any(sharing in node.shares for node in rt.registry)


@pytest.mark.parametrize("mode", ["shamir", "spdz"])
def test_declassify_denies_a_pointer_to_another_dealers_sharing(mode):
    # eve places her own pointer, readable by her, whose reference names
    # alice's sharing. Only the VSS record's first writer may declassify,
    # so eve is denied before any member sends a share.
    rt, owners, ident, committee, mac_key, rng = make_env(mode)
    alice, eve = owners[0], rt.add_client("eve")
    pointer = protocol_share(alice, "owner0", ident.addr, 57, "salary",
                             Predicate.key_list([alice.sign_pk]), t=1, rt=rt, rng=rng,
                             mode=mode, mac_key=mac_key, committee=committee)
    ref = network.load_reference(alice, ident.addr, pointer, rt)
    forged = json.dumps({**ref, "ref": "eve"}, sort_keys=True).encode()
    eve_pointer = place_record(eve, ident.addr, forged, Predicate.key_list([eve.sign_pk]),
                               rt.ledger, rt.dht)
    assert network.load_reference(eve, ident.addr, eve_pointer, rt) == {**ref, "ref": "eve"}
    before = rt.bus.messages
    assert mpc_declassify(eve, "eve", ident.addr, eve_pointer, rt) == (None, [])
    assert rt.bus.messages == before
    assert mpc_declassify(alice, "owner0", ident.addr, pointer, rt) == (57, [])


def rewrite_vss(rt, owner, sharing_id, value: bytes):
    """The owner, the VSS record's first writer, (re)writes it on the ledger."""
    rt.ledger.submit_tx(make_tx(owner, "kv-put",
                                writes_payload([(sharing_id, value)]),
                                nonce=rt.ledger.next_nonce(owner.sign_pk)))


P101 = pedersen.setup(Field(101))


# A VSS record for 3 parties at p = 101 is 3 commitments of 2 bytes.
@pytest.mark.parametrize("posted", [
    b"not json",
    pedersen.pack_commitments([5], P101),
    b"",
    pedersen.pack_commitments([5, 7, 9], P101)[:-1],
    pedersen.pack_commitments([5, 7, 9], P101) + b"\x00",
    audit.record_bytes({"commitments": base64.b64encode(
        pedersen.pack_commitments([5, 7, 9], P101)).decode()}),
], ids=["not-json", "one-of-three", "empty", "one-byte-short", "one-byte-long", "json-form"])
def test_declassify_with_a_malformed_vss_record_raises_value_error(posted):
    # The owner posts a malformed record at the sharing id before sharing,
    # so the well-formed record the shares are dealt under is its second
    # posting: the first is the one declassify reads, and it refuses it.
    rt, owners, ident, committee, _, rng = make_env()
    alice = owners[0]
    rewrite_vss(rt, alice, network.sharing_key(ident.addr, "salary"), posted)
    pointer = protocol_share(alice, "owner0", ident.addr, 57, "salary",
                             Predicate.key_list([alice.sign_pk]), t=1, rt=rt, rng=rng,
                             committee=committee)
    with pytest.raises(ValueError, match="VSS record"):
        mpc_declassify(alice, "owner0", ident.addr, pointer, rt)


def test_declassify_detects_wrong_share_via_commitments():
    rt, owners, ident, committee, _, rng = make_env()
    alice = owners[0]
    pointer = protocol_share(alice, "owner0", ident.addr, 70, "w",
                             Predicate.key_list([alice.sign_pk]), t=1,
                             rt=rt, rng=rng, committee=committee)
    committee[1].behavior = "wrong-share"
    value, faults = mpc_declassify(alice, "owner0", ident.addr, pointer, rt)
    assert value == 70                          # reconstructed from the rest
    assert faults == [(committee[1].index, "audit_trail")]


# -- compute -----------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["shamir", "spdz"])
def test_compute_mean_matches_plain_oracle(mode):
    rt, owners, ident, committee, mac_key, rng = make_env(mode)
    circ = parse_circuit(MEAN3)
    q_compute = Predicate.key_list([kp.sign_pk for kp in owners])
    inputs = [52, 61, 46]
    pointers = []
    for i, v in enumerate(inputs):
        ptr = protocol_share(owners[i], f"owner{i}", ident.addr, v, f"in{i}",
                             q_compute, t=1, rt=rt, rng=rng, mode=mode,
                             mac_key=mac_key, committee=committee)
        pointers.append(ptr)
    trace = fresh_trace(rt, committee, owners[0])
    out = protocol_compute(owners[0], "owner0", ident.addr, pointers, circ, rt,
                           trace, rng, mac_key=mac_key)
    assert out == eval_plain(circ, inputs, rt.field)


def test_compute_identity_circuit():
    rt, owners, ident, committee, _, rng = make_env()
    circ = parse_circuit("in x\nout x")
    ptr = protocol_share(owners[0], "owner0", ident.addr, 88, "v",
                         Predicate.key_list([owners[0].sign_pk]), t=1,
                         rt=rt, rng=rng, committee=committee)
    trace = fresh_trace(rt, committee, owners[0])
    out = protocol_compute(owners[0], "owner0", ident.addr, [ptr], circ, rt,
                           trace, rng)
    assert out == [88]


def test_compute_denied_sends_no_mpc_messages():
    rt, owners, ident, committee, _, rng = make_env()
    circ = parse_circuit("in x\nout x")
    ptr = protocol_share(owners[0], "owner0", ident.addr, 5, "v",
                         Predicate.key_list([owners[0].sign_pk]), t=1,
                         rt=rt, rng=rng, committee=committee)
    eve = rt.add_client("eve")
    before = rt.bus.messages
    trace = fresh_trace(rt, committee, eve)
    out = protocol_compute(eve, "eve", ident.addr, [ptr], circ, rt, trace, rng)
    assert out is None
    assert trace.outcome == "denied"
    assert rt.bus.messages == before


def test_cost_model_matches_simulator_on_random_circuits():
    # The static message model must agree with the simulator's measured
    # per-gate traffic for arbitrary circuits at a fixed committee size.
    gen = random.Random(91)
    for case in range(10):
        circ = random_circuit(gen, max_gates=12)
        rt, owners, ident, committee, _, rng = make_env(seed=900 + case)
        q = Predicate.key_list([owners[0].sign_pk])
        ptrs = []
        values = []
        for i in range(circ.n_inputs):
            values.append(gen.randrange(101))
            ptr = protocol_share(owners[0], "owner0", ident.addr,
                                 values[-1], f"c{case}i{i}", q,
                                 t=1, rt=rt, rng=rng, committee=committee)
            ptrs.append(ptr)
        trace = fresh_trace(rt, committee, owners[0], seed=case)
        out = protocol_compute(owners[0], "owner0", ident.addr, ptrs, circ, rt,
                               trace, rng)
        assert out == eval_plain(circ, values, rt.field), f"case {case}"
        assert trace.messages_eval == cost_model(circ).messages(3), f"case {case}"


@pytest.mark.parametrize("mode", ["shamir", "spdz"])
def test_compute_message_count_matches_cost_model(mode):
    rt, owners, ident, committee, mac_key, rng = make_env(mode)
    circ = parse_circuit("in x\nin y\ns = add x y\nm = mul s y\nm2 = mul m x\nout m2")
    q = Predicate.key_list([owners[0].sign_pk])
    ptrs = []
    for i, v in enumerate((3, 4)):
        ptr = protocol_share(owners[0], "owner0", ident.addr, v, f"i{i}", q,
                             t=1, rt=rt, rng=rng, mode=mode,
                             mac_key=mac_key, committee=committee)
        ptrs.append(ptr)
    trace = fresh_trace(rt, committee, owners[0])
    out = protocol_compute(owners[0], "owner0", ident.addr, ptrs, circ, rt,
                           trace, rng, mac_key=mac_key)
    assert out == eval_plain(circ, [3, 4], rt.field)
    assert trace.messages_eval == cost_model(circ).messages(3)
    assert trace.per_node[committee[0].index].muls == 2
    assert trace.per_node[committee[0].index].adds == 1


@pytest.mark.parametrize("mode,per_product", [("shamir", 1), ("spdz", 2)])
def test_parallel_muls_cost_one_message_per_pair(mode, per_product):
    # A dot product's k independent muls form one layer: exactly n(n-1)
    # messages, each carrying every product's sub-share (Shamir) or eps and
    # delta shares (SPDZ). On the bus a ciphertext is a 16-byte tag plus
    # the payload.
    k, n = 4, 3
    rt, owners, ident, committee, mac_key, rng = make_env(mode, committee=n)
    circ = parse_circuit("\n".join(
        [f"in x{i}" for i in range(k)] + [f"in y{i}" for i in range(k)]
        + [f"p{i} = mul x{i} y{i}" for i in range(k)]
        + ["s1 = add p0 p1"] + [f"s{i} = add s{i - 1} p{i}" for i in range(2, k)]
        + [f"out s{k - 1}"]))
    values = [rng.randrange(101) for _ in range(2 * k)]
    q = Predicate.key_list([owners[0].sign_pk])
    ptrs = []
    for i, v in enumerate(values):
        ptr = protocol_share(owners[0], "owner0", ident.addr, v, f"d{i}", q,
                             t=1, rt=rt, rng=rng, mode=mode,
                             mac_key=mac_key, committee=committee)
        ptrs.append(ptr)
    trace = fresh_trace(rt, committee, owners[0])
    start = len(rt.bus.broadcast_log)
    out = protocol_compute(owners[0], "owner0", ident.addr, ptrs, circ, rt,
                           trace, rng, mac_key=mac_key)
    assert out == eval_plain(circ, values, rt.field)
    assert trace.messages_eval == n * (n - 1) == cost_model(circ).messages(n)
    members = {node.index for node in committee}
    layer = rt.bus.broadcast_log[start:start + trace.messages_eval]
    assert {(src, dst) for src, dst, _, _ in layer} == \
        {(a, b) for a in members for b in members if a != b}
    assert [len(ct) for _, _, _, ct in layer] == \
        [16 + per_product * k * rt.field.elem_size] * (n * (n - 1))
    assert trace.per_node[committee[0].index].muls == k


@pytest.mark.parametrize("mode", ["shamir", "spdz"])
def test_compute_with_reduction_layered(mode):
    rt, owners, ident, committee, mac_key, rng = make_env(mode, nodes=12,
                                                          committee=9)
    circ = parse_circuit(
        "in a\nin b\nin c\ns = add a b\nm1 = mul s c\nm2 = mul m1 m1\nout m2")
    q = Predicate.key_list([owners[0].sign_pk])
    ptrs = []
    for i, v in enumerate((2, 3, 4)):
        ptr = protocol_share(owners[0], "owner0", ident.addr, v, f"r{i}", q,
                             t=1, rt=rt, rng=rng, mode=mode,
                             mac_key=mac_key, committee=committee)
        ptrs.append(ptr)
    trace = fresh_trace(rt, committee, owners[0])
    out = protocol_compute(owners[0], "owner0", ident.addr, ptrs, circ, rt,
                           trace, rng, mac_key=mac_key, reduction=3)
    assert out == eval_plain(circ, [2, 3, 4], rt.field)
    assert any("reduce" in e for e in trace.events)


@pytest.mark.parametrize("t", [2, 3])
def test_shamir_reduction_keeps_degree_reduction_quorum(t):
    # With c=3 the schedule asks for ceil(15/3^k) parties; the floor must
    # hold every stage at 2t+1, the size degree reduction needs.
    rt, owners, ident, committee, mac_key, rng = make_env("shamir", nodes=16,
                                                          committee=15)
    circ = parse_circuit(
        "in a\nin b\nin c\nm1 = mul a b\nm2 = mul m1 c\nm3 = mul m2 a\nout m3")
    q = Predicate.key_list([owners[0].sign_pk])
    ptrs = []
    for i, v in enumerate((2, 3, 4)):
        ptr = protocol_share(owners[0], "owner0", ident.addr, v, f"r{i}", q,
                             t=t, rt=rt, rng=rng, mode="shamir",
                             committee=committee)
        ptrs.append(ptr)
    trace = fresh_trace(rt, committee, owners[0])
    out = protocol_compute(owners[0], "owner0", ident.addr, ptrs, circ, rt,
                           trace, rng, reduction=3)
    assert out == eval_plain(circ, [2, 3, 4], rt.field)
    assert [e for e in trace.events if "reduce" in e]


def share_inputs(rt, owners, ident, committee, mac_key, rng, mode, values, label):
    q = Predicate.key_list([owners[0].sign_pk])
    return [protocol_share(owners[0], "owner0", ident.addr, v, f"{label}{i}", q,
                           t=1, rt=rt, rng=rng, mode=mode,
                           mac_key=mac_key, committee=committee)
            for i, v in enumerate(values)]


CHAIN5 = "in a\nin b\nin c\nin d\nin e\nm1 = mul a b\nm2 = mul m1 c\n" \
    "m3 = mul m2 d\nm4 = mul m3 e\nout m4"
OUTPUT_NAMES_INPUT = "in a\nin b\nin c\nm1 = mul a b\nm2 = mul m1 c\nout m2\nout a"
INPUT_READ_LAST = "in a\nin b\nin c\nm1 = mul a b\nm2 = mul m1 m1\nm3 = mul m2 c\nout m3"


@pytest.mark.parametrize("mode", ["shamir", "spdz"])
@pytest.mark.parametrize("text,live", [
    (CHAIN5, [4, 3, 2, 1]),
    (OUTPUT_NAMES_INPUT, [3, 2]),
    (INPUT_READ_LAST, [2, 2, 1]),
], ids=["chain", "output-names-input", "input-read-last"])
def test_reduction_reshares_only_live_wires(mode, text, live, monkeypatch):
    # A reduction after a multiplication layer re-shares the wires a later
    # layer reads or an output names, and nothing else. Each of its
    # messages carries one sub-share per wire (Shamir), or a value share
    # and a MAC share per wire plus one alpha share (SPDZ): no blinding
    # sharings, because a run with party reduction posts no trail.
    rt, owners, ident, committee, mac_key, rng = make_env(mode, nodes=12,
                                                          committee=9)
    batches = []

    def recording(reduce):
        def wrapper(values, *args, **kwargs):
            start = len(rt.bus.broadcast_log)
            result = reduce(values, *args, **kwargs)
            sizes = {len(ct) for _, _, _, ct in rt.bus.broadcast_log[start:]}
            batches.append((len(values), sizes))
            return result
        return wrapper

    monkeypatch.setattr(network, "reduce_parties", recording(network.reduce_parties))
    monkeypatch.setattr(network, "reduce_parties_spdz",
                        recording(network.reduce_parties_spdz))
    circ = parse_circuit(text)
    values = [3, 5, 7, 11, 13][:circ.n_inputs]
    ptrs = share_inputs(rt, owners, ident, committee, mac_key, rng, mode, values, "l")
    trace = fresh_trace(rt, committee, owners[0])
    out = protocol_compute(owners[0], "owner0", ident.addr, ptrs, circ, rt,
                           trace, rng, mac_key=mac_key, reduction=3)
    assert out == eval_plain(circ, values, rt.field)
    w = rt.field.elem_size
    per_wire, extra = (1, 0) if mode == "shamir" else (2, 1)
    assert batches == [(k, {16 + (per_wire * k + extra) * w}) for k in live]


@pytest.mark.parametrize("mode", ["shamir", "spdz"])
def test_reduction_on_random_circuits_matches_plain_and_stage_tallies(mode):
    # Under party reduction (c = 2 or 3) the outputs equal the plaintext
    # oracle, and every node's rounds/adds/muls are the fixed-committee
    # tallies restricted to the stages it is a member of: a layer after k
    # multiplication layers runs with the first schedule[k] members.
    n = 9
    gen = random.Random(4242)
    reducing = 0
    rt, owners, ident, committee, mac_key, rng = make_env(mode, nodes=12,
                                                          committee=n)
    for case in range(30):
        circ = random_circuit(gen, max_gates=12)
        c = 2 + case % 2
        values = [gen.randrange(101) for _ in range(circ.n_inputs)]
        ptrs = share_inputs(rt, owners, ident, committee, mac_key, rng, mode,
                            values, f"c{case}i")
        trace = fresh_trace(rt, committee, owners[0], seed=case)
        out = protocol_compute(owners[0], "owner0", ident.addr, ptrs, circ, rt,
                               trace, rng, mac_key=mac_key, reduction=c)
        assert out == eval_plain(circ, values, rt.field), f"case {case}"
        reducing += any(e.startswith("event=reduce") for e in trace.events)

        plan = layerize(circ, n, c, threshold=1)
        fixed = layerize(circ, n)
        assert fixed.layers == plan.layers
        expected = {node.index: [0, 0, 0] for node in committee}
        stage = 0
        for kind, gate_indices in fixed.layers:
            for node in committee[:plan.schedule[stage]]:
                counts = expected[node.index]
                counts[0] += 1
                counts[1 if kind == "add" else 2] += len(gate_indices)
            stage += kind == "mul"
        model = cost_model(circ)
        assert expected[committee[0].index] == \
            [len(fixed.layers), model.adds, model.muls], f"case {case}"
        got = {i: [t.rounds, t.adds, t.muls] for i, t in trace.per_node.items()}
        assert got == expected, f"case {case}"
    assert reducing >= 15   # most random circuits have a multiplication layer


DOT4 = "\n".join([f"in x{i}" for i in range(4)] + [f"in y{i}" for i in range(4)]
                 + [f"p{i} = mul x{i} y{i}" for i in range(4)]
                 + ["s1 = add p0 p1", "s2 = add s1 p2", "s3 = add s2 p3", "out s3"])
CHAIN4 = "in x0\nin x1\nin x2\nin x3\nm1 = mul x0 x1\nm2 = mul m1 x2\n" \
    "m3 = mul m2 x3\nout m3"
CHAIN8 = "\n".join([f"in x{i}" for i in range(8)] + ["m1 = mul x0 x1"]
                   + [f"m{i} = mul m{i - 1} x{i}" for i in range(2, 8)] + ["out m7"])


@pytest.mark.parametrize("text", [DOT4, CHAIN4, CHAIN8], ids=["dot4", "chain4", "chain8"])
def test_audited_trail_posts_two_transactions_whatever_the_depth(text):
    # Every triple is dealt before the first mask opens, so the inputs and
    # triples go on the ledger in one transaction before it, and the online
    # steps in one more at close, where the metadata record rides along:
    # two authority transactions at 1, 3 or 7 multiplication layers.
    rt, owners, ident, committee, mac_key, rng = make_env("spdz")
    circ = parse_circuit(text)
    values = [rng.randrange(101) for _ in range(circ.n_inputs)]
    ptrs = share_inputs(rt, owners, ident, committee, mac_key, rng, "spdz", values, "c")
    trace = fresh_trace(rt, committee, owners[0])
    start = len(rt.ledger.accepted)
    out = protocol_compute(owners[0], "owner0", ident.addr, ptrs, circ, rt,
                           trace, rng, mac_key=mac_key)
    assert out == eval_plain(circ, values, rt.field)
    posted = [tx.payload_type for tx, _ in rt.ledger.accepted[start:]
              if tx.sender == rt.authority.sign_pk]
    assert posted == ["commitment-post"] * 2
    assert audit.audit_trail(rt.ledger, trace.computation_id).ok


def posted_trail(ledger, computation_id, n, params):
    """(step records, VSS commitments by sharing id) of a closed trail, as
    first posted."""
    records = trail_records(ledger, computation_id)
    vss = {rec["sharing"]: audit.vss_commitments(ledger, rec["sharing"], n, params)
           for rec in records if rec["kind"] == "input"}
    return records, vss


def repost(ledger, computation_id, records, vss, params):
    """`ledger` with `records` in the trail's original batches and the VSS
    commitments `vss` as their first postings."""
    return reposted(reposted_trail(ledger, computation_id, records),
                    {sharing: pedersen.pack_commitments(commitments, params)
                     for sharing, commitments in vss.items()})


def tamper(records, vss, params, n, rng):
    """Copies of the record list and the VSS commitments with one fault:
    +-1 mod p on an opening's share or blinding, or a posted input or
    triple commitment set to 0, q, q + c or another party's."""
    records, vss = copy.deepcopy((records, vss))
    field, q = Field(params.p), params.q
    opened = [(rec, name) for rec in records for name in
              ("eps_openings", "delta_openings", "openings") if name in rec]
    posted = []
    for rec in records:
        if rec["kind"] == "input":
            posted.append((vss, rec["sharing"]))
        elif rec["kind"] == "triple":
            posted += [(rec, "a"), (rec, "b"), (rec, "c")]
    if opened and rng.random() < 0.5:
        rec, name = rng.choice(opened)
        at = 2 * rng.randrange(len(rec[name]) // 2) + rng.randrange(2)
        rec[name][at] = (rec[name][at] + rng.choice((1, -1))) % field.p
    else:
        holder, name = rng.choice(posted)
        vector = holder[name]
        i = rng.randrange(len(vector))
        vector[i] = rng.choice((0, q, q + vector[i], vector[(i + 1) % len(vector)]))
    return records, vss


def test_batched_audit_matches_step_fold_on_tampered_trails():
    # Audited SPDZ runs of seeded random circuits at p = 101 and M61, n = 3
    # and 4; each trail is tampered 12 ways (some in an owner's VSS record)
    # and re-posted in its original batches. The auditor (one
    # multi-exponentiation per checked opening, no inversions) must agree
    # with the per-step fold on ok, guilty and reason every time.
    rng = random.Random(4242)
    cases = failing = vss_forged = 0
    for trail in range(20):
        p, n = (101, M61)[trail % 2], 3 + trail // 2 % 2
        rt, owners, ident, committee, mac_key, env_rng = make_env(
            "spdz", seed=trail, nodes=n + 2, committee=n, p=p)
        circ = random_circuit(rng, max_gates=14)
        values = [rng.randrange(p) for _ in range(circ.n_inputs)]
        ptrs = share_inputs(rt, owners, ident, committee, mac_key, env_rng, "spdz",
                            values, "t")
        trace = fresh_trace(rt, committee, owners[0], seed=trail)
        protocol_compute(owners[0], "owner0", ident.addr, ptrs, circ, rt, trace,
                         env_rng, mac_key=mac_key)
        cid = trace.computation_id
        records, vss = posted_trail(rt.ledger, cid, n, rt.params)
        assert audit.audit_trail(rt.ledger, cid) == fold_trail(rt.ledger, records, n, p)
        for _ in range(12):
            forged, forged_vss = tamper(records, vss, rt.params, n, rng)
            board = repost(rt.ledger, cid, forged, forged_vss, rt.params)
            expected = fold_trail(board, forged, n, p)
            assert audit.audit_trail(board, cid) == expected, (trail, forged, forged_vss)
            cases += 1
            failing += not expected.ok
            vss_forged += forged_vss != vss
    assert cases >= 200
    assert failing > cases // 2
    assert vss_forged


def test_vss_record_rewritten_after_compute_blames_nobody():
    # After the computation the owner rewrites its VSS record with party
    # 1's commitment shifted by g, which the ledger allows its first
    # writer. Read as it stands now, the record would blame party 1; the
    # auditor reads it as first posted, the record the shares were dealt
    # under, so the audit of the ledger and of its dump passes unchanged.
    rt, owners, ident, committee, mac_key, rng = make_env("spdz", seed=3)
    ptrs = share_inputs(rt, owners, ident, committee, mac_key, rng, "spdz", [4, 5], "v")
    trace = fresh_trace(rt, committee, owners[0], seed=3)
    protocol_compute(owners[0], "owner0", ident.addr, ptrs, parse_circuit(MUL2), rt,
                     trace, rng, mac_key=mac_key)
    cid = trace.computation_id
    honest = audit.audit_trail(rt.ledger, cid)
    assert honest.ok
    sharing = network.sharing_key(ident.addr, "v0")
    commitments = audit.vss_commitments(rt.ledger, sharing, 3, rt.params)
    commitments[1] = commitments[1] * rt.params.g % rt.params.q
    record = pedersen.pack_commitments(commitments, rt.params)
    rewrite_vss(rt, owners[0], sharing, record)
    assert rt.ledger.get(sharing) == record
    records, vss = posted_trail(rt.ledger, cid, 3, rt.params)
    vss[sharing] = commitments
    board = repost(rt.ledger, cid, records, vss, rt.params)
    assert audit.audit_trail(board, cid).guilty == (1,)
    for board in (rt.ledger, load_dump(rt.ledger.dump())):
        assert audit.audit_trail(board, cid) == honest


def reuse_circuit(depth: int) -> str:
    """Every linear wire read at least twice: `depth` chained self-adds
    (y_k = y_{k-1} + y_{k-1}), a chain of `depth` smul gates, a
    Fibonacci-shaped add DAG, and a second multiplication of two of them."""
    last = depth - 1
    lines = ["in a", "in b", "m = mul a b", "y0 = add m m"]
    lines += [f"y{k} = add y{k - 1} y{k - 1}" for k in range(1, depth)]
    lines += [f"s0 = smul 3 y{last}"]
    lines += [f"s{k} = smul {k + 2} s{k - 1}" for k in range(1, depth)]
    lines += [f"f0 = add s{last} m", "f1 = add f0 m"]
    lines += [f"f{k} = add f{k - 1} f{k - 2}" for k in range(2, depth)]
    lines += [f"u = mul f{last} y{last}", "v = add u u", f"w = add v f{last}", "out w"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("p", [101, M61], ids=["p101", "M61"])
def test_audit_of_reused_wires_matches_step_fold(p):
    # Forty self-adds double a derived commitment's exponents forty times
    # and the add DAG reconverges forty times; the auditor keeps one term
    # per distinct base, so it finishes at once and agrees with the
    # per-step fold on the honest trail and on 12 tampered copies.
    n = 3
    rt, owners, ident, committee, mac_key, env_rng = make_env(
        "spdz", seed=5, nodes=n + 2, committee=n, p=p)
    circ = parse_circuit(reuse_circuit(40))
    values = [env_rng.randrange(p) for _ in range(circ.n_inputs)]
    ptrs = share_inputs(rt, owners, ident, committee, mac_key, env_rng, "spdz",
                        values, "r")
    trace = fresh_trace(rt, committee, owners[0], seed=5)
    out = protocol_compute(owners[0], "owner0", ident.addr, ptrs, circ, rt, trace,
                           env_rng, mac_key=mac_key)
    assert out == eval_plain(circ, values, rt.field)
    cid = trace.computation_id
    records, vss = posted_trail(rt.ledger, cid, n, rt.params)
    assert audit.audit_trail(rt.ledger, cid) == fold_trail(rt.ledger, records, n, p)
    assert audit.audit_trail(rt.ledger, cid).ok
    rng = random.Random(p)
    for _ in range(12):
        forged, forged_vss = tamper(records, vss, rt.params, n, rng)
        board = repost(rt.ledger, cid, forged, forged_vss, rt.params)
        assert audit.audit_trail(board, cid) == fold_trail(board, forged, n, p), forged


def test_spdz_wrong_share_caught_by_mac_check():
    rt, owners, ident, committee, mac_key, rng = make_env("spdz")
    committee[1].behavior = "wrong-share"
    circ = parse_circuit(MUL2)
    q = Predicate.key_list([owners[0].sign_pk])
    ptrs = []
    for i, v in enumerate((6, 7)):
        ptr = protocol_share(owners[0], "owner0", ident.addr, v, f"m{i}", q,
                             t=1, rt=rt, rng=rng, mode="spdz",
                             mac_key=mac_key, committee=committee)
        ptrs.append(ptr)
    trace = fresh_trace(rt, committee, owners[0])
    with pytest.raises(CheatDetected):
        protocol_compute(owners[0], "owner0", ident.addr, ptrs, circ, rt,
                         trace, rng, mac_key=mac_key)


# -- output opening ------------------------------------------------------------

FOUR_OUTPUTS = "in x\nin y\ns = add x y\nm = mul x y\nd = smul 3 s\nout s\nout m\nout d\nout x"
FOUR_EXPECTED = [22, 9 * 13 % 101, 66, 9]


def four_output_run(mode, n=3):
    """Share x = 9 and y = 13 with an n-member committee; returns the
    runtime, committee, trace, a thunk that runs the four-output circuit,
    and a thunk listing the ciphertexts sent to the requester since."""
    rt, owners, ident, committee, mac_key, rng = make_env(mode, committee=n)
    q = Predicate.key_list([owners[0].sign_pk])
    ptrs = [protocol_share(owners[0], "owner0", ident.addr, v, f"o{i}", q, t=1,
                           rt=rt, rng=rng, mode=mode, mac_key=mac_key,
                           committee=committee) for i, v in enumerate((9, 13))]
    trace = fresh_trace(rt, committee, owners[0])
    start = len(rt.bus.broadcast_log)
    circ = parse_circuit(FOUR_OUTPUTS)
    return (rt, committee, trace,
            lambda: protocol_compute(owners[0], "owner0", ident.addr, ptrs, circ, rt,
                                     trace, rng, mac_key=mac_key),
            lambda: [ct for _, dst, _, ct in rt.bus.broadcast_log[start:]
                     if dst == "owner0"])


@pytest.mark.parametrize("mode", ["shamir", "spdz"])
def test_outputs_open_in_one_message_per_member(mode):
    rt, committee, trace, compute, openings = four_output_run(mode)
    assert compute() == FOUR_EXPECTED
    assert [len(ct) for ct in openings()] == [16 + 4 * rt.field.elem_size] * 3
    assert trace.detected_faults == []


def test_silent_shamir_member_is_timed_out_once_per_opening():
    rt, committee, trace, compute, openings = four_output_run("shamir")
    committee[1].behavior = "abort-after-output"
    assert compute() == FOUR_EXPECTED
    assert len(openings()) == 2
    assert sum(e.startswith("event=idle ") for e in trace.events) == 3
    assert [(f.node, f.channel) for f in trace.detected_faults] == \
        [(committee[1].index, "timeout")]


def test_wrong_shamir_share_blamed_once_for_every_output():
    rt, committee, trace, compute, openings = four_output_run("shamir", n=4)
    committee[2].behavior = "wrong-share"
    assert compute() == FOUR_EXPECTED
    assert len(openings()) == 4
    assert [(f.node, f.channel) for f in trace.detected_faults] == \
        [(committee[2].index, "share-consistency")]


@pytest.mark.parametrize("mode", ["shamir", "spdz"])
def test_lost_opening_message_is_read_as_silence(mode, monkeypatch):
    # An honest member's opening is lost on the wire. The requester can
    # only see that it did not arrive: Shamir reconstructs without it and
    # times the member out; SPDZ cannot open without every share.
    rt, committee, trace, compute, openings = four_output_run(mode)
    lost = committee[2]
    send = rt.bus.send

    def lossy(src, dst, payload):
        if (src, dst) != (lost.index, "owner0"):
            send(src, dst, payload)

    monkeypatch.setattr(rt.bus, "send", lossy)
    if mode == "shamir":
        assert compute() == FOUR_EXPECTED
    else:
        with pytest.raises(network.AbortedComputation) as aborted:
            compute()
        assert aborted.value.nodes == (lost.index,)
    assert len(openings()) == 2
    assert [(f.node, f.channel) for f in trace.detected_faults] == \
        [(lost.index, "timeout")]


def test_detect_bad_shares_consensus(f101, rng):
    from mpcnet import shamir as sh
    shares = sh.share(42, 1, 5, f101, rng)
    points = [(s.index, s.value) for s in shares]
    value, outliers = detect_bad_shares(points, 1, f101)
    assert value == 42 and outliers == ()
    points[2] = (points[2][0], (points[2][1] + 1) % 101)
    value, outliers = detect_bad_shares(points, 1, f101)
    assert value == 42 and outliers == (2,)


def subset_search(points, t, field):
    """Exhaustive reference decoder: the best-agreeing polynomial through any
    t+1 of the points, accepted only when its agreement m has 2m > n + t."""
    n = len(points)
    best = None
    for subset in itertools.combinations(range(n), t + 1):
        base = [points[j] for j in subset]
        agrees = [i for i in range(n)
                  if shamir.lagrange_eval(base, points[i][0], field) == points[i][1]]
        if best is None or len(agrees) > len(best):
            best = agrees
        if len(agrees) == n:
            break
    if best is None or 2 * len(best) <= n + t:
        raise CheatDetected("inconsistent shares without an identifiable culprit")
    value = shamir.interpolate_at_zero([points[i] for i in best[:t + 1]], field)
    return value, tuple(i for i in range(n) if i not in best)


def _decode_or_raise(decoder, points, t, field):
    try:
        return decoder(points, t, field)
    except CheatDetected:
        return "cheat-detected"


@pytest.mark.parametrize("p, trials", [(101, 1000), (M61, 200)],
                         ids=["p101", "M61"])
def test_detect_bad_shares_matches_subset_search(p, trials):
    # The reference search inverts a 61-bit element per Lagrange term, so
    # M61 gets fewer trials to keep the suite fast.
    field = Field(p)
    rng = random.Random(2024 + p % 1000)
    raised = decoded_with_outliers = 0
    for _ in range(trials):
        n = rng.randrange(1, 10)
        t = rng.randrange(0, n + 2)           # n <= t: no t+1 points at all
        xs = rng.sample(range(1, min(p, 40)), n)
        honest = [field.rand(rng) for _ in range(t + 1)]
        rival = [field.rand(rng) for _ in range(t + 1)]
        points = list(zip(xs, eval_poly(honest, xs, p)))
        # Half the sets take at most one fault past the radius (n - t - 1) // 2,
        # the rest any number; some move their points onto a second degree-t
        # polynomial to compete with the honest one.
        radius = max(0, (n - t - 1) // 2)
        faults = min(n, rng.randrange(0, (radius + 1 if rng.random() < 0.5 else n) + 1))
        for i in rng.sample(range(n), faults):
            x, y = points[i]
            if rng.random() < 0.4:
                points[i] = (x, eval_poly(rival, [x], p)[0])
            else:
                points[i] = (x, field.add(y, rand_nonzero(field, rng)))
        want = _decode_or_raise(subset_search, points, t, field)
        assert _decode_or_raise(detect_bad_shares, points, t, field) == want
        raised += want == "cheat-detected"
        decoded_with_outliers += want != "cheat-detected" and bool(want[1])
    assert raised > trials // 10 and decoded_with_outliers > trials // 10


class CountingField(Field):
    __slots__ = ("muls", "invs")

    def __init__(self, p):
        super().__init__(p)
        self.muls = self.invs = 0

    def mul(self, a, b):
        self.muls += 1
        return super().mul(a, b)

    def inv(self, a):
        self.invs += 1
        return super().inv(a)


def test_detect_bad_shares_polynomial_work_at_n31():
    # C(31, 16) ~ 3e8 subsets for the exhaustive search; count operations,
    # never time.
    n, t = 31, 15
    field = CountingField(M61)
    rng = random.Random(31)
    shares = shamir.share(123456789, t, n, field, rng)
    points = [(s.index, s.value) for s in shares]
    bad = sorted(rng.sample(range(n), 7))
    for i in bad:
        points[i] = (points[i][0], field.add(points[i][1], rand_nonzero(field, rng)))
    field.muls = field.invs = 0
    value, outliers = detect_bad_shares(points, t, field)
    assert value == 123456789 and outliers == tuple(bad)
    assert field.muls <= 2 * n ** 3
    assert field.invs <= 2 * n
    # One more error is past the radius (n - t - 1) // 2 = 7.
    extra = next(i for i in range(n) if i not in bad)
    points[extra] = (points[extra][0], field.add(points[extra][1], 1))
    with pytest.raises(CheatDetected):
        detect_bad_shares(points, t, field)
