"""Known defects: one test per hole that ROADMAP.md names, each asserting
the fixed behaviour and marked xfail(strict=True, reason="ROADMAP item N").

Such a test fails today for the reason its item gives. The change that
closes the hole removes the marker; strict mode turns an unexpected pass
into a failure, so a fix cannot go unnoticed and a test here cannot start
passing by accident. Only defects that ROADMAP.md names belong here.
"""

import contextlib
import dataclasses
import functools
import operator
import random
import re
from pathlib import Path

import pytest

from mpcnet import network, runner, shamir, spdz
from mpcnet.audit import trail_key, trail_meta_key
from mpcnet.cli import main
from mpcnet.dht import DhtNetwork, protocol_load, protocol_store, record_address
from mpcnet.field import M61, Field
from mpcnet.hierarchy import hierarchical_mul
from mpcnet.identity import Predicate, gen_shared_identity, identity_address, serialize_acl
from mpcnet.keys import KeyPair, sha256
from mpcnet.ledger import Ledger, LedgerRejected, make_tx, writes_payload
from mpcnet.net import LocalChannel
from mpcnet.runner import run_scenario
from mpcnet.scenario import parse_scenario
from oracles import written_first

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14")
def test_a_dump_whose_trail_authors_never_signed_is_rejected(tmp_path, capsys):
    # select.scn's trail entries, with the author column rewritten to a
    # key that signed nothing: the dump carries no signature, so nothing
    # ties an entry to its author.
    outdir = tmp_path / "out"
    assert main(["run", str(SCENARIOS / "select.scn"), "--out", str(outdir)]) == 0
    comp_id = bytes.fromhex(re.search(r"computation=([0-9a-f]{64})",
                                      (outdir / "trace.txt").read_text()).group(1))
    stranger = KeyPair.generate(random.Random(14)).sign_pk.hex()
    trail = {trail_key(comp_id, b).hex() for b in range(16)} | {trail_meta_key(comp_id).hex()}
    lines, rewritten = [], 0
    for line in (outdir / "ledger.tsv").read_text().splitlines():
        height, key, value64, author = line.split("\t")
        if key in trail:
            author, rewritten = stranger, rewritten + 1
        lines.append("\t".join((height, key, value64, author)))
    assert rewritten == 3
    dump = tmp_path / "unsigned.tsv"
    dump.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["audit", str(dump), "--id", comp_id.hex()]) == 1
    assert capsys.readouterr().err.startswith("error: corrupt dump")


def test_a_restarted_spdz_run_writes_every_trail_key_once():
    # average.scn under SPDZ, with position 1 silent at the output: the
    # restart numbers its trail batches after the aborted attempt's.
    cfg = parse_scenario(SCENARIOS / "average.scn")
    cfg.mode = "spdz"
    cfg.faults = {1: "abort-after-output"}
    result = run_scenario(cfg)
    assert any(e.startswith("event=restart committee=") for e in result.trace.events)
    ledger = result.runtime.ledger
    written = [ledger.entries[h - 1].key for tx, heights in ledger.accepted
               if tx.payload_type == "commitment-post" for h in heights]
    assert written
    assert len(written) == len(set(written)), [
        key.hex()[:16] for key in written if written.count(key) > 1]


def xor_subset(vectors: list, target: int) -> list:
    """Indices of vectors whose XOR is target, by Gaussian elimination over
    GF(2); KeyError if target is not in their span."""
    basis = {}   # pivot bit -> (vector, mask of the indices it combines)
    for i, v in enumerate(vectors):
        mask = 1 << i
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = (v, mask)
                break
            v, mask = v ^ basis[top][0], mask ^ basis[top][1]
    mask = 0
    while target:
        vector, combined = basis[target.bit_length() - 1]
        target, mask = target ^ vector, mask ^ combined
    return [i for i in range(len(vectors)) if mask >> i & 1]


def test_a_registration_at_an_address_by_keys_that_fold_to_it_is_rejected():
    # Out of 300 keys of her own, eve finds a subset whose H(pk_i) XOR-fold
    # to alice's single-key address, as an address folded that way would
    # accept, and registers them there before alice does. An address is the
    # hash of the sorted keys, so the ledger rejects the registration.
    rng = random.Random(3)
    alice = KeyPair.generate(rng)
    addr = identity_address([alice.sign_pk])
    eve = [KeyPair.generate(rng) for _ in range(300)]
    hashes = [int.from_bytes(sha256(kp.sign_pk), "big") for kp in eve]
    subset = xor_subset(hashes, int.from_bytes(addr, "big"))
    assert functools.reduce(operator.xor, (hashes[i] for i in subset)).to_bytes(32, "big") == addr
    subset = [eve[i] for i in subset]
    ledger = Ledger()
    registrar = subset[0]
    tx = make_tx(registrar, "identity-registration",
                 writes_payload([(addr, serialize_acl({kp.sign_pk: Predicate.owner()
                                                       for kp in subset}))]),
                 nonce=ledger.next_nonce(registrar.sign_pk))
    with pytest.raises(LedgerRejected):
        ledger.submit_tx(tx)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_a_pointer_key_written_first_by_another_key_still_takes_its_owners_store():
    # The pointer key H(addr || blob) is computable from public data, and
    # eve kv-puts there before alice stores the blob.
    rng = random.Random(77)
    net = DhtNetwork()
    for _ in range(16):
        net.add_node(rng.randbytes(32))
    net.bootstrap()
    ledger = Ledger()
    alice = KeyPair.generate(random.Random(1000))
    ident = gen_shared_identity([alice], [Predicate.owner()], ledger)
    eve = KeyPair.generate(random.Random(4321))
    blob = b"payroll"
    with contextlib.suppress(LedgerRejected):
        ledger.submit_tx(make_tx(eve, "kv-put",
                                 writes_payload([(record_address(ident.addr, blob), b"(any)")]),
                                 nonce=ledger.next_nonce(eve.sign_pk)))
    a_x = protocol_store(alice, ident.addr, blob, Predicate.owner(), ledger, net)
    assert protocol_load(alice, ident.addr, a_x, ledger, net) == blob


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_an_input_whose_sharing_id_another_key_wrote_first_is_still_dealt():
    # The sharing id H(addr || x_ref) is computable from public data, and
    # eve kv-puts there before alice shares her input.
    rt = network.Runtime(Field(M61), 23, 6, genesis_balance=1000)
    alice, eve = rt.add_client("alice"), rt.add_client("eve")
    ident = gen_shared_identity([alice], [Predicate.owner()], rt.ledger)
    sharing = network.sharing_key(ident.addr, "salary")
    rt.ledger.submit_tx(make_tx(eve, "kv-put", writes_payload([(sharing, b"(any)")]),
                                nonce=rt.ledger.next_nonce(eve.sign_pk)))
    committee = rt.registry[:3]
    pointer = network.protocol_share(alice, "alice", ident.addr, 42, "salary",
                                     Predicate.owner(), committee=committee, t=1, rt=rt,
                                     rng=random.Random(23))
    assert pointer is not None
    assert all(sharing in node.shares for node in committee)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_a_tampered_spdz_output_share_fails_the_run(monkeypatch):
    # select.scn with 1 added to position 1's value share of each output
    # as it is opened; the trail posts the shares the engine holds.
    opened = network.SpdzEngine.open

    def tampered(self, outputs):
        return opened(self, [[dataclasses.replace(s, value_share=(s.value_share + 1) % self.field.p)
                              if pos == 1 else s for pos, s in enumerate(shares)]
                             for shares in outputs])

    monkeypatch.setattr(network.SpdzEngine, "open", tampered)
    result = run_scenario(parse_scenario(SCENARIOS / "select.scn"))
    assert result.exit_code == 2


@pytest.mark.xfail(strict=True, reason="ROADMAP item 5")
def test_a_dishonest_owner_gets_no_honest_member_slashed(monkeypatch):
    # average.scn at committee 5, with the input0 owner adding 5 to
    # position 2's Shamir share: nothing checks that the shares lie on one
    # degree-t polynomial, so decoding blames the member who holds it.
    dealt = shamir.share
    shared = runner.protocol_share

    def dishonest(owner, owner_label, addr, x, x_ref, *args, **kwargs):
        if x_ref != "input0":
            return shared(owner, owner_label, addr, x, x_ref, *args, **kwargs)

        def shifted(*share_args):
            shares = dealt(*share_args)
            shares[2] = dataclasses.replace(shares[2], value=(shares[2].value + 5) % M61)
            return shares

        monkeypatch.setattr(shamir, "share", shifted)
        try:
            return shared(owner, owner_label, addr, x, x_ref, *args, **kwargs)
        finally:
            monkeypatch.setattr(shamir, "share", dealt)

    monkeypatch.setattr(runner, "protocol_share", dishonest)
    cfg = parse_scenario(SCENARIOS / "average.scn")
    cfg.committee = 5
    result = run_scenario(cfg)
    members = set(result.runtime.registry[i].keypair.sign_pk for i in result.trace.committee)
    assert not [line for line in result.settlement.lines
                if line.slash and line.node_pk in members]


def test_a_committee_tree_that_cannot_keep_the_threshold_is_refused():
    # n = 9, t = 3, c = 3: a root committee of 3 holds a degree-1 sharing,
    # which 2 colluding members open, below the t + 1 = 4 of the input.
    field = Field(M61)
    rng = random.Random(9)
    x = shamir.share(6, 3, 9, field, rng)
    y = shamir.share(7, 3, 9, field, rng)
    with pytest.raises(ValueError):
        hierarchical_mul(x, y, 3, field, LocalChannel(), rng)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 17")
def test_a_shifted_shamir_product_point_fails_the_run(monkeypatch):
    # cheater.scn under Shamir at t = 1 with its fault cleared, where the
    # source at index 1 adds 1 to its first product point before the first
    # re-share: nothing checks what a member deals, so the output shifts by
    # that member's weight -3 to 417 and the decoder sees a consistent
    # sharing.
    reshare = shamir.reshare
    calls = []

    def shifted(points, *args):
        if not calls:
            points = [list(values) for values in points]
            points[0][1] += 1
        calls.append(args)
        return reshare(points, *args)

    monkeypatch.setattr(shamir, "reshare", shifted)
    cfg = parse_scenario(SCENARIOS / "cheater.scn")
    cfg.mode, cfg.threshold, cfg.faults = "shamir", 1, {}
    result = run_scenario(cfg)
    assert calls
    assert result.trace.outcome != "ok"


def test_the_computation_id_does_not_depend_on_the_inputs():
    # Two select.scn runs that differ only in their inputs get one id. The
    # id is public (settlement, trail keys), and an id that hashed the
    # inputs would let a small input space be searched from it.
    first = parse_scenario(SCENARIOS / "select.scn")
    second = parse_scenario(SCENARIOS / "select.scn")
    second.inputs = [0, 2, 3]
    ids = {run_scenario(cfg).trace.computation_id for cfg in (first, second)}
    assert len(ids) == 1


@pytest.mark.xfail(strict=True, raises=LedgerRejected, reason="ROADMAP item 3")
@pytest.mark.parametrize("squat", [trail_meta_key, lambda cid: trail_key(cid, 1)],
                         ids=["metadata", "second-batch"])
def test_a_trail_key_another_key_wrote_first_does_not_stop_a_spdz_run(monkeypatch, squat):
    # The id hashes public fields only, so eve derives select.scn's trail
    # keys and kv-puts at one before the run. TrailWriter steps over a held
    # first batch key, but the metadata key is fixed and the second batch
    # follows the first, so the authority's post there is rejected.
    cfg = parse_scenario(SCENARIOS / "select.scn")
    cid = sha256(b"computation" + cfg.seed.to_bytes(8, "big") + cfg.mode.encode() + b"\x00"
                 + cfg.circuit_path.read_bytes())
    eve = KeyPair.generate(random.Random(4321))
    monkeypatch.setattr(runner, "Runtime", written_first([(squat(cid), b"(any)")], eve))
    assert run_scenario(cfg).trace.outcome == "ok"


@pytest.mark.parametrize("reduction", [None, 2], ids=["audited", "trail-free"])
def test_openings_shifted_to_cancel_under_the_seeded_mac_coins_fail_the_run(
        monkeypatch, reduction):
    # cheater.scn with its fault cleared: position 1 shifts the value share
    # it sends in the first Beaver opening by rho_2 on eps and by -rho_1 on
    # delta, where rho_1 and rho_2 are the first two draws of the seeded
    # mac-check stream. Coins drawn from that stream would give
    # sum_k rho_k * shift_k = 0 and pass the check; coins derived from the
    # opened values cannot be known before the openings, and catch it.
    cfg = parse_scenario(SCENARIOS / "cheater.scn")
    cfg.faults, cfg.reduction = {}, reduction
    field = Field(cfg.prime)
    coins = network.child_rng(cfg.seed, "mac-check")
    rho1, rho2 = field.rand(coins), field.rand(coins)
    opened = spdz.open_many
    calls = []

    def shifted(sharings, *args):
        if not calls:
            sharings = [list(shares) for shares in sharings]
            for k, shift in ((0, rho2), (1, field.p - rho1)):
                share = sharings[k][1]
                sharings[k][1] = dataclasses.replace(
                    share, value_share=field.add(share.value_share, shift))
        calls.append(sharings)
        return opened(sharings, *args)

    monkeypatch.setattr(spdz, "open_many", shifted)
    result = run_scenario(cfg)
    assert calls
    assert result.trace.outcome != "ok"
    assert result.outputs == []
    assert not [line for line in result.settlement.lines if line.slash]
