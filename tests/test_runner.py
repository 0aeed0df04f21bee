import dataclasses
import functools
import hashlib
import json
import random
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from mpcnet import audit, dht, identity, keys, network, pedersen, runner, spdz
from mpcnet.audit import audit_trail, trail_key, trail_meta_key, vss_commitments
from mpcnet.circuits import eval_plain, lower_select, parse_circuit
from mpcnet.errors import IncompleteTrail
from mpcnet.field import Field
from mpcnet.identity import Predicate, identity_address, serialize_acl
from mpcnet.ledger import LedgerRejected, load_dump, make_tx, writes_payload
from mpcnet.network import child_rng, protocol_compute, protocol_share, sharing_key
from mpcnet.runner import run_scenario
from mpcnet.scenario import ScenarioConfig, ScenarioError, parse_scenario
from mpcnet.trace import ComputationTrace
from oracles import length_sequence, reposted_trail, trail_records, written_first
from test_golden import RUN_SEED, RUNS, SEEDS, pinned, run_configs, run_digests

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def load(name):
    return parse_scenario(SCENARIOS / f"{name}.scn")


def test_parse_scenario_fields():
    cfg = load("average")
    assert cfg.mode == "shamir" and cfg.nodes == 8 and cfg.committee == 3
    assert cfg.inputs == [52000, 61000, 46000]
    assert cfg.fees.w_mul == 10


def test_a_scenario_with_only_the_required_keys_takes_the_dataclass_defaults(tmp_path):
    scn = tmp_path / "bare.scn"
    scn.write_text(f"nodes=4\nmode=shamir\ncircuit={SCENARIOS}/mean3.circ\n"
                   "inputs=1,2,3\nseed=5\n")
    cfg = parse_scenario(scn)
    required = {"nodes": 4, "mode": "shamir", "circuit_path": SCENARIOS / "mean3.circ",
                "circuit_text": (SCENARIOS / "mean3.circ").read_text(),
                "inputs": [1, 2, 3], "seed": 5, "source": scn}
    assert cfg == ScenarioConfig(**required)


def test_parse_scenario_errors(tmp_path):
    with pytest.raises(ScenarioError, match="not found"):
        parse_scenario(tmp_path / "nope.scn")
    bad = tmp_path / "bad.scn"
    bad.write_text("nodes=4\nmode=shamir\ninputs=1\nseed=1\ncircuit=missing.circ\n")
    with pytest.raises(ScenarioError, match="circuit file not found"):
        parse_scenario(bad)
    bad.write_text("nodes=4\nmode=warp\ninputs=1\nseed=1\ncircuit=x\n")
    with pytest.raises(ScenarioError, match="mode"):
        parse_scenario(bad)
    bad.write_text("nodes=4\nmode=shamir\ninputs=1\ncircuit=x\n")
    with pytest.raises(ScenarioError, match="seed"):
        parse_scenario(bad)


def test_spdz_scenario_rejects_threshold(tmp_path):
    # SPDZ shares additively, so a Shamir degree would be silently ignored.
    scn = tmp_path / "cheater.scn"
    scn.write_text((SCENARIOS / "cheater.scn").read_text()
                   .replace("circuit=", f"circuit={SCENARIOS}/") + "threshold=1\n")
    with pytest.raises(ScenarioError, match="threshold"):
        parse_scenario(scn)


def test_average_scenario_matches_oracle():
    cfg = load("average")
    result = run_scenario(cfg)
    circuit = parse_circuit(cfg.circuit_text)
    assert result.outputs == eval_plain(circuit, cfg.inputs, Field(cfg.prime))
    assert result.exit_code == 0
    assert result.trace.outcome == "ok"
    assert result.settlement.requester_charge > 0


def test_mac_failure_leaves_the_flushed_batches_and_no_step_count():
    # The commitments are flushed before the mask opening, and the beaver
    # step once the MAC check fails; nothing closes the trail, so no
    # metadata record is posted and the audit reads it as incomplete.
    result = run_scenario(load("cheater"))
    ledger, cid = result.runtime.ledger, result.trace.computation_id
    assert result.trace.outcome == "cheat-detected"
    assert ledger.get(trail_meta_key(cid)) is None
    field = Field(result.runtime.field.p)
    params = pedersen.setup(field)
    assert [[rec["kind"] for rec in audit.parse_steps(ledger.get(trail_key(cid, b)), 3, field,
                                                       params, start)]
            for b, start in ((0, 0), (1, 3))] == [["triple", "input", "input"], ["beaver"]]
    assert ledger.get(trail_key(cid, 2)) is None
    authority = result.runtime.authority.sign_pk
    assert sum(tx.sender == authority and tx.payload_type == "commitment-post"
               for tx, _ in ledger.accepted) == 2
    with pytest.raises(IncompleteTrail, match="no trail metadata"):
        audit_trail(ledger, cid)


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.scn")))
def test_no_channel_reuses_a_nonce(name):
    # Each ciphertext opens under the nonce whose top bit is
    # enc_pk[src] > enc_pk[dst], and no unordered pair (one key) sees a
    # nonce twice.
    rt = run_scenario(load(name)).runtime

    def keypair(party):
        return rt.clients[party] if isinstance(party, str) else rt.registry[party].keypair

    seen = set()
    for src, dst, counter, ct in rt.bus.broadcast_log:
        nonce = (keypair(src).enc_pk > keypair(dst).enc_pk) << 95 | counter
        keys.unseal(AESGCM(keys.shared_key(keypair(dst).enc_key, keypair(src).enc_pub)),
                    nonce, ct)
        seen.add((frozenset((src, dst)), nonce))
    assert len(seen) == len(rt.bus.broadcast_log) > 0


FAULT_RUNS = sorted(label for label, (_, _, shape) in RUNS.items() if shape.get("faults"))


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.scn")) + FAULT_RUNS)
def test_every_inbox_is_empty_after_a_run(name):
    # Every message the run sent was read or drained by the party it was
    # addressed to: no node or client has one left waiting.
    cfg = run_configs()[f"{name}/{RUN_SEED}"] if name in RUNS else load(name)
    rt = run_scenario(cfg).runtime
    for party in [node.index for node in rt.registry] + list(rt.clients):
        assert rt.bus.recv_all(party) == [], party


@pytest.mark.parametrize("label", sorted(RUNS))
def test_bus_ciphertexts_match_their_pinned_digests(label):
    key = f"{label}/{RUN_SEED}"
    assert run_digests(key)["bus"] == pinned("runs")[key]["bus"]


@pytest.mark.parametrize("label", sorted(RUNS))
def test_ledger_dumps_match_their_pinned_digests(label):
    # The dump's digest and its canonical byte count, the count perfbench's
    # ledger_bytes_per_computation sums.
    key = f"{label}/{RUN_SEED}"
    got, want = run_digests(key), pinned("runs")[key]
    assert (got["ledger.tsv"], got["ledger.bytes"]) == (want["ledger.tsv"], want["ledger.bytes"])


def test_abort_scenario_timeout_and_recovery():
    cfg = load("abort")
    result = run_scenario(cfg)
    assert result.exit_code == 2
    faults = result.trace.detected_faults
    # The requester observes silence, not the injected behavior behind it.
    assert faults[0].label == "silent"
    assert faults[0].channel == "timeout"
    # Shamir honest majority: the run recovers and still produces the output.
    circuit = parse_circuit(cfg.circuit_text)
    assert result.outputs == eval_plain(circuit, cfg.inputs, Field(cfg.prime))
    # Full deposit split equally among the honest committee members.
    slash = [l for l in result.settlement.lines if l.slash][0]
    assert slash.slash == 90
    honest_fees = [l for l in result.settlement.lines if not l.slash]
    assert len(honest_fees) == 2


def test_broken_commitment_scenario_audited():
    result = run_scenario(load("broken"))
    assert result.exit_code == 2
    faults = result.trace.detected_faults
    assert faults[0].label == "broken-commitment"
    assert faults[0].channel == "audit_trail"
    guilty_node = result.trace.committee[0]
    assert faults[0].node == guilty_node


def test_broken_commitment_shifts_only_its_vss_position():
    # Committee position 0 posts a broken commitment: each VSS record of
    # broken.scn differs from the same run without the fault at position 0
    # and nowhere else, where it is the honest commitment times g.
    def posted_commitments(faults):
        cfg = load("broken")
        cfg.faults = faults
        rt = run_scenario(cfg).runtime
        addr = identity_address([rt.clients[f"owner{i}"].sign_pk
                                 for i in range(len(cfg.inputs))])
        return rt.params, [
            vss_commitments(rt.ledger, sharing_key(addr, f"input{i}"), cfg.committee,
                            rt.params)
            for i in range(len(cfg.inputs))]

    params, broken = posted_commitments(load("broken").faults)
    _, honest = posted_commitments({})
    for shifted, plain in zip(broken, honest, strict=True):
        assert [pos for pos, (b, h) in enumerate(zip(shifted, plain)) if b != h] == [0]
        assert shifted[0] == plain[0] * params.g % params.q


def test_denied_restart_share_is_rejected(monkeypatch):
    # The SPDZ restart re-shares through the loop of the first attempt, so
    # a denied re-share raises instead of handing a None pointer on.
    def deny_retry(*args, **kwargs):
        return None if args[4].endswith("-retry") else protocol_share(*args, **kwargs)

    monkeypatch.setattr(runner, "protocol_share", deny_retry)
    cfg = load("cheater")
    cfg.faults = {1: "abort-after-output"}
    with pytest.raises(LedgerRejected):
        run_scenario(cfg)


def test_each_input_evaluates_the_policy_once(monkeypatch):
    # protocol_share checks the owner against the identity's `(policy)` and
    # then places the pointer without asking again: 3 inputs, 3 checks.
    policy_checks = []

    def counted(pk, addr, q, board):
        if q == Predicate.policy():
            policy_checks.append(pk)
        return identity.check_permission(pk, addr, q, board)

    for module in (network, dht):
        monkeypatch.setattr(module, "check_permission", counted)
    result = run_scenario(load("average"))
    assert result.exit_code == 0
    assert len(policy_checks) == 3


def test_spdz_abort_restarts_with_replacement():
    cfg = load("cheater")
    cfg.faults = {1: "abort-after-output"}
    result = run_scenario(cfg)
    assert any("restart" in e for e in result.trace.events)
    assert [f.channel for f in result.trace.detected_faults] == ["timeout"]
    assert result.outputs == eval_plain(parse_circuit(cfg.circuit_text), cfg.inputs,
                                        Field(cfg.prime))
    assert result.exit_code == 2
    # The restarted attempt's trail is complete and passes the audit.
    rt = result.runtime
    assert audit_trail(load_dump(rt.ledger.dump()), result.trace.computation_id).ok


def spdz_average(faults: dict):
    """average.scn under SPDZ: a linear circuit, so only the trail audit
    can catch a lying share."""
    cfg = load("average")
    cfg.mode = "spdz"
    cfg.faults = faults
    return cfg


def settled(result, node: int) -> tuple:
    pk = dict(zip(result.trace.committee, result.trace.committee_pks))[node]
    line = next(line for line in result.settlement.lines if line.node_pk == pk)
    return line.fee, line.slash, line.reason


@pytest.mark.parametrize("faults, restarted_on, guilty", [
    ({0: "wrong-share", 1: "abort-after-output"}, "3,5,0", 3),
    ({0: "broken-commitment", 1: "abort-after-output"}, "3,5,0", 3),
    # Node 7 moves from position 1 to 0, so the audit's position 0 is node
    # 7, not the silent node 3.
    ({0: "abort-after-output", 1: "broken-commitment"}, "7,5,0", 7),
], ids=["wrong-share", "broken-commitment", "moved-position"])
def test_restarted_spdz_run_is_audited(faults, restarted_on, guilty):
    # The restarted attempt's trail is audited like a first attempt's, and
    # blame indexes the restarted committee.
    result = run_scenario(spdz_average(faults))
    assert f"event=restart committee={restarted_on}" in result.trace.events
    assert result.exit_code == 2
    assert result.trace.outcome == "cheat-detected"
    assert [(f.node, f.label) for f in result.trace.detected_faults
            if f.channel == "audit_trail"] == [(guilty, "broken-commitment")]
    assert settled(result, guilty) == (0, 100, "broken-commitment")


AUDITED_PINS = sorted(key for key, cfg in run_configs().items()
                      if cfg.mode == "spdz" and cfg.reduction is None)


@dataclasses.dataclass
class Attempt:
    """What one TrailWriter (one attempt of a computation) posted."""

    writer: object
    posts: int = 0                  # commitment-post transactions
    writes: list = dataclasses.field(default_factory=list)   # (key, batch) as posted
    closed: bool = False            # posted the metadata record
    at_first_opening: list | None = None   # kinds of the trail records on the ledger then

    def records(self, board) -> list:
        """The step records of the batches this attempt wrote, as `board`
        holds them."""
        writer, records = self.writer, []
        for k, _ in self.writes:
            records += audit.parse_steps(board.get(k), writer.n, writer.field, writer.params,
                                         len(records))
        return records


@functools.cache
def audited_attempts(key: str) -> tuple:
    """(result, attempts) of one pinned audited run, with every
    TrailWriter.post and the first spdz.open_many of each attempt logged."""
    attempts = []
    init, post, open_many = audit.TrailWriter.__init__, audit.TrailWriter.post, spdz.open_many

    def tracked_init(writer, *args):
        init(writer, *args)
        attempts.append(Attempt(writer))

    def tracked_post(writer, *writes):
        post(writer, *writes)
        attempt = next(a for a in attempts if a.writer is writer)
        attempt.posts += 1
        meta_key = trail_meta_key(writer.computation_id)
        attempt.writes += [(k, batch) for k, batch in writes if k != meta_key]
        attempt.closed |= any(k == meta_key for k, _ in writes)

    def tracked_open_many(*args):
        attempt = attempts[-1]
        if attempt.at_first_opening is None:
            attempt.at_first_opening = [rec["kind"]
                                        for rec in attempt.records(attempt.writer.board)]
        return open_many(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(audit.TrailWriter, "__init__", tracked_init)
        patch.setattr(audit.TrailWriter, "post", tracked_post)
        patch.setattr(spdz, "open_many", tracked_open_many)
        result = run_scenario(run_configs()[key])
    return result, attempts


@pytest.mark.parametrize("key", AUDITED_PINS)
def test_every_commitment_is_on_the_ledger_at_an_attempts_first_opening(key):
    # The dealer deals the triples of every layer up front, so the first
    # mask opening already finds every input step and one triple per mul.
    cfg = run_configs()[key]
    muls = sum(g.kind == "mul" for g in lower_select(parse_circuit(cfg.circuit_text)).gates)
    _, attempts = audited_attempts(key)
    assert attempts
    for attempt in attempts:
        kinds = attempt.at_first_opening
        assert (kinds.count("input"), kinds.count("triple")) == (len(cfg.inputs), muls)


@pytest.mark.parametrize("key", AUDITED_PINS)
def test_every_audited_attempt_posts_two_trail_transactions(key):
    _, attempts = audited_attempts(key)
    assert [attempt.posts for attempt in attempts] == [2] * len(attempts)


@pytest.mark.parametrize("key", AUDITED_PINS)
def test_a_failed_attempt_posts_every_step_it_wrote_at_keys_of_its_own(key):
    # Only the attempt that returns outputs posts the metadata. A MAC
    # failure or an abort posts the pending steps without it, so every
    # attempt's trail holds all of its steps, and each batch still reads
    # as posted at the end of the run: a restart writes no key twice.
    result, attempts = audited_attempts(key)
    ledger = result.runtime.ledger
    finished = [bool(result.outputs) and attempt is attempts[-1] for attempt in attempts]
    assert [attempt.closed for attempt in attempts] == finished
    for attempt in attempts:
        assert len(attempt.records(ledger)) == attempt.writer.steps
        for k, batch in attempt.writes:
            assert ledger.get(k) == batch
    written = [k for attempt in attempts for k, _ in attempt.writes]
    assert len(written) == len(set(written))


def run_with_input0_rewritten(cfg: ScenarioConfig, monkeypatch):
    """Run `cfg` with owner0 rewriting input0's VSS record between sharing
    and computing, party 1's commitment multiplied by g: the ledger lets a
    record's first writer rewrite it. Returns the result."""
    compute = runner.protocol_compute

    def rewrite_then_compute(requester, label, addr, pointers, circuit, rt, *args, **kwargs):
        sharing = sharing_key(addr, "input0")
        commitments = vss_commitments(rt.ledger, sharing, cfg.committee, rt.params)
        commitments[1] = commitments[1] * rt.params.g % rt.params.q
        owner = rt.clients["owner0"]
        rt.ledger.submit_tx(make_tx(
            owner, "kv-put",
            writes_payload([(sharing, pedersen.pack_commitments(commitments, rt.params))]),
            nonce=rt.ledger.next_nonce(owner.sign_pk)))
        return compute(requester, label, addr, pointers, circuit, rt, *args, **kwargs)

    monkeypatch.setattr(runner, "protocol_compute", rewrite_then_compute)
    return run_scenario(cfg)


def audited_chain4() -> ScenarioConfig:
    """chain4 under audited SPDZ on 11 of 16 nodes, with no fault."""
    return dataclasses.replace(run_configs()[f"spdz-wrong-share/{RUN_SEED}"], faults={})


@pytest.mark.parametrize("cfg", [load("select"), audited_chain4()], ids=["select", "chain4-n11"])
def test_a_vss_record_rewritten_before_compute_frames_nobody(cfg, monkeypatch):
    # The shares were dealt under the record as first posted, which is the
    # one the audit reads, so the rewrite names and slashes no member.
    result = run_with_input0_rewritten(cfg, monkeypatch)
    assert result.runtime.ledger.get(audit.trail_meta_key(result.trace.computation_id))
    assert (result.trace.outcome, result.exit_code) == ("ok", 0)
    assert result.trace.detected_faults == []
    assert [line.slash for line in result.settlement.lines] == [0] * cfg.committee
    assert result.outputs == eval_plain(parse_circuit(cfg.circuit_text), cfg.inputs,
                                        Field(cfg.prime))


def test_declassify_after_a_vss_record_rewrite_returns_the_input(monkeypatch):
    cfg = load("select")
    result = run_with_input0_rewritten(cfg, monkeypatch)
    rt = result.runtime
    owners = [rt.clients[f"owner{i}"] for i in range(len(cfg.inputs))]
    addr = identity_address([kp.sign_pk for kp in owners])
    assert network.mpc_declassify(owners[0], "owner0", addr, share_pointers(result)[0],
                                  rt) == (cfg.inputs[0], [])


def test_shamir_wrong_share_identified_at_committee_4():
    # With n=4, t=1 a single wrong contribution sits inside the unique
    # decoding radius: the culprit is identified and the output recovered.
    cfg = load("average")
    cfg.committee = 4
    cfg.faults = {1: "wrong-share"}
    result = run_scenario(cfg)
    assert result.exit_code == 2
    fault = result.trace.detected_faults[0]
    assert fault.label == "wrong-share"
    assert fault.channel == "share-consistency"
    circuit = parse_circuit(cfg.circuit_text)
    assert result.outputs == eval_plain(circuit, cfg.inputs, Field(cfg.prime))


@pytest.mark.parametrize("name", ["average", "cheater"])
def test_shamir_wrong_share_detected_at_committee_3(name):
    # A wrong share at committee 3 is caught but names nobody: Shamir at
    # n=3, t=1 cannot identify the liar from consistency alone, and a
    # failed SPDZ MAC check (cheater.scn) only shows that some opening was
    # wrong. Neither may silently accept a wrong value. Nobody is named, so
    # nobody is slashed: blame may only come from what the protocol can
    # show. Nothing was released, so nobody is paid either: the liar is
    # among the members.
    cfg = load(name)
    cfg.faults = {1: "wrong-share"}
    result = run_scenario(cfg)
    assert result.exit_code == 2
    assert result.trace.outcome == "cheat-detected"
    assert result.outputs == []
    assert result.trace.detected_faults == []
    assert "event=fault" not in result.trace.to_text()
    assert [line.slash for line in result.settlement.lines] == [0, 0, 0]
    assert [line.fee for line in result.settlement.lines] == [0, 0, 0]
    assert [line.reason for line in result.settlement.lines] == ["withheld"] * 3
    assert result.settlement.requester_charge == 0
    ledger = result.runtime.ledger
    assert all(ledger.account(pk).deposit == cfg.deposit
               for pk in result.trace.committee_pks)


def test_spdz_wrong_share_on_linear_circuit_caught_by_audit():
    # A linear-only circuit opens nothing mid-run, so the MAC check never
    # fires; the commitment-trail audit is what catches the lying share, and
    # it labels what it observes: an opening that breaks its commitment.
    cfg = load("cheater")
    mean3 = SCENARIOS / "mean3.circ"
    cfg.circuit_path = mean3
    cfg.circuit_text = mean3.read_text()
    cfg.inputs = [18, 27, 9]
    result = run_scenario(cfg)
    assert result.exit_code == 2
    fault = result.trace.detected_faults[0]
    assert fault.label == "broken-commitment"
    assert fault.channel == "audit_trail"


LINEAR_AFTER_REDUCTION = "in x\nin y\nin z\nm = mul x y\ns = smul 5 m\na = add s z\nout a\n"


@pytest.mark.parametrize("faults, outcome, outputs, widths", [
    ({}, "ok", [218], [3, 3]),
    ({1: "wrong-share"}, "cheat-detected", [], []),
], ids=["honest", "wrong-share"])
def test_spdz_linear_gates_run_on_the_reduced_committee(faults, outcome, outputs, widths,
                                                        monkeypatch):
    # 6 * 7 under SPDZ at committee 9 with reduction=3: the product is
    # re-shared to 3 parties, so the smul and the add after it run on the
    # reduced committee's shares. A wrong share is caught by the MAC check
    # that runs before the re-share, so nothing after it runs.
    linear = network.SpdzEngine.linear
    seen = []

    def counted(self, terms):
        seen.append(self.key.n)
        return linear(self, terms)

    monkeypatch.setattr(network.SpdzEngine, "linear", counted)
    cfg = load("cheater")
    cfg.nodes, cfg.committee, cfg.reduction, cfg.seed = 12, 9, 3, 5
    cfg.circuit_text, cfg.inputs, cfg.faults = LINEAR_AFTER_REDUCTION, [6, 7, 8], faults
    result = run_scenario(cfg)
    assert eval_plain(parse_circuit(cfg.circuit_text), cfg.inputs, Field(cfg.prime)) == [218]
    assert result.trace.outcome == outcome
    assert result.outputs == outputs
    assert result.exit_code == (2 if faults else 0)
    assert ("event=reduce parties=3" in result.trace.events) == bool(widths)
    assert seen == widths
    assert not [line for line in result.settlement.lines if line.slash]

def test_rejected_when_balance_below_threshold():
    cfg = load("average")
    cfg.fees = type(cfg.fees)(min_balance=10 ** 9)
    result = run_scenario(cfg)
    assert result.trace.outcome == "rejected"
    assert result.settlement.rejected
    assert result.outputs == []
    assert result.exit_code == 0


def assert_counts_add_up(result):
    """The trace's message counts are read off the bus: its layers sum to
    the evaluation count, and its total is every message the bus carried."""
    trace, bus = result.trace, result.runtime.bus
    assert sum(trace.per_round_messages) == trace.messages_eval
    assert trace.messages_total == bus.messages == len(bus.broadcast_log)


@functools.cache
def golden_configs() -> dict:
    """Every run tests/golden.json pins: the bundled scenarios at its
    seeds, and its "runs" section."""
    scenarios = {f"{path.stem}/{seed}": dataclasses.replace(parse_scenario(path), seed=seed)
                 for path in sorted(SCENARIOS.glob("*.scn")) for seed in SEEDS}
    return {**scenarios, **run_configs()}


@pytest.mark.parametrize("key", sorted(golden_configs()))
def test_trace_counts_add_up_on_every_pinned_run(key):
    assert_counts_add_up(run_scenario(golden_configs()[key]))


def test_a_run_rejected_for_its_balance_deals_nothing():
    # The requester's balance is checked before the first deal, so no
    # input reaches the committee or the ledger.
    cfg = load("average")
    cfg.fees = dataclasses.replace(cfg.fees, min_balance=10 ** 9)
    result = run_scenario(cfg)
    assert result.trace.outcome == "rejected"
    assert result.trace.messages_total == 0
    assert not [tx for tx, _ in result.runtime.ledger.accepted
                if tx.payload_type == "kv-put"]
    assert not [e for e in result.trace.events if e.startswith("event=share ")]
    assert_counts_add_up(result)


def test_determinism_byte_identical():
    for name in ("average", "cheater", "abort", "broken", "scaling", "select"):
        first = run_scenario(load(name))
        second = run_scenario(load(name))
        assert first.trace.to_text() == second.trace.to_text(), name
        assert first.runtime.ledger.dump() == second.runtime.ledger.dump(), name
        assert first.metrics_csv() == second.metrics_csv(), name


def public_id(cfg) -> bytes:
    """H("computation" || seed as 8 bytes big-endian || mode || 0x00 ||
    circuit file), recomputed apart from the runner."""
    return hashlib.sha256(b"computation" + cfg.seed.to_bytes(8, "big") + cfg.mode.encode()
                          + b"\x00" + cfg.circuit_path.read_bytes()).digest()


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.scn")))
def test_the_computation_id_hashes_the_public_fields(name):
    assert run_scenario(load(name)).trace.computation_id == public_id(load(name))


def test_the_computation_id_binds_the_engine():
    # select.scn as SPDZ and as Shamir at threshold 1.
    shamir = load("select")
    shamir.mode, shamir.threshold = "shamir", 1
    results = [run_scenario(cfg) for cfg in (load("select"), shamir)]
    assert [r.trace.outcome for r in results] == ["ok", "ok"]
    ids = [r.trace.computation_id for r in results]
    assert ids == [public_id(load("select")), public_id(shamir)]
    assert ids[0] != ids[1]


def test_a_trail_another_key_posts_under_a_shamir_runs_id_is_not_audited(monkeypatch):
    # The id is public, so before average.scn runs (Shamir, no trail) eve
    # posts broken.scn's failing trail, with its VSS records, under
    # average's id. The runner audits only a trail whose metadata the
    # authority wrote, so the run still ends ok and nobody is named.
    broken = run_scenario(load("broken"))
    board, source = broken.runtime.ledger, broken.trace.computation_id
    cfg = load("average")
    target = public_id(cfg)
    meta = board.get(trail_meta_key(source))
    writes = [(trail_meta_key(target), meta)]
    records = trail_records(board, source)
    for record in records:
        if record["kind"] == "input":
            copy = keys.sha256(b"eve" + record["sharing"])
            writes.append((copy, board.first(record["sharing"]).value))
            record["sharing"] = copy
    forged = reposted_trail(board, source, records)
    meta = json.loads(meta)
    for batch in range(meta["first"], meta["first"] + meta["batches"]):
        writes.append((trail_key(target, batch), forged.get(trail_key(source, batch))))
    eve = keys.KeyPair.generate(random.Random(4321))
    monkeypatch.setattr(runner, "Runtime", written_first(writes, eve))
    result = run_scenario(cfg)
    assert not audit_trail(result.runtime.ledger, target).ok
    assert result.trace.outcome == "ok" and result.exit_code == 0
    assert result.trace.detected_faults == []
    assert [line.slash for line in result.settlement.lines] == [0] * cfg.committee


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.scn")))
def test_scenario_conserves_balances_plus_deposits(name):
    cfg = load(name)
    result = run_scenario(cfg)
    accounts = result.runtime.ledger.accounts.values()
    # Genesis funds every node and every data owner with `balance`.
    assert sum(a.balance + a.deposit for a in accounts) == \
        (cfg.nodes + len(cfg.inputs)) * cfg.balance


@pytest.mark.parametrize("name, faults, rounds",
                         [(p.stem, None, 1) for p in sorted(SCENARIOS.glob("*.scn"))]
                         + [("cheater", {1: "abort-after-output"}, 2)],
                         ids=[p.stem for p in sorted(SCENARIOS.glob("*.scn"))]
                         + ["spdz-abort"])
def test_each_input_is_one_owner_transaction(name, faults, rounds, monkeypatch):
    # An input's commitments, at its sharing id, and its pointer predicate
    # carry one owner signature; the only other owner transaction is
    # owner0's identity registration. An SPDZ abort restarts the
    # computation and shares every input a second time.
    calls = []

    def counted(owner, label, addr, x, x_ref, *args, **kwargs):
        pointer = protocol_share(owner, label, addr, x, x_ref, *args, **kwargs)
        calls.append((owner.sign_pk, [sharing_key(addr, x_ref), pointer]))
        return pointer

    monkeypatch.setattr(runner, "protocol_share", counted)
    cfg = load(name)
    cfg.faults = faults if faults is not None else cfg.faults
    result = run_scenario(cfg)
    rt = result.runtime
    owners = {kp.sign_pk for label, kp in rt.clients.items() if label.startswith("owner")}
    signed = [(tx.sender, [rt.ledger.entries[h - 1].key for h in heights])
              for tx, heights in rt.ledger.accepted if tx.sender in owners]
    assert len(calls) == len(cfg.inputs) * rounds
    (registrar, registered), *inputs = signed
    assert registrar == rt.clients["owner0"].sign_pk and len(registered) == 1
    assert inputs == calls


def test_scaling_metrics_rows():
    result = run_scenario(load("scaling"))
    rows = {n: (base, hier) for n, base, hier, _ in result.metrics_rows}
    assert [n for n, *_ in result.metrics_rows] == [9, 27, 81]
    for n, (base, hier) in rows.items():
        assert base == n * (n - 1)
    ratios = [rows[n][1] / n for n in (9, 27, 81)]
    assert max(ratios) / min(ratios) < 2
    assert (rows[81][0] / 81) / (rows[9][0] / 9) >= 8


@pytest.mark.parametrize("name", ["abort", "average", "broken", "cheater", "select"])
def test_a_scenario_without_scaling_runs_no_scaling_experiment(name, monkeypatch):
    def refuse(*args):
        raise AssertionError("measure_mul_messages called without scaling=")

    monkeypatch.setattr(runner, "measure_mul_messages", refuse)
    cfg = load(name)
    assert cfg.scaling == []
    result = run_scenario(cfg)
    assert result.metrics_rows == []
    assert result.metrics_csv() == runner.METRICS_HEADER + "\n"


def test_privacy_no_plaintext_in_node_logs():
    cfg = load("average")
    result = run_scenario(cfg)
    field = Field(cfg.prime)
    bus = result.runtime.bus
    for node in result.runtime.registry:
        wiretap = bus.raw_bytes(node.index)
        for value in cfg.inputs:
            assert field.encode(value) not in wiretap
            assert str(value).encode() not in wiretap


def test_privacy_traffic_shape_independent_of_secrets():
    cfg_a = load("average")
    cfg_b = load("average")
    cfg_b.inputs = [11111, 22222, 33333]
    res_a = run_scenario(cfg_a)
    res_b = run_scenario(cfg_b)
    bus_a, bus_b = res_a.runtime.bus, res_b.runtime.bus
    for node in res_a.runtime.registry:
        assert length_sequence(bus_a, node.index) == length_sequence(bus_b, node.index)


def share_pointers(result) -> list:
    return [bytes.fromhex(e.split("pointer=")[1]) for e in result.trace.events
            if e.startswith("event=share ")]


def sum_circuit(n_inputs: int) -> str:
    lines = [f"in x{i}" for i in range(n_inputs)] + ["s1 = add x0 x1"]
    lines += [f"s{i} = add s{i - 1} x{i}" for i in range(2, n_inputs)]
    return "\n".join(lines + [f"out s{n_inputs - 1}"]) + "\n"


@pytest.mark.parametrize("n_inputs", [3, 12])
def test_input_pointers_defer_to_the_identity_acl(n_inputs):
    # The owner list is on the ledger once, in the ACL, and every pointer's
    # compute predicate defers to it.
    cfg = load("average")
    cfg.circuit_text = sum_circuit(n_inputs)
    cfg.inputs = list(range(1, n_inputs + 1))
    result = run_scenario(cfg)
    assert result.exit_code == 0
    assert result.outputs == [n_inputs * (n_inputs + 1) // 2]
    ledger = result.runtime.ledger
    pointers = share_pointers(result)
    assert len(pointers) == n_inputs
    assert [ledger.get(p) for p in pointers] == [b"(owner)"] * n_inputs


def test_restarted_inputs_defer_to_the_identity_acl():
    cfg = load("cheater")
    cfg.faults = {1: "abort-after-output"}
    result = run_scenario(cfg)
    assert any(e.startswith("event=restart committee=") for e in result.trace.events)
    values = [e.value for e in result.runtime.ledger.entries]
    assert values.count(b"(owner)") == 2 * len(result.config.inputs)


def test_average_ledger_bytes_at_seed_1():
    cfg = load("average")
    cfg.seed = 1
    entries = run_scenario(cfg).runtime.ledger.entries
    want = pinned("scenarios")["average/1"]
    assert len(entries) == want["ledger.entries"]
    assert sum(len(e.canonical_bytes()) for e in entries) == want["ledger.bytes"]


def recompute(result, requester, label):
    rt, cfg = result.runtime, result.config
    addr = identity_address([rt.clients[f"owner{i}"].sign_pk
                             for i in range(len(cfg.inputs))])
    trace = ComputationTrace(
        computation_id=bytes(32), mode=cfg.mode, seed=cfg.seed,
        committee=list(result.trace.committee),
        committee_pks=list(result.trace.committee_pks),
        requester_pk=requester.sign_pk)
    outputs = protocol_compute(requester, label, addr, share_pointers(result),
                               parse_circuit(cfg.circuit_text), rt, trace,
                               child_rng(cfg.seed, "recompute"))
    return outputs, trace


def test_compute_rights_follow_a_replaced_acl():
    result = run_scenario(load("average"))
    rt = result.runtime
    outsider = rt.add_client("outsider")
    outputs, trace = recompute(result, outsider, "outsider")
    assert outputs is None and trace.outcome == "denied"

    owners = [rt.clients[f"owner{i}"] for i in range(3)]
    addr = identity_address([kp.sign_pk for kp in owners])
    registrar = owners[0]
    rt.ledger.submit_tx(make_tx(
        registrar, "identity-registration",
        writes_payload([(addr, serialize_acl({kp.sign_pk: Predicate.owner()
                                              for kp in owners[1:]}))]),
        nonce=rt.ledger.next_nonce(registrar.sign_pk)))
    outputs, trace = recompute(result, registrar, "owner0")
    assert outputs is None and trace.outcome == "denied"
    outputs, trace = recompute(result, owners[1], "owner1")
    assert outputs == result.outputs
