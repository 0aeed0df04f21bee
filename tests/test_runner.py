import json
from pathlib import Path

import pytest

from mpcnet import keys
from mpcnet.audit import audit_trail, trail_key, trail_meta_key
from mpcnet.circuits import eval_plain, parse_circuit
from mpcnet.errors import IncompleteTrail
from mpcnet.field import Field
from mpcnet.runner import run_scenario
from mpcnet.scenario import ScenarioError, parse_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def load(name):
    return parse_scenario(SCENARIOS / f"{name}.scn")


def test_parse_scenario_fields():
    cfg = load("average")
    assert cfg.mode == "shamir" and cfg.nodes == 8 and cfg.committee == 3
    assert cfg.inputs == [52000, 61000, 46000]
    assert cfg.fees.w_mul == 10


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


def test_average_scenario_matches_oracle():
    cfg = load("average")
    result = run_scenario(cfg)
    circuit = parse_circuit(cfg.circuit_text)
    assert result.outputs == eval_plain(circuit, cfg.inputs, Field(cfg.prime))
    assert result.exit_code == 0
    assert result.trace.outcome == "ok"
    assert result.settlement.requester_charge > 0


def test_cheater_scenario_slashes():
    result = run_scenario(load("cheater"))
    assert result.exit_code == 2
    assert result.trace.outcome == "cheat-detected"
    faults = result.trace.detected_faults
    assert len(faults) == 1 and faults[0].behavior == "wrong-share"
    assert faults[0].channel == "mac_check"
    slashes = [l for l in result.settlement.lines if l.slash > 0]
    assert len(slashes) == 1 and slashes[0].slash == 90


def test_mac_failure_leaves_the_flushed_batches_and_no_step_count():
    # The trail is flushed before the mask opening and before the MAC check
    # that fails; nothing closes it, so the audit reads it as incomplete.
    result = run_scenario(load("cheater"))
    ledger, cid = result.runtime.ledger, result.trace.computation_id
    assert result.trace.outcome == "cheat-detected"
    assert "steps" not in json.loads(ledger.get(trail_meta_key(cid)))
    assert [[rec["kind"] for rec in json.loads(ledger.get(trail_key(cid, b)))]
            for b in range(2)] == [["input", "input", "triple"], ["beaver"]]
    assert ledger.get(trail_key(cid, 2)) is None
    authority = result.runtime.authority.sign_pk
    assert sum(tx.sender == authority and tx.payload_type == "commitment-post"
               for tx, _ in ledger.accepted) == 3
    with pytest.raises(IncompleteTrail):
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
        keys.unseal(keys.shared_key(keypair(dst).enc_key, keypair(src).enc_pk), nonce, ct)
        seen.add((frozenset((src, dst)), nonce))
    assert len(seen) == len(rt.bus.broadcast_log) > 0


def test_abort_scenario_timeout_and_recovery():
    cfg = load("abort")
    result = run_scenario(cfg)
    assert result.exit_code == 2
    faults = result.trace.detected_faults
    assert faults[0].behavior == "abort-after-output"
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
    assert faults[0].behavior == "broken-commitment"
    assert faults[0].channel == "audit_trail"
    guilty_node = result.trace.committee[0]
    assert faults[0].node == guilty_node


def test_spdz_abort_restarts_with_replacement():
    cfg = load("cheater")
    cfg.faults = {1: "abort-after-output"}
    result = run_scenario(cfg)
    assert any("restart" in e for e in result.trace.events)
    assert result.trace.detected_faults[0].channel == "timeout"
    circuit = parse_circuit(cfg.circuit_text)
    assert result.outputs == eval_plain(circuit, cfg.inputs, Field(cfg.prime))
    assert result.exit_code == 2


def test_shamir_wrong_share_identified_at_committee_4():
    # With n=4, t=1 a single wrong contribution sits inside the unique
    # decoding radius: the culprit is identified and the output recovered.
    cfg = load("average")
    cfg.committee = 4
    cfg.faults = {1: "wrong-share"}
    result = run_scenario(cfg)
    assert result.exit_code == 2
    fault = result.trace.detected_faults[0]
    assert fault.behavior == "wrong-share"
    assert fault.channel == "share-consistency"
    circuit = parse_circuit(cfg.circuit_text)
    assert result.outputs == eval_plain(circuit, cfg.inputs, Field(cfg.prime))


def test_shamir_wrong_share_detected_at_committee_3():
    # n=3, t=1 cannot identify the liar from consistency alone, but it must
    # never silently accept a wrong value. Nobody is named, so nobody is
    # slashed: blame may only come from what the protocol can show. Nothing
    # was released, so nobody is paid either: the liar is among the members.
    cfg = load("average")
    cfg.faults = {1: "wrong-share"}
    result = run_scenario(cfg)
    assert result.exit_code == 2
    assert result.trace.outcome == "cheat-detected"
    assert result.outputs == []
    assert result.trace.detected_faults == []
    assert "event=fault" not in result.trace.to_text()
    assert [line.slash for line in result.settlement.lines] == [0, 0, 0]
    assert [line.fee for line in result.settlement.lines] == [0, 0, 0]
    assert result.settlement.requester_charge == 0
    ledger = result.runtime.ledger
    assert all(ledger.account(pk).deposit == cfg.deposit
               for pk in result.trace.committee_pks)


def test_spdz_wrong_share_on_linear_circuit_caught_by_audit():
    # A linear-only circuit opens nothing mid-run, so the MAC check never
    # fires; the commitment-trail audit is what catches the lying share.
    cfg = load("cheater")
    mean3 = SCENARIOS / "mean3.circ"
    cfg.circuit_path = mean3
    cfg.circuit_text = mean3.read_text()
    cfg.inputs = [18, 27, 9]
    result = run_scenario(cfg)
    assert result.exit_code == 2
    fault = result.trace.detected_faults[0]
    assert fault.behavior == "wrong-share"
    assert fault.channel == "audit_trail"


def test_rejected_when_balance_below_threshold():
    cfg = load("average")
    cfg.fees = type(cfg.fees)(min_balance=10 ** 9)
    result = run_scenario(cfg)
    assert result.trace.outcome == "rejected"
    assert result.settlement.rejected
    assert result.outputs == []
    assert result.exit_code == 0


def test_determinism_byte_identical():
    for name in ("average", "cheater", "abort", "broken", "scaling", "select"):
        first = run_scenario(load(name))
        second = run_scenario(load(name))
        assert first.trace.to_text() == second.trace.to_text(), name
        assert first.runtime.ledger.dump() == second.runtime.ledger.dump(), name
        assert first.metrics_csv() == second.metrics_csv(), name


def test_scaling_metrics_rows():
    result = run_scenario(load("scaling"))
    rows = {n: (base, hier) for n, base, hier, _ in result.metrics_rows}
    assert set(rows) == {9, 27, 81}
    for n, (base, hier) in rows.items():
        assert base == n * (n - 1)
    ratios = [rows[n][1] / n for n in (9, 27, 81)]
    assert max(ratios) / min(ratios) < 2
    assert (rows[81][0] / 81) / (rows[9][0] / 9) >= 8


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
        assert bus_a.length_sequence(node.index) == bus_b.length_sequence(node.index)
