"""End-to-end scenario execution: deposits, identity, share, compute, settle.

run_scenario is the single entry point behind both the CLI and the
integration tests. It is fully deterministic for a given scenario file:
every randomness consumer draws from a label-derived child of the scenario
seed, so traces and ledger dumps compare byte-identical across runs.

A requester whose balance is below the fee schedule's min_balance is
rejected before any input is dealt. The scaling experiment
(measure_mul_messages) runs only for the sizes a scenario lists under
`scaling=`, one metrics row each; any other run has no metrics rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import shamir
from .circuits import cost_model, parse_circuit
from .errors import CheatDetected
from .field import Field
from .hierarchy import hierarchical_mul
from .identity import Predicate, gen_shared_identity
from .incentives import SettlementReport, post_deposit, settle_computation
from .keys import sha256
from .ledger import LedgerRejected
from .net import LocalChannel
from .network import (
    AbortedComputation,
    Runtime,
    child_rng,
    inject_fault,
    protocol_compute,
    protocol_share,
)
from .scenario import ScenarioConfig
from .audit import audit_trail, trail_meta_key
from .spdz import gen_mac_key
from .trace import ComputationTrace

METRICS_HEADER = "n,baseline_msgs,hierarchical_msgs,rounds"
TREE_COMMITTEE = 3   # committee size c of the metrics rows' committee tree


@dataclass
class RunResult:
    config: ScenarioConfig
    runtime: Runtime
    trace: ComputationTrace
    settlement: SettlementReport
    outputs: list
    metrics_rows: list = dc_field(default_factory=list)
    exit_code: int = 0

    def metrics_csv(self) -> str:
        lines = [METRICS_HEADER]
        lines += [",".join(str(v) for v in row) for row in self.metrics_rows]
        return "\n".join(lines) + "\n"


def measure_mul_messages(n: int, field: Field, seed: int) -> tuple:
    """Measured message counts for one secure multiplication at size n:
    (flat n(n-1) baseline, committee-tree hierarchical), on scratch
    channels apart from the scenario's network."""
    rng = child_rng(seed, f"scaling:{n}")
    x = shamir.share(3, 1, n, field, rng)
    y = shamir.share(4, 1, n, field, rng)
    base_net = LocalChannel()
    shamir.mul_with_reduction(x, y, field, base_net, rng)
    hier_net = LocalChannel()
    hierarchical_mul(x, y, TREE_COMMITTEE, field, hier_net, rng)
    return base_net.messages, hier_net.messages


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    field = Field(cfg.prime)
    circuit = parse_circuit(cfg.circuit_text)
    if len(cfg.inputs) != circuit.n_inputs:
        raise ValueError(f"scenario supplies {len(cfg.inputs)} inputs but the "
                         f"circuit takes {circuit.n_inputs}")
    rt = Runtime(field, cfg.seed, cfg.nodes, genesis_balance=cfg.balance)

    # Deposits make nodes eligible for committee work.
    for node in rt.registry:
        post_deposit(node.keypair, cfg.deposit, rt.ledger)

    # The data owners form a shared identity; its ACL is what every later
    # permission check resolves against.
    owners = [rt.add_client(f"owner{i}") for i in range(circuit.n_inputs)]
    ident = gen_shared_identity(owners, [Predicate.owner() for _ in owners], rt.ledger)
    requester = owners[0]
    # Input pointers defer to the identity's ACL, so compute rights follow
    # it and the owner list is on the ledger once.
    q_compute = Predicate.owner()

    committee = rt.sample_committee(cfg.committee, child_rng(cfg.seed, "committee"))
    for pos, behavior in sorted(cfg.faults.items()):
        inject_fault(committee[pos], behavior)

    mac_key = None
    if cfg.mode == "spdz":
        mac_key = gen_mac_key(cfg.committee, field, child_rng(cfg.seed, "mac-key"))

    # The id is public (settlement, trail keys), so it hashes the request's
    # public fields only: no input value enters it, and the engine does.
    computation_id = sha256(
        b"computation" + cfg.seed.to_bytes(8, "big") + cfg.mode.encode() + b"\x00"
        + cfg.circuit_text.encode())
    trace = ComputationTrace(
        computation_id=computation_id,
        mode=cfg.mode,
        seed=cfg.seed,
        committee=[n.index for n in committee],
        committee_pks=[n.keypair.sign_pk for n in committee],
        requester_pk=requester.sign_pk,
    )
    trace.event("committee", members=[n.index for n in committee])

    # The requester's balance is known before the first deal, so a request
    # it cannot back deals nothing.
    outputs = []
    if rt.ledger.account(requester.sign_pk).balance < cfg.fees.min_balance:
        trace.event("rejected", reason="balance-below-threshold")
        trace.finalize("rejected")
    else:
        pointers = _share_inputs(cfg, rt, ident.addr, q_compute, mac_key, committee, "")
        for i, pointer in enumerate(pointers):
            trace.event("share", ref=f"input{i}", pointer=pointer)
        outputs = _run_compute(cfg, rt, trace, requester, ident.addr, pointers,
                               q_compute, circuit, mac_key, committee)

    trace.messages_total = rt.bus.messages   # no protocol message follows
    settlement = settle_computation(trace, cfg.fees, rt.ledger, rt.authority)
    trace.event("settled", rejected="yes" if settlement.rejected else "no",
                charge=settlement.requester_charge)

    # The scaling experiment runs only at the sizes the scenario names.
    rounds = cost_model(circuit).rounds
    metrics_rows = [(n, *measure_mul_messages(n, field, cfg.seed), rounds)
                    for n in cfg.scaling]

    cheated = bool(trace.detected_faults) or trace.outcome == "cheat-detected"
    return RunResult(
        config=cfg, runtime=rt, trace=trace, settlement=settlement,
        outputs=outputs, metrics_rows=metrics_rows,
        exit_code=2 if cheated else 0,
    )


def _share_inputs(cfg, rt, addr, q_compute, mac_key, committee, suffix: str) -> list:
    """Share every input with `committee` as refs input<i><suffix>, drawing
    from the share<suffix> stream; returns the pointers."""
    rng = child_rng(cfg.seed, f"share{suffix}")
    pointers = []
    for i, value in enumerate(cfg.inputs):
        pointer = protocol_share(
            rt.clients[f"owner{i}"], f"owner{i}", addr, value, f"input{i}{suffix}",
            q_compute, committee=committee, t=cfg.threshold, rt=rt, rng=rng,
            mode=cfg.mode, mac_key=mac_key)
        if pointer is None:
            raise LedgerRejected("owner was denied its own store")
        pointers.append(pointer)
    return pointers


def _run_compute(cfg, rt, trace, requester, addr, pointers, q_compute, circuit,
                 mac_key, committee):
    """Compute on `committee`; after an abort, once more on its survivors
    plus replacements. The attempt that finishes is audited when it posted
    a trail, and blame indexes that attempt's committee."""
    rng = child_rng(cfg.seed, "compute")
    for attempt in range(2):
        try:
            outputs = protocol_compute(
                requester, "owner0", addr, pointers, circuit, rt, trace, rng,
                mac_key=mac_key, reduction=cfg.reduction) or []
            break
        except CheatDetected:
            # The MAC check (or the Shamir output decoder) condemns the batch
            # without naming anyone, so nobody is blamed or slashed.
            trace.finalize("cheat-detected")
            return []
        except AbortedComputation as aborted:
            replacements = [n for n in rt.eligible_nodes()
                            if n.index not in {c.index for c in committee}]
            survivors = [n for n in committee if n.index not in aborted.nodes]
            needed = len(committee) - len(survivors)
            if attempt or len(replacements) < needed:
                trace.event("restart", possible="no")
                trace.finalize("aborted")
                return []
            committee = survivors + replacements[:needed]
            trace.event("restart", committee=[n.index for n in committee])
            for node in committee:
                if node.index not in trace.committee:
                    trace.committee.append(node.index)
                    trace.committee_pks.append(node.keypair.sign_pk)
            pointers = _share_inputs(cfg, rt, addr, q_compute, mac_key, committee,
                                     "-retry")
            rng = child_rng(cfg.seed, "compute-retry")

    # Post-hoc public audit of the commitment trail, where the authority
    # posted one. The id is public, so anyone can write under its trail
    # keys first; a trail whose metadata another key wrote is not audited.
    # The audit observes commitments that do not match their openings.
    trail_ok = True
    if rt.ledger.writer(trail_meta_key(trace.computation_id)) == rt.authority.sign_pk:
        report = audit_trail(rt.ledger, trace.computation_id)
        for pos in report.guilty:
            trace.fault(committee[pos].index, "audit_trail")
        trail_ok = report.ok

    if trace.outcome == "unfinished":
        trace.finalize("ok" if trail_ok and not trace.detected_faults
                       else "cheat-detected", outputs)
    return outputs
