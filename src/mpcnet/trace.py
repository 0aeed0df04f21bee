"""Computation traces: the structured record a scenario run leaves behind.

A trace is the sole input to fee settlement and the object the determinism
guarantee is stated over: same scenario file + seed => byte-identical trace
text. One event per line, `key=value` fields separated by single spaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field


@dataclass
class NodeTally:
    """Per-node contribution counters, the basis of computation fees."""

    rounds: int = 0
    adds: int = 0
    muls: int = 0


@dataclass(frozen=True)
class DetectedFault:
    node: int          # registry index
    behavior: str
    channel: str       # audit_trail | timeout | share-consistency


@dataclass
class ComputationTrace:
    computation_id: bytes
    mode: str
    seed: int
    committee: list            # registry indices, selection order
    committee_pks: list        # signing pks aligned with committee
    requester_pk: bytes
    per_node: dict = dc_field(default_factory=dict)   # index -> NodeTally
    per_round_messages: list = dc_field(default_factory=list)
    messages_eval: int = 0
    messages_total: int = 0
    outcome: str = "unfinished"
    output: list = dc_field(default_factory=list)
    detected_faults: list = dc_field(default_factory=list)
    events: list = dc_field(default_factory=list)
    finalized: bool = False

    def tally(self, node: int) -> NodeTally:
        return self.per_node.setdefault(node, NodeTally())

    def event(self, kind: str, **fields):
        parts = [f"event={kind}"] + [f"{k}={_fmt(v)}" for k, v in fields.items()]
        self.events.append(" ".join(parts))

    def fault(self, node: int, behavior: str, channel: str):
        f = DetectedFault(node=node, behavior=behavior, channel=channel)
        self.detected_faults.append(f)
        self.event("fault", node=node, behavior=behavior, channel=channel)

    def finalize(self, outcome: str, output=None):
        self.outcome = outcome
        self.output = list(output) if output is not None else []
        self.finalized = True

    def to_text(self) -> str:
        lines = [
            "trace-version=1",
            f"computation={self.computation_id.hex()}",
            f"mode={self.mode} seed={self.seed}",
            "committee=" + ",".join(str(i) for i in self.committee),
            f"requester={self.requester_pk.hex()}",
        ]
        lines.extend(self.events)
        for idx in sorted(self.per_node):
            t = self.per_node[idx]
            lines.append(f"node={idx} rounds={t.rounds} adds={t.adds} muls={t.muls}")
        lines.append("round-messages=" + ",".join(str(m) for m in self.per_round_messages))
        lines.append(f"messages eval={self.messages_eval} total={self.messages_total}")
        out = ",".join(str(v) for v in self.output)
        lines.append(f"outcome={self.outcome} output={out}")
        return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, bytes):
        return v.hex()
    if isinstance(v, (list, tuple)):
        return ",".join(str(x) for x in v)
    return str(v)
