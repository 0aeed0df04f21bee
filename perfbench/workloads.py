"""The benchmark's workloads: what one pass runs and how each result is checked.

A workload is a fixed mix of computations. Pass k of a run gives every
computation in the mix its own scenario seed (and, for the generated
circuits, its own inputs), both derived from the workload seed, so the same
seed always replays the same passes. One client drives the program closed
loop: a computation starts only after the previous one has returned and has
been checked.

Every computation goes through ``mpcnet.runner.run_scenario``; the counters
are read from the objects the run leaves behind (the encrypted bus and the
ledger), never from the program's own summaries.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import random
import sys
import time
from pathlib import Path

PACKAGE = "mpcnet"
MODULES = ("runner", "scenario", "circuits", "ledger", "audit", "errors", "field")

# Committee shapes, fixed per workload (see README.md for why).
WIDE = dict(nodes=20, committee=15, shamir_t=7)
DEEP = dict(nodes=20, committee=15, reduction=3, shamir_t=1)
FAULTS = dict(nodes=16, committee=11, shamir_t=5, position=1)


class Program:
    """The mpcnet modules of one checkout, imported afresh from its src/.

    Importing drops every already-loaded mpcnet module first, so repeated
    set-ups each pay the package's import cost and never share module state.
    """

    def __init__(self, src: Path):
        src = Path(src).resolve()
        if not (src / PACKAGE / "__init__.py").is_file():
            raise FileNotFoundError(f"no {PACKAGE} package under {src}")
        for name in [m for m in sys.modules
                     if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        package = importlib.import_module(PACKAGE)
        if Path(package.__file__).resolve().parent != src / PACKAGE:
            raise ImportError(f"{PACKAGE} resolved to {package.__file__}, "
                              f"not to the checkout under {src}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"{PACKAGE}.{name}"))


def derive(*labels) -> int:
    """A 56-bit seed addressed by labels; fits the program's 8-byte seeds."""
    digest = hashlib.sha256(":".join(str(x) for x in labels).encode()).digest()
    return int.from_bytes(digest[:7], "big")


# -- generated circuits --------------------------------------------------------

def dot_circuit(k: int) -> str:
    """Inner product of two k-vectors: k independent muls, k-1 adds."""
    lines = [f"in x{i}" for i in range(k)] + [f"in y{i}" for i in range(k)]
    lines += [f"p{i} = mul x{i} y{i}" for i in range(k)]
    lines.append("s1 = add p0 p1")
    lines += [f"s{i} = add s{i - 1} p{i}" for i in range(2, k)]
    lines.append(f"out s{k - 1}")
    return "\n".join(lines) + "\n"


def chain_circuit(k: int) -> str:
    """Product of k inputs as k-1 sequential muls, one per layer."""
    lines = [f"in x{i}" for i in range(k)]
    lines.append("m1 = mul x0 x1")
    lines += [f"m{i} = mul m{i - 1} x{i}" for i in range(2, k)]
    lines.append(f"out m{k - 1}")
    return "\n".join(lines) + "\n"


# -- one computation of the mix ------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Spec:
    """One computation of a pass: a scenario template and what it must do.

    ``fault`` is the injected behaviour (None for an honest run). Generated
    circuits draw fresh inputs each pass; bundled scenarios keep theirs.
    """

    label: str
    config: object           # mpcnet.scenario.ScenarioConfig template
    circuit: object          # parsed circuit, for the plaintext oracle
    fault: str | None
    fresh_inputs: bool


@dataclasses.dataclass
class Record:
    """What one computation cost and whether it passed its checks."""

    label: str
    ok: bool
    reason: str
    messages: int
    bus_bytes: int
    ledger_entries: int
    ledger_bytes: int
    audit_s: float
    program_messages: int     # rt.bus.messages, for the self-test
    program_height: int       # rt.ledger.height, for the self-test
    trace: object             # ComputationTrace, for the self-test


class Workload:
    """A named mix of computations over one Program."""

    def __init__(self, name: str, seed: int, prog: Program, root: Path):
        if name not in BUILDERS:
            raise ValueError(f"unknown workload {name!r}; choose from {sorted(BUILDERS)}")
        self.name = name
        self.seed = seed
        self.prog = prog
        self.specs = BUILDERS[name](prog, Path(root))
        self.computation = 0     # running id, shared by a computation's spans
        self.on_computation = None   # called with each id before it runs

    def config_for(self, spec: Spec, pass_index: int):
        seed = derive(self.seed, self.name, pass_index, spec.label)
        changes = {"seed": seed}
        if spec.fresh_inputs:
            rng = random.Random(derive(seed, "inputs"))
            changes["inputs"] = [rng.randrange(1, 1 << 16)
                                 for _ in range(spec.circuit.n_inputs)]
        return dataclasses.replace(spec.config, **changes)

    def run_pass(self, pass_index: int, on_error=None) -> list:
        """Run and check every computation of the mix; returns its Records.

        An exception from the program is a failed computation, not a failed
        run: it is handed to ``on_error`` and the pass goes on.
        """
        records = []
        for spec in self.specs:
            self.computation += 1
            if self.on_computation is not None:
                self.on_computation(self.computation)
            try:
                records.append(self._run_one(spec, self.config_for(spec, pass_index)))
            except Exception as exc:  # noqa: BLE001 -- the run must go on
                if on_error is not None:
                    on_error(spec.label, exc)
                records.append(Record(spec.label, False, f"{type(exc).__name__}: {exc}",
                                      0, 0, 0, 0, 0.0, 0, 0, None))
        return records

    def _run_one(self, spec: Spec, cfg) -> Record:
        prog = self.prog
        result = prog.runner.run_scenario(cfg)
        rt = result.runtime
        field = prog.field.Field(cfg.prime)
        expected = prog.circuits.eval_plain(spec.circuit, cfg.inputs, field)

        reason = _check_outputs(spec, result, expected)
        for n, baseline, _, _ in result.metrics_rows:
            if baseline != n * (n - 1):
                reason = reason or f"flat multiplication at n={n} sent {baseline} messages"

        # The auditor's path: rebuild the board from the public dump, then
        # recompute the commitment trail if the computation posted one.
        t0 = time.perf_counter()
        board = prog.ledger.load_dump(rt.ledger.dump())
        try:
            report = prog.audit.audit_trail(board, result.trace.computation_id)
        except prog.errors.IncompleteTrail:
            report = None
        audit_s = time.perf_counter() - t0
        reason = reason or _check_audit(spec, report)

        log = rt.bus.broadcast_log
        entries = rt.ledger.entries
        return Record(
            label=spec.label, ok=not reason, reason=reason,
            messages=len(log),
            bus_bytes=sum(len(entry[3]) for entry in log),
            ledger_entries=len(entries),
            ledger_bytes=sum(len(e.canonical_bytes()) for e in entries),
            audit_s=audit_s,
            program_messages=rt.bus.messages,
            program_height=rt.ledger.height,
            trace=result.trace,
        )


def _check_outputs(spec: Spec, result, expected: list) -> str:
    """Honest runs exit 0 with the plaintext result; fault runs exit 2 and
    release either nothing or the plaintext result. Detection channels and
    blame are not pinned: they are the program's to change."""
    outputs = list(result.outputs)
    if spec.fault is None:
        if result.exit_code != 0:
            return f"honest run exited {result.exit_code}"
        if outputs != expected:
            return f"output {outputs} != plaintext {expected}"
        return ""
    if result.exit_code != 2:
        return f"{spec.fault} run exited {result.exit_code}, expected 2"
    if outputs and outputs != expected:
        return f"{spec.fault} run released {outputs} != plaintext {expected}"
    return ""


def _check_audit(spec: Spec, report) -> str:
    """A complete trail must pass when everyone was honest, and a broken
    commitment must make the audit fail."""
    if spec.fault is None and report is not None and not report.ok:
        return f"audit failed an honest run: {report.reason}"
    if spec.fault == "broken-commitment" and (report is None or report.ok):
        return "audit did not catch the broken commitment"
    return ""


# -- the four mixes ------------------------------------------------------------

def _generated(prog, label, text, mode, *, nodes, committee, threshold=1,
               reduction=None, fault=None, position=0) -> Spec:
    circuit = prog.circuits.parse_circuit(text)
    config = prog.scenario.ScenarioConfig(
        nodes=nodes, mode=mode, circuit_path=Path(f"{label}.circ"),
        circuit_text=text, inputs=[1] * circuit.n_inputs, seed=0,
        threshold=threshold, committee=committee, reduction=reduction,
        faults={position: fault} if fault else {})
    return Spec(label, config, circuit, fault, fresh_inputs=True)


def build_bundled(prog, root: Path) -> list:
    paths = sorted((root / "scenarios").glob("*.scn"))
    if not paths:
        raise FileNotFoundError(f"no scenarios under {root / 'scenarios'}")
    specs = []
    for path in paths:
        cfg = prog.scenario.parse_scenario(path)
        faults = sorted(set(cfg.faults.values()) - {"honest"})
        if len(faults) > 1:
            raise ValueError(f"{path.name}: one fault kind per scenario expected")
        specs.append(Spec(path.stem, cfg, prog.circuits.parse_circuit(cfg.circuit_text),
                          faults[0] if faults else None, fresh_inputs=False))
    return specs


def build_wide(prog, root: Path) -> list:
    text = dot_circuit(32)
    shape = dict(nodes=WIDE["nodes"], committee=WIDE["committee"])
    return [_generated(prog, "dot32-shamir", text, "shamir",
                       threshold=WIDE["shamir_t"], **shape),
            _generated(prog, "dot32-spdz", text, "spdz", **shape)]


def build_deep(prog, root: Path) -> list:
    text = chain_circuit(16)
    shape = dict(nodes=DEEP["nodes"], committee=DEEP["committee"],
                 reduction=DEEP["reduction"])
    return [_generated(prog, "chain16-shamir", text, "shamir",
                       threshold=DEEP["shamir_t"], **shape),
            _generated(prog, "chain16-spdz", text, "spdz", **shape)]


def build_faults(prog, root: Path) -> list:
    text = chain_circuit(4)
    shape = dict(nodes=FAULTS["nodes"], committee=FAULTS["committee"],
                 position=FAULTS["position"])
    t = FAULTS["shamir_t"]
    return [
        _generated(prog, "shamir-wrong-share", text, "shamir", threshold=t,
                   fault="wrong-share", **shape),
        _generated(prog, "spdz-wrong-share", text, "spdz", fault="wrong-share", **shape),
        _generated(prog, "spdz-broken-commitment", text, "spdz",
                   fault="broken-commitment", **shape),
        _generated(prog, "shamir-abort", text, "shamir", threshold=t,
                   fault="abort-after-output", **shape),
        _generated(prog, "spdz-abort", text, "spdz", fault="abort-after-output", **shape),
    ]


BUILDERS = {"bundled": build_bundled, "wide": build_wide,
            "deep": build_deep, "faults": build_faults}
