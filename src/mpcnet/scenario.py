"""Scenario files: the line-oriented key=value format driving the simulator.

Example:

    # mean of three salaries over a 3-node committee
    nodes=8
    mode=shamir
    circuit=mean3.circ
    inputs=52000,61000,46000
    seed=42
    committee=3
    threshold=1
    deposit=100
    balance=100000
    fault.1=wrong-share          # committee position 1 misbehaves
    fee.mul=10
    scaling=9,27,81              # emit hierarchical-vs-baseline metric rows

Relative circuit paths resolve against the scenario file's directory. The
seed is mandatory: runs must be replayable.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .circuits import CircuitSyntaxError, parse_circuit
from .field import M61, is_prime
from .incentives import FeeSchedule
from .network import BEHAVIORS as FAULT_BEHAVIORS

MODES = ("shamir", "spdz")
# Integer keys a file may omit; ScenarioConfig's defaults fill them in.
OPTIONAL_INTS = ("prime", "threshold", "committee", "reduction", "deposit", "balance")
KEYS = ("nodes", "mode", "circuit", "inputs", "seed") + OPTIONAL_INTS + ("scaling",)
SEED_LIMIT = 2 ** 64    # seeds are hashed as 8 unsigned bytes


class ScenarioError(ValueError):
    """Configuration problem; the message names the offending key or path."""


@dataclass
class ScenarioConfig:
    nodes: int
    mode: str
    circuit_path: Path
    circuit_text: str
    inputs: list
    seed: int
    prime: int = M61
    threshold: int = 1
    committee: int = 3
    reduction: int | None = None
    faults: dict = dc_field(default_factory=dict)   # committee position -> behavior
    deposit: int = 100
    balance: int = 100000
    fees: FeeSchedule = dc_field(default_factory=FeeSchedule)
    scaling: list = dc_field(default_factory=list)
    source: Path | None = None


def _parse_int(raw: str, key: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ScenarioError(f"{key} must be an integer, got {raw!r}") from None


def parse_scenario(path) -> ScenarioConfig:
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    pairs = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        pairs[key.strip()] = value.strip()

    for key in pairs:
        if key not in KEYS and not key.startswith(("fault.", "fee.")):
            raise ScenarioError(f"{path}: unknown key {key!r}")
    for required in ("nodes", "mode", "circuit", "inputs", "seed"):
        if required not in pairs:
            raise ScenarioError(f"{path}: missing required key {required!r}")

    mode = pairs["mode"]
    if mode not in MODES:
        raise ScenarioError(f"{path}: mode must be one of {MODES}, got {mode!r}")
    if mode == "spdz" and "threshold" in pairs:
        raise ScenarioError(f"{path}: threshold is the Shamir degree; a spdz run "
                            "does not use it")

    circuit_path = Path(pairs["circuit"])
    if not circuit_path.is_absolute():
        circuit_path = path.parent / circuit_path
    if not circuit_path.exists():
        raise ScenarioError(f"{path}: circuit file not found: {circuit_path}")

    faults = {}
    fee_kwargs = {}
    for key, value in pairs.items():
        if key.startswith("fault."):
            pos = _parse_int(key.split(".", 1)[1], key)
            if value not in FAULT_BEHAVIORS:
                raise ScenarioError(f"{path}: unknown behavior {value!r} for {key}")
            faults[pos] = value
        elif key.startswith("fee."):
            name = {"round": "w_round", "add": "w_add", "mul": "w_mul",
                    "min_balance": "min_balance"}.get(key.split(".", 1)[1])
            if name is None:
                raise ScenarioError(f"{path}: unknown fee key {key!r}")
            fee_kwargs[name] = _parse_int(value, key)
            if fee_kwargs[name] < 0:
                raise ScenarioError(f"{path}: {key} must be non-negative")

    cfg = ScenarioConfig(
        nodes=_parse_int(pairs["nodes"], "nodes"),
        mode=mode,
        circuit_path=circuit_path,
        circuit_text=circuit_path.read_text(),
        inputs=[_parse_int(v, "inputs") for v in pairs["inputs"].split(",") if v],
        seed=_parse_int(pairs["seed"], "seed"),
        **{key: _parse_int(pairs[key], key) for key in OPTIONAL_INTS if key in pairs},
        faults=faults,
        fees=FeeSchedule(**fee_kwargs),
        scaling=[_parse_int(v, "scaling") for v in pairs.get("scaling", "").split(",") if v],
        source=path,
    )
    if not 0 <= cfg.seed < SEED_LIMIT:
        raise ScenarioError(f"{path}: seed={cfg.seed} must be in [0, 2^64)")
    if cfg.committee < 2:
        raise ScenarioError(f"{path}: committee={cfg.committee} must be at least 2")
    if cfg.committee > cfg.nodes:
        raise ScenarioError(f"{path}: committee={cfg.committee} exceeds nodes={cfg.nodes}")
    # Every metrics row multiplies a t = 1 sharing flat among its n parties.
    if cfg.scaling and min(cfg.scaling) < 3:
        raise ScenarioError(f"{path}: scaling size {min(cfg.scaling)} is below "
                            "the 3 parties a metrics row's t = 1 product needs")
    largest = max(cfg.scaling + [cfg.committee])
    if not is_prime(cfg.prime) or cfg.prime <= largest:
        raise ScenarioError(f"{path}: prime={cfg.prime} must be a prime above "
                            f"the largest party count {largest}")
    if cfg.reduction is not None and not 2 <= cfg.reduction <= cfg.committee:
        raise ScenarioError(f"{path}: reduction={cfg.reduction} must satisfy "
                            f"2 <= reduction <= committee={cfg.committee}")
    # Only nodes holding a deposit are eligible for the committee.
    if not 1 <= cfg.deposit <= cfg.balance:
        raise ScenarioError(f"{path}: deposit={cfg.deposit} must satisfy "
                            f"1 <= deposit <= balance={cfg.balance}")
    for pos in cfg.faults:
        if not 0 <= pos < cfg.committee:
            raise ScenarioError(f"{path}: fault position {pos} outside committee")
    # A Shamir product has degree 2t, which the committee's points determine
    # only under an honest majority.
    if cfg.mode == "shamir" and not 0 <= 2 * cfg.threshold < cfg.committee:
        raise ScenarioError(f"{path}: threshold={cfg.threshold} must satisfy "
                            f"0 <= 2*threshold < committee={cfg.committee}")
    try:
        n_inputs = parse_circuit(cfg.circuit_text).n_inputs
    except CircuitSyntaxError as exc:
        raise ScenarioError(f"{circuit_path}: {exc}") from None
    if len(cfg.inputs) != n_inputs:
        raise ScenarioError(f"{path}: inputs has {len(cfg.inputs)} values but "
                            f"{circuit_path.name} takes {n_inputs}")
    return cfg
