"""Golden replay: the sha256 of every artifact the program writes for a
fixed set of runs, pinned in tests/golden.json, one section per kind.

* "scenarios": the six bundled scenarios at seeds 1 and 7. Each run writes
  what `mpcnet run` writes (stdout, exit code, trace.txt, ledger.tsv,
  settlement.txt, metrics.csv) plus the dump's entry count and canonical
  byte count, and `mpcnet audit` of its dump adds its stdout, stderr and
  exit code.
* "runs": the perfbench circuits at seed 11. On 15 of 20 nodes: 32
  products in one Shamir layer at t = 7, the same under SPDZ with the audit
  trail, and 15 layers with party reduction c = 3 under Shamir at t = 1 and
  under SPDZ. On 11 of 16 nodes, 3 layers with a fault at position 1 under
  each fault the benchmark injects (Shamir at t = 5). Each run pins the
  bus's ciphertexts (a moved rng draw, a changed encoding or a changed
  ciphertext moves it), the ledger dump and its canonical byte count; a
  fault run also pins its exit code, trace.txt and settlement.txt.
  The same section holds pass 1 of every perfbench workload at workload
  seed 1 ("<workload>-pass1/<computation>"): each computation at the seed
  the benchmark derives for it and, for a generated circuit, with the
  inputs it draws, so the benchmark's own runs are pinned too.
* "demos": each demo's stdout.

A change that moves an artifact on purpose rewrites the manifest and names
each moved artifact in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import random
import re
import runpy
from pathlib import Path

from mpcnet.circuits import eval_plain, parse_circuit
from mpcnet.cli import main
from mpcnet.field import Field
from mpcnet.ledger import load_dump
from mpcnet.runner import run_scenario
from mpcnet.scenario import ScenarioConfig, parse_scenario

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = Path(__file__).with_name("golden.json")
SEEDS = (1, 7)
FILES = ("trace.txt", "ledger.tsv", "settlement.txt", "metrics.csv")


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def cli(*argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process `mpcnet` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def replay_scenarios(workdir: Path) -> dict:
    """{"<scenario>/<seed>": {artifact: sha256 or count}} for every
    bundled scenario and seed."""
    manifest = {}
    for scenario in sorted((ROOT / "scenarios").glob("*.scn")):
        for seed in SEEDS:
            outdir = workdir / f"{scenario.stem}-{seed}"
            code, stdout, _ = cli("run", scenario, "--out", outdir, "--seed", seed)
            digests = {"run.exit": code, "run.stdout": sha256_text(stdout)}
            for name in FILES:
                digests[name] = sha256_text((outdir / name).read_text())
            entries = load_dump((outdir / "ledger.tsv").read_text()).entries
            digests.update({"ledger.entries": len(entries),
                            "ledger.bytes": sum(len(e.canonical_bytes()) for e in entries)})
            comp_id = re.search(r"computation=([0-9a-f]{64})",
                                (outdir / "trace.txt").read_text()).group(1)
            code, stdout, stderr = cli("audit", outdir / "ledger.tsv", "--id", comp_id)
            digests.update({"audit.exit": code, "audit.stdout": sha256_text(stdout),
                            "audit.stderr": sha256_text(stderr)})
            manifest[f"{scenario.stem}/{seed}"] = digests
    return manifest


def dot_circuit(k: int) -> str:
    lines = [f"in x{i}" for i in range(k)] + [f"in y{i}" for i in range(k)]
    lines += [f"p{i} = mul x{i} y{i}" for i in range(k)]
    lines += ["s1 = add p0 p1"] + [f"s{i} = add s{i - 1} p{i}" for i in range(2, k)]
    return "\n".join(lines + [f"out s{k - 1}"]) + "\n"


def chain_circuit(k: int) -> str:
    lines = [f"in x{i}" for i in range(k)] + ["m1 = mul x0 x1"]
    lines += [f"m{i} = mul m{i - 1} x{i}" for i in range(2, k)]
    return "\n".join(lines + [f"out m{k - 1}"]) + "\n"


WIDE = dict(nodes=20, committee=15)
FAULTS = dict(nodes=16, committee=11)
FAULT_AT = 1


def fault_run(mode: str, fault: str, **shape) -> tuple:
    return chain_circuit(4), mode, dict(FAULTS, faults={FAULT_AT: fault}, **shape)


RUNS = {
    "dot32-shamir": (dot_circuit(32), "shamir", dict(WIDE, threshold=7)),
    "dot32-spdz": (dot_circuit(32), "spdz", WIDE),
    "chain16-shamir": (chain_circuit(16), "shamir", dict(WIDE, threshold=1, reduction=3)),
    "chain16-spdz": (chain_circuit(16), "spdz", dict(WIDE, reduction=3)),
    "shamir-wrong-share": fault_run("shamir", "wrong-share", threshold=5),
    "spdz-wrong-share": fault_run("spdz", "wrong-share"),
    "spdz-broken-commitment": fault_run("spdz", "broken-commitment"),
    "shamir-abort": fault_run("shamir", "abort-after-output", threshold=5),
    "spdz-abort": fault_run("spdz", "abort-after-output"),
}


RUN_SEED = 11
BENCH_SEED = 1
BENCH_PASS = 1
BENCH_WORKLOADS = {
    "wide": ("dot32-shamir", "dot32-spdz"),
    "deep": ("chain16-shamir", "chain16-spdz"),
    "faults": ("shamir-wrong-share", "spdz-wrong-share", "spdz-broken-commitment",
               "shamir-abort", "spdz-abort"),
}


def derive(*labels) -> int:
    """perfbench's seed derivation (workloads.derive), copied so that this
    test imports nothing from the benchmark."""
    digest = hashlib.sha256(":".join(str(x) for x in labels).encode()).digest()
    return int.from_bytes(digest[:7], "big")


def generated_config(label: str, seed: int, inputs=None) -> ScenarioConfig:
    """RUNS[label] at `seed`, on the inputs 1, 2, ... unless given."""
    text, mode, shape = RUNS[label]
    n_inputs = parse_circuit(text).n_inputs
    return ScenarioConfig(mode=mode, circuit_path=Path(f"{label}.circ"), circuit_text=text,
                          inputs=inputs or list(range(1, n_inputs + 1)), seed=seed, **shape)


def bench_config(workload: str, label: str) -> ScenarioConfig:
    """The config perfbench runs for one computation of pass 1: its seed
    derived from the workload seed and, for a generated circuit, fresh
    inputs drawn from that seed."""
    seed = derive(BENCH_SEED, workload, BENCH_PASS, label)
    if workload == "bundled":
        return dataclasses.replace(parse_scenario(ROOT / "scenarios" / f"{label}.scn"),
                                   seed=seed)
    rng = random.Random(derive(seed, "inputs"))
    n_inputs = parse_circuit(RUNS[label][0]).n_inputs
    return generated_config(label, seed, [rng.randrange(1, 1 << 16) for _ in range(n_inputs)])


@functools.cache
def run_configs() -> dict:
    """{manifest key: ScenarioConfig} of every run in the "runs" section."""
    configs = {f"{label}/{RUN_SEED}": generated_config(label, RUN_SEED) for label in RUNS}
    workloads = dict(BENCH_WORKLOADS, bundled=sorted(
        path.stem for path in (ROOT / "scenarios").glob("*.scn")))
    for workload, labels in workloads.items():
        for label in labels:
            configs[f"{workload}-pass{BENCH_PASS}/{label}"] = bench_config(workload, label)
    return configs


def bus_digest(log) -> str:
    h = hashlib.sha256()
    for src, dst, counter, ciphertext in log:
        h.update(f"{src}>{dst}#{counter}:{len(ciphertext)}:".encode() + ciphertext)
    return h.hexdigest()


@functools.cache
def run_digests(key: str) -> dict:
    """{"bus": sha256, "ledger.tsv": sha256, "ledger.bytes": count} of one
    run, computed once; a fault run adds its exit code and the digests of
    its trace and settlement."""
    cfg = run_configs()[key]
    result = run_scenario(cfg)
    ledger = result.runtime.ledger
    digests = {"bus": bus_digest(result.runtime.bus.broadcast_log),
               "ledger.tsv": sha256_text(ledger.dump()),
               "ledger.bytes": sum(len(e.canonical_bytes()) for e in ledger.entries)}
    if cfg.faults:
        digests.update({"exit": result.exit_code,
                        "trace.txt": sha256_text(result.trace.to_text()),
                        "settlement.txt": sha256_text(result.settlement.to_text())})
    else:
        circuit = parse_circuit(cfg.circuit_text)
        assert result.exit_code == 0
        assert result.outputs == eval_plain(circuit, cfg.inputs, Field(cfg.prime))
    return digests


def replay_runs() -> dict:
    """{key: run_digests(key)} for every run."""
    return {key: run_digests(key) for key in run_configs()}


def replay_demos() -> dict:
    """{"<demo>": {"stdout": sha256}} for every demo, run in process."""
    manifest = {}
    for demo in sorted((ROOT / "demos").glob("*.py")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            runpy.run_path(str(demo), run_name="__main__")
        manifest[demo.stem] = {"stdout": sha256_text(out.getvalue())}
    return manifest


def pinned(section: str) -> dict:
    return json.loads(MANIFEST.read_text())[section]


def assert_unmoved(section: str, got: dict):
    want = pinned(section)
    moved = [f"{run} {name}" for run in sorted(want.keys() | got.keys())
             for name in sorted(want.get(run, {}).keys() | got.get(run, {}).keys())
             if want.get(run, {}).get(name) != got.get(run, {}).get(name)]
    assert not moved, f"moved {section} artifacts: " + ", ".join(moved)


def test_scenario_artifacts_match_the_manifest(tmp_path):
    assert_unmoved("scenarios", replay_scenarios(tmp_path))


def test_run_digests_match_the_manifest():
    assert_unmoved("runs", replay_runs())


def test_demo_stdout_matches_the_manifest():
    assert_unmoved("demos", replay_demos())


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        manifest = {"scenarios": replay_scenarios(Path(workdir)), "runs": replay_runs(),
                    "demos": replay_demos()}
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
