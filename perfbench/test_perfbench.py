"""Self-tests of the benchmark: determinism, exact counts, tracer hygiene.

Run from the checkout root with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

COUNTS = ("messages", "bus_bytes", "ledger_entries", "ledger_bytes")


@pytest.fixture(scope="module")
def prog():
    return workloads.Program(ROOT / "src")


def one_pass(prog, name: str, seed: int, on_computation=None) -> list:
    wl = workloads.Workload(name, seed, prog, ROOT)
    wl.on_computation = on_computation
    return wl.run_pass(1)


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_pass_replays_exactly_and_counts_match_the_program(prog, name):
    first = one_pass(prog, name, seed=7)
    again = one_pass(prog, name, seed=7)
    other = one_pass(prog, name, seed=8)
    for a, b, c in zip(first, again, other):
        assert a.ok and b.ok and c.ok, (a.label, a.reason, b.reason, c.reason)
        assert [getattr(a, k) for k in COUNTS] == [getattr(b, k) for k in COUNTS]
        assert a.trace.to_text() == b.trace.to_text()
        # Counters read from outside agree with the program's own.
        assert a.messages == a.program_messages
        assert a.ledger_entries == a.program_height
        # Message, byte and entry counts do not depend on the seed; ledger
        # bytes do, by a few bytes of variable-length encodings.
        assert (a.messages, a.bus_bytes, a.ledger_entries) == \
            (c.messages, c.bus_bytes, c.ledger_entries)
    assert a.trace.to_text() != c.trace.to_text()


def test_tracer_restores_every_binding_and_changes_nothing(prog):
    package = [m for n, m in sys.modules.items()
               if n == "mpcnet" or n.startswith("mpcnet.")]
    before = {(m.__name__, k): v for m in package for k, v in vars(m).items()}
    methods = {(cls, attr): cls.__dict__[attr]
               for cls, attr in ((prog.runner.Runtime, "__init__"),
                                 (sys.modules["mpcnet.keys"].KeyPair, "generate"),
                                 (sys.modules["mpcnet.net"].LocalChannel, "send"))}
    plain = one_pass(prog, "bundled", seed=3)

    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = one_pass(prog, "bundled", seed=3,
                          on_computation=lambda cid: setattr(tracer, "computation", cid))
    finally:
        tracer.uninstall()

    after = {(m.__name__, k): v for m in package for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())
    assert all(cls.__dict__[attr] is raw for (cls, attr), raw in methods.items())
    assert [r.trace.to_text() for r in plain] == [r.trace.to_text() for r in traced]

    calls, self_s, _ = tracer.self_times()
    by_name = dict(zip(tracer.names, calls))
    assert by_name["runner.run_scenario"] == len(traced)
    # Reached only through `from .identity import check_permission`.
    assert by_name["identity.check_permission"] > 0
    # Every bus message is sealed once and sent through the inherited
    # LocalChannel.send; plain channels (the scaling rows) add more sends.
    bus_messages = sum(r.messages for r in traced)
    assert by_name["keys.seal"] == bus_messages
    assert by_name["net.LocalChannel.send"] > bus_messages
    assert tracer.counts["field.Field.mul"] > 0
    assert tracer.root_residual("runner.run_scenario") < 1e-9
    assert set(tracer.computation_id) == {r + 1 for r in range(len(traced))}


def test_failures_are_counted_and_the_pass_goes_on(prog, monkeypatch):
    wl = workloads.Workload("bundled", 5, prog, ROOT)
    real = prog.runner.run_scenario
    errors = []

    def flaky(cfg):
        if cfg.source.stem == "average":
            raise RuntimeError("injected")
        result = real(cfg)
        if cfg.source.stem == "select":
            result = dataclasses.replace(result, outputs=[o + 1 for o in result.outputs])
        return result

    monkeypatch.setattr(prog.runner, "run_scenario", flaky)
    records = wl.run_pass(1, on_error=lambda label, exc: errors.append(label))
    verdict = {r.label: r.ok for r in records}
    assert errors == ["average"]
    assert verdict == {"abort": True, "average": False, "broken": True,
                       "cheater": True, "scaling": True, "select": False}


def run_bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_output_carries_exactly_the_declared_metrics(trace, section):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    done = run_bench(ROOT, "--workload", "bundled", "--seed", "2",
                     "--seconds", "0.5", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in declared]
    assert [v["unit"] for v in result["metrics"].values()] == [m["unit"] for m in declared]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = run_bench(tmp_path, "--workload", "wide", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout.strip() == ""
