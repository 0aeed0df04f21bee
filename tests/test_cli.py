import base64
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from mpcnet.audit import trail_meta_key
from mpcnet.cli import main
from mpcnet.keys import KeyPair

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_run_average_exit_zero(tmp_path, capsys):
    code = run_cli("run", SCENARIOS / "average.scn", "--out", tmp_path)
    assert code == 0
    out = capsys.readouterr().out
    assert "outcome=ok" in out and "output=53000" in out
    for name in ("trace.txt", "ledger.tsv", "settlement.txt", "metrics.csv"):
        assert (tmp_path / name).exists()
    assert (tmp_path / "metrics.csv").read_text().splitlines()[0] == \
        "n,baseline_msgs,hierarchical_msgs,rounds"


def test_run_cheater_exit_two(tmp_path, capsys):
    code = run_cli("run", SCENARIOS / "cheater.scn", "--out", tmp_path)
    assert code == 2
    assert "slash=90" in (tmp_path / "settlement.txt").read_text()


def test_run_missing_scenario_exit_one(tmp_path, capsys):
    code = run_cli("run", tmp_path / "ghost.scn", "--out", tmp_path)
    assert code == 1
    assert "ghost.scn" in capsys.readouterr().err


def test_run_missing_circuit_exit_one(tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text("nodes=4\nmode=shamir\ncircuit=gone.circ\ninputs=1\nseed=1\n")
    code = run_cli("run", scn, "--out", tmp_path / "out")
    assert code == 1
    assert "gone.circ" in capsys.readouterr().err


def test_determinism_via_cli(tmp_path):
    for name in ("average", "cheater", "abort", "broken", "scaling", "select"):
        out1, out2 = tmp_path / f"{name}-1", tmp_path / f"{name}-2"
        run_cli("run", SCENARIOS / f"{name}.scn", "--out", out1)
        run_cli("run", SCENARIOS / f"{name}.scn", "--out", out2)
        for artifact in ("trace.txt", "ledger.tsv", "settlement.txt", "metrics.csv"):
            assert (out1 / artifact).read_bytes() == (out2 / artifact).read_bytes(), \
                f"{name}/{artifact}"


def test_audit_fail_names_party(tmp_path, capsys):
    bad_dir = tmp_path / "bad"
    run_cli("run", SCENARIOS / "broken.scn", "--out", bad_dir)
    capsys.readouterr()
    trace = (bad_dir / "trace.txt").read_text()
    comp_id = re.search(r"computation=([0-9a-f]{64})", trace).group(1)
    code = run_cli("audit", bad_dir / "ledger.tsv", "--id", comp_id)
    out = capsys.readouterr().out
    assert code == 2
    assert "audit=fail" in out and "guilty=0" in out


def test_audit_honest_spdz_run_passes(tmp_path, capsys):
    scn = tmp_path / "honest_spdz.scn"
    scn.write_text(
        "nodes=8\nmode=spdz\ncircuit=%s\ninputs=6,7\nseed=9\ncommittee=3\n"
        "deposit=50\nbalance=1000\n" % (SCENARIOS / "mul2.circ"))
    outdir = tmp_path / "out"
    assert run_cli("run", scn, "--out", outdir) == 0
    capsys.readouterr()
    trace = (outdir / "trace.txt").read_text()
    comp_id = re.search(r"computation=([0-9a-f]{64})", trace).group(1)
    assert run_cli("audit", outdir / "ledger.tsv", "--id", comp_id) == 0
    assert "audit=pass" in capsys.readouterr().out


def test_audit_corrupt_dump(tmp_path, capsys):
    dump = tmp_path / "ledger.tsv"
    outdir = tmp_path / "out"
    run_cli("run", SCENARIOS / "broken.scn", "--out", outdir)
    text = (outdir / "ledger.tsv").read_text()
    dump.write_text(text[:len(text) // 2])
    code = run_cli("audit", dump, "--id", "ab" * 32)
    assert code == 1
    assert "corrupt" in capsys.readouterr().err


def test_audit_unknown_computation(tmp_path, capsys):
    outdir = tmp_path / "out"
    run_cli("run", SCENARIOS / "average.scn", "--out", outdir)
    code = run_cli("audit", outdir / "ledger.tsv", "--id", "cd" * 32)
    assert code == 1
    assert "incomplete" in capsys.readouterr().err


def test_audit_dump_without_batch_count(tmp_path, capsys):
    # Trail metadata with a step count but no batch count is reported as an
    # incomplete trail, not a traceback.
    outdir = tmp_path / "out"
    run_cli("run", SCENARIOS / "broken.scn", "--out", outdir)
    capsys.readouterr()
    trace = (outdir / "trace.txt").read_text()
    comp_id = re.search(r"computation=([0-9a-f]{64})", trace).group(1)
    meta_key = trail_meta_key(bytes.fromhex(comp_id)).hex()
    lines = []
    for line in (outdir / "ledger.tsv").read_text().splitlines():
        height, key, value64, author = line.split("\t")
        if key == meta_key:
            meta = json.loads(base64.b64decode(value64))
            meta.pop("batches", None)
            value64 = base64.b64encode(json.dumps(meta).encode()).decode()
        lines.append("\t".join((height, key, value64, author)))
    dump = tmp_path / "per-step.tsv"
    dump.write_text("\n".join(lines) + "\n")
    assert run_cli("audit", dump, "--id", comp_id) == 1
    assert "incomplete trail" in capsys.readouterr().err


def test_keygen_deterministic(tmp_path, capsys):
    k1, k2 = tmp_path / "k1", tmp_path / "k2"
    assert run_cli("keygen", "--count", 3, "--out", k1, "--seed", 7) == 0
    assert run_cli("keygen", "--count", 3, "--out", k2, "--seed", 7) == 0
    files = sorted(p.name for p in k1.iterdir())
    assert files == ["key_000.txt", "key_001.txt", "key_002.txt"]
    for name in files:
        assert (k1 / name).read_bytes() == (k2 / name).read_bytes()
    # distinct public keys, parseable format
    pks = {KeyPair.from_text((k1 / n).read_text()).sign_pk for n in files}
    assert len(pks) == 3


def test_keygen_zero_count(tmp_path, capsys):
    assert run_cli("keygen", "--count", 0, "--out", tmp_path) == 1


def test_run_seed_override(tmp_path):
    base = tmp_path / "base"
    other = tmp_path / "other"
    run_cli("run", SCENARIOS / "average.scn", "--out", base)
    run_cli("run", SCENARIOS / "average.scn", "--out", other, "--seed", 777)
    assert "seed=777" in (other / "trace.txt").read_text()
    assert (base / "trace.txt").read_bytes() != (other / "trace.txt").read_bytes()


def test_cli_import_loads_no_numpy():
    # numpy is a test dependency (the vectorised oracle); the program must
    # start without it.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, mpcnet.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert probe.stdout.strip() == "False"
