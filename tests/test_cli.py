import base64
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mpcnet import pedersen
from mpcnet.audit import trail_key, trail_meta_key
from mpcnet.cli import main
from mpcnet.field import M61, Field
from oracles import keypair_from_text

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
M61_PARAMS = pedersen.setup(Field(M61))


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
    lines = (tmp_path / "settlement.txt").read_text().splitlines()[1:]
    assert lines and all(" slash=0 " in line for line in lines)


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


@pytest.mark.parametrize("edit, named", [
    ("inputs=5,8", "inputs"),
    ("threshold=5", "threshold"),
    ("threshold=2", "threshold"),
    ("circuit=bad.circ", "line 4"),
    ("fee.mul=-1", "fee.mul"),
    ("fee.storage=1", "fee.storage"),
    ("reduction=1", "reduction"),
    ("reduction=5", "reduction"),
    ("deposit=0", "deposit"),
    ("prime=4", "prime"),
    ("scaling=3,2", "scaling"),
    ("committee=2", "committee"),
    ("seed=-1", "seed"),
    # keys the run does not read
    ("scaling_c=1", "scaling_c"),
    ("comittee=5", "comittee"),
    ("reductoin=3", "reductoin"),
])
def test_run_inconsistent_scenario_exits_one_without_traceback(tmp_path, edit, named):
    (tmp_path / "bad.circ").write_text("in a\nin b\nin c\nd = mul a z\nout d\n")
    (tmp_path / "mean3.circ").write_text((SCENARIOS / "mean3.circ").read_text())
    key = edit.partition("=")[0]
    lines = [line for line in (SCENARIOS / "average.scn").read_text().splitlines()
             if not line.startswith(key + "=")] + [edit]
    scn = tmp_path / "edited.scn"
    scn.write_text("\n".join(lines) + "\n")
    outdir = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "mpcnet.cli", "run", str(scn), "--out", str(outdir)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and named in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not outdir.exists()


def test_run_seed_override_out_of_range_exits_one(tmp_path, capsys):
    outdir = tmp_path / "out"
    assert run_cli("run", SCENARIOS / "average.scn", "--out", outdir, "--seed", -1) == 1
    assert capsys.readouterr().err.startswith("error: --seed")
    assert not outdir.exists()


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


def test_audit_dump_that_is_not_utf8_is_corrupt(tmp_path, capsys):
    outdir = tmp_path / "out"
    run_cli("run", SCENARIOS / "average.scn", "--out", outdir)
    raw = (outdir / "ledger.tsv").read_bytes()
    dump = tmp_path / "ledger.tsv"
    dump.write_bytes(raw[:50] + b"\xff" + raw[51:])
    capsys.readouterr()
    assert run_cli("audit", dump, "--id", "ab" * 32) == 1
    assert capsys.readouterr().err.startswith("error: corrupt dump: 'utf-8' codec")


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


@pytest.mark.parametrize("edit", [
    lambda key, value: (bytes(32).hex(), value),
    lambda key, value: (key, b"{not json"),
    lambda key, value: (key, json.dumps({"commitments": pedersen.encode_commitments(
        pedersen.decode_commitments(json.loads(value)["commitments"], 3, M61_PARAMS)[:2],
        M61_PARAMS)}).encode()),
], ids=["missing", "not-json", "two-of-three"])
def test_audit_dump_with_a_bad_vss_record(tmp_path, capsys, edit):
    # An input step names a VSS record the dump does not hold, holds as
    # something other than JSON, or holds with 2 commitments for 3 parties:
    # an incomplete trail, exit 1, and no traceback.
    outdir = tmp_path / "out"
    run_cli("run", SCENARIOS / "broken.scn", "--out", outdir)
    capsys.readouterr()
    trace = (outdir / "trace.txt").read_text()
    comp_id = re.search(r"computation=([0-9a-f]{64})", trace).group(1)
    first_batch = trail_key(bytes.fromhex(comp_id), 0).hex()
    lines = [line.split("\t") for line in (outdir / "ledger.tsv").read_text().splitlines()]
    batch = next(json.loads(base64.b64decode(v)) for _, k, v, _ in lines if k == first_batch)
    vss = next(rec["sharing"] for rec in batch if rec["kind"] == "input")
    edited = []
    for height, key, value64, author in lines:
        if key == vss:
            key, value = edit(key, base64.b64decode(value64))
            value64 = base64.b64encode(value).decode()
        edited.append("\t".join((height, key, value64, author)))
    dump = tmp_path / "bad-vss.tsv"
    dump.write_text("\n".join(edited) + "\n")
    assert run_cli("audit", dump, "--id", comp_id) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: incomplete trail") and "Traceback" not in err


def without(record: dict, field: str) -> dict:
    return {k: v for k, v in record.items() if k != field}


def one_byte_short(blob: str) -> str:
    return base64.b64encode(base64.b64decode(blob)[:-1]).decode()


def first_element_p(blob: str) -> str:
    """An openings blob whose first element is p (M61), one past the field."""
    raw = base64.b64decode(blob)
    return base64.b64encode(M61.to_bytes(8, "big") + raw[8:]).decode()


@pytest.mark.parametrize("part, edit", [
    ("beaver", lambda rec: without(rec, "x")),
    ("beaver", lambda rec: {**rec, "x": 99}),
    ("input", lambda rec: without(rec, "kind")),
    ("meta", lambda meta: "{not json"),
    ("meta", lambda meta: without(meta, "p")),
    ("meta", lambda meta: {**meta, "p": 100}),
    ("beaver", lambda rec: {**rec, "eps_openings": [1, 2, 3]}),
    ("triple", lambda rec: {**rec, "a": one_byte_short(rec["a"])}),
    ("beaver", lambda rec: {**rec, "delta_openings": first_element_p(rec["delta_openings"])}),
], ids=["beaver-without-x", "beaver-x-names-step-99", "record-without-kind",
        "meta-not-json", "meta-without-p", "meta-p-not-prime", "eps-openings-not-pairs",
        "triple-a-one-byte-short", "delta-opening-not-below-p"])
def test_audit_malformed_trail_is_an_incomplete_trail(tmp_path, capsys, part, edit):
    # A trail whose metadata or first record of one kind lacks a field, or
    # holds one of the wrong type or range, is an incomplete trail: exit 1
    # and no traceback.
    outdir = tmp_path / "out"
    run_cli("run", SCENARIOS / "broken.scn", "--out", outdir)
    capsys.readouterr()
    trace = (outdir / "trace.txt").read_text()
    comp_id = re.search(r"computation=([0-9a-f]{64})", trace).group(1)
    meta_key = trail_meta_key(bytes.fromhex(comp_id)).hex()
    batch_keys = {trail_key(bytes.fromhex(comp_id), b).hex() for b in range(16)}
    edited, done = [], False
    for line in (outdir / "ledger.tsv").read_text().splitlines():
        height, key, value64, author = line.split("\t")
        value = None
        if part == "meta" and key == meta_key:
            value = edit(json.loads(base64.b64decode(value64)))
        elif part != "meta" and key in batch_keys and not done:
            records = json.loads(base64.b64decode(value64))
            pos = next((i for i, rec in enumerate(records) if rec["kind"] == part), None)
            if pos is not None:
                records[pos], done = edit(records[pos]), True
                value = records
        if value is not None:
            raw = value.encode() if isinstance(value, str) else json.dumps(value).encode()
            value64 = base64.b64encode(raw).decode()
        edited.append("\t".join((height, key, value64, author)))
    dump = tmp_path / "malformed.tsv"
    dump.write_text("\n".join(edited) + "\n")
    assert dump.read_text() != (outdir / "ledger.tsv").read_text()
    assert run_cli("audit", dump, "--id", comp_id) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: incomplete trail") and "Traceback" not in err


@pytest.mark.parametrize("p", [3.0, 37.0, True], ids=["3.0", "37.0", "true"])
def test_audit_trail_modulus_that_is_not_an_int_is_an_incomplete_trail(tmp_path, capsys, p):
    # select.scn's trail metadata with "p" a float equal to a prime that
    # is_prime's small-prime loop accepts, or a bool: exit 1 and no
    # traceback.
    outdir = tmp_path / "out"
    assert run_cli("run", SCENARIOS / "select.scn", "--out", outdir) == 0
    capsys.readouterr()
    comp_id = re.search(r"computation=([0-9a-f]{64})",
                        (outdir / "trace.txt").read_text()).group(1)
    meta_key = trail_meta_key(bytes.fromhex(comp_id)).hex()
    edited = []
    for line in (outdir / "ledger.tsv").read_text().splitlines():
        height, key, value64, author = line.split("\t")
        if key == meta_key:
            meta = {**json.loads(base64.b64decode(value64)), "p": p}
            value64 = base64.b64encode(json.dumps(meta).encode()).decode()
        edited.append("\t".join((height, key, value64, author)))
    dump = tmp_path / "modulus.tsv"
    dump.write_text("\n".join(edited) + "\n")
    assert dump.read_text() != (outdir / "ledger.tsv").read_text()
    assert run_cli("audit", dump, "--id", comp_id) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: incomplete trail") and "Traceback" not in err


def test_keygen_deterministic(tmp_path, capsys):
    k1, k2 = tmp_path / "k1", tmp_path / "k2"
    assert run_cli("keygen", "--count", 3, "--out", k1, "--seed", 7) == 0
    assert run_cli("keygen", "--count", 3, "--out", k2, "--seed", 7) == 0
    files = sorted(p.name for p in k1.iterdir())
    assert files == ["key_000.txt", "key_001.txt", "key_002.txt"]
    for name in files:
        assert (k1 / name).read_bytes() == (k2 / name).read_bytes()
    # distinct public keys, parseable format
    pks = {keypair_from_text((k1 / n).read_text()).sign_pk for n in files}
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


@pytest.mark.parametrize("coefficient", [2.5, -1, "p"], ids=["float", "negative", "p"])
def test_audit_linear_coefficient_outside_the_field_is_an_incomplete_trail(
        tmp_path, capsys, coefficient):
    # The writer posts every linear coefficient mod p. In an 8-product SPDZ
    # dot trail, whose output the auditor evaluates with the bucket method,
    # a last linear record whose last coefficient is not an integer in
    # [0, p) is an incomplete trail: exit 1 and no traceback.
    k = 8
    circuit = tmp_path / "dot8.circ"
    circuit.write_text("\n".join(
        [f"in x{i}" for i in range(k)] + [f"in y{i}" for i in range(k)]
        + [f"p{i} = mul x{i} y{i}" for i in range(k)] + ["s1 = add p0 p1"]
        + [f"s{i} = add s{i - 1} p{i}" for i in range(2, k)] + [f"out s{k - 1}"]) + "\n")
    scn = tmp_path / "dot8.scn"
    scn.write_text(f"nodes=8\nmode=spdz\ncircuit={circuit}\n"
                   f"inputs={','.join(str(3 + i) for i in range(2 * k))}\nseed=3\n"
                   "committee=3\ndeposit=50\nbalance=1000\n")
    outdir = tmp_path / "out"
    assert run_cli("run", scn, "--out", outdir) == 0
    capsys.readouterr()
    trace = (outdir / "trace.txt").read_text()
    comp_id = bytes.fromhex(re.search(r"computation=([0-9a-f]{64})", trace).group(1))
    lines = [line.split("\t") for line in (outdir / "ledger.tsv").read_text().splitlines()]
    values = {key: value64 for _, key, value64, _ in lines}

    def posted(key):
        return json.loads(base64.b64decode(values[key.hex()]))

    meta = posted(trail_meta_key(comp_id))
    batch_key = next(key for key in (trail_key(comp_id, b).hex()
                                     for b in reversed(range(meta["batches"])))
                     if any(rec["kind"] == "linear" for rec in posted(bytes.fromhex(key))))
    records = posted(bytes.fromhex(batch_key))
    linear = [rec for rec in records if rec["kind"] == "linear"][-1]
    linear["terms"][-1][0] = meta["p"] if coefficient == "p" else coefficient
    edited = []
    for height, key, value64, author in lines:
        if key == batch_key:
            value64 = base64.b64encode(json.dumps(records).encode()).decode()
        edited.append("\t".join((height, key, value64, author)))
    dump = tmp_path / "coefficient.tsv"
    dump.write_text("\n".join(edited) + "\n")
    assert run_cli("audit", dump, "--id", comp_id.hex()) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: incomplete trail") and "Traceback" not in err
