import base64
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from mpcnet import audit, pedersen
from mpcnet.audit import trail_key, trail_meta_key
from mpcnet.cli import main
from mpcnet.field import M61, Field
from mpcnet.ledger import load_dump
from oracles import keypair_from_text

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
    lambda key, value: (key, value[:18]),
    lambda key, value: (key, b""),
    lambda key, value: (key, value[:-1]),
    lambda key, value: (key, value + b"\x00"),
    lambda key, value: (key, json.dumps(
        {"commitments": base64.b64encode(value).decode()}).encode()),
], ids=["missing", "not-json", "two-of-three", "empty", "one-byte-short", "one-byte-long",
        "json-form"])
def test_audit_dump_with_a_bad_vss_record(tmp_path, capsys, edit):
    # An input step names a VSS record the dump does not hold, or one first
    # posted as something other than 3 commitments of 9 bytes: bytes that
    # are not a record, 2 commitments, 0, 26 or 28 bytes, or the 3
    # commitments in the record's earlier JSON form. Each is an incomplete
    # trail, exit 1, and no traceback.
    outdir = tmp_path / "out"
    run_cli("run", SCENARIOS / "broken.scn", "--out", outdir)
    capsys.readouterr()
    trace = (outdir / "trace.txt").read_text()
    comp_id = re.search(r"computation=([0-9a-f]{64})", trace).group(1)
    lines = [line.split("\t") for line in (outdir / "ledger.tsv").read_text().splitlines()]
    board = load_dump((outdir / "ledger.tsv").read_text())
    vss = next(rec["sharing"] for *_, rec in posted_steps(board, bytes.fromhex(comp_id))
               if rec["kind"] == "input").hex()
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


def posted_steps(board, comp_id: bytes) -> list:
    """(batch key, batch bytes, offset in the batch, record) of every step
    of the closed trail at `comp_id`."""
    meta = json.loads(board.get(trail_meta_key(comp_id)))
    field = Field(meta["p"])
    params = pedersen.setup(field)
    steps = []
    for b in range(meta["first"], meta["first"] + meta["batches"]):
        key = trail_key(comp_id, b)
        batch = board.get(key)
        records = audit.parse_steps(batch, meta["n"], field, params, len(steps))
        steps += [(key, batch, len(audit.pack_steps(records[:i], field, params)), rec)
                  for i, rec in enumerate(records)]
    return steps


def write_edited(src: Path, dst: Path, values: dict):
    """`src`'s dump written to `dst`, with each key in `values` holding
    values[key] instead."""
    lines = []
    for line in src.read_text().splitlines():
        height, key, value64, author = line.split("\t")
        if bytes.fromhex(key) in values:
            value64 = base64.b64encode(values[bytes.fromhex(key)]).decode()
        lines.append("\t".join((height, key, value64, author)))
    dst.write_text("\n".join(lines) + "\n")


def spliced(batch: bytes, at: int, drop: int, insert: bytes = b"") -> bytes:
    return batch[:at] + insert + batch[at + drop:]


# Over M61 an element is 8 bytes and a commitment 9. A Beaver step is its
# letter, three 4-byte step indices, then 2n eps and 2n delta elements.
@pytest.mark.parametrize("part, edit", [
    ("beaver", lambda batch, at, rec: spliced(batch, at + 1, 4)),
    ("beaver", lambda batch, at, rec: spliced(batch, at + 1, 4, (99).to_bytes(4, "big"))),
    ("input", lambda batch, at, rec: spliced(batch, at, 1)),
    ("meta", lambda meta: "{not json"),
    ("meta", lambda meta: without(meta, "p")),
    ("meta", lambda meta: {**meta, "p": 100}),
    ("beaver", lambda batch, at, rec: spliced(
        batch, at + 13 + (len(rec["eps_openings"]) - 1) * 8, 8)),
    ("triple", lambda batch, at, rec: spliced(batch, at + len(rec["a"]) * 9, 1)),
    ("beaver", lambda batch, at, rec: spliced(
        batch, at + 13 + len(rec["eps_openings"]) * 8, 8, M61.to_bytes(8, "big"))),
], ids=["beaver-without-x", "beaver-x-names-step-99", "record-without-kind",
        "meta-not-json", "meta-without-p", "meta-p-not-prime", "eps-openings-not-pairs",
        "triple-a-one-byte-short", "delta-opening-not-below-p"])
def test_audit_malformed_trail_is_an_incomplete_trail(tmp_path, capsys, part, edit):
    # A trail whose metadata lacks a field or holds one of the wrong type or
    # range, or whose first step of one kind loses its x index, its kind
    # letter, an eps element or a byte of its a vector, names step 99 as x,
    # or opens delta with the element p, is an incomplete trail: exit 1 and
    # no traceback.
    outdir = tmp_path / "out"
    run_cli("run", SCENARIOS / "broken.scn", "--out", outdir)
    capsys.readouterr()
    trace = (outdir / "trace.txt").read_text()
    comp_id = bytes.fromhex(re.search(r"computation=([0-9a-f]{64})", trace).group(1))
    board = load_dump((outdir / "ledger.tsv").read_text())
    if part == "meta":
        key = trail_meta_key(comp_id)
        value = edit(json.loads(board.get(key)))
        value = value.encode() if isinstance(value, str) else json.dumps(value).encode()
    else:
        key, batch, at, rec = next(step for step in posted_steps(board, comp_id)
                                   if step[3]["kind"] == part)
        value = edit(batch, at, rec)
    dump = tmp_path / "malformed.tsv"
    write_edited(outdir / "ledger.tsv", dump, {key: value})
    assert dump.read_text() != (outdir / "ledger.tsv").read_text()
    assert run_cli("audit", dump, "--id", comp_id.hex()) == 1
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


@pytest.mark.parametrize("coefficient", [
    struct.pack(">d", 2.5), (-1).to_bytes(8, "big", signed=True), M61.to_bytes(8, "big"),
], ids=["float", "negative", "p"])
def test_audit_linear_coefficient_outside_the_field_is_an_incomplete_trail(
        tmp_path, capsys, coefficient):
    # The writer posts every linear coefficient mod p. In an 8-product SPDZ
    # dot trail, whose output the auditor evaluates with the bucket method,
    # a last linear step whose last coefficient's 8 bytes hold 2.5 as an
    # IEEE double, -1 in two's complement, or p, each an integer >= p, is an
    # incomplete trail: exit 1 and no traceback.
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
    board = load_dump((outdir / "ledger.tsv").read_text())
    key, batch, at, rec = [step for step in posted_steps(board, comp_id)
                           if step[3]["kind"] == "linear"][-1]
    last = at + 5 + (len(rec["terms"]) - 1) * 12
    dump = tmp_path / "coefficient.tsv"
    write_edited(outdir / "ledger.tsv", dump, {key: spliced(batch, last, 8, coefficient)})
    assert run_cli("audit", dump, "--id", comp_id.hex()) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: incomplete trail") and "Traceback" not in err
