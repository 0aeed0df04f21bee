"""Known defects: one test per hole that ROADMAP.md names, each asserting
the fixed behaviour and marked xfail(strict=True, reason="ROADMAP item N").

Such a test fails today for the reason its item gives. The change that
closes the hole removes the marker; strict mode turns an unexpected pass
into a failure, so a fix cannot go unnoticed and a test here cannot start
passing by accident. Only defects that ROADMAP.md names belong here.
"""

import random
import re
from pathlib import Path

import pytest

from mpcnet.audit import trail_key, trail_meta_key
from mpcnet.cli import main
from mpcnet.keys import KeyPair
from mpcnet.runner import run_scenario
from mpcnet.scenario import parse_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14")
def test_a_dump_whose_trail_authors_never_signed_is_rejected(tmp_path, capsys):
    # select.scn's trail entries, with the author column rewritten to a
    # key that signed nothing: the dump carries no signature, so nothing
    # ties an entry to its author.
    outdir = tmp_path / "out"
    assert main(["run", str(SCENARIOS / "select.scn"), "--out", str(outdir)]) == 0
    comp_id = bytes.fromhex(re.search(r"computation=([0-9a-f]{64})",
                                      (outdir / "trace.txt").read_text()).group(1))
    stranger = KeyPair.generate(random.Random(14)).sign_pk.hex()
    trail = {trail_key(comp_id, b).hex() for b in range(16)} | {trail_meta_key(comp_id).hex()}
    lines, rewritten = [], 0
    for line in (outdir / "ledger.tsv").read_text().splitlines():
        height, key, value64, author = line.split("\t")
        if key in trail:
            author, rewritten = stranger, rewritten + 1
        lines.append("\t".join((height, key, value64, author)))
    assert rewritten == 4
    dump = tmp_path / "unsigned.tsv"
    dump.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["audit", str(dump), "--id", comp_id.hex()]) == 1
    assert capsys.readouterr().err.startswith("error: corrupt dump")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 7")
def test_a_restarted_spdz_run_writes_every_trail_key_once():
    # average.scn under SPDZ, with position 1 silent at the output: the
    # restart posts its trail under the aborted attempt's keys.
    cfg = parse_scenario(SCENARIOS / "average.scn")
    cfg.mode = "spdz"
    cfg.faults = {1: "abort-after-output"}
    result = run_scenario(cfg)
    assert any(e.startswith("event=restart committee=") for e in result.trace.events)
    ledger = result.runtime.ledger
    written = [ledger.entries[h - 1].key for tx, heights in ledger.accepted
               if tx.payload_type == "commitment-post" for h in heights]
    assert written
    assert len(written) == len(set(written)), [
        key.hex()[:16] for key in written if written.count(key) > 1]
