"""Golden replay: the sha256 of every artifact of the six bundled scenarios
at seeds 1 and 7, pinned in tests/golden.json.

Each run writes what `mpcnet run` writes (stdout, exit code, trace.txt,
ledger.tsv, settlement.txt, metrics.csv), and `mpcnet audit` of its dump
adds its stdout, stderr and exit code. A change that moves an artifact on
purpose rewrites the manifest and names each moved artifact in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

from mpcnet.cli import main

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


def replay(workdir: Path) -> dict:
    """{"<scenario>/<seed>": {artifact: sha256 or exit code}} for every
    bundled scenario and seed."""
    manifest = {}
    for scenario in sorted((ROOT / "scenarios").glob("*.scn")):
        for seed in SEEDS:
            outdir = workdir / f"{scenario.stem}-{seed}"
            code, stdout, _ = cli("run", scenario, "--out", outdir, "--seed", seed)
            digests = {"run.exit": code, "run.stdout": sha256_text(stdout)}
            for name in FILES:
                digests[name] = sha256_text((outdir / name).read_text())
            comp_id = re.search(r"computation=([0-9a-f]{64})",
                                (outdir / "trace.txt").read_text()).group(1)
            code, stdout, stderr = cli("audit", outdir / "ledger.tsv", "--id", comp_id)
            digests.update({"audit.exit": code, "audit.stdout": sha256_text(stdout),
                            "audit.stderr": sha256_text(stderr)})
            manifest[f"{scenario.stem}/{seed}"] = digests
    return manifest


def test_scenario_artifacts_match_the_manifest(tmp_path):
    pinned = json.loads(MANIFEST.read_text())
    got = replay(tmp_path)
    moved = [f"{run} {name}" for run in sorted(pinned.keys() | got.keys())
             for name in sorted(pinned.get(run, {}).keys() | got.get(run, {}).keys())
             if pinned.get(run, {}).get(name) != got.get(run, {}).get(name)]
    assert not moved, "moved artifacts: " + ", ".join(moved)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        MANIFEST.write_text(json.dumps(replay(Path(workdir)), indent=1, sort_keys=True) + "\n")
