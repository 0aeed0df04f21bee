"""Command-line entry point.

    mpcnet run <scenario.scn> --out <dir> [--seed <u64>]
    mpcnet audit <ledger.tsv> --id <hex computation id>
    mpcnet keygen --count <n> --out <dir> [--seed <u64>]

Exit codes are a stable contract: 0 for an honest completion (or a passing
audit), 2 when cheating was detected (or an audit fails), 1 for
configuration and input errors.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from .audit import audit_trail
from .errors import CorruptDump, IncompleteTrail
from .keys import KeyPair
from .ledger import load_dump
from .runner import run_scenario
from .scenario import SEED_LIMIT, ScenarioError, parse_scenario

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHEAT = 2


def cmd_run(args) -> int:
    try:
        cfg = parse_scenario(args.scenario)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.seed is not None:
        if not 0 <= args.seed < SEED_LIMIT:
            print(f"error: --seed must be in [0, 2^64), got {args.seed}", file=sys.stderr)
            return EXIT_CONFIG
        cfg.seed = args.seed
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    result = run_scenario(cfg)
    (outdir / "trace.txt").write_text(result.trace.to_text())
    (outdir / "ledger.tsv").write_text(result.runtime.ledger.dump())
    (outdir / "settlement.txt").write_text(result.settlement.to_text())
    (outdir / "metrics.csv").write_text(result.metrics_csv())
    print(f"outcome={result.trace.outcome} "
          f"output={','.join(str(v) for v in result.outputs)} "
          f"messages={result.trace.messages_total}")
    for fault in result.trace.detected_faults:
        print(f"detected node={fault.node} label={fault.label} "
              f"channel={fault.channel}")
    return result.exit_code


def cmd_audit(args) -> int:
    path = Path(args.dump)
    if not path.exists():
        print(f"error: dump not found: {path}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        board = load_dump(path.read_text(encoding="utf-8"))
    except (CorruptDump, UnicodeDecodeError) as exc:
        print(f"error: corrupt dump: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        computation_id = bytes.fromhex(args.id)
    except ValueError:
        print(f"error: --id must be hex, got {args.id!r}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        report = audit_trail(board, computation_id)
    except IncompleteTrail as exc:
        print(f"error: incomplete trail: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if report.ok:
        print("audit=pass")
        return EXIT_OK
    guilty = ",".join(str(i) for i in report.guilty)
    print(f"audit=fail guilty={guilty} reason={report.reason}")
    return EXIT_CHEAT


def cmd_keygen(args) -> int:
    if args.count < 1:
        print("error: --count must be at least 1", file=sys.stderr)
        return EXIT_CONFIG
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(args.seed) if args.seed is not None else random.SystemRandom()
    for i in range(args.count):
        kp = KeyPair.generate(rng)
        try:
            (outdir / f"key_{i:03d}.txt").write_text(kp.to_text())
        except OSError as exc:
            print(f"error: cannot write key file: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        print(f"key_{i:03d} sign_pk={kp.sign_pk.hex()}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpcnet",
        description="Desk-scale privacy-enforcing computation network simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario end to end")
    p_run.add_argument("scenario", help="scenario file (.scn)")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario's seed")
    p_run.set_defaults(func=cmd_run)

    p_audit = sub.add_parser("audit", help="replay a commitment-trail audit offline")
    p_audit.add_argument("dump", help="ledger dump file (.tsv)")
    p_audit.add_argument("--id", required=True, help="computation id (hex)")
    p_audit.set_defaults(func=cmd_audit)

    p_key = sub.add_parser("keygen", help="generate node keypair files")
    p_key.add_argument("--count", type=int, required=True)
    p_key.add_argument("--out", required=True)
    p_key.add_argument("--seed", type=int, default=None)
    p_key.set_defaults(func=cmd_keygen)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
