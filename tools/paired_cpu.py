"""Gc-free CPU time per pass of one workload, two checkouts in alternation.

    PYTHONHASHSEED=0 python tools/paired_cpu.py --parent ../parent --change . \\
        --workload deep --seed 1 --rounds 10 --passes 5

perfbench/run.py scales every pass by the reference loops around it, so a
change that only moves where generation-2 collections land can move its
timings (see tools/gc_probe.py). This tool times the work alone. Each round
runs --passes passes of each checkout, each checkout in a fresh subprocess,
and alternates which side goes first. Each side's passes are built, run and
checked by that checkout's own unedited perfbench/workloads.py, over its
src/ and scenarios/. A subprocess runs an untimed warm-up pass 0, then
round r's passes r*K + 1 to r*K + K, the same passes on both sides. Each
pass is timed as process CPU time with gc disabled after a gc.collect().

It prints each side's median and quartiles of CPU seconds per pass, the
rounds in which the change's mean pass is cheaper, and whether every
computation on both sides passed its checks. It exits 1 if one did not.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SHOWN_FAILURES = 3      # failure reasons a side reports; every failure is counted


def time_passes(checkout: Path, workload: str, seed: int, first: int, passes: int) -> dict:
    """Warm up with pass 0, then time passes first .. first + passes - 1."""
    sys.path.insert(0, str(checkout / "perfbench"))
    import workloads

    prog = workloads.Program(checkout / "src")
    wl = workloads.Workload(workload, seed, prog, checkout)
    tally = {"cpu_s": [], "attempted": 0, "failed": 0, "reasons": []}

    def check(records):
        tally["attempted"] += len(records)
        for r in records:
            if not r.ok:
                tally["failed"] += 1
                if len(tally["reasons"]) < SHOWN_FAILURES:
                    tally["reasons"].append(f"{r.label}: {r.reason}")

    check(wl.run_pass(0))
    for index in range(first, first + passes):
        gc.collect()
        gc.disable()
        try:
            t0 = time.process_time()
            records = wl.run_pass(index)
            tally["cpu_s"].append(time.process_time() - t0)
        finally:
            gc.enable()
        check(records)
    return tally


def run_side(checkout: Path, args, first: int) -> dict:
    command = [sys.executable, __file__, "--side", str(checkout),
               "--workload", args.workload, "--seed", str(args.seed),
               "--first", str(first), "--passes", str(args.passes)]
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: the {checkout} side exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list) -> list:
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="root of the baseline checkout")
    parser.add_argument("--change", type=Path, help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--side", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--first", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.passes < 1 or args.rounds < 1:
        parser.error("--passes and --rounds must be at least 1")
    if args.side is not None:
        print(json.dumps(time_passes(args.side.resolve(), args.workload, args.seed,
                                     args.first, args.passes)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for name, checkout in sides.items():
        if not (checkout / "perfbench" / "workloads.py").is_file():
            parser.error(f"--{name} {checkout} has no perfbench/workloads.py")
    cpu = {name: [] for name in sides}
    means = {name: [] for name in sides}
    attempted = failed = 0
    for r in range(args.rounds):
        order = list(sides) if r % 2 == 0 else list(reversed(sides))
        for name in order:
            tally = run_side(sides[name], args, first=r * args.passes + 1)
            cpu[name] += tally["cpu_s"]
            means[name].append(statistics.fmean(tally["cpu_s"]))
            attempted += tally["attempted"]
            failed += tally["failed"]
            for reason in tally["reasons"]:
                print(f"{name} failed {reason}")

    print(f"workload={args.workload} seed={args.seed} rounds={args.rounds} "
          f"passes={args.passes} (process CPU seconds per pass, gc disabled)")
    for name in sides:
        q1, median, q3 = quartiles(cpu[name])
        print(f"{name}: median={median:.6f} q1={q1:.6f} q3={q3:.6f}")
    wins = sum(c < p for p, c in zip(means["parent"], means["change"]))
    ratio = statistics.median(c / p for p, c in zip(means["parent"], means["change"]))
    print(f"change cheaper in {wins} of {args.rounds} rounds; "
          f"median change/parent per round {ratio:.4f}")
    print(f"correct={'true' if failed == 0 else 'false'} attempted={attempted} failed={failed}")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
