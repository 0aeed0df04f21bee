"""Where a benchmark run's generation-2 collections land.

    PYTHONHASHSEED=0 python tools/gc_probe.py --checkout . --seed 1 --passes 60

perfbench/run.py scales every pass by the reference loops just before and
just after it, so a generation-2 collection that lands inside a reference
loop slows that loop and makes the passes on either side of it read faster,
while one that lands inside a pass makes that pass read slower. A change
that only moves allocations can move an end-to-end timing this way.

The probe loads the checkout's perfbench/run.py unedited (runpy, not as
__main__), builds the workload with its three set-ups, then runs its closed
loop of passes with the module's `reference_loop` wrapped, counting
generation-2 collection starts through `gc.callbacks` until --passes passes
(and the reference loop after the last) are done. It prints three counts,
as A/B/C: reference loops holding a collection, passes scaled by such a
loop, and collections inside passes. With --workload omitted it probes
bundled, wide, deep and faults in turn, each in a fresh subprocess (a
reading depends on what the process has allocated before), and prints one
line for each.
"""

from __future__ import annotations

import argparse
import gc
import math
import runpy
import sys
from pathlib import Path


WORKLOADS = ("bundled", "wide", "deep", "faults")


class Done(Exception):
    """Raised by the wrapped reference loop after the last pass."""


def probe(checkout: Path, workload: str, seed: int, passes: int) -> tuple:
    bench = runpy.run_path(str(checkout / "perfbench" / "run.py"), run_name="gc_probe_run")
    module = bench["run_passes"].__globals__      # the functions' live namespace
    checks, errors = module["Tally"](), module["Errors"]()
    for _ in range(module["SETUPS"]):
        wl, _, _ = module["set_up"](workload, seed, checks, errors)

    original = module["reference_loop"]
    loops = []                  # per reference loop: did a collection start in it
    state = {"in_loop": False, "in_passes": 0}

    def on_gc(phase, info):
        if phase != "start" or info["generation"] != 2:
            return
        if state["in_loop"]:
            loops[-1] = True
        else:
            state["in_passes"] += 1

    def wrapped() -> float:
        loops.append(False)
        state["in_loop"] = True
        try:
            seconds = original()
        finally:
            state["in_loop"] = False
        if len(loops) > passes:
            raise Done
        return seconds

    module["reference_loop"] = wrapped
    gc.callbacks.append(on_gc)
    try:
        module["run_passes"](wl, math.inf, 1, errors)
    except Done:
        pass
    finally:
        gc.callbacks.remove(on_gc)
        module["reference_loop"] = original
    if errors.seen:
        raise SystemExit(f"error: {errors.seen} computations raised")
    scaled = sum(loops[i] or loops[i + 1] for i in range(passes))
    return sum(loops), scaled, state["in_passes"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--checkout", type=Path, required=True,
                        help="root of the checkout whose perfbench/run.py and src/ run")
    parser.add_argument("--workload", help="one workload (default: each of "
                        + ", ".join(WORKLOADS) + " in turn)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    if args.workload is None:
        # Imported here only: every module a probing process loads moves
        # its readings (importing subprocess moved deep's 14/27/7 to 15/29/6).
        import subprocess
        for workload in WORKLOADS:
            subprocess.run([sys.executable, __file__, "--checkout", str(args.checkout),
                            "--workload", workload, "--seed", str(args.seed),
                            "--passes", str(args.passes)], check=True)
        return 0
    loops, scaled, inside = probe(args.checkout.resolve(), args.workload, args.seed, args.passes)
    print(f"workload={args.workload} seed={args.seed} passes={args.passes} "
          f"gen2: {loops}/{scaled}/{inside} (reference loops holding a collection / "
          f"passes scaled by such a loop / collections inside passes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
