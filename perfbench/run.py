"""mpcnet benchmark: closed-loop passes of one workload, checked and timed.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout: the program is imported from the
checkout's ``src/`` and the bundled scenarios are read from its
``scenarios/``. One client runs one pass after another (no threads, no
overlap) until ``--seconds`` have passed, checking every computation.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs half the
time untraced and half with per-layer spans installed, prints the per-layer
metrics and the tracing overhead, and writes the spans to
``perfbench/out/spans-<workload>.tsv.gz``. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUPS = 3            # set-ups per run; setup_s is their median
P90_MIN_PASSES = 100  # p90 is printed only with at least ten passes beyond it
SHOWN_ERRORS = 3      # tracebacks printed per run; every failure is counted

# The host's speed drifts by up to a third over tens of seconds, and a
# 20-second run cannot average that out. So every pass and every set-up is
# bracketed by a fixed reference workload, and timings are reported in
# reference seconds: the time the work would take on a host that runs
# REF_PER_S reference workloads per second. Wall seconds are printed too.
REF_ITERATIONS = 8_000
REF_PER_S = 100
REF_MODULUS = (1 << 67) - 187
REF_EXPONENT = 0x1F3A5B7C9D2E4F61

# Primitive unit costs: time per call of the span that does the work. For
# the leaf spans that is self_s / calls; a permission check's work is its
# children (ACL parsing and the ledger read), so its whole duration counts.
UNIT_COSTS = {
    "unit.shamir_share_us": "shamir.share",
    "unit.shamir_reconstruct_us": "shamir.interpolate_at_zero",
    "unit.pedersen_commit_us": "pedersen.commit",
    "unit.aes_gcm_seal_us": "keys.seal",
    "unit.ed25519_sign_us": "keys.KeyPair.sign",
    "unit.ed25519_verify_us": "keys.verify",
    "unit.predicate_check_us": "identity.check_permission",
}


def reference_loop() -> float:
    """Seconds the host takes right now for a fixed mix of Python work.

    The mix is what the simulator spends its time on: small-integer
    arithmetic, allocating tuples and strings into a dict, and modular
    exponentiation with a 67-bit modulus (the Pedersen group's size). A
    plain arithmetic loop tracked the host's drift only half as well.
    """
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(REF_ITERATIONS):
        acc += i * i % 7
        table[i] = (i, str(i))
        if i % 20 == 0:
            acc ^= pow(3 + i, REF_EXPONENT + i, REF_MODULUS)
    return time.perf_counter() - t0


class Tally:
    """Counts and times over a stretch of passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.pass_s = []
        self.pass_ref_s = []
        self.audit_s = []            # auditor time per pass
        self.audit_ref_s = []
        self.ref_loop_s = []
        self.sums = dict(messages=0, bus_bytes=0, ledger_entries=0, ledger_bytes=0)

    def add_pass(self, records: list, seconds: float, ref_loop_s: float):
        scale = 1 / (REF_PER_S * ref_loop_s)     # reference seconds per second
        audit_s = sum(r.audit_s for r in records)
        self.pass_s.append(seconds)
        self.pass_ref_s.append(seconds * scale)
        self.audit_s.append(audit_s)
        self.audit_ref_s.append(audit_s * scale)
        self.ref_loop_s.append(ref_loop_s)
        self.add_checks(records)
        for r in records:
            for key in self.sums:
                self.sums[key] += getattr(r, key)

    def add_checks(self, records: list):
        self.attempted += len(records)
        self.failed += sum(1 for r in records if not r.ok)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def per_computation(self, key: str) -> float:
        return self.sums[key] / self.attempted

    def per_pass(self, value: float) -> float:
        return value / len(self.pass_s)

    def throughput(self) -> tuple:
        """Completed computations per second and per reference second."""
        return (self.completed / sum(self.pass_s),
                self.completed / sum(self.pass_ref_s))


class Errors:
    """Prints the first few tracebacks of a run; the rest are only counted."""

    def __init__(self):
        self.seen = 0

    def __call__(self, label: str, exc: BaseException):
        self.seen += 1
        if self.seen <= SHOWN_ERRORS:
            print(f"computation {label} raised:", file=sys.stderr)
            traceback.print_exception(exc, file=sys.stderr)


def set_up(name: str, seed: int, checks: Tally, on_error):
    """Import the program, build the workload, run one untimed warm-up pass.

    Returns the workload, the wall seconds, and the reference seconds.
    """
    ref_before = reference_loop()
    t0 = time.perf_counter()
    prog = workloads.Program(SRC)
    wl = workloads.Workload(name, seed, prog, ROOT)
    records = wl.run_pass(0, on_error=on_error)
    seconds = time.perf_counter() - t0
    ref_loop_s = (ref_before + reference_loop()) / 2
    checks.add_checks(records)
    return wl, seconds, seconds / (REF_PER_S * ref_loop_s)


def run_passes(wl, seconds: float, first_pass: int, on_error) -> Tally:
    """Closed loop: whole passes, back to back, until `seconds` have passed.

    The reference loop runs between passes, outside the timed interval; a
    pass is scaled by the mean of the loops just before and just after it.
    """
    tally = Tally()
    index = first_pass
    begin = time.perf_counter()
    ref_before = reference_loop()
    while True:
        t0 = time.perf_counter()
        records = wl.run_pass(index, on_error=on_error)
        t1 = time.perf_counter()
        ref_after = reference_loop()
        tally.add_pass(records, t1 - t0, (ref_before + ref_after) / 2)
        ref_before = ref_after
        index += 1
        if t1 - begin >= seconds:
            return tally


def end_to_end(tally: Tally, setup_s: float) -> dict:
    return {
        "computations_per_ref_s": (tally.throughput()[1], "1/ref_s"),
        "pass_ref_s.p50": (statistics.median(tally.pass_ref_s), "ref_s"),
        "audit_ref_s.p50": (statistics.median(tally.audit_ref_s), "ref_s"),
        "messages_per_computation": (tally.per_computation("messages"), "count"),
        "bus_bytes_per_computation": (tally.per_computation("bus_bytes"), "bytes"),
        "ledger_entries_per_computation": (tally.per_computation("ledger_entries"), "count"),
        "ledger_bytes_per_computation": (tally.per_computation("ledger_bytes"), "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def field_mul_ns(prog, seed: int) -> float:
    """Median ns per Field.mul over M61 operands drawn from the seed."""
    field = prog.field.Field(prog.field.M61)
    rng = random.Random(workloads.derive(seed, "field.mul"))
    pairs = [(field.rand(rng), field.rand(rng)) for _ in range(2000)]
    mul = field.mul
    samples = []
    for _ in range(7):
        t0 = time.perf_counter_ns()
        for _ in range(25):
            for a, b in pairs:
                mul(a, b)
        samples.append((time.perf_counter_ns() - t0) / (25 * len(pairs)))
    return statistics.median(samples)


def per_layer(wl, seconds: float, seed: int, on_error) -> tuple:
    """Untraced half, then traced half; returns (metrics, tallies, residual)."""
    untraced = run_passes(wl, seconds / 2, first_pass=1, on_error=on_error)
    mul_ns = field_mul_ns(wl.prog, seed)
    tracer = spans.Tracer()
    wl.on_computation = lambda cid: setattr(tracer, "computation", cid)
    tracer.install()
    try:
        traced = run_passes(wl, seconds / 2, first_pass=1 + len(untraced.pass_s),
                            on_error=on_error)
    finally:
        tracer.uninstall()
        wl.on_computation = None
    calls, self_s, total_s = tracer.self_times()
    residual = tracer.root_residual("runner.run_scenario")
    if residual > 1e-6:
        raise ValueError(f"self times under run_scenario miss {residual:.3g} s")
    tracer.write(OUT / f"spans-{wl.name}.tsv.gz")

    metrics = {}
    for i, name in enumerate(tracer.names):
        metrics[f"{name}.calls"] = (traced.per_pass(int(calls[i])), "count")
        metrics[f"{name}.self_s"] = (traced.per_pass(float(self_s[i])), "s")
    for name, count in tracer.counts.items():
        metrics[f"{name}.calls"] = (traced.per_pass(count), "count")
    metrics["field.mul_ns"] = (mul_ns, "ns")
    metrics["net.messages"] = (traced.per_pass(traced.sums["messages"]), "count")
    metrics["net.bytes"] = (traced.per_pass(traced.sums["bus_bytes"]), "bytes")
    lookups = int(calls[tracer.names.index("dht.DhtNetwork.dht_lookup")])
    metrics["dht.lookup.hops"] = (tracer.lookup_hops / max(1, tracer.lookups_found), "hops")
    metrics["dht.lookup.fallback_share"] = (tracer.lookup_fallbacks / max(1, lookups), "share")
    for metric, name in UNIT_COSTS.items():
        i = tracer.names.index(name)
        spent = total_s[i] if name == "identity.check_permission" else self_s[i]
        metrics[metric] = (1e6 * float(spent) / max(1, int(calls[i])), "us")
    plain = untraced.throughput()[1]
    with_spans = traced.throughput()[1]
    metrics["trace.untraced_computations_per_ref_s"] = (plain, "1/ref_s")
    metrics["trace.computations_per_ref_s"] = (with_spans, "1/ref_s")
    metrics["trace.overhead_share"] = (1 - with_spans / plain, "share")
    metrics["host.ref_loop_ms"] = (1e3 * statistics.median(traced.ref_loop_s), "ms")
    return metrics, (untraced, traced), residual


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / workloads.PACKAGE / "__init__.py").is_file():
        print(f"error: no mpcnet sources at {SRC}; run inside a checkout",
              file=sys.stderr)
        return 1

    checks = Tally()
    errors = Errors()
    setups, setups_ref = [], []
    for _ in range(SETUPS):
        wl, seconds, ref_s = set_up(args.workload, args.seed, checks, errors)
        setups.append(seconds)
        setups_ref.append(ref_s)
    setup_s = statistics.median(setups_ref)

    if args.trace:
        metrics, timed, residual = per_layer(wl, args.seconds, args.seed, errors)
    else:
        tally = run_passes(wl, args.seconds, first_pass=1, on_error=errors)
        metrics = end_to_end(tally, setup_s)
        timed = (tally,)
    for t in timed:
        checks.attempted += t.attempted
        checks.failed += t.failed

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} computations/pass={len(wl.specs)}")
    for t in timed:
        line = (f"passes={len(t.pass_s)} computations={t.attempted} "
                f"computations_per_s={t.throughput()[0]:.6f} "
                f"pass_s.p50={statistics.median(t.pass_s):.6f} "
                f"audit_s.p50={statistics.median(t.audit_s):.6f} "
                f"ref_loop_ms.p50={1e3 * statistics.median(t.ref_loop_s):.4f}")
        if len(t.pass_s) >= P90_MIN_PASSES:
            line += (f" pass_s.p90={statistics.quantiles(t.pass_s, n=10)[-1]:.6f}"
                     f" pass_ref_s.p90={statistics.quantiles(t.pass_ref_s, n=10)[-1]:.6f}")
        print(line)
    if args.trace:
        print(f"self-time residual under run_scenario: {residual:.3g} s")
    print(f"failed_share={checks.failed / checks.attempted:.6f} "
          f"setup wall s={','.join(f'{s:.4f}' for s in setups)} "
          f"ref_s={','.join(f'{s:.4f}' for s in setups_ref)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6f} {unit}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
