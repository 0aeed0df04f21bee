"""Per-layer tracing installed from outside the program.

The tracer wraps the public functions of each mpcnet module for the length
of a traced run and removes the wrappers afterwards. Each call of a wrapped
function becomes a span: name, start, end, parent span and the id of the
computation it served. Spans are kept in flat arrays while the run lasts and
turned into per-layer calls and self time at the end; a span's self time is
its duration minus the time its child spans cover.

A name bound with ``from module import f`` is a separate reference to the
same function, so installing rebinds every mpcnet module attribute that *is*
the original, and uninstalling puts every one of them back.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from pathlib import Path

import numpy as np

PACKAGE = "mpcnet"

# (module, qualified name) of every span, grouped by layer. Methods are
# wrapped on the class that defines them, so subclasses that inherit them
# (EncryptedBus.send is LocalChannel.send) are covered too.
SPANS = (
    ("runner", "run_scenario"), ("runner", "measure_mul_messages"),
    ("network", "Runtime.__init__"), ("network", "protocol_share"),
    ("network", "protocol_compute"), ("network", "load_reference"),
    ("network", "detect_bad_shares"),
    ("circuits", "eval_plain"),
    ("shamir", "share"), ("shamir", "linear_combine"),
    ("shamir", "mul_with_reduction"), ("shamir", "interpolate_at_zero"),
    ("shamir", "lagrange_eval"),
    ("spdz", "deal_authenticated"), ("spdz", "deal_triples"),
    ("spdz", "auth_linear"), ("spdz", "beaver_mul"), ("spdz", "partial_open"),
    ("spdz", "open_pair"), ("spdz", "mac_check"),
    ("pedersen", "setup"), ("pedersen", "commit"), ("pedersen", "verify_open"),
    ("audit", "pv_triple"), ("audit", "pv_linear"), ("audit", "pv_beaver"),
    ("audit", "pv_output"), ("audit", "TrailWriter.post_step"),
    ("audit", "audit_trail"),
    ("ledger", "make_tx"), ("ledger", "Ledger.submit_tx"), ("ledger", "Ledger.get"),
    ("ledger", "load_dump"),
    ("keys", "KeyPair.generate"), ("keys", "KeyPair.sign"), ("keys", "verify"),
    ("keys", "shared_key"), ("keys", "seal"), ("keys", "unseal"),
    ("net", "LocalChannel.send"),
    ("identity", "check_permission"), ("identity", "parse_predicate"),
    ("dht", "protocol_store"), ("dht", "protocol_load"),
    ("dht", "DhtNetwork.bootstrap"), ("dht", "DhtNetwork.dht_lookup"),
    ("dht", "DhtNetwork.iterative_find"),
    ("hierarchy", "select_committee"), ("hierarchy", "hierarchical_mul"),
    ("hierarchy", "reduce_parties"), ("hierarchy", "reduce_parties_spdz"),
    ("incentives", "post_deposit"), ("incentives", "settle_computation"),
)

# Called too often to time one by one: these are counted, not spanned.
COUNTS = (("field", "Field.mul"), ("field", "Field.inv"))


def span_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}"


class Tracer:
    """Installs span and count wrappers; collects spans in memory."""

    def __init__(self):
        self.names = [span_name(m, q) for m, q in SPANS]
        self.counts = {span_name(m, q): 0 for m, q in COUNTS}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.computation_id = array("i")
        self.computation = 0          # set by the benchmark loop before each computation
        self._stack = []
        self._undo = []
        # DHT lookups, read from the values dht_lookup and iterative_find return.
        self.lookups_found = 0
        self.lookup_hops = 0
        self.lookup_fallbacks = 0
        self._find_missed = False

    # -- wrappers ------------------------------------------------------------

    def _span(self, nid: int, fn, after=None):
        name_id, start, end = self.name_id, self.start, self.end
        parent, comp, stack = self.parent, self.computation_id, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            comp.append(self.computation)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if after is not None:
                after(result)
            return result
        return wrapper

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _after(self, name: str):
        if name == "dht.DhtNetwork.iterative_find":
            def seen(result):
                self._find_missed = result[1] is None
            return seen
        if name == "dht.DhtNetwork.dht_lookup":
            def found(result):
                self.lookups_found += 1
                self.lookup_hops += result[1]
                # The routed search came back empty but the full scan of
                # every node found the record.
                self.lookup_fallbacks += self._find_missed
            return found
        return None

    # -- install / uninstall -------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        targets = [(m, q, "span") for m, q in SPANS] + [(m, q, "count") for m, q in COUNTS]
        try:
            for nid, (module, qualname, kind) in enumerate(targets):
                name = span_name(module, qualname)
                if kind == "span":
                    make = functools.partial(self._span, nid, after=self._after(name))
                else:
                    make = functools.partial(self._count, name)
                owner = sys.modules[f"{PACKAGE}.{module}"]
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    self._wrap_method(getattr(owner, cls_name), attr, make)
                else:
                    self._wrap_function(modules, getattr(owner, qualname), make)
        except BaseException:
            self.uninstall()
            raise

    def _wrap_method(self, cls, attr: str, make):
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(make(raw.__func__))
        else:
            new = make(raw)
        setattr(cls, attr, new)
        self._undo.append((cls, attr, raw))

    def _wrap_function(self, modules: list, original, make):
        new = make(original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, new)
                    self._undo.append((module, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def _arrays(self) -> tuple:
        """(name ids, parents, durations, self times) of every span."""
        names = np.frombuffer(self.name_id, dtype=np.intc)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.intc)
        child = parent >= 0
        if np.any(start[child] < start[parent[child]]) or \
                np.any(end[child] > end[parent[child]]):
            raise ValueError("a span ends outside its parent")
        dur = end - start
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return names, parent, dur, dur - covered

    def self_times(self) -> tuple:
        """Per-span-name (calls, self seconds, total seconds) arrays.

        Raises ValueError when a child span is not inside its parent, which
        would make self time meaningless.
        """
        names, _, dur, own = self._arrays()
        n_names = len(self.names)
        return (np.bincount(names, minlength=n_names),
                np.bincount(names, weights=own, minlength=n_names),
                np.bincount(names, weights=dur, minlength=n_names))

    def root_residual(self, root: str) -> float:
        """Largest gap between a `root` span's duration and the self times
        of every span under it; zero up to rounding when spans nest."""
        names, parent, dur, own = self._arrays()
        # Parents are recorded before their children, so one forward sweep
        # finds every span's outermost ancestor.
        top = np.arange(len(dur))
        for i in np.nonzero(parent >= 0)[0]:
            top[i] = top[parent[i]]
        roots = np.nonzero((names == self.names.index(root)) & (parent < 0))[0]
        if len(roots) == 0:
            return 0.0
        subtree = np.bincount(top, weights=own, minlength=len(dur))
        return float(np.max(np.abs(subtree[roots] - dur[roots])))

    def write(self, path: Path):
        """All spans as gzipped TSV, times in seconds from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = self.start[0] if self.start else 0.0
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tparent\tcomputation\tstart_s\tend_s\n")
            names = self.names
            for i, (nid, p, c, s, e) in enumerate(zip(
                    self.name_id, self.parent, self.computation_id, self.start, self.end)):
                out.write(f"{i}\t{names[nid]}\t{p}\t{c}\t{s - t0:.9f}\t{e - t0:.9f}\n")
