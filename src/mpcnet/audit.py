"""Publicly verifiable sharing and the ledger audit trail.

Augments the authenticated sharing with a blinding sharing <r> and
per-party Pedersen commitments g^{s_i} h^{r_i} posted to the bulletin
board. Computing nodes only ever operate on the <.>-shares; the blinding
is plain additive shares with no MAC, since only the auditor's Pedersen
check ever reads it. The commitments sit on the ledger where any third
party can fold them through the circuit after the fact:

  * linear steps and the public Beaver corrections are homomorphic on
    commitments, so every intermediate per-party commitment is recomputable
    from the posted inputs alone;
  * partially opened values (the Beaver eps/delta masks) are posted with
    per-party openings and checked against their derived commitments;
  * the output step posts every party's final (share, blinding) opening.

A party that posted a commitment inconsistent with what it later opened --
anywhere along the trail -- is named by the auditor. The auditor keeps each
derived commitment as a posted product times one exponent per base, and
evaluates it with one multi-exponentiation only when an opening is checked
against it.

Trail steps are posted in batches, one per opening round: the steps since
the previous round go on the ledger as one JSON list keyed by
H(computation_id || batch_index) before the next values open, so every
commitment is public before anything masked by it is revealed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from . import pedersen, spdz
from .errors import IncompleteTrail
from .field import Field
from .keys import KeyPair, sha256
from .ledger import Ledger, make_tx
from .pedersen import CommitParams
from .spdz import MacCheckQueue, MacKey


def trail_key(computation_id: bytes, batch: int) -> bytes:
    return sha256(computation_id + batch.to_bytes(8, "big"))


def trail_meta_key(computation_id: bytes) -> bytes:
    return sha256(computation_id + b"meta")


@dataclass
class PVShare:
    """<s> plus <r> plus the posted per-party commitments, as trail step."""

    value: list          # AuthShare vector for s
    randomness: list     # additive shares of r (no MAC)
    commitments: list    # per-party g^{s_i} h^{r_i}
    step: int


class TrailWriter:
    """Posts trail records for one computation to the bulletin board.

    post_step buffers a record and returns its step index; flush posts every
    pending record as one batch, and the protocol flushes before each
    opening round. The step and batch counts land in the metadata record
    only on close(), so an unfinished trail audits as incomplete rather
    than silently passing.
    """

    def __init__(self, board: Ledger, computation_id: bytes, poster: KeyPair,
                 field: Field, n: int):
        self.board = board
        self.computation_id = computation_id
        self.poster = poster
        self.field_p = field.p
        self.n = n
        self.steps = 0
        self.batches = 0
        self._pending = []
        self._post_raw(trail_meta_key(computation_id), {"p": field.p, "n": n})

    def _post_raw(self, key: bytes, record):
        tx = make_tx(self.poster, "commitment-post",
                     {"key": key.hex(),
                      "value": json.dumps(record, sort_keys=True).encode().hex()},
                     nonce=self.board.next_nonce(self.poster.sign_pk))
        self.board.submit_tx(tx)

    def post_step(self, record: dict) -> int:
        self._pending.append(record)
        self.steps += 1
        return self.steps - 1

    def flush(self):
        """Post the pending steps as one batch."""
        self._post_raw(trail_key(self.computation_id, self.batches), self._pending)
        self.batches += 1
        self._pending = []

    def close(self):
        self.flush()
        self._post_raw(trail_meta_key(self.computation_id),
                       {"p": self.field_p, "n": self.n, "steps": self.steps,
                        "batches": self.batches})


def _combine(terms: list, p: int) -> list:
    """sum(coeff * r_i) for each party i over (coeff, blinding vector)
    terms, as one exact integer reduced once mod p."""
    coeffs = [c for c, _ in terms]
    return [sum(c * r for c, r in zip(coeffs, column)) % p
            for column in zip(*(vector for _, vector in terms))]


def _commit_shares(values: list, blinds: list, params: CommitParams,
                   broken: set) -> list:
    """Per-party commitments; parties in `broken` post a shifted commitment."""
    out = []
    for i, (v, r) in enumerate(zip(values, blinds)):
        c = pedersen.commit(v.value_share, r, params)
        if i in broken:
            c = c * params.g % params.q
        out.append(c)
    return out


def pv_share(secret: int, n: int, key: MacKey, params: CommitParams,
             writer: TrailWriter, field: Field, rng: random.Random,
             broken: set = frozenset()) -> PVShare:
    """Deal [[secret]]: <s>, a blinding <r>, and commitments on the ledger.

    The `broken` set injects the broken-commitment fault: those parties
    post a commitment that does not match the share they actually hold.
    """
    value = spdz.deal_authenticated(secret, n, key, field, rng)
    blind = spdz.additive_split(field.rand(rng), n, field, rng)
    commitments = _commit_shares(value, blind, params, broken)
    step = writer.post_step({"kind": "input", "commitments": [hex(c) for c in commitments]})
    return PVShare(value=value, randomness=blind, commitments=commitments, step=step)


def pv_triple(key: MacKey, params: CommitParams, writer: TrailWriter,
              field: Field, rng: random.Random,
              broken: set = frozenset()) -> tuple:
    """Dealer-issued Beaver triple in [[.]] form, commitments on the ledger."""
    a = field.rand(rng)
    b = field.rand(rng)
    parts = {}
    record = {"kind": "triple"}
    n = key.n
    for name, plain in (("a", a), ("b", b), ("c", field.mul(a, b))):
        value = spdz.deal_authenticated(plain, n, key, field, rng)
        blind = spdz.additive_split(field.rand(rng), n, field, rng)
        commitments = _commit_shares(value, blind, params, broken if name == "a" else frozenset())
        parts[name] = PVShare(value=value, randomness=blind,
                              commitments=commitments, step=-1)
        record[name] = [hex(c) for c in commitments]
    step = writer.post_step(record)
    for part in parts.values():
        part.step = step
    return parts["a"], parts["b"], parts["c"]


def pv_linear(terms: list, constant: int, key: MacKey, field: Field,
              writer: TrailWriter) -> PVShare:
    """Linear combination of [[.]]-shares; local, but logged for the auditor.

    The public constant lands on party 0's value share with zero blinding,
    matching how the auditor folds it into party 0's commitment.
    """
    value = spdz.auth_linear([(c, sh.value) for c, sh in terms], constant, key, field)
    blind = _combine([(c, sh.randomness) for c, sh in terms], field.p)
    step = writer.post_step({
        "kind": "linear",
        "terms": [[c % field.p, sh.step] for c, sh in terms],
        "constant": constant % field.p,
    })
    return PVShare(value=value, randomness=blind, commitments=[], step=step)


def _openings(share: PVShare) -> list:
    return [[v.value_share, r] for v, r in zip(share.value, share.randomness)]


def pv_beaver(x: PVShare, y: PVShare, triple: tuple, key: MacKey,
              params: CommitParams, field: Field, net, queue: MacCheckQueue,
              writer: TrailWriter) -> PVShare:
    """[[x*y]] via a Beaver triple; the mask openings go on the trail
    (see pv_beaver_layer)."""
    return pv_beaver_layer([(x, y)], [triple], key, params, field, net, queue,
                           writer)[0]


def _mask(x: PVShare, a: PVShare, key: MacKey, field: Field) -> PVShare:
    """[[x - a]], with no trail step of its own."""
    minus_one = field.p - 1
    return PVShare(
        value=spdz.auth_linear([(1, x.value), (minus_one, a.value)], 0, key, field),
        randomness=_combine([(1, x.randomness), (-1, a.randomness)], field.p),
        commitments=[], step=-1)


def pv_beaver_layer(pairs: list, triples: list, key: MacKey, params: CommitParams,
                    field: Field, net, queue: MacCheckQueue,
                    writer: TrailWriter) -> list:
    """[[x*y]] for every pair of one multiplication layer, a triple each.

    The trail is flushed first, so the input and triple commitments are on
    the ledger before any mask opens. eps = x - a and delta = y - b of every
    product are then opened in one batched broadcast round (MAC check
    deferred to the queue), and each product posts its own beaver step with
    the per-party openings (share, blinding) of its masks, so the auditor
    can hold every party to its input commitments.
    """
    masks = [(_mask(x, a, key, field), _mask(y, b, key, field))
             for (x, y), (a, b, _) in zip(pairs, triples, strict=True)]
    writer.flush()
    opened = spdz.open_many([m.value for pair in masks for m in pair],
                            field, net, queue)
    products = []
    for (x, y), (a, b, c), (eps_share, delta_share), eps, delta in zip(
            pairs, triples, masks, opened[0::2], opened[1::2]):
        value = spdz.auth_linear(
            [(1, c.value), (eps, b.value), (delta, a.value)],
            field.mul(eps, delta), key, field)
        blind = _combine([(1, c.randomness), (eps, b.randomness), (delta, a.randomness)],
                         field.p)
        step = writer.post_step({
            "kind": "beaver",
            "x": x.step, "y": y.step, "triple": c.step,
            "eps_openings": _openings(eps_share),
            "delta_openings": _openings(delta_share),
        })
        products.append(PVShare(value=value, randomness=blind, commitments=[], step=step))
    return products


def pv_output(share: PVShare, field: Field, writer: TrailWriter) -> int:
    """Post the final per-party openings; returns the opened output."""
    opens = _openings(share)
    value = 0
    for s, _ in opens:
        value = field.add(value, s)
    writer.post_step({"kind": "output", "source": share.step,
                      "openings": opens, "value": value})
    return value


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    guilty: tuple
    reason: str = ""

    def __bool__(self):
        return self.ok


_PIPPENGER_FROM = 8   # fewer terms: one pow each is faster


def _multi_exp(terms: list, q: int) -> int:
    """prod(base^exp) mod q over (base, exp) terms with exp >= 0.

    From _PIPPENGER_FROM terms on, Pippenger's bucket method: the exponents
    are cut into w-bit windows from the top; in each window every base goes
    into the bucket of its digit, and the buckets are combined as
    prod_d bucket_d^d with two running products, so a window costs one
    multiplication per term plus two per bucket instead of a pow per term.
    """
    if len(terms) < _PIPPENGER_FROM:
        acc = 1
        for base, exp in terms:
            acc = acc * pow(base, exp, q) % q
        return acc
    w = max(3, (len(terms).bit_length() + 2) // 2)   # 3 up to 31 terms, 4 to 127
    top = (1 << w) - 1
    bits = max(exp.bit_length() for _, exp in terms)
    acc = 1
    for shift in range((bits - 1) // w * w, -1, -w):
        for _ in range(w):
            acc = acc * acc % q
        buckets = [1] * (top + 1)
        for base, exp in terms:
            digit = exp >> shift & top
            if digit:
                buckets[digit] = buckets[digit] * base % q
        running = window = 1
        for digit in range(top, 0, -1):
            running = running * buckets[digit] % q
            window = window * running % q
        acc = acc * window % q
    return acc


def _reads(rec: dict) -> list:
    """The steps whose derived commitments a trail record reads."""
    kind = rec["kind"]
    if kind == "linear":
        return [ref for _, ref in rec["terms"]]
    if kind == "beaver":
        return [rec["x"], rec["y"], rec["triple"]]
    if kind == "output":
        return [rec["source"]]
    return []


def audit_trail(board, computation_id: bytes, claimed_output: int | None = None,
                openings: list | None = None) -> AuditReport:
    """Recompute the commitment trail and name every inconsistent party.

    Reads the posted batches in order and walks their steps, folding
    input/triple commitments through linear and Beaver records, and checks
    every posted opening (Beaver masks and the final output) against the
    derived per-party commitments. `openings` overrides the output step's
    posted openings when an auditor wants to check a third-party claim.

    A derived commitment is held per party as (known, {base: exp}): a
    Beaver step contributes C(b_i)^eps and C(a_i)^delta, a linear
    coefficient c scales the exponents and coefficient 1 just multiplies.
    Exponents of one base add up, so a commitment carries at most one term
    per distinct base however often a wire is reused, and an exponent above
    q - 1 is cut to ((e - 1) mod (q - 1)) + 1, which is exact for every base
    mod the prime q, 0 included. The one multi-exponentiation that evaluates
    it when an opening is checked thus gives what folding step by step gives
    mod q, malformed bases included.
    """
    meta_raw = board.get(trail_meta_key(computation_id))
    if meta_raw is None:
        raise IncompleteTrail("no trail metadata for computation")
    meta = json.loads(meta_raw.decode())
    if not isinstance(meta, dict) or meta.get("steps") is None:
        raise IncompleteTrail("trail metadata lacks a step count")
    batches = meta.get("batches")
    if not isinstance(batches, int):
        raise IncompleteTrail("trail metadata lacks a batch count")
    records = []
    for batch in range(batches):
        raw = board.get(trail_key(computation_id, batch))
        if raw is None:
            raise IncompleteTrail(f"missing trail batch {batch}")
        posted = json.loads(raw.decode())
        if not isinstance(posted, list) or not all(isinstance(r, dict) for r in posted):
            raise IncompleteTrail(f"trail batch {batch} is not a list of records")
        records.extend(posted)
    steps = meta["steps"]
    if len(records) != steps:
        raise IncompleteTrail(f"trail batches hold {len(records)} steps, "
                              f"metadata says {steps}")
    field = Field(meta["p"])
    params = pedersen.setup(field)
    n = meta["n"]
    q = params.q
    order = q - 1

    # The last step that reads each step: its derived commitments are
    # dropped after that, and a linear step may take over their terms.
    last_read = {}
    for step, rec in enumerate(records):
        for ref in _reads(rec):
            last_read[ref] = step

    derived = {}   # step -> per-party (known, {base: exp}), or a triple's posted vectors
    guilty = set()
    reasons = []
    output_seen = False

    def blame(i: int, label: str):
        guilty.add(i)
        reasons.append(f"party {i} broke its commitment at {label}")

    def expect_n(opens: list, label: str):
        if len(opens) != n:
            raise IncompleteTrail(f"{label}: expected {n} openings, got {len(opens)}")

    def evaluate(step: int) -> list:
        """The per-party commitments of a step, folded once on first use."""
        values = [known * _multi_exp(terms.items(), q) % q if terms else known
                  for known, terms in derived[step]]
        derived[step] = [(c, {}) for c in values]
        return values

    def accumulate(terms: dict, base: int, exp: int):
        # b^e = b^((e - 1) mod (q - 1) + 1) for every e >= 1 and every base
        # mod prime q, 0 included, so exponents stay below q.
        exp += terms.get(base, 0)
        terms[base] = (exp - 1) % order + 1 if exp > order else exp

    def check_masks(masked: list, mask: list, opens: list, label: str):
        # C(x_i) = commit(s_i, r_i) * C(a_i), with no inversion; a C(a_i)
        # divisible by q has no opening at all.
        expect_n(opens, label)
        for i, (cx, ca, (s, r)) in enumerate(zip(masked, mask, opens)):
            if not ca % q or cx % q != pedersen.commit(s, r, params) * ca % q:
                blame(i, label)

    for step, rec in enumerate(records):
        kind = rec["kind"]
        if kind == "input":
            derived[step] = [(int(c, 16), {}) for c in rec["commitments"]]
        elif kind == "triple":
            derived[step] = {name: [int(c, 16) for c in rec[name]]
                             for name in ("a", "b", "c")}
        elif kind == "linear":
            rec_terms = rec["terms"]
            refs = [ref for _, ref in rec_terms]
            # A coefficient-1 source read here for the last time, and only
            # once, hands its terms over instead of being copied.
            heir = next((pos for pos, (coeff, ref) in enumerate(rec_terms)
                         if coeff == 1 and last_read[ref] == step and refs.count(ref) == 1),
                        None)
            public = pedersen.commit(rec["constant"], 0, params)
            acc = []
            for i in range(n):
                known, terms = derived[refs[heir]][i] if heir is not None else (1, {})
                known = known * public % q if i == 0 else known % q
                for pos, (coeff, ref) in enumerate(rec_terms):
                    if pos == heir:
                        continue
                    src_known, src_terms = derived[ref][i]
                    if coeff == 1:
                        known = known * src_known % q
                    else:
                        accumulate(terms, src_known, coeff)
                    for base, exp in src_terms.items():
                        accumulate(terms, base, exp * coeff)
                acc.append((known, terms))
            derived[step] = acc
        elif kind == "beaver":
            trip = derived[rec["triple"]]
            eps_opens = rec["eps_openings"]
            delta_opens = rec["delta_openings"]
            check_masks(evaluate(rec["x"]), trip["a"], eps_opens, f"step {step} (eps)")
            check_masks(evaluate(rec["y"]), trip["b"], delta_opens, f"step {step} (delta)")
            eps = sum(s for s, _ in eps_opens) % field.p
            delta = sum(s for s, _ in delta_opens) % field.p
            public = pedersen.commit(field.mul(eps, delta), 0, params)
            acc = []
            for i in range(n):
                terms = {trip["b"][i]: eps}
                accumulate(terms, trip["a"][i], delta)
                acc.append((trip["c"][i] * public % q if i == 0 else trip["c"][i], terms))
            derived[step] = acc
        elif kind == "output":
            output_seen = True
            opens = openings if openings is not None else rec["openings"]
            label = f"step {step} (output)"
            derived_c = evaluate(rec["source"])
            expect_n(opens, label)
            for i, (c, (s, r)) in enumerate(zip(derived_c, opens)):
                if not pedersen.verify_open(c, s, r, params):
                    blame(i, label)
            total = sum(s for s, _ in opens) % field.p
            claimed = claimed_output if claimed_output is not None else rec["value"]
            if total != claimed % field.p:
                reasons.append(f"claimed output {claimed} != opened total {total}")
        else:
            raise IncompleteTrail(f"unknown trail record kind {kind!r}")
        for ref in set(_reads(rec)):
            if last_read[ref] == step:
                del derived[ref]

    if not output_seen:
        raise IncompleteTrail("trail has no output step")
    ok = not guilty and not reasons
    return AuditReport(ok=ok, guilty=tuple(sorted(guilty)), reason="; ".join(reasons))
