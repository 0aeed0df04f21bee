"""Publicly verifiable sharing and the ledger audit trail.

Augments the authenticated sharing with a blinding sharing <r> and
per-party Pedersen commitments g^{s_i} h^{r_i} posted to the bulletin
board (commit_shares computes every dealing's). Computing nodes only ever
operate on the <.>-shares; the blinding of a sharing dealt here carries no
MAC, since only the auditor's Pedersen check ever reads it. An input's
commitments are on the ledger once, in its dealer's VSS record at the
sharing id, which the input step names. The ledger lets the dealer rewrite
that record, so the auditor reads the record as the dealer first posted
it, the one the shares were dealt under: a later rewrite moves no blame.
Anyone holding the ledger can fold them through the circuit after the
fact:

  * linear steps and the public Beaver corrections are homomorphic on
    commitments, so every intermediate per-party commitment is recomputable
    from the posted inputs alone;
  * partially opened values (the Beaver eps/delta masks) are posted with
    per-party openings and checked against their derived commitments;
  * the output step posts every party's final (share, blinding) opening.

A party that posted a commitment inconsistent with what it later opened --
anywhere along the trail -- is named by the auditor. The exponents of the
fold are public and the same for every party (linear coefficients and the
opened eps and delta), so the auditor keeps each derived step as one
public constant plus one exponent per symbol, shared by all parties, where
a symbol names a per-party vector of bases. It evaluates a step only when
an opening is checked against it, all parties at once, with one
multi-exponentiation whose digit plan serves every party.

Trail steps are posted in batches, each one JSON list keyed by
H(computation_id || batch_index). Before any value opens, the pending steps
go on the ledger whenever one of them carries a commitment (an input or a
triple), so every commitment is public before anything masked by it is
revealed; steps that carry none (linear, Beaver and output steps) wait for
the next transaction. The dealer deals every triple of an evaluation before
its first opening (the offline phase), so an evaluation posts two
transactions whatever its depth: the inputs and triples before the first
opening, then the online steps with the metadata at close. An attempt that
ends in a MAC failure or an abort posts its pending steps without the
metadata instead, and a restart numbers its batches after the aborted
attempt's.

A VSS record is its n commitments as raw fixed-width integers
(pedersen.pack_commitments). Trail records are compact JSON, and each
per-party vector in them is one base64 field (the pedersen codecs): a
triple's a, b and c as the same fixed-width integers, read back without a
range check so a malformed base folds exactly; the Beaver and output
openings as field elements, read back range-checked, since commit reduces
mod p and an opening s + kp would otherwise open the commitment to s.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from . import pedersen, spdz
from .errors import IncompleteTrail
from .field import Field
from .keys import KeyPair, sha256
from .ledger import Ledger, make_tx, writes_payload
from .pedersen import CommitParams
from .spdz import MacKey


def trail_key(computation_id: bytes, batch: int) -> bytes:
    return sha256(computation_id + batch.to_bytes(8, "big"))


def trail_meta_key(computation_id: bytes) -> bytes:
    return sha256(computation_id + b"meta")


def record_bytes(record) -> bytes:
    """A trail record as posted: compact JSON with sorted keys."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def vss_commitments(board, sharing: str, n: int, params: CommitParams) -> list:
    """The n commitments of the VSS record at the sharing id `sharing`
    (hex), as its owner first posted it. ValueError if the sharing has no
    record, or its first posting is not n commitments long."""
    try:
        return pedersen.unpack_commitments(board.first(bytes.fromhex(sharing)).value,
                                           n, params)
    except (AttributeError, TypeError, ValueError):
        raise ValueError(f"sharing {sharing} has no VSS record of {n} commitments") from None


def commit_shares(values: list, blinds: list, params: CommitParams,
                  broken: set = frozenset()) -> list:
    """Per-party commitments g^{v_i} h^{r_i} of one dealing; the parties in
    `broken` post theirs shifted by g (the broken-commitment fault)."""
    commitments = [pedersen.commit(v, r, params) for v, r in zip(values, blinds)]
    for i in broken:
        commitments[i] = commitments[i] * params.g % params.q
    return commitments


@dataclass
class PVShare:
    """<s> plus <r>, and the trail step whose commitments they open."""

    value: list          # AuthShare vector for s
    randomness: list     # additive shares of r (no MAC)
    step: int


COMMITTING = ("input", "triple")   # the step kinds that carry commitments


class TrailWriter:
    """Posts trail records for one computation to the bulletin board.

    post_step buffers a record and returns its step index. Before each
    opening the protocol calls flush_commitments, which posts the pending
    records as one batch only while one of them carries a commitment;
    flush posts them whatever they carry. The metadata record, with the
    step count and the batches that hold the steps, is posted only by
    close(), in one transaction with the last batch, so an unfinished trail
    has none and audits as incomplete rather than silently passing.

    Batches are numbered from the first index whose key the board does not
    hold yet, so the attempts of a restarted computation never write the
    same key: the finishing attempt's metadata names its own batches, and
    an aborted attempt's stay readable at theirs.
    """

    def __init__(self, board: Ledger, computation_id: bytes, poster: KeyPair,
                 field: Field, n: int):
        self.board = board
        self.computation_id = computation_id
        self.poster = poster
        self.field_p = field.p
        self.n = n
        self.steps = 0
        self.first = 0
        while board.get(trail_key(computation_id, self.first)) is not None:
            self.first += 1
        self.batches = 0
        self._pending = []

    def post(self, *writes):
        """Post (key, record) writes as one signed transaction."""
        self.submit(writes_payload((key, record_bytes(record)) for key, record in writes))

    def submit(self, payload: list):
        """Sign and submit a keyed payload (ledger.writes_payload)."""
        tx = make_tx(self.poster, "commitment-post", payload,
                     nonce=self.board.next_nonce(self.poster.sign_pk))
        self.board.submit_tx(tx)

    def post_input(self, sharing_id: bytes) -> int:
        """An input step naming the sharing's VSS record, which the auditor
        reads as first posted."""
        return self.post_step({"kind": "input", "sharing": sharing_id.hex()})

    def post_step(self, record: dict) -> int:
        self._pending.append(record)
        self.steps += 1
        return self.steps - 1

    def _batch(self) -> tuple:
        """The pending steps as the next batch's write."""
        write = (trail_key(self.computation_id, self.first + self.batches), self._pending)
        self.batches += 1
        self._pending = []
        return write

    def flush(self):
        """Post the pending steps, if there are any, as one batch."""
        if self._pending:
            self.post(self._batch())

    def flush_commitments(self):
        """Flush if a pending step carries a commitment: the protocol calls
        this before each opening."""
        if any(record["kind"] in COMMITTING for record in self._pending):
            self.flush()

    def close(self):
        """Post the last batch and the metadata record in one transaction."""
        batch = self._batch()
        self.post(batch, (trail_meta_key(self.computation_id),
                          {"p": self.field_p, "n": self.n, "steps": self.steps,
                           "first": self.first, "batches": self.batches}))


def _combine(terms: list, p: int) -> list:
    """sum(coeff * r_i) for each party i over (coeff, blinding vector)
    terms, as one exact integer reduced once mod p."""
    coeffs = [c for c, _ in terms]
    return [sum(c * r for c, r in zip(coeffs, column)) % p
            for column in zip(*(vector for _, vector in terms))]


def pv_share(secret: int, n: int, key: MacKey, params: CommitParams,
             writer: TrailWriter, field: Field, rng: random.Random,
             broken: set = frozenset()) -> PVShare:
    """Deal [[secret]]: <s>, a blinding <r>, and the commitments in a VSS
    record that the input step names, as an owner's dealing does.

    The `broken` set injects the broken-commitment fault: those parties
    post a commitment that does not match the share they actually hold.
    """
    value = spdz.deal_authenticated(secret, n, key, field, rng)
    blind = spdz.additive_split(field.rand(rng), n, field, rng)
    commitments = commit_shares([v.value_share for v in value], blind, params, broken)
    sharing_id = sha256(writer.computation_id + writer.steps.to_bytes(8, "big") + b"input")
    record = pedersen.pack_commitments(commitments, params)
    writer.submit(writes_payload([(sharing_id, record)]))
    step = writer.post_input(sharing_id)
    return PVShare(value=value, randomness=blind, step=step)


def pv_triple(key: MacKey, params: CommitParams, writer: TrailWriter,
              field: Field, rng: random.Random,
              broken: set = frozenset()) -> tuple:
    """Dealer-issued Beaver triple in [[.]] form, commitments on the ledger;
    the parties in `broken` post a broken commitment to their share of a."""
    a = field.rand(rng)
    b = field.rand(rng)
    parts = {}
    record = {"kind": "triple"}
    n = key.n
    for name, plain in (("a", a), ("b", b), ("c", field.mul(a, b))):
        value = spdz.deal_authenticated(plain, n, key, field, rng)
        blind = spdz.additive_split(field.rand(rng), n, field, rng)
        commitments = commit_shares([v.value_share for v in value], blind, params,
                                    broken if name == "a" else ())
        parts[name] = PVShare(value=value, randomness=blind, step=-1)
        record[name] = pedersen.encode_commitments(commitments, params)
    step = writer.post_step(record)
    for part in parts.values():
        part.step = step
    return parts["a"], parts["b"], parts["c"]


def _derive(terms: list, constant: int, key: MacKey, field: Field) -> PVShare:
    """sum(coeff * [[x]]) + constant over (coeff, PVShare) terms, with no
    trail step of its own (step -1).

    The public constant lands on party 0's value share with zero blinding,
    matching how the auditor folds it into party 0's commitment.
    """
    return PVShare(
        value=spdz.auth_linear([(c, sh.value) for c, sh in terms], constant, key, field),
        randomness=_combine([(c, sh.randomness) for c, sh in terms], field.p),
        step=-1)


def pv_linear(terms: list, constant: int, key: MacKey, field: Field,
              writer: TrailWriter) -> PVShare:
    """Linear combination of [[.]]-shares; local, but logged for the auditor."""
    share = _derive(terms, constant, key, field)
    share.step = writer.post_step({
        "kind": "linear",
        "terms": [[c % field.p, sh.step] for c, sh in terms],
        "constant": constant % field.p,
    })
    return share


def _openings(share: PVShare, field: Field) -> str:
    """Every party's (share, blinding) opening of `share`, encoded."""
    return pedersen.encode_openings(
        [(v.value_share, r) for v, r in zip(share.value, share.randomness)], field)


def pv_beaver(x: PVShare, y: PVShare, triple: tuple, key: MacKey,
              params: CommitParams, field: Field, net, queue: list,
              writer: TrailWriter) -> PVShare:
    """[[x*y]] via a Beaver triple; the mask openings go on the trail
    (see pv_beaver_layer)."""
    return pv_beaver_layer([(x, y)], [triple], key, params, field, net, queue,
                           writer)[0]


def pv_beaver_layer(pairs: list, triples: list, key: MacKey, params: CommitParams,
                    field: Field, net, queue: list,
                    writer: TrailWriter) -> list:
    """[[x*y]] for every pair of one multiplication layer, a triple each.

    Pending input and triple commitments are posted first
    (flush_commitments), so they are on the ledger before any mask opens;
    a layer whose triples were all posted earlier posts nothing here. eps =
    x - a and delta = y - b of every product are then opened in one batched
    broadcast round (MAC check deferred to the queue), and each product
    buffers its own beaver step with the per-party openings (share,
    blinding) of its masks, so the auditor can hold every party to its
    input commitments.
    """
    masks = [(_derive([(1, x), (-1, a)], 0, key, field),
              _derive([(1, y), (-1, b)], 0, key, field))
             for (x, y), (a, b, _) in zip(pairs, triples, strict=True)]
    writer.flush_commitments()
    opened = spdz.open_many([m.value for pair in masks for m in pair],
                            field, net, queue)
    products = []
    for (x, y), (a, b, c), (eps_share, delta_share), eps, delta in zip(
            pairs, triples, masks, opened[0::2], opened[1::2]):
        product = _derive([(1, c), (eps, b), (delta, a)], field.mul(eps, delta), key, field)
        product.step = writer.post_step({
            "kind": "beaver",
            "x": x.step, "y": y.step, "triple": c.step,
            "eps_openings": _openings(eps_share, field),
            "delta_openings": _openings(delta_share, field),
        })
        products.append(product)
    return products


def pv_output(share: PVShare, field: Field, writer: TrailWriter) -> int:
    """Post the final per-party openings; returns the opened output."""
    value = sum(v.value_share for v in share.value) % field.p
    writer.post_step({"kind": "output", "source": share.step,
                      "openings": _openings(share, field), "value": value})
    return value


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    guilty: tuple
    reason: str = ""

    def __bool__(self):
        return self.ok


_PIPPENGER_FROM = 8   # fewer terms: one pow each is faster


def _multi_exp(rows, exps: list, q: int) -> list:
    """prod_j row[j]^exps[j] mod q for each row, over exponents >= 0 that
    every row shares.

    From _PIPPENGER_FROM terms on, Pippenger's method: the exponents are
    cut into w-bit windows from the top, and each window's terms are
    grouped by digit once, for all rows. A row then walks the digits from
    the top down, multiplying each of its bases straight into a running
    product and the running product into the window's product once per
    digit, which gives prod_d (bases of digit d)^d. A window thus costs one
    multiplication per term plus one per digit, with no bucket array and no
    pow per term.
    """
    if len(exps) < _PIPPENGER_FROM:
        out = []
        for row in rows:
            acc = 1
            for base, exp in zip(row, exps):
                acc = acc * pow(base, exp, q) % q
            out.append(acc)
        return out
    w = max(3, (len(exps).bit_length() + 2) // 2)   # 3 up to 31 terms, 4 to 127
    top = (1 << w) - 1
    bits = max(exp.bit_length() for exp in exps)
    plan = []   # per window, top first: the term indices of each digit, top digit first
    for shift in range((bits - 1) // w * w, -1, -w):
        digits = [[] for _ in range(top + 1)]
        for j, exp in enumerate(exps):
            digits[exp >> shift & top].append(j)
        high = max((d for d in range(1, top + 1) if digits[d]), default=0)
        plan.append(digits[high:0:-1])
    out = []
    for row in rows:
        acc = 1
        for groups in plan:
            for _ in range(w):
                acc = acc * acc % q
            running = window = 1
            for group in groups:
                for j in group:
                    running = running * row[j] % q
                window = window * running % q
            acc = acc * window % q
        out.append(acc)
    return out


def audit_trail(board, computation_id: bytes) -> AuditReport:
    """Recompute the commitment trail and name every inconsistent party.

    Reads the batches the metadata names, in order, and walks their steps,
    folding input (VSS record, as first posted) and triple commitments
    through linear and Beaver records, and checks every posted opening
    (Beaver masks and the final output) against the derived per-party
    commitments. The verdict rests on what the board holds and nothing else.

    A derived step is held as (constant, {symbol: exp}), one for all n
    parties, since every exponent is public. The constant is the public
    constant on party 0, and a symbol names a per-party vector of bases: a
    triple's ("a" | "b" | "c", step) commitments, or a step's own
    ("value", step), which is an input's VSS commitments as first posted
    or a step already folded. An input is (0, {("value", s): 1}); a
    linear step sums its sources' constants mod p and scales their maps by
    each coefficient; a Beaver step is (eps * delta, {("c", t): 1, ("b",
    t): eps, ("a", t): delta}). Exponents of one symbol add up, so a step
    carries at most one term per distinct symbol however often a wire is
    reused, and an exponent above q - 1 is cut to ((e - 1) mod (q - 1)) +
    1, which is exact for every base mod the prime q, 0 and bases >= q
    included. When an opening is checked against a step that has no value
    yet, one multi-exponentiation folds it for all parties and
    g^constant joins party 0 (exact, since g has order p); the result is
    the step's value, and later readers use it as one symbol. This gives
    what folding step by step gives mod q, malformed bases included.
    """
    meta_raw = board.get(trail_meta_key(computation_id))
    if meta_raw is None:
        raise IncompleteTrail("no trail metadata for computation")
    # A missing or mistyped field anywhere in the trail leaves it incomplete.
    try:
        meta = json.loads(meta_raw.decode())
        if not isinstance(meta, dict) or meta.get("steps") is None:
            raise IncompleteTrail("trail metadata lacks a step count")
        first, batches = meta.get("first"), meta.get("batches")
        if not isinstance(first, int) or not isinstance(batches, int):
            raise IncompleteTrail("trail metadata lacks a first batch or a batch count")
        records = []
        for batch in range(first, first + batches):
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

        def in_field(value, label: str) -> int:
            # The writer posts every linear coefficient and constant mod p.
            if type(value) is not int or not 0 <= value < field.p:
                raise IncompleteTrail(f"{label} {value!r} is not an integer mod {field.p}")
            return value

        params = pedersen.setup(field)
        n = meta["n"]
        q = params.q
        order = q - 1

        derived = {}   # step -> (constant, {symbol: exp})
        vectors = {}   # symbol -> its per-party bases
        guilty = set()
        reasons = []
        output_seen = False

        def blame(i: int, label: str):
            guilty.add(i)
            reasons.append(f"party {i} broke its commitment at {label}")

        def evaluate(step: int) -> list:
            """The per-party commitments of a step, folded once on first use."""
            symbol = ("value", step)
            if symbol not in vectors:
                constant, exps = derived[step]
                columns = [vectors[s] for s in exps]
                value = _multi_exp(zip(*columns) if columns else [()] * n,
                                   list(exps.values()), q)
                value[0] = value[0] * pedersen.commit(constant, 0, params) % q
                vectors[symbol] = value
                derived[step] = (0, {symbol: 1})
            return vectors[symbol]

        def check_masks(masked: list, mask: list, opens: list, label: str):
            # C(x_i) = commit(s_i, r_i) * C(a_i), with no inversion; a C(a_i)
            # divisible by q has no opening at all.
            for i, (cx, ca, (s, r)) in enumerate(zip(masked, mask, opens)):
                if not ca % q or cx % q != pedersen.commit(s, r, params) * ca % q:
                    blame(i, label)

        for step, rec in enumerate(records):
            kind = rec["kind"]
            if kind == "input":
                vectors["value", step] = vss_commitments(board, rec.get("sharing"), n, params)
                derived[step] = (0, {("value", step): 1})
            elif kind == "triple":
                for name in ("a", "b", "c"):
                    vectors[name, step] = pedersen.decode_commitments(rec[name], n, params)
            elif kind == "linear":
                terms = [(in_field(coeff, f"step {step}: coefficient"), ref)
                         for coeff, ref in rec["terms"]]
                constant = in_field(rec["constant"], f"step {step}: constant")
                exps = {}
                for coeff, ref in terms:
                    src_constant, src_exps = derived[ref]
                    constant += coeff * src_constant
                    for symbol, exp in src_exps.items():
                        # b^e = b^((e - 1) mod (q - 1) + 1) for every e >= 1 and
                        # every base mod prime q, 0 included, so exponents stay
                        # below q.
                        exp = exp * coeff + exps.get(symbol, 0)
                        exps[symbol] = (exp - 1) % order + 1 if exp > order else exp
                derived[step] = (constant % field.p, exps)
            elif kind == "beaver":
                triple = rec["triple"]
                a, b = vectors["a", triple], vectors["b", triple]
                eps_opens = pedersen.decode_openings(rec["eps_openings"], n, field)
                delta_opens = pedersen.decode_openings(rec["delta_openings"], n, field)
                check_masks(evaluate(rec["x"]), a, eps_opens, f"step {step} (eps)")
                check_masks(evaluate(rec["y"]), b, delta_opens, f"step {step} (delta)")
                eps = sum(s for s, _ in eps_opens) % field.p
                delta = sum(s for s, _ in delta_opens) % field.p
                derived[step] = (field.mul(eps, delta), {("c", triple): 1, ("b", triple): eps,
                                                         ("a", triple): delta})
            elif kind == "output":
                output_seen = True
                opens = pedersen.decode_openings(rec["openings"], n, field)
                label = f"step {step} (output)"
                for i, (c, (s, r)) in enumerate(zip(evaluate(rec["source"]), opens)):
                    if not pedersen.verify_open(c, s, r, params):
                        blame(i, label)
                total = sum(s for s, _ in opens) % field.p
                if total != rec["value"] % field.p:
                    reasons.append(f"claimed output {rec['value']} != opened total {total}")
            else:
                raise IncompleteTrail(f"unknown trail record kind {kind!r}")
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise IncompleteTrail(repr(exc)) from None

    if not output_seen:
        raise IncompleteTrail("trail has no output step")
    ok = not guilty and not reasons
    return AuditReport(ok=ok, guilty=tuple(sorted(guilty)), reason="; ".join(reasons))
