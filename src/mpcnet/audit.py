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

Trail steps are posted in batches keyed by H(computation_id ||
batch_index). Before any value opens, the pending steps go on the ledger
whenever one of them carries a commitment (an input or a triple), so every
commitment is public before anything masked by it is revealed; steps that
carry none (linear, Beaver and output steps) wait for the next
transaction. The dealer deals every triple of an evaluation before its
first opening (the offline phase), so an evaluation posts two transactions
whatever its depth: the inputs and triples before the first opening, then
the online steps with the metadata at close. An attempt that ends in a MAC
failure or an abort posts its pending steps without the metadata instead,
and a restart numbers its batches after the aborted attempt's.

A VSS record is its n commitments as raw fixed-width integers
(pedersen.pack_commitments). A trail batch is its steps laid end to end,
each one ASCII kind letter and then big-endian fields whose widths follow
from the metadata's n and p: w = ceil(bits(q) / 8) bytes per commitment, e
= Field.elem_size per element, 4 bytes per step index or term count.

  I  input    the 32-byte sharing id                          33
  T  triple   a, b and c, n commitments each                  1 + 3nw
  L  linear   k, k x (coefficient, source step), constant     5 + k(e + 4) + e
  B  Beaver   x, y and triple steps, 2n eps and 2n delta      13 + 4ne
              opening elements
  O  output   source step, 2n opening elements, the value     5 + (2n + 1)e

An opening vector is each party's (share, blinding) pair in turn.
Commitments are read back without a range check, so a malformed base
folds exactly; every opening, coefficient, constant and value must be
below p, since commit reduces mod p and an opening s + kp would otherwise
open the commitment to s. The metadata record is compact JSON.
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
    """The metadata record as posted: compact JSON with sorted keys."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def vss_commitments(board, sharing: bytes, n: int, params: CommitParams) -> list:
    """The n commitments of the VSS record at the sharing id `sharing`, as
    its owner first posted it. ValueError if the sharing has no record, or
    its first posting is not n commitments long."""
    try:
        return pedersen.unpack_commitments(board.first(sharing).value, n, params)
    except (AttributeError, ValueError):
        raise ValueError(f"sharing {sharing.hex()} has no VSS record "
                         f"of {n} commitments") from None


_KIND = {"input": b"I", "triple": b"T", "linear": b"L", "beaver": b"B", "output": b"O"}
_INDEX = 4   # bytes per step index or term count


def _index(i: int) -> bytes:
    return i.to_bytes(_INDEX, "big")


def pack_steps(records: list, field: Field, params: CommitParams) -> bytes:
    """Trail step records as one posted batch: each step's kind letter and
    fixed-width fields, laid end to end (the layout in the module notes).

    A record is {"kind": ..., plus per kind}: input "sharing" (32 bytes);
    triple "a", "b", "c" (commitment lists); linear "terms" ((coefficient,
    step) pairs) and "constant"; Beaver "x", "y", "triple" (steps),
    "eps_openings" and "delta_openings"; output "source", "openings" and
    "value". An openings list is each party's share and blinding in turn,
    2n elements. parse_steps reads the records back.
    """
    out = []
    for rec in records:
        kind = rec["kind"]
        out.append(_KIND[kind])
        if kind == "input":
            out.append(rec["sharing"])
        elif kind == "triple":
            out += [pedersen.pack_commitments(rec[name], params) for name in "abc"]
        elif kind == "linear":
            out.append(_index(len(rec["terms"])))
            out += [field.encode(c) + _index(ref) for c, ref in rec["terms"]]
            out.append(field.encode(rec["constant"]))
        elif kind == "beaver":
            out += [_index(rec[name]) for name in ("x", "y", "triple")]
            out.append(field.encode_many(rec["eps_openings"]))
            out.append(field.encode_many(rec["delta_openings"]))
        else:
            out.append(_index(rec["source"]))
            out.append(field.encode_many(rec["openings"]))
            out.append(field.encode(rec["value"]))
    return b"".join(out)


def parse_steps(data: bytes, n: int, field: Field, params: CommitParams,
                start: int = 0, end: int | None = None) -> list:
    """The step records of one posted batch whose first step is trail step
    `start`, as pack_steps wrote them; `end` is the trail's step count.

    Raises IncompleteTrail on a step cut short, bytes after step end - 1,
    an unknown kind letter, an opening, coefficient, constant or value not
    below p, or a step index that names no earlier step. Commitments are
    read without a range check.
    """
    p, e = field.p, field.elem_size
    vector = n * pedersen.width(params)
    fixed = {b"I": 33, b"T": 1 + 3 * vector, b"B": 13 + 4 * n * e, b"O": 5 + (2 * n + 1) * e}
    records = []
    at, step = 0, start

    def elements(lo: int, count: int) -> list:
        values = [int.from_bytes(data[i:i + e], "big") for i in range(lo, lo + count * e, e)]
        if values and max(values) >= p:
            raise IncompleteTrail(f"step {step} holds an element not below p = {p}")
        return values

    def earlier(lo: int) -> int:
        ref = int.from_bytes(data[lo:lo + _INDEX], "big")
        if ref >= step:
            raise IncompleteTrail(f"step {step} names step {ref}, which is not an earlier step")
        return ref

    while at < len(data):
        if step == end:
            raise IncompleteTrail(f"bytes after the last step, {end - 1}")
        letter = data[at:at + 1]
        if letter == b"L":
            k = int.from_bytes(data[at + 1:at + 5], "big")
            size = 5 + k * (e + _INDEX) + e
        elif letter in fixed:
            size = fixed[letter]
        else:
            raise IncompleteTrail(f"step {step} has the unknown kind letter {letter!r}")
        if at + size > len(data):
            raise IncompleteTrail(f"step {step} is cut short")
        body = at + 1
        if letter == b"I":
            rec = {"kind": "input", "sharing": data[body:body + 32]}
        elif letter == b"T":
            rec = {"kind": "triple"}
            for name in "abc":
                rec[name] = pedersen.unpack_commitments(data[body:body + vector], n, params)
                body += vector
        elif letter == b"L":
            terms = []
            for lo in range(body + _INDEX, body + _INDEX + k * (e + _INDEX), e + _INDEX):
                terms.append((elements(lo, 1)[0], earlier(lo + e)))
            rec = {"kind": "linear", "terms": terms, "constant": elements(at + size - e, 1)[0]}
        elif letter == b"B":
            flat = elements(body + 3 * _INDEX, 4 * n)
            rec = {"kind": "beaver", "x": earlier(body), "y": earlier(body + _INDEX),
                   "triple": earlier(body + 2 * _INDEX),
                   "eps_openings": flat[:2 * n], "delta_openings": flat[2 * n:]}
        else:
            flat = elements(body + _INDEX, 2 * n + 1)
            rec = {"kind": "output", "source": earlier(body),
                   "openings": flat[:-1], "value": flat[-1]}
        records.append(rec)
        at += size
        step += 1
    return records


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
        self.field = field
        self.params = pedersen.setup(field)
        self.n = n
        self.steps = 0
        self.first = 0
        while board.get(trail_key(computation_id, self.first)) is not None:
            self.first += 1
        self.batches = 0
        self._pending = []

    def post(self, *writes):
        """Post (key, value bytes) writes as one signed transaction."""
        self.submit(writes_payload(writes))

    def submit(self, payload: list):
        """Sign and submit a keyed payload (ledger.writes_payload)."""
        tx = make_tx(self.poster, "commitment-post", payload,
                     nonce=self.board.next_nonce(self.poster.sign_pk))
        self.board.submit_tx(tx)

    def post_input(self, sharing_id: bytes) -> int:
        """An input step naming the sharing's VSS record, which the auditor
        reads as first posted."""
        return self.post_step({"kind": "input", "sharing": sharing_id})

    def post_step(self, record: dict) -> int:
        self._pending.append(record)
        self.steps += 1
        return self.steps - 1

    def _batch(self) -> tuple:
        """The pending steps as the next batch's write."""
        write = (trail_key(self.computation_id, self.first + self.batches),
                 pack_steps(self._pending, self.field, self.params))
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
        meta = {"p": self.field.p, "n": self.n, "steps": self.steps,
                "first": self.first, "batches": self.batches}
        self.post(batch, (trail_meta_key(self.computation_id), record_bytes(meta)))


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
        record[name] = commitments
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
        "terms": [(c % field.p, sh.step) for c, sh in terms],
        "constant": constant % field.p,
    })
    return share


def _openings(share: PVShare) -> list:
    """Every party's share and blinding of `share`, in turn."""
    return [x for v, r in zip(share.value, share.randomness) for x in (v.value_share, r)]


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
            "eps_openings": _openings(eps_share),
            "delta_openings": _openings(delta_share),
        })
        products.append(product)
    return products


def pv_output(share: PVShare, field: Field, writer: TrailWriter) -> int:
    """Post the final per-party openings; returns the opened output."""
    value = sum(v.value_share for v in share.value) % field.p
    writer.post_step({"kind": "output", "source": share.step,
                      "openings": _openings(share), "value": value})
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
        first, batches, n = meta.get("first"), meta.get("batches"), meta.get("n")
        if not isinstance(first, int) or not isinstance(batches, int):
            raise IncompleteTrail("trail metadata lacks a first batch or a batch count")
        if type(n) is not int or n < 1:
            raise IncompleteTrail(f"trail metadata's party count {n!r} is not a positive int")
        field = Field(meta["p"])
        params = pedersen.setup(field)
        steps = meta["steps"]
        records = []
        for batch in range(first, first + batches):
            raw = board.get(trail_key(computation_id, batch))
            if raw is None:
                raise IncompleteTrail(f"missing trail batch {batch}")
            records += parse_steps(raw, n, field, params, len(records), steps)
        if len(records) != steps:
            raise IncompleteTrail(f"trail batches hold {len(records)} steps, "
                                  f"metadata says {steps}")
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
            for i, (cx, ca, s, r) in enumerate(zip(masked, mask, opens[0::2], opens[1::2])):
                if not ca % q or cx % q != pedersen.commit(s, r, params) * ca % q:
                    blame(i, label)

        for step, rec in enumerate(records):
            kind = rec["kind"]
            if kind == "input":
                vectors["value", step] = vss_commitments(board, rec["sharing"], n, params)
                derived[step] = (0, {("value", step): 1})
            elif kind == "triple":
                for name in ("a", "b", "c"):
                    vectors[name, step] = rec[name]
            elif kind == "linear":
                constant = rec["constant"]
                exps = {}
                for coeff, ref in rec["terms"]:
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
                eps_opens, delta_opens = rec["eps_openings"], rec["delta_openings"]
                check_masks(evaluate(rec["x"]), a, eps_opens, f"step {step} (eps)")
                check_masks(evaluate(rec["y"]), b, delta_opens, f"step {step} (delta)")
                eps = sum(eps_opens[0::2]) % field.p
                delta = sum(delta_opens[0::2]) % field.p
                derived[step] = (field.mul(eps, delta), {("c", triple): 1, ("b", triple): eps,
                                                         ("a", triple): delta})
            else:
                output_seen = True
                opens = rec["openings"]
                label = f"step {step} (output)"
                for i, (c, s, r) in enumerate(zip(evaluate(rec["source"]), opens[0::2],
                                                  opens[1::2])):
                    if not pedersen.verify_open(c, s, r, params):
                        blame(i, label)
                total = sum(opens[0::2]) % field.p
                if total != rec["value"]:
                    reasons.append(f"claimed output {rec['value']} != opened total {total}")
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise IncompleteTrail(repr(exc)) from None

    if not output_seen:
        raise IncompleteTrail("trail has no output step")
    ok = not guilty and not reasons
    return AuditReport(ok=ok, guilty=tuple(sorted(guilty)), reason="; ".join(reasons))
