"""Publicly verifiable sharing and the ledger audit trail.

Augments the authenticated sharing with a blinding sharing <r> and
per-party Pedersen commitments g^{s_i} h^{r_i} posted to the bulletin
board. Computing nodes only ever operate on the <.>-shares; the
commitments sit on the ledger where any third party can fold them through
the circuit after the fact:

  * linear steps and the public Beaver corrections are homomorphic on
    commitments, so every intermediate per-party commitment is recomputable
    from the posted inputs alone;
  * partially opened values (the Beaver eps/delta masks) are posted with
    per-party openings and checked against their derived commitments;
  * the output step posts every party's final (share, blinding) opening.

A party that posted a commitment inconsistent with what it later opened --
anywhere along the trail -- is named by the auditor. Trail records are JSON
blobs keyed by H(computation_id || step_index).
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


def trail_key(computation_id: bytes, step: int) -> bytes:
    return sha256(computation_id + step.to_bytes(8, "big"))


def trail_meta_key(computation_id: bytes) -> bytes:
    return sha256(computation_id + b"meta")


@dataclass
class PVShare:
    """<s> plus <r> plus the posted per-party commitments, as trail step."""

    value: list          # AuthShare vector for s
    randomness: list     # AuthShare vector for r
    commitments: list    # per-party g^{s_i} h^{r_i}
    step: int


class TrailWriter:
    """Posts trail records for one computation to the bulletin board.

    The step count lands in the metadata record only on close(), so an
    unfinished trail audits as incomplete rather than silently passing.
    """

    def __init__(self, board: Ledger, computation_id: bytes, poster: KeyPair,
                 field: Field, n: int):
        self.board = board
        self.computation_id = computation_id
        self.poster = poster
        self.field_p = field.p
        self.n = n
        self.steps = 0
        self._post_raw(trail_meta_key(computation_id), {"p": field.p, "n": n})

    def _post_raw(self, key: bytes, record: dict):
        tx = make_tx(self.poster, "commitment-post",
                     {"key": key.hex(),
                      "value": json.dumps(record, sort_keys=True).encode().hex()},
                     nonce=self.board.next_nonce(self.poster.sign_pk))
        self.board.submit_tx(tx)

    def post_step(self, record: dict) -> int:
        step = self.steps
        self._post_raw(trail_key(self.computation_id, step), record)
        self.steps += 1
        return step

    def close(self):
        self._post_raw(trail_meta_key(self.computation_id),
                       {"p": self.field_p, "n": self.n, "steps": self.steps})


def _commit_shares(values: list, blinds: list, params: CommitParams,
                   broken: set) -> list:
    """Per-party commitments; parties in `broken` post a shifted commitment."""
    out = []
    for i, (v, r) in enumerate(zip(values, blinds)):
        c = pedersen.commit(v.value_share, r.value_share, params)
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
    blind = spdz.deal_authenticated(field.rand(rng), n, key, field, rng)
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
        blind = spdz.deal_authenticated(field.rand(rng), n, key, field, rng)
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
    blind = spdz.auth_linear([(c, sh.randomness) for c, sh in terms], 0, key, field)
    step = writer.post_step({
        "kind": "linear",
        "terms": [[c % field.p, sh.step] for c, sh in terms],
        "constant": constant % field.p,
    })
    return PVShare(value=value, randomness=blind, commitments=[], step=step)


def _openings(share: PVShare) -> list:
    return [[v.value_share, r.value_share]
            for v, r in zip(share.value, share.randomness)]


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
        randomness=spdz.auth_linear([(1, x.randomness), (minus_one, a.randomness)],
                                    0, key, field),
        commitments=[], step=-1)


def pv_beaver_layer(pairs: list, triples: list, key: MacKey, params: CommitParams,
                    field: Field, net, queue: MacCheckQueue,
                    writer: TrailWriter) -> list:
    """[[x*y]] for every pair of one multiplication layer, a triple each.

    eps = x - a and delta = y - b of every product are opened in one
    batched broadcast round (MAC check deferred to the queue). Then each
    product posts its own beaver step with the per-party openings (share,
    blinding) of its masks, so the auditor can hold every party to its
    input commitments.
    """
    masks = [(_mask(x, a, key, field), _mask(y, b, key, field))
             for (x, y), (a, b, _) in zip(pairs, triples, strict=True)]
    opened = spdz.open_many([m.value for pair in masks for m in pair],
                            field, net, queue)
    products = []
    for (x, y), (a, b, c), (eps_share, delta_share), eps, delta in zip(
            pairs, triples, masks, opened[0::2], opened[1::2]):
        value = spdz.auth_linear(
            [(1, c.value), (eps, b.value), (delta, a.value)],
            field.mul(eps, delta), key, field)
        blind = spdz.auth_linear(
            [(1, c.randomness), (eps, b.randomness), (delta, a.randomness)],
            0, key, field)
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


def _inverse_or_zero(c: int, q: int) -> int:
    """c^-1 mod q for a posted commitment c. A c divisible by q has no
    inverse; it maps to 0, as c^(q-2) does, so the derived commitment fails
    its opening check and names the party instead of aborting the audit."""
    return pow(c, -1, q) if c % q else 0


def audit_trail(board, computation_id: bytes, claimed_output: int | None = None,
                openings: list | None = None) -> AuditReport:
    """Recompute the commitment trail and name every inconsistent party.

    Walks the posted steps, folding input/triple commitments through linear
    and Beaver records, and checks every posted opening (Beaver masks and
    the final output) against the derived per-party commitments. `openings`
    overrides the output step's posted openings when an auditor wants to
    check a third-party claim.
    """
    meta_raw = board.get(trail_meta_key(computation_id))
    if meta_raw is None:
        raise IncompleteTrail("no trail metadata for computation")
    meta = json.loads(meta_raw.decode())
    steps = meta.get("steps")
    if steps is None:
        raise IncompleteTrail("trail metadata lacks a step count")
    field = Field(meta["p"])
    params = pedersen.setup(field)
    n = meta["n"]
    q = params.q

    commitments = {}   # step -> per-party commitment vector (or dict of vectors)
    guilty = set()
    reasons = []
    output_seen = False

    def check_openings(derived: list, opens: list, label: str):
        if len(opens) != n:
            raise IncompleteTrail(f"{label}: expected {n} openings, got {len(opens)}")
        for i, (c, (s, r)) in enumerate(zip(derived, opens)):
            if not pedersen.verify_open(c, s, r, params):
                guilty.add(i)
                reasons.append(f"party {i} broke its commitment at {label}")

    for step in range(steps):
        raw = board.get(trail_key(computation_id, step))
        if raw is None:
            raise IncompleteTrail(f"missing trail step {step}")
        rec = json.loads(raw.decode())
        kind = rec["kind"]
        if kind == "input":
            commitments[step] = [int(c, 16) for c in rec["commitments"]]
        elif kind == "triple":
            commitments[step] = {name: [int(c, 16) for c in rec[name]]
                                 for name in ("a", "b", "c")}
        elif kind == "linear":
            acc = [pedersen.commit(rec["constant"] if i == 0 else 0, 0, params)
                   for i in range(n)]
            for coeff, ref in rec["terms"]:
                src = commitments[ref]
                for i in range(n):
                    acc[i] = acc[i] * pow(src[i], coeff, q) % q
            commitments[step] = acc
        elif kind == "beaver":
            trip = commitments[rec["triple"]]
            x_c, y_c = commitments[rec["x"]], commitments[rec["y"]]
            eps_opens = rec["eps_openings"]
            delta_opens = rec["delta_openings"]
            # Derived commitments for the masks: C(x) / C(a), C(y) / C(b).
            eps_c = [x_c[i] * _inverse_or_zero(trip["a"][i], q) % q for i in range(n)]
            delta_c = [y_c[i] * _inverse_or_zero(trip["b"][i], q) % q for i in range(n)]
            check_openings(eps_c, eps_opens, f"step {step} (eps)")
            check_openings(delta_c, delta_opens, f"step {step} (delta)")
            eps = sum(s for s, _ in eps_opens) % field.p
            delta = sum(s for s, _ in delta_opens) % field.p
            acc = []
            for i in range(n):
                c = trip["c"][i] * pow(trip["b"][i], eps, q) % q
                c = c * pow(trip["a"][i], delta, q) % q
                if i == 0:
                    c = c * pedersen.commit(field.mul(eps, delta), 0, params) % q
                acc.append(c)
            commitments[step] = acc
        elif kind == "output":
            output_seen = True
            derived = commitments[rec["source"]]
            opens = openings if openings is not None else rec["openings"]
            check_openings(derived, opens, f"step {step} (output)")
            total = sum(s for s, _ in opens) % field.p
            claimed = claimed_output if claimed_output is not None else rec["value"]
            if total != claimed % field.p:
                reasons.append(f"claimed output {claimed} != opened total {total}")
        else:
            raise IncompleteTrail(f"unknown trail record kind {kind!r}")

    if not output_seen:
        raise IncompleteTrail("trail has no output step")
    ok = not guilty and not reasons
    return AuditReport(ok=ok, guilty=tuple(sorted(guilty)), reason="; ".join(reasons))
