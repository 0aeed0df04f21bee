import base64
import copy
import json
import random

import pytest

from mpcnet import audit, pedersen, spdz
from mpcnet.circuits import layerize, parse_circuit
from mpcnet.errors import IncompleteTrail
from mpcnet.field import M61, Field
from mpcnet.keys import KeyPair, sha256
from mpcnet.ledger import Ledger
from mpcnet.net import LocalChannel
from oracles import combine_commitments, fold_trail, random_circuit, reposted


@pytest.fixture
def setup101(f101):
    rng = random.Random(21)
    return {
        "field": f101,
        "params": pedersen.setup(f101),
        "rng": rng,
        "poster": KeyPair.generate(rng),
    }


def run_pv_computation(env, n, broken=frozenset(), tamper_output=None):
    """One [[.]] computation: z = 2*(x*y) + 1 over fresh shares of (4, 5)."""
    field, params, rng = env["field"], env["params"], env["rng"]
    key = spdz.gen_mac_key(n, field, rng)
    ledger = Ledger()
    comp_id = sha256(b"audit-case" + bytes([n]) + bytes(sorted(broken)))
    writer = audit.TrailWriter(ledger, comp_id, env["poster"], field, n)
    x = audit.pv_share(4, n, key, params, writer, field, rng, broken=broken)
    y = audit.pv_share(5, n, key, params, writer, field, rng)
    triple = audit.pv_triple(key, params, writer, field, rng)
    net, queue = LocalChannel(), []
    z = audit.pv_beaver(x, y, triple, key, params, field, net, queue, writer)
    w = audit.pv_linear([(2, z)], 1, key, field, writer)
    value = audit.pv_output(w, field, writer)
    writer.close()
    return ledger, comp_id, value


def forged_board(ledger, comp_id, kind, edit):
    """A board that serves `ledger`, except that the trail batch holding
    the first record of `kind` is served with `edit` applied to that
    record in place."""
    batches = json.loads(ledger.get(audit.trail_meta_key(comp_id)))["batches"]
    for key in (audit.trail_key(comp_id, b) for b in range(batches)):
        batch = json.loads(ledger.get(key))
        record = next((rec for rec in batch if rec["kind"] == kind), None)
        if record is not None:
            break
    edit(record)
    return reposted(ledger, {key: audit.record_bytes(batch)})


def test_honest_run_passes(setup101):
    ledger, comp_id, value = run_pv_computation(setup101, 3)
    assert value == 41  # 2*(4*5) + 1
    report = audit.audit_trail(ledger, comp_id)
    assert report.ok and report.guilty == ()


def test_trail_metadata_is_written_once_at_close(setup101, f101):
    # A new trail posts nothing; close() writes the metadata record, with
    # the step and batch counts, as its last entry and its only one.
    ledger = Ledger()
    comp_id = sha256(b"metadata-once")
    writer = audit.TrailWriter(ledger, comp_id, setup101["poster"], f101, 3)
    assert ledger.height == 0
    writer.post_step({"kind": "marker"})
    writer.close()
    meta_key = audit.trail_meta_key(comp_id)
    assert [e.key for e in ledger.entries] == [audit.trail_key(comp_id, 0), meta_key]
    assert json.loads(ledger.get(meta_key)) == {"p": 101, "n": 3, "steps": 1, "first": 0,
                                             "batches": 1}


def test_only_pending_commitments_are_flushed_before_an_opening(setup101, f101):
    # flush_commitments posts nothing while the pending steps carry no
    # commitment, and all of them, in one batch, once one does.
    ledger = Ledger()
    comp_id = sha256(b"commitments-first")
    writer = audit.TrailWriter(ledger, comp_id, setup101["poster"], f101, 3)
    writer.post_step({"kind": "linear"})
    writer.flush_commitments()
    assert ledger.height == 0
    writer.post_step({"kind": "triple"})
    writer.flush_commitments()
    assert json.loads(ledger.get(audit.trail_key(comp_id, 0))) == [{"kind": "linear"},
                                                                   {"kind": "triple"}]
    writer.flush_commitments()
    writer.flush()
    assert ledger.height == 1


def test_a_second_writer_numbers_its_batches_after_the_first(setup101, f101):
    # A restarted computation's second attempt writes no key of the
    # first's, and its metadata names its own batches only.
    ledger = Ledger()
    comp_id = sha256(b"restart")
    aborted = audit.TrailWriter(ledger, comp_id, setup101["poster"], f101, 3)
    aborted.post_step({"kind": "aborted"})
    aborted.flush()
    finished = audit.TrailWriter(ledger, comp_id, setup101["poster"], f101, 3)
    finished.post_step({"kind": "finished"})
    finished.close()
    meta_key = audit.trail_meta_key(comp_id)
    assert [e.key for e in ledger.entries] == [audit.trail_key(comp_id, 0),
                                               audit.trail_key(comp_id, 1), meta_key]
    assert json.loads(ledger.get(meta_key)) == {"p": 101, "n": 3, "steps": 1, "first": 1,
                                                "batches": 1}
    assert json.loads(ledger.get(audit.trail_key(comp_id, 0))) == [{"kind": "aborted"}]


def test_pv_share_posts_n_commitments(setup101, f101):
    env = setup101
    key = spdz.gen_mac_key(4, f101, env["rng"])
    ledger = Ledger()
    comp_id = sha256(b"cardinality")
    writer = audit.TrailWriter(ledger, comp_id, env["poster"], f101, 4)
    share = audit.pv_share(33, 4, key, env["params"], writer, f101, env["rng"])
    writer.flush()
    record = json.loads(ledger.get(audit.trail_key(comp_id, 0)))[share.step]
    assert record == {"kind": "input", "sharing": record["sharing"]}
    # 4 commitments of ceil(bits(607) / 8) = 2 bytes each, raw.
    assert len(ledger.get(bytes.fromhex(record["sharing"]))) == 8
    commitments = audit.vss_commitments(ledger, record["sharing"], 4, env["params"])
    assert combine_commitments(commitments, env["params"]) == pedersen.commit(
        sum(s.value_share for s in share.value) % 101,
        sum(share.randomness) % 101,
        env["params"])


@pytest.mark.parametrize("broken", [set(), {0}, {2}, {1, 3}])
def test_commit_shares_shifts_exactly_the_broken_parties(setup101, broken):
    params, rng = setup101["params"], setup101["rng"]
    values = [rng.randrange(101) for _ in range(4)]
    blinds = [rng.randrange(101) for _ in range(4)]
    honest = [pedersen.commit(v, r, params) for v, r in zip(values, blinds)]
    assert audit.commit_shares(values, blinds, params, broken) == [
        c * params.g % params.q if i in broken else c for i, c in enumerate(honest)]


P101 = pedersen.setup(Field(101))


# Malformed VSS records for 3 parties at p = 101, where a record is 3
# commitments of 2 bytes: none is 6 bytes long. The JSON ones are the
# record's earlier form, base64 inside JSON, and its malformed variants.
BAD_VSS_RECORDS = {
    "missing": None,
    "not-json": b"not json",
    "two-of-three": pedersen.pack_commitments([5, 7], P101),
    "not-a-list": b'{"commitments": 5}',
    "no-commitments": b"[1, 2, 3]",
    "not-base64": json.dumps(
        {"commitments": pedersen.encode_commitments([5, 7, 9], P101)[:-1]}).encode(),
    "hex-list": b'{"commitments": ["0x5", "0x7", "0x9"]}',
    "empty": b"",
    "one-byte-short": pedersen.pack_commitments([5, 7, 9], P101)[:-1],
    "one-byte-long": pedersen.pack_commitments([5, 7, 9], P101) + b"\x00",
    "json-form": audit.record_bytes(
        {"commitments": pedersen.encode_commitments([5, 7, 9], P101)}),
}


@pytest.mark.parametrize("posted", BAD_VSS_RECORDS.values(), ids=BAD_VSS_RECORDS.keys())
def test_input_naming_a_bad_vss_record_is_incomplete(setup101, posted):
    # x's VSS record is first posted malformed, or never posted.
    ledger, comp_id, _ = run_pv_computation(setup101, 3)
    first = json.loads(ledger.get(audit.trail_key(comp_id, 0)))[0]
    x_key = bytes.fromhex(first["sharing"])
    with pytest.raises(IncompleteTrail, match="VSS record"):
        audit.audit_trail(reposted(ledger, {x_key: posted}), comp_id)


@pytest.mark.parametrize("name", [None, "zz", 7], ids=["no-name", "not-hex", "not-a-string"])
def test_input_without_a_sharing_name_is_incomplete(setup101, name):
    ledger, comp_id, _ = run_pv_computation(setup101, 3)
    first_key = audit.trail_key(comp_id, 0)
    batch = json.loads(ledger.get(first_key))
    batch[0].pop("sharing")
    if name is not None:
        batch[0]["sharing"] = name
    forged = json.dumps(batch).encode()
    with pytest.raises(IncompleteTrail, match="VSS record"):
        audit.audit_trail(reposted(ledger, {first_key: forged}), comp_id)


def test_single_broken_commitment_named_exactly(setup101):
    # Exhaustive single-party fault injection for n in 2..5.
    for n in range(2, 6):
        for culprit in range(n):
            ledger, comp_id, _ = run_pv_computation(setup101, n, broken={culprit})
            report = audit.audit_trail(ledger, comp_id)
            assert not report.ok
            assert report.guilty == (culprit,)


def test_broken_triple_in_batched_layer_named(setup101):
    # Four products share one opening round; party 1 posts a broken
    # commitment for the third product's triple only. The audit still
    # names exactly party 1.
    env = setup101
    field, params, rng = env["field"], env["params"], env["rng"]
    n, k = 3, 4
    key = spdz.gen_mac_key(n, field, rng)
    ledger = Ledger()
    comp_id = sha256(b"batched-layer")
    writer = audit.TrailWriter(ledger, comp_id, env["poster"], field, n)
    pairs = [(audit.pv_share(2 + i, n, key, params, writer, field, rng),
              audit.pv_share(7 + i, n, key, params, writer, field, rng))
             for i in range(k)]
    triples = [audit.pv_triple(key, params, writer, field, rng,
                               broken={1} if i == 2 else frozenset())
               for i in range(k)]
    net = LocalChannel()
    products = audit.pv_beaver_layer(pairs, triples, key, params, field, net,
                                     [], writer)
    assert net.messages == n * (n - 1)
    total = audit.pv_linear([(1, z) for z in products], 0, key, field, writer)
    assert audit.pv_output(total, field, writer) == sum(
        (2 + i) * (7 + i) for i in range(k)) % field.p
    writer.close()
    report = audit.audit_trail(ledger, comp_id)
    assert not report.ok
    assert report.guilty == (1,)


def test_missing_trail_records(setup101):
    ledger = Ledger()
    with pytest.raises(IncompleteTrail):
        audit.audit_trail(ledger, sha256(b"nothing-here"))


def test_unclosed_trail_is_incomplete(setup101, f101):
    env = setup101
    key = spdz.gen_mac_key(3, f101, env["rng"])
    ledger = Ledger()
    comp_id = sha256(b"unclosed")
    writer = audit.TrailWriter(ledger, comp_id, env["poster"], f101, 3)
    audit.pv_share(1, 3, key, env["params"], writer, f101, env["rng"])
    with pytest.raises(IncompleteTrail):
        audit.audit_trail(ledger, comp_id)


def test_short_openings_list_is_incomplete(setup101, f101):
    # The output record opens two of the three parties.
    ledger, comp_id, _ = run_pv_computation(setup101, 3)

    def shorten(rec):
        rec["openings"] = pedersen.encode_openings([[0, 0], [0, 0]], f101)

    with pytest.raises(IncompleteTrail, match="expected 6 bytes, got 4"):
        audit.audit_trail(forged_board(ledger, comp_id, "output", shorten), comp_id)


@pytest.fixture
def setup_m61(setup101):
    field = Field(M61)
    return {**setup101, "field": field, "params": pedersen.setup(field)}


@pytest.mark.parametrize("name, party, part, multiple", [
    ("eps_openings", 2, 0, 1),
    ("delta_openings", 3, 1, 5),
], ids=["eps-share-plus-p", "delta-blinding-plus-5p"])
def test_posted_opening_outside_the_field_is_incomplete(setup_m61, name, party, part,
                                                        multiple):
    # s + k*p opens the same commitment as s, since commit reduces mod p.
    # The writer posts every opening mod p, and the auditor reads one that
    # is not as an incomplete trail rather than accepting it. Over M61 an
    # element is 8 bytes wide, so 6p still fits.
    field = setup_m61["field"]
    ledger, comp_id, _ = run_pv_computation(setup_m61, 4)

    def lift(beaver):
        opens = [list(pair) for pair in pedersen.decode_openings(beaver[name], 4, field)]
        opens[party][part] += multiple * field.p
        beaver[name] = pedersen.encode_openings(opens, field)

    assert audit.audit_trail(ledger, comp_id).ok
    with pytest.raises(IncompleteTrail, match="out of field range"):
        audit.audit_trail(forged_board(ledger, comp_id, "beaver", lift), comp_id)


def test_claimed_output_mismatch_fails(setup101):
    ledger, comp_id, value = run_pv_computation(setup101, 3)

    def overstate(rec):
        rec["value"] = value + 1

    report = audit.audit_trail(forged_board(ledger, comp_id, "output", overstate), comp_id)
    assert not report.ok


def test_false_output_opening_blames_party(setup101, f101):
    # The output record opens party 2's share shifted by 1 and claims the
    # total of what it opens: the claim adds up, and party 2 is named.
    ledger, comp_id, _ = run_pv_computation(setup101, 3)

    def shift(rec):
        opens = [list(pair) for pair in pedersen.decode_openings(rec["openings"], 3, f101)]
        opens[2][0] = (opens[2][0] + 1) % 101
        rec["openings"] = pedersen.encode_openings(opens, f101)
        rec["value"] = sum(s for s, _ in opens) % 101

    report = audit.audit_trail(forged_board(ledger, comp_id, "output", shift), comp_id)
    assert not report.ok
    assert 2 in report.guilty


def test_zero_triple_commitment_names_its_party(setup101):
    # A posted commitment divisible by q has no inverse; the audit must name
    # the party that posted it rather than fail on the division.
    ledger, comp_id, _ = run_pv_computation(setup101, 3)
    params = setup101["params"]

    def zero(triple):
        a = pedersen.decode_commitments(triple["a"], 3, params)
        a[1] = params.q
        triple["a"] = pedersen.encode_commitments(a, params)

    report = audit.audit_trail(forged_board(ledger, comp_id, "triple", zero), comp_id)
    assert not report.ok
    assert report.guilty == (1,)


def test_unusual_linear_steps_fold_like_the_step_fold(setup101, f101):
    # Linear steps the engine never emits: w = z + 2z reads one source twice
    # with different coefficients, and v = 1*x takes over input x's
    # commitments on x's last read. Both are opened. Honest, and with party
    # 1's commitment in x's VSS record raised by q as first posted, the
    # audit must agree with the per-step fold.
    env, n = setup101, 3
    field, params, rng = f101, env["params"], env["rng"]
    key = spdz.gen_mac_key(n, field, rng)
    ledger = Ledger()
    comp_id = sha256(b"unusual-linear")
    writer = audit.TrailWriter(ledger, comp_id, env["poster"], field, n)
    x = audit.pv_share(4, n, key, params, writer, field, rng)
    y = audit.pv_share(5, n, key, params, writer, field, rng)
    triple = audit.pv_triple(key, params, writer, field, rng)
    z = audit.pv_beaver(x, y, triple, key, params, field, LocalChannel(),
                        [], writer)
    w = audit.pv_linear([(1, z), (2, z)], 1, key, field, writer)
    assert audit.pv_output(w, field, writer) == 61   # 3*(4*5) + 1
    v = audit.pv_linear([(1, x)], 0, key, field, writer)
    assert audit.pv_output(v, field, writer) == 4
    writer.close()
    meta_key = audit.trail_meta_key(comp_id)
    batches = [json.loads(ledger.get(audit.trail_key(comp_id, b)))
               for b in range(json.loads(ledger.get(meta_key))["batches"])]
    records = [rec for batch in batches for rec in batch]
    report = audit.audit_trail(ledger, comp_id)
    assert report.ok and report == fold_trail(ledger, records, n, 101)
    x_key = bytes.fromhex(records[x.step]["sharing"])
    x_commitments = audit.vss_commitments(ledger, x_key.hex(), n, params)
    x_commitments[1] += params.q
    board = reposted(ledger, {x_key: pedersen.pack_commitments(x_commitments, params)})
    assert audit.audit_trail(board, comp_id) == fold_trail(board, records, n, 101)


def test_linear_step_without_terms_folds_like_the_step_fold(setup101):
    # A posted linear step with no terms is the public constant alone:
    # g^5 on party 0 and 1 elsewhere, which the posted output openings of
    # 2*(x*y) + 1 do not open.
    ledger, comp_id, _ = run_pv_computation(setup101, 3)
    batches = json.loads(ledger.get(audit.trail_meta_key(comp_id)).decode())["batches"]
    posted = {audit.trail_key(comp_id, b): json.loads(ledger.get(audit.trail_key(comp_id, b)))
              for b in range(batches)}
    key, batch = next((k, batch) for k, batch in posted.items()
                      if any(rec["kind"] == "linear" for rec in batch))
    next(rec for rec in batch if rec["kind"] == "linear").update(terms=[], constant=5)
    board = reposted(ledger, {key: json.dumps(batch).encode()})
    records = [rec for b in range(batches) for rec in
               json.loads(board.get(audit.trail_key(comp_id, b)))]
    report = audit.audit_trail(board, comp_id)
    assert report == fold_trail(board, records, 3, 101)
    assert report.guilty == (0, 1, 2)


def test_shared_exponents_fold_like_the_step_fold(setup101, f101):
    # A trail whose exponent maps share symbols in every way the auditor
    # tracks: u = 3x is scaled by t = 5u before a Beaver step evaluates it
    # and by v = 2u + m after, and w1 = 100v and w2 = 100w1 + t chain
    # coefficient p - 1, so exponents pass q - 1 and are cut per symbol.
    # Party 1 then posts equal a and b commitments in the triple, and a c
    # commitment equal to its commitment for input x. The audit must agree
    # with the per-step fold as posted, and with +-1 on any one opening.
    env, n = setup101, 3
    field, params, rng = f101, env["params"], env["rng"]
    minus_one = field.p - 1
    key = spdz.gen_mac_key(n, field, rng)
    ledger = Ledger()
    comp_id = sha256(b"shared-exponents")
    writer = audit.TrailWriter(ledger, comp_id, env["poster"], field, n)
    x = audit.pv_share(4, n, key, params, writer, field, rng)
    y = audit.pv_share(5, n, key, params, writer, field, rng)
    u = audit.pv_linear([(3, x)], 0, key, field, writer)
    t = audit.pv_linear([(5, u)], 0, key, field, writer)
    triple = audit.pv_triple(key, params, writer, field, rng)
    m = audit.pv_beaver(u, y, triple, key, params, field, LocalChannel(),
                        [], writer)
    v = audit.pv_linear([(2, u), (1, m)], 0, key, field, writer)
    w1 = audit.pv_linear([(minus_one, v)], 0, key, field, writer)
    w2 = audit.pv_linear([(minus_one, w1), (1, t)], 1, key, field, writer)
    assert audit.pv_output(w2, field, writer) == (2 * 12 + 12 * 5 + 60 + 1) % field.p
    writer.close()
    meta_key = audit.trail_meta_key(comp_id)
    batches = [json.loads(ledger.get(audit.trail_key(comp_id, b)))
               for b in range(json.loads(ledger.get(meta_key))["batches"])]
    records = [rec for batch in batches for rec in batch]
    assert audit.audit_trail(ledger, comp_id) == fold_trail(ledger, records, n, 101)
    assert audit.audit_trail(ledger, comp_id).ok

    x_commitments = audit.vss_commitments(ledger, records[x.step]["sharing"], n, params)
    forged = copy.deepcopy(records)
    triple_rec = forged[triple[0].step]
    a, b, c = (pedersen.decode_commitments(triple_rec[name], n, params) for name in "abc")
    b[1] = a[1]
    c[1] = x_commitments[1]
    triple_rec["b"] = pedersen.encode_commitments(b, params)
    triple_rec["c"] = pedersen.encode_commitments(c, params)

    def board_of(records):
        values, at = {}, 0
        for b, batch in enumerate(batches):
            values[audit.trail_key(comp_id, b)] = json.dumps(records[at:at + len(batch)]).encode()
            at += len(batch)
        return reposted(ledger, values)

    board = board_of(forged)
    assert audit.audit_trail(board, comp_id) == fold_trail(board, forged, n, 101)
    assert audit.audit_trail(board, comp_id).guilty == (1,)
    cases = 0
    for posted in (records, forged):
        for step, rec in enumerate(posted):
            for name in ("eps_openings", "delta_openings", "openings"):
                for i in range(n if name in rec else 0):
                    for part, shift in ((0, 1), (0, -1), (1, 1), (1, -1)):
                        tampered = copy.deepcopy(posted)
                        opens = [list(pair) for pair in
                                 pedersen.decode_openings(rec[name], n, field)]
                        opens[i][part] = (opens[i][part] + shift) % field.p
                        tampered[step][name] = pedersen.encode_openings(opens, field)
                        board = board_of(tampered)
                        expected = fold_trail(board, tampered, n, 101)
                        assert not expected.ok
                        assert audit.audit_trail(board, comp_id) == expected, (step, name, i)
                        cases += 1
    assert cases == 2 * (2 * n + n) * 4


@pytest.mark.parametrize("meta_edit,batch_edit", [
    (lambda meta: meta.pop("batches"), None),
    (lambda meta: meta.update(batches="2"), None),
    (lambda meta: meta.pop("first"), None),
    (lambda meta: meta.update(first=1), None),
    (None, lambda batch: batch[0]),
    (None, lambda batch: [batch]),
], ids=["no-batch-count", "batch-count-string", "no-first-batch", "first-batch-shifted",
        "batch-is-a-record", "batch-of-lists"])
def test_malformed_trail_is_incomplete(setup101, meta_edit, batch_edit):
    # Metadata without an integer batch count (as in a per-step trail) or
    # first batch, metadata naming a batch the board lacks, and a batch
    # that is not a list of records are incomplete trails.
    ledger, comp_id, _ = run_pv_computation(setup101, 3)
    meta_key = audit.trail_meta_key(comp_id)
    board = {meta_key: ledger.get(meta_key)}
    meta = json.loads(board[meta_key])
    for b in range(meta["batches"]):
        batch = json.loads(ledger.get(audit.trail_key(comp_id, b)))
        if batch_edit:
            batch = batch_edit(batch)
        board[audit.trail_key(comp_id, b)] = json.dumps(batch).encode()
    if meta_edit:
        meta_edit(meta)
        board[meta_key] = json.dumps(meta).encode()
    with pytest.raises(IncompleteTrail):
        audit.audit_trail(board, comp_id)


# The base64 fields a trail record holds: commitments, then openings.
BASE64_FIELDS = [("triple", "a"), ("beaver", "eps_openings"), ("output", "openings")]

# One edit per kind of base64 field that load_dump refuses as a dump value.
MALFORMED_BASE64 = {
    "outside-the-alphabet": lambda text: text[:1] + "-" + text[2:],
    "padding-missing": lambda text: text[:-1],
    "padding-inside": lambda text: text[:4] + "=" + text[5:],
    "only-padding": lambda text: "==",
    "non-ascii": lambda text: text[:1] + "\u00e9" + text[2:],
}


def field_decoder(kind: str, env):
    if kind == "triple":
        return lambda text: pedersen.decode_commitments(text, 3, env["params"])
    return lambda text: pedersen.decode_openings(text, 3, env["field"])


@pytest.mark.parametrize("edit", MALFORMED_BASE64.values(), ids=MALFORMED_BASE64.keys())
@pytest.mark.parametrize("kind, name", BASE64_FIELDS)
def test_malformed_base64_field_is_refused_and_incomplete(setup101, kind, name, edit):
    ledger, comp_id, _ = run_pv_computation(setup101, 3)
    decode = field_decoder(kind, setup101)

    def forge(rec):
        decode(rec[name])
        rec[name] = edit(rec[name])
        with pytest.raises(ValueError):
            decode(rec[name])

    with pytest.raises(IncompleteTrail):
        audit.audit_trail(forged_board(ledger, comp_id, kind, forge), comp_id)


@pytest.mark.parametrize("kind, name", BASE64_FIELDS)
def test_padding_past_the_encoding_is_incomplete(setup101, kind, name):
    # Strict base64 decoding reads the field with one "=" appended as it
    # reads the field; the decoders, like load_dump, refuse it.
    ledger, comp_id, _ = run_pv_computation(setup101, 3)
    decode = field_decoder(kind, setup101)

    def forge(rec):
        assert base64.b64decode(rec[name] + "=", validate=True) == base64.b64decode(rec[name])
        rec[name] += "="
        with pytest.raises(ValueError, match="characters do not encode"):
            decode(rec[name])

    with pytest.raises(IncompleteTrail, match="characters do not encode"):
        audit.audit_trail(forged_board(ledger, comp_id, kind, forge), comp_id)


@pytest.mark.parametrize("p", [101, M61], ids=["p101", "M61"])
@pytest.mark.parametrize("count", [0, 1, 7, 8, 64, 200])
def test_multi_exp_equals_the_product_of_pows(p, count):
    # 1, 3 and 15 rows share one exponent vector. Below eight terms each
    # row is one pow per term, from eight on one digit plan serves every
    # row; both must give prod(pow(base, exp, q)) exactly, for exponent 0,
    # 1 << 130, exponents >= p and the bases 0, 1, q - 1, q and values >= q.
    q = pedersen.setup(Field(p)).q
    rng = random.Random(count * 1009 + p % 997)
    r = rng.randrange(2, q - 1)
    edge_exps = [0, 0, 1 << 130, p, p + 1, 0, p - 1, 2 * p + 3]
    edge_bases = [0, q, 1, q - 1, q - 1, r, r, r]
    exps = (edge_exps + [rng.randrange(1 << rng.choice((8, 61, 200)))
                         for _ in range(count)])[:count]
    special = (0, 1, q - 1, q, q + 1, 2 * q - 1)

    def base():
        return rng.choice(special) if rng.random() < 0.2 else rng.randrange(2 * q)

    def product(row, exps):
        acc = 1
        for b, e in zip(row, exps, strict=True):
            acc = acc * pow(b, e, q) % q
        return acc

    for n_rows in (1, 3, 15):
        rows = [(edge_bases + [base() for _ in range(count)])[:count]]
        rows += [[base() for _ in range(count)] for _ in range(n_rows - 1)]
        assert audit._multi_exp(rows, exps, q) == [product(row, exps) for row in rows]
        if not count:
            continue
        # A base divisible by q under a positive exponent zeroes its row and
        # no other.
        for zero, exp in ((0, 5), (q, 1)):
            spoiled_exps = exps[:-1] + [exp]
            spoiled = rows[:-1] + [rows[-1][:-1] + [zero]]
            got = audit._multi_exp(spoiled, spoiled_exps, q)
            assert got == [product(row, spoiled_exps) for row in spoiled]
            assert got[-1] == 0
            assert [value == 0 for value in got] == [
                any(b % q == 0 and e > 0 for b, e in zip(row, spoiled_exps))
                for row in spoiled]


def pv_trail(circuit, n: int, env, comp_id: bytes) -> Ledger:
    """The closed trail of `circuit` on fresh random inputs, written through
    the pv_* API as the audited engine writes it: every triple up front by
    pv_triple, inputs by pv_share, add and smul by pv_linear (here with a
    random public constant now and then), each mul layer by
    pv_beaver_layer, and the outputs by pv_output."""
    field, params, rng = env["field"], env["params"], env["rng"]
    key = spdz.gen_mac_key(n, field, rng)
    ledger = Ledger()
    writer = audit.TrailWriter(ledger, comp_id, env["poster"], field, n)
    plan = layerize(circuit, n)
    gates = plan.circuit.gates
    dealt = iter([audit.pv_triple(key, params, writer, field, rng)
                  for g in gates if g.kind == "mul"])
    wires = {idx: audit.pv_share(field.rand(rng), n, key, params, writer, field, rng)
             for idx, g in enumerate(gates) if g.kind == "input"}
    for kind, indices in plan.layers:
        if kind == "mul":
            pairs = [(wires[a], wires[b]) for a, b in (gates[i].args for i in indices)]
            triples = [next(dealt) for _ in pairs]
            wires.update(zip(indices, audit.pv_beaver_layer(
                pairs, triples, key, params, field, LocalChannel(), [],
                writer)))
            continue
        for i in indices:
            g = gates[i]
            terms = ([(1, wires[g.args[0]]), (1, wires[g.args[1]])] if g.kind == "add"
                     else [(g.scalar % field.p, wires[g.args[0]])])
            constant = field.rand(rng) if rng.random() < 0.25 else 0
            wires[i] = audit.pv_linear(terms, constant, key, field, writer)
    writer.flush_commitments()
    for g in gates:
        if g.kind == "output":
            audit.pv_output(wires[g.args[0]], field, writer)
    writer.close()
    return ledger


def dot_circuit(k: int):
    lines = [f"in x{i}" for i in range(k)] + [f"in y{i}" for i in range(k)]
    lines += [f"p{i} = mul x{i} y{i}" for i in range(k)]
    total = "p0"
    for i in range(1, k):
        lines.append(f"s{i} = add {total} p{i}")
        total = f"s{i}"
    return parse_circuit("\n".join(lines + [f"out {total}"]))


def chain_circuit(k: int):
    lines = [f"in x{i}" for i in range(k + 1)] + ["m1 = mul x0 x1"]
    lines += [f"m{i} = mul m{i - 1} x{i}" for i in range(2, k + 1)]
    return parse_circuit("\n".join(lines + [f"out m{k}"]))


@pytest.mark.parametrize("circuit, folds, terms", [
    (dot_circuit(1), 1, [3]), (dot_circuit(4), 1, [12]), (dot_circuit(9), 1, [27]),
    (chain_circuit(1), 1, [3]), (chain_circuit(4), 4, [3] * 4),
], ids=["dot1", "dot4", "dot9", "chain1", "chain4"])
def test_audit_folds_each_opened_step_once_and_no_input(setup101, monkeypatch, circuit,
                                                        folds, terms):
    # Work counts, not time: a dot product of any length folds once (its
    # output, over a triple's c, b and a per product), and a chain of k
    # products k times (each product once, as the next one's mask or as the
    # output). An input is checked as posted and never folded.
    calls = []
    multi_exp = audit._multi_exp

    def counted(rows, exps, q):
        calls.append(len(exps))
        return multi_exp(rows, exps, q)

    monkeypatch.setattr(audit, "_multi_exp", counted)
    comp_id = sha256(b"work-count")
    ledger = pv_trail(circuit, 3, setup101, comp_id)
    assert audit.audit_trail(ledger, comp_id).ok
    assert len(calls) == folds and calls == terms


def test_audit_agrees_with_the_step_fold_on_random_circuits(setup101):
    # 100 seeded random circuits, each audited as posted and with one
    # tamper: +-1 on one posted opening (share or blinding), or one party's
    # triple base replaced by 0, by q, or by its value + q. The audit must
    # equal the per-step fold every time.
    params, n = setup101["params"], 3
    q = params.q
    rng = random.Random(2024)
    tampered_ok = 0
    for case in range(100):
        comp_id = sha256(b"differential" + case.to_bytes(2, "big"))
        ledger = pv_trail(random_circuit(rng), n, setup101, comp_id)
        meta = json.loads(ledger.get(audit.trail_meta_key(comp_id)))
        batches = [json.loads(ledger.get(audit.trail_key(comp_id, b)))
                   for b in range(meta["batches"])]
        records = [rec for batch in batches for rec in batch]
        report = audit.audit_trail(ledger, comp_id)
        assert report.ok and report == fold_trail(ledger, records, n, 101), case

        forged = copy.deepcopy(records)
        opened = [(step, name) for step, rec in enumerate(forged)
                  for name in ("eps_openings", "delta_openings", "openings") if name in rec]
        triples = [step for step, rec in enumerate(forged) if rec["kind"] == "triple"]
        i = rng.randrange(n)
        if triples and rng.random() < 0.5:
            rec = forged[rng.choice(triples)]
            name = rng.choice("abc")
            bases = pedersen.decode_commitments(rec[name], n, params)
            bases[i] = rng.choice((0, q, bases[i] + q))
            rec[name] = pedersen.encode_commitments(bases, params)
        else:
            step, name = rng.choice(opened)
            opens = [list(pair) for pair in
                     pedersen.decode_openings(forged[step][name], n, setup101["field"])]
            part = rng.randrange(2)
            opens[i][part] = (opens[i][part] + rng.choice((1, -1))) % 101
            forged[step][name] = pedersen.encode_openings(opens, setup101["field"])
        values, at = {}, 0
        for b, batch in enumerate(batches):
            values[audit.trail_key(comp_id, b)] = json.dumps(forged[at:at + len(batch)]).encode()
            at += len(batch)
        board = reposted(ledger, values)
        report = audit.audit_trail(board, comp_id)
        assert report == fold_trail(board, forged, n, 101), case
        tampered_ok += report.ok
    # Only a base raised by q leaves a tampered trail consistent.
    assert tampered_ok < 50
