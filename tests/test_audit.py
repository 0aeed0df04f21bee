import json
import random

import pytest

from mpcnet import audit, pedersen, spdz
from mpcnet.errors import IncompleteTrail
from mpcnet.field import M61, Field
from mpcnet.keys import KeyPair, sha256
from mpcnet.ledger import Ledger
from mpcnet.net import LocalChannel
from oracles import fold_trail


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
    net, queue = LocalChannel(), spdz.MacCheckQueue()
    z = audit.pv_beaver(x, y, triple, key, params, field, net, queue, writer)
    w = audit.pv_linear([(2, z)], 1, key, field, writer)
    value = audit.pv_output(w, field, writer)
    writer.close()
    return ledger, comp_id, value


def test_honest_run_passes(setup101):
    ledger, comp_id, value = run_pv_computation(setup101, 3)
    assert value == 41  # 2*(4*5) + 1
    report = audit.audit_trail(ledger, comp_id)
    assert report.ok and report.guilty == ()


def test_pv_share_posts_n_commitments(setup101, f101):
    env = setup101
    key = spdz.gen_mac_key(4, f101, env["rng"])
    ledger = Ledger()
    comp_id = sha256(b"cardinality")
    writer = audit.TrailWriter(ledger, comp_id, env["poster"], f101, 4)
    share = audit.pv_share(33, 4, key, env["params"], writer, f101, env["rng"])
    assert len(share.commitments) == 4
    assert pedersen.combine(share.commitments, env["params"]) == pedersen.commit(
        sum(s.value_share for s in share.value) % 101,
        sum(share.randomness) % 101,
        env["params"])


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
                                     spdz.MacCheckQueue(), writer)
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


def test_short_openings_list_is_incomplete(setup101):
    ledger, comp_id, value = run_pv_computation(setup101, 3)
    with pytest.raises(IncompleteTrail, match="openings"):
        audit.audit_trail(ledger, comp_id, claimed_output=value,
                          openings=[[0, 0], [0, 0]])


def test_claimed_output_mismatch_fails(setup101):
    ledger, comp_id, value = run_pv_computation(setup101, 3)
    report = audit.audit_trail(ledger, comp_id, claimed_output=value + 1)
    assert not report.ok


def test_false_output_opening_blames_party(setup101, f101):
    ledger, comp_id, _ = run_pv_computation(setup101, 3)
    # Re-audit with party 2's opening shifted: the third-party claim check.
    import json
    from mpcnet.audit import trail_key, trail_meta_key
    meta = json.loads(ledger.get(trail_meta_key(comp_id)).decode())
    out_rec = json.loads(ledger.get(trail_key(comp_id, meta["batches"] - 1)).decode())[-1]
    opens = out_rec["openings"]
    opens[2][0] = (opens[2][0] + 1) % 101
    claimed = sum(s for s, _ in opens) % 101
    report = audit.audit_trail(ledger, comp_id, claimed_output=claimed, openings=opens)
    assert not report.ok
    assert 2 in report.guilty


def test_zero_triple_commitment_names_its_party(setup101):
    # A posted commitment divisible by q has no inverse; the audit must name
    # the party that posted it rather than fail on the division.
    ledger, comp_id, _ = run_pv_computation(setup101, 3)
    batches = json.loads(ledger.get(audit.trail_meta_key(comp_id)).decode())["batches"]
    posted = {audit.trail_key(comp_id, i): json.loads(ledger.get(audit.trail_key(comp_id, i)))
              for i in range(batches)}
    triple_key, batch = next((k, batch) for k, batch in posted.items()
                             if any(rec["kind"] == "triple" for rec in batch))
    next(rec for rec in batch if rec["kind"] == "triple")["a"][1] = hex(setup101["params"].q)
    forged = json.dumps(batch, sort_keys=True).encode()

    class Board:
        def get(self, key):
            return forged if key == triple_key else ledger.get(key)

    report = audit.audit_trail(Board(), comp_id)
    assert not report.ok
    assert report.guilty == (1,)


def test_unusual_linear_steps_fold_like_the_step_fold(setup101, f101):
    # Linear steps the engine never emits: w = z + 2z reads one source twice
    # with different coefficients, and v = 1*x takes over input x's
    # commitments on x's last read. Both are opened. Honest, and with x's
    # posted commitment of party 1 raised by q, the audit must agree with
    # the per-step fold.
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
                        spdz.MacCheckQueue(), writer)
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
    assert report.ok and report == fold_trail(records, n, 101)
    records[x.step]["commitments"][1] = hex(x.commitments[1] + params.q)
    board = {meta_key: ledger.get(meta_key)}
    at = 0
    for b, batch in enumerate(batches):
        board[audit.trail_key(comp_id, b)] = json.dumps(records[at:at + len(batch)]).encode()
        at += len(batch)
    assert audit.audit_trail(board, comp_id) == fold_trail(records, n, 101)


@pytest.mark.parametrize("meta_edit,batch_edit", [
    (lambda meta: meta.pop("batches"), None),
    (lambda meta: meta.update(batches="2"), None),
    (None, lambda batch: batch[0]),
    (None, lambda batch: [batch]),
], ids=["no-batch-count", "batch-count-string", "batch-is-a-record", "batch-of-lists"])
def test_malformed_trail_is_incomplete(setup101, meta_edit, batch_edit):
    # Metadata without an integer batch count (as in a per-step trail) and
    # a batch that is not a list of records are incomplete trails.
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


@pytest.mark.parametrize("p", [101, M61], ids=["p101", "M61"])
@pytest.mark.parametrize("count", [0, 1, 7, 8, 64, 200])
def test_multi_exp_equals_the_product_of_pows(p, count):
    # Below eight terms the product is one pow per term, from eight on the
    # bucket method; both must give prod(pow(base, exp, q)) exactly, for
    # exponent 0, exponents >= p and the bases 0, 1, q - 1 and q.
    q = pedersen.setup(Field(p)).q
    rng = random.Random(count * 1009 + p % 997)
    r = rng.randrange(2, q - 1)
    edge = [(0, 0), (q, 0), (1, 1 << 130), (q - 1, p), (q - 1, p + 1),
            (r, 0), (r, p - 1), (r, 2 * p + 3)]
    terms = (edge + [(rng.randrange(2 * q), rng.randrange(1 << rng.choice((8, 61, 200))))
                     for _ in range(count)])[:count]

    def product(pairs):
        acc = 1
        for base, exp in pairs:
            acc = acc * pow(base, exp, q) % q
        return acc

    assert audit._multi_exp(terms, q) == product(terms)
    if count:
        # A base divisible by q under a positive exponent zeroes the product.
        for zero in ((0, 5), (q, 1)):
            spoiled = terms[:-1] + [zero]
            assert audit._multi_exp(spoiled, q) == product(spoiled) == 0
