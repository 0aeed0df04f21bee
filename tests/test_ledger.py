import json

import pytest

from mpcnet.errors import CorruptDump, LedgerRejected
from mpcnet.identity import Predicate, identity_address, serialize_acl
from mpcnet.keys import KeyPair, sha256
from mpcnet.ledger import (KEYED_TYPES, Ledger, Transaction, load_dump, make_tx,
                           normalize_key, writes_payload)


@pytest.fixture
def kp(rng):
    return KeyPair.generate(rng)


@pytest.fixture
def ledger(kp):
    return Ledger(genesis_balances={kp.sign_pk: 1000}, authority=kp.sign_pk)


def submit(ledger, kp, payload_type, writes):
    tx = make_tx(kp, payload_type, writes_payload(writes),
                 nonce=ledger.next_nonce(kp.sign_pk))
    return ledger.submit_tx(tx)


def put(ledger, kp, key, value: bytes):
    return submit(ledger, kp, "kv-put", [(normalize_key(key), value)])


def own_identity(kp):
    """A write that is a valid first registration of kp's own address."""
    return identity_address([kp.sign_pk]), serialize_acl({kp.sign_pk: Predicate.owner()})


def test_only_the_first_writer_may_rewrite_a_key(ledger, kp, rng):
    # One write to another writer's key rejects the whole transaction, and
    # the writes before it in the list leave nothing behind.
    other = KeyPair.generate(rng)
    put(ledger, kp, "k", b"\x01")
    for payload_type in KEYED_TYPES:
        fresh = own_identity(other) if payload_type == "identity-registration" \
            else (normalize_key("k2"), b"\x02")
        with pytest.raises(LedgerRejected, match="another writer"):
            submit(ledger, other, payload_type, [(normalize_key("k"), b"\x02")])
        with pytest.raises(LedgerRejected, match="another writer"):
            submit(ledger, other, payload_type, [fresh, (normalize_key("k"), b"\x02")])
    assert len(ledger.rejected) == 6 and ledger.height == 1
    assert ledger.get("k") == b"\x01" and ledger.get("k2") is None
    assert ledger.get(identity_address([other.sign_pk])) is None
    assert ledger.next_nonce(other.sign_pk) == 0
    put(ledger, other, "k2", b"\x03")
    put(ledger, kp, "k", b"\x04")
    assert (ledger.get("k"), ledger.get("k2")) == (b"\x04", b"\x03")


def test_a_transaction_writes_each_entry_in_list_order(ledger, kp):
    writes = [(normalize_key(k), v) for k, v in (("a", b"1"), ("b", b"2"), ("a", b"3"))]
    assert submit(ledger, kp, "kv-put", writes) == 3
    assert [(e.key, e.value) for e in ledger.entries] == writes
    assert ledger.accepted[0][1] == [1, 2, 3] and ledger.next_nonce(kp.sign_pk) == 1
    assert (ledger.get("a"), ledger.get_at("a", 1)) == (b"3", b"1")


def test_registration_whose_second_value_is_not_an_acl_is_rejected_whole(ledger, kp, rng):
    other = KeyPair.generate(rng)
    both = identity_address([kp.sign_pk, other.sign_pk])
    acl = serialize_acl({kp.sign_pk: Predicate.owner(), other.sign_pk: Predicate.owner()})
    with pytest.raises(LedgerRejected, match="malformed"):
        submit(ledger, kp, "identity-registration", [own_identity(kp), (both, b"{not an acl")])
    assert ledger.height == 0 and len(ledger.rejected) == 1
    assert ledger.next_nonce(kp.sign_pk) == 0
    assert submit(ledger, kp, "identity-registration", [own_identity(kp), (both, acl)]) == 2
    assert ledger.get(both) == acl


def test_put_get_round_trip(ledger, kp):
    put(ledger, kp, "k", b"\x01")
    assert ledger.get("k") == b"\x01"


def test_last_write_wins(ledger, kp):
    h1 = put(ledger, kp, "k", b"one")
    h2 = put(ledger, kp, "k", b"two")
    assert h1 < h2
    assert ledger.get("k") == b"two"


def test_get_at_history(ledger, kp):
    for filler in range(4):
        put(ledger, kp, f"filler{filler}", b"x")
    h5 = put(ledger, kp, "k", b"v1")
    assert h5 == 5
    for filler in range(3):
        put(ledger, kp, f"more{filler}", b"x")
    h9 = put(ledger, kp, "k", b"v2")
    assert h9 == 9
    assert ledger.get_at("k", 7) == b"v1"
    assert ledger.get_at("k", 4) is None
    assert ledger.get_at("k", ledger.height) == ledger.get("k")


def test_get_at_stable_under_later_writes(ledger, kp):
    h = put(ledger, kp, "k", b"v1")
    snapshot = ledger.get_at("k", h)
    for i in range(5):
        put(ledger, kp, "k", b"v%d" % i)
    assert ledger.get_at("k", h) == snapshot


def test_bad_signature_rejected(ledger, kp):
    tx = make_tx(kp, "kv-put", writes_payload([(normalize_key("k"), b"\x00")]),
                 nonce=ledger.next_nonce(kp.sign_pk))
    forged = Transaction(tx.sender, tx.payload_type, tx.payload, tx.nonce, b"\x00" * 64)
    with pytest.raises(LedgerRejected, match="signature"):
        ledger.submit_tx(forged)
    assert ledger.height == 0
    assert len(ledger.rejected) == 1


def test_stale_nonce_rejected(ledger, kp):
    put(ledger, kp, "k", b"v")
    tx = make_tx(kp, "kv-put", writes_payload([(normalize_key("k"), b"\x00")]), nonce=0)
    with pytest.raises(LedgerRejected, match="nonce"):
        ledger.submit_tx(tx)


def test_malformed_payload_rejected(ledger, kp):
    # A keyed payload is a non-empty list of [key hex, value hex] writes;
    # an empty list, the old single-write object and a short write are not.
    keyed = [[["zz-not-hex", "00"]], [], {"key": "00" * 32, "value": "00"}, [["00" * 32]]]
    cases = [(t, payload) for t in KEYED_TYPES for payload in keyed]
    for payload_type, payload in cases + [("deposit", {"amount": "plenty"})]:
        tx = make_tx(kp, payload_type, payload, nonce=ledger.next_nonce(kp.sign_pk))
        with pytest.raises(LedgerRejected, match="malformed"):
            ledger.submit_tx(tx)
    assert ledger.height == 0 and len(ledger.rejected) == len(cases) + 1
    assert ledger.next_nonce(kp.sign_pk) == 0


def test_deposit_and_insufficient_balance(ledger, kp):
    ledger.submit_tx(make_tx(kp, "deposit", {"amount": 400},
                             nonce=ledger.next_nonce(kp.sign_pk)))
    acct = ledger.account(kp.sign_pk)
    assert (acct.balance, acct.deposit) == (600, 400)
    with pytest.raises(LedgerRejected, match="insufficient"):
        ledger.submit_tx(make_tx(kp, "deposit", {"amount": 601},
                                 nonce=ledger.next_nonce(kp.sign_pk)))
    assert ledger.account(kp.sign_pk).balance == 600


def test_settlement_atomic(ledger, kp, rng):
    other = KeyPair.generate(rng)
    payload = {"computation": "00" * 32,
               "balance_deltas": [[kp.sign_pk.hex(), -2000], [other.sign_pk.hex(), 2000]],
               "deposit_deltas": []}
    with pytest.raises(LedgerRejected):
        ledger.submit_tx(make_tx(kp, "fee-settlement", payload,
                                 nonce=ledger.next_nonce(kp.sign_pk)))
    assert ledger.account(kp.sign_pk).balance == 1000
    assert ledger.account(other.sign_pk).balance == 0


def test_settlement_that_mints_is_rejected(rng):
    # Not even the authority may create value: it credits eve 1,000,000
    # against node's 100 deposit.
    eve, node, authority = (KeyPair.generate(rng) for _ in range(3))
    ledger = Ledger(genesis_balances={eve.sign_pk: 1000, node.sign_pk: 1000},
                    authority=authority.sign_pk)
    ledger.submit_tx(make_tx(node, "deposit", {"amount": 100}, nonce=0))
    payload = {"computation": "00" * 32,
               "balance_deltas": [[eve.sign_pk.hex(), 1_000_000]],
               "deposit_deltas": [[node.sign_pk.hex(), -100]]}
    with pytest.raises(LedgerRejected, match="sum to zero"):
        ledger.submit_tx(make_tx(authority, "fee-settlement", payload, nonce=0))
    assert len(ledger.rejected) == 1 and ledger.height == 1
    assert ledger.account(eve.sign_pk).balance == 1000
    assert ledger.account(node.sign_pk).deposit == 100


def test_settlement_from_a_client_key_is_rejected(rng):
    # A balanced settlement still moves value, so only the authority named
    # at genesis may post one: eve moves node's deposit to her balance.
    eve, node, authority = (KeyPair.generate(rng) for _ in range(3))
    ledger = Ledger(genesis_balances={eve.sign_pk: 1000, node.sign_pk: 1000},
                    authority=authority.sign_pk)
    ledger.submit_tx(make_tx(node, "deposit", {"amount": 100}, nonce=0))
    payload = {"computation": "00" * 32,
               "balance_deltas": [[eve.sign_pk.hex(), 100]],
               "deposit_deltas": [[node.sign_pk.hex(), -100]]}
    with pytest.raises(LedgerRejected, match="only by the authority"):
        ledger.submit_tx(make_tx(eve, "fee-settlement", payload, nonce=0))
    assert len(ledger.rejected) == 1 and ledger.height == 1
    assert ledger.next_nonce(eve.sign_pk) == 0
    assert (ledger.account(eve.sign_pk).balance, ledger.account(eve.sign_pk).deposit) == (1000, 0)
    assert (ledger.account(node.sign_pk).balance, ledger.account(node.sign_pk).deposit) == (900, 100)


def test_a_computation_is_settled_once(rng):
    # A settlement is keyed by its computation, so a second one for the same
    # computation, though balanced and covered, is rejected before it moves
    # a balance or a deposit; another computation still settles.
    eve, node, authority = (KeyPair.generate(rng) for _ in range(3))
    ledger = Ledger(genesis_balances={eve.sign_pk: 1000, node.sign_pk: 1000},
                    authority=authority.sign_pk)
    ledger.submit_tx(make_tx(node, "deposit", {"amount": 100}, nonce=0))

    def settle(computation: str, nonce: int):
        payload = {"computation": computation,
                   "balance_deltas": [[eve.sign_pk.hex(), 50]],
                   "deposit_deltas": [[node.sign_pk.hex(), -50]]}
        return ledger.submit_tx(make_tx(authority, "fee-settlement", payload, nonce=nonce))

    def state():
        return ({pk: (a.balance, a.deposit) for pk, a in ledger.accounts.items()},
                ledger.height, ledger.next_nonce(authority.sign_pk))

    settle("ab" * 32, 0)
    assert ledger.writer(sha256(b"settlement" + bytes.fromhex("ab" * 32))) == authority.sign_pk
    before = state()
    with pytest.raises(LedgerRejected, match="already settled"):
        settle("ab" * 32, 1)
    assert state() == before
    assert ledger.account(node.sign_pk).deposit == 50
    settle("cd" * 32, 1)
    assert ledger.account(node.sign_pk).deposit == 0


def test_a_client_write_at_a_settlement_key_neither_blocks_nor_settles(rng):
    # The settlement key is computable from the computation id. Eve, the
    # party to be billed, kv-puts there first: the authority's settlement is
    # still accepted, and a second one is still rejected.
    eve, node, authority = (KeyPair.generate(rng) for _ in range(3))
    ledger = Ledger(genesis_balances={eve.sign_pk: 1000, node.sign_pk: 1000},
                    authority=authority.sign_pk)
    key = sha256(b"settlement" + bytes.fromhex("ab" * 32))
    put(ledger, eve, key, b"{}")
    payload = {"computation": "ab" * 32,
               "balance_deltas": [[eve.sign_pk.hex(), -50], [node.sign_pk.hex(), 50]],
               "deposit_deltas": []}
    ledger.submit_tx(make_tx(authority, "fee-settlement", payload, nonce=0))
    assert ledger.get(key) == json.dumps(payload, sort_keys=True).encode()
    assert ledger.account(eve.sign_pk).balance == 950
    with pytest.raises(LedgerRejected, match="already settled"):
        ledger.submit_tx(make_tx(authority, "fee-settlement", payload, nonce=1))
    assert ledger.account(eve.sign_pk).balance == 950


def test_append_only_prefix_property(ledger, kp):
    keys_before = []
    for i in range(6):
        put(ledger, kp, f"k{i}", bytes([i]))
        keys_before.append([e.key for e in ledger.entries])
    for earlier, later in zip(keys_before, keys_before[1:]):
        assert later[:len(earlier)] == earlier


def test_verify_log_clean_and_empty(ledger, kp):
    assert Ledger().verify_log() is None
    for i in range(5):
        put(ledger, kp, f"k{i}", bytes([i]))
    assert ledger.verify_log() is None


def test_verify_log_detects_byte_flip(ledger, kp):
    for i in range(5):
        put(ledger, kp, f"k{i}", bytes([i, i + 1, i + 2]))
    target = 3
    entry = ledger.entries[target - 1]
    flipped = bytearray(entry.value)
    flipped[1] ^= 0x40
    ledger.entries[target - 1] = entry._replace(value=bytes(flipped))
    assert ledger.verify_log() == target


def test_replay_reconstructs_state(ledger, kp, rng):
    other = KeyPair.generate(rng)
    ledger.account(other.sign_pk).balance = 50
    put(ledger, kp, "a", b"1")
    ledger.submit_tx(make_tx(kp, "deposit", {"amount": 10},
                             nonce=ledger.next_nonce(kp.sign_pk)))
    put(ledger, kp, "a", b"2")
    replayed = Ledger(genesis_balances={kp.sign_pk: 1000, other.sign_pk: 50})
    for tx, _ in ledger.accepted:
        replayed.submit_tx(tx)
    assert replayed.dump() == ledger.dump()
    assert replayed.account(kp.sign_pk).deposit == 10


def test_dump_format_and_load(ledger, kp):
    put(ledger, kp, "k", b"hello")
    dump = ledger.dump()
    line = dump.splitlines()[0]
    height, key_hex, value64, author_hex = line.split("\t")
    assert height == "1"
    assert bytes.fromhex(author_hex) == kp.sign_pk
    import base64
    assert base64.b64decode(value64) == b"hello"

    board = load_dump(dump)
    assert board.get("k") == b"hello"
    assert board.get_at("k", 0) is None


def test_load_dump_truncated(ledger, kp):
    put(ledger, kp, "k", b"hello")
    put(ledger, kp, "k2", b"world")
    dump = ledger.dump()
    broken = dump[: dump.rindex("\t")]
    with pytest.raises(CorruptDump):
        load_dump(broken)


def two_line_dump(ledger, kp) -> list:
    """The fields of a two-entry dump; line 2's value, b"hello", is padded."""
    put(ledger, kp, "k", b"worlds")
    put(ledger, kp, "k2", b"hello")
    lines = [line.split("\t") for line in ledger.dump().splitlines()]
    assert lines[1][2] == "aGVsbG8="
    return lines


def with_line_2(lines, edit) -> str:
    """The dump with line 2's fields replaced by edit(fields)."""
    edited = [lines[0], edit(list(lines[1]))]
    return "".join("\t".join(fields) + "\n" for fields in edited)


def set_field(index: int, text: str):
    def edit(fields):
        fields[index] = text
        return fields
    return edit


HEX_64 = "ab" * 32

# One edit per kind of line that load_dump refuses.
MALFORMED_LINES = {
    "three-fields": lambda fields: fields[:3],
    "five-fields": lambda fields: fields + ["00"],
    "height-not-an-integer": set_field(0, "two"),
    "height-empty": set_field(0, ""),
    "height-out-of-sequence": set_field(0, "3"),
    "height-repeated": set_field(0, "1"),
    "key-63-hex-digits": set_field(1, HEX_64[:-1]),
    "key-66-hex-digits": set_field(1, HEX_64 + "ab"),
    "key-not-hex": set_field(1, "zz" + HEX_64[2:]),
    "author-62-hex-digits": set_field(3, HEX_64[:-2]),
    "author-not-hex": set_field(3, HEX_64[:-1] + "g"),
    "value-outside-the-alphabet": set_field(2, "aGV-bG8="),
    "value-url-safe-alphabet": set_field(2, "aGV_bG8="),
    "value-padding-missing": set_field(2, "aGVsbG8"),
    "value-padding-inside": set_field(2, "aGVs=G8="),
    "value-only-padding": set_field(2, "=="),
    "value-one-char-past-a-quad": set_field(2, "aGVsb"),
    "value-non-ascii": set_field(2, "aGVsbG\u00e9="),
}


@pytest.mark.parametrize("edit", MALFORMED_LINES.values(), ids=MALFORMED_LINES.keys())
def test_load_dump_refuses_each_kind_of_malformed_line(ledger, kp, edit):
    lines = two_line_dump(ledger, kp)
    assert load_dump(with_line_2(lines, lambda fields: fields)).get("k2") == b"hello"
    with pytest.raises(CorruptDump, match="^line 2: "):
        load_dump(with_line_2(lines, edit))


@pytest.mark.parametrize("height", ["+2", " 2", "02", "2 ", "\u0662"])
def test_load_dump_refuses_a_height_not_in_plain_decimal(ledger, kp, height):
    # int() reads each of these as 2; the grammar's height is the entry's
    # number in plain decimal.
    assert int(height) == 2
    with pytest.raises(CorruptDump, match="^line 2: height"):
        load_dump(with_line_2(two_line_dump(ledger, kp), set_field(0, height)))


@pytest.mark.parametrize("field", [1, 3], ids=["key", "author"])
def test_load_dump_refuses_hex_with_whitespace(ledger, kp, field):
    # bytes.fromhex skips the space; the grammar wants 64 hex digits.
    spaced = HEX_64[:2] + " " + HEX_64[2:]
    assert bytes.fromhex(spaced) == bytes.fromhex(HEX_64)
    with pytest.raises(CorruptDump, match="^line 2: "):
        load_dump(with_line_2(two_line_dump(ledger, kp), set_field(field, spaced)))


@pytest.mark.parametrize("value64", ["d29ybGRz=", "d29ybGRz==", "aGVsbG8=="])
def test_load_dump_refuses_padding_past_the_encoding(ledger, kp, value64):
    # Strict base64 decoding still reads "d29ybGRz=" as b"worlds"; the
    # grammar's padding only fills the last quad.
    with pytest.raises(CorruptDump, match="^line 2: value is not padded base64: .* do not encode"):
        load_dump(with_line_2(two_line_dump(ledger, kp), set_field(2, value64)))


def test_load_dump_refuses_a_carriage_return(ledger, kp):
    # Lines end in a newline alone: a carriage return before it lands in
    # the author field. (`mpcnet audit` reads its file with universal
    # newlines, so a dump saved with CRLF endings still loads there.)
    dump = with_line_2(two_line_dump(ledger, kp), lambda fields: fields)
    with pytest.raises(CorruptDump, match="^line 1: "):
        load_dump(dump.replace("\n", "\r\n"))


def test_load_dump_reads_a_non_canonical_last_character_as_strict_base64_does(ledger, kp):
    # "aGVsbG9=" sets a bit that "aGVsbG8=" leaves zero; both are b"hello".
    import base64
    assert base64.b64decode("aGVsbG9=", validate=True) == b"hello"
    board = load_dump(with_line_2(two_line_dump(ledger, kp), set_field(2, "aGVsbG9=")))
    assert board.get("k2") == b"hello"


def test_load_dump_skips_blank_lines_and_reads_a_last_line_without_newline(ledger, kp):
    lines = two_line_dump(ledger, kp)
    dump = "\n \t\n" + "\t".join(lines[0]) + "\n\n" + "\t".join(lines[1])
    assert load_dump(dump).entries == ledger.entries


def test_an_empty_value_round_trips(ledger, kp):
    put(ledger, kp, "empty", b"")
    put(ledger, kp, "k", b"x")
    dump = ledger.dump()
    assert dump.splitlines()[0].split("\t")[2] == ""
    board = load_dump(dump)
    assert board.get("empty") == b"" and board.entries == ledger.entries


def test_load_dump_reproduces_the_live_ledger(rng):
    # Three writers, eight keys, values of 0 to 40 bytes; each key is
    # rewritten by its first writer, and other writers' attempts are
    # rejected. The dump's board must read like the ledger everywhere.
    signers = [KeyPair.generate(rng) for _ in range(3)]
    ledger = Ledger()
    keys = [f"key{i}" for i in range(8)] + [bytes(range(32))]
    for _ in range(300):
        k, signer = rng.choice(keys), rng.choice(signers)
        try:
            put(ledger, signer, k, rng.randbytes(rng.randrange(41)))
        except LedgerRejected:
            assert ledger.writer(k) not in (None, signer.sign_pk)
    assert len({ledger.writer(k) for k in keys}) > 1
    assert any(sum(e.key == normalize_key(k) for e in ledger.entries) > 5 for k in keys)

    board = load_dump(ledger.dump())
    assert board.entries == ledger.entries and board.height == ledger.height
    for k in keys + ["never-written"]:
        assert board.get(k) == ledger.get(k)
        assert board.writer(k) == ledger.writer(k)
        for t in range(ledger.height + 2):
            assert board.get_at(k, t) == ledger.get_at(k, t)


def test_get_at_random_sequence_oracle(ledger, kp, rng):
    # 1,000 random writes checked against a brute-force history oracle.
    history = []
    keys = [f"key{i}" for i in range(7)]
    for _ in range(1000):
        k = rng.choice(keys)
        v = rng.randbytes(4)
        h = put(ledger, kp, k, v)
        history.append((h, k, v))
    probes = [(rng.choice(keys), rng.randrange(0, ledger.height + 1)) for _ in range(300)]
    for k, t in probes:
        expected = None
        for h, hk, hv in history:
            if hk == k and h <= t:
                expected = hv
        assert ledger.get_at(k, t) == expected


def test_get_at_every_height_matches_linear_scan(ledger, kp, rng):
    # The live ledger and a board loaded from its dump share one history;
    # both must agree with a linear scan for every key at every height.
    history = []
    keys = [f"key{i}" for i in range(5)]
    for _ in range(120):
        k = rng.choice(keys)
        v = rng.randbytes(3)
        history.append((put(ledger, kp, k, v), k, v))
    board = load_dump(ledger.dump())
    for t in range(ledger.height + 2):
        for k in keys + ["never-written"]:
            expected = None
            for h, hk, hv in history:
                if hk == k and h <= t:
                    expected = hv
            assert ledger.get_at(k, t) == expected
            assert board.get_at(k, t) == expected
    for k in keys:
        assert board.get(k) == ledger.get(k) == ledger.get_at(k, ledger.height)


def test_writer_is_the_first_author_on_the_ledger_and_its_dump(ledger, kp, rng):
    # The live ledger and a board loaded from its dump name the same first
    # writer for every key, a key its first writer rewrote included.
    other = KeyPair.generate(rng)
    put(ledger, kp, "mine", b"v1")
    put(ledger, other, "theirs", b"w1")
    put(ledger, kp, "mine", b"v2")
    with pytest.raises(LedgerRejected):
        put(ledger, other, "mine", b"x")
    board = load_dump(ledger.dump())
    for key in {e.key for e in ledger.entries}:
        first = next(e.author for e in ledger.entries if e.key == key)
        assert ledger.writer(key) == board.writer(key) == first
    assert board.get("mine") == b"v2" and board.writer("mine") == kp.sign_pk
    assert ledger.writer("never-written") is None and board.writer("never-written") is None
