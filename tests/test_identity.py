import random

import pytest

from mpcnet.dht import protocol_store
from mpcnet.errors import LedgerRejected
from mpcnet.field import Field
from mpcnet.identity import (
    Predicate,
    check_permission,
    gen_shared_identity,
    identity_address,
    parse_acl,
    parse_predicate,
    serialize_acl,
)
from mpcnet.keys import KeyPair, sha256
from mpcnet.ledger import Ledger, make_tx, writes_payload
from mpcnet.network import Runtime


def make_pairs(count, base_seed=100):
    return [KeyPair.generate(random.Random(base_seed + i)) for i in range(count)]


def test_single_party_address_is_hash():
    kp = KeyPair.generate(random.Random(0))
    assert identity_address([kp.sign_pk]) == sha256(kp.sign_pk)


def test_address_order_independent():
    pks = [KeyPair.generate(random.Random(i)).sign_pk for i in range(4)]
    shuffled = list(pks)
    random.Random(9).shuffle(shuffled)
    assert identity_address(pks) == identity_address(shuffled)


def test_gen_shared_identity_registers_acl():
    ledger = Ledger()
    pairs = make_pairs(2)
    ident = gen_shared_identity(pairs, [Predicate.owner()] * 2, ledger)
    assert ident.pks == tuple(kp.sign_pk for kp in pairs)
    stored = ledger.get(ident.addr)
    acl = parse_acl(stored)
    assert set(acl) == {kp.sign_pk for kp in pairs}


def test_check_permission_paths():
    ledger = Ledger()
    pairs = make_pairs(2)
    ident = gen_shared_identity(pairs, [Predicate.owner()] * 2, ledger)
    outsider = KeyPair.generate(random.Random(777))
    assert check_permission(pairs[0].sign_pk, bytes(32), Predicate("any"), ledger) is False
    assert check_permission(outsider.sign_pk, ident.addr, Predicate("any"), ledger) is True
    assert not check_permission(outsider.sign_pk, ident.addr,
                                Predicate.key_list([pairs[0].sign_pk]), ledger)
    assert check_permission(pairs[0].sign_pk, ident.addr,
                            Predicate.key_list([pairs[0].sign_pk]), ledger)


def test_predicate_combinators():
    acl = {b"A" * 32: Predicate("any"),
           b"B" * 32: Predicate("not", children=(Predicate("any"),))}
    owner = Predicate.owner()
    assert owner.evaluate(acl, b"A" * 32)
    assert not owner.evaluate(acl, b"C" * 32)
    combo = Predicate("or", children=(Predicate.key_list([b"C" * 32]), Predicate.owner()))
    assert combo.evaluate(acl, b"C" * 32)
    assert combo.evaluate(acl, b"B" * 32)
    assert not combo.evaluate(acl, b"D" * 32)
    neg = Predicate("and", children=(Predicate("any"),
                                     Predicate("not", children=(Predicate.owner(),))))
    assert neg.evaluate(acl, b"D" * 32)
    assert not neg.evaluate(acl, b"A" * 32)


def test_policy_predicate_defers_to_acl():
    acl = {b"A" * 32: Predicate("any"),
           b"B" * 32: Predicate("not", children=(Predicate("any"),))}
    q = Predicate.policy()
    assert q.evaluate(acl, b"A" * 32)
    assert not q.evaluate(acl, b"B" * 32)     # own policy denies
    assert not q.evaluate(acl, b"C" * 32)     # not a member
    # A self-referential policy terminates (depth-limited) and denies.
    loop = {b"A" * 32: Predicate.policy()}
    assert not q.evaluate(loop, b"A" * 32)


def test_predicate_text_round_trip():
    pks = [KeyPair.generate(random.Random(i)).sign_pk for i in range(2)]
    samples = [
        Predicate("any"),
        Predicate.owner(),
        Predicate.policy(),
        Predicate.key_list(pks),
        Predicate("or", children=(Predicate.owner(), Predicate.key_list(pks))),
        Predicate("and", children=(Predicate("not", children=(Predicate("any"),)),
                                   Predicate.owner())),
    ]
    for pred in samples:
        text = pred.to_text()
        assert parse_predicate(text) == pred
    with pytest.raises(ValueError):
        parse_predicate("(frobnicate)")
    with pytest.raises(ValueError):
        parse_predicate("(owner) trailing")
    for truncated in ("(", "(keys", "(and (owner)", "(owner"):
        with pytest.raises(ValueError):
            parse_predicate(truncated)


def test_acl_serialization_round_trip():
    pks = [KeyPair.generate(random.Random(i)).sign_pk for i in range(3)]
    acl = {pks[0]: Predicate("any"), pks[1]: Predicate.owner(),
           pks[2]: Predicate.key_list(pks[:1])}
    assert parse_acl(serialize_acl(acl)) == acl


def test_owner_only_fuzz():
    # Register-then-check with the owner's own key always admits (500 cases).
    rng = random.Random(42)
    ledger = Ledger()
    for case in range(500):
        n = rng.randrange(1, 5)
        seeds = [rng.randrange(1 << 30) for _ in range(n)]
        pairs = [KeyPair.generate(random.Random(s)) for s in seeds]
        ident = gen_shared_identity(pairs, [Predicate.owner()] * n, ledger)
        chosen = pairs[rng.randrange(n)]
        assert check_permission(chosen.sign_pk, ident.addr, Predicate.owner(), ledger)


def test_address_collision_free():
    rng = random.Random(1)
    seen = set()
    for _ in range(10000):
        addr = identity_address([rng.randbytes(32)])
        assert addr not in seen
        seen.add(addr)


def test_check_permission_is_pure():
    ledger = Ledger()
    pairs = make_pairs(1)
    ident = gen_shared_identity(pairs, [Predicate.owner()], ledger)
    height = ledger.height
    for _ in range(3):
        assert check_permission(pairs[0].sign_pk, ident.addr, Predicate.owner(), ledger)
    assert ledger.height == height


def test_check_permission_follows_a_replaced_acl():
    ledger = Ledger()
    a, b = make_pairs(2)
    ident = gen_shared_identity([a, b], [Predicate.owner()] * 2, ledger)
    original = ledger.get(ident.addr)

    def register(acl_bytes):
        ledger.submit_tx(make_tx(a, "identity-registration",
                                 writes_payload([(ident.addr, acl_bytes)]),
                                 nonce=ledger.next_nonce(a.sign_pk)))

    assert check_permission(b.sign_pk, ident.addr, Predicate.owner(), ledger)
    register(serialize_acl({a.sign_pk: Predicate.owner()}))
    assert not check_permission(b.sign_pk, ident.addr, Predicate.owner(), ledger)
    assert check_permission(a.sign_pk, ident.addr, Predicate.owner(), ledger)
    register(original)
    assert check_permission(b.sign_pk, ident.addr, Predicate.owner(), ledger)


def test_parse_acl_returns_a_fresh_dict():
    ledger = Ledger()
    pairs = make_pairs(2)
    ident = gen_shared_identity(pairs, [Predicate.owner()] * 2, ledger)
    outsider = KeyPair.generate(random.Random(778))
    stored = ledger.get(ident.addr)
    assert not check_permission(outsider.sign_pk, ident.addr, Predicate.owner(), ledger)
    first = parse_acl(stored)
    first[outsider.sign_pk] = Predicate("any")
    second = parse_acl(stored)
    assert second is not first
    assert set(second) == {kp.sign_pk for kp in pairs}
    # Editing a parse result changes neither later parses nor the checks.
    assert not check_permission(outsider.sign_pk, ident.addr, Predicate.owner(), ledger)


@pytest.mark.parametrize("acl_text", [
    "{not an acl", "[1,2]", '{"%s": "(keys"}',
    '{"%s": "' + "(not " * 2000 + "(any)" + ")" * 2000 + '"}',
], ids=["not-json", "json-list", "truncated-predicate", "deep-predicate"])
def test_registration_that_does_not_parse_as_an_acl_is_rejected(acl_text):
    ledger = Ledger()
    a, b = make_pairs(2)
    ident = gen_shared_identity([a, b], [Predicate.owner()] * 2, ledger)
    acl, height = ledger.get(ident.addr), ledger.height
    value = acl_text.replace("%s", b.sign_pk.hex()).encode()
    with pytest.raises(LedgerRejected, match="malformed"):
        ledger.submit_tx(make_tx(a, "identity-registration",
                                 writes_payload([(ident.addr, value)]),
                                 nonce=ledger.next_nonce(a.sign_pk)))
    assert (ledger.height, ledger.get(ident.addr)) == (height, acl)
    assert check_permission(b.sign_pk, ident.addr, Predicate.owner(), ledger)


def test_only_the_first_writer_may_rewrite_an_acl_or_a_pointer():
    # An ACL decides every (owner) check against it, so an outsider must
    # not be able to register over it, nor over a pointer's predicate.
    rt = Runtime(Field(101), 5, 4)
    alice, eve = rt.add_client("alice"), rt.add_client("eve")
    ledger = rt.ledger
    ident = gen_shared_identity([alice], [Predicate.owner()], ledger)
    pointer = protocol_store(alice, ident.addr, b"input", Predicate.owner(),
                             ledger, rt.dht)
    acl, height = ledger.get(ident.addr), ledger.height

    def write(kp, payload_type, key, value: bytes):
        ledger.submit_tx(make_tx(kp, payload_type, writes_payload([(key, value)]),
                                 nonce=ledger.next_nonce(kp.sign_pk)))

    with pytest.raises(LedgerRejected, match="another writer"):
        write(eve, "identity-registration", ident.addr,
              serialize_acl({eve.sign_pk: Predicate.owner()}))
    with pytest.raises(LedgerRejected, match="another writer"):
        write(eve, "kv-put", pointer, Predicate("any").to_text().encode())
    assert [(tx.sender, tx.payload[0][0]) for tx, _ in ledger.rejected] == \
        [(eve.sign_pk, ident.addr.hex()), (eve.sign_pk, pointer.hex())]
    assert all("another writer" in reason for _, reason in ledger.rejected)
    assert (ledger.height, ledger.get(ident.addr)) == (height, acl)
    assert ledger.get(pointer) == b"(owner)"
    assert ledger.next_nonce(eve.sign_pk) == 0
    assert check_permission(alice.sign_pk, ident.addr, Predicate.owner(), ledger)
    assert not check_permission(eve.sign_pk, ident.addr, Predicate.owner(), ledger)

    write(alice, "identity-registration", ident.addr,
          serialize_acl({alice.sign_pk: Predicate.owner(), eve.sign_pk: Predicate.owner()}))
    write(alice, "kv-put", pointer, Predicate.key_list([alice.sign_pk]).to_text().encode())
    assert check_permission(eve.sign_pk, ident.addr, Predicate.owner(), ledger)
    assert ledger.get(pointer) == Predicate.key_list([alice.sign_pk]).to_text().encode()


def test_an_identity_address_cannot_be_squatted():
    # Addresses are computable from public keys. Eve registers alice's
    # address first, under her own ACL and then under alice's; both are
    # rejected, and alice can still register her identity.
    alice, eve = (KeyPair.generate(random.Random(seed)) for seed in (31, 32))
    ledger = Ledger()
    addr = identity_address([alice.sign_pk])

    def register(acl: dict):
        ledger.submit_tx(make_tx(eve, "identity-registration",
                                 writes_payload([(addr, serialize_acl(acl))]),
                                 nonce=ledger.next_nonce(eve.sign_pk)))

    with pytest.raises(LedgerRejected, match="identity address"):
        register({eve.sign_pk: Predicate.owner()})
    with pytest.raises(LedgerRejected, match="registrar is not in the ACL"):
        register({alice.sign_pk: Predicate.owner()})
    assert ledger.get(addr) is None and ledger.next_nonce(eve.sign_pk) == 0
    ident = gen_shared_identity([alice], [Predicate.owner()], ledger)
    assert ident.addr == addr
    assert check_permission(alice.sign_pk, addr, Predicate.owner(), ledger)
    assert not check_permission(eve.sign_pk, addr, Predicate.owner(), ledger)
