import itertools
import random

import pytest

from mpcnet import pedersen
from mpcnet.field import Field, M61
from oracles import combine_commitments


@pytest.fixture
def params(f101):
    return pedersen.setup(f101)


def test_setup_test_instance(params):
    # Smallest q = kp + 1 prime for p=101 is 607.
    assert params.q == 607
    assert params.p == 101
    assert pow(params.g, 101, 607) == 1
    assert pow(params.h, 101, 607) == 1
    assert params.g != params.h


def test_setup_large_field():
    params = pedersen.setup(Field(M61))
    assert (params.q - 1) % M61 == 0
    assert pow(params.g, M61, params.q) == 1


def test_commit_zero_is_identity(params):
    assert pedersen.commit(0, 0, params) == 1


def test_homomorphism_random_pairs(params):
    rng = random.Random(4)
    for _ in range(1000):
        s1, r1, s2, r2 = (rng.randrange(101) for _ in range(4))
        left = pedersen.commit(s1, r1, params) * pedersen.commit(s2, r2, params) % params.q
        assert left == pedersen.commit(s1 + s2, r1 + r2, params)


def test_binding_sanity(params):
    c = pedersen.commit(31, 17, params)
    assert pedersen.verify_open(c, 31, 17, params)
    assert not pedersen.verify_open(c, 32, 17, params)
    assert not pedersen.verify_open(c, 31, 18, params)


def test_combine(params):
    rng = random.Random(6)
    commits, s_total, r_total = [], 0, 0
    for _ in range(5):
        s, r = rng.randrange(101), rng.randrange(101)
        commits.append(pedersen.commit(s, r, params))
        s_total += s
        r_total += r
    assert combine_commitments(commits, params) == pedersen.commit(s_total, r_total, params)


def test_bad_params_rejected():
    with pytest.raises(ValueError):
        pedersen.CommitParams(q=607, p=103, g=2, h=3)   # 103 does not divide 606
    with pytest.raises(ValueError):
        pedersen.CommitParams(q=607, p=101, g=1, h=3)


@pytest.mark.parametrize("p", [101, M61], ids=["p101", "M61"])
def test_table_commit_matches_generic_pow(p):
    params = pedersen.setup(Field(p))
    q = params.q

    def naive(s, r):
        return pow(params.g, s % p, q) * pow(params.h, r % p, q) % q

    edges = [0, 1, 2, 255, 256, p - 1, p, p + 1, 2 * p - 1, 3 * p + 7,
             -1, -p, -(p + 1), -(5 * p) - 3, 1 << 200]
    for s, r in itertools.product(edges, edges):
        assert pedersen.commit(s, r, params) == naive(s, r), (s, r)
    rng = random.Random(p)
    for _ in range(500):
        s, r = rng.randrange(-4 * p, 4 * p), rng.randrange(-4 * p, 4 * p)
        assert pedersen.commit(s, r, params) == naive(s, r), (s, r)


def test_window_tables_are_derived_state(params):
    # One row per exponent byte, 256 entries each; row j, entry d is g^(d*256^j).
    assert len(params.g_table) == len(params.h_table) == 1
    assert params.g_table[0][:3] == (1, params.g, params.g * params.g % params.q)
    big = pedersen.setup(Field(M61))
    assert len(big.g_table) == 8 and all(len(row) == 256 for row in big.g_table)
    assert big.h_table[3][5] == pow(big.h, 5 << 24, big.q)
    # Equality, hashing and repr see only (q, p, g, h).
    rebuilt = pedersen.CommitParams(q=params.q, p=params.p, g=params.g, h=params.h)
    assert rebuilt == params and hash(rebuilt) == hash(params)
    assert repr(params) == f"CommitParams(q={params.q}, p=101, g={params.g}, h={params.h})"


def test_commitments_pack_raw_at_the_width_of_q():
    # Over M61 q has 67 bits, so each commitment is 9 big-endian bytes and
    # a VSS record for 15 parties is 135 bytes. No range is checked: q + 1
    # reads back as is.
    params = pedersen.setup(Field(M61))
    assert pedersen.width(params) == 9
    commitments = [params.q + 1] + [pedersen.commit(s, s + 1, params) for s in range(14)]
    packed = pedersen.pack_commitments(commitments, params)
    assert len(packed) == 135 and packed[:9] == (params.q + 1).to_bytes(9, "big")
    assert pedersen.unpack_commitments(packed, 15, params) == commitments
    for data in (b"", packed[:-1], packed + b"\x00"):
        with pytest.raises(ValueError, match="expected 15 commitments of 9 bytes"):
            pedersen.unpack_commitments(data, 15, params)
