import random

import pytest

from mpcnet.field import M61, Field, eval_poly, is_prime


def test_field_requires_prime_modulus():
    with pytest.raises(ValueError, match="prime"):
        Field(100)


def test_is_prime_known_values():
    assert is_prime(2) and is_prime(101) and is_prime(607) and is_prime(M61)
    assert not is_prime(1) and not is_prime(561) and not is_prime(2 ** 61 + 1)


def test_inverse_and_closure(f101, rng):
    for _ in range(200):
        a = f101.rand_nonzero(rng)
        assert f101.mul(a, f101.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        f101.inv(0)


def test_mersenne_mul_matches_plain_mod():
    f = Field(M61)
    rng = random.Random(9)
    for _ in range(500):
        a, b = rng.randrange(M61), rng.randrange(M61)
        assert f.mul(a, b) == a * b % M61


def test_add_sub_neg(f101):
    assert f101.add(100, 5) == 4
    assert f101.sub(3, 10) == 94
    assert f101.neg(0) == 0
    assert f101.neg(1) == 100


def test_poly_eval_horner():
    # 5 + 3x at x=2 -> 11, at every point of the vector at once
    assert eval_poly([5, 3], [2], 101) == [11]
    assert eval_poly([7], [99, 3], 101) == [7, 7]
    assert eval_poly([5, 3], [2, 40, 0], 101) == [11, 125 % 101, 5]
    assert eval_poly([1, 2, 3], [], 101) == []


def test_encode_decode_fixed_width():
    f = Field(M61)
    assert f.elem_size == 8
    data = f.encode(12345)
    assert len(data) == 8 and f.decode(data) == 12345
    with pytest.raises(ValueError):
        f.decode(b"\x00" * 7)
    g = Field(101)
    assert g.elem_size == 1
    with pytest.raises(ValueError):
        g.decode(bytes([200]))


def test_decode_many_takes_exactly_count_elements_in_range():
    f = Field(M61)
    values = [0, 1, M61 - 1, 12345]
    data = f.encode_many(values)
    assert data == b"".join(f.encode(v) for v in values)
    assert f.decode_many([data], 4) == values
    assert f.decode_many([data[:16], data[16:]], 2) == values
    assert f.decode_many([], 3) == f.decode_many([b""], 0) == []
    for bad in (data + b"\x00", data[:-1], data[:-8]):
        with pytest.raises(ValueError):
            f.decode_many([bad], 4)
        with pytest.raises(ValueError):
            f.decode_many([data, bad], 4)
    with pytest.raises(ValueError, match="range"):
        f.decode_many([data[:8] + M61.to_bytes(8, "big")], 2)
