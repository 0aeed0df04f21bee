import itertools
import random

import pytest

from mpcnet import shamir
from mpcnet.circuits import eval_plain, parse_circuit
from mpcnet.field import Field, M61
from mpcnet.net import LocalChannel


def test_constant_polynomial_shares(f101, rng):
    shares = shamir.share(5, 0, 3, f101, rng)
    assert [(s.index, s.value) for s in shares] == [(1, 5), (2, 5), (3, 5)]


def test_share_forced_coefficient(f101, scripted):
    # q(x) = 5 + 3x over GF(101): oracle is direct polynomial evaluation.
    shares = shamir.share(5, 1, 3, f101, scripted([3]))
    assert [(s.index, s.value) for s in shares] == [(1, 8), (2, 11), (3, 14)]


def test_zero_secret_round_trip(f101, rng):
    shares = shamir.share(0, 2, 5, f101, rng)
    for subset in itertools.combinations(shares, 3):
        assert shamir.reconstruct(list(subset), f101) == 0


def test_reconstruct_lagrange_weights(f101):
    # Hand-derived: points {1,3} give weights 52 and 50 at zero;
    # 52*8 + 50*14 = 1116 = 5 mod 101.
    shares = [shamir.ShamirShare(1, 8, 1), shamir.ShamirShare(3, 14, 1)]
    assert shamir.reconstruct(shares, f101) == 5


def test_single_share_of_constant_sharing(f101, rng):
    shares = shamir.share(77, 0, 4, f101, rng)
    assert shamir.reconstruct([shares[2]], f101) == 77


def test_insufficient_and_duplicate_shares(f101, rng):
    shares = shamir.share(9, 2, 5, f101, rng)
    with pytest.raises(ValueError, match="insufficient"):
        shamir.reconstruct(shares[:2], f101)
    with pytest.raises(ValueError, match="duplicate"):
        shamir.reconstruct([shares[0], shares[0], shares[1]], f101)


def test_share_parameter_validation(f101, rng):
    with pytest.raises(ValueError, match="threshold"):
        shamir.share(1, 3, 3, f101, rng)
    with pytest.raises(ValueError, match="small"):
        shamir.share(1, 1, 101, f101, rng)


def test_linear_combine_sum(f101, rng):
    a = shamir.share(5, 1, 3, f101, rng)
    b = shamir.share(9, 1, 3, f101, rng)
    out = shamir.linear_combine([a, b], [1, 1], 0, f101)
    assert shamir.reconstruct(out, f101) == 14


def test_linear_combine_scalar(f101, rng):
    a = shamir.share(5, 1, 3, f101, rng)
    out = shamir.linear_combine([a], [3], 0, f101)
    assert shamir.reconstruct(out, f101) == 15


def test_linear_combine_identity(f101, rng):
    a = shamir.share(5, 1, 3, f101, rng)
    out = shamir.linear_combine([a], [1], 0, f101)
    assert [(s.index, s.value) for s in out] == [(s.index, s.value) for s in a]


def test_linear_combine_mismatch(f101, rng):
    a = shamir.share(5, 1, 3, f101, rng)
    b = shamir.share(9, 2, 3, f101, rng)
    with pytest.raises(ValueError, match="mismatched"):
        shamir.linear_combine([a, b], [1, 1], 0, f101)


def test_homomorphism_random_cases(f101, rng):
    # reconstruct(linear_combine(..)) == sum(c_j s_j) + k, 1000 cases.
    for _ in range(1000):
        k = rng.randrange(101)
        secrets = [rng.randrange(101) for _ in range(3)]
        coeffs = [rng.randrange(101) for _ in range(3)]
        lists = [shamir.share(s, 1, 4, f101, rng) for s in secrets]
        out = shamir.linear_combine(lists, coeffs, k, f101)
        expected = (sum(c * s for c, s in zip(coeffs, secrets)) + k) % 101
        assert shamir.reconstruct(out, f101) == expected


def test_mul_with_reduction_plain_oracle(f101, rng):
    x = shamir.share(2, 1, 3, f101, rng)
    y = shamir.share(3, 1, 3, f101, rng)
    net = LocalChannel()
    z = shamir.mul_with_reduction(x, y, f101, net, rng)
    assert shamir.reconstruct(z, f101) == 6
    assert z[0].threshold == 1


def test_mul_zero_absorbs(f101, rng):
    x = shamir.share(0, 1, 3, f101, rng)
    for _ in range(5):
        y = shamir.share(rng.randrange(101), 1, 3, f101, rng)
        z = shamir.mul_with_reduction(x, y, f101, LocalChannel(), rng)
        assert shamir.reconstruct(z, f101) == 0


def test_mul_message_count_n4(f101, rng):
    x = shamir.share(7, 1, 4, f101, rng)
    y = shamir.share(8, 1, 4, f101, rng)
    net = LocalChannel()
    shamir.mul_with_reduction(x, y, f101, net, rng)
    assert net.messages == 12


def test_mul_requires_honest_majority(f101, rng):
    x = shamir.share(2, 2, 4, f101, rng)
    y = shamir.share(3, 2, 4, f101, rng)
    with pytest.raises(ValueError, match="honest majority"):
        shamir.mul_with_reduction(x, y, f101, LocalChannel(), rng)


def test_mul_random_cases_and_message_invariant():
    field = Field(M61)
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(3, 8)
        t = rng.randrange(1, (n + 1) // 2)
        a, b = field.rand(rng), field.rand(rng)
        x = shamir.share(a, t, n, field, rng)
        y = shamir.share(b, t, n, field, rng)
        net = LocalChannel()
        z = shamir.mul_with_reduction(x, y, field, net, rng)
        assert shamir.reconstruct(z, field) == field.mul(a, b)
        assert net.messages == n * (n - 1)


def test_mul_layer_matches_plain_and_separate_products():
    # A layer of five products: one n(n-1) round, the plaintext products,
    # and, from the same rng state, exactly the shares five separate
    # mul_with_reduction calls give (sub-shares are dealt products-outer).
    field = Field(M61)
    n, t, k = 7, 3, 5
    circ = parse_circuit("\n".join(
        [f"in a{i}" for i in range(k)] + [f"in b{i}" for i in range(k)]
        + [f"p{i} = mul a{i} b{i}" for i in range(k)]
        + [f"out p{i}" for i in range(k)]))
    rng = random.Random(17)
    inputs = [field.rand(rng) for _ in range(2 * k)]
    shared = [shamir.share(v, t, n, field, rng) for v in inputs]
    pairs = list(zip(shared[:k], shared[k:]))

    net = LocalChannel()
    layer = shamir.mul_layer(pairs, field, net, random.Random(3))
    assert net.messages == n * (n - 1)
    assert [shamir.reconstruct(z, field) for z in layer] == \
        eval_plain(circ, inputs, field)

    one_rng = random.Random(3)
    separate = [shamir.mul_with_reduction(x, y, field, LocalChannel(), one_rng)
                for x, y in pairs]
    assert separate == layer


class RecordingChannel(LocalChannel):
    def __init__(self):
        super().__init__()
        self.sent = []

    def send(self, src, dst, payload: bytes):
        super().send(src, dst, payload)
        self.sent.append((src, dst, payload))


def test_reshare_to_other_parties_sends_each_target_its_slice():
    # A tree hop: parties 1..3 re-share three values to a committee at
    # points 1..3 whose members 10 and 11 hold none of them, while party 1,
    # the committee's second member, keeps its own sub-shares. Each message
    # carries 3 sub-shares.
    field = Field(M61)
    rng = random.Random(29)
    secrets = [field.rand(rng) for _ in range(3)]
    sharings = [shamir.share(v, 1, 3, field, rng) for v in secrets]
    sources, targets = [1, 2, 3], [(10, 1), (1, 2), (11, 3)]
    net = RecordingChannel()
    out = shamir.reshare([[s.value for s in sharing] for sharing in sharings], sources,
                         shamir.weights_at_zero((1, 2, 3), field.p), targets, 1,
                         field, net, rng)
    assert sorted((src, dst) for src, dst, _ in net.sent) == \
        sorted((src, tgt) for src in sources for tgt, _ in targets if tgt != src)
    assert {len(payload) for _, _, payload in net.sent} == {3 * field.elem_size}
    assert all([s.index for s in z] == [1, 2, 3] for z in out)
    assert [shamir.reconstruct(z, field) for z in out] == secrets


def test_every_subset_reconstructs_small():
    field = Field(M61)
    rng = random.Random(17)
    for n in range(2, 7):
        for t in range(1, n):
            secret = field.rand(rng)
            shares = shamir.share(secret, t, n, field, rng)
            for subset in itertools.combinations(shares, t + 1):
                assert shamir.reconstruct(list(subset), field) == secret


def test_share_uniformity_chi_square(f101):
    # Any t shares are distribution-independent of the secret: per-share
    # histograms over 10,000 sharings of two fixed secrets look uniform.
    from scipy.stats import chisquare

    rng = random.Random(2024)
    for secret in (0, 57):
        histograms = [[0] * 101 for _ in range(3)]
        for _ in range(10000):
            shares = shamir.share(secret, 1, 3, f101, rng)
            for i, s in enumerate(shares):
                histograms[i][s.value] += 1
        for hist in histograms:
            result = chisquare(hist)
            assert result.pvalue > 0.01


def test_lagrange_eval_general(f101):
    # points of q(x) = 3 + 2x + x^2
    pts = [(1, 6), (2, 11), (3, 18)]
    assert shamir.lagrange_eval(pts, 0, f101) == 3
    assert shamir.lagrange_eval(pts, 5, f101) == (3 + 10 + 25) % 101
