#!/usr/bin/env python3
"""Walkthrough: secret sharing, homomorphic arithmetic, secure products.

Everything here runs over GF(101) so the numbers stay small enough to
check by hand.
"""

import random

from mpcnet import shamir
from mpcnet.field import Field
from mpcnet.net import LocalChannel

field = Field(101)
rng = random.Random(7)

# ---------------------------------------------------------------------------
# 1. Split a secret into shares. Any t+1 shares rebuild it; any t shares
#    look uniformly random.
# ---------------------------------------------------------------------------
secret = 42
shares = shamir.share(secret, t=1, n=3, field=field, rng=rng)
print("secret:", secret)
print("shares:", [(s.index, s.value) for s in shares])
print("reconstruct from shares 1,3:",
      shamir.reconstruct([shares[0], shares[2]], field))

# ---------------------------------------------------------------------------
# 2. Linear arithmetic happens directly on shares, no messages exchanged.
#    Here: 3*a + b + 10.
# ---------------------------------------------------------------------------
a = shamir.share(5, 1, 3, field, rng)
b = shamir.share(9, 1, 3, field, rng)
combo = shamir.linear_combine([a, b], coeffs=[3, 1], constant=10, field=field)
print("\n3*5 + 9 + 10 =", shamir.reconstruct(combo, field))

# ---------------------------------------------------------------------------
# 3. Multiplication needs one interactive round: every party re-shares its
#    local product and the degree of the hidden polynomial drops from 2t
#    back to t. The channel counts exactly n(n-1) messages per
#    multiplication *layer*.
# ---------------------------------------------------------------------------
x = shamir.share(6, 1, 3, field, rng)
y = shamir.share(7, 1, 3, field, rng)
net = LocalChannel()
z = shamir.mul_with_reduction(x, y, field, net, rng)
print("\n6*7 =", shamir.reconstruct(z, field))
print("messages for one product among 3 parties:", net.messages)

# ---------------------------------------------------------------------------
# 4. Independent products form one multiplication layer and share its
#    round: each ordered pair of parties exchanges one message carrying a
#    sub-share of every product, so the layer still costs n(n-1) messages.
# ---------------------------------------------------------------------------
pairs = [(shamir.share(u, 1, 3, field, rng), shamir.share(v, 1, 3, field, rng))
         for u, v in ((2, 3), (4, 5), (6, 7))]
net = LocalChannel()
products = shamir.mul_layer(pairs, field, net, rng)
print("\n2*3, 4*5, 6*7 =", [shamir.reconstruct(z, field) for z in products])
print("messages for a layer of three products among 3 parties:", net.messages)
