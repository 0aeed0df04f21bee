#!/usr/bin/env python3
"""Walkthrough: why hierarchical multiplication scales.

A flat secure product makes every party talk to every other party, n(n-1)
messages. Arranging the parties into committees of C to 2C - 1 real parties
(no padding), composed up a log-depth tree, keeps the per-party traffic flat
as the network grows.
"""

import random

from mpcnet import shamir
from mpcnet.field import Field, M61
from mpcnet.hierarchy import hierarchical_mul
from mpcnet.net import LocalChannel

field = Field(M61)
rng = random.Random(31)
C = 3

print(f"{'n':>4} {'flat msgs':>10} {'tree msgs':>10} {'flat/n':>8} {'tree/n':>8}")
for n in (3, 9, 27, 81):
    x = shamir.share(123456, 1, n, field, rng)
    y = shamir.share(654321, 1, n, field, rng)

    flat = LocalChannel()
    shamir.mul_with_reduction(x, y, field, flat, rng)

    tree_net = LocalChannel()
    root = hierarchical_mul(x, y, C, field, tree_net, rng)
    assert shamir.reconstruct(root, field) == field.mul(123456, 654321)

    print(f"{n:>4} {flat.messages:>10} {tree_net.messages:>10} "
          f"{flat.messages / n:>8.1f} {tree_net.messages / n:>8.1f}")

print("\nflat traffic per party grows linearly with n;")
print(f"the committee tree (c={C}) holds it near-constant.")
