#!/usr/bin/env python3
"""Walkthrough: publicly auditable correctness.

Every sharing carries Pedersen commitments on the bulletin board, and the
masked openings of each multiplication go there too. The commitments (the
inputs and the dealer's Beaver triple) are posted before the first mask
opens; the openings, which commit to nothing new, follow in one more
transaction when the trail closes. A third party holding only the ledger
can re-derive what every party's commitments must be and check the posted
openings against them -- and a node that lied about a commitment is named,
not just detected.
"""

import random

from mpcnet import audit, pedersen, spdz
from mpcnet.field import Field
from mpcnet.keys import KeyPair, sha256
from mpcnet.ledger import Ledger
from mpcnet.net import LocalChannel

field = Field(101)
params = pedersen.setup(field)
rng = random.Random(17)
poster = KeyPair.generate(rng)


def run(tag, broken=frozenset()):
    """z = x*y over authenticated shares, trail posted to a fresh ledger."""
    key = spdz.gen_mac_key(3, field, rng)
    ledger = Ledger()
    comp_id = sha256(tag.encode())
    writer = audit.TrailWriter(ledger, comp_id, poster, field, 3)
    x = audit.pv_share(4, 3, key, params, writer, field, rng, broken=broken)
    y = audit.pv_share(5, 3, key, params, writer, field, rng)
    triple = audit.pv_triple(key, params, writer, field, rng)
    # The input and triple steps go on the ledger before the masks open.
    z = audit.pv_beaver(x, y, triple, key, params, field,
                        LocalChannel(), [], writer)
    value = audit.pv_output(z, field, writer)
    # The Beaver and output openings follow with the metadata record.
    writer.close()
    return ledger, comp_id, value


# An honest run: the auditor reproduces the whole commitment trail.
ledger, comp_id, value = run("honest-run")
print("opened output:", value)
verdict = audit.audit_trail(ledger, comp_id)
print("honest audit:", "pass" if verdict.ok else f"fail {verdict.guilty}")

# Party 1 posts a commitment that does not match the share it holds.
# The computation itself still produces 20 -- only the audit exposes it.
ledger, comp_id, value = run("crooked-run", broken={1})
print("\ncrooked run still outputs:", value)
verdict = audit.audit_trail(ledger, comp_id)
print("audit verdict:", "pass" if verdict.ok else "fail")
print("guilty parties:", verdict.guilty)
print("reason:", verdict.reason)
