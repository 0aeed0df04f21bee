"""The cryptographic floor of each bundled scenario, counted exactly.

X25519 agreements, AES-GCM contexts and seals, Ed25519 signatures, verifies
and key generations are the costs no speed-up may skip, so a run's count of
each is pinned: a change that adds or drops one moves a number here, while
a change that only makes the Python around them faster moves none. Each
communicating pair on the bus builds one AES-GCM context, so contexts equal
agreements, and every bus message is sealed once.
"""

import dataclasses
from pathlib import Path

import pytest

from mpcnet import keys, net
from mpcnet.runner import run_scenario
from mpcnet.scenario import parse_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

COUNTED = ("shared_key", "aesgcm", "sign", "verify", "seal", "generate")

# Calls during run_scenario at seed 1, in COUNTED's order: keys.shared_key,
# AESGCM contexts built in mpcnet.net, KeyPair.sign, keys.verify, keys.seal
# and KeyPair.generate.
FLOOR = {
    "abort": (9, 9, 13, 13, 11, 12),
    "average": (9, 9, 13, 13, 12, 12),
    "broken": (9, 9, 15, 15, 27, 11),
    "cheater": (9, 9, 14, 14, 24, 11),
    "scaling": (9, 9, 13, 13, 12, 12),
    "select": (12, 12, 16, 16, 30, 12),
}


@pytest.fixture
def counts(monkeypatch):
    tally = dict.fromkeys(COUNTED, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            tally[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(keys, "shared_key", counted("shared_key", keys.shared_key))
    monkeypatch.setattr(net, "AESGCM", counted("aesgcm", net.AESGCM))
    monkeypatch.setattr(keys.KeyPair, "sign", counted("sign", keys.KeyPair.sign))
    monkeypatch.setattr(keys, "verify", counted("verify", keys.verify))
    monkeypatch.setattr(keys, "seal", counted("seal", keys.seal))
    generate = keys.KeyPair.generate.__func__
    monkeypatch.setattr(keys.KeyPair, "generate", classmethod(counted("generate", generate)))
    return tally


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIOS.glob("*.scn")))
def test_crypto_floor_of_each_bundled_scenario(name, counts):
    cfg = dataclasses.replace(parse_scenario(SCENARIOS / f"{name}.scn"), seed=1)
    result = run_scenario(cfg)
    assert counts["aesgcm"] == counts["shared_key"]
    assert counts["seal"] == result.runtime.bus.messages
    assert tuple(counts[key] for key in COUNTED) == FLOOR[name]
