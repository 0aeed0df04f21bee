import random

import pytest

from mpcnet.field import Field


@pytest.fixture
def f101():
    return Field(101)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


class ScriptedRng:
    """Deterministic rng stub: scripted draws first, then a real seeded
    generator for everything else. A scripted value is returned as is by
    randrange or by getrandbits, the call Field.rand draws with, so it must
    lie in the range the caller accepts."""

    def __init__(self, script, fallback_seed=0):
        self.script = list(script)
        self._rng = random.Random(fallback_seed)

    def randrange(self, *args, **kwargs):
        if self.script:
            return self.script.pop(0)
        return self._rng.randrange(*args, **kwargs)

    def getrandbits(self, k):
        if self.script:
            return self.script.pop(0)
        return self._rng.getrandbits(k)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.fixture
def scripted():
    return ScriptedRng
