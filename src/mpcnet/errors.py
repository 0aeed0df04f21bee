"""Error types shared across the protocol stack.

Plain parameter validation raises ValueError at the call site; the classes
here mark protocol-level outcomes that callers are expected to catch and
react to (abort a run, slash a node, reject a request).
"""


class MpcError(Exception):
    """Base class for protocol-level failures."""


class CheatDetected(MpcError):
    """A MAC check or share-consistency check failed on an opened batch."""


class TripleReuse(MpcError):
    """A Beaver triple was consumed twice."""


class LedgerRejected(MpcError):
    """The ledger refused a transaction (bad signature, stale nonce, funds)."""


class IncompleteTrail(MpcError):
    """The audit trail on the ledger is missing entries."""


class CorruptDump(MpcError):
    """A ledger dump file failed to parse or verify."""
