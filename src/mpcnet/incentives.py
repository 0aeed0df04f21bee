"""Deposits, slashing and round-weighted fees.

All value movements are integer fee units settled through signed ledger
transactions. The ledger rejects a settlement whose balance and deposit
deltas do not sum to zero, so balances + deposits stay constant across
every settlement.

Fee rule: an honest participant earns
    w_round * rounds + w_add * adds + w_mul * muls
from the requester's balance. A run that detected cheating without naming
anyone and released nothing pays no fees and charges the requester
nothing; every deposit stays intact, and each member's line reads
`reason=withheld`, not `honest`, since the unnamed cheater is among them.
A node flagged malicious in the trace forfeits its entire deposit, split
equally among the honest participants with the integer remainder going to
the lowest-index honest node. A requester whose balance cannot cover the
threshold (or the bill) has the request marked rejected and no fees move.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .keys import KeyPair
from .ledger import Account, Ledger, make_tx
from .trace import ComputationTrace

__all__ = ["Account", "FeeSchedule", "SettlementLine", "SettlementReport",
           "post_deposit", "settle_computation"]


@dataclass(frozen=True)
class FeeSchedule:
    """Fixed unit prices, gas-style."""

    w_round: int = 1
    w_add: int = 1
    w_mul: int = 10
    min_balance: int = 1

    def __post_init__(self):
        for name in ("w_round", "w_add", "w_mul", "min_balance"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def fee(self, rounds: int, adds: int, muls: int) -> int:
        return self.w_round * rounds + self.w_add * adds + self.w_mul * muls


def post_deposit(node_keypair: KeyPair, amount: int, ledger: Ledger) -> int:
    """Lock `amount` from the node's balance; required before committee work."""
    tx = make_tx(node_keypair, "deposit", {"amount": amount},
                 nonce=ledger.next_nonce(node_keypair.sign_pk))
    return ledger.submit_tx(tx)


@dataclass(frozen=True)
class SettlementLine:
    node_pk: bytes
    fee: int
    slash: int
    reason: str

    def to_text(self) -> str:
        return f"node={self.node_pk.hex()} fee={self.fee} slash={self.slash} reason={self.reason}"


@dataclass
class SettlementReport:
    computation_id: bytes
    rejected: bool
    lines: list = dc_field(default_factory=list)
    requester_charge: int = 0

    def to_text(self) -> str:
        header = (f"settlement computation={self.computation_id.hex()} "
                  f"rejected={'yes' if self.rejected else 'no'} "
                  f"charge={self.requester_charge}")
        return "\n".join([header] + [line.to_text() for line in self.lines]) + "\n"


def settle_computation(trace: ComputationTrace, schedule: FeeSchedule,
                       ledger: Ledger, authority: KeyPair) -> SettlementReport:
    """Settle a finalized trace: fees to honest workers, slashes to cheaters.

    The settlement is submitted as a single atomic fee-settlement
    transaction signed by the settlement authority; a rejected request
    (requester under the balance threshold, or unable to cover the bill)
    moves no fees but still applies slashing for detected faults.
    """
    if not trace.finalized:
        raise ValueError("unfinalized trace")
    malicious = {f.node for f in trace.detected_faults}
    honest = [i for i in trace.committee if i not in malicious]
    pk_of = dict(zip(trace.committee, trace.committee_pks))
    # Cheating was detected but nobody could be named and nothing was
    # released: paying the members would pay the unnamed cheater too.
    withheld = (trace.outcome == "cheat-detected" and not malicious
                and not trace.output)

    fees = {}
    for idx in honest:
        t = trace.per_node.get(idx)
        if t is None or withheld:
            fees[idx] = 0
        else:
            fees[idx] = schedule.fee(t.rounds, t.adds, t.muls)
    total_fees = sum(fees.values())

    requester_balance = ledger.account(trace.requester_pk).balance
    rejected = (trace.outcome == "rejected"
                or requester_balance < schedule.min_balance
                or requester_balance < total_fees)

    balance_deltas = {}
    deposit_deltas = {}

    def credit(pk: bytes, amount: int):
        balance_deltas[pk] = balance_deltas.get(pk, 0) + amount

    if not rejected:
        credit(trace.requester_pk, -total_fees)
        for idx in honest:
            if fees[idx]:
                credit(pk_of[idx], fees[idx])

    slashes = {}
    for idx in sorted(malicious):
        pk = pk_of[idx]
        forfeited = ledger.account(pk).deposit + deposit_deltas.get(pk, 0)
        if forfeited <= 0:
            continue
        deposit_deltas[pk] = deposit_deltas.get(pk, 0) - forfeited
        slashes[idx] = forfeited
        if honest:
            share, remainder = divmod(forfeited, len(honest))
            for pos, h in enumerate(honest):
                credit(pk_of[h], share + (remainder if pos == 0 else 0))
        else:
            # No honest participant to pay: the forfeit goes to the requester.
            credit(trace.requester_pk, forfeited)

    if balance_deltas or deposit_deltas:
        payload = {
            "computation": trace.computation_id.hex(),
            "balance_deltas": [[pk.hex(), d] for pk, d in balance_deltas.items()],
            "deposit_deltas": [[pk.hex(), d] for pk, d in deposit_deltas.items()],
        }
        tx = make_tx(authority, "fee-settlement", payload,
                     nonce=ledger.next_nonce(authority.sign_pk))
        ledger.submit_tx(tx)

    report = SettlementReport(computation_id=trace.computation_id,
                              rejected=rejected,
                              requester_charge=0 if rejected else total_fees)
    for idx in trace.committee:
        if idx in malicious:
            behavior = next(f.behavior for f in trace.detected_faults if f.node == idx)
            report.lines.append(SettlementLine(pk_of[idx], 0, slashes.get(idx, 0), behavior))
        else:
            report.lines.append(SettlementLine(
                pk_of[idx], 0 if rejected else fees[idx], 0,
                "withheld" if withheld else "honest"))
    return report
