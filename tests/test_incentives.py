import random

import pytest

from mpcnet.field import Field
from mpcnet.incentives import FeeSchedule, post_deposit, settle_computation
from mpcnet.keys import KeyPair
from mpcnet.ledger import Ledger, LedgerRejected
from mpcnet.network import Runtime
from mpcnet.trace import ComputationTrace, NodeTally


def total_value(ledger):
    return sum(a.balance + a.deposit for a in ledger.accounts.values())


def make_parties(count, balance=1000, seed=55, authority=None):
    """Funded keypairs on a ledger whose genesis names `authority` (a
    KeyPair) as the only key that may post settlements."""
    rng = random.Random(seed)
    keypairs = [KeyPair.generate(rng) for _ in range(count)]
    ledger = Ledger(genesis_balances={kp.sign_pk: balance for kp in keypairs},
                    authority=authority.sign_pk if authority else None)
    return keypairs, ledger


def make_trace(committee_pks, requester_pk, tallies, faults=(), outcome="ok"):
    trace = ComputationTrace(
        computation_id=b"\x11" * 32, mode="shamir", seed=1,
        committee=list(range(len(committee_pks))),
        committee_pks=list(committee_pks),
        requester_pk=requester_pk)
    for idx, tally in enumerate(tallies):
        trace.per_node[idx] = tally
    for idx, channel in faults:
        trace.fault(idx, channel)
    trace.finalize(outcome)
    return trace


def test_post_deposit_locks_and_gates_eligibility():
    keypairs, ledger = make_parties(2)
    node = keypairs[0]
    post_deposit(node, 100, ledger)
    acct = ledger.account(node.sign_pk)
    assert (acct.balance, acct.deposit) == (900, 100)
    with pytest.raises(LedgerRejected):
        post_deposit(node, 1000, ledger)
    rt = Runtime(Field(101), 3, 2)
    staked, other = rt.registry
    post_deposit(staked.keypair, 100, rt.ledger)
    # zero deposit leaves the node ineligible
    post_deposit(other.keypair, 0, rt.ledger)
    assert rt.eligible_nodes() == [staked]


def test_fee_fixture_hand_derived():
    # Pinned fixture: w=(1,1,10), a node with rounds=5, adds=2, muls=3
    # earns 5 + 2 + 30 = 37.
    schedule = FeeSchedule(w_round=1, w_add=1, w_mul=10)
    assert schedule.fee(5, 2, 3) == 37
    authority = KeyPair.generate(random.Random(1))
    keypairs, ledger = make_parties(4, authority=authority)
    worker_pks = [kp.sign_pk for kp in keypairs[:3]]
    trace = make_trace(worker_pks, keypairs[3].sign_pk,
                       [NodeTally(5, 2, 3), NodeTally(1, 1, 0), NodeTally(0, 0, 0)])
    report = settle_computation(trace, schedule, ledger, authority)
    assert not report.rejected
    assert report.lines[0].fee == 37
    assert ledger.account(worker_pks[0]).balance == 1037
    assert ledger.account(keypairs[3].sign_pk).balance == 1000 - 37 - 2


def test_settlement_requires_finalized_trace():
    keypairs, ledger = make_parties(2)
    trace = ComputationTrace(computation_id=b"\x01" * 32, mode="shamir", seed=1,
                             committee=[0], committee_pks=[keypairs[0].sign_pk],
                             requester_pk=keypairs[1].sign_pk)
    with pytest.raises(ValueError, match="unfinalized"):
        settle_computation(trace, FeeSchedule(), ledger, keypairs[0])


def test_no_faults_leave_deposits_unchanged():
    authority = KeyPair.generate(random.Random(2))
    keypairs, ledger = make_parties(4, authority=authority)
    for kp in keypairs[:3]:
        post_deposit(kp, 90, ledger)
    trace = make_trace([kp.sign_pk for kp in keypairs[:3]], keypairs[3].sign_pk,
                       [NodeTally(1, 1, 1)] * 3)
    settle_computation(trace, FeeSchedule(), ledger, authority)
    for kp in keypairs[:3]:
        assert ledger.account(kp.sign_pk).deposit == 90


def test_slash_split_equally():
    # 1 malicious with deposit 90, 3 honest -> each honest +30.
    authority = KeyPair.generate(random.Random(3))
    keypairs, ledger = make_parties(5, authority=authority)
    for kp in keypairs[:4]:
        post_deposit(kp, 90, ledger)
    committee_pks = [kp.sign_pk for kp in keypairs[:4]]
    trace = make_trace(committee_pks, keypairs[4].sign_pk,
                       [NodeTally(0, 0, 0)] * 4, faults=[(3, "timeout")])
    before = total_value(ledger)
    report = settle_computation(trace, FeeSchedule(), ledger, authority)
    assert total_value(ledger) == before
    assert ledger.account(committee_pks[3]).deposit == 0
    for pk in committee_pks[:3]:
        assert ledger.account(pk).balance == 1000 - 90 + 30
    slash_line = [l for l in report.lines if l.slash][0]
    assert slash_line.slash == 90 and slash_line.reason == "silent"


def test_slash_remainder_to_first_honest():
    authority = KeyPair.generate(random.Random(4))
    keypairs, ledger = make_parties(4, authority=authority)
    for kp, amount in zip(keypairs[:3], (100, 100, 91)):
        post_deposit(kp, amount, ledger)
    committee_pks = [kp.sign_pk for kp in keypairs[:3]]
    trace = make_trace(committee_pks, keypairs[3].sign_pk,
                       [NodeTally(0, 0, 0)] * 3, faults=[(2, "share-consistency")])
    settle_computation(trace, FeeSchedule(), ledger, authority)
    # 91 split over 2 honest: 45 each, remainder 1 to the lowest index.
    assert ledger.account(committee_pks[0]).balance == 900 + 46
    assert ledger.account(committee_pks[1]).balance == 900 + 45
    assert ledger.account(committee_pks[2]).deposit == 0


def test_min_balance_rejects_request():
    authority = KeyPair.generate(random.Random(5))
    keypairs, ledger = make_parties(3, balance=5, authority=authority)
    trace = make_trace([keypairs[0].sign_pk, keypairs[1].sign_pk],
                       keypairs[2].sign_pk, [NodeTally(1, 1, 1)] * 2)
    schedule = FeeSchedule(min_balance=100)
    report = settle_computation(trace, schedule, ledger, authority)
    assert report.rejected
    assert all(line.fee == 0 for line in report.lines)
    assert ledger.account(keypairs[2].sign_pk).balance == 5


def test_conservation_randomized():
    rng = random.Random(77)
    for case in range(500):
        n = rng.randrange(2, 6)
        balance = rng.randrange(50, 2000)
        authority = KeyPair.generate(random.Random(9000 + case))
        keypairs, ledger = make_parties(n + 1, balance=balance, seed=case, authority=authority)
        for kp in keypairs[:n]:
            post_deposit(kp, rng.randrange(0, min(balance, 200)), ledger)
        tallies = [NodeTally(rng.randrange(5), rng.randrange(5), rng.randrange(3))
                   for _ in range(n)]
        faults = [(i, "share-consistency") for i in range(n) if rng.random() < 0.3]
        trace = make_trace([kp.sign_pk for kp in keypairs[:n]],
                           keypairs[n].sign_pk, tallies, faults=faults)
        schedule = FeeSchedule(w_round=rng.randrange(3), w_add=rng.randrange(3),
                               w_mul=rng.randrange(12), min_balance=rng.randrange(50))
        before = total_value(ledger)
        settle_computation(trace, schedule, ledger, authority)
        assert total_value(ledger) == before


def test_settlement_report_format():
    authority = KeyPair.generate(random.Random(6))
    keypairs, ledger = make_parties(2, authority=authority)
    trace = make_trace([keypairs[0].sign_pk], keypairs[1].sign_pk,
                       [NodeTally(1, 0, 0)])
    report = settle_computation(trace, FeeSchedule(), ledger, authority)
    line = report.to_text().splitlines()[1]
    assert line == f"node={keypairs[0].sign_pk.hex()} fee=1 slash=0 reason=honest"

