"""Protocol-level tests for the replica state machine.

A FakeEngine records outgoing messages and timers so vote rounds can
be driven message by message; scenario-level behaviour (full runs) is
covered in test_scenario.py.
"""

import gc
from operator import attrgetter

import pytest

from pbftsim.netsim import TimerKind
from pbftsim.replica import MAX_INFLIGHT, EquivocatingReplica, Entry, Replica
from pbftsim.scenario import ScenarioConfig
from pbftsim.wire import (Message, MsgKind, Transaction, block_digest,
                          commit_quorum)


class FakeEngine:
    def __init__(self, n=4):
        self.n = n
        self.sent = []    # (src, dst-or-None, msg)
        self.timers = []  # (node, kind, at_us)

    def send(self, src, dst, msg):
        self.sent.append((src, dst, msg))

    def broadcast(self, src, msg):
        self.sent.append((src, None, msg))

    def schedule_timer(self, node, kind, at_us):
        self.timers.append((node, kind, at_us))

    def of_kind(self, kind):
        return [m for _, _, m in self.sent if m.kind == kind]

    def clear(self):
        self.sent.clear()


def make_replica(node=0, n=4, block=2, cls=Replica):
    engine = FakeEngine(n)
    config = ScenarioConfig(nodes=n, block_size=block)
    replica = cls(node, engine, config)
    replica.start()
    return replica, engine


def voters(mask):
    """The node ids whose bits are set in a vote mask."""
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def tx(origin, counter, at=0.0):
    return Transaction(origin=origin, counter=counter, created_at=at)


def feed_block(replica, txs, now_us=0):
    for t in txs:
        replica.on_transaction(t, now_us)


def primary_announcement(n=4, block=2, seq=1):
    """Run a real primary and capture its announcement messages."""
    primary, engine = make_replica(node=0, n=n, block=block)
    feed_block(primary, [tx(0, c) for c in range(block)])
    heads = engine.of_kind(MsgKind.PRE_PREPARE)
    relays = engine.of_kind(MsgKind.CLIENT_REQUEST)
    assert heads and len(relays) == block
    return primary, heads[-1], relays


def test_attributes_fit_the_shared_layout():
    # See the comment on Replica.__init__: a 30th attribute slows
    # every handler.
    for cls in (Replica, EquivocatingReplica):
        replica, _ = make_replica(cls=cls)
        assert len(vars(replica)) < 30
        # The view-change unit is slotted: no attribute dict to outgrow.
        assert not hasattr(replica.vc, "__dict__")


# The handler ``on_message`` calls for each kind it does not count itself.
NON_VOTE_HANDLERS = {
    MsgKind.TX_BROADCAST: "_on_tx",
    MsgKind.CLIENT_REQUEST: "_on_relay",
    MsgKind.PRE_PREPARE: "_on_pre_prepare",
    MsgKind.RETRY_REQUEST: "_on_retry_request",
    MsgKind.VIEW_CHANGE: "_on_view_change",
    MsgKind.NEW_VIEW: "_on_new_view",
}


@pytest.mark.parametrize("kind", list(NON_VOTE_HANDLERS),
                         ids=lambda k: k.name)
def test_subclass_handler_overrides_are_called(kind):
    calls = []

    def record(self, msg, now_us):
        calls.append((msg, now_us))

    Recording = type("Recording", (Replica,),
                     {NON_VOTE_HANDLERS[kind]: record})
    replica, _ = make_replica(node=2, cls=Recording)
    if kind in (MsgKind.TX_BROADCAST, MsgKind.CLIENT_REQUEST):
        msg = Message(kind=kind, sender=0, recipient=2, view=0, seq=1,
                      tx=tx(0, 0))
    else:
        view = 1 if kind in (MsgKind.VIEW_CHANGE, MsgKind.NEW_VIEW) else 0
        msg = Message(kind=kind, sender=1, recipient=None, view=view,
                      seq=1, digest=bytes(32))
    replica.on_message(msg, 7)
    assert calls == [(msg, 7)]
    # The base handler did not run as well.
    assert replica.mempool == {} and replica.entries == {}
    assert replica.view == 0 and not replica.vc.votes


# ----------------------------------------------------------- proposing

class TestProposal:
    def test_primary_proposes_once_mempool_fills(self):
        primary, engine = make_replica(node=0, n=4, block=3)
        feed_block(primary, [tx(0, 0), tx(0, 1)])
        assert engine.of_kind(MsgKind.PRE_PREPARE) == []
        feed_block(primary, [tx(0, 2)])
        heads = engine.of_kind(MsgKind.PRE_PREPARE)
        assert len(heads) == 1
        assert heads[0].seq == 1
        assert len(engine.of_kind(MsgKind.CLIENT_REQUEST)) == 3

    def test_announcement_carries_digest_and_positions(self):
        _, head, relays = primary_announcement(block=3)
        ids = [r.tx.tx_id for r in sorted(relays, key=lambda m: m.timestamp)]
        assert head.digest == block_digest(head.seq, ids)
        assert sorted(r.timestamp for r in relays) == [0, 1, 2]

    def test_primary_counts_itself_prepared(self):
        primary, _, _ = primary_announcement()
        entry = primary.entries[1]
        assert voters(entry.prepares) == {0}
        assert entry.tx_ids is not None and entry.pre_prepared

    def test_backup_forwards_transactions_to_primary(self):
        backup, engine = make_replica(node=2, n=4)
        backup.on_transaction(tx(2, 0), 0)
        sends = engine.of_kind(MsgKind.TX_BROADCAST)
        assert len(sends) == 1
        assert engine.sent[0][1] == 0  # primary of view 0

    def test_forwarded_transaction_not_reforwarded(self):
        backup, engine = make_replica(node=2, n=4)
        fwd = Message(kind=MsgKind.TX_BROADCAST, sender=1, recipient=2,
                      view=0, seq=0, tx=tx(1, 0))
        backup.on_message(fwd, 0)
        assert engine.of_kind(MsgKind.TX_BROADCAST) == []
        assert len(backup.mempool) == 1

    def test_duplicate_transaction_counted(self):
        backup, _ = make_replica(node=2)
        backup.on_transaction(tx(2, 0), 0)
        backup.on_transaction(tx(2, 0), 1)
        assert backup.duplicates == 1

    def test_committed_transaction_refused_as_duplicate(self):
        # Counter 70 lies past the first 64 bits of origin 1's mask.
        primary, engine = make_replica(node=0, n=4, block=1)

        def forward(t, now_us):
            primary.on_message(Message(kind=MsgKind.TX_BROADCAST, sender=1,
                                       recipient=0, view=0, seq=0, tx=t),
                               now_us)

        forward(tx(1, 70), 0)
        head, = engine.of_kind(MsgKind.PRE_PREPARE)
        for kind, sender in ((MsgKind.PREPARE, 1), (MsgKind.COMMIT, 1),
                             (MsgKind.COMMIT, 2)):
            primary.on_message(Message(kind=kind, sender=sender,
                                       recipient=None, view=0, seq=1,
                                       digest=head.digest,
                                       block_ref=head.block_ref), 1)
        assert primary.ledger == [1]
        assert primary.committed_ids[1] == 1 << 70
        forward(tx(1, 70), 2)
        assert primary.duplicates == 1 and not primary.mempool
        assert len(engine.of_kind(MsgKind.PRE_PREPARE)) == 1
        forward(tx(1, 6), 3)  # 70 - 64: a different tx
        assert primary.duplicates == 1
        assert len(engine.of_kind(MsgKind.PRE_PREPARE)) == 2

    def test_proposal_window_bounds_open_blocks(self):
        primary, engine = make_replica(node=0, n=4, block=1)
        feed_block(primary, [tx(0, c) for c in range(MAX_INFLIGHT + 4)])
        assert len(engine.of_kind(MsgKind.PRE_PREPARE)) == MAX_INFLIGHT
        assert len(primary.mempool) == 4


# ------------------------------------------------------- content gate

class TestContentGate:
    def test_backup_prepares_after_head_and_full_content(self):
        _, head, relays = primary_announcement(n=7, block=2)
        backup, engine = make_replica(node=1, n=7, block=2)
        backup.on_message(head, 10)
        backup.on_message(relays[0], 11)
        assert engine.of_kind(MsgKind.PREPARE) == []
        backup.on_message(relays[1], 12)
        assert len(engine.of_kind(MsgKind.PREPARE)) == 1
        assert backup.entries[1].tx_ids is not None

    def test_relays_before_head_also_complete(self):
        _, head, relays = primary_announcement(n=7, block=2)
        backup, engine = make_replica(node=1, n=7, block=2)
        for r in relays:
            backup.on_message(r, 10)
        assert engine.of_kind(MsgKind.PREPARE) == []
        backup.on_message(head, 11)
        assert len(engine.of_kind(MsgKind.PREPARE)) == 1

    def test_mismatched_content_never_prepares(self):
        _, head, relays = primary_announcement(n=7, block=2)
        backup, engine = make_replica(node=1, n=7, block=2)
        backup.on_message(head, 10)
        # swap the two positions: same transactions, wrong order
        a, b = relays
        swapped_a = Message(kind=MsgKind.CLIENT_REQUEST, sender=a.sender,
                            recipient=1, view=a.view, seq=a.seq, tx=b.tx,
                            block_ref=a.block_ref, timestamp=0)
        swapped_b = Message(kind=MsgKind.CLIENT_REQUEST, sender=a.sender,
                            recipient=1, view=a.view, seq=a.seq, tx=a.tx,
                            block_ref=a.block_ref, timestamp=1)
        backup.on_message(swapped_a, 11)
        backup.on_message(swapped_b, 12)
        assert engine.of_kind(MsgKind.PREPARE) == []
        assert backup.entries[1].tx_ids is None

    def test_duplicate_relay_counted(self):
        _, head, relays = primary_announcement(n=7, block=2)
        backup, _ = make_replica(node=1, n=7, block=2)
        backup.on_message(relays[0], 10)
        backup.on_message(relays[0], 11)
        assert backup.duplicates == 1

    def test_relay_position_outside_block_ignored(self):
        backup, _ = make_replica(node=1, n=4, block=2)
        stray = Message(kind=MsgKind.CLIENT_REQUEST, sender=0, recipient=1,
                        view=0, seq=1, tx=tx(0, 9), timestamp=7)
        backup.on_message(stray, 0)
        assert 1 not in backup.entries or not backup.entries[1].content


# ------------------------------------------------------- vote counting

class TestQuorums:
    def test_prepare_quorum_is_self_inclusive(self):
        # n=7: 2f = 4 prepares needed, own vote included
        _, head, relays = primary_announcement(n=7, block=2)
        backup, engine = make_replica(node=1, n=7, block=2)
        backup.on_message(head, 0)
        for r in relays:
            backup.on_message(r, 0)
        # holds {primary, self} = 2 of 4: no commit vote yet
        assert engine.of_kind(MsgKind.COMMIT) == []
        vote = Message(kind=MsgKind.PREPARE, sender=2, recipient=None,
                       view=0, seq=1, digest=head.digest,
                       block_ref=head.block_ref)
        backup.on_message(vote, 1)
        assert engine.of_kind(MsgKind.COMMIT) == []
        vote = Message(kind=MsgKind.PREPARE, sender=3, recipient=None,
                       view=0, seq=1, digest=head.digest,
                       block_ref=head.block_ref)
        backup.on_message(vote, 2)
        assert len(engine.of_kind(MsgKind.COMMIT)) == 1

    def test_commit_quorum_appends_to_ledger(self):
        _, head, relays = primary_announcement(n=4, block=2)
        backup, engine = make_replica(node=1, n=4, block=2)
        backup.on_message(head, 0)
        for r in relays:
            backup.on_message(r, 0)
        # n=4 self-inclusive: content completion already commits-votes
        assert len(engine.of_kind(MsgKind.COMMIT)) == 1
        for sender in (2, 3):
            vote = Message(kind=MsgKind.COMMIT, sender=sender, recipient=None,
                           view=0, seq=1, digest=head.digest,
                           block_ref=head.block_ref)
            backup.on_message(vote, 5)
            if sender == 2:
                assert backup.ledger == []
        assert backup.ledger == [1]
        assert len(backup.ledger) == 1
        assert backup.entries[1].appended_us == 5
        assert sum(len(backup.entries[h].tx_ids)
                   for h in backup.ledger) == 2

    def test_no_commit_without_own_commit_vote(self):
        # commits from everyone else do not finalize while content is
        # missing (sent_commit stays false)
        _, head, relays = primary_announcement(n=4, block=2)
        backup, _ = make_replica(node=1, n=4, block=2)
        backup.on_message(head, 0)
        for sender in (2, 3):
            vote = Message(kind=MsgKind.COMMIT, sender=sender, recipient=None,
                           view=0, seq=1, digest=head.digest,
                           block_ref=head.block_ref)
            backup.on_message(vote, 1)
        entry = backup.entries[1]
        assert not entry.committed and not entry.sent_commit
        # content arrives: prepare + commit fire, quorum completes
        for r in relays:
            backup.on_message(r, 2)
        assert entry.committed

    def test_commit_vote_implies_prepare_vote(self):
        # peers that skipped straight to commit still satisfy the
        # prepare quorum of a node that saw no prepares at all
        _, head, relays = primary_announcement(n=7, block=2)
        backup, engine = make_replica(node=1, n=7, block=2)
        backup.on_message(head, 0)
        for r in relays:
            backup.on_message(r, 0)
        for sender in (2, 3, 4, 5):
            vote = Message(kind=MsgKind.COMMIT, sender=sender, recipient=None,
                           view=0, seq=1, digest=head.digest,
                           block_ref=head.block_ref)
            backup.on_message(vote, 1)
        assert backup.entries[1].committed
        assert backup.ledger == [1]

    def test_duplicate_votes_counted_once(self):
        _, head, relays = primary_announcement(n=7, block=2)
        backup, _ = make_replica(node=1, n=7, block=2)
        backup.on_message(head, 0)
        vote = Message(kind=MsgKind.PREPARE, sender=2, recipient=None,
                       view=0, seq=1, digest=head.digest,
                       block_ref=head.block_ref)
        backup.on_message(vote, 1)
        backup.on_message(vote, 2)
        assert voters(backup.entries[1].prepares) == {0, 2}
        assert backup.duplicates == 1

    def test_ledger_waits_for_gap(self):
        backup, engine = make_replica(node=1, n=4, block=2)
        primary, e2 = make_replica(node=0, n=4, block=2)
        feed_block(primary, [tx(0, c) for c in range(4)])  # seqs 1 and 2
        heads = e2.of_kind(MsgKind.PRE_PREPARE)
        relays = e2.of_kind(MsgKind.CLIENT_REQUEST)
        # deliver seq 2 fully, commit it
        for m in [heads[1]] + [r for r in relays if r.seq == 2]:
            backup.on_message(m, 10)
        for sender in (2, 3):
            backup.on_message(Message(kind=MsgKind.COMMIT, sender=sender,
                                      recipient=None, view=0, seq=2,
                                      digest=heads[1].digest,
                                      block_ref=heads[1].block_ref), 20)
        assert backup.entries[2].committed
        assert backup.ledger == []  # height 1 still open
        # now seq 1 commits and both append in order
        for m in [heads[0]] + [r for r in relays if r.seq == 1]:
            backup.on_message(m, 130_000_000)
        for sender in (2, 3):
            backup.on_message(Message(kind=MsgKind.COMMIT, sender=sender,
                                      recipient=None, view=0, seq=1,
                                      digest=heads[0].digest,
                                      block_ref=heads[0].block_ref),
                              130_000_000)
        assert backup.ledger == [1, 2]
        # both stamped when the gap closed, not when seq 2 committed
        assert [backup.entries[h].appended_us for h in (1, 2)] == [
            130_000_000, 130_000_000]
        assert sum(len(backup.entries[h].tx_ids)
                   for h in backup.ledger) == 4

    def test_wrong_sender_announcement_rejected(self):
        backup, engine = make_replica(node=1, n=4, block=2)
        head = Message(kind=MsgKind.PRE_PREPARE, sender=2, recipient=None,
                       view=0, seq=1, digest=bytes(32))
        backup.on_message(head, 0)
        assert engine.sent == []
        assert 1 not in backup.entries

    def test_stale_view_vote_dropped(self):
        backup, _ = make_replica(node=1, n=4, block=2)
        backup._adopt_view(2, 0)
        vote = Message(kind=MsgKind.PREPARE, sender=2, recipient=None,
                       view=0, seq=1, digest=bytes(32))
        backup.on_message(vote, 1)
        assert 1 not in backup.entries


# ------------------------------------------------------------- retries

class TestRetry:
    def test_timer_rearms_on_exact_grid(self):
        backup, engine = make_replica(node=1)
        assert engine.timers == [(1, TimerKind.RETRY, 10_000_000)]
        backup.on_timer(TimerKind.RETRY, 10_000_000)
        assert engine.timers[-1] == (1, TimerKind.RETRY, 20_000_000)

    def test_no_request_without_stalled_entries(self):
        backup, engine = make_replica(node=1)
        backup.on_timer(TimerKind.RETRY, 10_000_000)
        assert engine.of_kind(MsgKind.RETRY_REQUEST) == []

    def test_request_names_oldest_stalled_entry(self):
        _, head, relays = primary_announcement(n=4, block=2)
        backup, engine = make_replica(node=1, n=4, block=2)
        backup.on_message(head, 0)
        backup.on_message(relays[0], 1)
        backup.on_timer(TimerKind.RETRY, 10_000_000)
        reqs = engine.of_kind(MsgKind.RETRY_REQUEST)
        assert len(reqs) == 1
        assert reqs[0].seq == 1
        assert reqs[0].digest == head.digest
        assert reqs[0].client_request == 0b01  # holds position 0

    def test_young_entries_not_retried(self):
        _, head, _ = primary_announcement(n=4, block=2)
        backup, engine = make_replica(node=1, n=4, block=2)
        backup.on_message(head, 5_000_000)
        backup.on_timer(TimerKind.RETRY, 10_000_000)
        assert engine.of_kind(MsgKind.RETRY_REQUEST) == []
        backup.on_timer(TimerKind.RETRY, 20_000_000)
        assert len(engine.of_kind(MsgKind.RETRY_REQUEST)) == 1

    def test_one_request_per_fire(self):
        primary, e2 = make_replica(node=0, n=4, block=2)
        feed_block(primary, [tx(0, c) for c in range(4)])
        heads = e2.of_kind(MsgKind.PRE_PREPARE)
        backup, engine = make_replica(node=1, n=4, block=2)
        backup.on_message(heads[0], 0)
        backup.on_message(heads[1], 1)
        backup.on_timer(TimerKind.RETRY, 10_000_000)
        reqs = engine.of_kind(MsgKind.RETRY_REQUEST)
        assert [m.seq for m in reqs] == [1]

    def test_responder_restates_announcement_and_vote(self):
        primary, engine = make_replica(node=0, n=4, block=2)
        feed_block(primary, [tx(0, 0), tx(0, 1)])
        engine.clear()
        req = Message(kind=MsgKind.RETRY_REQUEST, sender=3, recipient=None,
                      view=0, seq=1, digest=primary.entries[1].digest,
                      client_request=0b01)
        primary.on_message(req, 20_000_000)
        kinds = [m.kind for _, _, m in engine.sent]
        assert MsgKind.PRE_PREPARE in kinds  # announcement restated
        # primary prepared but has not committed: strongest is prepare
        assert MsgKind.PREPARE in kinds
        relays = engine.of_kind(MsgKind.CLIENT_REQUEST)
        assert [m.timestamp for m in relays] == [1]  # only the missing one

    def test_responder_sends_commit_when_committed(self):
        _, head, relays = primary_announcement(n=4, block=2)
        backup, engine = make_replica(node=1, n=4, block=2)
        backup.on_message(head, 0)
        for r in relays:
            backup.on_message(r, 0)
        for sender in (2, 3):
            backup.on_message(Message(kind=MsgKind.COMMIT, sender=sender,
                                      recipient=None, view=0, seq=1,
                                      digest=head.digest,
                                      block_ref=head.block_ref), 1)
        engine.clear()
        req = Message(kind=MsgKind.RETRY_REQUEST, sender=3, recipient=None,
                      view=0, seq=1, digest=bytes(32))  # wildcard digest
        backup.on_message(req, 2)
        commits = engine.of_kind(MsgKind.COMMIT)
        assert len(commits) == 1 and commits[0].digest == head.digest
        # full content resent against the empty bitmap
        assert len(engine.of_kind(MsgKind.CLIENT_REQUEST)) == 2

    def test_responder_ignores_conflicting_digest(self):
        primary, engine = make_replica(node=0, n=4, block=2)
        feed_block(primary, [tx(0, 0), tx(0, 1)])
        engine.clear()
        req = Message(kind=MsgKind.RETRY_REQUEST, sender=3, recipient=None,
                      view=0, seq=1, digest=b"\x01" * 32)
        primary.on_message(req, 1)
        assert engine.sent == []

    def test_requests_counted(self):
        _, head, _ = primary_announcement(n=4, block=2)
        backup, _ = make_replica(node=1, n=4, block=2)
        backup.on_message(head, 0)
        backup.on_timer(TimerKind.RETRY, 10_000_000)
        backup.on_timer(TimerKind.RETRY, 20_000_000)
        assert backup.retries == 2


# --------------------------------------------------------- view change

def vc_vote(sender, target, seq=0, digest=bytes(32), ref=0):
    return Message(kind=MsgKind.VIEW_CHANGE, sender=sender, recipient=None,
                   view=target, seq=seq, digest=digest, block_ref=ref)


class TestViewChange:
    def test_timeout_votes_for_next_view(self):
        backup, engine = make_replica(node=2, n=4)
        backup.on_transaction(tx(2, 0), 0)
        deadline = [at for node, k, at in engine.timers
                    if k == TimerKind.VIEW_CHANGE][0]
        assert deadline == 30_000_000
        backup.on_timer(TimerKind.VIEW_CHANGE, deadline)
        votes = engine.of_kind(MsgKind.VIEW_CHANGE)
        assert len(votes) == 1 and votes[0].view == 1
        assert backup.vc_target == 1

    def test_progress_cancels_timeout(self):
        _, head, relays = primary_announcement(n=4, block=2)
        backup, engine = make_replica(node=1, n=4, block=2)
        backup.on_message(head, 0)
        for r in relays:
            backup.on_message(r, 1_000_000)
        for sender in (2, 3):
            backup.on_message(Message(kind=MsgKind.COMMIT, sender=sender,
                                      recipient=None, view=0, seq=1,
                                      digest=head.digest,
                                      block_ref=head.block_ref), 2_000_000)
        backup.on_timer(TimerKind.VIEW_CHANGE, 30_000_000)
        assert engine.of_kind(MsgKind.VIEW_CHANGE) == []

    def test_prepared_entries_reported(self):
        _, head, relays = primary_announcement(n=4, block=2)
        backup, engine = make_replica(node=1, n=4, block=2)
        backup.on_message(head, 0)
        for r in relays:
            backup.on_message(r, 0)  # prepared at n=4
        backup.on_timer(TimerKind.VIEW_CHANGE, 30_000_000)
        votes = engine.of_kind(MsgKind.VIEW_CHANGE)
        assert len(votes) == 2  # baseline + one prepared entry
        assert {v.seq for v in votes} == {0, 1}
        report = [v for v in votes if v.seq == 1][0]
        assert report.digest == head.digest

    def test_join_after_f_plus_one(self):
        backup, engine = make_replica(node=2, n=4)
        backup.on_message(vc_vote(0, 1), 0)
        assert engine.of_kind(MsgKind.VIEW_CHANGE) == []
        backup.on_message(vc_vote(3, 1), 1)  # f+1 = 2 voters
        votes = engine.of_kind(MsgKind.VIEW_CHANGE)
        assert len(votes) == 1 and votes[0].view == 1

    def test_new_primary_leads_at_quorum(self):
        leader, engine = make_replica(node=1, n=4)
        leader.on_message(vc_vote(2, 1), 0)
        leader.on_message(vc_vote(3, 1), 1)  # joins: 3 voters with self
        assert leader.view == 1
        assert len(engine.of_kind(MsgKind.NEW_VIEW)) == 1

    def test_leader_reannounces_reported_entries(self):
        digest = block_digest(1, [(0, 0), (0, 1)])
        leader, engine = make_replica(node=1, n=4, block=2)
        leader.on_message(vc_vote(2, 1, seq=1, digest=digest), 0)
        leader.on_message(vc_vote(3, 1, seq=1, digest=digest), 1)
        heads = engine.of_kind(MsgKind.PRE_PREPARE)
        assert len(heads) == 1
        assert heads[0].view == 1 and heads[0].digest == digest
        assert leader.vc.frozen_seqs == {1}
        # The age heap holds one entry per open slot.
        assert leader._open_by_age == [leader.entries[1]]
        assert leader.open_seqs == {1}

    def test_assembly_frozen_until_carryover_commits(self):
        digest = block_digest(1, [(0, 0), (0, 1)])
        leader, engine = make_replica(node=1, n=4, block=2)
        leader.on_message(vc_vote(2, 1, seq=1, digest=digest), 0)
        leader.on_message(vc_vote(3, 1, seq=1, digest=digest), 1)
        feed_block(leader, [tx(1, 10), tx(1, 11)])
        assert len(engine.of_kind(MsgKind.PRE_PREPARE)) == 1  # no new block
        # carried entry commits (content arrives, then commit votes)
        for pos, t in enumerate([tx(0, 0), tx(0, 1)]):
            leader.on_message(Message(kind=MsgKind.CLIENT_REQUEST, sender=2,
                                      recipient=1, view=1, seq=1, tx=t,
                                      timestamp=pos), 2)
        for sender in (2, 3):
            leader.on_message(Message(kind=MsgKind.COMMIT, sender=sender,
                                      recipient=None, view=1, seq=1,
                                      digest=digest), 3)
        assert leader.entries[1].committed
        assert not leader.vc.frozen_seqs
        heads = engine.of_kind(MsgKind.PRE_PREPARE)
        assert len(heads) == 2 and heads[-1].seq == 2

    def test_leader_refills_abandoned_slot(self):
        # seq 2 was committed somewhere, seq 1 was lost with the old
        # view: the new leader must propose a fresh block at height 1
        digest2 = block_digest(2, [(0, 2), (0, 3)])
        leader, engine = make_replica(node=1, n=4, block=2)
        entry = Entry(seq=2, view=0, digest=digest2, block_ref=0,
                      created_us=0, tx_ids=((0, 2), (0, 3)),
                      committed=True)
        leader.entries[2] = entry
        leader.committed_ids[0] |= 1 << 2 | 1 << 3
        leader.on_message(vc_vote(2, 1), 0)
        leader.on_message(vc_vote(3, 1), 1)
        assert leader.vc.hole_seqs == {1}
        assert leader.next_seq == 3
        feed_block(leader, [tx(1, 10), tx(1, 11)])
        heads = engine.of_kind(MsgKind.PRE_PREPARE)
        assert len(heads) == 1 and heads[0].seq == 1

    def test_backup_adopts_on_new_view_and_reforwards(self):
        backup, engine = make_replica(node=3, n=4)
        backup.on_transaction(tx(3, 0), 0)
        engine.clear()
        nv = Message(kind=MsgKind.NEW_VIEW, sender=1, recipient=None,
                     view=1, seq=0, digest=bytes(32))
        backup.on_message(nv, 1)
        assert backup.view == 1
        fwd = engine.of_kind(MsgKind.TX_BROADCAST)
        assert len(fwd) == 1
        assert engine.sent[-1][1] == 1  # sent to the new primary

    @pytest.mark.xfail(strict=True, reason=(
        "an early view adoption never re-forwards pending transactions: a "
        "view-bound message adopts the view, so the NEW_VIEW that re-sends "
        "the mempool is then dropped as stale (FOUND line, ROADMAP item 2)"))
    def test_early_adoption_reforwards_pending_transactions(self):
        backup, engine = make_replica(node=2, n=4)
        backup.on_transaction(tx(2, 0), 0)
        engine.clear()
        prepare = Message(kind=MsgKind.PREPARE, sender=3, recipient=None,
                          view=1, seq=1, digest=block_digest(1, [(0, 0)]))
        backup.on_message(prepare, 1)
        assert backup.view == 1 and (2, 0) in backup.mempool
        nv = Message(kind=MsgKind.NEW_VIEW, sender=1, recipient=None,
                     view=1, seq=0, digest=bytes(32))
        backup.on_message(nv, 2)
        fwd = [(dst, m.tx.tx_id) for _, dst, m in engine.sent
               if m.kind == MsgKind.TX_BROADCAST]
        assert fwd == [(1, (2, 0))]  # to the new primary

    @pytest.mark.xfail(strict=True, reason=(
        "the view-change deadline reads a creation time through the float "
        "created_at and can come out 1 us early (FOUND line, ROADMAP "
        "item 2)"))
    def test_deadline_keeps_the_creation_microsecond(self):
        backup, _ = make_replica(node=2, n=4)
        created_us = 1_000_001
        backup.on_transaction(tx(2, 0, at=created_us / 1_000_000), created_us)
        assert backup.vc.deadline(backup) == created_us + 30_000_000

    @pytest.mark.xfail(strict=True, reason=(
        "frozen slots outlive the view that froze them: a leader deposed "
        "before its carried slot commits keeps it in frozen_seqs and "
        "proposes nothing on its next turn as primary (FOUND line, "
        "ROADMAP item 2)"))
    def test_deposed_leader_proposes_on_its_next_turn(self):
        digest = block_digest(1, [(0, 0), (0, 1)])
        leader, engine = make_replica(node=1, n=4, block=2)
        leader.on_message(vc_vote(2, 1, seq=1, digest=digest), 0)
        leader.on_message(vc_vote(3, 1, seq=1, digest=digest), 1)
        assert leader.view == 1 and leader.vc.frozen_seqs == {1}
        nv = Message(kind=MsgKind.NEW_VIEW, sender=2, recipient=None,
                     view=2, seq=0, digest=bytes(32))
        leader.on_message(nv, 2)  # deposed before slot 1 commits
        assert leader.view == 2 and not leader.entries[1].committed
        leader.on_message(vc_vote(2, 5), 3)
        leader.on_message(vc_vote(3, 5), 4)
        assert leader.view == 5 and leader.is_primary
        feed_block(leader, [tx(1, 10), tx(1, 11)], now_us=5)
        heads = [m for m in engine.of_kind(MsgKind.PRE_PREPARE)
                 if m.view == 5]
        assert heads  # a new block in view 5

    @pytest.mark.xfail(strict=True, reason=(
        "a slot closed by a view change before its announcement arrived "
        "never votes again: _get_or_create binds the digest of a "
        "current-view PRE_PREPARE to a relay-only slot without reopening "
        "it (FOUND line, ROADMAP item 2)"))
    def test_closed_relay_slot_prepares_on_new_announcement(self):
        _, head, relays = primary_announcement(n=4, block=2)
        backup, engine = make_replica(node=2, n=4, block=2)
        for r in relays:
            backup.on_message(r, 0)  # the view-0 announcement is lost
        nv = Message(kind=MsgKind.NEW_VIEW, sender=1, recipient=None,
                     view=1, seq=0, digest=bytes(32))
        backup.on_message(nv, 1)
        assert backup.view == 1 and 1 not in backup.open_seqs
        engine.clear()
        reannounce = Message(kind=MsgKind.PRE_PREPARE, sender=1,
                             recipient=None, view=1, seq=1,
                             digest=head.digest, block_ref=head.block_ref)
        backup.on_message(reannounce, 2)
        assert backup.entries[1].tx_ids is not None  # the content verifies
        prepares = engine.of_kind(MsgKind.PREPARE)
        assert [(m.view, m.seq) for m in prepares] == [(1, 1)]

    def test_new_view_from_wrong_sender_ignored(self):
        backup, _ = make_replica(node=3, n=4)
        nv = Message(kind=MsgKind.NEW_VIEW, sender=2, recipient=None,
                     view=1, seq=0, digest=bytes(32))
        backup.on_message(nv, 1)
        assert backup.view == 0

    def test_outstanding_vote_suspends_current_view(self):
        _, head, _ = primary_announcement(n=4, block=2)
        backup, engine = make_replica(node=2, n=4, block=2)
        backup.on_transaction(tx(2, 0), 0)
        backup.on_timer(TimerKind.VIEW_CHANGE, 30_000_000)
        assert backup.vc_target == 1
        backup.on_message(head, 30_000_001)
        assert 1 not in backup.entries  # old-view work suspended

    def test_higher_view_message_unblocks(self):
        backup, engine = make_replica(node=2, n=4, block=2)
        backup.on_transaction(tx(2, 0), 0)
        backup.on_timer(TimerKind.VIEW_CHANGE, 30_000_000)
        head = Message(kind=MsgKind.PRE_PREPARE, sender=1, recipient=None,
                       view=1, seq=1, digest=block_digest(1, [(0, 0)]))
        backup.on_message(head, 30_000_002)
        assert backup.view == 1
        assert backup.vc_target is None
        assert backup.entries[1].pre_prepared

    def test_abandoned_own_transactions_return_to_mempool(self):
        primary, engine = make_replica(node=0, n=4, block=2)
        feed_block(primary, [tx(0, 0), tx(0, 1)])
        assert primary.mempool == {}
        primary._adopt_view(1, 1_000_000)  # demoted before commit
        assert set(primary.mempool) == {(0, 0), (0, 1)}
        assert 1 not in primary.open_seqs  # the slot no longer votes

    def test_adoption_keeps_slots_of_the_adopted_view(self):
        backup, _ = make_replica(node=2, n=4, block=2)
        relay = Message(kind=MsgKind.CLIENT_REQUEST, sender=1, recipient=2,
                        view=1, seq=1, tx=tx(2, 0), timestamp=0)
        backup.on_message(relay, 0)  # a view-1 relay opens seq 1
        assert backup.view == 0 and 1 in backup.open_seqs
        nv = Message(kind=MsgKind.NEW_VIEW, sender=1, recipient=None,
                     view=1, seq=0, digest=bytes(32))
        backup.on_message(nv, 1)
        assert backup.view == 1
        # The slot already belongs to view 1: it stays open, and our own
        # transaction in it does not go back to the mempool.
        assert 1 in backup.open_seqs and backup.mempool == {}

    def test_adoption_recorded(self):
        backup, _ = make_replica(node=3, n=4)
        nv = Message(kind=MsgKind.NEW_VIEW, sender=1, recipient=None,
                     view=1, seq=0, digest=bytes(32))
        backup.on_message(nv, 1)
        assert backup.view_adoptions == 1
        assert backup.view == 1


# -------------------------------------------------------- equivocation

class TestEquivocation:
    def test_conflicting_digests_to_peer_halves(self):
        injector, engine = make_replica(node=0, n=5, block=2,
                                        cls=EquivocatingReplica)
        feed_block(injector, [tx(0, 0), tx(0, 1)])
        heads = engine.of_kind(MsgKind.PRE_PREPARE)
        assert len(heads) == 4  # one per peer, directed
        by_dst = {dst: m for _, dst, m in engine.sent
                  if m.kind == MsgKind.PRE_PREPARE}
        digests = {m.digest for m in by_dst.values()}
        assert len(digests) == 2
        assert by_dst[1].digest == by_dst[2].digest
        assert by_dst[3].digest == by_dst[4].digest

    def test_each_half_receives_matching_content(self):
        injector, engine = make_replica(node=0, n=5, block=2,
                                        cls=EquivocatingReplica)
        feed_block(injector, [tx(0, 0), tx(0, 1)])
        for dst in (1, 3):
            head = [m for _, d, m in engine.sent
                    if d == dst and m.kind == MsgKind.PRE_PREPARE][0]
            relays = [m for _, d, m in engine.sent
                      if d == dst and m.kind == MsgKind.CLIENT_REQUEST]
            ids = [r.tx.tx_id for r in sorted(relays,
                                              key=lambda m: m.timestamp)]
            assert block_digest(1, ids) == head.digest

    def test_single_transaction_blocks_fall_back_to_honest(self):
        injector, engine = make_replica(node=0, n=5, block=1,
                                        cls=EquivocatingReplica)
        feed_block(injector, [tx(0, 0)])
        heads = engine.of_kind(MsgKind.PRE_PREPARE)
        digests = {m.digest for m in heads}
        assert len(digests) == 1


# ------------------------------------------------- vote path, differential

_VIEW_BOUND = {MsgKind.PRE_PREPARE, MsgKind.PREPARE, MsgKind.COMMIT,
               MsgKind.RETRY_REQUEST}


class EveryVoteAdvances:
    """``on_message`` with no vote fast path: every PREPARE and COMMIT
    goes through ``_get_or_create`` and then ``_advance``."""

    def on_message(self, msg, now_us):
        if msg.view > self.view and msg.kind in _VIEW_BOUND:
            self._adopt_view(msg.view, now_us)
        if (self.vc_target is not None and msg.kind in _VIEW_BOUND
                and msg.view <= self.view):
            return
        if msg.kind not in (MsgKind.PREPARE, MsgKind.COMMIT):
            Replica.on_message(self, msg, now_us)
            return
        if msg.view < self.view:
            return
        entry = self.entries.get(msg.seq)
        if entry is not None and entry.committed:
            return
        entry = self._get_or_create(msg, now_us)
        if entry is None or msg.view < entry.view:
            return
        bit = 1 << msg.sender
        if msg.kind == MsgKind.COMMIT:
            if entry.commits & bit:
                self.duplicates += 1
                return
            entry.commits |= bit
        elif entry.prepares & bit:
            self.duplicates += 1
            return
        entry.prepares |= bit
        self._advance(entry, now_us)


class AdvancingReplica(EveryVoteAdvances, Replica):
    pass


class AdvancingEquivocator(EveryVoteAdvances, EquivocatingReplica):
    pass


# Small cells that reach every way a vote moves a slot: quorums at
# n = 4 and 10, view changes that rebind slots, conflicting digests,
# and drops, retries and view changes under 1200-byte buffers.
VOTE_CELLS = {
    "n4": ScenarioConfig(nodes=4, block_size=2, generation_period_s=1.0,
                         device_profile="mcu32", duration_s=120, seed=2),
    "n10": ScenarioConfig(nodes=10, block_size=4, generation_period_s=2.0,
                          device_profile="mcu32", latency_dist="uniform",
                          latency_mean_s=0.01, duration_s=60, seed=3),
    "primary-crash": ScenarioConfig(
        nodes=7, block_size=5, generation_period_s=1.0,
        device_profile="mcu32", latency_dist="exponential",
        latency_mean_s=0.02, duration_s=240, crashes=((0, 40.0),), seed=1),
    "equivocator": ScenarioConfig(
        nodes=7, block_size=3, generation_period_s=2.0,
        device_profile="mcu32", latency_dist="normal", latency_mean_s=0.05,
        duration_s=120, equivocators=(0,), seed=9),
    "buffer-1200": ScenarioConfig(
        nodes=7, block_size=3, generation_period_s=0.3,
        device_profile="implant", buffer_capacity_bytes=1200,
        duration_s=120, seed=4),
}


@pytest.mark.parametrize("name", sorted(VOTE_CELLS))
def test_vote_fast_path_matches_advancing_every_vote(name, monkeypatch):
    from pbftsim import scenario
    from pbftsim.metrics import render_report

    config = VOTE_CELLS[name]
    fast = scenario.run_scenario(config, trace=True)
    monkeypatch.setattr(scenario, "Replica", AdvancingReplica)
    monkeypatch.setattr(scenario, "EquivocatingReplica", AdvancingEquivocator)
    slow = scenario.run_scenario(config, trace=True)
    assert all(isinstance(r, EveryVoteAdvances) for r in slow.replicas)
    assert fast.trace_hash == slow.trace_hash
    assert render_report(fast.report) == render_report(slow.report)


@pytest.mark.parametrize("name", sorted(VOTE_CELLS))
def test_votes_are_masks_and_commits_freeze_a_certificate(name):
    from pbftsim import scenario

    config = VOTE_CELLS[name]
    result = scenario.run_scenario(config)
    n = config.nodes
    for replica in result.replicas:
        for height in replica.ledger:
            cert = replica.entries[height].commits
            assert type(cert) is tuple
            assert list(cert) == sorted(set(cert))
            assert all(0 <= i < n for i in cert)
            assert len(cert) >= commit_quorum(n)
        for entry in replica.entries.values():
            if entry.committed:
                assert entry.prepares == 0
            else:
                assert type(entry.prepares) is int
                assert type(entry.commits) is int
                assert not gc.is_tracked(entry.prepares)
                assert not gc.is_tracked(entry.commits)


@pytest.mark.parametrize("name", sorted(VOTE_CELLS))
def test_committed_masks_and_frozen_content(name):
    from pbftsim import scenario

    config = VOTE_CELLS[name]
    result = scenario.run_scenario(config)
    for replica in result.replicas:
        # Bit c of committed_ids[origin] is set exactly for the txs of
        # committed slots, the ledger's and those above a gap in it,
        # and for no uncommitted tx.
        masks = [0] * config.nodes
        for entry in replica.entries.values():
            if entry.committed:
                for origin, counter in entry.tx_ids:
                    masks[origin] |= 1 << counter
        assert all(replica.entries[height].committed
                   for height in replica.ledger)
        assert replica.committed_ids == masks
        for entry in replica.entries.values():
            if entry.tx_ids is not None:
                assert type(entry.content) is tuple
                assert type(entry.tx_ids) is tuple
                assert tuple(tx.tx_id for tx in entry.content) == entry.tx_ids
            else:
                # Relays so far by position, and no empty dict.
                assert entry.content == () or (
                    type(entry.content) is dict and entry.content)


# ---------------------------------------------- retry index, differential

class ScanForOldest:
    """The oldest live slot found by scanning ``open_seqs``, with no
    age index."""

    def _oldest_open(self):
        return min(map(self.entries.__getitem__, self.open_seqs),
                   key=attrgetter("created_us", "seq"), default=None)


class ScanningReplica(ScanForOldest, Replica):
    pass


class ScanningEquivocator(ScanForOldest, EquivocatingReplica):
    pass


# The vote cells with crashes, an equivocator and tiny buffers, and a
# cell whose new primaries refill hole seqs with new entries, so the
# index holds pairs of replaced slots.
RETRY_CELLS = {
    **{name: VOTE_CELLS[name]
       for name in ("primary-crash", "equivocator", "buffer-1200")},
    "hole-refill": ScenarioConfig(
        nodes=10, block_size=3, generation_period_s=0.5,
        device_profile="mcu8", buffer_capacity_bytes=4000, duration_s=120,
        retry_period_s=1.0, view_change_timeout_s=10.0,
        crashes=((0, 30.0), (1, 70.0)), seed=22),
}


@pytest.mark.parametrize("name", sorted(RETRY_CELLS))
def test_retry_index_matches_scanning_open_slots(name, monkeypatch):
    from pbftsim import scenario
    from pbftsim.metrics import render_report

    config = RETRY_CELLS[name]
    indexed = scenario.run_scenario(config, trace=True)
    monkeypatch.setattr(scenario, "Replica", ScanningReplica)
    monkeypatch.setattr(scenario, "EquivocatingReplica", ScanningEquivocator)
    scanned = scenario.run_scenario(config, trace=True)
    assert all(isinstance(r, ScanForOldest) for r in scanned.replicas)
    assert indexed.trace_hash == scanned.trace_hash
    assert render_report(indexed.report) == render_report(scanned.report)
