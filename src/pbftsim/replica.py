"""Crash-fault-tolerant replica running three-phase block consensus.

Each replica keeps a mempool of pending transactions, a log of block
entries keyed by sequence number, and a view number that designates
the current primary (view modulo n).  The primary assembles blocks of
a fixed transaction count, announces them with a block announcement
carrying only the digest, and ships the content as one relay message
per transaction (its position travels in the timestamp field).
Backups vote in the prepare round only once they hold the complete,
digest-verified content, which guarantees that any prepared entry can
be refetched from at least one live node.  Verified content is
``Entry.tx_ids`` being set: the slot's ``content`` is then frozen into
the tuple of the block's transactions in position order, and
``tx_ids`` into the tuple of their ids.  Until then ``content`` maps
the positions relayed so far to their transactions (the empty tuple
before the first relay).

Each slot moves along one chain: pre-prepared with verified content,
prepared, committed.  ``Replica._advance`` is the one place a slot
moves through these rounds; every handler that changes a slot's
content ends by calling it.  A PREPARE or COMMIT vote, most of the
traffic, is counted in ``on_message`` itself, and calls ``_advance``
only when it could act: our PREPARE is unsent on a pre-prepared slot,
or the slot has the prepare quorum and has not sent our COMMIT, or has
sent it and has the commit quorum.  Only live slots (``open_seqs``) of
the current view vote.  A committed block joins the ledger in height
order, stamped with the time it joined (``Entry.appended_us``); the
replica records when, and ``metrics`` bins the stamps into minutes.

A slot's votes are int bitmasks while it votes: bit i of
``Entry.prepares`` or ``Entry.commits`` is set once node i has voted,
and ``int.bit_count`` counts a quorum.  On commit, ``commits`` freezes
into the block's certificate, the ascending tuple of its commit voters,
and ``prepares`` drops to 0.  So the vote state of a run holds no set,
and no container the garbage collector has to track while it votes.

The transactions a replica has committed are int bitmasks too: bit c
of ``Replica.committed_ids[origin]`` is set once tx ``(origin, c)``
commits, one mask per node, since only nodes originate transactions.

A replica reads n, the block size and its two timer periods from the
run's (validated) ``ScenarioConfig`` once, at construction.

Vote counting is self-inclusive: a node's own announcement or vote
counts towards its quorum (2f for prepare, 2f + 1 for commit, with
f = (n - 1) // 3), so a network of 4 survives one crashed peer.

Two recovery mechanisms cover losses:

  * a periodic retry timer re-requests the oldest stalled entry; the
    request advertises which content positions the requester already
    holds (bitmap in the client_request field, capped at 64), and
    responders answer with their strongest vote plus the missing
    relays;
  * a view-change timer fires when pending work has made no progress
    for a timeout (doubling on every consecutive attempt); a node
    votes for the next view with one message per prepared entry plus
    a baseline vote, joins a view change once f + 1 peers vote for
    it, and the designated new primary announces the new view after
    2f + 1 votes and re-announces every prepared entry it learned
    about.  Block assembly stays frozen until those re-announced
    entries commit, which keeps a transaction from ever being
    committed under two different blocks.

The view change is its own unit, as in PBFT (Castro & Liskov, OSDI
'99, section 4.4): a replica's ``ViewChange`` (``self.vc``) holds the
timer (``arm``, ``on_timer``, ``deadline``), the votes (``vote``, and
``record``, which may join or lead the change), the new primary's
``lead`` and the ``restart`` on adoption.  It holds no reference to
its replica; each step that acts on one takes it as an argument.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import islice
from typing import TYPE_CHECKING

from .netsim import US_PER_S, Engine, TimerKind, to_us
from .wire import (
    Message,
    MsgKind,
    Transaction,
    block_digest,
    block_ref_from_digest,
    commit_quorum,
    fault_tolerance,
    prepare_quorum,
)

if TYPE_CHECKING:
    from .scenario import ScenarioConfig

__all__ = ["Entry", "Replica", "EquivocatingReplica"]

_ZERO_DIGEST = bytes(32)

# Kinds that are votes bound to a view; they are suspended while a
# node has an outstanding view-change vote.
_VIEW_BOUND = frozenset({MsgKind.PRE_PREPARE, MsgKind.PREPARE,
                         MsgKind.COMMIT, MsgKind.RETRY_REQUEST})
_VOTES = frozenset({MsgKind.PREPARE, MsgKind.COMMIT})
# Enum member lookups are slow; ``on_message`` compares with these.
_RELAY = MsgKind.CLIENT_REQUEST
_TX = MsgKind.TX_BROADCAST
_VIEW_CHANGE = MsgKind.VIEW_CHANGE
_PRE_PREPARE = MsgKind.PRE_PREPARE
_COMMIT = MsgKind.COMMIT

# Sequence window: how many announced-but-uncommitted slots the
# primary may have open.  Wide enough that only runaway overload ever
# reaches it.
MAX_INFLIGHT = 256


@dataclass(slots=True)
class Entry:
    """One block slot in the log and its per-view vote state.

    ``prepares`` and ``commits`` are bitmasks of voters (bit i for node
    i) while the slot votes.  Once it commits, ``commits`` is the
    ascending tuple of commit voters, its certificate, and ``prepares``
    is 0.  ``tx_ids`` is set exactly while the slot holds content
    verified against its digest: it is then the tuple of the block's tx
    ids, and ``content`` the tuple of its transactions in position
    order.  Before that ``content`` maps each relayed position to its
    transaction, or is the empty tuple while no relay is held."""

    seq: int
    view: int
    digest: bytes | None
    block_ref: int
    created_us: int
    content: dict[int, Transaction] | tuple = ()
    tx_ids: tuple | None = None
    pre_prepared: bool = False
    prepares: int = 0
    commits: int | tuple = 0
    sent_commit: bool = False
    committed: bool = False
    appended_us: int | None = None  # when the block joined the ledger

    def __lt__(self, other: Entry) -> bool:
        """Entries order by age: creation time, then seq."""
        return (self.created_us < other.created_us
                or (self.created_us == other.created_us
                    and self.seq < other.seq))

    def rebind(self, view: int, digest: bytes, block_ref: int) -> None:
        """Bind the slot to a block in a newer view: votes restart, and
        content fetched for a different block is dropped."""
        if digest != self.digest:
            self.digest = digest
            self.block_ref = block_ref
            self.content = ()
            self.tx_ids = None
            self.pre_prepared = False
        self.view = view
        self.prepares = 0
        self.commits = 0
        self.sent_commit = False


class Replica:
    # CPython shares a compact attribute layout among instances of at
    # most 29 attributes; a 30th slowed a 30-node implant run by 2.5%
    # (Python 3.11, 2-core x86-64 VM).  Keep the count under 30; it is
    # 20 today.
    def __init__(self, node: int, engine: Engine, config: ScenarioConfig):
        self.node = node
        # The engine owns its replicas, so a replica holds it weakly and
        # a finished run is freed by reference counting alone; keep the
        # engine (or the run's ``RunResult``) alive while using one.
        self._engine = weakref.ref(engine)
        self.n = n = config.nodes
        self.block_size = config.block_size
        self.retry_period_us = to_us(config.retry_period_s)
        # At least our own vote, also where f = 0.
        self.prepare_q = max(prepare_quorum(n), 1)
        self.commit_q = commit_quorum(n)

        self.view = 0
        self.next_seq = 1
        self.entries: dict[int, Entry] = {}
        self.open_seqs: set = set()  # live, uncommitted: the slots that vote
        # Heap of entries by age, each pushed whenever its seq joins
        # ``open_seqs``; one whose slot has since closed or been
        # replaced is dropped once it reaches the top or the heap is
        # rebuilt (``_oldest_open``).  Entries, not (created_us, seq)
        # pairs: a pair per live slot added 0.5 MiB to a 22-node run.
        self._open_by_age: list = []
        self.mempool: dict[tuple, Transaction] = {}
        # Bit c of committed_ids[origin] is set once (origin, c) commits.
        self.committed_ids: list[int] = [0] * n
        # Heights appended so far; grows strictly 1, 2, 3, ... as
        # commit certificates complete in order.
        self.ledger: list[int] = []
        self.vc_target: int | None = None
        self.vc = ViewChange(to_us(config.view_change_timeout_s))

        # Run counters, read by metrics.finalize.
        self.retries = 0
        self.duplicates = 0
        self.view_adoptions = 0

    def start(self) -> None:
        """Arm the periodic retry timer; call once after attaching."""
        self._engine().schedule_timer(self.node, TimerKind.RETRY,
                                      self.retry_period_us)

    # ------------------------------------------------------------ helpers

    def primary_of(self, view: int) -> int:
        return view % self.n

    @property
    def is_primary(self) -> bool:
        return self.primary_of(self.view) == self.node

    def _emit(self, msg: Message) -> None:
        if msg.recipient is None:
            self._engine().broadcast(self.node, msg)
        else:
            self._engine().send(self.node, msg.recipient, msg)

    def _send(self, kind: MsgKind, view: int, seq: int, digest: bytes,
              block_ref: int, now_us: int, dst: int | None = None,
              client_request: int = 0) -> None:
        """Build and emit one digest-carrying message, stamped in ms."""
        self._emit(Message(kind=kind, sender=self.node, recipient=dst,
                           view=view, seq=seq, digest=digest,
                           block_ref=block_ref, timestamp=now_us // 1000,
                           client_request=client_request))

    def _open(self, entry: Entry) -> Entry:
        """Make a slot live: filed under its seq, voting, and on the age
        heap.  Every slot that opens or reopens comes through here."""
        self.entries[entry.seq] = entry
        self.open_seqs.add(entry.seq)
        heappush(self._open_by_age, entry)
        return entry

    def _oldest_open(self) -> Entry | None:
        """The live slot created first, the lowest seq on a tie."""
        heap = self._open_by_age
        if len(heap) > len(self.open_seqs) + 32:
            # A slot that stays open keeps the entries of slots committed
            # after it from the top; rebuild from the live slots alone.
            heap[:] = [self.entries[seq] for seq in self.open_seqs]
            heapify(heap)
        while heap:
            entry = heap[0]
            seq = entry.seq
            # A seq refilled by a new primary holds a new entry; the
            # old one stays in the heap.
            if seq in self.open_seqs and self.entries[seq] is entry:
                return entry
            heappop(heap)
        return None

    # --------------------------------------------------------- callbacks

    def on_transaction(self, tx: Transaction, now_us: int) -> None:
        """A transaction generated locally at this node."""
        self._admit_tx(tx, now_us, forward=True)

    def on_timer(self, kind: TimerKind, now_us: int) -> None:
        if kind == TimerKind.RETRY:
            self._on_retry_timer(now_us)
        elif kind == TimerKind.VIEW_CHANGE:
            self.vc.on_timer(self, now_us)

    def on_message(self, msg: Message, now_us: int) -> None:
        kind = msg.kind
        if kind not in _VIEW_BOUND:
            # Relays first: they are most of the traffic that is not a vote.
            if kind == _RELAY:
                self._on_relay(msg, now_us)
            elif kind == _TX:
                self._on_tx(msg, now_us)
            elif kind == _VIEW_CHANGE:
                self._on_view_change(msg, now_us)
            else:  # NEW_VIEW
                self._on_new_view(msg, now_us)
            return
        view = msg.view
        if view > self.view:
            # A protocol message from a view ahead of ours is proof
            # that a quorum moved on; catch up before processing it.
            self._adopt_view(view, now_us)
        elif self.vc_target is not None:
            # While our view-change vote is outstanding we stop taking
            # part in rounds of the view we are abandoning.
            return
        if kind not in _VOTES:
            if kind == _PRE_PREPARE:
                self._on_pre_prepare(msg, now_us)
            else:  # RETRY_REQUEST
                self._on_retry_request(msg, now_us)
            return
        # A PREPARE or COMMIT vote, handled here: votes are most of the
        # traffic, and most of them cannot move their slot.
        if view < self.view:
            return
        entry = self.entries.get(msg.seq)
        if entry is not None and entry.committed:
            return  # its block committed; the vote changes nothing
        if entry is None or entry.view != view or entry.digest != msg.digest:
            # A new slot, one holding only relays (digest None, which no
            # vote carries), a rebind or a conflict.
            entry = self._get_or_create(msg, now_us)
            if entry is None or view < entry.view:
                return
        bit = 1 << msg.sender
        prepares = entry.prepares
        if kind == _COMMIT:
            commits = entry.commits
            if commits & bit:
                self.duplicates += 1
                return
            entry.commits = commits | bit
        elif prepares & bit:
            self.duplicates += 1
            return
        # A commit vote implies the sender prepared; count it there
        # too so a round of mostly already-committed peers can still
        # reach the prepare quorum.
        entry.prepares = prepares = prepares | bit
        # ``_advance`` acts only under one of these three conditions, so
        # a vote that meets none of them leaves the slot where it is.
        if ((entry.pre_prepared and not prepares >> self.node & 1)
                or (entry.commits.bit_count() >= self.commit_q
                    if entry.sent_commit
                    else prepares.bit_count() >= self.prepare_q)):
            self._advance(entry, now_us)

    # ------------------------------------------------------ transactions

    def _admit_tx(self, tx: Transaction, now_us: int, forward: bool) -> None:
        tid = tx.tx_id
        if (self.committed_ids[tx.origin] >> tx.counter & 1
                or tid in self.mempool):
            self.duplicates += 1
            return
        self.mempool[tid] = tx
        self.vc.arm(self, now_us)
        if self.is_primary:
            self._try_propose(now_us)
        elif forward:
            self._forward_tx(tx, self.primary_of(self.view), now_us)

    def _forward_tx(self, tx: Transaction, dst: int, now_us: int) -> None:
        self._emit(Message(kind=MsgKind.TX_BROADCAST, sender=self.node,
                           recipient=dst, view=self.view, seq=0, tx=tx,
                           timestamp=int(tx.created_at * 1000)))

    def _on_tx(self, msg: Message, now_us: int) -> None:
        # Forwarded transactions are held, not re-forwarded: if the
        # view moved, our own adoption handler re-sends the mempool.
        self._admit_tx(msg.tx, now_us, forward=False)

    # ---------------------------------------------------------- proposing

    def _try_propose(self, now_us: int) -> None:
        block = self.block_size
        vc = self.vc
        while (self.is_primary and not vc.frozen_seqs
               and len(self.open_seqs) < MAX_INFLIGHT
               and len(self.mempool) >= block):
            txs = tuple(islice(self.mempool.values(), block))
            for tx in txs:
                del self.mempool[tx.tx_id]
            if vc.hole_seqs:
                # Refill slots orphaned by a view change first, so
                # the ledger can drain past them.
                seq = min(vc.hole_seqs)
                vc.hole_seqs.discard(seq)
            else:
                seq = self.next_seq
                self.next_seq += 1
            tx_ids = tuple([tx.tx_id for tx in txs])
            digest = block_digest(seq, tx_ids)
            entry = self._open(Entry(
                seq, self.view, digest, block_ref_from_digest(digest), now_us,
                content=txs, tx_ids=tx_ids,
                pre_prepared=True, prepares=1 << self.node))
            self._announce(entry, now_us)
            vc.arm(self, now_us)

    def _announce(self, entry: Entry, now_us: int) -> None:
        self._send(MsgKind.PRE_PREPARE, self.view, entry.seq, entry.digest,
                   entry.block_ref, now_us)
        self._send_content(entry, None, range(len(entry.tx_ids)))

    def _send_content(self, entry: Entry, dst: int | None,
                      positions) -> None:
        for pos in positions:
            self._emit(Message(kind=MsgKind.CLIENT_REQUEST, sender=self.node,
                               recipient=dst, view=self.view, seq=entry.seq,
                               tx=entry.content[pos],
                               block_ref=entry.block_ref, timestamp=pos))

    # ----------------------------------------------------- block content

    def _on_relay(self, msg: Message, now_us: int) -> None:
        pos = msg.timestamp
        if pos >= self.block_size:
            return
        entry = self.entries.get(msg.seq)
        if entry is None:
            entry = self._open(Entry(msg.seq, msg.view, None, msg.block_ref,
                                     now_us))
        content = entry.content
        if entry.tx_ids is not None or pos in content:
            self.duplicates += 1
            return
        if not content:
            content = entry.content = {}
        content[pos] = msg.tx
        # Until the block's last position arrives neither call can act:
        # ``_refresh_content`` needs all ``block_size`` positions, and
        # ``_advance`` needs verified content (``tx_ids`` set) or
        # ``sent_commit``.  ``tx_ids`` is unset here, or the relay would
        # have counted as a duplicate.  ``sent_commit`` implies
        # ``tx_ids``: only ``_advance`` sets it, and only on a slot with
        # verified content, and ``rebind``, the one place that clears
        # ``tx_ids``, clears ``sent_commit`` too.
        if len(content) == self.block_size:
            self._refresh_content(entry)
            self._advance(entry, now_us)

    def _refresh_content(self, entry: Entry) -> None:
        b = self.block_size
        if (entry.tx_ids is not None or not entry.pre_prepared
                or len(entry.content) < b):
            return
        content = entry.content
        txs = tuple([content[p] for p in range(b)])
        ids = tuple([tx.tx_id for tx in txs])
        if block_digest(entry.seq, ids) == entry.digest:
            entry.content = txs
            entry.tx_ids = ids
        else:
            entry.content = ()

    # ------------------------------------------------------ vote rounds

    def _get_or_create(self, msg: Message, now_us: int) -> Entry | None:
        """Look up the entry for a protocol message, creating a
        placeholder bound to the message's digest if it is new.
        Returns None when the message is stale or conflicting."""
        entry = self.entries.get(msg.seq)
        if entry is None:
            return self._open(Entry(msg.seq, msg.view, msg.digest,
                                    msg.block_ref, now_us))
        if entry.committed:
            return entry if entry.digest == msg.digest else None
        if entry.digest is None:
            # Only relays so far: not pre-prepared, nothing to verify.
            entry.digest = msg.digest
            entry.block_ref = msg.block_ref
            entry.view = msg.view
            return entry
        if msg.view > entry.view:
            # A newer view rebinds the slot, to the same block or to a
            # different one (the old binding died with its view).
            entry.rebind(msg.view, msg.digest, msg.block_ref)
            self._open(entry)
        elif entry.digest != msg.digest:
            return None
        return entry

    def _on_pre_prepare(self, msg: Message, now_us: int) -> None:
        if msg.view < self.view:
            return
        if msg.sender != self.primary_of(msg.view):
            return
        entry = self._get_or_create(msg, now_us)
        if entry is None or msg.view < entry.view:
            return
        if entry.committed:
            # Re-announcement of a block we already committed: vouch
            # for it in the new round so it reaches quorum without us
            # re-running the vote.
            if msg.view > entry.view:
                entry.view = msg.view
            self._send(MsgKind.COMMIT, entry.view, entry.seq, entry.digest,
                       entry.block_ref, now_us)
            return
        entry.pre_prepared = True
        bit = 1 << msg.sender
        if entry.prepares & bit:
            self.duplicates += 1
        entry.prepares |= bit
        self._refresh_content(entry)
        self._advance(entry, now_us)
        if msg.seq >= self.next_seq:
            self.next_seq = msg.seq + 1
        self.vc.arm(self, now_us)

    def _advance(self, entry: Entry, now_us: int) -> None:
        """Move the slot as far as its votes allow: our PREPARE once it
        is pre-prepared with verified content, our COMMIT at the prepare
        quorum, the commit at the commit quorum.  Only live slots of the
        current view vote."""
        if (entry.view == self.view and entry.tx_ids is not None
                and entry.seq in self.open_seqs):
            me = 1 << self.node
            if entry.pre_prepared and not entry.prepares & me:
                entry.prepares |= me
                self._send(MsgKind.PREPARE, entry.view, entry.seq,
                           entry.digest, entry.block_ref, now_us)
            if (not entry.sent_commit and entry.prepares & me
                    and entry.prepares.bit_count() >= self.prepare_q):
                entry.sent_commit = True
                entry.commits |= me
                self._send(MsgKind.COMMIT, entry.view, entry.seq,
                           entry.digest, entry.block_ref, now_us)
        if (entry.sent_commit and not entry.committed
                and entry.commits.bit_count() >= self.commit_q):
            self._commit(entry, now_us)

    def _commit(self, entry: Entry, now_us: int) -> None:
        entry.committed = True
        # Late votes on a committed slot are ignored, so its votes
        # freeze into the block's certificate.
        commits = entry.commits
        entry.commits = tuple([i for i in range(self.n) if commits >> i & 1])
        entry.prepares = 0
        self.open_seqs.discard(entry.seq)
        committed = self.committed_ids
        for tx in entry.content:
            committed[tx.origin] |= 1 << tx.counter
            self.mempool.pop(tx.tx_id, None)
        self.vc.hole_seqs.discard(entry.seq)
        self.vc.frozen_seqs.discard(entry.seq)
        self.vc.attempts = 0
        self.vc_target = None
        self._drain_ledger(now_us)
        if self.is_primary:
            self._try_propose(now_us)
        self.vc.arm(self, now_us)

    def _drain_ledger(self, now_us: int) -> None:
        """Append committed blocks in height order; a block above a
        not-yet-committed height waits until the gap fills."""
        height = len(self.ledger) + 1
        while True:
            entry = self.entries.get(height)
            if entry is None or not entry.committed:
                break
            self.ledger.append(height)
            entry.appended_us = now_us
            height += 1

    # ------------------------------------------------------------ retries

    def _on_retry_timer(self, now_us: int) -> None:
        self._engine().schedule_timer(self.node, TimerKind.RETRY,
                                      now_us + self.retry_period_us)
        # Retry the oldest live slot, once it is a whole period old.
        target = self._oldest_open()
        if (target is None
                or now_us - target.created_us < self.retry_period_us):
            return
        if target.tx_ids is not None:
            held = (1 << min(len(target.tx_ids), 64)) - 1
        else:
            held = 0
            for pos in target.content:
                if pos < 64:
                    held |= 1 << pos
        self._send(MsgKind.RETRY_REQUEST, self.view, target.seq,
                   target.digest or _ZERO_DIGEST, target.block_ref, now_us,
                   client_request=held)
        self.retries += 1

    def _on_retry_request(self, msg: Message, now_us: int) -> None:
        entry = self.entries.get(msg.seq)
        if entry is None or entry.digest is None:
            return
        if msg.digest != _ZERO_DIGEST and msg.digest != entry.digest:
            return
        requester = msg.sender
        # Only the announcing primary can restate the announcement
        # itself; without it the requester can neither verify content
        # nor vote, so a lost one must be recoverable here.
        if entry.pre_prepared and self.primary_of(entry.view) == self.node:
            self._send(MsgKind.PRE_PREPARE, entry.view, entry.seq,
                       entry.digest, entry.block_ref, now_us, requester)
        # Strongest vote we can restate for this entry.
        if entry.sent_commit or entry.committed:
            self._send(MsgKind.COMMIT, entry.view, entry.seq, entry.digest,
                       entry.block_ref, now_us, requester)
        elif entry.prepares >> self.node & 1:
            self._send(MsgKind.PREPARE, entry.view, entry.seq, entry.digest,
                       entry.block_ref, now_us, requester)
        if entry.tx_ids is not None:
            held = msg.client_request
            missing = [pos for pos in range(len(entry.tx_ids))
                       if pos >= 64 or not (held >> pos) & 1]
            self._send_content(entry, requester, missing)

    # -------------------------------------------------------- view change

    def _on_view_change(self, msg: Message, now_us: int) -> None:
        if msg.view <= self.view:
            return
        reports = ({(msg.seq, msg.digest, msg.block_ref)} if msg.seq > 0
                   else set())
        self.vc.record(self, msg.sender, msg.view, reports, now_us)

    def _on_new_view(self, msg: Message, now_us: int) -> None:
        if (msg.view <= self.view
                or msg.sender != self.primary_of(msg.view)):
            return
        self._adopt_view(msg.view, now_us)
        for tx in list(self.mempool.values()):
            self._forward_tx(tx, self.primary_of(self.view), now_us)

    def _adopt_view(self, view: int, now_us: int) -> None:
        """Move to ``view``, which every caller has checked is newer."""
        self.view = view
        self.view_adoptions += 1
        self.vc_target = None
        self.vc.restart(view, now_us)
        mine = self.committed_ids[self.node]
        for seq in list(self.open_seqs):
            entry = self.entries[seq]
            if entry.view >= view:
                continue
            # The old round died with its view; the slot sleeps until
            # a re-announcement reopens it.  Transactions we generated
            # ourselves go back to the mempool so they are not lost if
            # it never is.
            self.open_seqs.discard(seq)
            content = entry.content
            if entry.tx_ids is None and content:
                content = content.values()  # relays so far, by arrival
            for tx in content:
                if tx.origin == self.node and not mine >> tx.counter & 1:
                    self.mempool.setdefault(tx.tx_id, tx)
        self.vc.arm(self, now_us)


class ViewChange:
    """One replica's view-change state and steps (module docstring)."""

    __slots__ = ("base_timeout_us", "started_us", "attempts", "votes",
                 "timer_at", "hole_seqs", "frozen_seqs")

    def __init__(self, base_timeout_us: int):
        self.base_timeout_us = base_timeout_us
        self.started_us = 0  # when the current view was adopted
        self.attempts = 0  # consecutive timeouts without a commit
        # target view -> {voter: set of (seq, digest, block_ref)}
        self.votes: dict[int, dict[int, set]] = {}
        self.timer_at: int | None = None
        # Sequence numbers below the proposal horizon that were
        # abandoned by a view change; refilled first.
        self.hole_seqs: set = set()
        # Slots re-announced by a new primary; assembly waits on them.
        self.frozen_seqs: set = set()

    def timeout_us(self) -> int:
        return self.base_timeout_us * (2 ** min(self.attempts, 10))

    def deadline(self, replica: Replica) -> int | None:
        """When the view-change timer expires.  Keyed to the age of
        the oldest uncommitted transaction or slot, not to recent
        progress: a primary that keeps committing fresh blocks while
        old requests starve must still be voted out.  Adopting a view
        restarts the clock so carried work gets a full timeout under
        its new primary."""
        oldest = None
        entry = replica._oldest_open()
        if entry is not None:
            oldest = entry.created_us
        if replica.mempool:
            waiting = min(int(tx.created_at * US_PER_S)
                          for tx in replica.mempool.values())
            oldest = waiting if oldest is None else min(oldest, waiting)
        if oldest is None:
            return None
        return max(oldest, self.started_us) + self.timeout_us()

    def arm(self, replica: Replica, now_us: int) -> None:
        """Start the timer, unless it runs or there is no pending work."""
        if self.timer_at is not None or not (replica.mempool
                                             or replica.open_seqs):
            return
        self.timer_at = now_us + self.timeout_us()
        replica._engine().schedule_timer(replica.node, TimerKind.VIEW_CHANGE,
                                         self.timer_at)

    def on_timer(self, replica: Replica, now_us: int) -> None:
        self.timer_at = None
        deadline = self.deadline(replica)
        if deadline is None:
            return
        if now_us < deadline:
            self.timer_at = deadline
            replica._engine().schedule_timer(replica.node,
                                             TimerKind.VIEW_CHANGE, deadline)
            return
        target = max(replica.view, replica.vc_target or 0) + 1
        self.attempts += 1
        self.vote(replica, target, now_us)
        self.arm(replica, now_us)

    def vote(self, replica: Replica, target: int, now_us: int) -> None:
        replica.vc_target = target
        reports = set()
        for entry in replica.entries.values():
            if (not entry.committed and entry.digest is not None
                    and entry.prepares >> replica.node & 1
                    and entry.prepares.bit_count() >= replica.prepare_q):
                reports.add((entry.seq, entry.digest, entry.block_ref))
        # A baseline vote, then one per prepared entry.
        for seq, digest, ref in [(0, _ZERO_DIGEST, 0), *sorted(reports)]:
            replica._send(MsgKind.VIEW_CHANGE, target, seq, digest, ref,
                          now_us)
        self.record(replica, replica.node, target, reports, now_us)

    def record(self, replica: Replica, voter: int, target: int, reports,
               now_us: int) -> None:
        """Count a vote for ``target``, a view every caller has checked
        is newer than ours, then join or lead the change if the votes so
        far call for it."""
        voters = self.votes.setdefault(target, {})
        voters.setdefault(voter, set()).update(reports)
        # Join once f + 1 peers want this view (we will not be the
        # lone holdout keeping the old primary alive).
        if (len(voters) >= fault_tolerance(replica.n) + 1
                and (replica.vc_target is None
                     or replica.vc_target < target)):
            self.vote(replica, target, now_us)
            if target <= replica.view:
                return  # our own vote completed the quorum and led
        if (replica.primary_of(target) == replica.node
                and len(voters) >= replica.commit_q):
            self.lead(replica, target, now_us)

    def lead(self, replica: Replica, target: int, now_us: int) -> None:
        reports = {}
        for report_set in self.votes.get(target, {}).values():
            for seq, digest, ref in report_set:
                current = reports.get(seq)
                if current is None or digest < current[0]:
                    reports[seq] = (digest, ref)
        replica._adopt_view(target, now_us)
        replica._send(MsgKind.NEW_VIEW, target, 0, _ZERO_DIGEST, 0, now_us)
        for seq in sorted(reports):
            digest, ref = reports[seq]
            entry = replica.entries.get(seq)
            if entry is None:
                # Opened below, with every other uncommitted slot.
                entry = Entry(seq, target, digest, ref, now_us)
            # Committed entries are re-announced too: peers that hold
            # them answer with a commit vouch, which helps laggards.
            if not entry.committed:
                entry.rebind(target, digest, ref)
                entry.pre_prepared = True
                entry.prepares = 1 << replica.node
                replica._open(entry)
                self.frozen_seqs.add(seq)
                replica._refresh_content(entry)
            replica._send(MsgKind.PRE_PREPARE, target, seq, entry.digest,
                          entry.block_ref, now_us)
            if entry.tx_ids is not None and not entry.committed:
                replica._send_content(entry, None, range(len(entry.tx_ids)))
                replica._advance(entry, now_us)
        # Proposal horizon restarts just past everything that was
        # preserved; abandoned slots below it become holes we must
        # refill so the ledger can keep draining in order.
        committed = {s for s, e in replica.entries.items() if e.committed}
        floor = max(max(reports, default=0), max(committed, default=0))
        replica.next_seq = floor + 1
        self.hole_seqs = {h for h in range(1, floor + 1)
                          if h not in committed and h not in reports}
        replica._try_propose(now_us)

    def restart(self, view: int, now_us: int) -> None:
        """A view was adopted: its clock starts now, and the attempts,
        holes and votes of older views are spent."""
        self.started_us = now_us
        self.attempts = 0
        self.hole_seqs.clear()
        for stale in [t for t in self.votes if t <= view]:
            del self.votes[stale]


class EquivocatingReplica(Replica):
    """Fault injector: as primary, announces two conflicting blocks
    for the same slot, one to each half of the peers.  Used by safety
    tests; honest quorum intersection must keep ledgers consistent.
    """

    def _announce(self, entry: Entry, now_us: int) -> None:
        alt_ids = entry.tx_ids[::-1]
        if alt_ids == entry.tx_ids:
            super()._announce(entry, now_us)
            return
        # The reversed block, held only to be sent.
        digest = block_digest(entry.seq, alt_ids)
        alt = Entry(entry.seq, self.view, digest,
                    block_ref_from_digest(digest), now_us,
                    content=entry.content[::-1])
        peers = [i for i in range(self.n) if i != self.node]
        half = len(peers) // 2
        for block, dsts in ((entry, peers[:half]), (alt, peers[half:])):
            for dst in dsts:
                self._send(MsgKind.PRE_PREPARE, self.view, block.seq,
                           block.digest, block.block_ref, now_us, dst)
                self._send_content(block, dst, range(len(alt_ids)))
