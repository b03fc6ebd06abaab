"""Property-based tests for the lock table's 2PL invariants."""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.node.lock_table import LockEntry, LockMode, LockTable

S, X = LockMode.SHARED, LockMode.EXCLUSIVE
PAGES = [(0, 0), (0, 1), (0, 2)]
TXNS = list(range(1, 7))
NODES = list(range(4))
#: The immutable empties every idle entry shares.
IDLE = LockEntry()


def noop():
    pass


class LockTableMachine(RuleBasedStateMachine):
    """Random lock/release sequences preserving the 2PL invariants."""

    def __init__(self):
        super().__init__()
        self.table = LockTable()
        self.granted = {}  # (txn, page) -> mode
        self.metadata = {}  # page -> (seqno, owner)
        self.auth = {page: set() for page in PAGES}

    @rule(
        txn=st.sampled_from(TXNS),
        page=st.sampled_from(PAGES),
        exclusive=st.booleans(),
    )
    def request(self, txn, page, exclusive):
        if self.table.is_blocked(txn):
            return
        mode = X if exclusive else S

        def on_grant(t=txn, p=page, m=mode):
            self.granted[(t, p)] = m

        if self.table.request(txn, page, mode, on_grant):
            held = self.table.holds(txn, page)
            self.granted[(txn, page)] = held

    @rule(txn=st.sampled_from(TXNS), page=st.sampled_from(PAGES))
    def release(self, txn, page):
        if self.table.is_blocked(txn):
            return
        if self.table.holds(txn, page) is None:
            return
        self.table.release(txn, page)
        self.granted.pop((txn, page), None)

    @rule(txn=st.sampled_from(TXNS))
    def cancel(self, txn):
        page = self.table.blocked_page(txn)
        if page is not None:
            self.table.cancel(txn, page)

    @rule(page=st.sampled_from(PAGES), owner=st.sampled_from([None, *NODES]))
    def stamp(self, page, owner):
        entry = self.table.entry(page)
        entry.seqno += 1
        entry.owner = owner
        self.metadata[page] = (entry.seqno, owner)

    @rule(page=st.sampled_from(PAGES), node=st.sampled_from(NODES))
    def authorize(self, page, node):
        self.table.entry(page).authorize(node)
        self.auth[page].add(node)

    @rule(
        page=st.sampled_from(PAGES),
        nodes=st.lists(st.sampled_from(NODES), max_size=3),
    )
    def deauthorize(self, page, nodes):
        self.table.entry(page).deauthorize(*nodes)
        self.auth[page].difference_update(nodes)

    @invariant()
    def empty_containers_are_the_shared_immutables(self):
        for page in PAGES:
            entry = self.table.peek(page)
            if entry is None:
                continue
            assert entry.auth_nodes == self.auth[page]
            if not entry.holders:
                assert entry.holders is IDLE.holders
                with pytest.raises(TypeError):
                    entry.holders[TXNS[0]] = S
            if not entry.queue:
                assert entry.queue is IDLE.queue
                with pytest.raises(AttributeError):
                    entry.queue.append(None)
            if not entry.auth_nodes:
                assert entry.auth_nodes is IDLE.auth_nodes
                with pytest.raises(AttributeError):
                    entry.auth_nodes.add(NODES[0])

    @invariant()
    def metadata_survives_idle_periods(self):
        for page, (seqno, owner) in self.metadata.items():
            entry = self.table.peek(page)
            assert (entry.seqno, entry.owner) == (seqno, owner)

    @invariant()
    def no_incompatible_coholders(self):
        for page in PAGES:
            entry = self.table.peek(page)
            if entry is None:
                continue
            modes = list(entry.holders.values())
            if any(m is X for m in modes):
                assert len(modes) == 1, f"X co-held on {page}: {entry.holders}"

    @invariant()
    def blocked_txns_have_queue_entries(self):
        for txn in TXNS:
            page = self.table.blocked_page(txn)
            if page is None:
                continue
            entry = self.table.peek(page)
            assert entry is not None
            assert any(req.txn == txn for req in entry.queue)

    @invariant()
    def no_grantable_head_left_waiting(self):
        """The queue head is only left waiting if actually blocked."""
        for page in PAGES:
            entry = self.table.peek(page)
            if entry is None or not entry.queue:
                continue
            head = entry.queue[0]
            if head.upgrade:
                others = [t for t in entry.holders if t != head.txn]
                assert others, "grantable upgrade left queued"
            elif head.mode is S:
                assert any(
                    m is X for m in entry.holders.values()
                ), "grantable S request left queued"
            else:
                assert entry.holders, "grantable X request left queued"


TestLockTableMachine = LockTableMachine.TestCase
TestLockTableMachine.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
