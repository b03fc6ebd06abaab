"""Close coupling: concurrency/coherency control with a GEM lock table.

Every lock request and release is processed against a **global lock
table (GLT)** stored in Global Extended Memory (section 3.2):

* Acquiring or releasing a lock costs two synchronous GEM entry
  accesses (read the entry into main memory, write the modified value
  back with Compare&Swap); the accessing CPU is held for the complete
  operation, including queuing at the GEM server.
* Lock conflicts register a wait in the GLT; when the holder releases,
  it writes a grant notification entry per woken waiter, and the waiter
  re-reads the entry (one more access) before proceeding.
* Coherency control rides in the same entries: page sequence numbers
  detect buffer invalidations with no extra GEM traffic, and under
  NOFORCE the entry records the current **page owner**.  Stale or
  missing pages are requested from the owner with a short message and
  returned in a long message across the communication system -- or,
  optionally, exchanged through GEM itself
  (``config.page_transfer_via_gem``, an extension the paper's
  conclusions propose).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Mapping, Optional, Tuple, TYPE_CHECKING

from repro.cc.base import CCProtocol, LockGrant, PageSource
from repro.cc.messages import (
    GltRevokePayload,
    PageRequestPayload,
    PageResponsePayload,
)
from repro.db.pages import PageId
from repro.errors import TransactionAborted
from repro.obs import phases
from repro.node.lock_table import LockMode, LockTable
from repro.sim.engine import Event
from repro.sim.resources import NESTED, hold_seq, hold_seq_cancel
from repro.sim.stats import Tally
from repro.workload.transaction import Transaction

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.manager import CrashRecord, FaultManager
    from repro.node.node import Node
    from repro.system.cluster import Cluster

__all__ = ["GemLockingProtocol"]


class GemLockingProtocol(CCProtocol):
    """Global lock table in GEM with synchronous entry accesses."""

    name = "gem"

    def __init__(self, cluster: "Cluster") -> None:
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = cluster.config
        self.gem = cluster.gem
        self.detector = cluster.detector
        self.recorder = cluster.recorder
        self.glt = LockTable("glt")
        # Hot-path config values, resolved once (SystemConfig attribute
        # lookups on every entry access are measurable).
        self._gem_entry_instr = self.config.instructions_per_gem_entry_op
        self._lock_op_instr = self.config.instructions_per_lock_op
        self._auth = self.config.gem_lock_authorizations
        self._noforce = self.config.noforce
        self.lock_wait_time = Tally("gem.lock_wait")
        self.page_request_delay = Tally("gem.page_request_delay")
        self.page_requests = 0
        self.page_requests_failed = 0
        self.authorized_lock_requests = 0
        self.authorization_revocations = 0
        for node in cluster.nodes:
            node.register_handler("page_req", self._handle_page_request)
            node.register_handler("glt_revoke", self._handle_authorization_revoke)
            #: Pages this node holds a sole-interest lock authorization
            #: for (section 2's refinement; config.gem_lock_authorizations).
            node.gem_auth = set()

    # -- GEM entry access helper --------------------------------------------

    def _entry_chain(self, node_id: int, count: int) -> Event:
        """Start ``count`` synchronous GLT accesses as one compound hold.

        The CPU is held for the setup instructions and, as a NESTED
        leg, across the GEM server access: the caller yields the
        returned completion event once per compound access instead of
        once per leg, guarding it with ``hold_seq_cancel``.  The
        hottest call sites (lock acquire, commit release) yield it
        directly; colder paths go through the :meth:`_entry_ops`
        wrapper.
        """
        cpu = self.cluster.nodes[node_id].cpu
        instr = count * self._gem_entry_instr
        cpu.instructions_executed += instr
        gem = self.gem
        gem.entry_accesses += count
        return hold_seq(
            cpu.sim,
            (
                (cpu.resource, instr / cpu.speed, NESTED),
                (gem.server, count * gem.entry_access_time, None),
            ),
        )

    def _entry_ops(
        self, node_id: int, count: int, txn_id: Optional[int] = None
    ) -> Generator[Event, Any, None]:
        """``count`` synchronous GLT entry accesses, CPU held throughout.

        ``txn_id`` attributes the time to that transaction's GEM phase
        (acquire path); release-path accesses pass None and stay inside
        the covering COMMIT/BACKOFF span.  The span context manager is
        skipped entirely when tracing is off.
        """
        done = self._entry_chain(node_id, count)
        recorder = self.recorder
        if recorder.enabled:
            with recorder.span(txn_id, phases.GEM):
                try:
                    yield done
                except BaseException:
                    hold_seq_cancel(done)
                    raise
        else:
            try:
                yield done
            except BaseException:
                hold_seq_cancel(done)
                raise

    # -- lock acquisition ------------------------------------------------------

    def acquire(
        self,
        txn: Transaction,
        page: PageId,
        write: bool,
        cached_version: Optional[int],
    ) -> Generator[Event, Any, LockGrant]:
        node_id = txn.node
        node = self.cluster.nodes[node_id]
        mode = LockMode.EXCLUSIVE if write else LockMode.SHARED
        authorized = self._auth and page in node.gem_auth
        if authorized:
            # Sole-interest refinement (section 2): the local lock
            # manager processes the request without any GEM access.
            self.authorized_lock_requests += 1
            yield from node.cpu.consume(self._lock_op_instr)
        else:
            # Read the GLT entry and write back the updated value
            # (grant registered, or wait registered on conflict).  The
            # hottest GEM access: with tracing off the chain event is
            # yielded directly, skipping the _entry_ops generator.
            if self.recorder.enabled:
                yield from self._entry_ops(node_id, 2, txn_id=txn.txn_id)
            else:
                done = self._entry_chain(node_id, 2)
                try:
                    yield done
                except BaseException:
                    hold_seq_cancel(done)
                    raise
            if self._auth:
                holder = min(self.glt.entry(page).auth_nodes, default=None)
                if holder is not None and holder != node_id:
                    with self.recorder.span(txn.txn_id, phases.COMM):
                        yield from self._revoke_authorization(node, page, holder)
        txn_id = txn.txn_id
        # Created lazily: immediate grants (the common case) never
        # invoke on_grant, so the wait event would be garbage.
        wait_event: Optional[Event] = None

        def on_grant() -> None:
            self.detector.clear(txn_id)
            assert wait_event is not None  # created before any queueing
            wait_event.succeed()

        granted = self.glt.request(txn_id, page, mode, on_grant)
        if not granted:
            wait_event = self.sim.event()
            blocked_at = self.sim.now

            def abort_victim() -> None:
                self.glt.cancel(txn_id, page)
                wait_event.fail(TransactionAborted(txn_id))

            self.detector.register_block(txn_id, self.glt, abort_victim)
            # The GLT is the global lock authority: waits here are
            # global lock waits in the breakdown.
            with self.recorder.span(txn_id, phases.LOCK_GLOBAL):
                yield wait_event  # raises TransactionAborted if chosen victim
            self.lock_wait_time.record(self.sim.now - blocked_at)
            if not authorized:
                # Re-read the entry after wake-up to observe the grant.
                yield from self._entry_ops(node_id, 1, txn_id=txn_id)
        txn.held_locks[page] = write or txn.held_locks.get(page, False)
        txn.local_lock_requests += 1
        entry = self.glt.entry(page)
        if (
            self._auth
            and not authorized
            and len(entry.holders) == 1
            and not entry.queue
        ):
            # Sole interest: authorize this node's local lock manager.
            entry.auth_nodes = {node_id}
            node.gem_auth.add(page)
        owner = entry.owner
        if self._noforce and owner is not None and owner != node_id:
            faults = self.cluster.faults
            if faults is None or not faults.is_down(owner):
                return LockGrant(
                    entry.seqno,
                    source=PageSource.OWNER,
                    owner_node=owner,
                    local=True,
                )
            # The owner crashed and its buffer is gone; read permanent
            # storage instead (gated behind REDO if the page was lost).
        return LockGrant(entry.seqno, source=PageSource.STORAGE, local=True)

    # -- NOFORCE page transfers ---------------------------------------------

    def request_page_from_owner(
        self, txn: Transaction, page: PageId, grant: LockGrant
    ) -> Generator[Event, Any, Optional[int]]:
        """Fetch the current page version from the owning node's buffer."""
        assert grant.owner_node is not None
        self.page_requests += 1
        started = self.sim.now
        with self.recorder.span(txn.txn_id, phases.PAGE_TRANSFER):
            if self.config.page_transfer_via_gem:
                version = yield from self._page_transfer_via_gem(txn, page, grant)
            else:
                node = self.cluster.nodes[txn.node]
                reply = self.sim.event()
                faults = self.cluster.faults
                if faults is not None:
                    faults.watch(grant.owner_node, reply)
                request: PageRequestPayload = {
                    "page": page,
                    "reply": reply,
                    "requester": txn.node,
                }
                yield from node.comm.send(grant.owner_node, "page_req", request)
                payload = yield reply
                if faults is not None:
                    faults.unwatch(grant.owner_node, reply)
                if payload.get("crashed"):
                    version = None
                else:
                    version = payload.get("version")
        if version is None:
            self.page_requests_failed += 1
        else:
            self.page_request_delay.record(self.sim.now - started)
        return version

    def _revoke_authorization(
        self, node: "Node", page: PageId, holder: int
    ) -> Generator[Event, Any, None]:
        """Another node holds the lock authorization: revoke it.

        The holder flushes its local lock state to the GLT (two entry
        accesses) and acknowledges; the requester then re-reads the
        entry (one access) before proceeding.
        """
        self.authorization_revocations += 1
        ack = self.sim.event()
        faults = self.cluster.faults
        if faults is not None:
            # A crash of the holder clears its authorization in
            # crash_node; answer the ack so the requester proceeds.
            faults.watch(holder, ack)
        revoke: GltRevokePayload = {
            "page": page,
            "ack": ack,
            "requester": node.node_id,
        }
        yield from node.comm.send(holder, "glt_revoke", revoke)
        yield ack
        if faults is not None:
            faults.unwatch(holder, ack)
        yield from self._entry_ops(node.node_id, 1)

    def _handle_authorization_revoke(
        self, node: "Node", payload: Mapping[str, Any]
    ) -> Generator[Event, Any, None]:
        page = payload["page"]
        node.gem_auth.discard(page)
        entry = self.glt.peek(page)
        if entry is not None:
            entry.deauthorize(node.node_id)
        # Flush the locally processed lock state back to the GLT.
        yield from self._entry_ops(node.node_id, 2)
        yield from node.comm.send(
            payload["requester"], "glt_revoke_ack", {}, reply_event=payload["ack"]
        )

    def _handle_page_request(
        self, node: "Node", payload: Mapping[str, Any]
    ) -> Generator[Event, Any, None]:
        """Owner-side handler: return the buffered page, if still owned."""
        page = payload["page"]
        reply: Event = payload["reply"]
        version = node.buffer.cached_version(page)
        response: PageResponsePayload = {"version": version}
        yield from node.comm.send(
            payload["requester"],
            "page_rsp",
            response,
            long=version is not None,
            reply_event=reply,
        )

    def _page_transfer_via_gem(
        self, txn: Transaction, page: PageId, grant: LockGrant
    ) -> Generator[Event, Any, Optional[int]]:
        """Extension: exchange the page through GEM instead of messages.

        The owner writes the page to a GEM exchange buffer, the
        requester reads it: two synchronous GEM page accesses plus the
        GEM I/O initiation overhead on both sides, coordinated through
        one entry access each -- far cheaper than 2 x 8000 instructions
        of message overhead.
        """
        owner_node = self.cluster.nodes[grant.owner_node]
        version = owner_node.buffer.cached_version(page)
        if version is None:
            return None
        # Owner side: initiate + write page to GEM (charged to owner).
        owner_cpu = owner_node.cpu
        yield from owner_cpu.grab()
        try:
            yield owner_cpu.busy_work(self.config.instructions_per_gem_io)
            yield from self.gem.access_page()
        finally:
            owner_cpu.release()
        # Requester side: read page from GEM.
        cpu = self.cluster.nodes[txn.node].cpu
        yield from cpu.grab()
        try:
            yield cpu.busy_work(self.config.instructions_per_gem_io)
            yield from self.gem.access_page()
        finally:
            cpu.release()
        return version

    # -- release ---------------------------------------------------------------

    def commit_release(self, txn: Transaction) -> Generator[Event, Any, None]:
        node_id = txn.node
        node = self.cluster.nodes[node_id]
        # No defensive copy: only the owning transaction's process
        # mutates held_locks, and it is suspended in this generator.
        for page in txn.held_locks:
            authorized = self._auth and page in node.gem_auth
            if authorized:
                yield from node.cpu.consume(self._lock_op_instr)
            else:
                done = self._entry_chain(node_id, 2)
                try:
                    yield done
                except BaseException:
                    hold_seq_cancel(done)
                    raise
            entry = self.glt.entry(page)
            new_version = txn.modified.get(page)
            if new_version is not None:
                entry.seqno = new_version
                entry.owner = node_id if self._noforce else None
            granted = self.glt.release(txn.txn_id, page)
            if granted and not authorized:
                # One grant-notification entry write per woken waiter.
                done = self._entry_chain(node_id, len(granted))
                try:
                    yield done
                except BaseException:
                    hold_seq_cancel(done)
                    raise
        txn.held_locks.clear()

    def abort_release(self, txn: Transaction) -> Generator[Event, Any, None]:
        # Idempotent and interruption-safe: pages are popped from
        # held_locks as they are released (not cleared in one sweep at
        # the end), and a page whose GLT entry is already gone -- a
        # racing crash-induced abort released it, or this generator was
        # interrupted mid-release and re-run -- is skipped instead of
        # double-released (LockTable.release raises on unheld pages).
        node_id = txn.node
        node = self.cluster.nodes[node_id]
        txn_id = txn.txn_id
        held = txn.held_locks
        while held:
            page = next(iter(held))  # insertion order, like the old loop
            if self.glt.holds(txn_id, page) is None:
                held.pop(page, None)
                continue
            authorized = self._auth and page in node.gem_auth
            if authorized:
                yield from node.cpu.consume(self._lock_op_instr)
            else:
                yield from self._entry_ops(node_id, 2)
            # Re-check after yielding: a crash-path abort may have
            # raced this release while the entry accesses were queued.
            if self.glt.holds(txn_id, page) is not None:
                granted = self.glt.release(txn_id, page)
            else:
                granted = []
            held.pop(page, None)
            if granted and not authorized:
                yield from self._entry_ops(node_id, len(granted))

    # -- write-back hook ----------------------------------------------------------

    def page_written_back(
        self, node_id: int, page: PageId, version: int
    ) -> Generator[Event, Any, None]:
        """Clear page ownership after a committed dirty page reached disk."""
        if self.config.force:
            return
        entry = self.glt.peek(page)
        if entry is None:
            return
        yield from self._entry_ops(node_id, 2)
        if entry.owner == node_id and entry.seqno == version:
            entry.owner = None

    # -- fault injection -----------------------------------------------------

    def lock_tables(self) -> Tuple[LockTable, ...]:
        return (self.glt,)

    def crash_node(self, faults: "FaultManager", record: "CrashRecord") -> None:
        """Synchronous teardown: the node's lock authorizations die.

        The GLT itself lives in non-volatile GEM and survives -- that
        is the close-coupling availability advantage the paper argues
        (section 5): no lock state is lost with a node.
        """
        node = self.cluster.nodes[record.node]
        if self.config.gem_lock_authorizations:
            node.gem_auth.clear()
            for entry in self.glt._entries.values():
                entry.deauthorize(record.node)

    def recover(
        self, faults: "FaultManager", record: "CrashRecord"
    ) -> Generator[Event, Any, None]:
        """Failover with a surviving GLT: release the dead node's locks.

        The coordinator scans the (intact) GLT for locks held by the
        crashed node's transactions, makes each entry's sequence number
        consistent with the ledger, and releases -- plain entry
        accesses, no lock-state reconstruction and no inter-node
        messages.  Then it REDOes the lost pages from the dead node's
        log.
        """
        coord = faults.coordinator()
        coord_node = self.cluster.nodes[coord]
        ledger = self.cluster.ledger
        for txn in record.killed:
            # The GLT is authoritative: a lock granted in the table just
            # before the crash may never have reached txn.held_locks
            # (the requester died between the table grant and its local
            # registration), so scan the table rather than trust the
            # dead transaction's bookkeeping.
            pages = set(txn.held_locks)
            pages.update(self.glt.held_pages(txn.txn_id))
            for page in sorted(pages):
                if self.glt.holds(txn.txn_id, page) is None:
                    continue
                yield from self._entry_ops(coord, 2)
                yield from coord_node.cpu.consume(
                    faults.config.recovery_instructions_per_lock
                )
                entry = self.glt.entry(page)
                entry.seqno = max(entry.seqno, ledger.committed_version(page))
                granted = self.glt.release(txn.txn_id, page)
                if granted:
                    yield from self._entry_ops(coord, len(granted))
        # Ownership entries pointing at the dead buffer are void.  For
        # non-lost pages the permanent copy is current, so clear them
        # now; lost pages keep readers fenced until REDO restores them.
        for page in sorted(
            p for p, e in self.glt._entries.items() if e.owner == record.node
        ):
            if page in record.lost:
                continue
            yield from self._entry_ops(coord, 1)
            self.glt._entries[page].owner = None
        yield from faults.redo_pages(record, coord)
        for entry in self.glt._entries.values():
            if entry.owner == record.node:
                entry.owner = None

    # reintegrate: the base no-op is correct -- the restarted node finds
    # its lock state in GEM; only the restart CPU (charged by the
    # manager) is needed.  This is the measurable reintegration gap
    # versus PCL's GLA failback.

    # -- statistics -------------------------------------------------------------

    def lock_stats(self) -> Dict[str, float]:
        # Every lock request goes to the GEM GLT: no local/remote split.
        return {
            "local_share": 1.0,
            "remote_lock_requests": 0.0,
            "lock_requests": float(self.glt.requests),
            "mean_lock_wait": self.lock_wait_time.mean,
            "page_requests": float(self.page_requests),
            "mean_page_request_delay": self.page_request_delay.mean,
            "pages_supplied_with_grant": 0.0,
        }

    def reset_stats(self) -> None:
        self.lock_wait_time.reset()
        self.page_request_delay.reset()
        self.page_requests = 0
        self.page_requests_failed = 0
        self.glt.requests = 0
        self.glt.immediate_grants = 0
        self.glt.waits = 0
        self.authorized_lock_requests = 0
        self.authorization_revocations = 0
