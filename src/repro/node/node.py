"""The processing node: container wiring CPU, buffer, communication,
transaction management and message dispatch together (Fig. 3.1).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Set, TYPE_CHECKING

from repro.cc.base import CCProtocol
from repro.cc.messages import MessageHandler
from repro.db.pages import PageId
from repro.node.buffer_manager import BufferManager
from repro.node.comm import CommSubsystem
from repro.node.cpu import CpuPool
from repro.sim.engine import Event, Simulator
from repro.sim.resources import Resource, Store
from repro.sim.stats import Counter, Tally

if TYPE_CHECKING:  # pragma: no cover
    from repro.system.cluster import Cluster
    from repro.workload.transaction import Transaction

__all__ = ["Node"]


class Node:
    """One autonomous processing node of the database sharing system."""

    def __init__(self, sim: Simulator, node_id: int, cluster: "Cluster") -> None:
        self.sim = sim
        self.node_id = node_id
        self.cluster = cluster
        self.config = cluster.config
        self.database = cluster.database
        self.storage = cluster.storage
        config = cluster.config
        self.cpu = CpuPool(
            sim,
            config.cpus_per_node,
            config.mips_per_cpu,
            cluster.streams.stream(f"cpu-{node_id}"),
            name=f"node{node_id}.cpu",
        )
        self.buffer = BufferManager(self, config.buffer_pages_per_node, cluster.ledger)
        self.comm = CommSubsystem(sim, self, cluster)
        self.mailbox = Store(sim, name=f"node{node_id}.mailbox")
        self.mpl = Resource(sim, config.mpl_per_node, name=f"node{node_id}.mpl")
        self.recorder = cluster.recorder
        #: Set by the cluster once the protocol is constructed.
        self.protocol: Optional[CCProtocol] = None
        #: Read-authorization cache (populated by PCL when enabled).
        self.auth_cache: Dict[PageId, bool] = {}
        #: Sole-interest lock authorizations (populated by GEM locking).
        self.gem_auth: Set[PageId] = set()
        self._handlers: Dict[str, MessageHandler] = {}
        self._history_seq = 0
        # -- statistics ------------------------------------------------
        self.arrivals = Counter(f"node{node_id}.arrivals")
        self.completions = Counter(f"node{node_id}.completions")
        self.aborts = Counter(f"node{node_id}.aborts")
        self.response_time = Tally(f"node{node_id}.response_time")
        self.response_time_per_access = Tally(f"node{node_id}.rt_per_access")
        sim.process(self._dispatcher(), name=f"node{node_id}.dispatcher")

    # -- message dispatch --------------------------------------------------

    def register_handler(self, kind: str, handler: MessageHandler) -> None:
        self._handlers[kind] = handler

    def _dispatcher(self) -> Generator[Event, Any, None]:
        """Deliver incoming messages to protocol handlers.

        Each message is handled in its own process: a handler may block
        (e.g. a lock request waiting at this GLA) without stalling the
        delivery of further messages.
        """
        while True:
            message = yield self.mailbox.get()
            handler = self._handlers.get(message.kind)
            if handler is None:
                raise RuntimeError(
                    f"node {self.node_id}: no handler for message "
                    f"kind {message.kind!r}"
                )
            proc = self.sim.process(
                handler(self, message.payload), name=f"handle-{message.kind}"
            )
            faults = self.cluster.faults
            if faults is not None and proc.is_alive:
                faults.track_handler(self.node_id, proc)

    # -- HISTORY append cursor ------------------------------------------------

    def next_history_page(self, partition_index: int, blocking_factor: int) -> PageId:
        """Page id for the next HISTORY record appended at this node.

        Sequential files are appended per node (the paper synchronizes
        the file end with latches; per-node append pages give exactly
        the footnote's 95 % hit ratio for blocking factor 20).
        """
        page_no = (self.node_id << 40) | (self._history_seq // blocking_factor)
        self._history_seq += 1
        return (partition_index, page_no)

    # -- statistics ---------------------------------------------------------

    def record_completion(self, txn: "Transaction", response_time: float) -> None:
        self.completions.increment()
        self.response_time.record(response_time)
        if txn.num_accesses:
            self.response_time_per_access.record(response_time / txn.num_accesses)
        self.recorder.txn_end(txn.txn_id, self.sim.now)

    def cpu_utilization(self) -> float:
        return self.cpu.utilization()

    def reset_stats(self) -> None:
        self.cpu.reset_stats()
        self.buffer.reset_stats()
        self.comm.reset_stats()
        self.mpl.reset_stats()
        self.arrivals.reset()
        self.completions.reset()
        self.aborts.reset()
        self.response_time.reset()
        self.response_time_per_access.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Node({self.node_id})"
