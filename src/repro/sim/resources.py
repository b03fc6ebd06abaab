"""Queued resources and mailboxes.

:class:`Resource` models a multi-server FCFS service station (CPUs, a
disk, the GEM store, the network).  It is a counted semaphore with a
FIFO wait queue and one statistic, the time-weighted busy-server curve,
from which device busy times and utilizations are reported.

:func:`hold_seq` is the one compound hold: a sequence of legs -- a CPU
slice, a disk I/O's CPU/controller/transfer/disk legs, a CPU held
across a synchronous GEM access -- driven by one scheduled entry, with
:func:`hold_seq_cancel` as its one cancel.

:class:`Store` is an unbounded FIFO mailbox used for message passing
between model components (e.g. the communication subsystem delivering
lock requests to a remote node's lock-manager process).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import Any, Deque, Generator, Optional, Tuple

from repro.sim.engine import (
    NORMAL,
    _PENDING,
    Event,
    SimulationError,
    Simulator,
    _Callback,
)
from repro.sim.stats import TimeWeighted

__all__ = ["NESTED", "Resource", "Store", "hold_seq", "hold_seq_cancel"]


class Resource:
    """A multi-server FCFS resource.

    Usage from a process::

        yield resource.request()
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release()

    or, equivalently, the :meth:`acquire` helper::

        yield from resource.acquire(service_time)
    """

    __slots__ = ("sim", "capacity", "name", "_busy", "_queue", "busy_stat")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        self._busy = 0
        self._queue: Deque[Event] = deque()
        self.busy_stat = TimeWeighted(f"{self.name}.busy", now=sim.now)

    @property
    def busy(self) -> int:
        """Number of units currently held."""
        return self._busy

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a unit."""
        return len(self._queue)

    def request(self) -> Event:
        """Request one unit; the returned event fires when granted."""
        # Manual Event construction: this is the hottest allocation in
        # the model (one per CPU slice / IO), and skipping the __init__
        # frame is measurable.
        sim = self.sim
        event = Event.__new__(Event)
        event.sim = sim
        event.callbacks = []
        event._value = _PENDING
        event._ok = True
        event._scheduled = False
        busy = self._busy
        if busy < self.capacity and not self._queue:
            # Uncontended grant, with busy_stat.update(busy + 1, now)
            # inlined: the overwhelmingly common case.
            self._busy = busy = busy + 1
            now = sim.now
            stat = self.busy_stat
            stat._area += stat._value * (now - stat._last_time)
            stat._last_time = now
            stat._value = busy
            event._value = self
            event._scheduled = True
            sim._seq += 1
            sim._ready.append((now, NORMAL, sim._seq, event))
        else:
            self._queue.append(event)
        return event

    def release(self) -> None:
        """Return one unit, granting it to the next waiter if any."""
        busy = self._busy
        if busy <= 0:
            raise RuntimeError(f"release() on idle resource {self.name!r}")
        queue = self._queue
        if not queue:
            self._busy = busy = busy - 1
            now = self.sim.now
            # Inlined busy_stat.update(busy, now); the simulation clock
            # is monotone, so the backwards-time guard cannot fire.
            stat = self.busy_stat
            stat._area += stat._value * (now - stat._last_time)
            stat._last_time = now
            stat._value = busy
            return
        # Hand-off: the released unit goes straight to the queue head,
        # so the busy level does not change and busy_stat needs no
        # update.  The grant either arms the leg-end timer of a
        # hold_seq entry or triggers the grant event of a plain request.
        sim = self.sim
        now = sim.now
        event = queue.popleft()
        if type(event) is _Callback:
            # A hold_seq leg: arm the leg-end timer directly instead of
            # waking the holder just to start it.  A set ``_scheduled``
            # tells hold_seq_cancel the unit is held, not queued.
            event._scheduled = True
            duration = event.duration
            sim._seq += 1
            if duration:
                heappush(sim._heap, (now + duration, NORMAL, sim._seq, event))
            else:
                sim._ready.append((now, NORMAL, sim._seq, event))
        else:
            # Inlined event.succeed(self): the event came off the wait
            # queue, so it cannot be triggered yet.
            event._value = self
            event._scheduled = True
            sim._seq += 1
            sim._ready.append((now, NORMAL, sim._seq, event))

    def cancel(self, event: Event) -> None:
        """Withdraw a pending :meth:`request`.

        A requester that dies while waiting (e.g. a transaction aborted
        as a deadlock victim) must cancel its request: otherwise a later
        ``release`` grants the unit to the dead event and the unit leaks
        forever.  If the grant already happened, the unit is returned.
        """
        if event.triggered:
            self.release()
        else:
            _unqueue(self, event)

    def grab(self) -> Generator[Event, Any, None]:
        """Request a unit and wait for the grant, cancel-safe.

        Unlike a bare ``yield resource.request()``, an exception thrown
        into the generator while queued (deadlock abort, node crash)
        cancels the pending request, so a later release cannot grant
        the unit to a dead event and leak it.  The caller holds the
        unit on return and must pair this with ``release()`` in a
        ``finally`` block.
        """
        # simlint: disable-next=RES002 -- grab() transfers the held unit to its caller by contract
        request = self.request()
        try:
            yield request
        except BaseException:
            self.cancel(request)
            raise

    def acquire(self, duration: float) -> Generator[Event, Any, None]:
        """Request a unit, hold it for ``duration``, release it.

        The cancel-safe one-leg :func:`hold_seq`: the generator suspends
        exactly once, on the leg-end entry, whether or not the resource
        is contended.  An exception thrown into the generator while it
        waits (or holds) returns the unit.
        """
        entry = hold_seq(self.sim, ((self, duration, None),))
        try:
            yield entry
        except BaseException:
            hold_seq_cancel(entry)
            raise

    def busy_time(self, now: Optional[float] = None) -> float:
        """Accumulated busy server-seconds since the last reset."""
        now = self.sim.now if now is None else now
        return self.busy_stat.integral(now)

    def utilization(self, now: Optional[float] = None) -> float:
        """Time-average fraction of units busy since the last reset."""
        now = self.sim.now if now is None else now
        return self.busy_stat.time_average(now) / self.capacity

    def reset_stats(self) -> None:
        """Discard accumulated statistics (end of warm-up)."""
        self.busy_stat.reset(self.sim.now)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Resource({self.name!r}, busy={self._busy}/{self.capacity}, "
            f"queued={len(self._queue)})"
        )


# -- the compound hold ----------------------------------------------------

#: The legs of a :func:`hold_seq`, each ``(resource, time, kind)``.
Legs = Tuple[Tuple[Optional[Resource], float, Any], ...]

#: Leg kind of a :func:`hold_seq` leg whose resource stays held under
#: the legs that follow it, released (innermost first) when the
#: sequence ends -- the CPU held across a synchronous GEM access.
NESTED: Any = object()


class _SeqState:
    """Progress record of one multi-leg :func:`hold_seq`."""

    __slots__ = ("legs", "count", "index", "current", "nested", "done", "entry")

    legs: Legs
    count: int
    #: Legs started so far; ``legs[index - 1]`` is in flight.
    index: int
    #: The in-flight leg's resource, queued for (``entry`` not
    #: scheduled) or held; None for a pure delay.
    current: Optional[Resource]
    #: Resources of finished NESTED legs, still held, as a linked
    #: stack ``(innermost, (next, ... None))``.
    nested: Optional[Tuple[Resource, Any]]
    done: _Callback
    entry: _Callback


def _unqueue(resource: Resource, event: Event) -> None:
    """Withdraw a still-queued request or leg entry (cancel path)."""
    try:
        resource._queue.remove(event)
    except ValueError:
        raise ValueError(f"cancel of unknown request on {resource.name!r}") from None


def _one_leg_end(entry: Event) -> None:
    """Dispatch of a one-leg :func:`hold_seq` entry at its end.

    Returns the held unit (granting the next waiter, if any) *before*
    the holder resumes -- exactly where the ``finally: release()`` of
    the event-per-step formulation ran.  A cancelled hold cleared
    ``data``, making this a no-op.
    """
    resource = entry.data
    if resource is not None:
        entry.data = None
        resource.release()


def _seq_advance(entry: Event) -> None:
    """A leg's timer fired: end that leg, then start the next one.

    The ended leg's resource is released, or kept held under the
    following legs when the leg is NESTED.  Past the last leg every
    NESTED resource is released innermost-first and the ``done``
    event's callbacks run inline, exactly where the last release of the
    step-per-leg formulation resumed its waiter.
    """
    state = entry.data
    if state is None:
        return
    legs = state.legs
    index = state.index
    current = state.current
    if current is not None:
        if legs[index - 1][2] is NESTED:
            state.nested = (current, state.nested)
        else:
            current.release()
    if index == state.count:
        entry.data = None
        nested = state.nested
        while nested is not None:
            resource, nested = nested
            resource.release()
        done = state.done
        done.data = None
        callbacks = done.callbacks
        done.callbacks = None
        if callbacks:
            for callback in callbacks:
                callback(done)
        return
    state.index = index + 1
    # Re-arm: the run loop consumed the callbacks list when the entry
    # fired, so every leg installs a fresh dispatch.  The leg then
    # starts with hold_seq's first-leg code, inlined in both places: a
    # shared helper would cost every hold, the one-leg CPU slice
    # included, one more call.
    entry.callbacks = [_seq_advance]
    resource, duration, kind = legs[index]
    if kind is not None and kind is not NESTED:
        duration = kind.exponential(duration)
    state.current = resource
    sim = entry.sim
    now = sim.now
    if resource is not None:
        busy = resource._busy
        if busy < resource.capacity and not resource._queue:
            resource._busy = busy = busy + 1
            stat = resource.busy_stat
            stat._area += stat._value * (now - stat._last_time)
            stat._last_time = now
            stat._value = busy
        else:
            entry._scheduled = False
            entry.duration = duration
            resource._queue.append(entry)
            return
    entry._scheduled = True
    sim._seq += 1
    if duration:
        heappush(sim._heap, (now + duration, NORMAL, sim._seq, entry))
    else:
        sim._ready.append((now, NORMAL, sim._seq, entry))


def hold_seq(sim: Simulator, legs: Legs) -> Event:
    """The compound hold: hold each leg in turn, one resume.

    Each leg is ``(resource, time, kind)``.  The resource is acquired
    (FIFO alongside plain requests) and held for the leg; a ``None``
    resource is a plain delay.  ``kind`` picks the leg's shape:

    * ``None`` -- held for exactly ``time``, released before the next
      leg starts (a CPU slice; a disk I/O's controller or disk leg);
    * a :class:`~repro.sim.rng.Stream` -- held for
      ``stream.exponential(time)``, drawn when the leg *starts*, the
      instant the event-per-step formulation sampled it, so the
      interleaving of draws on a shared stream is unchanged;
    * :data:`NESTED` -- held for exactly ``time`` and then kept held
      under every following leg, released innermost-first when the
      sequence ends (the paper's synchronous GEM access: the CPU stays
      busy while the access queues for and holds the GEM server).

    ONE scheduled entry walks the whole sequence, fired once per leg;
    the caller suspends exactly once, on the returned completion event.
    Queueing, busy time, RNG draws and release instants are those of
    the step-per-leg formulation.  A one-leg sequence returns its armed
    entry itself as the completion event: no separate completion event
    and no progress record.

    The caller *must* guard the ``yield`` with :func:`hold_seq_cancel`
    so an interrupt at any stage returns whatever is held or queued::

        done = hold_seq(sim, ((cpu, setup, NESTED), (gem, access, None)))
        try:
            yield done
        except BaseException:
            hold_seq_cancel(done)
            raise
    """
    count = 0
    for _resource, duration, _kind in legs:
        count += 1
        if duration < 0:
            raise SimulationError(f"negative leg duration: {duration!r}")
    resource, duration, kind = legs[0]
    entry = _Callback.__new__(_Callback)
    entry.sim = sim
    entry._value = None
    entry._ok = True
    done: _Callback
    if count == 1:
        entry.callbacks = [_one_leg_end]
        entry.data = resource
        done = entry
    else:
        entry.callbacks = [_seq_advance]
        done = _Callback.__new__(_Callback)
        done.sim = sim
        done.callbacks = []
        done._value = None
        done._ok = True
        done._scheduled = True
        state = _SeqState()
        state.legs = legs
        state.count = count
        state.index = 1
        state.current = resource
        state.nested = None
        state.done = done
        state.entry = entry
        entry.data = state
        done.data = state
    if kind is not None and kind is not NESTED:
        duration = kind.exponential(duration)
    now = sim.now
    if resource is not None:
        busy = resource._busy
        if busy < resource.capacity and not resource._queue:
            # Uncontended grant: the request() fast path's
            # busy_stat.update(busy + 1, now).
            resource._busy = busy = busy + 1
            stat = resource.busy_stat
            stat._area += stat._value * (now - stat._last_time)
            stat._last_time = now
            stat._value = busy
        else:
            # Contended: park the entry on the FIFO wait queue with its
            # duration; the grant in Resource.release arms the timer.
            entry._scheduled = False
            entry.duration = duration
            resource._queue.append(entry)
            return done
    entry._scheduled = True
    sim._seq += 1
    if duration:
        heappush(sim._heap, (now + duration, NORMAL, sim._seq, entry))
    else:
        sim._ready.append((now, NORMAL, sim._seq, entry))
    return done


def hold_seq_cancel(done: Event) -> None:
    """Tear down an in-flight :func:`hold_seq` at any stage.

    Withdraws the in-flight leg's entry if it is queued, releases the
    leg's unit if held, then releases every NESTED unit held under it,
    innermost first -- what the nested cancel/``finally`` blocks of the
    event-per-step formulation did at the same instant.  A pure-delay
    leg's entry is disarmed in place and fires as a no-op.  Idempotent,
    and a no-op on a completed sequence.
    """
    state = done.data
    if state is None:
        return
    done.data = None
    if type(state) is not _SeqState:
        # One leg: ``done`` is the entry itself, ``state`` its resource.
        if done._scheduled:
            state.release()
        else:
            _unqueue(state, done)
        return
    entry = state.entry
    entry.data = None
    current = state.current
    if current is not None:
        if entry._scheduled:
            current.release()
        else:
            _unqueue(current, entry)
    nested = state.nested
    while nested is not None:
        resource, nested = nested
        resource.release()


class Store:
    """An unbounded FIFO mailbox.

    ``put`` never blocks; ``get`` returns an event that fires with the
    next item (immediately if one is already buffered).  Items are
    delivered to getters in FIFO order on both sides.
    """

    __slots__ = ("sim", "name", "_items", "_getters")

    def __init__(self, sim: Simulator, name: str = "") -> None:
        self.sim = sim
        self.name = name or "store"
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def clear(self) -> int:
        """Drop all buffered items (crash teardown); returns the count."""
        dropped = len(self._items)
        self._items.clear()
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Store({self.name!r}, items={len(self._items)}, waiting={len(self._getters)})"
