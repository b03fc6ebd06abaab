"""The coalesced scheduler must be observably event-per-step equivalent.

:func:`~repro.sim.resources.hold_seq` -- one-leg, sequential and NESTED
legs alike -- replaces the old request/timeout/release generators with
ONE re-armed scheduled entry per compound operation -- that is where
the event-count reduction comes from.  The contract is that this is
purely mechanical: every process must observe the same grant order, the
same completion instants and the same busy time as the event-per-step
formulation it replaced, and an interrupt at any stage
must leave the resources exactly as the event-per-step formulation's
cancel/``finally`` blocks do.  These properties drive both formulations
over the same randomized workloads on twin simulators and require exact
agreement.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.resources import NESTED, Resource, hold_seq, hold_seq_cancel

short_floats = st.floats(
    min_value=0.0, max_value=4.0, allow_nan=False, allow_infinity=False
)
jobs = st.lists(
    st.tuples(short_floats, short_floats),  # (start delay, hold duration)
    min_size=1,
    max_size=25,
)


def reference_hold(sim, resource, duration):
    """The event-per-step formulation ``hold`` replaced."""
    request = resource.request()
    yield request
    yield sim.timeout(duration)
    resource.release()


def assert_busy_times_close(fast, slow):
    """Busy times are mathematically equal but not bit-equal.

    A hand-off skips the busy-level update across a constant-level
    span, so the coalesced path accrues the same area in a different
    association order than the per-step twin.
    """
    assert len(fast) == len(slow)
    for a, b in zip(fast, slow):
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


class TestHoldEquivalence:
    @given(jobs, st.integers(min_value=1, max_value=3))
    @settings(max_examples=60, deadline=None)
    def test_hold_matches_request_timeout_release(self, schedule, capacity):
        def run(coalesced):
            sim = Simulator()
            resource = Resource(sim, capacity=capacity)
            completions = {}

            def worker(tag, start, duration):
                yield sim.timeout(start)
                if coalesced:
                    yield hold_seq(sim, ((resource, duration, None),))
                else:
                    yield from reference_hold(sim, resource, duration)
                completions[tag] = sim.now

            for tag, (start, duration) in enumerate(schedule):
                sim.process(worker(tag, start, duration))
            sim.run()
            return completions, resource.busy_time(), sim.now

        fast, fast_busy, fast_now = run(coalesced=True)
        slow, slow_busy, slow_now = run(coalesced=False)
        assert fast == slow
        assert fast_now == slow_now
        assert_busy_times_close([fast_busy], [slow_busy])

    @given(jobs)
    @settings(max_examples=40, deadline=None)
    def test_coalesced_run_never_processes_more_events(self, schedule):
        def run(coalesced):
            sim = Simulator()
            resource = Resource(sim, capacity=1)

            def worker(start, duration):
                yield sim.timeout(start)
                if coalesced:
                    yield hold_seq(sim, ((resource, duration, None),))
                else:
                    yield from reference_hold(sim, resource, duration)

            for start, duration in schedule:
                sim.process(worker(start, duration))
            sim.run()
            return sim.events_processed

        assert run(coalesced=True) <= run(coalesced=False)


leg_lists = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=1)),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=5,
)


def run_chains(chains, coalesced):
    """Run each chain of ``(resource index or None, time)`` legs.

    ``coalesced`` runs a chain as one ``hold_seq``; otherwise each leg
    is a timeout or a request/timeout/release.  Returns the completion
    instants and the order they happened in, plus per-resource busy time.
    """
    sim = Simulator()
    resources = [Resource(sim, capacity=1) for _ in range(2)]
    completions = []

    def worker(tag, start, legs):
        yield sim.timeout(start)
        if coalesced:
            yield hold_seq(
                sim,
                tuple(
                    (None if index is None else resources[index], duration, None)
                    for index, duration in legs
                ),
            )
        else:
            for index, duration in legs:
                if index is None:
                    yield sim.timeout(duration)
                else:
                    yield from reference_hold(sim, resources[index], duration)
        completions.append((tag, sim.now))

    for tag, (start, legs) in enumerate(chains):
        sim.process(worker(tag, start, legs))
    sim.run()
    return completions, [r.busy_time() for r in resources]


def _tie_free(chains):
    """Give every leg its own power-of-two offset, as ``_build_legs`` does.

    No two leg ends then coincide, nor does a leg end fall on a whole
    unit (the starts), so FIFO tie-breaks never decide the outcome.
    """
    return [
        (
            start,
            [
                (index, duration + 2.0 ** -(10 + 5 * tag + position))
                for position, (index, duration) in enumerate(legs)
            ],
        )
        for tag, (start, legs) in enumerate(chains)
    ]


class TestHoldSeqEquivalence:
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=3), leg_lists),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_hold_seq_matches_per_leg_formulation(self, chains):
        chains = _tie_free(chains)
        fast, fast_busy = run_chains(chains, coalesced=True)
        slow, slow_busy = run_chains(chains, coalesced=False)
        assert fast == slow
        assert_busy_times_close(fast_busy, slow_busy)

    def test_zero_length_tie_keeps_the_coalesced_order(self):
        """Zero-length legs tied at one instant: the paths diverge.

        The per-leg formulation spends one grant-event hop per request,
        so worker 1's request overtakes worker 0's second leg on r0 there;
        the coalesced path re-arms worker 0's next leg in the same step
        and keeps r0.  Matching the per-leg order would cost events and
        re-anchor the goldens, so the coalesced order is pinned here.
        """
        chains = [(0.0, [(0, 0.0), (0, 1.0)]), (0.0, [(None, 0.0), (0, 0.0)])]
        assert run_chains(chains, coalesced=True) == (
            [(0, 1.0), (1, 1.0)],
            [1.0, 0.0],
        )
        assert run_chains(chains, coalesced=False) == (
            [(1, 0.0), (0, 1.0)],
            [1.0, 0.0],
        )


class TestHeldChainEquivalence:
    @given(
        st.lists(
            st.tuples(short_floats, short_floats, short_floats),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_held_chain_matches_nested_formulation(self, chains):
        def run(coalesced):
            sim = Simulator()
            outer = Resource(sim, capacity=1)
            inner = Resource(sim, capacity=1)
            completions = {}

            def worker(tag, start, outer_time, inner_time):
                yield sim.timeout(start)
                if coalesced:
                    yield hold_seq(
                        sim,
                        ((outer, outer_time, NESTED), (inner, inner_time, None)),
                    )
                else:
                    request = outer.request()
                    yield request
                    yield sim.timeout(outer_time)
                    inner_request = inner.request()
                    yield inner_request
                    yield sim.timeout(inner_time)
                    inner.release()
                    outer.release()
                completions[tag] = sim.now

            for tag, (start, outer_time, inner_time) in enumerate(chains):
                sim.process(worker(tag, start, outer_time, inner_time))
            sim.run()
            return (completions, sim.now), [outer.busy_time(), inner.busy_time()]

        fast, fast_busy = run(coalesced=True)
        slow, slow_busy = run(coalesced=False)
        assert fast == slow
        assert_busy_times_close(fast_busy, slow_busy)


class _Stop(Exception):
    """Interrupt cause thrown into a worker; a clean process end."""

    unhandled_ok = True


def reference_seq(sim, legs):
    """Event-per-step twin of ``hold_seq``: grab/timeout/release per leg.

    A NESTED leg keeps its unit across the remaining legs, released by
    the ``finally`` around them -- innermost first, on every path.
    """
    if not legs:
        return
    (resource, duration, kind), rest = legs[0], legs[1:]
    if resource is None:
        yield sim.timeout(duration)
        yield from reference_seq(sim, rest)
        return
    yield from resource.grab()
    try:
        yield sim.timeout(duration)
        if kind is NESTED:
            yield from reference_seq(sim, rest)
    finally:
        resource.release()
    if kind is not NESTED:
        yield from reference_seq(sim, rest)


cancel_legs = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=2)),
        st.integers(min_value=0, max_value=3),
        st.booleans(),  # NESTED (resource legs only)
    ),
    min_size=1,
    max_size=4,
)
cancel_workers = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),  # start delay
        cancel_legs,
        st.integers(min_value=0, max_value=2),  # tail after the hold
        st.one_of(st.none(), st.integers(min_value=0, max_value=12)),
        st.booleans(),  # cancel twice
    ),
    min_size=1,
    max_size=6,
)


def _queued_behind(blocked, legs, at):
    """Worker 0 holds resource ``blocked`` for 3; worker 1 runs ``legs``
    and is interrupted at ``at + 0.5``."""
    return [(0, [(blocked, 3, False)], 0, None, False), (0, legs, 0, at, False)]


def _build_legs(resources, tag, legs):
    """Leg specs -> ``hold_seq`` legs, deadlock- and tie-free.

    Units held under later legs are taken in ascending resource order:
    a leg on a resource at or below a held NESTED one becomes a pure
    delay, so no chain can wait for a unit it (or a waiter on it) holds.
    Each leg's whole-unit duration gets its own power-of-two offset
    below 2**-9, so no two workers' leg ends ever coincide, nor does any
    leg end fall on a whole or half unit (starts and interrupts): the
    coalesced path schedules its timers with fewer same-instant hops
    than the twin, so their FIFO tie-breaks are not comparable.
    """
    built = []
    floor = -1
    for position, (index, duration, nested) in enumerate(legs):
        if index is not None and index <= floor:
            index = None
        kind = None
        if nested and index is not None:
            kind = NESTED
            floor = index
        resource = None if index is None else resources[index]
        offset = 2.0 ** -(10 + 5 * tag + position)
        built.append((resource, duration + offset, kind))
    return tuple(built)


class TestHoldSeqCancellation:
    @given(cancel_workers)
    @settings(max_examples=80, deadline=None)
    # One example per stage an interrupt can hit.  Queued at a leg:
    @example(_queued_behind(0, [(0, 1, False)], at=0))
    # holding a leg (twice cancelled):
    @example([(0, [(0, 3, False)], 0, 1, True)])
    # a NESTED unit held, queued at the inner leg:
    @example(_queued_behind(1, [(0, 1, True), (1, 1, False)], at=1))
    # a NESTED unit held, holding the inner leg:
    @example([(0, [(0, 1, True), (1, 2, False)], 0, 1, False)])
    # a NESTED unit held across a pure-delay leg:
    @example([(0, [(0, 1, True), (None, 2, False)], 0, 1, False)])
    # after completion, inside the same cancel guard (twice cancelled):
    @example([(0, [(0, 1, True), (1, 1, False)], 2, 2, True)])
    def test_interrupt_at_any_stage_matches_try_finally_twin(self, workers):
        def run(coalesced):
            sim = Simulator()
            resources = [Resource(sim, capacity=1) for _ in range(3)]
            log = {}

            def worker(tag, start, legs, tail, cancel_twice):
                yield sim.timeout(start)
                if coalesced:
                    done = hold_seq(sim, legs)
                    try:
                        yield done
                        yield sim.timeout(tail)
                    except BaseException:
                        hold_seq_cancel(done)
                        if cancel_twice:
                            # simlint: disable-next=RES003 -- idempotence under test
                            hold_seq_cancel(done)
                        log[tag] = ("cancelled", sim.now)
                        raise
                else:
                    try:
                        yield from reference_seq(sim, legs)
                        yield sim.timeout(tail)
                    except BaseException:
                        log[tag] = ("cancelled", sim.now)
                        raise
                log[tag] = ("done", sim.now)

            def interrupter(process, at):
                yield sim.timeout(at)
                process.interrupt(_Stop())

            for tag, (start, legs, tail, at, twice) in enumerate(workers):
                legs = _build_legs(resources, tag, legs)
                process = sim.process(worker(tag, start, legs, tail, twice))
                if at is not None:
                    # Half-integer instants never tie with a leg end.
                    sim.process(interrupter(process, at + 0.5))
            sim.run()
            for resource in resources:
                assert resource.busy == 0
                assert resource.queue_length == 0
            # Not sim.now: a cancelled hold's disarmed entry still fires
            # (as a no-op) at its old leg end.
            return log, [r.busy_time() for r in resources]

        fast, fast_busy = run(coalesced=True)
        slow, slow_busy = run(coalesced=False)
        assert fast == slow
        assert_busy_times_close(fast_busy, slow_busy)

    def test_cancel_releases_innermost_first(self):
        """The interrupted holder's units go back inner leg first: the
        inner leg's waiter is granted -- and, with equal service times,
        finishes -- before the waiter on the NESTED unit."""

        def run(coalesced):
            sim = Simulator()
            outer = Resource(sim, capacity=1)
            inner = Resource(sim, capacity=1)
            finished = []

            def victim():
                legs = ((outer, 1.0, NESTED), (inner, 3.0, None))
                if coalesced:
                    done = hold_seq(sim, legs)
                    try:
                        yield done
                    except BaseException:
                        hold_seq_cancel(done)
                        raise
                else:
                    yield from reference_seq(sim, legs)

            def waiter(tag, start, resource):
                yield sim.timeout(start)
                yield from resource.acquire(1.0)
                finished.append((tag, sim.now))

            def interrupter(process):
                yield sim.timeout(1.5)
                process.interrupt(_Stop())

            sim.process(interrupter(sim.process(victim())))
            sim.process(waiter("outer", 0.25, outer))
            sim.process(waiter("inner", 1.25, inner))
            sim.run()
            return finished

        expected = [("inner", 2.5), ("outer", 2.5)]
        assert run(coalesced=True) == run(coalesced=False) == expected


class TestSameTimestampOrdering:
    @given(
        st.lists(
            st.sampled_from(["timeout", "hold", "urgent"]),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_lanes_preserve_urgent_then_fifo_order(self, kinds):
        """Heap timers, coalesced zero-duration holds (the ``_ready``
        lane) and URGENT wakeups (the ``_urgent`` lane) landing on one
        timestamp fire URGENT-first, then FIFO by schedule order."""
        from repro.sim.engine import URGENT

        sim = Simulator()
        fired = []
        # A dedicated idle resource per hold keeps every hold on its
        # uncontended fast path, which arms through the _ready lane.
        for tag, kind in enumerate(kinds):
            if kind == "urgent":
                event = sim.event()
                event._ok = True
                event._value = None
                event.callbacks.append(lambda _e, t=tag: fired.append(t))
                sim._schedule(event, 0.0, priority=URGENT)
            elif kind == "hold":
                entry = hold_seq(sim, ((Resource(sim, capacity=1), 0.0, None),))
                entry.callbacks.append(lambda _e, t=tag: fired.append(t))
            else:
                timer = sim.timeout(0.0)
                timer.callbacks.append(lambda _e, t=tag: fired.append(t))
        sim.run()
        expected = [t for t, kind in enumerate(kinds) if kind == "urgent"] + [
            t for t, kind in enumerate(kinds) if kind != "urgent"
        ]
        assert fired == expected

    @given(st.lists(st.booleans(), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_contended_holds_granted_fifo(self, writers):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        order = []

        def worker(tag):
            yield hold_seq(sim, ((resource, 1.0, None),))
            order.append(tag)

        for tag in range(len(writers)):
            sim.process(worker(tag))
        sim.run()
        assert order == list(range(len(writers)))


class TestStepRunEquivalence:
    @given(jobs)
    @settings(max_examples=40, deadline=None)
    def test_step_loop_reproduces_run(self, schedule):
        def build(sim, resource, log):
            def worker(tag, start, duration):
                yield sim.timeout(start)
                yield hold_seq(sim, ((resource, duration, None),))
                log.append((tag, sim.now))

            for tag, (start, duration) in enumerate(schedule):
                sim.process(worker(tag, start, duration))

        sim_a = Simulator()
        log_a = []
        build(sim_a, Resource(sim_a, capacity=1), log_a)
        sim_a.run()

        sim_b = Simulator()
        log_b = []
        build(sim_b, Resource(sim_b, capacity=1), log_b)
        while sim_b.peek() != math.inf:
            sim_b.step()

        assert log_a == log_b
        assert sim_a.now == sim_b.now
        assert sim_a.events_processed == sim_b.events_processed

    @given(jobs)
    @settings(max_examples=30, deadline=None)
    def test_replay_is_deterministic(self, schedule):
        def run_once():
            sim = Simulator()
            resource = Resource(sim, capacity=2)
            log = []

            def worker(tag, start, duration):
                yield sim.timeout(start)
                yield hold_seq(sim, ((resource, duration, None),))
                log.append((tag, sim.now))

            for tag, (start, duration) in enumerate(schedule):
                sim.process(worker(tag, start, duration))
            sim.run()
            return log, sim.events_processed

        assert run_once() == run_once()


class TestJobsDeterminismAllRegimes:
    """RunResults must be bit-identical under --jobs 1 and --jobs 4."""

    def test_all_regimes_identical_across_worker_counts(self):
        from repro.system.parallel import SweepRunner

        from tests.helpers import system_config

        configs = [
            system_config(
                num_nodes=2,
                coupling=coupling,
                arrival_rate_per_node=50.0,
                warmup_time=0.3,
                measure_time=1.0,
                random_seed=4242,
            )
            for coupling in ("gem", "pcl", "rdma")
        ]
        with SweepRunner(jobs=1) as serial:
            a = serial.map_raw(configs)
        with SweepRunner(jobs=4) as pool:
            b = pool.map_raw(configs)
        for config, x, y in zip(configs, a, b):
            assert x.deterministic_dict() == y.deterministic_dict(), (
                config.coupling
            )
