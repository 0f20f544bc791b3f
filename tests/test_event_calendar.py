"""The event calendar: an ordering oracle and a heap-traffic tripwire.

:class:`~repro.simul.engine.Simulator` keeps one FIFO bucket per distinct
pending instant and a heap of those instants.  The first half of this
file holds the design it replaced -- one ``heapq`` of ``(time, counter,
handle, fn, args)`` -- as the oracle, and drives both through the same
random program (every entry point, cancels from outside and from inside
callbacks, bursts that cross the compaction threshold, zero-delay
re-scheduling, ``run`` in all its spellings, callbacks that raise),
requiring the same observations after every step.

The second half is the tripwire: heap operations the engine issues per
processed event.  It is a count, not a timing, so it repeats exactly on
any host and fails the moment a per-event heap operation comes back.
"""

from __future__ import annotations

import heapq
import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols.registry import make_protocol
from repro.simul.engine import SimulationLimitError, Simulator
from repro.workloads.scenarios import scaled_scenario

# ------------------------------------------------------------------ oracle


class ReferenceHandle:
    def __init__(self, owner):
        self.owner, self.cancelled, self.queued = owner, False, True

    def cancel(self):
        if not self.cancelled:
            self.cancelled = True
            if self.queued:
                self.owner._note_cancel()


class ReferenceSimulator:
    """The replaced design: a heap of events ordered by (time, counter)."""

    def __init__(self):
        self.heap, self.counter, self.now = [], itertools.count(), 0.0
        self.events_processed = self._cancelled_pending = self.compactions = 0
        self.hit_event_limit = False

    def _push(self, time, handle, fn, args):
        heapq.heappush(self.heap, (time, next(self.counter), handle, fn, args))
        return handle

    def post(self, delay, fn, *args):
        self._push(self.now + delay, None, fn, args)

    def schedule(self, delay, fn, *args):
        return self._push(self.now + delay, ReferenceHandle(self), fn, args)

    def schedule_at(self, time, fn, *args):
        return self._push(time, ReferenceHandle(self), fn, args)

    @property
    def pending(self):
        return len(self.heap)

    def _note_cancel(self):
        self._cancelled_pending += 1
        if Simulator.COMPACT_MIN_QUEUE <= len(self.heap) < self._cancelled_pending * 2:
            self.heap = [e for e in self.heap if e[2] is None or not e[2].cancelled]
            heapq.heapify(self.heap)
            self._cancelled_pending = 0
            self.compactions += 1

    def run(self, until=None, max_events=5_000_000, raise_on_limit=True):
        processed = 0
        self.hit_event_limit = False
        while self.heap:
            time, _, handle, fn, args = self.heap[0]
            if until is not None and time > until:
                break
            if processed >= max_events and (handle is None or not handle.cancelled):
                self.hit_event_limit = True
                if raise_on_limit:
                    raise SimulationLimitError(f"exceeded {max_events} events")
                break
            heapq.heappop(self.heap)
            self.now = time
            if handle is not None:
                handle.queued = False
                if handle.cancelled:
                    self._cancelled_pending -= 1
                    continue
            fn(*args)
            processed += 1
            self.events_processed += 1
        if until is not None and until > self.now:
            self.now = until
        return processed


# ----------------------------------------------------------------- programs


class Boom(Exception):
    """What a misbehaving callback raises."""


def execute(sim, program):
    """Run ``program`` on ``sim``; what an observer sees after every step."""
    log, handles, trail = [], [], []
    tags = itertools.count()

    def add(entry, when, actions):
        tag = next(tags)

        def fire():
            log.append((tag, sim.now))
            for action in actions:
                perform(action)

        if entry == "post":
            assert sim.post(when, fire) is None
        elif entry == "schedule":
            handles.append(sim.schedule(when, fire))
        else:
            at = sim.now + when
            if entry == "schedule_at_int" and at == int(at):
                at = int(at)  # the other spelling of the same instant
            handles.append(sim.schedule_at(at, fire))

    def perform(action):
        kind, *rest = action
        if kind == "add":
            add(*rest)
        elif kind == "cancel":
            if handles:
                handles[rest[0] % len(handles)].cancel()
        elif kind == "burst":
            # Enough timers on few instants (the current one included), most
            # of them cancelled at once, to cross the compaction threshold:
            # instant by instant, the current one first and, unless spared,
            # entirely, so that compaction finds its bucket already dead.
            count, keep_every, spare_now = rest
            first = len(handles)
            for i in range(count):
                add("schedule", i % 7, ())
            for i in sorted(range(count), key=lambda i: i % 7):
                if i % keep_every or (i % 7 == 0 and not spare_now):
                    handles[first + i].cancel()
        elif kind == "raise":
            raise Boom
        else:
            until, max_events, raise_on_limit = rest
            kwargs = {"raise_on_limit": raise_on_limit}
            if until is not None:
                kwargs["until"] = sim.now + until
            if max_events is not None:
                kwargs["max_events"] = max_events
            try:
                return sim.run(**kwargs)
            except (Boom, SimulationLimitError) as exc:
                return type(exc).__name__

    for step in program:
        result = perform(step)
        trail.append(
            (
                result, tuple(log), sim.now, sim.pending, sim._cancelled_pending,
                sim.compactions, sim.hit_event_limit, sim.events_processed,
            )
        )
    return trail


#: Few, colliding instants, in both spellings, zero delay included.
WHENS = st.sampled_from([0, 0.0, 0.5, 1, 1.0, 2, 2.5, 7])
ENTRIES = st.sampled_from(["post", "schedule", "schedule_at", "schedule_at_int"])
CANCEL = st.tuples(st.just("cancel"), st.integers(0, 500))
RAISE = st.just(("raise",))
BURST = st.tuples(st.just("burst"), st.integers(60, 120), st.integers(2, 6), st.booleans())
RUN = st.tuples(
    st.just("run"),
    st.none() | st.sampled_from([0, 0.5, 1, 3, 10]),
    st.none() | st.integers(0, 5),
    st.booleans(),
)


def adds(actions):
    return st.tuples(st.just("add"), ENTRIES, WHENS, st.lists(actions, max_size=3))


#: What a callback may do: cancel anything (its own instant's entries
#: included), re-schedule (zero delay included) events that themselves
#: cancel or raise, burst, raise.
ACTIONS = st.one_of(CANCEL, CANCEL, RAISE, BURST, adds(st.one_of(CANCEL, RAISE)))
PROGRAMS = st.lists(
    st.one_of(adds(ACTIONS), adds(ACTIONS), CANCEL, BURST, RUN, RUN), max_size=30
)
DRAIN = ("run", None, None, True)


@settings(max_examples=300, deadline=None)
@given(PROGRAMS)
def test_calendar_and_event_heap_are_indistinguishable(program):
    # Drained three times at the end: a raising callback stops a run early.
    program = program + [DRAIN, DRAIN, DRAIN]
    assert execute(Simulator(), program) == execute(ReferenceSimulator(), program)


@pytest.mark.parametrize("spare_now", [True, False])
def test_compaction_from_inside_the_instant_being_drained(spare_now):
    """The last callback of an instant schedules a burst onto that very
    instant (and six later ones) and cancels most of it -- compacting the
    bucket ``run`` is draining, to nothing unless spared -- then appends
    a zero-delay event, which must still fire on that instant."""
    tail = ("add", "post", 0, [("add", "schedule_at_int", 0, [])])
    program = [
        ("add", "post", 1, []),
        ("add", "schedule", 1, [("burst", 100, 5, spare_now), tail]),
        ("run", None, 3, False),  # stops mid-instant, after the compaction
        DRAIN,
    ]
    sim = Simulator()
    trail = execute(sim, program)
    assert trail == execute(ReferenceSimulator(), program)
    assert sim.compactions == 1 and sim.pending == 0
    # Tags: 0 the queued post, 1 the burster, 2..101 the burst (timer i is
    # tag 2 + i, on instant 1 + i % 7), 102 / 103 the zero-delay tail.
    kept = [i for i in range(0, 100, 5) if spare_now or i % 7]
    assert sorted(tag for tag, _ in trail[-1][1]) == [0, 1] + [2 + i for i in kept] + [102, 103]
    at_one = [tag for tag, now in trail[-1][1] if now == 1.0]
    assert at_one == [0, 1] + [2 + i for i in kept if i % 7 == 0] + [102, 103]


def test_int_and_float_spellings_of_an_instant_share_a_bucket():
    sim = Simulator()
    log = []
    sim.schedule_at(5, log.append, "a")
    sim.schedule_at(5.0, log.append, "b")
    sim.post(5, log.append, "c")
    sim.schedule(5.0, log.append, "d")
    sim.schedule_at(5, log.append, "e")
    assert sim.run() == 5
    assert log == ["a", "b", "c", "d", "e"]
    assert sim.now == 5 and sim.pending == 0


def test_a_raising_callback_leaves_the_queue_consistent():
    sim = Simulator()
    log = []

    def boom():
        sim.post(0.0, log.append, "after")
        raise Boom

    sim.post(1.0, log.append, "before")
    sim.post(1.0, boom)
    sim.post(1.0, log.append, "same instant")
    sim.post(2.0, log.append, "later")
    with pytest.raises(Boom):
        sim.run()
    assert (log, sim.now, sim.pending) == (["before"], 1.0, 3)
    assert sim.run() == 3
    assert log == ["before", "same instant", "after", "later"]
    assert sim.now == 2.0 and sim.pending == 0


# ------------------------------------------------------------ heap traffic

#: Heap operations (``heappush`` / ``heappop`` / ``heapify``) the engine
#: issues per processed event on the 100-AD plain-ls initial convergence:
#: one push and one pop per *distinct instant* (0.673: 3.0 events share an
#: instant here, 10.6 on the 400-AD ledger cell).  2.0 with a heap of
#: events (one push, one pop per event); the count repeats exactly.
ENGINE_HEAP_OPS_PER_EVENT_BUDGET = 0.7


def test_engine_heap_operations_per_event_stay_within_budget():
    scenario = scaled_scenario(100, seed=0)
    network = make_protocol("plain-ls", scenario.graph, scenario.policies).build()
    network.start()
    heap_ops = {heapq.heappush, heapq.heappop, heapq.heapify}
    ops = 0

    def count(frame, event, arg):
        nonlocal ops
        if (
            event == "c_call"
            and arg in heap_ops
            and frame.f_code.co_filename.endswith("simul/engine.py")
        ):
            ops += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        network.run()
    finally:
        sys.setprofile(previous)
    events = network.sim.events_processed
    assert events > 10_000  # the run really flooded
    assert network.sim.pending == 0
    assert 0 < ops / events <= ENGINE_HEAP_OPS_PER_EVENT_BUDGET, (
        f"{ops} engine heap operations for {events} events = "
        f"{ops / events:.3f} per event (budget {ENGINE_HEAP_OPS_PER_EVENT_BUDGET})"
    )
