"""Span tracing from outside the program.

The traced run records one span -- name, start, end, parent -- around
every call into a layer's public boundary.  Nothing under ``src/`` is
edited: :func:`install` rebinds, in every loaded ``repro.*`` module,
each reference that *is* the original callable (so ``from x import y``
call sites are covered) and wraps public methods on the class that
defines them and on every loaded subclass that overrides them.

Spans live in four parallel columns (``array`` -- 24 bytes a span, so a
600k-span run costs ~15 MiB, not the ~80 MiB a list of tuples would).
A layer's *self time* is its spans' durations minus the part their
child spans cover; self times therefore sum to the root span's
duration, which is the invariant ``test_bench.py`` checks.

asyncio: the live substrate's coroutine boundaries (``settle``,
``LiveNetwork.start/close``, ``Supervisor.rolling_restart``) all run in
the main task and nest properly, so one global stack is enough; the
synchronous spans opened by serve tasks while such a coroutine is
suspended (``receive``, ``decode_frame_ex`` ...) become its children,
which is exactly the accounting wanted: ``settle`` self time is what
is left once the work done *during* the wait is subtracted.  Coroutine
spans also stamp ``time.process_time`` so waiting (wall - cpu) can be
separated from busy time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from array import array
from time import perf_counter, process_time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

#: Refuse to trace a run that would record more spans than this: a
#: boundary called ~10^6 times is the later in-program tracing issue's
#: job, and wrapping it from outside would dominate the run.
MAX_SPANS = 4_000_000


class PatchPointMissing(RuntimeError):
    """A boundary named in the patch table no longer exists.

    Raised at install time so a renamed or removed function fails the
    traced run loudly instead of silently reporting a zero layer.
    """


class PatchPoint(NamedTuple):
    """One boundary to wrap.

    ``span`` is the span name; ``module`` the module that defines the
    callable; ``attr`` a function name or ``Class.method``.  With
    ``subclasses`` every loaded subclass that overrides the method is
    wrapped too.  ``inside`` names a span under which this boundary is
    transparent (no span recorded): ``next_hop`` called by
    ``find_route``'s own hop walk is find_route's work, not a FIB
    compiler entry.  ``capture`` stores each call's return value under
    that key in :attr:`SpanRecorder.captured` (how the benchmark reaches
    the protocol object the harness builds internally).  ``sum_len``
    accumulates ``len(result)`` in :attr:`SpanRecorder.byte_sums` (frame
    bytes at the encoder).  ``callback_arg`` marks a registration
    function: the call itself gets no span, but the callable passed at
    that positional index is wrapped, so the span covers the callback
    when it later fires (protocol timers armed through
    ``ProtocolNode.schedule`` run from the engine loop, not from
    ``receive``).
    """

    span: str
    module: str
    attr: str
    subclasses: bool = False
    inside: Optional[str] = None
    capture: Optional[str] = None
    sum_len: bool = False
    callback_arg: Optional[int] = None


#: The layer boundaries, named after the modules they enter.
PATCH_POINTS: Tuple[PatchPoint, ...] = (
    PatchPoint("harness.session", "repro.harness.session", "execute_cell"),
    PatchPoint("harness.chaos", "repro.harness.chaos", "execute_chaos_cell"),
    PatchPoint("workloads.scenarios.build", "repro.harness.spec", "ScenarioSpec.build"),
    PatchPoint(
        "protocols.registry.build",
        "repro.harness.spec",
        "ProtocolSpec.instantiate",
        capture="protocol",
    ),
    PatchPoint("protocols.registry.build", "repro.protocols.base", "RoutingProtocol.build"),
    PatchPoint("simul.engine.run", "repro.simul.engine", "Simulator.run"),
    PatchPoint("simul.network.send", "repro.simul.network", "SimNetwork.send"),
    PatchPoint("protocols.receive", "repro.simul.node", "ProtocolNode.receive"),
    PatchPoint(
        "protocols.timer", "repro.simul.node", "ProtocolNode.schedule", callback_arg=2
    ),
    PatchPoint(
        "protocols.find_route",
        "repro.protocols.base",
        "RoutingProtocol.find_route",
        subclasses=True,
    ),
    PatchPoint(
        "protocols.next_hop",
        "repro.protocols.base",
        "RoutingProtocol.next_hop",
        subclasses=True,
        inside="protocols.find_route",
    ),
    PatchPoint(
        "protocols.next_hop",
        "repro.protocols.base",
        "RoutingProtocol.source_route",
        subclasses=True,
        inside="protocols.find_route",
    ),
    PatchPoint("core.synthesis.route", "repro.core.synthesis", "synthesize_route"),
    PatchPoint("faults.prober.run", "repro.faults.prober", "RoutePulse.run"),
    PatchPoint("traffic.workload.gen", "repro.harness.spec", "TrafficSpec.build"),
    PatchPoint("traffic.fib.compile", "repro.traffic.fib", "compile_fib"),
    PatchPoint("traffic.replay.replay", "repro.traffic.replay", "TailSeries.record"),
    PatchPoint("simul.wire.encode", "repro.simul.wire", "encode_frame", sum_len=True),
    PatchPoint("simul.wire.decode", "repro.simul.wire", "decode_frame_ex"),
    PatchPoint("live.network.send", "repro.live.network", "LiveNetwork.send"),
    PatchPoint("live.network.start", "repro.live.network", "LiveNetwork.start"),
    PatchPoint("live.network.close", "repro.live.network", "LiveNetwork.close"),
    PatchPoint("live.runner.settle", "repro.live.runner", "settle"),
    PatchPoint(
        "live.supervisor.rolling",
        "repro.live.supervisor",
        "Supervisor.rolling_restart",
    ),
    PatchPoint("harness.record.write", "repro.harness.record", "write_jsonl"),
)

#: The untraced run installs only this: one call per run, no span, so
#: failure accounting can read counters the RunRecord does not carry.
CAPTURE_ONLY: Tuple[PatchPoint, ...] = tuple(
    p for p in PATCH_POINTS if p.capture is not None
)

ROOT_SPAN = "bench.root"


class SpanRecorder:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self, timed: bool = True) -> None:
        #: ``False`` = capture-only: wrappers store return values, no spans.
        self.timed = timed
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        #: span index -> (cpu at start, cpu at end), coroutine spans only.
        self.cpu: Dict[int, Tuple[float, float]] = {}
        self.stack: List[int] = []
        self.captured: Dict[str, List[Any]] = {}
        #: span name -> summed len() of results (``sum_len`` points).
        self.byte_sums: Dict[str, int] = {}
        #: span name -> wrapped callables installed under it.
        self.installed: Dict[str, List[str]] = {}

    # ------------------------------------------------------------- recording

    def intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        """Open a span (the slow path: root and coroutine spans)."""
        idx = len(self.start)
        stack = self.stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        now = perf_counter()
        if self.stack.pop() != idx:
            raise RuntimeError(
                f"span stack corrupted closing {self.names[self.name_id[idx]]}: "
                "coroutine spans interleaved across tasks"
            )
        self.end[idx] = now

    def root(self, name: str = ROOT_SPAN) -> "_RootSpan":
        return _RootSpan(self, self.intern(name))

    # -------------------------------------------------------------- wrapping

    def wrap(self, fn: Callable, point: PatchPoint) -> Callable:
        """The traced stand-in for ``fn``."""
        capture = point.capture
        if not self.timed:
            store = self.captured.setdefault(capture, [])

            @functools.wraps(fn)
            def capturing(*args, **kwargs):
                result = fn(*args, **kwargs)
                store.append(result)
                return result

            return capturing

        nid = self.intern(point.span)
        if point.callback_arg is not None:
            index = point.callback_arg
            spanned = self._spanned

            @functools.wraps(fn)
            def registering(*args, **kwargs):
                callback = spanned(args[index], nid)
                return fn(*args[:index], callback, *args[index + 1 :], **kwargs)

            return registering
        if inspect.iscoroutinefunction(fn):
            cpu = self.cpu
            span_open = self.open
            span_close = self.close

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                idx = span_open(nid)
                cpu0 = process_time()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    cpu[idx] = (cpu0, process_time())
                    span_close(idx)

            return traced_async

        observe = None
        if capture:
            observe = self.captured.setdefault(capture, []).append
        elif point.sum_len:
            byte_sums = self.byte_sums
            byte_sums[point.span] = 0

            def observe(result, span=point.span):
                byte_sums[span] += len(result)

        # Transparent when re-entered through super() (same boundary, one
        # span) or under the span named `inside`.
        guarded = point.subclasses or point.inside is not None
        inside = self.intern(point.inside) if point.inside else nid
        return functools.wraps(fn)(
            self._spanned(fn, nid, guarded=guarded, inside=inside, observe=observe)
        )

    def _spanned(
        self,
        fn: Callable,
        nid: int,
        *,
        guarded: bool = False,
        inside: int = -1,
        observe: Optional[Callable[[Any], None]] = None,
    ) -> Callable:
        """The hot synchronous wrapper: everything inlined, methods hoisted.

        A span costs two clock reads and five appends.  Every traced
        call runs under the root span, so the stack is never empty.
        """
        stack = self.stack
        name_id = self.name_id
        start = self.start
        end = self.end
        push, pop = stack.append, stack.pop
        add_name, add_parent = name_id.append, self.parent.append
        add_start, add_end = start.append, end.append

        def traced(*args, **kwargs):
            if guarded:
                top = name_id[stack[-1]]
                if top == nid or top == inside:
                    return fn(*args, **kwargs)
            idx = len(start)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            push(idx)
            add_start(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def install(self, points: Tuple[PatchPoint, ...] = PATCH_POINTS) -> None:
        """Wrap every patch point; raise :class:`PatchPointMissing` if one is gone."""
        for point in points:
            try:
                module = importlib.import_module(point.module)
            except ImportError as exc:
                raise PatchPointMissing(f"{point.module}: {exc}") from exc
            owner_name, _, method = point.attr.rpartition(".")
            if not owner_name:
                self._install_function(module, point)
                continue
            owner = getattr(module, owner_name, None)
            if not inspect.isclass(owner) or not inspect.isfunction(
                vars(owner).get(method)
            ):
                raise PatchPointMissing(
                    f"{point.module}.{point.attr} is not defined "
                    f"(span {point.span!r} would silently read zero)"
                )
            classes = [owner]
            if point.subclasses:
                classes.extend(_all_subclasses(owner))
            for cls in classes:
                raw = vars(cls).get(method)
                if raw is None or not inspect.isfunction(raw):
                    continue
                setattr(cls, method, self.wrap(raw, point))
                self.installed.setdefault(point.span, []).append(
                    f"{cls.__module__}.{cls.__qualname__}.{method}"
                )

    def _install_function(self, module, point: PatchPoint) -> None:
        original = getattr(module, point.attr, None)
        if not inspect.isfunction(original):
            raise PatchPointMissing(
                f"{point.module}.{point.attr} is not defined "
                f"(span {point.span!r} would silently read zero)"
            )
        wrapped = self.wrap(original, point)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
        self.installed.setdefault(point.span, []).append(
            f"{point.module}.{point.attr}"
        )

    # -------------------------------------------------------------- analysis

    def check(self) -> None:
        """Structural invariants: closed, parented, nested in time."""
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} span(s) never closed")
        if len(self.start) > MAX_SPANS:
            raise RuntimeError(
                f"{len(self.start)} spans: a wrapped boundary is on a per-item "
                "hot path; unwrap it"
            )
        start, end, parent = self.start, self.end, self.parent
        for i in range(len(start)):
            p = parent[i]
            if p >= i:
                raise RuntimeError(f"span {i} has parent {p} opened after it")
            if end[i] < start[i]:
                raise RuntimeError(f"span {i} ends before it starts")
            if p >= 0 and not (start[p] <= start[i] and end[i] <= end[p]):
                raise RuntimeError(f"span {i} is not inside its parent {p}")

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive time, self time."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        out: Dict[str, Dict[str, float]] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        names, name_id = self.names, self.name_id
        for i in range(n):
            row = out[names[name_id[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def idle_by_name(self) -> Dict[str, float]:
        """Per cpu-stamped span name: exclusive waiting time (wall - cpu).

        Only coroutine spans and the root carry cpu stamps.  A span's
        exclusive idle is its own wall - cpu minus that of the stamped
        spans nested directly under it, so a ``settle`` inside
        ``rolling_restart`` is not counted twice and what remains on the
        root is the waiting no boundary owns (the chaos driver's
        scheduled sleeps between event groups).
        """
        idle = {
            idx: max(0.0, (self.end[idx] - self.start[idx]) - (cpu1 - cpu0))
            for idx, (cpu0, cpu1) in self.cpu.items()
        }
        exclusive = dict(idle)
        for idx in idle:
            p = self.parent[idx]
            while p >= 0 and p not in idle:
                p = self.parent[p]
            if p >= 0:
                exclusive[p] -= idle[idx]
        out: Dict[str, float] = {}
        for idx, value in exclusive.items():
            name = self.names[self.name_id[idx]]
            out[name] = out.get(name, 0.0) + max(0.0, value)
        return out

    def dump(self, path: str) -> None:
        """Write the spans column-wise (name ids index ``names``)."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name_id": self.name_id.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "parent": self.parent.tolist(),
                },
                fh,
                separators=(",", ":"),
            )


class _RootSpan:
    """Context manager for the span the whole measured call runs under."""

    def __init__(self, recorder: SpanRecorder, nid: int) -> None:
        self.recorder = recorder
        self.nid = nid
        self.idx = -1
        self.cpu0 = 0.0

    def __enter__(self) -> "_RootSpan":
        self.idx = self.recorder.open(self.nid)
        self.cpu0 = process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.recorder.cpu[self.idx] = (self.cpu0, process_time())
        self.recorder.close(self.idx)


def _all_subclasses(cls) -> List[type]:
    out: List[type] = []
    seen = set()
    todo = list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        if sub in seen:
            continue
        seen.add(sub)
        out.append(sub)
        todo.extend(sub.__subclasses__())
    return sorted(out, key=lambda c: (c.__module__, c.__qualname__))
