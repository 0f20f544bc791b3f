"""The live UDP transport: per-AD endpoints, lifecycle, crash/restart.

Each AD gets one UDP socket on the loopback interface and one asyncio
*serve task* consuming its inbound datagram queue -- the AD's routing
process.  Datagrams are length-prefixed canonical JSON frames
(:mod:`repro.simul.wire`).  Protocol nodes are untouched: they call the
same :class:`~repro.simul.transport.Transport` interface the simulator
implements, so the bytes on the socket are produced and consumed by the
exact code paths the sim exercises.

Node lifecycle (per AD):

* **start** -- bind the socket, record the port, spawn the serve task;
* **serve** -- decode and dispatch inbound frames to ``on_message``;
* **drain** -- stop accepting new datagrams, finish the queued ones;
* **stop** -- cancel the serve task and close the socket.

Crash/restart mirrors :class:`~repro.simul.network.SimNetwork`: a
crashed AD's inbound frames are dropped and counted; restoring may swap
in a fresh node (state-losing restart), and the driver-level
:meth:`~repro.protocols.base.RoutingProtocol.crash_node` /
``restore_node`` / FaultPlan machinery works unchanged because it only
touches the transport surface.
"""

from __future__ import annotations

import asyncio
import enum
import random
import socket as socketlib
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.adgraph.ad import ADId
from repro.adgraph.graph import InterADGraph
from repro.live.clock import LiveClock
from repro.simul.messages import Message
from repro.simul.metrics import MetricsCollector
from repro.simul.node import ProtocolNode
from repro.simul.transport import Clock, Transport
from repro.simul.wire import (
    WireError,
    WireVersionError,
    decode_frame_ex,
    encode_frame,
)


#: Requested kernel buffer per endpoint socket.  Convergence storms
#: burst hundreds of frames at hub ADs faster than one event-loop
#: iteration drains them; the ~208 KiB Linux default silently drops the
#: overflow, which the protocols (correctly) never recover from on a
#: loss-free loopback.  The kernel clamps this to ``net.core.rmem_max``.
SOCKET_BUF_BYTES = 4 << 20

#: Largest datagram a loopback UDP socket accepts (65535 - headers).
MAX_DATAGRAM_BYTES = 65507

#: Wall-clock backoff schedule for transient UDP send errors
#: (``BlockingIOError``/``ENOBUFS``).  One synchronous attempt plus one
#: retry per delay; a frame that still cannot be handed to the kernel is
#: dropped and counted (``live_send_drops``), never raised into the
#: sending node's serve task.
SEND_RETRY_DELAYS = (0.001, 0.005, 0.02)

#: Wall-clock budget for draining one AD's queue at shutdown.  A dead
#: serve task (or a wedged dispatch) must never hang ``close()``:
#: whatever cannot drain inside the budget is flushed and counted.
DRAIN_DEADLINE_S = 5.0


class NodeState(enum.Enum):
    """Lifecycle state of one AD's live runtime."""

    CREATED = "created"
    SERVING = "serving"
    DRAINING = "draining"
    STOPPED = "stopped"


class _Endpoint(asyncio.DatagramProtocol):
    """Datagram receiver: enqueues raw frames for the serve task."""

    def __init__(self, runtime: "_NodeRuntime") -> None:
        self.runtime = runtime

    def datagram_received(self, data: bytes, addr) -> None:
        self.runtime.enqueue(data)

    def error_received(self, exc: Exception) -> None:  # pragma: no cover
        self.runtime.network.fail(exc)


class _NodeRuntime:
    """One AD's socket, queue, and serve task."""

    def __init__(self, network: "LiveNetwork", ad_id: ADId) -> None:
        self.network = network
        self.ad_id = ad_id
        self.state = NodeState.CREATED
        self.queue: "asyncio.Queue[bytes]" = asyncio.Queue()
        self.transport: Optional[asyncio.DatagramTransport] = None
        self.port: Optional[int] = None
        self.task: Optional[asyncio.Task] = None
        #: Frames received but not yet fully processed (idle detection).
        self.unprocessed = 0
        #: Frames fully dispatched over this runtime's lifetime.
        self.dispatched = 0
        #: Wall-clock instant of the last dispatch completion; the
        #: supervisor's hung-node heartbeat (``unprocessed > 0`` with no
        #: progress past the deadline means the serve task is wedged).
        self.last_progress = network._loop.time()
        #: Serve-task restarts performed by the supervisor.
        self.restarts = 0
        #: Whether ``task`` finished while this runtime was still supposed
        #: to serve; counted in ``network._dead_tasks`` while set.
        self.dead = False

    # ------------------------------------------------------------ lifecycle

    async def start(self) -> None:
        """Bind the loopback socket and spawn the serve task."""
        if self.state is not NodeState.CREATED:
            raise RuntimeError(f"AD {self.ad_id} runtime already started")
        loop = asyncio.get_running_loop()
        self.transport, _ = await loop.create_datagram_endpoint(
            lambda: _Endpoint(self), local_addr=("127.0.0.1", 0)
        )
        sock = self.transport.get_extra_info("socket")
        if sock is not None:
            for opt in (socketlib.SO_RCVBUF, socketlib.SO_SNDBUF):
                try:
                    sock.setsockopt(socketlib.SOL_SOCKET, opt, SOCKET_BUF_BYTES)
                except OSError:  # pragma: no cover - platform-dependent
                    pass
        self.port = self.transport.get_extra_info("sockname")[1]
        self.state = NodeState.SERVING
        self._spawn()

    def _spawn(self) -> None:
        """Start a serve task; nothing but its done-callback announces
        that one died, so that wakes whoever waits on the network."""
        self.task = self.network._loop.create_task(
            self.serve(), name=f"ad-{self.ad_id}-serve"
        )
        self.task.add_done_callback(self._task_done)

    def _task_done(self, task: asyncio.Task) -> None:
        # stop() reads STOPPED before it cancels; a replaced task is not ours.
        if task is self.task and self.state is not NodeState.STOPPED:
            self.dead = True
            self.network._dead_tasks += 1
        self.network._wake()

    def _task_replaced(self) -> None:
        """The finished task is being stopped or respawned: dead no more."""
        if self.dead:
            self.dead = False
            self.network._dead_tasks -= 1

    def enqueue(self, data: bytes) -> None:
        """Admit one inbound frame (drop it when not serving)."""
        network = self.network
        network._recv_frames += 1
        if self.state is not NodeState.SERVING:
            # Received, then dropped: ``sent == received`` must hold for
            # every delivered datagram or the network never reads idle again.
            network.metrics.count_drop()
            network._frames_settled()
            return
        self.unprocessed += 1
        network._queued += 1
        self.queue.put_nowait(data)

    async def serve(self) -> None:
        """Decode and dispatch inbound frames until cancelled."""
        network = self.network
        while True:
            data = await self.queue.get()
            try:
                self._dispatch(data)
            except Exception as exc:  # noqa: BLE001 - surfaced at settle()
                network.fail(exc)
            finally:
                self.unprocessed -= 1
                self.dispatched += 1
                self.last_progress = network._loop.time()
                network._queued -= 1
                network._frames_settled()

    def _dispatch(self, data: bytes) -> None:
        network = self.network
        try:
            src, dst, msg, _version = decode_frame_ex(data)
        except WireVersionError as exc:
            # A peer speaking a wire version this build cannot decode is
            # a deployment-skew condition, not a serve-task failure:
            # count it, quarantine the claimed sender, drop the frame.
            network.metrics.count_version_reject()
            node = network.nodes.get(self.ad_id)
            if node is not None and exc.src is not None:
                node.version_blocked.add(exc.src)
                if node.guard is not None:
                    node.guard.quarantine_now(
                        exc.src, f"undecodable wire version {exc.version!r}"
                    )
            return
        except WireError as exc:
            raise WireError(f"AD {self.ad_id}: {exc}") from exc
        if dst != self.ad_id:
            raise WireError(
                f"AD {self.ad_id} received a frame addressed to AD {dst}"
            )
        if network.is_crashed(dst):
            # Mirrors SimNetwork._deliver: a frame in flight to a crashed
            # process is lost and counted.
            network.metrics.count_drop()
            return
        if network._recv_loss_rate > 0.0 and (
            network._recv_loss_rng.random() < network._recv_loss_rate
        ):
            # Seeded chaos loss at the receive path: the frame reached
            # the socket (so sent/received stay balanced for idle
            # detection) but the routing process never sees it.
            network.metrics.count_channel_drop()
            return
        network.metrics.count_message(
            msg.type_name, msg.size_bytes(), network.clock.now
        )
        network.nodes[dst].receive(src, msg)

    async def drain(self, deadline_s: float = DRAIN_DEADLINE_S) -> None:
        """Stop admitting new frames; process everything already queued.

        Bounded: a serve task that died (or wedged) mid-queue would
        otherwise spin this loop forever and hang ``close()``.  On a
        dead task or an expired deadline the leftover frames are flushed
        and counted as queue drops instead.
        """
        if self.state is NodeState.SERVING:
            self.state = NodeState.DRAINING
        loop = asyncio.get_running_loop()
        deadline = loop.time() + deadline_s
        while self.unprocessed > 0:
            if self.task is not None and self.task.done():
                break
            if loop.time() >= deadline:
                break
            await asyncio.sleep(0)
        if self.unprocessed > 0:
            for _ in range(self.flush()):
                self.network.metrics.count_queue_drop()

    async def stop(self) -> None:
        """Drain, cancel the serve task, and close the socket."""
        if self.state is NodeState.STOPPED:
            return
        if self.state is not NodeState.CREATED:
            await self.drain()
        self.state = NodeState.STOPPED
        self._task_replaced()
        if self.task is not None:
            self.task.cancel()
            try:
                await self.task
            except asyncio.CancelledError:
                pass
            self.task = None
        if self.transport is not None:
            self.transport.close()
            self.transport = None

    def flush(self) -> int:
        """Discard queued frames (state-losing restart); returns the count."""
        lost = 0
        while not self.queue.empty():
            self.queue.get_nowait()
            lost += 1
        self.unprocessed -= lost
        self.network._queued -= lost
        self.network._frames_settled()
        return lost

    async def restart_task(self) -> int:
        """Kill and respawn the serve task, keeping the socket.

        The supervised recovery path: the port (and any frame already
        handed to the kernel for it) survives, so idle detection's
        ``sent == received`` invariant is preserved across the restart.
        Queued-but-undispatched frames die with the old task; the count
        of lost frames is returned and accounted as queue drops.
        """
        old = self.task
        if old is not None:
            if old.done():
                # A crashed task's exception must be observed exactly
                # once; the supervisor reports it, we just defuse it.
                if not old.cancelled():
                    old.exception()
            else:
                old.cancel()
                try:
                    await old
                except asyncio.CancelledError:
                    pass
        self._task_replaced()
        lost = self.flush()
        for _ in range(lost):
            self.network.metrics.count_queue_drop()
        self.state = NodeState.SERVING
        self.restarts += 1
        self.last_progress = self.network._loop.time()
        self._spawn()
        return lost


class LiveNetwork(Transport):
    """Binds a topology to protocol nodes over loopback UDP sockets.

    Construct inside a running event loop (the sockets and the clock
    belong to it); :func:`repro.live.runner.run_live` does this for you.
    Driver-facing surface mirrors :class:`~repro.simul.network.SimNetwork`
    where the semantics carry over (``node``/``set_link_status``/
    ``crash_node``/``restore_node``/``flush_ingress``); sim-only
    machinery (channel impairments, bounded ingress models) raises.
    """

    def __init__(
        self,
        graph: InterADGraph,
        time_scale: float = 0.005,
    ) -> None:
        self.graph = graph
        self.metrics = MetricsCollector()
        self.profiler = None
        self.nodes: Dict[ADId, ProtocolNode] = {}
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._clock = LiveClock(loop, time_scale)
        self._clock.on_idle = self._wake
        self._runtimes: Dict[ADId, _NodeRuntime] = {}
        self._crashed: Set[ADId] = set()
        self._errors: List[Exception] = []
        self._started = False
        self._sent_frames = 0
        self._recv_frames = 0
        #: The sum of every runtime's ``unprocessed``.
        self._queued = 0
        #: Sends waiting on a transient-error retry timer.
        self._pending_sends = 0
        #: Runtimes whose serve task is dead (``len(dead_serve_tasks())``).
        self._dead_tasks = 0
        #: Seeded Bernoulli loss at the receive path (chaos injection).
        self._recv_loss_rate = 0.0
        self._recv_loss_rng = random.Random(0)
        #: The attached :class:`~repro.live.supervisor.Supervisor`, when
        #: one is watching this network (set by ``Supervisor.start``).
        self.supervisor = None
        #: What :meth:`wait_for` sleeps on and :meth:`_wake` resolves.
        self._waiter: Optional[asyncio.Future] = None

    # -------------------------------------------------------- transport API

    @property
    def clock(self) -> Clock:
        return self._clock

    def neighbors(self, ad_id: ADId) -> List[ADId]:
        return self.graph.neighbors(ad_id)

    def send(self, src: ADId, dst: ADId, msg: Message) -> None:
        """Encode and transmit one frame over the destination's socket."""
        link = self.graph.link_if_exists(src, dst)
        if link is None:
            raise ValueError(f"AD {src} and AD {dst} are not neighbours")
        if not link.up:
            self.metrics.count_drop()
            return
        runtime = self._runtimes[src]
        target = self._runtimes[dst]
        if runtime.state is NodeState.STOPPED:
            # A timer outlived close(): the AD's process has stopped, so
            # the frame is a counted drop, not an error in the timer.
            self.metrics.count_live_send_drop()
            return
        if runtime.transport is None or target.port is None:
            raise RuntimeError(
                f"AD {src} sent before the network started serving"
            )
        # The sender's per-neighbour tx version: the node's configured
        # version by default; with negotiation on, the negotiated one
        # (or the node's minimum until the handshake completes).
        frame = encode_frame(
            src, dst, msg, version=self.nodes[src].wire_tx_version(dst)
        )
        if len(frame) > MAX_DATAGRAM_BYTES:
            raise ValueError(
                f"{msg.type_name} from AD {src} encodes to {len(frame)} "
                f"bytes, over the {MAX_DATAGRAM_BYTES}-byte UDP limit"
            )
        self._transmit(src, dst, frame, attempt=0)

    def _transmit(self, src: ADId, dst: ADId, frame: bytes, attempt: int) -> None:
        """Hand one frame to the kernel, retrying transient errors.

        ``BlockingIOError``/``ENOBUFS`` under a convergence burst is a
        full kernel buffer, not a protocol failure: back off briefly and
        try again instead of letting the exception kill the sending
        node's serve task.  ``_sent_frames`` counts only successful
        hand-offs; a pending retry keeps the network non-idle via
        ``_pending_sends`` so settle() cannot declare quiescence with a
        frame still waiting to leave.
        """
        runtime = self._runtimes[src]
        target = self._runtimes[dst]
        if runtime.transport is None or target.port is None:
            # The endpoint closed while a retry timer was pending.
            self.metrics.count_live_send_drop()
            return
        try:
            runtime.transport.sendto(frame, ("127.0.0.1", target.port))
        except (BlockingIOError, InterruptedError, OSError):
            if attempt >= len(SEND_RETRY_DELAYS):
                self.metrics.count_live_send_drop()
                return
            self.metrics.count_live_send_retry()
            self._pending_sends += 1
            self._loop.call_later(
                SEND_RETRY_DELAYS[attempt], self._retry_transmit,
                src, dst, frame, attempt + 1,
            )
            return
        self._sent_frames += 1

    def _retry_transmit(
        self, src: ADId, dst: ADId, frame: bytes, attempt: int
    ) -> None:
        self._pending_sends -= 1
        self._transmit(src, dst, frame, attempt)
        self._frames_settled()

    # ----------------------------------------------------------- node mgmt

    def add_node(self, node: ProtocolNode) -> ProtocolNode:
        """Register a protocol node for an AD in the graph."""
        if node.ad_id not in self.graph:
            raise ValueError(f"AD {node.ad_id} is not in the topology")
        if node.ad_id in self.nodes:
            raise ValueError(f"AD {node.ad_id} already has a node")
        self.nodes[node.ad_id] = node
        self._runtimes[node.ad_id] = _NodeRuntime(self, node.ad_id)
        node.attach(self)
        return node

    def node(self, ad_id: ADId) -> ProtocolNode:
        return self.nodes[ad_id]

    async def start(self) -> None:
        """Bind every AD's socket, then run the start hooks (AD id order)."""
        if self._started:
            raise RuntimeError("live network already started")
        self._started = True
        for ad_id in sorted(self._runtimes):
            await self._runtimes[ad_id].start()
        for ad_id in sorted(self.nodes):
            self.nodes[ad_id].start()
        for ad_id in sorted(self.nodes):
            node = self.nodes[ad_id]
            if node.wire.negotiate:
                node.announce_wire()

    async def close(self) -> None:
        """Stop every AD: drain queues, cancel tasks, close sockets."""
        for ad_id in sorted(self._runtimes):
            await self._runtimes[ad_id].stop()

    def set_profiler(self, profiler) -> None:
        """Attach a phase profiler (nodes read it via the transport)."""
        self.profiler = profiler

    # ------------------------------------------------------- idle detection

    def idle(self) -> bool:
        """No frame in flight, none queued, nothing being processed.

        Frames handed to the kernel but not yet received are in flight
        and count as activity (``sent != received``), so a quiet instant
        between send and receive is never mistaken for quiescence; a
        send waiting on a transient-error retry timer counts the same
        way (``_pending_sends``).
        """
        return (
            self._queued == 0
            and self._sent_frames == self._recv_frames
            and self._pending_sends == 0
        )

    def quiescent(self) -> bool:
        """The protocol has terminated, exactly: every way it can act again
        -- a frame, a send retry, a timer -- reads zero, and no serve task
        is dead (one awaiting its supervised restart answers no frame).
        Four O(1) counters; the dead-task one is kept by the serve tasks'
        done-callbacks, which are what wakes a waiter to ask again."""
        return (
            self.idle()
            and self._clock.pending_timers == 0
            and self._dead_tasks == 0
        )

    def _wake(self) -> None:
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def _frames_settled(self) -> None:
        """A frame counter moved towards zero: wake the waiter if idle."""
        if self.idle():
            self._wake()

    def _raise_failures(self) -> None:
        """Raise what no wait may sit out: a serve-task error, or a serve
        task dead with no supervisor to restart it (the run is lost)."""
        if self._errors:
            raise RuntimeError(
                f"{len(self._errors)} serve-task failure(s); first one follows"
            ) from self._errors[0]
        if self.supervisor is None:
            dead = self.dead_serve_tasks()
            if dead:
                details = ", ".join(
                    f"AD {ad} ({pending} frame(s) pending)" for ad, pending in dead
                )
                raise RuntimeError(
                    f"serve task(s) died without a supervisor: {details}"
                )

    async def wait_for(
        self,
        done: Callable[[], bool],
        timeout_s: float,
        until: Optional[float] = None,
    ) -> bool:
        """Sleep until ``done()`` holds or the clock reads ``until``.

        The live substrate's one wait.  Whatever can zero a term of
        :meth:`quiescent` (or fails, or ends a serve task) resolves the
        waiter and ``done`` is re-checked after every wake, so a spurious
        one is harmless; a ``done`` that already holds never yields to the
        loop.  ``False``: ``timeout_s`` wall seconds ran out first.  One
        waiter at a time (the driver task).
        """
        loop, clock = self._loop, self._clock
        deadline = loop.time() + timeout_s
        while True:
            self._raise_failures()
            if done():
                return True
            nap = deadline - loop.time()
            if nap <= 0:
                return False
            if until is not None:
                ahead = (until - clock.now) * clock.time_scale
                if ahead <= 0:
                    return True
                nap = min(nap, ahead)
            waiter = self._waiter = loop.create_future()
            timer = loop.call_later(nap, self._wake)
            try:
                await waiter
            finally:
                timer.cancel()

    async def drained(self) -> None:
        """Wait until :meth:`idle` (timers ignored): the operator's "let the
        backlog drain before touching the next AD", not convergence.  One
        that outlives ``DRAIN_DEADLINE_S`` (a datagram the kernel lost)
        raises: bouncing the next AD anyway would not be hitless."""
        if not await self.wait_for(self.idle, DRAIN_DEADLINE_S):
            raise RuntimeError(
                f"frames failed to drain within {DRAIN_DEADLINE_S:g}s: "
                f"sent={self._sent_frames} received={self._recv_frames} "
                f"queued={self._queued} pending_sends={self._pending_sends}"
            )

    def fail(self, exc: Exception) -> None:
        """Record a serve-task failure; whoever waits next raises it."""
        self._errors.append(exc)
        self._wake()

    @property
    def errors(self) -> List[Exception]:
        """Exceptions raised inside serve tasks (fatal to the run)."""
        return self._errors

    @property
    def frames_sent(self) -> int:
        """Frames handed to the kernel since the network was created."""
        return self._sent_frames

    @property
    def frames_received(self) -> int:
        """Datagrams the kernel delivered since creation, queued or dropped."""
        return self._recv_frames

    # ------------------------------------------------------------ failures

    def set_link_status(self, a: ADId, b: ADId, up: bool) -> None:
        """Change a link's status now and notify both endpoint nodes."""
        link = self.graph.set_link_status(a, b, up)
        for end in (a, b):
            if end in self._crashed:
                continue
            node = self.nodes.get(end)
            if node is not None:
                node.on_link_change(link, up)

    def crash_node(self, ad_id: ADId) -> None:
        """Silence an AD: in-flight frames to it drop, no notifications."""
        if ad_id not in self.nodes:
            raise ValueError(f"AD {ad_id} has no node to crash")
        if ad_id in self._crashed:
            raise ValueError(f"AD {ad_id} is already crashed")
        self._crashed.add(ad_id)

    def restore_node(
        self, ad_id: ADId, node: Optional[ProtocolNode] = None
    ) -> None:
        """Un-silence a crashed AD, optionally swapping in a fresh node."""
        if ad_id not in self._crashed:
            raise ValueError(f"AD {ad_id} is not crashed")
        self._crashed.discard(ad_id)
        if node is not None:
            if node.ad_id != ad_id:
                raise ValueError(
                    f"replacement node is for AD {node.ad_id}, not AD {ad_id}"
                )
            self.nodes[ad_id] = node
            node.attach(self)

    def is_crashed(self, ad_id: ADId) -> bool:
        return ad_id in self._crashed

    def flush_ingress(self, ad_id: ADId) -> int:
        """Discard an AD's queued inbound frames (state-losing restart)."""
        lost = self._runtimes[ad_id].flush()
        for _ in range(lost):
            self.metrics.count_queue_drop()
        return lost

    def set_recv_loss(self, rate: float, seed: int = 0) -> None:
        """Seeded Bernoulli frame loss at the UDP receive path.

        The live substrate's chaos hook: real sockets cannot be told to
        lose packets on demand, so loss is injected just before dispatch
        (after idle-detection accounting, mirroring crashed-destination
        drops).  ``rate=0`` turns it off.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"loss rate {rate} outside [0, 1]")
        self._recv_loss_rate = rate
        self._recv_loss_rng = random.Random(seed)

    def set_impairment(self, link, spec) -> None:
        """Network-wide loss, the one impairment real loopback can emulate.

        It maps onto the receive-path loss of :meth:`set_recv_loss`
        (keeping the seeded stream already in force); per-link, dup,
        jitter and burst impairments are simulator models and are
        refused loudly rather than silently dropped.
        """
        if link is not None:
            raise ValueError(
                "live loss is injected at the receive path (network-wide); "
                "per-link impairments are sim-only"
            )
        if spec.dup_prob > 0.0 or spec.jitter > 0.0 or spec.burst_enter > 0.0:
            raise ValueError(
                "live chaos supports loss impairments only; dup/jitter/burst "
                f"in {spec!r} cannot be induced on a real loopback socket"
            )
        self._recv_loss_rate = spec.drop_prob

    async def restart_runtime(self, ad_id: ADId) -> int:
        """Supervised serve-task restart for one AD (socket preserved).

        Returns the number of queued frames lost with the old task.
        """
        return await self._runtimes[ad_id].restart_task()

    def runtime_stats(self, ad_id: ADId) -> Dict[str, object]:
        """One AD's lifecycle counters (observability/supervision)."""
        rt = self._runtimes[ad_id]
        return {
            "state": rt.state,
            "unprocessed": rt.unprocessed,
            "dispatched": rt.dispatched,
            "last_progress": rt.last_progress,
            "restarts": rt.restarts,
        }

    # --------------------------------------------------- sim-only machinery

    def set_channel(self, model) -> None:
        raise NotImplementedError(
            "channel impairments are a simulator model; the live substrate "
            "has real (loopback) links"
        )

    def set_ingress(self, model) -> None:
        raise NotImplementedError(
            "bounded ingress is a simulator model; the live substrate's "
            "inbound queues are the real asyncio/UDP ones"
        )

    # -------------------------------------------------------------- helpers

    def lifecycle_states(self) -> Dict[ADId, NodeState]:
        """Each AD's current lifecycle state (observability/tests)."""
        return {ad: rt.state for ad, rt in self._runtimes.items()}

    def dead_serve_tasks(self) -> List[Tuple[ADId, int]]:
        """ADs whose serve task finished while still supposed to serve.

        Returns ``(ad_id, pending_frames)`` pairs.  A task is dead when
        it completed (crash or stray cancellation) while its runtime is
        in SERVING/DRAINING -- a stopped AD's task is cancelled on
        purpose and its runtime is STOPPED first.
        """
        dead: List[Tuple[ADId, int]] = []
        for ad_id in sorted(self._runtimes):
            rt = self._runtimes[ad_id]
            if rt.state in (NodeState.SERVING, NodeState.DRAINING) and (
                rt.task is not None and rt.task.done()
            ):
                dead.append((ad_id, rt.unprocessed))
        return dead

    def port_of(self, ad_id: ADId) -> Optional[int]:
        """The UDP port an AD's endpoint is bound to (None before start)."""
        return self._runtimes[ad_id].port

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LiveNetwork(ads={self.graph.num_ads}, nodes={len(self.nodes)}, "
            f"started={self._started})"
        )
