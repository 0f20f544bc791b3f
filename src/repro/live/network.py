"""The live UDP transport: per-AD endpoints, lifecycle, crash/restart.

Each AD gets one UDP socket on the loopback interface and one asyncio
*serve task* consuming its inbound queue -- the AD's routing process.
Frames are length-prefixed canonical JSON (:mod:`repro.simul.wire`);
a datagram carries one or more of them back to back.  Protocol nodes
are untouched: they call the same
:class:`~repro.simul.transport.Transport` interface the simulator
implements.  The frame bytes on the socket are produced by the codec,
and decoded only when the receiving runtime does not find them in the
in-flight table below; ``tests/test_live_in_flight.py`` and
``tests/test_wire_frame_path.py`` drive the decoding path on purpose.

The send path is the network's own.  :meth:`LiveNetwork.send` checks
and encodes a frame and appends it to its adjacency's outbox
(:meth:`Transport.broadcast <repro.simul.transport.Transport.broadcast>`
does the same for every live neighbour in one scan of the sender's
links); the first append in an event-loop turn schedules one flush,
which packs each adjacency's frames, in send order, into as few
datagrams as fit ``MAX_DATAGRAM_BYTES`` and writes each with the
sender's non-blocking ``sock.sendto`` -- a send error is retried on
``SEND_RETRY_DELAYS``, then counted as dropped frames.

The receive path decodes only what this process did not send.  Once the
kernel accepts a datagram whose every body is lossless
(:func:`repro.simul.wire.lossless`: it decodes back to the very message
sent), its exact bytes enter an *in-flight table*, mapped to the
``(src, dst, msg)`` of its frames, and the receiving runtime pops them
instead of splitting and decoding the bytes.  A hit may skip only work
that is a pure function of the exact bytes it is keyed by: the key
covers each frame's length prefix, envelope and version.  Everything
that depends on the receiver -- the addressing check, the
crashed-destination drop, the seeded receive-loss draw, message
accounting, per-frame failure isolation -- still runs per frame.  Any
other datagram (a foreign sender, altered bytes, the second of two
identical datagrams in flight, a body down-emitted without some field)
takes the decoding path; a fleet with one process per AD would decode
every datagram, as before the table.

A hit is right only while ``lossless`` is, so the first lossless frame
of each message type and wire version a network sends is decoded on
the spot and must give back the frame the table will hand over
(:meth:`LiveNetwork._check_lossless`): every live run decodes one frame
per kind it sends, and a kind that stops round-tripping fails the run.

Node lifecycle (per AD):

* **start** -- bind the socket, record the port, spawn the serve task;
* **serve** -- each socket readiness reads every waiting datagram into
  the queue, one item per datagram: its known frames from the in-flight
  table, else its raw frames split at their length prefixes (one
  serve-task wake per burst); decode what is raw and dispatch each
  frame in order;
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
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.adgraph.ad import ADId, InterADLink
from repro.adgraph.graph import InterADGraph
from repro.live.clock import LiveClock
from repro.simul.messages import Message
from repro.simul.node import ProtocolNode
from repro.simul.transport import Transport
from repro.simul.wire import (
    WireError,
    WireVersionError,
    decode_frame_ex,
    encode_frame,
    lossless,
)

#: One frame as a receiver dispatches it: ``(src, dst, msg)``.
Frame = Tuple[ADId, ADId, Message]


#: Requested kernel buffer per endpoint socket.  Convergence storms
#: burst hundreds of frames at hub ADs faster than one event-loop
#: iteration drains them; the ~208 KiB Linux default silently drops the
#: overflow, which the protocols (correctly) never recover from on a
#: loss-free loopback.  The kernel clamps this to ``net.core.rmem_max``.
SOCKET_BUF_BYTES = 4 << 20

#: Largest datagram a loopback UDP socket accepts (65535 - headers).
MAX_DATAGRAM_BYTES = 65507

#: Wall-clock backoff for a datagram whose ``sock.sendto`` raises
#: (``BlockingIOError`` on a full send buffer, or any other ``OSError``):
#: one attempt plus one retry per delay, each a ``live_send_retries``,
#: then each of its frames is a counted drop (``live_send_drops``).
SEND_RETRY_DELAYS = (0.001, 0.005, 0.02)

#: Wall-clock budget for draining one AD's queue at shutdown.  A dead
#: serve task (or a wedged dispatch) must never hang ``close()``:
#: whatever cannot drain inside the budget is flushed and counted.
DRAIN_DEADLINE_S = 5.0


def pack_frames(frames: List[bytes]) -> List[Tuple[bytes, int]]:
    """Pack one adjacency's frames, in order, into as few datagrams as fit.

    A frame carries its own length prefix, so a datagram is its frames
    back to back.  Greedy is optimal for an order-keeping split: a
    datagram closes when the next frame would take it past
    ``MAX_DATAGRAM_BYTES``.  Returns ``(datagram, frame count)`` pairs.
    """
    packed: List[Tuple[bytes, int]] = []
    run: List[bytes] = []
    size = 0
    for frame in frames:
        if run and size + len(frame) > MAX_DATAGRAM_BYTES:
            packed.append((b"".join(run), len(run)))
            run, size = [], 0
        run.append(frame)
        size += len(frame)
    if run:
        packed.append((b"".join(run), len(run)))
    return packed


def split_datagram(data: bytes) -> List[bytes]:
    """The frames of one datagram, in order, cut at their 4-byte
    big-endian length prefixes.

    A prefix that overruns the datagram (or a tail too short to hold
    one) leaves the remainder as one frame, which the decoder rejects
    as it rejects any bad frame.
    """
    frames = []
    start, end = 0, len(data)
    while True:
        stop = min(end, start + 4 + int.from_bytes(data[start:start + 4], "big"))
        frames.append(data[start:stop])
        if stop == end:
            return frames
        start = stop


class NodeState(enum.Enum):
    """Lifecycle state of one AD's live runtime."""

    CREATED = "created"
    SERVING = "serving"
    DRAINING = "draining"
    STOPPED = "stopped"


class _NodeRuntime(asyncio.DatagramProtocol):
    """One AD's socket, queue, and serve task; the socket's protocol."""

    def __init__(self, network: "LiveNetwork", ad_id: ADId) -> None:
        self.network = network
        self.ad_id = ad_id
        self.state = NodeState.CREATED
        #: One item per admitted datagram: its frames, in order -- a tuple
        #: of known frames from the in-flight table, else a list of the
        #: raw frames still to decode.
        self.queue: "asyncio.Queue[Sequence[Union[bytes, Frame]]]" = asyncio.Queue()
        self.transport: Optional[asyncio.DatagramTransport] = None
        self.sock: Optional[socketlib.socket] = None
        self.port: Optional[int] = None
        self.task: Optional[asyncio.Task] = None
        #: Frames received but not yet fully processed (idle detection).
        self.unprocessed = 0
        #: Frames fully dispatched over this runtime's lifetime.
        self.dispatched = 0
        #: Wall-clock instant of the last dispatch completion, or of the
        #: arrival of work at an idle runtime; the supervisor's hung-node
        #: heartbeat (``unprocessed > 0`` with no progress past the
        #: deadline means the serve task is wedged).
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
        sock = socketlib.socket(socketlib.AF_INET, socketlib.SOCK_DGRAM)
        for opt in (socketlib.SO_RCVBUF, socketlib.SO_SNDBUF):
            try:
                sock.setsockopt(socketlib.SOL_SOCKET, opt, SOCKET_BUF_BYTES)
            except OSError:  # pragma: no cover - platform-dependent
                pass
        sock.setblocking(False)
        sock.bind(("127.0.0.1", 0))
        self.sock, self.port = sock, sock.getsockname()[1]
        loop = asyncio.get_running_loop()
        self.transport, _ = await loop.create_datagram_endpoint(
            lambda: self, sock=sock
        )
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
        # stop() reads STOPPED before it cancels, and restart_task() lets
        # go of the task before it cancels: a replaced task is not ours.
        if task is self.task and self.state is not NodeState.STOPPED:
            self.dead = True
            self.network._dead_tasks += 1
        self.network._wake()

    def _task_replaced(self) -> None:
        """The finished task is being stopped or respawned: dead no more."""
        if self.dead:
            self.dead = False
            self.network._dead_tasks -= 1

    def datagram_received(self, data: bytes, addr) -> None:
        """One readiness callback: admit asyncio's datagram, then read the
        socket dry, so a burst of datagrams (each one or more frames,
        :func:`split_datagram`) wakes the serve task once."""
        self.enqueue(data)
        while True:
            try:
                data = self.sock.recv(MAX_DATAGRAM_BYTES)
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                self.error_received(exc)
                return
            self.enqueue(data)

    def error_received(self, exc: Exception) -> None:
        self.network.fail(exc)

    def enqueue(self, data: bytes) -> None:
        """Admit one inbound datagram's frames (drop them when not serving).

        A datagram in the network's in-flight table (:meth:`LiveNetwork._transmit`)
        is popped with its frames already known; any other is split at
        its length prefixes and decoded frame by frame at dispatch.
        """
        network = self.network
        frames = network._in_flight.pop(data, None)
        if frames is None:
            frames = split_datagram(data)
        count = len(frames)
        network._recv_frames += count
        if self.state is not NodeState.SERVING:
            # Received, then dropped: ``sent == received`` must hold for
            # every delivered frame or the network never reads idle again.
            network.metrics.count_drop(count)
            network._frames_settled()
            return
        if not self.unprocessed:
            # The heartbeat runs from here: an idle spell is no hang.
            self.last_progress = network._loop.time()
        self.unprocessed += count
        network._queued += count
        self.queue.put_nowait(frames)

    async def serve(self) -> None:
        """Decode and dispatch inbound frames, in order, until cancelled.

        A datagram's frames are dispatched in one task step, so nothing
        else runs between them: its counters move once, by its frame
        count, after the last one.
        """
        network = self.network
        while True:
            frames = await self.queue.get()
            try:
                for frame in frames:
                    try:
                        if type(frame) is tuple:
                            self._deliver(*frame)
                        else:
                            self._dispatch(frame)
                    except Exception as exc:  # noqa: BLE001 - surfaced at settle()
                        network.fail(exc)
            finally:
                count = len(frames)
                self.unprocessed -= count
                self.dispatched += count
                self.last_progress = network._loop.time()
                network._queued -= count
                network._frames_settled()

    def _dispatch(self, data: bytes) -> None:
        """Decode one raw frame, then :meth:`_deliver` it."""
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
        self._deliver(src, dst, msg)

    def _deliver(self, src: ADId, dst: ADId, msg: Message) -> None:
        """Hand one frame to its node: every check that depends on the
        receiver, run per frame whether the frame was decoded or known.
        The trace hook sees each frame addressed here before any drop."""
        network = self.network
        if dst != self.ad_id:
            raise WireError(
                f"AD {self.ad_id} received a frame addressed to AD {dst}"
            )
        if network.tracer is not None:
            network.tracer.on_message(src, dst, msg)
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
            self.network.metrics.count_queue_drop(self.flush())

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
            self.sock = None

    def flush(self) -> int:
        """Discard queued frames (state-losing restart); returns the count."""
        lost = 0
        while not self.queue.empty():
            lost += len(self.queue.get_nowait())
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
        of lost frames is returned and accounted as queue drops.  The
        runtime holds no task until the new one is spawned, so neither
        the old task's end nor the wait for it reads as a dead or hung
        serve task to the supervisor.
        """
        old, self.task = self.task, None
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
        self.network.metrics.count_queue_drop(lost)
        self.state = NodeState.SERVING
        self.restarts += 1
        self.last_progress = self.network._loop.time()
        self._spawn()
        return lost


class LiveNetwork(Transport):
    """Binds a topology to protocol nodes over loopback UDP sockets.

    Construct inside a running event loop (the sockets and the clock
    belong to it); :class:`repro.live.runner.LiveSubstrate` does this for
    you.  The registry, crash and link-notification skeleton is
    :class:`~repro.simul.transport.Transport`'s; sim-only machinery
    (channel impairments, bounded ingress models) raises.
    """

    clock: LiveClock

    def __init__(
        self,
        graph: InterADGraph,
        time_scale: float = 0.005,
    ) -> None:
        loop = asyncio.get_running_loop()
        clock = LiveClock(loop, time_scale)
        super().__init__(graph, clock)
        self._loop = loop
        clock.on_idle = self._wake
        self._runtimes: Dict[ADId, _NodeRuntime] = {}
        self._errors: List[Exception] = []
        self._started = False
        self._sent_frames = 0
        self._recv_frames = 0
        #: The sum of every runtime's ``unprocessed``.
        self._queued = 0
        #: Datagrams handed to the kernel (each carries one or more frames).
        self._datagrams_sent = 0
        #: This loop turn's frames per (src, dst), in send order, each
        #: beside its ``(src, dst, msg)`` when its body is lossless (else
        #: ``None``); non-empty exactly while a flush is scheduled.
        self._outbox: Dict[
            Tuple[ADId, ADId], Tuple[List[bytes], List[Optional[Frame]]]
        ] = {}
        #: The exact bytes of each datagram the kernel accepted whose
        #: frames are all lossless -> those frames; the receiving
        #: runtime's ``enqueue`` pops the entry and decodes nothing.
        self._in_flight: Dict[bytes, Tuple[Frame, ...]] = {}
        #: (message type, wire version) of every kind whose first lossless
        #: frame was decoded and checked (:meth:`_check_lossless`).
        self._checked_kinds: Set[Tuple[type, int]] = set()
        #: Frames accepted but not yet handed to the kernel: in the outbox
        #: or in a datagram waiting on a send-retry timer.
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

    def send(self, src: ADId, dst: ADId, msg: Message) -> None:
        """Encode one frame into the adjacency's outbox; the loop turn's
        flush hands it to the kernel (:meth:`_flush`)."""
        link = self.graph.link_if_exists(src, dst)
        if link is None:
            raise ValueError(f"AD {src} and AD {dst} are not neighbours")
        if not link.up:
            self.metrics.count_drop()
            return
        self._post(link, src, dst, msg)

    def _post(
        self, link: InterADLink, src: ADId, dst: ADId, msg: Message
    ) -> None:
        """One frame over a live adjacency, into the outbox: the runtime
        checks, the encode and the size cap :meth:`send` and
        :meth:`~repro.simul.transport.Transport.broadcast` share."""
        runtime = self._runtimes[src]
        target = self._runtimes[dst]
        if NodeState.STOPPED in (runtime.state, target.state):
            # A timer outlived close(), or the peer stopped: a counted
            # drop, not an error nor a datagram no socket will receive.
            self.metrics.count_live_send_drop()
            return
        if runtime.sock is None or target.port is None:
            raise RuntimeError(
                f"AD {src} sent before the network started serving"
            )
        # The sender's per-neighbour tx version: the node's configured
        # version by default; with negotiation on, the negotiated one
        # (or the node's minimum until the handshake completes).
        version = self.nodes[src].wire_tx_version(dst)
        frame = encode_frame(src, dst, msg, version=version)
        if len(frame) > MAX_DATAGRAM_BYTES:
            raise ValueError(
                f"{msg.type_name} from AD {src} encodes to {len(frame)} "
                f"bytes, over the {MAX_DATAGRAM_BYTES}-byte UDP limit"
            )
        known = None
        if lossless(msg, version):
            known = (src, dst, msg)
            if (type(msg), version) not in self._checked_kinds:
                self._check_lossless(frame, known, version)
        outbox = self._outbox
        if not outbox:
            self._loop.call_soon(self._flush)
        entry = outbox.get((src, dst))
        if entry is None:
            entry = outbox[(src, dst)] = ([], [])
        entry[0].append(frame)
        entry[1].append(known)
        self._pending_sends += 1

    def _check_lossless(self, frame: bytes, known: Frame, version: int) -> None:
        """Decode the first lossless frame of a message type at a wire
        version, and raise unless it gives back the frame the in-flight
        table will hand its receiver.

        A table hit is right only while :func:`~repro.simul.wire.lossless`
        is; this checks it on a real frame once per kind and network, so
        a type that stops round-tripping fails the run that sends it
        instead of handing receivers what decoding the frame would not give.
        """
        cls = type(known[2])
        self._checked_kinds.add((cls, version))
        src, dst, msg, _version = decode_frame_ex(frame)
        if (src, dst, msg) != known or type(msg) is not cls:
            raise WireError(
                f"{cls.__name__} at wire version {version} does not decode "
                "to the message sent"
            )

    def _flush(self) -> None:
        """Hand the loop turn's frames to the kernel: each adjacency's, in
        send order, packed into as few datagrams as fit (:func:`pack_frames`)."""
        outbox, self._outbox = self._outbox, {}
        for (src, dst), (frames, known) in outbox.items():
            start = 0
            for datagram, count in pack_frames(frames):
                self._transmit(src, dst, datagram, known[start:start + count], 0)
                start += count
        self._frames_settled()

    def _transmit(
        self,
        src: ADId,
        dst: ADId,
        datagram: bytes,
        known: List[Optional[Frame]],
        attempt: int,
    ) -> None:
        """Write one datagram with the sender's own non-blocking
        ``sock.sendto``, retrying if it raises; ``known`` holds each of its
        frames' ``(src, dst, msg)``, or ``None`` for a lossy body.

        Once the kernel accepts a datagram whose every frame is known, its
        exact bytes enter the in-flight table for the receiving runtime to
        pop (:meth:`_NodeRuntime.enqueue`).  If identical bytes are in
        flight already, their entry stays and the second copy is decoded.

        A full send buffer (``BlockingIOError``) or any other ``OSError``
        arms a retry on ``SEND_RETRY_DELAYS`` (a ``live_send_retries``
        per failed attempt); when they run out, or an endpoint closed
        meanwhile, the datagram's frames are ``live_send_drops``.  Its
        frames stay in ``_pending_sends`` until then, so settle() cannot
        declare quiescence with a frame still waiting to leave;
        ``_sent_frames`` counts only frames the kernel accepted.
        """
        count = len(known)
        runtime = self._runtimes[src]
        target = self._runtimes[dst]
        if runtime.sock is None or target.state is NodeState.STOPPED:
            self._pending_sends -= count
            self.metrics.count_live_send_drop(count)
            return
        try:
            runtime.sock.sendto(datagram, ("127.0.0.1", target.port))
        except OSError:  # BlockingIOError, InterruptedError included
            if attempt >= len(SEND_RETRY_DELAYS):
                self._pending_sends -= count
                self.metrics.count_live_send_drop(count)
                return
            self.metrics.count_live_send_retry()
            self._loop.call_later(
                SEND_RETRY_DELAYS[attempt], self._retry_transmit,
                src, dst, datagram, known, attempt + 1,
            )
            return
        self._pending_sends -= count
        self._sent_frames += count
        self._datagrams_sent += 1
        if None not in known:
            self._in_flight.setdefault(datagram, tuple(known))

    def _retry_transmit(
        self,
        src: ADId,
        dst: ADId,
        datagram: bytes,
        known: List[Optional[Frame]],
        attempt: int,
    ) -> None:
        self._transmit(src, dst, datagram, known, attempt)
        self._frames_settled()

    # ----------------------------------------------------------- node mgmt

    def add_node(self, node: ProtocolNode) -> ProtocolNode:
        """:meth:`Transport.add_node`, then create the AD's runtime."""
        super().add_node(node)
        self._runtimes[node.ad_id] = _NodeRuntime(self, node.ad_id)
        return node

    async def start(self) -> None:
        """Bind every AD's socket, then call the start hooks and Hellos."""
        if self._started:
            raise RuntimeError("live network already started")
        self._started = True
        for ad_id in sorted(self._runtimes):
            await self._runtimes[ad_id].start()
        for hook in self._start_hooks():
            hook()

    async def close(self) -> None:
        """Stop every AD: drain queues, cancel tasks, close sockets, and
        forget the datagrams no socket is left to receive."""
        for ad_id in sorted(self._runtimes):
            await self._runtimes[ad_id].stop()
        self._in_flight.clear()

    # ------------------------------------------------------- idle detection

    def idle(self) -> bool:
        """No frame in flight, none queued, nothing being processed.

        Frames handed to the kernel but not yet received are in flight
        and count as activity (``sent != received``), so a quiet instant
        between send and receive is never mistaken for quiescence; a
        frame not yet handed to the kernel -- in the outbox, or waiting
        on a send-retry timer -- counts the same way (``_pending_sends``).
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
        Five O(1) counters -- the five terms :class:`SettleTimeout` names:
        frames in flight, frames not yet sent (outbox or send retry),
        armed timers, queued frames, dead serve tasks; the dead-task one
        is kept by the serve tasks' done-callbacks, which are what wakes
        a waiter to ask again."""
        return (
            self.idle()
            and self.clock.pending_timers == 0
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
        loop, clock = self._loop, self.clock
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
                f"queued={self._queued} unsent={self._pending_sends}"
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
    def datagrams_sent(self) -> int:
        """Datagrams handed to the kernel since creation (a frame or more each)."""
        return self._datagrams_sent

    @property
    def frames_received(self) -> int:
        """Frames the kernel delivered since creation, queued or dropped."""
        return self._recv_frames

    def outbox_frames(self) -> int:
        """Frames in the outbox, waiting for this loop turn's flush."""
        return sum(len(frames) for frames, _known in self._outbox.values())

    # ------------------------------------------------------------ failures

    def flush_ingress(self, ad_id: ADId) -> int:
        """Discard an AD's queued inbound frames (state-losing restart)."""
        lost = self._runtimes[ad_id].flush()
        self.metrics.count_queue_drop(lost)
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
