"""The socket-backed distributed task engine: MLINK semantics over TCP.

The cluster simulator predicts what the paper's MANIFOLD/PVM deployment
*would* do; this module runs the same master/worker protocol over real
sockets.  A :class:`WorkerDaemon` is one machine of the paper's testbed:
an OS process listening on a TCP port, hosting task instances (the
:class:`~repro.restructured.taskengine.TaskInstanceEngine`) whose
``{load N}`` capacity and ``{perpetual}`` reuse mirror the MLINK
pattern attributes, reachable by address exactly like a CONFIG
``{host}`` entry.  The master side (:class:`SocketTaskEngine`) plays
the MANIFOLD master: it spawns or connects to daemons, ships job specs,
and collects results — every byte crossing a real socket.

Spawning a loopback daemon is a fork, not an interpreter boot: the
master binds the daemon's listening socket itself and hands it to the
zygote of :mod:`repro.restructured.pool`, one preloaded interpreter
that forks a :class:`WorkerDaemon` serving that socket and answers with
its pidfd.  The port is known before the fork, so no handshake is
awaited, and init-time and revive-time spawns are one call.  Each
engine still gets fresh daemons and :meth:`SocketTaskEngine.close`
still kills them.

Master threading model: **one thread, one selector**.  The master owns
every daemon socket through a single :class:`selectors.DefaultSelector`
reactor — non-blocking sockets with a stateful per-link
:class:`_FrameDecoder` doing incremental frame decoding, a per-link
write queue with partial-send handling, and the job ledger's
:class:`~repro.restructured.ledger.TimerWheel` scheduling everything the
thread-per-link predecessor used to block on: retry backoff, reconnect
backoff, heartbeat-silence deadlines, per-job deadlines.  No code path
on the dispatch loop ever calls ``time.sleep``; its only blocking point
is ``selector.select`` with the wheel's next due time as the timeout.  That is what lets one master
hold dozens (or hundreds) of daemon links without a reader thread per
link, and it removes a whole class of head-of-line stalls: one grid
backing off, or one flapping daemon reconnecting, no longer freezes
completion handling for every healthy daemon.

Wire protocol: length-prefixed frames.  A frame is an 8-byte header
(``RPRO`` magic + big-endian payload length) followed by the pickled
``(kind, data)`` body.  Kinds: ``hello``/``heartbeat``/``result``/
``error`` from the daemon, ``job``/``stop`` from the master.  The magic
check rejects cross-talk from a non-daemon peer before any unpickling.

Failure model — composing with the resilience ladder of
:mod:`repro.resilience`:

* a **dropped connection** (daemon killed, network reset, truncated
  frame) convicts every job in flight on that daemon as a ``crash``
  fault; the master reconnects (forking a fresh local daemon, or
  re-dialing a remote one) with timer-driven exponential backoff,
  recorded as a ``reconnect`` trace event;
* a **silent daemon** — no frame within ``heartbeat_timeout`` — is a
  ``hang``: the daemon is killed and replaced, its jobs re-dispatched;
* a **per-job deadline** (cost-model-scaled) catches a wedged job on an
  otherwise healthy daemon; the daemon is replaced so the wedged
  compute cannot outlive the run (or scribble into a reclaimed lease);
* every job-level decision — escalation (retry, reassign, in-master
  sequential fallback, structured failure), completion, the lease rule
  — is made by the same :class:`~repro.restructured.ledger.JobLedger`
  that drives the fork pool; the master here is only its socket
  transport.

Replays are idempotent: results are keyed ``(l, m)`` and a result frame
whose attempt does not match the outstanding one is dropped, so a
daemon that answers *after* being declared lost cannot corrupt the run.

Data plane: a **locally spawned** daemon shares the master's machine,
so the zero-copy shm transport works — the daemon writes through the
job's :class:`~repro.perf.dataplane.ShmLease` and only the descriptor
crosses the socket.  A daemon reached by address is not known to be
host-local, so its jobs carry no lease and the payload falls back to
pickle framing (the per-payload fallback of :func:`~repro.restructured.
worker.ship_payload` keeps either path bitwise identical).  One
subtlety: an attach inside a spawned daemon registers the segment with
the *daemon's* resource tracker, which would unlink the master's live
segment when the daemon exits — the daemon unregisters each segment
right after its first attach (:func:`_untrack_after_ship`).
"""

from __future__ import annotations

import errno
import os
import pickle
import selectors
import socket
import struct
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from .ledger import _DEADLINE_GRACE, Attempt, JobLedger, LedgerOutcome, TimerWheel
from .pool import DaemonProcess, spawn_daemon
from .taskengine import TaskInstanceDied, TaskInstanceEngine
from .worker import SubsolveJobSpec, SubsolvePayload, ship_payload

__all__ = [
    "FrameError",
    "send_frame",
    "recv_frame",
    "HostSpec",
    "parse_hosts",
    "WorkerDaemon",
    "NetOutcome",
    "SocketTaskEngine",
]

#: frame header: magic + big-endian body length
MAGIC = b"RPRO"
_HEADER = struct.Struct("!4sI")

#: refuse to allocate absurd frames (a corrupted or hostile header)
MAX_FRAME_BYTES = 1 << 30

class FrameError(ConnectionError):
    """The framed stream broke: bad magic, truncation, oversize."""


def _recv_exact(sock: socket.socket, n: int, *, at_boundary: bool) -> Optional[bytes]:
    """Read exactly ``n`` bytes from a blocking socket.

    Returns ``None`` on a clean EOF at a frame boundary (the peer closed
    between frames); raises :class:`FrameError` on EOF mid-frame (the
    peer died with a frame in flight — e.g. a connection dropped during
    a result transfer).  The daemon side and the tests use this; the
    master's reactor decodes incrementally through :class:`_FrameDecoder`
    instead, because it must never block waiting for one peer.
    """
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if at_boundary and not chunks:
                return None
            raise FrameError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, kind: str, data: object) -> tuple[int, float]:
    """Send one ``(kind, data)`` frame; returns ``(bytes, seconds)``.

    The seconds are the time spent inside ``sendall`` — with a full
    socket buffer that is real backpressure wait, the master-side
    ``send_wait`` of the overhead decomposition.
    """
    body = pickle.dumps((kind, data), protocol=pickle.HIGHEST_PROTOCOL)
    frame = _HEADER.pack(MAGIC, len(body)) + body
    t0 = time.perf_counter()
    sock.sendall(frame)
    return len(frame), time.perf_counter() - t0


def recv_frame(
    sock: socket.socket,
) -> Optional[tuple[str, object, int, float]]:
    """Receive one frame; returns ``(kind, data, bytes, seconds)``.

    ``None`` means the peer closed cleanly between frames.  The seconds
    cover only the *body* transfer (the header wait is idle time, not
    network time).
    """
    header = _recv_exact(sock, _HEADER.size, at_boundary=True)
    if header is None:
        return None
    magic, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {length} bytes exceeds the cap")
    t0 = time.perf_counter()
    body = _recv_exact(sock, length, at_boundary=False)
    seconds = time.perf_counter() - t0
    kind, data = pickle.loads(body)
    return kind, data, _HEADER.size + length, seconds


class _FrameDecoder:
    """Stateful incremental decoder of one link's ``RPRO`` frame stream.

    The reactor feeds it whatever ``recv`` returned; it hands back every
    frame those bytes completed.  This replaces the blocking
    ``_recv_exact`` on the master's hot path — the reactor never waits
    for a specific peer's next byte, it consumes whatever any socket
    offers.  A frame's ``seconds`` span from its header being parsed to
    its body completing, the incremental analogue of the blocking body
    transfer the threaded reader used to time.
    """

    __slots__ = ("_buf", "_body_len", "_body_t0")

    def __init__(self) -> None:
        self._buf = bytearray()
        self._body_len: Optional[int] = None
        self._body_t0 = 0.0

    @property
    def mid_frame(self) -> bool:
        """True when an EOF now would truncate a frame in flight."""
        return self._body_len is not None or bool(self._buf)

    def describe_partial(self) -> str:
        """How far into the current frame the stream broke."""
        if self._body_len is not None:
            return f"{len(self._buf)}/{self._body_len} body bytes"
        return f"{len(self._buf)}/{_HEADER.size} header bytes"

    def feed(self, data: bytes) -> list[tuple[str, object, int, float]]:
        """Consume ``data``; return the ``(kind, data, bytes, seconds)``
        frames it completed (possibly none, possibly several)."""
        self._buf.extend(data)
        frames: list[tuple[str, object, int, float]] = []
        while True:
            if self._body_len is None:
                if len(self._buf) < _HEADER.size:
                    break
                magic, length = _HEADER.unpack(bytes(self._buf[: _HEADER.size]))
                if magic != MAGIC:
                    raise FrameError(f"bad frame magic {magic!r}")
                if length > MAX_FRAME_BYTES:
                    raise FrameError(f"frame of {length} bytes exceeds the cap")
                del self._buf[: _HEADER.size]
                self._body_len = length
                self._body_t0 = time.perf_counter()
            if len(self._buf) < self._body_len:
                break
            body = bytes(self._buf[: self._body_len])
            del self._buf[: self._body_len]
            nbytes = _HEADER.size + self._body_len
            seconds = time.perf_counter() - self._body_t0
            self._body_len = None
            kind, payload = pickle.loads(body)
            frames.append((kind, payload, nbytes, seconds))
        return frames


def arm_heartbeat_deadline(
    timers: TimerWheel,
    link: "_DaemonLink",
    timeout: float,
    on_silent: Callable[["_DaemonLink"], None],
) -> None:
    """Watch one link for heartbeat silence on the reactor's timer wheel.

    Re-arms itself at ``last_frame + timeout`` until either the link is
    gone (death or replacement disarms it through the epoch guard), or
    the deadline passes with jobs in flight — then ``on_silent(link)``
    convicts it.  A silent link with nothing in flight is left alone
    (an idle daemon owes no result) and simply re-checked a timeout
    later.  Single-threaded by construction: ``last_frame`` is written
    by the same reactor thread that reads it here, so the cross-thread
    race of the reader-thread model cannot exist.
    """
    epoch = link.epoch

    def fire() -> None:
        if not link.alive or link.epoch != epoch:
            return
        now = timers.clock()
        deadline = link.last_frame + timeout
        if now < deadline:
            timers.schedule(deadline - now + _DEADLINE_GRACE, fire)
        elif link.inflight:
            on_silent(link)
        else:
            timers.schedule(timeout + _DEADLINE_GRACE, fire)

    timers.schedule(timeout + _DEADLINE_GRACE, fire)


# ----------------------------------------------------------------------
# the hosts grammar
# ----------------------------------------------------------------------
_LOCAL_NAMES = ("localhost", "127.0.0.1", "local")


@dataclass(frozen=True)
class HostSpec:
    """One entry of the ``--hosts`` list.

    ``spawn > 0`` means: fork that many loopback daemons on this machine
    (the CONFIG ``{host}`` entries of a single-machine run; shm-capable
    because they share the master's memory).  ``port`` names an
    already-listening daemon to dial instead — not known to be
    host-local, so its payloads travel by pickle framing.
    """

    host: str
    spawn: int = 0
    port: Optional[int] = None

    @property
    def local(self) -> bool:
        return self.spawn > 0


def parse_hosts(text: str) -> tuple[HostSpec, ...]:
    """Parse the ``--hosts`` grammar.

    ::

        hosts  := entry (',' entry)*
        entry  := 'localhost' [':' count]     # spawn count loopback daemons
                | 'tcp://' host ':' port      # dial a running daemon

    Examples: ``localhost:2`` (two spawned daemons),
    ``localhost:2,tcp://node7:9123`` (two local plus one remote).
    """
    specs: list[HostSpec] = []
    for raw in text.split(","):
        entry = raw.strip()
        if not entry:
            continue
        if entry.startswith("tcp://"):
            rest = entry[len("tcp://") :]
            host, sep, port_text = rest.rpartition(":")
            if not sep or not host:
                raise ValueError(
                    f"bad hosts entry {entry!r}: expected tcp://host:port"
                )
            try:
                port = int(port_text)
            except ValueError:
                raise ValueError(
                    f"bad port {port_text!r} in hosts entry {entry!r}"
                ) from None
            specs.append(HostSpec(host=host, port=port))
            continue
        host, _, count_text = entry.partition(":")
        if host not in _LOCAL_NAMES:
            raise ValueError(
                f"bad hosts entry {entry!r}: only 'localhost[:N]' entries "
                "are spawnable; use tcp://host:port for a running daemon"
            )
        try:
            count = int(count_text) if count_text else 1
        except ValueError:
            raise ValueError(
                f"bad daemon count {count_text!r} in hosts entry {entry!r}"
            ) from None
        if count < 1:
            raise ValueError(f"daemon count must be >= 1 in {entry!r}")
        specs.append(HostSpec(host="127.0.0.1", spawn=count))
    if not specs:
        raise ValueError(f"hosts spec {text!r} contains no entries")
    return tuple(specs)


# ----------------------------------------------------------------------
# the daemon side
# ----------------------------------------------------------------------
def _untrack_after_ship(payload: SubsolvePayload, untracked: set) -> None:
    """Cancel this process's resource-tracker claim on a just-attached
    segment.

    The master owns the arena; a spawned daemon that attaches a segment
    must not let *its* tracker unlink the master's live block at daemon
    exit.  Attaches are cached per name (:func:`~repro.perf.dataplane.
    _writer_segment`), so one unregister per first attach balances the
    books exactly.
    """
    descriptor = payload.descriptor
    if descriptor is None or descriptor.name in untracked:
        return
    from multiprocessing import resource_tracker

    try:
        resource_tracker.unregister(descriptor.name, "shared_memory")
    except Exception:  # pragma: no cover - tracker not running
        pass
    untracked.add(descriptor.name)


class WorkerDaemon:
    """One machine of the testbed: task instances behind a TCP port.

    ``capacity`` is the MLINK ``{load N}`` limit — how many jobs may
    compute concurrently, each in its own OS task instance;
    ``perpetual`` keeps an emptied instance alive to welcome the next
    worker.  One master connection is served at a time; after a
    disconnect the daemon returns to ``accept`` so a reconnecting
    master finds it again.  A ``stop`` frame is a *clean* shutdown:
    in-flight jobs get ``drain_timeout`` seconds to finish and send
    their results before the connection closes, instead of being
    silently dropped mid-compute.  ``listener`` serves an already
    listening socket instead of binding ``host:port``: that is how a
    zygote-forked daemon gets the port its master bound and already
    knows.

    Fault injection happens *here*, where the paper's faults happen —
    on the worker machine: a matched ``crash`` rule kills the whole
    daemon process unannounced (``os._exit``), ``hang`` wedges the job's
    serving thread, ``raise`` reports a structured error frame, ``slow``
    stretches the job to factor × its own duration.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        listener: Optional[socket.socket] = None,
        capacity: int = 1,
        perpetual: bool = True,
        heartbeat_interval: float = 0.5,
        drain_timeout: float = 5.0,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.heartbeat_interval = heartbeat_interval
        self.drain_timeout = drain_timeout
        self._listener = listener or socket.create_server((host, port))
        self.address = self._listener.getsockname()[:2]
        self._engine = TaskInstanceEngine(
            perpetual=perpetual, max_instances=capacity
        )
        self._stop = threading.Event()
        self._send_lock = threading.Lock()
        self._jobs_lock = threading.Lock()
        self._job_threads: list[threading.Thread] = []
        self._untracked: set = set()
        self.jobs_served = 0
        #: chaos hook (tests only): keys whose first result frame is
        #: truncated mid-transfer, the connection hard-closed under it
        self._drop_result_keys: set = set()

    @property
    def port(self) -> int:
        return self.address[1]

    def announce(self, stream=None) -> None:
        """Print ``LISTENING <port>`` for whoever started a standalone
        daemon (``repro worker-daemon --port 0``)."""
        print(f"LISTENING {self.port}", file=stream or sys.stdout, flush=True)

    def stop(self) -> None:
        self._stop.set()

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Accept masters until stopped; serve one connection at a time."""
        self._listener.settimeout(0.2)
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = self._listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                try:
                    self._serve_connection(conn)
                finally:
                    try:
                        conn.close()
                    except OSError:  # pragma: no cover - defensive
                        pass
        finally:
            self._listener.close()
            self._engine.close()

    def _serve_connection(self, conn: socket.socket) -> None:
        self._send(conn, "hello", {
            "pid": os.getpid(),
            "capacity": self.capacity,
            "perpetual": self._engine.perpetual,
        })
        beat_stop = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop, args=(conn, beat_stop), daemon=True
        )
        beat.start()
        try:
            while not self._stop.is_set():
                try:
                    frame = recv_frame(conn)
                except (FrameError, OSError):
                    return  # master gone; back to accept
                if frame is None:
                    return
                kind, data, _, _ = frame
                if kind == "stop":
                    self._stop.set()
                    self._drain_jobs()
                    return
                if kind == "job":
                    thread = threading.Thread(
                        target=self._run_job, args=(conn, data), daemon=True
                    )
                    with self._jobs_lock:
                        self._job_threads = [
                            t for t in self._job_threads if t.is_alive()
                        ]
                        self._job_threads.append(thread)
                    thread.start()
                # unknown kinds are ignored: forward compatibility
        finally:
            beat_stop.set()
            beat.join(timeout=1.0)

    def _drain_jobs(self) -> None:
        """Give in-flight job threads ``drain_timeout`` seconds, total,
        to finish and send their results over the still-open connection.

        Without this, a ``stop`` frame abandoned whatever ``_run_job``
        threads were computing: the connection closed under them and
        their finished results went nowhere.
        """
        deadline = time.monotonic() + self.drain_timeout
        with self._jobs_lock:
            threads = [t for t in self._job_threads if t.is_alive()]
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        with self._jobs_lock:
            self._job_threads = [t for t in self._job_threads if t.is_alive()]

    def _heartbeat_loop(self, conn: socket.socket, stop: threading.Event) -> None:
        while not stop.wait(self.heartbeat_interval):
            if not self._send(conn, "heartbeat", {"pid": os.getpid()}):
                return

    def _send(self, conn: socket.socket, kind: str, data: object) -> bool:
        """Locked send; ``False`` when the master is gone (the job's
        result is simply lost — the master's re-dispatch recomputes it)."""
        with self._send_lock:
            try:
                send_frame(conn, kind, data)
                return True
            except (FrameError, OSError):
                return False

    # ------------------------------------------------------------------
    def _run_job(self, conn: socket.socket, data: dict) -> None:
        spec: SubsolveJobSpec = data["spec"]
        plan = data.get("plan")
        attempt = int(data.get("attempt", 1))
        use_cache = bool(data.get("use_cache", True))
        lease = data.get("lease")
        key = (spec.l, spec.m)
        action = plan.action(spec.l, spec.m, attempt) if plan is not None else None
        if action is not None and action.kind == "crash":
            # the daemon kill: this machine drops off the network,
            # task instances and all, exactly as unannounced as a
            # power failure looks from the master's side
            os._exit(action.exit_code)
        if action is not None and action.kind == "hang":
            time.sleep(action.seconds)
        if action is not None and action.kind == "raise":
            self._send(conn, "error", {
                "key": key,
                "attempt": attempt,
                "fault_kind": "exception",
                "error": (
                    f"injected transient fault on grid {key}, "
                    f"attempt {attempt}"
                ),
            })
            return
        started = time.perf_counter()
        try:
            payload = self._engine.compute(spec, use_cache=use_cache)
        except TaskInstanceDied as exc:
            self._send(conn, "error", {
                "key": key,
                "attempt": attempt,
                "fault_kind": exc.fault_kind,
                "error": str(exc),
            })
            return
        except Exception as exc:  # noqa: BLE001 - marshal the failure back
            self._send(conn, "error", {
                "key": key,
                "attempt": attempt,
                "fault_kind": "exception",
                "error": f"{type(exc).__name__}: {exc}",
            })
            return
        if action is not None and action.kind == "slow":
            time.sleep((action.factor - 1.0) * (time.perf_counter() - started))
        payload = ship_payload(payload, lease)
        _untrack_after_ship(payload, self._untracked)
        if key in self._drop_result_keys:
            self._drop_result_keys.discard(key)
            self._drop_mid_result(conn, key, attempt, payload)
            return
        if self._send(conn, "result", {
            "key": key, "attempt": attempt, "payload": payload,
        }):
            self.jobs_served += 1

    def _drop_mid_result(
        self, conn: socket.socket, key, attempt: int, payload
    ) -> None:
        """Chaos hook: truncate the result frame and kill the link —
        a connection dropped during the result transfer."""
        body = pickle.dumps(
            ("result", {"key": key, "attempt": attempt, "payload": payload}),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        frame = _HEADER.pack(MAGIC, len(body)) + body
        with self._send_lock:
            try:
                conn.sendall(frame[: max(_HEADER.size, len(frame) // 2)])
            except OSError:
                pass
            # shutdown, not just close: the serve loop's thread is
            # blocked in recv() on this fd, and a bare close() would
            # leave the file description held by that syscall — no FIN
            # ever goes out and the master waits for body bytes forever.
            # shutdown() terminates the connection regardless.
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                conn.close()
            except OSError:
                pass


# ----------------------------------------------------------------------
# the master side
# ----------------------------------------------------------------------
class _OutFrame:
    """One queued outgoing frame with partial-send progress."""

    __slots__ = ("view", "offset", "kind", "key", "nbytes", "seconds")

    def __init__(self, frame: bytes, kind: str, key=None) -> None:
        self.view = memoryview(frame)
        self.offset = 0
        self.kind = kind
        self.key = key
        self.nbytes = len(frame)
        self.seconds = 0.0

    @property
    def done(self) -> bool:
        return self.offset >= self.nbytes


class _DaemonLink:
    """One daemon as the master sees it: a non-blocking socket plus the
    reactor-side receive/send/reconnect state.  No reader thread: the
    engine's selector loop is the only thing that ever touches this."""

    def __init__(
        self,
        name: str,
        *,
        spawned: bool,
        address: Optional[tuple[str, int]] = None,
    ) -> None:
        self.name = name
        self.spawned = spawned          # we own the process (loopback)
        self.shm_ok = spawned           # host-local => lease-capable
        self.address = address          # dial target for connect mode
        self.sock: Optional[socket.socket] = None
        self.daemon: Optional[DaemonProcess] = None
        self.capacity = 0               # learned from the hello frame
        self.pid: Optional[int] = None
        self.inflight: dict[tuple[int, int], Attempt] = {}
        self.last_frame = time.monotonic()
        self.alive = False
        self.reconnects = 0
        #: bumped on every (re)attach; heartbeat watches from an older
        #: epoch are void — a dead connection's deadline must not
        #: convict its successor
        self.epoch = 0
        # reactor-side receive/send state
        self.decoder = _FrameDecoder()
        self.sendq: deque[_OutFrame] = deque()
        self.events_mask = 0            # current selector registration
        # the timer-driven reconnect state machine (see run())
        self.reviving = False
        self.revive_reason = ""
        self.revive_t0 = 0.0
        #: bumped per revive attempt and on attach/detach; a timer fired
        #: for a stale token is a no-op (timers are never cancelled)
        self.revive_token = 0

    @property
    def free_slots(self) -> int:
        return max(0, self.capacity - len(self.inflight))


@dataclass
class NetOutcome(LedgerOutcome):
    """What one socket-engine run produced: the ledger's outcome plus
    the network accounting."""

    reconnects: int
    daemons: int
    bytes_sent: int
    bytes_received: int
    net_send_seconds: float
    net_recv_seconds: float


class SocketTaskEngine:
    """The master of the socket-backed distributed configuration.

    ``hosts`` is a spec string (see :func:`parse_hosts`) or a sequence
    of :class:`HostSpec`.  Spawned daemons are private to this engine
    and torn down by :meth:`close`; dialed daemons are left running.

    The engine is a single-threaded reactor: every daemon socket is
    non-blocking and owned by one ``selectors.DefaultSelector``, so the
    master's thread count stays O(1) however many links it holds.
    """

    def __init__(
        self,
        hosts="localhost:2",
        *,
        trace=None,
        heartbeat_timeout: float = 5.0,
        daemon_heartbeat_interval: float = 0.5,
        connect_timeout: float = 20.0,
        reconnect_backoff: float = 0.05,
        max_reconnects: int = 5,
    ) -> None:
        self.host_specs = (
            parse_hosts(hosts) if isinstance(hosts, str) else tuple(hosts)
        )
        self.trace = trace
        self.heartbeat_timeout = heartbeat_timeout
        self.daemon_heartbeat_interval = daemon_heartbeat_interval
        self.connect_timeout = connect_timeout
        self.reconnect_backoff = reconnect_backoff
        self.max_reconnects = max_reconnects
        self._selector = selectors.DefaultSelector()
        self._closed = False
        self.reconnects = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.net_send_seconds = 0.0
        self.net_recv_seconds = 0.0
        self.links: list[_DaemonLink] = []
        t0 = time.perf_counter()
        try:
            for spec in self.host_specs:
                for _ in range(spec.spawn or 1):
                    link = _DaemonLink(
                        f"daemon-{len(self.links)}",
                        spawned=spec.local,
                        address=None if spec.local else (spec.host, spec.port),
                    )
                    self.links.append(link)
                    self._adopt(link, self._connect(link))
        except Exception:
            self.close()
            raise
        self.spawn_seconds = time.perf_counter() - t0

    # ------------------------------------------------------------------
    # link lifecycle
    # ------------------------------------------------------------------
    def _connect(self, link: _DaemonLink, trace=None) -> socket.socket:
        """A blocking connection to the link's daemon; a spawned link
        first gets a fresh daemon forked from the zygote.

        The listener is bound here and handed to the daemon, so the
        port is known before the fork, the connection completes in the
        listen backlog at once, and a daemon that dies before accepting
        resets it — the ordinary connection-loss path.
        """
        if not link.spawned:
            return socket.create_connection(link.address, timeout=self.connect_timeout)
        with socket.create_server(("127.0.0.1", 0)) as listener:
            link.daemon = spawn_daemon(
                listener,
                {"capacity": 1, "heartbeat_interval": self.daemon_heartbeat_interval},
                timeout=self.connect_timeout,
                trace=trace if trace is not None else self.trace,
            )
            return socket.create_connection(
                listener.getsockname()[:2], timeout=self.connect_timeout
            )

    def _adopt(self, link: _DaemonLink, sock: socket.socket) -> None:
        """Take a connected socket as the link's live connection: make
        it non-blocking, reset the per-link receive/send state, and
        hand it to the selector."""
        sock.setblocking(False)
        link.sock = sock
        link.alive = True
        link.capacity = 0  # (re)learned from the fresh hello
        link.last_frame = time.monotonic()
        link.epoch += 1
        link.revive_token += 1
        link.reviving = False
        link.decoder = _FrameDecoder()
        link.sendq.clear()
        self._register(sock, selectors.EVENT_READ, ("io", link))
        link.events_mask = selectors.EVENT_READ

    def _register(self, fileobj, events, data) -> None:
        try:
            self._selector.register(fileobj, events, data)
        except KeyError:  # pragma: no cover - defensive re-register
            self._selector.modify(fileobj, events, data)

    def _unregister(self, fileobj) -> None:
        try:
            self._selector.unregister(fileobj)
        except (KeyError, ValueError):
            pass  # not registered, or the selector is already closed

    def _detach(self, link: _DaemonLink) -> None:
        """Tear down everything the link holds — socket, queued writes,
        half-done reconnect, daemon process.  No reader thread to join:
        the reactor was the only reader, and it is the caller."""
        link.alive = False
        link.reviving = False
        link.revive_token += 1
        link.sendq.clear()
        link.events_mask = 0
        self._release(link)

    def _release(self, link: _DaemonLink) -> None:
        """Close the link's socket, kill its spawned daemon."""
        if link.sock is not None:
            self._unregister(link.sock)
            # shutdown before close: deterministically sends the FIN/RST
            # whatever state the connection is in, so a dialed daemon's
            # serve loop (blocked in recv on its end) wakes and returns
            # to accept instead of serving a dead connection
            try:
                link.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                link.sock.close()
            except OSError:  # pragma: no cover - defensive
                pass
            link.sock = None
        if link.daemon is not None:
            link.daemon.kill()
            link.daemon = None

    @property
    def total_capacity(self) -> int:
        known = sum(link.capacity for link in self.links if link.alive)
        # before the hellos arrive, the spawned count is the best guess
        return known or sum(
            s.spawn if s.local else 1 for s in self.host_specs
        )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for link in self.links:
            if link.alive and link.sock is not None:
                try:
                    link.sock.setblocking(True)
                    link.sock.settimeout(2.0)
                    send_frame(link.sock, "stop", {})
                except (FrameError, OSError):
                    pass
            self._detach(link)
        self._selector.close()

    def __enter__(self) -> "SocketTaskEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # the dispatch reactor
    # ------------------------------------------------------------------
    def run(
        self,
        ordered: list[SubsolveJobSpec],
        *,
        escalation,
        plan=None,
        use_cache: bool = True,
        cost_model=None,
        fault_log=None,
        sink=None,
        trace=None,
    ) -> NetOutcome:
        """Dispatch ``ordered`` (LPT order preserved) across the daemons.

        The socket transport of the :class:`~repro.restructured.ledger.
        JobLedger`: per-job deadlines, fault escalation, idempotent
        completion keyed ``(l, m)`` and the lease rule are the ledger's;
        this reactor adds the detection channels of a network —
        connection loss and heartbeat silence — around the links,
        framing and reconnect state machine.  Reads, writes, retries,
        reconnects and every deadline multiplex through one ``select``,
        so a fault or a flapping daemon on one link never blocks
        completion handling on another.
        """
        trace = trace if trace is not None else self.trace
        ledger = JobLedger(
            ordered,
            escalation=escalation,
            use_cache=use_cache,
            cost_model=cost_model,
            fault_log=fault_log,
            sink=sink,
            trace=trace,
        )
        timers = ledger.timers
        clock = timers.clock

        def record_net(kind: str, key, nbytes: int, seconds: float, **extra) -> None:
            if kind == "net_send":
                self.bytes_sent += nbytes
                self.net_send_seconds += seconds
            else:
                self.bytes_received += nbytes
                self.net_recv_seconds += seconds
            if trace is not None:
                trace.record(
                    kind, key=key, frame_bytes=nbytes, seconds=seconds, **extra
                )

        # ------------------------------------------------------------------
        # the write side: per-link queues with partial-send handling
        # ------------------------------------------------------------------
        def update_write_interest(link: _DaemonLink) -> None:
            if link.sock is None or not link.alive:
                return
            mask = selectors.EVENT_READ | (
                selectors.EVENT_WRITE if link.sendq else 0
            )
            if mask != link.events_mask:
                self._selector.modify(link.sock, mask, ("io", link))
                link.events_mask = mask

        def flush_sendq(link: _DaemonLink) -> None:
            """Drain the link's write queue as far as the socket buffer
            allows; a broken connection loses the link (its jobs are
            re-routed)."""
            while link.sendq and link.alive:
                out = link.sendq[0]
                t0 = time.perf_counter()
                try:
                    sent = link.sock.send(out.view[out.offset :])
                except (BlockingIOError, InterruptedError):
                    break
                except OSError as exc:
                    lose_link(
                        link,
                        kind="crash",
                        detected_by="connection",
                        error=repr(exc),
                    )
                    return
                out.seconds += time.perf_counter() - t0
                if sent == 0:  # pragma: no cover - defensive
                    break
                out.offset += sent
                if out.done:
                    link.sendq.popleft()
                    if out.kind == "job":
                        record_net(
                            "net_send",
                            out.key,
                            out.nbytes,
                            out.seconds,
                            frame_kind="job",
                        )
            update_write_interest(link)

        def queue_frame(link: _DaemonLink, kind: str, data: object, key=None) -> None:
            body = pickle.dumps((kind, data), protocol=pickle.HIGHEST_PROTOCOL)
            link.sendq.append(
                _OutFrame(_HEADER.pack(MAGIC, len(body)) + body, kind, key)
            )
            flush_sendq(link)

        # ------------------------------------------------------------------
        # dispatch, and the two ways a daemon is lost
        # ------------------------------------------------------------------
        def dispatch_ready() -> None:
            while ledger.ready:
                link = next(
                    (
                        l
                        for l in self.links
                        if l.alive and l.sock is not None and l.free_slots > 0
                    ),
                    None,
                )
                if link is None:
                    return
                spec, attempt = ledger.ready.popleft()
                job = ledger.send(spec, attempt, worker=link, shm=link.shm_ok)
                # registered *before* the queue flush: if the send trips
                # over a dead socket, lose_link convicts and re-routes
                # this job along with the rest of the link's work
                link.inflight[job.key] = job
                queue_frame(link, "job", {
                    "spec": spec,
                    "plan": plan,
                    "attempt": attempt,
                    "use_cache": use_cache,
                    "lease": job.lease,
                }, key=job.key)

        def kill(link: _DaemonLink) -> list:
            """Tear the daemon down; return the jobs it held."""
            self._detach(link)
            held = list(link.inflight.values())
            link.inflight.clear()
            return held

        def lose_link(
            link: _DaemonLink, *, kind: str, detected_by: str, error: str
        ) -> None:
            """A daemon died or went silent: kill it, fault everything
            it held, then schedule its revival."""
            if not link.alive:
                return
            ledger.lost(kill(link), kind=kind, detected_by=detected_by, error=error)
            schedule_revive(link, reason=kind)

        def overdue(job) -> list:
            """A job on an otherwise healthy daemon is past its deadline:
            replace the daemon, so the wedged compute can neither outlive
            the run nor scribble into a reclaimed lease."""
            link = job.worker
            held = kill(link)
            schedule_revive(link, reason="deadline")
            return held

        ledger.on_overdue = overdue

        # ------------------------------------------------------------------
        # the timer-driven reconnect state machine
        # ------------------------------------------------------------------
        def schedule_revive(link: _DaemonLink, reason: str) -> None:
            """Arm the next reconnect attempt's backoff timer; a spent
            budget leaves the link permanently dead (the loop-top guard
            fails the run once no link is alive or reviving)."""
            if self._closed or link.reconnects >= self.max_reconnects:
                link.reviving = False
                link.revive_token += 1
                return
            link.reconnects += 1
            self.reconnects += 1
            link.reviving = True
            link.revive_reason = reason
            link.revive_t0 = time.perf_counter()
            link.revive_token += 1
            token = link.revive_token
            backoff = self.reconnect_backoff * (2 ** (link.reconnects - 1))
            timers.schedule(backoff, lambda: begin_revive(link, token))

        def begin_revive(link: _DaemonLink, token: int) -> None:
            if link.revive_token != token or not link.reviving or self._closed:
                return
            if not link.spawned:
                begin_connect(link, link.address, token)
                return
            # a zygote fork takes milliseconds and the connection lands
            # in the listen backlog at once: no need to wait in select
            try:
                sock = self._connect(link, trace)
            except OSError:
                self._release(link)
                schedule_revive(link, link.revive_reason)
                return
            finish_revive(link, sock)

        def begin_connect(
            link: _DaemonLink, address: tuple[str, int], token: int
        ) -> None:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setblocking(False)
            err = sock.connect_ex(address)
            if err not in (0, errno.EINPROGRESS, errno.EWOULDBLOCK, errno.EALREADY):
                try:
                    sock.close()
                except OSError:  # pragma: no cover - defensive
                    pass
                self._release(link)
                schedule_revive(link, link.revive_reason)
                return
            link.sock = sock  # held for cleanup; the link is not alive yet
            self._register(sock, selectors.EVENT_WRITE, ("connect", link))
            timers.schedule(
                self.connect_timeout, lambda: revive_timed_out(link, token)
            )

        def revive_timed_out(link: _DaemonLink, token: int) -> None:
            if link.revive_token != token or not link.reviving:
                return
            self._release(link)
            schedule_revive(link, link.revive_reason)

        def on_connect_ready(link: _DaemonLink) -> None:
            sock = link.sock
            if sock is None or not link.reviving:
                return
            err = sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR)
            self._unregister(sock)
            if err != 0:
                try:
                    sock.close()
                except OSError:  # pragma: no cover - defensive
                    pass
                link.sock = None
                schedule_revive(link, link.revive_reason)
                return
            finish_revive(link, sock)

        def finish_revive(link: _DaemonLink, sock: socket.socket) -> None:
            reason = link.revive_reason
            attempt = link.reconnects
            t0 = link.revive_t0
            link.sock = None  # _adopt re-takes it with fresh state
            self._adopt(link, sock)
            arm_heartbeat(link)
            if trace is not None:
                trace.record(
                    "reconnect",
                    worker=link.name,
                    attempt=attempt,
                    reason=reason,
                    seconds=time.perf_counter() - t0,
                )

        # ------------------------------------------------------------------
        # heartbeat silence on the wheel
        # ------------------------------------------------------------------
        def on_silent(link: _DaemonLink) -> None:
            lose_link(
                link,
                kind="hang",
                detected_by="heartbeat",
                error=(
                    f"no frame from {link.name} within "
                    f"{self.heartbeat_timeout:.1f}s"
                ),
            )

        def arm_heartbeat(link: _DaemonLink) -> None:
            arm_heartbeat_deadline(
                timers, link, self.heartbeat_timeout, on_silent
            )

        # ------------------------------------------------------------------
        # the read side
        # ------------------------------------------------------------------
        def answered(link: _DaemonLink, data):
            """The in-flight job a result/error frame answers, taken off
            the link; ``None`` for a stale attempt."""
            key = tuple(data["key"])
            job = link.inflight.get(key)
            if job is None or job.attempt != int(data["attempt"]):
                return None
            del link.inflight[key]
            return job

        def handle_frame(
            link: _DaemonLink, kind: str, data, nbytes: int, seconds: float
        ) -> None:
            if kind == "hello":
                link.capacity = int(data["capacity"])
                link.pid = data.get("pid")
                if trace is not None:
                    # a spawned daemon's cost: fork request to hello
                    spawn = {} if link.daemon is None else {
                        "seconds": time.perf_counter() - link.daemon.requested_at
                    }
                    trace.record(
                        "worker_spawn", worker=link.name, pid=link.pid, **spawn
                    )
                return
            if kind == "heartbeat":
                return  # last_frame was already bumped by on_readable
            if kind in ("result", "error"):
                record_net(
                    "net_recv", tuple(data["key"]), nbytes, seconds,
                    frame_kind=kind,
                )
                job = answered(link, data)
                if job is None:
                    return  # a stale replay from a superseded attempt
                if kind == "result":
                    ledger.done(job, data["payload"])
                else:
                    ledger.fault(
                        job,
                        data.get("fault_kind", "exception"),
                        detected_by="daemon",
                        error=data.get("error", ""),
                    )
            # unknown kinds are ignored: forward compatibility

        def on_readable(link: _DaemonLink) -> None:
            if not link.alive or link.sock is None:
                return
            try:
                data = link.sock.recv(1 << 20)
            except (BlockingIOError, InterruptedError):
                return
            except OSError as exc:
                lose_link(
                    link,
                    kind="crash",
                    detected_by="connection",
                    error=repr(exc),
                )
                return
            if not data:
                error = (
                    "connection closed mid-frame "
                    f"({link.decoder.describe_partial()})"
                    if link.decoder.mid_frame
                    else "daemon closed the connection"
                )
                lose_link(
                    link, kind="crash", detected_by="connection", error=error
                )
                return
            link.last_frame = clock()
            try:
                frames = link.decoder.feed(data)
            except FrameError as exc:
                lose_link(
                    link,
                    kind="crash",
                    detected_by="connection",
                    error=repr(exc),
                )
                return
            for kind, payload, nbytes, seconds in frames:
                handle_frame(link, kind, payload, nbytes, seconds)
                if not link.alive:
                    break  # a handler convicted the link mid-batch

        def on_io(link: _DaemonLink, mask: int) -> None:
            if mask & selectors.EVENT_READ:
                on_readable(link)
            if link.alive and (mask & selectors.EVENT_WRITE):
                flush_sendq(link)

        # ------------------------------------------------------------------
        # the loop
        # ------------------------------------------------------------------
        for link in self.links:
            if link.alive:
                arm_heartbeat(link)

        # the loop also drains in-progress revives: the outcome's
        # reconnect count must describe daemons that actually came back
        # (and traced their ``reconnect`` event)
        while not ledger.finished or any(l.reviving for l in self.links):
            if not any(l.alive or l.reviving for l in self.links):
                ledger.abort(
                    RuntimeError(
                        "every worker daemon is lost and out of "
                        "reconnect budget"
                        if self.reconnects
                        else "no worker daemon is alive"
                    )
                )
            dispatch_ready()
            # never an empty wheel here: every live link keeps a
            # heartbeat watch armed, every revive its backoff timer
            for sel_key, mask in self._selector.select(timers.next_timeout()):
                tag, link = sel_key.data
                if tag == "io":
                    on_io(link, mask)
                elif tag == "connect":
                    on_connect_ready(link)
            timers.fire_due()

        return NetOutcome(
            **vars(ledger.outcome()),
            reconnects=self.reconnects,
            daemons=len(self.links),
            bytes_sent=self.bytes_sent,
            bytes_received=self.bytes_received,
            net_send_seconds=self.net_send_seconds,
            net_recv_seconds=self.net_recv_seconds,
        )
