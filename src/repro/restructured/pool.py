"""The persistent worker pool — one long-lived fork pool per process.

The seed's real-parallel path paid a coordination tax the paper warns
about: every :func:`~repro.restructured.parallel.run_multiprocessing`
call forked a fresh ``multiprocessing.Pool`` and tore it down again,
so the five-run averaging protocol re-paid pool start-up five times and
warm per-process state (the operator cache of
:mod:`repro.sparsegrid.cache`) was thrown away with the workers.

This module keeps **one** fork pool alive for the whole process:

* levels, runs and engines share it — a second ``run_multiprocessing``
  call (or a second :class:`~repro.restructured.worker.ProcessPoolEngine`)
  finds warm workers whose operator/factor caches survived the previous
  job batch;
* acquiring with a larger ``processes`` requirement drains the old pool
  gracefully and grows a new one (never ``terminate()`` on the graceful
  path — in-flight jobs finish);
* shutdown is ``close()``/``join()``, and an ``atexit`` hook winds the
  pool down at interpreter exit.

Beyond the warm path, the pool is the *observable substrate* of the
job ledger's fork-pool transport (:mod:`repro.restructured.parallel`):

* every dispatch and the shutdown path are serialized on a lock, so a
  job submitted while another thread (or the ``atexit`` hook) shuts the
  pool down raises a clean :class:`PoolClosedError` instead of racing
  ``multiprocessing`` internals or hanging;
* :meth:`PersistentWorkerPool.submit` takes a completion callback, run
  on the pool's result thread, so the master waits in ``select``
  instead of polling handles;
* a **heartbeat queue** per pool, handed to every worker by the pool's
  initializer, lets the job wrapper report which worker PID holds
  which job; its pipe is selectable (:meth:`heartbeat_fileno`);
* :meth:`PersistentWorkerPool.worker_processes` exposes the workers
  whose exit sentinels turn a crash into a wake-up the moment it
  happens, instead of a job that waits out its deadline;
* :meth:`PersistentWorkerPool.shutdown` grows a ``force`` mode
  (``terminate()``) for pools wedged by hung workers, and
  :func:`respawn_pool` replaces the shared pool with a fresh one
  without touching results the master already holds.

Cold-start cost is recorded so the warm-path observability layer can
report cold-vs-warm pool timings.

The pool's sibling is the **zygote** (:func:`spawn_daemon`): one fresh
interpreter that has imported the socket engine's daemon side (numpy,
``scipy.sparse.linalg``, the solver), starts no threads, and forks one
:class:`~repro.restructured.netengine.WorkerDaemon` per request — so a
loopback daemon costs a fork, not an interpreter boot.  It boots on the
first request, lives as long as the shared pool's process-wide state
(:func:`shutdown_pool` and the ``atexit`` hook stop it), and exits on
its own when the master process dies.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing
import os
import pickle
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import traceback
from multiprocessing import resource_tracker
from functools import partial
from typing import Any, Callable, Optional

from repro.trace.recorder import emit as trace_emit

__all__ = [
    "PoolClosedError",
    "PersistentWorkerPool",
    "acquire_pool",
    "shutdown_pool",
    "respawn_pool",
    "pool_diagnostics",
    "child_heartbeat_queue",
    "DaemonProcess",
    "spawn_daemon",
]


class PoolClosedError(RuntimeError):
    """Raised on dispatch to a pool that has been (or is being) shut down.

    A ``RuntimeError`` subclass so callers that guarded against the old
    generic error keep working; new code should catch this type.
    """


# the heartbeat queue of the pool this process works for; set in each
# pool child by the pool's initializer (see resilient_entry in
# repro.resilience.inject)
_child_heartbeats = None


def _join_heartbeats(queue) -> None:
    """Pool initializer: every worker of a pool — the first ones and
    those repopulated after a crash, whatever pool the master created
    in between — reports on that pool's own queue."""
    global _child_heartbeats
    _child_heartbeats = queue


def child_heartbeat_queue():
    """The heartbeat queue of the pool this process is a worker of;
    ``None`` outside a pool worker."""
    return _child_heartbeats


#: monotonically increasing id across every pool this process forks;
#: respawned generations get fresh ids, which is what the data plane's
#: generation-tagged leases key off (a descriptor written by an old
#: generation's worker must never be attached after a respawn)
_pool_generations = itertools.count(1)


class PersistentWorkerPool:
    """A fork pool that outlives individual job batches."""

    def __init__(self, processes: int) -> None:
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        started = time.perf_counter()
        self.processes = processes
        self.generation = next(_pool_generations)
        self._lock = threading.RLock()
        # start the resource tracker before forking so children inherit
        # it: shared-memory attaches in workers then re-register into
        # the master's tracker (a set no-op) instead of spawning per-
        # child trackers that would report phantom leaks at exit
        resource_tracker.ensure_running()
        context = multiprocessing.get_context("fork")
        # workers report ("phase", (l, m), attempt, pid) tuples here
        self._heartbeats = context.SimpleQueue()
        self._pool = context.Pool(
            processes, initializer=_join_heartbeats, initargs=(self._heartbeats,)
        )
        self.cold_start_seconds = time.perf_counter() - started
        self.jobs_dispatched = 0
        self.closed = False
        for pid in sorted(self.worker_pids()):
            trace_emit(
                "worker_spawn",
                worker=pid,
                processes=processes,
                generation=self.generation,
            )

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def apply(self, fn: Callable, args: tuple) -> Any:
        """One synchronous job (the engine path)."""
        with self._lock:
            self._require_open()
            self.jobs_dispatched += 1
            handle = self._pool.apply_async(fn, args)
        return handle.get()

    def submit(
        self,
        fn: Callable,
        item: Any,
        *,
        callback: Optional[Callable[[bool, Any], None]] = None,
    ):
        """One asynchronous job; returns the ``AsyncResult`` handle.

        ``callback(ok, value)`` runs on the pool's result thread when
        the job returns (``ok=True``, its result) or raises
        (``ok=False``, the exception) — the job ledger's transport uses
        it to wake its selector.
        """
        on_ok = on_error = None
        if callback is not None:
            on_ok, on_error = partial(callback, True), partial(callback, False)
        with self._lock:
            self._require_open()
            self.jobs_dispatched += 1
            return self._pool.apply_async(
                fn, (item,), callback=on_ok, error_callback=on_error
            )

    # ------------------------------------------------------------------
    # observability: heartbeats and process liveness
    # ------------------------------------------------------------------
    def drain_heartbeats(self) -> list[tuple]:
        """All heartbeat tuples workers have sent since the last drain."""
        beats: list[tuple] = []
        while not self._heartbeats.empty():
            beats.append(self._heartbeats.get())
        return beats

    def heartbeat_fileno(self) -> int:
        """The heartbeat pipe's read end, for a selector."""
        return self._heartbeats._reader.fileno()  # type: ignore[attr-defined]

    def worker_processes(self) -> list:
        """The pool's current worker ``Process`` objects.

        ``multiprocessing.Pool`` quietly repopulates a crashed worker,
        but the job it was running is lost forever — its
        ``AsyncResult`` never completes.  Each process's ``sentinel``
        turns readable when it exits, which is how the master hears of
        a death at once; holding the object keeps that fd open.
        """
        with self._lock:
            if self.closed:
                return []
            return list(self._pool._pool)  # type: ignore[attr-defined]

    def worker_pids(self) -> set[int]:
        """PIDs of the pool's current worker processes."""
        return {proc.pid for proc in self.worker_processes()}

    def discard(self, handle) -> None:
        """Forget a lost job's ``AsyncResult``.

        A crashed worker's job never completes, and ``Pool`` keeps its
        result entry in the internal cache forever — which makes the
        graceful ``close()``/``join()`` path wait forever too (the
        worker handler refuses to exit while the cache is non-empty).
        Dropping the entry lets a pool that survived crashes still shut
        down gracefully once every *re-dispatched* job has finished.
        """
        with self._lock:
            if not self.closed:
                self._pool._cache.pop(  # type: ignore[attr-defined]
                    handle._job, None
                )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, *, force: bool = False) -> None:
        """Wind the pool down; idempotent.

        Graceful (default): drain in-flight jobs and join the workers.
        ``force=True``: ``terminate()`` — the only way out when a hung
        worker would block ``close()``/``join()`` forever; used by the
        respawn path after a deadline fault.
        """
        with self._lock:
            if self.closed:
                return
            self.closed = True
            if force:
                self._pool.terminate()
            else:
                self._pool.close()
        # join outside the lock: submitters must fail fast with
        # PoolClosedError instead of queueing behind a long drain
        self._pool.join()

    def _require_open(self) -> None:
        if self.closed:
            raise PoolClosedError("pool has been shut down")


# ----------------------------------------------------------------------
# the shared process-wide pool
# ----------------------------------------------------------------------
_shared: Optional[PersistentWorkerPool] = None
_shared_lock = threading.Lock()
#: how many times a shared pool had to be (re)created — cold starts
_cold_starts = 0
#: how many acquisitions found a warm pool
_warm_acquisitions = 0
#: how many times a wedged shared pool was force-replaced
_respawns = 0


def acquire_pool(processes: Optional[int] = None) -> tuple[PersistentWorkerPool, bool]:
    """Return ``(pool, was_warm)`` — the shared pool, creating or
    growing it only when needed.

    ``processes=None`` accepts any live pool (defaulting to the CPU
    count on a cold start); an explicit requirement larger than the
    current pool drains it and grows a replacement.  Serialized against
    concurrent ``acquire_pool``/``shutdown_pool`` callers.
    """
    global _shared, _cold_starts, _warm_acquisitions
    needed = processes or multiprocessing.cpu_count()
    with _shared_lock:
        if (
            _shared is not None
            and not _shared.closed
            and (processes is None or _shared.processes >= needed)
        ):
            _warm_acquisitions += 1
            return _shared, True
        if _shared is not None:
            _shared.shutdown()
        _shared = PersistentWorkerPool(needed)
        _cold_starts += 1
        return _shared, False


def shutdown_pool() -> None:
    """Gracefully wind down the shared pool (drain, join, forget) and
    stop the zygote, which kills any daemon it forked that still runs."""
    global _shared, _zygote
    with _shared_lock:
        pool, _shared = _shared, None
    if pool is not None:
        pool.shutdown()
    with _zygote_lock:
        zygote, _zygote = _zygote, None
    if zygote is not None:
        zygote.stop()


def respawn_pool(processes: Optional[int] = None) -> PersistentWorkerPool:
    """Force-replace the shared pool with a fresh one.

    The recovery path for a wedged pool: hung workers never drain, so
    the old pool is ``terminate()``d and a new generation forked.
    Results the master already collected are untouched — only jobs that
    were in flight need re-dispatching, which the caller does from its
    own bookkeeping.
    """
    global _shared, _respawns
    with _shared_lock:
        old, _shared = _shared, None
    if old is not None:
        old.shutdown(force=True)
    with _shared_lock:
        needed = processes or (old.processes if old is not None else None)
        _shared = PersistentWorkerPool(needed or multiprocessing.cpu_count())
        _respawns += 1
        return _shared


def pool_diagnostics() -> dict[str, float]:
    """Counters for the warm-path report."""
    return {
        "alive": _shared is not None and not _shared.closed,
        "processes": _shared.processes if _shared is not None else 0,
        "generation": _shared.generation if _shared is not None else 0,
        "cold_starts": _cold_starts,
        "warm_acquisitions": _warm_acquisitions,
        "respawns": _respawns,
        "jobs_dispatched": _shared.jobs_dispatched if _shared is not None else 0,
        "cold_start_seconds": (
            _shared.cold_start_seconds if _shared is not None else 0.0
        ),
    }


# ----------------------------------------------------------------------
# the zygote: loopback worker daemons forked from a preloaded interpreter
# ----------------------------------------------------------------------
#: what the zygote interpreter runs; argv carries its end of the control
#: socket and the PID of the master it serves
_ZYGOTE_MAIN = "from repro.restructured.pool import zygote_main; zygote_main()"


class DaemonProcess:
    """A zygote-forked daemon as its master holds it.

    The daemon is the zygote's child, not the master's, so the master
    holds a pidfd instead: the kill and the wait go through it and can
    never reach a recycled PID.
    """

    def __init__(self, pidfd: int, requested_at: float) -> None:
        self.pidfd = pidfd
        #: ``perf_counter()`` when the fork was requested
        self.requested_at = requested_at

    def kill(self, timeout: float = 5.0) -> None:
        """SIGKILL the daemon, wait until it has exited, drop the pidfd."""
        try:
            signal.pidfd_send_signal(self.pidfd, signal.SIGKILL)
        except ProcessLookupError:
            pass  # already gone
        poller = select.poll()
        poller.register(self.pidfd, select.POLLIN)
        poller.poll(timeout * 1000.0)
        os.close(self.pidfd)


class _Zygote:
    """The master's handle on the zygote: its process and the
    ``SOCK_SEQPACKET`` control socket requests and pidfds cross."""

    def __init__(self, timeout: float) -> None:
        started = time.perf_counter()
        self.ctrl, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        with theirs:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", _ZYGOTE_MAIN, str(theirs.fileno()), str(os.getpid())],
                pass_fds=(theirs.fileno(),),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
            )
        self.ctrl.settimeout(timeout)
        try:
            if self.ctrl.recv(16) != b"ready":
                raise ConnectionError("the zygote exited while booting")
        except OSError:
            self.stop()
            raise
        self.boot_seconds = time.perf_counter() - started

    def fork(self, listener: socket.socket, config: dict, timeout: float) -> DaemonProcess:
        """One daemon serving on ``listener``: a fork in the zygote."""
        self.ctrl.settimeout(timeout)
        requested = time.perf_counter()
        socket.send_fds(self.ctrl, [pickle.dumps(config)], [listener.fileno()])
        _, fds, _, _ = socket.recv_fds(self.ctrl, 64, 1)
        if not fds:
            raise ConnectionError("the zygote closed its control socket")
        return DaemonProcess(fds[0], requested)

    def stop(self) -> None:
        """Make the zygote exit (it kills the daemons it still has) and
        reap it."""
        try:
            # shutdown, not just close: pool workers forked since the
            # boot hold copies of this fd, so only a shutdown reaches
            # the zygote as EOF
            self.ctrl.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.ctrl.close()
        try:
            self.proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


_zygote: Optional[_Zygote] = None
_zygote_lock = threading.Lock()


def spawn_daemon(
    listener: socket.socket, config: dict, *, timeout: float, trace=None
) -> DaemonProcess:
    """Fork one ``WorkerDaemon(listener=listener, **config)`` from the
    shared zygote.

    The first call boots the zygote.  A zygote found dead, or lost in
    the middle of the request, is replaced by a fresh boot and the fork
    retried once — a lost zygote costs one cold boot.  Every boot is a
    ``zygote_boot`` trace event with its reason and seconds.
    """
    global _zygote
    with _zygote_lock:
        reason = "cold"
        if _zygote is not None:
            code = _zygote.proc.poll()
            if code is None:
                try:
                    return _zygote.fork(listener, config, timeout)
                except OSError as exc:
                    reason = f"lost: {exc!r}"
            else:
                reason = f"lost: exit code {code}"
            _zygote.stop()
            _zygote = None
        _zygote = _Zygote(timeout)
        record = trace.record if trace is not None else trace_emit
        record(
            "zygote_boot",
            worker=_zygote.proc.pid,
            reason=reason,
            seconds=_zygote.boot_seconds,
        )
        return _zygote.fork(listener, config, timeout)


def zygote_main() -> None:
    """The zygote interpreter: import the daemon side once, then fork a
    daemon per request until the master stops it or dies.

    The zygote reaps its own children through their pidfds and kills
    the ones still running when it exits.  It watches the master's
    pidfd too: EOF on the control socket alone cannot signal the
    master's death while forked pool workers hold copies of its end.
    """
    ctrl = socket.socket(fileno=int(sys.argv[1]))
    master_pid = int(sys.argv[2])
    try:
        master = os.pidfd_open(master_pid)
    except ProcessLookupError:
        return
    if os.getppid() != master_pid:
        return  # the master died before it could be watched
    # a Ctrl-C reaches the whole process group; the master decides
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # the preload: numpy, scipy.sparse.linalg and the solver
    from .netengine import WorkerDaemon

    ctrl.sendall(b"ready")
    children: dict[int, int] = {}  # pidfd -> pid
    try:
        while True:
            ready, _, _ = select.select([ctrl, master, *children], [], [])
            if master in ready:
                return
            for pidfd in [fd for fd in ready if fd in children]:
                os.waitpid(children.pop(pidfd), 0)
                os.close(pidfd)
            if ctrl not in ready:
                continue
            request, fds, _, _ = socket.recv_fds(ctrl, 4096, 1)
            if not request:
                return
            (listener_fd,) = fds
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    signal.signal(signal.SIGINT, signal.default_int_handler)
                    ctrl.close()
                    for fd in (master, *children):
                        os.close(fd)
                    listener = socket.socket(fileno=listener_fd)
                    WorkerDaemon(listener=listener, **pickle.loads(request)).serve_forever()
                    code = 0
                except Exception:
                    traceback.print_exc()
                finally:
                    os._exit(code)
            os.close(listener_fd)
            pidfd = os.pidfd_open(pid)
            children[pidfd] = pid
            socket.send_fds(ctrl, [b"forked"], [pidfd])
    except OSError:
        pass  # the master went away mid-reply
    finally:
        for pidfd, pid in children.items():
            try:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)


atexit.register(shutdown_pool)
