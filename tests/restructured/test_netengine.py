"""The socket-backed task engine: framing, host parsing, bitwise runs,
and the chaos suite.

The acceptance invariant mirrors the data-plane suite's: whatever the
transport does — frames over loopback TCP, a killed daemon, a
connection dropped mid-result, a heartbeat gone silent — the combined
solution stays *bitwise identical* to the sequential application's,
and every recovery is visible in both the FaultReport and the trace.
"""

from __future__ import annotations

import os
import pickle
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
import uuid
import warnings

import numpy as np
import pytest

from repro.restructured import (
    WorkerDaemon,
    parse_hosts,
    pool,
    run_multiprocessing,
    shutdown_pool,
)
from repro.restructured.netengine import (
    _DEADLINE_GRACE,
    FrameError,
    HostSpec,
    SocketTaskEngine,
    _DaemonLink,
    _FrameDecoder,
    arm_heartbeat_deadline,
    recv_frame,
    send_frame,
)
from repro.restructured.ledger import TimerWheel
from repro.trace import TraceAnalysis, TraceRecorder

LEVEL = 2
TOL = 1.0e-3


@pytest.fixture(autouse=True)
def fresh_pool_state():
    """Each test starts and ends without a shared pool."""
    shutdown_pool()
    yield
    shutdown_pool()


def _run(**kw):
    kw.setdefault("root", 2)
    kw.setdefault("level", LEVEL)
    kw.setdefault("tol", TOL)
    kw.setdefault("processes", 2)
    return run_multiprocessing(**kw)


@pytest.fixture(scope="module")
def pickle_combined():
    """The fork-pool pickle path's result — the equality reference."""
    result = run_multiprocessing(root=2, level=LEVEL, tol=TOL, processes=2)
    shutdown_pool()
    return result.combined


@pytest.fixture()
def local_daemon():
    """One in-process WorkerDaemon on an OS-assigned loopback port,
    served from a thread — the ``tcp://`` dial target of the tests."""
    daemon = WorkerDaemon(port=0, capacity=1, heartbeat_interval=0.2)
    thread = threading.Thread(target=daemon.serve_forever, daemon=True)
    thread.start()
    yield daemon
    daemon.stop()
    thread.join(timeout=10.0)
    assert not thread.is_alive()


# ----------------------------------------------------------------------
# the wire protocol
# ----------------------------------------------------------------------
class TestFraming:
    def test_roundtrip(self):
        a, b = socket.socketpair()
        try:
            payload = {"key": (3, 1), "blob": np.arange(100.0)}
            sent, _ = send_frame(a, "result", payload)
            frame = recv_frame(b)
            assert frame is not None
            kind, data, received, _ = frame
            assert kind == "result"
            assert data["key"] == (3, 1)
            assert np.array_equal(data["blob"], payload["blob"])
            assert sent == received > 8
        finally:
            a.close()
            b.close()

    def test_clean_eof_between_frames_is_none(self):
        a, b = socket.socketpair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_eof_mid_frame_raises(self):
        a, b = socket.socketpair()
        try:
            # a valid header promising 1000 body bytes, then the peer dies
            import struct

            a.sendall(struct.pack("!4sI", b"RPRO", 1000) + b"x" * 10)
            a.close()
            with pytest.raises(FrameError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_bad_magic_raises(self):
        a, b = socket.socketpair()
        try:
            a.sendall(b"HTTP" + b"\x00" * 4)
            with pytest.raises(FrameError, match="magic"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_oversize_frame_rejected(self):
        import struct

        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("!4sI", b"RPRO", (1 << 30) + 1))
            with pytest.raises(FrameError, match="cap"):
                recv_frame(b)
        finally:
            a.close()
            b.close()


class TestParseHosts:
    def test_bare_localhost_spawns_one(self):
        assert parse_hosts("localhost") == (HostSpec("127.0.0.1", spawn=1),)

    def test_localhost_with_count(self):
        (spec,) = parse_hosts("localhost:3")
        assert spec.spawn == 3 and spec.local

    def test_tcp_entry_dials(self):
        (spec,) = parse_hosts("tcp://node7:9123")
        assert spec == HostSpec("node7", port=9123)
        assert not spec.local

    def test_mixed_entries(self):
        specs = parse_hosts("localhost:2, tcp://10.0.0.7:9000")
        assert specs[0].spawn == 2
        assert specs[1].port == 9000

    @pytest.mark.parametrize(
        "bad",
        ["remotehost:2", "tcp://noport", "tcp://h:abc", "localhost:0",
         "localhost:x", ",,"],
    )
    def test_rejects_bad_entries(self, bad):
        with pytest.raises(ValueError):
            parse_hosts(bad)


# ----------------------------------------------------------------------
# the reactor's building blocks
# ----------------------------------------------------------------------
def _frame_bytes(kind, data):
    body = pickle.dumps((kind, data), protocol=pickle.HIGHEST_PROTOCOL)
    return struct.pack("!4sI", b"RPRO", len(body)) + body


class TestFrameDecoder:
    def test_two_frames_in_one_feed(self):
        wire = _frame_bytes("heartbeat", {"pid": 1}) + _frame_bytes(
            "result", {"key": (2, 0)}
        )
        decoder = _FrameDecoder()
        frames = decoder.feed(wire)
        assert [f[0] for f in frames] == ["heartbeat", "result"]
        assert frames[1][1]["key"] == (2, 0)
        assert frames[0][2] == len(_frame_bytes("heartbeat", {"pid": 1}))
        assert not decoder.mid_frame

    def test_byte_by_byte_reassembly(self):
        wire = _frame_bytes("result", {"key": (3, 1), "blob": np.arange(50.0)})
        decoder = _FrameDecoder()
        frames = []
        for i in range(len(wire)):
            frames.extend(decoder.feed(wire[i : i + 1]))
            if i < len(wire) - 1:
                assert decoder.mid_frame  # EOF here would truncate
        (frame,) = frames
        kind, data, nbytes, _ = frame
        assert kind == "result"
        assert np.array_equal(data["blob"], np.arange(50.0))
        assert nbytes == len(wire)
        assert not decoder.mid_frame

    def test_bad_magic_raises(self):
        decoder = _FrameDecoder()
        with pytest.raises(FrameError, match="magic"):
            decoder.feed(b"HTTP/1.1")

    def test_oversize_frame_rejected(self):
        decoder = _FrameDecoder()
        with pytest.raises(FrameError, match="cap"):
            decoder.feed(struct.pack("!4sI", b"RPRO", (1 << 30) + 1))

    def test_describe_partial_names_the_break_point(self):
        decoder = _FrameDecoder()
        decoder.feed(struct.pack("!4sI", b"RPRO", 1000) + b"x" * 10)
        assert decoder.mid_frame
        assert "10/1000 body bytes" in decoder.describe_partial()


class TestTimerWheel:
    def test_fires_in_due_order_under_injected_clock(self):
        clock = {"t": 0.0}
        wheel = TimerWheel(clock=lambda: clock["t"])
        fired = []
        wheel.schedule(2.0, lambda: fired.append("late"))
        wheel.schedule(1.0, lambda: fired.append("early"))
        assert wheel.next_timeout() == pytest.approx(1.0)
        assert wheel.fire_due() == 0
        clock["t"] = 1.5
        assert wheel.fire_due() == 1
        assert fired == ["early"]
        clock["t"] = 2.5
        wheel.fire_due()
        assert fired == ["early", "late"]
        assert len(wheel) == 0
        assert wheel.next_timeout() is None

    def test_equal_deadlines_fire_in_schedule_order(self):
        clock = {"t": 0.0}
        wheel = TimerWheel(clock=lambda: clock["t"])
        fired = []
        for name in ("a", "b", "c"):
            wheel.schedule(1.0, lambda name=name: fired.append(name))
        clock["t"] = 1.0
        wheel.fire_due()
        assert fired == ["a", "b", "c"]


class TestHeartbeatDeadline:
    """Satellite of the reactor rewrite: heartbeat-silence detection is
    now a timer on the wheel reading ``link.last_frame`` from the same
    thread that writes it — assert its conviction logic with an
    injected clock, no sockets and no wall time involved."""

    def _link(self, clock):
        link = _DaemonLink("d0", spawned=True)
        link.alive = True
        link.last_frame = clock["t"]
        return link

    def test_convicts_silent_link_with_jobs_in_flight(self):
        clock = {"t": 0.0}
        wheel = TimerWheel(clock=lambda: clock["t"])
        link = self._link(clock)
        link.inflight[(2, 0)] = object()
        convicted = []
        arm_heartbeat_deadline(wheel, link, 1.0, convicted.append)
        clock["t"] = 1.0 + 2 * _DEADLINE_GRACE
        wheel.fire_due()
        assert convicted == [link]

    def test_frames_postpone_the_deadline(self):
        clock = {"t": 0.0}
        wheel = TimerWheel(clock=lambda: clock["t"])
        link = self._link(clock)
        link.inflight[(2, 0)] = object()
        convicted = []
        arm_heartbeat_deadline(wheel, link, 1.0, convicted.append)
        # a heartbeat lands just before the deadline: the watch re-arms
        # at last_frame + timeout instead of convicting
        clock["t"] = 0.9
        link.last_frame = 0.9
        clock["t"] = 1.0 + 2 * _DEADLINE_GRACE
        wheel.fire_due()
        assert convicted == []
        clock["t"] = 1.9 + 2 * _DEADLINE_GRACE
        wheel.fire_due()
        assert convicted == [link]

    def test_idle_silence_is_not_a_hang(self):
        clock = {"t": 0.0}
        wheel = TimerWheel(clock=lambda: clock["t"])
        link = self._link(clock)  # nothing in flight: owes no result
        convicted = []
        arm_heartbeat_deadline(wheel, link, 1.0, convicted.append)
        clock["t"] = 10.0
        wheel.fire_due()
        assert convicted == []
        assert len(wheel) == 1  # still watching, re-armed

    def test_stale_epoch_watch_is_void(self):
        clock = {"t": 0.0}
        wheel = TimerWheel(clock=lambda: clock["t"])
        link = self._link(clock)
        link.inflight[(2, 0)] = object()
        convicted = []
        arm_heartbeat_deadline(wheel, link, 1.0, convicted.append)
        link.epoch += 1  # the connection was replaced: old watch is void
        clock["t"] = 5.0
        wheel.fire_due()
        assert convicted == []
        assert len(wheel) == 0  # and it does not re-arm


def _sleep_sites(module) -> list[tuple[str, ...]]:
    """The enclosing class path of every ``time.sleep`` call in a module."""
    import ast
    import inspect

    sleeps = []

    class Visitor(ast.NodeVisitor):
        def __init__(self):
            self.stack = []

        def visit_ClassDef(self, node):
            self.stack.append(node.name)
            self.generic_visit(node)
            self.stack.pop()

        def visit_Call(self, node):
            f = node.func
            if (
                isinstance(f, ast.Attribute)
                and f.attr == "sleep"
                and isinstance(f.value, ast.Name)
                and f.value.id == "time"
            ):
                sleeps.append(tuple(self.stack))
            self.generic_visit(node)

    Visitor().visit(ast.parse(inspect.getsource(module)))
    return sleeps


class TestReactorInvariants:
    def test_no_sleep_outside_worker_daemon(self):
        """The dispatch loop never sleeps: every ``time.sleep`` in the
        module belongs to the daemon side (fault injection and drain),
        none to the master's reactor."""
        from repro.restructured import netengine

        sleeps = _sleep_sites(netengine)
        assert sleeps, "expected the daemon's fault-injection sleeps"
        assert all(s and s[0] == "WorkerDaemon" for s in sleeps), (
            f"time.sleep outside WorkerDaemon: {sleeps}"
        )

    def test_no_sleep_in_the_ledger_or_the_pool_master(self):
        """Neither the job ledger nor the fork-pool transport sleeps:
        retry backoff and deadlines are timers, waits are ``select``."""
        from repro.restructured import ledger, parallel

        assert _sleep_sites(ledger) == []
        assert _sleep_sites(parallel) == []

    def test_master_adds_no_threads(self, pickle_combined):
        """One selector, zero reader threads: a socket run leaves the
        master's thread count exactly where it found it."""
        samples = []
        stop = threading.Event()

        def sample():
            while not stop.wait(0.02):
                samples.append(threading.active_count())

        before = threading.active_count()
        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        try:
            result = _run(engine="socket")
        finally:
            stop.set()
            sampler.join(timeout=5.0)
        assert np.array_equal(result.combined, pickle_combined)
        assert samples
        assert max(samples) <= before + 1  # + the sampler itself


# ----------------------------------------------------------------------
# fault-free runs through the engines
# ----------------------------------------------------------------------
class TestSocketRun:
    def test_bitwise_identical_to_pool(self, pickle_combined):
        recorder = TraceRecorder()
        result = _run(engine="socket", hosts="localhost:2", trace=recorder)
        assert np.array_equal(result.combined, pickle_combined)
        assert result.engine == "socket"
        assert result.daemons == 2
        assert result.faults == 0
        assert result.net_bytes_sent > 0
        assert result.net_bytes_received > result.net_bytes_sent
        analysis = TraceAnalysis.from_recorder(recorder)
        assert (
            analysis.network_bytes
            == result.net_bytes_sent + result.net_bytes_received
        )
        assert analysis.n_reconnects == 0
        assert any("network:" in line for line in analysis.report_lines())

    def test_default_hosts_follow_processes(self):
        result = _run(engine="socket")
        assert result.daemons == 2
        assert result.hosts == "localhost:2"

    def test_shm_data_plane_over_spawned_daemons(self, pickle_combined):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            result = _run(engine="socket", data_plane="shm")
            assert np.array_equal(result.combined, pickle_combined)
            assert result.shm_payloads == result.n_workers
            assert result.shm_fallbacks == 0
            audit = result.data_plane_audit
            assert audit is not None and audit.leaked == 0

    def test_dialed_daemon_never_gets_leases(self, local_daemon, pickle_combined):
        # a tcp:// daemon is not known host-local: shm must fall back
        # to pickle framing per payload, bitwise identically
        result = _run(
            engine="socket",
            data_plane="shm",
            hosts=f"tcp://127.0.0.1:{local_daemon.port}",
        )
        assert np.array_equal(result.combined, pickle_combined)
        assert result.shm_payloads == 0
        assert result.shm_fallbacks == result.n_workers
        assert result.data_plane_audit.leaked == 0


# ----------------------------------------------------------------------
# the zygote: daemons forked from one preloaded interpreter
# ----------------------------------------------------------------------
def _zygote_boots(recorder) -> list:
    return [e for e in recorder.events() if e.kind == "zygote_boot"]


def _kill_zygote() -> None:
    """SIGKILL the shared zygote and wait until it is gone: it gets no
    chance to kill the daemons it forked or to say goodbye."""
    zygote = pool._zygote
    assert zygote is not None and zygote.proc.poll() is None
    os.kill(zygote.proc.pid, signal.SIGKILL)
    zygote.proc.wait(timeout=10.0)


def _marked_processes(mark: str) -> list[int]:
    """Live (non-zombie) processes whose environment carries ``mark``:
    every descendant of an interpreter started with it, orphaned or not."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
            with open(f"/proc/{entry}/environ", "rb") as fh:
                environ = fh.read()
        except OSError:
            continue
        if state != "Z" and mark.encode() in environ:
            found.append(int(entry))
    return found


class TestZygote:
    def test_boots_once_across_three_runs(self, pickle_combined):
        """The zygote is booted by the first spawned daemon and forks
        every later one: three socket runs, one boot."""
        boots = []
        for _ in range(3):
            recorder = TraceRecorder()
            result = _run(engine="socket", trace=recorder)
            assert np.array_equal(result.combined, pickle_combined)
            boots += _zygote_boots(recorder)
            spawns = [e for e in recorder.events() if e.kind == "worker_spawn"]
            assert len(spawns) == 2
            assert all(e.data["seconds"] > 0 for e in spawns)
            analysis = TraceAnalysis.from_recorder(recorder)
            assert analysis.daemon_spawn_seconds == pytest.approx(
                sum(e.data["seconds"] for e in spawns)
            )
            assert any("daemon spawn:" in line for line in analysis.report_lines())
        assert len(boots) == 1
        assert boots[0].data["reason"] == "cold"
        assert boots[0].data["seconds"] > 0

    def test_zygote_killed_between_runs(self, pickle_combined):
        _run(engine="socket")
        _kill_zygote()
        recorder = TraceRecorder()
        result = _run(engine="socket", trace=recorder)
        assert np.array_equal(result.combined, pickle_combined)
        (boot,) = _zygote_boots(recorder)
        assert boot.data["reason"].startswith("lost")
        assert result.faults == 0

    def test_zygote_killed_during_a_crash_run(self, pickle_combined, monkeypatch):
        """The zygote dies after the daemons are forked; the crash's
        revive finds it dead, boots a new one, and the run completes."""
        _run(engine="socket")  # the zygote is up
        run = SocketTaskEngine.run

        def run_without_zygote(self, *args, **kwargs):
            _kill_zygote()
            return run(self, *args, **kwargs)

        monkeypatch.setattr(SocketTaskEngine, "run", run_without_zygote)
        recorder = TraceRecorder()
        result = _run(engine="socket", faults="crash@2,0", trace=recorder)
        assert np.array_equal(result.combined, pickle_combined)
        assert result.faults == 1
        assert result.reconnects == 1
        (boot,) = _zygote_boots(recorder)
        assert boot.data["reason"].startswith("lost")

    def test_shutdown_reaches_the_zygote_past_forked_holders(self):
        """A fork pool forked after the boot holds copies of the
        zygote's control socket; ``shutdown_pool`` still makes the
        zygote exit on its own (exit code 0), not by the kill its
        shutdown falls back to."""
        _run(engine="socket")
        zygote = pool._zygote
        holders = pool.PersistentWorkerPool(1)
        try:
            shutdown_pool()
            assert zygote.proc.returncode == 0
        finally:
            holders.shutdown()

    @pytest.mark.parametrize("exit_call", ["raise SystemExit(0)", "os._exit(0)"])
    def test_interpreter_exit_leaves_no_process(self, exit_call, tmp_path):
        """A child interpreter does one socket run and exits without any
        teardown call — normally (the ``atexit`` hook stops the zygote)
        or through ``os._exit`` (no hook runs: the zygote sees its
        master's pidfd turn readable).  Before exiting it forks a
        process that keeps a copy of the zygote's control socket, as a
        fork-pool worker would, so EOF alone cannot stop the zygote.  No
        zygote, daemon or task instance outlives the interpreter."""
        mark = f"repro-zygote-audit-{uuid.uuid4().hex}"
        code = (
            "import os, time\n"
            "from repro.restructured import run_multiprocessing\n"
            "r = run_multiprocessing(root=2, level=2, tol=1e-3, processes=2,"
            " engine='socket')\n"
            "assert r.daemons == 2\n"
            "holder = os.fork()\n"
            "if holder == 0:\n"
            "    null = os.open(os.devnull, os.O_RDWR)\n"
            "    os.dup2(null, 1)\n"
            "    os.dup2(null, 2)\n"
            "    time.sleep(60)\n"
            "    os._exit(0)\n"
            "print(holder, flush=True)\n"
            + exit_call
        )
        env = dict(os.environ, AUDIT_MARK=mark)
        # files, not pipes: a surviving zygote would hold a pipe open and
        # make the wait below hang instead of the audit fail
        out, err = tmp_path / "out", tmp_path / "err"
        with out.open("w") as stdout, err.open("w") as stderr:
            code_ = subprocess.call(
                [sys.executable, "-c", code],
                env=env, timeout=120, stdout=stdout, stderr=stderr,
            )
        assert code_ == 0, err.read_text()
        holder = int(out.read_text().split()[-1])
        try:
            # an orphaned task instance notices its lost daemon within a second
            deadline = time.monotonic() + 10.0
            survivors = [p for p in _marked_processes(mark) if p != holder]
            while survivors and time.monotonic() < deadline:
                time.sleep(0.1)
                survivors = [p for p in _marked_processes(mark) if p != holder]
            assert survivors == []
        finally:
            os.kill(holder, signal.SIGKILL)


class TestTaskEngineRun:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            _run(engine="mpi")

    def test_hosts_require_socket_engine(self):
        with pytest.raises(ValueError, match="hosts requires"):
            _run(hosts="localhost:2")


# ----------------------------------------------------------------------
# the chaos suite
# ----------------------------------------------------------------------
class TestChaos:
    def test_daemon_kill_mid_job(self, pickle_combined):
        """A crash rule kills the whole daemon process unannounced; the
        master convicts via connection EOF, respawns, re-dispatches."""
        recorder = TraceRecorder()
        result = _run(
            engine="socket", faults="crash@2,0", trace=recorder
        )
        assert np.array_equal(result.combined, pickle_combined)
        assert result.faults == 1
        assert result.recovered == 1
        assert result.reconnects == 1
        (event,) = result.fault_events
        assert event.kind == "crash"
        assert event.key == (2, 0)
        assert event.detected_by == "connection"
        analysis = TraceAnalysis.from_recorder(recorder)
        assert analysis.n_reconnects == 1
        reconnect = next(
            e for e in recorder.events() if e.kind == "reconnect"
        )
        assert reconnect.data["reason"] == "crash"

    def test_daemon_kill_under_shm(self, pickle_combined):
        """The killed daemon's lease is revoked (the writer is dead by
        construction), the retry gets a fresh lease, nothing leaks."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            result = _run(
                engine="socket", data_plane="shm", faults="crash@2,0"
            )
            assert np.array_equal(result.combined, pickle_combined)
            assert result.faults == 1
            audit = result.data_plane_audit
            assert audit.reaped >= 1
            assert audit.leaked == 0

    def test_connection_drop_during_result_transfer(
        self, local_daemon, pickle_combined
    ):
        """The daemon truncates a result frame and hard-closes (RST):
        a mid-frame EOF, convicted as a crash, recovered on re-dial."""
        local_daemon._drop_result_keys.add((2, 0))
        recorder = TraceRecorder()
        result = _run(
            engine="socket",
            hosts=f"tcp://127.0.0.1:{local_daemon.port}",
            trace=recorder,
        )
        assert np.array_equal(result.combined, pickle_combined)
        assert result.faults >= 1
        assert result.reconnects >= 1
        assert any(
            e.kind == "crash" and e.detected_by == "connection"
            for e in result.fault_events
        )
        assert (2, 0) in result.recovered_keys
        assert not local_daemon._drop_result_keys

    def test_heartbeat_silence_past_deadline(self, pickle_combined):
        """A daemon that stops talking while a job is in flight is a
        hang: detected by heartbeat timeout, replaced, re-dispatched."""
        # beats every 30s (never, at test scale) against a 1.2s timeout:
        # the only liveness signal left is result frames themselves
        daemon = WorkerDaemon(port=0, capacity=1, heartbeat_interval=30.0)
        thread = threading.Thread(target=daemon.serve_forever, daemon=True)
        thread.start()
        try:
            recorder = TraceRecorder()
            result = _run(
                engine="socket",
                hosts=f"tcp://127.0.0.1:{daemon.port}",
                faults="hang@2,0:seconds=45",
                trace=recorder,
                engine_options={"heartbeat_timeout": 1.2},
            )
            assert np.array_equal(result.combined, pickle_combined)
            assert result.faults == 1
            assert result.reconnects == 1
            (event,) = result.fault_events
            assert event.kind == "hang"
            assert event.detected_by == "heartbeat"
            assert event.seconds_lost >= 1.2
        finally:
            daemon.stop()
            thread.join(timeout=10.0)

    def test_fault_report_matches_trace(self, pickle_combined):
        """The FaultReport's counts and the trace's recovery overhead
        describe the same events."""
        recorder = TraceRecorder()
        result = _run(
            engine="socket", faults="crash@2,0;raise@1,1", trace=recorder
        )
        assert np.array_equal(result.combined, pickle_combined)
        analysis = TraceAnalysis.from_recorder(recorder)
        assert analysis.n_faults == result.faults == 2
        assert len(result.fault_events) == 2
        assert result.recovered == len(result.recovered_keys) == 2
        assert analysis.recovery_overhead_seconds > 0
        # one fault killed the daemon (reconnect), one did not
        assert analysis.n_reconnects == result.reconnects == 1


class TestRetryNoHeadOfLine:
    def test_backoff_on_one_link_does_not_stall_another(self, pickle_combined):
        """The head-of-line regression: a grid backing off after a fault
        must not freeze completion handling for healthy daemons.  The
        thread-per-link engine slept the full retry delay on its only
        dispatch thread; the reactor parks the grid on a timer and keeps
        serving every other link's frames."""
        from repro.resilience import RetryPolicy

        recorder = TraceRecorder()
        result = _run(
            engine="socket",
            faults="raise@2,0",
            retry=RetryPolicy(
                backoff_seconds=1.5, backoff_factor=1.0, jitter=0.0
            ),
            trace=recorder,
        )
        assert np.array_equal(result.combined, pickle_combined)
        assert result.faults == 1
        events = recorder.events()
        fault = next(e for e in events if e.kind == "fault")
        retry = next(e for e in events if e.kind == "retry")
        assert retry.data["backoff_seconds"] == pytest.approx(1.5)
        assert retry.t - fault.t >= 1.4  # the full backoff elapsed...
        # ...and the healthy daemon's results kept landing *during* it
        during = [
            e
            for e in events
            if e.kind == "net_recv"
            and e.data.get("frame_kind") == "result"
            and e.key != (2, 0)
            and fault.t < e.t < retry.t
        ]
        assert during, (
            "no result was processed during the backoff window: "
            "the retry stalled healthy links"
        )
        analysis = TraceAnalysis.from_recorder(recorder)
        assert analysis.retry_backoff_seconds == pytest.approx(1.5)
        assert any("backoff" in line for line in analysis.report_lines())


class TestDaemonDrain:
    def test_stop_drains_inflight_jobs(self, local_daemon):
        """A ``stop`` frame is a clean shutdown: a job still computing
        gets drained — its result frame arrives before the connection
        closes — instead of being silently dropped mid-compute."""
        from repro.resilience import FaultPlan
        from repro.restructured.worker import SubsolveJobSpec

        sock = socket.create_connection(
            ("127.0.0.1", local_daemon.port), timeout=10.0
        )
        sock.settimeout(10.0)
        try:
            kind, _, _, _ = recv_frame(sock)
            assert kind == "hello"
            spec = SubsolveJobSpec(
                problem_name="rotating-cone", root=2, l=2, m=0, tol=TOL
            )
            # the hang wedges the job's thread for 0.5s *before* it
            # computes: the stop frame overtakes it mid-sleep
            plan = FaultPlan.parse("hang@2,0:seconds=0.5")
            send_frame(sock, "job", {
                "spec": spec, "plan": plan, "attempt": 1,
                "use_cache": True, "lease": None,
            })
            send_frame(sock, "stop", {})
            result = None
            while result is None:
                frame = recv_frame(sock)
                assert frame is not None, (
                    "connection closed before the in-flight job's result"
                )
                kind, data, _, _ = frame
                if kind == "result":
                    result = data
            assert tuple(result["key"]) == (2, 0)
            assert result["attempt"] == 1
        finally:
            sock.close()
        deadline = time.monotonic() + 5.0
        while local_daemon.jobs_served != 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert local_daemon.jobs_served == 1


@pytest.mark.slow
class TestManyLinks:
    def test_32_daemons_one_dispatch_thread(self, pickle_combined):
        """The service-scale claim: one master holds 32 concurrent
        daemon links through one selector — thread count stays O(1),
        results stay bitwise identical."""
        samples = []
        stop = threading.Event()

        def sample():
            while not stop.wait(0.05):
                samples.append(threading.active_count())

        before = threading.active_count()
        sampler = threading.Thread(target=sample, daemon=True)
        sampler.start()
        recorder = TraceRecorder()
        try:
            result = _run(engine="socket", hosts="localhost:32", trace=recorder)
        finally:
            stop.set()
            sampler.join(timeout=5.0)
        assert result.daemons == 32
        assert np.array_equal(result.combined, pickle_combined)
        assert result.faults == 0
        assert samples
        assert max(samples) <= before + 1  # + the sampler itself
        # bring-up is 32 zygote forks: under a second once the one-time
        # boot is set aside, both until the last connection and until
        # the first-forked daemon's hello
        boot = sum(e.data["seconds"] for e in _zygote_boots(recorder))
        assert result.pool_cold_start_seconds - boot < 1.0
        spawns = [e for e in recorder.events() if e.kind == "worker_spawn"]
        assert len(spawns) == 32
        assert max(e.data["seconds"] for e in spawns) < 1.0


# ----------------------------------------------------------------------
# the validation harness
# ----------------------------------------------------------------------
class TestValidationHarness:
    def test_predicted_and_measured_side_by_side(self):
        from repro.cluster.validation import validate_socket_engine

        report = validate_socket_engine(level=LEVEL, processes=2)
        assert report.bitwise_identical
        assert report.n_grids == 5
        assert report.measured["work_critical"] > 0
        assert report.predicted["work_critical"] > 0
        assert report.measured["startup"] == report.predicted["startup"]
        assert report.network_bytes > 0
        lines = report.lines()
        assert any("bitwise identical to sequential: True" in l for l in lines)
        assert any(l.startswith("work_critical") for l in lines)
        assert any(l.startswith("elapsed") for l in lines)
