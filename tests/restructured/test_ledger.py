"""The job ledger without processes or sockets, and its fork-pool
transport against a scripted fake pool.

The ledger reads time only through its injected clock, so the whole
escalation ladder — retry, reassign, fallback, fail; culprit versus
collateral; the ``stale`` and ``transport`` rungs; timer-parked backoff;
deadlines; the lease rule — is driven here by a :class:`FakeClock` and
hand-fed transport events, deterministically and instantly.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from repro.perf.dataplane import DataPlaneError, ShmLease, StaleLeaseError
from repro.resilience import (
    DeadlinePolicy,
    EscalationPolicy,
    FaultToleranceExhausted,
    RetryPolicy,
)
from repro.restructured import run_multiprocessing, shutdown_pool
from repro.restructured.ledger import JobLedger
from repro.restructured.parallel import _PoolTransport
from repro.restructured.worker import SubsolveJobSpec
from repro.trace import TraceRecorder

TOL = 1.0e-3
BACKOFF = 0.5


@dataclass
class FakeClock:
    value: float = 0.0

    def __call__(self) -> float:
        return self.value


def _spec(l: int, m: int) -> SubsolveJobSpec:
    return SubsolveJobSpec(problem_name="rotating-cone", root=2, l=l, m=m, tol=TOL)


def _escalation(max_attempts=3, fallback=True, deadline=10.0):
    return EscalationPolicy(
        retry=RetryPolicy(
            max_attempts=max_attempts,
            backoff_seconds=BACKOFF,
            backoff_factor=1.0,
            jitter=0.0,
        ),
        deadline=DeadlinePolicy(floor_seconds=deadline, default_seconds=deadline),
        sequential_fallback=fallback,
    )


def _ledger(specs, clock, **kw):
    kw.setdefault("escalation", _escalation())
    return JobLedger(specs, clock=clock, **kw)


class FakePlane:
    """Just enough of the data plane to watch the lease rule."""

    def __init__(self):
        self.generation = 0
        self.leased: set = set()
        self.revoked: list = []
        self._n = 0

    def lease(self, key):
        self._n += 1
        name = f"seg-{self._n}"
        self.leased.add(name)
        return ShmLease(name=name, nbytes=64, generation=self.generation)

    def revoke(self, name, *, reason):
        assert name in self.leased, f"revoked {name} twice"
        self.leased.discard(name)
        self.revoked.append((name, reason))

    def bump_generation(self):
        self.generation += 1
        for name in sorted(self.leased):
            self.revoke(name, reason="generation")


class FakeSink:
    def __init__(self):
        self.plane = FakePlane()
        self.consumed: list = []
        self.refuse: list = []  # exceptions raised by the next consumes

    def lease_for(self, spec):
        return self.plane.lease((spec.l, spec.m))

    def consume(self, key, payload, *, attempt=1):
        if self.refuse:
            raise self.refuse.pop(0)
        self.consumed.append(key)


def _send_all(ledger):
    jobs = []
    while ledger.ready:
        spec, attempt = ledger.ready.popleft()
        jobs.append(ledger.send(spec, attempt))
    return jobs


def _advance(clock, ledger, seconds):
    clock.value += seconds
    ledger.timers.fire_due()


class TestLadder:
    def test_fault_free_run(self):
        clock = FakeClock()
        ledger = _ledger([_spec(1, 1), _spec(2, 0)], clock)
        for job in _send_all(ledger):
            ledger.done(job, f"payload{job.key}")
        assert ledger.finished
        out = ledger.outcome()
        assert out.attempts == 2 and out.events == ()
        assert out.completion_order == ((1, 1), (2, 0))
        assert out.payloads[(2, 0)] == "payload(2, 0)"

    def test_retry_reassign_fallback(self):
        clock = FakeClock()
        ledger = _ledger([_spec(1, 1)], clock)
        (job,) = _send_all(ledger)
        ledger.fault(job, "exception", detected_by="exception")
        _advance(clock, ledger, BACKOFF)
        (job,) = _send_all(ledger)
        assert job.attempt == 2
        ledger.fault(job, "crash", detected_by="liveness")
        _advance(clock, ledger, BACKOFF)
        (job,) = _send_all(ledger)
        ledger.fault(job, "crash", detected_by="liveness")
        # the third failure degrades to the in-master subsolve at once
        assert ledger.finished
        out = ledger.outcome()
        assert [e.action for e in out.events] == ["retry", "reassign", "fallback"]
        assert out.fallback_keys == ((1, 1),)
        assert out.recovered_keys == ((1, 1),)
        assert out.attempts == 3
        payload = out.payloads[(1, 1)]
        assert (payload.l, payload.m) == (1, 1)
        assert np.all(np.isfinite(payload.solution))

    def test_fail_raises_the_report(self):
        clock = FakeClock()
        ledger = _ledger(
            [_spec(1, 1)], clock, escalation=_escalation(max_attempts=1, fallback=False)
        )
        (job,) = _send_all(ledger)
        with pytest.raises(FaultToleranceExhausted) as info:
            ledger.fault(job, "exception", detected_by="exception", error="boom")
        report = info.value.report
        assert report.failed_key == (1, 1)
        assert [e.action for e in report.events] == ["fail"]

    def test_backoff_is_timer_parked(self):
        clock = FakeClock()
        ledger = _ledger([_spec(1, 1), _spec(2, 0), _spec(0, 2)], clock)
        first, second, third = _send_all(ledger)
        ledger.fault(first, "exception", detected_by="exception")
        assert ledger.parked == 1 and not ledger.ready and not ledger.finished
        assert ledger.timers.next_timeout() == pytest.approx(BACKOFF)
        # healthy jobs keep completing while the faulted one backs off
        ledger.done(second, "p")
        _advance(clock, ledger, BACKOFF / 2)
        assert not ledger.ready
        ledger.done(third, "p")
        _advance(clock, ledger, BACKOFF / 2)
        assert ledger.parked == 0
        assert list(ledger.ready) == [(first.spec, 2)]
        assert ledger.outcome().completion_order == ((2, 0), (0, 2))

    def test_culprit_vs_collateral(self):
        clock = FakeClock()
        ledger = _ledger([_spec(1, 1), _spec(2, 0), _spec(0, 2)], clock)
        a, b, c = _send_all(ledger)
        ledger.lost([a, b, c], kind="deadline", detected_by="deadline",
                    error="wedged", culprit=b)
        (event,) = ledger.outcome().events
        assert (event.key, event.kind, event.action) == ((2, 0), "deadline", "reassign")
        # the collateral are back at the front, at their same attempt
        assert sorted((s.l, s.m, n) for s, n in ledger.ready) == [(0, 2, 1), (1, 1, 1)]
        for job in _send_all(ledger):
            ledger.done(job, "p")
        assert ledger.outcome().recovered_keys == ()  # no step consumed
        _advance(clock, ledger, BACKOFF)
        (job,) = _send_all(ledger)
        ledger.done(job, "p")
        out = ledger.outcome()
        assert out.recovered_keys == ((2, 0),)
        assert out.attempts == 6

    def test_lost_without_culprit_faults_everything(self):
        clock = FakeClock()
        ledger = _ledger([_spec(1, 1), _spec(2, 0)], clock)
        jobs = _send_all(ledger)
        ledger.lost(jobs, kind="crash", detected_by="connection", error="eof")
        assert [e.kind for e in ledger.outcome().events] == ["crash", "crash"]

    @pytest.mark.parametrize(
        "exc, kind",
        [(StaleLeaseError("old generation"), "stale"),
         (DataPlaneError("checksum"), "transport")],
    )
    def test_refused_descriptor_rungs(self, exc, kind):
        clock = FakeClock()
        sink = FakeSink()
        ledger = _ledger([_spec(1, 1)], clock, sink=sink)
        (job,) = _send_all(ledger)
        sink.refuse.append(exc)
        ledger.done(job, "p")
        (event,) = ledger.outcome().events
        assert (event.kind, event.detected_by, event.action) == (kind, "dataplane", "retry")
        assert not ledger.completed
        _advance(clock, ledger, BACKOFF)
        (job,) = _send_all(ledger)
        ledger.done(job, "p")
        assert sink.consumed == [(1, 1)]
        assert ledger.finished

    def test_stale_results_are_dropped(self):
        clock = FakeClock()
        ledger = _ledger([_spec(1, 1), _spec(2, 0)], clock)
        a, b = _send_all(ledger)
        ledger.lost([a, b], kind="hang", detected_by="heartbeat", error="", culprit=a)
        ledger.done(b, "late")  # an answer from the killed worker
        assert not ledger.completed

    def test_deadline_asks_the_transport_to_kill(self):
        clock = FakeClock()
        ledger = _ledger([_spec(1, 1), _spec(2, 0)], clock,
                         escalation=_escalation(deadline=2.0))
        a, b = _send_all(ledger)
        killed = []
        ledger.on_overdue = lambda job: killed.append(job) or [a, b]
        ledger.done(b, "p")
        _advance(clock, ledger, 1.0)
        assert killed == []
        _advance(clock, ledger, 1.1)
        assert killed == [a]
        (event,) = ledger.outcome().events
        assert (event.kind, event.detected_by) == ("deadline", "deadline")
        assert event.seconds_lost == pytest.approx(2.1)

    def test_deadline_spared_when_the_result_is_already_queued(self):
        clock = FakeClock()
        ledger = _ledger([_spec(1, 1)], clock, escalation=_escalation(deadline=2.0))
        (job,) = _send_all(ledger)
        ledger.on_overdue = lambda job: []
        _advance(clock, ledger, 3.0)
        assert ledger.outcome().events == ()
        ledger.done(job, "p")
        assert ledger.finished


class TestLeaseRule:
    """One rule for both transports: revoke an attempt's lease when its
    writer is dead or never wrote; a hung writer's lease only through
    the kill that ends it."""

    @pytest.mark.parametrize("kind", ["crash", "exception", "death_worker"])
    def test_dead_or_silent_writer_is_revoked(self, kind):
        clock = FakeClock()
        sink = FakeSink()
        ledger = _ledger([_spec(1, 1)], clock, sink=sink)
        (job,) = _send_all(ledger)
        ledger.fault(job, kind, detected_by="test")
        assert sink.plane.revoked == [(job.lease.name, kind)]

    def test_refused_descriptor_is_revoked(self):
        clock = FakeClock()
        sink = FakeSink()
        ledger = _ledger([_spec(1, 1)], clock, sink=sink)
        (job,) = _send_all(ledger)
        sink.refuse.append(DataPlaneError("checksum"))
        ledger.done(job, "p")
        assert sink.plane.revoked == [(job.lease.name, "transport")]

    def test_killed_daemon_revokes_culprit_and_collateral(self):
        clock = FakeClock()
        sink = FakeSink()
        ledger = _ledger([_spec(1, 1), _spec(2, 0)], clock, sink=sink)
        a, b = _send_all(ledger)
        ledger.lost([a, b], kind="crash", detected_by="connection", error="", culprit=a)
        assert sorted(sink.plane.revoked) == sorted(
            [(a.lease.name, "crash"), (b.lease.name, "collateral")]
        )
        # every lease is back before anything is re-sent
        assert not sink.plane.leased

    def test_hung_writer_keeps_its_lease_until_the_kill(self):
        clock = FakeClock()
        sink = FakeSink()
        ledger = _ledger([_spec(1, 1)], clock, sink=sink,
                         escalation=_escalation(deadline=2.0))
        (job,) = _send_all(ledger)
        at_kill = []

        def kill(overdue):
            at_kill.extend(sink.plane.revoked)  # the writer is still alive here
            return [overdue]

        ledger.on_overdue = kill
        _advance(clock, ledger, 2.1)
        assert at_kill == []
        assert sink.plane.revoked == [(job.lease.name, "deadline")]

    def test_unkilled_hang_never_loses_its_lease(self):
        clock = FakeClock()
        sink = FakeSink()
        ledger = _ledger([_spec(1, 1)], clock, sink=sink,
                         escalation=_escalation(deadline=2.0))
        _send_all(ledger)
        ledger.on_overdue = lambda job: []
        _advance(clock, ledger, 10.0)
        assert sink.plane.revoked == []

    def test_generation_bump_is_not_revoked_again(self):
        """The pool's respawn reclaims every lease by bumping the plane's
        generation; the ledger must not revoke those names a second time
        (the blocks may already be leased to the replays)."""
        clock = FakeClock()
        sink = FakeSink()
        ledger = _ledger([_spec(1, 1), _spec(2, 0)], clock, sink=sink,
                         escalation=_escalation(deadline=2.0))
        jobs = _send_all(ledger)

        def respawn(overdue):
            sink.plane.bump_generation()
            return jobs

        ledger.on_overdue = respawn
        _advance(clock, ledger, 2.1)
        assert [reason for _, reason in sink.plane.revoked] == ["generation"] * 2
        replays = _send_all(ledger)
        assert all(job.lease.generation == 1 for job in replays)


# ----------------------------------------------------------------------
# the fork-pool transport against a scripted pool
# ----------------------------------------------------------------------
#: above Linux's PID ceiling (2**22): no live process can ever hold it
DEAD_PID = (1 << 22) + 7

class _FakeWorker:
    def __init__(self, pid):
        self.pid = pid
        self.sentinel, self._alive_w = os.pipe()

    def die(self):
        os.close(self._alive_w)  # the sentinel turns readable: EOF

    def close(self):
        os.close(self.sentinel)


class _FakeHandle:
    def __init__(self):
        self.done = False

    def ready(self):
        return self.done


class _RacingPool:
    """A pool whose first job's worker dies one loop pass *before* the
    master drains that job's start heartbeat.

    The death is delivered at submit; the heartbeat is released on the
    transport's next look at the worker list — a pass after it has seen
    the sentinel fire.  Later attempts complete at once.
    """

    processes = 1

    def __init__(self):
        self.worker = _FakeWorker(DEAD_PID)
        self.replacement = _FakeWorker(DEAD_PID + 1)
        self._beat_r, self._beat_w = os.pipe()
        self._beats: list = []
        self._withheld = None
        self.looks = 0
        self.discarded = []

    def heartbeat_fileno(self):
        return self._beat_r

    def drain_heartbeats(self):
        if self._beats:
            os.read(self._beat_r, 4096)
        beats, self._beats = self._beats, []
        return beats

    def _beat(self, beat):
        self._beats.append(beat)
        os.write(self._beat_w, b"\0")

    def worker_processes(self):
        # look 1 is the transport's set-up; look 2 comes in the pass
        # that saw the first worker's sentinel fire
        self.looks += 1
        if self._withheld is not None and self.looks >= 2:
            self._beat(self._withheld)
            self._withheld = None
        # the pool joins a dead worker and lists only its replacement
        if self.looks >= 2:
            return [self.replacement]
        return [self.worker]

    def submit(self, fn, item, *, callback):
        spec, _, attempt = item[:3]
        handle = _FakeHandle()
        if attempt == 1:
            self._withheld = ("start", (spec.l, spec.m), attempt, DEAD_PID)
            self.worker.die()
        else:
            handle.done = True
            callback(True, f"payload-{attempt}")
        return handle

    def discard(self, handle):
        self.discarded.append(handle)

    def close(self):
        for worker in (self.worker, self.replacement):
            worker.close()
        os.close(self._beat_r)
        os.close(self._beat_w)


class _FakeLease:
    def __init__(self, pool):
        self.pool = pool

    def respawn(self):  # pragma: no cover - the test must not get here
        raise AssertionError("a crash must not respawn the pool")


class TestPoolTransport:
    def test_death_seen_before_start_heartbeat_still_convicts(self):
        """The crash-attribution race: the worker's death is observed a
        loop pass before the start heartbeat naming it is drained.  The
        transport remembers dead PIDs, so the late heartbeat still
        convicts the job as a crash at once — no deadline wait."""
        pool = _RacingPool()
        ledger = JobLedger(
            [_spec(2, 0)],
            escalation=EscalationPolicy(
                retry=RetryPolicy(backoff_seconds=0.01, jitter=0.0),
                deadline=DeadlinePolicy(floor_seconds=5.0, default_seconds=5.0),
            ),
        )
        started = time.monotonic()
        try:
            _PoolTransport(_FakeLease(pool), ledger, plan=None, use_cache=True).run()
        finally:
            pool.close()
        elapsed = time.monotonic() - started
        out = ledger.outcome()
        (event,) = out.events
        assert (event.kind, event.detected_by, event.action) == (
            "crash", "liveness", "reassign",
        )
        assert f"pid {DEAD_PID}" in event.error
        assert out.payloads == {(2, 0): "payload-2"}
        assert out.recovered_keys == ((2, 0),)
        assert len(pool.discarded) == 1
        assert elapsed < 2.0, f"waited {elapsed:.2f}s: the deadline, not liveness"


class TestPoolNoHeadOfLine:
    def test_backoff_does_not_stall_healthy_grids(self):
        """A grid backing off after a fault must not freeze completion
        handling for the others: the pool master used to sleep the full
        retry delay on its only thread; the ledger parks the grid on a
        timer and keeps folding every other grid's result."""
        shutdown_pool()
        recorder = TraceRecorder()
        try:
            result = run_multiprocessing(
                root=2,
                level=2,
                tol=TOL,
                processes=2,
                data_plane="shm",
                faults="raise@2,0",
                retry=RetryPolicy(backoff_seconds=1.5, backoff_factor=1.0, jitter=0.0),
                trace=recorder,
            )
        finally:
            shutdown_pool()
        assert result.faults == 1
        events = recorder.events()
        fault = next(e for e in events if e.kind == "fault")
        retry = next(e for e in events if e.kind == "retry")
        assert retry.t - fault.t >= 1.4
        # combine_chunk is stamped by the master as it folds a result
        during = [
            e
            for e in events
            if e.kind == "combine_chunk"
            and e.key != (2, 0)
            and fault.t < e.t < retry.t
        ]
        assert during, "no result was folded during the backoff window"
