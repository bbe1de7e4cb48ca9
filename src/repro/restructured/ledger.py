"""The job ledger: one fault-tolerant dispatch protocol for every engine.

Every :func:`~repro.restructured.parallel.run_multiprocessing` call —
fork pool or socket daemons, with or without injected faults — hands
its jobs to one :class:`JobLedger`.  The ledger is the protocol
automaton of the run and nothing else: it knows which jobs are ready,
in flight, parked on a retry backoff or completed; it makes every
escalation decision; it runs the in-master fallback, feeds the
streaming fan-in (:class:`PayloadSink`) and builds the
:class:`~repro.resilience.policy.FaultReport`.  It knows nothing about
processes or sockets and reads time only through an injected clock, so
its whole ladder can be driven by a fake clock in a unit test.

The concurrency lives at the edges, in two thin transports that turn
what they observe into ledger events and wait in one ``selectors``
loop each (neither ever calls ``time.sleep``):

* the fork pool (:mod:`repro.restructured.parallel`) — heartbeat pipe,
  ``apply_async`` callbacks through a self-pipe, worker exit sentinels;
* the socket reactor (:mod:`repro.restructured.netengine`) — daemon
  links, framing and the reconnect state machine.

A transport reports :meth:`JobLedger.send`, :meth:`~JobLedger.done`,
:meth:`~JobLedger.fault` and :meth:`~JobLedger.lost` events and fires
the ledger's :attr:`~JobLedger.timers`; an overdue job comes back to it
through its ``on_overdue`` hook, which must end the wedged writer.

The **lease rule** lives here, once: an attempt's shm lease is revoked
when its writer is dead or never wrote — on :meth:`fault` and
:meth:`lost` — and never before.  A hung writer's lease is therefore
reclaimed only by the respawn or daemon kill that ends it.  A lease a
generation bump already reclaimed is never revoked again by name (its
block may be leased to another attempt by then).
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.resilience.policy import (
    EscalationStep,
    FaultEvent,
    FaultLog,
    FaultToleranceExhausted,
)

from .worker import SubsolveJobSpec, SubsolvePayload, execute_job

__all__ = [
    "TimerWheel",
    "Attempt",
    "LedgerOutcome",
    "JobLedger",
    "PayloadSink",
    "trace_payload",
]

#: scheduling slack added to deadline timers so a conviction never
#: lands a clock-granularity tick *before* its full window has elapsed
_DEADLINE_GRACE = 0.005


class TimerWheel:
    """A heap of ``(due, seq, callback)`` read through an injected clock.

    Everything a master would otherwise ``time.sleep`` for — retry
    backoff, reconnect backoff, heartbeat-silence deadlines, per-job
    deadlines — becomes a scheduled callback here, so a transport's only
    blocking point is its ``select`` with :meth:`next_timeout` as the
    timeout.  Callbacks validate their subject at fire time (epoch,
    in-flight identity, revive token) instead of being cancelled, which
    keeps scheduling O(log n) with no bookkeeping on the hot path.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` on the loop's thread ``delay`` seconds on."""
        self._seq += 1
        heapq.heappush(
            self._heap, (self.clock() + max(0.0, delay), self._seq, callback)
        )

    def next_timeout(self) -> Optional[float]:
        """Seconds until the earliest timer, ``None`` on an empty wheel."""
        if not self._heap:
            return None
        return max(0.0, self._heap[0][0] - self.clock())

    def fire_due(self) -> int:
        """Run every callback whose due time has passed; returns how many."""
        fired = 0
        while self._heap and self._heap[0][0] <= self.clock():
            _, _, callback = heapq.heappop(self._heap)
            callback()
            fired += 1
        return fired


def trace_payload(trace, payload, *, attempt: int = 1, fallback: bool = False) -> None:
    """Emit one completed job's lifecycle onto the trace timeline.

    The start/finish timestamps were measured by the worker process's
    own monotonic clock and carried home in the payload; on Linux that
    is the same ``CLOCK_MONOTONIC`` the recorder's default clock reads,
    so they land directly on the shared time axis.
    """
    if trace is None:
        return
    key = (payload.l, payload.m)
    worker = payload.worker_pid or None
    started = payload.started_monotonic or None
    trace.record(
        "cache_hit" if payload.operator_cache_hit else "cache_miss",
        key=key,
        worker=worker,
        t=started,
    )
    trace.record("job_start", key=key, worker=worker, attempt=attempt, t=started)
    extra = {"fallback": True} if fallback else {}
    trace.record(
        "job_done",
        key=key,
        worker=worker,
        attempt=attempt,
        t=payload.finished_monotonic or None,
        wall_seconds=payload.wall_seconds,
        **extra,
    )
    if getattr(payload, "split_k", 1) > 1:
        # sharded job: the strips ran inside the worker process, where
        # the global emit() hook is a no-op — lift the counters the
        # payload carried home onto the master's timeline as one
        # aggregate event per kind
        trace.record(
            "strip_factor",
            key=key,
            worker=worker,
            attempt=attempt,
            split_k=payload.split_k,
            count=payload.strip_factorizations,
            seconds=payload.strip_factor_seconds,
            critical_seconds=payload.critical_strip_factor_seconds,
        )
        trace.record(
            "halo_exchange",
            key=key,
            worker=worker,
            attempt=attempt,
            exchanges=payload.halo_exchanges,
            payload_bytes=payload.halo_bytes,
        )
        trace.record(
            "schur_solve",
            key=key,
            worker=worker,
            attempt=attempt,
            count=payload.interface_solves,
            seconds=payload.interface_solve_seconds,
            interface_unknowns=payload.interface_unknowns,
        )


class PayloadSink:
    """Consumes payloads as they land: descriptor resolution + streaming
    combination + the transport-vs-compute accounting.

    One sink per shm run.  ``consume`` resolves a descriptor-carrying
    payload into a zero-copy view (:meth:`DataPlane.attach` verifies
    generation and checksum first), feeds the grid to the streaming
    combiner, then returns the segment to the arena — so a block is
    reusable the moment its grid has been resampled.  Combine time
    accrued while other subsolves were still outstanding is the overlap
    the barriered path cannot have.
    """

    def __init__(self, plane, combiner, *, n_expected: int, trace=None) -> None:
        self.plane = plane
        self.combiner = combiner
        self.n_expected = n_expected
        self.trace = trace
        self.arrived = 0
        self.shm_payloads = 0
        self.shm_fallbacks = 0
        self.transport_shm_bytes = 0
        self.transport_pickle_bytes = 0
        self.attach_seconds = 0.0
        self.combine_seconds = 0.0
        self.overlap_seconds = 0.0

    def lease_for(self, spec: SubsolveJobSpec):
        """A lease sized for the job's full nodal solution."""
        from repro.perf.dataplane import payload_nbytes

        return self.plane.lease(
            (spec.l, spec.m), payload_nbytes(spec.grid.n_nodes)
        )

    def consume(self, key, payload: SubsolvePayload, *, attempt: int = 1) -> None:
        """Fold one arrived payload into the combined solution.

        Raises :class:`~repro.perf.dataplane.DataPlaneError` (notably
        its stale-generation subclass) *before* any state changes, so
        the ledger can treat a rejected descriptor like any other fault
        and re-dispatch the job.
        """
        descriptor = payload.descriptor
        if descriptor is not None:
            t_attach = time.perf_counter()
            values = self.plane.attach(descriptor)
            attach_dt = time.perf_counter() - t_attach
            self.attach_seconds += attach_dt
            self.shm_payloads += 1
            self.transport_shm_bytes += descriptor.payload_bytes
            if self.trace is not None:
                self.trace.record(
                    "payload_shm_write",
                    key=key,
                    worker=payload.worker_pid or None,
                    attempt=attempt,
                    payload_bytes=descriptor.payload_bytes,
                    seconds=payload.shm_write_seconds,
                )
                self.trace.record(
                    "payload_attach",
                    key=key,
                    attempt=attempt,
                    payload_bytes=descriptor.payload_bytes,
                    seconds=attach_dt,
                )
        else:
            values = payload.solution
            self.shm_fallbacks += 1
            self.transport_pickle_bytes += int(values.nbytes)
        self.arrived += 1
        overlapped = self.arrived < self.n_expected
        t_combine = time.perf_counter()
        folded = self.combiner.add(key, values)
        combine_dt = time.perf_counter() - t_combine
        self.combine_seconds += combine_dt
        if overlapped:
            self.overlap_seconds += combine_dt
        if self.trace is not None:
            self.trace.record(
                "combine_chunk",
                key=key,
                seconds=combine_dt,
                folded=folded,
                pending=self.n_expected - self.arrived,
                payload_bytes=int(np.asarray(values).nbytes),
            )
        if descriptor is not None:
            # the combiner copied anything it parked: drop the view and
            # hand the block back for the next lease
            del values
            self.plane.release(descriptor.name)


@dataclass(eq=False)
class Attempt:
    """One job attempt in flight.

    ``worker`` is the transport's note of who holds it (a daemon link,
    or a pool worker PID once its start heartbeat names one); the
    ledger never reads it.
    """

    spec: SubsolveJobSpec
    attempt: int
    submitted_at: float
    #: the deadline budget, seconds
    budget: float
    lease: Optional[object] = None
    worker: object = None

    @property
    def key(self) -> tuple[int, int]:
        return (self.spec.l, self.spec.m)


@dataclass
class LedgerOutcome:
    """What one ledger run produced."""

    payloads: dict[tuple[int, int], SubsolvePayload]
    completion_order: tuple[tuple[int, int], ...]
    #: job dispatches, replays and collateral re-dispatches included
    attempts: int
    #: the detection-ordered fault history
    events: tuple
    recovered_keys: tuple[tuple[int, int], ...]
    fallback_keys: tuple[tuple[int, int], ...]


class JobLedger:
    """The dispatch protocol of one run: ready, in flight, parked, done.

    ``ordered`` is the dispatch order (longest predicted first); a
    transport pops :attr:`ready` from the left as workers free up, and
    replays are pushed back on the left so a faulted grid is not sent
    behind the whole queue.  ``clock`` drives every timer; ``sink``
    (the shm data plane's fan-in) receives each payload as it lands.
    """

    def __init__(
        self,
        ordered: list[SubsolveJobSpec],
        *,
        escalation,
        use_cache: bool = True,
        cost_model=None,
        fault_log=None,
        sink: Optional[PayloadSink] = None,
        trace=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.escalation = escalation
        self.use_cache = use_cache
        self.cost_model = cost_model
        self.log = fault_log if fault_log is not None else FaultLog()
        self.sink = sink
        self.trace = trace
        self.timers = TimerWheel(clock)
        self.ready: deque[tuple[SubsolveJobSpec, int]] = deque(
            (spec, 1) for spec in ordered
        )
        self.inflight: dict[tuple[int, int], Attempt] = {}
        #: jobs waiting out a retry backoff on the wheel
        self.parked = 0
        self.completed: dict[tuple[int, int], SubsolvePayload] = {}
        self.completion_order: list[tuple[int, int]] = []
        self.recovered_keys: list[tuple[int, int]] = []
        self.fallback_keys: list[tuple[int, int]] = []
        self.attempts = 0
        #: set by the transport — its kill switch for a job past its
        #: deadline: end the wedged writer, return every in-flight
        #: Attempt the kill took down
        self.on_overdue: Optional[Callable[[Attempt], list]] = None

    @property
    def clock(self) -> Callable[[], float]:
        return self.timers.clock

    @property
    def finished(self) -> bool:
        return not (self.ready or self.inflight or self.parked)

    # ------------------------------------------------------------------
    # transport events
    # ------------------------------------------------------------------
    def send(
        self,
        spec: SubsolveJobSpec,
        attempt: int,
        *,
        worker=None,
        shm: bool = True,
    ) -> Attempt:
        """Record that ``spec`` goes out as ``attempt``; arms its
        deadline.  ``shm=False`` (a worker not known to share this
        machine) sends it without a lease."""
        now = self.clock()
        predicted = (
            None
            if self.cost_model is None
            else float(self.cost_model.predict_seconds(spec.l, spec.m, spec.tol))
        )
        lease = (
            self.sink.lease_for(spec) if self.sink is not None and shm else None
        )
        job = Attempt(
            spec,
            attempt,
            submitted_at=now,
            budget=self.escalation.deadline.deadline_seconds(predicted),
            lease=lease,
            worker=worker,
        )
        self.attempts += 1
        self.inflight[job.key] = job
        if self.trace is not None:
            self.trace.record(
                "job_submit",
                key=job.key,
                worker=getattr(worker, "name", None),
                attempt=attempt,
            )

        def overdue() -> None:
            if self.inflight.get(job.key) is job:
                self.lost(
                    self.on_overdue(job),
                    kind="deadline",
                    detected_by="deadline",
                    error=f"no result within {job.budget:.2f}s",
                    culprit=job,
                )

        self.timers.schedule(job.budget + _DEADLINE_GRACE, overdue)
        return job

    def done(self, job: Attempt, payload: SubsolvePayload) -> None:
        """``job``'s result arrived.  A result for an attempt no longer
        in flight (declared lost, or superseded) is dropped."""
        if self.inflight.get(job.key) is not job:
            return
        if self.sink is not None:
            from repro.perf.dataplane import DataPlaneError, StaleLeaseError

            try:
                self.sink.consume(job.key, payload, attempt=job.attempt)
            except StaleLeaseError as exc:
                # a descriptor written before a generation bump: its
                # block may be re-leased already, so the result is
                # discarded and the job escalated
                self.fault(job, "stale", detected_by="dataplane", error=repr(exc))
                return
            except DataPlaneError as exc:
                self.fault(
                    job, "transport", detected_by="dataplane", error=repr(exc)
                )
                return
        del self.inflight[job.key]
        self._complete(job.key, payload, job.attempt)
        if job.attempt > 1 and job.key not in self.recovered_keys:
            self.recovered_keys.append(job.key)

    def fault(
        self, job: Attempt, kind: str, *, detected_by: str, error: str = ""
    ) -> None:
        """One attempt failed and its writer is dead or never wrote:
        reclaim its lease and take the next rung of the ladder."""
        if self.inflight.get(job.key) is not job:
            return
        del self.inflight[job.key]
        self._revoke(job, kind)
        self._escalate(job, kind, detected_by, error)

    def lost(
        self,
        jobs,
        *,
        kind: str,
        detected_by: str,
        error: str,
        culprit: Optional[Attempt] = None,
    ) -> None:
        """The transport killed the worker(s) holding ``jobs``.

        The culprit (every job, when ``culprit`` is ``None``) faults;
        the others are collateral of the kill — not their fault, so
        they consume no escalation step and go back to the front of the
        queue at the same attempt.  Every lease is revoked before
        anything is re-sent: the writers are dead.
        """
        for job in list(jobs):
            if self.inflight.get(job.key) is not job:
                continue
            if culprit is None or job is culprit:
                self.fault(job, kind, detected_by=detected_by, error=error)
            else:
                del self.inflight[job.key]
                self._revoke(job, "collateral")
                self.ready.appendleft((job.spec, job.attempt))

    def abort(self, cause: Optional[BaseException] = None) -> None:
        """Fail the run with the structured report of what happened."""
        report = self.log.report(
            recovered_keys=self.recovered_keys,
            fallback_keys=self.fallback_keys,
            failed_key=self.log.events()[-1].key if len(self.log) else None,
        )
        raise FaultToleranceExhausted(report) from cause

    def outcome(self) -> LedgerOutcome:
        return LedgerOutcome(
            payloads=self.completed,
            completion_order=tuple(self.completion_order),
            attempts=self.attempts,
            events=tuple(self.log.events()),
            recovered_keys=tuple(self.recovered_keys),
            fallback_keys=tuple(self.fallback_keys),
        )

    # ------------------------------------------------------------------
    # the ladder
    # ------------------------------------------------------------------
    def _revoke(self, job: Attempt, reason: str) -> None:
        lease = job.lease
        if lease is not None and lease.generation == self.sink.plane.generation:
            self.sink.plane.revoke(lease.name, reason=reason)

    def _complete(self, key, payload: SubsolvePayload, attempt: int, **extra) -> None:
        self.completed[key] = payload
        self.completion_order.append(key)
        trace_payload(self.trace, payload, attempt=attempt, **extra)

    def _escalate(
        self, job: Attempt, kind: str, detected_by: str, error: str
    ) -> None:
        key = job.key
        step = self.escalation.decide(job.attempt, kind)
        event = FaultEvent(
            key=key,
            kind=kind,
            attempt=job.attempt,
            action=step.value,
            detected_by=detected_by,
            error=error,
            seconds_lost=self.clock() - job.submitted_at,
        )
        self.log.record(event)
        if self.trace is not None:
            self.trace.record_fault(event)
        if step in (EscalationStep.RETRY, EscalationStep.REASSIGN):
            # timer-parked, never slept: the transport keeps serving
            # every other worker while this grid backs off
            delay = self.escalation.retry.delay_seconds(job.attempt, key)
            self.parked += 1

            def requeue() -> None:
                self.parked -= 1
                if self.trace is not None:
                    self.trace.record(
                        "retry",
                        key=key,
                        attempt=job.attempt + 1,
                        cause=kind,
                        backoff_seconds=delay,
                    )
                self.ready.appendleft((job.spec, job.attempt + 1))

            self.timers.schedule(delay, requeue)
        elif step is EscalationStep.FALLBACK:
            self._fallback(job, kind)
        else:  # EscalationStep.FAIL
            self.abort()

    def _fallback(self, job: Attempt, kind: str) -> None:
        """Graceful degradation: the master computes the grid itself,
        sequentially and without injection — the paper's original loop
        body as the last safety net before failing the run.  Never
        through the data plane: the payload carries its array directly,
        so a bumped or closing plane cannot reject it."""
        key = job.key
        try:
            payload = execute_job(job.spec, use_cache=self.use_cache)
        except Exception as exc:
            self.log.record(
                FaultEvent(
                    key=key,
                    kind="exception",
                    attempt=job.attempt,
                    action="fail",
                    detected_by="fallback",
                    error=repr(exc),
                )
            )
            self.abort(exc)
        if self.sink is not None:
            # the streaming combiner must still see every grid once
            self.sink.consume(key, payload, attempt=job.attempt + 1)
        self.fallback_keys.append(key)
        if self.trace is not None:
            self.trace.record("fallback", key=key, attempt=job.attempt, cause=kind)
        # attempt + 1: the in-master replay is a fresh attempt, distinct
        # from the failed one on the (key, attempt) axis
        self._complete(key, payload, job.attempt + 1, fallback=True)
        if key not in self.recovered_keys:
            self.recovered_keys.append(key)
