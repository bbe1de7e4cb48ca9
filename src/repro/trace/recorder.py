"""The structured trace recorder — one timeline per run.

The paper's restructuring makes the run's coordination structure
explicit; this module makes it *visible*.  A :class:`TraceRecorder`
collects typed :class:`TraceEvent` records from every execution layer —
the multiprocessing dispatch loop, the persistent pool, the MANIFOLD
runtime and the resilience ladder — into one chronological timeline
that the exporters (:mod:`repro.trace.export`) serialize and the
analysis (:mod:`repro.trace.analysis`) turns into per-worker
utilization, critical-path and recovery-overhead metrics.

Design constraints:

* **low overhead** — recording is one lock-protected list append; the
  global hook (:func:`emit`) is a single ``None`` check when no
  recorder is installed, so traced code paths cost nothing when tracing
  is off;
* **injectable clock** — the recorder timestamps with a caller-supplied
  monotonic clock (default :func:`time.monotonic`).  Tests drive a fake
  clock to build exactly-known timelines, which is also what makes the
  cost-model calibration testable without live wall time.  On Linux,
  ``time.monotonic`` is ``CLOCK_MONOTONIC``, which is shared across
  processes — worker-side timestamps (carried home in the job payload)
  land on the same axis as master-side ones;
* **layer-agnostic events** — everything is a flat
  ``(t, kind, key, worker, attempt, data)`` record.  Spans (nested
  phases such as the fan-out or the prolongation) are encoded as
  ``span_begin``/``span_end`` pairs sharing a ``span`` name, validated
  for proper nesting by the analysis.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

__all__ = [
    "EVENT_KINDS",
    "TraceEvent",
    "TraceRecorder",
    "install_recorder",
    "uninstall_recorder",
    "current_recorder",
    "emit",
    "recording",
    "trace_span",
]

#: the vocabulary of the timeline (open set: unknown kinds round-trip
#: through the exporters untouched, so layers can grow new ones)
EVENT_KINDS = (
    # job lifecycle (the dispatch loop)
    "job_submit",
    "job_start",
    "job_done",
    # the resilience ladder
    "fault",
    "retry",
    "respawn",
    "fallback",
    # substrate lifecycle
    "worker_spawn",
    "death_worker",
    "zygote_boot",
    # MANIFOLD coordination
    "rendezvous",
    "manifold_event",
    "process_activate",
    "process_death",
    # warm-path cache observability
    "cache_hit",
    "cache_miss",
    # the zero-copy data plane: transport vs compute split
    "payload_shm_write",
    "payload_attach",
    "combine_chunk",
    "segment_reaped",
    # the socket engine: network time vs compute split
    "net_send",
    "net_recv",
    "reconnect",
    # intra-grid decomposition: strip substructuring observability
    "strip_factor",
    "halo_exchange",
    "schur_solve",
    # nested phases
    "span_begin",
    "span_end",
)


@dataclass(frozen=True)
class TraceEvent:
    """One timeline entry.

    ``key`` identifies the subject (a grid ``(l, m)`` on the execution
    path, a process name tuple on the MANIFOLD path); ``worker`` names
    the lane (an OS PID for pool workers, a process name for MANIFOLD
    instances, ``None`` for the master itself).
    """

    seq: int
    t: float
    kind: str
    key: Optional[tuple] = None
    worker: Optional[object] = None
    attempt: int = 0
    data: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict = {"seq": self.seq, "t": self.t, "kind": self.kind}
        if self.key is not None:
            out["key"] = list(self.key)
        if self.worker is not None:
            out["worker"] = self.worker
        if self.attempt:
            out["attempt"] = self.attempt
        if self.data:
            out["data"] = self.data
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "TraceEvent":
        key = payload.get("key")
        return cls(
            seq=int(payload.get("seq", 0)),
            t=float(payload["t"]),
            kind=str(payload["kind"]),
            key=tuple(key) if key is not None else None,
            worker=payload.get("worker"),
            attempt=int(payload.get("attempt", 0)),
            data=dict(payload.get("data", {})),
        )


class TraceRecorder:
    """Thread-safe accumulator of :class:`TraceEvent` records.

    ``clock`` is any zero-argument callable returning monotonic seconds;
    events may also carry an explicit ``t`` (how worker-side timestamps,
    measured in the worker process, land on the shared timeline).
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self.origin = clock()
        self._lock = threading.Lock()
        self._events: list[TraceEvent] = []
        self._seq = 0
        self._span_counter = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(
        self,
        kind: str,
        *,
        key: Optional[tuple] = None,
        worker: Optional[object] = None,
        attempt: int = 0,
        t: Optional[float] = None,
        **data: object,
    ) -> TraceEvent:
        """Append one event; returns it (mostly for tests)."""
        stamp = self.clock() if t is None else t
        with self._lock:
            self._seq += 1
            event = TraceEvent(
                seq=self._seq,
                t=stamp,
                kind=kind,
                key=key,
                worker=worker,
                attempt=attempt,
                data=dict(data),
            )
            self._events.append(event)
        return event

    def record_fault(self, fault_event, *, t: Optional[float] = None) -> TraceEvent:
        """Lift a :class:`~repro.resilience.FaultEvent` into the trace.

        Duck-typed (``key``/``kind``/``attempt``/``action``/
        ``detected_by``/``error``/``seconds_lost``), so the resilience
        layer needs no import of this module to be liftable.
        """
        return self.record(
            "fault",
            key=tuple(fault_event.key),
            attempt=fault_event.attempt,
            t=t,
            fault_kind=fault_event.kind,
            action=fault_event.action,
            detected_by=fault_event.detected_by,
            error=fault_event.error,
            seconds_lost=fault_event.seconds_lost,
        )

    @contextmanager
    def span(
        self,
        name: str,
        *,
        key: Optional[tuple] = None,
        worker: Optional[object] = None,
    ) -> Iterator[None]:
        """A nested phase: ``span_begin``/``span_end`` pair sharing an id."""
        with self._lock:
            self._span_counter += 1
            span_id = self._span_counter
        self.record("span_begin", key=key, worker=worker, span=name, span_id=span_id)
        try:
            yield
        finally:
            self.record("span_end", key=key, worker=worker, span=name, span_id=span_id)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def events(self) -> list[TraceEvent]:
        """A copy of the timeline so far, in record order."""
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


# ----------------------------------------------------------------------
# the global hook: layers that cannot be handed a recorder (the shared
# pool, the MANIFOLD runtime) emit through here; a single None check
# when tracing is off
# ----------------------------------------------------------------------
_current: Optional[TraceRecorder] = None
_hook_lock = threading.Lock()


def install_recorder(recorder: TraceRecorder) -> None:
    """Make ``recorder`` the process-wide trace sink."""
    global _current
    with _hook_lock:
        _current = recorder


def uninstall_recorder(recorder: Optional[TraceRecorder] = None) -> None:
    """Remove the global sink (only if it is ``recorder``, when given)."""
    global _current
    with _hook_lock:
        if recorder is None or _current is recorder:
            _current = None


def current_recorder() -> Optional[TraceRecorder]:
    return _current


def emit(kind: str, **kwargs: object) -> None:
    """Record into the installed recorder, if any; otherwise a no-op."""
    recorder = _current
    if recorder is not None:
        recorder.record(kind, **kwargs)  # type: ignore[arg-type]


@contextmanager
def recording(recorder: Optional[TraceRecorder]) -> Iterator[Optional[TraceRecorder]]:
    """Install ``recorder`` globally for the duration (None = no-op)."""
    global _current
    if recorder is None:
        yield None
        return
    with _hook_lock:
        previous = _current
        _current = recorder
    try:
        yield recorder
    finally:
        with _hook_lock:
            _current = previous


@contextmanager
def trace_span(name: str, **kwargs: object) -> Iterator[None]:
    """A span on the installed recorder; a no-op when tracing is off."""
    recorder = _current
    if recorder is None:
        yield
        return
    with recorder.span(name, **kwargs):  # type: ignore[arg-type]
        yield
