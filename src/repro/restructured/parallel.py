"""Real multi-core execution via ``multiprocessing`` — the GIL workaround.

The coordination-faithful configurations in :mod:`mainprog` demonstrate
the protocol; this module is the measurement configuration for *actual*
speedup on the present machine: the same grids, the same ``subsolve``,
fanned out over worker processes, with the same prolongation at the
end.  Because ``subsolve`` touches only its own grid (the paper's cut
criterion), the fan-out is embarrassingly parallel and results are
bitwise identical to the sequential loop.

**One dispatch core.**  Every :func:`run_multiprocessing` call — fork
pool or socket daemons, faults injected or not — runs through one
:class:`~repro.restructured.ledger.JobLedger`, the protocol automaton
that owns the ready / in-flight / backoff-parked / completed jobs, the
escalation ladder (retry → reassign → in-master sequential
``subsolve`` → fail with a structured
:class:`~repro.resilience.policy.FaultReport`), the in-master fallback
and the streaming fan-in.  Fault-free runs use the default
:class:`~repro.resilience.policy.EscalationPolicy`.  Around the ledger
sit two thin transports, each waiting in one ``selectors`` loop and
never in ``time.sleep``: the fork pool here (:class:`_PoolTransport`)
and the socket reactor of :mod:`repro.restructured.netengine`.

The warm path (the defaults) removes the seed's coordination-layer
overhead in three ways:

* the pool is the process-wide **persistent** pool of :mod:`pool` —
  repeat runs find warm workers instead of re-forking
  (``warm_pool=False`` forks a private pool for the call instead);
* workers serve operators and LU factors from their process-local
  **cache** (:mod:`repro.sparsegrid.cache`) instead of re-assembling
  (``operator_cache=False`` disables it);
* jobs are handed to the pool **longest-predicted-first**, one job per
  ``apply_async``, so each free worker pulls the next heaviest grid —
  LPT scheduling on the geometrically-skewed grid family, whose biggest
  diagonal sits at the *end* of the paper's loop order.

The pool transport watches three fault channels:

1. a job's exception (e.g. an injected transient fault) arrives through
   its ``apply_async`` error callback;
2. a **crashed** worker is caught by its exit sentinel: heartbeats name
   the worker PID holding each job, and a dead PID is remembered for
   the run, so it convicts exactly its lost job even when the job's
   start heartbeat is drained only after the death was seen
   (``multiprocessing`` itself would let the job's ``AsyncResult`` wait
   forever);
3. a **hung** worker trips its per-job deadline (cost-model-scaled via
   :class:`~repro.resilience.policy.DeadlinePolicy`); the wedged pool
   generation is force-respawned and the other in-flight jobs go back
   to the queue as collateral — completed results are keyed by grid
   ``(l, m)`` and never recomputed, and because ``subsolve`` is
   deterministic, replays are idempotent: the combined solution stays
   bitwise identical to a fault-free run.
"""

from __future__ import annotations

import multiprocessing
import os
import selectors
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Union

import numpy as np

from repro.sparsegrid.combination import combine
from repro.sparsegrid.grid import Grid, nested_loop_grids
from repro.trace.recorder import emit as trace_emit
from repro.trace.recorder import recording, trace_span

from .ledger import Attempt, JobLedger, LedgerOutcome, PayloadSink
from .pool import PersistentWorkerPool, acquire_pool, respawn_pool
from .worker import SubsolveJobSpec, SubsolvePayload

__all__ = [
    "MultiprocessingResult",
    "predicted_spec_seconds",
    "order_longest_first",
    "resolve_split_map",
    "run_multiprocessing",
]

#: execution substrates: ``pool`` is the fork pool (warm path),
#: ``socket`` dispatches over real TCP to worker daemons
#: (:mod:`repro.restructured.netengine`)
ENGINES = ("pool", "socket")

#: result transports: ``pickle`` is the seed channel (serialize → pipe →
#: deserialize per payload, barriered combine); ``shm`` is the zero-copy
#: data plane of :mod:`repro.perf.dataplane` with streaming combination
DATA_PLANES = ("pickle", "shm")

#: how soon to look again for a worker a heartbeat named before the
#: pool listed it (the microseconds between its fork and registration)
_UNLISTED_WORKER_RECHECK = 0.05


def predicted_spec_seconds(spec: SubsolveJobSpec, cost_model=None) -> float:
    """Predicted ``subsolve`` cost of one job, for dispatch ordering.

    With a calibrated :class:`~repro.perf.costmodel.CostModel` the
    prediction is its fitted wall time.  Without one, a structural
    proxy: the interior unknown count.  ``n_interior`` grows
    geometrically with the diagonal ``l+m`` (separating the two
    diagonals of the family by ~4x) and, within a diagonal, peaks at
    the square grid — matching the measured per-grid profile, where
    assembly, factorization bandwidth and per-solve cost all scale with
    the unknowns.
    """
    if cost_model is not None:
        return float(cost_model.predict_seconds(spec.l, spec.m, spec.tol))
    return float(spec.grid.n_interior)


def order_longest_first(
    specs: list[SubsolveJobSpec], cost_model=None
) -> list[SubsolveJobSpec]:
    """Longest-predicted-first (LPT) dispatch order; ties keep loop
    order (the sort is stable)."""
    return sorted(
        specs,
        key=lambda s: predicted_spec_seconds(s, cost_model),
        reverse=True,
    )


def resolve_split_map(
    split: Union[str, int],
    specs: list[SubsolveJobSpec],
    *,
    level: int,
    tol: float,
    n_workers: int,
    cost_model=None,
) -> dict[tuple[int, int], int]:
    """Which grids to shard, and into how many strips: ``{(l, m): k}``.

    ``"off"`` (or a single worker — splitting cannot shorten a one-lane
    schedule) splits nothing.  An integer ``k`` splits the head-of-line
    grids — every grid tied at the maximal interior size, which on the
    even diagonal means both square-ish twins.  ``"auto"`` asks the
    calibrated cost model where splitting beats LPT packing
    (:meth:`~repro.perf.costmodel.CostModel.plan_split`: split only when
    the predicted makespan drops); without a calibrated model it falls
    back to the structural choice ``k=2`` on the top grids, mirroring
    the integer path.
    """
    if split == "off" or n_workers < 2 or not specs:
        return {}
    if split == "auto":
        if cost_model is not None and hasattr(cost_model, "plan_split"):
            planned = cost_model.plan_split(level, tol, n_workers=n_workers)
            if planned is not None:
                return dict(planned)
        split = 2
    k = int(split)
    if k < 1:
        raise ValueError(f"split must be 'off', 'auto' or k >= 1, got {k}")
    if k == 1:
        return {}
    top = max(s.grid.n_interior for s in specs)
    return {
        (s.l, s.m): k for s in specs if s.grid.n_interior == top
    }


@dataclass
class MultiprocessingResult:
    root: int
    level: int
    tol: float
    processes: int
    payloads: dict[tuple[int, int], SubsolvePayload]
    target_grid: Grid
    combined: np.ndarray
    total_seconds: float
    pool_seconds: float
    # ------------------------------------------------------------------
    # warm-path observability
    # ------------------------------------------------------------------
    #: the shared pool pre-existed this call (warm workers)
    warm_pool: bool = False
    #: seconds spent forking a pool inside this call (0.0 when warm)
    pool_cold_start_seconds: float = 0.0
    #: grids in the order jobs were handed to the workers
    dispatch_order: tuple[tuple[int, int], ...] = ()
    #: grids in the order their results arrived
    completion_order: tuple[tuple[int, int], ...] = ()
    # ------------------------------------------------------------------
    # fault tolerance (the job ledger's record; a fault-free run
    # reports attempts == n jobs)
    # ------------------------------------------------------------------
    #: job dispatches, replays and collateral re-dispatches included
    attempts: int = 0
    #: observed fault events (crash, hang/deadline, transient exception)
    faults: int = 0
    #: grids that faulted at least once but ultimately completed
    recovered: int = 0
    #: grids completed by the in-master sequential fallback
    fallbacks: int = 0
    #: pool generations force-respawned to reclaim wedged workers
    pool_respawns: int = 0
    #: the detection-ordered fault history
    fault_events: tuple = ()
    #: grids behind the ``recovered`` / ``fallbacks`` counters
    recovered_keys: tuple[tuple[int, int], ...] = ()
    fallback_keys: tuple[tuple[int, int], ...] = ()

    # ------------------------------------------------------------------
    # data plane (the shm transport + streaming combination fill these
    # in; a pickle run reports every payload on the pickle channel)
    # ------------------------------------------------------------------
    #: result transport of this run ("pickle" or "shm")
    data_plane: str = "pickle"
    #: payloads whose solution traveled through a shared-memory lease
    shm_payloads: int = 0
    #: payloads that fell back to the pickle channel on an shm run
    shm_fallbacks: int = 0
    #: solution bytes that crossed each transport
    transport_shm_bytes: int = 0
    transport_pickle_bytes: int = 0
    #: worker-side seconds writing + checksumming shm payloads
    shm_write_seconds: float = 0.0
    #: master-side seconds verifying + attaching descriptors
    attach_seconds: float = 0.0
    #: master-side seconds resampling/folding grids into the target
    combine_seconds: float = 0.0
    #: the subset of ``combine_seconds`` spent while subsolves were
    #: still outstanding — work the barriered path serializes
    combine_overlap_seconds: float = 0.0
    #: the :class:`~repro.perf.dataplane.DataPlaneAudit` of the run
    data_plane_audit: Optional[object] = None

    # ------------------------------------------------------------------
    # the socket engine (zero on the fork pool)
    # ------------------------------------------------------------------
    #: execution substrate of this run ("pool" or "socket")
    engine: str = "pool"
    #: the resolved ``--hosts`` spec ("" off the socket engine)
    hosts: str = ""
    #: worker daemons the master talked to
    daemons: int = 0
    #: connections re-established after a drop, silence, or daemon kill
    reconnects: int = 0
    #: framed bytes that crossed the sockets, each direction
    net_bytes_sent: int = 0
    net_bytes_received: int = 0
    #: master-side seconds inside socket send / result-body receive
    net_send_seconds: float = 0.0
    net_recv_seconds: float = 0.0

    # ------------------------------------------------------------------
    # intra-grid decomposition (sharded jobs; "off" runs report nothing)
    # ------------------------------------------------------------------
    #: the resolved ``split`` request ("off", "auto", or "k=<n>")
    split: str = "off"
    #: the grids actually split, as ``((l, m), k)`` pairs
    split_grids: tuple = ()

    @property
    def split_payloads(self) -> int:
        """Payloads computed by strip substructuring."""
        return sum(
            1
            for p in self.payloads.values()
            if getattr(p, "split_k", 1) > 1
        )

    @property
    def halo_bytes(self) -> int:
        """Halo/interface vector bytes exchanged by split solves."""
        return sum(
            getattr(p, "halo_bytes", 0) for p in self.payloads.values()
        )

    @property
    def halo_exchanges(self) -> int:
        return sum(
            getattr(p, "halo_exchanges", 0) for p in self.payloads.values()
        )

    @property
    def strip_respawns(self) -> int:
        """Strip children respawned by the team executors' fault path."""
        return sum(
            getattr(p, "strip_respawns", 0) for p in self.payloads.values()
        )

    @property
    def streaming(self) -> bool:
        """Combination was fed per arrival instead of after the barrier
        (every shm run streams; the pickle channel combines at the end)."""
        return self.data_plane == "shm"

    @property
    def overlap_ratio(self) -> float:
        """Fraction of combination time hidden behind the fan-out."""
        if self.combine_seconds <= 0.0:
            return 0.0
        return self.combine_overlap_seconds / self.combine_seconds

    @property
    def fault_report(self):
        """The run's failure history as a structured report."""
        from repro.resilience import FaultReport

        return FaultReport(
            events=tuple(self.fault_events),
            recovered_keys=self.recovered_keys,
            fallback_keys=self.fallback_keys,
        )

    @property
    def n_workers(self) -> int:
        return len(self.payloads)

    @property
    def operator_cache_hits(self) -> int:
        return sum(1 for p in self.payloads.values() if p.operator_cache_hit)

    @property
    def operator_cache_misses(self) -> int:
        return len(self.payloads) - self.operator_cache_hits

    @property
    def operator_cache_hit_ratio(self) -> float:
        if not self.payloads:
            return 0.0
        return self.operator_cache_hits / len(self.payloads)

    @property
    def factor_cache_hits(self) -> int:
        return sum(p.factor_cache_hits for p in self.payloads.values())

    @property
    def factor_reuse_ratio(self) -> float:
        """Pooled over all grids: prepares served without a fresh LU."""
        prepares = sum(p.prepare_calls for p in self.payloads.values())
        if prepares == 0:
            return 0.0
        reused = sum(p.factor_reuse_hits for p in self.payloads.values())
        return reused / prepares


@contextmanager
def _plane_guard(plane):
    """Close the data plane on every exit path; yields a dict that holds
    the :class:`~repro.perf.dataplane.DataPlaneAudit` after unwinding."""
    holder: dict = {}
    try:
        yield holder
    finally:
        if plane is not None:
            holder["audit"] = plane.close()


# ----------------------------------------------------------------------
# the fork-pool transport
# ----------------------------------------------------------------------
class _PoolLease:
    """The pool a run dispatches into, shared or private, with a
    uniform respawn path for wedged generations."""

    def __init__(self, processes: int, shared: bool) -> None:
        self.processes = processes
        self.shared = shared
        self.respawns = 0
        if shared:
            self.pool, self.was_warm = acquire_pool(processes)
            self.cold_start_seconds = (
                0.0 if self.was_warm else self.pool.cold_start_seconds
            )
        else:
            self.pool = PersistentWorkerPool(processes)
            self.was_warm = False
            self.cold_start_seconds = self.pool.cold_start_seconds

    def respawn(self) -> None:
        """Terminate the wedged generation; fork a fresh one."""
        self.respawns += 1
        if self.shared:
            self.pool = respawn_pool(self.processes)
        else:
            self.pool.shutdown(force=True)
            self.pool = PersistentWorkerPool(self.processes)

    def release(self) -> None:
        if not self.shared:
            self.pool.shutdown()


def _pid_exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - a reused PID, not ours
        return True
    return True


class _PoolTransport:
    """The fork pool's edge of the :class:`JobLedger`.

    One selector watches the pool's heartbeat pipe, a self-pipe that
    ``apply_async`` callbacks write to from the pool's result thread,
    and every worker's exit sentinel.  Each wake-up becomes ledger
    events in a fixed order — arrived results, then heartbeats, then
    convictions — so everything a worker said before it died is heard
    before its death is judged.  Dead PIDs are remembered for the whole
    generation: a start heartbeat drained after its worker's death was
    seen still convicts the job it names.
    """

    def __init__(self, lease: _PoolLease, ledger: JobLedger, *, plan, use_cache: bool):
        self.lease = lease
        self.ledger = ledger
        self.plan = plan
        self.use_cache = use_cache
        self.selector = selectors.DefaultSelector()
        self._wake_r, self._wake_w = os.pipe()
        os.set_blocking(self._wake_r, False)
        os.set_blocking(self._wake_w, False)
        self.selector.register(self._wake_r, selectors.EVENT_READ, "wake")
        #: (attempt, ok, value) tuples appended on the pool's result thread
        self._arrivals: deque = deque()
        self._lock = threading.Lock()
        self._open = True
        self._handles: dict[Attempt, object] = {}
        self._watched: dict[int, object] = {}  # pid -> worker Process
        self._dead: set[int] = set()
        self._watch_generation()
        ledger.on_overdue = self._respawn

    def run(self) -> None:
        ledger = self.ledger
        try:
            while not ledger.finished:
                self._dispatch()
                for key, _ in self.selector.select(ledger.timers.next_timeout()):
                    if key.data == "wake":
                        try:
                            os.read(self._wake_r, 1 << 16)
                        except BlockingIOError:
                            pass
                    elif key.data != "beats":
                        self._bury(key.data)
                self._settle()
                ledger.timers.fire_due()
        finally:
            self.close()

    def close(self) -> None:
        with self._lock:
            self._open = False
        self.selector.close()
        os.close(self._wake_r)
        os.close(self._wake_w)

    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        """Hand every ready job to the pool: its task queue keeps the
        LPT order, and each free worker pulls the next job."""
        from repro.resilience import resilient_entry

        while self.ledger.ready:
            spec, attempt = self.ledger.ready.popleft()
            job = self.ledger.send(spec, attempt)
            self._handles[job] = self.lease.pool.submit(
                resilient_entry,
                (spec, self.plan, attempt, self.use_cache, job.lease),
                callback=partial(self._arrive, job),
            )

    def _arrive(self, job: Attempt, ok: bool, value) -> None:
        """Pool result thread: queue the outcome and wake the master."""
        with self._lock:
            if not self._open:
                return  # a late job of a run that has already ended
            self._arrivals.append((job, ok, value))
            try:
                os.write(self._wake_w, b"\0")
            except BlockingIOError:
                pass  # the pipe is full of wake-ups already

    def _settle(self) -> None:
        ledger = self.ledger
        # 1) results and job-raised exceptions, in arrival order
        while self._arrivals:
            job, ok, value = self._arrivals.popleft()
            self._handles.pop(job, None)
            if ok:
                ledger.done(job, value)
            else:
                ledger.fault(
                    job, "exception", detected_by="exception", error=repr(value)
                )
        # 2) heartbeats: which worker PID holds which job
        for phase, key, attempt, pid in self.lease.pool.drain_heartbeats():
            job = ledger.inflight.get(key)
            if job is not None and job.attempt == attempt:
                job.worker = pid if phase == "start" else None
        # 3) liveness: a dead PID convicts the job it held
        self._watch_workers(repopulated=True)
        for job in list(ledger.inflight.values()):
            pid = job.worker
            if pid is None or pid in self._watched:
                continue
            if pid not in self._dead:
                if _pid_exists(pid):
                    # named by a heartbeat before the pool listed it
                    ledger.timers.schedule(_UNLISTED_WORKER_RECHECK, lambda: None)
                    continue
                self._dead.add(pid)  # exited and was joined unwatched
            handle = self._handles[job]
            if handle.ready():
                continue  # finished just before dying: arrives next pass
            # the dead worker's job never completes; forget its handle
            # so the pool can still be drained gracefully later
            self.lease.pool.discard(handle)
            del self._handles[job]
            ledger.fault(
                job, "crash", detected_by="liveness", error=f"worker pid {pid} died"
            )

    # ------------------------------------------------------------------
    def _watch_generation(self) -> None:
        pool = self.lease.pool
        self.selector.register(pool.heartbeat_fileno(), selectors.EVENT_READ, "beats")
        self._watch_workers(repopulated=False)

    def _watch_workers(self, *, repopulated: bool) -> None:
        for proc in self.lease.pool.worker_processes():
            pid = proc.pid
            if pid in self._watched or pid in self._dead:
                continue
            self._watched[pid] = proc
            self.selector.register(proc.sentinel, selectors.EVENT_READ, pid)
            if repopulated:
                trace_emit("worker_spawn", worker=pid, repopulated=True)

    def _bury(self, pid: int) -> None:
        proc = self._watched.pop(pid)
        self.selector.unregister(proc.sentinel)
        self._dead.add(pid)
        trace_emit("death_worker", worker=pid, detected_by="liveness")

    def _respawn(self, job: Attempt) -> list:
        """``job`` is past its deadline: its worker is wedged and holds a
        slot forever.  End the generation, fork a fresh one; every job
        in flight died with the old one."""
        handle = self._handles.get(job)
        if handle is not None and handle.ready():
            return []  # its result is queued for the next pass
        victims = list(self.ledger.inflight.values())
        # unregister before the old generation's fds can close
        self.selector.unregister(self.lease.pool.heartbeat_fileno())
        for proc in self._watched.values():
            self.selector.unregister(proc.sentinel)
        self._watched.clear()
        self._dead.clear()
        self._handles.clear()
        self.lease.respawn()
        sink = self.ledger.sink
        if sink is not None:
            # the old generation's workers are dead: reclaim all their
            # leases and invalidate descriptors still in flight
            sink.plane.bump_generation()
        self._watch_generation()
        trace = self.ledger.trace
        if trace is not None:
            trace.record(
                "respawn",
                key=job.key,
                attempt=job.attempt,
                collateral=len(victims) - 1,
            )
        return victims


def run_multiprocessing(
    root: int = 2,
    level: int = 2,
    tol: float = 1.0e-3,
    problem_name: str = "rotating-cone",
    problem_kwargs: Optional[dict] = None,
    *,
    processes: Optional[int] = None,
    t_end: Optional[float] = None,
    scheme: str = "upwind",
    target_cap: int | None = 8,
    cost_model=None,
    warm_pool: bool = True,
    operator_cache: bool = True,
    retry=None,
    deadline=None,
    escalation=None,
    faults: Union[str, object, None] = None,
    fault_seed: int = 0,
    fault_log=None,
    trace=None,
    data_plane: str = "pickle",
    engine: str = "pool",
    hosts: Optional[str] = None,
    engine_options: Optional[dict] = None,
    split: Union[str, int] = "off",
) -> MultiprocessingResult:
    """Run the whole application with worker processes over the grids.

    The defaults are the warm path; ``warm_pool=False`` forks a private
    pool for this call and ``operator_cache=False`` disables
    worker-side operator/factor reuse, for cold measurements.

    Every run goes through the job ledger's escalation ladder.
    ``retry`` (:class:`~repro.resilience.RetryPolicy`), ``deadline``
    (:class:`~repro.resilience.DeadlinePolicy`) or a whole
    ``escalation`` (:class:`~repro.resilience.EscalationPolicy`)
    override its defaults; ``faults`` (a
    :class:`~repro.resilience.FaultPlan` or its spec string, seeded by
    ``fault_seed``) injects faults; ``fault_log`` optionally shares one
    :class:`~repro.resilience.FaultLog` with other detectors (e.g. the
    protocol supervisor) so a run has a single failure history.

    ``trace`` (a :class:`~repro.trace.TraceRecorder`) records the run's
    structured event timeline: job lifecycle, faults and recovery
    actions, and — because the recorder is installed globally for the
    duration — the pool's worker spawns/deaths too.

    ``data_plane="shm"`` switches the result transport to the zero-copy
    shared-memory arena of :mod:`repro.perf.dataplane` and the fan-in to
    streaming: each payload is resampled and folded into the
    preallocated target the moment it lands, overlapping combination
    with the remaining subsolves.  ``"pickle"`` (the default) is the
    barriered seed channel; both are bitwise identical in their output.

    ``engine`` picks the execution substrate: ``"pool"`` (default) is
    the fork pool of the warm path; ``"socket"`` dispatches over real
    TCP to worker daemons per ``hosts`` (see
    :func:`repro.restructured.netengine.parse_hosts`; default: one
    local daemon per process); ``engine_options`` passes constructor
    knobs (heartbeat timeout, reconnect budget) through to
    :class:`~repro.restructured.netengine.SocketTaskEngine`.

    ``split`` shards the critical-path grids into ``k``-strip Schur
    subsolves (:mod:`repro.sparsegrid.decompose`): ``"off"`` (default)
    leaves every job whole — bitwise identical to previous behaviour —
    while an integer ``k`` or ``"auto"`` (cost-model-planned) replaces
    the head-of-line specs per :func:`resolve_split_map`.  Sharded jobs
    run on every engine: the strips execute serially inside whichever
    worker owns the job, so the job-level fault ladder re-dispatches a
    lost strip-job unchanged and the ``StaleLeaseError`` discipline is
    untouched.  Split solutions match the unsplit oracle within
    :func:`~repro.sparsegrid.decompose.split_tolerance`.
    """
    from repro.resilience import (
        DeadlinePolicy,
        EscalationPolicy,
        FaultPlan,
        RetryPolicy,
    )

    if data_plane not in DATA_PLANES:
        raise ValueError(
            f"unknown data plane {data_plane!r}; choose from {DATA_PLANES}"
        )
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; choose from {ENGINES}"
        )
    if hosts is not None and engine != "socket":
        raise ValueError("hosts requires engine='socket'")
    if engine_options is not None and engine != "socket":
        raise ValueError("engine_options requires engine='socket'")
    plan = (
        FaultPlan.parse(faults, seed=fault_seed) if isinstance(faults, str) else faults
    )
    if escalation is None:
        escalation = EscalationPolicy(
            retry=retry if retry is not None else RetryPolicy(),
            deadline=deadline if deadline is not None else DeadlinePolicy(),
        )

    t_start = time.perf_counter()
    kw_pairs = tuple(sorted((problem_kwargs or {}).items()))
    specs = [
        SubsolveJobSpec(
            problem_name=problem_name,
            root=root,
            l=g.l,
            m=g.m,
            tol=tol,
            t_end=t_end,
            scheme=scheme,
            problem_kwargs=kw_pairs,
        )
        for g in nested_loop_grids(root, level)
    ]
    n_proc = processes or min(len(specs), multiprocessing.cpu_count())
    ordered = order_longest_first(specs, cost_model)
    split_map = resolve_split_map(
        split,
        specs,
        level=level,
        tol=tol,
        n_workers=n_proc,
        cost_model=cost_model,
    )
    if split_map:
        ordered = [
            replace(s, split_k=split_map[(s.l, s.m)])
            if (s.l, s.m) in split_map
            else s
            for s in ordered
        ]

    plane = None
    sink: Optional[PayloadSink] = None
    if data_plane == "shm":
        # lazy: repro.perf pulls this module in at package import
        from repro.perf.dataplane import DataPlane
        from repro.sparsegrid.combination import combine_incremental

        plane = DataPlane()
        sink = PayloadSink(
            plane,
            combine_incremental(root, level, target_cap=target_cap),
            n_expected=len(specs),
            trace=trace,
        )

    respawns = 0
    net_counts: dict = {}
    t_pool = time.perf_counter()
    # contexts unwind inner-first: the plane guard closes (and trace-
    # emits any late reap) while the recorder is still installed, on
    # every exit path — success, fault escalation, KeyboardInterrupt
    with recording(trace), _plane_guard(plane) as plane_audit:
        with trace_span("fanout"):
            outcome: LedgerOutcome
            if engine == "socket":
                # lazy: keeps the socket machinery out of pool-only runs
                from .netengine import SocketTaskEngine

                hosts = hosts or f"localhost:{n_proc}"
                net = SocketTaskEngine(
                    hosts, trace=trace, **(engine_options or {})
                )
                try:
                    outcome = net.run(
                        ordered,
                        escalation=escalation,
                        plan=plan,
                        use_cache=operator_cache,
                        cost_model=cost_model,
                        fault_log=fault_log,
                        sink=sink,
                        trace=trace,
                    )
                finally:
                    net.close()
                was_warm = False
                cold_start = net.spawn_seconds
                n_proc = net.total_capacity
                net_counts = dict(
                    daemons=outcome.daemons,
                    reconnects=outcome.reconnects,
                    net_bytes_sent=outcome.bytes_sent,
                    net_bytes_received=outcome.bytes_received,
                    net_send_seconds=outcome.net_send_seconds,
                    net_recv_seconds=outcome.net_recv_seconds,
                )
            else:
                lease = _PoolLease(n_proc, shared=warm_pool)
                try:
                    ledger = JobLedger(
                        ordered,
                        escalation=escalation,
                        use_cache=operator_cache,
                        cost_model=cost_model,
                        fault_log=fault_log,
                        sink=sink,
                        trace=trace,
                    )
                    _PoolTransport(
                        lease, ledger, plan=plan, use_cache=operator_cache
                    ).run()
                finally:
                    lease.release()
                outcome = ledger.outcome()
                was_warm = lease.was_warm
                cold_start = lease.cold_start_seconds
                n_proc = lease.pool.processes
                respawns = lease.respawns
        payloads = outcome.payloads
        pool_seconds = time.perf_counter() - t_pool

        t_combine = time.perf_counter()
        if sink is not None:
            # streaming already folded every grid; this is the (cheap)
            # completeness check + hand-over of the preallocated buffer
            with trace_span("prolongation"):
                target_grid, combined = sink.combiner.result()
            combine_seconds = sink.combine_seconds
        else:
            solutions = {key: p.solution for key, p in payloads.items()}
            with trace_span("prolongation"):
                target_grid, combined = combine(
                    solutions, root, level, target_cap=target_cap
                )
            combine_seconds = time.perf_counter() - t_combine

    if sink is not None:
        transport_pickle_bytes = sink.transport_pickle_bytes
    else:
        transport_pickle_bytes = sum(
            int(p.solution.nbytes) for p in payloads.values()
        )
    return MultiprocessingResult(
        root=root,
        level=level,
        tol=tol,
        processes=n_proc,
        payloads=payloads,
        target_grid=target_grid,
        combined=combined,
        total_seconds=time.perf_counter() - t_start,
        pool_seconds=pool_seconds,
        warm_pool=was_warm,
        pool_cold_start_seconds=cold_start,
        dispatch_order=tuple((s.l, s.m) for s in ordered),
        completion_order=outcome.completion_order,
        attempts=outcome.attempts,
        faults=len(outcome.events),
        recovered=len(outcome.recovered_keys),
        fallbacks=len(outcome.fallback_keys),
        pool_respawns=respawns,
        fault_events=outcome.events,
        recovered_keys=outcome.recovered_keys,
        fallback_keys=outcome.fallback_keys,
        data_plane=data_plane,
        shm_payloads=sink.shm_payloads if sink is not None else 0,
        shm_fallbacks=sink.shm_fallbacks if sink is not None else 0,
        transport_shm_bytes=sink.transport_shm_bytes if sink is not None else 0,
        transport_pickle_bytes=transport_pickle_bytes,
        shm_write_seconds=sum(
            p.shm_write_seconds for p in payloads.values()
        ),
        attach_seconds=sink.attach_seconds if sink is not None else 0.0,
        combine_seconds=combine_seconds,
        combine_overlap_seconds=(
            sink.overlap_seconds if sink is not None else 0.0
        ),
        data_plane_audit=plane_audit.get("audit"),
        engine=engine,
        hosts=hosts or "",
        split=split if isinstance(split, str) else f"k={split}",
        split_grids=tuple(sorted(split_map.items())),
        **net_counts,
    )
