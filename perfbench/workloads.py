"""What the benchmark runs against the program: set-up, one timed run,
the sequential references, and the traced per-layer numbers.

Timed runs call the public entry points ``run_multiprocessing`` and
``SequentialApplication.run``.  The traced numbers come from outside the
program: the benchmark re-solves each run's grids in its own process
around ``SpatialOperator`` and ``subsolve`` (reading the returned
``StepStats``), times ``combine``, times ``SocketTaskEngine`` set-up, run
and close on ``socket``, and analyses the public ``trace=TraceRecorder()``
timeline with ``TraceAnalysis``.
"""

from __future__ import annotations

import hashlib
import pickle
import time
from collections import defaultdict
from multiprocessing import resource_tracker

import numpy as np

from repro.resilience import DeadlinePolicy, EscalationPolicy, RetryPolicy
from repro.restructured.netengine import SocketTaskEngine
from repro.restructured.parallel import order_longest_first, run_multiprocessing
from repro.restructured.pool import acquire_pool, shutdown_pool
from repro.restructured.worker import SubsolveJobSpec
from repro.sparsegrid.combination import combine
from repro.sparsegrid.discretize import SpatialOperator
from repro.sparsegrid.grid import Grid
from repro.sparsegrid.linsolve import FactorCache
from repro.sparsegrid.problem import rotating_cone_problem
from repro.sparsegrid.sequential import SequentialApplication
from repro.sparsegrid.subsolve import subsolve
from repro.trace import TraceAnalysis, TraceRecorder, recording

from .host import HostProbe, ReferenceKernel
from .inputs import PROBLEM, ROOT, TARGET_CAP, TOL, Inputs, RunInput, loop_grids
from .metrics import PER_LAYER
from .spans import LAYER_ROWS, SpanRecorder, layer_rows

#: warm-up runs allowed for filling every worker's caches (replay, chaos)
MAX_WARMUP_RUNS = 40
#: sequential runs of a fixed instance, for ``seq_ref_p50``
SEQ_REPEATS = 15
#: traced runs per invocation
TRACED_RUNS = 5


def digest(array) -> str:
    """Bitwise identity of an array: dtype, shape and SHA-256 of its bytes."""
    a = np.ascontiguousarray(array)
    return f"{a.dtype.str}{a.shape}:{hashlib.sha256(a.tobytes()).hexdigest()}"


def retry_backoff_seconds(events) -> float:
    """Backoff behind the trace's ``retry`` events.  The socket engine
    records its delay; the pool master sleeps the default policy's delay
    for the failed attempt, which is recomputed here."""
    policy = RetryPolicy()
    total = 0.0
    for event in events:
        if event.kind != "retry":
            continue
        if "backoff_seconds" in event.data:
            total += float(event.data["backoff_seconds"])
        else:
            total += policy.delay_seconds(event.attempt - 1, event.key)
    return total


def stop_processes() -> None:
    """Wind down the shared pool and the resource tracker it started, and
    wait for both, so no process outlives the benchmark."""
    shutdown_pool()
    # the tracker would exit on its own once this process is gone; the
    # private stop closes its pipe and reaps it now
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


class Workload:
    """One workload of one seed, driven by one closed-loop client."""

    def __init__(self, name: str, seed: int, processes: int) -> None:
        self.name = name
        self.inputs = Inputs(name, seed)
        self.level = self.inputs.level
        self.processes = processes
        self.engine = "socket" if name == "socket" else "pool"
        self.n_grids = len(loop_grids(self.level))
        #: which worker caches survive between runs: the warm pool's on
        #: replay and chaos; sweep never repeats a key and socket spawns
        #: fresh daemons per call
        self.warm_kernel = name in ("replay", "chaos")
        self.pool_cold_start_s = 0.0
        self.warmup_runs = 0
        #: the host probes timed next to every timed and sequential run
        #: (see :mod:`.host`); started by :meth:`start_probe`, after set-up
        self.probe: HostProbe | None = None
        self.seq_probe: ReferenceKernel | None = None
        self._last_probe: float | None = None
        self.seq_s: list[float] = []
        #: each sequential run in units of its neighbouring host probes
        self.seq_ref: list[float] = []
        self._refs: dict[tuple, str] = {}

    # ------------------------------------------------------------------
    # set-up and the timed call
    # ------------------------------------------------------------------
    def call(self, inp: RunInput, trace=None):
        return run_multiprocessing(
            ROOT,
            inp.level,
            TOL,
            PROBLEM,
            inp.kwargs(),
            processes=self.processes,
            engine=self.engine,
            faults=inp.faults,
            trace=trace,
        )

    def setup(self) -> None:
        """Fork the pool and warm it: after this, the first timed run
        finds what every later run finds."""
        if self.engine == "pool":
            started = time.perf_counter()
            pool, _ = acquire_pool(self.processes)
            self.pool_cold_start_s = time.perf_counter() - started
        warm = self.inputs.warmup_input()
        if not self.warm_kernel:
            self.call(warm)
            self.warmup_runs = 1
            return
        # fill the operator and factor caches of every worker: jobs land
        # on whichever worker is free, so run until each worker has
        # computed each grid once
        wanted = set(loop_grids(self.level))
        seen: set = set()
        for _ in range(MAX_WARMUP_RUNS):
            result = self.call(warm)
            self.warmup_runs += 1
            seen.update((p.worker_pid, key) for key, p in result.payloads.items())
            if all((pid, key) in seen for pid in pool.worker_pids() for key in wanted):
                break

    def start_probe(self) -> None:
        self.probe = HostProbe(self.processes)
        # a sequential run uses this process's CPU; so does its probe
        self.seq_probe = ReferenceKernel()

    def close(self) -> None:
        if self.probe is not None:
            self.probe.close()
            self.probe = None

    def timed(self, index: int) -> tuple[float, str, dict]:
        """One closed-loop run: seconds from the call to the combined array."""
        inp = self.inputs.run_input(index)
        started = time.perf_counter()
        result = self.call(inp)
        wall = time.perf_counter() - started
        info = {"faults": [e.kind for e in result.fault_events]}
        return wall, digest(result.combined), info

    # ------------------------------------------------------------------
    # sequential references (outside every timed region)
    # ------------------------------------------------------------------
    def reference(self, index: int) -> str:
        """Digest of ``SequentialApplication`` on run ``index``'s input.

        Each distinct instance is solved once and the time is one
        ``seq_s`` sample; a workload with one fixed instance is solved
        :data:`SEQ_REPEATS` times for a median, and every repeat must
        agree bitwise.  Host probes bracket every sequential run, as
        they bracket the timed runs.
        """
        inp = self.inputs.run_input(index)
        key = inp.problem_kwargs
        if key not in self._refs:
            repeats = 1 if self.name == "sweep" else SEQ_REPEATS
            digests = set()
            before = self._last_probe or self.seq_probe()
            for _ in range(repeats):
                app = SequentialApplication(
                    ROOT, inp.level, TOL, rotating_cone_problem(**inp.kwargs())
                )
                started = time.perf_counter()
                result = app.run()
                wall = time.perf_counter() - started
                after = self._last_probe = self.seq_probe()
                self.seq_s.append(wall)
                self.seq_ref.append(wall / ((before + after) / 2.0))
                before = after
                digests.add(digest(result.combined))
            if len(digests) != 1:
                raise RuntimeError(
                    f"sequential runs of one input disagree: {len(digests)} results"
                )
            self._refs[key] = digests.pop()
        return self._refs[key]

    # ------------------------------------------------------------------
    # the traced run
    # ------------------------------------------------------------------
    def _kernel(self, spans: SpanRecorder, inp: RunInput, cache, tot) -> dict:
        """Re-solve every grid of ``inp`` in this process.

        Returns per-grid kernel seconds and the solutions.  ``cache``
        (a dict) keeps operators and factor caches across calls, which
        is what warm workers keep.
        """
        problem = rotating_cone_problem(**inp.kwargs())
        per_grid: dict = {}
        solutions: dict = {}
        with spans.span("kernel"):
            for key in loop_grids(inp.level):
                entry = cache.get(key) if cache is not None else None
                assembly = 0.0
                if entry is None:
                    with spans.span("assembly") as held:
                        operator = SpatialOperator(Grid(ROOT, *key), problem)
                    assembly = held["span"].seconds
                    tot["assembly.count"] += 1
                    entry = (operator, FactorCache())
                    if cache is not None:
                        cache[key] = entry
                operator, factors = entry
                with spans.span("subsolve") as held:
                    result = subsolve(
                        operator.problem,
                        operator.grid,
                        TOL,
                        operator=operator,
                        factor_cache=factors,
                    )
                stats = result.stats
                sub = held["span"]
                spans.add_counted(
                    sub, {"factor": stats.factor_seconds, "solve": stats.solve_seconds}
                )
                per_grid[key] = {
                    "assembly": assembly,
                    "factor": stats.factor_seconds,
                    "solve": stats.solve_seconds,
                    "rhs_control": spans.self_seconds(sub),
                }
                solutions[key] = result.solution
                tot["factor.count"] += stats.factorizations
                tot["solve.count"] += stats.solves
                tot["steps.accepted"] += stats.steps_accepted
                tot["steps.rejected"] += stats.steps_rejected
                tot["rhs.count"] += stats.rhs_evaluations
                tot["_prepares"] += stats.prepare_calls
                tot["_reused"] += stats.factor_reuse_hits
                for row, seconds in per_grid[key].items():
                    tot[f"{row}.s"] += seconds
        return {"per_grid": per_grid, "solutions": solutions}

    def _socket_run(self, spans: SpanRecorder, inp: RunInput, rec, tot):
        """The socket branch of ``run_multiprocessing``, with the engine's
        set-up, run and close timed apart."""
        specs = order_longest_first(
            [
                SubsolveJobSpec(PROBLEM, ROOT, l, m, TOL, problem_kwargs=inp.problem_kwargs)
                for l, m in loop_grids(inp.level)
            ]
        )
        escalation = EscalationPolicy(retry=RetryPolicy(), deadline=DeadlinePolicy())
        parts = {}
        with recording(rec):
            with spans.span("spawn") as held:
                engine = SocketTaskEngine(f"localhost:{self.processes}", trace=rec)
            parts["spawn"] = held["span"].seconds
            try:
                with spans.span("net.run") as held:
                    outcome = engine.run(specs, escalation=escalation, trace=rec)
                parts["run"] = held["span"].seconds
            finally:
                with spans.span("close") as held:
                    engine.close()
                parts["close"] = held["span"].seconds
        with spans.span("combine") as held:
            _, combined = combine(
                {key: p.solution for key, p in outcome.payloads.items()},
                ROOT,
                inp.level,
                target_cap=TARGET_CAP,
            )
        parts["combine"] = held["span"].seconds
        tot["net.spawn_s"] += parts["spawn"]
        tot["net.run_s"] += parts["run"]
        tot["net.close_s"] += parts["close"]
        tot["net.bytes"] += outcome.bytes_sent + outcome.bytes_received
        tot["net.send_s"] += outcome.net_send_seconds
        tot["net.recv_s"] += outcome.net_recv_seconds
        tot["net.reconnects"] += outcome.reconnects
        return outcome.payloads, outcome.attempts, combined, parts

    def traced(
        self, spans: SpanRecorder, first_index: int, runs: int = TRACED_RUNS
    ) -> tuple[dict, list[tuple[int, float, str]], dict]:
        """Traced runs ``first_index ..``: per-layer totals, the runs as
        ``(index, wall_s, digest)``, and the base of each ratio as
        ``(numerator, denominator, what)``."""
        tot: dict = defaultdict(float)
        rows_total = {row: 0.0 for row in LAYER_ROWS}
        runs_done: list[tuple[int, float, str]] = []
        cache = {} if self.warm_kernel else None
        if cache is not None:
            # the warm pool's workers hold every operator and factor
            self._kernel(SpanRecorder(), self.inputs.run_input(first_index), cache, defaultdict(float))
        for r in range(runs):
            index = first_index + r
            inp = self.inputs.run_input(index)
            spans.run = index
            rec = TraceRecorder()
            with spans.span("run") as held:
                if self.engine == "socket":
                    payloads, attempts, combined, parts = self._socket_run(
                        spans, inp, rec, tot
                    )
                else:
                    result = self.call(inp, trace=rec)
                    payloads, attempts, combined = (
                        result.payloads, result.attempts, result.combined
                    )
            wall = held["span"].seconds
            run_digest = digest(combined)
            runs_done.append((index, wall, run_digest))

            kernel = self._kernel(spans, inp, cache, tot)
            if self.engine == "socket":
                combine_s, spawn_s = parts["combine"], parts["spawn"] + parts["close"]
            else:
                with spans.span("combine") as held:
                    _, recombined = combine(
                        kernel["solutions"], ROOT, inp.level, target_cap=TARGET_CAP
                    )
                combine_s, spawn_s = held["span"].seconds, 0.0
                if digest(recombined) != run_digest:
                    raise RuntimeError(
                        f"re-solved grids of run {index} do not combine to the "
                        "run's array"
                    )
            tot["combine.s"] += combine_s

            moved: dict = {}
            for key, payload in payloads.items():
                with spans.span("transport") as held:
                    blob = pickle.dumps(payload)
                    pickle.loads(blob)
                moved[key] = held["span"].seconds
                tot["transport.bytes"] += len(blob)

            analysis = TraceAnalysis.from_recorder(rec)
            chain = analysis.critical_path()
            critical = sum(job.compute_seconds for job in chain)
            kernel_rows = defaultdict(float)
            for job in chain:
                for row, seconds in kernel["per_grid"][job.key].items():
                    kernel_rows[row] += seconds
            if self.engine == "socket":
                transport = analysis.network_seconds
            else:
                transport = sum(moved[job.key] for job in chain)
            tot["transport.s"] += (
                analysis.network_seconds if self.engine == "socket" else sum(moved.values())
            )
            backoff = retry_backoff_seconds(analysis.events)
            rows = layer_rows(
                wall=wall,
                critical_compute=critical,
                kernel=kernel_rows,
                transport=transport,
                combine=combine_s,
                backoff=backoff,
                spawn=spawn_s,
            )
            for row, seconds in rows.items():
                rows_total[row] += seconds
            tot["breakdown.wall_s"] += wall

            tot["dispatch.queue_wait_s"] += analysis.total_queue_wait_seconds
            tot["dispatch.overhead_s"] += wall - critical - combine_s
            busy = analysis.worker_busy_seconds()
            tot["_busy"] += sum(busy.values())
            tot["_lane_s"] += len(busy) * analysis.elapsed_seconds
            tot["_hits"] += sum(1 for p in payloads.values() if p.operator_cache_hit)
            tot["_payloads"] += len(payloads)
            tot["_attempts"] += attempts
            tot["fault.count"] += analysis.n_faults
            tot["fault.deadline_detections"] += sum(
                1
                for e in analysis.fault_events()
                if e.data.get("fault_kind") == "deadline"
            )
            tot["retry.count"] += analysis.n_retries
            tot["recovery.s"] += analysis.recovery_overhead_seconds
            tot["backoff.s"] += backoff
            tot["pool.respawns"] += analysis.n_respawns
            tot["fallbacks"] += analysis.n_fallbacks

        # a layer this workload never enters reads 0
        out = {name: 0.0 for name, *_ in PER_LAYER}
        out.update((k, v) for k, v in tot.items() if not k.startswith("_"))
        out.update({f"breakdown.{row}_s": s for row, s in rows_total.items()})
        out["factor.reuse_ratio"] = (
            tot["_reused"] / tot["_prepares"] if tot["_prepares"] else 0.0
        )
        steps = tot["steps.accepted"] + tot["steps.rejected"]
        out["step.reject_ratio"] = tot["steps.rejected"] / steps if steps else 0.0
        out["opcache.hit_ratio"] = (
            tot["_hits"] / tot["_payloads"] if tot["_payloads"] else 0.0
        )
        out["attempts_per_grid"] = tot["_attempts"] / (runs * self.n_grids)
        out["worker.utilization"] = (
            tot["_busy"] / tot["_lane_s"] if tot["_lane_s"] else 0.0
        )
        out["pool.cold_start_s"] = self.pool_cold_start_s
        out["trace.runs"] = runs
        bases = {
            "factor.reuse_ratio": (tot["_reused"], tot["_prepares"], "prepares"),
            "step.reject_ratio": (tot["steps.rejected"], steps, "attempted steps"),
            "opcache.hit_ratio": (tot["_hits"], tot["_payloads"], "payloads"),
            "attempts_per_grid": (tot["_attempts"], runs * self.n_grids, "grids"),
            "worker.utilization": (tot["_busy"], tot["_lane_s"], "lane-seconds busy"),
        }
        return out, runs_done, bases
