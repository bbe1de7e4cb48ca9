"""The metric catalogue: names, units, direction, and for each per-layer
metric the layer it belongs to and the end-to-end metric and workload it
should move.  ``BENCHMARK.json`` lists the same names; a self-test keeps
the two in step.
"""

from __future__ import annotations

from .spans import LAYER_ROWS

#: (name, unit, better) of the end-to-end metrics, from untraced runs.
#: Times of runs are in ``ref``: multiples of one pass of the host's
#: reference kernel timed next to each run (see :mod:`.host`); the
#: report prints the seconds beside them.
END_TO_END = (
    ("run_ref_p50", "ref", "lower"),
    ("run_ref_tail", "ref", "lower"),
    ("grids_per_ref", "1/ref", "higher"),
    ("seq_ref_p50", "ref", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_KERNEL = "run_ref_p50 and seq_ref_p50 on sweep"
_REPLAY = "run_ref_p50 on replay"
_CHAOS = "run_ref_p50, run_ref_tail and grids_per_ref on chaos"
_SOCKET = "run_ref_p50 on socket (setup_s once a fleet outlives a run)"

#: (name, unit, better, layer, what it should move)
PER_LAYER = (
    ("assembly.count", "count", "lower", "sparsegrid.discretize", _KERNEL + "; ~0 on replay"),
    ("assembly.s", "s", "lower", "sparsegrid.discretize", _KERNEL + "; ~0 on replay"),
    ("factor.count", "count", "lower", "sparsegrid.linsolve", _KERNEL),
    ("factor.s", "s", "lower", "sparsegrid.linsolve", _KERNEL),
    ("factor.reuse_ratio", "ratio", "higher", "sparsegrid.linsolve", _REPLAY),
    ("solve.count", "count", "lower", "sparsegrid.linsolve", "run_ref_p50 on sweep and replay"),
    ("solve.s", "s", "lower", "sparsegrid.linsolve", "run_ref_p50 on sweep and replay"),
    ("steps.accepted", "count", "lower", "sparsegrid.rosenbrock", "solve and rhs counts"),
    ("steps.rejected", "count", "lower", "sparsegrid.rosenbrock", "wasted solve and rhs work"),
    ("step.reject_ratio", "ratio", "lower", "sparsegrid.rosenbrock", "wasted attempts"),
    ("rhs.count", "count", "lower", "sparsegrid.rosenbrock", "rhs_control.s"),
    ("rhs_control.s", "s", "lower", "sparsegrid.rosenbrock", "run_ref_p50 on sweep and replay"),
    ("opcache.hit_ratio", "ratio", "higher", "sparsegrid.cache", _REPLAY),
    ("combine.s", "s", "lower", "sparsegrid.combination", "run_ref_p50 on every workload"),
    ("dispatch.queue_wait_s", "s", "lower", "restructured.parallel", _REPLAY),
    ("worker.utilization", "ratio", "higher", "restructured.parallel", _REPLAY),
    ("dispatch.overhead_s", "s", "lower", "restructured.parallel", _REPLAY),
    ("pool.cold_start_s", "s", "lower", "restructured.pool", "setup_s"),
    ("transport.bytes", "bytes", "lower", "restructured.worker", _REPLAY),
    ("transport.s", "s", "lower", "restructured.worker", _REPLAY),
    ("fault.count", "count", "lower", "resilience", _CHAOS),
    ("fault.deadline_detections", "count", "lower", "resilience", _CHAOS),
    ("retry.count", "count", "lower", "resilience", _CHAOS),
    ("attempts_per_grid", "ratio", "lower", "resilience", _CHAOS),
    ("recovery.s", "s", "lower", "resilience", _CHAOS),
    ("backoff.s", "s", "lower", "resilience", _CHAOS),
    ("pool.respawns", "count", "lower", "resilience", _CHAOS),
    ("fallbacks", "count", "lower", "resilience", _CHAOS),
    ("net.spawn_s", "s", "lower", "restructured.netengine", _SOCKET),
    ("net.run_s", "s", "lower", "restructured.netengine", _SOCKET),
    ("net.close_s", "s", "lower", "restructured.netengine", _SOCKET),
    ("net.bytes", "bytes", "lower", "restructured.netengine", _SOCKET),
    ("net.send_s", "s", "lower", "restructured.netengine", _SOCKET),
    ("net.recv_s", "s", "lower", "restructured.netengine", _SOCKET),
    ("net.reconnects", "count", "lower", "restructured.netengine", _SOCKET),
    ("import.s", "s", "lower", "process", "setup_s"),
    ("trace.runs", "count", "higher", "benchmark", "nothing: the traced sample size"),
    ("trace.overhead_s", "s", "lower", "benchmark", "nothing: traced minus untraced median run seconds"),
) + tuple(
    (f"breakdown.{row}_s", "s", "lower", "run breakdown", "run_ref_p50 of the workload")
    for row in LAYER_ROWS + ("wall",)
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
