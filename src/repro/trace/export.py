"""Trace exporters: JSONL (lossless round-trip) and Chrome tracing.

* :func:`write_jsonl` / :func:`read_jsonl` — one event per line, exactly
  :meth:`~repro.trace.TraceEvent.to_dict`; re-loading reproduces the
  timeline for :class:`~repro.trace.TraceAnalysis`;
* :func:`write_chrome_trace` — the ``chrome://tracing`` /
  `Perfetto <https://ui.perfetto.dev>`_ JSON format: completed job
  attempts become duration ("X") events on one track per worker,
  everything else becomes instant ("i") markers, so a run's fan-out,
  retries and respawns are inspectable visually.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence, Union

from .analysis import TraceAnalysis
from .recorder import TraceEvent

__all__ = ["write_jsonl", "read_jsonl", "write_chrome_trace"]

PathLike = Union[str, Path]


def write_jsonl(events: Iterable[TraceEvent], path: PathLike) -> int:
    """Write one JSON object per line; returns the event count."""
    count = 0
    with Path(path).open("w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event.to_dict(), sort_keys=True))
            handle.write("\n")
            count += 1
    return count


def read_jsonl(path: PathLike) -> list[TraceEvent]:
    """Load a JSONL trace back into :class:`TraceEvent` records."""
    events: list[TraceEvent] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
                events.append(TraceEvent.from_dict(payload))
            except (ValueError, KeyError) as exc:
                raise ValueError(
                    f"{path}:{line_no}: not a trace event: {exc}"
                ) from exc
    return events


def write_chrome_trace(events: Sequence[TraceEvent], path: PathLike) -> int:
    """Write the Chrome tracing JSON; returns the traceEvents count.

    Timestamps are microseconds relative to the earliest event, one
    ``tid`` per worker lane (the master's own work is lane 0).
    """
    analysis = TraceAnalysis(events)
    origin = analysis.t_begin
    lanes: dict[object, int] = {}

    def tid(worker: object) -> int:
        if worker is None:
            return 0
        if worker not in lanes:
            lanes[worker] = len(lanes) + 1
        return lanes[worker]

    out: list[dict] = []
    for job in analysis.jobs:
        out.append(
            {
                "name": f"job {job.key}"
                + (f" (attempt {job.attempt})" if job.attempt > 1 else ""),
                "cat": "job",
                "ph": "X",
                "ts": (job.start_t - origin) * 1e6,
                "dur": job.compute_seconds * 1e6,
                "pid": 1,
                "tid": tid(job.worker),
                "args": {
                    "key": list(job.key),
                    "attempt": job.attempt,
                    "queue_wait_seconds": job.queue_wait_seconds,
                    "fallback": job.fallback,
                },
            }
        )
    for name, begin, end in analysis.check_span_nesting():
        out.append(
            {
                "name": name,
                "cat": "span",
                "ph": "X",
                "ts": (begin - origin) * 1e6,
                "dur": (end - begin) * 1e6,
                "pid": 1,
                "tid": 0,
            }
        )
    instant_kinds = {
        "fault", "retry", "respawn", "fallback",
        "worker_spawn", "death_worker", "zygote_boot", "rendezvous",
        "cache_hit", "cache_miss",
    }
    for event in analysis.events:
        if event.kind not in instant_kinds:
            continue
        out.append(
            {
                "name": event.kind + (f" {event.key}" if event.key else ""),
                "cat": event.kind,
                "ph": "i",
                "s": "g",
                "ts": (event.t - origin) * 1e6,
                "pid": 1,
                "tid": tid(event.worker),
                "args": dict(event.data),
            }
        )
    for worker, lane in sorted(lanes.items(), key=lambda kv: kv[1]):
        out.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": lane,
                "args": {"name": f"worker {worker}"},
            }
        )
    out.append(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": 0,
            "args": {"name": "master"},
        }
    )
    Path(path).write_text(json.dumps({"traceEvents": out}, indent=1))
    return len(out)
