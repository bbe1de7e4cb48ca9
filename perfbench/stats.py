"""The closed loop, run accounting, order statistics and compare verdicts.

Nothing here imports the program, so the self-tests exercise it with
fake runs.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

#: a tail percentile must have at least this many samples beyond it
MIN_BEYOND = 10
#: runs a measured phase makes however long they take: fewer leave the
#: median of a slow workload (about 1 s per run on ``socket``) unsteady
MIN_RUNS = 25
#: a run slower than this counts as timed out in ``failed_frac``
RUN_LIMIT_S = 30.0


@dataclass
class RunRecord:
    """One attempted run of the closed loop."""

    index: int
    #: seconds from the call to the returned combined array; None if raised
    wall_s: Optional[float]
    #: digest of the returned combined array; None if raised
    digest: Optional[str]
    #: ok | raised | timeout | wrong (set by :func:`verify`)
    status: str = "ok"
    error: str = ""
    #: whatever else the caller wants to keep about the run
    info: dict = field(default_factory=dict)
    #: mean of the host probes taken just before and just after the run
    ref_s: Optional[float] = None

    @property
    def wall_ref(self) -> Optional[float]:
        """The run's wall time in units of the adjacent host probes."""
        if self.wall_s is None or not self.ref_s:
            return None
        return self.wall_s / self.ref_s


@dataclass
class Phase:
    """The measured phase: every run attempted and how long it all took."""

    records: list[RunRecord]
    elapsed_s: float
    #: seconds of the phase spent in host probes between runs
    probe_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r.status != "ok")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.records else 0.0

    @property
    def walls(self) -> list[float]:
        """Wall seconds of every run that returned an array."""
        return [r.wall_s for r in self.records if r.wall_s is not None]

    @property
    def walls_ref(self) -> list[float]:
        return [r.wall_ref for r in self.records if r.wall_ref is not None]

    @property
    def ref_s(self) -> list[float]:
        return [r.ref_s for r in self.records if r.ref_s]

    def throughput(self, per_run: int) -> float:
        """Units of work per second over the whole phase, gaps between
        runs included and host probes excluded; only runs that returned
        the right array in time count."""
        ok = self.attempted - self.failed
        busy = self.elapsed_s - self.probe_s
        return ok * per_run / busy if busy > 0 else 0.0


def closed_loop(
    call: Callable[[int], tuple[float, str, dict]],
    *,
    seconds: float,
    probe: Optional[Callable[[], float]] = None,
    min_runs: int = MIN_RUNS,
    limit_s: float = RUN_LIMIT_S,
    clock: Callable[[], float] = time.perf_counter,
) -> Phase:
    """One client that starts run ``i + 1`` only after run ``i`` returned.

    ``call(i)`` returns ``(wall_s, digest, info)``.  The loop starts runs
    until ``seconds`` have passed and at least ``min_runs`` were
    attempted (more than :data:`MIN_BEYOND`, so a tail percentile with
    that many samples beyond it exists).  A run that raises is recorded, not
    retried.  ``probe()`` (the host's reference kernel, returning its
    seconds) runs before the first run and after every run; each run
    keeps the mean of its two neighbouring probes.
    """
    records: list[RunRecord] = []
    probe_s = 0.0

    def probed() -> Optional[float]:
        nonlocal probe_s
        if probe is None:
            return None
        t = clock()
        seconds_taken = probe()
        probe_s += clock() - t
        return seconds_taken

    started = clock()
    before = probed()
    index = 0
    while clock() - started < seconds or index < min_runs:
        try:
            wall_s, digest, info = call(index)
        except Exception as exc:  # a failed run is data, not a crash
            record = RunRecord(index, None, None, "raised", repr(exc)[:300])
        else:
            status = "timeout" if wall_s > limit_s else "ok"
            record = RunRecord(index, wall_s, digest, status, info=info)
        after = probed()
        if after is not None:
            record.ref_s = (before + after) / 2.0
            before = after
        records.append(record)
        index += 1
    return Phase(records, clock() - started, probe_s)


def verify(records: list[RunRecord], reference: Callable[[int], str]) -> int:
    """Mark runs whose array differs from ``reference(index)`` as wrong.

    Returns how many were wrong.  A timed-out run with a wrong array is
    wrong; a raised run has no array to check.
    """
    wrong = 0
    for record in records:
        if record.digest is None:
            continue
        if record.digest != reference(record.index):
            record.status = "wrong"
            wrong += 1
    return wrong


# ----------------------------------------------------------------------
# order statistics
# ----------------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


@dataclass(frozen=True)
class Tail:
    value: float
    #: nearest-rank percentile of ``value``
    percentile: float
    samples: int
    #: samples ranked beyond ``value``
    beyond: int


def tail(values: list[float], min_beyond: int = MIN_BEYOND) -> Optional[Tail]:
    """The highest percentile with at least ``min_beyond`` samples beyond it.

    In nearest-rank terms the sorted sample ``s[i]`` is percentile
    ``100 * (i + 1) / n`` and has ``n - 1 - i`` samples ranked beyond
    it, so the answer is ``i = n - 1 - min_beyond``.  None when there
    are too few samples for any percentile to qualify.
    """
    n = len(values)
    i = n - 1 - min_beyond
    if i < 0:
        return None
    ordered = sorted(values)
    return Tail(ordered[i], 100.0 * (i + 1) / n, n, n - 1 - i)


# ----------------------------------------------------------------------
# compare verdicts (choosing-metrics guide, sections 5-8)
# ----------------------------------------------------------------------
#: pairs a gain claim needs
MIN_PAIRS = 10
#: share of pairs the change must win for a gain claim
WIN_SHARE = 0.9


@dataclass(frozen=True)
class Verdict:
    verdict: str
    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    pairs: int
    wins: int
    losses: int
    #: how much worse the change's median is, as a share of the parent's
    worse_share: float
    #: the wider of the two sides' quartile spreads, as a share of median
    spread_share: float


def _share(delta: float, base: float) -> float:
    return delta / abs(base) if base else (0.0 if delta == 0 else float("inf"))


def compare(
    parent: dict[int, float],
    change: dict[int, float],
    *,
    better: str,
    bound: float,
    same_host: bool = True,
) -> Verdict:
    """Verdict for one metric on one workload; values are keyed by seed.

    * ``better``: at least :data:`MIN_PAIRS` seed pairs, the change wins
      at least :data:`WIN_SHARE` of them (ties count for neither) and
      the medians differ by more than the parent's quartile spread.
    * ``unresolved``: the run-to-run spread of either side is wider than
      the bound, unless every run of the change reads better than every
      run of the parent; also any ``better`` or ``worse`` read across
      different hosts, which no verdict may rest on.
    * ``worse``: the change's median is worse by more than the bound.
    * ``within-bound``: otherwise.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "higher" else -1.0
    a, b = list(parent.values()), list(change.values())
    qa, qb = quartiles(a), quartiles(b)
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    losses = sum(1 for s in seeds if sign * (change[s] - parent[s]) < 0)
    gain = sign * (qb[1] - qa[1])
    worse_share = _share(-gain, qa[1])
    spread_share = max(_share(qa[2] - qa[0], qa[1]), _share(qb[2] - qb[0], qb[1]))
    every_run_better = (
        min(b) > max(a) if better == "higher" else max(b) < min(a)
    )
    if (
        len(seeds) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(seeds)
        and gain > qa[2] - qa[0]
    ):
        verdict = "better"
    elif every_run_better:
        verdict = "within-bound"
    elif spread_share > bound:
        verdict = "unresolved"
    elif worse_share > bound:
        verdict = "worse"
    else:
        verdict = "within-bound"
    if not same_host and verdict in ("better", "worse"):
        verdict = "unresolved"
    return Verdict(
        verdict, qa, qb, len(seeds), wins, losses, worse_share, spread_share
    )
