"""Self-tests of the benchmark's own logic (no solver runs).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.host import same_host
from perfbench.inputs import (
    CENTRE_X_BAND,
    CENTRE_Y_BAND,
    DIFFUSION_BAND,
    LEVELS,
    WORKLOADS,
    Inputs,
    loop_grids,
)
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.spans import LAYER_ROWS, SpanRecorder, covered_seconds, layer_rows
from perfbench.stats import MIN_BEYOND, closed_loop, compare, tail, verify

CHECKOUT = Path(__file__).resolve().parent.parent
BENCHMARK = CHECKOUT / "BENCHMARK.json"


def run_python(script: str) -> str:
    """Run ``script`` in a fresh interpreter at the checkout; its stdout."""
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=CHECKOUT, capture_output=True,
        text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_same_inputs(workload):
    a, b = Inputs(workload, 7), Inputs(workload, 7)
    assert a.warmup_input() == b.warmup_input()
    assert [a.run_input(i) for i in range(30)] == [b.run_input(i) for i in range(30)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_different_seeds_give_different_inputs(workload):
    a, b = Inputs(workload, 7), Inputs(workload, 8)
    assert [a.run_input(i) for i in range(30)] != [b.run_input(i) for i in range(30)]


def test_sweep_never_repeats_an_instance():
    inputs = Inputs("sweep", 3)
    drawn = [inputs.warmup_input()] + [inputs.run_input(i) for i in range(200)]
    assert len({i.problem_kwargs for i in drawn}) == len(drawn)


@pytest.mark.parametrize("workload", ["replay", "socket", "chaos"])
def test_fixed_instance_workloads_share_one_instance(workload):
    inputs = Inputs(workload, 5)
    assert {inputs.run_input(i).problem_kwargs for i in range(20)} == {
        Inputs("replay", 5).run_input(0).problem_kwargs
    }


def test_instances_stay_in_the_band():
    inputs = Inputs("sweep", 11)
    for i in range(100):
        kw = inputs.run_input(i).kwargs()
        assert DIFFUSION_BAND[0] <= kw["diffusion"] <= DIFFUSION_BAND[1]
        assert CENTRE_X_BAND[0] <= kw["centre"][0] <= CENTRE_X_BAND[1]
        assert CENTRE_Y_BAND[0] <= kw["centre"][1] <= CENTRE_Y_BAND[1]


def test_chaos_injects_exactly_one_fault_on_a_loop_grid():
    inputs = Inputs("chaos", 2)
    grids = set(loop_grids(LEVELS["chaos"]))
    kinds = set()
    for i in range(50):
        spec = inputs.run_input(i).faults
        kind, _, target = spec.partition("@")
        assert ";" not in spec
        assert tuple(int(x) for x in target.split(",")) in grids
        kinds.add(kind)
    assert kinds == {"crash", "raise"}
    assert Inputs("replay", 2).run_input(0).faults is None


def test_loop_grids_match_the_program(monkeypatch):
    monkeypatch.syspath_prepend(str(CHECKOUT / "src"))
    from repro.sparsegrid.grid import nested_loop_grids

    for level in (1, 5, 6):
        assert loop_grids(level) == [(g.l, g.m) for g in nested_loop_grids(2, level)]


# ----------------------------------------------------------------------
# the tail percentile
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [11, 12, 20, 37, 100, 250])
def test_tail_has_at_least_ten_samples_beyond_and_is_the_highest(n):
    values = [float(v) for v in range(n)]
    random.Random(n).shuffle(values)
    t = tail(values)
    beyond = sum(1 for v in values if v > t.value)
    assert beyond == MIN_BEYOND == t.beyond
    # the next higher sample would leave fewer than ten beyond it
    higher = min(v for v in values if v > t.value)
    assert sum(1 for v in values if v > higher) < MIN_BEYOND
    assert t.samples == n
    assert t.percentile == pytest.approx(100.0 * (n - MIN_BEYOND) / n)


def test_tail_needs_eleven_samples():
    assert tail([1.0] * 10) is None
    assert tail([1.0] * 11).percentile == pytest.approx(100.0 / 11)


# ----------------------------------------------------------------------
# spans and self time
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_the_union_of_direct_children():
    clock = FakeClock()
    spans = SpanRecorder(clock)
    with spans.span("run") as run:
        clock.now = 1.0
        with spans.span("a"):
            clock.now = 2.0
            with spans.span("grandchild"):
                clock.now = 3.0
        clock.now = 4.0
        with spans.span("b"):
            clock.now = 6.0
        clock.now = 10.0
    run = run["span"]
    by_name = {s.name: s for s in spans.spans}
    assert by_name["grandchild"].parent == by_name["a"].id
    assert by_name["a"].parent == run.id
    # children cover [1, 3] and [4, 6]; the grandchild is not counted twice
    assert spans.self_seconds(run) == pytest.approx(10.0 - 4.0)
    assert spans.self_seconds(by_name["a"]) == pytest.approx(1.0)


def test_self_time_with_overlapping_and_overhanging_children():
    spans = SpanRecorder(FakeClock())
    parent = spans.add("p", 0.0, 10.0)
    spans.add("c1", 1.0, 3.0, parent.id)
    spans.add("c2", 2.0, 5.0, parent.id)
    spans.add("c3", 8.0, 12.0, parent.id)
    assert covered_seconds(0.0, 10.0, [(1, 3), (2, 5), (8, 12)]) == pytest.approx(6.0)
    assert spans.self_seconds(parent) == pytest.approx(4.0)


def test_counted_children_are_laid_end_to_end():
    spans = SpanRecorder(FakeClock())
    parent = spans.add("subsolve", 5.0, 9.0)
    spans.add_counted(parent, {"factor": 1.5, "solve": 1.0})
    assert spans.self_seconds(parent) == pytest.approx(1.5)


def test_layer_rows_add_up_to_the_wall():
    rows = layer_rows(
        wall=2.0,
        critical_compute=1.2,
        kernel={"assembly": 0.1, "factor": 0.4, "solve": 0.3, "rhs_control": 0.3},
        transport=0.05,
        combine=0.1,
        backoff=0.2,
        spawn=0.3,
    )
    assert tuple(rows) == LAYER_ROWS
    assert sum(rows.values()) == pytest.approx(2.0)
    assert rows["unattributed"] == pytest.approx(0.1)
    assert rows["dispatch"] == pytest.approx(2.0 - 1.2 - 0.1 - 0.2 - 0.3 - 0.05)


# ----------------------------------------------------------------------
# failed_frac
# ----------------------------------------------------------------------
def test_failed_and_wrong_runs_count_in_failed_frac():
    clock = FakeClock()

    def call(i):
        wall = 40.0 if i == 3 else 1.0  # run 3 exceeds the run limit
        clock.now += wall
        if i == 1:
            raise RuntimeError("boom")
        return wall, "bad" if i == 2 else "good", {}

    phase = closed_loop(call, seconds=5.0, min_runs=11, clock=clock)
    assert phase.attempted == 11
    wrong = verify(phase.records, lambda i: "good")
    assert wrong == 1
    statuses = {r.index: r.status for r in phase.records}
    assert (statuses[1], statuses[2], statuses[3]) == ("raised", "wrong", "timeout")
    assert phase.failed == 3
    assert phase.failed_frac == pytest.approx(3 / 11)
    assert len(phase.walls) == 10  # the raised run has no wall
    assert phase.throughput(per_run=2) == pytest.approx(8 * 2 / phase.elapsed_s)


def test_runs_are_normalised_by_their_neighbouring_probes():
    clock = FakeClock()
    probes = iter([1.0, 3.0, 2.0])

    def probe():
        clock.now += 0.5
        return next(probes)

    def call(i):
        clock.now += 2.0
        return 2.0, "x", {}

    phase = closed_loop(call, seconds=0.0, probe=probe, min_runs=2, clock=clock)
    assert [r.ref_s for r in phase.records] == [2.0, 2.5]
    assert phase.walls_ref == [1.0, 0.8]
    assert phase.probe_s == pytest.approx(1.5)
    # probes are excluded from the phase's throughput
    assert phase.throughput(per_run=1) == pytest.approx(2 / 4.0)


def test_closed_loop_runs_at_least_the_given_seconds():
    clock = FakeClock()

    def call(i):
        clock.now += 0.25
        return 0.25, "x", {}

    phase = closed_loop(call, seconds=10.0, min_runs=11, clock=clock)
    assert phase.attempted == 40
    assert phase.elapsed_s == pytest.approx(10.0)


# ----------------------------------------------------------------------
# compare verdicts
# ----------------------------------------------------------------------
def _side(center, spread, seeds=range(10)):
    return {s: center + spread * ((s % 5) - 2) / 2 for s in seeds}


def test_compare_better_worse_and_within():
    parent = _side(1.0, 0.01)
    assert compare(parent, _side(0.8, 0.01), better="lower", bound=0.1).verdict == "better"
    assert compare(parent, _side(1.2, 0.01), better="lower", bound=0.1).verdict == "worse"
    assert compare(parent, _side(1.05, 0.01), better="lower", bound=0.1).verdict == "within-bound"
    assert compare(parent, _side(1.2, 0.01), better="higher", bound=0.1).verdict == "better"


def test_compare_is_unresolved_when_the_spread_exceeds_the_bound():
    parent = _side(1.0, 0.3)
    assert compare(parent, _side(1.2, 0.3), better="lower", bound=0.1).verdict == "unresolved"


def test_compare_needs_ten_pairs_for_a_gain():
    parent = _side(1.0, 0.01, range(5))
    change = _side(0.8, 0.01, range(5))
    assert compare(parent, change, better="lower", bound=0.1).verdict == "within-bound"


def test_compare_across_hosts_never_reports_a_regression_or_gain():
    parent = _side(1.0, 0.01)
    for change in (_side(1.5, 0.01), _side(0.5, 0.01)):
        v = compare(parent, change, better="lower", bound=0.1, same_host=False)
        assert v.verdict == "unresolved"


def test_same_host_compares_fingerprints_not_speed():
    base = {"nproc": 2, "cpu_model": "x", "machine": "m", "python": "3",
            "numpy": "1", "scipy": "1", "ref_kernel_s": 0.10}
    assert same_host([base], [dict(base, ref_kernel_s=0.2)])[0]
    assert not same_host([base], [dict(base, nproc=4)])[0]
    assert not same_host([base], [base, dict(base, scipy="2")])[0]


# ----------------------------------------------------------------------
# BENCHMARK.json agrees with the catalogue
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_catalogue():
    bench = json.loads(BENCHMARK.read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(
        END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


# ----------------------------------------------------------------------
# no process outlives the benchmark
# ----------------------------------------------------------------------
# Each script runs in its own interpreter, so the test process is never
# made a subreaper.  ``sh`` starts a grandchild and exits, orphaning it.
ORPHAN = """
import os, subprocess
from perfbench import reaper
assert reaper.adopt_orphans()
sh = subprocess.run(["sh", "-c", "sleep {sleep} >/dev/null 2>&1 & echo $!"],
                    capture_output=True, text=True)
orphan = int(sh.stdout)
assert reaper.children() == [orphan]
print(reaper.reap_orphans(grace_s={grace}), reaper.children(),
      os.path.exists(f"/proc/{{orphan}}"))
"""


def test_an_orphan_is_adopted_and_waited_for():
    assert run_python(ORPHAN.format(sleep=0.3, grace=10)).split() == ["1", "[]", "False"]


def test_an_orphan_that_outlives_the_grace_is_killed():
    assert run_python(ORPHAN.format(sleep=60, grace=0.2)).split() == ["1", "[]", "False"]
