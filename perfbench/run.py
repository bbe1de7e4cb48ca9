#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --compare DIR_PARENT DIR_CHANGE

One closed-loop client (it starts a run only after the previous one
returned) drives ``run_multiprocessing`` with one worker or daemon per
CPU.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run of the same inputs.  Every
run's combined array is checked bitwise against ``SequentialApplication``
on the same input, computed outside every timed region.  Run times are
reported in ``ref``, units of a reference kernel timed on every CPU
next to each run (the seconds are printed beside them), because a
shared host's speed swings by up to 2x within a minute.  The last line
of standard output is one JSON object; a record of the run (host
fingerprint included) is written under ``--out``.  The exit code is
non-zero when an output is wrong or a fault-free workload had a failed
run, and when the program is missing from the checkout.
"""

from __future__ import annotations

import argparse
import json
from collections import Counter
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
if str(CHECKOUT) not in sys.path:
    sys.path.insert(0, str(CHECKOUT))

from perfbench import host, reaper  # noqa: E402
from perfbench.inputs import PROBLEM, ROOT, TOL, WORKLOADS  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER, UNITS  # noqa: E402
from perfbench.spans import LAYER_ROWS, SpanRecorder  # noqa: E402
from perfbench.stats import (  # noqa: E402
    RUN_LIMIT_S,
    RunRecord,
    Tail,
    closed_loop,
    compare,
    quartiles,
    tail,
    verify,
)

#: fresh interpreters timed for ``setup_s``; the median is reported
FRESH_SETUPS = 3
#: workloads that inject no fault: any failed run fails the benchmark
FAULT_FREE = ("sweep", "replay", "socket")
DEFAULT_OUT = ".perfbench/results"


def load_program():
    """Import the program from the checkout's ``src/``; returns the
    workloads module and the import seconds."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    # spawned socket daemons import the program too
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    started = time.perf_counter()
    from perfbench import workloads

    return workloads, time.perf_counter() - started


def fresh_setups(workload: str, seed: int) -> list[float]:
    """Seconds from launching a fresh interpreter to the point where it
    would start its first timed run, :data:`FRESH_SETUPS` times."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed), "--setup-only",
    ]
    times = []
    for _ in range(FRESH_SETUPS):
        started = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=CHECKOUT,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - started
            _, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                # SIGTERM first: the child then stops what it started
                proc.terminate()
                try:
                    proc.communicate(timeout=30)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.communicate()
        if line.strip() != "READY" or proc.returncode != 0:
            raise RuntimeError(f"fresh set-up failed ({proc.returncode}): {err[-800:]}")
        times.append(elapsed)
    return times


def fmt(value: float) -> str:
    return f"{value:.6g}"


def end_to_end_report(wl, phase, setups, peak_rss_mb) -> tuple[dict, dict, list[str]]:
    """The end-to-end metrics, the seconds behind them, and report lines."""
    walls, ratios = phase.walls, phase.walls_ref
    if not walls:
        raise RuntimeError("no run returned an array")
    ref_p50 = statistics.median(phase.ref_s)
    tails = {}
    for key, values in (("s", walls), ("ref", ratios)):
        t = tail(values)
        tails[key] = t if t is not None else Tail(max(values), 100.0, len(values), 0)
    values = {
        "run_ref_p50": statistics.median(ratios),
        "run_ref_tail": tails["ref"].value,
        "grids_per_ref": phase.throughput(wl.n_grids) * ref_p50,
        "seq_ref_p50": statistics.median(wl.seq_ref),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    seconds = {
        "run_s_p50": statistics.median(walls),
        "run_s_tail": tails["s"].value,
        "grids_per_s": phase.throughput(wl.n_grids),
        "seq_s_p50": statistics.median(wl.seq_s),
        "ref_s_p50": ref_p50,
    }
    q1, _, q3 = quartiles(walls)
    t = tails["ref"]
    notes = {
        "run_ref_p50": f"= {fmt(seconds['run_s_p50'])} s; n={len(walls)} runs, "
        f"quartiles {fmt(q1)}..{fmt(q3)} s",
        "run_ref_tail": f"= {fmt(seconds['run_s_tail'])} s at p{t.percentile:.1f} "
        f"of {t.samples} samples, {t.beyond} beyond",
        "grids_per_ref": f"= {fmt(seconds['grids_per_s'])} grids/s: "
        f"{phase.attempted - phase.failed} correct runs x {wl.n_grids} grids / "
        f"{fmt(phase.elapsed_s - phase.probe_s)} s phase (probes excluded)",
        "seq_ref_p50": f"= {fmt(seconds['seq_s_p50'])} s; n={len(wl.seq_s)} "
        "SequentialApplication.run() calls",
        "setup_s": "median of fresh interpreters: " + ", ".join(fmt(p) for p in setups),
        "peak_rss_mb": "benchmark process, end of the measured phase",
    }
    lines = [
        f"end-to-end (untraced; 1 ref = one reference-kernel pass next to the "
        f"run, median {fmt(ref_p50)} s):"
    ]
    for name, unit, _ in END_TO_END:
        lines.append(f"  {name:<14} {fmt(values[name]):>12} {unit:<5} {notes[name]}")
    lines.append(
        f"  {'failed_frac':<14} {fmt(phase.failed_frac):>12} {'':<5} "
        f"{phase.failed}/{phase.attempted} runs "
        f"({', '.join(f'{s}={n}' for s, n in Counter(r.status for r in phase.records).items())})"
    )
    tail_info = {"percentile": t.percentile, "samples": t.samples, "beyond": t.beyond}
    return values, {"seconds": seconds, "run_ref_tail": tail_info}, lines


def per_layer_report(values: dict, bases: dict, overhead_base: float) -> list[str]:
    lines = [f"per-layer (traced; totals over {values['trace.runs']} runs, ratios pooled):"]
    lines.append(f"  {'layer':<24} {'metric':<26} {'value':>12} {'unit':<6} should move")
    for name, unit, _, layer, moves in PER_LAYER:
        if name.startswith("breakdown."):
            continue
        note = moves
        if name in bases:
            num, den, what = bases[name]
            note = f"{fmt(num)}/{fmt(den)} {what}; {moves}"
        if name == "trace.overhead_s":
            note = f"traced minus untraced median run, base {fmt(overhead_base)} s"
        lines.append(f"  {layer:<24} {name:<26} {fmt(values[name]):>12} {unit:<6} {note}")
    wall = values["breakdown.wall_s"]
    lines.append(
        f"layer breakdown (critical path of the traced runs; rows add to "
        f"{fmt(wall)} s of traced wall):"
    )
    for row in LAYER_ROWS:
        seconds = values[f"breakdown.{row}_s"]
        share = seconds / wall if wall else 0.0
        lines.append(f"  {row:<14} {fmt(seconds):>12} s  {share:7.1%} of {fmt(wall)} s")
    total = sum(values[f"breakdown.{row}_s"] for row in LAYER_ROWS)
    lines.append(f"  {'sum':<14} {fmt(total):>12} s")
    return lines


def run_benchmark(args) -> int:
    workloads, import_s = load_program()
    # orphans of the program's processes come back here, to be reaped
    reaper.adopt_orphans()
    wl = workloads.Workload(args.workload, args.seed, len(os.sched_getaffinity(0)))
    try:
        started = time.perf_counter()
        wl.setup()
        setup_s = time.perf_counter() - started
        if args.setup_only:
            print("READY", flush=True)
            return 0
        wl.start_probe()
        return measure(args, wl, import_s, setup_s)
    finally:
        wl.close()
        workloads.stop_processes()
        reaper.reap_orphans()


def measure(args, wl, import_s: float, setup_s: float) -> int:
    """The measured phase, the traced runs, the checks and the output."""
    phase = closed_loop(wl.timed, seconds=args.seconds, probe=wl.probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    spans = None
    traced_records: list[RunRecord] = []
    if args.trace:
        spans = SpanRecorder()
        layer, traced_runs, bases = wl.traced(spans, first_index=phase.attempted)
        traced_records = [RunRecord(i, w, d) for i, w, d in traced_runs]

    # the references: outside every timed region
    wrong = verify(phase.records, wl.reference) + verify(traced_records, wl.reference)
    setups = [] if args.trace else fresh_setups(args.workload, args.seed)
    fingerprint = host.fingerprint()

    header = [
        f"perfbench: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace} processes={wl.processes}",
        f"  why: {WORKLOADS[args.workload]}",
        f"  inputs: problem={PROBLEM} root={ROOT} level={wl.level} tol={TOL} "
        f"grids/run={wl.n_grids} instance={wl.inputs.run_input(0).kwargs()}",
        "  host: " + " ".join(f"{k}={v}" for k, v in fingerprint.items()),
        f"  this process: import {fmt(import_s)} s, then set-up "
        f"{fmt(setup_s)} s (pool fork {fmt(wl.pool_cold_start_s)} s, "
        f"{wl.warmup_runs} warm-up runs)",
    ]
    if args.workload == "chaos":
        kinds = Counter(k for r in phase.records for k in r.info.get("faults", ()))
        slow = [r for r in phase.records if r.status == "timeout"]
        header.append(
            f"  faults detected in the measured phase: {dict(kinds)} over "
            f"{phase.attempted} runs; {len(slow)} runs over the "
            f"{RUN_LIMIT_S:g} s run limit"
            + (f" (walls {', '.join(fmt(r.wall_s) for r in slow)} s)" if slow else "")
        )
    print("\n".join(header))

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "processes": wl.processes,
        "level": wl.level,
        "host": fingerprint,
        "import_s": import_s,
        "parent_setup_s": setup_s,
        "warmup_runs": wl.warmup_runs,
        "attempted": phase.attempted + len(traced_records),
        "failed": phase.failed + sum(1 for r in traced_records if r.status != "ok"),
        "failed_frac": phase.failed_frac,
        "phase_s": phase.elapsed_s,
        "runs": [
            {"index": r.index, "wall_s": r.wall_s, "ref_s": r.ref_s,
             "status": r.status, "error": r.error, **r.info}
            for r in phase.records
        ],
        "seq_s": wl.seq_s,
    }
    if args.trace:
        layer["import.s"] = import_s
        untraced_p50 = statistics.median(phase.walls)
        layer["trace.overhead_s"] = (
            statistics.median(w for _, w, _ in traced_runs) - untraced_p50
        )
        print("\n".join(per_layer_report(layer, bases, untraced_p50)))
        metrics = {name: layer[name] for name, *_ in PER_LAYER}
        record["per_layer"] = metrics
    else:
        values, detail, lines = end_to_end_report(wl, phase, setups, peak_rss_mb)
        print("\n".join(lines))
        metrics = values
        record.update(end_to_end=values, setup_s=setups, seq_ref=wl.seq_ref, **detail)

    correct = wrong == 0 and not (args.workload in FAULT_FREE and record["failed"] > 0)
    record["correct"] = correct
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    (out / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        spans.write(out / f"{stem}.spans.json")

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": {
                    name: {"value": value, "unit": UNITS[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


# ----------------------------------------------------------------------
# compare mode
# ----------------------------------------------------------------------
def load_records(directory: str) -> dict[str, dict[int, dict]]:
    """Untraced records of a results directory, by workload and seed."""
    by_workload: dict[str, dict[int, dict]] = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text())
        by_workload.setdefault(record["workload"], {})[record["seed"]] = record
    if not by_workload:
        raise SystemExit(f"perfbench: no untraced records in {directory}")
    return by_workload


def run_compare(parent_dir: str, change_dir: str) -> int:
    bench = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    parent, change = load_records(parent_dir), load_records(change_dir)
    hosts_a = [r["host"] for recs in parent.values() for r in recs.values()]
    hosts_b = [r["host"] for recs in change.values() for r in recs.values()]
    same, why = host.same_host(hosts_a, hosts_b)
    ref_a = statistics.median(h["ref_kernel_s"] for h in hosts_a)
    ref_b = statistics.median(h["ref_kernel_s"] for h in hosts_b)
    print(f"parent: {parent_dir}  change: {change_dir}")
    print(
        f"reference kernel: parent {fmt(ref_a)} s, change {fmt(ref_b)} s "
        f"(ratio {ref_b / ref_a:.3f}, base parent)"
    )
    if not same:
        print(f"DIFFERENT HOSTS ({why}): no verdict below is a gain or a regression")
    print(
        f"{'workload':<8} {'metric':<14} {'parent p50 [q1, q3]':<32} "
        f"{'change p50 [q1, q3]':<32} {'pairs won/lost':<15} {'worse by':>9} "
        f"{'bound':>6}  verdict"
    )
    worst = 0
    for workload in sorted(set(parent) & set(change)):
        a_recs, b_recs = parent[workload], change[workload]
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = {s: r["end_to_end"][name] for s, r in a_recs.items()}
            b = {s: r["end_to_end"][name] for s, r in b_recs.items()}
            v = compare(a, b, better=metric["better"], bound=metric["bound"], same_host=same)
            print(
                f"{workload:<8} {name:<14} "
                f"{fmt(v.parent[1]) + ' [' + fmt(v.parent[0]) + ', ' + fmt(v.parent[2]) + ']':<32} "
                f"{fmt(v.change[1]) + ' [' + fmt(v.change[0]) + ', ' + fmt(v.change[2]) + ']':<32} "
                f"{f'{v.wins}/{v.losses} of {v.pairs}':<15} {v.worse_share:>9.1%} "
                f"{metric['bound']:>6.0%}  {v.verdict}"
            )
            if v.verdict == "worse":
                worst = 1
        for side, recs in (("parent", a_recs), ("change", b_recs)):
            failed = sum(r["failed"] for r in recs.values())
            attempted = sum(r["attempted"] for r in recs.values())
            print(f"{workload:<8} {'failed_frac':<14} {side}: {failed}/{attempted} runs")
    return worst


def _terminate(signum, frame):
    # unwind through every ``finally``, so started processes are stopped
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(CHECKOUT / DEFAULT_OUT))
    parser.add_argument("--compare", nargs=2, metavar=("PARENT_DIR", "CHANGE_DIR"))
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.compare:
        return run_compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
