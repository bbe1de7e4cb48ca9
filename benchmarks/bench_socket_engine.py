"""The socket engine's coordination tax, priced against the fork pool.

The distributed configuration pays for what the in-process pool gets
free: daemon spawn (a fork from the preloaded zygote, plus the one-time
zygote boot), a framed TCP round trip per job, and heartbeat traffic.
This bench measures that tax end to end — same problem, same level,
``engine="socket"`` over loopback daemons vs the warm fork pool — and
itemizes the network side from the engine's own accounting (framed
bytes, send/recv seconds, daemon spawn time).

There is no speedup claim here: on one machine the socket engine is
strictly overhead, and the point of the measurement is that the
overhead is (a) bounded and (b) fully accounted for — the wire seconds
plus spawn cost explain the gap.  Both gates compare the two engines
measured side by side in one run: once the zygote is up, a socket run costs
at most a small multiple of a warm pool run at the same worker count.
Bitwise identity is asserted both ways.

Runs in a fast smoke mode inside the tier-1 suite; set
``REPRO_SOCKET_ENGINE_FULL=1`` for the full measurement.
"""

from __future__ import annotations

import importlib.util
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.restructured import run_multiprocessing, shutdown_pool

ROOT = 2
_BENCH_DIR = Path(__file__).parent


def _bench_tools():
    """The shared bench recorder (``record_bench_run``), loaded by path
    so it resolves regardless of which conftest owns ``sys.modules``."""
    spec = importlib.util.spec_from_file_location(
        "repro_bench_conftest", _BENCH_DIR / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: a socket run, daemons forked and closed included, may cost at most
#: this many warm pool runs at the same worker count (level 3 on a
#: 2-core host: about 3x with the zygote, about 20x when every daemon
#: booted its own interpreter)
MAX_SOCKET_OVER_POOL = 5.0


def _min_seconds(run, rounds: int) -> float:
    """The fastest of ``rounds`` calls."""
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


@pytest.mark.benchmark(group="socket-engine")
def test_socket_engine_vs_fork_pool(benchmark, socket_engine_settings):
    """Whole runs through each engine, identity asserted."""
    level = socket_engine_settings["level"]
    tol = socket_engine_settings["tol"]
    processes = socket_engine_settings["processes"]
    rounds = socket_engine_settings["rounds"]

    shutdown_pool()
    reference = run_multiprocessing(
        root=ROOT, level=level, tol=tol, processes=processes
    )

    def socket_run():
        return run_multiprocessing(
            root=ROOT, level=level, tol=tol, processes=processes,
            engine="socket", hosts=f"localhost:{processes}",
        )

    # the zygote's one-time boot is set-up, like the pool's first fork
    boot_started = time.perf_counter()
    assert np.array_equal(socket_run().combined, reference.combined)
    first_socket_seconds = time.perf_counter() - boot_started
    pool_samples: list[float] = []

    def timed_pool_run():
        # per-round setup: interleave the engines so load hits both
        started = time.perf_counter()
        result = run_multiprocessing(
            root=ROOT, level=level, tol=tol, processes=processes
        )
        pool_samples.append(time.perf_counter() - started)
        assert np.array_equal(result.combined, reference.combined)

    result = benchmark.pedantic(
        socket_run,
        setup=timed_pool_run,
        rounds=rounds,
        iterations=1,
    )
    shutdown_pool()

    assert np.array_equal(result.combined, reference.combined)
    assert result.engine == "socket"
    assert result.daemons == processes
    assert result.reconnects == 0
    assert result.net_bytes_received > result.net_bytes_sent > 0

    pool_seconds = min(pool_samples)
    socket_seconds = min(benchmark.stats.stats.data)
    wire_seconds = result.net_send_seconds + result.net_recv_seconds
    spawn_seconds = result.pool_cold_start_seconds
    benchmark.extra_info["level"] = level
    benchmark.extra_info["dispatch_model"] = "reactor"
    benchmark.extra_info["spawn_model"] = "zygote"
    benchmark.extra_info["pool_seconds"] = pool_seconds
    benchmark.extra_info["socket_seconds"] = socket_seconds
    benchmark.extra_info["first_socket_seconds"] = first_socket_seconds
    benchmark.extra_info["daemon_spawn_seconds"] = spawn_seconds
    benchmark.extra_info["wire_seconds"] = wire_seconds
    benchmark.extra_info["framed_bytes"] = (
        result.net_bytes_sent + result.net_bytes_received
    )
    print(f"\nsocket engine at level {level}: pool {pool_seconds:.3f}s vs "
          f"socket {socket_seconds:.3f}s (daemon spawn {spawn_seconds:.3f}s, "
          f"wire {wire_seconds * 1e3:.1f} ms, "
          f"{result.net_bytes_sent + result.net_bytes_received} framed bytes; "
          f"first run, zygote boot included, {first_socket_seconds:.3f}s)")
    assert socket_seconds <= MAX_SOCKET_OVER_POOL * pool_seconds, (
        f"socket run {socket_seconds:.3f}s exceeds {MAX_SOCKET_OVER_POOL:g}x "
        f"the warm pool's {pool_seconds:.3f}s"
    )


@pytest.mark.benchmark(group="socket-engine")
def test_socket_vs_fork_pool_at_4_workers(benchmark, socket_engine_settings):
    """Four daemons against a warm fork pool of four workers, measured
    side by side in one run.  Spawn scales with the daemon count, so this is
    where a per-daemon cost shows; dispatch (wall minus spawn) is where
    the reactor's own overhead shows.  Both are persisted to
    ``BENCH_socket_engine.json`` as a ``socket_vs_pool_4`` record."""
    level = socket_engine_settings["level"]
    tol = socket_engine_settings["tol"]
    rounds = socket_engine_settings["rounds"]
    workers = 4

    shutdown_pool()

    def pool_run():
        return run_multiprocessing(root=ROOT, level=level, tol=tol, processes=workers)

    reference = pool_run()  # forks and warms the pool

    def socket_run():
        return run_multiprocessing(
            root=ROOT, level=level, tol=tol, processes=workers,
            engine="socket", hosts=f"localhost:{workers}",
        )

    socket_run()  # boots the zygote
    pool_seconds = _min_seconds(pool_run, rounds)
    result = benchmark.pedantic(socket_run, rounds=rounds, iterations=1)
    shutdown_pool()
    assert np.array_equal(result.combined, reference.combined)
    assert result.daemons == workers
    assert result.reconnects == 0

    socket_seconds = min(benchmark.stats.stats.data)
    spawn_seconds = result.pool_cold_start_seconds
    dispatch_seconds = socket_seconds - spawn_seconds
    comparison = {
        "dispatch_model": "reactor",
        "spawn_model": "zygote",
        "workers": workers,
        "level": level,
        "pool_seconds": pool_seconds,
        "socket_seconds": socket_seconds,
        "daemon_spawn_seconds": spawn_seconds,
        "dispatch_seconds": dispatch_seconds,
    }
    benchmark.extra_info.update(comparison)
    _bench_tools().record_bench_run(
        "socket_engine",
        [SimpleNamespace(
            name="socket_vs_pool_4",
            group="socket-engine",
            extra_info=comparison,
        )],
    )
    print(
        f"\n{workers} workers at level {level}: pool {pool_seconds:.3f}s vs "
        f"socket {socket_seconds:.3f}s (spawn {spawn_seconds:.3f}s, "
        f"dispatch {dispatch_seconds:.3f}s)"
    )
    assert socket_seconds <= MAX_SOCKET_OVER_POOL * pool_seconds, (
        f"socket run at {workers} daemons {socket_seconds:.3f}s exceeds "
        f"{MAX_SOCKET_OVER_POOL:g}x the warm pool's {pool_seconds:.3f}s"
    )
