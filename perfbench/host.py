"""Host fingerprint and a pinned reference kernel.

Every result record carries both, so records made on different hosts
are recognised as such instead of being read as regressions.  The
reference kernel (a fixed sparse LU plus triangular solves, independent
of the program) times the host itself; the benchmark also runs it next
to every timed run, because on a shared host its speed swings by up to
2x within a minute, and divides each run's time by it.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import statistics
import time

#: the pinned kernel: 5-point Laplacian on an N x N interior grid
REF_N = 64
REF_SOLVES = 20
REF_REPEATS = 5


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


class ReferenceKernel:
    """A fixed sparse LU plus :data:`REF_SOLVES` triangular solves.

    It uses none of the program's code, so it times the host alone.
    Calling the object times one pass; the matrix is built once.
    """

    def __init__(self) -> None:
        import numpy as np
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        lap1 = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(REF_N, REF_N))
        eye = sp.identity(REF_N)
        self.matrix = (
            sp.kron(lap1, eye) + sp.kron(eye, lap1) + 0.1 * sp.identity(REF_N**2)
        ).tocsc()
        self.rhs = np.linspace(0.0, 1.0, REF_N**2)
        self._splu = spla.splu

    def __call__(self) -> float:
        started = time.perf_counter()
        lu = self._splu(self.matrix)
        for _ in range(REF_SOLVES):
            lu.solve(self.rhs)
        return time.perf_counter() - started


def _probe_worker(conn) -> None:
    kernel = ReferenceKernel()
    while conn.recv():
        conn.send(kernel())
    conn.close()


class HostProbe:
    """Times one reference-kernel pass on ``processes`` CPUs at once.

    A probe loads the host the way the run it brackets does.  Pool and
    socket runs keep every CPU busy, so a call runs one pass in each
    probe process at once and returns their mean time.  (A sequential
    run is bracketed by a :class:`ReferenceKernel` in its own process,
    which tracks the CPU that run is on.)  :meth:`close` stops and
    joins the processes.
    """

    def __init__(self, processes: int) -> None:
        context = multiprocessing.get_context("spawn")
        self._links = []
        self._procs = []
        for _ in range(processes):
            parent, child = context.Pipe()
            proc = context.Process(target=_probe_worker, args=(child,), daemon=True)
            proc.start()
            child.close()
            self._links.append(parent)
            self._procs.append(proc)
        self()  # the first pass pays for imports and the matrix

    def __call__(self) -> float:
        for link in self._links:
            link.send(True)
        return statistics.fmean(link.recv() for link in self._links)

    def close(self) -> None:
        for link in self._links:
            link.send(False)
            link.close()
        for proc in self._procs:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
                proc.join()


def fingerprint() -> dict:
    """The host's identity, and the median of :data:`REF_REPEATS`
    reference-kernel passes as ``ref_kernel_s``."""
    import numpy
    import scipy

    kernel = ReferenceKernel()

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "ref_kernel_s": statistics.median(kernel() for _ in range(REF_REPEATS)),
    }


#: fingerprint fields that must match for two records to share a host
HOST_KEYS = ("nproc", "cpu_model", "machine", "python", "numpy", "scipy")


def same_host(a: list[dict], b: list[dict]) -> tuple[bool, str]:
    """Do two sets of fingerprints describe one kind of host?  Returns the
    answer and, when not, the reason.  Speed differences of one host are
    not a reason: the end-to-end times are already in reference-kernel
    units."""
    for key in HOST_KEYS:
        left = {str(f.get(key)) for f in a}
        right = {str(f.get(key)) for f in b}
        if left != right:
            return False, f"{key}: {sorted(left)} vs {sorted(right)}"
    return True, ""
