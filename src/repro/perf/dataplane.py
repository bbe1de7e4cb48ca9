"""The zero-copy shared-memory data plane for the subsolve fan-out.

The paper routes every grid's data through streams into
``master.dataport``; in the reproduction that stream is
``multiprocessing.Pool`` pickling, so each result array pays a full
serialize → pipe → deserialize round trip before the master can touch
it.  The S-Net/CnC comparison in the related work shows exactly this
coordination-layer data transport dominating fan-out/fan-in workloads,
and the protocol-sequentialization argument (Jongmans & Arbab) motivates
collapsing the per-payload protocol steps into one shared-buffer
hand-off.  This module is that hand-off:

* the **master** owns a :class:`DataPlane` — a small pooled arena of
  ``multiprocessing.shared_memory`` blocks.  Each job is issued a
  :class:`ShmLease` naming a block sized for its grid; released blocks
  return to the arena and are reused by later jobs, so a run allocates
  ``O(in-flight jobs)`` segments, not one per job forever;
* a **worker** writes its result array straight into the leased block
  (one ``memcpy``) and returns only a lightweight :class:`ShmDescriptor`
  — name, shape, dtype, checksum, payload bytes, generation — through
  the pickle channel.  The bulk data never crosses the pipe;
* the master **attaches without a copy**: it kept the creating handle,
  so consuming a descriptor is a checksum verification plus a NumPy
  view over the existing mapping — zero syscalls, zero copies.

**Generations.**  Every lease is tagged with the plane's current
generation.  When the fork-pool transport respawns a wedged pool it
calls :meth:`DataPlane.bump_generation`, which reclaims every
outstanding lease (their writers died with the old pool) and invalidates
their descriptors: a stale descriptor that still arrives — e.g. from a
result handle completing around the respawn — is *rejected* by
:meth:`DataPlane.attach` with :class:`StaleLeaseError`, never silently
attached, because a reclaimed block may already be re-leased to a new
job.

**Lifecycle.**  The plane owns its segments outright and
:meth:`DataPlane.close` — run on every exit path, success or fault
escalation or ``KeyboardInterrupt`` — unlinks every block and audits the
arena: leases still outstanding at close are *reaped late*, counted in
the :class:`DataPlaneAudit` and emitted as ``segment_reaped`` trace
events.  After ``close()`` the arena is provably empty (asserted), and
an ``atexit`` safety net closes any plane a crashed caller abandoned.
The fork-started pool shares one ``resource_tracker`` process, whose
registrations balance without manual bookkeeping (see :func:`_untrack`);
the creating registration stays in place as the unlink-of-last-resort
should the master die before ``close()``.

The plane is an optional transport: callers fall back to the pickle
channel per payload (a result that outgrew its lease, a vanished
segment) and per run (``data_plane="pickle"``), so every configuration
stays A/B-comparable and bitwise identical.
"""

from __future__ import annotations

import atexit
import itertools
import os
import secrets
import threading
import weakref
import zlib
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Optional

import numpy as np

from repro.trace.recorder import emit as trace_emit

__all__ = [
    "DATA_PLANES",
    "DataPlaneError",
    "StaleLeaseError",
    "ShmLease",
    "ShmDescriptor",
    "DataPlaneAudit",
    "DataPlane",
    "write_through_lease",
    "read_descriptor",
    "payload_nbytes",
]

#: the run-level transport choices (``run_multiprocessing(data_plane=)``)
DATA_PLANES = ("pickle", "shm")

#: segment capacities are rounded up to this granularity so released
#: blocks are reusable by any later grid of the same size class
_CAPACITY_QUANTUM = 4096


class DataPlaneError(RuntimeError):
    """A descriptor could not be honoured (unknown segment, size
    overflow, checksum mismatch)."""


class StaleLeaseError(DataPlaneError):
    """The descriptor's generation predates a pool respawn; its block
    may have been reclaimed and re-leased, so attaching is refused."""


@dataclass(frozen=True)
class ShmLease:
    """What a job is handed at submit time: where to write its result.

    Deliberately tiny and picklable — it rides inside the job tuple the
    same way the spec does.
    """

    name: str
    nbytes: int
    generation: int


@dataclass(frozen=True)
class ShmDescriptor:
    """What a worker sends back instead of the array itself."""

    name: str
    shape: tuple
    dtype: str
    checksum: int
    payload_bytes: int
    generation: int


@dataclass(frozen=True)
class DataPlaneAudit:
    """What :meth:`DataPlane.close` found and did."""

    #: distinct shared-memory blocks ever created by this plane
    segments_created: int
    #: leases handed out over the plane's lifetime
    leases_issued: int
    #: leases consumed and returned cleanly (attach + release)
    released: int
    #: leases reclaimed mid-run by the fault ladder / generation bumps
    reaped: int
    #: leases still outstanding when ``close()`` ran (reaped late)
    reaped_late: int
    #: blocks still registered after close — zero by construction
    leaked: int

    @property
    def clean(self) -> bool:
        """No segment needed reaping on any path."""
        return self.reaped == 0 and self.reaped_late == 0


@dataclass
class _Segment:
    """Master-side state of one arena block."""

    shm: shared_memory.SharedMemory
    capacity: int
    leased: bool = False
    key: Optional[tuple] = None


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Drop the resource tracker's claim on an already-gone segment.

    Only used when ``unlink()`` found the name already removed: CPython
    unregisters *after* a successful ``shm_unlink``, so the
    ``FileNotFoundError`` path would leave a dangling tracker entry (and
    a bogus leak warning at exit) unless it is cancelled by hand.  The
    regular paths never touch the tracker: the fork-started pool shares
    one tracker process whose per-name cache is a set, so the creating
    register, the no-op re-register of each worker attach, and the
    single unregister inside ``unlink()`` balance exactly — and the
    registration doubles as the unlink-of-last-resort should the master
    die before :meth:`DataPlane.close`.
    """
    try:
        resource_tracker.unregister(
            getattr(shm, "_name", shm.name), "shared_memory"
        )
    except Exception:  # pragma: no cover - tracker not running
        pass


def payload_nbytes(n_nodes: int, itemsize: int = 8) -> int:
    """Lease size for a nodal solution array (float64 by default)."""
    return int(n_nodes) * int(itemsize)


#: how much of each payload edge the checksum samples
_CHECKSUM_PAGE = 4096


def _checksum(buf) -> int:
    """Adler-32 over the payload's first and last pages, seeded with its
    length.

    A full-buffer digest would cost more than the ``memcpy`` it guards
    (adler32 runs at ~2 GB/s, the copy at ~10), handing the pickle
    channel back most of the shm win.  Sampling the two edge pages plus
    the length is O(8 KiB) whatever the payload size and still catches
    the realistic failure modes — truncation, a vanished or re-leased
    segment, a write torn at page granularity — which is what the check
    is for; bit-level integrity inside one mapped page is the kernel's
    contract, not the transport's.
    """
    view = memoryview(buf)
    n = len(view)
    checksum = zlib.adler32(view[:_CHECKSUM_PAGE], n & 0xFFFFFFFF)
    if n > _CHECKSUM_PAGE:
        checksum = zlib.adler32(view[n - _CHECKSUM_PAGE :], checksum)
    return checksum


#: planes that still need closing at interpreter exit (safety net for
#: callers that died before their ``finally``)
_open_planes: "weakref.WeakSet[DataPlane]" = weakref.WeakSet()


def _close_abandoned_planes() -> None:  # pragma: no cover - atexit path
    for plane in list(_open_planes):
        plane.close()


atexit.register(_close_abandoned_planes)


class DataPlane:
    """The master-side arena of pooled, generation-tagged shm blocks."""

    _instance_ids = itertools.count(1)

    def __init__(self, *, generation: int = 0) -> None:
        # the tracker must exist before any pool forks: children that
        # inherit a live tracker share its (set-semantics) name cache,
        # so their attach re-registrations are no-ops; a child forced to
        # spawn its own tracker would report phantom leaks at exit
        resource_tracker.ensure_running()
        self._lock = threading.RLock()
        self._segments: dict[str, _Segment] = {}
        self._prefix = (
            f"repro-dp-{os.getpid()}-{next(self._instance_ids)}-"
            f"{secrets.token_hex(3)}"
        )
        self._counter = itertools.count(1)
        self.generation = generation
        self.closed = False
        # audit counters
        self.segments_created = 0
        self.leases_issued = 0
        self.released_count = 0
        self.reaped_count = 0
        self.reaped_late_count = 0
        _open_planes.add(self)

    # ------------------------------------------------------------------
    # leasing
    # ------------------------------------------------------------------
    def lease(self, key: tuple, nbytes: int) -> ShmLease:
        """Lease a block of at least ``nbytes`` for the job ``key``.

        Reuses the smallest free pooled block that fits; creates a new
        one only when none does.
        """
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        with self._lock:
            self._require_open()
            fit: Optional[_Segment] = None
            for segment in self._segments.values():
                if segment.leased or segment.capacity < nbytes:
                    continue
                if fit is None or segment.capacity < fit.capacity:
                    fit = segment
            if fit is None:
                fit = self._create_segment(nbytes)
            fit.leased = True
            fit.key = tuple(key)
            self.leases_issued += 1
            return ShmLease(
                name=fit.shm.name,
                nbytes=fit.capacity,
                generation=self.generation,
            )

    def _create_segment(self, nbytes: int) -> _Segment:
        capacity = -(-nbytes // _CAPACITY_QUANTUM) * _CAPACITY_QUANTUM
        name = f"{self._prefix}-{next(self._counter)}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=capacity)
        segment = _Segment(shm=shm, capacity=capacity)
        self._segments[shm.name] = segment
        self.segments_created += 1
        return segment

    def _require_open(self) -> None:
        if self.closed:
            raise DataPlaneError("data plane has been closed")

    # ------------------------------------------------------------------
    # consuming descriptors
    # ------------------------------------------------------------------
    def attach(self, descriptor: ShmDescriptor) -> np.ndarray:
        """A zero-copy NumPy view over the descriptor's payload.

        Verifies the generation (stale descriptors are *rejected*, see
        module docstring) and the checksum before exposing the data.
        The caller must drop the view before :meth:`release`-ing or
        closing — the combiner copies anything it keeps.
        """
        with self._lock:
            self._require_open()
            if descriptor.generation != self.generation:
                raise StaleLeaseError(
                    f"descriptor for segment {descriptor.name!r} carries "
                    f"generation {descriptor.generation}, but the plane is "
                    f"at {self.generation}: its block may have been "
                    "reclaimed after a pool respawn"
                )
            segment = self._segments.get(descriptor.name)
            if segment is None or not segment.leased:
                raise DataPlaneError(
                    f"descriptor names unknown or unleased segment "
                    f"{descriptor.name!r}"
                )
            if descriptor.payload_bytes > segment.capacity:
                raise DataPlaneError(
                    f"descriptor claims {descriptor.payload_bytes} bytes in "
                    f"a {segment.capacity}-byte segment"
                )
            buf = segment.shm.buf[: descriptor.payload_bytes]
            if _checksum(buf) != descriptor.checksum:
                del buf
                raise DataPlaneError(
                    f"checksum mismatch on segment {descriptor.name!r} "
                    f"(grid {segment.key}): torn or foreign write"
                )
            return np.ndarray(
                descriptor.shape, dtype=np.dtype(descriptor.dtype), buffer=buf
            )

    def release(self, name: str) -> None:
        """Return a consumed lease's block to the free pool."""
        with self._lock:
            segment = self._segments.get(name)
            if segment is not None and segment.leased:
                segment.leased = False
                segment.key = None
                self.released_count += 1

    def revoke(self, name: str, *, reason: str = "fault") -> bool:
        """Reap one outstanding lease (the fault ladder's path).

        The block returns to the free pool — its writer is dead or done
        by the time any fault is escalated — and the reaping lands on
        the trace timeline.  Idempotent: revoking a non-leased name is a
        no-op.
        """
        with self._lock:
            segment = self._segments.get(name)
            if segment is None or not segment.leased:
                return False
            key = segment.key
            segment.leased = False
            segment.key = None
            self.reaped_count += 1
        trace_emit("segment_reaped", key=key, segment=name, reason=reason)
        return True

    def bump_generation(self) -> int:
        """Invalidate every outstanding lease (pool respawn path).

        The respawn terminated every worker of the old generation, so
        outstanding blocks have no writers left and are safe to reclaim;
        descriptors already in flight are rejected by the generation
        check in :meth:`attach`.
        """
        with self._lock:
            self.generation += 1
            outstanding = [
                name
                for name, segment in self._segments.items()
                if segment.leased
            ]
        for name in outstanding:
            self.revoke(name, reason="generation")
        return self.generation

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Leases issued but neither released nor reaped."""
        with self._lock:
            return sum(1 for s in self._segments.values() if s.leased)

    def close(self) -> DataPlaneAudit:
        """Unlink every block and audit the arena; idempotent.

        Runs on every exit path.  Leases still outstanding here were
        leaked by their jobs (crash mid-run, KeyboardInterrupt): they
        are reaped late — counted, trace-emitted — and their blocks
        unlinked like all others, so nothing survives in ``/dev/shm``.
        The zero-leak guarantee is asserted, not hoped for.
        """
        with self._lock:
            if self.closed:
                return self.audit()
            self.closed = True
            segments = list(self._segments.items())
            self._segments.clear()
        for name, segment in segments:
            if segment.leased:
                self.reaped_late_count += 1
                trace_emit(
                    "segment_reaped",
                    key=segment.key,
                    segment=name,
                    reason="close",
                    late=True,
                )
            try:
                segment.shm.close()
            except BufferError:  # pragma: no cover - a view outlived us
                pass
            try:
                segment.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                # unlink() unregisters only after a successful removal;
                # cancel the claim by hand so the tracker does not report
                # a phantom leak at exit
                _untrack(segment.shm)
        _open_planes.discard(self)
        assert not self._segments, "data plane closed with live segments"
        return self.audit()

    def audit(self) -> DataPlaneAudit:
        """The arena's bookkeeping as one record."""
        with self._lock:
            return DataPlaneAudit(
                segments_created=self.segments_created,
                leases_issued=self.leases_issued,
                released=self.released_count,
                reaped=self.reaped_count,
                reaped_late=self.reaped_late_count,
                leaked=len(self._segments) if self.closed else 0,
            )

    def __enter__(self) -> "DataPlane":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# the worker-side half
# ----------------------------------------------------------------------
#: writer-side cache of attached segments.  The arena reuses block
#: names across jobs, so re-``mmap``-ing a block per write — and soft-
#: faulting every one of its pages again — would cost more than the
#: copy it carries; a cached mapping pays that once per (process,
#: segment).  Safe because segment names are globally unique (pid +
#: instance + random token + counter): a cached mapping can never alias
#: a different block.  Bounded FIFO so a long-lived worker cannot
#: accumulate mappings without limit.
_writer_mappings: dict[str, shared_memory.SharedMemory] = {}
_WRITER_MAPPING_CAP = 64


def _writer_segment(name: str) -> shared_memory.SharedMemory:
    shm = _writer_mappings.get(name)
    if shm is None:
        shm = shared_memory.SharedMemory(name=name)
        while len(_writer_mappings) >= _WRITER_MAPPING_CAP:
            _writer_mappings.pop(next(iter(_writer_mappings))).close()
        _writer_mappings[name] = shm
    return shm


def _close_writer_mappings() -> None:
    """Drop every cached writer mapping (atexit tidy-up; also lets the
    leak-check tests start from a clean slate)."""
    while _writer_mappings:
        _writer_mappings.popitem()[1].close()


atexit.register(_close_writer_mappings)


def write_through_lease(lease: ShmLease, array) -> Optional[ShmDescriptor]:
    """Write ``array`` into the leased block; return its descriptor.

    Returns ``None`` when the shm hand-off is impossible — the array
    outgrew its lease or the segment vanished — so the caller falls back
    to the pickle channel for this payload; the run stays correct either
    way, only the transport differs.
    """
    data = np.ascontiguousarray(array)
    if data.nbytes > lease.nbytes or data.nbytes == 0:
        return None
    try:
        shm = _writer_segment(lease.name)
    except (FileNotFoundError, OSError):
        return None
    view = np.ndarray(data.shape, dtype=data.dtype, buffer=shm.buf)
    np.copyto(view, data)
    del view
    buf = shm.buf[: data.nbytes]
    checksum = _checksum(buf)
    del buf
    return ShmDescriptor(
        name=lease.name,
        shape=tuple(data.shape),
        dtype=str(data.dtype),
        checksum=checksum,
        payload_bytes=data.nbytes,
        generation=lease.generation,
    )


def read_descriptor(descriptor: ShmDescriptor) -> np.ndarray:
    """Peer-side read of a descriptor written by *another* process.

    The master consumes worker-written descriptors through
    :meth:`DataPlane.attach` (it owns the creating handle); this is the
    mirror for processes that do *not* own the plane — the strip-team
    children reading master-written halo/interface vectors.  Uses the
    same cached writer mapping as :func:`write_through_lease`, verifies
    the checksum, and returns a *copy* (the block is about to be
    rewritten by the next exchange; the reader must not hold a view).
    Generation discipline is the master's job — peers only ever receive
    descriptors the master minted for the current generation.
    """
    shm = _writer_segment(descriptor.name)
    if descriptor.payload_bytes > shm.size:
        raise DataPlaneError(
            f"descriptor claims {descriptor.payload_bytes} bytes in a "
            f"{shm.size}-byte segment {descriptor.name!r}"
        )
    buf = shm.buf[: descriptor.payload_bytes]
    if _checksum(buf) != descriptor.checksum:
        del buf
        raise DataPlaneError(
            f"checksum mismatch reading segment {descriptor.name!r}"
        )
    view = np.ndarray(
        descriptor.shape, dtype=np.dtype(descriptor.dtype), buffer=buf
    )
    out = view.copy()
    del view, buf
    return out
