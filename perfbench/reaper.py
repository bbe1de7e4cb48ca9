"""Keep every process the benchmark starts inside the benchmark.

The program's socket daemons fork a task instance each.  Closing the
engine kills a daemon; its orphaned task instance notices the lost
parent and exits on its own, up to a second later.  Left to ``init``,
such an orphan outlives the benchmark.  Marked as a child subreaper
(Linux ``prctl``), the benchmark process adopts the orphans of its
descendants instead, and :func:`reap_orphans` waits for each of them,
killing any that outlive a grace period, before the benchmark exits.
"""

from __future__ import annotations

import ctypes
import os
import signal
import time

PR_SET_CHILD_SUBREAPER = 36
#: seconds an adopted orphan gets to exit on its own before it is killed
GRACE_S = 10.0


def adopt_orphans() -> bool:
    """Make this process the reaper of its descendants' orphans.
    Returns whether the kernel accepted it."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def children(pid: int | None = None) -> list[int]:
    """Pids whose parent is ``pid`` (this process by default), zombies
    included."""
    pid = os.getpid() if pid is None else pid
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                # the command name may hold spaces and parentheses
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def reap_orphans(grace_s: float = GRACE_S, poll_s: float = 0.05) -> int:
    """Wait for every child this process still has, and reap it.

    Call it once the children the benchmark started itself are joined:
    whatever remains is an adopted orphan.  Children still running after
    ``grace_s`` are killed.  Returns how many were reaped.
    """
    deadline = time.monotonic() + grace_s
    reaped = 0
    while True:
        pids = children()
        if not pids:
            return reaped
        for pid in pids:
            try:
                done, _ = os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                continue
            reaped += done == pid
        if time.monotonic() >= deadline:
            break
        time.sleep(poll_s)
    for pid in children():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in children():
        try:
            os.waitpid(pid, 0)
            reaped += 1
        except ChildProcessError:
            pass
    return reaped
