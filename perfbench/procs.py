"""Finding, measuring and stopping the processes a benchmark run started.

Every process the runner starts carries the environment variable
``PERFBENCH_RUN=<run id>``; Ray's GCS, raylet, agents and workers inherit it
from the process that called ``ray.init``.  Reading ``/proc/<pid>/environ``
therefore finds them even after they were re-parented away from the child
that started them.
"""

from __future__ import annotations

import os
import signal
import time

MARK = "PERFBENCH_RUN"


def marked(run_id: str, var: str = MARK) -> list[int]:
    """Live (non-zombie) processes whose environment has ``var=run_id``."""
    needle = f"{var}={run_id}".encode()
    me = os.getpid()
    found = []
    for d in os.listdir("/proc"):
        if not d.isdigit() or int(d) == me:
            continue
        try:
            with open(f"/proc/{d}/stat", "rb") as f:
                if f.read().rsplit(b")", 1)[1].split()[0] == b"Z":
                    continue
            with open(f"/proc/{d}/environ", "rb") as f:
                if needle in f.read().split(b"\0"):
                    found.append(int(d))
        except (FileNotFoundError, ProcessLookupError, PermissionError, IndexError):
            continue
    return found


_TICK = os.sysconf("SC_CLK_TCK")


def cpu_times(run_id: str, var: str = MARK) -> dict[int, float]:
    """CPU seconds (user + system, all threads) of this process and of every
    live marked process, by pid."""
    out = {}
    for pid in [os.getpid()] + marked(run_id, var):
        try:
            with open(f"/proc/{pid}/stat", "rb") as f:
                fields = f.read().rsplit(b")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        out[pid] = sum(int(x) for x in fields[11:13]) / _TICK
    return out


def cpu_spent(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU seconds spent between two ``cpu_times`` readings; a process that
    started in between counts whole, one that ended in between not at all."""
    return sum(t - before.get(pid, 0.0) for pid, t in after.items())


def wait_gone(run_id: str, timeout_s: float, var: str = MARK) -> list[int]:
    """Poll until no marked process is left or ``timeout_s`` passes; returns
    the ones still alive."""
    deadline = time.monotonic() + timeout_s
    left = marked(run_id, var)
    while left and time.monotonic() < deadline:
        time.sleep(0.1)
        left = marked(run_id, var)
    return left


def stop_all(run_id: str, grace_s: float = 5.0, var: str = MARK) -> list[int]:
    """Give marked processes ``grace_s`` to exit by themselves, then SIGTERM,
    then SIGKILL; returns the processes that survived all of it."""
    left = wait_gone(run_id, grace_s, var)
    for sig in (signal.SIGTERM, signal.SIGKILL):
        if not left:
            break
        for pid in left:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        left = wait_gone(run_id, 5.0, var)
    return left


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass
