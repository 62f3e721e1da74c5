"""Machine fingerprint, calibration probe and /proc readers.

Every result carries the fingerprint, so a number is never read without
the machine it came from.  The probe is a fixed amount of work, a small
GEMM and a Python dispatch loop, run before each of the workload's
operations: when the machine drifts during a run, the probe drifts with
it, and the runner calibrates the run's times by it.

BLAS threading is recorded, never pinned: the benchmark runs under the
machine's default threading, as a user would.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import platform
import signal
import statistics
import sys
import time
from multiprocessing import resource_tracker
from typing import Dict, Iterable, List, Optional

import numpy as np

_PROBE_N = 96
_PROBE_LOOP = 20_000
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cores() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> Dict[str, object]:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": info.get("name"), "version": info.get("version"),
            "threads": blas_threads()}


def blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, or None if it cannot tell."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line and line.rstrip().endswith(".so")}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def fingerprint() -> Dict[str, object]:
    return {
        "cores": cores(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "platform": sys.platform,
    }


class Probe:
    """Fixed calibration work, timed each time it runs."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((_PROBE_N, _PROBE_N)).astype(np.float32)
        self._b = rng.standard_normal((_PROBE_N, _PROBE_N)).astype(np.float32)
        self.gemm_s: list = []
        self.dispatch_s: list = []

    def run(self) -> float:
        """Run the probe once; returns its seconds."""
        t0 = time.perf_counter()
        for _ in range(8):
            np.matmul(self._a, self._b)
        t1 = time.perf_counter()
        acc = 0
        for i in range(_PROBE_LOOP):
            acc += i & 7
        t2 = time.perf_counter()
        self.gemm_s.append(t1 - t0)
        self.dispatch_s.append(t2 - t1)
        return t2 - t0

    def summary(self) -> Dict[str, float]:
        """Median microseconds of each half of the probe, and of the whole."""
        return {"gemm_us": statistics.median(self.gemm_s) * 1e6,
                "dispatch_us": statistics.median(self.dispatch_s) * 1e6,
                "total_us": statistics.median(
                    g + d for g, d in zip(self.gemm_s, self.dispatch_s)) * 1e6}


def _status(pid: int) -> Dict[str, str]:
    with open(f"/proc/{pid}/status") as fh:
        return dict(line.rstrip("\n").split(":\t", 1) for line in fh
                    if ":\t" in line)


def peak_rss_mb(pids: Iterable[int] = ()) -> float:
    """Peak resident set of this process plus ``pids``, in MiB."""
    total_kb = 0
    for pid in [os.getpid(), *pids]:
        total_kb += int(_status(pid)["VmHWM"].split()[0])
    return total_kb / 1024.0


def threads(pids: Iterable[int]) -> int:
    return sum(int(_status(pid)["Threads"]) for pid in pids)


def cpu_seconds(pids: Iterable[int]) -> float:
    """User plus system CPU seconds of ``pids`` so far."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _CLK_TCK


def _children() -> List[int]:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == me:
            found.append(int(entry))
    return found


def _reap(pid: int, timeout: float) -> None:
    """Wait up to ``timeout`` seconds for ``pid`` to end, then kill it."""
    deadline = time.monotonic() + timeout
    try:
        while time.monotonic() < deadline:
            if os.waitpid(pid, os.WNOHANG)[0] == pid:
                return
            time.sleep(0.01)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ChildProcessError, ProcessLookupError):
        pass


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Worker processes are joined.  The resource tracker that
    ``SharedMemory`` starts is made to outlive its parent, so it is
    stopped here as its own shutdown does it, by closing its pipe, and
    then reaped.  Any other child left is killed and reaped.
    """
    for proc in multiprocessing.active_children():
        proc.join(timeout)
        if proc.is_alive():
            proc.kill()
            proc.join()
    tracker = resource_tracker._resource_tracker
    if tracker._fd is not None:
        os.close(tracker._fd)
        tracker._fd = None
    if tracker._pid is not None:
        _reap(tracker._pid, timeout)
        tracker._pid = None
    for pid in _children():
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        _reap(pid, timeout)
