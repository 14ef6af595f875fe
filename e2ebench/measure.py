"""Statistics, resource accounting and the machine stamp.

Free of ``repro`` imports, so the self-tests exercise this logic without
building anything.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import multiprocessing
import os
import pathlib
import platform
import resource
import signal
import subprocess
import sys
import time
from typing import Dict, List, Sequence, Tuple

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10
#: Fresh interpreters timed for the import part of ``setup_s``.
IMPORT_REPEATS = 5


def tail_percentile(samples: Sequence[float]) -> Tuple[float, int, int]:
    """The highest percentile with at least :data:`TAIL_BEYOND` samples
    beyond it (nearest rank), as ``(value, percentile, beyond)``.

    The tail never drops below the median: with fewer than
    ``2 * TAIL_BEYOND`` samples it is the median, and ``beyond`` says
    how many samples lie above it.
    """
    count = len(samples)
    chosen = 50
    for percentile in range(99, 50, -1):
        if count - math.ceil(percentile * count / 100) >= TAIL_BEYOND:
            chosen = percentile
            break
    value, beyond = nearest_rank(samples, chosen)
    return value, chosen, beyond


def nearest_rank(samples: Sequence[float], percentile: int):
    """The nearest-rank ``percentile`` of ``samples`` and how many
    samples lie beyond it."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("a percentile needs at least one sample")
    rank = max(1, math.ceil(percentile * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


# ------------------------------------------------------------------ #
# CPU time and memory of the driver and its worker processes
# ------------------------------------------------------------------ #


def _proc_stat_fields(pid) -> List[str]:
    text = pathlib.Path(f"/proc/{pid}/stat").read_text()
    return text.rsplit(")", 1)[1].split()  # the fields after the command


def _live_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process (Linux ``/proc``)."""
    try:
        fields = _proc_stat_fields(pid)
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def process_age_seconds() -> float:
    """Seconds since this process started, at clock-tick resolution
    (Linux; 0 where unavailable)."""
    try:
        started = int(_proc_stat_fields("self")[19])
        now = time.clock_gettime(time.CLOCK_BOOTTIME)
    except (OSError, AttributeError):
        return 0.0
    return max(0.0, now - started / os.sysconf("SC_CLK_TCK"))


def _rusage_cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


class CpuClock:
    """CPU seconds of the driver and its worker processes in a window.

    :meth:`start` notes the driver's CPU, the reaped children's CPU and
    what live workers already spent (their start-up is set-up work);
    :meth:`stop_driver` closes the driver's window at the end of the
    timed phase; :meth:`stop_workers` closes the workers' window once
    the pools are shut down and their processes reaped.
    """

    def start(self) -> None:
        self._driver0 = _rusage_cpu(resource.RUSAGE_SELF)
        self._children0 = _rusage_cpu(resource.RUSAGE_CHILDREN)
        self._live0 = sum(
            _live_cpu_seconds(process.pid)
            for process in multiprocessing.active_children()
        )

    def stop_driver(self) -> None:
        self.driver = _rusage_cpu(resource.RUSAGE_SELF) - self._driver0

    def stop_workers(self) -> None:
        multiprocessing.active_children()  # reaps finished workers
        self.workers = max(
            0.0,
            _rusage_cpu(resource.RUSAGE_CHILDREN)
            - self._children0 - self._live0,
        )

    @property
    def total(self) -> float:
        return self.driver + self.workers


def peak_rss_mb(workers: int) -> float:
    """Driver peak RSS plus ``workers`` times the largest reaped
    child's peak RSS, in MiB (``ru_maxrss`` is KiB on Linux)."""
    driver = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (driver + workers * child) / 1024.0


def _child_pids() -> List[int]:
    """This process's live children (Linux ``/proc``; empty elsewhere)."""
    pids = []
    for task in pathlib.Path("/proc/self/task").glob("*"):
        try:
            pids += [int(pid) for pid in
                     (task / "children").read_text().split()]
        except OSError:
            pass
    return pids


def stop_children(grace: float = 10.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Pools are shut down by the workloads; what remains is
    ``multiprocessing``'s resource tracker, which every spawned worker
    starts and which otherwise outlives the run until it notices the
    exit.  Anything else still running gets ``grace`` seconds, then
    SIGTERM, then SIGKILL.
    """
    for process in multiprocessing.active_children():
        process.join(grace)
        if process.is_alive():
            process.terminate()
            process.join()
    from multiprocessing import resource_tracker

    with contextlib.suppress(ChildProcessError, OSError):
        resource_tracker._resource_tracker._stop()
    deadline = time.monotonic() + grace
    for signal_number in (None, signal.SIGTERM, signal.SIGKILL):
        pending = []
        for pid in _child_pids():
            if signal_number is not None:
                with contextlib.suppress(OSError):
                    os.kill(pid, signal_number)
            pending.append(pid)
        while pending and time.monotonic() < deadline:
            for pid in list(pending):
                with contextlib.suppress(ChildProcessError):
                    if os.waitpid(pid, os.WNOHANG)[0] == 0:
                        continue
                pending.remove(pid)
            time.sleep(0.01)
        if not pending:
            return
        deadline = time.monotonic() + grace


def import_seconds(root: pathlib.Path, modules: Sequence[str]) -> float:
    """Least wall time of :data:`IMPORT_REPEATS` fresh interpreters
    importing ``modules``, interpreter start included: what every
    command-line run pays."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("E2E")}
    env["PYTHONPATH"] = str(root / "src")
    command = [sys.executable, "-c", "import " + ", ".join(modules)]
    times = []
    for _ in range(IMPORT_REPEATS):
        # No timeout: with one, ``subprocess`` polls for the exit at up
        # to 50 ms intervals, which quantizes the measured time.
        started = time.perf_counter()
        subprocess.run(command, cwd=root, env=env, check=True)
        times.append(time.perf_counter() - started)
    return min(times)


# ------------------------------------------------------------------ #
# Machine and commit stamp
# ------------------------------------------------------------------ #


def _cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(root: pathlib.Path, *args: str):
    # The ceiling keeps git from reporting an enclosing repository when
    # the checkout itself has none.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(
            ["git", *args], cwd=root, env=env, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest(src: pathlib.Path) -> str:
    """SHA-256 over the package's ``.py`` files (relative path + bytes):
    names the measured code even where the checkout has no git."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def machine_stamp(root: pathlib.Path) -> Dict[str, object]:
    import numpy
    import scipy

    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": source_digest(root / "src"),
    }
