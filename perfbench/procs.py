"""Ray session lifecycle and process memory for the benchmark.

Peak RSS is each process's ``VmHWM`` from ``/proc/<pid>/status``; writing
``5`` to ``/proc/<pid>/clear_refs`` resets it to the current RSS, so a
timed window starts from a clean peak.  The processes counted are this
process and the Ray worker processes it started (descendants whose
command line is a Ray worker's).
"""

from __future__ import annotations

import glob
import logging
import os
import shutil
import signal
import time


def cpus() -> int:
    """The core count ``nproc`` reports: usable cores, capped by
    ``OMP_NUM_THREADS`` / ``OMP_THREAD_LIMIT`` when set."""
    n = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OMP_THREAD_LIMIT"):
        v = os.environ.get(var, "").split(",")[0].strip()
        if v.isdigit() and int(v) > 0:
            n = min(n, int(v))
    return n


# Ray's sockets sit at <temp>/session_<date>_<time>_<us>_<pid>/sockets/plasma_store
# and an AF_UNIX path holds at most 107 bytes
_SOCKET_TAIL = len("/session_2026-01-01_00-00-00_000000_4194304/sockets/plasma_store")


def ray_temp_dir(root: str) -> str | None:
    """Ray's temp directory: inside ``root`` when its socket paths fit
    there, else None (Ray's default)."""
    temp = os.path.join(root, ".r")
    return temp if len(temp) + _SOCKET_TAIL <= 107 else None


def start_ray(root: str) -> None:
    """Start a local Ray with one CPU slot per core.  Workers import the
    program from ``root``; Ray's session files go under
    :func:`ray_temp_dir`."""
    import ray
    from ray.data import DataContext

    path = os.environ.get("PYTHONPATH")
    if root not in (path or "").split(os.pathsep):
        os.environ["PYTHONPATH"] = root + (os.pathsep + path if path else "")
    kwargs = {}
    temp = ray_temp_dir(root)
    if temp is not None:
        kwargs["_temp_dir"] = temp
    ray.init(address="local", num_cpus=cpus(), include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 * 1024 * 1024,
             _system_config={"prestart_worker_first_driver": False,
                             "enable_worker_prestart": False}, **kwargs)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def descendants(pid: int | None = None) -> list[int]:
    pid = os.getpid() if pid is None else pid
    kids: dict[int, list[int]] = {}
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(d))
    out, stack = [], [pid]
    while stack:
        for c in kids.get(stack.pop(), ()):
            out.append(c)
            stack.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def stop_ray() -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import ray

    pids = descendants()
    ray.shutdown()
    deadline = time.monotonic() + 20
    while any(_alive(p) for p in pids) and time.monotonic() < deadline:
        time.sleep(0.05)
    for p in pids:
        if _alive(p):
            try:
                os.kill(p, signal.SIGKILL)
            except ProcessLookupError:
                pass
    while any(_alive(p) for p in pids) and time.monotonic() < deadline + 10:
        time.sleep(0.05)


def remove_ray_files(root: str) -> None:
    """Delete the session directories this process's Ray sessions left in
    :func:`ray_temp_dir` (Ray names them after the process id)."""
    temp = ray_temp_dir(root)
    if temp is None:
        return
    for d in glob.glob(os.path.join(temp, f"session_*_{os.getpid()}")):
        shutil.rmtree(d, ignore_errors=True)
    latest = os.path.join(temp, "session_latest")
    if os.path.islink(latest) and not os.path.exists(latest):
        os.unlink(latest)
    try:
        os.rmdir(temp)
    except OSError:
        pass


class PeakRss:
    """Summed peak RSS of this process and the Ray worker processes over a
    window: :meth:`reset` at its start, :meth:`sample` while workers are
    alive (a worker that exits keeps its last sampled peak)."""

    def __init__(self) -> None:
        self.peak_kb: dict[int, int] = {}

    @staticmethod
    def _pids() -> list[int]:
        out = [os.getpid()]
        for p in descendants():
            try:
                with open(f"/proc/{p}/cmdline", "rb") as f:
                    cmd = f.read()
            except OSError:
                continue
            if cmd.startswith(b"ray::"):
                out.append(p)
        return out

    def reset(self) -> None:
        self.peak_kb.clear()
        for p in self._pids():
            try:
                with open(f"/proc/{p}/clear_refs", "w") as f:
                    f.write("5")
            except OSError:
                pass

    def sample(self) -> None:
        for p in self._pids():
            try:
                with open(f"/proc/{p}/status") as f:
                    for line in f:
                        if line.startswith("VmHWM:"):
                            kb = int(line.split()[1])
                            self.peak_kb[p] = max(self.peak_kb.get(p, 0), kb)
                            break
            except OSError:
                continue

    def total_mb(self) -> float:
        return sum(self.peak_kb.values()) / 1024.0
