"""Push-based directory eventing: Linux inotify via ctypes.

The reference's service mode blocks on ``inotifywait -e create -e
moved_to --timeout $MAX_WAIT`` (/root/reference/pmocr.sh:2268-2270) and
falls back to a snapshot-diff poller on filesystems without inotify
(pmocr.sh:2272-2275, ``_InotifyWaitPoller``).  This module is the same
split for partitioned-Parquet ingestion: :class:`DirWatcher` binds the
raw Linux syscalls (``inotify_init1`` / ``inotify_add_watch`` / fd
reads) through ``ctypes`` — no third-party package — and
:func:`pmocr_ray.state.manifest.serve_multi` blocks on it between
rounds, waking the moment a new partition file lands instead of
sleeping a poll interval.

Design note (matches the reference): events are a **wake signal, never
the source of truth**.  Every wake runs the same manifest snapshot-diff
round (:func:`pmocr_ray.state.manifest.run_incremental`), so a dropped or
overflowed event queue (``IN_Q_OVERFLOW``) costs at most latency up to
``max_wait`` — exactly the reference's forced-run period semantics
(``MAX_WAIT``, pmocr.sh:24-26) — never a missed partition.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import errno
import os
import select
import struct
import time

#: inotify event mask bits (linux/inotify.h)
IN_CREATE = 0x00000100
IN_MOVED_TO = 0x00000080
IN_CLOSE_WRITE = 0x00000008
IN_Q_OVERFLOW = 0x00004000

#: the reference's watch mask: files appearing by creation or rename-in
#: (pmocr.sh:2268-2270 watches create,moved_to); close_write added so a
#: partition written in place (open→write→close) also wakes the loop
DEFAULT_MASK = IN_CREATE | IN_MOVED_TO | IN_CLOSE_WRITE

_EVENT_HEADER = struct.Struct("iIII")  # wd, mask, cookie, len


def _load_libc():
    name = ctypes.util.find_library("c") or "libc.so.6"
    lib = ctypes.CDLL(name, use_errno=True)
    # presence check: non-Linux libcs lack the symbols
    for sym in ("inotify_init1", "inotify_add_watch", "inotify_rm_watch"):
        if not hasattr(lib, sym):
            raise OSError(f"libc lacks {sym}")
    return lib


def inotify_available() -> bool:
    """True when the running platform exposes the inotify syscalls."""
    try:
        _load_libc()
        return True
    except OSError:
        return False


class DirWatcher:
    """Push watcher on one directory (non-recursive, like the
    reference's per-monitor-dir inotifywait); block on one or more of
    them with :func:`wait_any`.  Only file names ending in ``suffix``
    (when given) count as events; a queue overflow reports the name
    ``"<overflow>"`` so the caller still runs a round.

    Raises ``OSError`` at construction on platforms without inotify —
    callers degrade to the poller (see ``serve_multi``).
    """

    def __init__(self, path: str, mask: int = DEFAULT_MASK,
                 suffix: str | None = None) -> None:
        self._libc = _load_libc()
        self.path = path
        self.suffix = suffix
        self._fd = self._libc.inotify_init1(0)
        if self._fd < 0:
            raise OSError(ctypes.get_errno(), "inotify_init1 failed")
        wd = self._libc.inotify_add_watch(
            self._fd, os.fsencode(path), ctypes.c_uint32(mask))
        if wd < 0:
            e = ctypes.get_errno()
            os.close(self._fd)
            self._fd = -1
            raise OSError(e, f"inotify_add_watch({path}) failed: "
                             f"{errno.errorcode.get(e, e)}")
        self._wd = wd

    def _drain(self) -> set[str]:
        try:
            buf = os.read(self._fd, 65536)
        except BlockingIOError:  # pragma: no cover - blocking fd
            return set()
        names: set[str] = set()
        off = 0
        while off + _EVENT_HEADER.size <= len(buf):
            _, mask, _, nlen = _EVENT_HEADER.unpack_from(buf, off)
            off += _EVENT_HEADER.size
            name = buf[off:off + nlen].split(b"\0", 1)[0].decode(
                "utf-8", "replace")
            off += nlen
            if mask & IN_Q_OVERFLOW:
                names.add("<overflow>")
            elif name and (self.suffix is None
                           or name.endswith(self.suffix)):
                names.add(name)
        return names

    def close(self) -> None:
        if self._fd >= 0:
            self._libc.inotify_rm_watch(self._fd, self._wd)
            os.close(self._fd)
            self._fd = -1

    def __enter__(self) -> "DirWatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def wait_any(watchers: list["DirWatcher"],
             timeout_s: float | None) -> dict[str, list[str]]:
    """Block until at least one of ``watchers`` has a matching event
    (the reference daemon selects over up to 5 per-dir inotifywait
    children, pmocr.sh:2519-2537).  Returns ``{watched_path: [names]}``
    for every directory that fired, names deduplicated and sorted, or
    ``{}`` on timeout (the forced-run wake).  Filtered-out noise (temp
    files) does not end the wait early; a burst is coalesced into one
    wake (the reference's DISPATCH_NEEDED debounce, pmocr.sh:2195-2224).
    """
    deadline = None if timeout_s is None else time.monotonic() + timeout_s
    by_fd = {w._fd: w for w in watchers}
    hits: dict[str, set] = {}

    def _drain_ready(ready) -> None:
        for fd in ready:
            names = by_fd[fd]._drain()
            if names:
                hits.setdefault(by_fd[fd].path, set()).update(names)

    while not hits:
        remaining = (None if deadline is None
                     else max(0.0, deadline - time.monotonic()))
        r, _, _ = select.select(list(by_fd), [], [], remaining)
        if not r:
            return {}
        _drain_ready(r)
        if deadline is not None and time.monotonic() >= deadline:
            break
    while True:
        r = select.select(list(by_fd), [], [], 0)[0]
        if not r:
            break
        _drain_ready(r)
    return {k: sorted(v) for k, v in hits.items()}
