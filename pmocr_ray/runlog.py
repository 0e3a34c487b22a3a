"""Leveled run logger — the reference's log sink, minus the bash.

Reference: ``_Logger``/``Logger`` write leveled, timestamped lines to a
log file and stdout/stderr, with per-PID temp logs harvested at exit
(/root/reference/pmocr.sh:147-302).  Here: stdlib ``logging`` with a
per-run file handler beside the lineage manifest; Ray already aggregates
per-task worker logs, so only driver-side run events are logged here.
Per-partition metrics land in the manifest entries (the structured
replacement for log-scraping).
"""

from __future__ import annotations

import logging
import os

_FMT = "%(asctime)s %(levelname)s [%(name)s] %(message)s"


def make_alert_hook(alert_path: str, *, min_failed: int = 1,
                    transport=None):
    """Failure-alert sink for ``run_incremental(on_complete=...)``.

    Reference: ``SendAlert``/``SendEmail`` fire when a run ends with
    errors (/root/reference/pmocr.sh:428-480,497-673 — mail transports
    are deployment-specific and out of engine scope per SURVEY §2 S9).
    The engine-side contract is this hook: when a completed run counts
    ``>= min_failed`` failed rows, a structured JSON alert record is
    appended to ``alert_path`` (the integration point any transport
    tails), and ``transport(record)`` is invoked if given (e.g. an SMTP
    callable in a real deployment).  Returns the callback.
    """
    import json as _json

    def hook(summary: dict) -> None:
        failed = summary.get("counts", {}).get("failed", 0)
        if failed < min_failed:
            return
        record = {
            "alert": "run_completed_with_failures",
            "failed_rows": failed,
            "counts": summary.get("counts", {}),
            "partitions": summary.get("processed", []),
        }
        os.makedirs(os.path.dirname(alert_path) or ".", exist_ok=True)
        with open(alert_path, "a") as f:
            f.write(_json.dumps(record, sort_keys=True) + "\n")
        if transport is not None:
            transport(record)

    return hook


def file_transport(spool_dir: str):
    """Concrete alert transport: one JSON file per alert in a spool
    directory (maildir discipline — write to a dotted temp name, atomic
    rename), for deployments whose mail/pager integration tails a
    directory.  Names are content-hashed + sequenced so concurrent
    writers never collide and re-delivery is idempotent per record."""
    import hashlib
    import json as _json

    def send(record: dict) -> None:
        os.makedirs(spool_dir, exist_ok=True)
        blob = _json.dumps(record, sort_keys=True).encode()
        stem = hashlib.md5(blob).hexdigest()[:16]
        seq = 0
        while True:
            final = os.path.join(spool_dir, f"alert-{stem}-{seq}.json")
            if not os.path.exists(final):
                break
            seq += 1
        tmp = final + ".tmp"
        with open(tmp, "wb") as f:
            f.write(blob + b"\n")
        os.replace(tmp, final)

    return send


def get_run_logger(run_id: str, log_dir: str | None = None) -> logging.Logger:
    """Per-run logger (stream + optional file sink).  Each REQUESTED
    sink is checked independently: an early stream-only call must not
    lock the run to stream-only — a later call that supplies
    ``log_dir`` still attaches the file sink (to the requested path,
    once per path)."""
    logger = logging.getLogger(f"pmocr_ray.{run_id}")
    logger.setLevel(logging.INFO)
    logger.propagate = False
    if not any(type(h) is logging.StreamHandler for h in logger.handlers):
        sh = logging.StreamHandler()
        sh.setFormatter(logging.Formatter(_FMT))
        logger.addHandler(sh)
    if log_dir:
        path = os.path.abspath(os.path.join(log_dir, f"{run_id}.log"))
        have = any(isinstance(h, logging.FileHandler)
                   and getattr(h, "baseFilename", None) == path
                   for h in logger.handlers)
        if not have:
            os.makedirs(log_dir, exist_ok=True)
            fh = logging.FileHandler(path)
            fh.setFormatter(logging.Formatter(_FMT))
            logger.addHandler(fh)
    return logger


def close_file_sinks(logger: logging.Logger) -> None:
    """Detach and close ``logger``'s file sinks (its stream sink stays):
    the end of a run whose logger is never used again."""
    for h in [h for h in logger.handlers
              if isinstance(h, logging.FileHandler)]:
        logger.removeHandler(h)
        h.close()
