"""CLI — the reference's two entry modes on the Ray pipeline.

``--batch`` mirrors ``pmocr.sh --batch /path`` (one discovery +
conversion pass, /root/reference/pmocr.sh:2546-2593); ``--service``
mirrors the monitor daemon (pmocr.sh:2498-2544) as a poller loop over
newly arrived Parquet partitions.  Flags override config
(pmocr.sh:2462-2494): ``-k/--skip-txt-pdf`` toggles the
already-has-text skip (pmocr.sh:2378-2380), ``--targets`` picks the
output formats (``csv`` is the CSV-hack derived format).

Usage:
    python -m pmocr_ray.cli --batch PAGES_DIR [--out DIR] [--config F] ...
    python -m pmocr_ray.cli --service PAGES_DIR [--interval S] [--rounds N] ...
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

from pmocr_ray.config import PipelineConfig, apply_overrides, load_config


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pmocr_ray", description=__doc__)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--batch", metavar="PAGES", help="one conversion pass")
    mode.add_argument("--service", metavar="PAGES[:tgt1+tgt2]", nargs="+",
                      help="poll for new partitions and process them; "
                           "multiple directories run in ONE service "
                           "process (the reference's one-daemon-N-dirs "
                           "mode, pmocr.sh:2519-2537), each with its own "
                           "lineage manifest, output subdir and optional "
                           "per-dir target bundle appended as "
                           ":tgt1+tgt2 (default.conf:116-126)")
    p.add_argument("--config", help="KEY=value config file")
    p.add_argument("--out", dest="out_dir")
    p.add_argument("--done-manifest", dest="done_manifest")
    p.add_argument("-k", "--skip-txt-pdf", dest="check_existing_text",
                   action="store_const", const=True,
                   help="skip PDFs that already carry a text layer")
    p.add_argument("--no-skip-txt-pdf", dest="check_existing_text",
                   action="store_const", const=False)
    p.add_argument("--targets", dest="targets",
                   help="comma list of output formats "
                        "(text,pdf,csv,jsonl) — one extraction pass, "
                        "per-format derived sinks")
    p.add_argument("--preprocessors", dest="preprocessors",
                   help="comma list of registered payload preprocessors "
                        "applied before the engine")
    p.add_argument("--retry-failed", dest="retry_failed",
                   action="store_const", const=True,
                   help="re-drive quarantined urls whose lifetime attempt "
                        "budget is not exhausted (carries attempts forward)")
    p.add_argument("--update-done", action="store_true",
                   help="after a batch run, fold terminal rows into the "
                        "done manifest (the reference's mark-as-done rename)")
    p.add_argument("--interval", dest="poll_interval_s", type=float)
    p.add_argument("--rounds", type=int, default=None,
                   help="service mode: stop after N poll rounds")
    p.add_argument("--push", action="store_true",
                   help="service mode: block on inotify events between "
                        "rounds (the reference's inotifywait mode, "
                        "pmocr.sh:2268-2270) instead of a fixed poll "
                        "interval; degrades to the poller where inotify "
                        "is unavailable")
    p.add_argument("--max-wait", dest="max_wait_s", type=float,
                   default=86400.0,
                   help="push mode: force a round after this many "
                        "seconds without events (MAX_WAIT, "
                        "pmocr.sh:24-26)")
    p.add_argument("--alert-spool", dest="alert_spool",
                   help="directory for failure alerts: every run/round "
                        "that quarantines rows appends to "
                        "<dir>/alerts.jsonl and drops one spool file "
                        "per alert (SendAlert analogue, "
                        "pmocr.sh:428-480)")
    return p


def _engine_kwargs(cfg: PipelineConfig) -> dict:
    """The engine settings of ``cfg`` as ``run_extraction`` keywords —
    the one place batch runs and every service directory get them."""
    return {
        "num_blocks": cfg.num_blocks,
        "check_existing_text": cfg.check_existing_text,
        "max_payload_bytes": cfg.max_payload_bytes,
        "retry_failed": cfg.retry_failed,
        "preprocessors": cfg.preprocessor_list() or None,
    }


def run_batch(pages: str, cfg: PipelineConfig, update_done: bool = False) -> dict:
    """One conversion pass.  ``cfg.out_dir`` is owned by the run and is
    REPLACED: Ray's write_parquet appends uuid-named files, so writing
    beside a previous run's output would double-count rows in
    its status counts and fold stale rows into the done manifest."""
    import shutil

    from pmocr_ray.pipeline import run_extraction
    from pmocr_ray.state.manifest import count_statuses, update_done_manifest

    shutil.rmtree(cfg.out_dir, ignore_errors=True)
    ds = run_extraction(
        pages,
        cfg.done_manifest,
        processed_at=datetime.datetime.now(datetime.timezone.utc).replace(tzinfo=None),
        **_engine_kwargs(cfg),
    )
    targets = cfg.target_list()
    if targets:
        # multi-format fan-out: one extraction pass, per-target sinks
        # under out_dir/<target>/ (pmocr.sh:2546-2593)
        from pmocr_ray.targets import write_targets

        write_targets(ds, cfg.out_dir, targets)
        status_dir = os.path.join(cfg.out_dir, "text")
    else:
        ds.write_parquet(cfg.out_dir)
        status_dir = cfg.out_dir
    if update_done and cfg.done_manifest:
        update_done_manifest(status_dir, cfg.done_manifest)
    return count_statuses(status_dir)


def _parse_service_entry(entry: str) -> tuple[str, tuple[str, ...] | None]:
    """``PAGES[:tgt1+tgt2]`` -> (pages_dir, targets-or-None)."""
    path, sep, tgts = entry.rpartition(":")
    if not sep or os.path.sep in tgts or not path:
        return entry, None
    return path, tuple(t for t in tgts.split("+") if t) or None


def _alert_hook_from_cfg(cfg: PipelineConfig):
    """Build the configured alert sink (reference: SendAlert fires on
    every failed dispatch, pmocr.sh:428-480): JSONL record appended to
    <alert_spool>/alerts.jsonl + one spool file per alert (maildir
    discipline, runlog.file_transport).  None when unconfigured."""
    if not cfg.alert_spool:
        return None
    from pmocr_ray.runlog import file_transport, make_alert_hook

    return make_alert_hook(os.path.join(cfg.alert_spool, "alerts.jsonl"),
                           transport=file_transport(cfg.alert_spool))


def run_service(pages: str | list[str], cfg: PipelineConfig,
                rounds: int | None, push: bool = False,
                max_wait_s: float = 86400.0) -> dict:
    from pmocr_ray.state.manifest import ServiceDirSpec, serve_multi

    entries = [pages] if isinstance(pages, str) else list(pages)
    if entries == ["auto"]:
        # config-driven watcher list — the reference's service reads
        # MONITOR_DIR_1..5 from its conf file (pmocr.sh:2519-2537)
        entries = cfg.service_dir_list()
        if not entries:
            raise SystemExit(
                "--service auto: the config file defines no service_dirs")
    parsed = [_parse_service_entry(e) for e in entries]
    # one plain directory keeps the configured out/manifest paths;
    # several (or one with a target bundle) get per-dir subdirs, named
    # by position so equal basenames never collide (pmocr.sh:2519-2537).
    # Every dir reads the one configured done manifest: service rounds
    # never write it, so sharing it is safe.
    nested = len(parsed) > 1 or parsed[0][1] is not None

    def _sub(root: str | None, name: str) -> str | None:
        return os.path.join(root, name) if root and nested else root

    alert_hook = _alert_hook_from_cfg(cfg)
    specs = []
    for i, (pages_dir, targets) in enumerate(parsed):
        name = f"{os.path.basename(os.path.normpath(pages_dir))}-{i}"
        specs.append(ServiceDirSpec(
            pages_dir=pages_dir,
            out_dir=_sub(cfg.out_dir, name),
            manifest_dir=_sub(cfg.resolved_manifest_dir(), name),
            done_manifest_path=cfg.done_manifest,
            targets=targets or (tuple(cfg.target_list()) or None),
            extract_kwargs=_engine_kwargs(cfg),
            alert_hook=alert_hook,
        ))
    out = serve_multi(specs, push=push, max_wait_s=max_wait_s,
                      poll_interval_s=cfg.poll_interval_s,
                      max_rounds=rounds)
    out["partitions"] = sum(d["partitions"] for d in out["per_dir"].values())
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = load_config(args.config) if args.config else PipelineConfig()
    cfg = apply_overrides(
        cfg,
        out_dir=args.out_dir,
        done_manifest=args.done_manifest,
        check_existing_text=args.check_existing_text,
        targets=args.targets,
        preprocessors=args.preprocessors,
        retry_failed=args.retry_failed,
        poll_interval_s=args.poll_interval_s,
        alert_spool=args.alert_spool,
    )

    import ray

    owns_ray = not ray.is_initialized()
    if owns_ray:
        # honor RAY_ADDRESS (ray job submit sets it to the cluster);
        # fall back to a private local instance for standalone runs
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    try:
        if args.batch:
            out = run_batch(args.batch, cfg, update_done=args.update_done)
            hook = _alert_hook_from_cfg(cfg)
            if hook is not None:
                # batch runs alert too (the reference's one-shot mode
                # sends the same failure alert as the service)
                hook({"counts": out, "processed": [args.batch]})
        else:
            out = run_service(args.service, cfg, args.rounds,
                              push=args.push, max_wait_s=args.max_wait_s)
        print(json.dumps(out))
        return 0
    finally:
        if owns_ray:
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
