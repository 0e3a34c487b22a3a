"""Per-partition lineage manifest + incremental (service-mode) driver.

The reference keeps all cross-run state in the filesystem: renamed
files are the done/failed sets (/root/reference/pmocr.sh:2126-2144),
an event-log file is the change feed (pmocr.sh:1640,2183), a heartbeat
file is liveness (pmocr.sh:2446,2503).  Here the same roles are played
by a **lineage manifest**: one small JSON entry per input partition,
committed atomically (write tmp → rename) after that partition's
output parquet is atomically in place.

Resume semantics (idempotent restart, the reference's core property):
a rerun processes exactly the partitions without a committed manifest
entry; a partition killed mid-run left only a ``.tmp`` output dir,
which is discarded and rewritten.  Output is therefore exactly-once
per url across crashes/restarts.

Service mode (pmocr.sh:2226-2281 — inotify / poller + debounced
dispatch) is one round function, :func:`run_incremental`:
snapshot-diff the partition listing against the manifest, process
what's new.  :func:`serve_multi` is the one service loop around it,
for one or many watched directories: it blocks on inotify between
rounds, or sleeps a fixed interval where inotify is unavailable
(`_InotifyWaitPoller`, pmocr.sh:1567-1670);
bursts coalesce for free because each round processes *all* pending
partitions (DispatchRunner's DISPATCH_NEEDED cap, pmocr.sh:2195-2224).

The row-level **done manifest** (a directory of parquet shards, one
per folded output, :func:`update_done_manifest`) is read here too, and
only here: :func:`load_done_urls` is the one reader that unions its
urls (the skip set of every run; the oracle reads the same union
uncached), :func:`load_retry_state` the one that picks the urls a
``--retry-failed`` run re-drives from it.  The union is kept between
calls and extended with new shards only, so each partition of a
service round reads the one shard the previous partition's fold
wrote, not the whole history.

Scale note: at 10^12 documents this manifest is metadata-only — one
entry per multi-GB partition, listed and diffed on the driver without
touching row data.  Row-level done-sets are only consulted for
partitions not yet committed (see pipeline.py).
"""

from __future__ import annotations

import dataclasses
import datetime
import glob
import hashlib
import json
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from pmocr_ray import schema as S


def _partition_key(path: str) -> str:
    return hashlib.md5(os.path.basename(path).encode()).hexdigest()[:16]


class LineageManifest:
    """Directory of per-partition commit records with atomic writes."""

    def __init__(self, manifest_dir: str) -> None:
        self.dir = manifest_dir
        os.makedirs(manifest_dir, exist_ok=True)

    def _path(self, key: str) -> str:
        return os.path.join(self.dir, f"{key}.json")

    def is_committed(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def committed(self) -> dict[str, dict]:
        out = {}
        for p in sorted(glob.glob(os.path.join(self.dir, "*.json"))):
            with open(p) as f:
                entry = json.load(f)
            out[os.path.splitext(os.path.basename(p))[0]] = entry
        return out

    def commit(self, key: str, entry: dict) -> None:
        """Atomic: tmp write + rename — a crash never leaves a partial
        entry (the reference's rename-based state flips are atomic the
        same way, pmocr.sh:2088-2096)."""
        tmp = self._path(key) + ".tmp"
        with open(tmp, "w") as f:
            json.dump(entry, f, sort_keys=True)
        os.replace(tmp, self._path(key))

    def heartbeat(self) -> None:
        """Liveness stamp (reference: SERVICE_MONITOR_FILE refresh,
        pmocr.sh:2279)."""
        with open(os.path.join(self.dir, "_heartbeat"), "w") as f:
            f.write(str(time.time()))


def list_partitions(pages_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))


def run_incremental(
    pages_dir: str,
    out_dir: str,
    manifest_dir: str,
    done_manifest_path: str | None = None,
    *,
    run_id: str | None = None,
    on_complete=None,
    update_row_manifest: bool = False,
    extract_kwargs: dict | None = None,
    targets: tuple[str, ...] | list[str] | None = None,
) -> dict:
    """Process every input partition lacking a committed lineage entry.

    Each partition runs as its own (cluster-parallel) Dataset pipeline,
    writes ``out_dir/part-<key>/`` atomically, then commits its
    manifest entry with per-status counts.  Returns a summary dict.

    ``update_row_manifest=True`` additionally folds each committed
    partition's terminal rows into ``done_manifest_path`` as it goes —
    the reference's rename-as-you-process behavior (a file is renamed
    ``_OCR`` the moment its conversion lands, pmocr.sh:2088-2096), so a
    url appearing in a *later* partition of the same run is skipped.
    Requires ``done_manifest_path``.

    Every row of one round is stamped with the same naive-UTC
    ``processed_at`` (the round's start), as a CLI batch run stamps its
    rows.

    ``extract_kwargs`` forwards engine configuration (preprocessors,
    ``retry_failed``, block count …) to ``run_extraction`` —
    the reference re-reads its engine config each service round
    (SetOCREngineOptions at startup of each dispatch), so a config
    change (or a broken engine) takes effect at the next poll, never
    mid-partition.  A failing engine quarantines rows; the partition
    still commits with its failure counts (fault isolation, SURVEY §4).

    ``targets`` selects a multi-format bundle per partition (the
    reference's per-monitor-dir format list, default.conf:116-126):
    each committed partition directory then holds ``text/`` plus one
    subdir per derived format (see :func:`pmocr_ray.targets
    .write_targets`); lineage counts and the done-manifest fold read
    the canonical ``text/`` output.
    """
    from pmocr_ray.pipeline import run_extraction  # local import: no ray at module load

    manifest = LineageManifest(manifest_dir)
    manifest.heartbeat()
    run_id = run_id or f"run-{int(time.time())}"
    processed_at = datetime.datetime.now(datetime.timezone.utc).replace(tzinfo=None)
    from pmocr_ray.runlog import close_file_sinks, get_run_logger

    log = get_run_logger(run_id, log_dir=manifest_dir)
    try:
        summary = {"processed": [], "skipped": [], "counts": {}}
        for path in list_partitions(pages_dir):
            key = _partition_key(path)
            if manifest.is_committed(key):
                summary["skipped"].append(key)
                continue
            part_out = os.path.join(out_dir, f"part-{key}")
            tmp_out = part_out + ".tmp"
            shutil.rmtree(tmp_out, ignore_errors=True)   # discard a torn run
            shutil.rmtree(part_out, ignore_errors=True)

            t0 = time.perf_counter()
            ds = run_extraction(path, done_manifest_path,
                                processed_at=processed_at,
                                **(extract_kwargs or {}))
            if targets:
                from pmocr_ray.targets import write_targets

                write_targets(ds, tmp_out, targets)
            else:
                ds.write_parquet(tmp_out)
            os.replace(tmp_out, part_out)
            # the canonical text output (counts + done-manifest fold read it)
            status_root = os.path.join(part_out, "text") if targets else part_out
            wall_s = round(time.perf_counter() - t0, 3)

            counts = count_statuses(status_root)
            entry = {
                "partition": os.path.basename(path),
                "key": key,
                "run_id": run_id,
                "completed_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
                "num_rows": sum(counts.values()),
                "counts": counts,
                # per-partition throughput metrics (north-rule "lineage +
                # metrics"): wall time covers extract + write of this
                # partition's own pipeline run
                "wall_s": wall_s,
                "rows_per_sec": round(sum(counts.values()) / wall_s, 1)
                if wall_s > 0 else 0.0,
            }
            # Fold the partition's terminal rows into the done manifest
            # BEFORE committing its lineage entry: a crash between the two
            # leaves an uncommitted partition that a rerun reprocesses, and
            # the fold's idempotent shard union absorbs the rerun — the
            # reverse order could commit a partition whose urls were never
            # recorded (exactly-once-per-url would then be violated by a
            # duplicate url in a later partition).
            if update_row_manifest and done_manifest_path:
                update_done_manifest(status_root, done_manifest_path,
                                     run_id=run_id)
            manifest.commit(key, entry)
            manifest.heartbeat()
            log.info("partition %s committed: %s", key, counts)
            summary["processed"].append(key)
            for s, c in counts.items():
                summary["counts"][s] = summary["counts"].get(s, 0) + c
        if on_complete is not None:
            # Alert hook (reference: SendAlert on run outcome,
            # /root/reference/pmocr.sh:428-480) — driver-side callback, not
            # a dataflow operator.
            on_complete(summary)
        return summary
    finally:
        # a daemon mints a run id per round: release this round's log
        # file, or every round would leave one descriptor open
        close_file_sinks(log)


def count_statuses(output_dir: str) -> dict[str, int]:
    """Rows per status of one written run output, by key (reference:
    errorcount/failedPidsList tallies, pmocr.sh:1047-1063) — a
    columnar read of the ``status`` column of each parquet file, not a
    second pipeline run.  The tally of a CLI batch run and of each
    service partition's lineage entry."""
    counts: dict[str, int] = {}
    for f in glob.glob(os.path.join(output_dir, "*.parquet")):
        for s in pc.value_counts(
                pq.read_table(f, columns=["status"])["status"]).to_pylist():
            counts[s["values"]] = counts.get(s["values"], 0) + s["counts"]
    return dict(sorted(counts.items()))


def _read_terminal_rows(output_path: str):
    """Columnar read of a run output's terminal rows (url, status,
    attempts, processed_at) — a single file or a flat/nested directory
    of Parquet files."""
    import pyarrow.dataset as pads

    dset = pads.dataset(output_path, format="parquet")
    cols = ["url", "status", "attempts", "processed_at"]
    flt = pads.field("status").isin(
        [S.STATUS_DONE, S.STATUS_FAILED, S.STATUS_SKIPPED_TEXT])
    return dset.to_table(columns=cols, filter=flt)


def _manifest_shard_files(done_manifest_path: str) -> list[str]:
    if os.path.isdir(done_manifest_path):
        return sorted(glob.glob(os.path.join(done_manifest_path, "*.parquet")))
    if os.path.exists(done_manifest_path):
        return [done_manifest_path]
    return []


# The last set :func:`load_done_urls` returned, as ``(abspath,
# {shard: (st_ino, st_size, st_mtime_ns)}, frozenset)``.  One slot: a
# process reads one done manifest at a time (a service round, a batch
# rerun), and each set it keeps is the whole history.
_DONE_URLS: tuple | None = None


def load_done_urls(done_manifest_path: str | None) -> frozenset[str]:
    """The union of the done manifest's urls (the ``url`` column of each
    shard; a legacy single-file manifest is one shard) — the done set
    of every run, retry runs included.  Read through Arrow:
    ``to_numpy`` yields the same ``str`` objects as ``to_pylist`` at a
    fraction of the cost.

    Append-only across calls in one process: when every shard of the
    previous call's manifest still has its ``(inode, size, mtime)``, only
    the shards added since are read and unioned onto the previous set —
    with none added, the previous set object itself is returned.  Any
    other change (a shard removed or rewritten, a legacy file migrated,
    another path) reads every shard again.  This relies on the one rule
    of :func:`update_done_manifest`: a shard is only ever written to a
    tmp file and renamed into place, so a rewritten shard has a new
    inode.  A cold read is the same extension, from the empty set, so a
    one-shot ``cli --batch`` run reads the whole manifest as before; a
    long-lived driver (``serve_multi``, repeated pipeline runs) pays for
    history once and afterwards only for new shards.
    """
    global _DONE_URLS
    path = done_manifest_path or ""
    stats = {}
    for f in _manifest_shard_files(path):
        st = os.stat(f)
        stats[f] = (st.st_ino, st.st_size, st.st_mtime_ns)
    root = os.path.abspath(path)
    base, known = frozenset(), {}
    if _DONE_URLS is not None and _DONE_URLS[0] == root and all(
            stats.get(f) == st for f, st in _DONE_URLS[1].items()):
        _, known, base = _DONE_URLS
    new = [f for f in stats if f not in known]
    urls = base | _read_urls(new) if new else base
    _DONE_URLS = (root, stats, urls)
    return urls


def _read_urls(files: list[str]) -> frozenset[str]:
    """The union of the ``url`` column of the given shard files, read
    with no cache: :func:`load_done_urls` extends its set with it, and
    the single-process oracle reads the whole manifest through it, so
    the oracle's skip set never depends on that cache."""
    urls: set[str] = set()
    for f in files:
        urls.update(pq.read_table(f, columns=["url"])["url"]
                    .to_numpy(zero_copy_only=False))
    return frozenset(urls)


def load_retry_state(done_manifest_path: str | None) -> dict[str, int]:
    """``{url: prior_attempts}`` for the quarantined urls a
    ``--retry-failed`` run re-drives: those still under the lifetime
    attempt budget ``S.MAX_TOTAL_ATTEMPTS`` (the reference stops
    postponing after ``maxPostponeRetries``, pmocr.sh:814-818).  Every
    other url of the manifest stays skipped through the run's ordinary
    done set.

    Shards written before the ``attempts`` column existed default to 1
    (one full prior run), as does a missing or zero count.  A url
    recorded in several shards (e.g. a retry run folded beside the
    original) takes the max attempts and any non-failed status wins —
    one Arrow ``group_by("url")`` over the ``url``, ``status`` and
    ``attempts`` columns of all shards.
    """
    parts = []
    for f in _manifest_shard_files(done_manifest_path or ""):
        with pq.ParquetFile(f) as pf:
            has_att = "attempts" in pf.schema_arrow.names
            t = pf.read(columns=["url", "status"]
                        + (["attempts"] if has_att else []))
        att = (t["attempts"].cast(pa.int64()) if has_att
               else pa.nulls(t.num_rows, pa.int64()))
        failed = pc.fill_null(pc.equal(t["status"], S.STATUS_FAILED), False)
        parts.append(pa.table({
            "url": t["url"].cast(pa.string()),
            # a failed record's attempts (``attempts or 1``); null on
            # non-failed records, which the max ignores
            "failed_attempts": pc.if_else(
                failed,
                pc.if_else(pc.fill_null(pc.not_equal(att, 0), False), att, 1),
                None),
            "not_failed": pc.invert(failed),
        }))
    if not parts:
        return {}
    g = pa.concat_tables(parts).group_by("url").aggregate(
        [("failed_attempts", "max"), ("not_failed", "any")])
    budget_left = pc.fill_null(
        pc.less(g["failed_attempts_max"], S.MAX_TOTAL_ATTEMPTS), False)
    retry = g.filter(pc.and_(pc.invert(g["not_failed_any"]), budget_left))
    return dict(zip(retry["url"].to_pylist(),
                    retry["failed_attempts_max"].to_pylist()))


def update_done_manifest(output_path: str, done_manifest_path: str,
                         run_id: str = "update") -> None:
    """Fold a run's output into the row-level done manifest — the
    reference's mark-as-done/mark-as-failed renames (``_OCR`` /
    ``_OCR_ERR`` suffixes, /root/reference/pmocr.sh:2088-2096,
    1999-2011): every row that reached a terminal state (done, failed,
    skipped_existing_text) is recorded so future batch runs skip it
    (both suffixes are excluded from future discovery in the reference,
    pmocr.sh:2126-2144).

    **Sharded**: the manifest is a *directory* of parquet shards; each
    fold appends/overwrites exactly one shard named deterministically
    from ``output_path`` — commit cost is O(partition), independent of
    manifest history (the reference's per-file rename is O(1) the same
    way).  History is never rewritten.  Idempotent: re-folding the same
    output unions with its own previous shard (monotone — a rerun whose
    rows all skip cannot erase earlier records).  Atomic per shard
    (tmp + rename).  A legacy single-file manifest at this path is
    migrated into a directory in place.
    """
    # -- legacy migration: single parquet file -> directory of shards
    if os.path.isfile(done_manifest_path):
        tmp_dir = done_manifest_path + ".migrate.tmp"
        shutil.rmtree(tmp_dir, ignore_errors=True)
        os.makedirs(tmp_dir)
        os.replace(done_manifest_path, os.path.join(tmp_dir, "seed.parquet"))
        os.replace(tmp_dir, done_manifest_path)
    os.makedirs(done_manifest_path, exist_ok=True)

    shard_key = hashlib.md5(os.path.abspath(output_path).encode()).hexdigest()[:16]
    shard_path = os.path.join(done_manifest_path, f"shard-{shard_key}.parquet")

    t = _read_terminal_rows(output_path)
    table = pa.Table.from_pydict(
        {
            "url": t["url"].cast(pa.string()),
            "status": t["status"],
            "attempts": t["attempts"].cast(pa.int32()),
            "processed_at": t["processed_at"],
            "run_id": pa.array([run_id] * t.num_rows, pa.string()),
        },
        schema=S.DONE_MANIFEST_SCHEMA,
    )
    if os.path.exists(shard_path):
        # union with this shard's own previous content (monotone): a
        # crash-rerun that skipped every row must not erase the record
        prev = pq.read_table(shard_path)
        if "attempts" not in prev.column_names:  # pre-attempts shard
            prev = prev.add_column(
                2, S.DONE_MANIFEST_SCHEMA.field("attempts"),
                pa.array([1] * prev.num_rows, pa.int32()))
        mask = pc.invert(pc.is_in(prev["url"], value_set=table["url"]))
        table = pa.concat_tables([table, prev.filter(mask)])
    table = table.sort_by("url")
    # Shards are written only as tmp + os.replace, never in place: a
    # rewritten shard then has a new inode, which is how load_done_urls
    # tells it from a shard it has already read.
    tmp = shard_path + ".tmp"
    pq.write_table(table, tmp)
    os.replace(tmp, shard_path)


@dataclasses.dataclass(frozen=True)
class ServiceDirSpec:
    """One watched directory of the service process —
    the analogue of the reference's per-monitor-dir config bundle
    (MONITOR_DIR_1..5 + per-dir format lists, default.conf:116-126):
    its own pages source, output root, lineage manifest, optional done
    manifest and target-format bundle, fully isolated from the other
    directories the same process watches."""

    pages_dir: str
    out_dir: str
    manifest_dir: str
    done_manifest_path: str | None = None
    targets: tuple[str, ...] | None = None
    extract_kwargs: dict | None = None
    # per-round alert hook (reference: SendAlert on every failed
    # dispatch, pmocr.sh:428-480) — see runlog.make_alert_hook;
    # process-local callable, fired after each round that this spec
    # processed at least one partition in
    alert_hook: "object | None" = None


def serve_multi(specs, *, push: bool = True, max_wait_s: float = 86400.0,
                poll_interval_s: float = 30.0,
                max_rounds: int | None = None) -> dict:
    """The service loop: one process watching N >= 1 directories —
    the reference daemon spawns up to 5 per-dir monitors inside one
    process (pmocr.sh:2519-2537); this is the same shape for partitioned
    Parquet: one round = a manifest snapshot-diff poll of EVERY spec
    (each with its own manifest/out/targets — isolation is per spec),
    then one blocking :func:`pmocr_ray.state.inotify.wait_any` across
    all the dirs' inotify fds (``push=True``), so a partition landing
    in any one directory wakes the whole loop.  Degrades to the
    fixed-interval poller where inotify is unavailable.  As in the
    reference's watcher, events are only the wake signal — correctness
    comes from the per-round snapshot diff, so overflowed/dropped
    events cost latency, never correctness.  The first round runs
    immediately (the reference's first-run kick, pmocr.sh:2262-2265);
    ``max_wait_s`` forces a round without events (``MAX_WAIT``,
    pmocr.sh:24-26).

    ``max_rounds`` bounds the loop for tests.  Returns a summary with
    per-directory processed/partition counts.
    """
    from pmocr_ray.state.inotify import DirWatcher, wait_any

    specs = list(specs)
    if not specs:
        raise ValueError("serve_multi: no directory specs given")
    seen: dict[str, str] = {}
    for s in specs:
        key = os.path.abspath(s.manifest_dir)
        if key in seen:
            raise ValueError(
                f"serve_multi: manifest dir {s.manifest_dir!r} is shared "
                f"by {seen[key]!r} and {s.pages_dir!r} — two watched "
                "directories would interleave lineage; give each spec "
                "its own manifest_dir")
        seen[key] = s.pages_dir

    watchers: list = []
    if push:
        try:
            for s in specs:
                watchers.append(DirWatcher(s.pages_dir, suffix=".parquet"))
        except OSError:
            for w in watchers:
                w.close()
            watchers = []  # degrade every dir to the poller together

    rounds = 0
    last_events: dict = {}
    # Stats are keyed by pages_dir when it is unique among the specs
    # (the common case and the shape the CLI summary expects); two
    # specs legitimately watching the SAME pages_dir with different
    # targets/out dirs get distinct "pages -> out" keys instead of
    # silently merging their counters.
    _pd_n: dict[str, int] = {}
    for s in specs:
        _pd_n[s.pages_dir] = _pd_n.get(s.pages_dir, 0) + 1

    def _dir_key(s) -> str:
        if _pd_n[s.pages_dir] == 1:
            return s.pages_dir
        return f"{s.pages_dir} -> {s.out_dir}"

    per_dir: dict[str, dict] = {
        _dir_key(s): {"partitions": 0, "counts": {}} for s in specs}
    try:
        while max_rounds is None or rounds < max_rounds:
            for s in specs:
                out = run_incremental(
                    s.pages_dir, s.out_dir, s.manifest_dir,
                    s.done_manifest_path,
                    extract_kwargs=s.extract_kwargs,
                    targets=s.targets,
                    on_complete=s.alert_hook)
                d = per_dir[_dir_key(s)]
                d["partitions"] += len(out["processed"])
                for k, v in out["counts"].items():
                    d["counts"][k] = d["counts"].get(k, 0) + v
            rounds += 1
            if max_rounds is not None and rounds >= max_rounds:
                break
            if watchers:
                last_events = wait_any(watchers, max_wait_s)
            else:
                time.sleep(poll_interval_s)
    finally:
        for w in watchers:
            w.close()
    return {"rounds": rounds,
            "mode": "inotify" if watchers else "poller",
            "last_events": last_events,
            "per_dir": per_dir}
