"""Composed end-to-end pipelines (batch mode + incremental/service mode).

Batch mode mirrors ``pmocr.sh --batch`` (/root/reference/pmocr.sh:
2321-2496 → OCR_Dispatch :2111-2192 → ExecTasks :795-1237): discover →
filter already-processed → route → convert → mark done / quarantine.
Here discovery is ``read_parquet``, the filter is a broadcast done-url
set, routing is content sniffing, conversion is the extract stage (over
a done set kept once per worker process), and done/quarantine are
status columns in partitioned Parquet output.

Scale notes (the 100 TB story):

* The done-url set is a **broadcast** (``ray.put`` once per set, read
  once per worker process per set): the driver keeps the set and its
  ObjectRef between runs and extends the set with new manifest shards
  only, so a rerun against an unchanged manifest loads, puts and
  unpickles nothing again, and each partition of a service round reads
  only the shard the previous partition's fold wrote (a one-shot batch
  run pays one full load).  A ``--retry-failed`` run shares that set
  and puts only its small retry map.  Correct while the done set of
  *row-level* urls for the partitions in flight fits in memory.  At 10^12
  documents the row-level manifest is partition-pruned first: a
  partition committed in the lineage manifest is never even read
  (metadata-only skip, see :mod:`pmocr_ray.state.manifest`), so the
  broadcast set only ever covers rows of partially-processed
  partitions.
* No shuffle anywhere in the hot path: sniff and extract are
  map-only; the only ``groupby`` is the tiny per-run metrics rollup.
* Skew and fusion: an input of at least as many files as read blocks
  runs as one fused read → extract → write task per group of files,
  so page payloads never enter the object store; a smaller input (a
  one-file service partition) is split, spreading giant-payload rows
  across tasks before the heavy parse stage (north-star mandate; the
  reference has no equivalent — a giant PDF just occupies a slot,
  SURVEY §4).  The block count, and what each plan holds in memory,
  are set out in :func:`run_extraction`.
"""

from __future__ import annotations

import datetime

import ray
import ray.data as rd
from pyarrow.fs import FileSelector, FileType
from ray.data.datasource.path_util import _resolve_paths_and_filesystem

from pmocr_ray.stages import _session_key, make_task_extract_fn
from pmocr_ray.state.manifest import load_done_urls, load_retry_state


def _cluster_cpus() -> int:
    """CPUs of the Ray cluster the run goes to.  With no session up,
    this first makes the bare ``ray.init()`` that Ray Data's read would
    make, so the plan is sized for the session that then runs it."""
    if not ray.is_initialized():
        ray.init()
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def read_pages(pages_path: str | list[str] | rd.Dataset,
               num_blocks: int | None = None) -> rd.Dataset:
    """Source: Parquet shards of pages (reference: find-based discovery,
    /root/reference/pmocr.sh:2183).  Column pruning happens here — all
    five input columns are genuinely consumed downstream.

    An already-constructed ``Dataset`` in the canonical pages schema
    (e.g. from :mod:`pmocr_ray.sources` JSONL ingest) passes through —
    the rest of the pipeline is source-agnostic."""
    if isinstance(pages_path, rd.Dataset):
        return pages_path.select_columns(
            ["url", "warc_ts", "html", "text", "lang"])
    kwargs = {}
    if num_blocks is not None:
        kwargs["override_num_blocks"] = num_blocks
    return rd.read_parquet(
        pages_path,
        columns=["url", "warc_ts", "html", "text", "lang"],
        **kwargs,
    )


# Rows per extract batch when the read is split (an input of fewer
# files than read blocks).
_SPLIT_BATCH_ROWS = 256

# Input file bytes per fused task past which the default block count
# grows with the input: Ray's Parquet sink holds a task's whole output
# until it writes the task's one file.  perfbench's fresh pages came
# out of the extract at ~7.5x their Parquet file bytes in memory, so a
# task holds about one 128 MiB block (Ray's target block size) of
# output.
_TASK_INPUT_BYTES = 16 << 20


def _input_bytes(pages_path: str | list[str] | rd.Dataset) -> int:
    """Bytes of the files under ``pages_path`` (0 for a ``Dataset``)."""
    if isinstance(pages_path, rd.Dataset):
        return 0
    paths, fs = _resolve_paths_and_filesystem(pages_path)
    total = 0
    for info in fs.get_file_info(paths):
        if info.type == FileType.Directory:
            infos = fs.get_file_info(FileSelector(info.path, recursive=True))
        else:
            infos = [info]
        total += sum(i.size for i in infos if i.type == FileType.File)
    return total


def _default_num_blocks(pages_path: str | list[str] | rd.Dataset) -> int:
    """The rule is set out in :func:`run_extraction`'s docstring."""
    cpus = _cluster_cpus()
    # Several slots keep ~5 waves per slot (paired A/B of the unfused
    # plan at 1.8M pages, 32 cpus: 64 blocks 98-135s vs 160 blocks
    # 66-74s); one wave there awaits a skewed workload and more cores.
    waves = 1 if cpus == 1 else 5
    return max(waves * cpus, -(-_input_bytes(pages_path) // _TASK_INPUT_BYTES))


# The last broadcast done set, as ``(session key, frozenset,
# ObjectRef)``.  Keeping the ref keeps the set in the object store
# between runs; the session key (:func:`pmocr_ray.stages._session_key`)
# names the Ray session the ref belongs to.
_DONE_REF: tuple | None = None


def load_done_urls_ref(done_manifest_path: str | None):
    """Broadcast the done-url set (``ray.put``) — never per batch, and
    once per set, not once per run.

    The set is :func:`pmocr_ray.state.manifest.load_done_urls`, the one
    reader that unions the done manifest's shards, and which returns
    the very same set object while the manifest is unchanged.  Given
    the set object of the previous call in the same Ray session, this
    returns the previous ObjectRef, so a rerun ships nothing new and
    every worker keeps the set it already unpickled
    (:class:`~pmocr_ray.stages.ExtractStage`).  A new session (a local
    ``ray.shutdown()``/``ray.init()``, or a new connection to a running
    cluster, as each ``cli.main`` makes) puts the set again.  A one-shot
    ``cli --batch`` run pays one load and one put as before.  Returns
    ``None`` when there is nothing to skip."""
    global _DONE_REF
    urls = load_done_urls(done_manifest_path)
    if not urls:
        _DONE_REF = None
        return None
    if (_DONE_REF is not None and _DONE_REF[1] is urls and ray.is_initialized()
            and _DONE_REF[0] == _session_key()):
        return _DONE_REF[2]
    _DONE_REF = None  # release the previous set before putting the next
    ref = ray.put(urls)  # starts a local session if none is up
    _DONE_REF = (_session_key(), urls, ref)
    return ref


def run_extraction(
    pages_path: str | list[str] | rd.Dataset,
    done_manifest_path: str | None = None,
    *,
    processed_at: datetime.datetime | None = None,
    num_blocks: int | None = None,
    check_existing_text: bool = True,
    max_payload_bytes: int | None = None,
    retry_failed: bool = False,
    preprocessors: list | None = None,
) -> rd.Dataset:
    """The flagship pipeline: read → sniff → extract.

    Returns a lazy Dataset with :data:`pmocr_ray.schema.OUTPUT_SCHEMA`;
    consume with ``write_parquet`` / ``iter_batches`` — nothing here
    materializes the input.

    ``processed_at`` stamps every output row (default ``S.EPOCH``; the
    CLI batch run and each service round pass the current UTC time).

    ``retry_failed=True`` re-admits quarantined urls from the done
    manifest whose lifetime attempt budget (``S.MAX_TOTAL_ATTEMPTS``) is
    not exhausted, carrying their attempt counter forward — the
    reference's postpone-retry (/root/reference/pmocr.sh:814-818,
    1133-1193).  The done set is the same broadcast as a plain run's;
    only the ``{url: prior_attempts}`` map is put besides it, and
    :func:`~pmocr_ray.state_machine.process_row` re-drives a done url
    that carries a counter and picks its budget.  ``preprocessors`` is
    an ordered list of registry names or callables applied to each
    payload before the engine (OCR_PREPROCESSOR_*, default.conf:92-99).

    The extract stage is a plain task ``map_batches`` whose fn builds
    an :class:`~pmocr_ray.stages.ExtractStage` per batch over the
    broadcasts each worker process keeps (module-level cache).
    Read fusion: an input of at least ``num_blocks`` files runs as
    ``num_blocks`` fused ``ReadParquet->MapBatches(_extract)->Write``
    tasks, each over ⌈files / num_blocks⌉ or ⌊files / num_blocks⌋
    contiguous files (Ray's ``np.array_split``), one read block per
    batch, and the payload column never enters the object store.  Each
    task holds its whole output until its one file is written (Ray's
    Parquet sink).  An input of fewer files is split into
    ``num_blocks`` blocks, which Ray cannot fuse into the extract;
    there the blocks are re-bundled into batches of at least
    :data:`_SPLIT_BATCH_ROWS` rows, so a task holds one batch.

    The default ``num_blocks`` is 1 on a one-CPU cluster and
    ``5 × cluster CPUs`` on a larger one, and at least one per
    :data:`_TASK_INPUT_BYTES` of input files, so the output a fused
    task holds is bounded whatever the input's size.  One wave on one
    slot pays Ray Data's fixed cost per task once; on several slots the
    extra waves let idle slots take the tasks a slow one has not
    started, since a fused task's files cannot move: in one wave over
    F files, C < F < 2C, one slot runs two files where an even split
    would give F / C.  A ``num_blocks`` below 1 raises ``ValueError``.
    """
    if num_blocks is None:
        num_blocks = _default_num_blocks(pages_path)
    elif num_blocks < 1:
        raise ValueError(f"num_blocks must be at least 1, got {num_blocks}")

    done_ref = load_done_urls_ref(done_manifest_path)
    retry = load_retry_state(done_manifest_path) if retry_failed else None

    # NOTE: no separate sniff pass here — ExtractStage sniffs each row
    # exactly once in-row (process_row), so the payload column crosses
    # the object store at most once (read → extract; not at all when
    # the read fuses into the extract), not twice.  The standalone
    # sniff_stage remains for routing-only pipelines (see
    # __ray_entry__._q_sniff_route).
    pages = read_pages(pages_path, num_blocks=num_blocks)
    # Only a read that is not split fuses into the extract, and only
    # with one read block per batch; a split read's blocks are bundled
    # by rows so they are not each written as a file of their own.
    fused = len(pages.input_files()) >= num_blocks
    return pages.map_batches(
        make_task_extract_fn(
            done_urls_ref=done_ref,
            retry_attempts_ref=ray.put(retry) if retry else None,
            processed_at=processed_at,
            check_existing_text=check_existing_text,
            max_payload_bytes=max_payload_bytes,
            preprocessors=preprocessors,
        ),
        batch_format="pyarrow",
        batch_size=None if fused else _SPLIT_BATCH_ROWS,
    )


def status_counts(result_ds: rd.Dataset) -> dict[str, int]:
    """Per-run metrics rollup (reference: errorcount/failedPidsList
    tallies, /root/reference/pmocr.sh:1047-1063) — a tiny groupby."""
    rows = result_ds.groupby("status").count().take_all()
    return {r["status"]: r["count()"] for r in rows}


def write_output(result_ds: rd.Dataset, out_dir: str,
                 partition_by_status: bool = False) -> None:
    """Sink: partitioned Parquet, one directory per run/partition so a
    failed run can be skipped/rerun wholesale (resumable output).

    ``partition_by_status=True`` writes hive-style ``status=<v>/``
    subdirectories — the literal analogue of the reference's
    success-archive and failure-quarantine directories
    (MOVE_ORIGINAL_ON_SUCCESS/FAILURE, /root/reference/pmocr.sh:
    2067-2096,1986-2011): quarantined rows land in
    ``status=failed/`` and future runs can prune whole directories.
    """
    if partition_by_status:
        result_ds.write_parquet(out_dir, partition_cols=["status"])
    else:
        result_ds.write_parquet(out_dir)
