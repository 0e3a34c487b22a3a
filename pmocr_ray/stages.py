"""Ray Data batch transforms — the physical stages of the pipeline.

Stage kinds mirror the reference's execution split (SURVEY §2.7/§4):

* cheap, pure, vectorizable steps (sniffing, projections, status
  predicates) are **stateless task** ``map_batches`` functions;
* the extraction engines are a **callable class** cached once per
  worker process per run (:func:`make_task_extract_fn`), over a done
  set fetched once per process per broadcast set — registry/config
  resolved once in ``__init__``, amortized across batches and tasks,
  mirroring the reference's long-lived OCR service processes
  (/root/reference/pmocr.sh:1825-1852 resolves the engine once at
  startup; pmocr-srv keeps it warm).

All stages are Arrow in / Arrow out (``batch_format="pyarrow"``,
zero-copy from the object store).
"""

from __future__ import annotations

import datetime
import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from pmocr_ray import schema as S
from pmocr_ray.extract.registry import EXTRACTORS
from pmocr_ray.extract.sniff import sniff_batch
from pmocr_ray.state_machine import process_row


def sniff_stage(batch: pa.Table) -> pa.Table:
    """Append ``content_type`` + ``payload_bytes`` (cheap check before the
    heavy stage — reference hoists its pdffonts check the same way,
    /root/reference/CHANGELOG.md:15).

    ``payload_bytes`` feeds skew decisions (giant rows) downstream.
    """
    ct = sniff_batch(batch["html"])
    sizes = pc.binary_length(batch["html"]).cast(pa.int64())
    return batch.append_column("content_type", ct).append_column(
        "payload_bytes", sizes
    )


class ExtractStage:
    """Extraction engine stage.

    One instance per worker process per run (see
    :func:`make_task_extract_fn`); ``__init__`` resolves the extractor
    registry, materializes the broadcast done-url set (``ray.put`` once
    per set on the driver, ``ray.get`` once per process per broadcast
    set — never re-shipped per batch, and not again for a later run
    over the same set, :func:`_done_set`), and pins the
    ``processed_at`` stamp of its rows.  ``__call__`` runs each row of
    a batch through the shared state machine
    (:func:`pmocr_ray.state_machine.process_row`).

    Per-row Python here is the engine invocation itself (the reference
    execs one OCR process per file, /root/reference/pmocr.sh:1923-1963);
    everything around it — batching, routing, state columns — stays
    columnar.  A poisoned document quarantines a *row*, never the task
    (fault isolation, SURVEY §4).
    """

    def __init__(
        self,
        done_urls_ref=None,
        processed_at: datetime.datetime | None = None,
        check_existing_text: bool = True,
        max_payload_bytes: int | None = None,
        retry_attempts_ref=None,
        preprocessors=None,
    ) -> None:
        import ray

        def _get(ref):
            return ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref

        self.done_urls = _done_set(done_urls_ref)
        # {url: prior_attempts} for quarantined urls being re-driven
        # (--retry-failed); broadcast once like the done set
        self.retry_attempts: dict = (dict(_get(retry_attempts_ref))
                                     if retry_attempts_ref is not None else {})
        self.extractors = dict(EXTRACTORS)  # resolved once per process
        from pmocr_ray.extract.registry import resolve_preprocessors

        self.preprocessors = resolve_preprocessors(preprocessors) or None
        self.processed_at = processed_at or S.EPOCH
        self.check_existing_text = check_existing_text
        self.max_payload_bytes = max_payload_bytes

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        urls = batch["url"].to_pylist()
        pre_texts = batch["text"].to_pylist()

        # Zero-copy payload access: slice each row's bytes as a
        # memoryview straight out of the Arrow data buffer (the batch is
        # plasma-shared-memory backed) — no per-row `bytes` copy of the
        # payload column.  The engine kernels accept bytes-like views;
        # decode/regex read directly from the buffer.
        html = batch["html"].combine_chunks()
        if pa.types.is_large_binary(html.type):  # pragma: no cover - 64-bit offsets
            offs = np.frombuffer(html.buffers()[1], dtype=np.int64,
                                 count=len(html) + 1, offset=html.offset * 8)
        else:
            offs = np.frombuffer(html.buffers()[1], dtype=np.int32,
                                 count=len(html) + 1, offset=html.offset * 4)
        data = (memoryview(html.buffers()[2])
                if html.buffers()[2] is not None else memoryview(b""))

        cts: list[str] = [None] * n  # type: ignore[list-item]
        statuses: list[str] = [None] * n  # type: ignore[list-item]
        attempts = [0] * n
        errors: list[str | None] = [None] * n
        extracted: list[str | None] = [None] * n

        done = self.done_urls
        retry = self.retry_attempts
        for i in range(n):
            ct, status, att, err, text = process_row(
                data[offs[i]:offs[i + 1]],
                pre_texts[i],
                urls[i] in done,
                extractors=self.extractors,
                check_existing_text=self.check_existing_text,
                max_payload_bytes=self.max_payload_bytes,
                prior_attempts=retry.get(urls[i], 0) if retry else 0,
                preprocessors=self.preprocessors,
            )
            cts[i] = ct
            statuses[i] = status
            attempts[i] = att
            errors[i] = err
            extracted[i] = text

        return pa.Table.from_arrays(
            [
                batch["url"].combine_chunks(),
                batch["warc_ts"].combine_chunks(),
                batch["lang"].combine_chunks(),
                pa.array(cts, pa.string()),
                pa.array(statuses, pa.string()),
                pa.array(attempts, pa.int32()),
                pa.array(errors, pa.string()),
                pa.array(extracted, pa.string()),
                pa.array([self.processed_at] * n, pa.timestamp("us")),
            ],
            schema=S.OUTPUT_SCHEMA,
        )


def _session_key() -> tuple[str, str]:
    """The Ray session this process is in, as ``(node id, job id)``: the
    scope in which an ObjectRef stays valid.  The node id alone misses a
    second connection to a running cluster (same head node, new job,
    whose predecessor's objects are freed with its driver); the job id
    alone misses a local ``ray.shutdown()``/``ray.init()``, which starts
    the job counter again."""
    import ray

    ctx = ray.get_runtime_context()
    return ctx.get_node_id(), ctx.get_job_id()


# The broadcast done set this process holds, as ``((ref id, session
# key), frozenset)``.  The driver hands every run over an unchanged
# manifest the same ObjectRef (pipeline.load_done_urls_ref), so the set
# is fetched and unpickled once per process per set, not once per run.
# A ref id is unique within a session (:func:`_session_key`).  One
# slot: a new set replaces the old, which is released first, so a
# worker pins at most one set.
_DONE_SET: tuple | None = None


def _done_set(done_urls_ref) -> frozenset:
    global _DONE_SET
    import ray

    if not isinstance(done_urls_ref, ray.ObjectRef):
        return (frozenset(done_urls_ref) if done_urls_ref is not None
                else frozenset())
    key = (done_urls_ref.hex(), _session_key())
    if _DONE_SET is None or _DONE_SET[0] != key:
        _DONE_SET = None  # release the previous set before the fetch
        _DONE_SET = (key, frozenset(ray.get(done_urls_ref)))
    return _DONE_SET[1]


# The extraction stage of the current run in this worker process, as
# ``(token, ExtractStage)``.  Ray worker processes persist across tasks,
# so a plain task ``map_batches(fn)`` with a module-level slot keeps the
# engine warm across batches and tasks — and, when the read is not split
# (file count == requested blocks, batch_size=None), lets Ray fuse
# read→extract→write into ONE task operator so the payload column never
# leaves the read task (see run_extraction's docstring for the measured
# tradeoff).  The token is minted once per pipeline construction.  One
# slot, not an LRU: a stage pins its run's whole done set, so a worker
# that serves many runs keeps only the latest.
_TASK_STAGE: tuple | None = None


def _extract_cached(token: str, ctor_kwargs: dict, batch: pa.Table) -> pa.Table:
    global _TASK_STAGE
    if _TASK_STAGE is None or _TASK_STAGE[0] != token:
        _TASK_STAGE = None  # release the previous run's stage first
        _TASK_STAGE = (token, ExtractStage(**ctor_kwargs))
    return _TASK_STAGE[1](batch)


def make_task_extract_fn(**ctor_kwargs):
    """Build the extract fn for one run's stage config.

    The fn (incl. broadcast ObjectRefs) ships to each worker once per
    task-spec; the ``ExtractStage`` itself — registry resolution,
    config — is constructed once per worker *process* per run and
    reused for every subsequent batch/task, and its ``ray.get`` of the
    done-url broadcast happens once per process per broadcast set.

    The lookup must live in a module-level function: cloudpickle ships
    a nested closure by value together with a private copy of every
    global it reads, so a closure's cache would be a fresh, empty dict
    in every task.  A ``partial`` over a module-level function pickles
    by reference and reads this module's real ``_TASK_STAGE``.
    """
    import uuid as _uuid

    return functools.partial(_extract_cached, _uuid.uuid4().hex, ctor_kwargs)


def csv_hack(batch: pa.Table, column: str = "extracted_text",
             out_column: str = "csv_text") -> pa.Table:
    """The reference's CSV hack as a vectorized kernel.

    ``sed 's/   */;/g'`` — 3+ consecutive spaces become one ``;`` to turn
    fixed-width engine output into CSV (/root/reference/pmocr.sh:2013-2043).
    """
    out = pc.replace_substring_regex(batch[column], pattern="   +", replacement=";")
    return batch.append_column(out_column, out)
