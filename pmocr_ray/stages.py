"""Ray Data batch transforms — the physical stages of the pipeline.

Stage kinds mirror the reference's execution split (SURVEY §2.7/§4):

* cheap, pure, vectorizable steps (sniffing, projections, status
  predicates) are **stateless task** ``map_batches`` functions;
* the extraction engines are a **callable class** built for each
  batch (:func:`make_task_extract_fn`) over broadcasts fetched once
  per worker process per broadcast set (:func:`_broadcasts`) — the
  one warm state, kept across batches, tasks and runs, mirroring the
  reference's long-lived OCR service processes
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
from pmocr_ray.extract.registry import EXTRACTORS, resolve_preprocessors
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

    Built for each batch (see :func:`make_task_extract_fn`);
    ``__init__`` resolves the extractor registry, takes the broadcast
    done-url set and retry map (``ray.put`` once per set on the driver,
    ``ray.get`` once per process per broadcast pair — never re-shipped
    per batch, and not again for a later run over the same set,
    :func:`_broadcasts`), and pins the ``processed_at`` stamp of its
    rows.  ``__call__`` runs each row of a batch through the shared
    state machine (:func:`pmocr_ray.state_machine.process_row`).

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
        # retry_attempts: {url: prior_attempts} for quarantined urls
        # being re-driven (--retry-failed); broadcast like the done set
        self.done_urls, self.retry_attempts = _broadcasts(
            done_urls_ref, retry_attempts_ref)
        self.extractors = dict(EXTRACTORS)
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


# The broadcasts this process holds, as ``(key, (done frozenset, retry
# dict))`` — the only state a worker keeps between batches.  The driver
# hands every run over an unchanged manifest the same done ObjectRef
# (pipeline.load_done_urls_ref), so the set is fetched and unpickled
# once per process per set, not once per run or per batch.  The key is
# both refs' ids and the session (:func:`_session_key`), in which a ref
# id is unique.  One slot: a new pair replaces the old, which is
# released first, so a worker pins at most one set.
_BROADCASTS: tuple | None = None


def _broadcasts(done_urls_ref, retry_attempts_ref) -> tuple[frozenset, dict]:
    """``(done urls, {url: prior_attempts})``; plain values (a set, a
    dict, ``None``) are used as given."""
    global _BROADCASTS
    import ray

    pair = (done_urls_ref, retry_attempts_ref)
    refs = [r for r in pair if isinstance(r, ray.ObjectRef)]
    if not refs:
        return frozenset(done_urls_ref or ()), dict(retry_attempts_ref or {})
    key = (tuple(r.hex() if isinstance(r, ray.ObjectRef) else r for r in pair),
           _session_key())
    if _BROADCASTS is None or _BROADCASTS[0] != key:
        _BROADCASTS = None  # release the previous pair before the fetch
        fetched = iter(ray.get(refs))
        done, retry = (next(fetched) if isinstance(r, ray.ObjectRef) else r
                       for r in pair)
        _BROADCASTS = (key, (frozenset(done or ()), dict(retry or {})))
    return _BROADCASTS[1]


def _extract(ctor_kwargs: dict, batch: pa.Table) -> pa.Table:
    return ExtractStage(**ctor_kwargs)(batch)


def make_task_extract_fn(**ctor_kwargs):
    """Build the extract fn for one run's stage config.

    The fn (incl. broadcast ObjectRefs) ships to each worker once per
    task-spec and builds an ``ExtractStage`` per batch, a few
    microseconds: its costly part, the broadcasts, is kept by the
    persistent worker process across batches, tasks and runs
    (:func:`_broadcasts`).  A plain task ``map_batches(fn)`` also lets
    Ray fuse read→extract→write into ONE task operator when the read is
    not split (see run_extraction's docstring).

    The fn is a ``partial`` over a module-level function, which
    cloudpickle ships by reference, so it reads this module's real
    ``_BROADCASTS``; a nested closure would ship by value with a
    private, empty copy of every global it reads.
    """
    return functools.partial(_extract, ctor_kwargs)


def csv_hack(batch: pa.Table, column: str = "extracted_text",
             out_column: str = "csv_text") -> pa.Table:
    """The reference's CSV hack as a vectorized kernel.

    ``sed 's/   */;/g'`` — 3+ consecutive spaces become one ``;`` to turn
    fixed-width engine output into CSV (/root/reference/pmocr.sh:2013-2043).
    """
    out = pc.replace_substring_regex(batch[column], pattern="   +", replacement=";")
    return batch.append_column(out_column, out)
