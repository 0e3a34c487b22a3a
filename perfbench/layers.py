"""Per-layer probes for the traced run, all in one process and window.

Floors (ROADMAP direction 1), measured on the workload's own page set:

* (a) ``read.wall_s``: ``read_pages`` → consume.
* (b) ``framework.identity_wall_s``: an identity ``map_batches`` over the
  same read.
* (c) ``extract.nosink_wall_s``: ``run_extraction`` consumed without a sink.

"Consume" is ``materialize()``: blocks stay in the object store, as the
sink's input does, instead of crossing to this process.
* (d) the full pipeline with its parquet sink; ``sink.write_s`` = (d) − (c).
* (e) a single-core microbench that calls ``sniff_content_type``,
  ``process_row``, ``extract_html``, ``extract_pdf`` and
  ``pdf_has_text_layer`` directly.

Every ``ratio.*`` is taken between numbers measured here, in the same
run.
"""

from __future__ import annotations

import glob
import os
import pickle
import shutil
import statistics
import time

import pyarrow as pa
import pyarrow.parquet as pq

import ray

from pmocr_ray import pipeline
from pmocr_ray import schema as S
from pmocr_ray.extract.html_extractor import extract_html
from pmocr_ray.extract.pdf_extractor import extract_pdf, pdf_has_text_layer
from pmocr_ray.extract.registry import EXTRACTORS
from pmocr_ray.extract.sniff import sniff_content_type
from pmocr_ray.stages import ExtractStage
from pmocr_ray.state_machine import process_row

STATUSES = (S.STATUS_DONE, S.STATUS_SKIPPED_SUFFIX, S.STATUS_SKIPPED_TEXT,
            S.STATUS_FAILED)
KERNEL_SAMPLE = 1000      # rows per direct kernel timing
STAGE_SAMPLE = 2048       # rows fed to one ExtractStage
FLOOR_ROUNDS = 2          # interleaved rounds of floors (a)-(d)
STAGE_INITS = 3           # ExtractStage constructions timed


def read_pages_table(pages_dir: str) -> pa.Table:
    files = sorted(glob.glob(os.path.join(pages_dir, "*.parquet")))
    return pa.concat_tables([pq.read_table(f) for f in files]).sort_by("url")


def _consume(ds) -> None:
    ds.materialize()


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(f) for f in glob.glob(os.path.join(path, "*")))


def floors(pages_dir: str, manifest_dir: str, out_root: str) -> dict:
    """Floors (a)–(d), interleaved ``FLOOR_ROUNDS`` times; the fastest
    of each."""
    best = {"read": [], "identity": [], "nosink": [], "full": []}
    sink_bytes = 0
    for k in range(FLOOR_ROUNDS):
        t0 = time.perf_counter()
        _consume(pipeline.read_pages(pages_dir))
        t1 = time.perf_counter()
        _consume(pipeline.read_pages(pages_dir).map_batches(
            lambda b: b, batch_format="pyarrow", batch_size=256))
        t2 = time.perf_counter()
        _consume(pipeline.run_extraction(pages_dir, manifest_dir))
        t3 = time.perf_counter()
        out = os.path.join(out_root, f"floor-{k}")
        pipeline.run_extraction(pages_dir, manifest_dir).write_parquet(out)
        t4 = time.perf_counter()
        sink_bytes = _dir_bytes(out)
        shutil.rmtree(out)
        for key, v in zip(best, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            best[key].append(v)
    out = {k: min(v) for k, v in best.items()}
    out["sink_bytes"] = sink_bytes
    return out


class _Timed:
    """An extractor wrapper that counts calls, successes and seconds."""

    def __init__(self, fn) -> None:
        self.fn, self.calls, self.ok, self.seconds = fn, 0, 0, 0.0

    def __call__(self, payload):
        self.calls += 1
        t0 = time.perf_counter()
        try:
            out = self.fn(payload)
        finally:
            self.seconds += time.perf_counter() - t0
        self.ok += 1
        return out


def _time_each(fn, payloads) -> float:
    """Mean seconds per call of ``fn`` over the payloads it accepts."""
    total, n = 0.0, 0
    for p in payloads:
        t0 = time.perf_counter()
        try:
            fn(p)
        except ValueError:
            continue
        total += time.perf_counter() - t0
        n += 1
    return total / max(n, 1)


def microbench(pages: pa.Table, done: frozenset, cpus: int) -> dict:
    """Floor (e): the kernels and the row state machine, single core."""
    urls = pages["url"].to_pylist()
    payloads = pages["html"].to_pylist()
    pre_texts = pages["text"].to_pylist()

    t0 = time.perf_counter()
    cts = [sniff_content_type(p) for p in payloads]
    sniff_s = time.perf_counter() - t0

    timed = {ct: _Timed(fn) for ct, fn in EXTRACTORS.items()}
    per_status = {s: [0, 0.0] for s in STATUSES}
    for u, p, pre in zip(urls, payloads, pre_texts):
        t0 = time.perf_counter()
        status = process_row(p, pre, u in done, extractors=timed)[1]
        acc = per_status[status]
        acc[0] += 1
        acc[1] += time.perf_counter() - t0
    calls = sum(t.calls for t in timed.values())
    ok = sum(t.ok for t in timed.values())
    kernel_s = sum(t.seconds for t in timed.values())

    html = [p for p, ct in zip(payloads, cts) if ct == S.CT_HTML][:KERNEL_SAMPLE]
    pdf = [p for p, ct in zip(payloads, cts) if ct == S.CT_PDF][:KERNEL_SAMPLE]
    out = {
        "sniff.us_per_row": 1e6 * sniff_s / len(payloads),
        "kernel.html_us_per_row": 1e6 * _time_each(extract_html, html),
        "kernel.pdf_us_per_row": 1e6 * _time_each(extract_pdf, pdf),
        "kernel.text_layer_us_per_row": 1e6 * _time_each(pdf_has_text_layer, pdf),
        "kernel.calls": calls,
        "kernel.useful_call_ratio": ok / calls if calls else 1.0,
        "kernel.floor_s": kernel_s / cpus,
    }
    for s, (n, secs) in per_status.items():
        out[f"process_row.us_per_row.{s}"] = 1e6 * secs / max(n, 1)
    return out


def manifest_urls(manifest_dir: str) -> pa.Array:
    files = sorted(glob.glob(os.path.join(manifest_dir, "*.parquet")))
    return pa.concat_tables([pq.read_table(f, columns=["url"])
                             for f in files])["url"].combine_chunks()


def done_set(manifest_dir: str):
    """The broadcast done set: its ref, the set, and its pickled size."""
    ref = pipeline.load_done_urls_ref(manifest_dir)
    urls = ray.get(ref) if ref is not None else frozenset()
    return ref, urls, len(pickle.dumps(urls, protocol=5))


def extract_stage(pages: pa.Table, done_ref) -> dict:
    """``ExtractStage`` construction with the done ref, and one pass over
    a page sample with timed extractors (kernel vs dispatch time)."""
    inits = []
    for _ in range(STAGE_INITS):
        t0 = time.perf_counter()
        stage = ExtractStage(done_urls_ref=done_ref)
        inits.append(time.perf_counter() - t0)
    stage.extractors = {ct: _Timed(fn) for ct, fn in stage.extractors.items()}
    sample = pages.slice(0, STAGE_SAMPLE).select(
        ["url", "warc_ts", "html", "text", "lang"])
    t0 = time.perf_counter()
    for b in sample.to_batches(max_chunksize=256):
        stage(pa.Table.from_batches([b]))
    call_s = time.perf_counter() - t0
    kernel_s = sum(t.seconds for t in stage.extractors.values())
    return {
        "extract_stage.init_s": statistics.median(inits),
        "extract_stage.call_us_per_row": 1e6 * call_s / sample.num_rows,
        "extract_stage.dispatch_share": (call_s - kernel_s) / call_s,
    }
