"""Single-process golden oracle — Ray-free reference run.

The reference's conformance tests drive the real binary end-to-end over
a tiny corpus and assert on outcomes (/root/reference/dev/tests/
run_tests.sh:165-314); engine internals are not mocked.  Analogously,
the oracle runs the *same* extractor code single-process, sequentially,
in deterministic url order; the distributed pipeline must match it
byte-for-byte per url at any parallelism/partitioning.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq

from pmocr_ray.state.manifest import (_manifest_shard_files, _read_urls,
                                     load_retry_state)
from pmocr_ray.state_machine import process_row


def _read_pages(pages_path: str) -> pa.Table:
    if os.path.isdir(pages_path):
        files = sorted(glob.glob(os.path.join(pages_path, "*.parquet")))
        return pa.concat_tables([pq.read_table(f) for f in files])
    return pq.read_table(pages_path)


def run_oracle(pages_path: str, done_manifest_path: str | None = None,
               *, retry_failed: bool = False,
               preprocessors: list | None = None) -> pa.Table:
    """Sequential golden run -> table sorted by url.

    Columns: url, warc_ts, lang, content_type, status, attempts, error,
    extracted_text (no ``processed_at`` — wall-clock metadata is
    excluded from the conformance contract, exactly as the reference's
    nondeterminism lives only in output *naming*, never content).

    ``retry_failed`` / ``preprocessors`` mirror
    :func:`pmocr_ray.pipeline.run_extraction` so retry re-drives and
    preprocessor stages are conformance-checked too.
    """
    from pmocr_ray.extract.registry import resolve_preprocessors

    pages = _read_pages(pages_path).sort_by("url")
    # read afresh, not through load_done_urls' cache: the reference
    # must not share the optimisation it checks
    done = _read_urls(_manifest_shard_files(done_manifest_path or ""))
    retry = load_retry_state(done_manifest_path) if retry_failed else {}
    pp = resolve_preprocessors(preprocessors) or None

    out = {k: [] for k in
           ("content_type", "status", "attempts", "error", "extracted_text")}
    urls = pages["url"].to_pylist()
    payloads = pages["html"].to_pylist()
    pre_texts = pages["text"].to_pylist()
    for url, payload, pre_text in zip(urls, payloads, pre_texts):
        ct, status, attempts, error, extracted = process_row(
            payload, pre_text, url in done,
            prior_attempts=retry.get(url, 0),
            preprocessors=pp,
        )
        out["content_type"].append(ct)
        out["status"].append(status)
        out["attempts"].append(attempts)
        out["error"].append(error)
        out["extracted_text"].append(extracted)

    return pa.Table.from_pydict(
        {
            "url": pages["url"],
            "warc_ts": pages["warc_ts"],
            "lang": pages["lang"],
            "content_type": pa.array(out["content_type"], pa.string()),
            "status": pa.array(out["status"], pa.string()),
            "attempts": pa.array(out["attempts"], pa.int32()),
            "error": pa.array(out["error"], pa.string()),
            "extracted_text": pa.array(out["extracted_text"], pa.string()),
        }
    )
