"""pmocr_ray — a Ray-Data-native main-content extraction engine.

A brand-new implementation of the data-processing capabilities of the
reference (deajan/pmOCR — a resilient, parallel, idempotent per-document
conversion dataflow, see /root/reference/pmocr.sh) re-expressed as a
streaming ``ray.data.Dataset`` pipeline over Parquet tables of
Common-Crawl-style web pages::

    url:string, warc_ts:timestamp[us], html:binary, text:string, lang:string

The reference's filename-suffix state machine (``_OCR`` done suffix,
``_OCR_ERR`` quarantine suffix, pdffonts already-has-text skip) is reified
as per-row state columns (``status``, ``attempts``, ``error``); its
long-lived OCR engine processes become an extract stage cached once per
Ray worker process; its already-done exclusion becomes a broadcast
done-url set; its find/inotify discovery becomes Parquet partition
listing plus a per-partition lineage manifest with checkpointed resume,
driven by one service loop.

Layout:
    schema.py            fixed Arrow schemas + deterministic row-class rules
    fixtures.py          seeded synthetic pages/done-manifest generator
    oracle.py            single-process (Ray-free) golden oracle
    extract/             content sniffing + the two extraction engines
    stages.py            Ray Data batch transforms / the cached extract stage
    pipeline.py          composed end-to-end pipelines (batch + incremental)
    state/manifest.py    per-partition lineage manifest, atomic commit
    ops/                 training-data ops: dedup, knn, text stats, media, events
"""

__version__ = "0.1.0"
