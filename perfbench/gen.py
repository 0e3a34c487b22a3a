"""Seeded input generator for the benchmark.

Everything the program sees is written here as parquet files: pages in
the fixture's class mix (built with :func:`pmocr_ray.fixtures.build_page_row`)
and done manifests.  The seed picks the document ids and texts (so the
url set and which urls are done change with it), the row permutation
and the history url strings.  Generation runs in this process only.
"""

from __future__ import annotations

import math
import os
import random
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from pmocr_ray import schema as S
from pmocr_ray.fixtures import build_page_row

_VOCAB = (
    "the a data page text crawl index main content article news site "
    "report market policy science result table batch stream window merge "
    "query filter value order group small large fast slow local world "
    "review story city energy health travel music film book school water "
    "paper figure method model signal record archive source public open"
).split()
_LANGS = ("en", "fr", "es", "de", "zh")

BATCH_FILES = 8          # parquet files per page set (= drain partitions)
HISTORY_SHARDS = 16      # shards of the rerun workload's done manifest


def sizes(cpus: int, scale: float) -> dict:
    """Input sizes for a host with ``cpus`` cores, scaled by ``scale``.

    8000 pages per core: on one core the HTML/PDF kernels then take 0.6
    to 0.75 of a batch run's wall time (``ratio.pipeline_over_kernel_floor``
    1.35–1.70), and a run stays near 3 s, so a window holds several."""
    return {
        "pages": max(200, int(8000 * cpus * scale)),
        "history": max(1000, int(200_000 * cpus * scale)),
    }


def _pages(rng: random.Random, n_pages: int) -> tuple[pa.Table, list[str]]:
    """``n_pages`` fixture rows over seeded documents, in seeded order,
    and the urls of the fixture's already-done classes among them (the
    small seed manifest of a fresh crawl)."""
    ndocs = -(-n_pages // S.REPS_DEFAULT)
    # a document's pages take consecutive classes from doc_id * reps, so
    # the class mix depends on doc_id mod ``period``: cycling the residue
    # keeps it the fixture's on every seed (ids < 1e9 keep warc_ts < year 9999)
    period = S.N_CLASSES // math.gcd(S.REPS_DEFAULT, S.N_CLASSES)
    doc_ids = [period * k + i % period for i, k in
               enumerate(rng.sample(range(1, 10**9 // period), ndocs))]
    rows, seed_done = [], []
    for d in doc_ids:
        text = " ".join(rng.choice(_VOCAB) for _ in range(rng.randint(20, 90)))
        lang = rng.choice(_LANGS)
        for rep in range(S.REPS_DEFAULT):
            if len(rows) == n_pages:
                break
            rows.append(build_page_row(d, rep, text, lang))
            if S.cls_of(d, rep) in S.CLS_ALREADY_DONE:
                seed_done.append(rows[-1]["url"])
    rng.shuffle(rows)
    return pa.Table.from_pylist(rows, schema=S.PAGES_SCHEMA), seed_done


def _manifest(urls, run_id: str) -> pa.Table:
    n = len(urls)
    return pa.Table.from_pydict(
        {"url": urls,
         "status": pa.repeat(pa.scalar(S.STATUS_DONE), n),
         "attempts": pa.repeat(pa.scalar(1, pa.int32()), n),
         "processed_at": pa.repeat(pa.scalar(S.EPOCH, pa.timestamp("us")), n),
         "run_id": pa.repeat(pa.scalar(run_id), n)},
        schema=S.DONE_MANIFEST_SCHEMA)


def _write_files(table: pa.Table, out_dir: str, n_files: int,
                 prefix: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    per = -(-table.num_rows // n_files)
    for i in range(n_files):
        pq.write_table(table.slice(i * per, per),
                       os.path.join(out_dir, f"{prefix}-{i:04d}.parquet"))


def generate(workload: str, seed: int, out_dir: str, sz: dict) -> dict:
    """Write one workload's inputs under ``out_dir``; returns their paths.

    Keys: ``pages`` (directory of page files), ``manifest`` (pristine
    done-manifest directory) and ``warm`` (a tiny warm-up partition).
    """
    rng = random.Random(f"{workload}:{seed}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    paths = {"pages": os.path.join(out_dir, "pages"),
             "manifest": os.path.join(out_dir, "manifest")}
    os.makedirs(paths["manifest"])

    pages, seed_done = _pages(rng, sz["pages"])
    _write_files(pages, paths["pages"], BATCH_FILES, "part")
    if workload == "batch_fresh":
        pq.write_table(_manifest(seed_done, "seed-run-0"),
                       os.path.join(paths["manifest"], "seed.parquet"))
    else:  # rerun_big_manifest: ~90% of the pages plus crawl history
        g = np.random.default_rng(rng.getrandbits(64))
        urls = pages["url"].combine_chunks()
        n = sz["history"]
        history = pc.binary_join_element_wise(
            "https://h", pa.array(g.integers(0, 1 << 20, n)).cast(pa.string()),
            ".old.example/p/", pa.array(g.integers(0, 1 << 48, n)).cast(pa.string()),
            "")
        done = pa.concat_arrays(
            [urls.filter(pa.array(g.random(len(urls)) < 0.9)), history])
        done = done.take(pa.array(g.permutation(len(done))))
        _write_files(_manifest(done, "history"), paths["manifest"],
                     HISTORY_SHARDS, "shard")

    # warm-up partition: same generator, disjoint urls (own doc ids)
    warm_dir = os.path.join(out_dir, "warm")
    os.makedirs(warm_dir)
    paths["warm"] = os.path.join(warm_dir, "warm.parquet")
    pq.write_table(_pages(rng, 40)[0], paths["warm"])
    return paths
