"""Driver contract for the pmocr_ray engine.

``entry()`` runs the flagship extraction pipeline on sf0.001.
``queries()`` exposes one callable per implemented operator/pipeline
(SURVEY.md §2 + the training-data ops); ``oracle_sql()`` gives the
DuckDB-equivalent SQL for every SQL-expressible one.

The extraction-family oracles do NOT re-run the extractor: the pages
fixture is a pure arithmetic function of the ``documents`` table
(pmocr_ray/schema.py row-class rules), so the SQL reconstructs the
expected extracted text independently — true golden spans.

Ray is initialised by the caller; nothing here calls ray.init/shutdown.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq

from pmocr_ray.ops.joins import parts_for_rows, sized_for_join


def _vgb(ds, keys, *aggs):
    """groupby().aggregate() for KEY-SCALE group counts — routed through
    the Arrow-bucketed aggregate (pmocr_ray.ops.vecagg.ray_aggregate),
    which avoids Ray's per-group Python reduce cost.  Bounded rollups
    (langs, days, status classes) stay on Ray's native groupby."""
    from pmocr_ray.ops.vecagg import ray_aggregate

    return ray_aggregate(ds, keys, *aggs)


REPS = 8  # pages per document row; must match the SQL below


# ------------------------------------------------------------------ helpers

_extract_cache: dict[str, str] = {}


def _pages(sf_dir: str):
    from pmocr_ray.fixtures import ensure_pages_fixture

    return ensure_pages_fixture(sf_dir, reps=REPS)


def _extraction_output_dir(sf_dir: str) -> str:
    """Run the flagship pipeline once per sf_dir; serve the family of
    extraction queries from its parquet output (cached, deterministic)."""
    if sf_dir in _extract_cache:
        return _extract_cache[sf_dir]
    from pmocr_ray.fixtures import fixture_dir
    from pmocr_ray.pipeline import run_extraction

    pages_dir, manifest = _pages(sf_dir)
    out_dir = os.path.join(fixture_dir(sf_dir, REPS), "extract_out")
    if not os.path.exists(os.path.join(out_dir, "_DONE")):
        ds = run_extraction(pages_dir, manifest)
        tmp = out_dir + ".tmp"
        import shutil

        shutil.rmtree(tmp, ignore_errors=True)
        shutil.rmtree(out_dir, ignore_errors=True)
        ds.write_parquet(tmp)
        os.replace(tmp, out_dir)
        with open(os.path.join(out_dir, "_DONE"), "w") as f:
            f.write("ok")
    _extract_cache[sf_dir] = out_dir
    return out_dir


def _clear_run_outputs(sf_dir: str) -> None:
    """Delete the run outputs cached beside the pages fixture — the
    flagship's ``extract_out`` and ``_q_retry_redrive``'s
    ``retry_demo`` — so the next query recomputes them with the code
    now loaded.  Both are cached across processes and never rebuilt
    otherwise, so a checker that skips this checks whatever code
    version wrote them."""
    import shutil

    from pmocr_ray.fixtures import fixture_dir

    root = fixture_dir(sf_dir, REPS)
    for name in ("extract_out", "retry_demo"):
        shutil.rmtree(os.path.join(root, name), ignore_errors=True)
    _extract_cache.pop(sf_dir, None)


def _read_output(sf_dir: str):
    import ray.data as rd

    return rd.read_parquet(_extraction_output_dir(sf_dir))


def _docs(sf_dir: str):
    import ray.data as rd

    return rd.read_parquet(os.path.join(sf_dir, "documents.parquet"))


def _pq_parts(sf_dir: str, table: str, cap: int = 8) -> int:
    """Join-partition count for a BASE-table operand, sized from the
    parquet file's metadata row count — no execution, no pinning of
    the table in the object store (unlike ``sized_for_join``, which is
    for derived rollups)."""
    n = pq.ParquetFile(os.path.join(sf_dir, f"{table}.parquet")).metadata.num_rows
    return parts_for_rows(n, cap)


def _sel(ds, cols, flt=None):
    if flt is not None:
        ds = ds.map_batches(lambda t: t.filter(flt(t)), batch_format="pyarrow")
    return ds.select_columns(cols)


# ---------------------------------------------------------------- entry


def entry() -> Any:
    """Flagship pipeline over sf0.001 (driver smoke check)."""
    pages_dir, manifest = _pages("/root/testdata/sf0.001")
    from pmocr_ray.pipeline import run_extraction

    return run_extraction(pages_dir, manifest)


# --------------------------------------------------------------- queries


def _q_pages_gen(sf_dir: str):
    import ray.data as rd

    pages_dir, _ = _pages(sf_dir)
    return rd.read_parquet(pages_dir, columns=["url", "warc_ts", "lang"])


def _q_sniff_route(sf_dir: str):
    import ray.data as rd

    from pmocr_ray.stages import sniff_stage

    pages_dir, _ = _pages(sf_dir)
    ds = rd.read_parquet(pages_dir, columns=["url", "html"])
    return ds.map_batches(sniff_stage, batch_format="pyarrow").select_columns(
        ["url", "content_type"]
    )


def _q_pages_lang_en(sf_dir: str):
    """Predicate pushdown demo: the lang filter is applied AT THE READ
    (pyarrow dataset expression → row-group pruning + row filtering),
    so non-matching rows never enter the pipeline."""
    import ray.data as rd

    pages_dir, _ = _pages(sf_dir)
    ds = rd.read_parquet(pages_dir, columns=["url", "lang"],
                         filter=(pc.field("lang") == "en"))
    return ds


def _q_distinct_langs(sf_dir: str):
    """Distinct values via Dataset.unique (a shuffle — tiny key domain)."""
    import pyarrow as pa

    langs = sorted(_docs(sf_dir).unique("lang"))
    return pa.table({"lang": pa.array(langs, pa.string())})


def _q_flagship(sf_dir: str):
    return _sel(
        _read_output(sf_dir),
        ["url", "lang", "content_type", "status", "attempts", "extracted_text"],
    )


def _q_extract_html(sf_dir: str):
    return _sel(
        _read_output(sf_dir), ["url", "extracted_text"],
        lambda t: pc.and_(pc.equal(t["content_type"], "html"),
                          pc.equal(t["status"], "done")),
    )


def _q_extract_pdf(sf_dir: str):
    return _sel(
        _read_output(sf_dir), ["url", "extracted_text"],
        lambda t: pc.and_(pc.equal(t["content_type"], "pdf"),
                          pc.equal(t["status"], "done")),
    )


def _q_skip_existing(sf_dir: str):
    return _sel(
        _read_output(sf_dir), ["url", "status", "extracted_text"],
        lambda t: pc.equal(t["status"], "skipped_existing_text"),
    )


def _q_quarantine(sf_dir: str):
    return _sel(
        _read_output(sf_dir), ["url", "content_type", "status", "attempts"],
        lambda t: pc.equal(t["status"], "failed"),
    )


def _q_done_skip(sf_dir: str):
    return _sel(
        _read_output(sf_dir), ["url", "status"],
        lambda t: pc.equal(t["status"], "skipped_suffix"),
    )


def _q_status_counts(sf_dir: str):
    from pmocr_ray.pipeline import status_counts

    counts = status_counts(_read_output(sf_dir))
    import pyarrow as pa

    items = sorted(counts.items())
    return pa.table({
        "status": pa.array([k for k, _ in items], pa.string()),
        "n": pa.array([v for _, v in items], pa.int64()),
    })


def _q_csv_hack(sf_dir: str):
    import pyarrow as pa

    from pmocr_ray.stages import csv_hack

    def prep(t: pa.Table) -> pa.Table:
        joined = pc.binary_join_element_wise(
            t["text"], t["lang"], t["source"], "   "
        )
        return pa.table({"doc_id": t["doc_id"], "extracted_text": joined})

    ds = _docs(sf_dir).map_batches(prep, batch_format="pyarrow")
    ds = ds.map_batches(csv_hack, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "csv_text"])


def _q_text_stats(sf_dir: str):
    from pmocr_ray.ops.text import text_stats

    ds = _docs(sf_dir).map_batches(text_stats, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "n_tokens", "n_chars_total", "n_chars_nospace"])


def _q_fingerprint(sf_dir: str):
    from pmocr_ray.ops.text import fingerprint

    ds = _docs(sf_dir).map_batches(fingerprint, batch_format="pyarrow")
    return ds.select_columns(["doc_id", "fp"])


def _q_dedup_exact(sf_dir: str):
    from pmocr_ray.ops.dedup import exact_dedup

    return exact_dedup(_docs(sf_dir))


def _q_dedup_pairs_exact(sf_dir: str):
    import pandas as pd

    from pmocr_ray.ops.dedup import exact_dup_pairs

    out = exact_dup_pairs(_docs(sf_dir)).to_pandas()
    if out.empty:  # schema-stable empty result (all-singleton corpora)
        out = pd.DataFrame({"a": pd.Series(dtype="int64"),
                            "b": pd.Series(dtype="int64")})
    return out[["a", "b"]]


def _q_knn(sf_dir: str):
    import ray.data as rd

    from pmocr_ray.ops.knn import knn_cosine

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    q = pq.read_table(emb_path, columns=["vec_id", "embedding"])
    q0 = np.asarray(
        q.filter(pc.equal(q["vec_id"], 0))["embedding"].to_pylist(), dtype=np.float64
    )
    out = knn_cosine(rd.read_parquet(emb_path), q0, k=10)
    return out.select(["vec_id", "rank"])


def _q_knn_multi(sf_dir: str):
    """Batched ANN: FIVE query vectors broadcast as one matrix — each
    batch does a single (5, D) x (D, B) matmul (the realistic
    batched-query shape; per-query partial top-k, tiny merge)."""
    import ray.data as rd

    from pmocr_ray.ops.knn import knn_cosine

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    q = pq.read_table(emb_path, columns=["vec_id", "embedding"])
    q = q.filter(pc.less(q["vec_id"], 5)).sort_by("vec_id")
    qmat = np.asarray(q["embedding"].to_pylist(), dtype=np.float64)
    out = knn_cosine(rd.read_parquet(emb_path), qmat, k=10)
    return out.select(["query_idx", "vec_id", "rank"])


def _q_len_histogram(sf_dir: str):
    """Document-length distribution: vectorized bucket + combiner."""
    from pmocr_ray.ops.text import length_histogram

    return length_histogram(_docs(sf_dir).select_columns(["n_chars"]),
                            column="n_chars", width=100)


def _q_knn_ivf(sf_dir: str):
    """IVF kNN pinned to its EXACT regime for the oracle gate:
    ``n_probe = n_cells`` probes every cell, so the candidate set is
    the whole corpus and the result equals the brute-force top-k —
    recall 1 by construction, same SQL twin as ``knn_cosine``.  The
    approximate production regime (n_probe=4) is benchmarked
    separately in bench.py (``knn_ivf_probe``)."""
    import ray.data as rd

    from pmocr_ray.ops.knn import knn_cosine_ivf

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    q = pq.read_table(emb_path, columns=["vec_id", "embedding"])
    q0 = np.asarray(
        q.filter(pc.equal(q["vec_id"], 0))["embedding"].to_pylist(), dtype=np.float64
    )
    out = knn_cosine_ivf(rd.read_parquet(emb_path), q0, k=10,
                         n_cells=16, n_probe=16)
    return out.select(["vec_id", "rank"])


def _q_knn_ivf_indexed(sf_dir: str):
    """kNN over the persisted cell-partitioned IVF index, pinned to
    the exact regime (``n_probe = n_cells`` → every cell directory is
    read → identical to brute force, oracle-checkable).  The
    partition-pruning value of the index is exercised by the
    approximate bench regime, not the correctness gate."""
    import shutil

    import ray.data as rd

    from pmocr_ray.fixtures import fixture_dir
    from pmocr_ray.ops.knn import ivf_build_index, knn_cosine_ivf_indexed

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    idx = os.path.join(fixture_dir(sf_dir, REPS), "ivf_index")
    if not os.path.exists(os.path.join(idx, "centroids.parquet")):
        shutil.rmtree(idx, ignore_errors=True)
        ivf_build_index(rd.read_parquet(emb_path), idx, n_cells=16)
    q = pq.read_table(emb_path, columns=["vec_id", "embedding"])
    q0 = np.asarray(
        q.filter(pc.equal(q["vec_id"], 0))["embedding"].to_pylist(),
        dtype=np.float64)
    out = knn_cosine_ivf_indexed(idx, q0, k=10, n_probe=16)
    return out.select(["vec_id", "rank"])


def _q_events_window(sf_dir: str):
    import ray.data as rd

    from pmocr_ray.ops.events import events_window

    return events_window(rd.read_parquet(os.path.join(sf_dir, "events.parquet")))


def _q_top_users(sf_dir: str):
    import ray.data as rd

    from pmocr_ray.ops.events import top_users_by_value

    return top_users_by_value(
        rd.read_parquet(os.path.join(sf_dir, "events.parquet")), k=10
    )


def _q_sessionize(sf_dir: str):
    import ray.data as rd

    from pmocr_ray.ops.events import sessionize

    return sessionize(rd.read_parquet(os.path.join(sf_dir, "events.parquet")))


def _q_props_agg(sf_dir: str):
    import ray.data as rd

    from pmocr_ray.ops.events import props_value_agg

    return props_value_agg(rd.read_parquet(os.path.join(sf_dir, "events.parquet")))


def _q_top_events_per_user(sf_dir: str):
    import ray.data as rd

    from pmocr_ray.ops.events import top_events_per_user

    return top_events_per_user(
        rd.read_parquet(os.path.join(sf_dir, "events.parquet")), n=3
    )


def _q_window_distinct_users(sf_dir: str):
    import ray.data as rd

    from pmocr_ray.ops.events import window_distinct_users

    return window_distinct_users(
        rd.read_parquet(os.path.join(sf_dir, "events.parquet"))
    )


def _q_event_pivot(sf_dir: str):
    import ray.data as rd

    from pmocr_ray.ops.events import event_type_pivot

    return event_type_pivot(rd.read_parquet(os.path.join(sf_dir, "events.parquet")))


def _q_customers_no_f_orders_native(sf_dir: str):
    """Anti join through Ray's native ``left_anti`` join
    (ops/joins.native_anti_join); ``tests/test_joins.py`` checks it
    against the left_outer+filter and Bloom-prefilter plans."""
    import ray.data as rd

    from pmocr_ray.ops.joins import native_anti_join

    cust = rd.read_parquet(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name"],
    )
    f_orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_custkey", "o_orderstatus"],
    ).filter(expr="o_orderstatus == 'F'")
    return native_anti_join(cust, f_orders, on="c_custkey",
                            right_on="o_custkey", num_partitions=8)


def _q_lang_len_quantiles(sf_dir: str):
    import ray.data as rd

    from pmocr_ray.ops.text import grouped_length_quantiles

    return grouped_length_quantiles(
        rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                        columns=["lang", "n_chars"]))


def _q_label_centroids(sf_dir: str):
    import ray.data as rd

    from pmocr_ray.ops.knn import label_centroid_fixedpoint

    return label_centroid_fixedpoint(
        rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet")))


def _q_orders_running_total(sf_dir: str):
    import ray.data as rd

    from pmocr_ray.ops.events import orders_running_total

    return orders_running_total(
        rd.read_parquet(os.path.join(sf_dir, "orders.parquet")))


def _q_pack_sequences(sf_dir: str):
    import ray.data as rd

    from pmocr_ray.ops.pack import pack_sequences

    return pack_sequences(
        rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text"]),
        block_tokens=512)


def _q_shuffle_rank(sf_dir: str):
    import ray.data as rd

    from pmocr_ray.ops.pack import hash_shuffle_rank

    return hash_shuffle_rank(
        rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text"]))


def _q_kmv_sketch(sf_dir: str):
    import ray.data as rd

    from pmocr_ray.ops.text import kmv_sketch

    return kmv_sketch(
        rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                        columns=["text"]), k=64)


def _q_clean_text(sf_dir: str):
    import ray.data as rd

    from pmocr_ray.ops.text import clean_text

    return (rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                            columns=["doc_id", "text"])
            .map_batches(clean_text, batch_format="pyarrow")
            .select_columns(["doc_id", "text_clean"]))


def _q_dedup_incremental(sf_dir: str):
    import ray.data as rd

    from pmocr_ray.ops.dedup import incremental_exact_dedup

    import pyarrow.compute as _pc

    def _parity(t, odd: bool):
        m = _pc.equal(_pc.bit_wise_and(t["doc_id"], 1), 1 if odd else 0)
        return t.filter(m)

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"))
    new = docs.map_batches(_parity, fn_kwargs={"odd": True},
                           batch_format="pyarrow")
    history = docs.map_batches(_parity, fn_kwargs={"odd": False},
                               batch_format="pyarrow")
    return incremental_exact_dedup(new, history)


def _q_lang_label_mix(sf_dir: str):
    """Cross-modal enrichment: documents ⋈ embeddings on id (two large
    sides — hash-partitioned join, payload pruned at the read to the
    three columns used), then the (lang, label) composition rollup via
    the usual per-batch combiner + tiny global groupby."""
    import pyarrow as pa

    import ray.data as rd
    from ray.data.aggregate import Sum

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "lang", "n_chars"])
    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "label"])
    parts = _pq_parts(sf_dir, "documents", cap=8)
    j = docs.join(emb, join_type="inner", num_partitions=parts,
                  on=("doc_id",), right_on=("vec_id",))

    def partial(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc
        g = (t.select(["lang", "label", "n_chars"])
             .group_by(["lang", "label"])
             .aggregate([("n_chars", "sum"), ([], "count_all")]))
        return pa.table({"lang": g["lang"],
                         "label": _pc.cast(g["label"], pa.int64()),
                         "sum_chars": g["n_chars_sum"],
                         "n_docs": g["count_all"]})

    return (j.map_batches(partial, batch_format="pyarrow")
            .groupby(["lang", "label"])
            .aggregate(Sum("sum_chars", alias_name="sum_chars"),
                       Sum("n_docs", alias_name="n_docs")))


def _q_cc_chain(sf_dir: str):
    """Distributed connected components on a chain graph derived from
    doc ids (edges i→i+1 within blocks of 10): 10-hop chains force the
    min-label propagation loop through real multi-hop convergence —
    the closed-form oracle (label = id - id%10) checks the fixpoint."""
    import pyarrow as pa
    import pyarrow.compute as _pc

    import ray.data as rd

    from pmocr_ray.ops.graph import connected_components_distributed

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id"])

    def chain_edges(t: pa.Table) -> pa.Table:
        ids = t["doc_id"]
        m = _pc.not_equal(_pc.subtract(ids, _pc.multiply(
            _pc.divide(ids, 10), 10)), 9)
        a = ids.filter(m)
        return pa.table({"a": a, "b": _pc.add(a, 1)})

    edges = docs.map_batches(chain_edges, batch_format="pyarrow")
    return connected_components_distributed(edges, num_partitions=4)


def _q_trending_terms(sf_dir: str):
    import ray.data as rd

    from pmocr_ray.ops.text import top_terms_by_group

    return top_terms_by_group(
        rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                        columns=["lang", "text"]), group_col="lang", k=5)


def _q_len_percentile(sf_dir: str):
    """Annotate every doc with the cume_dist of its length: the global
    CDF is a value-counts rollup (bounded by distinct lengths, not
    rows), broadcast once; the annotate pass is a map-only
    searchsorted."""
    import numpy as np
    import pyarrow as pa

    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "n_chars"])

    def counts(t: pa.Table) -> pa.Table:
        g = t.select(["n_chars"]).group_by("n_chars").aggregate(
            [([], "count_all")])
        return pa.table({"value": g["n_chars"], "n": g["count_all"]})

    rollup = (docs.map_batches(counts, batch_format="pyarrow")
              .groupby("value").aggregate(Sum("n", alias_name="n"))
              .sort("value").take_all())
    values = np.array([r["value"] for r in rollup], np.int64)
    cum = np.cumsum([r["n"] for r in rollup]).astype(np.int64)
    total = int(cum[-1])
    ref = ray.put((values, cum))

    def annotate(t: pa.Table) -> pa.Table:
        v, c = ray.get(ref)
        idx = np.searchsorted(v, t["n_chars"].to_numpy(zero_copy_only=False))
        pct = c[idx].astype(np.float64) / total
        return pa.table({"doc_id": t["doc_id"],
                         "pct": pa.array(pct, pa.float64())})

    return docs.map_batches(annotate, batch_format="pyarrow")


def _q_lm_score(sf_dir: str):
    """Char-bigram LM quality scoring (train-then-score; no SQL oracle —
    the model is corpus-trained; determinism and ordering are
    pytest-verified)."""
    import ray.data as rd

    from pmocr_ray.ops.text import lm_score

    return (lm_score(rd.read_parquet(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["doc_id", "text"]))
            .select_columns(["doc_id", "lm_logprob"]))


def _q_lm_bigram_counts(sf_dir: str):
    """The corpus-scale half of ``lm_score`` made oracle-checkable:
    the trained char-bigram count matrix as (prev_ch, next_ch, n) rows
    with non-top-64 chars folded to ``<oov>``.  All integers — the
    distributed combiner + groupby is exact, so DuckDB can recompute
    it with a per-char lateral unnest.  Only the final per-doc float
    mean (``lm_score`` itself) stays rows-only."""
    import numpy as np
    import pyarrow as pa

    from pmocr_ray.ops.text import train_char_bigram_lm

    model = train_char_bigram_lm(_docs(sf_dir))
    chars, counts = model["chars"], model["counts"] - 1  # un-smooth
    labels = list(chars) + ["<oov>"]
    i, j = np.nonzero(counts)
    return pa.table({
        "prev_ch": pa.array([labels[x] for x in i], pa.string()),
        "next_ch": pa.array([labels[x] for x in j], pa.string()),
        "n": pa.array(counts[i, j], pa.int64()),
    })


def _q_quantize_embeddings(sf_dir: str):
    import ray.data as rd

    from pmocr_ray.ops.knn import quantize_embeddings

    return quantize_embeddings(
        rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                        columns=["vec_id", "embedding"]))


def _q_span_extract(sf_dir: str):
    import ray.data as rd

    from pmocr_ray.ops.text import regex_explode

    return regex_explode(
        rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text"]),
        r"scan \w+")


def _q_kmeans_assign1(sf_dir: str):
    """The k-means assignment kernel pinned to an SQL-reproducible
    regime: centroids = the first k=8 vectors by vec_id (deterministic
    init, no RNG), one assignment pass, per-vector cell emitted.  The
    argmax is float-safe against engine ULP differences: the minimum
    best-vs-second margin on the fixture is ~1e-4 (measured), ten
    orders above any dot-product reassociation error, and exact ties
    break to the lowest centroid index on both sides (numpy argmax
    picks the first maximum; the SQL twin orders by s DESC, idx ASC).
    The iterative production path (``kmeans_cells``) stays rows-only."""
    import numpy as np
    import pyarrow as pa

    import ray
    import ray.data as rd

    from pmocr_ray.ops.knn import _normalize, list_matrix

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "embedding"])

    # first-8-by-vec_id via a bounded combiner (8 rows per batch reach
    # the driver), not sort().limit() — a global sort shuffles the
    # whole corpus for 8 rows
    def first8(t: pa.Table) -> pa.Table:
        idx = np.argsort(t["vec_id"].to_numpy(zero_copy_only=False),
                         kind="stable")[:8]
        return t.take(pa.array(idx))

    partials = emb.map_batches(first8, batch_format="pyarrow").take_all()
    first = sorted(partials, key=lambda r: r["vec_id"])[:8]
    cent = _normalize(np.asarray([r["embedding"] for r in first],
                                 np.float64))
    ref = ray.put(cent)

    def assign(t: pa.Table) -> pa.Table:
        c = ray.get(ref)
        mat = list_matrix(t["embedding"])
        a = np.argmax(mat @ c.T, axis=1).astype(np.int64)
        return pa.table({"vec_id": t["vec_id"],
                         "cell": pa.array(a, pa.int64())})

    return emb.map_batches(assign, batch_format="pyarrow")


def _q_kmeans_cells(sf_dir: str):
    """Full-corpus Lloyd k-means (iterative — no SQL oracle; fixed-point
    determinism is pytest-verified bit-identical across partitionings);
    returns the final cell membership counts."""
    import numpy as np
    import pyarrow as pa

    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from pmocr_ray.ops.knn import _normalize, kmeans_distributed

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["embedding"])
    cent = kmeans_distributed(emb, k=8, iters=5)
    ref = ray.put(cent)

    def assign_counts(t: pa.Table) -> pa.Table:
        c = ray.get(ref)
        mat = _normalize(np.asarray(t["embedding"].to_pylist(),
                                    dtype=np.float64))
        a = np.argmax(mat @ c.T, axis=1)
        uniq, counts = np.unique(a, return_counts=True)
        return pa.table({"cell": pa.array(uniq, pa.int64()),
                         "n": pa.array(counts, pa.int64())})

    return (emb.map_batches(assign_counts, batch_format="pyarrow")
            .groupby("cell").aggregate(Sum("n", alias_name="n")))


def _q_len_bucket(sf_dir: str):
    import ray.data as rd

    from pmocr_ray.ops.text import range_bucket

    return range_bucket(
        rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "n_chars"]))


def _q_webdataset_audit(sf_dir: str):
    """WebDataset tar export (side effect under /tmp) returning the
    per-shard audit rows; the oracle replays the md5 shard rule."""
    import ray.data as rd

    from pmocr_ray.ops.export import webdataset_export

    out = f"/tmp/pmocr_wds/{os.path.basename(os.path.normpath(sf_dir))}"
    audit = webdataset_export(
        rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text"]),
        out, n_shards=8)
    return audit.select_columns(["shard", "n_members"])


def _q_tfidf(sf_dir: str):
    import ray.data as rd

    from pmocr_ray.ops.text import tfidf_terms

    return tfidf_terms(
        rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                        columns=["doc_id", "text"]),
        vocab_k=50)


def _q_lineitem_agg(sf_dir: str):
    import pyarrow as pa

    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    def partial(t: pa.Table) -> pa.Table:
        qty = t["l_quantity"].cast(pa.int64())
        tt = pa.table({
            "l_returnflag": t["l_returnflag"],
            "l_linestatus": t["l_linestatus"],
            "qty": qty,
        })
        g = tt.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("qty", "sum"), ("qty", "count")]
        )
        return pa.table({
            "l_returnflag": g["l_returnflag"],
            "l_linestatus": g["l_linestatus"],
            "qty": g["qty_sum"],
            "cnt": g["qty_count"],
        })

    ds = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_returnflag", "l_linestatus", "l_quantity"],
    ).map_batches(partial, batch_format="pyarrow")
    return ds.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("qty", alias_name="sum_qty"), Sum("cnt", alias_name="n")
    )


def _q_top_docs_by_len(sf_dir: str):
    """Global sort + limit: top 20 documents by length (ties by id)."""
    out = (
        _docs(sf_dir)
        .select_columns(["doc_id", "n_chars"])
        .sort(["n_chars", "doc_id"], descending=[True, False])
        .limit(20)
    )
    return out


def _q_top_terms(sf_dir: str):
    """Global top-20 vocabulary terms: per-batch local count (combiner),
    groupby-sum, distributed sort+limit."""
    from pmocr_ray.ops.text import top_terms

    return top_terms(_docs(sf_dir).select_columns(["text"]), k=20)


def _q_host_stats(sf_dir: str):
    """Per-host page rollup over the extraction output's url column."""
    from pmocr_ray.ops.text import host_stats

    return host_stats(_read_output(sf_dir))


def _q_doc_freq(sf_dir: str):
    """Top-50 terms by document frequency (the DF side of TF-IDF)."""
    from pmocr_ray.ops.text import doc_frequency

    return doc_frequency(_docs(sf_dir).select_columns(["text"]), k=50)


def _q_host_cap(sf_dir: str):
    """Per-domain quota: keep at most 3 pages per host (url-ordered)."""
    import pyarrow as pa

    from pmocr_ray.ops.text import quota_by_key

    def add_host(t: pa.Table) -> pa.Table:
        host = pc.struct_field(
            pc.extract_regex(t["url"], r"^[a-z+]+://(?P<host>[^/]+)"), "host")
        return pa.table({"host": host, "url": t["url"]})

    ds = _read_output(sf_dir).map_batches(add_host, batch_format="pyarrow")
    return quota_by_key(ds, "host", 3, "url").select_columns(["host", "url"])


def _q_mirror_hosts(sf_dir: str):
    """Edit-distance-1 mirror-host pairs over the crawl's host domain
    (``www1``/``www2``-style crawl mirrors) — the FastSS deletion-
    neighborhood fuzzy self-join with an exact levenshtein==1 verify;
    never a cross join."""
    import pyarrow as pa

    from pmocr_ray.ops.joins import edit1_pairs

    def hosts(t: "pa.Table") -> "pa.Table":
        h = pc.extract_regex(t["url"], r"^[a-z+]+://(?P<host>[^/]+)")
        return pa.table({"host": pc.struct_field(h, "host")})

    return edit1_pairs(
        _read_output(sf_dir).select_columns(["url"]).map_batches(
            hosts, batch_format="pyarrow"),
        "host")


def _q_hash_sample(sf_dir: str):
    """Deterministic md5-prefix sample of documents (~10% of rows),
    stable across runs and partitionings."""
    from pmocr_ray.ops.text import hash_sample

    return hash_sample(_docs(sf_dir).select_columns(["doc_id", "text"]),
                       column="text",
                       prefix_lt="1a").select_columns(["doc_id"])


def _q_zorder(sf_dir: str):
    """Z-order (Morton) layout key over (n_chars, lang) + file bucket."""
    from pmocr_ray.ops.pack import zorder_values

    return zorder_values(_docs(sf_dir))


def _q_keyword_search(sf_dir: str):
    """Exact multi-term keyword retrieval: top-20 docs by (distinct
    query terms matched, total term hits), deterministic tie-break."""
    from pmocr_ray.ops.text import keyword_search

    return keyword_search(_docs(sf_dir),
                          ("hash", "merge", "sort", "window", "spark"),
                          k=20)


def _q_heavy_hitters(sf_dir: str):
    """Misra-Gries token heavy-hitter sketch (k=64).  The corpus
    vocabulary (31) is below k, so no counter is ever trimmed and the
    sketch is provably EXACT here — letting the approximate operator
    carry a full SQL oracle (its guarantee degrades gracefully to
    superset-with-bounded-undercount above k)."""
    from pmocr_ray.ops.text import heavy_hitters

    return heavy_hitters(_docs(sf_dir).select_columns(["text"]), k=64)


_zorder_cache: dict[str, str] = {}


def _q_zorder_scan(sf_dir: str):
    """End-to-end Z-order layout: hive write partitioned by Morton
    bucket + zone-map manifest, then a predicate-pruned read (only
    overlapping bucket directories are opened) with the exact residual
    filter."""
    import tempfile

    from pmocr_ray.ops.pack import zorder_read, zorder_write

    if sf_dir not in _zorder_cache:
        out = tempfile.mkdtemp(prefix="pmocr_zorder_")
        zorder_write(_docs(sf_dir).select_columns(
            ["doc_id", "n_chars", "lang"]), out, bucket_shift=12)
        _zorder_cache[sf_dir] = out
    return zorder_read(_zorder_cache[sf_dir], x_range=(100, 300),
                       cat="en").select_columns(
        ["doc_id", "n_chars", "lang"])


def _q_pps_sample(sf_dir: str):
    """Deterministic PPS systematic sample of 50 docs weighted by
    n_chars (two-pass distributed prefix sum, exact ints)."""
    from pmocr_ray.ops.pack import pps_systematic_sample

    return pps_systematic_sample(_docs(sf_dir), n_samples=50)


def _q_curate(sf_dir: str):
    """Composed curation pipeline: lang-ID + quality + near-dup dedup
    over the documents table (rows-only: heuristic + approximate)."""
    from pmocr_ray.pipelines import curate

    out = curate(_docs(sf_dir), min_quality=0.0, dedup_threshold=0.8)
    return out.select_columns(["doc_id", "lang_pred", "quality", "keep"])


def _q_corpus_build(sf_dir: str):
    """The flagship end-to-end corpus build: the extraction output's
    done rows (url parsed back to the page's int key = seq) → exact
    dedup → curate (lang-ID + quality + near-dup) → 512-token packing.
    Every stage is exactly recomputable, so the whole composition has
    one chained SQL twin — the reference's full batch story
    (/root/reference/pmocr.sh:2546-2593 per-target dispatch over
    discover→skip→convert→archive) as ONE streaming dataflow."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from pmocr_ray.pipelines import corpus_build

    def to_corpus(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["status"], "done"))
        m = pc.extract_regex(t["url"], r"page/(?P<d>\d+)-(?P<r>\d+)$")
        d = pc.cast(pc.struct_field(m, "d"), pa.int64())
        r = pc.cast(pc.struct_field(m, "r"), pa.int64())
        return pa.table({
            "doc_id": pc.add(pc.multiply(d, pa.scalar(REPS, pa.int64())), r),
            "text": t["extracted_text"],
        })

    ds = _read_output(sf_dir).map_batches(to_corpus, batch_format="pyarrow")
    return corpus_build(ds)


def _q_media_meta(sf_dir: str):
    import pyarrow as pa

    from pmocr_ray.ops.media import MediaDecodeStage, encode_fake_image

    def attach(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        media = [
            encode_fake_image(d % 640 + 16, d % 480 + 16, d % 3 + 1, seed=d)
            for d in ids
        ]
        return pa.table({"doc_id": t["doc_id"], "media": pa.array(media, pa.binary())})

    ds = _docs(sf_dir).map_batches(attach, batch_format="pyarrow")
    ds = ds.map_batches(MediaDecodeStage, batch_format="pyarrow",
                        batch_size=64, concurrency=2,
                        fn_constructor_kwargs={"column": "media"})
    return ds.select_columns(["doc_id", "width", "height", "channels", "media_bytes"])


def _q_media_resize(sf_dir: str):
    """Resize stage over the synthetic media column: new binary payload
    at 64x48 + typed out-dims (SQL verifies the metadata contract)."""
    import pyarrow as pa

    from pmocr_ray.ops.media import MediaResizeStage, encode_fake_image

    def attach(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        media = [
            encode_fake_image(d % 640 + 16, d % 480 + 16, d % 3 + 1, seed=d)
            for d in ids
        ]
        return pa.table({"doc_id": t["doc_id"], "media": pa.array(media, pa.binary())})

    ds = _docs(sf_dir).map_batches(attach, batch_format="pyarrow")
    ds = ds.map_batches(MediaResizeStage, batch_format="pyarrow",
                        batch_size=64, concurrency=2,
                        fn_constructor_kwargs={"column": "media"})
    return ds.select_columns(["doc_id", "out_width", "out_height", "out_bytes"])


def _q_media_resize_real(sf_dir: str):
    """REAL raster decode → nearest-neighbor resize → re-encode,
    oracle-gated at the PIXEL level: each doc gets a raster whose
    pixel values are an arithmetic function of (doc_id, y, x, c) —
    packaged as binary PPM for even doc_ids and as REAL zlib-deflated
    PNG for odd ones, so the compressed-format codec sits inside the
    gate too — the actor stage resizes it to 4×3 through the real
    codecs (ops/media.decode_raster → resize_nearest → encode_ppm),
    and the query emits the SUM of the output pixel bytes — which
    DuckDB recomputes exactly from the same arithmetic + the same
    nearest-index formula ``src = (dst * in_dim) // out_dim``
    (container-independent, so ONE SQL covers both formats).  A
    byte-level functional gate on the real media path, not just the
    metadata contract."""
    import numpy as np
    import pyarrow as pa

    from pmocr_ray.ops.media import (MediaResizeStage, decode_ppm,
                                     encode_png, encode_ppm)

    def attach(t: pa.Table) -> pa.Table:
        media = []
        for d in t["doc_id"].to_pylist():
            w, h = 8 + d % 5, 6 + d % 4
            y, x, c = np.meshgrid(np.arange(h), np.arange(w),
                                  np.arange(3), indexing="ij")
            px = ((d + y * 31 + x * 7 + c * 3) % 256).astype(np.uint8)
            media.append(encode_ppm(px) if d % 2 == 0 else encode_png(px))
        return pa.table({"doc_id": t["doc_id"],
                         "media": pa.array(media, pa.binary())})

    def checksum(t: pa.Table) -> pa.Table:
        sums = [int(decode_ppm(p).astype(np.int64).sum())
                for p in t["media"].to_pylist()]
        return pa.table({"doc_id": t["doc_id"],
                         "out_width": t["out_width"],
                         "out_height": t["out_height"],
                         "pixel_sum": pa.array(sums, pa.int64())})

    ds = (_docs(sf_dir).select_columns(["doc_id"])
          .map_batches(attach, batch_format="pyarrow")
          .map_batches(MediaResizeStage, batch_format="pyarrow",
                       batch_size=64, concurrency=2,
                       fn_constructor_kwargs={"column": "media",
                                              "out_width": 4,
                                              "out_height": 3})
          .map_batches(checksum, batch_format="pyarrow"))
    return ds


def _q_media_png_real(sf_dir: str):
    """REAL PNG codec gated on its NON-RGB path: each doc gets a
    2-channel (gray+alpha) arithmetic-pixel PNG, the resize stage
    decodes/resizes it and — channels ≠ 3 — re-encodes the OUTPUT as
    PNG too (ops/media.MediaResizeStage), and the query decodes that
    output PNG to emit the pixel sum, which SQL recomputes from the
    same arithmetic + nearest-index formula.  Exercises encode→decode
    →resize→encode→decode entirely through the zlib codec."""
    import numpy as np
    import pyarrow as pa

    from pmocr_ray.ops.media import (MediaResizeStage, decode_png,
                                     encode_png)

    def attach(t: pa.Table) -> pa.Table:
        media = []
        for d in t["doc_id"].to_pylist():
            w, h = 8 + d % 5, 6 + d % 4
            y, x, c = np.meshgrid(np.arange(h), np.arange(w),
                                  np.arange(2), indexing="ij")
            px = ((d + y * 31 + x * 7 + c * 3) % 256).astype(np.uint8)
            media.append(encode_png(px))
        return pa.table({"doc_id": t["doc_id"],
                         "media": pa.array(media, pa.binary())})

    def checksum(t: pa.Table) -> pa.Table:
        sums = [int(decode_png(p).astype(np.int64).sum())
                for p in t["media"].to_pylist()]
        return pa.table({"doc_id": t["doc_id"],
                         "out_width": t["out_width"],
                         "out_height": t["out_height"],
                         "pixel_sum": pa.array(sums, pa.int64())})

    return (_docs(sf_dir).select_columns(["doc_id"])
            .map_batches(attach, batch_format="pyarrow")
            .map_batches(MediaResizeStage, batch_format="pyarrow",
                         batch_size=64, concurrency=2,
                         fn_constructor_kwargs={"column": "media",
                                                "out_width": 5,
                                                "out_height": 4})
            .map_batches(checksum, batch_format="pyarrow"))


def _q_media_jpeg_real(sf_dir: str):
    """REAL baseline-JPEG codec gated at the PIXEL level: each doc
    gets a grayscale JPEG of uniform 8×8 tiles whose values are an
    arithmetic function of (doc_id, tile_y, tile_x), encoded with
    all-ones quant tables — DC-only blocks round-trip BIT-EXACTLY
    through the Huffman/IDCT pipeline (ops/jpeg.py) — the resize
    stage decodes/resizes it (gray output re-encodes as PNG), and the
    query emits the output pixel SUM, which SQL recomputes from the
    same tile arithmetic + nearest-index formula.  Real entropy-coded
    JPEG bytes, exact integer oracle."""
    import numpy as np
    import pyarrow as pa

    from pmocr_ray.ops.jpeg import encode_jpeg
    from pmocr_ray.ops.media import MediaResizeStage, decode_png

    def attach(t: pa.Table) -> pa.Table:
        media = []
        for d in t["doc_id"].to_pylist():
            th, tw = 3 + d % 3, 4 + d % 2
            ty, tx = np.meshgrid(np.arange(th), np.arange(tw),
                                 indexing="ij")
            tiles = ((d + ty * 31 + tx * 7) % 256).astype(np.uint8)
            img = np.repeat(np.repeat(tiles, 8, 0), 8, 1)
            media.append(encode_jpeg(img, quant_scale=0))
        return pa.table({"doc_id": t["doc_id"],
                         "media": pa.array(media, pa.binary())})

    def checksum(t: pa.Table) -> pa.Table:
        sums = [int(decode_png(p).astype(np.int64).sum())
                for p in t["media"].to_pylist()]
        return pa.table({"doc_id": t["doc_id"],
                         "out_width": t["out_width"],
                         "out_height": t["out_height"],
                         "pixel_sum": pa.array(sums, pa.int64())})

    return (_docs(sf_dir).select_columns(["doc_id"])
            .map_batches(attach, batch_format="pyarrow")
            .map_batches(MediaResizeStage, batch_format="pyarrow",
                         batch_size=64, concurrency=2,
                         fn_constructor_kwargs={"column": "media",
                                                "out_width": 5,
                                                "out_height": 4})
            .map_batches(checksum, batch_format="pyarrow"))


def _q_media_gif_real(sf_dir: str):
    """REAL GIF codec (pure-Python LZW) gated at the PIXEL level:
    each doc gets a palette GIF whose palette AND index plane are
    arithmetic functions of doc_id, the resize stage LZW-decodes and
    nearest-resizes it (RGB output re-encodes as PPM), and the query
    emits the output pixel SUM — GIF is lossless, so SQL recomputes
    it exactly from the same arithmetic."""
    import numpy as np
    import pyarrow as pa

    from pmocr_ray.ops.gif import encode_gif
    from pmocr_ray.ops.media import MediaResizeStage, decode_ppm

    def attach(t: pa.Table) -> pa.Table:
        media = []
        for d in t["doc_id"].to_pylist():
            i = np.arange(24)
            pal = np.stack([(d + i * 7) % 256, (d * 3 + i * 11) % 256,
                            (d * 5 + i * 13) % 256], -1).astype(np.uint8)
            h, w = 6 + d % 4, 8 + d % 5
            y, x = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
            idx = ((d + y * 5 + x * 3) % 24).astype(np.uint8)
            media.append(encode_gif(idx, pal))
        return pa.table({"doc_id": t["doc_id"],
                         "media": pa.array(media, pa.binary())})

    def checksum(t: pa.Table) -> pa.Table:
        sums = [int(decode_ppm(p).astype(np.int64).sum())
                for p in t["media"].to_pylist()]
        return pa.table({"doc_id": t["doc_id"],
                         "out_width": t["out_width"],
                         "out_height": t["out_height"],
                         "pixel_sum": pa.array(sums, pa.int64())})

    return (_docs(sf_dir).select_columns(["doc_id"])
            .map_batches(attach, batch_format="pyarrow")
            .map_batches(MediaResizeStage, batch_format="pyarrow",
                         batch_size=64, concurrency=2,
                         fn_constructor_kwargs={"column": "media",
                                                "out_width": 4,
                                                "out_height": 3})
            .map_batches(checksum, batch_format="pyarrow"))


def _q_media_tiff_real(sf_dir: str):
    """REAL TIFF codec (the reference's own input format) gated at the
    PIXEL level: arithmetic RGB pixels packaged as PackBits-compressed
    TIFF for even doc_ids and literal-LZW TIFF for odd ones, decoded
    and resized through the raster dispatch — TIFF is lossless in both
    modes, so SQL recomputes the resized pixel SUM exactly (same
    arithmetic + nearest-index formula as media_resize_real)."""
    import numpy as np
    import pyarrow as pa

    from pmocr_ray.ops.media import MediaResizeStage, decode_ppm
    from pmocr_ray.ops.tiff import encode_tiff

    def attach(t: pa.Table) -> pa.Table:
        media = []
        for d in t["doc_id"].to_pylist():
            w, h = 8 + d % 5, 6 + d % 4
            y, x, c = np.meshgrid(np.arange(h), np.arange(w),
                                  np.arange(3), indexing="ij")
            px = ((d + y * 31 + x * 7 + c * 3) % 256).astype(np.uint8)
            media.append(encode_tiff(
                px, compression="packbits" if d % 2 == 0 else "lzw"))
        return pa.table({"doc_id": t["doc_id"],
                         "media": pa.array(media, pa.binary())})

    def checksum(t: pa.Table) -> pa.Table:
        sums = [int(decode_ppm(p).astype(np.int64).sum())
                for p in t["media"].to_pylist()]
        return pa.table({"doc_id": t["doc_id"],
                         "out_width": t["out_width"],
                         "out_height": t["out_height"],
                         "pixel_sum": pa.array(sums, pa.int64())})

    return (_docs(sf_dir).select_columns(["doc_id"])
            .map_batches(attach, batch_format="pyarrow")
            .map_batches(MediaResizeStage, batch_format="pyarrow",
                         batch_size=64, concurrency=2,
                         fn_constructor_kwargs={"column": "media",
                                                "out_width": 4,
                                                "out_height": 3})
            .map_batches(checksum, batch_format="pyarrow"))


def _q_gif_frames_real(sf_dir: str):
    """Animated-GIF frame sampling through the REAL LZW codec: each
    doc gets n = 2 + d%3 full-canvas 8×8 frames with arithmetic
    palette/indices, FrameSampleStage (step 2) explodes composed RGB
    frames, and the query emits each sampled frame's byte SUM —
    SQL-recomputable exactly (lossless codec, opaque frames)."""
    import numpy as np
    import pyarrow as pa

    from pmocr_ray.ops.gif import encode_gif
    from pmocr_ray.ops.media import FrameSampleStage

    def attach(t: pa.Table) -> pa.Table:
        media = []
        for d in t["doc_id"].to_pylist():
            i = np.arange(16)
            pal = np.stack([(d + i * 7) % 256, (d * 3 + i * 11) % 256,
                            (d * 5 + i * 13) % 256], -1).astype(np.uint8)
            frames = []
            for f in range(2 + d % 3):
                y, x = np.meshgrid(np.arange(8), np.arange(8),
                                   indexing="ij")
                frames.append(((d + f * 9 + y * 3 + x) % 16
                               ).astype(np.uint8))
            media.append(encode_gif(frames, pal))
        return pa.table({"doc_id": t["doc_id"],
                         "media": pa.array(media, pa.binary())})

    def sums(t: pa.Table) -> pa.Table:
        s = [int(np.frombuffer(f, np.uint8).astype(np.int64).sum())
             for f in t["frame"].to_pylist()]
        return pa.table({"doc_id": t["doc_id"],
                         "frame_idx": t["frame_idx"],
                         "byte_sum": pa.array(s, pa.int64())})

    return (_docs(sf_dir).select_columns(["doc_id"])
            .map_batches(attach, batch_format="pyarrow")
            .map_batches(FrameSampleStage, batch_format="pyarrow",
                         batch_size=64, concurrency=2,
                         fn_constructor_kwargs={"column": "media",
                                                "key_column": "doc_id",
                                                "step": 2})
            .map_batches(sums, batch_format="pyarrow"))


def _audio_payloads(t):
    """Deterministic WAV-per-doc: n = 64 + d%37 mono s16 samples at
    rate 8000 + (d%3)*4000, sample[i] = ((d*7 + i*13) % 4001) - 2000 —
    arithmetic the SQL oracles recompute exactly."""
    import numpy as np
    import pyarrow as pa

    from pmocr_ray.ops.media import encode_wav

    media = []
    for d in t["doc_id"].to_pylist():
        n = 64 + d % 37
        rate = 8000 + (d % 3) * 4000
        i = np.arange(n, dtype=np.int64)
        x = ((d * 7 + i * 13) % 4001 - 2000).astype(np.int16)
        media.append(encode_wav(x, rate))
    return pa.table({"doc_id": t["doc_id"],
                     "media": pa.array(media, pa.binary())})


def _q_audio_meta(sf_dir: str):
    """REAL WAV decode (RIFF/PCM s16le, pure numpy) gated at the
    SIGNAL level: integer-exact statistics (sum |x|, sum x², zero
    crossings) over arithmetic payloads, recomputed by SQL."""
    from pmocr_ray.ops.media import AudioDecodeStage

    return (_docs(sf_dir).select_columns(["doc_id"])
            .map_batches(_audio_payloads, batch_format="pyarrow")
            .map_batches(AudioDecodeStage, batch_format="pyarrow",
                         batch_size=64, concurrency=2,
                         fn_constructor_kwargs={"column": "media"}))


def _q_audio_g711_real(sf_dir: str):
    """REAL G.711 companded-audio decode (μ-law for even docs, A-law
    for odd), gated at the SAMPLE level: payload bytes are arithmetic,
    the decode stage expands them through the codec lookup tables, and
    SQL recomputes the CCITT expansion formulas exactly (integer
    arithmetic only) to rebuild sum |x| / sum x² / zero crossings."""
    import numpy as np
    import pyarrow as pa

    from pmocr_ray.ops.media import AudioDecodeStage, encode_wav_g711

    def attach(t: pa.Table) -> pa.Table:
        media = []
        for d in t["doc_id"].to_pylist():
            n = 48 + d % 17
            b = ((d * 13 + np.arange(n) * 7) % 256).astype(np.uint8)
            media.append(encode_wav_g711(
                b, 8000, law="mulaw" if d % 2 == 0 else "alaw"))
        return pa.table({"doc_id": t["doc_id"],
                         "media": pa.array(media, pa.binary())})

    return (_docs(sf_dir).select_columns(["doc_id"])
            .map_batches(attach, batch_format="pyarrow")
            .map_batches(AudioDecodeStage, batch_format="pyarrow",
                         batch_size=64, concurrency=2,
                         fn_constructor_kwargs={"column": "media"}))


def _q_audio_resample_real(sf_dir: str):
    """REAL nearest-index resample to 4 kHz through the WAV codec:
    the output sample SUM is recomputed by SQL from the same
    ``src = (dst * n_in) // n_out`` formula."""
    import pyarrow as pa

    from pmocr_ray.ops.media import AudioResampleStage

    ds = (_docs(sf_dir).select_columns(["doc_id"])
          .map_batches(_audio_payloads, batch_format="pyarrow")
          .map_batches(AudioResampleStage, batch_format="pyarrow",
                       batch_size=64, concurrency=2,
                       fn_constructor_kwargs={"column": "media",
                                              "target_rate": 4000}))
    return ds.select_columns(["doc_id", "out_rate", "out_samples",
                              "sample_sum"])


def _q_frame_sample_real(sf_dir: str):
    """REAL video frame sampling through the Y4M (YUV4MPEG2 Cmono)
    codec: arithmetic luma frames, every-3rd sampling, per-frame byte
    SUM recomputed by SQL."""
    import numpy as np
    import pyarrow as pa

    from pmocr_ray.ops.media import FrameSampleStage, encode_y4m

    def attach(t: pa.Table) -> pa.Table:
        media = []
        for d in t["doc_id"].to_pylist():
            n = 1 + d % 10
            f, y, x = np.meshgrid(np.arange(n), np.arange(4), np.arange(5),
                                  indexing="ij")
            frames = ((d + f * 7 + y * 5 + x) % 256).astype(np.uint8)
            media.append(encode_y4m(frames))
        return pa.table({"doc_id": t["doc_id"],
                         "media": pa.array(media, pa.binary())})

    def sums(t: pa.Table) -> pa.Table:
        import numpy as _np
        fs = [int(_np.frombuffer(f, _np.uint8).astype(_np.int64).sum())
              for f in t["frame"].to_pylist()]
        return pa.table({"doc_id": t["doc_id"],
                         "frame_idx": t["frame_idx"],
                         "frame_sum": pa.array(fs, pa.int64())})

    return (_docs(sf_dir).select_columns(["doc_id"])
            .map_batches(attach, batch_format="pyarrow")
            .map_batches(FrameSampleStage, batch_format="pyarrow",
                         batch_size=64, concurrency=2,
                         fn_constructor_kwargs={"column": "media",
                                                "step": 3})
            .map_batches(sums, batch_format="pyarrow"))


def _q_frame_sample(sf_dir: str):
    """Flat-map-shaped frame sampling: one output row per sampled frame
    (every 3rd) of each synthetic video payload."""
    import pyarrow as pa

    from pmocr_ray.ops.media import FrameSampleStage, encode_fake_video

    def attach(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_pylist()
        media = [encode_fake_video(d % 10 + 1, frame_size=32, seed=d)
                 for d in ids]
        return pa.table({"doc_id": t["doc_id"], "media": pa.array(media, pa.binary())})

    ds = _docs(sf_dir).map_batches(attach, batch_format="pyarrow")
    ds = ds.map_batches(FrameSampleStage, batch_format="pyarrow",
                        batch_size=64, concurrency=2,
                        fn_constructor_kwargs={"column": "media"})
    return ds.select_columns(["doc_id", "frame_idx"])


def _q_lang_id(sf_dir: str):
    from pmocr_ray.ops.text import LangIdStage

    ds = _docs(sf_dir).map_batches(LangIdStage, batch_format="pyarrow",
                                   concurrency=2)
    return ds.select_columns(["doc_id", "lang_pred"])


def _q_quality(sf_dir: str):
    from pmocr_ray.ops.text import quality_score

    ds = _docs(sf_dir).map_batches(quality_score, batch_format="pyarrow")
    return ds.select_columns(
        ["doc_id", "punct_ratio", "stopword_ratio", "mean_token_len", "quality"]
    )


def _q_jsonl_format(sf_dir: str):
    """Derived JSONL target: one compact JSON object per row (the
    multi-format fan-out's jsonl sink, byte-compatible with DuckDB's
    to_json so the format itself is oracle-checked)."""
    from pmocr_ray.targets import json_row_transform

    ds = _read_output(sf_dir).map_batches(json_row_transform,
                                          batch_format="pyarrow")
    return ds.select_columns(["url", "json_row"])


def _q_retry_redrive(sf_dir: str):
    """--retry-failed semantics end-to-end: run 1 quarantines the poison
    rows (attempts=2) and folds into the done manifest; run 2 re-drives
    exactly those with the counter carried forward (attempts=3) and
    skips everything else.  Returns run 2's (url, status, attempts)."""
    import shutil

    import ray.data as rd

    from pmocr_ray.fixtures import fixture_dir
    from pmocr_ray.pipeline import run_extraction
    from pmocr_ray.state.manifest import update_done_manifest

    pages_dir, seed_manifest = _pages(sf_dir)
    root = os.path.join(fixture_dir(sf_dir, REPS), "retry_demo")
    out2 = os.path.join(root, "run2")
    if not os.path.exists(os.path.join(root, "_DONE")):
        shutil.rmtree(root, ignore_errors=True)
        os.makedirs(root)
        done = os.path.join(root, "done.parquet")
        shutil.copy(seed_manifest, done)
        out1 = os.path.join(root, "run1")
        run_extraction(pages_dir, done).write_parquet(out1)
        update_done_manifest(out1, done, run_id="rr1")
        run_extraction(pages_dir, done, retry_failed=True).write_parquet(out2)
        with open(os.path.join(root, "_DONE"), "w") as f:
            f.write("ok")
    return rd.read_parquet(out2).select_columns(["url", "status", "attempts"])


def _q_dedup_minhash(sf_dir: str):
    from pmocr_ray.ops.dedup import minhash_dedup_pairs

    return minhash_dedup_pairs(_docs(sf_dir), threshold=0.8)


def _q_dedup_ngram(sf_dir: str):
    """Char-5-gram Jaccard near-dup pairs: LSH candidates verified with
    character-level n-gram Jaccard (robust to word-boundary edits)."""
    from pmocr_ray.ops.dedup import minhash_dedup_pairs

    return minhash_dedup_pairs(_docs(sf_dir), threshold=0.8,
                               char_level_verify=True, shingle_size=5)


def _q_dedup_simhash(sf_dir: str):
    """SimHash near-dup pinned to its EXACT regime: the 4×16-bit
    pigeonhole banding is complete for Hamming ≤ 3, and
    ``word_hash="md5"`` (little-endian first 8 digest bytes =
    DuckDB's ``md5_number_upper``) makes the 64-bit signatures — and
    therefore the full pair set — recomputable by the SQL oracle's
    brute-force ``bit_count(xor(sig_a, sig_b)) <= 3`` self-join.
    ``max_bucket`` is raised past the corpus size so the hot-bucket
    cap (a scale guard, exercised in pytest) cannot truncate the
    oracle-checked set."""
    from pmocr_ray.ops.dedup import simhash_dedup_pairs

    return simhash_dedup_pairs(_docs(sf_dir), max_distance=3,
                               word_hash="md5", max_bucket=1 << 20)


def _q_dedup_embedding(sf_dir: str):
    import ray.data as rd

    from pmocr_ray.ops.dedup import embedding_dedup_pairs

    return embedding_dedup_pairs(
        rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet")),
        threshold=0.45,
    ).select_columns(["a", "b"])


def _q_semdedup(sf_dir: str):
    """SemDeDup (cluster-then-prune semantic dedup) pinned to the
    SQL-reproducible regime: centroids = the first k=8 vectors by
    vec_id (deterministic init, no RNG), one assignment pass, pairwise
    keep-first prune at cosine ≥ 0.45.  Float safety: assignment
    argmax margins are the kmeans_assign1 regime's (min ~1e-4 on the
    fixture) and the prune threshold margin is ≥ 5.5e-4 — both ten
    orders above dot-product reassociation error; exact ties break the
    same way on both sides (argmax → first max; SQL orders s DESC,
    idx ASC)."""
    import ray.data as rd

    from pmocr_ray.ops.dedup import semdedup

    return semdedup(
        rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                        columns=["vec_id", "embedding"]),
        k=8, threshold=0.45,
    )


def _q_dedup_embedding_lsh(sf_dir: str):
    """SRP-LSH near-dup pinned to a DENSE regime (5 planes × 64
    tables) that is candidate-complete on the fixture corpus, so the
    exact-cosine verify emits exactly the brute-force threshold pairs
    and the brute-force SQL twin applies.  The math: at cosine 0.45
    (these fixtures' pairs sit right at the threshold) a plane agrees
    w.p. 1-acos(0.45)/π ≈ 0.649, so a 5-plane table catches a pair
    w.p. 0.649⁵ ≈ 0.115 and 64 tables miss it w.p. (1-0.115)⁶⁴ ≈
    4e-4 — and the planes are seeded, so the observed complete
    candidate set is reproducible bit-for-bit.  ``max_bucket`` is
    raised past the corpus size (same pinning as ``dedup_simhash``):
    5-plane tables have only 32 buckets, so at sf0.1 (2 k vectors,
    mean occupancy 62.5) the default hot-bucket star emit silently
    dropped 3/144 pairs — the sf0.1 heavy-tail selfcheck caught it.
    The sparse production regime (16 planes × 8 tables, for
    thresholds ≥0.9 where the plane-agreement contrast is strong) is
    benchmarked separately in bench.py (``dedup_embedding_lsh_fast``)."""
    import ray.data as rd

    from pmocr_ray.ops.dedup import embedding_dedup_pairs_lsh

    return embedding_dedup_pairs_lsh(
        rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet")),
        threshold=0.45, n_planes=5, n_tables=64, max_bucket=1 << 20,
    ).select_columns(["a", "b"])


# injected-PII suffix shared by the Ray query and the oracle so the
# redaction pass has real matches to scrub on the synthetic corpus
def _inject_pii(t):
    import pyarrow as pa

    did = pc.cast(t["doc_id"], pa.string())
    mod = pc.cast(pa.array(np.mod(t["doc_id"].to_numpy(zero_copy_only=False),
                                  200)), pa.string())
    txt = pc.binary_join_element_wise(
        t["text"], " contact user", did, "@mail.example or 10.0.", mod,
        ".7 now", "")
    return pa.table({"doc_id": t["doc_id"], "text": txt})


def _q_redact_pii(sf_dir: str):
    from pmocr_ray.ops.text import redact_pii

    return (_docs(sf_dir).select_columns(["doc_id", "text"])
            .map_batches(_inject_pii, batch_format="pyarrow")
            .map_batches(redact_pii, batch_format="pyarrow")
            .select_columns(["doc_id", "text_redacted"]))


def _q_repetition_stats(sf_dir: str):
    from pmocr_ray.ops.text import repetition_stats

    return _docs(sf_dir).map_batches(repetition_stats, batch_format="pyarrow")


_STRAT_THRESHOLDS = {"en": "4", "de": "c"}  # keep ~25% en, ~75% de; rest all


def _q_stratified_sample(sf_dir: str):
    from pmocr_ray.ops.text import stratified_sample

    return stratified_sample(
        _docs(sf_dir), "lang", _STRAT_THRESHOLDS, key_column="text"
    ).select_columns(["doc_id", "lang"])


def _q_len_quantiles(sf_dir: str):
    from pmocr_ray.ops.text import length_quantiles

    return length_quantiles(_docs(sf_dir), column="n_chars",
                            qs=(0.5, 0.9, 0.99))


def _q_line_dedup(sf_dir: str):
    from pmocr_ray.ops.dedup import line_dedup

    return line_dedup(_docs(sf_dir).select_columns(["doc_id", "text"]),
                      width=10)


def _q_decontaminate(sf_dir: str):
    """Benchmark set = every 97th doc (a deterministic stand-in for an
    eval corpus); flag training docs sharing any 13-gram with it."""
    import pyarrow as pa

    from pmocr_ray.ops.dedup import benchmark_shingles, decontaminate

    def is_bench(t: pa.Table) -> pa.Table:
        mask = np.mod(t["doc_id"].to_numpy(zero_copy_only=False), 97) == 0
        return t.filter(pa.array(mask))

    docs = _docs(sf_dir).select_columns(["doc_id", "text"])
    shingles = benchmark_shingles(
        docs.map_batches(is_bench, batch_format="pyarrow"), n=13)
    return decontaminate(docs, shingles, n=13)


def _q_shard_counts(sf_dir: str):
    import ray.data as rd

    from pmocr_ray.ops.export import shard_counts

    pages_dir, _ = _pages(sf_dir)
    return shard_counts(rd.read_parquet(pages_dir, columns=["url"]),
                        key="url", n_shards=16)


def _q_chunk_tokens(sf_dir: str):
    """Sliding-window token chunking (window 64, stride 48): flat-map
    explode, numpy-indexed gather, ListArray+binary_join reassembly."""
    from pmocr_ray.ops.pack import chunk_tokens

    return chunk_tokens(_docs(sf_dir).select_columns(["doc_id", "text"]),
                        window=64, stride=48)


def _q_line_self_dedup(sf_dir: str):
    """Within-document line dedup over the derived multi-line view
    (newline every 8 words, same derivation as c4_filter)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from pmocr_ray.ops.dedup import line_self_dedup

    def derive_lines(t: pa.Table) -> pa.Table:
        t2 = pc.replace_substring_regex(
            t["text"], r"((?:\S+ ){7}\S+) ", "\\1\n")
        return pa.table({"doc_id": t["doc_id"], "text": t2})

    return line_self_dedup(
        _docs(sf_dir).select_columns(["doc_id", "text"])
        .map_batches(derive_lines, batch_format="pyarrow"))


def _q_split_assign(sf_dir: str):
    """Deterministic 80/10/10 train/val/test assignment by md5 bucket."""
    from pmocr_ray.ops.text import split_assign

    return split_assign(_docs(sf_dir).select_columns(["doc_id", "lang"]))


def _q_dup_spans(sf_dir: str):
    """Cross-document duplicate 8-gram span detection (word-level
    exact-substring dedup signal): per-doc distinct-gram totals and
    how many grams recur elsewhere in the corpus."""
    from pmocr_ray.ops.dedup import dup_span_stats

    return dup_span_stats(_docs(sf_dir).select_columns(["doc_id", "text"]),
                          n=8)


def _q_remove_dup_spans(sf_dir: str):
    """Exact duplicated-span removal (train-data substring dedup,
    word-window form): drop every duplicated 8-gram occurrence except
    its globally first one and rewrite each document's text without
    the covered words."""
    from pmocr_ray.ops.dedup import remove_dup_spans

    return remove_dup_spans(
        _docs(sf_dir).select_columns(["doc_id", "text"]), n=8)


def _q_event_transitions(sf_dir: str):
    """User-journey Markov rollup: (from_type, to_type, n) over each
    user's (ts, event_id)-ordered event sequence."""
    import ray.data as rd

    from pmocr_ray.ops.events import event_transitions

    return event_transitions(
        rd.read_parquet(os.path.join(sf_dir, "events.parquet")))


def _q_incremental_near_dedup(sf_dir: str):
    """Crawl-over-crawl near-dup dedup: new docs (doc_id % 5 != 0)
    kept only if no history doc (doc_id % 5 == 0) has word-shingle
    Jaccard >= 0.8 against them."""
    import pyarrow as pa

    from pmocr_ray.ops.dedup import incremental_minhash_dedup

    docs = _docs(sf_dir).select_columns(["doc_id", "lang", "text"])
    new = _sel(docs, ["doc_id", "lang", "text"],
               lambda t: pa.array(
                   t["doc_id"].to_numpy(zero_copy_only=False) % 5 != 0))
    hist = _sel(docs, ["doc_id", "text"],
                lambda t: pa.array(
                    t["doc_id"].to_numpy(zero_copy_only=False) % 5 == 0))
    return (incremental_minhash_dedup(new, hist, threshold=0.8)
            .select_columns(["doc_id", "lang"]))


def _q_clip_outliers(sf_dir: str):
    """Winsorize n_chars at exact p5/p95 (broadcast bounds, map-only)."""
    from pmocr_ray.ops.text import clip_outliers

    return clip_outliers(_docs(sf_dir).select_columns(
        ["doc_id", "n_chars"]))


def _q_bpe_pairs(sf_dir: str):
    """Top-50 adjacent char-pair frequencies weighted by word counts
    (the BPE first-merge statistic)."""
    from pmocr_ray.ops.text import bpe_pair_counts

    return bpe_pair_counts(_docs(sf_dir).select_columns(["text"]), k=50)


def _q_domain_reweight(sf_dir: str):
    """Uniform-mix rebalancing: per-group counts (tiny groupby) →
    broadcast integer thresholds → deterministic md5-bucket filter."""
    from pmocr_ray.ops.text import domain_reweight

    return domain_reweight(_docs(sf_dir).select_columns(["doc_id", "lang"]))


def _q_dsir_weights(sf_dir: str):
    """DSIR importance weights (Xie et al. 2023): hashed word-bigram
    features, target = lang='en' slice, Laplace-smoothed log-ratio
    score per document.  Text never shuffles; the ≤4096-row bucket
    rollup is the only driver materialization (the model), then
    broadcast for the map-side scoring pass."""
    from pmocr_ray.ops.text import dsir_weights

    return dsir_weights(_docs(sf_dir))


def _q_posting_lists(sf_dir: str):
    """Inverted-index export: exact df + first-20 posting list per
    term; per-batch capped candidates bound the shuffle at vocab×cap."""
    from pmocr_ray.ops.text import posting_lists

    return posting_lists(_docs(sf_dir).select_columns(["doc_id", "text"]))


def _q_gopher_quality(sf_dir: str):
    """Gopher-style document shape rules (arXiv:2112.11446 §A1.1) as a
    map-only vectorized Arrow stage; integer cross-multiplied
    thresholds so the verdict is exactly SQL-reproducible."""
    from pmocr_ray.ops.filters import gopher_quality

    return _docs(sf_dir).select_columns(["doc_id", "text"]).map_batches(
        gopher_quality, batch_format="pyarrow")


def _q_c4_filter(sf_dir: str):
    """C4-style line filter (arXiv:1910.10683 §2.2) over a derived
    multi-line view of the corpus (newline every 8 words — the raw
    fixture is single-line prose, so the strict terminal-punctuation
    rule would be degenerate; the line rule here keeps lines
    containing the token 'table' with ≥8 words).  Exercises the full
    machinery: split → per-line vectorized mask → ListArray rebuild →
    binary_join reassembly → doc verdict."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from pmocr_ray.ops.filters import c4_line_filter

    def derive_lines(t: pa.Table) -> pa.Table:
        t2 = pc.replace_substring_regex(
            t["text"], r"((?:\S+ ){7}\S+) ", "\\1\n")
        return pa.table({"doc_id": t["doc_id"], "text": t2})

    return (_docs(sf_dir).select_columns(["doc_id", "text"])
            .map_batches(derive_lines, batch_format="pyarrow")
            .map_batches(lambda t: c4_line_filter(
                t, line_keep_re=r"(?:^|[ \t])table(?:[ \t]|$)",
                min_line_words=8, min_kept_lines=2),
                batch_format="pyarrow"))


def _q_ntile_buckets(sf_dir: str):
    """Equal-frequency NTILE(8) bucketing over (n_chars, doc_id) order
    — distributed two-pass ordered scan, exact SQL NTILE semantics."""
    import ray.data as rd

    from pmocr_ray.ops.pack import ntile_buckets

    ds = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                         columns=["doc_id", "n_chars"])
    return ntile_buckets(ds, 8)


def _mod(arr, d: int):
    """Vectorized non-negative integer modulo (this pyarrow build ships
    no modulo kernel): x - (x // d) * d via integer divide."""
    return pc.subtract(arr, pc.multiply(pc.divide(arr, d), d))


def _q_collocations(sf_dir: str):
    """Adjacent-bigram collocations in the top-200 vocabulary: exact
    pair + unigram counts (broadcast-vocab combiner, one shuffle)."""
    from pmocr_ray.ops.text import collocation_pairs

    return collocation_pairs(_docs(sf_dir), vocab_k=200, min_count=2)


def _derive_snapshot_b(docs):
    """Deterministic snapshot B for the CDC diff: drop doc_id%7==0,
    revise text for doc_id%5==0, add +1e9-keyed rows for doc_id%11==0.
    Pure Arrow arithmetic so the oracle derives the same table in SQL."""
    import pyarrow as pa

    def mutate(t: pa.Table) -> pa.Table:
        did = t["doc_id"]
        keep = pc.not_equal(_mod(did, 7), 0)
        t = t.filter(keep)
        did = t["doc_id"]
        revised = pc.binary_join_element_wise(t["text"], " [rev2]", "")
        text = pc.if_else(pc.equal(_mod(did, 5), 0), revised, t["text"])
        return pa.table({"doc_id": did, "text": text})

    def added(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(_mod(t["doc_id"], 11), 0))
        new_id = pc.add(t["doc_id"], 1_000_000_000)
        text = pc.binary_join_element_wise(
            "new page ", pc.cast(t["doc_id"], pa.string()), "")
        return pa.table({"doc_id": new_id, "text": text})

    base = docs.select_columns(["doc_id", "text"])
    return (base.map_batches(mutate, batch_format="pyarrow")
            .union(base.map_batches(added, batch_format="pyarrow")))


def _q_snapshot_diff(sf_dir: str):
    """CDC diff A→B (added/removed/changed) via tagged union + one
    groupby — full-outer-join semantics without a join."""
    from pmocr_ray.ops.compact import snapshot_diff

    docs = _docs(sf_dir)
    return snapshot_diff(docs, _derive_snapshot_b(docs))


def _q_dup_cluster_hist(sf_dir: str):
    """Exact-duplicate cluster-size histogram over a corpus with
    injected duplicate buckets (doc_id%10<3 collapse to 50 contents)."""
    import pyarrow as pa

    from pmocr_ray.ops.dedup import dup_cluster_histogram

    def inject(t: pa.Table) -> pa.Table:
        dup = pc.binary_join_element_wise(
            "dup bucket ", pc.cast(_mod(t["doc_id"], 50), pa.string()),
            "")
        text = pc.if_else(pc.less(_mod(t["doc_id"], 10), 3),
                          dup, t["text"])
        return pa.table({"doc_id": t["doc_id"], "text": text})

    ds = _docs(sf_dir).select_columns(["doc_id", "text"]).map_batches(
        inject, batch_format="pyarrow")
    return dup_cluster_histogram(ds)


def _pagerank_edges(sf_dir: str):
    """Deterministic host-graph edge list from doc_id arithmetic
    (211-node graph, multi-edges collapsed): src = doc_id%211,
    dst = (13·doc_id+7)%211, self-loops dropped."""
    import pyarrow as pa

    def edges_fn(t: pa.Table) -> pa.Table:
        did = t["doc_id"]
        src = _mod(did, 211)
        dst = _mod(pc.add(pc.multiply(did, 13), 7), 211)
        tab = pa.table({"src": src, "dst": dst}).filter(
            pc.not_equal(src, dst))
        return tab.group_by(["src", "dst"]).aggregate([])  # local distinct

    from ray.data.aggregate import Count
    return (_vgb(_docs(sf_dir).select_columns(["doc_id"])
            .map_batches(edges_fn, batch_format="pyarrow"), ["src", "dst"], Count(alias_name="_n"))
            .select_columns(["src", "dst"]))


def _q_pagerank(sf_dir: str):
    """3-iteration fixed-point integer PageRank over the derived host
    graph — bit-identical to the unrolled SQL oracle."""
    from pmocr_ray.ops.graph import pagerank

    return pagerank(_pagerank_edges(sf_dir), iters=3)


def _q_host_blocklist(sf_dir: str):
    """Broadcast host-blocklist gate over the pages fixture: two exact
    hosts plus every host ending '3.example' are dropped."""
    import ray.data as rd

    from pmocr_ray.ops.filters import host_blocklist_filter

    pages_dir, _ = _pages(sf_dir)
    pages = rd.read_parquet(pages_dir, columns=["url", "lang"])
    kept = host_blocklist_filter(
        pages, exact={"site7.example", "site13.example"},
        suffixes=("3.example",))
    return kept.select_columns(["url", "lang"])


def _q_host_mirror(sf_dir: str):
    """Host pairs serving identical extracted content (mirror
    detection) over the done rows of the flagship output."""
    import pyarrow as pa

    from pmocr_ray.ops.dedup import host_mirror_pairs

    ds = _read_output(sf_dir)

    def done_only(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["status"], "done"))

    done = ds.map_batches(done_only, batch_format="pyarrow").select_columns(
        ["url", "extracted_text"])
    return host_mirror_pairs(done)


def _q_cheapest_supplier(sf_dir: str):
    """Per part: the supplier with the lowest total extended price
    (grouped argmin over a combiner rollup; ties break min suppkey).
    Reuses compact_latest as the generic exact per-key argmin."""
    import pyarrow as pa

    import ray.data as rd
    from ray.data.aggregate import Sum

    from pmocr_ray.ops.compact import compact_latest

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_partkey", "l_suppkey",
                                  "l_extendedprice"])

    def partial(t: pa.Table) -> pa.Table:
        cents = np.rint(np.asarray(
            t["l_extendedprice"].to_numpy(zero_copy_only=False)) * 100
        ).astype(np.int64)
        g = (pa.table({"p_partkey": t["l_partkey"],
                       "s_suppkey": t["l_suppkey"],
                       "total_cents": pa.array(cents)})
             .group_by(["p_partkey", "s_suppkey"])
             .aggregate([("total_cents", "sum")]))
        return pa.table({"p_partkey": g["p_partkey"],
                         "s_suppkey": g["s_suppkey"],
                         "total_cents": g["total_cents_sum"]})

    rollup = (_vgb(li.map_batches(partial, batch_format="pyarrow"), ["p_partkey", "s_suppkey"], Sum("total_cents", alias_name="total_cents")))
    best = compact_latest(rollup, key="p_partkey",
                          order_cols=["total_cents", "s_suppkey"],
                          descending=[False, False])
    return best.select_columns(["p_partkey", "s_suppkey", "total_cents"])


def _q_host_lang(sf_dir: str):
    """Dominant language per host (site-level language assignment):
    (host, lang) combiner rollup → compact_latest as grouped argmax
    (n_pages desc, lang asc)."""
    import pyarrow as pa

    import ray.data as rd
    from ray.data.aggregate import Sum

    from pmocr_ray.ops.compact import compact_latest

    pages_dir, _ = _pages(sf_dir)
    pages = rd.read_parquet(pages_dir, columns=["url", "lang"])

    def partial(t: pa.Table) -> pa.Table:
        host = pc.struct_field(
            pc.extract_regex(t["url"], r"^[a-z+]+://(?P<host>[^/]+)"),
            "host")
        g = (pa.table({"host": host, "lang": t["lang"]})
             .group_by(["host", "lang"]).aggregate([([], "count_all")]))
        return pa.table({"host": g["host"], "lang": g["lang"],
                         "n_pages": pc.cast(g["count_all"], pa.int64())})

    rollup = (_vgb(pages.map_batches(partial, batch_format="pyarrow"), ["host", "lang"], Sum("n_pages", alias_name="n_pages")))
    best = compact_latest(rollup, key="host",
                          order_cols=["n_pages", "lang"],
                          descending=[True, False])
    return best.select_columns(["host", "lang", "n_pages"])


def _q_url_canon_dedup(sf_dir: str):
    """Three deterministic crawl variants per page url (plain, utm
    tracking params, shouty-host + fragment) collapse to one canonical
    form each via strip_tracking_params — the canonical STRINGS are
    what the oracle hash checks."""
    import pyarrow as pa

    import ray.data as rd

    from pmocr_ray.ops.text import canonical_url_counts

    pages_dir, _ = _pages(sf_dir)
    pages = rd.read_parquet(pages_dir, columns=["url"])

    def variants(t: pa.Table) -> pa.Table:
        urls = t["url"].to_pylist()
        out = []
        for u in urls:
            scheme_host, _, rest = u.partition("/page/")
            out.append(u)
            out.append(u + "?utm_source=feed&utm_campaign=x")
            out.append(scheme_host.upper() + "/page/" + rest + "#frag")
        return pa.table({"url": pa.array(out, pa.string())})

    return canonical_url_counts(
        pages.map_batches(variants, batch_format="pyarrow"))


def _q_incremental_stats(sf_dir: str):
    """Incremental aggregate maintenance: the corpus arrives as two
    partitions (doc_id parity), each folded to an O(groups) rollup
    shard; the merged view equals the batch GROUP BY exactly."""
    import tempfile

    import pyarrow as pa

    from pmocr_ray.ops.compact import fold_rollup_shard, read_rollup

    docs = _docs(sf_dir).select_columns(["doc_id", "lang", "n_chars"])

    def half(keep_even: bool):
        def fn(t: pa.Table) -> pa.Table:
            even = pc.equal(_mod(t["doc_id"], 2), 0)
            return t.filter(even if keep_even else pc.invert(even))
        return fn

    state = tempfile.mkdtemp(prefix="pmocr_rollup_")
    fold_rollup_shard(docs.map_batches(half(True), batch_format="pyarrow"),
                      state, "even", group_col="lang",
                      sum_cols={"total_chars": "n_chars"})
    fold_rollup_shard(docs.map_batches(half(False), batch_format="pyarrow"),
                      state, "odd", group_col="lang",
                      sum_cols={"total_chars": "n_chars"})
    return read_rollup(state, group_col="lang")


def _q_embedding_dim_stats(sf_dir: str):
    import ray.data as rd

    from pmocr_ray.ops.knn import embedding_dim_stats

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["embedding"])
    return embedding_dim_stats(emb)


def _q_triangle_count(sf_dir: str):
    """Global triangle count of the derived host graph (degree-oriented
    wedge join — no hub explosion)."""
    import pandas as pd

    from pmocr_ray.ops.graph import triangle_count

    n = triangle_count(_pagerank_edges(sf_dir))
    return pd.DataFrame([{"n_triangles": int(n)}])


def _q_bucketed_join(sf_dir: str):
    """Shuffle-free bucketed storage join: orders and customer written
    hash-bucketed on the customer key ONCE, then joined bucket-by-
    bucket with no exchange; segment rollup after."""
    import tempfile

    import pyarrow as pa

    import ray.data as rd
    from ray.data.aggregate import Sum

    from pmocr_ray.ops.pack import bucketed_join, bucketed_write

    base = tempfile.mkdtemp(prefix="pmocr_buckets_")
    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_orderkey", "o_custkey"])
    customer = rd.read_parquet(os.path.join(sf_dir, "customer.parquet"),
                               columns=["c_custkey", "c_mktsegment"])
    da = bucketed_write(orders, os.path.join(base, "orders"),
                        key="o_custkey", n_buckets=8)
    db = bucketed_write(customer, os.path.join(base, "customer"),
                        key="c_custkey", n_buckets=8)
    joined = bucketed_join(da, db, key_a="o_custkey", key_b="c_custkey",
                           n_buckets=8)

    def partial(t: pa.Table) -> pa.Table:
        g = t.select(["c_mktsegment"]).group_by("c_mktsegment").aggregate(
            [([], "count_all")])
        return pa.table({"c_mktsegment": g["c_mktsegment"],
                         "n_orders": pc.cast(g["count_all"], pa.int64())})

    return (joined.map_batches(partial, batch_format="pyarrow")
            .groupby("c_mktsegment")
            .aggregate(Sum("n_orders", alias_name="n_orders")))


def _q_token_budget(sf_dir: str):
    from pmocr_ray.ops.pack import token_budget_trim

    docs = _docs(sf_dir).select_columns(["doc_id", "source", "n_chars"])
    out = token_budget_trim(docs, group_col="source",
                            weight_col="n_chars", key="doc_id",
                            budget=50_000)
    return out.select_columns(["doc_id", "source", "n_chars"])


def _q_host_churn(sf_dir: str):
    """Per-source churn rollup of the CDC diff: the small diff table
    hash-joins back to documents for the source dimension (added rows
    map via key − 10⁹), then one tiny (source, change) groupby."""
    import pyarrow as pa

    import ray.data as rd
    from ray.data.aggregate import Count

    from pmocr_ray.ops.compact import snapshot_diff

    docs = _docs(sf_dir)
    diff = snapshot_diff(docs, _derive_snapshot_b(docs))

    def base_key(t: pa.Table) -> pa.Table:
        did = pc.cast(t["doc_id"], pa.int64())
        base = pc.if_else(pc.greater_equal(did, 1_000_000_000),
                          pc.subtract(did, 1_000_000_000), did)
        return pa.table({"base_id": base, "change": t["change"]})

    keyed = diff.map_batches(base_key, batch_format="pyarrow")
    dims = docs.select_columns(["doc_id", "source"])
    j = keyed.join(dims, join_type="inner", num_partitions=1,
                   on=("base_id",), right_on=("doc_id",))
    return j.groupby(["source", "change"]).aggregate(
        Count(alias_name="n"))


def _q_table_extract(sf_dir: str):
    """Structured HTML-table extraction: deterministic 2×2 table per
    document (cells '{doc_id}-{r}-{c}'), exploded to cell rows — the
    oracle reconstructs the same grid arithmetically."""
    import pyarrow as pa

    from pmocr_ray.extract.table_extractor import table_cells

    def synth(t: pa.Table) -> pa.Table:
        htmls = []
        for d in t["doc_id"].to_pylist():
            rows = "".join(
                "<tr>" + "".join(f"<td> {d}-{r}-{c} </td>"
                                 for c in range(2)) + "</tr>"
                for r in range(2))
            htmls.append(f"<html><body><table>{rows}</table>"
                         f"<p>not a cell</p></body></html>")
        return pa.table({"doc_id": t["doc_id"],
                         "html": pa.array(htmls, pa.string())})

    ds = (_docs(sf_dir).select_columns(["doc_id"])
          .map_batches(synth, batch_format="pyarrow")
          .map_batches(table_cells, batch_format="pyarrow"))
    return ds


def _q_byte_blocks(sf_dir: str):
    from pmocr_ray.ops.pack import byte_balanced_blocks

    docs = _docs(sf_dir).select_columns(["doc_id", "n_chars"])
    return byte_balanced_blocks(docs, target_bytes=4096)


def _q_schema_evolve(sf_dir: str):
    """Two crawl snapshots with drifted schemas (old half lacks lang,
    new half adds crawl_tag) align and union; rollup by lang counts
    the null-lang legacy rows like the oracle's."""
    import pyarrow as pa

    from pmocr_ray.ops.joins import _key_array  # noqa: F401  (parity)
    from pmocr_ray.sources import align_schemas

    docs = _docs(sf_dir)

    def old_half(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(_mod(t["doc_id"], 2), 1))
        return t.select(["doc_id", "text"])  # legacy: no lang column

    def new_half(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(_mod(t["doc_id"], 2), 1))
        t = t.select(["doc_id", "text", "lang"])
        return t.append_column("crawl_tag",
                               pa.array(["c2"] * len(t), pa.string()))

    a = docs.map_batches(old_half, batch_format="pyarrow")
    b = docs.map_batches(new_half, batch_format="pyarrow")
    u = align_schemas([a, b])

    def rollup(t: pa.Table) -> pa.Table:
        lang = pc.fill_null(t["lang"], "<missing>")
        tag = pc.fill_null(t["crawl_tag"], "<none>")
        g = (pa.table({"lang": lang, "crawl_tag": tag})
             .group_by(["lang", "crawl_tag"])
             .aggregate([([], "count_all")]))
        return pa.table({"lang": g["lang"], "crawl_tag": g["crawl_tag"],
                         "n": pc.cast(g["count_all"], pa.int64())})

    from ray.data.aggregate import Sum
    return (u.map_batches(rollup, batch_format="pyarrow")
            .groupby(["lang", "crawl_tag"])
            .aggregate(Sum("n", alias_name="n")))


def _q_rare_term_pairs(sf_dir: str):
    """Doc pairs sharing a rare marker token (df ≤ 3 blocking — the
    rarity filter IS the bucket cap).  The marker modulus scales with
    the corpus (≈ df 3 at any sf): a fixed modulus made every marker
    common at sf0.1, leaving an empty result — and a zero-row Ray
    Dataset cannot carry a schema (from_arrow(empty).schema() is
    empty in this Ray version), so the result is also returned as a
    TYPED pandas frame with an explicit empty-schema fallback."""
    import math

    import pandas as pd
    import pyarrow as pa

    from pmocr_ray.ops.text import rare_term_pairs

    n_docs = _docs(sf_dir).count()
    mod_val = max(149, math.ceil(n_docs / 3))

    def add_marker(t: pa.Table) -> pa.Table:
        mk = pc.binary_join_element_wise(
            t["text"], pc.binary_join_element_wise(
                "mk", pc.cast(_mod(t["doc_id"], mod_val), pa.string()), ""),
            " ")
        return pa.table({"doc_id": t["doc_id"], "text": mk})

    ds = (_docs(sf_dir).select_columns(["doc_id", "text"])
          .map_batches(add_marker, batch_format="pyarrow"))
    df = rare_term_pairs(ds, max_df=3).to_pandas()
    if df.shape[1] == 0:  # Ray dropped the schema with the last row
        df = pd.DataFrame({"a": pd.Series(dtype="int64"),
                           "b": pd.Series(dtype="int64"),
                           "n_shared_terms": pd.Series(dtype="int64")})
    return df


def _q_priority_semi_native(sf_dir: str):
    """Semi join through Ray's native ``left_semi`` join (orders ⋉
    qualifying-orderkey set), checked against an EXISTS oracle.  The
    probe side is still reduced to distinct keys before the
    exchange."""
    import pyarrow as pa

    import ray.data as rd
    from ray.data.aggregate import Count

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_quantity"])

    def big_qty_keys(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["l_quantity"], 45.0))
        return t.select(["l_orderkey"]).group_by("l_orderkey").aggregate([])

    keys = (_vgb(li.map_batches(big_qty_keys, batch_format="pyarrow"), "l_orderkey", Count(alias_name="_n"))
            .select_columns(["l_orderkey"]))
    orders = rd.read_parquet(os.path.join(sf_dir, "orders.parquet"),
                             columns=["o_orderkey", "o_orderpriority"])
    j = orders.join(keys, join_type="left_semi", num_partitions=4,
                    on=("o_orderkey",), right_on=("l_orderkey",))
    return j.groupby("o_orderpriority").aggregate(
        Count(alias_name="n_orders"))


def _q_sentence_stats(sf_dir: str):
    """Vectorized sentence segmentation stats per doc: split on
    [.!?]+ runs, count non-blank sentences (Arrow kernels only)."""
    import pyarrow as pa

    def stats(t: pa.Table) -> pa.Table:
        # derive sentence boundaries deterministically (corpus text is
        # unpunctuated word salad): ' batch ' → '. ', same left-to-right
        # non-overlapping replace rule in Arrow and DuckDB
        text = pc.replace_substring(t["text"], " batch ", ". ")
        parts = pc.split_pattern_regex(text, r"[.!?]+")
        flat = pc.utf8_trim_whitespace(pc.list_flatten(parts))
        parent = pc.list_parent_indices(parts)
        keep = pc.not_equal(flat, "")
        counts = pa.table({
            "i": parent.filter(keep)}).group_by("i").aggregate(
            [([], "count_all")])
        n = np.zeros(len(t), np.int64)
        n[counts["i"].to_numpy(zero_copy_only=False)] = \
            counts["count_all"].to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": t["doc_id"],
                         "n_sentences": pa.array(n)})

    return (_docs(sf_dir).select_columns(["doc_id", "text"])
            .map_batches(stats, batch_format="pyarrow"))


def _q_basket_pairs(sf_dir: str):
    """Market-basket 2-itemsets: part pairs co-purchased in one order,
    support ≥ 3.  Distributed shape: global distinct of
    (orderkey, partkey) via one groupby, then a hash self-join on
    l_orderkey — pair emission stays within the basket (never
    cross-order), and support is one more small groupby.  No per-group
    Python dispatch; every step is a vectorized batch kernel."""
    import pyarrow as pa

    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    from pmocr_ray.ops.vecagg import distinct as _vec_distinct

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_orderkey", "l_partkey"])
    # order-item-scale distinct — Arrow-bucketed (see ops/vecagg.py)
    items = _vec_distinct(li, ["l_orderkey", "l_partkey"])
    items, parts = sized_for_join(items, cap=16)

    j = items.join(items, join_type="inner", num_partitions=parts,
                   on=("l_orderkey",), right_suffix="_r")

    def to_pairs(t: pa.Table) -> pa.Table:
        keep = pc.less(t["l_partkey"], t["l_partkey_r"])
        t = t.filter(keep)
        return pa.table({"p1": t["l_partkey"], "p2": t["l_partkey_r"],
                         "n": pa.array([1] * len(t), pa.int64())})

    from pmocr_ray.ops.vecagg import grouped_aggregate

    sup = grouped_aggregate(
        j.map_batches(to_pairs, batch_format="pyarrow"),
        ["p1", "p2"], [("n", "sum", "support")])
    return sup.map_batches(
        lambda t: t.filter(pc.greater_equal(t["support"], 3)),
        batch_format="pyarrow")


def _q_scd2_dim(sf_dir: str):
    """Slowly-changing-dimension type 2 build from the CDC diff: one
    versioned row per (doc, validity interval) under fixed version
    stamps v1/v2 — unchanged docs keep their open v1 row, changed docs
    close v1 and open v2, removed close v1, added open at v2."""
    import pyarrow as pa

    from pmocr_ray.ops.compact import snapshot_diff

    docs = _docs(sf_dir)
    diff = snapshot_diff(docs, _derive_snapshot_b(docs))

    def versions(t: pa.Table) -> pa.Table:
        did = pc.cast(t["doc_id"], pa.int64())
        ch = t["change"]
        added = pc.equal(ch, "added")
        removed = pc.equal(ch, "removed")
        changed = pc.equal(ch, "changed")
        rows_id, rows_from, rows_to = [], [], []
        for i in range(len(t)):
            d = did[i].as_py()
            if added[i].as_py():
                rows_id.append(d); rows_from.append("v2"); rows_to.append(None)
            elif removed[i].as_py():
                rows_id.append(d); rows_from.append("v1"); rows_to.append("v2")
            else:
                rows_id.append(d); rows_from.append("v1"); rows_to.append("v2")
                rows_id.append(d); rows_from.append("v2"); rows_to.append(None)
        return pa.table({"doc_id": pa.array(rows_id, pa.int64()),
                         "valid_from": pa.array(rows_from, pa.string()),
                         "valid_to": pa.array(rows_to, pa.string())})

    versioned = diff.map_batches(versions, batch_format="pyarrow")

    # unchanged docs: anti-join documents against the diff'd ids —
    # broadcast of the CHANGED id set only (diff ≪ corpus)
    changed_ids = pa.array(
        sorted(r["doc_id"] for r in
               diff.select_columns(["doc_id"]).take_all()), pa.int64())
    import ray as _ray
    ref = _ray.put(changed_ids)

    def open_rows(t: pa.Table) -> pa.Table:
        ids = _ray.get(ref)
        keep = pc.invert(pc.is_in(pc.cast(t["doc_id"], pa.int64()),
                                  value_set=ids))
        t = t.filter(pc.fill_null(keep, True))
        n = len(t)
        return pa.table({"doc_id": pc.cast(t["doc_id"], pa.int64()),
                         "valid_from": pa.array(["v1"] * n, pa.string()),
                         "valid_to": pa.nulls(n, pa.string())})

    unchanged = docs.select_columns(["doc_id"]).map_batches(
        open_rows, batch_format="pyarrow")
    return versioned.union(unchanged)


def _q_keep_best_dedup(sf_dir: str):
    """Canonical-document selection: per (lang, source) group keep the
    LONGEST doc, tie-broken by smallest doc_id.  Distributed argmax as
    two small shuffles and one hash join — group max first, join the
    max back, then min-id among the rows that hit the max.  No
    map_groups, no per-group Python dispatch."""
    import pyarrow as pa

    from ray.data.aggregate import Count, Max, Min

    import ray.data as rd

    docs = rd.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "lang", "source", "n_chars"])
    g = (docs.groupby(["lang", "source"])
         .aggregate(Max("n_chars", alias_name="best_len"),
                    Count(alias_name="n_docs")))
    parts = _pq_parts(sf_dir, "documents", cap=8)
    j = docs.join(g, join_type="inner", num_partitions=parts,
                  on=("lang", "source"))
    hits = j.map_batches(
        lambda t: t.filter(pc.equal(t["n_chars"], t["best_len"])),
        batch_format="pyarrow")
    return (hits.groupby(["lang", "source"])
            .aggregate(Min("doc_id", alias_name="keep_id"),
                       Max("best_len", alias_name="best_len"),
                       Max("n_docs", alias_name="n_docs")))


_DIVISION_TYPES = ("view", "click", "purchase")


def _q_users_all_types(sf_dir: str):
    """Relational division: users who performed EVERY event type in the
    target set.  Per-batch local distinct shrinks the shuffle to unique
    (user, type) pairs; division is then a count==|target| filter on a
    tiny per-user rollup — no joins, no per-user iteration."""
    import pyarrow as pa

    import ray.data as rd
    from ray.data.aggregate import Count

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_type"])
    want = pa.array(list(_DIVISION_TYPES))

    def local_distinct(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t["event_type"], value_set=want))
        return t.group_by(["user_id", "event_type"]).aggregate([])

    pairs = (_vgb(ev.map_batches(local_distinct, batch_format="pyarrow"), ["user_id", "event_type"], Count()))
    per_user = _vgb(pairs, "user_id", Count(alias_name="n_types"))
    return (per_user.map_batches(
        lambda t: t.filter(pc.equal(t["n_types"],
                                    len(_DIVISION_TYPES))),
        batch_format="pyarrow").select_columns(["user_id"]))


def _q_bfs_layers(sf_dir: str):
    """Iterative BFS from seed node 0 on the derived doc graph (same
    arithmetic edge rule as ``pagerank``), 3 expansion rounds.  Each
    round is one broadcast-frontier semi-join over the distributed edge
    set (frontier and visited sets are node-space-sized — the small
    side — never corpus-sized); layer = first-visit round, matching the
    recursive-CTE min(layer) semantics."""
    import pandas as pd
    import pyarrow as pa

    import ray.data as rd

    import ray as _ray

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id"])

    def to_edges(t: pa.Table) -> pa.Table:
        did = t["doc_id"]
        src = _mod(did, 211)
        dst = _mod(pc.add(pc.multiply(did, 13), 7), 211)
        tt = pa.table({"src": src, "dst": dst})
        tt = tt.filter(pc.not_equal(tt["src"], tt["dst"]))
        return tt.group_by(["src", "dst"]).aggregate([])

    edges = docs.map_batches(to_edges, batch_format="pyarrow")

    visited = {0: 0}
    frontier = frozenset([0])
    for layer in (1, 2, 3):
        if not frontier:
            break
        ref = _ray.put(frontier)

        def expand(t: pa.Table) -> pa.Table:
            f = _ray.get(ref)
            mask = pa.array([s in f for s in t["src"].to_numpy()])
            return t.filter(mask).select(["dst"])

        # reachable node set is graph-node-sized (the small rollup),
        # never corpus-sized — take_all is bounded by |nodes|
        reached = {int(r["dst"]) for r in
                   edges.map_batches(expand,
                                     batch_format="pyarrow").take_all()}
        frontier = frozenset(n for n in reached if n not in visited)
        for nd in frontier:
            visited[nd] = layer

    nodes = sorted(visited)
    return pd.DataFrame({
        "node": pd.Series(nodes, dtype="int64"),
        "layer": pd.Series([visited[n] for n in nodes], dtype="int64")})


def _q_diverse_top_docs(sf_dir: str):
    """Diversified top-k: the 20 longest documents with AT MOST 2 per
    source.  Per-batch local cap (top-2 per source inside the batch is
    a superset of the global per-source top-2 contribution), per-source
    groupby cap, then the tiny candidate set is ranked driver-side with
    explicit rank columns so ordering is hash-checkable."""
    import pandas as pd
    import pyarrow as pa

    import ray.data as rd

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "source", "n_chars"])

    def local_cap(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n_chars", "doc_id"],
                          ascending=[False, True]).head(2)
        return g

    def batch_cap(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        return pa.Table.from_pandas(
            df.sort_values(["n_chars", "doc_id"],
                           ascending=[False, True])
            .groupby("source", sort=False).head(2),
            preserve_index=False)

    capped = docs.map_batches(batch_cap, batch_format="pyarrow")
    per_source = capped.groupby("source").map_groups(
        local_cap, batch_format="pandas")
    cand = per_source.to_pandas()
    cand = cand.sort_values(["n_chars", "doc_id"],
                            ascending=[False, True])
    cand["rs"] = cand.groupby("source", sort=False).cumcount() + 1
    cand = cand.head(20).reset_index(drop=True)
    cand.insert(0, "rank",
                np.arange(1, len(cand) + 1, dtype=np.int64))
    cand["rs"] = cand["rs"].astype("int64")
    return cand[["rank", "doc_id", "source", "n_chars", "rs"]]


def _q_contamination_frac(sf_dir: str):
    """Train/test contamination scoring: per document, the exact
    fraction (ppm) of its word 3-grams that appear in the held-out set
    (docs with doc_id % 31 == 0).  The test-gram set is the SMALL side:
    distinct grams broadcast once via ray.put; the corpus pass is one
    map_batches membership count — the decontamination shape used on
    training corpora, with the overlap reported per doc instead of a
    hard drop."""
    import pyarrow as pa

    import ray.data as rd

    import ray as _ray

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "text"])

    def grams_of(text: str) -> list:
        ws = (text or "").split(" ")
        return [ws[i] + " " + ws[i + 1] + " " + ws[i + 2]
                for i in range(max(0, len(ws) - 2))]

    def test_grams(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(_mod(t["doc_id"], 31), 0))
        out = set()
        for txt in t["text"].to_pylist():
            out.update(grams_of(txt))
        return pa.table({"gram": pa.array(sorted(out), pa.string())})

    # held-out gram set: the small side — distinct grams, broadcast once
    tg = set()
    for r in docs.map_batches(test_grams,
                              batch_format="pyarrow").take_all():
        tg.add(r["gram"])
    ref = _ray.put(frozenset(tg))

    def score(t: pa.Table) -> pa.Table:
        ts = _ray.get(ref)
        ids, ngs, hits = [], [], []
        for did, txt in zip(t["doc_id"].to_pylist(),
                            t["text"].to_pylist()):
            gs = grams_of(txt)
            h = sum(1 for g in gs if g in ts)
            ids.append(did)
            ngs.append(len(gs))
            hits.append(h)
        ngs = np.array(ngs, np.int64)
        hits = np.array(hits, np.int64)
        frac = hits * 1_000_000 // np.maximum(ngs, 1)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "n_grams": pa.array(ngs, pa.int64()),
                         "n_hit": pa.array(hits, pa.int64()),
                         "frac_ppm": pa.array(frac, pa.int64())})

    return docs.map_batches(score, batch_format="pyarrow")


_CKSUM_P = 1_000_000_007


def _q_table_checksum(sf_dir: str):
    """Order-insensitive content checksums for integrity auditing:
    per table, row count plus Σ(md5_lower64(key||'|'||payload) mod p) —
    a pure combiner (per-batch residue sums, one scalar per batch), so
    two copies of a 100 TB table can be compared without moving either.
    md5 lower-64 matches DuckDB's md5_number_lower (little-endian bytes
    8..16)."""
    import hashlib

    import pandas as pd
    import pyarrow as pa

    import ray.data as rd

    def cksum(path: str, fmt) -> tuple:
        ds = rd.read_parquet(os.path.join(sf_dir, path))

        def partial(t: pa.Table) -> pa.Table:
            acc = 0
            n = len(t)
            for row in fmt(t):
                h = hashlib.md5(row.encode("utf-8")).digest()
                acc += int.from_bytes(h[8:], "little") % _CKSUM_P
            return pa.table({"s": pa.array([acc], pa.int64()),
                             "n": pa.array([n], pa.int64())})

        parts = ds.map_batches(partial, batch_format="pyarrow").take_all()
        return (sum(r["n"] for r in parts), sum(r["s"] for r in parts))

    def fmt_docs(t: pa.Table):
        for d, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            yield f"{d}|{x}"

    def fmt_nation(t: pa.Table):
        for k, nm in zip(t["n_nationkey"].to_pylist(),
                         t["n_name"].to_pylist()):
            yield f"{k}|{nm}"

    rows = [("documents", *cksum("documents.parquet", fmt_docs)),
            ("nation", *cksum("nation.parquet", fmt_nation))]
    return pd.DataFrame({
        "table_name": pd.Series([r[0] for r in rows], dtype=object),
        "n_rows": pd.Series([r[1] for r in rows], dtype="int64"),
        "checksum": pd.Series([r[2] for r in rows], dtype="int64")})


def _q_cube_rollup(sf_dir: str):
    """CUBE over (lang, source): all four grouping sets.  The finest
    rollup is computed ONCE distributed; the coarser sets re-aggregate
    that tiny table driver-side — the standard way to serve a CUBE
    without shuffling the corpus four times."""
    import pandas as pd

    import ray.data as rd
    from ray.data.aggregate import Count

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["lang", "source"])
    fine = (docs.groupby(["lang", "source"])
            .aggregate(Count(alias_name="n")).to_pandas())
    fine["n"] = fine["n"].astype("int64")
    by_lang = fine.groupby("lang", as_index=False)["n"].sum()
    by_lang["source"] = None
    by_source = fine.groupby("source", as_index=False)["n"].sum()
    by_source["lang"] = None
    total = pd.DataFrame({"lang": [None], "source": [None],
                          "n": [int(fine["n"].sum())]})
    out = pd.concat([fine, by_lang, by_source, total],
                    ignore_index=True)[["lang", "source", "n"]]
    out["n"] = out["n"].astype("int64")
    return out


_TYPE_BITS = {"view": 0, "click": 1, "purchase": 2, "signup": 3,
              "error": 4}


def _q_doc_len_pct_in_lang(sf_dir: str):
    """Grouped CDF assignment: each document's exact within-language
    length percentile, as (count of strictly shorter docs)·1e6 // n.
    The per-lang value rollup (distinct lengths + counts) is the SMALL
    side, broadcast once; assignment is a vectorized searchsorted per
    batch — no per-row window function over the corpus."""
    import pyarrow as pa

    import ray.data as rd
    from ray.data.aggregate import Sum

    import ray as _ray

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "lang", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        tt = pa.table({"lang": t["lang"], "v": t["n_chars"],
                       "n": pa.array(np.ones(len(t), np.int64))})
        g = tt.group_by(["lang", "v"]).aggregate([("n", "sum")])
        return pa.table({"lang": g["lang"], "v": g["v"],
                         "n": g["n_sum"]})

    rollup = (_vgb(docs.map_batches(partial, batch_format="pyarrow"), ["lang", "v"], Sum("n", alias_name="n"))
              .to_pandas())
    cdf = {}
    for lang, g in rollup.groupby("lang"):
        g = g.sort_values("v")
        vals = g["v"].to_numpy(dtype=np.int64)
        counts = g["n"].to_numpy(dtype=np.int64)
        cum = np.concatenate(([0], counts.cumsum()))
        cdf[lang] = (vals, cum[:-1], int(cum[-1]))
    ref = _ray.put(cdf)

    def assign(t: pa.Table) -> pa.Table:
        m = _ray.get(ref)
        out = np.empty(len(t), np.int64)
        langs = np.asarray(t["lang"].to_pylist())
        v = t["n_chars"].to_numpy()
        for lang in np.unique(langs):
            vals, below, total = m[lang]
            idx = langs == lang
            pos = np.searchsorted(vals, v[idx], side="left")
            out[idx] = below[pos] * 1_000_000 // total
        return pa.table({"doc_id": t["doc_id"], "lang": t["lang"],
                         "n_chars": t["n_chars"],
                         "pct_ppm": pa.array(out, pa.int64())})

    return docs.map_batches(assign, batch_format="pyarrow")


def _q_ks_lang_len(sf_dir: str):
    """Distributed two-sample Kolmogorov–Smirnov statistic: max CDF
    gap between the length distribution of lang='en' documents and all
    others, exact in cross-multiplied integers (no float CDF).  The
    shuffle moves only (value, n_en, n_other) rollup triples; the
    cumulative scan runs driver-side over the tiny distinct-value
    support."""
    import pandas as pd
    import pyarrow as pa

    import ray.data as rd
    from ray.data.aggregate import Sum

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["lang", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        e = pc.cast(pc.equal(t["lang"], "en"), pa.int64())
        tt = pa.table({"v": t["n_chars"], "ne": e,
                       "no": pc.subtract(pa.scalar(1, pa.int64()), e)})
        g = tt.group_by("v").aggregate([("ne", "sum"), ("no", "sum")])
        return pa.table({"v": g["v"], "ne": g["ne_sum"],
                         "no": g["no_sum"]})

    rollup = (_vgb(docs.map_batches(partial, batch_format="pyarrow"), "v", Sum("ne", alias_name="ne"), Sum("no", alias_name="no"))
              .to_pandas().sort_values("v"))
    cne = rollup["ne"].to_numpy(dtype=np.int64).cumsum()
    cno = rollup["no"].to_numpy(dtype=np.int64).cumsum()
    n_en, n_other = int(cne[-1]), int(cno[-1])
    d_num = int(np.max(np.abs(cne * n_other - cno * n_en)))
    return pd.DataFrame({
        "n_en": [n_en], "n_other": [n_other], "d_num": [d_num],
        "ks_ppm": [d_num * 1_000_000 // (n_en * n_other)]}).astype("int64")


def _q_weighted_median_price(sf_dir: str):
    """Grouped *weighted* median: per returnflag, the smallest price
    (cents) whose cumulative quantity weight reaches half the group
    total.  Holistic aggregate made distributive: the all-to-all moves
    only (group, value, weight-sum) triples over the bounded price
    domain; the per-group cumulative scan is driver-side over distinct
    values only."""
    import pandas as pd
    import pyarrow as pa

    import ray.data as rd
    from ray.data.aggregate import Sum

    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_returnflag", "l_extendedprice",
                                  "l_quantity"])

    def partial(t: pa.Table) -> pa.Table:
        v = np.rint(np.asarray(
            t["l_extendedprice"].to_numpy(zero_copy_only=False)) * 100
        ).astype(np.int64)
        w = np.rint(np.asarray(
            t["l_quantity"].to_numpy(zero_copy_only=False))
        ).astype(np.int64)
        tt = pa.table({"grp": t["l_returnflag"],
                       "v": pa.array(v, pa.int64()),
                       "w": pa.array(w, pa.int64())})
        g = tt.group_by(["grp", "v"]).aggregate([("w", "sum")])
        return pa.table({"grp": g["grp"], "v": g["v"], "w": g["w_sum"]})

    rollup = (_vgb(li.map_batches(partial, batch_format="pyarrow"), ["grp", "v"], Sum("w", alias_name="w"))
              .to_pandas())
    out_g, out_v = [], []
    for grp, g in rollup.groupby("grp"):
        g = g.sort_values("v")
        w = g["w"].to_numpy(dtype=np.int64)
        cw = w.cumsum()
        tot = cw[-1]
        idx = int(np.searchsorted(cw * 2, tot, side="left"))
        out_g.append(grp)
        out_v.append(int(g["v"].to_numpy(dtype=np.int64)[idx]))
    return pd.DataFrame({"l_returnflag": out_g,
                         "wmedian_cents": pd.array(out_v,
                                                   dtype="int64")})


def _q_vocab_overlap(sf_dir: str):
    """Exact pairwise vocabulary Jaccard between languages.  The
    corpus-sized explode dedups (lang, term) per batch before any
    shuffle; the two term-keyed shuffles move only vocab-sized pairs
    (never document text), and the pairwise math collapses to a
    ≤2^L-row *lang-bitmask histogram* — no vocab×vocab join anywhere."""
    import pandas as pd
    import pyarrow as pa

    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["lang", "text"])
    langs = sorted(
        rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                        columns=["lang"])
        .groupby("lang").count().to_pandas()["lang"])
    bit = {l: 1 << i for i, l in enumerate(langs)}

    def explode(t: pa.Table) -> pa.Table:
        # vectorized: arrow split (\s+ split == \S+ findall minus the
        # empties) + parent-index lang-bit gather + local arrow distinct
        toks = pc.split_pattern_regex(pc.fill_null(t["text"], ""), r"\s+")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        mask = pc.not_equal(flat, "")
        flat, parent = flat.filter(mask), parent.filter(mask)
        lang_bits = np.array([bit[l] for l in t["lang"].to_pylist()],
                             np.int64)
        b = lang_bits[parent.to_numpy(zero_copy_only=False)]
        tab = pa.table({"term": flat, "b": pa.array(b, pa.int64())})
        return tab.group_by(["term", "b"]).aggregate([])

    from pmocr_ray.ops.vecagg import distinct as _vec_distinct
    from pmocr_ray.ops.vecagg import grouped_aggregate

    # distinct (term, lang-bit) globally, then OR bits per term: after
    # the distinct, each (term, bit) is unique, so Sum == bitwise OR;
    # term groups are VOCAB-scale — Arrow-bucketed merge
    distinct = _vec_distinct(
        docs.map_batches(explode, batch_format="pyarrow"), ["term", "b"])
    masks = grouped_aggregate(distinct, ["term"],
                              [("b", "sum", "mask")])

    def hist(t: pa.Table) -> pa.Table:
        tt = pa.table({"mask": t["mask"],
                       "n": pa.array(np.ones(len(t), np.int64))})
        g = tt.group_by("mask").aggregate([("n", "sum")])
        return pa.table({"mask": g["mask"], "n": g["n_sum"]})

    h = (masks.map_batches(hist, batch_format="pyarrow")
         .groupby("mask").aggregate(Sum("n", alias_name="n")).to_pandas())
    mask_n = dict(zip(h["mask"].astype("int64"), h["n"].astype("int64")))
    size = {l: sum(n for m, n in mask_n.items() if m & bit[l])
            for l in langs}
    rows = []
    for i, a in enumerate(langs):
        for bl in langs[i + 1:]:
            common = sum(n for m, n in mask_n.items()
                         if (m & bit[a]) and (m & bit[bl]))
            if common == 0:
                continue
            union = size[a] + size[bl] - common
            rows.append((a, bl, size[a], size[bl], common,
                         common * 1_000_000 // union))
    out = pd.DataFrame(rows, columns=["lang_a", "lang_b", "n_a", "n_b",
                                      "n_common", "jaccard_ppm"])
    for c in ["n_a", "n_b", "n_common", "jaccard_ppm"]:
        out[c] = out[c].astype("int64")
    return out


def _q_emb_norm_outliers(sf_dir: str):
    """Robust outlier flagging on a vector column, bit-exact across
    engines: each embedding is quantized q = floor(x·2²⁰) (scaling by
    a power of two is EXACT in IEEE double, floor has no tie rule —
    no round() half-even/half-away divergence), the squared norm is an
    exact int64 sum, and median/MAD come from the same strict
    2·cum ≥ n walk used by weighted_median.  One materialized
    (vec_id, norm) table feeds both the value-counts rollup and the
    flag pass; the driver walk is over distinct norms (swap in
    fixed-width bins at 10⁹ vectors)."""
    import pyarrow as pa

    import ray.data as rd
    from ray.data.aggregate import Sum

    import ray

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "embedding"])

    def norms(t: pa.Table) -> pa.Table:
        col = t["embedding"].combine_chunks()
        flat = np.asarray(col.values, dtype=np.float64)
        d = len(flat) // len(t)
        q = np.floor(flat * 1048576.0).astype(np.int64).reshape(len(t), d)
        s = (q * q).sum(axis=1)
        return pa.table({"vec_id": t["vec_id"],
                         "norm_q2": pa.array(s, pa.int64())})

    nt = emb.map_batches(norms, batch_format="pyarrow").materialize()

    def rollup(t: pa.Table) -> pa.Table:
        tt = pa.table({"v": t["norm_q2"],
                       "n": pa.array(np.ones(len(t), np.int64))})
        g = tt.group_by("v").aggregate([("n", "sum")])
        return pa.table({"v": g["v"], "n": g["n_sum"]})

    def strict_median(df) -> int:
        df = df.sort_values("v")
        w = df["n"].to_numpy(dtype=np.int64)
        cw = w.cumsum()
        idx = int(np.searchsorted(cw * 2, cw[-1], side="left"))
        return int(df["v"].to_numpy(dtype=np.int64)[idx])

    vals = (_vgb(nt.map_batches(rollup, batch_format="pyarrow"), "v", Sum("n", alias_name="n")).to_pandas())
    med = strict_median(vals)
    vals["v"] = (vals["v"].astype("int64") - med).abs()
    mad = strict_median(vals.groupby("v", as_index=False)["n"].sum())
    lim_ref = ray.put((med, 3 * mad))

    def flag(t: pa.Table) -> pa.Table:
        med_, lim = ray.get(lim_ref)
        s = t["norm_q2"].to_numpy()
        out = (np.abs(s - med_) > lim).astype(np.int64)
        return pa.table({"vec_id": t["vec_id"], "norm_q2": t["norm_q2"],
                         "is_outlier": pa.array(out, pa.int64())})

    return nt.map_batches(flag, batch_format="pyarrow")


def _q_rank_fusion(sf_dir: str):
    """Reciprocal-rank fusion of two document rankings (by length and
    by a quality proxy), integer-exact: score = Σ 10⁹//(60+rank).
    Each ranking is assigned distributively via the broadcast-CDF
    trick — rank = strictly-below count on the (value, doc_id) pair,
    no global sort of the corpus — then one map pass fuses and a
    sort().limit(k) returns the top 20."""
    import pyarrow as pa

    import ray.data as rd
    from ray.data.aggregate import Sum

    import ray

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "n_chars", "text"])

    def with_quality(t: pa.Table) -> pa.Table:
        # quality proxy: words per 100 chars (int), deterministic
        words = pc.list_value_length(
            pc.split_pattern_regex(pc.coalesce(t["text"], ""), r"\s+"))
        n = pc.max_element_wise(t["n_chars"], 1)
        q = pc.divide(pc.multiply(pc.cast(words, pa.int64()), 100),
                      pc.cast(n, pa.int64()))
        return pa.table({"doc_id": t["doc_id"],
                         "len_v": pc.cast(t["n_chars"], pa.int64()),
                         "q_v": q})

    scored = docs.map_batches(with_quality,
                              batch_format="pyarrow").materialize()

    def dim_cdf(dim: str):
        def partial(t: pa.Table) -> pa.Table:
            tt = pa.table({"v": t[dim],
                           "n": pa.array(np.ones(len(t), np.int64))})
            g = tt.group_by("v").aggregate([("n", "sum")])
            return pa.table({"v": g["v"], "n": g["n_sum"]})

        df = (_vgb(scored.map_batches(partial, batch_format="pyarrow"), "v", Sum("n", alias_name="n"))
              .to_pandas().sort_values("v"))
        vals = df["v"].to_numpy(dtype=np.int64)
        cum = np.concatenate(([0], df["n"].to_numpy(np.int64).cumsum()))
        return vals, cum[:-1], int(cum[-1])

    cdf_ref = ray.put({d: dim_cdf(d) for d in ("len_v", "q_v")})

    def fuse(t: pa.Table) -> pa.Table:
        cdfs = ray.get(cdf_ref)
        score = np.zeros(len(t), np.int64)
        for dim in ("len_v", "q_v"):
            vals, below, total = cdfs[dim]
            v = t[dim].to_numpy()
            # rank 1 = best (largest value); ties share the best rank
            # of the tied block: rank = (# strictly greater) + 1
            pos = np.searchsorted(vals, v, side="right")
            count_le = np.concatenate((below, [total]))[pos]
            rank = total - count_le + 1
            score += 1_000_000_000 // (60 + rank)
        return pa.table({"doc_id": t["doc_id"],
                         "rrf_score": pa.array(score, pa.int64())})

    return (scored.map_batches(fuse, batch_format="pyarrow")
            .sort(["rrf_score", "doc_id"], descending=[True, False])
            .limit(20))


def _q_contingency_chi2(sf_dir: str):
    """Independence audit of the (lang, source) contingency table with
    a floor-exact scaled χ²: per cell the standardized-residual
    numerator (o·N − r·c) and the cell term
    (|resid| // N)² // max(r·c // N, 1) — residual pre-scaled by N so
    the square stays bounded by N² (resid² itself would overflow int64
    past ~10⁹ documents); abs() keeps every division non-negative,
    where DuckDB's truncating // and numpy's flooring // agree, so the
    statistic is integer-reproducible.  One tiny groupby builds the
    table; margins and terms are driver-side arithmetic over the L×S
    cells."""
    import pandas as pd
    import pyarrow as pa

    import ray.data as rd
    from ray.data.aggregate import Sum

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["lang", "source"])

    def partial(t: pa.Table) -> pa.Table:
        tt = pa.table({"lang": t["lang"], "source": t["source"],
                       "n": pa.array(np.ones(len(t), np.int64))})
        g = tt.group_by(["lang", "source"]).aggregate([("n", "sum")])
        return pa.table({"lang": g["lang"], "source": g["source"],
                         "n": g["n_sum"]})

    cells = (docs.map_batches(partial, batch_format="pyarrow")
             .groupby(["lang", "source"])
             .aggregate(Sum("n", alias_name="n")).to_pandas())
    cells["n"] = cells["n"].astype("int64")
    N = int(cells["n"].sum())
    r = cells.groupby("lang")["n"].sum().to_dict()
    c = cells.groupby("source")["n"].sum().to_dict()
    out = cells.copy()
    rc = out["lang"].map(r).astype("int64") * \
        out["source"].map(c).astype("int64")
    resid = out["n"] * N - rc
    out["resid_num"] = resid.astype("int64")
    sr = resid.abs() // N
    denom = np.maximum(rc // N, 1)
    out["chi2_term"] = ((sr * sr) // denom).astype("int64")
    return out[["lang", "source", "n", "resid_num", "chi2_term"]] \
        .reset_index(drop=True)


def _q_top_supplier_rev(sf_dir: str):
    """TPC-H Q15 shape: supplier(s) with the maximum revenue over a
    ship-date window, tie-safe.  Per-batch combiner shrinks lineitem to
    (suppkey, rev) partials, one small groupby builds the per-supplier
    rollup, a scalar ``max`` aggregate finds the bar, and only the
    winning row(s) reach the driver — never the rollup, never the
    fact table.  Names resolved from a broadcast supplier dimension."""
    import pandas as pd
    import pyarrow as pa

    import ray.data as rd
    from ray.data.aggregate import Sum

    LO = np.datetime64("1996-01-01")
    HI = np.datetime64("1996-04-01")
    li = rd.read_parquet(os.path.join(sf_dir, "lineitem.parquet"),
                         columns=["l_suppkey", "l_shipdate",
                                  "l_extendedprice", "l_discount"])

    def partial(t: pa.Table) -> pa.Table:
        ship = np.asarray(t["l_shipdate"].to_numpy(zero_copy_only=False),
                          "datetime64[us]")
        m = (ship >= LO) & (ship < HI)
        ext = np.rint(np.asarray(
            t["l_extendedprice"].to_numpy(zero_copy_only=False)) * 100
        ).astype(np.int64)[m]
        disc = np.rint(np.asarray(
            t["l_discount"].to_numpy(zero_copy_only=False)) * 100
        ).astype(np.int64)[m]
        supp = np.asarray(t["l_suppkey"].to_numpy(zero_copy_only=False),
                          np.int64)[m]
        tt = pa.table({"s_suppkey": pa.array(supp, pa.int64()),
                       "rev": pa.array(ext * (100 - disc), pa.int64())})
        g = tt.group_by("s_suppkey").aggregate([("rev", "sum")])
        return pa.table({"s_suppkey": g["s_suppkey"], "rev": g["rev_sum"]})

    per_supp = (_vgb(li.map_batches(partial, batch_format="pyarrow"), "s_suppkey", Sum("rev", alias_name="total_rev_e4")))
    bar = per_supp.max("total_rev_e4")

    def winners(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t["total_rev_e4"],
                                 pa.scalar(int(bar), pa.int64())))

    top = per_supp.map_batches(winners,
                               batch_format="pyarrow").to_pandas()
    sup = pq.read_table(os.path.join(sf_dir, "supplier.parquet"),
                        columns=["s_suppkey", "s_name"])
    names = dict(zip(sup["s_suppkey"].to_pylist(),
                     sup["s_name"].to_pylist()))
    top["s_name"] = top["s_suppkey"].map(names)
    top = top[["s_suppkey", "s_name", "total_rev_e4"]]
    return top.astype({"s_suppkey": "int64", "total_rev_e4": "int64"}) \
        .reset_index(drop=True)


def _q_outlinks(sf_dir: str):
    """Outlink-graph extraction from raw HTML payloads — the web-native
    companion to the content extractor: every page's anchors are pulled
    with one compiled ``href`` regex over the raw bytes (engine-kernel
    class: per-row parse, columnar everywhere else), counted per batch
    into a tiny (target, n) combiner table, and rolled up to one row
    per link target.  PDF and poison payloads contain no anchors by
    construction, so no routing branch is needed — the kernel is total
    over the page universe."""
    import collections
    import re

    import pyarrow as pa
    import ray.data as rd
    from ray.data.aggregate import Sum

    pages_dir, _ = _pages(sf_dir)
    ds = rd.read_parquet(pages_dir, columns=["html"])
    href = re.compile(rb'href="([^"]*)"')

    def links(t: pa.Table) -> pa.Table:
        ctr: collections.Counter = collections.Counter()
        for payload in t["html"].to_pylist():
            ctr.update(href.findall(payload or b""))
        return pa.table({
            "target": pa.array([k.decode("utf-8") for k in ctr],
                               pa.string()),
            "n_links": pa.array([int(v) for v in ctr.values()],
                                pa.int64()),
        })

    return (ds.map_batches(links, batch_format="pyarrow")
            .groupby("target")
            .aggregate(Sum("n_links", alias_name="n_links")))


def _q_seq_pattern(sf_dir: str):
    """MATCH_RECOGNIZE-shape sequence pattern matching: each user's
    event history becomes a compact symbol string (type initials in
    (ts, event_id) order — the deterministic tie-break both engines
    share), and a compiled regex counts non-overlapping ``vc*p``
    funnels (view, any clicks, purchase) per user.  Hash-partitioned
    ``groupby(user).map_groups`` — each group is one user's bounded
    history; the regex kernel is O(|seq|) per user."""
    import re

    import pandas as pd
    import ray.data as rd

    pat = re.compile("vc*p")
    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts", "event_id",
                                  "event_type"])

    from pmocr_ray.ops.events import _user_bucketed

    def seq_bucket(df: pd.DataFrame) -> pd.DataFrame:
        import pyarrow as _pa
        import pyarrow.compute as _pc

        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort")
        usr = df["user_id"].to_numpy()
        sym = df["event_type"].str[0].to_numpy()
        starts = np.flatnonzero(np.concatenate([[True],
                                                usr[1:] != usr[:-1]]))
        offsets = np.concatenate([starts, [len(usr)]]).astype(np.int64)
        la = _pa.LargeListArray.from_arrays(
            _pa.array(offsets, _pa.int64()), _pa.array(sym, _pa.string()))
        seqs = _pc.binary_join(la, "").to_pylist()
        # the regex kernel stays per USER (bounded history), the only
        # inherently scalar step
        return pd.DataFrame({
            "user_id": usr[starts].astype("int64"),
            "seq": seqs,
            "n_hits": [len(pat.findall(q)) for q in seqs],
        })

    out = _user_bucketed(ev, seq_bucket).to_pandas()
    return out.astype({"user_id": "int64", "n_hits": "int64"}) \
        .sort_values("user_id").reset_index(drop=True)


def _q_grouped_regression(sf_dir: str):
    """Per-group OLS via sufficient statistics: for each lang, the
    slope of chars-vs-tokens published as the exact integer pair
    (n·Σxy − Σx·Σy, n·Σx² − (Σx)²) — the consumer divides.  Each batch
    folds to ≤|langs| rows of 5 int64 moments (combiner) before one
    tiny groupby; nothing float crosses the shuffle, so the result is
    bit-reproducible under any partitioning."""
    import pandas as pd
    import pyarrow as pa

    import ray.data as rd
    from ray.data.aggregate import Sum

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["lang", "text"])

    def moments(t: pa.Table) -> pa.Table:
        # null text → 0-moment contribution, identical to SQL's
        # null-skipping sum (adding zero) while count(*) still counts
        txt = pc.fill_null(t["text"], "")
        x = pc.count_substring_regex(txt, r"\S+").cast(pa.int64())
        y = pc.utf8_length(txt).cast(pa.int64())
        xn = np.asarray(x.to_numpy(zero_copy_only=False), np.int64)
        yn = np.asarray(y.to_numpy(zero_copy_only=False), np.int64)
        tt = pa.table({"lang": t["lang"],
                       "n": pa.array(np.ones(len(t), np.int64)),
                       "sx": pa.array(xn), "sy": pa.array(yn),
                       "sxy": pa.array(xn * yn), "sxx": pa.array(xn * xn)})
        g = tt.group_by("lang").aggregate(
            [("n", "sum"), ("sx", "sum"), ("sy", "sum"),
             ("sxy", "sum"), ("sxx", "sum")])
        return g.rename_columns(["lang", "n", "sx", "sy", "sxy", "sxx"])

    agg = (docs.map_batches(moments, batch_format="pyarrow")
           .groupby("lang")
           .aggregate(Sum("n", alias_name="n"), Sum("sx", alias_name="sx"),
                      Sum("sy", alias_name="sy"),
                      Sum("sxy", alias_name="sxy"),
                      Sum("sxx", alias_name="sxx"))
           .to_pandas())
    agg["slope_num"] = agg["n"] * agg["sxy"] - agg["sx"] * agg["sy"]
    agg["slope_den"] = agg["n"] * agg["sxx"] - agg["sx"] * agg["sx"]
    out = agg[["lang", "n", "slope_num", "slope_den"]].astype(
        {"n": "int64", "slope_num": "int64", "slope_den": "int64"})
    return out.sort_values("lang").reset_index(drop=True)


def _q_csv_roundtrip(sf_dir: str):
    """CSV source + sink coverage: the metadata projection of the
    corpus is written as sharded CSV (one file per block — the same
    resumable-partition discipline as the parquet sinks), read back
    with the CSV source, and rolled up per lang.  Quoting-safe by
    construction (int/short-string columns only); the oracle aggregates
    the same projection straight from parquet, so a roundtrip fault
    (type coercion, header loss, row drop) breaks the hash."""
    import shutil

    import ray.data as rd
    from ray.data.aggregate import Sum

    out = os.path.join("/tmp/pmocr_ray_csv",
                       os.path.basename(os.path.normpath(sf_dir)))
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out, exist_ok=True)
    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "lang", "n_chars"])
    docs.write_csv(out)
    back = rd.read_csv(out)

    import pyarrow as pa

    def partial(t: pa.Table) -> pa.Table:
        tt = pa.table({"lang": t["lang"],
                       "n_docs": pa.array(np.ones(len(t), np.int64)),
                       "sum_chars": pc.cast(t["n_chars"], pa.int64())})
        g = tt.group_by("lang").aggregate(
            [("n_docs", "sum"), ("sum_chars", "sum")])
        return g.rename_columns(["lang", "n_docs", "sum_chars"])

    return (back.map_batches(partial, batch_format="pyarrow")
            .groupby("lang")
            .aggregate(Sum("n_docs", alias_name="n_docs"),
                       Sum("sum_chars", alias_name="sum_chars")))


def _q_lang_profiles(sf_dir: str):
    """Distributed n-gram model training: per-lang char-bigram count
    profiles (top 10, deterministic (-count, bigram) tie-break, rank
    emitted as a value column).  The counting kernel is fully
    vectorized — each batch concatenates one lang's texts with a NUL
    separator, views the bytes as uint8, forms bigram codes with one
    multiply-add, and ``bincount``s them; only (lang, code, n) partials
    cross the shuffle (≤65k rows per lang per batch, typically ~10³).
    Corpus texts are ASCII so byte bigrams equal the oracle's char
    bigrams."""
    import pandas as pd
    import pyarrow as pa

    import ray.data as rd
    from ray.data.aggregate import Sum

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["lang", "text"])

    def count_bigrams(t: pa.Table) -> pa.Table:
        langs_out, codes_out, ns_out = [], [], []
        langs = t["lang"].to_pylist()
        texts = t["text"].to_pylist()
        by_lang: dict[str, list[str]] = {}
        for lg, tx in zip(langs, texts):
            by_lang.setdefault(lg, []).append(tx or "")
        for lg, txts in by_lang.items():
            blob = np.frombuffer("\x00".join(txts).encode("utf-8"),
                                 np.uint8)
            if len(blob) < 2:
                continue
            a, b = blob[:-1].astype(np.int32), blob[1:].astype(np.int32)
            codes = a * 256 + b
            codes = codes[(a != 0) & (b != 0)]
            cnt = np.bincount(codes, minlength=65536)
            nz = np.nonzero(cnt)[0]
            langs_out.extend([lg] * len(nz))
            codes_out.extend(nz.tolist())
            ns_out.extend(cnt[nz].tolist())
        return pa.table({"lang": pa.array(langs_out, pa.string()),
                         "code": pa.array(codes_out, pa.int64()),
                         "n": pa.array(ns_out, pa.int64())})

    # lang × 65536 possible groups — Arrow-bucketed merge
    per_code = _vgb(docs.map_batches(count_bigrams,
                                     batch_format="pyarrow"),
                    ["lang", "code"], Sum("n", alias_name="n"))

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.copy()
        g["bigram"] = [chr(c >> 8) + chr(c & 255) for c in g["code"]]
        g = g.sort_values(["n", "bigram"],
                          ascending=[False, True]).head(10)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["lang", "bigram", "n", "rank"]]

    out = (per_code.groupby("lang")
           .map_groups(topk, batch_format="pandas").to_pandas())
    return out.astype({"n": "int64", "rank": "int64"}) \
        .sort_values(["lang", "rank"]).reset_index(drop=True)


def _q_stream_sessions(sf_dir: str):
    """Stateful-streaming sessionization: the events log is spooled as
    a hive-partitioned (chunk=time-range, bucket=user-hash) log and
    consumed chunk-by-chunk by a pool of stateful actors carrying open
    sessions between chunks (ops/streaming.py).  Equals the batch
    ``sessionize`` for any chunking — checked against the identical
    SQL oracle."""
    import ray.data as rd

    from pmocr_ray.ops.streaming import streaming_sessionize

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "ts", "event_id"])
    out = os.path.join("/tmp/pmocr_ray_stream_spool",
                       os.path.basename(os.path.normpath(sf_dir)))
    return streaming_sessionize(ev, n_chunks=5, n_buckets=4,
                                spool_dir=out)


def _q_top_parts_per_brand(sf_dir: str):
    """Per-group top-k as a CUSTOM DISTRIBUTIVE AGGREGATE: a bounded
    k-candidate state per (group, block) accumulated vectorized, merged
    associatively across blocks — per-group top-3 without ``map_groups``
    and without ever co-locating a group's full row set.  The k-bounded
    state is what makes the shuffle O(groups·k) regardless of group
    size (contrast: ``map_groups`` moves every row of a hot group to
    one worker).  Deterministic (-price, partkey) order; exploded to
    (brand, rank, part, price) rows after the aggregate."""
    import pandas as pd
    import pyarrow as pa

    import ray.data as rd
    from ray.data.aggregate import AggregateFn

    K = 3

    def acc_block(state, block):
        price = np.rint(np.asarray(
            block["p_retailprice"].to_numpy(zero_copy_only=False)) * 100
        ).astype(np.int64)
        ids = np.asarray(block["p_partkey"].to_numpy(zero_copy_only=False),
                         np.int64)
        cand = state + list(zip(price.tolist(), ids.tolist()))
        cand.sort(key=lambda t: (-t[0], t[1]))
        return cand[:K]

    def merge(a, b):
        m = a + b
        m.sort(key=lambda t: (-t[0], t[1]))
        return m[:K]

    top3 = AggregateFn(
        init=lambda k: [],
        accumulate_block=acc_block,
        merge=merge,
        name="top3",
    )
    part = rd.read_parquet(os.path.join(sf_dir, "part.parquet"),
                           columns=["p_brand", "p_partkey",
                                    "p_retailprice"])
    rows = part.groupby("p_brand").aggregate(top3).take_all()
    out = [(r["p_brand"], rank + 1, int(pid), int(price))
           for r in rows
           for rank, (price, pid) in enumerate(r["top3"])]
    return pd.DataFrame(out, columns=["p_brand", "rank", "p_partkey",
                                      "price_cents"]).astype(
        {"rank": "int64", "p_partkey": "int64", "price_cents": "int64"}) \
        .sort_values(["p_brand", "rank"]).reset_index(drop=True)


def _q_page_meta(sf_dir: str):
    """Structured-metadata extraction from raw HTML: <title> text and
    the html lang attribute pulled with vectorized binary-regex kernels
    (``pc.extract_regex`` straight over the payload bytes — no decode
    pass, no per-row Python).  Non-HTML payloads (PDF, poison) match
    nothing and yield nulls, so the kernel is total over the page
    universe — the metadata companion to the main-content extractor."""
    import pyarrow as pa

    import ray.data as rd

    pages_dir, _ = _pages(sf_dir)
    ds = rd.read_parquet(pages_dir, columns=["url", "html"])

    def meta(t: pa.Table) -> pa.Table:
        title = pc.cast(pc.struct_field(
            pc.extract_regex(t["html"],
                             r"<title>(?P<t>[^<]*)</title>"), "t"),
            pa.string())
        lang = pc.cast(pc.struct_field(
            pc.extract_regex(t["html"],
                             r'<html lang="(?P<l>[a-z]+)">'), "l"),
            pa.string())
        return pa.table({"url": t["url"], "title": title,
                         "html_lang": lang})

    return ds.map_batches(meta, batch_format="pyarrow")


def _q_user_type_mask_agg(sf_dir: str):
    """Per-user feature bitmask through a custom bitwise-OR
    ``AggregateFn`` (OR is idempotent + associative, so a one-int64
    state per group is exact under any partitioning — no distinct pass
    needed)."""
    import pandas as pd
    import pyarrow as pa

    import ray.data as rd
    from ray.data.aggregate import AggregateFn

    ev = rd.read_parquet(os.path.join(sf_dir, "events.parquet"),
                         columns=["user_id", "event_type"])

    def with_bits(t: pa.Table) -> pa.Table:
        bits = np.array([1 << _TYPE_BITS[x]
                         for x in t["event_type"].to_pylist()], np.int64)
        return pa.table({"user_id": t["user_id"],
                         "bit": pa.array(bits, pa.int64())})

    bit_or = AggregateFn(
        init=lambda k: 0,
        accumulate_block=lambda s, blk: s | int(
            np.bitwise_or.reduce(np.asarray(
                blk["bit"].to_numpy(zero_copy_only=False), np.int64))),
        merge=lambda a, b: a | b,
        name="mask",
    )
    rows = (ev.map_batches(with_bits, batch_format="pyarrow")
            .groupby("user_id").aggregate(bit_or).take_all())
    return pd.DataFrame(rows)[["user_id", "mask"]].astype(
        {"user_id": "int64", "mask": "int64"}) \
        .sort_values("user_id").reset_index(drop=True)


def _q_federated_union(sf_dir: str):
    """Heterogeneous-source federation: even-id rows stay in Parquet,
    odd-id rows round-trip through a sharded CSV sink+source, and
    ``Dataset.union`` of the two feeds one rollup — proving the union
    operator and the CSV codec reproduce the single-source result
    bit-for-bit (same oracle as the all-parquet rollup)."""
    import shutil

    import pyarrow as pa
    import ray.data as rd
    from ray.data.aggregate import Sum

    docs = rd.read_parquet(os.path.join(sf_dir, "documents.parquet"),
                           columns=["doc_id", "lang", "n_chars"])

    def half(t: pa.Table, even: bool) -> pa.Table:
        ids = np.asarray(t["doc_id"].to_numpy(zero_copy_only=False),
                         np.int64)
        return t.filter(pa.array((ids % 2 == 0) == even))

    out = os.path.join("/tmp/pmocr_ray_fed_csv",
                       os.path.basename(os.path.normpath(sf_dir)))
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out, exist_ok=True)
    docs.map_batches(half, fn_kwargs={"even": False},
                     batch_format="pyarrow").write_csv(out)
    odd_back = rd.read_csv(out)
    even = docs.map_batches(half, fn_kwargs={"even": True},
                            batch_format="pyarrow")
    both = even.union(odd_back)

    def partial(t: pa.Table) -> pa.Table:
        tt = pa.table({"lang": t["lang"],
                       "n_docs": pa.array(np.ones(len(t), np.int64)),
                       "sum_chars": pc.cast(t["n_chars"], pa.int64())})
        g = tt.group_by("lang").aggregate(
            [("n_docs", "sum"), ("sum_chars", "sum")])
        return g.rename_columns(["lang", "n_docs", "sum_chars"])

    return (both.map_batches(partial, batch_format="pyarrow")
            .groupby("lang")
            .aggregate(Sum("n_docs", alias_name="n_docs"),
                       Sum("sum_chars", alias_name="sum_chars")))


def _q_pdf_target_roundtrip(sf_dir: str):
    """The reference's PRIMARY output format closed under this engine:
    extracted text → searchable-PDF target (targets.pdf_transform) →
    PDF parser → byte-compare.  Writer and parser are exact inverses;
    every extracted document roundtrips.  The oracle asserts ok=1 for
    exactly the rows whose extraction produced text — the Ray side
    EARNS each 1 by building and re-parsing a real PDF payload."""
    import pyarrow as pa

    import ray.data as rd

    ds = rd.read_parquet(_extraction_output_dir(sf_dir),
                         columns=["url", "extracted_text"])

    def roundtrip(t: pa.Table) -> pa.Table:
        from pmocr_ray.extract.pdf_extractor import extract_pdf
        from pmocr_ray.targets import pdf_transform

        t2 = pdf_transform(t)
        urls, oks = [], []
        for url, txt, pdf in zip(t2["url"].to_pylist(),
                                 t2["extracted_text"].to_pylist(),
                                 t2["pdf"].to_pylist()):
            if txt is None:
                continue
            urls.append(url)
            oks.append(int(extract_pdf(pdf) == txt))
        return pa.table({"url": pa.array(urls, pa.string()),
                         "roundtrip_ok": pa.array(oks, pa.int64())})

    return ds.map_batches(roundtrip, batch_format="pyarrow")


def _q_docx_target_roundtrip(sf_dir: str):
    """The reference's WORD output target closed under this engine:
    extracted text → minimal real docx (targets.docx_transform, a ZIP
    of WordprocessingML built from the stdlib) → docx parser →
    byte-compare.  Writer and parser are exact inverses; every
    extracted document roundtrips.  Same gate shape as
    ``pdf_target_roundtrip`` — the Ray side EARNS each ok=1 by
    building and re-parsing a real docx payload."""
    import pyarrow as pa

    import ray.data as rd

    ds = rd.read_parquet(_extraction_output_dir(sf_dir),
                         columns=["url", "extracted_text"])

    def roundtrip(t: pa.Table) -> pa.Table:
        from pmocr_ray.extract.docx_extractor import extract_docx
        from pmocr_ray.targets import docx_transform

        t2 = docx_transform(t)
        urls, oks = [], []
        for url, txt, doc in zip(t2["url"].to_pylist(),
                                 t2["extracted_text"].to_pylist(),
                                 t2["docx"].to_pylist()):
            if txt is None:
                continue
            urls.append(url)
            oks.append(int(extract_docx(doc) == txt))
        return pa.table({"url": pa.array(urls, pa.string()),
                         "roundtrip_ok": pa.array(oks, pa.int64())})

    return ds.map_batches(roundtrip, batch_format="pyarrow")


def _q_xlsx_target_roundtrip(sf_dir: str):
    """The reference's EXCEL output target closed under this engine:
    extracted text → minimal real xlsx (targets.xlsx_transform, a ZIP
    of SpreadsheetML with one inline-string cell per ;-field — the
    CSV-hack delimiter, pmocr.sh:2013-2043) → xlsx parser →
    byte-compare.  Writer and parser are exact inverses; every
    extracted document roundtrips.  Same gate shape as
    ``docx_target_roundtrip``."""
    import pyarrow as pa

    import ray.data as rd

    ds = rd.read_parquet(_extraction_output_dir(sf_dir),
                         columns=["url", "extracted_text"])

    def roundtrip(t: pa.Table) -> pa.Table:
        from pmocr_ray.extract.xlsx_extractor import extract_xlsx
        from pmocr_ray.targets import xlsx_transform

        t2 = xlsx_transform(t)
        urls, oks = [], []
        for url, txt, doc in zip(t2["url"].to_pylist(),
                                 t2["extracted_text"].to_pylist(),
                                 t2["xlsx"].to_pylist()):
            if txt is None:
                continue
            urls.append(url)
            oks.append(int(extract_xlsx(doc) == txt))
        return pa.table({"url": pa.array(urls, pa.string()),
                         "roundtrip_ok": pa.array(oks, pa.int64())})

    return ds.map_batches(roundtrip, batch_format="pyarrow")


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # extraction pipeline family (pages fixture derived from documents)
        "pages_gen": _q_pages_gen,
        "pages_lang_en": _q_pages_lang_en,
        "distinct_langs": _q_distinct_langs,
        "sniff_route": _q_sniff_route,
        "extract_flagship": _q_flagship,
        "extract_html": _q_extract_html,
        "extract_pdf": _q_extract_pdf,
        "skip_existing": _q_skip_existing,
        "quarantine": _q_quarantine,
        "done_skip": _q_done_skip,
        "status_counts": _q_status_counts,
        "csv_hack": _q_csv_hack,
        "jsonl_format": _q_jsonl_format,
        "retry_redrive": _q_retry_redrive,
        # text analysis
        "text_stats": _q_text_stats,
        "len_histogram": _q_len_histogram,
        "doc_fingerprint": _q_fingerprint,
        "lang_id": _q_lang_id,
        "quality_score": _q_quality,
        # dedup
        "dedup_exact": _q_dedup_exact,
        "dedup_pairs_exact": _q_dedup_pairs_exact,
        "dedup_minhash": _q_dedup_minhash,
        "dedup_ngram": _q_dedup_ngram,
        "dedup_simhash": _q_dedup_simhash,
        "dedup_embedding": _q_dedup_embedding,
        "semdedup": _q_semdedup,
        "dedup_embedding_lsh": _q_dedup_embedding_lsh,
        # similarity search
        "knn_cosine": _q_knn,
        "knn_multi": _q_knn_multi,
        "knn_ivf": _q_knn_ivf,
        "knn_ivf_indexed": _q_knn_ivf_indexed,
        # driver-sample window: the flagship compositions + one
        # representative of every remaining family, placed here so the
        # driver's 50-query CORRECTNESS sample (first 50 dict entries)
        # spans the whole engine, not just the front families
        "curate": _q_curate,
        "corpus_build": _q_corpus_build,
        "pagerank": _q_pagerank,
        "pack_sequences": _q_pack_sequences,
        "bucketed_join": _q_bucketed_join,
        "line_dedup": _q_line_dedup,
        "decontaminate": _q_decontaminate,
        "stream_sessions": _q_stream_sessions,
        "media_resize_real": _q_media_resize_real,
        "media_jpeg_real": _q_media_jpeg_real,
        "media_gif_real": _q_media_gif_real,
        "audio_resample_real": _q_audio_resample_real,
        "frame_sample_real": _q_frame_sample_real,
        "url_canon_dedup": _q_url_canon_dedup,
        "rare_term_pairs": _q_rare_term_pairs,
        "token_budget": _q_token_budget,
        # events / aggregates
        "events_window": _q_events_window,
        "top_users": _q_top_users,
        "sessionize": _q_sessionize,
        "lineitem_agg": _q_lineitem_agg,
        "top_docs_by_len": _q_top_docs_by_len,
        "top_terms": _q_top_terms,
        "host_stats": _q_host_stats,
        "mirror_hosts": _q_mirror_hosts,
        "hash_sample": _q_hash_sample,
        "doc_freq": _q_doc_freq,
        "host_cap": _q_host_cap,
        "props_agg": _q_props_agg,
        "top_events_per_user": _q_top_events_per_user,
        "window_distinct_users": _q_window_distinct_users,
        "event_pivot": _q_event_pivot,
        "customers_no_f_orders_native": _q_customers_no_f_orders_native,
        "lang_len_quantiles": _q_lang_len_quantiles,
        "label_centroids": _q_label_centroids,
        "orders_running_total": _q_orders_running_total,
        "shuffle_rank": _q_shuffle_rank,
        "tfidf": _q_tfidf,
        "kmv_sketch": _q_kmv_sketch,
        "clean_text": _q_clean_text,
        "dedup_incremental": _q_dedup_incremental,
        "lang_label_mix": _q_lang_label_mix,
        "cc_chain": _q_cc_chain,
        "trending_terms": _q_trending_terms,
        "len_percentile": _q_len_percentile,
        "kmeans_cells": _q_kmeans_cells,
        "kmeans_assign1": _q_kmeans_assign1,
        "lm_score": _q_lm_score,
        "lm_bigram_counts": _q_lm_bigram_counts,
        "quantize_embeddings": _q_quantize_embeddings,
        "span_extract": _q_span_extract,
        "len_bucket": _q_len_bucket,
        "webdataset_audit": _q_webdataset_audit,
        # curation / export ops
        "redact_pii": _q_redact_pii,
        "repetition_stats": _q_repetition_stats,
        "stratified_sample": _q_stratified_sample,
        "len_quantiles": _q_len_quantiles,
        "shard_counts": _q_shard_counts,
        "chunk_tokens": _q_chunk_tokens,
        "line_self_dedup": _q_line_self_dedup,
        "split_assign": _q_split_assign,
        "dup_spans": _q_dup_spans,
        "remove_dup_spans": _q_remove_dup_spans,
        "event_transitions": _q_event_transitions,
        "incremental_near_dedup": _q_incremental_near_dedup,
        "clip_outliers": _q_clip_outliers,
        "bpe_pairs": _q_bpe_pairs,
        "zorder": _q_zorder,
        "keyword_search": _q_keyword_search,
        "heavy_hitters": _q_heavy_hitters,
        "zorder_scan": _q_zorder_scan,
        "pps_sample": _q_pps_sample,
        "domain_reweight": _q_domain_reweight,
        "dsir_weights": _q_dsir_weights,
        "posting_lists": _q_posting_lists,
        "gopher_quality": _q_gopher_quality,
        "c4_filter": _q_c4_filter,
        "ntile_buckets": _q_ntile_buckets,
        "collocations": _q_collocations,
        "snapshot_diff": _q_snapshot_diff,
        "dup_cluster_hist": _q_dup_cluster_hist,
        "host_blocklist": _q_host_blocklist,
        "host_mirror": _q_host_mirror,
        "cheapest_supplier": _q_cheapest_supplier,
        "host_lang": _q_host_lang,
        "incremental_stats": _q_incremental_stats,
        "embedding_dim_stats": _q_embedding_dim_stats,
        "triangle_count": _q_triangle_count,
        "host_churn": _q_host_churn,
        "table_extract": _q_table_extract,
        "byte_blocks": _q_byte_blocks,
        "schema_evolve": _q_schema_evolve,
        "priority_semi_native": _q_priority_semi_native,
        "user_type_mask_agg": _q_user_type_mask_agg,
        "federated_union": _q_federated_union,
        "pdf_target_roundtrip": _q_pdf_target_roundtrip,
        "docx_target_roundtrip": _q_docx_target_roundtrip,
        "xlsx_target_roundtrip": _q_xlsx_target_roundtrip,
        "sentence_stats": _q_sentence_stats,
        "basket_pairs": _q_basket_pairs,
        "scd2_dim": _q_scd2_dim,
        "keep_best_dedup": _q_keep_best_dedup,
        "users_all_types": _q_users_all_types,
        "bfs_layers": _q_bfs_layers,
        "diverse_top_docs": _q_diverse_top_docs,
        "contamination_frac": _q_contamination_frac,
        "table_checksum": _q_table_checksum,
        "cube_rollup": _q_cube_rollup,
        "doc_len_pct_in_lang": _q_doc_len_pct_in_lang,
        "ks_lang_len": _q_ks_lang_len,
        "weighted_median_price": _q_weighted_median_price,
        "vocab_overlap": _q_vocab_overlap,
        "emb_norm_outliers": _q_emb_norm_outliers,
        "rank_fusion": _q_rank_fusion,
        "contingency_chi2": _q_contingency_chi2,
        "top_supplier_rev": _q_top_supplier_rev,
        "outlinks": _q_outlinks,
        "page_meta": _q_page_meta,
        "seq_pattern": _q_seq_pattern,
        "grouped_regression": _q_grouped_regression,
        "csv_roundtrip": _q_csv_roundtrip,
        "lang_profiles": _q_lang_profiles,
        "top_parts_per_brand": _q_top_parts_per_brand,
        # multimodal
        "media_meta": _q_media_meta,
        "media_png_real": _q_media_png_real,
        "media_tiff_real": _q_media_tiff_real,
        "gif_frames_real": _q_gif_frames_real,
        "media_resize": _q_media_resize,
        "audio_meta": _q_audio_meta,
        "audio_g711_real": _q_audio_g711_real,
        "frame_sample": _q_frame_sample,
    }


# ------------------------------------------------------------- oracle SQL

# Shared fragment: the page universe — documents × rep, with class and url
# derived exactly as in pmocr_ray/schema.py.
_PAGE_CTE = f"""
WITH p AS (
  SELECT d.doc_id, d.text, d.lang,
         (d.doc_id * {REPS} + r.range) AS seq, r.range AS rep
  FROM documents d CROSS JOIN range({REPS}) r
), c AS (
  SELECT doc_id, text, lang, seq, rep, seq % 20 AS cls,
         'https://site' || (seq % 997) || '.example/page/' || doc_id || '-' || rep AS url
  FROM p
)
"""

_CT_EXPR = """
  CASE WHEN cls BETWEEN 11 AND 15 THEN 'pdf'
       WHEN cls = 18 THEN (CASE WHEN (doc_id + rep) % 2 = 0 THEN 'pdf' ELSE 'html' END)
       ELSE 'html' END
"""

_STATUS_EXPR = """
  CASE WHEN cls BETWEEN 14 AND 15 THEN 'skipped_existing_text'
       WHEN cls BETWEEN 16 AND 17 THEN 'skipped_suffix'
       WHEN cls = 18 THEN 'failed'
       ELSE 'done' END
"""

_ATTEMPTS_EXPR = """
  CASE WHEN cls <= 13 OR cls = 19 THEN 1 WHEN cls = 18 THEN 2 ELSE 0 END
"""

_EXTRACTED_EXPR = """
  CASE WHEN cls <= 15 THEN text
       WHEN cls = 19 THEN rtrim(repeat(text || ' ', 200))
       ELSE NULL END
"""


# Word-3-gram / char-5-gram shingle CTEs: the exact shingle sets the
# Jaccard verify kernel builds (pmocr_ray/ops/dedup.py jaccard()), so
# DuckDB recomputes the SAME verified pair set + jaccard values.
_WORD_SHINGLES_CTE = r"""
WITH toks AS (
  SELECT doc_id, regexp_extract_all(text, '\S+') AS w FROM documents
), sh AS (
  SELECT doc_id,
         CASE WHEN len(w) >= 3
              THEN list_distinct(list_transform(range(1, len(w) - 1),
                     i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]))
              ELSE list_value(array_to_string(w, ' ')) END AS s
  FROM toks WHERE len(w) > 0
)
"""

_CHAR_SHINGLES_CTE = r"""
WITH sh AS (
  SELECT doc_id,
         list_distinct(list_transform(
           range(1, greatest(length(text) - 4, 1) + 1),
           i -> substring(text, i, 5))) AS s
  FROM documents WHERE text IS NOT NULL AND text <> ''
)
"""

# Inverted-index form of the all-pairs Jaccard: identical result set
# to the naive n^2 list_intersect self-join (jaccard > 0 requires at
# least one shared shingle, and |A∪B| = |A|+|B|-|A∩B|), but candidate
# generation is a hash join on the shingle postings instead of 12.5M
# pairwise list intersections — the n^2 form wedged the sf0.1
# heavy-tail selfcheck for 25+ minutes on char-5-gram lists (~290
# shingles/doc); this form runs in ~70 s there and is term-for-term
# equal at sf0.01 (verified before the swap).
_PAIR_JACCARD_SQL = """
, sizes AS (
  SELECT doc_id, len(s) AS n FROM sh
), post AS (
  SELECT doc_id, unnest(s) AS g FROM sh
), inter AS (
  SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS i
  FROM post x JOIN post y ON x.g = y.g AND x.doc_id < y.doc_id
  GROUP BY 1, 2
)
SELECT a, b, jaccard FROM (
  SELECT a, b, CAST(i AS DOUBLE) / (sa.n + sb.n - i) AS jaccard
  FROM inter JOIN sizes sa ON sa.doc_id = a
             JOIN sizes sb ON sb.doc_id = b
) WHERE jaccard >= 0.8
"""

# (a, b)-only variant for composite oracles (curate / corpus_build)
# whose pair CTE only feeds component labeling — same inverted-index
# candidate generation, no jaccard column
_PAIR_AB_INVERTED = """
, sizes AS (SELECT doc_id, len(s) AS n FROM sh),
post AS (SELECT doc_id, unnest(s) AS g FROM sh),
inter AS (
  SELECT x.doc_id AS a, y.doc_id AS b, count(*) AS i
  FROM post x JOIN post y ON x.g = y.g AND x.doc_id < y.doc_id
  GROUP BY 1, 2)
SELECT a, b FROM inter
JOIN sizes sa ON sa.doc_id = a JOIN sizes sb ON sb.doc_id = b
WHERE CAST(i AS DOUBLE) / (sa.n + sb.n - i) >= 0.8
"""

# quality_score arithmetic, reproduced term-for-term (same IEEE ops in
# the same order as pmocr_ray/ops/text.py quality_score)
_QUALITY_CTE = r"""
WITH q AS (
  SELECT doc_id, text,
         regexp_extract_all(text, '\S+') AS toks,
         len(regexp_extract_all(text, '[^\w\s]')) AS n_punct,
         length(text) AS n_chars
  FROM documents
), m AS (
  SELECT doc_id,
    CASE WHEN len(toks) = 0 THEN 0.0
         ELSE CAST(n_punct AS DOUBLE) / n_chars END AS punct_ratio,
    CASE WHEN len(toks) = 0 THEN 0.0
         ELSE CAST(len(list_filter(toks,
                t -> list_contains({stopwords}, lower(t)))) AS DOUBLE)
              / len(toks) END AS stopword_ratio,
    CASE WHEN len(toks) = 0 THEN 0.0
         ELSE CAST(list_sum(list_transform(toks, t -> length(t))) AS DOUBLE)
              / len(toks) END AS mean_token_len,
    len(toks) AS n_toks
  FROM q
), quality_m AS (
  SELECT doc_id, punct_ratio, stopword_ratio, mean_token_len,
    CASE WHEN n_toks = 0 THEN 0.0 ELSE
      least(1.0, CAST(n_toks AS DOUBLE) / 50.0)
      * (1.0 - least(1.0, 4.0 * punct_ratio))
      * (0.5 + least(0.5, 2.0 * stopword_ratio))
      * (CASE WHEN mean_token_len BETWEEN 2.0 AND 12.0 THEN 1.0 ELSE 0.5 END)
    END AS quality
  FROM m
)
"""


def _quality_cte() -> str:
    from pmocr_ray.ops.text import _STOPWORDS

    stop = "[" + ", ".join(f"'{w}'" for w in sorted(_STOPWORDS)) + "]"
    return _QUALITY_CTE.replace("{stopwords}", stop)


def _lang_id_sql() -> str:
    """Generated from LangIdStage.PROFILES — the prediction is a pure
    bigram-overlap argmax, so the SQL recomputes it exactly (ties keep
    the first language in sorted order, matching the strict-> update)."""
    from pmocr_ray.ops.text import LangIdStage

    profs = {lang: sorted(frozenset(p.split()))
             for lang, p in LangIdStage.PROFILES.items()}
    langs = sorted(profs)
    score = {
        lang: (f"(CAST(len(list_intersect(bg, ["
               + ", ".join(f"'{t}'" for t in profs[lang])
               + f"])) AS DOUBLE) / {len(profs[lang])})")
        for lang in langs
    }
    cases = []
    for i, lang in enumerate(langs[:-1]):
        conds = " AND ".join(f"{score[lang]} >= {score[o]}"
                             for o in langs[i + 1:])
        cases.append(f"WHEN {conds} THEN '{lang}'")
    case_sql = "\n      ".join(cases)
    return f"""
WITH s0 AS (
  SELECT doc_id, text, lower(substring(text, 1, 1000)) AS s FROM documents
), b AS (
  SELECT doc_id, text,
         CASE WHEN length(s) >= 2
              THEN list_distinct(list_transform(range(1, length(s)),
                     i -> substring(s, i, 2)))
              ELSE CAST([] AS VARCHAR[]) END AS bg
  FROM s0
)
SELECT doc_id,
  CASE WHEN text IS NULL OR text = '' THEN 'und'
      {case_sql}
      ELSE '{langs[-1]}' END AS lang_pred
FROM b"""


def oracle_sql() -> dict[str, str]:
    return {
        "lang_profiles": """
            WITH bg AS (
              -- all overlapping bigrams = the two interleaved
              -- non-overlapping extractions (even + odd offsets)
              SELECT lang, unnest(regexp_extract_all(text, '..'))
                         AS bigram
              FROM documents
              UNION ALL
              SELECT lang,
                     unnest(regexp_extract_all(substr(text, 2), '..'))
                         AS bigram
              FROM documents
            ), cnt AS (
              SELECT lang, bigram, CAST(count(*) AS BIGINT) AS n
              FROM bg GROUP BY lang, bigram
            ), rk AS (
              SELECT lang, bigram, n,
                     row_number() OVER (PARTITION BY lang
                                        ORDER BY n DESC, bigram) AS rank
              FROM cnt
            )
            SELECT lang, bigram, n, CAST(rank AS BIGINT) AS rank
            FROM rk WHERE rank <= 10""",
        "csv_roundtrip": """
            SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars
            FROM documents GROUP BY lang""",
        "federated_union": """
            SELECT lang, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars
            FROM documents GROUP BY lang""",
        "grouped_regression": r"""
            WITH m AS (
              SELECT lang,
                     CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT)
                         AS x,
                     CAST(length(text) AS BIGINT) AS y
              FROM documents
            )
            SELECT lang, CAST(count(*) AS BIGINT) AS n,
                   CAST(count(*) * sum(x * y) - sum(x) * sum(y)
                        AS BIGINT) AS slope_num,
                   CAST(count(*) * sum(x * x) - sum(x) * sum(x)
                        AS BIGINT) AS slope_den
            FROM m GROUP BY lang""",
        "seq_pattern": """
            WITH s AS (
              SELECT user_id,
                     string_agg(substr(event_type, 1, 1), ''
                                ORDER BY ts, event_id) AS seq
              FROM events GROUP BY user_id
            )
            SELECT user_id, seq,
                   CAST(len(regexp_extract_all(seq, 'vc*p')) AS BIGINT)
                       AS n_hits
            FROM s""",
        "pdf_target_roundtrip": _PAGE_CTE + """
            SELECT url, CAST(1 AS BIGINT) AS roundtrip_ok
            FROM c WHERE cls <= 15 OR cls = 19""",
        "docx_target_roundtrip": _PAGE_CTE + """
            SELECT url, CAST(1 AS BIGINT) AS roundtrip_ok
            FROM c WHERE cls <= 15 OR cls = 19""",
        "xlsx_target_roundtrip": _PAGE_CTE + """
            SELECT url, CAST(1 AS BIGINT) AS roundtrip_ok
            FROM c WHERE cls <= 15 OR cls = 19""",
        "page_meta": _PAGE_CTE + """
            SELECT url,
                   CASE WHEN cls <= 10 OR cls IN (16, 17, 19)
                        THEN 'site ' || (seq % 997) END AS title,
                   CASE WHEN cls <= 10 OR cls IN (16, 17, 19)
                        THEN lang END AS html_lang
            FROM c""",
        "outlinks": _PAGE_CTE + """
            , h AS (
              SELECT CAST(count(*) AS BIGINT) AS n,
                     CAST(sum(CASE WHEN doc_id % 3 = 2
                              THEN 1 ELSE 0 END) AS BIGINT) AS n2
              FROM c WHERE cls <= 10 OR cls IN (16, 17, 19)
            )
            SELECT t.target,
                   CAST(CASE WHEN t.promo = 1 THEN h.n2 ELSE h.n END
                        AS BIGINT) AS n_links
            FROM h, (VALUES
              ('/', 0), ('/home', 0), ('/world', 0), ('/politics', 0),
              ('/business', 0), ('/tech', 0), ('/sport', 0),
              ('/culture', 0), ('/weather', 0), ('/trending', 0),
              ('/newsletter', 0), ('/podcast', 0), ('/archive', 0),
              ('/jobs', 0), ('/deals', 0), ('/about', 0),
              ('/contact', 0), ('/terms', 0), ('/privacy', 0),
              ('/cookies', 0), ('/offers', 1), ('/app', 1))
              AS t(target, promo)""",
        "pages_gen": _PAGE_CTE + """
            SELECT url,
                   TIMESTAMP '2024-01-01 00:00:00' + seq * INTERVAL 1 SECOND AS warc_ts,
                   lang
            FROM c""",
        "pages_lang_en": _PAGE_CTE + """
            SELECT url, lang FROM c WHERE lang = 'en'""",
        "distinct_langs": "SELECT DISTINCT lang FROM documents",
        "sniff_route": _PAGE_CTE + f"""
            SELECT url, {_CT_EXPR} AS content_type FROM c""",
        "extract_flagship": _PAGE_CTE + f"""
            SELECT url, lang,
                   {_CT_EXPR} AS content_type,
                   {_STATUS_EXPR} AS status,
                   CAST({_ATTEMPTS_EXPR} AS INTEGER) AS attempts,
                   {_EXTRACTED_EXPR} AS extracted_text
            FROM c""",
        "extract_html": _PAGE_CTE + f"""
            SELECT url,
                   CASE WHEN cls = 19 THEN rtrim(repeat(text || ' ', 200))
                        ELSE text END AS extracted_text
            FROM c
            WHERE ({_CT_EXPR}) = 'html' AND ({_STATUS_EXPR}) = 'done'""",
        "extract_pdf": _PAGE_CTE + f"""
            SELECT url, text AS extracted_text
            FROM c
            WHERE ({_CT_EXPR}) = 'pdf' AND ({_STATUS_EXPR}) = 'done'""",
        "skip_existing": _PAGE_CTE + """
            SELECT url, 'skipped_existing_text' AS status, text AS extracted_text
            FROM c WHERE cls BETWEEN 14 AND 15""",
        "quarantine": _PAGE_CTE + f"""
            SELECT url, {_CT_EXPR} AS content_type,
                   'failed' AS status, CAST(2 AS INTEGER) AS attempts
            FROM c WHERE cls = 18""",
        "done_skip": _PAGE_CTE + """
            SELECT url, 'skipped_suffix' AS status
            FROM c WHERE cls BETWEEN 16 AND 17""",
        "status_counts": _PAGE_CTE + f"""
            SELECT ({_STATUS_EXPR}) AS status, count(*) AS n
            FROM c GROUP BY 1""",
        "csv_hack": """
            SELECT doc_id,
                   regexp_replace(text || '   ' || lang || '   ' || source,
                                  '   +', ';', 'g') AS csv_text
            FROM documents""",
        "jsonl_format": _PAGE_CTE + f"""
            SELECT url,
                   to_json(struct_pack(
                     url := url,
                     status := ({_STATUS_EXPR}),
                     extracted_text := ({_EXTRACTED_EXPR}))) AS json_row
            FROM c""",
        "retry_redrive": _PAGE_CTE + """
            SELECT url,
                   CASE WHEN cls = 18 THEN 'failed'
                        ELSE 'skipped_suffix' END AS status,
                   CAST(CASE WHEN cls = 18 THEN 3 ELSE 0 END AS INTEGER)
                     AS attempts
            FROM c""",
        "text_stats": """
            SELECT doc_id,
                   CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tokens,
                   CAST(length(text) AS BIGINT) AS n_chars_total,
                   CAST(length(regexp_replace(text, '\\s+', '', 'g')) AS BIGINT) AS n_chars_nospace
            FROM documents""",
        "doc_fingerprint": "SELECT doc_id, md5(text) AS fp FROM documents",
        "dedup_exact": """
            SELECT md5(text) AS fp, min(doc_id) AS keep_id,
                   count(*) AS n_dups
            FROM documents GROUP BY md5(text)""",
        "dedup_pairs_exact": """
            SELECT d1.doc_id AS a, d2.doc_id AS b
            FROM documents d1 JOIN documents d2
              ON d1.text = d2.text AND d1.doc_id < d2.doc_id""",
        "knn_cosine": """
            SELECT vec_id, CAST(rank AS INTEGER) AS rank FROM (
              SELECT vec_id,
                     row_number() OVER (
                       ORDER BY list_cosine_similarity(
                         embedding,
                         (SELECT embedding FROM embeddings WHERE vec_id = 0)
                       ) DESC, vec_id ASC) AS rank
              FROM embeddings)
            WHERE rank <= 10""",
        "events_window": """
            SELECT date_trunc('hour', ts) AS hour, event_type,
                   count(*) AS n_events,
                   min(value) AS min_value, max(value) AS max_value
            FROM events GROUP BY 1, 2""",
        "top_users": """
            SELECT user_id,
                   CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) AS total_cents
            FROM events GROUP BY user_id
            ORDER BY total_cents DESC, user_id ASC LIMIT 10""",
        "top_parts_per_brand": """
            WITH r AS (
              SELECT p_brand, p_partkey,
                     CAST(round(p_retailprice * 100) AS BIGINT)
                         AS price_cents,
                     row_number() OVER (
                       PARTITION BY p_brand
                       ORDER BY round(p_retailprice * 100) DESC,
                                p_partkey) AS rank
              FROM part)
            SELECT p_brand, CAST(rank AS BIGINT) AS rank, p_partkey,
                   price_cents
            FROM r WHERE rank <= 3""",
        "stream_sessions": """
            WITH o AS (
              SELECT user_id, ts, event_id,
                     CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)
                               > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_s
              FROM events),
            s AS (
              SELECT user_id, ts, event_id,
                     sum(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                      ROWS UNBOUNDED PRECEDING) AS sess
              FROM o)
            SELECT user_id, min(ts) AS session_start, max(ts) AS session_end,
                   CAST(count(*) AS BIGINT) AS n_events
            FROM s GROUP BY user_id, sess""",
        "sessionize": """
            WITH o AS (
              SELECT user_id, ts, event_id,
                     CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts, event_id)
                               > INTERVAL 30 MINUTE THEN 1 ELSE 0 END AS new_s
              FROM events),
            s AS (
              SELECT user_id, ts, event_id,
                     sum(new_s) OVER (PARTITION BY user_id ORDER BY ts, event_id
                                      ROWS UNBOUNDED PRECEDING) AS sess
              FROM o)
            SELECT user_id, min(ts) AS session_start, max(ts) AS session_end,
                   count(*) AS n_events
            FROM s GROUP BY user_id, sess""",
        "lineitem_agg": """
            SELECT l_returnflag, l_linestatus,
                   CAST(sum(l_quantity) AS BIGINT) AS sum_qty,
                   count(*) AS n
            FROM lineitem GROUP BY l_returnflag, l_linestatus""",
        "top_docs_by_len": """
            SELECT doc_id, n_chars FROM documents
            ORDER BY n_chars DESC, doc_id ASC LIMIT 20""",
        "top_terms": r"""
            SELECT term, CAST(count(*) AS BIGINT) AS n
            FROM (SELECT unnest(regexp_extract_all(text, '\S+')) AS term
                  FROM documents)
            GROUP BY term ORDER BY n DESC, term ASC LIMIT 20""",
        "host_stats": _PAGE_CTE + """
            SELECT regexp_extract(url, '^[a-z+]+://([^/]+)', 1) AS host,
                   CAST(count(*) AS BIGINT) AS n_pages
            FROM c GROUP BY host""",
        "mirror_hosts": _PAGE_CTE + """
            , h AS (SELECT DISTINCT
                      regexp_extract(url, '^[a-z+]+://([^/]+)', 1) AS host
                    FROM c)
            SELECT x.host AS a, y.host AS b
            FROM h x JOIN h y
              ON x.host < y.host AND levenshtein(x.host, y.host) = 1
            ORDER BY a, b""",
        "hash_sample": """
            SELECT doc_id FROM documents
            WHERE substr(md5(text), 1, 2) < '1a'""",
        "stratified_sample": """
            SELECT doc_id, lang FROM documents
            WHERE CASE lang
                    WHEN 'en' THEN substr(md5(text), 1, 1) < '4'
                    WHEN 'de' THEN substr(md5(text), 1, 1) < 'c'
                    ELSE TRUE END""",
        "redact_pii": r"""
            SELECT doc_id, regexp_replace(regexp_replace(regexp_replace(
                text || ' contact user' || doc_id
                     || '@mail.example or 10.0.' || (doc_id % 200) || '.7 now',
                '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}', '<EMAIL>', 'g'),
                '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b', '<IP>', 'g'),
                '\+\d[\d\-\. ]{7,}\d', '<PHONE>', 'g') AS text_redacted
            FROM documents""",
        "repetition_stats": r"""
            WITH t AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS w
                       FROM documents),
            bg AS (SELECT doc_id,
                          unnest(list_transform(range(1, len(w)),
                                 i -> w[i] || ' ' || w[i+1])) AS g
                   FROM t WHERE len(w) >= 2),
            mx AS (SELECT doc_id, max(c) AS mc FROM
                     (SELECT doc_id, g, count(*) AS c FROM bg GROUP BY 1, 2)
                   GROUP BY 1)
            SELECT t.doc_id,
                   CASE WHEN len(w) > 0
                        THEN CAST(len(list_distinct(w)) AS DOUBLE) / len(w)
                        ELSE 0.0 END AS distinct_ratio,
                   coalesce(CAST(mx.mc AS DOUBLE) / nullif(len(w) - 1, 0),
                            0.0) AS top_bigram_frac
            FROM t LEFT JOIN mx USING (doc_id)""",
        "len_quantiles": """
            SELECT unnest([0.5, 0.9, 0.99]) AS q,
                   unnest(qv) AS value FROM
              (SELECT quantile_disc(n_chars, [0.5, 0.9, 0.99]) AS qv
               FROM documents)""",
        "line_dedup": r"""
            WITH w AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS toks
                       FROM documents),
            ln AS (SELECT doc_id,
                          unnest(list_transform(
                            range(0, CAST(ceil(len(toks) / 10.0) AS BIGINT)),
                            i -> struct_pack(
                              line_no := i,
                              line := array_to_string(
                                toks[(i*10+1):(i*10+10)], ' ')))) AS s
                   FROM w WHERE len(toks) > 0),
            k AS (SELECT doc_id, s.line_no AS line_no, s.line AS line,
                         row_number() OVER (PARTITION BY s.line
                                            ORDER BY doc_id, s.line_no) AS rn
                  FROM ln)
            SELECT doc_id, string_agg(line, chr(10) ORDER BY line_no)
                     AS text_dedup
            FROM k WHERE rn = 1 GROUP BY doc_id""",
        "decontaminate": r"""
            WITH w AS (SELECT doc_id, regexp_extract_all(text, '\S+') AS t
                       FROM documents),
            sh AS (SELECT doc_id,
                          unnest(list_transform(range(1, len(t) - 11),
                                 i -> array_to_string(t[i:i+12], ' '))) AS g
                   FROM w WHERE len(t) >= 13),
            bench AS (SELECT DISTINCT g FROM sh WHERE doc_id % 97 = 0),
            hit AS (SELECT DISTINCT sh.doc_id FROM sh JOIN bench USING (g))
            SELECT d.doc_id, d.doc_id IN (SELECT doc_id FROM hit)
                     AS contaminated
            FROM documents d""",
        "shard_counts": _PAGE_CTE + """
            SELECT CAST(CAST(('0x' || substr(md5(url), 1, 8)) AS UBIGINT)
                        % 16 AS BIGINT) AS shard,
                   count(*) AS n
            FROM c GROUP BY 1""",
        "len_histogram": """
            SELECT n_chars // 100 AS bucket,
                   CAST(count(*) AS BIGINT) AS n
            FROM documents GROUP BY bucket""",
        "chunk_tokens": r"""
            WITH tok AS (
              SELECT doc_id, regexp_extract_all(text, '\S+') AS ts
              FROM documents),
            ch AS (
              SELECT doc_id, ts,
                unnest(range(CASE WHEN len(ts) = 0 THEN 0
                                  WHEN len(ts) <= 64 THEN 1
                                  ELSE (len(ts) - 64 + 47) // 48 + 1 END))
                  AS k
              FROM tok)
            SELECT doc_id, CAST(k AS BIGINT) AS chunk_idx,
                   CAST(least(k * 48 + 64, len(ts)) - k * 48 AS BIGINT)
                     AS n_tokens,
                   array_to_string(ts[k * 48 + 1 : least(k * 48 + 64,
                                                         len(ts))], ' ')
                     AS chunk_text
            FROM ch""",
        "line_self_dedup": r"""
            WITH d AS (
              SELECT doc_id, regexp_replace(text, '((?:\S+ ){7}\S+) ',
                                            '\1' || chr(10), 'g') AS t2
              FROM documents),
            l AS (
              SELECT doc_id,
                     unnest(split(t2, chr(10))) AS line,
                     unnest(range(len(split(t2, chr(10))))) AS pos
              FROM d),
            f AS (
              SELECT doc_id, line, min(pos) AS p
              FROM l GROUP BY doc_id, line)
            SELECT f.doc_id,
                   CAST(any_value(nl.n) AS BIGINT) AS n_lines,
                   CAST(count(*) AS BIGINT) AS n_unique_lines,
                   string_agg(f.line, chr(10) ORDER BY f.p) AS dedup_text
            FROM f JOIN (SELECT doc_id,
                                len(split(t2, chr(10))) AS n FROM d) nl
                   ON f.doc_id = nl.doc_id
            GROUP BY f.doc_id""",
        "split_assign": """
            SELECT doc_id, lang,
                   CASE WHEN CAST(('0x' || substr(md5(CAST(doc_id AS
                          VARCHAR)), 1, 8)) AS UBIGINT) % 100 < 80
                          THEN 'train'
                        WHEN CAST(('0x' || substr(md5(CAST(doc_id AS
                          VARCHAR)), 1, 8)) AS UBIGINT) % 100 < 90
                          THEN 'val'
                        ELSE 'test' END AS split
            FROM documents""",
        "pps_sample": """
            WITH c AS (
              SELECT doc_id, n_chars,
                     sum(n_chars) OVER (ORDER BY doc_id
                       ROWS UNBOUNDED PRECEDING) AS cum
              FROM documents),
            t AS (SELECT greatest(sum(n_chars) // 50, 1) AS s
                  FROM documents)
            SELECT doc_id, CAST(n_chars AS BIGINT) AS weight
            FROM c, t
            WHERE (cum // s) > ((cum - n_chars) // s)""",
        "keyword_search": r"""
            WITH tok AS (
              SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS w
              FROM documents),
            h AS (SELECT doc_id, w FROM tok
                  WHERE w IN ('hash', 'merge', 'sort', 'window', 'spark')),
            s AS (SELECT doc_id,
                         CAST(count(DISTINCT w) AS BIGINT) AS n_match,
                         CAST(count(*) AS BIGINT) AS sum_tf
                  FROM h GROUP BY doc_id)
            SELECT doc_id, n_match, sum_tf
            FROM s ORDER BY n_match DESC, sum_tf DESC, doc_id
            LIMIT 20""",
        "heavy_hitters": r"""
            SELECT w AS term, CAST(count(*) AS BIGINT) AS approx_n
            FROM (SELECT unnest(regexp_extract_all(text, '\S+')) AS w
                  FROM documents)
            GROUP BY w""",
        "zorder_scan": """
            SELECT doc_id, n_chars, lang
            FROM documents
            WHERE n_chars BETWEEN 100 AND 300 AND lang = 'en'""",
        "zorder": """
            WITH lc AS (
              SELECT lang,
                     CAST(row_number() OVER (ORDER BY lang) - 1
                          AS BIGINT) AS code
              FROM (SELECT DISTINCT lang FROM documents)),
            b AS (
              SELECT d.doc_id, d.n_chars % 65536 AS x, lc.code AS y
              FROM documents d JOIN lc USING (lang)),
            z AS (
              SELECT doc_id,
                     CAST(sum((((x >> i) & 1) << (2 * i))
                              + (((y >> i) & 1) << (2 * i + 1)))
                          AS BIGINT) AS zvalue
              FROM b, unnest(range(16)) AS t(i)
              GROUP BY doc_id)
            SELECT doc_id, zvalue,
                   CAST(zvalue >> 20 AS BIGINT) AS file_bucket
            FROM z""",
        "clip_outliers": """
            WITH b AS (SELECT quantile_disc(n_chars, 0.05) AS lo,
                              quantile_disc(n_chars, 0.95) AS hi
                       FROM documents)
            SELECT doc_id, n_chars,
                   CAST(least(greatest(n_chars, b.lo), b.hi) AS BIGINT)
                     AS clipped
            FROM documents, b""",
        "bpe_pairs": r"""
            WITH w AS (
              SELECT unnest(regexp_extract_all(text, '\S+')) AS word
              FROM documents),
            wc AS (SELECT word, count(*) AS c FROM w GROUP BY word),
            p AS (
              SELECT substring(word, i, 2) AS pair,
                     CAST(sum(c) AS BIGINT) AS n
              FROM wc, unnest(range(1, length(word))) AS t(i)
              GROUP BY pair)
            SELECT pair, n FROM p ORDER BY n DESC, pair LIMIT 50""",
        "incremental_near_dedup": _WORD_SHINGLES_CTE + """
            , newd AS (SELECT * FROM sh WHERE doc_id % 5 <> 0),
            hist AS (SELECT * FROM sh WHERE doc_id % 5 = 0),
            dup AS (
              SELECT DISTINCT n.doc_id
              FROM newd n JOIN hist h
                ON CAST(len(list_intersect(n.s, h.s)) AS DOUBLE)
                   / len(list_distinct(list_concat(n.s, h.s))) >= 0.8)
            SELECT d.doc_id, d.lang
            FROM documents d
            WHERE d.doc_id % 5 <> 0
              AND d.doc_id NOT IN (SELECT doc_id FROM dup)""",
        "dup_spans": r"""
            WITH tok AS (
              SELECT doc_id, regexp_extract_all(text, '\S+') AS ts
              FROM documents),
            g AS (
              SELECT DISTINCT doc_id,
                     array_to_string(ts[k + 1 : k + 8], ' ') AS gram
              FROM tok, unnest(range(greatest(len(ts) - 7, 0))) AS t(k)),
            c AS (SELECT gram, count(*) AS nd FROM g GROUP BY gram),
            per AS (
              SELECT g.doc_id, count(*) AS n_grams,
                     sum(CASE WHEN c.nd > 1 THEN 1 ELSE 0 END) AS n_dup
              FROM g JOIN c USING (gram) GROUP BY g.doc_id)
            SELECT d.doc_id,
                   CAST(coalesce(p.n_grams, 0) AS BIGINT) AS n_grams,
                   CAST(coalesce(p.n_dup, 0) AS BIGINT) AS n_dup_grams
            FROM documents d LEFT JOIN per p USING (doc_id)""",
        "remove_dup_spans": r"""
            WITH tok AS (
              SELECT doc_id, regexp_extract_all(text, '\S+') AS ts
              FROM documents),
            w AS (
              SELECT doc_id, k AS pos, ts[k + 1] AS word
              FROM tok, unnest(range(len(ts))) AS t(k)),
            occ AS (
              SELECT doc_id, k AS pos,
                     array_to_string(ts[k + 1 : k + 8], ' ') AS gram
              FROM tok, unnest(range(greatest(len(ts) - 7, 0))) AS t(k)),
            c AS (
              SELECT gram, count(*) AS nd,
                     min(doc_id * 1048576 + pos) AS first_packed
              FROM occ GROUP BY gram),
            rem AS (
              SELECT o.doc_id, o.pos
              FROM occ o JOIN c USING (gram)
              WHERE c.nd > 1
                AND o.doc_id * 1048576 + o.pos <> c.first_packed),
            cov AS (
              SELECT DISTINCT r.doc_id, r.pos + j AS pos
              FROM rem r, unnest(range(8)) AS t(j)),
            kept AS (
              SELECT w.doc_id, w.pos, w.word
              FROM w LEFT JOIN cov
                ON w.doc_id = cov.doc_id AND w.pos = cov.pos
              WHERE cov.doc_id IS NULL),
            per AS (
              SELECT doc_id, string_agg(word, ' ' ORDER BY pos) AS text_clean
              FROM kept GROUP BY doc_id)
            SELECT d.doc_id, coalesce(p.text_clean, '') AS text_clean
            FROM documents d LEFT JOIN per p USING (doc_id)""",
        "event_transitions": """
            WITH s AS (
              SELECT event_type AS from_type,
                     lead(event_type) OVER (PARTITION BY user_id
                       ORDER BY ts, event_id) AS to_type
              FROM events)
            SELECT from_type, to_type, CAST(count(*) AS BIGINT) AS n
            FROM s WHERE to_type IS NOT NULL
            GROUP BY from_type, to_type""",
        "dsir_weights": """
            WITH tok AS (
              SELECT doc_id, lang,
                     regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
              FROM documents),
            g AS (
              SELECT doc_id, lang,
                     CAST(CAST(('0x' || substr(md5(ts[k + 1] || ' ' ||
                          ts[k + 2]), 1, 8)) AS UBIGINT) % 4096
                          AS BIGINT) AS bkt
              FROM tok, unnest(range(greatest(len(ts) - 1, 0))) AS t(k)),
            tots AS (
              SELECT count(*) AS r_tot,
                     count(*) FILTER (lang = 'en') AS t_tot
              FROM g),
            lr AS (
              SELECT bkt,
                     ln((count(*) FILTER (lang = 'en') + 1.0)
                        / (tots.t_tot + 4096))
                   - ln((count(*) + 1.0) / (tots.r_tot + 4096)) AS logratio
              FROM g, tots GROUP BY bkt, tots.t_tot, tots.r_tot),
            per AS (
              SELECT g.doc_id,
                     count(*) AS n_feats,
                     sum(lr.logratio) AS dsir_logw
              FROM g JOIN lr USING (bkt) GROUP BY g.doc_id)
            SELECT d.doc_id,
                   CAST(coalesce(p.n_feats, 0) AS BIGINT) AS n_feats,
                   coalesce(p.dsir_logw, 0.0) AS dsir_logw
            FROM documents d LEFT JOIN per p USING (doc_id)""",
        "domain_reweight": """
            WITH n AS (SELECT lang, count(*) AS n_g
                       FROM documents GROUP BY lang),
                 t AS (SELECT min(n_g) AS target_n FROM n)
            SELECT d.doc_id, d.lang
            FROM documents d JOIN n USING (lang) CROSS JOIN t
            WHERE CAST(('0x' || substr(md5(CAST(d.doc_id AS VARCHAR)), 1, 8))
                       AS UBIGINT) % 1048576
                  < (t.target_n * 1048576) // n.n_g""",
        "posting_lists": r"""
            WITH pairs AS (
              SELECT DISTINCT term, doc_id FROM (
                SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS term
                FROM documents))
            SELECT term, CAST(count(*) AS BIGINT) AS df,
                   array_to_string(
                     list_slice(list(doc_id ORDER BY doc_id), 1, 20), ',')
                     AS postings
            FROM pairs GROUP BY term""",
        "gopher_quality": r"""
            WITH g AS (
              SELECT doc_id,
                len(regexp_extract_all(text, '\S+')) AS n_words,
                CAST(length(regexp_replace(text, '\s+', '', 'g')) AS BIGINT)
                  AS n_word_chars,
                len(regexp_extract_all(text, '\S*[A-Za-z]\S*'))
                  AS n_alpha_words,
                CAST(1 + length(text) - length(replace(text, chr(10), ''))
                     AS BIGINT) AS n_lines,
                len(regexp_extract_all(text, '(?m)^[ \t]*[-*•]'))
                  AS n_bullet_lines,
                len(regexp_extract_all(text, '(?m)(\.\.\.|…)[ \t]*$'))
                  AS n_ellipsis_lines
              FROM documents)
            SELECT doc_id, n_words, n_word_chars, n_alpha_words, n_lines,
                   n_bullet_lines, n_ellipsis_lines,
                   (n_words BETWEEN 50 AND 100000
                    AND n_word_chars BETWEEN 3 * n_words AND 10 * n_words
                    AND 100 * n_bullet_lines <= 90 * n_lines
                    AND 100 * n_ellipsis_lines <= 30 * n_lines
                    AND 100 * n_alpha_words >= 80 * n_words) AS keep
            FROM g""",
        "c4_filter": r"""
            WITH d AS (
              SELECT doc_id,
                     regexp_replace(text, '((?:\S+ ){7}\S+) ',
                                    '\1' || chr(10), 'g') AS t2
              FROM documents
            ), f AS (
              SELECT doc_id, t2,
                CAST(len(split(t2, chr(10))) AS BIGINT) AS n_lines,
                list_filter(split(t2, chr(10)),
                    l -> regexp_matches(l, '(?:^|[ \t])table(?:[ \t]|$)')
                         AND len(regexp_extract_all(l, '\S+')) >= 8) AS kept
              FROM d)
            SELECT doc_id, n_lines,
                   CAST(len(kept) AS BIGINT) AS n_kept_lines,
                   COALESCE(array_to_string(kept, chr(10)), '') AS kept_text,
                   (len(kept) >= 2
                    AND NOT contains(lower(t2), 'lorem ipsum')
                    AND NOT contains(t2, '{')) AS keep
            FROM f""",
        "ntile_buckets": """
            SELECT doc_id, n_chars,
                   CAST(row_number() OVER (ORDER BY n_chars, doc_id)
                        AS BIGINT) AS rnk,
                   CAST(ntile(8) OVER (ORDER BY n_chars, doc_id)
                        AS BIGINT) AS bucket
            FROM documents""",
        "collocations": r"""
            WITH toks AS (
              SELECT doc_id, regexp_extract_all(text, '\S+') AS w
              FROM documents
            ), uni AS (
              SELECT term, CAST(count(*) AS BIGINT) AS n
              FROM (SELECT unnest(w) AS term FROM toks) GROUP BY term
            ), vocab AS (
              SELECT term, n FROM uni ORDER BY n DESC, term LIMIT 200
            ), pairs AS (
              SELECT p.w1 AS w1, p.w2 AS w2 FROM (
                SELECT unnest(list_transform(range(1, len(w)),
                         i -> struct_pack(w1 := w[i], w2 := w[i+1]))) AS p
                FROM toks WHERE len(w) >= 2)
            )
            SELECT pr.w1, pr.w2, CAST(count(*) AS BIGINT) AS pair_n,
                   v1.n AS w1_n, v2.n AS w2_n
            FROM pairs pr
            JOIN vocab v1 ON pr.w1 = v1.term
            JOIN vocab v2 ON pr.w2 = v2.term
            GROUP BY pr.w1, pr.w2, v1.n, v2.n
            HAVING count(*) >= 2""",
        "snapshot_diff": """
            WITH b AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 5 = 0 THEN text || ' [rev2]'
                          ELSE text END AS text
              FROM documents WHERE doc_id % 7 <> 0
              UNION ALL
              SELECT doc_id + 1000000000 AS doc_id,
                     'new page ' || doc_id AS text
              FROM documents WHERE doc_id % 11 = 0
            )
            SELECT COALESCE(a.doc_id, b.doc_id) AS doc_id,
                   CASE WHEN a.doc_id IS NULL THEN 'added'
                        WHEN b.doc_id IS NULL THEN 'removed'
                        ELSE 'changed' END AS change
            FROM documents a FULL OUTER JOIN b ON a.doc_id = b.doc_id
            WHERE a.doc_id IS NULL OR b.doc_id IS NULL
               OR a.text IS DISTINCT FROM b.text""",
        "pagerank": """
            WITH e AS (
              SELECT DISTINCT doc_id % 211 AS src,
                              (doc_id * 13 + 7) % 211 AS dst
              FROM documents
              WHERE (doc_id % 211) <> ((doc_id * 13 + 7) % 211)
            ), outd AS (
              SELECT src, CAST(count(*) AS BIGINT) AS deg FROM e GROUP BY src
            ), n AS (
              SELECT DISTINCT node FROM (
                SELECT src AS node FROM e UNION ALL SELECT dst FROM e)
            ), r0 AS (
              SELECT node, CAST(1000000 AS BIGINT) AS r FROM n
            ), c1 AS (
              SELECT e.dst AS node, sum(r0.r // outd.deg) AS s
              FROM e JOIN r0 ON e.src = r0.node
                     JOIN outd ON e.src = outd.src
              GROUP BY e.dst
            ), r1 AS (
              SELECT n.node, 150000 + (85 * COALESCE(c1.s, 0)) // 100 AS r
              FROM n LEFT JOIN c1 ON n.node = c1.node
            ), c2 AS (
              SELECT e.dst AS node, sum(r1.r // outd.deg) AS s
              FROM e JOIN r1 ON e.src = r1.node
                     JOIN outd ON e.src = outd.src
              GROUP BY e.dst
            ), r2 AS (
              SELECT n.node, 150000 + (85 * COALESCE(c2.s, 0)) // 100 AS r
              FROM n LEFT JOIN c2 ON n.node = c2.node
            ), c3 AS (
              SELECT e.dst AS node, sum(r2.r // outd.deg) AS s
              FROM e JOIN r2 ON e.src = r2.node
                     JOIN outd ON e.src = outd.src
              GROUP BY e.dst
            ), r3 AS (
              SELECT n.node, 150000 + (85 * COALESCE(c3.s, 0)) // 100 AS r
              FROM n LEFT JOIN c3 ON n.node = c3.node
            )
            SELECT node, CAST(r AS BIGINT) AS "rank" FROM r3""",
        "host_blocklist": _PAGE_CTE + """
            SELECT url, lang FROM (
              SELECT url, lang,
                     regexp_extract(url, '^[a-z+]+://([^/]+)', 1) AS host
              FROM c)
            WHERE host NOT IN ('site7.example', 'site13.example')
              AND host NOT LIKE '%3.example'""",
        "host_mirror": _PAGE_CTE + f"""
            , x AS (
              SELECT DISTINCT
                     regexp_extract(url, '^[a-z+]+://([^/]+)', 1) AS host,
                     md5(extr) AS fp
              FROM (SELECT url, {_EXTRACTED_EXPR} AS extr,
                           {_STATUS_EXPR} AS status FROM c)
              WHERE status = 'done' AND extr IS NOT NULL
            )
            SELECT a.host AS host_a, b.host AS host_b,
                   CAST(count(*) AS BIGINT) AS n_shared
            FROM x a JOIN x b ON a.fp = b.fp AND a.host < b.host
            GROUP BY a.host, b.host""",
        "cheapest_supplier": """
            SELECT p_partkey, s_suppkey, total_cents FROM (
              SELECT l_partkey AS p_partkey, l_suppkey AS s_suppkey,
                     CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT))
                          AS BIGINT) AS total_cents,
                     row_number() OVER (
                       PARTITION BY l_partkey
                       ORDER BY sum(CAST(round(l_extendedprice * 100)
                                         AS BIGINT)) ASC, l_suppkey ASC
                     ) AS rn
              FROM lineitem GROUP BY l_partkey, l_suppkey)
            WHERE rn = 1""",
        "host_lang": _PAGE_CTE + """
            SELECT host, lang, n_pages FROM (
              SELECT regexp_extract(url, '^[a-z+]+://([^/]+)', 1) AS host,
                     lang, CAST(count(*) AS BIGINT) AS n_pages,
                     row_number() OVER (
                       PARTITION BY regexp_extract(url,
                                      '^[a-z+]+://([^/]+)', 1)
                       ORDER BY count(*) DESC, lang ASC) AS rn
              FROM c GROUP BY 1, 2)
            WHERE rn = 1""",
        "url_canon_dedup": _PAGE_CTE + """
            SELECT url, CAST(3 AS BIGINT) AS n_variants FROM c""",
        "incremental_stats": """
            SELECT lang, CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(sum(n_chars) AS BIGINT) AS total_chars
            FROM documents GROUP BY lang""",
        "sentence_stats": """
            SELECT doc_id,
                   COALESCE(CAST(len(list_filter(list_transform(
                     string_split_regex(replace(text, ' batch ', '. '),
                                        '[.!?]+'),
                     s -> trim(s)), s -> s <> '')) AS BIGINT), 0)
                     AS n_sentences
            FROM documents""",
        "basket_pairs": """
            WITH items AS (
              SELECT DISTINCT l_orderkey, l_partkey FROM lineitem
            )
            SELECT a.l_partkey AS p1, b.l_partkey AS p2,
                   CAST(count(*) AS BIGINT) AS support
            FROM items a JOIN items b
              ON a.l_orderkey = b.l_orderkey
             AND a.l_partkey < b.l_partkey
            GROUP BY a.l_partkey, b.l_partkey
            HAVING count(*) >= 3""",
        "scd2_dim": """
            WITH b AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 5 = 0 THEN text || ' [rev2]'
                          ELSE text END AS text
              FROM documents WHERE doc_id % 7 <> 0
              UNION ALL
              SELECT doc_id + 1000000000 AS doc_id,
                     'new page ' || doc_id AS text
              FROM documents WHERE doc_id % 11 = 0
            ), diff AS (
              SELECT COALESCE(a.doc_id, b.doc_id) AS doc_id,
                     CASE WHEN a.doc_id IS NULL THEN 'added'
                          WHEN b.doc_id IS NULL THEN 'removed'
                          ELSE 'changed' END AS change
              FROM documents a FULL OUTER JOIN b ON a.doc_id = b.doc_id
              WHERE a.doc_id IS NULL OR b.doc_id IS NULL
                 OR a.text IS DISTINCT FROM b.text
            )
            SELECT doc_id, 'v2' AS valid_from,
                   CAST(NULL AS VARCHAR) AS valid_to
            FROM diff WHERE change = 'added'
            UNION ALL
            SELECT doc_id, 'v1', 'v2'
            FROM diff WHERE change IN ('removed', 'changed')
            UNION ALL
            SELECT doc_id, 'v2', NULL FROM diff WHERE change = 'changed'
            UNION ALL
            SELECT d.doc_id, 'v1', NULL
            FROM documents d
            WHERE d.doc_id NOT IN (SELECT doc_id FROM diff)""",
        "keep_best_dedup": """
            WITH g AS (
              SELECT lang, source, max(n_chars) AS best_len,
                     CAST(count(*) AS BIGINT) AS n_docs
              FROM documents GROUP BY lang, source
            )
            SELECT g.lang, g.source,
                   CAST(min(d.doc_id) AS BIGINT) AS keep_id,
                   g.best_len, g.n_docs
            FROM documents d
            JOIN g ON d.lang = g.lang AND d.source = g.source
                  AND d.n_chars = g.best_len
            GROUP BY g.lang, g.source, g.best_len, g.n_docs""",
        "users_all_types": """
            SELECT user_id FROM (
              SELECT user_id, count(DISTINCT event_type) AS c
              FROM events
              WHERE event_type IN ('view', 'click', 'purchase')
              GROUP BY user_id)
            WHERE c = 3""",
        "bfs_layers": """
            WITH RECURSIVE e AS (
              SELECT DISTINCT doc_id % 211 AS src,
                              (doc_id * 13 + 7) % 211 AS dst
              FROM documents
              WHERE (doc_id % 211) <> ((doc_id * 13 + 7) % 211)
            ), b AS (
              SELECT CAST(0 AS BIGINT) AS node, 0 AS layer
              UNION
              SELECT e.dst AS node, b.layer + 1
              FROM b JOIN e ON e.src = b.node
              WHERE b.layer < 3
            )
            SELECT node, CAST(min(layer) AS BIGINT) AS layer
            FROM b GROUP BY node""",
        "diverse_top_docs": """
            WITH r AS (
              SELECT doc_id, source, n_chars,
                     row_number() OVER (
                       PARTITION BY source
                       ORDER BY n_chars DESC, doc_id) AS rs
              FROM documents
            ), t AS (
              SELECT * FROM r WHERE rs <= 2
            )
            SELECT CAST(row_number() OVER (
                     ORDER BY n_chars DESC, doc_id) AS BIGINT) AS rank,
                   doc_id, source, n_chars, CAST(rs AS BIGINT) AS rs
            FROM t ORDER BY n_chars DESC, doc_id LIMIT 20""",
        "contamination_frac": """
            WITH w AS (
              SELECT doc_id, string_split(text, ' ') AS ws
              FROM documents
            ), g AS (
              SELECT doc_id,
                     unnest(list_transform(
                       generate_series(1, greatest(len(ws) - 2, 0)),
                       i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2]))
                       AS gram
              FROM w
            ), t AS (
              SELECT DISTINCT gram FROM g WHERE doc_id % 31 = 0
            ), pd AS (
              SELECT g.doc_id,
                     CAST(count(*) AS BIGINT) AS n_grams,
                     CAST(count(*) FILTER (
                       gram IN (SELECT gram FROM t)) AS BIGINT) AS n_hit
              FROM g GROUP BY g.doc_id
            )
            SELECT d.doc_id,
                   CAST(COALESCE(pd.n_grams, 0) AS BIGINT) AS n_grams,
                   CAST(COALESCE(pd.n_hit, 0) AS BIGINT) AS n_hit,
                   CAST(COALESCE(pd.n_hit, 0) * 1000000
                        // greatest(COALESCE(pd.n_grams, 0), 1)
                        AS BIGINT) AS frac_ppm
            FROM documents d LEFT JOIN pd ON d.doc_id = pd.doc_id""",
        "table_checksum": """
            SELECT 'documents' AS table_name,
                   CAST(count(*) AS BIGINT) AS n_rows,
                   CAST(sum(CAST(md5_number_lower(
                     CAST(doc_id AS VARCHAR) || '|' || text)
                     % 1000000007 AS BIGINT)) AS BIGINT) AS checksum
            FROM documents
            UNION ALL
            SELECT 'nation',
                   CAST(count(*) AS BIGINT),
                   CAST(sum(CAST(md5_number_lower(
                     CAST(n_nationkey AS VARCHAR) || '|' || n_name)
                     % 1000000007 AS BIGINT)) AS BIGINT)
            FROM nation""",
        "cube_rollup": """
            SELECT lang, source, CAST(count(*) AS BIGINT) AS n
            FROM documents GROUP BY CUBE (lang, source)""",
        "user_type_mask_agg": """
            SELECT user_id,
                   CAST(sum(DISTINCT CASE event_type
                     WHEN 'view' THEN 1 WHEN 'click' THEN 2
                     WHEN 'purchase' THEN 4 WHEN 'signup' THEN 8
                     ELSE 16 END) AS BIGINT) AS mask
            FROM events GROUP BY user_id""",
        "doc_len_pct_in_lang": """
            SELECT doc_id, lang, n_chars,
                   CAST((rank() OVER (
                          PARTITION BY lang ORDER BY n_chars) - 1)
                        * 1000000
                        // count(*) OVER (PARTITION BY lang)
                        AS BIGINT) AS pct_ppm
            FROM documents""",
        "ks_lang_len": """
            WITH g AS (
              SELECT n_chars AS v,
                     CAST(sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)
                          AS BIGINT) AS ne,
                     CAST(sum(CASE WHEN lang = 'en' THEN 0 ELSE 1 END)
                          AS BIGINT) AS no
              FROM documents GROUP BY n_chars
            ), c AS (
              SELECT CAST(sum(ne) OVER (ORDER BY v) AS BIGINT) AS cne,
                     CAST(sum(no) OVER (ORDER BY v) AS BIGINT) AS cno
              FROM g
            ), t AS (
              SELECT CAST(sum(ne) AS BIGINT) AS n_en,
                     CAST(sum(no) AS BIGINT) AS n_other
              FROM g
            )
            SELECT t.n_en, t.n_other,
                   CAST(max(abs(c.cne * t.n_other - c.cno * t.n_en))
                        AS BIGINT) AS d_num,
                   CAST(max(abs(c.cne * t.n_other - c.cno * t.n_en))
                        * 1000000 // (t.n_en * t.n_other)
                        AS BIGINT) AS ks_ppm
            FROM c, t GROUP BY t.n_en, t.n_other""",
        "weighted_median_price": """
            WITH d AS (
              SELECT l_returnflag AS grp,
                     CAST(round(l_extendedprice * 100) AS BIGINT) AS v,
                     CAST(round(l_quantity) AS BIGINT) AS w
              FROM lineitem
            ), g AS (
              SELECT grp, v, CAST(sum(w) AS BIGINT) AS w
              FROM d GROUP BY grp, v
            ), c AS (
              SELECT grp, v,
                     CAST(sum(w) OVER (PARTITION BY grp ORDER BY v)
                          AS BIGINT) AS cw,
                     CAST(sum(w) OVER (PARTITION BY grp) AS BIGINT) AS tw
              FROM g
            )
            SELECT grp AS l_returnflag,
                   CAST(min(v) AS BIGINT) AS wmedian_cents
            FROM c WHERE cw * 2 >= tw GROUP BY grp""",
        "vocab_overlap": r"""
            WITH lt AS (
              SELECT DISTINCT lang, term FROM (
                SELECT lang,
                       unnest(regexp_extract_all(text, '\S+')) AS term
                FROM documents)
            ), p AS (
              SELECT a.lang AS lang_a, b.lang AS lang_b,
                     CAST(count(*) AS BIGINT) AS n_common
              FROM lt a JOIN lt b
                   ON a.term = b.term AND a.lang < b.lang
              GROUP BY a.lang, b.lang
            ), s AS (
              SELECT lang, CAST(count(*) AS BIGINT) AS n
              FROM lt GROUP BY lang
            )
            SELECT p.lang_a, p.lang_b, sa.n AS n_a, sb.n AS n_b,
                   p.n_common,
                   CAST(p.n_common * 1000000
                        // (sa.n + sb.n - p.n_common) AS BIGINT)
                       AS jaccard_ppm
            FROM p JOIN s sa ON p.lang_a = sa.lang
                   JOIN s sb ON p.lang_b = sb.lang""",
        "emb_norm_outliers": """
            WITH nq AS (
              SELECT vec_id,
                     CAST(list_sum(list_transform(
                          CAST(embedding AS DOUBLE[]),
                          x -> CAST(floor(x * 1048576) AS BIGINT)
                               * CAST(floor(x * 1048576) AS BIGINT)))
                          AS BIGINT) AS s
              FROM embeddings
            ), m AS (
              SELECT min(v) AS med FROM (
                SELECT s AS v,
                       count(*) OVER (ORDER BY s) * 2
                         >= count(*) OVER () AS ok
                FROM nq) WHERE ok
            ), a AS (
              SELECT vec_id, s,
                     abs(s - (SELECT med FROM m)) AS ad
              FROM nq
            ), mm AS (
              SELECT min(v) AS mad FROM (
                SELECT ad AS v,
                       count(*) OVER (ORDER BY ad) * 2
                         >= count(*) OVER () AS ok
                FROM a) WHERE ok
            )
            SELECT vec_id, CAST(s AS BIGINT) AS norm_q2,
                   CAST(CASE WHEN ad > 3 * (SELECT mad FROM mm)
                        THEN 1 ELSE 0 END AS BIGINT) AS is_outlier
            FROM a""",
        "rank_fusion": r"""
            WITH d AS (
              SELECT doc_id, CAST(n_chars AS BIGINT) AS len_v,
                     CAST(len(string_split_regex(coalesce(text, ''),
                                                 '\s+')) AS BIGINT)
                       * 100
                       // CAST(greatest(n_chars, 1) AS BIGINT) AS q_v
              FROM documents
            ), r AS (
              SELECT doc_id,
                     rank() OVER (ORDER BY len_v DESC) AS rl,
                     rank() OVER (ORDER BY q_v DESC) AS rq
              FROM d
            )
            SELECT doc_id,
                   CAST(1000000000 // (60 + rl)
                        + 1000000000 // (60 + rq) AS BIGINT)
                       AS rrf_score
            FROM r ORDER BY rrf_score DESC, doc_id LIMIT 20""",
        "contingency_chi2": """
            WITH cells AS (
              SELECT lang, source, CAST(count(*) AS BIGINT) AS n
              FROM documents GROUP BY lang, source
            ), tot AS (
              SELECT CAST(sum(n) AS BIGINT) AS nn FROM cells
            ), rm AS (
              SELECT lang, CAST(sum(n) AS BIGINT) AS rn
              FROM cells GROUP BY lang
            ), cm AS (
              SELECT source, CAST(sum(n) AS BIGINT) AS cn
              FROM cells GROUP BY source
            )
            SELECT cells.lang, cells.source, cells.n,
                   CAST(cells.n * tot.nn - rm.rn * cm.cn AS BIGINT)
                       AS resid_num,
                   CAST((abs(cells.n * tot.nn - rm.rn * cm.cn)
                         // tot.nn)
                        * (abs(cells.n * tot.nn - rm.rn * cm.cn)
                           // tot.nn)
                        // greatest((rm.rn * cm.cn) // tot.nn, 1)
                        AS BIGINT) AS chi2_term
            FROM cells, tot
            JOIN rm ON cells.lang = rm.lang
            JOIN cm ON cells.source = cm.source""",
        "top_supplier_rev": """
            WITH rev AS (
              SELECT l_suppkey AS s_suppkey,
                     CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)
                          * (100 - CAST(round(l_discount * 100)
                                        AS BIGINT))) AS BIGINT)
                         AS total_rev_e4
              FROM lineitem
              WHERE l_shipdate >= TIMESTAMP '1996-01-01'
                AND l_shipdate < TIMESTAMP '1996-04-01'
              GROUP BY l_suppkey
            )
            SELECT rev.s_suppkey, s.s_name, rev.total_rev_e4
            FROM rev JOIN supplier s ON rev.s_suppkey = s.s_suppkey
            WHERE rev.total_rev_e4 = (SELECT max(total_rev_e4) FROM rev)""",
        "rare_term_pairs": r"""
            WITH d AS (
              SELECT doc_id,
                     text || ' mk' || CAST(doc_id % (SELECT greatest(149, CAST(ceil(count(*) / 3.0) AS BIGINT)) FROM documents) AS VARCHAR)
                       AS text
              FROM documents
            ), inc AS (
              SELECT DISTINCT doc_id, term FROM (
                SELECT doc_id,
                       unnest(regexp_extract_all(text, '\S+')) AS term
                FROM d)
            ), rare AS (
              SELECT term FROM inc GROUP BY term HAVING count(*) <= 3
            ), ri AS (
              SELECT i.term, i.doc_id FROM inc i
              JOIN rare ON i.term = rare.term
            )
            SELECT x.doc_id AS a, y.doc_id AS b,
                   CAST(count(*) AS BIGINT) AS n_shared_terms
            FROM ri x JOIN ri y
              ON x.term = y.term AND x.doc_id < y.doc_id
            GROUP BY x.doc_id, y.doc_id""",
        "priority_semi_native": """
            SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n_orders
            FROM orders
            WHERE EXISTS (SELECT 1 FROM lineitem
                          WHERE l_orderkey = o_orderkey
                            AND l_quantity > 45)
            GROUP BY o_orderpriority""",
        "byte_blocks": """
            SELECT doc_id, CAST(n_chars AS BIGINT) AS row_bytes,
                   CAST((sum(n_chars) OVER (
                     ORDER BY doc_id ROWS UNBOUNDED PRECEDING)
                     - n_chars) // 4096 AS BIGINT) AS block_id
            FROM documents""",
        "schema_evolve": """
            WITH u AS (
              SELECT doc_id, text, NULL AS lang, NULL AS crawl_tag
              FROM documents WHERE doc_id % 2 = 0
              UNION ALL
              SELECT doc_id, text, lang, 'c2' AS crawl_tag
              FROM documents WHERE doc_id % 2 = 1
            )
            SELECT COALESCE(lang, '<missing>') AS lang,
                   COALESCE(crawl_tag, '<none>') AS crawl_tag,
                   CAST(count(*) AS BIGINT) AS n
            FROM u GROUP BY 1, 2""",
        "table_extract": """
            SELECT doc_id, CAST(0 AS BIGINT) AS table_idx,
                   r.range AS row_idx, c.range AS col_idx,
                   doc_id || '-' || r.range || '-' || c.range AS cell
            FROM documents CROSS JOIN range(2) r CROSS JOIN range(2) c""",
        "host_churn": """
            WITH b AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 5 = 0 THEN text || ' [rev2]'
                          ELSE text END AS text
              FROM documents WHERE doc_id % 7 <> 0
              UNION ALL
              SELECT doc_id + 1000000000 AS doc_id,
                     'new page ' || doc_id AS text
              FROM documents WHERE doc_id % 11 = 0
            ), diff AS (
              SELECT COALESCE(a.doc_id, b.doc_id) AS doc_id,
                     CASE WHEN a.doc_id IS NULL THEN 'added'
                          WHEN b.doc_id IS NULL THEN 'removed'
                          ELSE 'changed' END AS change
              FROM documents a FULL OUTER JOIN b ON a.doc_id = b.doc_id
              WHERE a.doc_id IS NULL OR b.doc_id IS NULL
                 OR a.text IS DISTINCT FROM b.text
            )
            SELECT d.source, diff.change, CAST(count(*) AS BIGINT) AS n
            FROM diff JOIN documents d ON
              (CASE WHEN diff.doc_id >= 1000000000
                    THEN diff.doc_id - 1000000000
                    ELSE diff.doc_id END) = d.doc_id
            GROUP BY d.source, diff.change""",
        "token_budget": """
            SELECT doc_id, source, n_chars FROM (
              SELECT doc_id, source, n_chars,
                     sum(n_chars) OVER (
                       PARTITION BY source
                       ORDER BY n_chars DESC, doc_id ASC
                       ROWS UNBOUNDED PRECEDING) AS c
              FROM documents)
            WHERE c <= 50000""",
        "triangle_count": """
            WITH e AS (
              SELECT DISTINCT doc_id % 211 AS src,
                              (doc_id * 13 + 7) % 211 AS dst
              FROM documents
              WHERE (doc_id % 211) <> ((doc_id * 13 + 7) % 211)
            ), u AS (
              SELECT DISTINCT least(src, dst) AS a,
                              greatest(src, dst) AS b FROM e
            )
            SELECT CAST(count(*) AS BIGINT) AS n_triangles
            FROM u x JOIN u y ON x.b = y.a
                     JOIN u z ON z.a = x.a AND z.b = y.b""",
        "bucketed_join": """
            SELECT c_mktsegment, CAST(count(*) AS BIGINT) AS n_orders
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment""",
        "embedding_dim_stats": """
            SELECT dim, CAST(count(*) AS BIGINT) AS n,
                   CAST(sum(v) AS BIGINT) AS sum_e6,
                   CAST(min(v) AS BIGINT) AS min_e6,
                   CAST(max(v) AS BIGINT) AS max_e6
            FROM (
              SELECT r.range AS dim,
                     CAST(floor(CAST(embedding[r.range + 1] AS DOUBLE)
                                * 1000000) AS BIGINT) AS v
              FROM embeddings CROSS JOIN range(64) r)
            GROUP BY dim""",
        "dup_cluster_hist": """
            WITH d AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 10 < 3
                          THEN 'dup bucket ' || CAST(doc_id % 50 AS VARCHAR)
                          ELSE text END AS text
              FROM documents
            ), s AS (
              SELECT CAST(count(*) AS BIGINT) AS cluster_size
              FROM d GROUP BY md5(text)
            )
            SELECT cluster_size, CAST(count(*) AS BIGINT) AS n_clusters
            FROM s GROUP BY cluster_size""",
        "knn_multi": """
            SELECT CAST(qid AS INTEGER) AS query_idx, vec_id,
                   CAST(rank AS INTEGER) AS rank FROM (
              SELECT q.vec_id AS qid, e.vec_id AS vec_id,
                     row_number() OVER (
                       PARTITION BY q.vec_id
                       ORDER BY list_cosine_similarity(e.embedding, q.embedding)
                                  DESC, e.vec_id ASC) AS rank
              FROM embeddings e
              CROSS JOIN (SELECT vec_id, embedding FROM embeddings
                          WHERE vec_id < 5) q)
            WHERE rank <= 10""",
        "doc_freq": r"""
            SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
            FROM (SELECT doc_id, unnest(regexp_extract_all(text, '\S+')) AS term
                  FROM documents)
            GROUP BY term ORDER BY df DESC, term ASC LIMIT 50""",
        "kmeans_assign1": """
            WITH cent AS (
              SELECT row_number() OVER (ORDER BY vec_id) - 1 AS idx,
                     embedding AS c,
                     CASE WHEN list_dot_product(embedding, embedding) = 0
                          THEN 1.0
                          ELSE sqrt(list_dot_product(embedding, embedding))
                     END AS nrm
              FROM (SELECT vec_id, embedding FROM embeddings
                    ORDER BY vec_id LIMIT 8)
            ),
            sims AS (
              SELECT e.vec_id, c.idx,
                     list_dot_product(e.embedding, c.c) / c.nrm AS s
              FROM embeddings e CROSS JOIN cent c
            )
            SELECT vec_id, CAST(idx AS BIGINT) AS cell FROM (
              SELECT vec_id, idx,
                     row_number() OVER (PARTITION BY vec_id
                                        ORDER BY s DESC, idx ASC) AS rn
              FROM sims)
            WHERE rn = 1""",
        "lm_bigram_counts": """
            WITH chars AS (
              SELECT substring(text, u.i, 1) AS ch
              FROM documents,
                   unnest(range(1, length(text)::BIGINT + 1)) AS u(i)
              WHERE text IS NOT NULL
            ),
            top AS (
              SELECT ch FROM (
                SELECT ch, count(*) AS n FROM chars GROUP BY ch
                ORDER BY n DESC, ch ASC LIMIT 64)
            ),
            big AS (
              SELECT CASE WHEN substring(text, u.i, 1) IN
                            (SELECT ch FROM top)
                          THEN substring(text, u.i, 1)
                          ELSE '<oov>' END AS prev_ch,
                     CASE WHEN substring(text, u.i + 1, 1) IN
                            (SELECT ch FROM top)
                          THEN substring(text, u.i + 1, 1)
                          ELSE '<oov>' END AS next_ch
              FROM documents,
                   unnest(range(1, length(text)::BIGINT)) AS u(i)
              WHERE text IS NOT NULL AND length(text) >= 2
            )
            SELECT prev_ch, next_ch, CAST(count(*) AS BIGINT) AS n
            FROM big GROUP BY prev_ch, next_ch""",
        "host_cap": _PAGE_CTE + """
            SELECT host, url FROM (
              SELECT host, url,
                     row_number() OVER (PARTITION BY host ORDER BY url) AS rn
              FROM (SELECT regexp_extract(url, '^[a-z+]+://([^/]+)', 1) AS host,
                           url
                    FROM c))
            WHERE rn <= 3""",
        "props_agg": """
            SELECT event_type,
                   CAST(sum(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT)
                     AS sum_k,
                   count(*) AS n
            FROM events GROUP BY event_type""",
        "top_events_per_user": """
            SELECT user_id, event_id, value, rank FROM (
              SELECT user_id, event_id, value,
                     row_number() OVER (PARTITION BY user_id
                                        ORDER BY value DESC, event_id ASC)
                       AS rank
              FROM events)
            WHERE rank <= 3""",
        "window_distinct_users": """
            SELECT date_trunc('hour', ts) AS hour,
                   count(DISTINCT user_id) AS n_users
            FROM events GROUP BY 1""",
        "event_pivot": """
            SELECT date_trunc('day', ts) AS day,
                   CAST(sum(CASE WHEN event_type = 'click'    THEN 1 ELSE 0 END) AS BIGINT) AS n_click,
                   CAST(sum(CASE WHEN event_type = 'error'    THEN 1 ELSE 0 END) AS BIGINT) AS n_error,
                   CAST(sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS BIGINT) AS n_purchase,
                   CAST(sum(CASE WHEN event_type = 'signup'   THEN 1 ELSE 0 END) AS BIGINT) AS n_signup,
                   CAST(sum(CASE WHEN event_type = 'view'     THEN 1 ELSE 0 END) AS BIGINT) AS n_view
            FROM events GROUP BY 1""",
        "customers_no_f_orders_native": """
            SELECT c_custkey, c_name FROM customer c
            WHERE NOT EXISTS (
              SELECT 1 FROM orders o
              WHERE o.o_custkey = c.c_custkey AND o.o_orderstatus = 'F')""",
        "lang_len_quantiles": """
            SELECT lang, 0.5::DOUBLE AS q,
                   CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS value
            FROM documents GROUP BY lang
            UNION ALL
            SELECT lang, 0.9::DOUBLE,
                   CAST(quantile_disc(n_chars, 0.9) AS BIGINT)
            FROM documents GROUP BY lang
            UNION ALL
            SELECT lang, 0.99::DOUBLE,
                   CAST(quantile_disc(n_chars, 0.99) AS BIGINT)
            FROM documents GROUP BY lang""",
        "span_extract": r"""
            SELECT doc_id, unnest(regexp_extract_all(text, 'scan \w+'))
                     AS match
            FROM documents""",
        "quantize_embeddings": """
            WITH u AS (
              SELECT vec_id, generate_subscripts(embedding, 1) AS dim,
                     CAST(unnest(embedding) AS DOUBLE) AS v
              FROM embeddings),
            b AS (SELECT dim, min(v) AS mn, max(v) AS mx FROM u GROUP BY dim)
            SELECT u.vec_id, u.dim,
                   CAST(CASE WHEN b.mx > b.mn
                             THEN floor((u.v - b.mn) / (b.mx - b.mn) * 255)
                             ELSE 0 END AS BIGINT) AS q
            FROM u JOIN b USING (dim)""",
        "label_centroids": """
            SELECT label, dim,
                   CAST(sum(CAST(floor(CAST(v AS DOUBLE) * 1000000) AS BIGINT))
                          AS BIGINT) AS sum_fp,
                   count(*) AS n
            FROM (SELECT label,
                         generate_subscripts(embedding, 1) AS dim,
                         unnest(embedding) AS v
                  FROM embeddings)
            GROUP BY label, dim""",
        "orders_running_total": """
            SELECT o_orderkey, o_custkey, o_orderdate,
                   CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT))
                          OVER (PARTITION BY o_custkey
                                ORDER BY o_orderdate, o_orderkey
                                ROWS UNBOUNDED PRECEDING) AS BIGINT)
                     AS cum_cents
            FROM orders""",
        "pack_sequences": r"""
            WITH c AS (
              SELECT doc_id,
                     CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT)
                       AS n_tokens
              FROM documents),
            s AS (
              SELECT doc_id, n_tokens,
                     CAST(coalesce(sum(n_tokens) OVER (
                            ORDER BY doc_id
                            ROWS BETWEEN UNBOUNDED PRECEDING
                                     AND 1 PRECEDING), 0) AS BIGINT)
                       AS tok_start
              FROM c)
            SELECT doc_id, n_tokens, tok_start,
                   tok_start // 512 AS block_start,
                   CASE WHEN n_tokens > 0
                        THEN (tok_start + n_tokens - 1) // 512
                        ELSE tok_start // 512 END AS block_end
            FROM s""",
        "shuffle_rank": """
            SELECT doc_id, md5(text) AS h,
                   row_number() OVER (ORDER BY md5(text), doc_id) AS rank
            FROM documents""",
        "tfidf": r"""
            WITH terms AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(text, '\S+')) AS term
              FROM documents),
            df AS (
              SELECT term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
              FROM terms GROUP BY term),
            vocab AS (
              SELECT term, df FROM df
              ORDER BY df DESC, term ASC LIMIT 50),
            tf AS (
              SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf
              FROM terms GROUP BY doc_id, term)
            SELECT t.doc_id, t.term, t.tf, v.df
            FROM tf t JOIN vocab v USING (term)""",
        "kmv_sketch": """
            SELECT h FROM (
              SELECT DISTINCT md5(text) AS h FROM documents
              WHERE text IS NOT NULL)
            ORDER BY h LIMIT 64""",
        "clean_text": r"""
            SELECT doc_id,
                   trim(regexp_replace(
                        regexp_replace(lower(text), '[\x00-\x1f\x7f]', ' ', 'g'),
                        '\s+', ' ', 'g')) AS text_clean
            FROM documents""",
        "dedup_incremental": """
            SELECT doc_id, text, lang, source, n_chars
            FROM documents n
            WHERE doc_id % 2 = 1 AND NOT EXISTS (
              SELECT 1 FROM documents h
              WHERE h.doc_id % 2 = 0 AND md5(h.text) = md5(n.text))""",
        "webdataset_audit": """
            SELECT CAST(CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                             AS UBIGINT) % 8 AS BIGINT) AS shard,
                   count(*) AS n_members
            FROM documents GROUP BY shard""",
        "len_bucket": """
            WITH b AS (
              SELECT quantile_disc(n_chars, 0.25) AS q1,
                     quantile_disc(n_chars, 0.5)  AS q2,
                     quantile_disc(n_chars, 0.75) AS q3
              FROM documents)
            SELECT doc_id,
                   CAST(CASE WHEN n_chars <= q1 THEN 0
                             WHEN n_chars <= q2 THEN 1
                             WHEN n_chars <= q3 THEN 2
                             ELSE 3 END AS BIGINT) AS bucket
            FROM documents, b""",
        "trending_terms": r"""
            SELECT lang, term, n, rank FROM (
              SELECT lang, term, n,
                     row_number() OVER (PARTITION BY lang
                                        ORDER BY n DESC, term ASC) AS rank
              FROM (SELECT lang, term, CAST(count(*) AS BIGINT) AS n
                    FROM (SELECT lang,
                                 unnest(regexp_extract_all(text, '\S+'))
                                   AS term
                          FROM documents)
                    GROUP BY lang, term))
            WHERE rank <= 5""",
        "len_percentile": """
            SELECT doc_id,
                   cume_dist() OVER (ORDER BY n_chars) AS pct
            FROM documents""",
        "cc_chain": """
            SELECT doc_id AS node,
                   CAST(doc_id - doc_id % 10 AS BIGINT) AS label
            FROM documents""",
        "lang_label_mix": """
            SELECT d.lang, CAST(e.label AS BIGINT) AS label,
                   CAST(sum(d.n_chars) AS BIGINT) AS sum_chars,
                   count(*) AS n_docs
            FROM documents d JOIN embeddings e ON d.doc_id = e.vec_id
            GROUP BY d.lang, e.label""",
        "media_meta": """
            SELECT doc_id,
                   CAST(doc_id % 640 + 16 AS INTEGER) AS width,
                   CAST(doc_id % 480 + 16 AS INTEGER) AS height,
                   CAST(doc_id % 3 + 1 AS INTEGER) AS channels,
                   CAST(18 + least((doc_id % 640 + 16) * (doc_id % 480 + 16)
                                   * (doc_id % 3 + 1), 4096) AS BIGINT) AS media_bytes
            FROM documents""",
        "media_resize": """
            SELECT doc_id,
                   CAST(64 AS INTEGER) AS out_width,
                   CAST(48 AS INTEGER) AS out_height,
                   CAST(18 + least(64 * 48 * (doc_id % 3 + 1), 4096)
                        AS BIGINT) AS out_bytes
            FROM documents""",
        "media_resize_real": """
            -- recompute the REAL codec's resized pixel sum from the
            -- same (doc_id, y, x, c) arithmetic and the same
            -- nearest-index formula src = (dst * in) // out
            SELECT d.doc_id,
                   CAST(4 AS INTEGER) AS out_width,
                   CAST(3 AS INTEGER) AS out_height,
                   CAST(sum((d.doc_id
                             + ((y2.range * (6 + d.doc_id % 4)) // 3) * 31
                             + ((x2.range * (8 + d.doc_id % 5)) // 4) * 7
                             + ch.range * 3) % 256) AS BIGINT) AS pixel_sum
            FROM documents d
            CROSS JOIN range(3) y2 CROSS JOIN range(4) x2
            CROSS JOIN range(3) ch
            GROUP BY d.doc_id""",
        "media_tiff_real": """
            -- lossless TIFF (PackBits / LZW containers) resized to
            -- 4x3: same arithmetic + nearest-index formula as
            -- media_resize_real (container-independent)
            SELECT d.doc_id,
                   CAST(4 AS INTEGER) AS out_width,
                   CAST(3 AS INTEGER) AS out_height,
                   CAST(sum((d.doc_id
                             + ((y2.range * (6 + d.doc_id % 4)) // 3) * 31
                             + ((x2.range * (8 + d.doc_id % 5)) // 4) * 7
                             + ch.range * 3) % 256) AS BIGINT) AS pixel_sum
            FROM documents d
            CROSS JOIN range(3) y2 CROSS JOIN range(4) x2
            CROSS JOIN range(3) ch
            GROUP BY d.doc_id""",
        "media_gif_real": """
            -- lossless LZW GIF resized to 4x3: palette channel c of
            -- index i is an arithmetic function of (doc_id, i, c);
            -- index at (y,x) = (d + y*5 + x*3) % 24; nearest-index
            -- src = (dst * in) // out
            WITH px AS (
              SELECT d.doc_id AS doc_id,
                     (d.doc_id
                      + ((y2.range * (6 + d.doc_id % 4)) // 3) * 5
                      + ((x2.range * (8 + d.doc_id % 5)) // 4) * 3
                     ) % 24 AS i
              FROM documents d
              CROSS JOIN range(3) y2 CROSS JOIN range(4) x2
            )
            SELECT doc_id,
                   CAST(4 AS INTEGER) AS out_width,
                   CAST(3 AS INTEGER) AS out_height,
                   CAST(sum((doc_id + i * 7) % 256
                            + (doc_id * 3 + i * 11) % 256
                            + (doc_id * 5 + i * 13) % 256) AS BIGINT)
                     AS pixel_sum
            FROM px GROUP BY doc_id""",
        "gif_frames_real": """
            -- animated GIF, step-2 frame sampling: frame f's composed
            -- RGB byte sum over the 8x8 canvas, all arithmetic
            WITH fr AS (
              SELECT d.doc_id AS doc_id, f.range AS frame_idx
              FROM documents d CROSS JOIN range(4) f
              WHERE f.range < 2 + d.doc_id % 3 AND f.range % 2 = 0
            ), px AS (
              SELECT doc_id, frame_idx,
                     (doc_id + frame_idx * 9 + y.range * 3 + x.range)
                       % 16 AS i
              FROM fr CROSS JOIN range(8) y CROSS JOIN range(8) x
            )
            SELECT doc_id, CAST(frame_idx AS INTEGER) AS frame_idx,
                   CAST(sum((doc_id + i * 7) % 256
                            + (doc_id * 3 + i * 11) % 256
                            + (doc_id * 5 + i * 13) % 256) AS BIGINT)
                     AS byte_sum
            FROM px GROUP BY doc_id, frame_idx""",
        "media_jpeg_real": """
            -- grayscale uniform-tile JPEG (all-ones quant: DC-only
            -- blocks, bit-exact through Huffman+IDCT) resized to 5x4:
            -- pixel (y,x) of the source = tile value at (y//8, x//8),
            -- nearest-index src = (dst * in) // out
            SELECT d.doc_id,
                   CAST(5 AS INTEGER) AS out_width,
                   CAST(4 AS INTEGER) AS out_height,
                   CAST(sum((d.doc_id
                     + (((y2.range * (8 * (3 + d.doc_id % 3))) // 4) // 8) * 31
                     + (((x2.range * (8 * (4 + d.doc_id % 2))) // 5) // 8) * 7
                     ) % 256) AS BIGINT) AS pixel_sum
            FROM documents d
            CROSS JOIN range(4) y2 CROSS JOIN range(5) x2
            GROUP BY d.doc_id""",
        "media_png_real": """
            -- 2-channel (gray+alpha) PNG resized to 5x4 through the
            -- real zlib codec: same pixel arithmetic + nearest-index
            -- formula, summed over 2 channels
            SELECT d.doc_id,
                   CAST(5 AS INTEGER) AS out_width,
                   CAST(4 AS INTEGER) AS out_height,
                   CAST(sum((d.doc_id
                             + ((y2.range * (6 + d.doc_id % 4)) // 4) * 31
                             + ((x2.range * (8 + d.doc_id % 5)) // 5) * 7
                             + ch.range * 3) % 256) AS BIGINT) AS pixel_sum
            FROM documents d
            CROSS JOIN range(4) y2 CROSS JOIN range(5) x2
            CROSS JOIN range(2) ch
            GROUP BY d.doc_id""",
        "audio_g711_real": """
            -- G.711 expansion recomputed in SQL: payload byte
            -- b = (d*13 + i*7) % 256; mu-law (even d): u = 255 - b,
            -- mag = ((u%16)*8 + 132) * 2^((u//16)%8) - 132, sign from
            -- u >= 128; A-law (odd d): a = xor(b, 85), exp=(a//16)%8,
            -- mag = exp=0 ? (a%16)*16+8 : ((a%16)*16+264)*2^(exp-1),
            -- POSITIVE when a >= 128
            WITH s AS (
              SELECT d.doc_id AS doc_id, i.range AS i,
                     (d.doc_id * 13 + i.range * 7) % 256 AS b,
                     48 + d.doc_id % 17 AS n
              FROM documents d CROSS JOIN range(65) i
              WHERE i.range < 48 + d.doc_id % 17
            ), e AS (
              SELECT doc_id, i, n,
                CASE WHEN doc_id % 2 = 0 THEN
                  CASE WHEN (255 - b) >= 128 THEN
                    -((((255 - b) % 16) * 8 + 132)
                      * (1 << (((255 - b) // 16) % 8)) - 132)
                  ELSE
                    ((((255 - b) % 16) * 8 + 132)
                     * (1 << (((255 - b) // 16) % 8)) - 132)
                  END
                ELSE
                  CASE WHEN xor(b, 85) >= 128 THEN
                    CASE WHEN ((xor(b, 85) // 16) % 8) = 0
                         THEN (xor(b, 85) % 16) * 16 + 8
                         ELSE ((xor(b, 85) % 16) * 16 + 264)
                              * (1 << (((xor(b, 85) // 16) % 8) - 1))
                    END
                  ELSE
                    -(CASE WHEN ((xor(b, 85) // 16) % 8) = 0
                           THEN (xor(b, 85) % 16) * 16 + 8
                           ELSE ((xor(b, 85) % 16) * 16 + 264)
                                * (1 << (((xor(b, 85) // 16) % 8) - 1))
                      END)
                  END
                END AS x
              FROM s
            ), z AS (
              SELECT doc_id, n, x,
                     lag(x) OVER (PARTITION BY doc_id ORDER BY i) AS px
              FROM e
            )
            SELECT doc_id,
                   CAST(8000 AS INTEGER) AS sample_rate,
                   CAST(max(n) AS BIGINT) AS n_samples,
                   CAST(1 AS INTEGER) AS n_channels,
                   CAST(sum(abs(x)) AS BIGINT) AS sum_abs,
                   CAST(sum(x * x) AS BIGINT) AS sum_sq,
                   CAST(sum(CASE WHEN px IS NOT NULL
                                  AND ((x >= 0) <> (px >= 0))
                            THEN 1 ELSE 0 END) AS BIGINT)
                     AS zero_crossings,
                   CAST(NULL AS VARCHAR) AS media_error
            FROM z GROUP BY doc_id""",
        "audio_meta": """
            WITH s AS (
              SELECT d.doc_id, i.range AS i,
                     ((d.doc_id * 7 + i.range * 13) % 4001) - 2000 AS x,
                     64 + d.doc_id % 37 AS n
              FROM documents d CROSS JOIN range(100) i
              WHERE i.range < 64 + d.doc_id % 37
            ), z AS (
              SELECT doc_id, n, x,
                     lag(x) OVER (PARTITION BY doc_id ORDER BY i) AS px
              FROM s
            )
            SELECT doc_id,
                   CAST(8000 + (doc_id % 3) * 4000 AS INTEGER)
                     AS sample_rate,
                   CAST(max(n) AS BIGINT) AS n_samples,
                   CAST(1 AS INTEGER) AS n_channels,
                   CAST(sum(abs(x)) AS BIGINT) AS sum_abs,
                   CAST(sum(x * x) AS BIGINT) AS sum_sq,
                   CAST(sum(CASE WHEN px IS NOT NULL
                                  AND ((x >= 0) <> (px >= 0))
                            THEN 1 ELSE 0 END) AS BIGINT)
                     AS zero_crossings,
                   CAST(NULL AS VARCHAR) AS media_error
            FROM z GROUP BY doc_id""",
        "audio_resample_real": """
            WITH p AS (
              SELECT doc_id, 64 + doc_id % 37 AS n,
                     8000 + (doc_id % 3) * 4000 AS rate
              FROM documents
            ), q AS (
              SELECT doc_id, n, (n * 4000) // rate AS n_out FROM p
            ), j AS (
              SELECT q.doc_id, q.n_out,
                     ((q.doc_id * 7
                       + ((jj.range * q.n) // q.n_out) * 13) % 4001)
                       - 2000 AS x
              FROM q CROSS JOIN range(51) jj
              WHERE jj.range < q.n_out
            )
            SELECT doc_id,
                   CAST(4000 AS INTEGER) AS out_rate,
                   CAST(max(n_out) AS BIGINT) AS out_samples,
                   CAST(sum(x) AS BIGINT) AS sample_sum
            FROM j GROUP BY doc_id""",
        "frame_sample_real": """
            -- pixel(f,y,x) = (doc_id + f*7 + y*5 + x) % 256 over a
            -- 4x5 luma frame; frames sampled every 3rd
            SELECT d.doc_id, CAST(f.range AS INTEGER) AS frame_idx,
                   CAST(sum((d.doc_id + f.range * 7
                             + y.range * 5 + x.range) % 256)
                        AS BIGINT) AS frame_sum
            FROM documents d
            CROSS JOIN range(0, 10, 3) f
            CROSS JOIN range(4) y CROSS JOIN range(5) x
            WHERE f.range < d.doc_id % 10 + 1
            GROUP BY d.doc_id, f.range""",
        "frame_sample": """
            SELECT doc_id, CAST(f.range AS INTEGER) AS frame_idx
            FROM documents CROSS JOIN range(0, 10, 3) f
            WHERE f.range < doc_id % 10 + 1""",
        # Near-dup pairs: LSH-found candidates verified with EXACT
        # jaccard, and the testdata's pair margins are wide (nothing in
        # [0.7, 0.8); found pairs all >= 0.89 — measured), so DuckDB can
        # recompute the identical verified pair set + values.
        "dedup_minhash": _WORD_SHINGLES_CTE + _PAIR_JACCARD_SQL,
        "dedup_ngram": _CHAR_SHINGLES_CTE + _PAIR_JACCARD_SQL,
        # Exact brute-force cosine pairs (ids only: the float cosine
        # itself differs in low bits between numpy and DuckDB, but the
        # min margin to the 0.45 threshold is 5.5e-4 — measured)
        "dedup_embedding": """
            SELECT a.vec_id AS a, b.vec_id AS b
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.45""",
        # SemDeDup pinned regime: first-8 centroid init + one assignment
        # pass (the kmeans_assign1 argmax twin), then the keep-first
        # pairwise prune within each cell at cosine >= 0.45 (margins
        # measured: assignment ~1e-4, threshold 5.5e-4)
        "semdedup": """
            WITH cent AS (
              SELECT row_number() OVER (ORDER BY vec_id) - 1 AS idx,
                     embedding AS c,
                     CASE WHEN list_dot_product(embedding, embedding) = 0
                          THEN 1.0
                          ELSE sqrt(list_dot_product(embedding, embedding))
                     END AS nrm
              FROM (SELECT vec_id, embedding FROM embeddings
                    ORDER BY vec_id LIMIT 8)
            ),
            asg AS (
              SELECT vec_id, CAST(idx AS BIGINT) AS cell FROM (
                SELECT e.vec_id, c.idx,
                       row_number() OVER (
                         PARTITION BY e.vec_id
                         ORDER BY list_dot_product(e.embedding, c.c) / c.nrm
                                    DESC,
                                  c.idx ASC) AS rn
                FROM embeddings e CROSS JOIN cent c)
              WHERE rn = 1
            )
            SELECT a.vec_id, a.cell,
                   EXISTS (
                     SELECT 1 FROM asg b
                     JOIN embeddings x ON x.vec_id = a.vec_id
                     JOIN embeddings y ON y.vec_id = b.vec_id
                     WHERE b.cell = a.cell AND b.vec_id < a.vec_id
                       AND list_cosine_similarity(x.embedding, y.embedding)
                             >= 0.45
                   ) AS dropped
            FROM asg a""",
        "lang_id": _lang_id_sql(),
        "quality_score": _quality_cte() + """
            SELECT doc_id, punct_ratio, stopword_ratio, mean_token_len,
                   quality
            FROM quality_m""",
        # curate = lang-ID + quality + near-dup keep decision; all three
        # are exactly recomputable (components via min-label propagation
        # over the verified pair set)
        "curate": f"""
            WITH RECURSIVE
            lang AS ({_lang_id_sql()}),
            qual AS ({_quality_cte()}
                     SELECT doc_id, quality FROM quality_m),
            pairs AS ({_WORD_SHINGLES_CTE}{_PAIR_AB_INVERTED}),
            edges(x, y) AS (SELECT a, b FROM pairs
                            UNION ALL SELECT b, a FROM pairs),
            cc(n, m) AS (
              SELECT doc_id, doc_id FROM documents
              UNION
              SELECT e.y, cc.m FROM edges e JOIN cc ON cc.n = e.x
            ),
            roots AS (SELECT n AS doc_id, min(m) AS root FROM cc GROUP BY n)
            SELECT d.doc_id, lang.lang_pred, qual.quality, TRUE AS keep
            FROM documents d
            JOIN lang USING (doc_id)
            JOIN qual USING (doc_id)
            JOIN roots USING (doc_id)
            WHERE roots.root = d.doc_id AND qual.quality >= 0.0""",
        # corpus_build = the whole downstream story chained: page
        # universe → done-row extraction reconstruction → exact dedup
        # (min-seq winner per distinct text) → lang/quality/near-dup
        # curation over the SURVIVORS (the three curate fragments,
        # re-pointed from `documents` to the survivor CTE) → 512-token
        # concat-then-chunk packing in ascending key order
        "corpus_build": f"""
            WITH RECURSIVE
            pg AS (
              {_PAGE_CTE}
              SELECT seq AS pkey, {_EXTRACTED_EXPR} AS text
              FROM c WHERE {_STATUS_EXPR} = 'done'
            ),
            corpus AS (
              SELECT pkey AS doc_id, text FROM (
                SELECT pkey, text,
                       row_number() OVER (PARTITION BY text
                                          ORDER BY pkey) AS rn
                FROM pg) WHERE rn = 1
            ),
            lang AS ({_lang_id_sql().replace("FROM documents",
                                             "FROM corpus")}),
            qual AS ({_quality_cte().replace("FROM documents",
                                             "FROM corpus")}
                     SELECT doc_id, quality FROM quality_m),
            pairs AS ({_WORD_SHINGLES_CTE.replace("FROM documents",
                                                  "FROM corpus")}
                      {_PAIR_AB_INVERTED}),
            edges(x, y) AS (SELECT a, b FROM pairs
                            UNION ALL SELECT b, a FROM pairs),
            cc(n, m) AS (
              SELECT doc_id, doc_id FROM corpus
              UNION
              SELECT e.y, cc.m FROM edges e JOIN cc ON cc.n = e.x
            ),
            roots AS (SELECT n AS doc_id, min(m) AS root FROM cc GROUP BY n),
            kept AS (
              SELECT c2.doc_id, c2.text, lang.lang_pred, qual.quality
              FROM corpus c2
              JOIN lang USING (doc_id)
              JOIN qual USING (doc_id)
              JOIN roots USING (doc_id)
              WHERE roots.root = c2.doc_id AND qual.quality >= 0.1
            ),
            cnt AS (
              SELECT doc_id, lang_pred, quality,
                     CAST(length(regexp_extract_all(text, '\\S+'))
                          AS BIGINT) AS n_tokens
              FROM kept),
            sq AS (
              SELECT doc_id, lang_pred, quality, n_tokens,
                     CAST(coalesce(sum(n_tokens) OVER (
                            ORDER BY doc_id
                            ROWS BETWEEN UNBOUNDED PRECEDING
                                     AND 1 PRECEDING), 0) AS BIGINT)
                       AS tok_start
              FROM cnt)
            SELECT doc_id, lang_pred, quality, n_tokens, tok_start,
                   tok_start // 512 AS block_start,
                   CASE WHEN n_tokens > 0
                        THEN (tok_start + n_tokens - 1) // 512
                        ELSE tok_start // 512 END AS block_end
            FROM sq""",
        # SimHash pinned to its exact regime: md5 word hashes
        # (md5_number_upper = little-endian first 8 digest bytes,
        # matching the engine's word_hash="md5") reconstruct the
        # 64-bit signatures in SQL; pigeonhole banding is complete for
        # Hamming <= 3, so the engine's banded pair set equals this
        # brute-force signature self-join
        "dedup_simhash": r"""
            WITH words AS (
              SELECT doc_id, w FROM (
                SELECT doc_id,
                       unnest(regexp_split_to_array(text, '\s+')) AS w
                FROM documents
              ) WHERE w <> ''
            ), wh AS (
              SELECT doc_id, md5_number_upper(w) AS h FROM words
            ), bits AS (
              SELECT doc_id, r.range AS bit,
                     SUM(CASE WHEN (h >> CAST(r.range AS INTEGER)) & 1 = 1
                              THEN 1 ELSE -1 END) AS acc
              FROM wh, range(64) r GROUP BY doc_id, r.range
            ), sigs AS (
              SELECT doc_id,
                     bit_or(CASE WHEN acc > 0
                                 THEN CAST((CAST(1 AS HUGEINT)
                                            << CAST(bit AS INTEGER))
                                           AS UBIGINT)
                                 ELSE CAST(0 AS UBIGINT) END) AS sig
              FROM bits GROUP BY doc_id
            )
            SELECT x.doc_id AS a, y.doc_id AS b,
                   CAST(bit_count(xor(x.sig, y.sig)) AS BIGINT) AS distance
            FROM sigs x JOIN sigs y ON x.doc_id < y.doc_id
            WHERE bit_count(xor(x.sig, y.sig)) <= 3""",
        # IVF knn pinned to its exact regime (n_probe = n_cells →
        # candidate set = whole corpus): the brute-force twin applies
        "knn_ivf": """
            SELECT vec_id, CAST(rank AS INTEGER) AS rank FROM (
              SELECT vec_id,
                     row_number() OVER (
                       ORDER BY list_cosine_similarity(
                         embedding,
                         (SELECT embedding FROM embeddings WHERE vec_id = 0)
                       ) DESC, vec_id ASC) AS rank
              FROM embeddings)
            WHERE rank <= 10""",
        "knn_ivf_indexed": """
            SELECT vec_id, CAST(rank AS INTEGER) AS rank FROM (
              SELECT vec_id,
                     row_number() OVER (
                       ORDER BY list_cosine_similarity(
                         embedding,
                         (SELECT embedding FROM embeddings WHERE vec_id = 0)
                       ) DESC, vec_id ASC) AS rank
              FROM embeddings)
            WHERE rank <= 10""",
        # SRP-LSH pinned to a candidate-complete dense regime (see the
        # query docstring): verified pairs = exact threshold pairs
        "dedup_embedding_lsh": """
            SELECT a.vec_id AS a, b.vec_id AS b
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.45""",
    }
