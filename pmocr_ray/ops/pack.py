"""GPT-style sequence packing: concat-then-chunk over a document corpus.

The LM-training data layout: all documents' tokens are concatenated in
one deterministic global order and cut into fixed-size blocks; each
document is assigned the [start_block, end_block] span its tokens fall
into (documents straddle block boundaries by design — no padding).

The scale problem is the GLOBAL ORDERED PREFIX SUM of token counts.
Shape here is the classic two-pass distributed scan:

1. partition the key space into contiguous ranges (``part = doc_id //
   part_size`` — order-preserving by construction, no shuffle of rows);
2. one tiny groupby computes per-part token totals; the driver turns
   the ≤ n_parts totals into exclusive prefix offsets and broadcasts
   them (``ray.put``) — the only driver-side state is one int per part;
3. a per-part ``map_groups`` sorts its own rows by key, takes a local
   cumsum, adds the part's offset, and emits block spans — vectorized,
   O(part) memory, embarrassingly parallel across parts.

No stage ever materializes the corpus; the all-to-all is limited to the
(part, rows) co-location groupby that any per-part op needs.

Reference parity: the reference has no packing (it converts files 1:1,
/root/reference/pmocr.sh:2546-2593); this is one of the
beyond-the-reference training-data operators.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from ray.data.aggregate import Sum


def pack_sequences(docs: rd.Dataset, block_tokens: int,
                   key: str = "doc_id", column: str = "text",
                   part_size: int = 1000) -> rd.Dataset:
    """Assign each doc its token span and block span under
    concat-then-chunk packing in ascending ``key`` order.

    Returns (key, n_tokens, tok_start, block_start, block_end) where
    ``tok_start`` is the exclusive prefix sum of whitespace-token
    counts, ``block_start = tok_start // block_tokens`` and
    ``block_end = (tok_start + n_tokens - 1) // block_tokens`` (empty
    docs get ``block_end = block_start - 1``... they carry no tokens;
    we emit ``block_end = block_start`` and ``n_tokens = 0`` instead so
    the span stays well-formed).
    """
    def count_tokens(batch: pa.Table) -> pa.Table:
        # null text = zero tokens (a null would poison the cumsum)
        n = pc.fill_null(
            pc.count_substring_regex(batch[column], r"\S+").cast(pa.int64()), 0)
        part = pc.divide(batch[key], part_size).cast(pa.int64())
        return pa.table({key: batch[key], "part": part, "n_tokens": n})

    counted = docs.map_batches(count_tokens, batch_format="pyarrow")

    # pass 1: per-part totals -> exclusive prefix offsets (≤ n_parts ints)
    totals = (counted.select_columns(["part", "n_tokens"])
              .groupby("part").aggregate(Sum("n_tokens", alias_name="t"))
              .take_all())
    totals.sort(key=lambda r: r["part"])
    offsets, acc = {}, 0
    for r in totals:
        offsets[r["part"]] = acc
        acc += r["t"]
    offsets_ref = ray.put(offsets)

    # pass 2: local ordered cumsum + broadcast offset, per part
    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(offsets_ref)[int(g["part"].iloc[0])]
        g = g.sort_values(key)
        n = g["n_tokens"].to_numpy()
        start = off + np.cumsum(n) - n
        block_start = start // block_tokens
        block_end = np.where(n > 0, (start + np.maximum(n, 1) - 1)
                             // block_tokens, block_start)
        return pd.DataFrame({
            key: g[key].to_numpy(),
            "n_tokens": n,
            "tok_start": start,
            "block_start": block_start,
            "block_end": block_end,
        })

    return (counted.groupby("part")
            .map_groups(per_part, batch_format="pandas"))


def bucketed_write(ds: rd.Dataset, out_dir: str, *, key: str,
                   n_buckets: int = 16) -> str:
    """Write a dataset hash-bucketed by ``key`` into hive-style
    ``bucket=`` directories — the co-located storage layout that lets
    equi-joins on ``key`` run WITHOUT a shuffle (both sides' bucket i
    hold exactly the keys with ``hash(key) % n == i``).

    The bucket id is a vectorized int64 mix of the key (splitmix-style
    constant), computed identically for every table written with the
    same ``n_buckets`` — the layout contract :func:`bucketed_join`
    relies on.
    """
    import numpy as np

    def add_bucket(t: pa.Table) -> pa.Table:
        k = t[key].combine_chunks().cast(pa.int64()).to_numpy(
            zero_copy_only=False).astype(np.uint64)
        z = (k + np.uint64(0x9E3779B97F4A7C15))
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
        b = (z % np.uint64(n_buckets)).astype(np.int64)
        return t.append_column("bucket", pa.array(b))

    (ds.map_batches(add_bucket, batch_format="pyarrow")
     .write_parquet(out_dir, partition_cols=["bucket"]))
    return out_dir


def bucketed_join(dir_a: str, dir_b: str, *, key_a: str, key_b: str,
                  n_buckets: int = 16,
                  hot_bucket_bytes: int = 256 << 20) -> rd.Dataset:
    """Shuffle-free equi-join of two directories written by
    :func:`bucketed_write` with the same ``n_buckets``: one task per
    bucket id reads BOTH sides' bucket partition and hash-joins
    locally (Arrow-native ``pa.Table.join`` — no pandas copy) — keys
    are co-located by the layout, so no all-to-all exchange ever
    runs.  This is the bucketed-table join every warehouse uses to
    amortize one shuffle (at write time) across every future join on
    the key.

    **Hot-bucket handling** (skew discipline, same as the dedup
    family's hot-bucket splits): a driver-side METADATA scan (file
    sizes only, no data read) sizes each bucket; a bucket whose larger
    side exceeds ``hot_bucket_bytes`` on disk is star-split across
    ``ceil(bytes / hot_bucket_bytes)`` tasks — each sub-task reads a
    disjoint row-group slice of the LARGER side (row-group-granular,
    so the hot side is never fully materialized in one worker) and
    joins it against the full smaller side.  Row-slicing (not
    key-hashing) is what makes a single mega-key splittable: each
    left-slice × full-right is a disjoint part of the inner join.
    Memory bound per task: smaller side + one row-group slice + its
    join output.  If BOTH sides of one bucket are huge, raise
    ``n_buckets`` at write time (the smaller side is the hash-table
    side and is read whole per sub-task).

    Returns the joined rows (left columns + right columns; when the
    key names differ the right key is re-attached as a copy of the
    left key, matching SQL ``JOIN ... ON a = b`` output).  Missing
    bucket directories (empty buckets) contribute nothing.
    """
    import glob
    import math
    import os

    import pyarrow.parquet as pq_

    def _files(d: str, b: int) -> list:
        return sorted(glob.glob(os.path.join(d, f"bucket={b}", "*.parquet")))

    # schema-stable empty result: derive the joined shape from one
    # file of each side (driver-side metadata read only)
    fa = sorted(glob.glob(os.path.join(dir_a, "bucket=*", "*.parquet")))
    fb = sorted(glob.glob(os.path.join(dir_b, "bucket=*", "*.parquet")))
    if not fa or not fb:
        # an empty bucketed dataset wrote zero files — there is no
        # schema to join against; fail loudly (repo loud-guard rule)
        # instead of IndexError deep in the schema read
        missing = dir_a if not fa else dir_b
        raise ValueError(
            f"bucketed_join: no bucket parquet files under {missing!r} "
            f"(was the side empty when bucketed_write ran?)")
    sch_a, sch_b = pq_.read_schema(fa[0]), pq_.read_schema(fb[0])

    def _join(ta: pa.Table, tb: pa.Table) -> pa.Table:
        if tb.schema.field(key_b).type != ta.schema.field(key_a).type:
            tb = tb.set_column(
                tb.column_names.index(key_b), key_b,
                pc.cast(tb[key_b], ta.schema.field(key_a).type))
        overlap = (set(ta.column_names) & set(tb.column_names)) \
            - {key_a, key_b}
        if overlap:
            # pa.Table.join would emit duplicate fields for shared
            # non-key names and the later select() would see the field
            # twice; disambiguate with SQL-style suffixes up front.
            for name in sorted(overlap):
                ta = ta.rename_columns(
                    [f"{c}_x" if c == name else c for c in ta.column_names])
                tb = tb.rename_columns(
                    [f"{c}_y" if c == name else c for c in tb.column_names])
        j = ta.join(tb, keys=key_a, right_keys=key_b, join_type="inner")
        if key_b != key_a and key_b not in j.column_names:
            # Arrow coalesces the right key away; re-attach it
            # (zero-copy reference to the left key — equal by the
            # inner-join predicate) so both key columns survive as in
            # SQL SELECT *.
            j = j.append_column(key_b, j[key_a])
        return j

    empty = _join(sch_a.empty_table(), sch_b.empty_table())

    # ---- driver metadata scan: size buckets, plan star-splits ----
    items = []
    for b in range(n_buckets):
        files_a, files_b = _files(dir_a, b), _files(dir_b, b)
        if not files_a or not files_b:
            continue  # empty bucket on either side joins to nothing
        bytes_a = sum(os.path.getsize(f) for f in files_a)
        bytes_b = sum(os.path.getsize(f) for f in files_b)
        split_a = bytes_a >= bytes_b
        n_subs = max(1, math.ceil(max(bytes_a, bytes_b) / hot_bucket_bytes))
        for s in range(n_subs):
            items.append({"bucket": b, "sub": s, "n_subs": n_subs,
                          "split_a": split_a})

    if not items:
        return rd.from_arrow(empty)

    def _read_bucket(d: str, b: int, schema: pa.Schema,
                     sub: int = 0, n_subs: int = 1) -> pa.Table:
        files = _files(d, b)
        if n_subs == 1:
            if not files:
                return schema.empty_table()
            # select() guards against pq.read_table inferring the hive
            # `bucket=` path key as an extra column (it does, even for
            # an explicit file list)
            return pq_.read_table(files).select(schema.names)
        # row-group-granular slice: list (file, row_group) units in
        # deterministic order, take every n_subs-th starting at sub —
        # a disjoint, exhaustive partition of the bucket's rows that
        # never materializes the full hot side in one task
        units = []
        for f in files:
            units.extend((f, i)
                         for i in range(pq_.ParquetFile(f).num_row_groups))
        mine = units[sub::n_subs]
        if not mine:
            return schema.empty_table()
        parts = [pq_.ParquetFile(f).read_row_group(i) for f, i in mine]
        return pa.concat_tables(parts, promote_options="default")

    def join_buckets(batch: pa.Table) -> pa.Table:
        out = [empty]
        for row in batch.to_pylist():
            b, s, n = row["bucket"], row["sub"], row["n_subs"]
            sa, na = (s, n) if row["split_a"] else (0, 1)
            sb, nb = (0, 1) if row["split_a"] else (s, n)
            ta = _read_bucket(dir_a, b, sch_a, sa, na)
            tb = _read_bucket(dir_b, b, sch_b, sb, nb)
            if ta.num_rows and tb.num_rows:
                out.append(_join(ta, tb))
        j = pa.concat_tables(out, promote_options="default")
        return j.select(empty.column_names)

    ids = rd.from_items(items)
    # batch_size=1 → one task per (bucket, sub): per-bucket AND
    # per-hot-slice parallelism with no shuffle anywhere
    return ids.map_batches(join_buckets, batch_format="pyarrow",
                           batch_size=1)


def token_budget_trim(ds: rd.Dataset, *, group_col: str = "source",
                      weight_col: str = "n_chars", key: str = "doc_id",
                      budget: int = 10_000) -> rd.Dataset:
    """Per-source token-budget curation: keep each source's documents
    in priority order (weight desc, key asc) until the cumulative
    weight would exceed ``budget`` — the data-mixing trim every
    pre-training recipe applies per domain.

    Prefix-window semantics (SQL-exact): a doc is kept iff the
    cumulative weight INCLUDING it is ≤ budget, evaluated in the
    global priority order — one doc heavier than the budget is never
    kept AND blocks everything behind it (strict prefix, the
    SQL-window rule; greedy knapsack would be partition-stable too but
    has no SQL form), and the rule is deterministic under any
    partitioning.
    Shape: ONE shuffle on ``group_col``; inside each group a vectorized
    sort + cumsum.  Partitioning assumption: one source's doc LIST
    (key + weight only — trimmed columns ride along but the group is
    whole) fits a worker; salt + a two-pass prefix sum (the
    ``pack_sequences`` scan) is the swap-in for a single mega-source.
    """
    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([weight_col, key], ascending=[False, True])
        keep = g[weight_col].cumsum() <= budget
        return g.loc[keep]

    return ds.groupby(group_col).map_groups(per_group,
                                            batch_format="pandas")
