"""Upsert compaction: latest row per key — the CDC/changelog collapse.

A corpus re-crawl or changelog stream carries many versions of a key;
training-data builds want exactly the newest.  Shape: per-batch LOCAL
argmax per key (the global latest for a key is the latest among
per-batch latests — same subset argument as top-n-per-group), then the
exact argmax inside one vectorized sort per key-hash bucket.  The
shuffle moves at most one row per (key, batch) — collapse happens before the exchange,
so a hot key re-crawled 10⁶ times still ships O(n_batches) rows, not
10⁶.

Reference parity: the reference's done-suffix rename makes reprocessing
idempotent per file (/root/reference/pmocr.sh:2088-2096); compaction is
the keyed-row generalization: newest version wins, order total.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

import ray.data as rd


def compact_latest(ds: rd.Dataset, key: str, order_cols: list[str],
                   descending: list[bool] | None = None) -> rd.Dataset:
    """Keep exactly one row per ``key``: the first under ``order_cols``
    sorted with ``descending`` flags (default: all descending — i.e.
    the row with the greatest (version, …) wins; ties must be broken
    by including a unique column last)."""
    if not order_cols:
        # with no order there is no total winner — the kept row would
        # depend on partitioning/batch order, silently nondeterministic
        raise ValueError("compact_latest needs at least one order column")
    desc = descending if descending is not None else [True] * len(order_cols)
    if len(desc) != len(order_cols):
        raise ValueError(
            f"compact_latest: descending has {len(desc)} flags for "
            f"{len(order_cols)} order columns")
    ascending = [not d for d in desc]

    def local_cap(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df.sort_values([key, *order_cols],
                            ascending=[True, *ascending])
        return pa.Table.from_pandas(df.groupby(key, sort=False).head(1),
                                    preserve_index=False)

    # exact winner per key WITHOUT a per-key Python call: keys hash to
    # buckets (same deterministic bucketing as ops/vecagg.py), and each
    # bucket resolves ALL its keys in one vectorized sort + head(1) —
    # Ray's groupby(key).map_groups would pay ~180 µs of reduce
    # overhead per KEY at corpus-scale key counts
    from pmocr_ray.ops.vecagg import _bucket_of

    def bucket(batch: pa.Table) -> pa.Table:
        return batch.append_column("_bkt", _bucket_of(batch, [key], 32))

    def exact_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop(columns=["_bkt"])
        df = df.sort_values([key, *order_cols],
                            ascending=[True, *ascending], kind="mergesort")
        return df.groupby(key, sort=False).head(1)

    return (ds.map_batches(local_cap, batch_format="pyarrow")
            .map_batches(bucket, batch_format="pyarrow")
            .groupby("_bkt")
            .map_groups(exact_bucket, batch_format="pandas"))


def snapshot_diff(ds_a: rd.Dataset, ds_b: rd.Dataset, *,
                  key: str = "doc_id", column: str = "text") -> rd.Dataset:
    """CDC diff between two snapshots of a keyed table: which keys were
    ``added`` / ``removed`` / ``changed`` from A to B (unchanged keys
    are dropped) — the re-crawl delta report.

    Scale shape: full-outer-join semantics WITHOUT a join.  Each side
    maps to tiny (key, in_a, in_b, fp_a, fp_b) rows — the content
    fingerprint is a vectorized md5→int48, so the text column never
    leaves the map stage — then a union and ONE groupby(key) with
    Sum/Max aggregates reconstructs both sides per key (Max ignores the
    null fp of the absent side).  Classification is a vectorized
    per-row expression over the aggregate row.  One shuffle total, and
    it moves five scalar columns per key, never the payload.

    Assumes each snapshot has at most one row per key (use
    :func:`compact_latest` first otherwise).
    """
    import hashlib

    import numpy as np
    import pyarrow.compute as pc

    from pmocr_ray.ops.vecagg import grouped_aggregate

    def tag(side: str):
        def fn(batch: pa.Table) -> pa.Table:
            fps = np.array(
                [int.from_bytes(hashlib.md5(t.encode()).digest()[:6], "big")
                 if t is not None else -1
                 for t in batch[column].to_pylist()], np.int64)
            n = len(batch)
            one = pa.array(np.ones(n, np.int64))
            zero = pa.array(np.zeros(n, np.int64))
            fp = pa.array(fps)
            null = pa.nulls(n, pa.int64())
            return pa.table({
                key: batch[key],
                "in_a": one if side == "a" else zero,
                "in_b": one if side == "b" else zero,
                "fp_a": fp if side == "a" else null,
                "fp_b": fp if side == "b" else null,
            })
        return fn

    tagged = (ds_a.map_batches(tag("a"), batch_format="pyarrow")
              .union(ds_b.map_batches(tag("b"), batch_format="pyarrow")))
    # key groups are CORPUS-scale — Arrow-bucketed aggregate (vecagg);
    # max skips the absent side's null fp exactly like Ray's Max did,
    # and the fp stays int64 (no pandas float round-trip anymore)
    agg = grouped_aggregate(
        tagged, [key],
        [("in_a", "sum", "n_a"), ("in_b", "sum", "n_b"),
         ("fp_a", "max", "fp_a"), ("fp_b", "max", "fp_b")])

    def classify(t: pa.Table) -> pa.Table:
        # Kleene logic so the one-sided null fp can't poison the mask.
        in_a = pc.greater(t["n_a"], 0)
        in_b = pc.greater(t["n_b"], 0)
        added = pc.and_kleene(pc.invert(in_a), in_b)
        removed = pc.and_kleene(in_a, pc.invert(in_b))
        changed = pc.and_kleene(pc.and_kleene(in_a, in_b),
                                pc.not_equal(t["fp_a"], t["fp_b"]))
        change = pc.if_else(added, "added",
                            pc.if_else(removed, "removed", "changed"))
        keep = pc.or_kleene(pc.or_kleene(added, removed), changed)
        return pa.table({key: t[key].filter(keep),
                         "change": change.filter(keep)})

    return agg.map_batches(classify, batch_format="pyarrow")


def fold_rollup_shard(ds: rd.Dataset, state_dir: str, run_id: str, *,
                      group_col: str, sum_cols: dict[str, str]) -> str:
    """Incremental aggregate maintenance, fold side: reduce a new
    partition to its per-group rollup (count + requested sums) and
    append it as ONE parquet shard named by ``run_id`` — the same
    O(1)-per-commit shard discipline as the done manifest
    (pmocr_ray/state/manifest.py), applied to aggregate state.
    Re-folding the same run_id overwrites its shard (idempotent), and
    history is never rewritten.  ``sum_cols`` maps output name →
    source column.  Shard size is bounded by group cardinality, not
    partition size."""
    import os

    import pyarrow.parquet as pq_

    from ray.data.aggregate import Count, Sum

    aggs = [Count(alias_name="n_rows")]
    for out_name, src in sum_cols.items():
        aggs.append(Sum(src, alias_name=out_name))
    rollup = ds.groupby(group_col).aggregate(*aggs)
    tbl = pa.Table.from_pandas(rollup.to_pandas(), preserve_index=False)
    os.makedirs(state_dir, exist_ok=True)
    path = os.path.join(state_dir, f"rollup-{run_id}.parquet")
    tmp = path + ".tmp"
    pq_.write_table(tbl, tmp)
    os.replace(tmp, path)
    return path


def read_rollup(state_dir: str, *, group_col: str) -> rd.Dataset:
    """Merge side: the current aggregate view is one groupby over the
    shard directory — cost scales with shards × groups, never with the
    rows ever ingested."""
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(state_dir)
    cols = [c for c in ds.schema().names if c != group_col]
    return ds.groupby(group_col).aggregate(
        *[Sum(c, alias_name=c) for c in cols])
