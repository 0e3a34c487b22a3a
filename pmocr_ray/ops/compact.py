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
