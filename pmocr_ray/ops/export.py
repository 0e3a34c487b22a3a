"""Training-data export: deterministic hash sharding.

The last stage of a curation run: assign every document a stable shard
id from a content-independent key hash (md5, so the DuckDB oracle can
replay the assignment bit-for-bit).
Re-running the export reproduces the same shard membership on
any cluster shape — the property a 100 TB resumable export needs
(finished shards can be skipped; readers can address
a deterministic 1/N slice of the corpus without a shuffle).
"""

from __future__ import annotations

import hashlib

import pyarrow as pa

import ray.data as rd


def assign_shard(batch: pa.Table, *, key: str = "url", n_shards: int = 16,
                 out_column: str = "shard") -> pa.Table:
    """shard = first 8 md5 hex digits of the key, mod ``n_shards`` —
    the same value DuckDB computes as
    ``CAST('0x' || substr(md5(key),1,8) AS UBIGINT) % n_shards``."""
    if n_shards < 1:
        raise ValueError(f"assign_shard needs n_shards >= 1 (got {n_shards})")
    shards = pa.array(
        [int(hashlib.md5(k.encode()).hexdigest()[:8], 16) % n_shards
         for k in batch[key].to_pylist()],
        pa.int64(),
    )
    return batch.append_column(out_column, shards)


def shard_counts(ds: rd.Dataset, *, key: str = "url",
                 n_shards: int = 16) -> rd.Dataset:
    """Per-shard row counts (the export audit): map-only assignment +
    per-batch combiner; the shuffle moves (shard, partial_n) rows."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        b = assign_shard(batch, key=key, n_shards=n_shards)
        g = b.select(["shard"]).group_by("shard").aggregate([([], "count_all")])
        return pa.table({"shard": g["shard"], "n": g["count_all"]})

    return (ds.map_batches(partial, batch_format="pyarrow")
              .groupby("shard").aggregate(Sum("n", alias_name="n")))
