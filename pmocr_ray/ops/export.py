"""Training-data export: deterministic hash sharding + WebDataset-style
tar writer.

The last stage of a curation run: assign every document a stable shard
id from a content-independent key hash (md5, so the DuckDB oracle can
replay the assignment bit-for-bit), then write one tar per shard.
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


def webdataset_export(ds: rd.Dataset, out_dir: str, *, key: str = "doc_id",
                      column: str = "text", n_shards: int = 8) -> rd.Dataset:
    """WebDataset-style tar shards: ``out_dir/shard-K.tar`` containing
    one ``<key>.txt`` member per document, members sorted by key within
    a shard (deterministic bytes for a given corpus + shard count).

    Custom SINK shape: deterministic hash sharding (map-only) co-locates
    each shard's rows with ``groupby(shard).map_groups``; each group
    writes its own tar locally and returns only an audit row
    (shard, n_members, tar_bytes) — the driver never sees document
    bytes.  One tar per shard keeps the write parallel across shards
    and resumable per shard (the audit row is the commit record).
    Tar mtimes/uids are zeroed so shard bytes are reproducible.
    """
    import io
    import os
    import tarfile

    import pandas as pd

    os.makedirs(out_dir, exist_ok=True)

    def write_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(key)
        shard = int(g["shard"].iloc[0])
        path = os.path.join(out_dir, f"shard-{shard}.tar")
        tmp = path + ".tmp"
        with tarfile.open(tmp, "w") as tar:
            for k, text in zip(g[key], g[column]):
                data = (text or "").encode("utf-8")
                info = tarfile.TarInfo(name=f"{k}.txt")
                info.size = len(data)
                info.mtime = 0
                tar.addfile(info, io.BytesIO(data))
        os.replace(tmp, path)  # atomic commit per shard
        return pd.DataFrame({"shard": [shard],
                             "n_members": [len(g)],
                             "tar_bytes": [os.path.getsize(path)]})

    sharded = ds.map_batches(
        lambda b: _assign_int_shard(b, key=key, n_shards=n_shards),
        batch_format="pyarrow",
    )
    return sharded.groupby("shard").map_groups(write_shard,
                                               batch_format="pandas")


def _assign_int_shard(batch: pa.Table, *, key: str,
                      n_shards: int) -> pa.Table:
    """assign_shard for non-string keys: hash str(key) — same md5 rule."""
    if n_shards < 1:
        raise ValueError(f"webdataset_export needs n_shards >= 1 "
                         f"(got {n_shards})")
    shards = pa.array(
        [int(hashlib.md5(str(k).encode()).hexdigest()[:8], 16) % n_shards
         for k in batch[key].to_pylist()],
        pa.int64(),
    )
    return batch.append_column("shard", shards)
