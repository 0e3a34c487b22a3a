"""Broadcast semi/anti join helpers — the small-side join primitives.

Reference parity: pmOCR's only join-like operation is the anti-join of
discovered candidates against the done/failed sets, encoded as ``find``
exclusion predicates (/root/reference/pmocr.sh:2126-2144,2183).  Here
the small side is broadcast once (``ray.put``) and each batch filters
vectorized with ``pc.is_in`` — no shuffle.  For two large sides use
``Dataset.join`` (hash-partitioned).
"""

from __future__ import annotations

from collections.abc import Iterable

import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd


def _key_array(keys: Iterable) -> pa.Array:
    return keys if isinstance(keys, pa.Array) else pa.array(list(keys))


def broadcast_semi_join(ds: rd.Dataset, key: str, keys: Iterable) -> rd.Dataset:
    """Keep rows whose ``key`` is in the broadcast key set."""
    ref = ray.put(_key_array(keys))

    def fn(t: pa.Table) -> pa.Table:
        value_set = ray.get(ref)  # zero-copy from the local object store
        return t.filter(pc.is_in(t[key], value_set=value_set))

    return ds.map_batches(fn, batch_format="pyarrow")


#: one hash-join partition per this many rows of the smaller join
#: operand; each partition costs a HashShuffleAggregator actor
#: (~0.3 s spin-up measured), so partitions scale WITH the data
#: instead of a fixed constant
ROWS_PER_JOIN_PARTITION = 40_000


def parts_for_rows(n_rows: int, cap: int = 8) -> int:
    """Hash-join partition count for an operand of ``n_rows`` rows —
    the one shared sizing rule (see :data:`ROWS_PER_JOIN_PARTITION`).
    Use directly when the row count is already known cheaply (parquet
    file metadata, a prior count); use :func:`sized_for_join` when the
    operand is a lazy pipeline."""
    return max(1, min(cap, n_rows // ROWS_PER_JOIN_PARTITION + 1))


def sized_for_join(ds: rd.Dataset, cap: int = 8) -> tuple["rd.MaterializedDataset", int]:
    """Materialize a join operand and size its hash partitions from
    the actual row count: one per ~:data:`ROWS_PER_JOIN_PARTITION`
    rows, at least 1 (an all-empty partition reaches acero as a
    zero-column table and fails FieldRef resolution), at most ``cap``
    (raise it at cluster scale where the per-partition actor cost
    amortizes).

    Materializing matters as much as the sizing: a bare
    ``ds.count()`` on a lazy pipeline executes the whole upstream once
    for the count and AGAIN for the join — on a pre-aggregated rollup
    (the usual operand here) pinning the small result is strictly
    cheaper.  Do NOT hand this a raw base-table read (that would pin
    the corpus): size those from parquet metadata via
    :func:`parts_for_rows` and keep the read lazy.
    Returns ``(materialized_ds, num_partitions)``."""
    m = ds.materialize()
    return m, parts_for_rows(m.count(), cap)


def hash_anti_join(left: rd.Dataset, right: rd.Dataset, on: str,
                   right_on: str | None = None,
                   num_partitions: int = 16) -> rd.Dataset:
    """Distributed anti join for two LARGE sides (neither fits a
    broadcast): hash-partitioned ``left_outer`` join against the
    right side's per-key rollup, keep rows with no match.

    The right side is pre-aggregated to one row per key *before* the
    join, so the exchange moves distinct keys (plus a marker), never
    the right table's payload — the same shrink-before-shuffle
    discipline as the aggregate-before-join star queries.  The rollup
    is pinned and sizes the join's partitions (``num_partitions`` caps
    them); an EMPTY right side — the normal first-run done manifest —
    short-circuits to the left unchanged, because Ray's hash join
    hands acero a zero-column table for any empty partition and fails
    FieldRef resolution.
    """
    from pmocr_ray.ops.vecagg import grouped_aggregate

    r_on = right_on or on
    # key groups are RIGHT-TABLE-scale — Arrow-bucketed rollup
    marker, parts = sized_for_join(
        grouped_aggregate(right.select_columns([r_on]),
                          [r_on], [(None, "count", "__m")]),
        cap=num_partitions)
    if marker.count() == 0:
        return left
    joined = left.join(marker, join_type="left_outer",
                       num_partitions=parts,
                       on=(on,), right_on=(r_on,))
    def keep_unmatched(t: pa.Table) -> pa.Table:
        out = t.filter(pc.is_null(t["__m"]))
        drop = [c for c in ("__m", r_on if r_on != on else None)
                if c in out.column_names]
        return out.drop_columns(drop)

    return joined.map_batches(keep_unmatched, batch_format="pyarrow")


# ------------------------------------------------------ bloom anti join

def _bloom_indices(keys: list, n_bits: int, k_hashes: int):
    """k bit positions per key by double hashing over the md5 digest
    (h1 + i*h2 mod n_bits) — deterministic across processes."""
    import hashlib

    import numpy as np

    h1 = np.empty(len(keys), np.uint64)
    h2 = np.empty(len(keys), np.uint64)
    for i, k in enumerate(keys):
        d = hashlib.md5(str(k).encode("utf-8")).digest()
        h1[i] = int.from_bytes(d[:8], "little")
        h2[i] = int.from_bytes(d[8:], "little") | 1  # odd -> full cycle
    steps = np.arange(k_hashes, dtype=np.uint64)
    # (n, k) positions; n_bits is a power of two so & is the mod
    return (h1[:, None] + steps[None, :] * h2[:, None]) & np.uint64(n_bits - 1)


def build_bloom(ds: rd.Dataset, key: str, n_bits: int = 1 << 23,
                k_hashes: int = 7):
    """Distributed Bloom filter over a key column: each block sets its
    bits locally (one ``accumulate_block`` per block), partial bitmaps
    tree-merge with ``bitwise_or`` — the driver receives ONE
    ``n_bits/8``-byte array regardless of row count.  This is the
    scale path past a broadcast key-set: 2^23 bits = 1 MiB covers ~1M
    keys at <1% false-positive with k=7, and sizing up is linear.
    """
    import numpy as np

    from ray.data.aggregate import AggregateFn

    assert n_bits & (n_bits - 1) == 0, "n_bits must be a power of two"

    def accumulate(bitmap, block):
        tbl = block if isinstance(block, pa.Table) else pa.Table.from_pandas(block)
        idx = _bloom_indices(tbl[key].to_pylist(), n_bits, k_hashes)
        bitmap = bitmap.copy()
        np.bitwise_or.at(bitmap, (idx >> 3).astype(np.int64).ravel(),
                         np.left_shift(1, (idx & 7).astype(np.uint8)).ravel()
                         .astype(np.uint8))
        return bitmap

    agg = AggregateFn(
        init=lambda _: np.zeros(n_bits // 8, np.uint8),
        accumulate_block=accumulate,
        merge=lambda a, b: np.bitwise_or(a, b),
        name="bloom",
    )
    res = ds.aggregate(agg)
    # empty input (first-run done manifest): aggregate yields no row —
    # the all-zeros bitmap is the correct empty-set filter
    if not res or res.get("bloom") is None:
        return np.zeros(n_bits // 8, np.uint8)
    return res["bloom"]


def bloom_anti_join(left: rd.Dataset, right: rd.Dataset, on: str,
                    right_on: str | None = None, n_bits: int = 1 << 23,
                    k_hashes: int = 7,
                    num_partitions: int = 8) -> rd.Dataset:
    """EXACT anti join with a Bloom prefilter — the 100 TB shape of the
    done-manifest exclusion.

    A broadcast key set grows O(right); the Bloom bitmap is fixed-size.
    Semantics stay exact: rows whose key misses the filter are definite
    non-members and pass straight through (map-only, the overwhelming
    majority when the intersection is small); only the possible-members
    take the hash-partitioned :func:`hash_anti_join` against the right
    side.  False positives cost a shuffled row, never a wrong answer.
    """
    import numpy as np

    r_on = right_on or on
    bitmap_ref = ray.put(build_bloom(right, r_on, n_bits, k_hashes))

    def split(batch: pa.Table, want_members: bool) -> pa.Table:
        bitmap = ray.get(bitmap_ref)
        idx = _bloom_indices(batch[on].to_pylist(), n_bits, k_hashes)
        bits = (bitmap[(idx >> 3).astype(np.int64)]
                >> (idx & 7).astype(np.uint8)) & 1
        member = bits.all(axis=1)
        mask = member if want_members else ~member
        return batch.filter(pa.array(mask))

    definite_out = left.map_batches(split, fn_kwargs={"want_members": False},
                                    batch_format="pyarrow")
    # pin the (small) candidate side: sizes the verify join's partition
    # count so no hash partition is empty (acero rejects zero-column
    # empty partitions), and avoids re-running the bloom probe
    candidates = left.map_batches(split, fn_kwargs={"want_members": True},
                                  batch_format="pyarrow").materialize()
    n_cand = candidates.count()
    if n_cand == 0:
        return definite_out
    parts = max(1, min(num_partitions, n_cand // 2048 + 1))
    survivors = hash_anti_join(candidates, right, on=on, right_on=r_on,
                               num_partitions=parts)
    return definite_out.union(survivors)


# ------------------------------------------------- fuzzy-key self-join


def _lev1(a: str, b: str) -> bool:
    """Exact edit-distance ≤ 1 check — the single shared verification
    kernel for every ED-1 blocking plan (candidates are already
    blocked, so this runs on O(candidates) pairs only)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > 1:
        return False
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) <= 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    # b is a with one insertion
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1:]


def _is_ed1(a: str, b: str) -> bool:
    """Exact Levenshtein-distance==1 check (candidate verify)."""
    return a != b and _lev1(a, b)


#: rows of the deletion-neighborhood expansion per variant partition —
#: partitions scale WITH the key domain (the shared data-scaled-
#: partition rule; see ROWS_PER_JOIN_PARTITION)
ROWS_PER_VARIANT_PARTITION = 50_000


def edit1_pairs(ds: rd.Dataset, column: str, *, min_len: int = 1,
                num_buckets: int | None = None,
                max_partition_rows: int = 500_000,
                cap_bucket: int | None = None) -> rd.Dataset:
    """All unordered pairs of DISTINCT ``column`` values at Levenshtein
    distance exactly 1 — the fuzzy-key similarity self-join (typo-key
    and mirror-host detection: ``www1.x``/``www2.x`` crawl mirrors),
    the approximate analogue of the reference's exact done-set key
    matching (/root/reference/pmocr.sh:2126-2144 treats any 1-char
    path difference as a brand-new document; this op surfaces those).

    Physical plan (FastSS deletion neighborhood — never a cross join):
    ED(a, b) <= 1 implies a = b, one is a single-deletion variant of
    the other, or they share a same-position single-deletion variant;
    so every ED==1 pair co-occurs under at least one variant key.

    1. distinct values: per-batch ``pc.unique`` combiner -> global
       distinct (value-domain-bounded, like the vocab rollups).
    2. expansion: each distinct value emits itself + its ``len``
       single-deletion variants, each tagged with a crc32 hash of the
       variant (vocab-bounded Python loop — runs over DISTINCT values
       only, never corpus rows).  The expansion is materialized once;
       its row count sizes the coarse partition count
       (``num_buckets``), so partitions scale with the key domain
       instead of a fixed constant.
    3. one ``groupby(_bkt).map_groups``: within the partition a
       vectorized self-merge on the exact variant yields candidates,
       verified by the exact :func:`_is_ed1` check before emission
       (candidates are a superset: two different-position deletions
       can collide at ED 2).  ``max_partition_rows`` guards
       pathological variant fan-in loudly (ValueError, per the repo's
       loud-guard rule) rather than silently truncating;
       ``cap_bucket`` (opt-in) instead caps each variant bucket to its
       deterministic lexicographic prefix — the mirror-farm bound.
    4. global distinct of verified (a, b) — the same pair can be found
       under several shared variants in different partitions.

    Output: columns ``a``/``b`` (a < b), sorted — deterministic under
    any partitioning.
    """
    import zlib

    from pmocr_ray.ops.vecagg import grouped_aggregate

    def batch_distinct(t: pa.Table) -> pa.Table:
        v = pc.unique(pc.drop_null(t[column]))
        if min_len > 0:  # enforce the default too: '' is excluded at 1
            v = v.filter(pc.greater_equal(pc.utf8_length(v), min_len))
        return pa.table({column: v})

    distinct = grouped_aggregate(
        ds.map_batches(batch_distinct, batch_format="pyarrow"),
        [column], [],
        seed_schema=pa.schema([(column, pa.string())]))

    def expand(t: pa.Table) -> pa.Table:
        variants: list[str] = []
        terms: list[str] = []
        crcs: list[int] = []
        for s in t[column].to_pylist():
            for v in (s, *(s[:i] + s[i + 1:] for i in range(len(s)))):
                variants.append(v)
                terms.append(s)
                crcs.append(zlib.crc32(v.encode()))
        return pa.table({
            "variant": pa.array(variants, pa.string()),
            "term": pa.array(terms, pa.string()),
            "_crc": pa.array(crcs, pa.int64()),
        })

    expansion = distinct.map_batches(
        expand, batch_format="pyarrow").materialize()
    if num_buckets is None:
        num_buckets = max(
            8, expansion.count() // ROWS_PER_VARIANT_PARTITION + 1)
    nb = num_buckets

    def bucketed(t: pa.Table) -> pa.Table:
        bkt = pc.cast(
            pc.bit_wise_and(t["_crc"], pa.scalar(0x7FFFFFFF, pa.int64())),
            pa.int64())
        bkt = pa.array(bkt.to_numpy(zero_copy_only=False) % nb, pa.int64())
        return t.drop_columns(["_crc"]).append_column("_bkt", bkt)

    def pairs_partition(t: pa.Table) -> pa.Table:
        if t.num_rows > max_partition_rows:
            raise ValueError(
                f"edit1_pairs variant partition holds {t.num_rows} rows "
                f"(> max_partition_rows={max_partition_rows}); raise "
                f"num_buckets/max_partition_rows for this key domain")
        df = t.select(["variant", "term"]).to_pandas()
        df = df.drop_duplicates()
        if cap_bucket is not None:
            df = df.sort_values(["variant", "term"], kind="mergesort")
            df = df[df.groupby("variant", sort=False).cumcount()
                    < cap_bucket]
        m = df.merge(df, on="variant")
        keep = m["term_x"].to_numpy() < m["term_y"].to_numpy()
        cand = {(x, y) for x, y in zip(m["term_x"].to_numpy()[keep],
                                       m["term_y"].to_numpy()[keep])}
        good = [(x, y) for x, y in cand if _is_ed1(x, y)]
        good.sort()
        return pa.table({
            "a": pa.array([g[0] for g in good], pa.string()),
            "b": pa.array([g[1] for g in good], pa.string()),
        })

    pairs = (expansion.map_batches(bucketed, batch_format="pyarrow")
             .groupby("_bkt")
             .map_groups(pairs_partition, batch_format="pyarrow"))
    return grouped_aggregate(
        pairs, ["a", "b"], [],
        seed_schema=pa.schema([("a", pa.string()),
                               ("b", pa.string())])).sort(["a", "b"])
