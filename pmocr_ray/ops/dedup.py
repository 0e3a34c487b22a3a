"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram
Jaccard verification, embedding-cosine near-dup.

Shuffle discipline (the 100 TB story):

* exact dedup groups on a 16-byte **hash** of the content, never the
  content itself (tiny shuffle keys), and pre-aggregates per batch
  before the global groupby (combiner pattern).
* MinHash/SimHash follow the standard sketch shape: per-batch
  signature computation (vectorized numpy, stateful seeded params in
  an actor pool) → explode to (band, bucket) rows → one groupby over
  the *bands* (small fixed blowup) → candidate pairs → verification.
* Hot LSH buckets are capped (``max_bucket``) — the salt-hot-keys
  guard; a bucket bigger than the cap is, with near-certainty, a
  degenerate constant-content cluster and is sampled deterministically.
* Pair verification is a **hash-partitioned join** of the candidate
  pairs against the corpus on doc id (twice: once per pair side), so
  the corpus text/vectors never leave the cluster — no driver-side
  ``take_all`` of a corpus column anywhere in the near-dup family.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd

from pmocr_ray.ops.text import fingerprint


def _hash64(data: bytes) -> int:
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "big")


# Avalanche-mix constants (splitmix64 / murmur3 finalizer family) for the
# vectorized u64 mixers below.  Pure numpy mod-2^64 arithmetic — fully
# process-independent, unlike Python's salted ``hash``.
_MC1 = np.uint64(0xFF51AFD7ED558CCD)
_MC2 = np.uint64(0xC4CEB9FE1A85EC53)
_MC3 = np.uint64(0x9E3779B97F4A7C15)


def _mix_shingles(wh: np.ndarray, k: int) -> np.ndarray:
    """Vectorized shingle hashes from per-word hashes.

    ``wh`` is the (n_words,) u64 array of blake2b word hashes; the
    result is the (n_words - k + 1,) u64 array of k-word-shingle
    hashes, each an avalanche mix of its k word hashes (position-
    sensitive via the per-step rotate+multiply).  Replaces one blake2b
    call *per shingle* with one blake2b call *per word* plus O(k)
    vector ops — the shingle-hash identity changes, but MinHash only
    needs a deterministic, well-mixed 64-bit shingle fingerprint.
    """
    n = len(wh) - k + 1
    h = wh[:n] * _MC1
    for j in range(1, k):
        w = wh[j : n + j]
        h = (h ^ ((w >> np.uint64(31)) | (w << np.uint64(33)))) * _MC2
        h ^= h >> np.uint64(29)
        h = h * _MC3
    h ^= h >> np.uint64(32)
    return h


def _mix_band(cols: list[np.ndarray]) -> np.ndarray:
    """Vectorized band-bucket ids: fold ``rows_per_band`` signature
    columns (each (n_docs,) u64) into one well-mixed u64 per doc."""
    h = np.zeros_like(cols[0])
    for c in cols:
        h = (h ^ c) * _MC1
        h ^= h >> np.uint64(33)
        h = h * _MC2
    h ^= h >> np.uint64(29)
    return h


# ------------------------------------------------------------ exact dedup


def exact_dedup(ds: rd.Dataset, column: str = "text", key: str = "doc_id") -> rd.Dataset:
    """Exact dedup: keep the min-key representative per distinct content.

    read → vectorized md5 → **per-batch partial aggregate** (one row per
    fp per batch) → global ``groupby(fp)`` over the partials.  The
    all-to-all exchange only ever moves (fp, keep, n) triples.
    Returns (fp, keep_id, n_dups).
    """
    def partial(batch: pa.Table) -> pa.Table:
        b = fingerprint(batch, column=column)
        # count_all (not count of "fp"): rows with null content hash to a
        # null fp and must still be counted, matching the oracle's count(*)
        g = b.select(["fp", key]).group_by("fp").aggregate(
            [(key, "min"), ([], "count_all")]
        )
        return pa.table({
            "fp": g["fp"],
            "keep_id": g[f"{key}_min"],
            "n_dups": g["count_all"],
        })

    from pmocr_ray.ops.vecagg import grouped_aggregate

    partials = ds.map_batches(partial, batch_format="pyarrow")
    # fp groups are CORPUS-scale — the Arrow-bucketed aggregate merges
    # the per-batch partials without Ray's per-group Python reduce cost
    return grouped_aggregate(
        partials, ["fp"],
        [("keep_id", "min", "keep_id"), ("n_dups", "sum", "n_dups")],
        seed_schema=pa.schema([("fp", pa.string()),
                               ("keep_id", pa.int64()),
                               ("n_dups", pa.int64())]))


def exact_dup_pairs(ds: rd.Dataset, column: str = "text", key: str = "doc_id",
                    max_group: int = 64) -> rd.Dataset:
    """Exact-duplicate pairs (a < b) per content fingerprint.

    Groups up to ``max_group`` members emit all pairs; a degenerate
    group (one text repeated 10⁶×) would emit O(n²) rows, so larger
    groups emit a **star** instead — every member paired with the group
    minimum: O(n) rows with identical connectivity for any downstream
    union-find/keep decision.  This is the same hot-key guard the LSH
    bucket path uses (the cap there protects the candidate join the
    same way).
    """
    # pair emission WITHOUT a per-fingerprint Python call (fp groups
    # are corpus-scale and overwhelmingly singleton): fingerprints hash
    # to ~32 coarse partitions; each partition emits ALL its groups'
    # pairs with one vectorized self-merge (small groups) + one
    # transform-min star emit (hot groups) — identical pair set.
    from pmocr_ray.ops.vecagg import _bucket_of

    def coarse(t: pa.Table) -> pa.Table:
        # project BEFORE the shuffle: only (fp, key) cross the exchange,
        # never the text (the former groupby(fp) shipped whole rows)
        t = t.select(["fp", key])
        return t.append_column("_bkt", _bucket_of(t, ["fp"], 32))

    def pairs_partition(t: pa.Table) -> pa.Table:
        df = t.select(["fp", key]).to_pandas()
        # null fp (null content) is a group of its own, like Ray's
        # groupby treated it; pandas merge/groupby would DROP NaN keys
        df["fp"] = df["fp"].fillna("\x00__null__")
        df = df.sort_values(["fp", key]).drop_duplicates(["fp", key])
        sizes = df.groupby("fp", sort=False)["fp"].transform("size")
        big = sizes.to_numpy() > max_group
        bs = df[big]
        if len(bs):
            firsts = bs.groupby("fp", sort=False)[key].transform("min")
            sm_mask = bs[key].to_numpy() != firsts.to_numpy()
            star_a = firsts.to_numpy()[sm_mask]
            star_b = bs[key].to_numpy()[sm_mask]
        else:
            star_a = star_b = np.zeros(0, np.int64)
        small = df[~big]
        m = small.merge(small, on="fp")
        keep = m[f"{key}_x"].to_numpy() < m[f"{key}_y"].to_numpy()
        a = np.concatenate([m[f"{key}_x"].to_numpy()[keep], star_a])
        b = np.concatenate([m[f"{key}_y"].to_numpy()[keep], star_b])
        return pa.table({"a": pa.array(a.astype(np.int64), pa.int64()),
                         "b": pa.array(b.astype(np.int64), pa.int64())})

    fps = ds.map_batches(lambda t: fingerprint(t, column=column),
                         batch_format="pyarrow")
    return (fps.map_batches(coarse, batch_format="pyarrow")
            .groupby("_bkt")
            .map_groups(pairs_partition, batch_format="pyarrow"))


# ------------------------------------------------------- MinHash + LSH


class MinHashStage:
    """Actor-pool stage: word-shingle MinHash signatures + LSH band rows.

    Seeded universal-hash parameters are built once per actor
    (``__init__``) — the amortized-init pattern.  The batch kernel is
    fully vectorized (measured 3-4× the per-row loop on both short and
    500-word docs): each *unique word* is blake2b-hashed once (per-actor
    LRU-ish dict cache, so the hot web vocabulary amortizes across the
    actor's lifetime), shingle hashes come from the O(k) vector mixer
    :func:`_mix_shingles` over shifted word-hash slices, the (P, n_docs)
    signature matrix is one ``min((a*x+b) mod 2^64)`` segmented reduce
    per permutation (``np.minimum.reduceat`` over doc offsets —
    duplicate shingles need no dedup since ``min`` is idempotent), and
    band buckets fold signature columns via :func:`_mix_band`.  All
    hashing is process-independent (blake2b + fixed-constant mixers),
    matching the determinism the reference's rerun-stability contract
    requires (/root/reference/pmocr.sh:2126-2144 — skip sets must agree
    across runs).
    """

    #: bound on the per-actor word-hash cache (u64 per entry + key str)
    _WORD_CACHE_MAX = 1_000_000

    def __init__(self, num_perm: int = 128, n_bands: int = 32,
                 shingle_size: int = 3, seed: int = 42,
                 key: str = "doc_id", column: str = "text") -> None:
        assert num_perm % n_bands == 0
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, 1 << 62, size=num_perm, dtype=np.uint64) * 2 + 1
        self.b = rng.randint(0, 1 << 62, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.n_bands = n_bands
        self.rows_per_band = num_perm // n_bands
        self.shingle_size = shingle_size
        self.key = key
        self.column = column
        self._word_cache: dict[str, int] = {}

    def _word_hashes(self, words: list[str]) -> np.ndarray:
        cache = self._word_cache
        out = np.empty(len(words), dtype=np.uint64)
        for i, w in enumerate(words):
            h = cache.get(w)
            if h is None:
                h = _hash64(w.encode())
                if len(cache) < self._WORD_CACHE_MAX:
                    cache[w] = h
            out[i] = h
        return out

    def shingle_hashes(self, text: str) -> np.ndarray:
        """u64 hash per word ``shingle_size``-gram of ``text`` (empty
        array for empty text; one whole-text hash for short docs)."""
        words = text.split()
        if not words:
            return np.empty(0, dtype=np.uint64)
        k = self.shingle_size
        if len(words) < k:
            return np.array([_hash64(" ".join(words).encode())],
                            dtype=np.uint64)
        return _mix_shingles(self._word_hashes(words), k)

    def signature(self, text: str) -> np.ndarray | None:
        """Scalar reference path (tests/debug); the batch kernel in
        ``__call__`` computes the same signatures via segmented mins."""
        x = self.shingle_hashes(text)
        if len(x) == 0:
            return None
        with np.errstate(over="ignore"):
            vals = self.a[:, None] * x[None, :] + self.b[:, None]
        return vals.min(axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch[self.key].to_pylist()
        texts = batch[self.column].to_pylist()
        sh_arrays: list[np.ndarray] = []
        kept_keys: list[int] = []
        for key_v, t in zip(keys, texts):
            sh = self.shingle_hashes(t or "")
            if len(sh):
                sh_arrays.append(sh)
                kept_keys.append(key_v)
        n_docs = len(kept_keys)
        if n_docs == 0:
            return pa.table({
                "doc_id": pa.array([], pa.int64()),
                "band": pa.array([], pa.int32()),
                "bucket": pa.array([], pa.int64()),
            })
        lens = np.fromiter((len(x) for x in sh_arrays), dtype=np.int64,
                           count=n_docs)
        offsets = np.zeros(n_docs, dtype=np.int64)
        np.cumsum(lens[:-1], out=offsets[1:])
        x = np.concatenate(sh_arrays)
        # (P, n_docs) signature matrix: one vectorized permutation pass
        # + segmented min per perm — peak extra memory is one (len(x),)
        # u64 scratch row, not the (P, len(x)) outer product.
        sig = np.empty((self.num_perm, n_docs), dtype=np.uint64)
        with np.errstate(over="ignore"):
            for p in range(self.num_perm):
                sig[p] = np.minimum.reduceat(self.a[p] * x + self.b[p],
                                             offsets)
        rpb = self.rows_per_band
        buckets = np.empty((self.n_bands, n_docs), dtype=np.uint64)
        for band in range(self.n_bands):
            buckets[band] = _mix_band(
                [sig[band * rpb + j] for j in range(rpb)])
        # int64 bit-view of the u64 bucket: same bucketing bits, but
        # pandas round-trips (hot-bucket map_groups) keep the Arrow
        # dtype instead of falling back to pickled objects
        return pa.table({
            "doc_id": pa.array(
                np.repeat(np.asarray(kept_keys, dtype=np.int64),
                          self.n_bands)),
            "band": pa.array(
                np.tile(np.arange(self.n_bands, dtype=np.int32), n_docs)),
            "bucket": pa.array(buckets.T.reshape(-1).view(np.int64)),
        })


def _bucket_pairs(group: pd.DataFrame, max_bucket: int) -> pd.DataFrame:
    ids = sorted(group["doc_id"].tolist())
    if len(ids) > max_bucket:
        ids = ids[:max_bucket]  # deterministic cap — salt-hot-keys guard
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1 :]]
    if not pairs:
        return pd.DataFrame({"a": pd.Series(dtype="int64"),
                             "b": pd.Series(dtype="int64")})
    return pd.DataFrame(pairs, columns=["a", "b"])


def _star_pairs(g: pd.DataFrame) -> pd.DataFrame:
    """Hot-bucket star emit: every member pairs with the bucket minimum
    only — O(n) pairs that preserve cluster connectivity for the
    component step (the hot-key/salting guard as an operator)."""
    ids = sorted(set(g["doc_id"].tolist()))
    return pd.DataFrame({
        "a": pd.Series([ids[0]] * (len(ids) - 1), dtype="int64"),
        "b": pd.Series(ids[1:], dtype="int64"),
    })


def _pairs_or_star(g: pd.DataFrame, max_bucket: int) -> pd.DataFrame:
    """Per-bucket pair emit for the singleton-pruned fast path: full
    pairs for normal buckets, star emit past ``max_bucket`` — exactly
    the scale path's split semantics, fused into one grouped pass."""
    ids = sorted(set(g["doc_id"].tolist()))
    if len(ids) > max_bucket:
        return _star_pairs(g)
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    if not pairs:
        return pd.DataFrame({"a": pd.Series(dtype="int64"),
                             "b": pd.Series(dtype="int64")})
    return pd.DataFrame(pairs, columns=["a", "b"])


#: broadcast cap for the multi-member (band, bucket) table — beyond
#: this the singleton-pruning fast path would ship too much per task
_MULTI_BUCKET_BROADCAST_LIMIT = 2_000_000

#: cap on surviving (multi-bucket) band rows for the driver-local pair
#: emit inside the fast path; worst-case driver pairs ≈ rows×max_bucket/2
_DRIVER_PAIR_ROWS = 200_000


def lsh_candidate_pairs(band_rows: rd.Dataset, max_bucket: int = 64,
                        num_partitions: int = 16,
                        checkpoint_dir: str | None = None) -> rd.Dataset:
    """(band, bucket) co-grouping → unique candidate pairs (a < b).

    Skew-aware routing, driven by one grouped bucket-size count:

    * **Singleton buckets** — the overwhelming majority of band rows —
      cannot form a pair.  When the multi-member bucket table fits a
      broadcast (the common regime; it is bounded by near-dup-ish docs
      × bands, not the corpus), singleton rows are dropped by a LOCAL
      per-batch semi join before the exchange, and the self-join
      partition count sizes from the surviving rows only.
    * **Normal multi buckets** go through a hash **self-join** on
      (band, bucket) — per-group UDF overhead over ~32×N near-empty
      groups dominates a ``groupby().map_groups`` formulation
      (measured 22s → 3.9s at 160k band rows), and with singletons
      pruned the join input is the active rows alone.
    * **Hot buckets** (> ``max_bucket`` members — degenerate
      constant-content clusters) would emit n² join rows; they route
      through a **star emit** instead: every member pairs with the
      bucket minimum only — O(n) pairs that preserve cluster
      connectivity for the component step.  This is the
      hot-key/salting guard as an operator, not a comment.

    Falls back to the map_groups formulation on Ray builds without
    ``Dataset.join``.
    """
    from pmocr_ray.ops.vecagg import distinct as _vec_distinct

    _PAIR_SCHEMA = pa.schema([("a", pa.int64()), ("b", pa.int64())])

    def _distinct(pairs: rd.Dataset) -> rd.Dataset:
        # NOT groupby(a,b).aggregate(Count): Ray's reduce pays a
        # per-group Python cost (~180 µs/group — 27 s over the 140 k
        # pair groups a 2 k-vector SRP run emits); the Arrow-bucketed
        # distinct is vectorized end to end (measured 8.6 s → 0.23 s
        # on that shape).  No consumer ever read the band-hit count.
        return _vec_distinct(pairs, ["a", "b"], seed_schema=_PAIR_SCHEMA)

    if not hasattr(rd.Dataset, "join"):  # pragma: no cover - older Ray
        pairs = band_rows.groupby(["band", "bucket"]).map_groups(
            lambda g: _bucket_pairs(g, max_bucket), batch_format="pandas"
        )
        return _distinct(pairs)

    # Three consumers (pre-count + both routes) — pin once rather than
    # re-running the sketch stage.  ``checkpoint_dir`` spills the band
    # rows to parquet instead of pinning ~n_bands×N rows in the object
    # store — the scale path for corpora whose band rows exceed
    # aggregate object-store memory.
    if checkpoint_dir is not None:
        import os
        import shutil

        shutil.rmtree(checkpoint_dir, ignore_errors=True)
        os.makedirs(checkpoint_dir, exist_ok=True)
        band_rows.write_parquet(checkpoint_dir)
        band_rows = rd.read_parquet(checkpoint_dir)
    else:
        band_rows = band_rows.materialize()
    # An all-empty hash partition reaches acero as a zero-column table
    # and fails FieldRef resolution — and each join partition costs a
    # HashShuffleAggregator actor (~0.3s spin-up each, measured 10.7s →
    # 15.7s at 160k rows going 4 → 16 partitions), so partitions scale
    # WITH the data: one per ~40k band rows up to the caller's cap
    # (callers at cluster scale raise ``num_partitions``; the fixed
    # per-partition cost amortizes there).
    n_rows = band_rows.count()
    from pmocr_ray.ops.joins import parts_for_rows
    from pmocr_ray.ops.vecagg import grouped_aggregate
    counts = grouped_aggregate(
        band_rows, ["band", "bucket"], [(None, "count", "count()")])
    # A singleton bucket — the overwhelming majority of (band, bucket)
    # groups on a real corpus — cannot form a pair, so only the
    # multi-member buckets matter from here on.  Their table is
    # bounded by |near-dup-ish docs| × n_bands, not by the corpus.
    multi = counts.map_batches(
        lambda t: t.filter(pa.compute.greater(t["count()"], 1)),
        batch_format="pyarrow").materialize()

    def _local_semi(ref):
        # broadcast a (band, bucket) key table once; each batch routes
        # through a LOCAL arrow hash semi join — vectorized and exact
        def fn(t: pa.Table) -> pa.Table:
            hb, hk = ray.get(ref)
            ht = pa.table({
                "band": pa.array(hb).cast(t.schema.field("band").type),
                "bucket": pa.array(hk, t.schema.field("bucket").type),
            })
            return t.join(ht, keys=["band", "bucket"], join_type="left semi")
        return fn

    hot_pairs = None
    if multi.count() <= _MULTI_BUCKET_BROADCAST_LIMIT:
        # Common regime: the multi-bucket table fits a broadcast, so
        # singleton band rows are dropped BEFORE any exchange.  What
        # survives is a tiny dataset whose groups are all ≥ 2 members,
        # which flips the original cost argument for the self-join:
        # with no singleton groups left, one groupby().map_groups
        # (full pairs ≤ max_bucket, star emit above) replaces the
        # hash self-join, the separate hot route, AND the union —
        # one small sort exchange instead of a join actor pool.
        rows = multi.take_all()
        if not rows:
            return rd.from_arrow(pa.table({"a": pa.array([], pa.int64()),
                                           "b": pa.array([], pa.int64())}))
        all_ref = ray.put(([r["band"] for r in rows],
                           [int(r["bucket"]) for r in rows]))
        pruned = band_rows.map_batches(
            _local_semi(all_ref), batch_format="pyarrow")
        total_multi_rows = int(sum(r["count()"] for r in rows))
        if total_multi_rows <= _DRIVER_PAIR_ROWS:
            # The surviving rows are a handful per duplicate cluster
            # and their exact count is already known from the bucket
            # rollup, so under this (tighter) gate one bounded
            # iter_batches pull + local pair emit replaces TWO
            # sort-exchange jobs (groupby + distinct) — measured
            # 2.0 s → ~0 at 14 k surviving rows.  Worst-case driver
            # memory: rows × max_bucket/2 pair tuples.
            groups: dict = {}
            for b in pruned.iter_batches(batch_format="pyarrow"):
                for band, bucket, did in zip(b["band"].to_pylist(),
                                             b["bucket"].to_pylist(),
                                             b["doc_id"].to_pylist()):
                    groups.setdefault((band, bucket), []).append(did)
            seen: set = set()
            for ids in groups.values():
                ids = sorted(set(ids))
                if len(ids) > max_bucket:
                    seen.update((ids[0], x) for x in ids[1:])
                else:
                    seen.update((x, y) for i, x in enumerate(ids)
                                for y in ids[i + 1:])
            if not seen:
                return rd.from_arrow(pa.table(
                    {"a": pa.array([], pa.int64()),
                     "b": pa.array([], pa.int64())}))
            a_arr, b_arr = zip(*sorted(seen))
            return rd.from_arrow(pa.table(
                {"a": pa.array(a_arr, pa.int64()),
                 "b": pa.array(b_arr, pa.int64())}))
        pairs = pruned.groupby(["band", "bucket"]).map_groups(
            lambda g: _pairs_or_star(g, max_bucket), batch_format="pandas")
        return _distinct(pairs)
    else:
        # Adversarial dup-rate regime: too many multi buckets to
        # broadcast — self-join the full band-row set; only the (rare)
        # hot buckets split out, via broadcast anti/semi as before.
        num_partitions = parts_for_rows(n_rows, cap=num_partitions)
        hot = multi.map_batches(
            lambda t: t.filter(
                pa.compute.greater(t["count()"], max_bucket)),
            batch_format="pyarrow",
        ).take_all()
        if hot:
            hot_ref = ray.put(([r["band"] for r in hot],
                               [int(r["bucket"]) for r in hot]))

            def drop_hot(t: pa.Table) -> pa.Table:
                hb, hk = ray.get(hot_ref)
                ht = pa.table({
                    "band": pa.array(hb).cast(t.schema.field("band").type),
                    "bucket": pa.array(hk, t.schema.field("bucket").type),
                })
                return t.join(ht, keys=["band", "bucket"],
                              join_type="left anti")

            normal_rows = band_rows.map_batches(
                drop_hot, batch_format="pyarrow")
            hot_pairs = (band_rows
                         .map_batches(_local_semi(hot_ref),
                                      batch_format="pyarrow")
                         .groupby(["band", "bucket"])
                         .map_groups(_star_pairs, batch_format="pandas"))
        else:
            normal_rows = band_rows

    def to_pairs(t: pa.Table) -> pa.Table:
        f = t.filter(pa.compute.less(t["doc_id"], t["doc_id_r"]))
        return pa.table({"a": f["doc_id"], "b": f["doc_id_r"]})

    joined = normal_rows.join(
        normal_rows, join_type="inner", num_partitions=num_partitions,
        on=("band", "bucket"), left_suffix="", right_suffix="_r",
    )
    pairs = joined.map_batches(to_pairs, batch_format="pyarrow")
    if hot_pairs is not None:
        pairs = pairs.union(hot_pairs)
    return _distinct(pairs)


def jaccard(text_a: str, text_b: str, shingle_size: int = 3,
            char_level: bool = False) -> float:
    """Exact shingle-set Jaccard — the verification kernel (word n-grams
    by default, char n-grams with ``char_level=True``)."""
    if char_level:
        sa = {text_a[i : i + shingle_size] for i in range(max(1, len(text_a) - shingle_size + 1))}
        sb = {text_b[i : i + shingle_size] for i in range(max(1, len(text_b) - shingle_size + 1))}
    else:
        wa, wb = text_a.split(), text_b.split()
        sa = {" ".join(wa[i : i + shingle_size]) for i in range(max(1, len(wa) - shingle_size + 1))}
        sb = {" ".join(wb[i : i + shingle_size]) for i in range(max(1, len(wb) - shingle_size + 1))}
    if not sa and not sb:
        return 1.0
    return len(sa & sb) / len(sa | sb)


# Gate for attach_pair_sides' hybrid: pair-id sets within it attach via
# a broadcast dict; beyond it the two hash joins run.  Module-level so
# tests can force the join route on small fixtures.
PAIR_ID_BROADCAST_GATE = 100_000


def attach_pair_sides(
    candidates: rd.Dataset,
    corpus: rd.Dataset,
    *,
    key: str,
    column: str,
    num_partitions: int = 16,
) -> rd.Dataset:
    """Hash-partitioned pairs⋈corpus join — the scale path for pair
    verification: attach the corpus ``column`` for both sides of each
    (a, b) candidate pair as ``<column>_a`` / ``<column>_b``.

    Two hash joins on the doc id (once per side); the corpus payload
    never passes through the driver or a broadcast.  The reference
    discipline being matched is anti-join-not-rescan
    (/root/reference/pmocr.sh:2126-2144).

    Shuffle budget: the corpus is first **semi-join-filtered** against
    the broadcast candidate *id set* (ints only — the same
    fits-in-memory assumption the union-find step already makes), so
    the hash joins exchange ~|pairs| rows of corpus payload, never the
    corpus itself.  Without this, each join would hash-partition the
    entire corpus column — a full-corpus shuffle per pair side.
    """
    side = corpus.select_columns([key, column])
    # Pin the (tiny) pair set: id-scan + two join passes would otherwise
    # re-run the whole candidate pipeline per consumer.
    candidates = candidates.materialize()
    n_cand = candidates.count()
    if n_cand == 0:
        # stable empty schema without running a join on an empty side
        sch = side.schema()
        # ray.data Schema wraps the arrow schema (base_schema)
        ctype = getattr(sch, "base_schema", sch).field(column).type
        return rd.from_arrow(pa.table({
            "a": pa.array([], pa.int64()),
            "b": pa.array([], pa.int64()),
            f"{column}_a": pa.array([], ctype),
            f"{column}_b": pa.array([], ctype),
        }))

    pair_ids: set = set()
    for blk in candidates.select_columns(["a", "b"]).iter_batches(
            batch_format="pyarrow"):
        pair_ids.update(blk["a"].to_pylist())
        pair_ids.update(blk["b"].to_pylist())
    from pmocr_ray.ops.joins import broadcast_semi_join

    side = broadcast_semi_join(side, key, pa.array(sorted(pair_ids)))

    # Size-gated hybrid: the semi-join already bounds the side table by
    # the CANDIDATE set (2×|pairs| rows max — the same ≪-corpus bound
    # the union-find step relies on), so below a threshold the two hash
    # joins (two JoinOperator actor pools + exchanges — seconds of fixed
    # cost) lose to collecting that bounded subset once and attaching
    # via a broadcast dict.  The corpus itself is still never collected:
    # what reaches the driver is only rows that appear in some pair.
    if len(pair_ids) <= PAIR_ID_BROADCAST_GATE:
        lookup: dict = {}
        for blk in side.iter_batches(batch_format="pyarrow"):
            lookup.update(zip(blk[key].to_pylist(), blk[column].to_pylist()))
        lookup_ref = ray.put(lookup)

        def attach(t: pa.Table) -> pa.Table:
            m = ray.get(lookup_ref)
            return pa.table({
                "a": t["a"], "b": t["b"],
                f"{column}_a": pa.array(
                    [m.get(x) for x in t["a"].to_pylist()]),
                f"{column}_b": pa.array(
                    [m.get(x) for x in t["b"].to_pylist()]),
            })

        return candidates.select_columns(["a", "b"]).map_batches(
            attach, batch_format="pyarrow")

    # keep hash partitions comfortably populated (acero rejects
    # all-empty zero-column partitions)
    parts = max(1, min(num_partitions, n_cand // 2048 + 1))

    def _take(t: pa.Table, names: list[str], renames: dict[str, str]) -> pa.Table:
        return pa.table({renames.get(c, c): t[c] for c in names})

    j = candidates.select_columns(["a", "b"]).join(
        side, join_type="inner", num_partitions=parts,
        on=("a",), right_on=(key,),
    )
    j = j.map_batches(
        lambda t: _take(t, ["a", "b", column], {column: f"{column}_a"}),
        batch_format="pyarrow",
    )
    j = j.join(
        side, join_type="inner", num_partitions=parts,
        on=("b",), right_on=(key,),
    )
    return j.map_batches(
        lambda t: _take(t, ["a", "b", f"{column}_a", column],
                        {column: f"{column}_b"}),
        batch_format="pyarrow",
    )


def _jaccard_verify_fn(column: str, threshold: float, shingle_size: int,
                       char_level: bool):
    """Exact-Jaccard verification kernel over joined pair rows
    (a, b, <column>_a, <column>_b) — stateless task stage."""
    ca, cb = f"{column}_a", f"{column}_b"

    def verify(batch: pa.Table) -> pa.Table:
        sims = [
            jaccard(x or "", y or "", shingle_size, char_level)
            for x, y in zip(batch[ca].to_pylist(), batch[cb].to_pylist())
        ]
        t = pa.table({
            "a": batch["a"].combine_chunks().cast(pa.int64()),
            "b": batch["b"].combine_chunks().cast(pa.int64()),
            "jaccard": pa.array(sims, pa.float64()),
        })
        # filter inside the stage (vectorized) — no per-row ds.filter
        return t.filter(pa.compute.greater_equal(t["jaccard"], threshold))

    return verify


def minhash_dedup_pairs(
    ds: rd.Dataset,
    *,
    column: str = "text",
    key: str = "doc_id",
    threshold: float = 0.8,
    num_perm: int = 128,
    n_bands: int = 32,
    shingle_size: int = 3,
    char_level_verify: bool = False,
    concurrency: int = 2,
    checkpoint_dir: str | None = None,
) -> rd.Dataset:
    """Full MinHash-LSH near-dup pipeline → verified duplicate pairs.

    sketch (actor pool) → band explode → bucket groupby → candidate
    pairs → hash-partitioned pairs⋈corpus join → exact-Jaccard verify.
    Returns rows (a, b, jaccard) with a < b and jaccard ≥ threshold.
    The corpus text is never collected to the driver or broadcast.
    """
    band_rows = ds.map_batches(
        MinHashStage,
        fn_constructor_kwargs={
            "num_perm": num_perm, "n_bands": n_bands,
            "shingle_size": shingle_size, "key": key, "column": column,
        },
        batch_format="pyarrow",
        concurrency=(1, concurrency),
    )
    candidates = lsh_candidate_pairs(band_rows, checkpoint_dir=checkpoint_dir)
    paired = attach_pair_sides(candidates, ds, key=key, column=column)
    verified = paired.map_batches(
        _jaccard_verify_fn(column, threshold, shingle_size, char_level_verify),
        batch_format="pyarrow",
    )
    return verified.select_columns(["a", "b", "jaccard"])


def minhash_dedup_keep(
    ds: rd.Dataset,
    *,
    column: str = "text",
    key: str = "doc_id",
    threshold: float = 0.8,
    distributed_cc_pair_limit: int = 2_000_000,
    annotate_ds: rd.Dataset | None = None,
    **minhash_kwargs,
) -> rd.Dataset:
    """End-to-end near-dup dedup decision: every input row annotated with
    ``keep`` (cluster representative = min id) and ``dup_of`` (cluster
    root; equals own id for kept rows).

    pairs (MinHash-LSH, skew-aware) → connected components → one
    vectorized annotation pass.  The corpus itself is never collected.

    ``annotate_ds`` decouples the DECISION input from the ANNOTATION
    target: the dedup decision only reads (key, column), so a caller
    whose rows carry expensive lazy upstream stages (lang-ID, quality
    scoring — see ``pipelines.curate``) passes the cheap pruned corpus
    as ``ds`` and the scored dataset as ``annotate_ds``; otherwise the
    lazy upstream re-executes once per decision-side consumer (sketch +
    verify corpus side).  Both must contain the same ``key`` universe.

    The component step routes by pair count: the verified pair set is
    usually orders of magnitude smaller than the corpus, so at or below
    ``distributed_cc_pair_limit`` pairs it is collected and resolved
    with a driver-side union-find and the root map broadcast via
    ``ray.put``.  Above the limit (mirror farms / template storms at
    crawl scale can emit pair sets that fit no single machine) the
    labels are computed in-cluster by min-label propagation
    (:func:`pmocr_ray.ops.graph.connected_components_distributed`) and
    hash-joined back onto the corpus — nothing pair-shaped ever
    reaches the driver on that route.  Both routes produce identical
    (dup_of, keep) columns; set the limit to 0 to force the
    distributed path.
    """
    target = ds if annotate_ds is None else annotate_ds
    pairs_ds = (minhash_dedup_pairs(ds, column=column, key=key,
                                    threshold=threshold, **minhash_kwargs)
                .select_columns(["a", "b"])).materialize()
    if pairs_ds.count() > distributed_cc_pair_limit:
        return _annotate_keep_distributed(target, pairs_ds, key=key)

    pairs = [(r["a"], r["b"]) for r in pairs_ds.take_all()]
    roots = connected_components(pairs)
    roots_ref = ray.put(roots)

    def annotate(t: pa.Table) -> pa.Table:
        m = ray.get(roots_ref)
        ids = t[key].to_pylist()
        dup_of = [m.get(i, i) for i in ids]
        keep = [r == i for i, r in zip(ids, dup_of)]
        return (t.append_column("dup_of", pa.array(dup_of, pa.int64()))
                 .append_column("keep", pa.array(keep, pa.bool_())))

    return target.map_batches(annotate, batch_format="pyarrow")


def _annotate_keep_distributed(ds: rd.Dataset, pairs: rd.Dataset,
                               *, key: str) -> rd.Dataset:
    """Scale route of :func:`minhash_dedup_keep`: component labels via
    distributed min-label propagation, joined back onto the corpus.

    ``pairs`` is a materialized (a, b) int64 edge list.  The label
    table is one row per edge endpoint — still far smaller than the
    corpus — so join partitions are sized from it (an undersized
    partition count only makes partitions bigger, never wrong)."""
    from pmocr_ray.ops.graph import connected_components_distributed

    from pmocr_ray.ops.joins import parts_for_rows

    labels = connected_components_distributed(pairs).materialize()
    parts = parts_for_rows(labels.count(), cap=16)
    joined = ds.join(labels, join_type="left_outer", num_partitions=parts,
                     on=(key,), right_on=("node",))

    def annotate(t: pa.Table) -> pa.Table:
        ids = pc.cast(t[key], pa.int64())
        dup_of = pc.coalesce(pc.cast(t["label"], pa.int64()), ids)
        keep = pc.equal(dup_of, ids)
        t = t.drop_columns([c for c in ("node", "label")
                            if c in t.column_names])
        return (t.append_column("dup_of", dup_of.combine_chunks())
                 .append_column("keep", keep.combine_chunks()))

    return joined.map_batches(annotate, batch_format="pyarrow")


def connected_components(pairs: list[tuple[int, int]]) -> dict[int, int]:
    """Union-find over verified pairs → {doc_id: cluster_root(min id)}.

    Driver-side: valid because the verified-duplicate pair set is orders
    of magnitude smaller than the corpus.  For adversarial corpora use
    iterative min-label propagation (a few groupby rounds) instead.
    """
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    return {x: find(x) for x in parent}


# ----------------------------------------------------------------- SimHash


class SimHashStage:
    """64-bit SimHash signatures over word-unigram hashes (actor pool).

    Near-dup = Hamming distance ≤ k.  Pairing uses the pigeonhole
    banding of the 64 bits into 4×16-bit chunks: any pair with
    distance ≤ 3 shares at least one exact chunk — COMPLETE, not
    probabilistic, for that distance bound.

    ``word_hash`` selects the per-word 64-bit hash: ``"blake2b"``
    (default, fastest well-mixed option) or ``"md5"`` (little-endian
    first 8 bytes of the md5 digest — exactly DuckDB's
    ``md5_number_upper``), which makes the whole signature, and
    therefore the pair set, recomputable by a SQL oracle.
    """

    def __init__(self, key: str = "doc_id", column: str = "text",
                 word_hash: str = "blake2b") -> None:
        if word_hash not in ("blake2b", "md5"):
            raise ValueError(f"unknown word_hash {word_hash!r}")
        self.key = key
        self.column = column
        self.word_hash = word_hash
        self.bit_cols = np.arange(64, dtype=np.uint64)

    #: bound on the per-actor word-hash cache
    _WORD_CACHE_MAX = 1_000_000
    #: cap on the (words × 64) int32 scratch block per vector pass
    _WORDS_PER_SLAB = 262_144

    def _whash(self, word: bytes) -> int:
        if self.word_hash == "md5":
            return int.from_bytes(hashlib.md5(word).digest()[:8], "little")
        return _hash64(word)

    def _word_hashes(self, words: list[str]) -> np.ndarray:
        cache = getattr(self, "_word_cache", None)
        if cache is None:
            cache = self._word_cache = {}
        out = np.empty(len(words), dtype=np.uint64)
        for i, w in enumerate(words):
            h = cache.get(w)
            if h is None:
                h = self._whash(w.encode())
                if len(cache) < self._WORD_CACHE_MAX:
                    cache[w] = h
            out[i] = h
        return out

    def _sigs_from_counts(self, wh: np.ndarray, offsets: np.ndarray,
                          lens: np.ndarray) -> np.ndarray:
        """Vectorized SimHash for non-empty docs.  The ±1 vote rule
        ``sum(votes) > 0`` is computed as ``2*ones > n_words`` so the
        kernel is one ``np.unpackbits`` (little-endian bit i of the u64
        = column i) + one segmented ones-count per doc — bit-identical
        to the scalar reference path, ~6× the u64 broadcast-shift form.
        """
        acc = np.zeros((len(offsets), 64), dtype=np.int64)
        n = len(wh)
        slab = self._WORDS_PER_SLAB
        for s0 in range(0, n, slab):
            s1 = min(s0 + slab, n)
            ones = np.unpackbits(
                wh[s0:s1, None].view(np.uint8), axis=1, bitorder="little")
            # docs overlapping this slab: segments clipped to [s0, s1)
            lo = int(np.searchsorted(offsets, s0, side="right")) - 1
            hi = int(np.searchsorted(offsets, s1, side="left"))
            offs = np.clip(offsets[lo:hi] - s0, 0, s1 - s0)
            acc[lo:hi] += np.add.reduceat(
                ones.astype(np.int32), offs, axis=0)
        bits = (2 * acc > lens[:, None]).astype(np.uint64)
        return (bits << self.bit_cols[None, :]).sum(axis=1, dtype=np.uint64)

    def simhash(self, text: str) -> int:
        """Scalar reference path (tests/debug); ``__call__`` computes the
        same signatures via the segmented vector kernel."""
        words = text.split()
        if not words:
            return 0
        wh = self._word_hashes(words)
        return int(self._sigs_from_counts(
            wh, np.zeros(1, dtype=np.int64),
            np.array([len(words)], dtype=np.int64))[0])

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys = batch[self.key].to_pylist()
        word_lists = [(t or "").split()
                      for t in batch[self.column].to_pylist()]
        lens = np.fromiter((len(w) for w in word_lists), dtype=np.int64,
                           count=len(word_lists))
        sigs = np.zeros(len(word_lists), dtype=np.uint64)  # empty doc -> 0
        nonempty = np.flatnonzero(lens)
        if len(nonempty):
            ne_lens = lens[nonempty]
            offsets = np.zeros(len(ne_lens), dtype=np.int64)
            np.cumsum(ne_lens[:-1], out=offsets[1:])
            wh = self._word_hashes(
                [w for wl in word_lists for w in wl])
            sigs[nonempty] = self._sigs_from_counts(wh, offsets, ne_lens)
        n_docs = len(sigs)
        chunks = np.tile(np.arange(4, dtype=np.int32), n_docs)
        sig_rep = np.repeat(sigs, 4)
        return pa.table({
            "doc_id": pa.array(
                np.repeat(np.asarray(keys, dtype=np.int64), 4)),
            "chunk": pa.array(chunks),
            "chunk_val": pa.array(
                ((sig_rep >> (chunks.astype(np.uint64) * np.uint64(16)))
                 & np.uint64(0xFFFF)).astype(np.int32)),
            "sig": pa.array(sig_rep),
        })


def simhash_dedup_pairs(ds: rd.Dataset, *, key: str = "doc_id",
                        column: str = "text", max_distance: int = 3,
                        max_bucket: int = 64, concurrency: int = 2,
                        word_hash: str = "blake2b") -> rd.Dataset:
    """SimHash near-dup pairs: signature → chunk-bucket groupby →
    in-bucket Hamming verification.  Returns (a, b, distance).

    With ``max_distance ≤ 3`` the 4×16-bit pigeonhole banding is
    complete (any pair within distance 3 shares an exact chunk), so —
    bucket cap aside — the output is EXACTLY the brute-force Hamming
    self-join over the signatures; ``word_hash="md5"`` makes those
    signatures SQL-recomputable (see :class:`SimHashStage`).

    ``max_bucket``: past the cap a bucket star-emits (members pair
    with the bucket minimum only) — cluster connectivity is preserved
    for keep/dedup consumers, but the PAIR output is then partial for
    that bucket (same semantics as the LSH family; see
    :func:`embedding_dedup_pairs_lsh`).  Exact-regime runs that need
    the complete pair set must raise it past the worst bucket
    occupancy (the ``dedup_simhash`` catalog query pins 2^20)."""
    chunks = ds.map_batches(
        SimHashStage,
        fn_constructor_kwargs={"key": key, "column": column,
                               "word_hash": word_hash},
        batch_format="pyarrow",
        concurrency=(1, concurrency),
    )

    # pair emission WITHOUT a per-bucket Python call: band rows are
    # overwhelmingly SINGLETON buckets (≈4×n_docs groups), so
    # groupby(chunk, chunk_val).map_groups pays the per-group reduce
    # cost for nothing.  Buckets hash to ~32 coarse partitions instead;
    # each partition resolves ALL its buckets with one vectorized
    # self-merge (size-capped per bucket) + one numpy XOR-popcount.
    from pmocr_ray.ops.vecagg import _bucket_of

    def coarse(t: pa.Table) -> pa.Table:
        return t.append_column(
            "_bkt", _bucket_of(t, ["chunk", "chunk_val"], 32))

    def pairs_in_partition(t: pa.Table) -> pa.Table:
        df = t.select(["chunk", "chunk_val", "doc_id", "sig"]).to_pandas()
        df = (df.drop_duplicates(["chunk", "chunk_val", "doc_id"])
                .sort_values(["chunk", "chunk_val", "doc_id"]))
        # per-bucket cap, same semantics as the former head(max_bucket)
        rank = df.groupby(["chunk", "chunk_val"], sort=False).cumcount()
        df = df[rank.to_numpy() < max_bucket]
        m = df.merge(df, on=["chunk", "chunk_val"])
        m = m[m["doc_id_x"].to_numpy() < m["doc_id_y"].to_numpy()]
        x = m["sig_x"].to_numpy().astype(np.uint64, copy=False)
        y = m["sig_y"].to_numpy().astype(np.uint64, copy=False)
        d = np.unpackbits((x ^ y).view(np.uint8)).reshape(
            len(m), 8 * x.dtype.itemsize).sum(axis=1).astype(np.int64) \
            if len(m) else np.zeros(0, np.int64)
        keep = d <= max_distance
        return pa.table({
            "a": pa.array(m["doc_id_x"].to_numpy()[keep], pa.int64()),
            "b": pa.array(m["doc_id_y"].to_numpy()[keep], pa.int64()),
            "distance": pa.array(d[keep], pa.int64()),
        })

    pairs = (chunks.map_batches(coarse, batch_format="pyarrow")
             .groupby("_bkt")
             .map_groups(pairs_in_partition, batch_format="pyarrow"))
    from pmocr_ray.ops.vecagg import grouped_aggregate

    # a pair can collide in several chunk bands — min-merge the distance
    # through the Arrow-bucketed aggregate (per-group Python reduce cost
    # avoided; see vecagg module doc)
    return grouped_aggregate(
        pairs, ["a", "b"], [("distance", "min", "distance")],
        seed_schema=pa.schema([("a", pa.int64()), ("b", pa.int64()),
                               ("distance", pa.int64())]))


# ----------------------------------------- hyperplane-LSH embedding dedup


class HyperplaneStage:
    """Random-hyperplane (SRP) signatures for cosine LSH — actor pool.

    ``n_tables`` independent tables of ``n_planes`` seeded hyperplanes;
    a vector's bucket in a table is the sign-bit pattern of its
    projections.  Two vectors at cosine θ collide in one table w.p.
    ``(1 - acos(θ)/π)^n_planes``.  Plane matrices are generated
    deterministically from (seed, table, dim) once per actor.
    Emits (doc_id, band=table, bucket) rows — the same layout the
    MinHash pipeline uses, so the skew-aware pair generation
    (:func:`lsh_candidate_pairs`) is shared verbatim.
    """

    def __init__(self, n_planes: int = 16, n_tables: int = 8, seed: int = 42,
                 key: str = "vec_id", column: str = "embedding") -> None:
        self.n_planes = n_planes
        self.n_tables = n_tables
        self.seed = seed
        self.key = key
        self.column = column
        self._planes: np.ndarray | None = None  # lazy: needs dim

    def _get_planes(self, dim: int) -> np.ndarray:
        if self._planes is None:
            rng = np.random.RandomState(self.seed)
            self._planes = rng.randn(self.n_tables, self.n_planes, dim)
        return self._planes

    def __call__(self, batch: pa.Table) -> pa.Table:
        from pmocr_ray.ops.knn import list_matrix
        ids = batch[self.key].to_numpy(zero_copy_only=False).astype(np.int64)
        mat = list_matrix(batch[self.column])
        planes = self._get_planes(mat.shape[1])
        pows = (1 << np.arange(self.n_planes, dtype=np.uint64))
        # one batched matmul over all tables: (T, B, P) sign bits →
        # (T, B) bucket codes, flattened table-major (same row order as
        # the former per-table loop)
        bits = (mat @ planes.transpose(0, 2, 1)) > 0  # (T, B, P)
        buckets = (bits.astype(np.uint64) * pows).sum(axis=2)  # (T, B)
        T = self.n_tables
        return pa.table({
            "doc_id": pa.array(np.tile(ids, T), pa.int64()),
            "band": pa.array(np.repeat(np.arange(T, dtype=np.int32),
                                       len(ids)), pa.int32()),
            "bucket": pa.array(buckets.ravel(), pa.uint64()),
        })


def embedding_dedup_pairs_lsh(
    ds: rd.Dataset,
    *,
    key: str = "vec_id",
    column: str = "embedding",
    threshold: float = 0.9,
    n_planes: int = 16,
    n_tables: int = 8,
    concurrency: int = 2,
    max_broadcast_rows: int = 100_000,
    max_bucket: int = 64,
) -> rd.Dataset:
    """Scale path for embedding near-dup: SRP-LSH bucketing bounds the
    candidate set (vs the O(n²) brute force of
    :func:`embedding_dedup_pairs`), then exact cosine verification.
    Returns (a, b, cosine) with cosine ≥ threshold.  Approximate:
    recall < 1 by construction, validated against the brute-force
    baseline in tests.

    ``max_bucket`` is the hot-bucket star-emit cap of
    :func:`lsh_candidate_pairs`.  NOTE: star emit preserves CLUSTER
    connectivity (the keep/dedup consumers), but for PAIR output it
    drops a hot bucket's non-minimum pairs unless another table
    catches them — with few planes, buckets are occupancy ∝ n/2^planes
    and the default cap silently costs recall as the corpus grows
    (measured: 3/144 pairs lost at 2 k vectors × 5 planes, where mean
    occupancy 62.5 put half the buckets over the cap).  Dense
    exact-regime runs must raise it past the corpus size.

    Verification is size-gated like :func:`attach_pair_sides`: a corpus
    within ``max_broadcast_rows`` broadcasts ONE normalized matrix
    (``ray.put``) and each candidate batch verifies by vectorized
    gather + row-wise dot — no join, no per-pair vector payload (a
    dense banding regime emits ~500 candidate rows per vector; shipping
    two float64 blobs per pair cost ~10 s at 2 k vectors where the
    gather costs milliseconds).  Beyond the gate, the hash-join path
    attaches the sides without any driver collection."""
    band_rows = ds.map_batches(
        HyperplaneStage,
        fn_constructor_kwargs={"n_planes": n_planes, "n_tables": n_tables,
                               "key": key, "column": column},
        batch_format="pyarrow",
        concurrency=(1, concurrency),
    )
    candidates = lsh_candidate_pairs(band_rows, max_bucket=max_bucket)

    n = ds.count()
    if n <= max_broadcast_rows:
        rows = ds.select_columns([key, column]).take_all()
        ids = np.fromiter((r[key] for r in rows), np.int64, len(rows))
        mat = np.asarray([r[column] for r in rows], dtype=np.float64)
        order = np.argsort(ids)
        ids, mat = ids[order], mat[order]
        norms = np.linalg.norm(mat, axis=1)
        norms[norms == 0] = 1.0
        mat = mat / norms[:, None]
        mat_ref = ray.put((ids, mat))

        def verify_gather(batch: pa.Table) -> pa.Table:
            sid, m = ray.get(mat_ref)
            a = batch["a"].combine_chunks().cast(pa.int64()).to_numpy(
                zero_copy_only=False)
            b = batch["b"].combine_chunks().cast(pa.int64()).to_numpy(
                zero_copy_only=False)
            ia = np.searchsorted(sid, a)
            ib = np.searchsorted(sid, b)
            sims = np.einsum("ij,ij->i", m[ia], m[ib])
            t = pa.table({"a": pa.array(a), "b": pa.array(b),
                          "cosine": pa.array(sims, pa.float64())})
            return t.filter(pa.compute.greater_equal(t["cosine"], threshold))

        return candidates.map_batches(
            verify_gather, batch_format="pyarrow",
        ).select_columns(["a", "b", "cosine"])

    # acero hash joins cannot carry list<float> non-key fields — encode
    # each vector as a float64 binary blob for the join, decode with
    # np.frombuffer in the verify kernel (zero semantic change)
    def _enc(t: pa.Table) -> pa.Table:
        blobs = [np.asarray(v, dtype=np.float64).tobytes()
                 for v in t[column].to_pylist()]
        return pa.table({key: t[key], column: pa.array(blobs, pa.binary())})

    side = ds.map_batches(_enc, batch_format="pyarrow")
    paired = attach_pair_sides(candidates, side, key=key, column=column)

    ca, cb = f"{column}_a", f"{column}_b"

    def _dec(raw: list) -> np.ndarray:
        if not raw:
            return np.zeros((0, 1))
        return np.frombuffer(b"".join(raw), dtype=np.float64).reshape(
            len(raw), -1)

    def verify(batch: pa.Table) -> pa.Table:
        # vectorized: one row-wise dot product over the joined pair batch
        va = _dec(batch[ca].to_pylist())
        vb = _dec(batch[cb].to_pylist())
        if len(va):
            na = np.linalg.norm(va, axis=1); na[na == 0] = 1.0
            nb = np.linalg.norm(vb, axis=1); nb[nb == 0] = 1.0
            sims = np.einsum("ij,ij->i", va / na[:, None], vb / nb[:, None])
        else:
            sims = np.zeros(0)
        t = pa.table({"a": batch["a"].combine_chunks().cast(pa.int64()),
                      "b": batch["b"].combine_chunks().cast(pa.int64()),
                      "cosine": pa.array(sims, pa.float64())})
        return t.filter(pa.compute.greater_equal(t["cosine"], threshold))

    return paired.map_batches(
        verify, batch_format="pyarrow",
    ).select_columns(["a", "b", "cosine"])


# ------------------------------------------------- embedding-cosine dedup


def embedding_dedup_pairs(ds: rd.Dataset, *, key: str = "vec_id",
                          column: str = "embedding",
                          threshold: float = 0.9,
                          max_rows: int = 100_000) -> rd.Dataset:
    """Embedding near-dup pairs by cosine ≥ threshold.

    Brute-force blocked matmul: the (normalized) corpus matrix is
    broadcast once (``ray.put``); each batch computes batch×corpus
    cosine in one float64 matmul and keeps pairs (a < b).  O(n²) work
    split across batches — a *small-corpus exact baseline only*: a hard
    ``max_rows`` guard refuses corpora whose broadcast matrix would not
    fit (beyond it, use :func:`embedding_dedup_pairs_lsh`, whose SRP
    bucketing bounds the candidate set the way MinHash banding does
    for text).
    """
    n = ds.count()
    if n > max_rows:
        raise ValueError(
            f"embedding_dedup_pairs is the O(n²) exact baseline; corpus has "
            f"{n} rows > max_rows={max_rows}. Use embedding_dedup_pairs_lsh."
        )
    mat_rows = ds.select_columns([key, column]).take_all()
    ids = np.array([r[key] for r in mat_rows], dtype=np.int64)
    mat = np.array([r[column] for r in mat_rows], dtype=np.float64)
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    mat = mat / norms
    ref = ray.put((ids, mat))

    class PairFinder:
        def __init__(self, corpus_ref, threshold: float) -> None:
            self.ids, self.mat = ray.get(corpus_ref)
            self.threshold = threshold

        def __call__(self, batch: pa.Table) -> pa.Table:
            from pmocr_ray.ops.knn import list_matrix
            b_ids = batch[key].to_numpy(zero_copy_only=False).astype(np.int64)
            b_mat = list_matrix(batch[column])
            n = np.linalg.norm(b_mat, axis=1, keepdims=True)
            n[n == 0] = 1.0
            b_mat = b_mat / n
            sims = b_mat @ self.mat.T
            mask = (sims >= self.threshold) & (b_ids[:, None] < self.ids[None, :])
            ii, jj = np.nonzero(mask)
            out_a = b_ids[ii]
            out_b = self.ids[jj]
            out_s = sims[ii, jj]
            return pa.table({"a": pa.array(out_a, pa.int64()),
                             "b": pa.array(out_b, pa.int64()),
                             "cosine": pa.array(out_s, pa.float64())})

    return ds.map_batches(
        PairFinder,
        fn_constructor_kwargs={"corpus_ref": ref, "threshold": threshold},
        batch_format="pyarrow",
        concurrency=(1, 2),
    )


def semdedup(ds: rd.Dataset, *, k: int = 8, threshold: float = 0.45,
             key: str = "vec_id", column: str = "embedding",
             centroids: np.ndarray | None = None,
             chunk: int = 2048) -> rd.Dataset:
    """SemDeDup (Abbas et al. 2023, "SemDeDup: Data-efficient learning
    at web-scale through semantic deduplication"): cluster embeddings
    with k-means, then prune near-duplicates *within* each cluster —
    the O(n²) cosine comparison collapses to O(Σ |cluster|²), the
    paper's trick for making semantic dedup tractable at web scale.

    Keep rule: a vector is ``dropped`` iff some other vector in its
    cluster has cosine ≥ ``threshold`` and a **smaller key** —
    keep-first, pairwise, deterministic, and (unlike the paper's
    farthest-from-centroid rule) exactly reproducible by a SQL oracle.

    Physical plan (the reference discipline is mark-don't-rescan,
    /root/reference/pmocr.sh:2126-2144):

    * centroids: caller-supplied (production path: feed
      :func:`pmocr_ray.ops.knn.train_centroids` output) or the
      pinned deterministic init (first ``k`` vectors by key, bounded
      combiner — no RNG, no global sort), broadcast once via
      ``ray.put``;
    * assignment: map-only argmax over the broadcast centroid matrix;
    * pruning: ``groupby(cell).map_groups`` — one shuffle keyed on the
      cluster id; inside a group the gram products run blockwise
      (``chunk`` rows at a time, memory O(chunk × |cluster|)), so a
      hot cluster costs flops but never a giant allocation.

    Partitioning assumption: one cluster's (key, vector) rows fit one
    worker.  At corpus scale pick k ≈ √N (the paper uses ~10⁵ clusters
    for ~10⁸ docs) so E|cluster| = N/k stays bounded; degenerate hot
    clusters should be re-clustered or capped upstream.

    Returns (key, cell, dropped) for every input row.
    """
    from pmocr_ray.ops.knn import _normalize, list_matrix

    ds = ds.select_columns([key, column])
    if centroids is None:
        # first-k-by-key via a bounded combiner (k rows per batch reach
        # the driver), mirroring the kmeans_assign1 pinned regime
        def firstk(t: pa.Table) -> pa.Table:
            idx = np.argsort(t[key].to_numpy(zero_copy_only=False),
                             kind="stable")[:k]
            return t.take(pa.array(idx))

        partials = ds.map_batches(firstk, batch_format="pyarrow").take_all()
        first = sorted(partials, key=lambda r: r[key])[:k]
        centroids = np.asarray([r[column] for r in first], np.float64)
    cent_ref = ray.put(_normalize(np.asarray(centroids, np.float64)))

    def assign(t: pa.Table) -> pa.Table:
        c = ray.get(cent_ref)
        mat = list_matrix(t[column])
        cell = np.argmax(mat @ c.T, axis=1).astype(np.int64)
        return pa.table({key: t[key], column: t[column],
                         "cell": pa.array(cell, pa.int64())})

    assigned = ds.map_batches(assign, batch_format="pyarrow")

    def prune(g: pd.DataFrame) -> pd.DataFrame:
        order = np.argsort(g[key].to_numpy(), kind="stable")
        ids = g[key].to_numpy()[order]
        mat = _normalize(
            np.asarray(g[column].tolist(), np.float64)[order])
        n = len(ids)
        dropped = np.zeros(n, dtype=bool)
        for s0 in range(0, n, chunk):
            s1 = min(s0 + chunk, n)
            sims = mat[s0:s1] @ mat[:s1].T  # block vs all earlier+self
            hit = sims >= threshold
            # only columns j < global row index i count
            hit &= (np.arange(s1)[None, :]
                    < np.arange(s0, s1)[:, None])
            dropped[s0:s1] = hit.any(axis=1)
        return pd.DataFrame({
            key: pd.Series(ids, dtype="int64"),
            "cell": pd.Series([int(g["cell"].iloc[0])] * n, dtype="int64"),
            "dropped": pd.Series(dropped, dtype="bool"),
        })

    return assigned.groupby("cell").map_groups(prune, batch_format="pandas")


# ----------------------------------------------------- line-level dedup

#: line_no is packed with the doc key into one int64 shuffle key; docs
#: with more lines than this are rejected loudly rather than silently
#: mis-keyed.
LINE_STRIDE = 1 << 20


def explode_lines(ds: rd.Dataset, *, key: str = "doc_id",
                  column: str = "text", width: int = 10) -> rd.Dataset:
    """Explode each document into fixed-``width``-token "lines"
    (paragph units for corpora whose text carries no newlines; a real
    crawl uses ``\\n``-split lines through the same machinery).

    Vectorized: one regex split + ``list_flatten``; within-row token
    positions and chunk ids come from numpy offset arithmetic, and the
    per-line string join is one C-level ``binary_join`` over a rebuilt
    ListArray (tokens of a line are contiguous in the flat array by
    construction) — no per-group Python join.  Emits
    (key, line_no, line).
    """
    def explode(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(batch[column], r"\s+")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        mask = pc.not_equal(flat, "")
        flat = flat.filter(mask).combine_chunks()
        pn = parent.filter(mask).to_numpy(zero_copy_only=False)
        if len(pn) == 0:
            return pa.table({key: pa.array([], batch[key].type),
                             "line_no": pa.array([], pa.int64()),
                             "line": pa.array([], pa.string())})
        # token position within its row: arange minus the row's start
        starts = np.zeros(len(pn), np.int64)
        row_change = np.nonzero(np.diff(pn))[0] + 1
        starts[row_change] = row_change
        np.maximum.accumulate(starts, out=starts)
        pos = np.arange(len(pn), dtype=np.int64) - starts
        chunk = pos // width
        # each (row, chunk) group is a contiguous slice of the flat
        # token array, so lines are just a ListArray over it: find
        # the slice boundaries, rebuild, and join at C level
        brk = np.nonzero((np.diff(pn) != 0) | (np.diff(chunk) != 0))[0] + 1
        offsets = np.concatenate([[0], brk, [len(pn)]]).astype(np.int64)
        line_list = pa.LargeListArray.from_arrays(
            pa.array(offsets, pa.int64()), flat)
        text = pc.binary_join(line_list, " ")
        line_start = offsets[:-1]
        return pa.table({
            key: batch[key].take(pa.array(pn[line_start], pa.int64())),
            "line_no": pa.array(chunk[line_start], pa.int64()),
            "line": pc.cast(text, pa.string()),
        })

    return ds.map_batches(explode, batch_format="pyarrow")


def line_dedup(ds: rd.Dataset, *, key: str = "doc_id",
               column: str = "text", width: int = 10) -> rd.Dataset:
    """Corpus-level line deduplication (the CCNet paragraph-dedup
    shape): every line keeps exactly its globally FIRST occurrence in
    (key, line_no) order; all later copies — across documents and
    within one — are dropped, and each document's surviving lines are
    re-joined with ``\\n``.  Documents that lose every line disappear.

    Scale shape: explode → ``groupby(line).min(packed_position)`` —
    the winner rows ARE the kept lines, so no join back is needed —
    → ``groupby(key)`` re-assembly.  Both shuffles move line-level
    rows only; nothing is collected on the driver.
    """
    from pmocr_ray.ops.vecagg import grouped_aggregate

    lines = explode_lines(ds, key=key, column=column, width=width)

    def pack(batch: pa.Table) -> pa.Table:
        ln = batch["line_no"].to_numpy(zero_copy_only=False)
        if len(ln) and ln.max() >= LINE_STRIDE:
            raise ValueError(
                f"document has >= {LINE_STRIDE} lines; raise LINE_STRIDE")
        ks = batch[key].to_numpy(zero_copy_only=False)
        # same loud guard for the key half of the packing: a hashed /
        # synthetic id >= 2**63 // LINE_STRIDE (or negative) would
        # silently overflow int64 and corrupt winner selection
        if len(ks) and (ks.min() < 0 or ks.max() >= (1 << 63) // LINE_STRIDE):
            raise ValueError(
                f"{key} outside [0, 2**63 // LINE_STRIDE): packed "
                "position would overflow int64; remap ids (dense "
                "int64) before line_dedup")
        pos = ks * LINE_STRIDE + ln
        return pa.table({"line": batch["line"],
                         "pos": pa.array(pos, pa.int64())})

    # line groups are LINE-scale (far beyond corpus-scale) — Arrow-
    # bucketed min keeps the winner selection vectorized end to end
    winners = grouped_aggregate(
        lines.map_batches(pack, batch_format="pyarrow"),
        ["line"], [("pos", "min", "pos")],
        seed_schema=pa.schema([("line", pa.string()),
                               ("pos", pa.int64())]))

    def unpack(batch: pa.Table) -> pa.Table:
        pos = batch["pos"].to_numpy(zero_copy_only=False)
        return pa.table({key: pa.array(pos // LINE_STRIDE, pa.int64()),
                         "line_no": pa.array(pos % LINE_STRIDE, pa.int64()),
                         "line": batch["line"]})

    # reassembly WITHOUT a per-document Python call: documents hash to
    # buckets (vecagg's deterministic bucketing), each bucket sorts
    # once by (key, line_no) and rebuilds ALL its documents with one
    # ListArray + binary_join
    from pmocr_ray.ops.vecagg import _bucket_of

    def bucket(t: pa.Table) -> pa.Table:
        return t.append_column("_bkt", _bucket_of(t, [key], 32))

    def reassemble_bucket(t: pa.Table) -> pa.Table:
        order = pc.sort_indices(
            t, sort_keys=[(key, "ascending"), ("line_no", "ascending")])
        t = t.take(order)
        kn = t[key].combine_chunks().to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, kn[1:] != kn[:-1]])
        offsets = np.concatenate([starts, [len(kn)]]).astype(np.int64)
        la = pa.LargeListArray.from_arrays(
            pa.array(offsets, pa.int64()), t["line"].combine_chunks())
        return pa.table({
            key: pa.array(kn[starts], pa.int64()),
            "text_dedup": pc.binary_join(la, "\n"),
        })

    return (winners.map_batches(unpack, batch_format="pyarrow")
                   .map_batches(bucket, batch_format="pyarrow")
                   .groupby("_bkt")
                   .map_groups(reassemble_bucket, batch_format="pyarrow"))


# ----------------------------------------------------- decontamination


def benchmark_shingles(bench_ds: rd.Dataset, *, column: str = "text",
                       n: int = 13) -> set[str]:
    """Collect the distinct word-``n``-gram shingles of a benchmark
    corpus.  Benchmarks are small by nature (eval sets, not crawls) —
    this is the broadcast-small-side of the decontamination pass, the
    one place collecting to the driver is the right design."""
    def shingle(batch: pa.Table) -> pa.Table:
        out: set[str] = set()
        for t in batch[column].to_pylist():
            w = t.split() if t else []
            out.update(" ".join(w[i:i + n]) for i in range(len(w) - n + 1))
        return pa.table({"g": pa.array(sorted(out), pa.string())})

    parts = bench_ds.map_batches(shingle, batch_format="pyarrow").take_all()
    return {r["g"] for r in parts}


def decontaminate(ds: rd.Dataset, bench_shingles: set[str], *,
                  key: str = "doc_id", column: str = "text",
                  n: int = 13) -> rd.Dataset:
    """Test-set decontamination: flag every training document sharing
    any word-``n``-gram with the benchmark set (the standard 13-gram
    overlap rule).  The benchmark shingle set is ``ray.put`` once and
    read by every task — map-only over the corpus, no shuffle.

    Returns (key, contaminated: bool).

    Vectorized hot path: per batch, the ``n``-grams are built with ONE
    ``binary_join_element_wise`` over ``n`` shifted token slices
    (restricted to windows that stay inside a row), membership is one
    Arrow ``is_in`` against the broadcast shingle array, and per-row
    "any hit" is a numpy scatter — no Python loop over tokens.
    """
    if n < 1:
        raise ValueError(f"decontaminate needs n >= 1 (got {n})")
    ref = ray.put(pa.array(sorted(bench_shingles), pa.string()))

    class Flag:
        def __init__(self, shingles_ref, n: int) -> None:
            self.shingles: pa.Array = ray.get(shingles_ref)
            self.n = n

        def __call__(self, batch: pa.Table) -> pa.Table:
            n = self.n
            toks = pc.split_pattern_regex(batch[column], r"\s+")
            flat = pc.list_flatten(toks)
            parent = pc.list_parent_indices(toks)
            mask = pc.not_equal(flat, "")
            flat = flat.filter(mask).combine_chunks()
            pn = parent.filter(mask).to_numpy(zero_copy_only=False)
            hit_rows = np.zeros(len(batch), bool)
            if len(flat) >= n and len(self.shingles):
                # windows whose first and last token share a row —
                # sliced by explicit length (pn[:-(n-1)] would be the
                # EMPTY slice at n=1, crashing single-word overlap)
                L = len(flat) - (n - 1)
                same = pa.array(pn[:L] == pn[n - 1:n - 1 + L])
                parts = [flat.slice(j, L).filter(same) for j in range(n)]
                grams = pc.binary_join_element_wise(*parts, " ")
                hits = pc.is_in(grams, value_set=self.shingles)
                gram_rows = pn[:L][same.to_numpy(zero_copy_only=False)]
                hit_rows[gram_rows[hits.to_numpy(zero_copy_only=False)]] = True
            return pa.table({key: batch[key],
                             "contaminated": pa.array(hit_rows)})

    return ds.map_batches(Flag, fn_constructor_kwargs={"shingles_ref": ref,
                                                       "n": n},
                          batch_format="pyarrow", concurrency=(1, 4))


def incremental_exact_dedup(new_docs: rd.Dataset, history: rd.Dataset, *,
                            column: str = "text", key: str = "doc_id",
                            n_bits: int = 1 << 20) -> rd.Dataset:
    """Keep only new docs whose content was never seen in ``history`` —
    the arriving-batch-vs-corpus dedup every continuously-ingesting
    pipeline runs (the reference's done-manifest skip generalized from
    url identity to content identity, pmocr.sh:2126).

    Composition of existing scale pieces: fingerprint both sides
    (md5, vectorized-ish map), then :func:`bloom_anti_join` new vs
    history on the fingerprint — history is reduced to a fixed-size
    bitmap, only bloom-positive candidates take the exact verify join.
    """
    from pmocr_ray.ops.joins import bloom_anti_join
    from pmocr_ray.ops.text import fingerprint

    new_fp = new_docs.map_batches(
        fingerprint, fn_kwargs={"column": column}, batch_format="pyarrow")
    hist_fp = history.select_columns([column]).map_batches(
        fingerprint, fn_kwargs={"column": column}, batch_format="pyarrow")
    out = bloom_anti_join(new_fp, hist_fp, on="fp", n_bits=n_bits)
    return out.drop_columns(["fp"])


def dup_span_stats(ds, *, key: str = "doc_id", column: str = "text",
                   n: int = 8):
    """Cross-document duplicate n-gram span detection — the word-level
    approximation of exact-substring dedup (the "duplicated 50-gram"
    signal of train-data dedup literature): for every document, how
    many of its distinct word ``n``-grams also occur in at least one
    OTHER document (or more than once elsewhere in the corpus).

    Shuffle discipline: documents never leave their batch.  Stage 1
    emits one (gram-fingerprint, doc) row per DISTINCT gram per doc —
    16-byte hashes, never gram text.  Stage 2 is ONE global groupby
    over the fingerprints; per-doc duplicate counts then come from the
    identity ``n_dup = n_grams − n_singleton_grams``: a gram with
    global count 1 has exactly one member, recoverable as ``min(doc)``
    from the same aggregate — so no join-back to the gram-pair table
    and no second scan of it.  Per-doc totals are a separate map-only
    pass over the (pruned) input.  Output: one row per document,
    (key, n_grams, n_dup_grams), all int64.
    """
    def gram_pairs(batch: pa.Table) -> pa.Table:
        gs: list[str] = []
        docs: list[int] = []
        for d, t in zip(batch[key].to_pylist(), batch[column].to_pylist()):
            w = t.split() if t else []
            if len(w) < n:
                continue
            seen = {hashlib.blake2b(" ".join(w[i:i + n]).encode(),
                                    digest_size=16).hexdigest()
                    for i in range(len(w) - n + 1)}
            gs.extend(seen)
            docs.extend([d] * len(seen))
        return pa.table({"g": pa.array(gs, pa.string()),
                         key: pa.array(docs, pa.int64())})

    def totals(batch: pa.Table) -> pa.Table:
        # DISTINCT grams per doc, matching stage 1's per-doc dedup
        dis = []
        for t in batch[column].to_pylist():
            w = t.split() if t else []
            dis.append(len({" ".join(w[i:i + n])
                            for i in range(len(w) - n + 1)})
                       if len(w) >= n else 0)
        return pa.table({key: batch[key],
                         "n_grams": pa.array(dis, pa.int64()),
                         "n_uniq": pa.array([0] * len(dis), pa.int64())})

    from pmocr_ray.ops.vecagg import grouped_aggregate

    src = ds.select_columns([key, column])
    # gram groups are GRAM-scale (>> corpus) — Arrow-bucketed aggregate
    g_counts = grouped_aggregate(
        src.map_batches(gram_pairs, batch_format="pyarrow"),
        ["g"], [(None, "count", "nd"), (key, "min", "only_doc")],
        seed_schema=pa.schema([("g", pa.string()), ("nd", pa.int64()),
                               ("only_doc", pa.int64())]))

    def singleton_rows(t: pa.Table) -> pa.Table:
        s = t.filter(pc.equal(t["nd"], 1))
        return pa.table({key: s["only_doc"],
                         "n_grams": pa.array([0] * s.num_rows, pa.int64()),
                         "n_uniq": pa.array([1] * s.num_rows, pa.int64())})

    uniq = g_counts.map_batches(singleton_rows, batch_format="pyarrow")
    per_doc = grouped_aggregate(
        src.map_batches(totals, batch_format="pyarrow").union(uniq),
        [key],
        [("n_grams", "sum", "n_grams"), ("n_uniq", "sum", "n_uniq")],
        seed_schema=pa.schema([(key, pa.int64()), ("n_grams", pa.int64()),
                               ("n_uniq", pa.int64())]))

    def finish(t: pa.Table) -> pa.Table:
        return pa.table({
            key: t[key],
            "n_grams": t["n_grams"],
            "n_dup_grams": pc.subtract(t["n_grams"], t["n_uniq"]),
        })

    return per_doc.map_batches(finish, batch_format="pyarrow")


def remove_dup_spans(ds: rd.Dataset, *, key: str = "doc_id",
                     column: str = "text", n: int = 8,
                     join_cap: int = 8) -> rd.Dataset:
    """Exact duplicated-span REMOVAL — the rewrite half of
    train-data substring dedup (word-window form), completing
    :func:`dup_span_stats`'s detection half: every word ``n``-gram
    occurrence whose gram appears more than once in the corpus is
    dropped EXCEPT the globally first occurrence (min packed
    ``key * LINE_STRIDE + pos``); words covered by dropped windows are
    removed and each document's surviving words re-joined with a
    single space.  Output: (key, text_clean), one row per input
    document (fully-consumed docs keep an empty string so the pass is
    auditable / filterable downstream).

    Scale shape: occurrence rows carry (gram, packed int64) only —
    the corpus text itself never shuffles.  ONE Arrow-bucketed
    groupby over grams yields duplicated grams + first occurrence;
    occurrences hash-join that (filtered, duplicate-rate-sized) table
    to flag removals; covered positions fold into one int64 blob per
    AFFECTED doc (bucketed, vectorized); the corpus left-joins the
    blob table and rewrites with a flat-token mask + ListArray
    ``binary_join`` rebuild — no per-row Python join.  The occurrence
    map runs twice (groupby input + join probe side) by design:
    re-deriving token-scale rows lazily is strictly cheaper at scale
    than pinning them in the object store.
    """
    from pmocr_ray.ops.joins import sized_for_join
    from pmocr_ray.ops.vecagg import _bucket_of, grouped_aggregate

    src = ds.select_columns([key, column])

    def grams(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(pc.fill_null(batch[column], ""), r"\s+")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        mask = pc.not_equal(flat, "")
        flat = flat.filter(mask).combine_chunks()
        pn = parent.filter(mask).to_numpy(zero_copy_only=False)
        empty = pa.table({"g": pa.array([], pa.string()),
                          "packed": pa.array([], pa.int64())})
        if len(pn) == 0:
            return empty
        counts = np.bincount(pn)
        if counts.max() > LINE_STRIDE:
            raise ValueError(
                f"document has > {LINE_STRIDE} tokens; packed position "
                "would overflow the stride — raise LINE_STRIDE")
        ks = batch[key].to_numpy(zero_copy_only=False)
        if ks.min() < 0 or ks.max() >= (1 << 63) // LINE_STRIDE:
            raise ValueError(
                f"{key} outside [0, 2**63 // LINE_STRIDE): packed "
                "position would overflow int64; remap ids first")
        starts = np.zeros(len(pn), np.int64)
        rc = np.nonzero(np.diff(pn))[0] + 1
        starts[rc] = rc
        np.maximum.accumulate(starts, out=starts)
        pos = np.arange(len(pn), dtype=np.int64) - starts
        valid = pos + n <= counts[pn]          # window fits in its row
        w_idx = np.flatnonzero(valid)
        if len(w_idx) == 0:
            return empty
        gather = (w_idx[:, None] + np.arange(n, dtype=np.int64)).ravel()
        win = flat.take(pa.array(gather, pa.int64()))
        offsets = np.arange(0, len(gather) + 1, n, dtype=np.int64)
        gl = pa.LargeListArray.from_arrays(
            pa.array(offsets, pa.int64()),
            win.combine_chunks() if isinstance(win, pa.ChunkedArray) else win)
        packed = ks[pn[w_idx]] * LINE_STRIDE + pos[w_idx]
        return pa.table({"g": pc.cast(pc.binary_join(gl, " "), pa.string()),
                         "packed": pa.array(packed, pa.int64())})

    occ = src.map_batches(grams, batch_format="pyarrow")

    gstats = grouped_aggregate(
        occ, ["g"],
        [(None, "count", "nd"), ("packed", "min", "first_packed")],
        seed_schema=pa.schema([("g", pa.string()), ("nd", pa.int64()),
                               ("first_packed", pa.int64())]))
    dup = gstats.map_batches(
        lambda t: t.filter(pc.greater(t["nd"], 1))
                   .select(["g", "first_packed"]),
        batch_format="pyarrow")

    dup_m, dparts = sized_for_join(dup, cap=join_cap)
    if dup_m.count() == 0:
        # nothing duplicated: rewrite is whitespace normalization only,
        # through the same filtered-flat machinery as the real path
        def identity(t: pa.Table) -> pa.Table:
            toks = pc.split_pattern_regex(pc.fill_null(t[column], ""), r"\s+")
            flat = pc.list_flatten(toks)
            parent = pc.list_parent_indices(toks)
            mask = pc.not_equal(flat, "")
            kept = flat.filter(mask).combine_chunks()
            pk = parent.filter(mask).to_numpy(zero_copy_only=False)
            cnt = np.bincount(pk, minlength=t.num_rows)
            offs = np.concatenate([[0], np.cumsum(cnt)]).astype(np.int64)
            la = pa.LargeListArray.from_arrays(pa.array(offs, pa.int64()),
                                               kept)
            return pa.table({key: t[key],
                             "text_clean": pc.cast(
                                 pc.binary_join(la, " "), pa.string())})
        return src.map_batches(identity, batch_format="pyarrow")

    joined = occ.join(dup_m, join_type="inner", num_partitions=dparts,
                      on=("g",))

    def removed(t: pa.Table) -> pa.Table:
        f = t.filter(pc.not_equal(t["packed"], t["first_packed"]))
        return pa.table({"packed": f["packed"]})

    def cover(t: pa.Table) -> pa.Table:
        p = t["packed"].combine_chunks().to_numpy(zero_copy_only=False)
        if len(p) == 0:
            return pa.table({"k": pa.array([], pa.int64()),
                             "cp": pa.array([], pa.int64())})
        cov = np.unique((p[:, None] + np.arange(n, dtype=np.int64)).ravel())
        return pa.table({"k": pa.array(cov // LINE_STRIDE, pa.int64()),
                         "cp": pa.array(cov % LINE_STRIDE, pa.int64())})

    def bucket(t: pa.Table) -> pa.Table:
        return t.append_column("_bkt", _bucket_of(t, ["k"], 32))

    def blob_bucket(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({key: pa.array([], pa.int64()),
                             "cov": pa.array([], pa.binary())})
        order = pc.sort_indices(
            t, sort_keys=[("k", "ascending"), ("cp", "ascending")])
        t = t.take(order)
        kn = t["k"].combine_chunks().to_numpy(zero_copy_only=False)
        cp = t["cp"].combine_chunks().to_numpy(zero_copy_only=False)
        # cross-batch duplicates of the same covered position are
        # adjacent after the sort — drop them here
        first = np.r_[True, (kn[1:] != kn[:-1]) | (cp[1:] != cp[:-1])]
        kn, cp = kn[first], cp[first]
        starts = np.flatnonzero(np.r_[True, kn[1:] != kn[:-1]])
        ends = np.r_[starts[1:], len(kn)]
        blobs = [cp[s:e].tobytes() for s, e in zip(starts, ends)]
        return pa.table({key: pa.array(kn[starts], pa.int64()),
                         "cov": pa.array(blobs, pa.binary())})

    blobs_ds = (joined.map_batches(removed, batch_format="pyarrow")
                      .map_batches(cover, batch_format="pyarrow")
                      .map_batches(bucket, batch_format="pyarrow")
                      .groupby("_bkt")
                      .map_groups(blob_bucket, batch_format="pyarrow"))
    blobs_m, bparts = sized_for_join(blobs_ds, cap=join_cap)

    with_cov = src.join(blobs_m, join_type="left_outer",
                        num_partitions=bparts, on=(key,))

    def rebuild(t: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(pc.fill_null(t[column], ""), r"\s+")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        mask = pc.not_equal(flat, "")
        flat = flat.filter(mask).combine_chunks()
        pn = parent.filter(mask).to_numpy(zero_copy_only=False)
        nrows = t.num_rows
        if len(pn) == 0:
            return pa.table({key: t[key],
                             "text_clean": pa.array([""] * nrows,
                                                    pa.string())})
        covs = t["cov"].to_pylist()
        drop = np.zeros(len(pn), bool)
        row_first = np.searchsorted(pn, np.arange(nrows))
        for i, blob in enumerate(covs):
            if blob is None or len(blob) == 0:
                continue
            drop[row_first[i] + np.frombuffer(blob, np.int64)] = True
        keep = ~drop
        kept = flat.filter(pa.array(keep))
        pk = pn[keep]
        cnt = np.bincount(pk, minlength=nrows)
        offsets = np.concatenate([[0], np.cumsum(cnt)]).astype(np.int64)
        la = pa.LargeListArray.from_arrays(
            pa.array(offsets, pa.int64()),
            kept.combine_chunks() if isinstance(kept, pa.ChunkedArray)
            else kept)
        return pa.table({key: t[key],
                         "text_clean": pc.cast(pc.binary_join(la, " "),
                                               pa.string())})

    return with_cov.map_batches(rebuild, batch_format="pyarrow")


def host_mirror_pairs(ds: rd.Dataset, *, url_column: str = "url",
                      column: str = "extracted_text",
                      max_hosts_per_content: int = 64) -> rd.Dataset:
    """Mirror-site detection: pairs of hosts that serve identical
    content, with the count of distinct shared contents per pair — the
    host-level rollup of exact duplication (CDN mirrors, scraped
    clones, parked-domain farms).

    Scale shape: map → (host, fp) with a vectorized host extract and
    per-row md5 (no Arrow kernel exists); LOCAL distinct per batch,
    global distinct via one groupby — so the shuffle moves one row per
    (host, content) incidence, never the text.  Pair emission runs
    inside ``groupby(fp).map_groups`` with hosts sorted and CAPPED at
    ``max_hosts_per_content`` (a content mirrored by 10⁴ hosts would
    otherwise emit 10⁸ pairs; the cap keeps the deterministic
    lexicographic prefix and is documented as approximate above it).
    Final pair counts: one more groupby over (host_a, host_b) rows.
    """
    import hashlib

    import pandas as pd

    from pmocr_ray.ops.vecagg import distinct as _vec_distinct
    from pmocr_ray.ops.vecagg import grouped_aggregate

    def incidence(t: pa.Table) -> pa.Table:
        host = pc.struct_field(
            pc.extract_regex(t[url_column], r"^[a-z+]+://(?P<host>[^/]+)"),
            "host")
        texts = t[column].to_pylist()
        fps = pa.array([hashlib.md5(x.encode()).hexdigest()
                        if x is not None else None for x in texts])
        tab = pa.table({"host": host, "fp": fps})
        tab = tab.filter(pc.is_valid(tab["fp"]))
        return tab.group_by(["host", "fp"]).aggregate([])  # local distinct

    distinct = _vec_distinct(
        ds.map_batches(incidence, batch_format="pyarrow"),
        ["host", "fp"],
        seed_schema=pa.schema([("host", pa.string()),
                               ("fp", pa.string())]))

    cap = max_hosts_per_content

    from pmocr_ray.ops.vecagg import _bucket_of

    def coarse(t: pa.Table) -> pa.Table:
        return t.append_column("_bkt", _bucket_of(t, ["fp"], 32))

    def pairs_partition(df: pd.DataFrame) -> pd.DataFrame:
        # every content of the bucket pairs its (capped, lexicographic
        # prefix) hosts in ONE vectorized self-merge — no per-content
        # Python call; the cap bounds the merge at C(cap, 2) rows/fp
        df = (df[["fp", "host"]].drop_duplicates()
              .sort_values(["fp", "host"], kind="mergesort"))
        df = df[df.groupby("fp", sort=False).cumcount() < cap]
        m = df.merge(df, on="fp")
        m = m[m["host_x"].to_numpy() < m["host_y"].to_numpy()]
        return pd.DataFrame({"host_a": m["host_x"].to_numpy(),
                             "host_b": m["host_y"].to_numpy(),
                             "n": np.ones(len(m), np.int64)})

    pairs = (distinct.map_batches(coarse, batch_format="pyarrow")
             .groupby("_bkt")
             .map_groups(pairs_partition, batch_format="pandas"))
    return grouped_aggregate(
        pairs, ["host_a", "host_b"], [("n", "sum", "n_shared")],
        seed_schema=pa.schema([("host_a", pa.string()),
                               ("host_b", pa.string()),
                               ("n_shared", pa.int64())]))
