"""Similarity search over an embedding column (``list<float>``).

Baseline: brute-force cosine top-k — the query matrix is broadcast once
(``ray.put``), every batch does one numpy matmul against it, per-batch
**partial top-k** rows are emitted, and a final tiny sort/limit merges
them (combiner pattern: the shuffle only ever moves k rows per batch,
never the corpus).

Scale path: IVF (inverted-file) — k-means coarse centroids (trained on
a driver-side sample, broadcast), each vector assigned to its nearest
centroid in a vectorized stage; a query probes only the ``n_probe``
nearest cells.  Same batch kernels, candidate set bounded by cells.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray
import ray.data as rd


def _normalize(mat: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return mat / norms


def list_matrix(col: pa.ChunkedArray | pa.Array,
                dtype=np.float64) -> np.ndarray:
    """(n, d) matrix from a fixed-width ``list<float>`` column without a
    Python-object round-trip: flatten the list buffers (zero-copy) and
    reshape.  Values are bit-identical to the ``to_pylist`` path — only
    the materialization changes.  Falls back to ``to_pylist`` for ragged
    or null-bearing columns (never the case for embedding tables, but
    the kernel must not silently misalign if it ever is)."""
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        return np.zeros((0, 0), dtype)
    if col.null_count == 0:
        flat = pc.list_flatten(col).to_numpy(zero_copy_only=False)
        if len(flat) % n == 0:
            sizes = pc.list_value_length(col).to_numpy(zero_copy_only=False)
            d = len(flat) // n
            if sizes.min() == d and sizes.max() == d:
                return flat.astype(dtype, copy=False).reshape(n, d)
    return np.asarray(col.to_pylist(), dtype=dtype)


class _BatchTopK:
    """Per-batch brute-force cosine vs the broadcast query matrix."""

    def __init__(self, query_ref, k: int, key: str, column: str) -> None:
        q = query_ref
        if isinstance(q, ray.ObjectRef):
            q = ray.get(q)
        self.q = _normalize(np.asarray(q, dtype=np.float64))  # (Q, D)
        self.k = k
        self.key = key
        self.column = column

    def __call__(self, batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:  # (Q,D) @ (0,0).T would crash
            return pa.table({"query_idx": pa.array([], pa.int32()),
                             "vec_id": pa.array([], pa.int64()),
                             "cosine": pa.array([], pa.float64())})
        ids = batch[self.key].to_numpy(zero_copy_only=False).astype(np.int64)
        mat = _normalize(list_matrix(batch[self.column]))
        sims = self.q @ mat.T  # (Q, B)
        k = min(self.k, sims.shape[1])
        nq = sims.shape[0]
        out_q = np.repeat(np.arange(nq, dtype=np.int32), k)
        out_id = np.empty(nq * k, np.int64)
        out_sim = np.empty(nq * k, np.float64)
        for qi in range(nq):
            # partial top-k within the batch, selected with the SAME
            # lexicographic (-sim, vec_id) order as the final merge so a
            # tie straddling the k boundary keeps the lowest vec_id at
            # any partitioning (argpartition would pick arbitrarily)
            idx = np.lexsort((ids, -sims[qi]))[:k]
            out_id[qi * k:(qi + 1) * k] = ids[idx]
            out_sim[qi * k:(qi + 1) * k] = sims[qi, idx]
        return pa.table({
            "query_idx": pa.array(out_q, pa.int32()),
            "vec_id": pa.array(out_id, pa.int64()),
            "cosine": pa.array(out_sim, pa.float64()),
        })


def knn_cosine(
    ds: rd.Dataset,
    queries: np.ndarray,
    k: int = 10,
    *,
    key: str = "vec_id",
    column: str = "embedding",
    concurrency: int = 2,
) -> pa.Table:
    """Exact cosine top-k for each query row → table
    (query_idx, vec_id, cosine, rank), rank 1-based, ties broken by
    vec_id ascending (deterministic).  A single query may be passed as
    a 1-D vector (promoted to a one-row matrix)."""
    query_ref = ray.put(np.atleast_2d(np.asarray(queries, dtype=np.float64)))
    partials = ds.map_batches(
        _BatchTopK,
        fn_constructor_kwargs={"query_ref": query_ref, "k": k,
                               "key": key, "column": column},
        batch_format="pyarrow",
        concurrency=(1, concurrency),
    )
    # merge: tiny (k rows per batch per query) — driver-side final top-k
    t = pa.Table.from_pylist(partials.take_all())
    out = {"query_idx": [], "vec_id": [], "cosine": [], "rank": []}
    qi_col = t["query_idx"].to_numpy() if t.num_rows else np.array([], dtype=np.int32)
    for qi in np.unique(qi_col):
        mask = qi_col == qi
        vids = t["vec_id"].to_numpy()[mask]
        sims = t["cosine"].to_numpy()[mask]
        order = np.lexsort((vids, -sims))[:k]
        for r, j in enumerate(order, start=1):
            out["query_idx"].append(int(qi))
            out["vec_id"].append(int(vids[j]))
            out["cosine"].append(float(sims[j]))
            out["rank"].append(r)
    return pa.table({
        "query_idx": pa.array(out["query_idx"], pa.int32()),
        "vec_id": pa.array(out["vec_id"], pa.int64()),
        "cosine": pa.array(out["cosine"], pa.float64()),
        "rank": pa.array(out["rank"], pa.int32()),
    })


# --------------------------------------------------------------- IVF index


def train_centroids(ds: rd.Dataset, n_cells: int, *, column: str = "embedding",
                    sample_limit: int = 20_000, iters: int = 10,
                    seed: int = 42) -> np.ndarray:
    """Lloyd k-means on a bounded driver-side sample (seeded,
    deterministic).  The centroid matrix is tiny (cells × dim) and is
    broadcast to the assignment stage."""
    sample = ds.select_columns([column]).limit(sample_limit).take_all()
    if not sample:
        raise ValueError(
            f"train_centroids: dataset has no rows (column {column!r}) — "
            "cannot seed centroids from an empty corpus")
    X = _normalize(np.asarray([r[column] for r in sample], dtype=np.float64))
    rng = np.random.RandomState(seed)
    cent = X[rng.choice(len(X), size=min(n_cells, len(X)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(X @ cent.T, axis=1)
        for c in range(len(cent)):
            members = X[assign == c]
            if len(members):
                v = members.mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cent[c] = v / n
    return cent


def ivf_assign(ds: rd.Dataset, centroids: np.ndarray, *, key: str = "vec_id",
               column: str = "embedding", concurrency: int = 2) -> rd.Dataset:
    """Vectorized cell assignment — adds a ``cell`` column (the corpus
    would be written partitioned by cell for locality at scale)."""
    cent_ref = ray.put(np.asarray(centroids, dtype=np.float64))

    class Assign:
        def __init__(self, cent_ref) -> None:
            self.cent = ray.get(cent_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            mat = _normalize(list_matrix(batch[column]))
            cells = np.argmax(mat @ self.cent.T, axis=1).astype(np.int32)
            return batch.append_column("cell", pa.array(cells, pa.int32()))

    return ds.map_batches(
        Assign, fn_constructor_kwargs={"cent_ref": cent_ref},
        batch_format="pyarrow", concurrency=(1, concurrency),
    )


def ivf_build_index(ds: rd.Dataset, out_dir: str, n_cells: int = 16, *,
                    key: str = "vec_id", column: str = "embedding",
                    concurrency: int = 2, seed: int = 42) -> np.ndarray:
    """Materialize the IVF index as **cell-partitioned parquet**: train
    centroids, assign every vector, write hive-partitioned by ``cell``.

    This is the locality story at scale: a query that probes ``n_probe``
    cells reads ONLY those ``cell=<i>/`` directories — pruning happens
    at the read (directory/row-group level), not as a post-read filter.
    The centroid matrix is persisted beside the data so queries never
    retrain.  Returns the centroids.
    """
    import os

    import pyarrow.parquet as pq

    cent = train_centroids(ds, n_cells, column=column, seed=seed)
    assigned = ivf_assign(ds, cent, key=key, column=column,
                          concurrency=concurrency)
    data_dir = os.path.join(out_dir, "cells")
    assigned.write_parquet(data_dir, partition_cols=["cell"])
    cent_table = pa.table({
        "cell": pa.array(range(len(cent)), pa.int32()),
        "centroid": pa.array([c.tolist() for c in cent],
                             pa.list_(pa.float64())),
    })
    pq.write_table(cent_table, os.path.join(out_dir, "centroids.parquet"))
    return cent


def knn_cosine_ivf_indexed(
    index_dir: str,
    queries: np.ndarray,
    k: int = 10,
    *,
    n_probe: int = 4,
    key: str = "vec_id",
    column: str = "embedding",
    concurrency: int = 2,
) -> pa.Table:
    """Approximate top-k over a prebuilt cell-partitioned IVF index.

    The probed cells become the literal set of directories handed to
    ``read_parquet`` — non-probed cells never leave storage (column AND
    partition pruning at the read; the brief's "prune at the read"
    mandate made concrete).  Same output shape and (given the same
    centroids/probes) identical results to :func:`knn_cosine_ivf`.
    """
    import os

    import pyarrow.parquet as pq

    cent_t = pq.read_table(os.path.join(index_dir, "centroids.parquet"))
    cent = np.asarray(cent_t["centroid"].to_pylist(), dtype=np.float64)
    q = _normalize(np.asarray(queries, dtype=np.float64))
    probe_cells: set[int] = set()
    for qi in range(q.shape[0]):
        order = np.argsort(-(q[qi] @ cent.T))[:n_probe]
        probe_cells.update(int(c) for c in order)
    cells = sorted(probe_cells)

    # Directory-level pruning, maximally explicit: only the probed
    # cell=<i>/ directories are ever listed and handed to the reader —
    # non-probed cells never leave storage.
    import glob as _glob

    paths = [f for c in cells
             for f in sorted(_glob.glob(
                 os.path.join(index_dir, "cells", f"cell={c}", "*.parquet")))]
    if not paths:
        raise ValueError(
            f"knn_cosine_ivf_indexed: no parquet files under "
            f"{os.path.join(index_dir, 'cells')!r} for probed cells "
            f"{cells} — was the index built with ivf_build_index?")
    cand = rd.read_parquet(paths, columns=[key, column])
    return knn_cosine(cand, queries, k, key=key, column=column,
                      concurrency=concurrency)


def knn_cosine_ivf(
    ds: rd.Dataset,
    queries: np.ndarray,
    k: int = 10,
    *,
    n_cells: int = 16,
    n_probe: int = 4,
    key: str = "vec_id",
    column: str = "embedding",
    concurrency: int = 2,
) -> pa.Table:
    """Approximate top-k: probe only the ``n_probe`` nearest IVF cells.

    Same output shape as :func:`knn_cosine`; recall < 1 by construction
    (approximate — validated against the exact baseline in tests, not
    against a SQL oracle)."""
    cent = train_centroids(ds, n_cells, column=column)
    assigned = ivf_assign(ds, cent, key=key, column=column,
                          concurrency=concurrency)
    q = _normalize(np.asarray(queries, dtype=np.float64))
    probe_cells = set()
    for qi in range(q.shape[0]):
        order = np.argsort(-(q[qi] @ cent.T))[:n_probe]
        probe_cells.update(int(c) for c in order)
    cells = sorted(probe_cells)
    # candidate set = union of probed cells (vectorized filter, then the
    # exact kernel over the shrunken corpus)
    cand = assigned.map_batches(
        lambda t: t.filter(pa.compute.is_in(t["cell"], value_set=pa.array(cells, pa.int32()))),
        batch_format="pyarrow",
    )
    return knn_cosine(cand, queries, k, key=key, column=column,
                      concurrency=concurrency)
