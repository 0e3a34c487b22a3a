"""Windowed aggregates over the events stream table.

Ray Data has no event-time windows; a tumbling window is a derived
bucket column + groupby, and per-key ordered windows are
``groupby(key).map_groups`` over ts-sorted groups (ordering assumption:
within one group, rows are sorted before use — stated per the guide).

Float discipline: sums over float64 are order-dependent under
distribution, so monetary values are aggregated as exact integer cents
(the input values are exact 2-decimal doubles) — distributed results
are then bit-equal to any oracle regardless of reduction order.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data as rd
from ray.data.aggregate import Count, Max, Min, Sum


def add_hour_bucket(batch: pa.Table) -> pa.Table:
    """Tumbling 1h window bucket (vectorized floor to hour)."""
    return batch.append_column("hour", pc.floor_temporal(batch["ts"], unit="hour"))


def add_value_cents(batch: pa.Table) -> pa.Table:
    """Exact integer cents from 2-decimal doubles (rint is exact here —
    no value lands on a .5 cent boundary)."""
    cents = np.rint(np.asarray(batch["value"].to_numpy(zero_copy_only=False)) * 100
                    ).astype(np.int64)
    return batch.append_column("value_cents", pa.array(cents, pa.int64()))


def events_window(events: rd.Dataset) -> rd.Dataset:
    """Tumbling 1-hour window per event_type: count + min/max value.

    Pattern: cheap vectorized bucket column, then ONE small groupby
    (the aggregate fan-in is tiny: hours × types)."""
    ds = events.map_batches(add_hour_bucket, batch_format="pyarrow")
    return ds.groupby(["hour", "event_type"]).aggregate(
        Count(alias_name="n_events"),
        Min("value", alias_name="min_value"),
        Max("value", alias_name="max_value"),
    )


def top_users_by_value(events: rd.Dataset, k: int = 10) -> pa.Table:
    """Top-k users by exact total cents; ties by user_id ascending.

    Pre-aggregates cents per user per batch (combiner) before the
    global groupby, then a distributed ``sort().limit(k)`` over the
    per-user rollup — only k rows ever reach the driver (scale-safe at
    any user-key cardinality)."""
    def partial(batch: pa.Table) -> pa.Table:
        b = add_value_cents(batch)
        g = b.select(["user_id", "value_cents"]).group_by("user_id").aggregate(
            [("value_cents", "sum")]
        )
        return pa.table({"user_id": g["user_id"],
                         "cents": g["value_cents_sum"]})

    per_user = (
        events.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("cents", alias_name="total_cents"))
    )
    top = (per_user.sort(["total_cents", "user_id"], descending=[True, False])
           .limit(k).take_all())
    if not top:  # empty events: typed empty, not a zero-column table
        return pa.table({"user_id": pa.array([], pa.int64()),
                         "total_cents": pa.array([], pa.int64())})
    return pa.Table.from_pylist(top).select(["user_id", "total_cents"])


def _user_bucketed(ds: rd.Dataset, fn, *, keys: list[str] | None = None,
                   num_buckets: int = 32) -> rd.Dataset:
    """Per-user logic WITHOUT a per-user Python call: users hash to
    ``num_buckets`` coarse partitions (ops/vecagg.py's deterministic
    bucketing keeps every user whole), and ``fn`` — written VECTORIZED
    over a multi-user frame — runs once per bucket.  Replaces
    ``groupby(user).map_groups`` whose per-group reduce cost
    (~180 µs/group) dominates at user-scale group counts; the
    partitioning assumption (one user fits a worker) is unchanged,
    coarsened to one bucket per worker."""
    from pmocr_ray.ops.vecagg import _bucket_of

    keys = keys or ["user_id"]

    def bucket(t: pa.Table) -> pa.Table:
        return t.append_column("_bkt", _bucket_of(t, keys, num_buckets))

    def run(df: pd.DataFrame) -> pd.DataFrame:
        return fn(df.drop(columns=["_bkt"]))

    return (ds.map_batches(bucket, batch_format="pyarrow")
            .groupby("_bkt").map_groups(run, batch_format="pandas"))


def sessionize(events: rd.Dataset, gap_minutes: int = 30) -> rd.Dataset:
    """Session windows per user: a new session starts after a gap of
    ``gap_minutes`` of inactivity.  Per-user ordered scan inside
    ``map_groups`` (rows ts-sorted within the group before use)."""
    gap = pd.Timedelta(minutes=gap_minutes)

    def sessions_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # all users of the bucket in ONE ordered scan: a session break
        # is a user change OR an inactivity gap
        df = df.sort_values(["user_id", "ts"], kind="mergesort")
        brk = df["user_id"].ne(df["user_id"].shift()) | (df["ts"].diff() > gap)
        out = df.groupby(brk.cumsum()).agg(
            user_id=("user_id", "first"),
            session_start=("ts", "min"),
            session_end=("ts", "max"),
            n_events=("event_id", "count"),
        )
        return out.reset_index(drop=True)

    return _user_bucketed(events, sessions_bucket)
