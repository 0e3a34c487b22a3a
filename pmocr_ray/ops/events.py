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


def props_value_agg(events: rd.Dataset) -> rd.Dataset:
    """Per-event-type rollup of the ``k`` field inside the JSON
    ``props`` payload.

    There is no Arrow JSON kernel; for the fixed ``{"k": N}`` shape one
    RE2 ``extract_regex`` per batch is the vectorized path (a general
    JSON column would get a per-batch ``json.loads`` loop inside an
    actor pool instead).  Fan-in is tiny: one row per event_type.
    """
    def partial(batch: pa.Table) -> pa.Table:
        m = pc.extract_regex(batch["props"], r'"k":\s*(?P<k>-?\d+)')
        k = pc.cast(pc.struct_field(m, "k"), pa.int64())
        # count_all, not count("k"): a row whose props doesn't match the
        # pattern extracts null but must still be counted like count(*)
        g = pa.table({"event_type": batch["event_type"], "k": k}) \
            .group_by("event_type") \
            .aggregate([("k", "sum"), ([], "count_all")])
        return pa.table({"event_type": g["event_type"],
                         "sum_k": g["k_sum"],
                         "n": g["count_all"]})

    return (events.map_batches(partial, batch_format="pyarrow")
            .groupby("event_type")
            .aggregate(Sum("sum_k", alias_name="sum_k"),
                       Sum("n", alias_name="n")))


def top_events_per_user(events: rd.Dataset, n: int = 3) -> rd.Dataset:
    """Top-``n`` events per user by ``(value desc, event_id asc)``.

    Scale shape: a per-batch LOCAL cap first — the global top-n for a
    user is a subset of the union of per-batch top-n, so each batch
    forwards at most n rows per user it saw — then the exact global
    top-n inside ``groupby(user).map_groups`` over the pruned stream.
    The shuffle moves ≤ n×users rows however skewed a hot user is.
    """
    def local_cap(batch: pa.Table) -> pa.Table:
        batch = batch.select(["user_id", "event_id", "value"])
        uid = batch["user_id"].to_numpy(zero_copy_only=False)
        eid = batch["event_id"].to_numpy(zero_copy_only=False)
        val = batch["value"].to_numpy(zero_copy_only=False)
        # (user asc, value desc, event_id asc) then per-user rank via
        # group-start offsets — no pandas round-trip on the raw stream
        order = np.lexsort((eid, -val, uid))
        u = uid[order]
        if not len(u):
            return batch
        new_grp = np.concatenate(([True], u[1:] != u[:-1]))
        starts = np.flatnonzero(new_grp)
        sizes = np.diff(np.concatenate((starts, [len(u)])))
        rank = np.arange(len(u)) - np.repeat(starts, sizes)
        return batch.take(pa.array(order[rank < n]))

    def exact_top_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "value", "event_id"],
                            ascending=[True, False, True],
                            kind="mergesort")
        df = df.groupby("user_id", sort=False).head(n).copy()
        df["rank"] = (df.groupby("user_id", sort=False).cumcount()
                      + 1).astype(np.int64)
        return df

    return _user_bucketed(
        events.map_batches(local_cap, batch_format="pyarrow"),
        exact_top_bucket)


def window_distinct_users(events: rd.Dataset) -> rd.Dataset:
    """Distinct users per tumbling hour.

    Exact distinct via two shuffles of shrinking size: per-batch
    (hour, user) dedup combiner → global pair dedup (groupby on both
    keys) → tiny per-hour count.  The pair shuffle carries only the
    distinct pairs each batch saw, never raw events.
    """
    def pair_dedup(batch: pa.Table) -> pa.Table:
        b = add_hour_bucket(batch)
        g = b.select(["hour", "user_id"]).group_by(["hour", "user_id"]) \
             .aggregate([])
        return g

    from pmocr_ray.ops.vecagg import distinct as _vec_distinct

    # (hour, user) groups are USER-scale — Arrow-bucketed distinct
    pairs = _vec_distinct(
        events.map_batches(pair_dedup, batch_format="pyarrow"),
        ["hour", "user_id"])
    return (pairs.select_columns(["hour"])
            .groupby("hour").aggregate(Count(alias_name="n_users")))


EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def event_type_pivot(events: rd.Dataset) -> rd.Dataset:
    """Per-day event counts pivoted wide (one ``n_<type>`` column per
    known event type) — the long→wide rollup a monitoring dashboard
    reads.  Conditional-count combiner per batch, then one tiny
    groupby(day) summing the pivot columns; unknown types are ignored
    by construction.
    """
    def partial(batch: pa.Table) -> pa.Table:
        day = pc.floor_temporal(batch["ts"], unit="day")
        cols = {"day": day}
        for t in EVENT_TYPES:
            cols[f"n_{t}"] = pc.cast(pc.equal(batch["event_type"], t),
                                     pa.int64())
        g = pa.table(cols).group_by("day").aggregate(
            [(f"n_{t}", "sum") for t in EVENT_TYPES])
        return pa.table({"day": g["day"],
                         **{f"n_{t}": g[f"n_{t}_sum"] for t in EVENT_TYPES}})

    return events.map_batches(partial, batch_format="pyarrow") \
        .groupby("day").aggregate(
            *[Sum(f"n_{t}", alias_name=f"n_{t}") for t in EVENT_TYPES])


def orders_running_total(orders: rd.Dataset) -> rd.Dataset:
    """Per-customer cumulative order value (exact cents), ordered by
    ``(o_orderdate, o_orderkey)`` — the running-spend ledger.

    Per-key ordered scan in ``map_groups`` with a vectorized cumsum
    over exact integer cents (distribution-order-proof, like all
    monetary aggregates here).  Partitioning assumption: one
    customer's orders fit in a worker (same as :func:`sessionize`).
    """
    def ledger_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["o_custkey", "o_orderdate", "o_orderkey"],
                            kind="mergesort")
        cents = pd.Series(
            np.rint(df["o_totalprice"].to_numpy() * 100).astype(np.int64))
        cum = cents.groupby(df["o_custkey"].to_numpy()).cumsum()
        return pd.DataFrame({
            "o_orderkey": df["o_orderkey"].to_numpy(),
            "o_custkey": df["o_custkey"].to_numpy(),
            "o_orderdate": df["o_orderdate"].to_numpy(),
            "cum_cents": cum.to_numpy(),
        })

    return _user_bucketed(
        orders.select_columns(
            ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"]),
        ledger_bucket, keys=["o_custkey"])


def event_transitions(events: rd.Dataset) -> rd.Dataset:
    """Per-user event-sequence transition rollup (the user-journey
    Markov matrix): order each user's events by ``(ts, event_id)``,
    pair each event type with its successor (SQL ``lead()``), and
    count every (from_type, to_type) transition globally.

    Per-user ordered scan in ``map_groups`` (same partitioning
    assumption as :func:`sessionize`) with the pair counts rolled up
    LOCALLY per group before the tiny global groupby — the shuffle
    moves (from, to, n) triples bounded by |event types|² per group,
    never the event stream itself.
    """
    def trans_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "ts", "event_id"],
                            kind="mergesort")
        et = df["event_type"].to_numpy()
        usr = df["user_id"].to_numpy()
        if len(et) < 2:
            return pd.DataFrame({"from_type": [], "to_type": [], "n": []})
        mask = usr[:-1] == usr[1:]  # successor pairs within one user
        local = (pd.DataFrame({"from_type": et[:-1][mask],
                               "to_type": et[1:][mask]})
                 .groupby(["from_type", "to_type"], as_index=False)
                 .size().rename(columns={"size": "n"}))
        return local

    per = _user_bucketed(
        events.select_columns(["user_id", "ts", "event_id", "event_type"]),
        trans_bucket)
    out = per.groupby(["from_type", "to_type"]).aggregate(
        Sum("n", alias_name="n"))
    return out.map_batches(
        lambda t: pa.table({"from_type": t["from_type"],
                            "to_type": t["to_type"],
                            "n": pc.cast(t["n"], pa.int64())}),
        batch_format="pyarrow")

