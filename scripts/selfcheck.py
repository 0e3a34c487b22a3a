"""Self-check harness mimicking the driver's correctness gate.

Runs every ``queries()[name](sf_dir)`` and compares against
``oracle_sql()[name]`` via DuckDB: row count, column names, and an
order-insensitive value hash (columns sorted by name, rows sorted).
The run outputs cached beside the sf dir's pages fixture are cleared
first, so the extraction queries check the code as it is now.

Usage: python scripts/selfcheck.py [sf_dir] [query ...]
"""

from __future__ import annotations

import hashlib
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def to_pandas(obj):
    import pandas as pd
    import pyarrow as pa

    if isinstance(obj, pd.DataFrame):
        return obj
    if isinstance(obj, pa.Table):
        return obj.to_pandas()
    return obj.to_pandas()  # ray Dataset


def value_hash(df) -> str:
    import pandas as pd

    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        col = df[c]
        if str(col.dtype).startswith("datetime"):
            df[c] = col.astype("datetime64[us]").astype("int64")
        elif col.dtype == object:
            df[c] = col.astype(str)
        elif str(col.dtype).startswith("float"):
            df[c] = col.round(9)
    df = df.sort_values(by=list(df.columns), kind="mergesort").reset_index(drop=True)
    return hashlib.md5(pd.util.hash_pandas_object(df, index=False).values.tobytes()).hexdigest()


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import duckdb

    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("PMOCR_SELFCHECK_CPUS", "8")),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as E

    E._clear_run_outputs(sf_dir)  # check this code's output, not a cached one
    con = duckdb.connect()
    for t in ("region nation customer supplier part orders lineitem events "
              "documents embeddings").split():
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.sql(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    qs, oracles = E.queries(), E.oracle_sql()
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as exc:
            print(f"FAIL  {name:22s} query raised: {type(exc).__name__}: {exc}")
            failures += 1
            continue
        dt = time.time() - t0
        if name not in oracles:
            print(f"rows  {name:22s} {len(got):>7} rows   {dt:5.1f}s (rows-only)")
            continue
        try:
            exp = con.sql(oracles[name]).df()
        except Exception as exc:
            print(f"FAIL  {name:22s} oracle SQL raised: {exc}")
            failures += 1
            continue
        ok_rows = len(got) == len(exp)
        ok_cols = sorted(got.columns) == sorted(exp.columns)
        ok_hash = ok_rows and ok_cols and value_hash(got) == value_hash(exp)
        status = "OK  " if (ok_rows and ok_cols and ok_hash) else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"{status}  {name:22s} rows {len(got)}/{len(exp)} cols={ok_cols} "
              f"hash={ok_hash}   {dt:5.1f}s")
        if not ok_cols:
            print(f"      got  cols: {sorted(got.columns)}")
            print(f"      want cols: {sorted(exp.columns)}")
    print("FAILURES:", failures)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
