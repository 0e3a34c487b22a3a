"""Sequence packing / distributed prefix-sum tests."""
import numpy as np
import pandas as pd

import ray.data as rd

from pmocr_ray.ops.pack import pack_sequences


def test_pack_sequences_concat_then_chunk(ray_session):
    df = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": ["a b c", "", "d e f g h", "i j"],  # tokens: 3,0,5,2
    })
    out = (pack_sequences(rd.from_pandas(df), block_tokens=4, part_size=2)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert list(out["n_tokens"]) == [3, 0, 5, 2]
    assert list(out["tok_start"]) == [0, 3, 3, 8]
    assert list(out["block_start"]) == [0, 0, 0, 2]
    # doc2 spans tokens [3, 8) -> blocks 0..1; doc3 tokens [8, 10) -> block 2
    assert list(out["block_end"]) == [0, 0, 1, 2]


def test_pack_sequences_partition_invariant(ray_session):
    rng = np.random.default_rng(7)
    df = pd.DataFrame({
        "doc_id": np.arange(200),
        "text": [" ".join(["w"] * int(n)) for n in rng.integers(0, 30, 200)],
    })
    a = (pack_sequences(rd.from_pandas(df), block_tokens=64, part_size=10)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    b = (pack_sequences(rd.from_pandas(df).repartition(13), block_tokens=64,
                        part_size=37)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(a, b)
    # global invariant: consecutive tok_starts differ by n_tokens
    assert (a["tok_start"].diff().dropna().to_numpy()
            == a["n_tokens"].to_numpy()[:-1]).all()


def test_bucketed_join_matches_plain_join(ray_session, tmp_path):
    import pandas as pd

    from pmocr_ray.ops.pack import bucketed_join, bucketed_write

    left = pd.DataFrame({"k": [1, 2, 3, 4, 5, 7], "lv": list("abcdef")})
    right = pd.DataFrame({"rk": [2, 3, 3, 5, 9], "rv": list("vwxyz")})
    da = bucketed_write(rd.from_pandas(left).repartition(3),
                        str(tmp_path / "l"), key="k", n_buckets=4)
    db = bucketed_write(rd.from_pandas(right).repartition(2),
                        str(tmp_path / "r"), key="rk", n_buckets=4)
    out = bucketed_join(da, db, key_a="k", key_b="rk",
                        n_buckets=4).to_pandas()
    got = sorted(zip(out["k"], out["lv"], out["rv"]))
    exp = sorted((r.k, r.lv, rr.rv)
                 for r in left.itertuples() for rr in right.itertuples()
                 if r.k == rr.rk)
    assert got == exp


def test_bucketed_join_hot_bucket_split(ray_session, tmp_path):
    """One key = 50% of rows (all landing in one bucket): a tiny
    hot_bucket_bytes must star-split that bucket across multiple
    tasks (row-group slices of the larger side x full smaller side)
    and still produce the exact inner join."""
    from pmocr_ray.ops.pack import bucketed_join, bucketed_write

    n = 20_000
    rng = np.random.default_rng(0)
    lk = np.concatenate([np.full(n // 2, 42, dtype=np.int64),
                         rng.integers(0, 10_000, n // 2)])
    left = pd.DataFrame({"k": lk, "lv": np.arange(n)})
    right = pd.DataFrame({"rk": np.arange(10_050, dtype=np.int64),
                          "rv": np.arange(10_050) * 2})
    da = bucketed_write(rd.from_pandas(left).repartition(8),
                        str(tmp_path / "l"), key="k", n_buckets=4)
    db = bucketed_write(rd.from_pandas(right).repartition(4),
                        str(tmp_path / "r"), key="rk", n_buckets=4)
    joined = bucketed_join(da, db, key_a="k", key_b="rk", n_buckets=4,
                           hot_bucket_bytes=20_000)
    mat = joined.materialize()
    # the split planner must have emitted more tasks than buckets
    assert mat.num_blocks() > 4
    out = mat.to_pandas().sort_values("lv").reset_index(drop=True)
    exp = (left.merge(right, left_on="k", right_on="rk")
           .sort_values("lv").reset_index(drop=True))
    assert len(out) == len(exp)
    assert (out["lv"].values == exp["lv"].values).all()
    assert (out["rv"].values == exp["rv"].values).all()


def test_bucketed_join_shared_nonkey_column_suffixed(ray_session, tmp_path):
    """Both sides carry a non-key column named `v`: pa.Table.join
    would emit the field twice and the output select would raise
    KeyError; the join must disambiguate with _x/_y suffixes (the
    pandas-merge convention the previous implementation had)."""
    import pandas as pd

    from pmocr_ray.ops.pack import bucketed_join, bucketed_write

    left = pd.DataFrame({"k": [1, 2, 3, 5], "v": list("abcd")})
    right = pd.DataFrame({"rk": [2, 3, 3, 9], "v": list("wxyz")})
    da = bucketed_write(rd.from_pandas(left).repartition(2),
                        str(tmp_path / "l"), key="k", n_buckets=4)
    db = bucketed_write(rd.from_pandas(right).repartition(2),
                        str(tmp_path / "r"), key="rk", n_buckets=4)
    out = bucketed_join(da, db, key_a="k", key_b="rk",
                        n_buckets=4).to_pandas()
    assert {"v_x", "v_y"} <= set(out.columns) and "v" not in out.columns
    got = sorted(zip(out["k"], out["v_x"], out["v_y"]))
    exp = sorted((r.k, r.v, rr.v)
                 for r in left.itertuples() for rr in right.itertuples()
                 if r.k == rr.rk)
    assert got == exp


def test_token_budget_trim_rule(ray_session):
    import pandas as pd

    from pmocr_ray.ops.pack import token_budget_trim

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5],
        "source": ["a", "a", "a", "b", "b"],
        "n_chars": [60, 50, 40, 200, 30],
    })
    out = token_budget_trim(rd.from_pandas(df).repartition(3),
                            budget=100).to_pandas()
    # PREFIX rule (SQL-exact), not greedy knapsack: source a keeps 60
    # (cumsum 60), then 50 -> 110 and 40 -> 150 exceed; source b's 200
    # exceeds alone AND blocks the 30 behind it (cumsum 230).
    assert sorted(out["doc_id"]) == [1]
    # raising the budget past the blocker admits the prefix again
    out2 = token_budget_trim(rd.from_pandas(df).repartition(3),
                             budget=230).to_pandas()
    assert sorted(out2["doc_id"]) == [1, 2, 3, 4, 5]
