"""Join helper tests (SURVEY §2.5)."""

import pyarrow as pa

import ray.data as rd

from pmocr_ray.ops.joins import broadcast_semi_join


def _ds(ray_session):
    return rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3, 4, 5], pa.int64()),
        "v": ["a", "b", "c", "d", "e"],
    }))


def test_semi_join(ray_session):
    out = broadcast_semi_join(_ds(ray_session), "k", [2, 4, 9]).take_all()
    assert sorted(r["k"] for r in out) == [2, 4]


def test_build_bloom_no_false_negatives(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from pmocr_ray.ops.joins import _bloom_indices, build_bloom

    keys = [f"url-{i}" for i in range(500)]
    bm = build_bloom(rd.from_pandas(pd.DataFrame({"k": keys})).repartition(5),
                     "k", n_bits=1 << 14)
    idx = _bloom_indices(keys, 1 << 14, 7)
    bits = (bm[(idx >> 3).astype(np.int64)] >> (idx & 7).astype(np.uint8)) & 1
    assert bits.all()  # every inserted key is a member


def test_bloom_anti_join_exact_under_false_positives(ray_session):
    import pandas as pd
    import ray.data as rd

    from pmocr_ray.ops.joins import bloom_anti_join

    left = rd.from_pandas(pd.DataFrame({"k": [f"u{i}" for i in range(300)]}))
    right = rd.from_pandas(pd.DataFrame(
        {"k": [f"u{i}" for i in range(0, 300, 3)]}))
    # 64 bits for 100 keys -> filter is saturated, nearly every probe is
    # a false positive; the exact verify join must still give the truth
    out = bloom_anti_join(left, right, on="k", n_bits=64, k_hashes=3,
                          num_partitions=2).to_pandas()
    expect = {f"u{i}" for i in range(300) if i % 3 != 0}
    assert set(out["k"]) == expect


def test_native_anti_join_agrees_with_hash_and_bloom(ray_session):
    """The hash and Bloom-prefilter anti joins drop exactly the keys
    the right side holds, duplicates included."""
    import pandas as pd
    import ray.data as rd

    from pmocr_ray.ops.joins import bloom_anti_join, hash_anti_join

    left = rd.from_pandas(pd.DataFrame(
        {"k": list(range(100)), "v": [f"x{i}" for i in range(100)]}))
    right = rd.from_pandas(pd.DataFrame(
        {"k": [i for i in range(100) if i % 3 == 0] * 2}))
    expected = sorted(i for i in range(100) if i % 3 != 0)
    for fn in (hash_anti_join, bloom_anti_join):
        got = sorted(r["k"] for r in
                     fn(left, right, on="k", num_partitions=4)
                     .select_columns(["k"]).take_all())
        assert got == expected, fn.__name__


def test_is_ed1_exact():
    from pmocr_ray.ops.joins import _is_ed1

    assert _is_ed1("abc", "abd")          # substitution
    assert _is_ed1("abc", "ab")           # deletion
    assert _is_ed1("ab", "abc")           # insertion (symmetric)
    assert _is_ed1("abc", "xabc")         # prefix insertion
    assert not _is_ed1("abc", "abc")      # distance 0
    assert not _is_ed1("abc", "axd")      # distance 2 (two subs)
    assert not _is_ed1("abc", "abcde")    # distance 2 (two inserts)
    assert not _is_ed1("ab", "ba")        # transposition is distance 2


def test_edit1_pairs_matches_brute_force(ray_session):
    import itertools

    import pandas as pd
    import ray.data as rd

    from pmocr_ray.ops.joins import _is_ed1, edit1_pairs

    vals = ["www1.example.com", "www2.example.com", "www.example.com",
            "api.example.com", "apx.example.com", "unique.host.net",
            "a", "b", "ab", "", "www1.example.com"]  # dup value on purpose
    ds = rd.from_pandas(pd.DataFrame({"h": vals})).repartition(4)
    got = [(r["a"], r["b"]) for r in
           edit1_pairs(ds, "h", num_buckets=3, min_len=0).take_all()]
    distinct = sorted(set(vals))
    expect = sorted((x, y) for x, y in itertools.combinations(distinct, 2)
                    if _is_ed1(x, y))
    assert got == expect and len(expect) >= 4
    # default min_len=1 excludes the empty string from the key domain
    got1 = [(r["a"], r["b"]) for r in
            edit1_pairs(ds, "h", num_buckets=3).take_all()]
    assert got1 == [p for p in expect if p[0] != ""]


def test_edit1_pairs_bucket_guard(ray_session):
    import pandas as pd
    import pytest
    import ray.data as rd

    from pmocr_ray.ops.joins import edit1_pairs

    ds = rd.from_pandas(pd.DataFrame({"h": [f"key{i:03d}" for i in range(40)]}))
    with pytest.raises(ValueError, match="max_partition_rows"):
        edit1_pairs(ds, "h", num_buckets=1, max_partition_rows=10).take_all()


def test_edit1_pairs_cap_bucket_deterministic_prefix(ray_session):
    """cap_bucket keeps only the lexicographic prefix of each
    deletion-variant bucket: with 5 terms sharing every variant bucket
    and cap 2, only the pair of the 2 smallest terms can survive."""
    import pandas as pd
    import ray.data as rd

    from pmocr_ray.ops.joins import edit1_pairs

    vals = [f"a{c}" for c in "bcdef"]  # ab..af: all share variant "a"
    ds = rd.from_pandas(pd.DataFrame({"h": vals}))
    full = {(r["a"], r["b"]) for r in
            edit1_pairs(ds, "h", num_buckets=2).take_all()}
    capped = {(r["a"], r["b"]) for r in
              edit1_pairs(ds, "h", num_buckets=2, cap_bucket=2).take_all()}
    assert full == {(x, y) for i, x in enumerate(vals)
                    for y in vals[i + 1:]}
    assert capped == {("ab", "ac")}


def test_anti_joins_with_empty_right_return_left(ray_session):
    """First run: the done manifest is EMPTY — every anti-join variant
    must pass the left side through unchanged instead of crashing on a
    schema-less marker rollup."""
    import pandas as pd
    import ray.data as rd

    from pmocr_ray.ops.joins import bloom_anti_join, hash_anti_join

    left = rd.from_pandas(pd.DataFrame(
        {"k": list(range(20)), "v": [f"x{i}" for i in range(20)]}))
    empty = rd.from_pandas(pd.DataFrame({"k": pd.Series([], dtype="int64")}))
    for fn in (hash_anti_join, bloom_anti_join):
        out = fn(left, empty, on="k", num_partitions=2)
        got = sorted(r["k"] for r in out.take_all())
        assert got == list(range(20)), fn.__name__
