"""Tests for the curation/export operators: line dedup,
decontamination, hash-shard export, url canonicalization, schema
alignment and rare-term pair linking."""

import hashlib
import os

import numpy as np
import pyarrow as pa

import ray.data as rd

from pmocr_ray.ops.dedup import (
    benchmark_shingles,
    decontaminate,
    explode_lines,
    line_dedup,
)
from pmocr_ray.ops.export import assign_shard, shard_counts


# ------------------------------------------------------------- line dedup


def test_explode_lines_chunking(ray_session):
    ds = rd.from_items([{"doc_id": 5, "text": " ".join(str(i) for i in range(23))}])
    rows = sorted(explode_lines(ds, width=10).take_all(),
                  key=lambda r: r["line_no"])
    assert [r["line_no"] for r in rows] == [0, 1, 2]
    assert rows[0]["line"] == " ".join(str(i) for i in range(10))
    assert rows[2]["line"] == "20 21 22"


def test_line_dedup_keeps_global_first_occurrence(ray_session):
    shared = " ".join(f"w{i}" for i in range(10))
    uniq_a = " ".join(f"a{i}" for i in range(10))
    uniq_b = " ".join(f"b{i}" for i in range(10))
    ds = rd.from_items([
        {"doc_id": 1, "text": shared + " " + uniq_a},
        {"doc_id": 2, "text": shared + " " + uniq_b},  # loses the shared line
        {"doc_id": 3, "text": shared},                 # loses everything
    ])
    out = {r["doc_id"]: r["text_dedup"] for r in line_dedup(ds).take_all()}
    assert out == {1: shared + "\n" + uniq_a, 2: uniq_b}


def test_line_dedup_within_doc_repeat(ray_session):
    line = " ".join(f"t{i}" for i in range(10))
    ds = rd.from_items([{"doc_id": 9, "text": line + " " + line}])
    out = line_dedup(ds).take_all()
    assert out == [{"doc_id": 9, "text_dedup": line}]


def test_line_dedup_partition_invariant(ray_session, sf_small):
    docs = rd.read_parquet(os.path.join(sf_small, "documents.parquet"),
                           columns=["doc_id", "text"])
    a = sorted((r["doc_id"], r["text_dedup"])
               for r in line_dedup(docs).take_all())
    b = sorted((r["doc_id"], r["text_dedup"])
               for r in line_dedup(docs.repartition(11)).take_all())
    assert a == b


# --------------------------------------------------------- decontaminate


def test_decontaminate_flags_13gram_overlap(ray_session):
    bench_text = " ".join(f"q{i}" for i in range(20))
    clean_text = " ".join(f"c{i}" for i in range(20))
    # doc 2 embeds 13 consecutive benchmark tokens mid-document
    leak = "x0 " + " ".join(f"q{i}" for i in range(3, 16)) + " x1"
    bench = rd.from_items([{"doc_id": 0, "text": bench_text}])
    corpus = rd.from_items([
        {"doc_id": 1, "text": clean_text},
        {"doc_id": 2, "text": leak},
        {"doc_id": 3, "text": "short doc"},
    ])
    shingles = benchmark_shingles(bench, n=13)
    assert len(shingles) == 8  # 20 - 13 + 1
    out = {r["doc_id"]: r["contaminated"]
           for r in decontaminate(corpus, shingles, n=13).take_all()}
    assert out == {1: False, 2: True, 3: False}


# ------------------------------------------------------------- sharding


def test_assign_shard_matches_md5():
    t = pa.table({"url": ["u1", "u2", "u3"]})
    got = assign_shard(t, n_shards=7)["shard"].to_pylist()
    exp = [int(hashlib.md5(u.encode()).hexdigest()[:8], 16) % 7
           for u in ["u1", "u2", "u3"]]
    assert got == exp


def test_shard_counts_total(ray_session):
    ds = rd.from_items([{"url": f"u{i}"} for i in range(100)])
    out = shard_counts(ds, n_shards=5).take_all()
    assert sum(r["n"] for r in out) == 100
    assert all(0 <= r["shard"] < 5 for r in out)


def test_incremental_exact_dedup_drops_seen_content(ray_session):
    import pandas as pd
    import ray.data as rd

    from pmocr_ray.ops.dedup import incremental_exact_dedup

    history = rd.from_pandas(pd.DataFrame(
        {"doc_id": [1, 2], "text": ["seen before", "also seen"]}))
    new = rd.from_pandas(pd.DataFrame(
        {"doc_id": [10, 11, 12],
         "text": ["seen before", "brand new", "also seen"]}))
    out = incremental_exact_dedup(new, history, n_bits=1 << 10).to_pandas()
    assert list(out["doc_id"]) == [11]
    assert "fp" not in out.columns


def test_host_mirror_pairs_counts_and_cap(ray_session):
    import pandas as pd

    import ray.data as rd
    from pmocr_ray.ops.dedup import host_mirror_pairs

    rows = [
        ("https://a.x/1", "mirrored"), ("https://b.x/1", "mirrored"),
        ("https://c.x/1", "mirrored"),
        ("https://a.x/2", "shared-ab"), ("https://b.x/2", "shared-ab"),
        ("https://a.x/3", "solo"), ("https://d.x/9", None),
    ]
    df = pd.DataFrame(rows, columns=["url", "extracted_text"])
    out = host_mirror_pairs(rd.from_pandas(df).repartition(3)).to_pandas()
    got = {(r.host_a, r.host_b): r.n_shared for r in out.itertuples()}
    assert got == {("a.x", "b.x"): 2, ("a.x", "c.x"): 1,
                   ("b.x", "c.x"): 1}
    # cap: with max_hosts_per_content=2 only the lexicographic prefix
    # {a.x, b.x} of the 3-host cluster emits
    capped = host_mirror_pairs(rd.from_pandas(df).repartition(3),
                               max_hosts_per_content=2).to_pandas()
    gotc = {(r.host_a, r.host_b): r.n_shared for r in capped.itertuples()}
    assert gotc == {("a.x", "b.x"): 2}


def test_strip_tracking_params_cases():
    from pmocr_ray.ops.text import strip_tracking_params as s

    assert s("https://a.x/p?utm_source=f&q=1&utm_medium=m") == \
        "https://a.x/p?q=1"
    assert s("HTTPS://A.X/p?gclid=z#frag") == "https://a.x/p"
    assert s("https://a.x/p?ref=tw&fbclid=1") == "https://a.x/p"
    assert s("https://a.x/p") == "https://a.x/p"
    # non-tracking params keep order and blank values
    assert s("https://a.x/p?b=&a=2") == "https://a.x/p?b=&a=2"


def test_canonicalize_urls_differential_vs_scalar():
    """The vectorized canonicalizer must be byte-identical to the
    scalar strip_tracking_params on every input — common shapes
    (Arrow fast path) AND anomalous rows (Python fallback): percent
    escapes, bare keys, semicolons, '=' in values, non-ASCII,
    schemeless, empty authority, junk."""
    from pmocr_ray.ops.text import canonicalize_urls, strip_tracking_params

    urls = [
        # fast-path shapes
        "https://a.x/p",
        "HTTPS://A.X/Path/Keep#frag",
        "https://a.x/p?utm_source=f&q=1&utm_medium=m",
        "https://a.x/p?gclid=z",
        "https://a.x/p?ref=tw&fbclid=1",
        "https://a.x/p?b=&a=2",
        "https://a.x/p?a=1&a=2&refx=keepme",
        # keys that merely CONTAIN a tracking name must be kept intact
        # (suffix/infix forms — a substring-matching strip corrupts
        # these; the per-param anchored filter must not)
        "https://a.x/p?pref=1",
        "https://a.x/p?xref=abc",
        "https://a.x/p?agclid=5",
        "https://a.x/p?foutm_a=1&b=2",
        "https://a.x/p?utm_a=1&utm_b=2&utm_c=3&utm_d=4",  # adjacent strips
        "https://a.x/p?a=b+c",          # '+' round-trips as '+'
        "https://User@Host:8080/x?k=v",
        "https://a.x/p?utm_=1&utm_campaign=x%20y",  # tracking any value
        "https://a.x/p?",
        "https://a.x/p?#f",
        "http://h/a:b,c(d)!$",          # odd path chars preserved
        "https://a.x/p?a=1&ref",        # bare tracking key removed
        # fallback shapes
        "https://a.x/p?a=%20b",         # escape re-encoded by parse_qsl
        "https://a.x/p?bare",           # bare key -> 'bare='
        "https://a.x/p?a=b=c",          # '=' in value gets quoted
        "https://a.x/p?a=b;c",          # ';' gets quoted
        "https://a.x/p?a=é",       # non-ASCII
        "//schemeless.example/x?utm_source=1",
        # empty authority: urlsplit/urlunsplit collapse the '//' that a
        # fast path matching an empty host would keep
        "http:///x/y.z?utm_a=1",
        "http:////d",
        "http://?ref=1",
        "https:///p?a=1&ref=2",
        "mailto:someone@example.com",
        "not a url at all",
        "",
    ]
    got = canonicalize_urls(pa.array(urls, pa.string())).to_pylist()
    exp = [strip_tracking_params(u) for u in urls]
    assert got == exp
    # all-eligible batch exercises the pure-Arrow early return
    fast_only = [u for u in urls[:19]]  # everything before the fallback shapes
    got2 = canonicalize_urls(pa.array(fast_only, pa.string())).to_pylist()
    assert got2 == [strip_tracking_params(u) for u in fast_only]


def test_canonical_url_counts(ray_session):
    import pandas as pd

    import ray.data as rd
    from pmocr_ray.ops.text import canonical_url_counts

    df = pd.DataFrame({"url": [
        "https://a.x/p", "https://a.x/p?utm_source=f", "HTTPS://A.X/p#z",
        "https://b.x/q?id=7", "https://b.x/q?id=7&gclid=g",
    ]})
    out = canonical_url_counts(rd.from_pandas(df).repartition(3)).to_pandas()
    got = dict(zip(out["url"], out["n_variants"]))
    assert got == {"https://a.x/p": 3, "https://b.x/q?id=7": 2}


def test_align_schemas_union(ray_session):
    import pandas as pd
    import pyarrow as pa

    import ray.data as rd
    from pmocr_ray.sources import align_schemas

    a = rd.from_arrow(pa.table({"k": pa.array([1, 2], pa.int64()),
                                "x": ["p", "q"]}))
    b = rd.from_arrow(pa.table({"k": pa.array([3], pa.int64()),
                                "y": pa.array([9.5], pa.float64())}))
    out = align_schemas([a, b], fill={"x": "<d>"}).to_pandas()
    out = out.sort_values("k").reset_index(drop=True)
    assert list(out.columns) == ["k", "x", "y"]
    assert out["x"].tolist() == ["p", "q", "<d>"]
    assert pd.isna(out["y"].iloc[0]) and out["y"].iloc[2] == 9.5


def test_rare_term_pairs_blocking(ray_session):
    import pandas as pd

    import ray.data as rd
    from pmocr_ray.ops.text import rare_term_pairs

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": [
            "common zebra common",      # zebra: docs 1,2 (df 2)
            "common zebra quark",       # quark: docs 2,3 (df 2)
            "common quark",
            "common words only",        # 'common' df 4 > max_df: no link
        ],
    })
    out = rare_term_pairs(rd.from_pandas(df).repartition(2),
                          max_df=3).to_pandas()
    got = {(r.a, r.b): r.n_shared_terms for r in out.itertuples()}
    # 'words'/'only' are df-1 singletons: no pairs from them
    assert got == {(1, 2): 1, (2, 3): 1}
    # repeated rare term inside one doc counts once
    df2 = pd.DataFrame({"doc_id": [7, 8],
                        "text": ["rare rare rare", "rare x"]})
    out2 = rare_term_pairs(rd.from_pandas(df2), max_df=3).to_pandas()
    assert {(r.a, r.b): r.n_shared_terms
            for r in out2.itertuples()} == {(7, 8): 1}


def test_rare_term_pairs_gated_plans_equivalent(ray_session, monkeypatch):
    """Force the scale plan (bloom prefilter + exact left_semi verify)
    by zeroing the broadcast gate: both plans must emit byte-identical
    pair sets on a fixture with rare AND common vocabulary."""
    import pandas as pd

    import ray.data as rd
    from pmocr_ray.ops import text as text_mod

    rng = np.random.default_rng(3)
    rows = []
    for i in range(120):
        words = ["common", "filler", "words"]
        # each doc carries 2 rare tokens drawn from a pool sized so
        # most have df 2-3 (pairs) and some are singletons
        for r in rng.integers(0, 90, 2):
            words.append(f"rare{r}")
        rng.shuffle(words)
        rows.append((i, " ".join(words)))
    df = pd.DataFrame(rows, columns=["doc_id", "text"])

    def run() -> pd.DataFrame:
        return (text_mod.rare_term_pairs(
            rd.from_pandas(df).repartition(4), max_df=3)
            .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))

    broadcast_plan = run()
    assert len(broadcast_plan) > 0  # fixture really produces pairs
    monkeypatch.setattr(text_mod, "RARE_TERM_BROADCAST_GATE", 0)
    join_plan = run()
    pd.testing.assert_frame_equal(broadcast_plan, join_plan)
