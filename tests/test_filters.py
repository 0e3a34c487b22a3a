"""Tests for the Gopher/C4-style web-text quality filters and the
NTILE equal-frequency bucketing operator."""

import duckdb
import numpy as np
import pyarrow as pa

import ray.data as rd

from pmocr_ray.ops.filters import c4_line_filter, gopher_quality
from pmocr_ray.ops.pack import ntile_buckets


# --------------------------------------------------------------- gopher

def _gopher_one(text, **kw):
    t = pa.table({"doc_id": [1], "text": [text]})
    return {c: v[0] for c, v in gopher_quality(t, **kw).to_pydict().items()}


def test_gopher_counts_and_verdict():
    good = "the quick brown fox jumps over a lazy dog " * 10  # 90 words
    r = _gopher_one(good)
    assert r["n_words"] == 90
    assert r["n_lines"] == 1
    assert r["keep"] is True


def test_gopher_too_short():
    r = _gopher_one("only four short words")
    assert r["n_words"] == 4 and r["keep"] is False


def test_gopher_bullet_heavy():
    # every line a bullet -> bullet fraction 100% > 90% cap
    text = "\n".join("- item number %d here today" % i for i in range(60))
    r = _gopher_one(text)
    assert r["n_bullet_lines"] == 60 and r["n_lines"] == 60
    assert r["keep"] is False
    # same doc without bullets passes
    r2 = _gopher_one(text.replace("- ", ""))
    assert r2["n_bullet_lines"] == 0 and r2["keep"] is True


def test_gopher_ellipsis_and_alpha():
    base = "solid words " * 30
    dots = "\n".join([base] + ["trailing off..."] * 5)
    r = _gopher_one(dots)
    assert r["n_ellipsis_lines"] == 5
    # 5/6 lines ellipsis-terminated > 30% cap
    assert r["keep"] is False
    numeric = "12345 67890 " * 30  # zero alphabetic words
    assert _gopher_one(numeric)["n_alpha_words"] == 0
    assert _gopher_one(numeric)["keep"] is False


def test_gopher_mean_word_length_bounds():
    # mean word length 1 (< 3) fails; ~5 passes
    short = "a b c d e " * 20
    assert _gopher_one(short)["keep"] is False
    long_words = ("pneumonoultramicroscopic " * 60)  # mean 24 > 10
    assert _gopher_one(long_words)["keep"] is False


def test_gopher_null_text():
    t = pa.table({"doc_id": [1], "text": pa.array([None], pa.string())})
    r = gopher_quality(t).to_pydict()
    assert r["n_words"][0] == 0 and r["keep"][0] is False


# ------------------------------------------------------------------- c4

def test_c4_default_rules_reassembly():
    doc = "\n".join([
        "This line has enough words to pass easily.",   # keep
        "too short.",                                    # < 5 words
        "no terminal punctuation on this line here",     # no punct
        'A quoted ending with five words "',             # keep (quote)
        "Another proper sentence with many words!",      # keep
    ])
    t = pa.table({"doc_id": [7], "text": [doc]})
    out = c4_line_filter(t).to_pydict()
    assert out["n_lines"][0] == 5
    assert out["n_kept_lines"][0] == 3
    assert out["kept_text"][0] == (
        "This line has enough words to pass easily.\n"
        'A quoted ending with five words "\n'
        "Another proper sentence with many words!")
    assert out["keep"][0] is True


def test_c4_doc_level_drops():
    ok = "\n".join(["A good line with plenty of words."] * 4)
    lorem = ok + "\nSome Lorem Ipsum filler text here."
    brace = ok + "\nfunction f() { return 1; }"
    t = pa.table({"doc_id": [1, 2, 3], "text": [ok, lorem, brace]})
    out = c4_line_filter(t).to_pydict()
    assert out["keep"] == [True, False, False]


def test_c4_empty_and_no_keeps():
    t = pa.table({"doc_id": [1, 2],
                  "text": ["", "nothing here matches at all"]})
    out = c4_line_filter(t).to_pydict()
    assert out["n_kept_lines"] == [0, 0]
    assert out["kept_text"] == ["", ""]
    assert out["keep"] == [False, False]


def test_c4_matches_duckdb_on_fixture():
    con = duckdb.connect()
    docs = con.execute("""
        SELECT * FROM read_parquet(
          '/root/testdata/sf0.001/documents.parquet') LIMIT 80""").arrow()
    import pyarrow.compute as pc

    t2 = pa.table({"doc_id": docs["doc_id"],
                   "text": pc.replace_substring_regex(
                       docs["text"], r"((?:\S+ ){7}\S+) ", "\\1\n")})
    mine = c4_line_filter(
        t2, line_keep_re=r"(?:^|[ \t])table(?:[ \t]|$)",
        min_line_words=8, min_kept_lines=2).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    con.register("d2", t2)
    oracle = con.execute(r"""
        WITH f AS (
          SELECT doc_id,
            CAST(len(split(text, chr(10))) AS BIGINT) AS n_lines,
            list_filter(split(text, chr(10)),
              l -> regexp_matches(l, '(?:^|[ \t])table(?:[ \t]|$)')
                   AND len(regexp_extract_all(l, '\S+')) >= 8) AS kept,
            text FROM d2)
        SELECT doc_id, n_lines, CAST(len(kept) AS BIGINT) AS n_kept_lines,
               COALESCE(array_to_string(kept, chr(10)), '') AS kept_text,
               (len(kept) >= 2 AND NOT contains(lower(text), 'lorem ipsum')
                AND NOT contains(text, '{')) AS keep
        FROM f ORDER BY doc_id""").df()
    for c in ["n_lines", "n_kept_lines", "kept_text", "keep"]:
        assert (mine[c].to_numpy() == oracle[c].to_numpy()).all(), c


# ---------------------------------------------------------------- ntile

def test_ntile_exact_sql_semantics():
    # N=10, k=4 -> bucket sizes 3,3,2,2 (first N%k buckets get the extra)
    t = pa.table({"doc_id": list(range(10)),
                  "n_chars": [5, 3, 8, 1, 9, 2, 7, 4, 6, 0]})
    out = (ntile_buckets(rd.from_arrow(t), 4, part_width=2)
           .to_pandas().sort_values("rnk").reset_index(drop=True))
    assert out["rnk"].tolist() == list(range(1, 11))
    assert out["bucket"].tolist() == [1, 1, 1, 2, 2, 2, 3, 3, 4, 4]
    # ordered by n_chars asc
    assert out["n_chars"].is_monotonic_increasing


def test_ntile_ties_break_on_key():
    t = pa.table({"doc_id": [3, 1, 2], "n_chars": [5, 5, 5]})
    out = (ntile_buckets(rd.from_arrow(t), 3, part_width=100)
           .to_pandas().sort_values("rnk"))
    assert out["doc_id"].tolist() == [1, 2, 3]


def test_ntile_partition_invariance():
    rng = np.random.default_rng(7)
    n = 500
    t = pa.table({"doc_id": np.arange(n),
                  "n_chars": rng.integers(0, 300, n)})
    a = (ntile_buckets(rd.from_arrow(t), 8, part_width=16)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    b = (ntile_buckets(rd.from_arrow(t).repartition(13), 8, part_width=64)
         .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert (a["rnk"].to_numpy() == b["rnk"].to_numpy()).all()
    assert (a["bucket"].to_numpy() == b["bucket"].to_numpy()).all()


# ------------------------------------- domain reweight / posting lists

def test_domain_reweight_balances_groups():
    from pmocr_ray.ops.text import domain_reweight

    # 400 'en' + 40 'de': en must shrink to ~40, de keeps everything
    t = pa.table({
        "doc_id": list(range(440)),
        "lang": ["en"] * 400 + ["de"] * 40,
    })
    out = domain_reweight(rd.from_arrow(t)).to_pandas()
    counts = out["lang"].value_counts().to_dict()
    assert counts.get("de", 0) == 40           # threshold = mod -> keep all
    assert 20 <= counts.get("en", 0) <= 60     # ~40 expected, hash jitter


def test_domain_reweight_deterministic_and_partition_invariant():
    from pmocr_ray.ops.text import domain_reweight

    t = pa.table({"doc_id": list(range(300)),
                  "lang": (["en"] * 200 + ["fr"] * 100)})
    a = domain_reweight(rd.from_arrow(t)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    b = domain_reweight(rd.from_arrow(t).repartition(7)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert (a["doc_id"].to_numpy() == b["doc_id"].to_numpy()).all()


def test_posting_lists_cap_and_df():
    from pmocr_ray.ops.text import posting_lists

    # 30 docs all containing 'common'; only doc 5 contains 'rare rare'
    texts = ["common filler words here"] * 30
    texts[5] = "common rare rare token"
    t = pa.table({"doc_id": list(range(30)), "text": texts})
    out = posting_lists(rd.from_arrow(t), cap=10).to_pandas() \
        .set_index("term")
    assert out.loc["common", "df"] == 30
    # capped at the 10 smallest doc ids, df still exact
    assert out.loc["common", "postings"] == ",".join(map(str, range(10)))
    assert out.loc["rare", "df"] == 1          # distinct docs, not occurrences
    assert out.loc["rare", "postings"] == "5"


def test_posting_lists_cross_batch_merge():
    from pmocr_ray.ops.text import posting_lists

    # high doc_ids appear in a different partition than low ones; merge
    # must still keep the globally smallest ids
    t = pa.table({"doc_id": [100, 101, 1, 2, 3],
                  "text": ["x shared", "x", "x shared", "x", "x"]})
    out = posting_lists(rd.from_arrow(t).repartition(3), cap=3).to_pandas() \
        .set_index("term")
    assert out.loc["x", "df"] == 5
    assert out.loc["x", "postings"] == "1,2,3"
    assert out.loc["shared", "postings"] == "1,100"


# -------------------------------- chunking / self-dedup / split assign

def test_chunk_tokens_windows_and_tail():
    from pmocr_ray.ops.pack import chunk_tokens

    # 10 tokens, window 4, stride 3 -> starts 0,3,6 (start 6 covers the
    # last token, so no redundant 4th chunk); lens 4,4,4
    text = " ".join(f"t{i}" for i in range(10))
    t = pa.table({"doc_id": [1, 2, 3],
                  "text": [text, "a b", ""]})
    out = (chunk_tokens(rd.from_arrow(t), window=4, stride=3)
           .to_pandas().sort_values(["doc_id", "chunk_idx"])
           .reset_index(drop=True))
    d1 = out[out.doc_id == 1]
    assert d1["chunk_idx"].tolist() == [0, 1, 2]
    assert d1["n_tokens"].tolist() == [4, 4, 4]
    assert d1["chunk_text"].tolist()[0] == "t0 t1 t2 t3"
    assert d1["chunk_text"].tolist()[2] == "t6 t7 t8 t9"
    # 11 tokens -> starts 0,3,6,9 with a short tail chunk
    t11 = pa.table({"doc_id": [4],
                    "text": [" ".join(f"t{i}" for i in range(11))]})
    tail = (chunk_tokens(rd.from_arrow(t11), window=4, stride=3)
            .to_pandas().sort_values("chunk_idx"))
    assert tail["n_tokens"].tolist() == [4, 4, 4, 2]
    assert tail["chunk_text"].tolist()[3] == "t9 t10"
    # short doc -> one chunk; empty doc -> zero chunks
    assert out[out.doc_id == 2]["chunk_text"].tolist() == ["a b"]
    assert len(out[out.doc_id == 3]) == 0


def test_chunk_tokens_overlap_content():
    from pmocr_ray.ops.pack import chunk_tokens

    text = "w0 w1 w2 w3 w4 w5"
    t = pa.table({"doc_id": [9], "text": [text]})
    out = (chunk_tokens(rd.from_arrow(t), window=4, stride=2)
           .to_pandas().sort_values("chunk_idx"))
    assert out["chunk_text"].tolist() == ["w0 w1 w2 w3", "w2 w3 w4 w5"]


def test_split_assign_proportions_and_determinism():
    from pmocr_ray.ops.text import split_assign

    t = pa.table({"doc_id": list(range(2000))})
    a = split_assign(rd.from_arrow(t)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    counts = a["split"].value_counts().to_dict()
    assert 1500 < counts["train"] < 1700      # ~80%
    assert 120 < counts["val"] < 280          # ~10%
    assert 120 < counts["test"] < 280         # ~10%
    b = split_assign(rd.from_arrow(t).repartition(11)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert (a["split"].to_numpy() == b["split"].to_numpy()).all()


def test_clip_outliers_bounds(ray_session):
    from pmocr_ray.ops.text import clip_outliers

    # 100 values 1..100: quantile_disc(0.05)=ceil(5)=rank 5 -> 5,
    # 0.95 -> rank 95 -> 95
    t = pa.table({"doc_id": pa.array(range(100), pa.int64()),
                  "n_chars": pa.array(range(1, 101), pa.int64())})
    out = clip_outliers(rd.from_arrow(t).repartition(4)).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert out["clipped"].min() == 5 and out["clipped"].max() == 95
    assert out.loc[49, "clipped"] == 50          # interior untouched
    assert (out[out.n_chars < 5]["clipped"] == 5).all()


def test_heavy_hitters_guarantee_under_trimming(ray_session):
    from pmocr_ray.ops.text import heavy_hitters

    # 40 distinct noise tokens + one token at 30% frequency, k=8:
    # trimming happens, yet any token with freq > N/(k+1) must survive
    # with undercount <= N/(k+1)
    docs = []
    for i in range(40):
        docs.append(f"noise{i} noise{i % 7} hh")
        docs.append("hh hh")
    t = pa.table({"text": docs})
    out = heavy_hitters(rd.from_arrow(t).repartition(5), k=8).to_pandas()
    n_total = sum(len(d.split()) for d in docs)
    true_hh = sum(d.split().count("hh") for d in docs)
    assert true_hh > n_total / 9
    r = dict(zip(out["term"], out["approx_n"]))
    assert "hh" in r
    assert r["hh"] <= true_hh
    assert true_hh - r["hh"] <= n_total / 9
    assert len(out) <= 8


def test_heavy_hitters_exact_below_k(ray_session):
    from pmocr_ray.ops.text import heavy_hitters

    t = pa.table({"text": ["a b a", "b a", "c"]})
    out = heavy_hitters(rd.from_arrow(t).repartition(3), k=64).to_pandas()
    assert dict(zip(out["term"], out["approx_n"])) == \
        {"a": 3, "b": 2, "c": 1}
