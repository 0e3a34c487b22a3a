"""Tests for the text curation ops in ``pmocr_ray/ops/text.py``: domain
reweighting, posting lists, split assignment, outlier clipping and
heavy hitters."""

import pyarrow as pa

import ray.data as rd


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


# ------------------------------- split assign / clip / heavy hitters

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
