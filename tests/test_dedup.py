"""Dedup operator tests: exact, MinHash-LSH, SimHash, embedding-cosine.

Near-dup tests plant known duplicates (exact copies, small edits) in a
synthetic corpus and assert the planted pairs are found and the
unrelated docs are not.
"""

import numpy as np
import pyarrow as pa
import pytest

import ray.data as rd

from pmocr_ray.ops.dedup import (
    connected_components,
    embedding_dedup_pairs,
    embedding_dedup_pairs_lsh,
    exact_dedup,
    jaccard,
    minhash_dedup_pairs,
    simhash_dedup_pairs,
)

BASE = ("the quick brown fox jumps over the lazy dog while the cat watches "
        "from the warm windowsill and the birds sing in the garden trees")
EDIT = BASE.replace("warm windowsill", "cold doorstep")  # near-dup of BASE
OTHER = ("completely different content about distributed query engines "
         "processing parquet shards with vectorized arrow kernels at scale "
         "nothing in common with the animal story above")


@pytest.fixture(scope="module")
def corpus(ray_session):
    rows = [
        {"doc_id": 0, "text": BASE},
        {"doc_id": 1, "text": BASE},          # exact dup of 0
        {"doc_id": 2, "text": EDIT},          # near dup of 0/1
        {"doc_id": 3, "text": OTHER},
        {"doc_id": 4, "text": OTHER + " extra tail words"},  # near dup of 3
        {"doc_id": 5, "text": "tiny"},
        {"doc_id": 6, "text": "the engine processes web pages and extracts "
                              "main content spans deterministically"},
    ]
    return rd.from_items(rows)


def test_exact_dedup(corpus):
    out = {r["fp"]: r for r in exact_dedup(corpus).take_all()}
    dup_groups = [r for r in out.values() if r["n_dups"] > 1]
    assert len(dup_groups) == 1
    assert dup_groups[0]["keep_id"] == 0 and dup_groups[0]["n_dups"] == 2
    assert len(out) == 6  # 6 distinct texts


def test_jaccard_kernel():
    assert jaccard(BASE, BASE) == 1.0
    assert jaccard(BASE, EDIT) > 0.7
    assert jaccard(BASE, OTHER) < 0.1
    assert jaccard("", "") == 1.0
    assert jaccard("a b c", "a b c", char_level=True) == 1.0


def test_minhash_finds_planted_pairs(corpus):
    pairs = {(r["a"], r["b"]) for r in
             minhash_dedup_pairs(corpus, threshold=0.5).take_all()}
    assert (0, 1) in pairs          # exact dup always found
    assert (0, 2) in pairs or (1, 2) in pairs  # near dup found
    assert (3, 4) in pairs
    for a, b in pairs:              # no false positives across topics
        assert not ({a, b} & {0, 1, 2} and {a, b} & {3, 4, 5, 6})


def test_minhash_exact_pair_jaccard_is_one(corpus):
    rows = minhash_dedup_pairs(corpus, threshold=0.5).take_all()
    j = {(r["a"], r["b"]): r["jaccard"] for r in rows}
    assert j[(0, 1)] == 1.0


def test_hot_bucket_star_emit(ray_session):
    """A degenerate cluster (120 identical docs) must not explode into
    n² pairs: hot buckets emit a star (min-id hub), preserving
    connectivity for union-find at O(n) pairs."""
    same = "identical degenerate content repeated everywhere " * 4
    rows = [{"doc_id": i, "text": same} for i in range(120)]
    rows += [{"doc_id": 200, "text": OTHER}]
    ds = rd.from_items(rows)
    pairs = [(r["a"], r["b"]) for r in
             minhash_dedup_pairs(ds, threshold=0.8, concurrency=2).take_all()]
    # star shape: exactly n-1 pairs, all anchored at the min id
    assert len(pairs) == 119
    assert all(a == 0 for a, b in pairs)
    cc = connected_components(pairs)
    assert len({cc[i] for i in range(120)}) == 1  # one cluster
    assert 200 not in cc


def test_connected_components():
    cc = connected_components([(0, 1), (1, 2), (3, 4)])
    assert cc[0] == cc[1] == cc[2] == 0
    assert cc[3] == cc[4] == 3


def test_simhash_finds_exact_and_near(corpus):
    rows = simhash_dedup_pairs(corpus, max_distance=6).take_all()
    pairs = {(r["a"], r["b"]): r["distance"] for r in rows}
    assert pairs.get((0, 1)) == 0   # identical -> distance 0
    assert (3, 4) in pairs          # near dup within hamming budget
    assert all(not ({a, b} & {0, 1, 2} and {a, b} & {3, 4, 5, 6})
               for a, b in pairs)


def test_simhash_md5_word_hash_oracle_regime(corpus):
    """The md5 word-hash regime (the SQL-oracle twin): signatures are
    little-endian md5 first-8-bytes — DuckDB's md5_number_upper —
    and the banded pair set must equal the brute-force Hamming
    self-join over locally recomputed signatures."""
    import duckdb

    rows = simhash_dedup_pairs(corpus, max_distance=3, word_hash="md5",
                               max_bucket=1 << 20).take_all()
    engine = {(r["a"], r["b"]): r["distance"] for r in rows}

    docs = [(r["doc_id"], r["text"]) for r in corpus.take_all()]
    con = duckdb.connect()
    con.execute("CREATE TABLE documents(doc_id BIGINT, text VARCHAR)")
    con.executemany("INSERT INTO documents VALUES (?,?)", docs)
    sql = con.execute(r"""
        WITH words AS (
          SELECT doc_id, w FROM (
            SELECT doc_id, unnest(regexp_split_to_array(text, '\s+')) AS w
            FROM documents) WHERE w <> ''
        ), wh AS (SELECT doc_id, md5_number_upper(w) AS h FROM words),
        bits AS (
          SELECT doc_id, r.range AS bit,
                 SUM(CASE WHEN (h >> CAST(r.range AS INTEGER)) & 1 = 1
                          THEN 1 ELSE -1 END) AS acc
          FROM wh, range(64) r GROUP BY doc_id, r.range
        ), sigs AS (
          SELECT doc_id,
                 bit_or(CASE WHEN acc > 0
                             THEN CAST((CAST(1 AS HUGEINT)
                                        << CAST(bit AS INTEGER)) AS UBIGINT)
                             ELSE CAST(0 AS UBIGINT) END) AS sig
          FROM bits GROUP BY doc_id)
        SELECT x.doc_id, y.doc_id,
               CAST(bit_count(xor(x.sig, y.sig)) AS BIGINT)
        FROM sigs x JOIN sigs y ON x.doc_id < y.doc_id
        WHERE bit_count(xor(x.sig, y.sig)) <= 3""").fetchall()
    oracle = {(a, b): d for a, b, d in sql}
    assert engine == oracle
    assert engine.get((0, 1)) == 0


def test_embedding_dedup_lsh_matches_bruteforce(ray_session):
    """SRP-LSH path finds the planted near-dup pairs the brute-force
    baseline finds (exact dups always collide in every table)."""
    rng = np.random.RandomState(11)
    base = rng.randn(30, 24)
    vecs = np.vstack([base, base[3] + 1e-4 * rng.randn(24)])  # 30 == near-dup of 3
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(31), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float32())),
    }))
    brute = {(r["a"], r["b"]) for r in
             embedding_dedup_pairs(ds, threshold=0.98).take_all()}
    lsh = {(r["a"], r["b"]) for r in
           embedding_dedup_pairs_lsh(ds, threshold=0.98,
                                     n_planes=8, n_tables=8).take_all()}
    assert (3, 30) in brute
    assert lsh == brute  # near-identical vectors collide w.h.p. in 8 tables


def test_embedding_dedup(ray_session):
    rng = np.random.RandomState(7)
    base = rng.randn(4, 16)
    vecs = np.vstack([
        base[0], base[0] + 0.01 * rng.randn(16),  # planted near-dup pair (0,1)
        base[1], base[2], base[3],
    ])
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(5), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float32())),
    }))
    pairs = {(r["a"], r["b"]): r["cosine"]
             for r in embedding_dedup_pairs(ds, threshold=0.95).take_all()}
    assert (0, 1) in pairs and pairs[(0, 1)] > 0.99
    assert all(p == (0, 1) for p in pairs)


def test_exact_dup_pairs_hot_group_star(ray_session):
    """A degenerate corpus (one text repeated 1000x) emits O(n) star
    pairs to the group minimum, not O(n^2) — the hot-key guard; small
    groups still emit all pairs."""
    from pmocr_ray.ops.dedup import exact_dup_pairs

    n = 1000
    t = pa.table({
        "doc_id": pa.array(list(range(n)) + [5000, 5001, 5002], pa.int64()),
        "text": ["same text repeated"] * n + ["uniq a", "uniq b", "uniq a"],
    })
    rows = exact_dup_pairs(rd.from_arrow(t), max_group=64).take_all()
    star = [(r["a"], r["b"]) for r in rows if r["b"] < 5000]
    small = [(r["a"], r["b"]) for r in rows if r["b"] >= 5000]
    # hot group: exactly n-1 pairs, all anchored at the min id
    assert len(star) == n - 1
    assert {a for a, _ in star} == {0}
    # small group ("uniq a" twice): the one all-pairs row
    assert small == [(5000, 5002)]
    # connectivity for keep/drop decisions is preserved
    roots = connected_components(star)
    assert all(roots[b] == 0 for _, b in star)


def test_dup_span_stats_cross_doc_grams(ray_session):
    from pmocr_ray.ops.dedup import dup_span_stats
    shared = "the quick brown fox"          # 4-gram shared by docs 1 and 2
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": [shared + " jumps high", "so " + shared + " runs",
                 "totally different words here now", "short"],
    })
    out = dup_span_stats(rd.from_arrow(t).repartition(3), n=4) \
        .to_pandas().set_index("doc_id").sort_index()
    # doc 1: grams {the..fox, quick..jumps, brown..high}; only the shared
    # one recurs (in doc 2)
    assert out.loc[1, "n_grams"] == 3 and out.loc[1, "n_dup_grams"] == 1
    assert out.loc[2, "n_grams"] == 3 and out.loc[2, "n_dup_grams"] == 1
    assert out.loc[3, "n_grams"] == 2 and out.loc[3, "n_dup_grams"] == 0
    # <n tokens -> zero grams, still present in the output
    assert out.loc[4, "n_grams"] == 0 and out.loc[4, "n_dup_grams"] == 0


def test_dup_span_stats_within_doc_repeat_not_dup(ray_session):
    from pmocr_ray.ops.dedup import dup_span_stats
    # the same 2-gram repeated INSIDE one doc is one distinct gram with
    # global count 1 -> not a cross-doc duplicate
    t = pa.table({"doc_id": pa.array([1], pa.int64()),
                  "text": ["ab cd ab cd"]})
    out = dup_span_stats(rd.from_arrow(t), n=2).to_pandas()
    assert out.loc[0, "n_grams"] == 2      # {"ab cd", "cd ab"}
    assert out.loc[0, "n_dup_grams"] == 0


def test_exact_dup_pairs_hot_star_and_null_groups(ray_session):
    """Pair emission must match the per-group reference semantics:
    all-pairs for small clusters, star emit above max_group, and null
    content forming its own cluster (pandas would silently drop NaN
    groupby keys — this pins the sentinel handling)."""
    import pyarrow as pa
    import ray.data as rd

    from pmocr_ray.ops.dedup import exact_dup_pairs

    texts, ids = [], []
    for i in range(5):
        ids.append(100 + i); texts.append("dup-a content")
    for i in range(70):  # > max_group=64 → star
        ids.append(200 + i); texts.append("dup-b content")
    for i in range(3):
        ids.append(300 + i); texts.append(None)
    for i in range(10):
        ids.append(400 + i); texts.append(f"unique {i}")
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(ids, pa.int64()),
        "text": pa.array(texts, pa.string())})).repartition(5)
    out = exact_dup_pairs(ds).to_pandas()
    got = set(zip(out["a"], out["b"]))
    exp = set()
    a_ids = list(range(100, 105))
    exp |= {(a, b) for i, a in enumerate(a_ids) for b in a_ids[i + 1:]}
    b_ids = list(range(200, 270))
    exp |= {(b_ids[0], b) for b in b_ids[1:]}
    n_ids = list(range(300, 303))
    exp |= {(a, b) for i, a in enumerate(n_ids) for b in n_ids[i + 1:]}
    assert got == exp


def test_remove_dup_spans_keeps_global_first(ray_session):
    from pmocr_ray.ops.dedup import remove_dup_spans
    shared = "a b c d"                      # duplicated 4-gram
    t = pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "text": ["x " + shared + " y",      # first occurrence (pos 1)
                 shared + " tail words",    # later occurrence -> removed
                 "untouched sentence here"],
    })
    out = remove_dup_spans(rd.from_arrow(t).repartition(3), n=4) \
        .to_pandas().set_index("doc_id").sort_index()
    assert out.loc[1, "text_clean"] == "x a b c d y"
    # doc 2 loses the 4 covered words but keeps the rest
    assert out.loc[2, "text_clean"] == "tail words"
    assert out.loc[3, "text_clean"] == "untouched sentence here"


def test_remove_dup_spans_within_doc_repeat_removed(ray_session):
    from pmocr_ray.ops.dedup import remove_dup_spans
    # the same 2-gram occurring twice INSIDE one doc: second occurrence
    # is covered, first survives (occurrence-count semantics, unlike
    # dup_span_stats' distinct-gram-per-doc counting)
    t = pa.table({"doc_id": pa.array([7], pa.int64()),
                  "text": ["p q z p q"]})
    out = remove_dup_spans(rd.from_arrow(t), n=2).to_pandas()
    assert out.loc[0, "text_clean"] == "p q z"


def test_remove_dup_spans_full_consumption_and_short_docs(ray_session):
    from pmocr_ray.ops.dedup import remove_dup_spans
    dup = "w1 w2 w3"
    t = pa.table({
        "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
        "text": [dup, dup,                  # doc 2 fully consumed
                 "tiny",                    # < n tokens: no grams
                 "  spaced   out  "],       # whitespace normalization only
    })
    out = remove_dup_spans(rd.from_arrow(t).repartition(2), n=3) \
        .to_pandas().set_index("doc_id").sort_index()
    assert out.loc[1, "text_clean"] == dup
    assert out.loc[2, "text_clean"] == ""   # row kept, text emptied
    assert out.loc[3, "text_clean"] == "tiny"
    assert out.loc[4, "text_clean"] == "spaced out"


def test_remove_dup_spans_no_duplicates_identity(ray_session):
    from pmocr_ray.ops.dedup import remove_dup_spans
    t = pa.table({"doc_id": pa.array([1, 2], pa.int64()),
                  "text": ["alpha beta gamma", "delta epsilon zeta"]})
    out = remove_dup_spans(rd.from_arrow(t), n=2).to_pandas() \
        .set_index("doc_id").sort_index()
    assert out.loc[1, "text_clean"] == "alpha beta gamma"
    assert out.loc[2, "text_clean"] == "delta epsilon zeta"


def test_remove_dup_spans_overlapping_windows_union_cover(ray_session):
    from pmocr_ray.ops.dedup import remove_dup_spans
    # doc 2 repeats a 5-word span; with n=4 the two duplicated 4-grams
    # overlap — covered positions are the UNION, so all 5 words go
    span = "v w x y z"
    t = pa.table({
        "doc_id": pa.array([1, 2], pa.int64()),
        "text": [span + " first", "pre " + span + " post"],
    })
    out = remove_dup_spans(rd.from_arrow(t).repartition(2), n=4) \
        .to_pandas().set_index("doc_id").sort_index()
    assert out.loc[1, "text_clean"] == "v w x y z first"
    assert out.loc[2, "text_clean"] == "pre post"


def test_remove_dup_spans_partition_invariant(ray_session):
    from pmocr_ray.ops.dedup import remove_dup_spans
    rng = np.random.default_rng(11)
    vocab = [f"t{i}" for i in range(30)]
    texts = [" ".join(rng.choice(vocab, size=rng.integers(4, 40)))
             for _ in range(60)]
    t = pa.table({"doc_id": pa.array(range(60), pa.int64()),
                  "text": texts})
    a = remove_dup_spans(rd.from_arrow(t), n=3).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    b = remove_dup_spans(rd.from_arrow(t).repartition(13), n=3) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)


def test_minhash_batch_kernel_matches_scalar_signature_path():
    """The vectorized batch kernel (segmented mins over concatenated
    shingle hashes) must reproduce the scalar ``signature()`` reference
    path exactly — signatures feed band buckets, and bucket identity is
    what the LSH shuffle keys on."""
    from pmocr_ray.ops.dedup import MinHashStage, _mix_band

    rng = np.random.default_rng(3)
    vocab = [f"tok{i}" for i in range(200)]
    texts = [" ".join(rng.choice(vocab, size=int(k)))
             for k in rng.integers(0, 120, size=80)]
    texts += ["", "one", "one two", "one two three"]
    st = MinHashStage()
    batch = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
    })
    out = st(batch)
    got = {}
    for d, band, bucket in zip(out["doc_id"].to_pylist(),
                               out["band"].to_pylist(),
                               out["bucket"].to_pylist()):
        got.setdefault(d, {})[band] = bucket
    rpb = st.rows_per_band
    for i, t in enumerate(texts):
        sig = st.signature(t)
        if sig is None:
            assert i not in got  # empty doc emits no band rows
            continue
        for band in range(st.n_bands):
            exp = int(_mix_band(
                [sig[band * rpb + j : band * rpb + j + 1]
                 for j in range(rpb)])[0])
            exp = exp - (1 << 64) if exp >= (1 << 63) else exp
            assert got[i][band] == exp, (i, band)


def test_simhash_batch_kernel_matches_scalar_reference():
    """The unpackbits + segmented ones-count kernel must be
    bit-identical to a direct per-word ±1 vote accumulation, in both
    word-hash regimes, across empty/short/>255-word docs (the int8
    overflow trap)."""
    import hashlib

    from pmocr_ray.ops.dedup import SimHashStage, _hash64

    def scalar(texts, whash):
        sigs = []
        for t in texts:
            acc = [0] * 64
            for w in t.split():
                h = whash(w.encode())
                for i in range(64):
                    acc[i] += 1 if (h >> i) & 1 else -1
            sigs.append(sum(1 << i for i in range(64) if acc[i] > 0))
        return sigs

    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(50)]
    texts = [" ".join(rng.choice(vocab, size=int(k)))
             for k in rng.integers(0, 80, size=40)]
    texts += ["", "solo", "a " * 300]  # 300 words: overflows int8 votes
    batch = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
    })
    for mode, whash in [
        ("blake2b", _hash64),
        ("md5", lambda b: int.from_bytes(
            hashlib.md5(b).digest()[:8], "little")),
    ]:
        st = SimHashStage(word_hash=mode)
        out = st(batch)
        got = dict(zip(out["doc_id"].to_pylist(), out["sig"].to_pylist()))
        for i, exp in enumerate(scalar(texts, whash)):
            assert got[i] == exp, (mode, i)


def test_semdedup_prunes_within_cluster_keep_first(ray_session):
    from pmocr_ray.ops.dedup import semdedup

    rng = np.random.default_rng(9)
    # two well-separated cluster directions; near-dups planted in each
    c0 = rng.normal(size=16); c1 = -c0
    def jitter(base, eps):
        v = base + eps * rng.normal(size=16)
        return (v / np.linalg.norm(v)).tolist()
    rows = [
        {"vec_id": 0, "embedding": jitter(c0, 0.01)},
        {"vec_id": 1, "embedding": jitter(c0, 0.01)},   # near-dup of 0
        {"vec_id": 2, "embedding": jitter(c0, 3.0)},    # same cell, far
        {"vec_id": 3, "embedding": jitter(c1, 0.01)},
        {"vec_id": 4, "embedding": jitter(c1, 0.01)},   # near-dup of 3
        {"vec_id": 5, "embedding": jitter(c1, 3.0)},
    ]
    out = {r["vec_id"]: r for r in semdedup(
        rd.from_items(rows), k=2, threshold=0.9,
        centroids=np.stack([c0, c1])).take_all()}
    assert not out[0]["dropped"] and out[1]["dropped"]   # keep-first
    assert not out[3]["dropped"] and out[4]["dropped"]
    assert not out[2]["dropped"] and not out[5]["dropped"]
    assert out[0]["cell"] == out[1]["cell"] == out[2]["cell"]
    assert out[3]["cell"] == out[4]["cell"] != out[0]["cell"]


def test_semdedup_chunked_path_and_partition_invariance(ray_session):
    from pmocr_ray.ops.dedup import semdedup

    rng = np.random.default_rng(10)
    base = rng.normal(size=(5, 12))
    rows = [{"vec_id": i,
             "embedding": (base[i % 5] + 0.02 * rng.normal(size=12)).tolist()}
            for i in range(60)]

    def run(ds, chunk):
        return (semdedup(ds, k=4, threshold=0.95, chunk=chunk)
                .to_pandas().sort_values("vec_id").reset_index(drop=True))

    a = run(rd.from_items(rows), chunk=2048)
    b = run(rd.from_items(rows).repartition(7), chunk=3)  # force blocks
    assert a.equals(b)
    # keep-first: the smallest vec_id of every (cell, near-dup family)
    # survives, and every cluster keeps at least one member
    kept = a[~a["dropped"]]
    assert kept["vec_id"].min() == 0
    assert set(kept["cell"]) == set(a["cell"])


def test_lsh_singleton_pruned_and_full_selfjoin_paths_agree(
        ray_session, monkeypatch):
    """The broadcast singleton-pruning fast path and the full self-join
    scale path of lsh_candidate_pairs must emit the same verified pair
    set — including star-emitted hot buckets."""
    import pmocr_ray.ops.dedup as D

    same = "identical degenerate content repeated everywhere " * 4
    rows = [{"doc_id": i, "text": same} for i in range(120)]
    rows += [{"doc_id": 200, "text": BASE},
             {"doc_id": 201, "text": BASE},
             {"doc_id": 202, "text": EDIT},
             {"doc_id": 203, "text": OTHER}]
    ds = rd.from_items(rows)
    fast = {(r["a"], r["b"]) for r in
            minhash_dedup_pairs(ds, threshold=0.5).take_all()}
    monkeypatch.setattr(D, "_DRIVER_PAIR_ROWS", 0)
    grouped = {(r["a"], r["b"]) for r in
               minhash_dedup_pairs(ds, threshold=0.5).take_all()}
    monkeypatch.setattr(D, "_MULTI_BUCKET_BROADCAST_LIMIT", 0)
    full = {(r["a"], r["b"]) for r in
            minhash_dedup_pairs(ds, threshold=0.5).take_all()}
    assert fast == grouped == full
    assert (200, 201) in fast


def test_lsh_all_unique_corpus_yields_empty_pairs(ray_session):
    """No multi-member bucket at all: the fast path must skip the
    self-join (an all-empty partition breaks acero) and still return
    an empty (a, b) pair set with a stable schema."""
    rows = [{"doc_id": i, "text": f"unique document number {i} about "
                                  f"topic {i * 17} with words {i * 31}"}
            for i in range(20)]
    out = minhash_dedup_pairs(rd.from_items(rows), threshold=0.5)
    tbl = pa.Table.from_pylist(out.take_all())
    assert len(tbl) == 0


def test_minhash_checkpoint_spill_path_matches_inmemory(corpus, tmp_path):
    """``checkpoint_dir`` (the band-rows-exceed-object-store scale
    route: spill to parquet instead of pinning) must be a pure physical
    substitution — identical verified pairs, identical jaccards."""
    from pmocr_ray.ops.dedup import minhash_dedup_pairs

    mem = {(r["a"], r["b"]): r["jaccard"] for r in
           minhash_dedup_pairs(corpus, threshold=0.5).take_all()}
    spill_dir = str(tmp_path / "band_ckpt")
    spilled = {(r["a"], r["b"]): r["jaccard"] for r in
               minhash_dedup_pairs(corpus, threshold=0.5,
                                   checkpoint_dir=spill_dir).take_all()}
    assert spilled == mem
    import os
    assert os.path.isdir(spill_dir)  # the spill actually happened


def test_embedding_lsh_join_verify_path_matches_broadcast(ray_session):
    """Above the broadcast gate the verify runs as a blob-encoded hash
    join (``max_broadcast_rows`` exceeded — the 100 TB route); forcing
    the gate to 0 on a small corpus must yield the broadcast path's
    exact (a, b, cosine) rows."""
    rng = np.random.RandomState(23)
    base = rng.randn(20, 16)
    vecs = np.vstack([base, base[5] + 1e-4 * rng.randn(16)])
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(21), pa.int64()),
        "embedding": pa.array([v.tolist() for v in vecs],
                              pa.list_(pa.float32())),
    }))

    def rows(max_rows):
        return sorted(
            (r["a"], r["b"], round(r["cosine"], 9)) for r in
            embedding_dedup_pairs_lsh(ds, threshold=0.98, n_planes=6,
                                      n_tables=8,
                                      max_broadcast_rows=max_rows)
            .take_all())

    broadcast = rows(100_000)
    joined = rows(0)
    assert joined == broadcast
    assert any(a == 5 and b == 20 for a, b, _ in broadcast)


def test_attach_pair_sides_join_route_matches_broadcast(ray_session, corpus):
    """Forcing the pair-id gate to 0 sends the verify through the two
    hash joins (the 100 TB route); the verified pair rows must match
    the broadcast-attach route exactly."""
    import pmocr_ray.ops.dedup as D

    def rows():
        return sorted(
            (r["a"], r["b"], round(r["jaccard"], 9)) for r in
            minhash_dedup_pairs(corpus, threshold=0.5).take_all())

    broadcast = rows()
    orig = D.PAIR_ID_BROADCAST_GATE
    D.PAIR_ID_BROADCAST_GATE = 0
    try:
        joined = rows()
    finally:
        D.PAIR_ID_BROADCAST_GATE = orig
    assert joined == broadcast and len(broadcast) > 0


def test_embedding_bruteforce_guard_raises_over_max_rows(ray_session):
    rng = np.random.RandomState(3)
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(8), pa.int64()),
        "embedding": pa.array([rng.randn(4).tolist() for _ in range(8)],
                              pa.list_(pa.float32())),
    }))
    import pytest as _pytest

    with _pytest.raises(ValueError, match="embedding_dedup_pairs_lsh"):
        embedding_dedup_pairs(ds, threshold=0.9, max_rows=4).take_all()
