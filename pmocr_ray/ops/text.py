"""Text analysis ops: token counting, quality scoring, language ID,
document fingerprinting, CSV-hack derived formats.

All vectorized over Arrow/pandas batches inside ``map_batches``; the
language-ID stage is a callable class (profiles built once per actor).
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray


# ------------------------------------------------------------ token stats

_WS_RE = r"\s+"


def text_stats(batch: pa.Table, column: str = "text") -> pa.Table:
    """Integer text statistics (SQL-checkable): token count, char counts.

    Token = maximal run of non-whitespace (the whitespace tokenizer a
    BPE pre-tokenizer starts from).  Vectorized: split_pattern +
    list_value_length; no Python loop.
    """
    col = batch[column]
    n_tokens = pc.count_substring_regex(col, r"\S+").cast(pa.int64())
    n_chars = pc.utf8_length(col).cast(pa.int64())
    no_space = pc.replace_substring_regex(col, _WS_RE, "")
    n_alnum = pc.utf8_length(no_space).cast(pa.int64())
    return (
        batch.append_column("n_tokens", n_tokens)
        .append_column("n_chars_total", n_chars)
        .append_column("n_chars_nospace", n_alnum)
    )


# --------------------------------------------------------- quality scoring

_STOPWORDS = frozenset(
    "the a an and or of to in is are was were be been it this that with for on".split()
)
_PUNCT_RE = re.compile(r"[^\w\s]", re.UNICODE)


def quality_score(batch: pa.Table, column: str = "text") -> pa.Table:
    """Heuristic quality signals (length, punct ratio, stopword ratio,
    mean token length) — the usual cheap pre-training filters.

    Float-valued and heuristic → validated by unit tests, not SQL.
    """
    texts = batch[column].to_pylist()
    n = len(texts)
    punct_ratio = np.zeros(n)
    stop_ratio = np.zeros(n)
    mean_tok = np.zeros(n)
    score = np.zeros(n)
    for i, t in enumerate(texts):
        if not t:
            continue
        toks = t.split()
        if not toks:
            continue
        n_punct = len(_PUNCT_RE.findall(t))
        punct_ratio[i] = n_punct / len(t)
        stop_ratio[i] = sum(1 for w in toks if w.lower() in _STOPWORDS) / len(toks)
        mean_tok[i] = sum(len(w) for w in toks) / len(toks)
        # crude composite: long-enough, some stopwords, sane token length,
        # not punctuation soup
        score[i] = (
            min(1.0, len(toks) / 50.0)
            * (1.0 - min(1.0, 4.0 * punct_ratio[i]))
            * (0.5 + min(0.5, 2.0 * stop_ratio[i]))
            * (1.0 if 2.0 <= mean_tok[i] <= 12.0 else 0.5)
        )
    return (
        batch.append_column("punct_ratio", pa.array(punct_ratio))
        .append_column("stopword_ratio", pa.array(stop_ratio))
        .append_column("mean_token_len", pa.array(mean_tok))
        .append_column("quality", pa.array(score))
    )


# ------------------------------------------------------------- language ID


class LangIdStage:
    """Character-bigram-profile language ID — stateful actor stage.

    Tiny n-gram profiles (built once per actor in ``__init__``, the
    amortized-init pattern) scored by bigram-overlap; deterministic.
    A real deployment swaps in fastText/CLD3 via the same interface.
    """

    PROFILES = {
        "en": "th he in er an re on at en nd ti es or te of ed is it al ar st to nt",
        "es": "de la os el en es ue ra as er ar al an on or ta do ción los una",
        "fr": "es le de en re nt on er te el an ai it me ou em ie ur la et",
        "de": "en er ch de ei te in nd ie ge un sch die und der das ist",
        "zh": "de shi yi bu le ren zai you ta men zhe zhong da shang ge wo",
    }

    def __init__(self) -> None:
        self.profiles = {
            lang: frozenset(p.split()) for lang, p in self.PROFILES.items()
        }
        self.langs = sorted(self.profiles)  # stable iteration order

    def _predict(self, text: str) -> str:
        if not text:
            return "und"
        sample = text[:1000].lower()
        bigrams = {sample[i : i + 2] for i in range(len(sample) - 1)}
        best_lang, best_score = "und", -1.0
        for lang in self.langs:
            prof = self.profiles[lang]
            score = len(bigrams & prof) / len(prof)
            if score > best_score:
                best_lang, best_score = lang, score
        return best_lang

    def __call__(self, batch: pa.Table) -> pa.Table:
        preds = pa.array(
            [self._predict(t) for t in batch["text"].to_pylist()], pa.string()
        )
        return batch.append_column("lang_pred", preds)


# ------------------------------------------------ rollups / quotas


def host_stats(ds, url_column: str = "url"):
    """Per-site rollup: host extracted vectorized from the url, then one
    small groupby — the domain-level aggregation every crawl-curation
    pipeline needs (per-domain caps, blocklists)."""
    from ray.data.aggregate import Count

    def add_host(batch: pa.Table) -> pa.Table:
        host = pc.extract_regex(batch[url_column], r"^[a-z+]+://(?P<host>[^/]+)")
        host = pc.struct_field(host, "host")
        return pa.table({"host": host})

    return ds.map_batches(add_host, batch_format="pyarrow").groupby(
        "host").aggregate(Count(alias_name="n_pages"))


def doc_frequency(ds, column: str = "text", k: int | None = None):
    """Document frequency per term: in how many documents does each
    (whitespace) term appear at least once — the DF side of TF-IDF.

    Fully vectorized combiner: per batch, ``list_parent_indices``
    pairs every token with its row, one local ``group_by`` dedups
    (row, term) pairs, a second counts distinct docs per term; the
    global shuffle then moves only ``(term, partial_df)`` rows.
    ``k`` adds a distributed ``sort().limit(k)`` (ties term-ascending).
    """
    from pmocr_ray.ops.vecagg import grouped_aggregate

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(batch[column], r"\s+")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        mask = pc.not_equal(flat, "")
        pairs = pa.table({"d": parent.filter(mask), "term": flat.filter(mask)})
        distinct = pairs.group_by(["d", "term"]).aggregate([])
        g = distinct.group_by("term").aggregate([([], "count_all")])
        return pa.table({"term": g["term"], "df": g["count_all"]})

    # term groups are VOCAB-scale — Arrow-bucketed merge (see vecagg)
    per_term = grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["term"], [("df", "sum", "df")],
        seed_schema=pa.schema([("term", pa.string()), ("df", pa.int64())]))
    if k is not None:
        per_term = per_term.sort(["df", "term"],
                                 descending=[True, False]).limit(k)
    return per_term


def length_histogram(ds, column: str = "n_chars", width: int = 100):
    """Histogram of an integer column in fixed-width buckets — the
    distribution snapshot (length/token-count audits) every curation
    run wants.  Vectorized bucket + per-batch local count (combiner);
    the shuffle moves only (bucket, partial_n) rows."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        bucket = pc.divide(batch[column], width)  # int/int = floor (>=0)
        g = pa.table({"bucket": bucket}).group_by("bucket").aggregate(
            [([], "count_all")])
        return pa.table({"bucket": g["bucket"], "n": g["count_all"]})

    return ds.map_batches(partial, batch_format="pyarrow").groupby(
        "bucket").aggregate(Sum("n", alias_name="n"))


def quota_by_key(ds, key_column: str, n_per_key: int,
                 order_column: str):
    """Per-key quota cap (e.g. at most N pages per host — the
    per-domain cap every crawl-curation pipeline applies): keep the
    first ``n_per_key`` rows per key in ``order_column`` order.

    Skew-resistant two-level cap: a LOCAL cap inside ``map_batches``
    first (each batch contributes at most n rows per key, so a hot key
    never ships more than n × n_batches rows into the shuffle), then
    the exact global cap per group.  Deterministic for any
    partitioning when ``order_column`` is unique per key.
    """
    import pandas as pd

    def local_cap(df: pd.DataFrame) -> pd.DataFrame:
        return (df.sort_values(order_column)
                  .groupby(key_column, sort=False).head(n_per_key))

    from pmocr_ray.ops.vecagg import _bucket_of

    def bucket(t):
        return t.append_column("_bkt", _bucket_of(t, [key_column], 32))

    def group_cap_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # all keys of the bucket capped in ONE vectorized sort+head —
        # no per-key Python call (see ops/vecagg.py)
        df = df.drop(columns=["_bkt"]).sort_values(
            [key_column, order_column], kind="mergesort")
        return df.groupby(key_column, sort=False).head(n_per_key)

    return (ds.map_batches(local_cap, batch_format="pandas")
              .map_batches(bucket, batch_format="pyarrow")
              .groupby("_bkt")
              .map_groups(group_cap_bucket, batch_format="pandas"))


# ---------------------------------------------------------- fingerprinting


def fingerprint(batch: pa.Table, column: str = "text",
                out_column: str = "fp") -> pa.Table:
    """MD5 content fingerprint (hex) — exact-dedup key and lineage digest.
    MD5 so the DuckDB oracle (``md5(text)``) can verify it bit-for-bit.
    """
    fps = pa.array(
        [hashlib.md5(t.encode("utf-8")).hexdigest() if t is not None else None
         for t in batch[column].to_pylist()],
        pa.string(),
    )
    return batch.append_column(out_column, fps)


# ------------------------------------------- url canonicalization / linking


def strip_tracking_params(url: str) -> str:
    """Canonicalize away click-tracking query params (utm_*, gclid,
    fbclid, ref) and fragments, lowercase scheme+host — the url-level
    dedup key for crawl variants of the same page."""
    from urllib.parse import parse_qsl, urlencode, urlsplit, urlunsplit

    parts = urlsplit(url)
    scheme = parts.scheme.lower()
    host = parts.netloc.lower()
    kept = [(k, v) for k, v in parse_qsl(parts.query, keep_blank_values=True)
            if not (k.startswith("utm_") or k in ("gclid", "fbclid", "ref"))]
    return urlunsplit((scheme, host, parts.path,
                       urlencode(kept) if kept else "", ""))


# Vectorized fast path for strip_tracking_params: the whole-url parse
# regex (RE2) and the query-param shape for which the Arrow transform
# is PROVABLY byte-identical to the parse_qsl/urlencode round-trip —
# keys/values in urlencode's always-safe alphabet (plus '+', which
# decodes to space and re-encodes to '+': identity), every param
# key=value (bare keys re-encode as 'key='), tracking params with any
# '&'-free value (they are removed wholesale).  Anything else — '%'
# escapes (re-encoded), ';'/'=' in values (quoted), bare non-tracking
# keys, non-ASCII, schemeless or empty-authority urls (urlsplit
# collapses their '//') — takes the per-row Python fallback.
_TRACK_RE = r"(?:utm_[^=&]*|gclid|fbclid|ref)"
_SAFE_PARAM_RE = (r"(?:[A-Za-z0-9_.~\-]+=[A-Za-z0-9_.~+\-]*|"
                  + _TRACK_RE + r"(?:=[^&]*)?)")
_URL_PARTS_RE = (r"^(?P<sh>[A-Za-z][A-Za-z0-9+.\-]*://[^/?#]+)"
                 r"(?P<path>[^?#]*)(?:\?(?P<q>[^#]*))?(?:#.*)?$")
_SAFE_QUERY_RE = rf"^(?:{_SAFE_PARAM_RE}(?:&{_SAFE_PARAM_RE})*)?$"


def canonicalize_urls(urls: "pa.Array | pa.ChunkedArray") -> pa.Array:
    """Batch :func:`strip_tracking_params`: Arrow string kernels for
    the common shapes (no query, or simple ``k=v`` params — the
    overwhelming crawl majority), per-row Python only for anomalous
    rows.  Byte-identical to the scalar function on every input
    (differential-tested in ``tests/test_curation_ops.py``)."""
    s = pc.cast(urls, pa.string())
    if isinstance(s, pa.ChunkedArray):
        s = s.combine_chunks()
    ex = pc.extract_regex(s, _URL_PARTS_RE)
    q = pc.if_else(ex.is_valid(), ex.field("q"), "")
    eligible = pc.and_(
        pc.and_(ex.is_valid(), pc.string_is_ascii(s)),
        pc.match_substring_regex(q, _SAFE_QUERY_RE))
    # Drop tracking params by EXACT per-param match: split on '&',
    # filter out elements whose WHOLE key is a tracking key (anchored
    # ^...$ on the element — a substring regex over the joined query
    # would also hit keys that merely CONTAIN a tracking name, e.g.
    # 'pref'/'xref'), rebuild each row's list, re-join with '&'.
    parts = pc.split_pattern(q, "&")
    flat = pc.list_flatten(parts)
    parent = pc.list_parent_indices(parts)
    keep = pc.invert(pc.match_substring_regex(
        flat, rf"^{_TRACK_RE}(?:=.*)?$"))
    kept_vals = flat.filter(keep)
    kept_par = parent.filter(keep).to_numpy(zero_copy_only=False)
    counts = np.bincount(kept_par, minlength=len(s)) if len(s) else \
        np.zeros(0, np.int64)
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    kept_lists = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()),
                                          kept_vals.combine_chunks()
                                          if isinstance(kept_vals,
                                                        pa.ChunkedArray)
                                          else kept_vals)
    q_clean = pc.binary_join(kept_lists, "&")
    fast = pc.binary_join_element_wise(
        pc.ascii_lower(pc.if_else(ex.is_valid(), ex.field("sh"), "")),
        pc.if_else(ex.is_valid(), ex.field("path"), ""),
        pc.if_else(pc.equal(q_clean, ""), "", "?"),
        q_clean, "")
    if pc.all(eligible).as_py():
        return fast
    slow_idx = np.flatnonzero(
        pc.invert(eligible).to_numpy(zero_copy_only=False))
    vals = fast.to_pylist()
    raw = s.take(pa.array(slow_idx)).to_pylist()
    for i, u in zip(slow_idx, raw):
        vals[i] = strip_tracking_params(u)
    return pa.array(vals, pa.string())


def canonical_url_counts(ds, url_column: str = "url"):
    """Group crawl-variant urls by tracking-stripped canonical form and
    count variants per canonical url.  Map stage is the vectorized
    :func:`canonicalize_urls` (Arrow kernels + rare-row fallback),
    stateless and fused; the shuffle moves only (canonical,
    partial_count) combiner rows."""
    def partial(batch: pa.Table) -> pa.Table:
        canon = canonicalize_urls(batch[url_column])
        g = (pa.table({"url": canon}).group_by("url")
             .aggregate([([], "count_all")]))
        return pa.table({"url": g["url"],
                         "n_variants": pc.cast(g["count_all"], pa.int64())})

    from pmocr_ray.ops.vecagg import grouped_aggregate

    return grouped_aggregate(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["url"], [("n_variants", "sum", "n_variants")],
        seed_schema=pa.schema([("url", pa.string()),
                               ("n_variants", pa.int64())]))


RARE_TERM_BROADCAST_GATE = 100_000


def rare_term_pairs(ds, column: str = "text", key: str = "doc_id",
                    max_df: int = 3):
    """Document pairs linked by a shared RARE term (df ≤ ``max_df``) —
    the co-citation/plagiarism signal where common vocabulary is
    useless and rare tokens are the evidence.

    Blocking with a hard mathematical bound: only terms whose document
    frequency is ≤ max_df form buckets, so a bucket emits at most
    C(max_df, 2) pairs — the rare-term filter IS the hot-bucket cap,
    no star-emit needed.  One groupby dedups pairs sharing several
    rare terms and counts the shared-term strength.  Emits (a, b,
    n_shared_terms), a < b.

    Scale shape (size-gated like ``attach_pair_sides``): the rare set
    is the :func:`doc_frequency` rollup filtered DISTRIBUTED-side.  At
    ≤ ``RARE_TERM_BROADCAST_GATE`` terms it is collected once and
    broadcast (``ray.put`` + ``pc.is_in`` — the cheap plan for every
    real vocabulary).  Beyond the gate NOTHING term-shaped reaches the
    driver: a fixed-size Bloom bitmap over the rare set prefilters the
    per-batch incidence (false positives only), and an exact
    hash-partitioned ``left_semi`` join of the surviving (term, doc)
    rows against the rare rollup removes those (bloom prefilter, then
    exact verify).  Both plans are equivalence-tested (``tests/test_curation_ops.py``).
    """
    rare = (doc_frequency(ds, column=column)
            .map_batches(lambda t: t.filter(
                pc.less_equal(t["df"], max_df)),
                batch_format="pyarrow")
            .select_columns(["term"])).materialize()
    n_rare = rare.count()

    def _batch_incidence(batch: pa.Table, term_filter=None) -> pa.Table:
        """Distinct (term, doc) pairs of a batch.  ``term_filter``
        (flat token array -> boolean mask) prunes the token stream
        BEFORE the local group_by — the rare subset is typically ≪ 1%
        of tokens, so hashing the full stream first would be ~100×
        wasted aggregate work per batch."""
        toks = pc.split_pattern_regex(batch[column], r"\s+")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        mask = pc.not_equal(flat, "")
        if term_filter is not None:
            mask = pc.and_(mask, term_filter(flat))
        pairs = pa.table({"term": flat.filter(mask),
                          key: batch[key].take(parent.filter(mask))})
        return pairs.group_by(["term", key]).aggregate([])

    import pandas as pd

    if n_rare <= RARE_TERM_BROADCAST_GATE:
        rare_rows = rare.take_all()  # bounded by the gate, not by vocab
        # explicit type: an EMPTY rare set (every term common — the
        # sf0.1 regime under a fixed max_df) otherwise infers null
        # type and pc.is_in raises "string vs null"
        rare_arr = pa.array(sorted(r["term"] for r in rare_rows),
                            type=pa.string())
        ref = ray.put(rare_arr)

        def incidence(batch: pa.Table) -> pa.Table:
            ra = ray.get(ref)
            return _batch_incidence(
                batch, term_filter=lambda flat: pc.is_in(flat,
                                                         value_set=ra))

        # no global (term, doc) distinct needed: bucket_pairs dedups
        # doc ids inside each term group, so cross-batch repeats of
        # the same incidence can't double-count
        inc = ds.map_batches(incidence, batch_format="pyarrow")
    else:
        from pmocr_ray.ops.joins import (_bloom_indices, build_bloom,
                                         parts_for_rows)

        n_bits, k_hashes = 1 << 23, 7
        bitmap_ref = ray.put(build_bloom(rare, "term", n_bits, k_hashes))

        def incidence_bloom(batch: pa.Table) -> pa.Table:
            bitmap = ray.get(bitmap_ref)

            def probe(flat: pa.Array):
                # one md5 probe per DISTINCT token, then a vectorized
                # membership test over the stream — the bloom filter
                # prunes before the local group_by, same as the
                # broadcast plan's is_in
                uniq = pc.unique(flat)
                idx = _bloom_indices(uniq.to_pylist(), n_bits, k_hashes)
                bits = (bitmap[(idx >> 3).astype(np.int64)]
                        >> (idx & 7).astype(np.uint8)) & 1
                probable = uniq.filter(pa.array(bits.all(axis=1)))
                return pc.is_in(flat, value_set=probable)

            return _batch_incidence(batch, term_filter=probe)

        probable_inc = ds.map_batches(incidence_bloom,
                                      batch_format="pyarrow")
        # exact verify: semi join on term against the rare rollup —
        # the exchange moves only bloom-surviving incidence rows plus
        # the (already one-row-per-term) rare set, never the corpus
        inc = probable_inc.join(
            rare, join_type="left_semi",
            num_partitions=parts_for_rows(n_rare, cap=16),
            on=("term",))

    from pmocr_ray.ops.vecagg import _bucket_of

    def coarse(t: pa.Table) -> pa.Table:
        return t.append_column("_bkt", _bucket_of(t, ["term"], 32))

    def pairs_partition(df: pd.DataFrame) -> pd.DataFrame:
        # every rare term of the bucket pairs its (≤ max_df) docs in
        # ONE vectorized self-merge — no per-term Python call; the
        # rare-df bound keeps the merge output ≤ C(max_df, 2)/term
        df = df[["term", key]].drop_duplicates()
        m = df.merge(df, on="term")
        m = m[m[f"{key}_x"].to_numpy() < m[f"{key}_y"].to_numpy()]
        return pd.DataFrame({
            "a": m[f"{key}_x"].to_numpy(np.int64),
            "b": m[f"{key}_y"].to_numpy(np.int64),
            "n": np.ones(len(m), np.int64)})

    pairs = (inc.map_batches(coarse, batch_format="pyarrow")
             .groupby("_bkt")
             .map_groups(pairs_partition, batch_format="pandas"))
    from pmocr_ray.ops.vecagg import grouped_aggregate

    return grouped_aggregate(
        pairs, ["a", "b"], [("n", "sum", "n_shared_terms")],
        seed_schema=pa.schema([("a", pa.int64()), ("b", pa.int64()),
                               ("n_shared_terms", pa.int64())]))
