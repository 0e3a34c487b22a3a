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


# --------------------------------------------------- vocabulary / sampling


def top_terms(ds, k: int = 20, column: str = "text"):
    """Global top-k vocabulary terms (whitespace tokens) with exact
    counts — the classic combiner-pattern reduce.

    Per batch: vectorized split + one LOCAL group-count (the combiner —
    each batch contributes at most |vocab_batch| rows, not |tokens|);
    global: one groupby over the partials, then a distributed
    ``sort().limit(k)``.  Ties break term-ascending (deterministic).
    """
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(pc.split_pattern_regex(batch[column], r"\s+"))
        toks = toks.filter(pc.not_equal(toks, ""))
        g = pa.table({"term": toks}).group_by("term").aggregate([([], "count_all")])
        return pa.table({"term": g["term"], "n": g["count_all"]})

    per_term = ds.map_batches(partial, batch_format="pyarrow").groupby(
        "term").aggregate(Sum("n", alias_name="n"))
    top = per_term.sort(["n", "term"], descending=[True, False]).limit(k)
    return top


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


def hash_sample(ds, column: str = "url", prefix_lt: str = "1a"):
    """Deterministic content-hash sampling: keep rows whose md5 hex
    prefix is < ``prefix_lt`` (default ≈ 10.2% of keys), stable across
    runs/partitionings — the reproducible eval-split / subsample
    primitive (a random_sample would not be re-runnable)."""
    import hashlib as _hl

    n = len(prefix_lt)

    def keep(batch: pa.Table) -> pa.Table:
        vals = batch[column].to_pylist()
        mask = pa.array(
            [_hl.md5(v.encode()).hexdigest()[:n] < prefix_lt for v in vals],
            pa.bool_())
        return batch.filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow")


def stratified_sample(ds, group_column: str, thresholds: dict[str, str],
                      key_column: str = "url"):
    """Per-group deterministic hash sampling: each group keeps rows
    whose md5(key) hex prefix is < its threshold string (lexicographic,
    same convention as :func:`hash_sample`) — the language/domain
    rebalancing step every pre-training mix applies (downsample the
    head language, keep the tail).

    Map-only: the per-group rate table is a tiny dict captured in the
    closure (broadcast once with the function), no shuffle.  Groups
    absent from ``thresholds`` keep everything (threshold ``None``).
    """
    import hashlib as _hl

    def keep(batch: pa.Table) -> pa.Table:
        keys = batch[key_column].to_pylist()
        grps = batch[group_column].to_pylist()
        mask = pa.array(
            [
                (t := thresholds.get(g)) is None
                or _hl.md5(k.encode()).hexdigest()[: len(t)] < t
                for k, g in zip(keys, grps)
            ],
            pa.bool_(),
        )
        return batch.filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow")


# ---------------------------------------------------- repetition / PII


#: (RE2 pattern, replacement) — identical semantics in Arrow's
#: replace_substring_regex and DuckDB's regexp_replace(...,'g'), so the
#: oracle can replay the exact redaction.
PII_PATTERNS: tuple[tuple[str, str], ...] = (
    (r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}", "<EMAIL>"),
    (r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    (r"\+\d[\d\-\. ]{7,}\d", "<PHONE>"),
)


def redact_pii(batch: pa.Table, column: str = "text",
               out_column: str = "text_redacted") -> pa.Table:
    """Scrub emails / IPv4s / international phone numbers with typed
    placeholder tokens — the standard pre-training PII pass.

    One vectorized ``replace_substring_regex`` per pattern (RE2, no
    Python loop); patterns applied in :data:`PII_PATTERNS` order so
    earlier redactions can't create later matches nondeterministically.
    """
    col = batch[column]
    for pat, repl in PII_PATTERNS:
        col = pc.replace_substring_regex(col, pat, repl)
    return batch.append_column(out_column, col)


def repetition_stats(batch: pa.Table, column: str = "text",
                     key: str = "doc_id") -> pa.Table:
    """Gopher-style repetition signals per document: distinct-token
    ratio and top-bigram fraction (share of bigram slots taken by the
    single most frequent bigram).  High repetition → boilerplate/spam.

    Fully vectorized: one ``split_pattern_regex`` + ``list_flatten``,
    local Arrow ``group_by`` for per-row distinct-token and bigram
    counts (never a Python loop over tokens), numpy scatter back to row
    order.  Map-only — no shuffle.
    """
    toks = pc.split_pattern_regex(batch[column], r"\s+")
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks)
    mask = pc.not_equal(flat, "")
    flat = flat.filter(mask).combine_chunks()
    pn = parent.filter(mask).to_numpy(zero_copy_only=False)
    n = len(batch)

    n_tok = np.zeros(n, np.int64)
    rows, counts = np.unique(pn, return_counts=True)
    n_tok[rows] = counts

    distinct = pa.table({"p": pn, "w": flat}).group_by(["p", "w"]).aggregate([])
    n_distinct = np.zeros(n, np.int64)
    rows2, counts2 = np.unique(
        distinct["p"].to_numpy(zero_copy_only=False), return_counts=True)
    n_distinct[rows2] = counts2

    # bigrams: adjacent tokens within the same row
    max_bigram = np.zeros(n, np.int64)
    if len(flat) > 1:
        same = pn[:-1] == pn[1:]
        lhs = flat.slice(0, len(flat) - 1).filter(pa.array(same))
        rhs = flat.slice(1).filter(pa.array(same))
        bigram = pc.binary_join_element_wise(lhs, rhs, " ")
        bg = pa.table({"p": pn[:-1][same], "g": bigram}).group_by(
            ["p", "g"]).aggregate([([], "count_all")])
        mx = bg.group_by("p").aggregate([("count_all", "max")])
        max_bigram[mx["p"].to_numpy(zero_copy_only=False)] = (
            mx["count_all_max"].to_numpy(zero_copy_only=False))

    distinct_ratio = np.where(n_tok > 0, n_distinct / np.maximum(n_tok, 1), 0.0)
    top_bigram_frac = np.where(
        n_tok >= 2, max_bigram / np.maximum(n_tok - 1, 1), 0.0)
    return pa.table({
        key: batch[key],
        "distinct_ratio": pa.array(distinct_ratio, pa.float64()),
        "top_bigram_frac": pa.array(top_bigram_frac, pa.float64()),
    })


def length_quantiles(ds, column: str = "n_chars",
                     qs: tuple[float, ...] = (0.5, 0.9, 0.99)):
    """EXACT distributed quantiles of an integer column (doc-length /
    token-count audits): per-batch value-counts combiner → one tiny
    ``groupby(value)`` shuffle → CDF walk over the (value, count)
    rollup.  The rollup is bounded by the number of *distinct* values
    (≤ max doc length), not the row count, so collecting it is safe at
    any corpus size.

    Quantile rule matches DuckDB's ``quantile_disc``: the value at
    1-based rank ``ceil(q * n)`` of the sorted column.  Returns an
    Arrow table (q, value).
    """
    import math

    from pmocr_ray.ops.vecagg import grouped_aggregate

    def partial(batch: pa.Table) -> pa.Table:
        g = batch.select([column]).group_by(column).aggregate(
            [([], "count_all")])
        return pa.table({"value": g[column], "n": g["count_all"]})

    rollup = (grouped_aggregate(
                  ds.map_batches(partial, batch_format="pyarrow"),
                  ["value"], [("n", "sum", "n")])
                .sort("value").take_all())
    if not rollup:
        raise ValueError(
            f"length_quantiles: dataset has no rows (column {column!r}) "
            "— quantiles of an empty corpus are undefined")
    values = np.array([r["value"] for r in rollup], np.int64)
    cum = np.cumsum(np.array([r["n"] for r in rollup], np.int64))
    total = int(cum[-1]) if len(cum) else 0
    out_q, out_v = [], []
    for q in qs:
        rank = max(math.ceil(q * total), 1)
        out_q.append(q)
        out_v.append(int(values[np.searchsorted(cum, rank)]))
    return pa.table({"q": pa.array(out_q, pa.float64()),
                     "value": pa.array(out_v, pa.int64())})


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


def kmv_sketch(ds, column: str = "text", k: int = 64):
    """K-minimum-values distinct-count sketch: the k smallest distinct
    md5 hashes of ``column`` across the corpus.

    The per-batch combiner prunes hard — the global k minima are a
    subset of the union of per-batch k minima, so each batch forwards
    ≤ k hashes no matter its size; the tail is one tiny dedup-groupby
    and a distributed ``sort().limit(k)``.  The cardinality estimate
    is ``(k-1) / frac(h_k)``, the k-th smallest hash mapped to (0, 1];
    with ``k ≥ distinct`` the sketch IS the exact distinct set.
    """
    def partial(batch: pa.Table) -> pa.Table:
        hs = {hashlib.md5(t.encode("utf-8")).hexdigest()
              for t in batch[column].to_pylist() if t is not None}
        return pa.table({"h": pa.array(sorted(hs)[:k], pa.string())})

    from pmocr_ray.ops.vecagg import distinct as _vec_distinct

    return (_vec_distinct(
                ds.map_batches(partial, batch_format="pyarrow"), ["h"],
                seed_schema=pa.schema([("h", pa.string())]))
            .sort("h").limit(k))


def clean_text(batch: pa.Table, column: str = "text",
               out_column: str = "text_clean") -> pa.Table:
    """Canonical text normalization before fingerprinting/dedup:
    lowercase, strip control characters, collapse whitespace runs to
    one space, trim.  Three RE2 passes + one lower — all vectorized
    Arrow kernels, shared verbatim with the SQL oracle.
    """
    col = pc.utf8_lower(batch[column])
    col = pc.replace_substring_regex(col, r"[\x00-\x1f\x7f]", " ")
    col = pc.replace_substring_regex(col, r"\s+", " ")
    col = pc.utf8_trim_whitespace(col)
    return batch.append_column(out_column, col)


def range_bucket(ds, column: str = "n_chars",
                 qs: tuple[float, ...] = (0.25, 0.5, 0.75),
                 key: str = "doc_id"):
    """Range-partitioner primitive: bucket each row by which exact
    quantile interval its value falls in (boundaries inclusive on the
    left bucket, ``value <= q_i``).  The boundaries come from the
    :func:`length_quantiles` rollup (bounded by distinct values),
    broadcast once; the assignment is a map-only vectorized
    searchsorted — this is how a distributed range sort/partition picks
    its split points without sampling error.
    Returns (key, bucket).
    """
    bounds_tbl = length_quantiles(ds, column=column, qs=qs)
    bounds = np.array(bounds_tbl["value"].to_pylist(), np.int64)
    ref = ray.put(bounds)

    def assign(batch: pa.Table) -> pa.Table:
        b = ray.get(ref)
        v = batch[column].to_numpy(zero_copy_only=False)
        bucket = np.searchsorted(b, v, side="left").astype(np.int64)
        return pa.table({key: batch[key],
                         "bucket": pa.array(bucket, pa.int64())})

    return ds.map_batches(assign, batch_format="pyarrow")


class RegexExplodeStage:
    """Actor-pool stage: explode every regex match of ``pattern`` into
    its own (key, match) row — span/entity extraction (urls, emails,
    phrases) as a dataflow op.  The compiled pattern is per-actor state
    (amortized-init); output cardinality is match count, so a batch's
    fan-out is data-dependent — exactly what ``map_batches`` with a
    variable-length output table handles.
    """

    def __init__(self, pattern: str, key: str = "doc_id",
                 column: str = "text") -> None:
        self.rx = re.compile(pattern)
        self.key = key
        self.column = column

    def __call__(self, batch: pa.Table) -> pa.Table:
        keys_out, matches = [], []
        for k, t in zip(batch[self.key].to_pylist(),
                        batch[self.column].to_pylist()):
            if not t:
                continue
            for m in self.rx.findall(t):
                keys_out.append(k)
                matches.append(m)
        return pa.table({self.key: pa.array(keys_out, pa.int64()),
                         "match": pa.array(matches, pa.string())})


def regex_explode(ds, pattern: str, *, key: str = "doc_id",
                  column: str = "text", concurrency=(1, 4)):
    """One (key, match) row per regex hit across the corpus."""
    return ds.map_batches(RegexExplodeStage,
                          fn_constructor_kwargs={"pattern": pattern,
                                                 "key": key,
                                                 "column": column},
                          batch_format="pyarrow", concurrency=concurrency)


# ------------------------------------------- mix rebalancing / indexing


def domain_reweight(ds, group_column: str = "lang",
                    key_column: str = "doc_id",
                    bucket_bits: int = 20):
    """Rebalance a corpus to a uniform group mix by deterministic
    down-sampling: every group is reduced to (about) the size of the
    SMALLEST group — the language/domain rebalancing step a
    pre-training mix applies, with the rates *computed from the data*
    rather than supplied (contrast :func:`stratified_sample`).

    Two phases, both scale-safe:

    1. per-group row counts (a tiny combiner groupby — one row per
       group crosses the wire);
    2. the driver turns counts into integer keep-thresholds
       ``t_g = target_n * 2^bucket_bits // n_g`` (target_n = min group
       count) and broadcasts the dict; a map-only filter keeps a row
       iff ``md5(key) mod 2^bucket_bits < t_g`` — deterministic,
       partition-invariant, and exactly reproducible in SQL (same md5
       prefix arithmetic as :func:`hash_sample`).
    """
    import hashlib as _hl

    from ray.data.aggregate import Count

    counts = {r[group_column]: r["n"] for r in
              ds.select_columns([group_column]).groupby(group_column)
              .aggregate(Count(alias_name="n")).take_all()}
    if not counts:
        raise ValueError(
            f"domain_reweight: dataset has no rows (group column "
            f"{group_column!r}) — no group mix to rebalance")
    target_n = min(counts.values())
    mod = 1 << bucket_bits
    thresholds = {g: target_n * mod // n for g, n in counts.items()}

    def keep(batch: pa.Table) -> pa.Table:
        keys = batch[key_column].to_pylist()
        grps = batch[group_column].to_pylist()
        mask = pa.array(
            [int(_hl.md5(str(k).encode()).hexdigest()[:8], 16) % mod
             < thresholds[g] for k, g in zip(keys, grps)],
            pa.bool_())
        return batch.filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow")


def posting_lists(ds, column: str = "text", key: str = "doc_id",
                  cap: int = 20):
    """Inverted-index export: per term, the exact document frequency
    and the first ``cap`` doc ids (ascending) of its posting list.

    The cap is the scale story: a stop-word's full posting list at
    corpus scale is the corpus itself, so each batch contributes at
    most ``cap`` candidate ids per term (a doc lives in exactly one
    batch, so per-batch distinct (term, doc) pairs are globally
    distinct and partial DFs sum exactly); the per-term merge then
    keeps the ``cap`` smallest of the ≤ cap×n_batches candidates.
    Shuffle volume is bounded by vocab × cap, never corpus size.
    """
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(batch[column], r"\s+")
        flat = pc.list_flatten(toks)
        parent = pc.list_parent_indices(toks)
        mask = pc.not_equal(flat, "")
        ids = batch[key].take(parent.filter(mask))
        pairs = pa.table({"term": flat.filter(mask), "d": ids}) \
            .group_by(["term", "d"]).aggregate([])
        df = pairs.to_pandas().sort_values(["term", "d"])
        g = df.groupby("term", sort=False)
        head = g.head(cap)
        agg = head.groupby("term", sort=False)["d"].agg(list)
        partial_df = g.size()
        return pa.table({
            "term": pa.array(agg.index, pa.string()),
            "pdf": pa.array(partial_df[agg.index].to_numpy(), pa.int64()),
            "cand": pa.array(agg.to_numpy().tolist(),
                             pa.list_(pa.int64())),
        })

    from pmocr_ray.ops.vecagg import _bucket_of

    def bucket(t: pa.Table) -> pa.Table:
        return t.append_column("_bkt", _bucket_of(t, ["term"], 32))

    def merge_bucket(t: pa.Table) -> pa.Table:
        # vectorized merge for ALL terms of the bucket: explode the
        # candidate lists, one sort, per-term head(cap) by cumcount,
        # then ListArray + binary_join for the posting strings and an
        # arrow sum for df — no per-term Python call
        cand = t["cand"].combine_chunks()
        parent = pc.list_parent_indices(cand)
        flat = pc.list_flatten(cand)
        terms = t["term"].combine_chunks().take(parent)
        df = pd.DataFrame({"term": terms.to_pandas(),
                           "d": flat.to_numpy(zero_copy_only=False)})
        df = df.sort_values(["term", "d"], kind="mergesort")
        df = df[df.groupby("term", sort=False).cumcount() < cap]
        tn = df["term"].to_numpy()
        starts = np.flatnonzero(np.concatenate([[True], tn[1:] != tn[:-1]]))
        offsets = np.concatenate([starts, [len(tn)]]).astype(np.int64)
        ids_str = pa.array(df["d"].astype(str).to_numpy(), pa.string())
        la = pa.LargeListArray.from_arrays(
            pa.array(offsets, pa.int64()), ids_str)
        dfs = (t.select(["term", "pdf"]).to_pandas()
               .groupby("term", sort=False, as_index=False)["pdf"].sum())
        return pa.table({
            "term": pa.array(tn[starts], pa.string()),
            "df": pa.array(dfs.set_index("term")["pdf"]
                           .reindex(tn[starts]).to_numpy(np.int64),
                           pa.int64()),
            "postings": pc.binary_join(la, ","),
        })

    return (ds.map_batches(partial, batch_format="pyarrow")
            .map_batches(bucket, batch_format="pyarrow")
            .groupby("_bkt").map_groups(merge_bucket,
                                        batch_format="pyarrow"))


def split_assign(ds, key_column: str = "doc_id",
                 pct: tuple[int, int] = (80, 10)):
    """Deterministic train/val/test split assignment: md5(key) bucket
    in [0,100) → 'train' below ``pct[0]``, 'val' below
    ``pct[0]+pct[1]``, else 'test'.  Map-only, partition-invariant,
    re-runnable — the split survives any reshuffle or rerun, unlike a
    random_sample.  Same md5 convention as :func:`hash_sample`."""
    import hashlib as _hl

    lo, mid = pct[0], pct[0] + pct[1]

    def assign(batch: pa.Table) -> pa.Table:
        buckets = [int(_hl.md5(str(k).encode()).hexdigest()[:8], 16) % 100
                   for k in batch[key_column].to_pylist()]
        split = pa.array(
            ["train" if b < lo else ("val" if b < mid else "test")
             for b in buckets], pa.string())
        return batch.append_column("split", split)

    return ds.map_batches(assign, batch_format="pyarrow")


def clip_outliers(ds, column: str = "n_chars",
                  lo_q: float = 0.05, hi_q: float = 0.95):
    """Winsorize an integer column at exact corpus quantiles: the
    outlier-handling pass before any length-weighted statistic.
    Bounds come from :func:`length_quantiles` (value-counts rollup
    bounded by distinct values, quantile_disc rule), broadcast as two
    ints; the clip itself is one map-only Arrow kernel pass.  Emits
    the input rows plus a ``clipped`` column.
    """
    b = length_quantiles(ds, column=column, qs=(lo_q, hi_q))
    lo, hi = int(b["value"][0].as_py()), int(b["value"][1].as_py())

    def clip(batch: pa.Table) -> pa.Table:
        c = pc.min_element_wise(
            pc.max_element_wise(batch[column], pa.scalar(lo, pa.int64())),
            pa.scalar(hi, pa.int64()))
        return batch.append_column("clipped", pc.cast(c, pa.int64()))

    return ds.map_batches(clip, batch_format="pyarrow")


def heavy_hitters(ds, column: str = "text", k: int = 64) -> pa.Table:
    """Misra-Gries heavy-hitter sketch over the token stream — the
    fixed-size alternative to an exact term count when the vocabulary
    is unbounded: at most ``k`` counters ever exist per partial, the
    partials tree-merge (add counts, then decrement all by the
    (k+1)-largest and drop ≤0 — the standard mergeable-summary rule),
    and the driver receives ONE k-entry summary regardless of corpus
    size.  Guarantee: every token with true frequency > N/(k+1)
    survives, and each reported count underestimates by at most
    N/(k+1).  Returns an Arrow table (term, approx_n) sorted by
    approx_n desc.
    """
    from ray.data.aggregate import AggregateFn

    def trim(counters: dict) -> dict:
        if len(counters) <= k:
            return counters
        cut = sorted(counters.values(), reverse=True)[k]
        return {t: c - cut for t, c in counters.items() if c > cut}

    def accumulate(counters: dict, block) -> dict:
        tbl = block if isinstance(block, pa.Table) \
            else pa.Table.from_pandas(block)
        toks = pc.split_pattern_regex(pc.fill_null(tbl[column], ""),
                                      r"\s+")
        flat = pc.list_flatten(toks)
        flat = flat.filter(pc.not_equal(flat, ""))
        vc = pc.value_counts(flat)
        out = dict(counters)
        for sv in vc:
            t = sv["values"].as_py()
            out[t] = out.get(t, 0) + sv["counts"].as_py()
        return trim(out)

    def merge(a: dict, b: dict) -> dict:
        out = dict(a)
        for t, c in b.items():
            out[t] = out.get(t, 0) + c
        return trim(out)

    agg = AggregateFn(init=lambda _: {}, accumulate_block=accumulate,
                      merge=merge, name="mg")
    summary = ds.select_columns([column]).aggregate(agg)["mg"]
    items = sorted(summary.items(), key=lambda kv: (-kv[1], kv[0]))
    return pa.table({"term": pa.array([t for t, _ in items], pa.string()),
                     "approx_n": pa.array([c for _, c in items],
                                          pa.int64())})


def collocation_pairs(ds, column: str = "text", vocab_k: int = 200,
                      min_count: int = 2):
    """Adjacent word-pair (bigram) collocation counts over the corpus,
    restricted to the top-``vocab_k`` unigram vocabulary — the
    co-occurrence statistics feeding PMI/collocation mining in a
    web-text curation pipeline.

    Scale shape: the vocabulary is the :func:`top_terms` rollup
    (combiner + tiny shuffle, deterministic (n desc, term asc)
    tie-break) — only vocab_k (term, n) rows reach the driver and are
    broadcast via ``ray.put``; the corpus is never collected.  The
    bigram pass is map-only and fully vectorized: flat token array +
    ``list_parent_indices`` → adjacency is ``parent[i] == parent[i+1]``
    on numpy slices → per-batch LOCAL (w1, w2) group-count (the
    combiner), then ONE global groupby over the partials.  Unigram
    counts attach from the broadcast dict — no second shuffle, no join.

    Emits (w1, w2, pair_n, w1_n, w2_n), all counts exact int64,
    filtered to ``pair_n >= min_count``.  PMI is a deterministic
    per-row expression over these integers downstream.
    """
    from ray.data.aggregate import Sum

    vocab_rows = top_terms(ds, k=vocab_k, column=column).take_all()
    vocab = {r["term"]: int(r["n"]) for r in vocab_rows}
    ref = ray.put((pa.array(sorted(vocab)), vocab))

    def bigram_partial(batch: pa.Table) -> pa.Table:
        vocab_arr, _ = ray.get(ref)
        toks = pc.split_pattern_regex(batch[column], r"\s+")
        flat_a = pc.list_flatten(toks)
        parent_a = pc.list_parent_indices(toks)
        mask = pc.not_equal(flat_a, "")
        flat = flat_a.filter(mask).to_numpy(zero_copy_only=False)
        parent = parent_a.filter(mask).to_numpy(zero_copy_only=False)
        if len(flat) < 2:
            return pa.table({"w1": pa.array([], pa.string()),
                             "w2": pa.array([], pa.string()),
                             "pair_n": pa.array([], pa.int64())})
        adj = parent[:-1] == parent[1:]
        w1 = pa.array(flat[:-1][adj], pa.string())
        w2 = pa.array(flat[1:][adj], pa.string())
        keep = pc.and_(pc.is_in(w1, value_set=vocab_arr),
                       pc.is_in(w2, value_set=vocab_arr))
        g = (pa.table({"w1": w1.filter(keep), "w2": w2.filter(keep)})
             .group_by(["w1", "w2"]).aggregate([([], "count_all")]))
        return pa.table({"w1": g["w1"], "w2": g["w2"],
                         "pair_n": pc.cast(g["count_all"], pa.int64())})

    pairs = (ds.map_batches(bigram_partial, batch_format="pyarrow")
             .groupby(["w1", "w2"])
             .aggregate(Sum("pair_n", alias_name="pair_n")))

    def attach(t: pa.Table) -> pa.Table:
        _, counts = ray.get(ref)
        t = t.filter(pc.greater_equal(t["pair_n"], min_count))
        w1n = pa.array([counts[w] for w in t["w1"].to_pylist()], pa.int64())
        w2n = pa.array([counts[w] for w in t["w2"].to_pylist()], pa.int64())
        return pa.table({"w1": t["w1"], "w2": t["w2"],
                         "pair_n": t["pair_n"], "w1_n": w1n, "w2_n": w2n})

    return pairs.map_batches(attach, batch_format="pyarrow")


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
    rows against the rare rollup removes those — the same
    bloom-prefilter + verify ladder as ``bloom_anti_join``.  Both
    plans are equivalence-tested (``tests/test_curation_ops.py``).
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
