"""Property-based tests: the state machine is total and deterministic.

The reference's resilience property — one poisoned document must never
crash a run, only quarantine itself (pmocr.sh:1981-2011) — expressed
as: ``process_row`` returns a valid state tuple for ARBITRARY bytes,
and is a pure function (same input → same output)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from pmocr_ray.state_machine import process_row

VALID_STATUSES = {"done", "failed", "skipped_existing_text", "skipped_suffix"}
VALID_CTS = {"html", "pdf", "docx", "xlsx", "unknown"}


@given(payload=st.binary(max_size=4096),
       pre_text=st.one_of(st.none(), st.text(max_size=64)),
       is_done=st.booleans())
@settings(max_examples=300, deadline=None)
def test_process_row_total(payload, pre_text, is_done):
    ct, status, attempts, error, text = process_row(payload, pre_text, is_done)
    assert ct in VALID_CTS
    assert status in VALID_STATUSES
    assert 0 <= attempts <= 2
    if status == "failed":
        assert error is not None and text is None
    if status == "done":
        assert error is None and isinstance(text, str)
    if is_done:
        assert status == "skipped_suffix"


@given(payload=st.binary(max_size=2048))
@settings(max_examples=100, deadline=None)
def test_process_row_deterministic(payload):
    assert process_row(payload, None, False) == process_row(payload, None, False)


@given(prefix=st.sampled_from([b"%PDF-1.4\n", b"<html>", b"  <div>", b"\x89PNG",
                               b"PK\x03\x04"]),
       tail=st.binary(max_size=2048))
@settings(max_examples=200, deadline=None)
def test_sniffed_types_route_without_crash(prefix, tail):
    ct, status, attempts, error, text = process_row(prefix + tail, None, False)
    if prefix.startswith(b"%PDF-"):
        assert ct == "pdf"
    elif prefix.lstrip().startswith(b"<"):
        assert ct == "html"
    elif prefix.startswith(b"PK"):
        # random zip-magic payloads: whatever OPC type the part-name
        # scan guesses, a corrupt container must quarantine, not crash
        assert ct in {"docx", "xlsx", "unknown"} and status == "failed"
    else:
        assert ct == "unknown" and status == "failed"


# ------------------------------------------------ document-target inverses


@given(text=st.text(max_size=400))
@settings(max_examples=300, deadline=None)
def test_docx_inverse_property(text):
    from pmocr_ray.extract.docx_extractor import build_docx, extract_docx

    assert extract_docx(build_docx(text)) == text


@given(text=st.text(max_size=400))
@settings(max_examples=300, deadline=None)
def test_xlsx_inverse_property(text):
    from pmocr_ray.extract.xlsx_extractor import build_xlsx, extract_xlsx

    assert extract_xlsx(build_xlsx(text)) == text


# --------------------------------------------------- streaming equivalence


@settings(max_examples=10, deadline=None)
@given(
    events=st.lists(
        st.tuples(st.integers(0, 5),            # user_id
                  st.integers(0, 6 * 3600)),    # seconds offset
        min_size=1, max_size=60, unique=True),
    n_chunks=st.integers(1, 5),
    n_buckets=st.integers(1, 3),
)
def test_streaming_sessionize_equals_batch_on_random_logs(
        ray_session, events, n_chunks, n_buckets):
    """Property: the stateful-streaming path is chunking-invariant and
    equal to the batch operator on arbitrary event logs."""
    import pandas as pd
    import ray.data as rd

    from pmocr_ray.ops.events import sessionize
    from pmocr_ray.ops.streaming import streaming_sessionize

    base = pd.Timestamp("2024-03-01")
    df = pd.DataFrame({
        "user_id": [u for u, _ in events],
        "ts": [base + pd.Timedelta(seconds=s) for _, s in events],
        "event_id": range(len(events)),
    })
    ds = rd.from_pandas(df)
    cols = ["user_id", "session_start", "session_end", "n_events"]

    def norm(frame):
        frame = frame[cols].copy()
        for c in ("session_start", "session_end"):
            frame[c] = frame[c].astype("datetime64[us]")
        frame["n_events"] = frame["n_events"].astype("int64")
        return frame.sort_values(cols).reset_index(drop=True)

    exp = norm(sessionize(ds).to_pandas())
    got = norm(streaming_sessionize(
        ds, n_chunks=n_chunks, n_buckets=n_buckets).to_pandas())
    pd.testing.assert_frame_equal(got, exp)


@given(text=st.text(max_size=400), searchable=st.booleans())
@settings(max_examples=150, deadline=None)
def test_pdf_inverse_property(text, searchable):
    """build_pdf_page -> extract_pdf recovers the whitespace-normalized
    source text (words joined by single spaces — the same
    normalization contract as the HTML engine) for any unicode input;
    whitespace-only text is the extractor's no-text data failure."""
    from pmocr_ray.extract.pdf_extractor import extract_pdf
    from pmocr_ray.fixtures import build_pdf_page

    page = build_pdf_page(text, searchable=searchable)
    words = text.split()
    if words:
        assert extract_pdf(page) == " ".join(words)
    else:
        import pytest
        with pytest.raises(ValueError):
            extract_pdf(page)


@given(
    grids=st.lists(
        st.lists(
            st.lists(st.text(alphabet=st.sampled_from("ab&<x 1"),
                             min_size=1, max_size=6).map(
                                 lambda s: " ".join(s.split())).filter(
                                 lambda s: s and "<" not in s),
                     min_size=1, max_size=3),
            min_size=1, max_size=3),
        min_size=0, max_size=2),
)
@settings(max_examples=150, deadline=None)
def test_table_grid_inverse_property(grids):
    """Any rendered grid of entity-escaped cell texts round-trips
    through extract_tables with exact (table, row, col, text)
    coordinates."""
    from html import escape

    from pmocr_ray.extract.table_extractor import extract_tables

    html_parts, expected = [], []
    for t, grid in enumerate(grids):
        html_parts.append("<table>")
        for r, row in enumerate(grid):
            html_parts.append("<tr>")
            for c, cell in enumerate(row):
                html_parts.append(f"<td>{escape(cell)}</td>")
                expected.append((t, r, c, cell))
            html_parts.append("</tr>")
        html_parts.append("</table>")
    assert extract_tables("".join(html_parts)) == expected


def _dp_lev(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[-1] + 1,
                           prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


@given(a=st.text(alphabet="abc", max_size=6),
       b=st.text(alphabet="abc", max_size=6))
@settings(max_examples=500, deadline=None)
def test_lev1_kernel_matches_dp_levenshtein(a, b):
    from pmocr_ray.ops.joins import _lev1

    assert _lev1(a, b) == (_dp_lev(a, b) <= 1)


@given(a=st.text(alphabet="ab", min_size=1, max_size=8),
       pos=st.integers(0, 8), ch=st.sampled_from("ab"),
       kind=st.sampled_from(["sub", "ins", "del"]))
@settings(max_examples=500, deadline=None)
def test_deletion_neighborhood_blocking_is_complete(a, pos, ch, kind):
    """Any ED<=1 edit of `a` shares at least one deletion-neighborhood
    variant key with `a` — the completeness invariant edit1_pairs'
    candidate generation relies on."""
    pos = pos % (len(a) + (kind == "ins"))
    if kind == "sub":
        b = a[:pos] + ch + a[pos + 1:]
    elif kind == "ins":
        b = a[:pos] + ch + a[pos:]
    else:
        b = a[:pos] + a[pos + 1:]

    def hood(s):
        return {s, *(s[:i] + s[i + 1:] for i in range(len(s)))}

    assert hood(a) & hood(b)
