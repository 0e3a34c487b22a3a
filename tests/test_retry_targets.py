"""--retry-failed re-drive, preprocessor stage, multi-format targets.

Reference parity being tested:

* postpone-retry: a failed task gets bounded re-drives before permanent
  quarantine (/root/reference/pmocr.sh:814-818,1133-1193);
* payload preprocessor bundle applied before the engine
  (OCR_PREPROCESSOR_EXEC/ARGS, pmocr.sh:1906-1921, default.conf:92-99);
* per-target dispatch loop — one input converted to several output
  formats (pmocr.sh:2546-2593, default.conf:53-57).
"""

import glob
import os
import shutil

import pyarrow as pa
from hypothesis import given, settings
from hypothesis import strategies as st
import pyarrow.compute as pc
import pyarrow.parquet as pq

from pmocr_ray import schema as S
from pmocr_ray.pipeline import run_extraction, status_counts


def _one_shard(pages_fixture, tmp_path):
    pages, seed_manifest = pages_fixture
    src = sorted(glob.glob(os.path.join(pages, "*.parquet")))[0]
    done = str(tmp_path / "done.parquet")
    shutil.copy(seed_manifest, done)
    return src, done


def _read(out_dir) -> pa.Table:
    return pa.concat_tables(
        pq.read_table(f) for f in
        sorted(glob.glob(os.path.join(out_dir, "**", "*.parquet"),
                         recursive=True)))


# ------------------------------------------------------------- retry-failed


def test_retry_failed_redrive_carries_attempts(tmp_path, pages_fixture):
    """Poison rows fail run 1 (attempts=2), are re-driven exactly once in
    run 2 (attempts=3 = MAX_TOTAL_ATTEMPTS), and never again in run 3."""
    from pmocr_ray.state.manifest import load_retry_state, update_done_manifest

    src, done = _one_shard(pages_fixture, tmp_path)

    out1 = str(tmp_path / "run1")
    run_extraction(src, done).write_parquet(out1)
    t1 = _read(out1)
    failed1 = t1.filter(pc.equal(t1["status"], "failed"))
    assert failed1.num_rows > 0
    assert set(failed1["attempts"].to_pylist()) == {S.MAX_ATTEMPTS}
    update_done_manifest(out1, done, run_id="r1")

    # retry state: exactly the quarantined urls, attempts carried
    retry = load_retry_state(done)
    assert set(retry) == set(failed1["url"].to_pylist())
    assert set(retry.values()) == {S.MAX_ATTEMPTS}

    # run 2: re-drive once -> re-quarantined with attempts=3
    out2 = str(tmp_path / "run2")
    run_extraction(src, done, retry_failed=True).write_parquet(out2)
    t2 = _read(out2)
    redriven = t2.filter(pc.equal(t2["status"], "failed"))
    assert set(redriven["url"].to_pylist()) == set(retry)
    assert set(redriven["attempts"].to_pylist()) == {S.MAX_TOTAL_ATTEMPTS}
    # every other row was already terminal -> skipped
    others = t2.filter(pc.not_equal(t2["status"], "failed"))
    assert set(others["status"].to_pylist()) == {"skipped_suffix"}
    update_done_manifest(out2, done, run_id="r2")

    # run 3: budget exhausted -> never re-driven again
    out3 = str(tmp_path / "run3")
    counts = status_counts(
        run_extraction(src, done, retry_failed=True))
    assert counts == {"skipped_suffix": t1.num_rows}
    assert not os.path.exists(out3)


def test_retry_oracle_conformance(tmp_path, pages_fixture):
    """The distributed retry run matches the single-process oracle
    byte-for-byte (golden contract extends to re-drives)."""
    from pmocr_ray.oracle import run_oracle
    from pmocr_ray.state.manifest import update_done_manifest

    src, done = _one_shard(pages_fixture, tmp_path)
    out1 = str(tmp_path / "run1")
    run_extraction(src, done).write_parquet(out1)
    update_done_manifest(out1, done, run_id="r1")

    dist = (run_extraction(src, done, retry_failed=True)
            .to_pandas().sort_values("url").reset_index(drop=True))
    gold = run_oracle(src, done, retry_failed=True).to_pandas()
    for col in ("url", "content_type", "status", "attempts", "extracted_text"):
        assert dist[col].tolist() == gold[col].tolist(), col


# ------------------------------------------------------------ preprocessors


def _bom_pages(tmp_path) -> str:
    """Two rows: a BOM-prefixed html payload (fails strict UTF-8 decode)
    and a clean one."""
    html_ok = b"<html><body><p>clean page body words here</p></body></html>"
    html_bom = b"\xef\xbb\xbf" + html_ok
    t = pa.Table.from_pydict(
        {
            "url": ["https://a.example/bom", "https://a.example/ok"],
            "warc_ts": [S.EPOCH, S.EPOCH],
            "html": [html_bom, html_ok],
            "text": [None, None],
            "lang": ["en", "en"],
        },
        schema=S.PAGES_SCHEMA,
    )
    p = str(tmp_path / "pages.parquet")
    pq.write_table(t, p)
    return p


def test_preprocessor_fixes_bom_payload(tmp_path):
    src = _bom_pages(tmp_path)
    # without the preprocessor the BOM row quarantines (strict decode)
    t = (run_extraction(src, None, num_blocks=1)
         .to_pandas().set_index("url"))
    assert t.loc["https://a.example/bom", "status"] == "failed"
    assert t.loc["https://a.example/ok", "status"] == "done"

    # with strip_bom both extract, byte-identically
    t2 = (run_extraction(src, None, num_blocks=1,
                         preprocessors=["strip_bom"])
          .to_pandas().set_index("url"))
    assert t2.loc["https://a.example/bom", "status"] == "done"
    assert (t2.loc["https://a.example/bom", "extracted_text"]
            == t2.loc["https://a.example/ok", "extracted_text"]
            == "clean page body words here")


def test_preprocessor_oracle_conformance_and_registry(tmp_path):
    from pmocr_ray.extract.registry import resolve_preprocessors
    from pmocr_ray.oracle import run_oracle

    src = _bom_pages(tmp_path)
    gold = run_oracle(src, None, preprocessors=["strip_bom"]).to_pandas()
    dist = (run_extraction(src, None, num_blocks=1,
                           preprocessors=["strip_bom"])
            .to_pandas().sort_values("url").reset_index(drop=True))
    assert dist["extracted_text"].tolist() == gold["extracted_text"].tolist()
    assert dist["status"].tolist() == gold["status"].tolist()

    # a callable passes through, a name resolves from the registry in
    # order; unknown names fail fast
    def drop_marker(p):
        return bytes(p).replace(b"XXX", b"")

    fns = resolve_preprocessors([drop_marker, "strip_bom"])
    assert fns[0] is drop_marker
    assert fns[1](b"\xef\xbb\xbfab") == b"ab"
    try:
        resolve_preprocessors(["nope"])
        raise AssertionError("expected KeyError")
    except KeyError:
        pass


# ------------------------------------------------------- multi-format targets


def test_write_targets_fan_out(tmp_path, pages_fixture):
    """One extraction pass -> text parquet + csv + jsonl sinks, derived
    formats consistent with the canonical text output."""
    import ray.data as rd

    from pmocr_ray.targets import write_targets

    src, done = _one_shard(pages_fixture, tmp_path)
    out = str(tmp_path / "multi")
    ds = run_extraction(src, done)
    paths = write_targets(ds, out, ["text", "csv", "jsonl"])
    assert set(paths) == {"text", "csv", "jsonl"}

    text = _read(paths["text"]).to_pandas().sort_values("url")
    # csv: real .csv files, csv_text = 3+-space -> ';' hack applied
    csv_files = glob.glob(os.path.join(paths["csv"], "*.csv"))
    assert csv_files
    csv_t = rd.read_csv(paths["csv"]).to_pandas().sort_values("url")
    assert len(csv_t) == len(text)
    assert "csv_text" in csv_t.columns
    # jsonl: one JSON object per line, url+status+extracted_text
    jl = rd.read_json(paths["jsonl"]).to_pandas().sort_values("url")
    assert len(jl) == len(text)
    assert jl["status"].tolist() == text["status"].tolist()

    # unknown target fails fast
    try:
        write_targets(run_extraction(src, done), out, ["nope"])
        raise AssertionError("expected KeyError")
    except KeyError:
        pass


def test_write_targets_column_pruned_read(tmp_path, pages_fixture):
    """Derived-target passes must read ONLY the spec's declared input
    columns from the text parquet: a probe transform sees exactly
    input_columns, never the full text-table schema."""
    from pmocr_ray.targets import TARGETS, TargetSpec

    from pmocr_ray.targets import write_targets

    src, done = _one_shard(pages_fixture, tmp_path)
    ds = run_extraction(src, done)
    text_cols = set(ds.schema().names)
    assert len(text_cols) > 3  # the prune must be observable

    def probe(t):
        # runs in a Ray worker: fail the task (-> the test) on any
        # unpruned read, and record what was seen in the output
        got = tuple(sorted(t.column_names))
        if got != ("extracted_text", "status", "url"):
            raise ValueError(f"unpruned read: {got}")
        return t

    TARGETS["_probe"] = TargetSpec(
        transform=probe, writer="parquet",
        columns=("url", "status"),
        input_columns=("url", "status", "extracted_text"))
    try:
        paths = write_targets(run_extraction(src, done),
                              str(tmp_path / "pruned"), ["text", "_probe"])
    finally:
        TARGETS.pop("_probe", None)
    probed = _read(paths["_probe"]).to_pandas()
    assert len(probed) > 0
    assert sorted(probed.columns) == ["status", "url"]


def test_cli_targets_and_retry_flags(tmp_path, pages_fixture):
    """CLI: --targets fan-out writes per-format dirs; --retry-failed is
    accepted and a rerun after --update-done skips everything."""
    from pmocr_ray.cli import main

    src_dir = str(tmp_path / "in")
    os.makedirs(src_dir)
    pages, seed_manifest = pages_fixture
    shutil.copy(sorted(glob.glob(os.path.join(pages, "*.parquet")))[0],
                os.path.join(src_dir, "p0.parquet"))
    done = str(tmp_path / "done.parquet")
    shutil.copy(seed_manifest, done)
    out = str(tmp_path / "cliout")

    rc = main(["--batch", src_dir, "--out", out, "--done-manifest", done,
               "--targets", "text,jsonl", "--update-done"])
    assert rc == 0
    assert glob.glob(os.path.join(out, "text", "*.parquet"))
    assert glob.glob(os.path.join(out, "jsonl", "*"))

    # after folding, a retry-failed rerun re-drives only quarantined urls
    rc = main(["--batch", src_dir, "--out", out + "2", "--done-manifest",
               done, "--retry-failed", "--update-done"])
    assert rc == 0
    t = _read(out + "2")
    statuses = set(t["status"].to_pylist())
    assert "done" not in statuses  # nothing converted twice
    assert statuses <= {"skipped_suffix", "failed"}


def test_pdf_target_roundtrips_byte_identical(tmp_path, pages_fixture):
    """The pdf target is the exact inverse of the PDF parser: for every
    row with extracted text, extract_pdf(pdf) == extracted_text."""
    from pmocr_ray.extract.pdf_extractor import extract_pdf, pdf_has_text_layer
    from pmocr_ray.targets import write_targets

    src, done = _one_shard(pages_fixture, tmp_path)
    out = str(tmp_path / "pdftgt")
    ds = run_extraction(src, done)
    paths = write_targets(ds, out, ["text", "pdf"])
    text = _read(paths["text"]).to_pandas().set_index("url")
    pdf = _read(paths["pdf"]).to_pandas().set_index("url")
    assert len(pdf) == len(text)
    n_checked = 0
    for url, row in pdf.iterrows():
        expected = text.loc[url, "extracted_text"]
        if expected is None:
            assert row["pdf"] is None
            continue
        payload = bytes(row["pdf"])
        assert pdf_has_text_layer(payload)  # searchable, reference's marker
        assert extract_pdf(payload) == expected
        n_checked += 1
    assert n_checked > 0


def test_docx_target_roundtrips_byte_identical(tmp_path, pages_fixture):
    """The docx target (WORD-analogue: real minimal docx ZIP) is the
    exact inverse of the docx parser: for every row with extracted
    text, extract_docx(docx) == extracted_text."""
    import io
    import zipfile

    from pmocr_ray.extract.docx_extractor import extract_docx
    from pmocr_ray.targets import write_targets

    src, done = _one_shard(pages_fixture, tmp_path)
    out = str(tmp_path / "docxtgt")
    ds = run_extraction(src, done)
    paths = write_targets(ds, out, ["text", "docx"])
    text = _read(paths["text"]).to_pandas().set_index("url")
    docx = _read(paths["docx"]).to_pandas().set_index("url")
    assert len(docx) == len(text)
    n_checked = 0
    for url, row in docx.iterrows():
        expected = text.loc[url, "extracted_text"]
        if expected is None:
            assert row["docx"] is None
            continue
        payload = bytes(row["docx"])
        # it is a real OPC container: zip with the three required parts
        names = zipfile.ZipFile(io.BytesIO(payload)).namelist()
        assert "word/document.xml" in names and "_rels/.rels" in names
        assert extract_docx(payload) == expected
        n_checked += 1
    assert n_checked > 0


def test_docx_registry_route(tmp_path):
    """extract_docx is registered as an extractor: a docx payload
    routed under the 'docx' content type extracts its own text."""
    from pmocr_ray.extract.docx_extractor import build_docx
    from pmocr_ray.extract.registry import EXTRACTORS

    fn = EXTRACTORS["docx"]
    assert fn(build_docx("alpha\nbeta & <gamma>")) == "alpha\nbeta & <gamma>"


def test_xlsx_target_roundtrips_byte_identical(tmp_path, pages_fixture):
    """The xlsx target (EXCEL-analogue: real minimal SpreadsheetML ZIP,
    one row per line / one cell per ;-field) is the exact inverse of
    the xlsx parser: for every row with extracted text,
    extract_xlsx(xlsx) == extracted_text."""
    import io
    import zipfile

    from pmocr_ray.extract.xlsx_extractor import extract_xlsx
    from pmocr_ray.targets import write_targets

    src, done = _one_shard(pages_fixture, tmp_path)
    out = str(tmp_path / "xlsxtgt")
    ds = run_extraction(src, done)
    paths = write_targets(ds, out, ["text", "xlsx"])
    text = _read(paths["text"]).to_pandas().set_index("url")
    xlsx = _read(paths["xlsx"]).to_pandas().set_index("url")
    assert len(xlsx) == len(text)
    n_checked = 0
    for url, row in xlsx.iterrows():
        expected = text.loc[url, "extracted_text"]
        if expected is None:
            assert row["xlsx"] is None
            continue
        payload = bytes(row["xlsx"])
        # a real OPC container with the spreadsheet parts
        names = zipfile.ZipFile(io.BytesIO(payload)).namelist()
        assert "xl/worksheets/sheet1.xml" in names and "xl/workbook.xml" in names
        assert extract_xlsx(payload) == expected
        n_checked += 1
    assert n_checked > 0


def test_xlsx_registry_route(tmp_path):
    """extract_xlsx is registered as an extractor: an xlsx payload
    routed under the 'xlsx' content type extracts its own text."""
    from pmocr_ray.extract.registry import EXTRACTORS
    from pmocr_ray.extract.xlsx_extractor import build_xlsx

    fn = EXTRACTORS["xlsx"]
    assert fn(build_xlsx("a;b & <c>\nsecond line\n;;\ntrail ")) \
        == "a;b & <c>\nsecond line\n;;\ntrail "


def test_xlsx_inverse_edge_cases():
    """split/join inverse holds for empty text, empty lines, empty
    cells, unicode, XML entities, and preserved spacing."""
    from pmocr_ray.extract.xlsx_extractor import build_xlsx, extract_xlsx

    for text in ["", "x", ";", "\n", "a;;b", "  lead;trail  ",
                 "é;ü\n中文;日本語", "a&b<c>d\"e'f", "1;2;3\n4;5;6"]:
        assert extract_xlsx(build_xlsx(text)) == text, repr(text)


def test_xlsx_deterministic_bytes():
    from pmocr_ray.extract.xlsx_extractor import build_xlsx

    assert build_xlsx("a;b\nc") == build_xlsx("a;b\nc")


def test_x_encode_overlapping_lookalikes_roundtrip():
    """Overlapping _xHHHH_ look-alikes (shared underscore) and literal
    '_xHHHH' prefixes adjacent to control chars must survive the
    encode/decode inverse — the two traps of the decoder's
    non-overlapping left-to-right scan."""
    from pmocr_ray.extract.docx_extractor import (build_docx, extract_docx,
                                                  x_decode, x_encode)
    from pmocr_ray.extract.xlsx_extractor import build_xlsx, extract_xlsx

    cases = ["_x0041_x0042_", "_x005F_x0041_", "_x0041\x01",
             "_x0041_x0042\x01", "__x0041_", "_x005F", "_x005F_",
             "_x0041", "\x01\x02", "a_xBEEF_b", "_x0041__x0042_",
             "_x0009_", "tab\there", "_x", "_", "x0041_"]
    for s in cases:
        assert x_decode(x_encode(s)) == s, repr(s)
        assert extract_docx(build_docx(s)) == s, repr(s)
        assert extract_xlsx(build_xlsx(s)) == s, repr(s)


@given(s=st.text(alphabet="_x0045Fab\x01\x02\x1f\r", max_size=24))
@settings(max_examples=400, deadline=None)
def test_x_encode_roundtrip_property(s):
    from pmocr_ray.extract.docx_extractor import x_decode, x_encode

    assert x_decode(x_encode(s)) == s


def test_write_targets_rerun_does_not_duplicate(tmp_path, ray_session):
    """Re-running write_targets into the same out_dir (retry after a
    crash) must not append a second copy of every row."""
    import pandas as pd
    import ray.data as rd

    from pmocr_ray.targets import write_targets

    ds = rd.from_pandas(pd.DataFrame({
        "url": [f"u{i}" for i in range(10)],
        "extracted_text": [f"t{i}" for i in range(10)],
        "status": ["done"] * 10,
    }))
    out = str(tmp_path / "tgt")
    for _ in range(2):
        paths = write_targets(ds, out, ["text", "jsonl"])
    assert rd.read_parquet(paths["text"]).count() == 10
    assert rd.read_json(paths["jsonl"]).count() == 10
