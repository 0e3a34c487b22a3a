"""Golden-span conformance: distributed output byte-identical per url
to the single-process oracle, at multiple parallelism/partitioning
settings — the analogue of the reference's end-to-end batch assertions
(/root/reference/dev/tests/run_tests.sh:165-314) including the
engine-failure quarantine case (run_tests.sh:409-427).
"""

import pandas as pd
import pytest

from pmocr_ray.oracle import run_oracle
from pmocr_ray.pipeline import run_extraction, status_counts
from pmocr_ray.stages import csv_hack

COMPARE_COLS = [
    "url", "warc_ts", "lang", "content_type",
    "status", "attempts", "error", "extracted_text",
]


@pytest.fixture(scope="module")
def golden(pages_fixture):
    pages, manifest = pages_fixture
    return run_oracle(pages, manifest).to_pandas().sort_values("url").reset_index(drop=True)


def _run(pages, manifest, **kw):
    out = run_extraction(pages, manifest, **kw).to_pandas()
    return out.sort_values("url").reset_index(drop=True)


def _assert_identical(out: pd.DataFrame, golden: pd.DataFrame):
    assert len(out) == len(golden)
    for c in COMPARE_COLS:
        eq = out[c].fillna("\0") == golden[c].fillna("\0") if out[c].dtype == object \
            else out[c] == golden[c]
        assert eq.all(), f"column {c}: {(~eq).sum()} mismatching rows"


def test_byte_identical_default(pages_fixture, golden):
    pages, manifest = pages_fixture
    _assert_identical(_run(pages, manifest), golden)


def test_byte_identical_other_partitioning(pages_fixture, golden):
    """Different block count and batch size must not change a single
    byte (determinism under distribution, SURVEY §7.4)."""
    pages, manifest = pages_fixture
    out = _run(pages, manifest, num_blocks=3, batch_size=17)
    _assert_identical(out, golden)


def test_without_done_manifest_everything_processed(pages_fixture):
    pages, _ = pages_fixture
    counts = status_counts(run_extraction(pages, None))
    assert "skipped_suffix" not in counts
    # 4000 pages: classes 0..13,16,17,19 extract (16/20), 14..15 skip, 18 poisons
    assert counts["done"] == 3400
    assert counts["skipped_existing_text"] == 400
    assert counts["failed"] == 200


def test_status_distribution_matches_class_shares(pages_fixture):
    pages, manifest = pages_fixture
    counts = status_counts(run_extraction(pages, manifest))
    assert counts == {
        "done": 3000,              # 55% html + 15% pdf + 5% giant of 4000
        "skipped_suffix": 400,     # 10% already-done
        "skipped_existing_text": 400,  # 10% searchable pdf
        "failed": 200,             # 5% poison, after retry-once
    }


def test_failed_rows_carry_truncated_error(pages_fixture):
    pages, manifest = pages_fixture
    out = _run(pages, manifest)
    failed = out[out.status == "failed"]
    assert (failed.attempts == 2).all()
    assert failed.error.notna().all()
    assert (failed.error.str.len() <= 16384).all()
    assert failed.extracted_text.isna().all()


def test_partitioned_by_status_output(pages_fixture, tmp_path):
    """Hive-style status partitions: quarantined rows land in
    status=failed/ (the reference's failure-move directory, reified)."""
    import glob
    import os

    import pyarrow.parquet as pq

    from pmocr_ray.pipeline import write_output

    pages, manifest = pages_fixture
    out = str(tmp_path / "by_status")
    write_output(run_extraction(pages, manifest), out, partition_by_status=True)
    subdirs = {os.path.basename(p) for p in glob.glob(os.path.join(out, "*"))}
    assert subdirs == {"status=done", "status=failed",
                       "status=skipped_existing_text", "status=skipped_suffix"}
    failed_rows = sum(
        pq.read_metadata(f).num_rows
        for f in glob.glob(os.path.join(out, "status=failed", "*.parquet")))
    assert failed_rows == 200


def test_csv_hack_stage(ray_session):
    """Reference CSV hack: 3+ spaces -> ';' (pmocr.sh:2013-2043)."""
    import pyarrow as pa

    batch = pa.table({"extracted_text": ["a   b      c", "x  y", "n   "]})
    out = csv_hack(batch)
    assert out["csv_text"].to_pylist() == ["a;b;c", "x  y", "n;"]
