"""Golden-span conformance: distributed output byte-identical per url
to the single-process oracle, at multiple parallelism/partitioning
settings — the analogue of the reference's end-to-end batch assertions
(/root/reference/dev/tests/run_tests.sh:165-314) including the
engine-failure quarantine case (run_tests.sh:409-427).
"""

import os
import re

import pandas as pd
import pyarrow.parquet as pq
import pytest
import ray

from pmocr_ray import pipeline
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
    """A different block count must not change a single byte
    (determinism under distribution, SURVEY §7.4): three blocks over
    the fixture's six files group the read and fuse it into the
    extract, where the default's 20 split it."""
    pages, manifest = pages_fixture
    ds = run_extraction(pages, manifest, num_blocks=3).materialize()
    assert _operators(ds) == ["ReadParquet->MapBatches(_extract)"]
    assert _tasks(ds) == [3]
    out = ds.to_pandas().sort_values("url").reset_index(drop=True)
    _assert_identical(out, golden)


@pytest.mark.parametrize("num_blocks", [0, -1])
def test_non_positive_num_blocks_rejected(pages_fixture, num_blocks):
    """Caught before the read is planned, naming the argument, instead
    of failing inside Ray's read planning with numpy's ``ValueError``
    (0) or a bare ``IndexError`` (-1)."""
    pages, manifest = pages_fixture
    with pytest.raises(ValueError, match="num_blocks"):
        run_extraction(pages, manifest, num_blocks=num_blocks)


def _cut_pages(pages: str, out_dir, files: int, rows: int) -> str:
    """``files`` parquet files of ``rows`` pages each, cut from the
    front of the pages fixture."""
    t = pq.read_table(pages)
    out_dir.mkdir()
    for i in range(files):
        pq.write_table(t.slice(i * rows, rows), out_dir / f"p{i:02d}.parquet")
    return str(out_dir)


def _operators(ds) -> list[str]:
    return re.findall(r"^Operator \d+ (\S+):", ds.stats(), re.M)


def _tasks(ds) -> list[int]:
    return [int(n) for n in re.findall(
        r"^Operator \d+ \S+: (\d+) tasks executed", ds.stats(), re.M)]


@pytest.mark.parametrize("cpus", [None, 1])
def test_default_plan_fuses_read_into_extract(pages_fixture, tmp_path,
                                              monkeypatch, cpus):
    """An input of as many files as default read blocks (20, 5 per CPU,
    in the 4-CPU test session; 1 when the cluster reports one CPU) runs
    as one fused operator with one task per block, and the payload
    never enters the object store between read and extract.  Its rows
    are still the oracle's, byte for byte."""
    pages, manifest = pages_fixture
    if cpus is not None:
        monkeypatch.setattr(pipeline, "_cluster_cpus", lambda: cpus)
    files = 1 if cpus == 1 else 20
    src = _cut_pages(pages, tmp_path / "many", files=files, rows=240 // files)
    ds = run_extraction(src, manifest).materialize()
    assert _operators(ds) == ["ReadParquet->MapBatches(_extract)"]
    assert _tasks(ds) == [files]
    out = ds.to_pandas().sort_values("url").reset_index(drop=True)
    golden = run_oracle(src, manifest).to_pandas().sort_values(
        "url").reset_index(drop=True)
    _assert_identical(out, golden)


def test_fewer_files_than_blocks_are_split(pages_fixture, tmp_path):
    """One file fewer than the session's 20 default blocks is split:
    Ray cuts each of the 19 files into ceil(20 / 19) = 2 blocks, which
    it cannot fuse into the extract."""
    pages, manifest = pages_fixture
    src = _cut_pages(pages, tmp_path / "few", files=19, rows=12)
    ops = _operators(run_extraction(src, manifest).materialize())
    assert ops == ["ReadParquet->SplitBlocks(2)", "MapBatches(_extract)"]


@pytest.mark.parametrize("cpus, parts, ops, tasks", [
    (1, 3, ["ReadParquet->MapBatches(_extract)"], [3]),
    (1, 12, ["ReadParquet->SplitBlocks(2)", "MapBatches(_extract)"], None),
    (None, 24, ["ReadParquet->SplitBlocks(4)", "MapBatches(_extract)"], None),
])
def test_default_blocks_grow_with_input_bytes(pages_fixture, golden,
                                              monkeypatch, cpus, parts, ops,
                                              tasks):
    """Past ``_TASK_INPUT_BYTES`` of input per block the default block
    count follows the input's bytes, not the CPUs, so a fused task's
    share of the output stays bounded: with a budget of a third of the
    six-file fixture it runs three fused tasks of two files; with a
    twelfth, or a 24th at 4 CPUs (more than the 20 blocks of the CPU
    rule), the read is split into batches of rows.  Rows stay the
    oracle's."""
    pages, manifest = pages_fixture
    total = sum(os.path.getsize(os.path.join(pages, f))
                for f in os.listdir(pages))
    assert pipeline._input_bytes(pages) == total
    if cpus is not None:
        monkeypatch.setattr(pipeline, "_cluster_cpus", lambda: cpus)
    monkeypatch.setattr(pipeline, "_TASK_INPUT_BYTES", -(-total // parts))
    assert pipeline._default_num_blocks(pages) == parts
    ds = run_extraction(pages, manifest).materialize()
    assert _operators(ds) == ops
    if tasks is not None:
        assert _tasks(ds) == tasks
    out = ds.to_pandas().sort_values("url").reset_index(drop=True)
    _assert_identical(out, golden)


def test_one_file_input_is_split_and_rebundled(pages_fixture, tmp_path):
    """A one-file input (a service partition) is still split into 20
    blocks at 4 CPUs, and the extract re-bundles them by rows: 600 rows
    are written as at most ceil(600 / 256) = 3 files, not one per
    block."""
    pages, manifest = pages_fixture
    src = _cut_pages(pages, tmp_path / "one", files=1, rows=600)
    ops = _operators(run_extraction(src, manifest).materialize())
    assert ops == ["ReadParquet->SplitBlocks(20)", "MapBatches(_extract)"]
    out = tmp_path / "out"
    run_extraction(src, manifest).write_parquet(str(out))
    files = list(out.glob("*.parquet"))
    assert 1 <= len(files) <= 3
    assert sum(pq.read_metadata(f).num_rows for f in files) == 600


def test_one_file_service_partition_fuses_at_one_cpu(pages_fixture, tmp_path,
                                                     monkeypatch):
    """At one CPU a one-file service partition is one read block: the
    round runs it as one fused read → extract → write task, writes one
    output file, commits it, and its rows are the oracle's."""
    from pmocr_ray.state.manifest import LineageManifest, run_incremental

    pages, manifest = pages_fixture
    monkeypatch.setattr(pipeline, "_cluster_cpus", lambda: 1)
    src = _cut_pages(pages, tmp_path / "in", files=1, rows=600)
    runs = []
    run_extraction_ = pipeline.run_extraction

    def recording(*a, **kw):
        runs.append(run_extraction_(*a, **kw))
        return runs[-1]

    monkeypatch.setattr(pipeline, "run_extraction", recording)
    out_dir, manifest_dir = tmp_path / "out", tmp_path / "lineage"
    summary = run_incremental(src, str(out_dir), str(manifest_dir), manifest)
    (key,) = summary["processed"]
    assert LineageManifest(str(manifest_dir)).is_committed(key)
    (ds,) = runs
    assert _operators(ds) == ["ReadParquet->MapBatches(_extract)->Write"]
    assert _tasks(ds) == [1]
    part = out_dir / f"part-{key}"
    files = list(part.glob("*.parquet"))
    assert len(files) == 1
    out = pq.read_table(files[0]).to_pandas().sort_values(
        "url").reset_index(drop=True)
    golden = run_oracle(src, manifest).to_pandas().sort_values(
        "url").reset_index(drop=True)
    _assert_identical(out, golden)


def test_plan_sized_after_the_session_starts(monkeypatch):
    """With no session up, ``_cluster_cpus`` makes Ray Data's own bare
    ``ray.init()`` before it reads the cluster's CPUs, instead of
    sizing the plan against a default."""
    calls = []
    resources = ray.cluster_resources
    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    monkeypatch.setattr(ray, "init",
                        lambda *a, **kw: calls.append(("init", a, kw)))
    monkeypatch.setattr(ray, "cluster_resources",
                        lambda: calls.append("resources") or resources())
    assert pipeline._cluster_cpus() == 4
    assert calls == [("init", (), {}), "resources"]


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


def test_csv_hack_stage(ray_session):
    """Reference CSV hack: 3+ spaces -> ';' (pmocr.sh:2013-2043)."""
    import pyarrow as pa

    batch = pa.table({"extracted_text": ["a   b      c", "x  y", "n   "]})
    out = csv_hack(batch)
    assert out["csv_text"].to_pylist() == ["a;b;c", "x  y", "n;"]
