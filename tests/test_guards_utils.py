"""Tests for the per-row size guard, size parsing and the run logger (SURVEY §2.3/§2.7 utility parity)."""

import os

import pyarrow as pa
import pytest

from pmocr_ray.config import parse_size
from pmocr_ray.fixtures import build_html_page
from pmocr_ray.state_machine import process_row

TEXT = "guard test words one two three four five six seven eight nine ten"
HTML = build_html_page(TEXT, site=1, lang="en", variant=0, giant=False)


class TestPayloadGuard:
    def test_oversize_payload_quarantined_without_parse(self):
        ct, status, attempts, error, text = process_row(
            HTML, None, False, max_payload_bytes=10
        )
        assert status == "failed" and attempts == 0
        assert "exceeds cap" in error and text is None

    def test_under_cap_processed_normally(self):
        ct, status, attempts, error, text = process_row(
            HTML, None, False, max_payload_bytes=10_000_000
        )
        assert status == "done" and text == TEXT

    def test_guard_deterministic_vs_unguarded(self):
        a = process_row(HTML, None, False, max_payload_bytes=None)
        b = process_row(HTML, None, False, max_payload_bytes=len(HTML))
        assert a == b


class TestParseSize:
    @pytest.mark.parametrize("s,expected", [
        ("1024", 1024), ("64K", 64 * 1024), ("2M", 2 << 20),
        ("1G", 1 << 30), ("1.5k", 1536), ("2MB", 2 << 20),
    ])
    def test_values(self, s, expected):
        assert parse_size(s) == expected


def test_run_logger_writes_file(tmp_path):
    from pmocr_ray.runlog import get_run_logger

    log = get_run_logger("test-run-xyz", log_dir=str(tmp_path))
    log.info("hello %s", "world")
    content = open(os.path.join(tmp_path, "test-run-xyz.log")).read()
    assert "hello world" in content and "INFO" in content


class TestListMatrix:
    """pmocr_ray.ops.knn.list_matrix — zero-copy (n, d) builds must be
    value-identical to the to_pylist path, and ragged/null columns must
    take the safe fallback instead of silently misaligning."""

    def test_fixed_width_matches_pylist(self):
        import numpy as np
        import pyarrow as pa

        from pmocr_ray.ops.knn import list_matrix

        rows = [[1.0, 2.5, -3.0], [0.0, 4.0, 5.5], [7.0, -8.0, 9.25]]
        col = pa.chunked_array([rows[:2], rows[2:]],
                               type=pa.list_(pa.float64()))
        got = list_matrix(col)
        assert got.shape == (3, 3)
        assert np.array_equal(got, np.asarray(rows))

    def test_ragged_raises_never_misaligns(self):
        import pyarrow as pa
        import pytest

        from pmocr_ray.ops.knn import list_matrix

        # 3 rows, 6 values total — divisible by n, but ragged (3/1/2):
        # the flatten-reshape shortcut would silently interleave values
        # across rows; the sizes check must route to the fallback, which
        # raises loudly (same contract as the former to_pylist path)
        rows = [[1.0, 2.0, 3.0], [4.0], [5.0, 6.0]]
        col = pa.array(rows, type=pa.list_(pa.float64()))
        with pytest.raises(ValueError):
            list_matrix(col)

    def test_null_row_raises_never_misaligns(self):
        import pyarrow as pa
        import pytest

        from pmocr_ray.ops.knn import list_matrix

        col = pa.array([[1.0, 2.0], None, [3.0, 4.0]],
                       type=pa.list_(pa.float64()))
        # a None row must surface as an error, never be absorbed into a
        # misaligned dense matrix
        with pytest.raises((ValueError, TypeError)):
            list_matrix(col)

    def test_empty(self):
        import pyarrow as pa

        from pmocr_ray.ops.knn import list_matrix

        got = list_matrix(pa.array([], type=pa.list_(pa.float64())))
        assert got.shape[0] == 0

    def test_float32_input_upcasts(self):
        import numpy as np
        import pyarrow as pa

        from pmocr_ray.ops.knn import list_matrix

        col = pa.array([[1.5, 2.5], [3.5, 4.5]],
                       type=pa.list_(pa.float32()))
        got = list_matrix(col)
        assert got.dtype == np.float64
        assert np.array_equal(got, [[1.5, 2.5], [3.5, 4.5]])


class TestAlertTransports:
    """The concrete transport behind make_alert_hook's seam (a spool
    directory a deployment's mail/pager integration tails)."""

    RECORD = {"alert": "run_completed_with_failures", "failed_rows": 3}

    def test_file_transport_spools_one_json_per_alert(self, tmp_path):
        import json
        import os

        from pmocr_ray.runlog import file_transport

        send = file_transport(str(tmp_path / "spool"))
        send(self.RECORD)
        send(self.RECORD)  # idempotent-name sequencing, no collision
        files = sorted(os.listdir(tmp_path / "spool"))
        assert len(files) == 2 and not any(f.endswith(".tmp") for f in files)
        for f in files:
            with open(tmp_path / "spool" / f) as fh:
                assert json.load(fh) == self.RECORD


def test_run_logger_late_log_dir_attaches_file_sink(tmp_path):
    """A stream-only first call must not lock the run's logger: a later
    call that supplies log_dir still creates the run log file."""
    import logging
    import os

    from pmocr_ray.runlog import get_run_logger

    lg1 = get_run_logger("latefile")
    assert not any(isinstance(h, logging.FileHandler) for h in lg1.handlers)
    lg2 = get_run_logger("latefile", log_dir=str(tmp_path))
    assert lg2 is lg1
    lg2.info("hello")
    path = os.path.join(str(tmp_path), "latefile.log")
    assert os.path.exists(path) and "hello" in open(path).read()
    # idempotent: same dir again does not stack a second file handler
    get_run_logger("latefile", log_dir=str(tmp_path))
    assert sum(isinstance(h, logging.FileHandler)
               for h in lg1.handlers) == 1
