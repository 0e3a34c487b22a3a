"""Config loader + CLI tests — the reference's flag/config matrix
(run_tests.sh:165-314 exercises default / -k / suffix / delete flag
combinations; here: config file, revision gate, CLI override
precedence, and the -k / --no-skip-txt-pdf behavior flip)."""

import glob
import json
import os

import pyarrow.parquet as pq
import pytest

from pmocr_ray.config import (
    CONFIG_REVISION,
    PipelineConfig,
    apply_overrides,
    coerce_bool,
    load_config,
)


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.check_existing_text is True

    def test_coerce_bool_legacy(self):
        assert coerce_bool("yes") is True and coerce_bool("No") is False
        with pytest.raises(ValueError):
            coerce_bool("maybe")

    def test_load_and_override(self, tmp_path):
        p = tmp_path / "pipe.conf"
        p.write_text(
            f"config_revision={CONFIG_REVISION}\n"
            "# comment\n"
            "check_existing_text=no\n"
            "num_blocks=17\n"
            'out_dir="/tmp/x"\n'
        )
        cfg = load_config(str(p))
        assert cfg.check_existing_text is False
        assert cfg.num_blocks == 17 and cfg.out_dir == "/tmp/x"
        cfg2 = apply_overrides(cfg, num_blocks=99, out_dir=None)
        assert cfg2.num_blocks == 99 and cfg2.out_dir == "/tmp/x"

    def test_revision_gate(self, tmp_path):
        p = tmp_path / "old.conf"
        p.write_text("config_revision=999\n")
        with pytest.raises(ValueError, match="revision"):
            load_config(str(p))

    @pytest.mark.parametrize("n", [0, -1])
    def test_non_positive_num_blocks_rejected(self, tmp_path, n):
        # caught at load, not deep inside Ray's read planning
        p = tmp_path / "blocks.conf"
        p.write_text(f"num_blocks={n}\n")
        with pytest.raises(ValueError, match="num_blocks"):
            load_config(str(p))

    @pytest.mark.parametrize("key,val,expected", [
        # only an ``X | None`` field takes None
        ("max_payload_bytes", "none", None),
        ("manifest_dir", "", None),
        # an empty str field is "", not None
        ("targets", "", ""),
        ("out_dir", "", ""),
        # any other none/empty value, or a negative size, is an error
        ("check_existing_text", "none", ValueError),
        ("check_existing_text", "", ValueError),
        ("targets", "none", ValueError),
        ("poll_interval_s", "", ValueError),
        ("max_payload_bytes", "-1k", ValueError),
    ])
    def test_none_and_empty_values(self, tmp_path, key, val, expected):
        p = tmp_path / "vals.conf"
        p.write_text(f"{key}={val}\n")
        if expected is ValueError:
            with pytest.raises(ValueError, match=key):
                load_config(str(p))
            return
        cfg = load_config(str(p))
        assert getattr(cfg, key) == expected
        assert cfg.target_list() == []

    def test_unknown_key_rejected(self, tmp_path):
        # retired settings included: a config still setting one must
        # fail, not be silently ignored
        for key in ("no_such_knob", "max_attempts", "max_total_attempts",
                    "emit_csv", "batch_size"):
            p = tmp_path / "bad.conf"
            p.write_text(f"{key}=1\n")
            with pytest.raises(ValueError, match="unknown key"):
                load_config(str(p))


class TestCli:
    def _run(self, argv, capsys):
        from pmocr_ray.cli import main

        rc = main(argv)
        out = capsys.readouterr().out.strip().splitlines()[-1]
        return rc, json.loads(out)

    def test_batch_mode(self, pages_fixture, tmp_path, capsys):
        pages, done = pages_fixture
        out_dir = str(tmp_path / "out")
        rc, counts = self._run(
            ["--batch", pages, "--out", out_dir, "--done-manifest", done], capsys
        )
        assert rc == 0
        assert counts == {"done": 3000, "failed": 200,
                          "skipped_existing_text": 400, "skipped_suffix": 400}
        assert glob.glob(os.path.join(out_dir, "*.parquet"))

    def test_no_skip_txt_pdf_flag_flips_behavior(self, pages_fixture, tmp_path, capsys):
        """--no-skip-txt-pdf: searchable PDFs go through the engine
        (CHECK_PDF=no semantics) instead of being skipped."""
        pages, done = pages_fixture
        rc, counts = self._run(
            ["--batch", pages, "--out", str(tmp_path / "o2"),
             "--done-manifest", done, "--no-skip-txt-pdf"], capsys
        )
        assert rc == 0
        assert "skipped_existing_text" not in counts
        assert counts["done"] == 3400  # searchable PDFs extracted instead

    def test_batch_targets_text_csv(self, pages_fixture, tmp_path, capsys):
        """--targets text,csv in batch mode: the csv sink carries the
        CSV-hack column, and the printed counts are the text sink's."""
        import collections

        import pyarrow.csv as pa_csv

        pages, done = pages_fixture
        out_dir = str(tmp_path / "o3")
        rc, counts = self._run(
            ["--batch", pages, "--out", out_dir, "--done-manifest", done,
             "--targets", "text,csv"], capsys
        )
        assert rc == 0
        csv_files = glob.glob(os.path.join(out_dir, "csv", "*.csv"))
        assert csv_files
        for f in csv_files:
            assert "csv_text" in pa_csv.read_csv(f).column_names
        statuses = []
        for f in glob.glob(os.path.join(out_dir, "text", "*.parquet")):
            statuses += pq.read_table(f, columns=["status"])["status"].to_pylist()
        assert counts == dict(collections.Counter(statuses))
        assert counts == {"done": 3000, "failed": 200,
                          "skipped_existing_text": 400, "skipped_suffix": 400}

    def test_service_mode_rounds(self, pages_fixture, tmp_path, capsys):
        pages, done = pages_fixture
        rc, out = self._run(
            ["--service", pages, "--out", str(tmp_path / "o4"),
             "--done-manifest", done, "--rounds", "1", "--interval", "0.1"],
            capsys,
        )
        assert rc == 0 and out["partitions"] == len(
            glob.glob(os.path.join(pages, "*.parquet"))
        )

    def test_service_mode_honors_engine_config(self, pages_fixture,
                                               tmp_path, capsys):
        """--service runs with the same engine settings as --batch:
        --no-skip-txt-pdf sends searchable PDFs through the engine."""
        pages, done = pages_fixture
        out_dir = str(tmp_path / "o8")
        rc, _ = self._run(
            ["--service", pages, "--out", out_dir, "--done-manifest", done,
             "--rounds", "1", "--no-skip-txt-pdf"],
            capsys,
        )
        assert rc == 0
        statuses = []
        for f in glob.glob(os.path.join(out_dir, "part-*", "*.parquet")):
            statuses += pq.read_table(f, columns=["status"])["status"].to_pylist()
        assert "skipped_existing_text" not in statuses
        assert statuses.count("done") == 3400

    def test_service_mode_multi_dir_cli(self, pages_fixture, tmp_path,
                                        capsys):
        """--service DIR1:tgts DIR2:tgts — one CLI invocation watches
        both dirs with per-dir target bundles (one-daemon-N-dirs,
        pmocr.sh:2519-2537)."""
        import shutil

        pages, done = pages_fixture
        src = sorted(glob.glob(os.path.join(pages, "*.parquet")))
        d0, d1 = tmp_path / "in0", tmp_path / "in1"
        d0.mkdir(), d1.mkdir()
        shutil.copy(src[0], d0 / os.path.basename(src[0]))
        shutil.copy(src[1], d1 / os.path.basename(src[1]))
        out_dir = str(tmp_path / "o6")
        rc, out = self._run(
            ["--service", f"{d0}:text+csv", f"{d1}:text+jsonl",
             "--out", out_dir, "--done-manifest", done,
             "--rounds", "1", "--interval", "0.1"],
            capsys,
        )
        assert rc == 0 and out["partitions"] == 2
        assert out["per_dir"][str(d0)]["partitions"] == 1
        assert out["per_dir"][str(d1)]["partitions"] == 1
        p0 = glob.glob(os.path.join(out_dir, "in0-0", "part-*"))[0]
        p1 = glob.glob(os.path.join(out_dir, "in1-1", "part-*"))[0]
        assert sorted(os.listdir(p0)) == ["csv", "text"]
        assert sorted(os.listdir(p1)) == ["jsonl", "text"]
        # each nested dir still skips the urls of the one --done-manifest
        from pmocr_ray.state.manifest import load_done_urls

        in_done = load_done_urls(done).intersection(
            pq.read_table(src[0], columns=["url"])["url"].to_pylist())
        statuses = []
        for f in glob.glob(os.path.join(p0, "text", "*.parquet")):
            statuses += pq.read_table(f, columns=["status"])[
                "status"].to_pylist()
        assert in_done and statuses.count("skipped_suffix") == len(in_done)

    def test_service_mode_auto_from_config(self, pages_fixture, tmp_path,
                                           capsys):
        """--service auto: the watcher list comes from the config
        file's service_dirs (the reference's MONITOR_DIR_1..5,
        default.conf:116-126)."""
        import shutil

        pages, done = pages_fixture
        src = sorted(glob.glob(os.path.join(pages, "*.parquet")))
        d0, d1 = tmp_path / "cin0", tmp_path / "cin1"
        d0.mkdir(), d1.mkdir()
        shutil.copy(src[0], d0 / os.path.basename(src[0]))
        shutil.copy(src[1], d1 / os.path.basename(src[1]))
        conf = tmp_path / "svc.conf"
        conf.write_text(f"service_dirs={d0}:text+csv,{d1}\n")
        out_dir = str(tmp_path / "o7")
        rc, out = self._run(
            ["--service", "auto", "--config", str(conf), "--out", out_dir,
             "--done-manifest", done, "--rounds", "1", "--interval", "0.1"],
            capsys,
        )
        assert rc == 0 and out["partitions"] == 2
        p0 = glob.glob(os.path.join(out_dir, "cin0-0", "part-*"))[0]
        assert sorted(os.listdir(p0)) == ["csv", "text"]
        # plain parquet partition for the bundle-less dir
        assert glob.glob(os.path.join(out_dir, "cin1-1", "part-*",
                                      "*.parquet"))

    def test_service_mode_push(self, pages_fixture, tmp_path, capsys):
        """--push: the inotify-event service loop through the CLI
        (single immediate round; the push wait only gates LATER
        rounds, so --rounds 1 terminates without an event)."""
        pages, done = pages_fixture
        rc, out = self._run(
            ["--service", pages, "--out", str(tmp_path / "o5"),
             "--done-manifest", done, "--rounds", "1", "--push",
             "--max-wait", "5"],
            capsys,
        )
        assert rc == 0 and out["partitions"] == len(
            glob.glob(os.path.join(pages, "*.parquet"))
        )
        from pmocr_ray.state.inotify import inotify_available

        assert out["mode"] == ("inotify" if inotify_available()
                               else "poller")
