"""Lineage manifest + incremental/service-mode tests.

Reference parity: idempotent restart via filename-suffix state
(pmocr.sh:2126-2144), service mode processing only new arrivals
(pmocr.sh:2226-2281), atomic state flips (rename, pmocr.sh:2088-2096).
"""

import glob
import json
import os
import shutil

import pyarrow.parquet as pq
import pytest

from pmocr_ray.state.manifest import (
    LineageManifest,
    _partition_key,
    list_partitions,
    run_incremental,
)


@pytest.fixture()
def tmp_env(tmp_path, pages_fixture):
    """Copy a few fixture partitions into a fresh monitored dir."""
    pages, done_manifest = pages_fixture
    src = sorted(glob.glob(os.path.join(pages, "*.parquet")))
    monitored = tmp_path / "incoming"
    monitored.mkdir()
    for f in src[:2]:
        shutil.copy(f, monitored / os.path.basename(f))
    return {
        "monitored": str(monitored),
        "out": str(tmp_path / "out"),
        "manifest": str(tmp_path / "manifest"),
        "done": done_manifest,
        "remaining": src[2:],
    }


def _output_urls(out_dir):
    urls = []
    for f in glob.glob(os.path.join(out_dir, "part-*", "*.parquet")):
        urls.extend(pq.read_table(f, columns=["url"])["url"].to_pylist())
    return urls


def test_incremental_processes_then_skips(tmp_env):
    s1 = run_incremental(tmp_env["monitored"], tmp_env["out"], tmp_env["manifest"],
                         tmp_env["done"])
    assert len(s1["processed"]) == 2 and not s1["skipped"]
    urls1 = _output_urls(tmp_env["out"])
    assert len(urls1) == len(set(urls1))  # exactly-once per url

    # second run: nothing new -> all skipped, output unchanged
    s2 = run_incremental(tmp_env["monitored"], tmp_env["out"], tmp_env["manifest"],
                         tmp_env["done"])
    assert not s2["processed"] and len(s2["skipped"]) == 2
    assert sorted(_output_urls(tmp_env["out"])) == sorted(urls1)


def test_new_partition_picked_up_by_poll(tmp_env):
    run_incremental(tmp_env["monitored"], tmp_env["out"], tmp_env["manifest"],
                    tmp_env["done"])
    # a new partition "arrives" (service-mode event)
    new = tmp_env["remaining"][0]
    shutil.copy(new, os.path.join(tmp_env["monitored"], os.path.basename(new)))
    s = run_incremental(tmp_env["monitored"], tmp_env["out"], tmp_env["manifest"],
                        tmp_env["done"])
    assert len(s["processed"]) == 1 and len(s["skipped"]) == 2


def test_dirwatcher_push_events(tmp_path):
    """The ctypes inotify binding delivers created/renamed-in file
    names and times out cleanly (the reference's inotifywait contract,
    pmocr.sh:2268-2270)."""
    import threading
    import time as _t

    from pmocr_ray.state.inotify import DirWatcher, inotify_available, wait_any

    if not inotify_available():  # pragma: no cover - non-Linux
        pytest.skip("platform lacks inotify")
    d = tmp_path / "watched"
    d.mkdir()
    with DirWatcher(str(d), suffix=".parquet") as w:
        assert wait_any([w], 0.05) == {}  # timeout -> forced-run wake

        def arrive():
            _t.sleep(0.1)
            (d / "ignored.tmp").write_bytes(b"x")   # filtered by suffix
            tmp = d / "part-0.parquet.tmp"
            tmp.write_bytes(b"x")
            os.replace(tmp, d / "part-0.parquet")   # rename-in (MOVED_TO)

        t = threading.Thread(target=arrive)
        t.start()
        events = wait_any([w], 5.0)
        t.join()
        assert events == {str(d): ["part-0.parquet"]}


def test_serve_push_wakes_on_new_partition(tmp_env):
    """serve_multi push mode on one directory: first round immediate,
    second round woken by the partition file landing (push, not poll)
    — and the woken round processes exactly the new partition."""
    import threading
    import time as _t

    from pmocr_ray.state.inotify import inotify_available
    from pmocr_ray.state.manifest import ServiceDirSpec, serve_multi

    new = tmp_env["remaining"][0]

    def arrive():
        _t.sleep(0.3)
        shutil.copy(new, os.path.join(tmp_env["monitored"],
                                      os.path.basename(new)))

    t = threading.Thread(target=arrive)
    t.start()
    # max_wait_s far above the arrival delay: only the push event can
    # wake round 2 quickly; the poller fallback (non-Linux) still
    # terminates via poll_interval_s
    spec = ServiceDirSpec(pages_dir=tmp_env["monitored"],
                          out_dir=tmp_env["out"],
                          manifest_dir=tmp_env["manifest"],
                          done_manifest_path=tmp_env["done"])
    summary = serve_multi([spec], push=True, max_wait_s=30.0,
                          poll_interval_s=1.0, max_rounds=2)
    t.join()
    assert summary["rounds"] == 2
    if inotify_available():
        assert summary["mode"] == "inotify"
        assert summary["last_events"] == {
            tmp_env["monitored"]: [os.path.basename(new)]}
    manifest = LineageManifest(tmp_env["manifest"])
    assert len(manifest.committed()) == 3  # 2 initial + the pushed one


def test_serve_multi_two_dirs_isolated_targets(tmp_path, pages_fixture):
    """One service process, two watched dirs with DIFFERENT target
    bundles (reference: one daemon, up to 5 monitor dirs with per-dir
    format lists, pmocr.sh:2519-2537 / default.conf:116-126): each dir
    gets its own manifest, output subtree and formats; manifests are
    isolated; a second round skips everything."""
    from pmocr_ray.state.manifest import ServiceDirSpec, serve_multi

    pages, done = pages_fixture
    src = sorted(glob.glob(os.path.join(pages, "*.parquet")))
    dirs, specs = [], []
    for i, targets in enumerate((("text", "csv"), ("text", "jsonl"))):
        d = tmp_path / f"incoming{i}"
        d.mkdir()
        shutil.copy(src[i], d / os.path.basename(src[i]))
        dirs.append(str(d))
        specs.append(ServiceDirSpec(
            pages_dir=str(d),
            out_dir=str(tmp_path / f"out{i}"),
            manifest_dir=str(tmp_path / f"manifest{i}"),
            done_manifest_path=done,
            targets=targets))

    summary = serve_multi(specs, push=False, max_rounds=1)
    assert summary["rounds"] == 1
    assert summary["per_dir"][dirs[0]]["partitions"] == 1
    assert summary["per_dir"][dirs[1]]["partitions"] == 1

    # per-dir target bundles landed (and ONLY those bundles)
    part0 = glob.glob(str(tmp_path / "out0" / "part-*"))
    part1 = glob.glob(str(tmp_path / "out1" / "part-*"))
    assert len(part0) == 1 and len(part1) == 1
    assert sorted(os.listdir(part0[0])) == ["csv", "text"]
    assert sorted(os.listdir(part1[0])) == ["jsonl", "text"]
    assert glob.glob(os.path.join(part0[0], "csv", "*.csv"))
    assert glob.glob(os.path.join(part1[0], "jsonl", "*.json"))

    # manifest isolation: each lineage records exactly its own partition
    m0 = LineageManifest(str(tmp_path / "manifest0")).committed()
    m1 = LineageManifest(str(tmp_path / "manifest1")).committed()
    assert len(m0) == 1 and len(m1) == 1
    assert {e["partition"] for e in m0.values()} == {os.path.basename(src[0])}
    assert {e["partition"] for e in m1.values()} == {os.path.basename(src[1])}

    # second round: snapshot diff finds nothing new in either dir
    summary2 = serve_multi(specs, push=False, max_rounds=1)
    assert summary2["per_dir"][dirs[0]]["partitions"] == 0
    assert summary2["per_dir"][dirs[1]]["partitions"] == 0

    # a shared manifest dir is refused loudly
    with pytest.raises(ValueError, match="shared"):
        serve_multi([specs[0],
                     ServiceDirSpec(pages_dir=dirs[1],
                                    out_dir=str(tmp_path / "oX"),
                                    manifest_dir=str(tmp_path / "manifest0"))],
                    push=False, max_rounds=1)


def test_service_alerting_on_poisoned_partition(tmp_env, tmp_path):
    """Service-mode alert parity (reference: SendAlert fires on every
    failed dispatch, pmocr.sh:428-480): with an alert hook wired into
    the service rounds, a poisoned partition quarantining mid-service
    must land a structured alert record in the JSONL sink AND a spool
    file via the file transport."""
    import json

    from pmocr_ray.runlog import file_transport, make_alert_hook

    def _boom_preprocessor(payload):
        raise RuntimeError("engine broken mid-service (alert drill)")

    spool = tmp_path / "alert_spool"
    alert_path = str(spool / "alerts.jsonl")
    hook = make_alert_hook(alert_path,
                           transport=file_transport(str(spool)))

    def records():
        if not os.path.exists(alert_path):
            return []
        with open(alert_path) as f:
            return [json.loads(line) for line in f if line.strip()]

    # round 1: healthy service round (fixture partitions may carry
    # their own failed-class rows — count whatever alerts they raise)
    s1 = run_incremental(tmp_env["monitored"], tmp_env["out"], tmp_env["manifest"],
                         tmp_env["done"], on_complete=hook)
    n1 = len(records())
    assert n1 == (1 if s1["counts"].get("failed", 0) >= 1 else 0)

    # a 3-page partition arrives while the engine is poisoned
    src = pq.read_table(tmp_env["remaining"][0])
    drill_path = os.path.join(tmp_env["monitored"], "part-drill.parquet")
    pq.write_table(src.slice(0, 3), drill_path)
    s2 = run_incremental(tmp_env["monitored"], tmp_env["out"], tmp_env["manifest"],
                         tmp_env["done"],
                         extract_kwargs={"preprocessors": [_boom_preprocessor]},
                         on_complete=hook)
    assert s2["counts"] == {"failed": 3}
    recs = records()
    assert len(recs) == n1 + 1
    last = recs[-1]
    assert last["alert"] == "run_completed_with_failures"
    assert last["failed_rows"] == 3
    assert last["partitions"] == [_partition_key(drill_path)]
    # the file transport spooled one file per alert record
    spool_files = glob.glob(str(spool / "alert-*.json"))
    assert len(spool_files) == len(recs)

    # an idle round (nothing new) must NOT alert
    s3 = run_incremental(tmp_env["monitored"], tmp_env["out"], tmp_env["manifest"],
                         tmp_env["done"], on_complete=hook)
    assert not s3["processed"] and len(records()) == n1 + 1


def test_serve_multi_spec_alert_hook(tmp_path, pages_fixture):
    """ServiceDirSpec.alert_hook fires per round through serve_multi —
    the multi-dir daemon alerts exactly like the single-dir loops."""
    import json

    from pmocr_ray.runlog import make_alert_hook
    from pmocr_ray.state.manifest import ServiceDirSpec, serve_multi

    def _boom_preprocessor(payload):
        raise RuntimeError("engine broken (multi-dir alert drill)")

    pages, done = pages_fixture
    src = sorted(glob.glob(os.path.join(pages, "*.parquet")))
    d = tmp_path / "incoming"
    d.mkdir()
    pq.write_table(pq.read_table(src[0]).slice(0, 4),
                   str(d / "part-poison.parquet"))
    alert_path = str(tmp_path / "alerts.jsonl")
    spec = ServiceDirSpec(
        pages_dir=str(d), out_dir=str(tmp_path / "out"),
        manifest_dir=str(tmp_path / "manifest"),
        done_manifest_path=done,
        extract_kwargs={"preprocessors": [_boom_preprocessor]},
        alert_hook=make_alert_hook(alert_path))
    out = serve_multi([spec], push=False, max_rounds=1)
    assert out["per_dir"][str(d)]["counts"] == {"failed": 4}
    with open(alert_path) as f:
        recs = [json.loads(line) for line in f if line.strip()]
    assert len(recs) == 1 and recs[0]["failed_rows"] == 4


def test_serve_multi_shared_pages_dir_stats_not_merged(tmp_path,
                                                       pages_fixture):
    """Two specs watching the SAME pages dir (different out/manifest
    dirs — reachable via the CLI) must report SEPARATE per-dir stats,
    not silently merge counters under one pages_dir key (ADVICE r4)."""
    from pmocr_ray.state.manifest import ServiceDirSpec, serve_multi

    pages, done = pages_fixture
    src = sorted(glob.glob(os.path.join(pages, "*.parquet")))
    d = tmp_path / "incoming"
    d.mkdir()
    shutil.copy(src[0], d / os.path.basename(src[0]))
    specs = [ServiceDirSpec(pages_dir=str(d),
                            out_dir=str(tmp_path / f"out{i}"),
                            manifest_dir=str(tmp_path / f"manifest{i}"),
                            done_manifest_path=done,
                            targets=targets)
             for i, targets in enumerate((("text",), ("text", "csv")))]
    summary = serve_multi(specs, push=False, max_rounds=1)
    keys = sorted(summary["per_dir"])
    assert len(keys) == 2  # one entry per SPEC, not per pages_dir
    for k in keys:
        assert summary["per_dir"][k]["partitions"] == 1
    # both out subtrees materialized independently
    assert glob.glob(str(tmp_path / "out0" / "part-*"))
    assert glob.glob(str(tmp_path / "out1" / "part-*"))


def test_serve_multi_push_wakes_on_any_dir(tmp_path, pages_fixture):
    """Push mode over two dirs: round 2 is woken by a partition landing
    in the SECOND dir only (wait_any over both inotify fds)."""
    import threading
    import time as _t

    from pmocr_ray.state.inotify import inotify_available
    from pmocr_ray.state.manifest import ServiceDirSpec, serve_multi

    pages, done = pages_fixture
    src = sorted(glob.glob(os.path.join(pages, "*.parquet")))
    specs = []
    for i in range(2):
        d = tmp_path / f"incoming{i}"
        d.mkdir()
        specs.append(ServiceDirSpec(
            pages_dir=str(d), out_dir=str(tmp_path / f"out{i}"),
            manifest_dir=str(tmp_path / f"manifest{i}"),
            done_manifest_path=done))
    shutil.copy(src[0], tmp_path / "incoming0" / os.path.basename(src[0]))

    def arrive():
        _t.sleep(0.3)
        shutil.copy(src[1],
                    tmp_path / "incoming1" / os.path.basename(src[1]))

    t = threading.Thread(target=arrive)
    t.start()
    summary = serve_multi(specs, push=True, max_wait_s=30.0,
                          poll_interval_s=1.0, max_rounds=2)
    t.join()
    assert summary["rounds"] == 2
    if inotify_available():
        assert summary["mode"] == "inotify"
        assert summary["last_events"] == {
            str(tmp_path / "incoming1"): [os.path.basename(src[1])]}
    m1 = LineageManifest(str(tmp_path / "manifest1")).committed()
    assert {e["partition"] for e in m1.values()} == {os.path.basename(src[1])}


def test_torn_run_is_discarded_and_redone(tmp_env):
    """Kill-mid-run: a partition with output but no manifest commit is
    rerun from scratch; exactly-once per url still holds."""
    run_incremental(tmp_env["monitored"], tmp_env["out"], tmp_env["manifest"],
                    tmp_env["done"])
    parts = list_partitions(tmp_env["monitored"])
    key = _partition_key(parts[0])
    # simulate the crash: manifest entry lost, torn tmp dir left behind
    os.remove(os.path.join(tmp_env["manifest"], f"{key}.json"))
    os.makedirs(os.path.join(tmp_env["out"], f"part-{key}.tmp"), exist_ok=True)
    s = run_incremental(tmp_env["monitored"], tmp_env["out"], tmp_env["manifest"],
                        tmp_env["done"])
    assert s["processed"] == [key]
    urls = _output_urls(tmp_env["out"])
    assert len(urls) == len(set(urls))
    assert not os.path.exists(os.path.join(tmp_env["out"], f"part-{key}.tmp"))


def test_manifest_commit_atomic_and_counted(tmp_env):
    s = run_incremental(tmp_env["monitored"], tmp_env["out"], tmp_env["manifest"],
                        tmp_env["done"])
    m = LineageManifest(tmp_env["manifest"])
    entries = m.committed()
    assert len(entries) == 2
    for e in entries.values():
        assert e["num_rows"] == sum(e["counts"].values()) > 0
        assert set(e["counts"]) <= {
            "done", "failed", "skipped_existing_text", "skipped_suffix"}
        assert e["wall_s"] > 0 and e["rows_per_sec"] > 0
    assert not glob.glob(os.path.join(tmp_env["manifest"], "*.tmp"))
    # summary counts aggregate the per-partition counts
    total = {}
    for e in entries.values():
        for k, v in e["counts"].items():
            total[k] = total.get(k, 0) + v
    assert s["counts"] == total


def test_rename_as_you_go_cross_partition_skip(tmp_path, pages_fixture):
    """update_row_manifest: a url already processed in an earlier
    partition of the SAME run is skipped in later partitions (the
    reference renames files the moment they convert, so a duplicate
    arriving later is never reprocessed)."""
    import pyarrow as pa
    import pyarrow.parquet as pq2

    from pmocr_ray import schema as S
    from pmocr_ray.state.manifest import run_incremental

    pages, _ = pages_fixture
    src = sorted(glob.glob(os.path.join(pages, "*.parquet")))[0]
    monitored = tmp_path / "in"
    monitored.mkdir()
    # partition A and an identical copy B (same urls, later name)
    shutil.copy(src, monitored / "a.parquet")
    shutil.copy(src, monitored / "b.parquet")
    done_path = str(tmp_path / "done.parquet")
    pq2.write_table(
        pa.Table.from_pydict(
            {"url": [], "status": [], "attempts": [],
             "processed_at": [], "run_id": []},
            schema=S.DONE_MANIFEST_SCHEMA),
        done_path)

    s = run_incremental(str(monitored), str(tmp_path / "out"),
                        str(tmp_path / "mani"), done_path,
                        update_row_manifest=True)
    assert len(s["processed"]) == 2
    n_rows = pq2.read_metadata(src).num_rows
    # partition B contributed only skipped_suffix rows
    assert s["counts"]["skipped_suffix"] >= n_rows


def test_update_done_manifest_round_trip(tmp_path, pages_fixture):
    """Mark-as-done semantics: after folding a run's output into the
    done manifest, a full rerun skips every terminal row (the
    reference's idempotent-restart property, pmocr.sh:2126-2144)."""
    from pmocr_ray.pipeline import run_extraction, status_counts
    from pmocr_ray.state.manifest import load_done_urls, update_done_manifest

    pages, seed_manifest = pages_fixture
    out1 = str(tmp_path / "run1")
    run_extraction(pages, seed_manifest).write_parquet(out1)

    new_manifest = str(tmp_path / "done.parquet")
    import shutil

    shutil.copy(seed_manifest, new_manifest)
    update_done_manifest(out1, new_manifest, run_id="r1")
    # 400 seeded + 3000 done + 400 skipped_existing + 200 failed
    assert len(load_done_urls(new_manifest)) == 4000

    counts = status_counts(run_extraction(pages, new_manifest))
    assert counts == {"skipped_suffix": 4000}  # nothing reprocessed

    # idempotent: folding the same output again changes nothing
    update_done_manifest(out1, new_manifest, run_id="r3")
    assert len(load_done_urls(new_manifest)) == 4000


def test_service_round_stamps_processed_at(tmp_env):
    """A service round stamps its rows with the round's UTC time, as a
    CLI batch run does — never the ``S.EPOCH`` placeholder — and the
    done-manifest fold records that stamp."""
    import datetime

    from pmocr_ray import schema as S

    os.remove(list_partitions(tmp_env["monitored"])[1])  # one partition
    done = os.path.join(os.path.dirname(tmp_env["out"]), "done")
    t0 = datetime.datetime.now(datetime.timezone.utc).replace(tzinfo=None)
    s = run_incremental(tmp_env["monitored"], tmp_env["out"],
                        tmp_env["manifest"], done, update_row_manifest=True)
    assert len(s["processed"]) == 1
    stamps = []
    for f in glob.glob(os.path.join(tmp_env["out"], "part-*", "*.parquet")):
        stamps += pq.read_table(f, columns=["processed_at"])[
            "processed_at"].to_pylist()
    assert stamps and S.EPOCH not in stamps
    assert len(set(stamps)) == 1 and stamps[0] >= t0  # one stamp per round
    folded = pq.read_table(done, columns=["processed_at"])["processed_at"]
    assert set(folded.to_pylist()) == set(stamps)


def test_service_rounds_release_their_log_files(tmp_path):
    """Each round logs to ``<manifest_dir>/<run_id>.log`` and closes
    that file when it returns: a daemon minting a run id per round must
    not leak one descriptor per round."""
    pages = tmp_path / "incoming"
    pages.mkdir()  # nothing new: a round does no Ray work
    manifest_dir = str(tmp_path / "manifest")

    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    run_incremental(str(pages), str(tmp_path / "out"), manifest_dir,
                    run_id="warm")  # pays one-time imports
    before = open_fds()
    for i in range(50):
        run_incremental(str(pages), str(tmp_path / "out"), manifest_dir,
                        run_id=f"run-{i}")
    assert open_fds() <= before
    for i in range(50):
        assert os.path.exists(os.path.join(manifest_dir, f"run-{i}.log"))


def test_heartbeat_written(tmp_env):
    run_incremental(tmp_env["monitored"], tmp_env["out"], tmp_env["manifest"],
                    tmp_env["done"])
    hb = os.path.join(tmp_env["manifest"], "_heartbeat")
    assert os.path.exists(hb)
    float(open(hb).read())  # parseable timestamp


def test_alert_hook_fires_on_failures(tmp_env, tmp_path):
    """S9 alert sink: a run that quarantines rows appends a structured
    alert record; a clean rerun (all skipped) does not."""
    import json as _json

    from pmocr_ray.runlog import make_alert_hook

    alerts = str(tmp_path / "alerts.jsonl")
    sent = []
    hook = make_alert_hook(alerts, min_failed=1, transport=sent.append)

    s1 = run_incremental(tmp_env["monitored"], tmp_env["out"],
                         tmp_env["manifest"], tmp_env["done"],
                         on_complete=hook)
    assert s1["counts"]["failed"] > 0
    recs = [_json.loads(line) for line in open(alerts)]
    assert len(recs) == 1 == len(sent)
    assert recs[0]["failed_rows"] == s1["counts"]["failed"]
    assert recs[0]["alert"] == "run_completed_with_failures"

    # rerun: nothing processed -> counts empty -> no new alert
    run_incremental(tmp_env["monitored"], tmp_env["out"],
                    tmp_env["manifest"], tmp_env["done"], on_complete=hook)
    assert len(open(alerts).readlines()) == 1


def test_service_mode_engine_failure_drill(tmp_env, tmp_path):
    """The reference's service-mode failure drill
    (/root/reference/dev/tests/run_tests.sh:409-427: break the engine
    mid-service, assert exactly 3 quarantined originals): round 1 is
    healthy; the engine is then poisoned (a raising preprocessor — the
    per-round engine config, like the reference's OCR_PREPROCESSOR) and
    a 3-page partition arrives; that round must quarantine EXACTLY
    those 3 rows, commit the partition with its failure counts, and
    leave every prior manifest entry untouched.  After the engine is
    fixed, the next round processes new arrivals normally and never
    reprocesses the quarantined partition."""
    # nested (not module-level) so Ray pickles it by value — worker
    # processes cannot import the tests module
    def _boom_preprocessor(payload):
        raise RuntimeError("engine broken mid-service (drill)")

    # round 1: healthy service round over the initial partitions
    s1 = run_incremental(tmp_env["monitored"], tmp_env["out"], tmp_env["manifest"],
                         tmp_env["done"])
    assert len(s1["processed"]) == 2
    manifest = LineageManifest(tmp_env["manifest"])
    committed_before = manifest.committed()

    # a 3-page partition arrives while the engine is broken
    src = pq.read_table(tmp_env["remaining"][0])
    drill = src.slice(0, 3)
    drill_path = os.path.join(tmp_env["monitored"], "part-drill.parquet")
    pq.write_table(drill, drill_path)

    s2 = run_incremental(tmp_env["monitored"], tmp_env["out"], tmp_env["manifest"],
                         tmp_env["done"],
                         extract_kwargs={"preprocessors": [_boom_preprocessor]})
    # exactly the 3 originals quarantined, nothing else touched
    assert s2["counts"] == {"failed": 3}
    assert len(s2["processed"]) == 1 and len(s2["skipped"]) == 2
    key = _partition_key(drill_path)
    entry = manifest.committed()[key]
    assert entry["counts"] == {"failed": 3} and entry["num_rows"] == 3
    for k, v in committed_before.items():  # prior entries byte-identical
        assert manifest.committed()[k] == v
    # the quarantined rows are real output rows with the engine error
    out_part = os.path.join(tmp_env["out"], f"part-{key}")
    rows = pq.read_table(glob.glob(os.path.join(out_part, "*.parquet"))[0])
    assert rows.num_rows == 3
    assert set(rows["status"].to_pylist()) == {"failed"}
    assert all("engine broken mid-service" in e
               for e in rows["error"].to_pylist())

    # engine fixed: the next round processes new arrivals normally and
    # does NOT reprocess the quarantined partition
    new = tmp_env["remaining"][1]
    shutil.copy(new, os.path.join(tmp_env["monitored"], os.path.basename(new)))
    s3 = run_incremental(tmp_env["monitored"], tmp_env["out"], tmp_env["manifest"],
                         tmp_env["done"])
    assert len(s3["processed"]) == 1 and len(s3["skipped"]) == 3
    assert s3["counts"].get("done", 0) > 0
    assert manifest.committed()[key] == entry  # drill entry untouched


# -- done-manifest readers: Arrow loads vs pure-Python references -------

def _ref_done_urls(path):
    """The union as a Python-list read builds it."""
    from pmocr_ray.state.manifest import _manifest_shard_files

    urls = set()
    for f in _manifest_shard_files(path or ""):
        urls.update(pq.read_table(f, columns=["url"])["url"].to_pylist())
    return frozenset(urls)


def _ref_retry_state(path):
    """Row-by-row split into ``(skip, retry)``: max attempts per failed
    url (``attempts or 1``, 1 for a pre-``attempts`` shard), any
    non-failed record wins."""
    from pmocr_ray import schema as S
    from pmocr_ray.state.manifest import _manifest_shard_files

    skip, failed = set(), {}
    for f in _manifest_shard_files(path or ""):
        t = pq.read_table(f).to_pylist()
        for r in t:
            if r["status"] == S.STATUS_FAILED:
                failed[r["url"]] = max(failed.get(r["url"], 0),
                                       r.get("attempts") or 1)
            else:
                skip.add(r["url"])
    retry = {}
    for u, a in failed.items():
        if u in skip:
            continue
        if a >= S.MAX_TOTAL_ATTEMPTS:
            skip.add(u)
        else:
            retry[u] = a
    return frozenset(skip), retry


def _write_shard(path, urls, statuses, attempts=None):
    import pyarrow as pa

    cols = {"url": pa.array(urls, pa.string()),
            "status": pa.array(statuses, pa.string())}
    if attempts is not None:
        cols["attempts"] = pa.array(attempts, pa.int32())
    pq.write_table(pa.table(cols), path)


@pytest.fixture()
def mixed_done_manifest(tmp_path):
    """Three shards: a url failed in one shard and done in another, a
    pre-``attempts`` shard, a url at the attempt budget, urls repeated
    across shards."""
    from pmocr_ray import schema as S

    d = tmp_path / "done"
    d.mkdir()
    F, D, T = S.STATUS_FAILED, S.STATUS_DONE, S.STATUS_SKIPPED_TEXT
    _write_shard(d / "shard-a.parquet",
                 ["u/both", "u/retry", "u/budget", "u/done", "u/zero"],
                 [F, F, F, D, F],
                 [1, 1, S.MAX_TOTAL_ATTEMPTS, 1, 0])
    _write_shard(d / "shard-b.parquet",
                 ["u/both", "u/retry", "u/done", "u/text"],
                 [D, F, D, T],
                 [1, 2, 1, 1])
    _write_shard(d / "shard-legacy.parquet",       # pre-attempts shard
                 ["u/legacy-failed", "u/legacy-done", "u/retry"],
                 [F, D, F])
    return str(d)


def _write_output(out_dir, urls):
    """A run output directory with ``urls`` all done, as a fold reads it."""
    import datetime

    import pyarrow as pa

    from pmocr_ray import schema as S

    os.makedirs(out_dir, exist_ok=True)
    n = len(urls)
    pq.write_table(pa.table({
        "url": pa.array(urls, pa.string()),
        "status": pa.array([S.STATUS_DONE] * n, pa.string()),
        "attempts": pa.array([1] * n, pa.int32()),
        "processed_at": pa.array([datetime.datetime(2024, 1, 1)] * n,
                                 pa.timestamp("us")),
    }), os.path.join(out_dir, "part-0.parquet"))


@pytest.fixture()
def shard_reads(monkeypatch):
    """Counts ``pq.read_table`` calls made inside ``load_done_urls``."""
    from pmocr_ray import pipeline
    from pmocr_ray.state import manifest

    reads, inside = [], []
    read_table, load = pq.read_table, manifest.load_done_urls

    def counting_read(path, *args, **kwargs):
        if inside:
            reads.append(path)
        return read_table(path, *args, **kwargs)

    def flagged_load(path):
        inside.append(True)
        try:
            return load(path)
        finally:
            inside.pop()

    monkeypatch.setattr(pq, "read_table", counting_read)
    monkeypatch.setattr(manifest, "load_done_urls", flagged_load)
    monkeypatch.setattr(pipeline, "load_done_urls", flagged_load)
    return reads


def test_load_done_urls_matches_list_union(tmp_path, mixed_done_manifest,
                                           shard_reads):
    """After every event, the kept-between-calls union equals a cold
    ``to_pylist`` union of the manifest as it now is on disk."""
    from pmocr_ray.state import manifest
    from pmocr_ray.state.manifest import update_done_manifest

    legacy = tmp_path / "legacy.parquet"
    _write_shard(legacy, ["a", "b", "a"], ["done", "failed", "done"])
    empty = tmp_path / "empty"
    empty.mkdir()
    out1, out2 = str(tmp_path / "out1"), str(tmp_path / "out2")

    def fold(out, urls, path):
        _write_output(out, urls)
        update_done_manifest(out, path)

    steps = [
        ("multi-shard", mixed_done_manifest, None),
        ("unchanged", mixed_done_manifest, None),
        ("fold adds a shard", mixed_done_manifest,
         lambda: fold(out1, ["u/new1", "u/done"], mixed_done_manifest)),
        ("re-fold rewrites a shard", mixed_done_manifest,
         lambda: fold(out1, ["u/new2"], mixed_done_manifest)),
        ("shard deleted", mixed_done_manifest,
         lambda: os.remove(os.path.join(mixed_done_manifest, "shard-b.parquet"))),
        ("legacy file", str(legacy), None),
        ("legacy migrated", str(legacy), lambda: fold(out2, ["c"], str(legacy))),
        ("missing", str(tmp_path / "nope"), None),
        ("empty dir", str(empty), None),
        ("none", None, None),
        ("back to multi-shard", mixed_done_manifest, None),
    ]
    prev = None
    for name, path, event in steps:
        if event is not None:
            event()
        del shard_reads[:]
        got = manifest.load_done_urls(path)
        assert isinstance(got, frozenset), name
        assert got == _ref_done_urls(path), name
        assert all(type(u) is str for u in got), name
        if name == "unchanged":
            assert got is prev and not shard_reads, name
        if name == "fold adds a shard":
            assert len(shard_reads) == 1, name
        prev = got
    assert os.path.isdir(legacy)
    assert {"u/new1", "u/new2"} <= prev and "u/text" not in prev
    assert len(manifest.load_done_urls(mixed_done_manifest)) == 9


def test_oracle_reads_the_done_manifest_uncached(pages_fixture, monkeypatch):
    """The oracle's skip set is the manifest on disk, never the kept
    union: with that union made stale, the oracle still skips exactly
    the partition's urls of an independent cold union."""
    from pmocr_ray import schema as S
    from pmocr_ray.oracle import run_oracle
    from pmocr_ray.state import manifest

    pages, done = pages_fixture
    part = sorted(glob.glob(os.path.join(pages, "*.parquet")))[0]
    manifest.load_done_urls(done)
    root, stats, _ = manifest._DONE_URLS
    monkeypatch.setattr(manifest, "_DONE_URLS", (root, stats, frozenset()))
    assert manifest.load_done_urls(done) == frozenset()  # the cache is stale

    out = run_oracle(part, done)
    skipped = {u for u, st in zip(out["url"].to_pylist(),
                                  out["status"].to_pylist())
               if st == S.STATUS_SKIPPED_SUFFIX}
    expected = set(pq.read_table(part, columns=["url"])["url"].to_pylist())
    assert skipped and skipped == expected & _ref_done_urls(done)


def test_service_round_reads_each_shard_once(tmp_path, pages_fixture,
                                             shard_reads):
    """One round over P partitions against an H-shard manifest reads
    the H shards once, then only the shard each fold adds: H + P - 1
    shard reads, not P x H."""
    pages, _ = pages_fixture
    src = sorted(glob.glob(os.path.join(pages, "*.parquet")))[:3]
    monitored = tmp_path / "in"
    monitored.mkdir()
    for f in src:
        shutil.copy(f, monitored / os.path.basename(f))
    done = tmp_path / "done"
    done.mkdir()
    for h in range(4):
        _write_shard(done / f"hist-{h}.parquet", [f"h/{h}/{i}" for i in range(5)],
                     ["done"] * 5)

    s = run_incremental(str(monitored), str(tmp_path / "out"),
                        str(tmp_path / "mani"), str(done),
                        update_row_manifest=True)

    assert len(s["processed"]) == 3
    assert len(shard_reads) == 4 + 3 - 1
    assert len(set(shard_reads)) == len(shard_reads)


def test_load_retry_state_matches_reference(tmp_path, mixed_done_manifest):
    from pmocr_ray.state.manifest import load_retry_state

    retry = load_retry_state(mixed_done_manifest)
    skip, ref_retry = _ref_retry_state(mixed_done_manifest)
    assert retry == ref_retry
    assert retry == {"u/retry": 2, "u/zero": 1, "u/legacy-failed": 1}
    assert {"u/both", "u/budget", "u/done", "u/text",
            "u/legacy-done"} == skip
    # a retry run skips the done set less the re-driven urls: exactly
    # the reference split's skip set
    assert _ref_done_urls(mixed_done_manifest) - retry.keys() == skip

    empty = tmp_path / "empty"
    empty.mkdir()
    for path in (str(empty), str(tmp_path / "nope"), None):
        assert load_retry_state(path) == {}
        assert _ref_retry_state(path) == (frozenset(), {})


def _shard_rows():
    from hypothesis import strategies as st

    from pmocr_ray import schema as S

    row = st.tuples(st.sampled_from([f"u/{i}" for i in range(6)]),
                    st.sampled_from([S.STATUS_FAILED, S.STATUS_DONE,
                                     S.STATUS_SKIPPED_TEXT]),
                    st.one_of(st.none(), st.integers(0, S.MAX_TOTAL_ATTEMPTS)))
    shard = st.tuples(st.booleans(), st.lists(row, min_size=1, max_size=6))
    return st.lists(shard, min_size=1, max_size=4)


def test_retry_skip_set_is_done_set_less_redrives():
    """On random manifests (legacy shards without ``attempts``, null and
    zero counts, urls repeated across shards), a retry run's skip set —
    the done set less the re-drive map — is the reference split's."""
    import tempfile

    import pyarrow as pa
    from hypothesis import given, settings

    from pmocr_ray.state.manifest import load_retry_state

    @settings(max_examples=60, deadline=None)
    @given(_shard_rows())
    def check(shards):
        with tempfile.TemporaryDirectory() as d:
            for i, (legacy, rows) in enumerate(shards):
                urls, statuses, attempts = map(list, zip(*rows))
                cols = {"url": urls, "status": statuses}
                if not legacy:
                    cols["attempts"] = pa.array(attempts, pa.int32())
                pq.write_table(pa.table(cols), os.path.join(d, f"s{i}.parquet"))
            skip, retry = _ref_retry_state(d)
            assert load_retry_state(d) == retry
            assert _ref_done_urls(d) - retry.keys() == skip

    check()
