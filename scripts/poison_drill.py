#!/usr/bin/env python3
"""Poison-under-service drill at bench scale (sf0.1).

The reference's hardest test breaks the OCR engine mid-service and
counts the quarantined originals
(/root/reference/dev/tests/run_tests.sh:409-427).  The pytest analogue
(tests/test_manifest_resume.py::test_service_mode_engine_failure_drill)
runs at sf0.001; this script promotes it to sf0.1 in the selfcheck
path:

  round 1  healthy service round over the initial partitions
  round 2  a full partition arrives while the engine is poisoned (a
           raising preprocessor — per-round engine config): every row
           of that partition must be quarantined except the urls the
           seed done manifest holds, which skip untouched (the
           reference never opens a done file), the partition still
           commits with its failure counts, prior lineage entries stay
           byte-identical
  round 3  engine fixed: the next arrival processes normally, the
           quarantined partition is never reprocessed (clean resume)
  redrive  the quarantined output is folded into the done manifest and
           a --retry-failed batch pass re-drives exactly those rows to
           done with the attempt counter carried forward

Prints one JSON line with the counts; README records a run.

Usage: python scripts/poison_drill.py [sf_dir]   (default sf0.1)
"""
from __future__ import annotations

import glob
import json
import os
import shutil
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.1"

    import ray

    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=int(os.environ.get("PMOCR_SELFCHECK_CPUS", "16")),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    # the drill's incoming pages, outputs, manifests and alert spool
    root = tempfile.mkdtemp(prefix="poison_drill_")
    try:
        result = _drill(sf_dir, root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(json.dumps(result))
    ray.shutdown()
    return 0 if result["pass"] else 1


def _drill(sf_dir: str, root: str) -> dict:
    """Run the four drill steps in the work dir ``root``; the result
    dict carries each step's counts and checks, and ``pass``."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from pmocr_ray.fixtures import ensure_pages_fixture
    from pmocr_ray.pipeline import run_extraction
    from pmocr_ray.state.manifest import (LineageManifest, _partition_key,
                                          run_incremental,
                                          update_done_manifest)

    def boom(payload):  # the broken engine (pickled by value)
        raise RuntimeError("engine broken mid-service (drill)")

    pages, seed_manifest = ensure_pages_fixture(sf_dir)
    parts = sorted(glob.glob(os.path.join(pages, "*.parquet")))
    assert len(parts) >= 3, f"need >=3 partitions, got {len(parts)}"
    monitored = os.path.join(root, "incoming")
    os.makedirs(monitored)
    out_dir, mani_dir = os.path.join(root, "out"), os.path.join(root, "mani")
    done = os.path.join(root, "done")
    os.makedirs(done)
    shutil.copy(seed_manifest, os.path.join(done, "seed.parquet"))

    result: dict = {"sf_dir": sf_dir, "partitions_total": len(parts)}

    # alert sink wired into every service round (reference: SendAlert
    # fires on each failed dispatch, pmocr.sh:428-480)
    from pmocr_ray.runlog import file_transport, make_alert_hook

    alert_spool = os.path.join(root, "alert_spool")
    alert_path = os.path.join(alert_spool, "alerts.jsonl")
    alert_hook = make_alert_hook(alert_path,
                                 transport=file_transport(alert_spool))

    def _alert_records() -> list:
        if not os.path.exists(alert_path):
            return []
        with open(alert_path) as f:
            return [json.loads(line) for line in f if line.strip()]

    # round 1: healthy over all but the last two partitions
    for f in parts[:-2]:
        shutil.copy(f, monitored)
    s1 = run_incremental(monitored, out_dir, mani_dir, done,
                         on_complete=alert_hook)
    result["round1"] = {"processed": len(s1["processed"]),
                        "counts": s1["counts"]}
    manifest = LineageManifest(mani_dir)
    committed_before = manifest.committed()

    # round 2: a full partition arrives while the engine is poisoned
    drill_src = parts[-2]
    drill_path = os.path.join(monitored, os.path.basename(drill_src))
    shutil.copy(drill_src, drill_path)
    n_drill = pq.read_metadata(drill_src).num_rows
    seed_urls = set(pq.read_table(seed_manifest, columns=["url"])
                    ["url"].to_pylist())
    drill_urls = set(pq.read_table(drill_src, columns=["url"])
                     ["url"].to_pylist())
    n_seeded = len(drill_urls & seed_urls)
    expected = {k: v for k, v in (("failed", n_drill - n_seeded),
                                  ("skipped_suffix", n_seeded)) if v}
    n_alerts_before = len(_alert_records())
    s2 = run_incremental(monitored, out_dir, mani_dir, done,
                         extract_kwargs={"preprocessors": [boom]},
                         on_complete=alert_hook)
    key = _partition_key(drill_path)
    entry = manifest.committed()[key]
    ok_quarantine = (s2["counts"] == expected
                     and entry["counts"] == expected
                     and entry["num_rows"] == n_drill)
    # prior lineage entries byte-identical
    after = manifest.committed()
    ok_integrity = all(after[k] == v for k, v in committed_before.items())
    # quarantined rows are real output rows carrying the engine error;
    # the skipped rows are exactly the seeded urls
    part_files = glob.glob(os.path.join(out_dir, f"part-{key}", "*.parquet"))
    t = pq.read_table(part_files, columns=["url", "status", "error"])
    failed = t.filter(pc.equal(t["status"], "failed"))
    skipped = t.filter(pc.equal(t["status"], "skipped_suffix"))
    ok_rows = (t.num_rows == n_drill
               and failed.num_rows + skipped.num_rows == n_drill
               and set(skipped["url"].to_pylist()) == drill_urls & seed_urls
               and bool(pc.all(pc.match_substring(
                   failed["error"], "engine broken mid-service")).as_py()))
    result["round2_poisoned"] = {
        "partition_rows": n_drill, "quarantined": s2["counts"].get("failed", 0),
        "seeded_skipped": s2["counts"].get("skipped_suffix", 0),
        "non_seeded_quarantined": ok_quarantine, "prior_entries_untouched":
        ok_integrity, "error_rows_verified": ok_rows}
    recs = _alert_records()
    ok_alert = (len(recs) == n_alerts_before + 1
                and recs[-1]["failed_rows"] == n_drill - n_seeded
                and recs[-1]["partitions"] == [key])
    result["alerts"] = {
        "records": len(recs),
        "spool_files": len(glob.glob(os.path.join(alert_spool,
                                                  "alert-*.json"))),
        "poisoned_round_alerted": ok_alert,
    }

    # round 3: engine fixed — new arrival processes, drill not re-run
    shutil.copy(parts[-1], monitored)
    s3 = run_incremental(monitored, out_dir, mani_dir, done,
                         on_complete=alert_hook)
    ok_resume = (len(s3["processed"]) == 1
                 and len(s3["skipped"]) == len(parts) - 1
                 and s3["counts"].get("done", 0) > 0
                 and manifest.committed()[key] == entry)
    result["round3_resume"] = {"processed": len(s3["processed"]),
                               "skipped": len(s3["skipped"]),
                               "counts": s3["counts"],
                               "clean_resume": ok_resume}

    # redrive: fold the quarantined output into the done manifest, then
    # a --retry-failed batch pass over the drill partition.  Expected
    # contract: urls the SEED manifest already recorded as terminal
    # skipped the drill and stay skipped_suffix; every quarantined row
    # is re-driven — engine-
    # attempted rows (done / intrinsically-poison failed) carry the
    # attempt counter forward (>= 2), skip classes record attempts=0.
    update_done_manifest(os.path.join(out_dir, f"part-{key}"), done,
                         run_id="drill")
    redrive = run_extraction(drill_path, done, retry_failed=True)
    rt = redrive.select_columns(["url", "status", "attempts"]).to_pandas()
    redriven = rt[rt["status"] != "skipped_suffix"]
    attempted = redriven[redriven["status"].isin(("done", "failed"))]
    ok_redrive = (
        len(rt) == n_drill                       # no quarantined row lost
        and set(rt["url"]) == drill_urls
        and len(redriven) == n_drill - n_seeded  # all non-seeded re-driven
        and set(redriven["status"]) <= {"done", "failed",
                                        "skipped_existing_text"}
        and bool((attempted["attempts"] >= 2).all()))
    result["redrive"] = {
        "rows_total": int(len(rt)),
        "seeded_stay_skipped": n_seeded,
        "redriven": int(len(redriven)),
        "status_counts": redriven["status"].value_counts().to_dict(),
        "attempts_carried": bool((attempted["attempts"] >= 2).all()),
        "ok": bool(ok_redrive)}

    result["pass"] = bool(ok_quarantine and ok_integrity and ok_rows
                          and ok_alert and ok_resume and ok_redrive)
    return result


if __name__ == "__main__":
    sys.exit(main())
