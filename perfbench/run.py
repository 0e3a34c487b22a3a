"""pmocr_ray benchmark: seeded workloads against the public API.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch_fresh --seed 1 --seconds 34 --trace 0

Workloads (``BENCHMARK.json`` says why each exists):

* ``batch_fresh``: back-to-back batch runs over a fresh page set in the
  fixture's class mix, with the small seed done manifest.
* ``rerun_big_manifest``: the same page count against a sharded done
  manifest holding ~90% of the page urls plus crawl history.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
window with every second operation traced, drains the page files
through one service-mode round, runs the per-layer probes
(:mod:`perfbench.layers`) and prints the per-layer metrics.  Spans are
written to ``.perfbench_work/spans-<workload>-<seed>.json``.  Inputs are
generated from ``--seed`` in ``.perfbench_work`` and removed at exit.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# run as a script: import the program and this package from the root,
# not from this directory
sys.path[0] = ROOT

import pmocr_ray  # noqa: E402,F401  (fails fast outside a full checkout)

WORKLOADS = ("batch_fresh", "rerun_big_manifest")
SETUP_CYCLES = 2          # set-ups per untraced run; setup_s is their median


def _warm_up(paths: dict, work: str) -> None:
    """One incremental round over a tiny partition: starts the worker,
    imports the program there and runs every path the run uses."""
    from pmocr_ray.state import manifest

    warm = os.path.join(work, "warm")
    shutil.rmtree(warm, ignore_errors=True)
    manifest.run_incremental(os.path.dirname(paths["warm"]),
                             os.path.join(warm, "out"),
                             os.path.join(warm, "lineage"),
                             os.path.join(warm, "done"),
                             run_id="perfbench-warm", update_row_manifest=True)


def _manifest_metrics(d, tracer) -> dict:
    """The manifest layer from the drain's round, per committed partition."""
    n = max(len(d.commits), 1)

    def per_part(*names, minus=()):
        def total(ns):
            return sum(tracer.durations(x, {"drain"}).get("drain", 0.0) for x in ns)
        return (total(names) - total(minus)) / n

    folds = [s["shards"] for s in tracer.spans
             if s["name"] == "update_done_manifest" and s["run"] == "drain"]
    times = d.part_times()
    slope = (statistics.linear_regression(range(len(times)), times).slope
             if len(times) > 1 else 0.0)
    return {
        "manifest.round_s": d.wall / n,
        "manifest.extract_s": per_part("run_extraction", "write_parquet",
                                       minus=("load_done_urls_ref",)),
        "manifest.fold_s": per_part("update_done_manifest"),
        "manifest.commit_s": per_part("LineageManifest.commit"),
        "manifest.done_load_s": per_part("load_done_urls_ref"),
        "manifest.fold_shards_read": statistics.fmean(folds) if folds else 0.0,
        "manifest.round_growth_s_per_partition": slope,
    }


def _run(args, work: str) -> dict:
    import pyarrow.compute as pc

    from perfbench import gen, hostref, layers, procs, spans, workloads
    from pmocr_ray.oracle import run_oracle

    cpus = procs.cpus()
    sz = gen.sizes(cpus, args.scale)
    # each set-up is followed by its share of the window, so the samples
    # of one run come from several Ray sessions
    cycles = 1 if args.trace else SETUP_CYCLES
    seconds = args.seconds / cycles
    tracer, skip_urls = None, None
    setups, peaks = [], []
    bw = workloads.BatchWindow()
    for c in range(cycles):
        if c:
            procs.stop_ray()
        t0 = time.perf_counter()
        procs.start_ray(ROOT)
        paths = gen.generate(args.workload, args.seed,
                             os.path.join(work, "inputs"), sz)
        _warm_up(paths, work)
        setups.append(time.perf_counter() - t0)
        if c == 0 and args.workload == "rerun_big_manifest":
            page_urls = layers.read_pages_table(paths["pages"])["url"].combine_chunks()
            skip_urls = page_urls.filter(pc.is_in(
                page_urls, value_set=layers.manifest_urls(paths["manifest"])))
        if c == 0 and args.trace:
            tracer = spans.Tracer()
            spans.install(tracer)

        # -------------------------------------------------- timed window
        rss = procs.PeakRss()
        rss.reset()
        workloads.batch_window(paths, work, seconds, rss, bw, tracer, skip_urls)
        rss.sample()
        peaks.append(rss.total_mb())

    plain_w = [w for w, t in zip(bw.walls, bw.traced) if not t]
    # the same walls on the reference host speed (perfbench.hostref)
    plain_n = [w * hostref.NOMINAL_S / r
               for w, r, t in zip(bw.walls, bw.refs, bw.traced) if not t]
    plain_r = [r for r, t in zip(bw.refs, bw.traced) if not t]
    traced_w = [w for w, t in zip(bw.walls, bw.traced) if t]

    # ------------------------------------------------- oracle and checks
    t0 = time.perf_counter()
    oracle = run_oracle(paths["pages"], paths["manifest"])
    oracle_s = time.perf_counter() - t0
    want = workloads.digest(oracle)
    skips_ok = bw.skips_ok or [True] * len(bw.digests)
    failed = bw.errors + sum(d != want or not ok
                             for d, ok in zip(bw.digests, skips_ok))
    attempted = bw.attempted
    result = {"correct": failed == 0 and bool(plain_w),
              "attempted": attempted, "failed": failed}

    if not args.trace:
        result["metrics"] = {
            "docs_per_s": (sz["pages"] / statistics.median(plain_n)
                           if plain_n else 0.0, "1/s"),
            "peak_rss_mb": (statistics.median(peaks), "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        info = {"walls": [round(x, 3) for x in plain_w],
                "refs": [round(x, 4) for x in plain_r],
                "setups": [round(x, 3) for x in setups]}
        print(json.dumps({"perfbench": info}), file=sys.stderr)
        return result

    # -------------------------------------------------- per-layer probes
    window_runs = {s["run"] for s in tracer.spans}
    # each done-set load of the window's traced operations
    load_s = [s["end"] - s["start"] for s in tracer.spans
              if s["name"] == "load_done_urls_ref"]
    # the manifest layer on this workload's input
    d = workloads.drain(paths["pages"], paths["manifest"],
                        os.path.join(work, "drain"), tracer)
    failed += workloads.check_drain(d, oracle)
    attempted += gen.BATCH_FILES

    fl = layers.floors(paths["pages"], paths["manifest"],
                       os.path.join(work, "floors"))
    pages = layers.read_pages_table(paths["pages"])
    ref, done, put_bytes = layers.done_set(paths["manifest"])
    mb = layers.microbench(pages, done, cpus)
    st = layers.extract_stage(pages, ref)

    m = {
        "read.wall_s": (fl["read"], "s"),
        "framework.identity_wall_s": (fl["identity"], "s"),
        "ratio.identity_over_read": (fl["identity"] / fl["read"], "x"),
        "done_set.load_s": (statistics.median(load_s), "s"),
        "done_set.urls": (len(done), "count"),
        "done_set.put_bytes": (put_bytes, "bytes"),
        "extract.nosink_wall_s": (fl["nosink"], "s"),
        "sink.write_s": (fl["full"] - fl["nosink"], "s"),
        "sink.bytes": (fl["sink_bytes"], "bytes"),
        "ratio.pipeline_over_kernel_floor": (
            fl["full"] / mb["kernel.floor_s"] if mb["kernel.floor_s"] else 0.0, "x"),
        "oracle.docs_per_s": (oracle.num_rows / oracle_s, "1/s"),
        "ratio.pipeline_over_oracle": (oracle_s / fl["full"], "x"),
        "trace.overhead_s": (statistics.median(traced_w) - statistics.median(plain_w), "s"),
        "raw.docs_per_s": (sz["pages"] / statistics.median(plain_w), "1/s"),
        "host.ref_s": (statistics.median(plain_r), "s"),
        "ops_failed_share": (failed / attempted, "share"),
    }
    units = {"extract_stage.init_s": "s", "extract_stage.call_us_per_row": "us",
             "extract_stage.dispatch_share": "share", "kernel.calls": "count",
             "kernel.useful_call_ratio": "share", "kernel.floor_s": "s",
             "manifest.fold_shards_read": "count",
             "manifest.round_growth_s_per_partition": "s/partition"}
    for k, v in {**st, **mb, **_manifest_metrics(d, tracer)}.items():
        m[k] = (v, units.get(k, "us" if "us_per_row" in k else "s"))
    # per operation: a traced window run for the batch path's spans, the
    # drain's round for the service path's
    per_run = {name: secs / len(traced_w)
               for name, secs in tracer.self_times(window_runs).items()}
    for name, secs in sorted({**tracer.self_times({"drain"}), **per_run}.items()):
        m[f"self_s.{name}"] = (secs, "s")
    tracer.close()
    tracer.dump(os.path.join(os.path.dirname(work),
                             f"spans-{args.workload}-{args.seed}.json"))
    result.update(correct=failed == 0 and bool(plain_w), attempted=attempted,
                  failed=failed, metrics=m)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input size factor (the smoke test uses a small one)")
    args = ap.parse_args(argv)

    from perfbench import procs

    work = os.path.join(ROOT, ".perfbench_work", f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        result = _run(args, work)
    finally:
        procs.stop_ray()
        procs.remove_ray_files(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    result["metrics"] = {k: {"value": v, "unit": u}
                         for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
