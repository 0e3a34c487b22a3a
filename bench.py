"""Benchmark harness.

Plain run: executes the headline extraction pipeline (read pages →
sniff → extract → write parquet) plus a set of operator
benches over ``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1) with
``ray.init(num_cpus=$RAY_GRAFT_CPUS or 32)`` and prints ONE JSON line::

    {"metric": ..., "value": <headline sec>, "unit": "sec",
     "queries": {...per-stage sec...}, "sf": ..., "num_cpus": N,
     "pages": N, "docs_per_sec": N, ...}

``--scaling``: runs the identical job in two fresh processes at 8 and
32 CPUs over the same (pre-generated, cache-warm) input and reports
throughput at both plus ``efficiency = (t_lo/t_hi) / (hi/lo)``.

Either mode writes no file outside ``/tmp``: the printed JSON line is
the run's only record (past rounds commit it as ``BENCH_*.json``).

The bench fixture is 1.8M pages (REPS=360 over sf0.1's 5000
documents; env ``PMOCR_BENCH_REPS`` overrides), 64 parquet partitions
so both parallelism levels saturate with multiple waves per slot.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_REPS = int(os.environ.get("PMOCR_BENCH_REPS", "360"))
# The scaling legs use a LARGER input (default 2x the headline's): the
# efficiency ratio is the metric and must be measured in the regime the
# rule targets — work >> per-run fixed overhead (driver/stage startup,
# ~5 s at 32 cpus), as it is at 10^12 docs.  The headline keeps its
# round-over-round-comparable 1.8M pages; throughput units (docs/s)
# stay comparable either way.
SCALING_REPS = int(os.environ.get("PMOCR_SCALING_REPS",
                                  str(2 * BENCH_REPS)))
# best-of-3 (round 3): this host's capacity drifts 2-3x within minutes
# (see BASELINE.md history); a third sample materially improves the odds
# the min reflects the engine rather than a capped window, for ~20 s of
# extra bench time.  The scaling legs override to 2 interleaved samples.
HEADLINE_RUNS = int(os.environ.get("PMOCR_BENCH_HEADLINE_RUNS", "3"))
SKIP_OPS = os.environ.get("PMOCR_BENCH_SKIP_OPS", "") == "1"
SCALING_LEVELS = (8, 32)
# Interleaved (lo, hi) pairs per --scaling run; min per level is the
# steady-state estimate, so more pairs tighten BOTH legs' estimates
# on a drifting host (the 32-cpu leg has the higher variance).
SCALING_PAIRS = int(os.environ.get("PMOCR_SCALING_PAIRS", "2"))


def run_bench() -> dict:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    import ray.data as rd

    from pmocr_ray.fixtures import ensure_pages_fixture
    from pmocr_ray.pipeline import run_extraction

    sf_tag = os.path.basename(os.path.normpath(SF_DIR))
    queries: dict[str, float] = {}

    # fixture generation + warm-up read are untimed (cached across runs);
    # the warm-up touches ALL columns so both scaling levels measure
    # compute + shuffle, not first-disk-read
    pages_dir, manifest = ensure_pages_fixture(SF_DIR, reps=BENCH_REPS,
                                               num_blocks=64)
    n_pages = rd.read_parquet(pages_dir).map_batches(
        lambda t: t.select(["url"]), batch_format="pyarrow").count()

    out_dir = f"/tmp/pmocr_bench_out/{sf_tag}_c{NUM_CPUS}"
    shutil.rmtree(out_dir, ignore_errors=True)

    # Untimed warm-up pipeline over one shard: spawns the Ray worker
    # processes and pays the per-worker package-import cost once, so the
    # timed run measures steady-state throughput (the quantity that
    # scales with cluster size), not interpreter warm-up.  Identical at
    # both scaling levels.
    import glob as _glob

    warm_shard = sorted(_glob.glob(os.path.join(pages_dir, "*.parquet")))[0]
    warm_dir = out_dir + ".warm"
    shutil.rmtree(warm_dir, ignore_errors=True)
    run_extraction(warm_shard, manifest).write_parquet(warm_dir)
    shutil.rmtree(warm_dir, ignore_errors=True)

    # ---- headline: full extraction pipeline incl. parquet sink ----
    # best-of-HEADLINE_RUNS: single-machine wall clock here varies
    # ±20-30% run to run (page cache, cpu warm-up); the min is the stable
    # estimator of steady-state throughput at a given parallelism.
    times = []
    for rep in range(HEADLINE_RUNS):
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        ds = run_extraction(pages_dir, manifest)
        ds.write_parquet(out_dir)
        times.append(time.perf_counter() - t0)
    headline = min(times)
    queries["extract"] = round(headline, 3)
    extract_runs = [round(t, 3) for t in times]

    # ---- operator benches over the driver tables ----
    if SKIP_OPS:
        ray.shutdown()
        return {
            "metric": "headline extraction wall-clock (scaling leg)",
            "value": round(headline, 3), "unit": "sec", "queries": queries,
            "sf": sf_tag, "num_cpus": NUM_CPUS, "pages": n_pages,
            "docs_per_sec": round(n_pages / headline, 1),
            "extract_runs": extract_runs,
        }

    docs_path = os.path.join(SF_DIR, "documents.parquet")
    emb_path = os.path.join(SF_DIR, "embeddings.parquet")
    events_path = os.path.join(SF_DIR, "events.parquet")

    from pmocr_ray.ops.dedup import exact_dedup, minhash_dedup_pairs
    from pmocr_ray.ops.events import events_window
    from pmocr_ray.ops.knn import knn_cosine
    from pmocr_ray.ops.text import text_stats

    t0 = time.perf_counter()
    exact_dedup(rd.read_parquet(docs_path)).count()
    queries["dedup_exact"] = round(time.perf_counter() - t0, 3)

    t0 = time.perf_counter()
    minhash_dedup_pairs(rd.read_parquet(docs_path), threshold=0.8,
                        concurrency=max(2, NUM_CPUS // 2)).count()
    queries["dedup_minhash"] = round(time.perf_counter() - t0, 3)

    t0 = time.perf_counter()
    import numpy as np
    import pyarrow.parquet as pq
    import pyarrow.compute as pc

    q = pq.read_table(emb_path, columns=["vec_id", "embedding"])
    q0 = np.asarray(q.filter(pc.equal(q["vec_id"], 0))["embedding"].to_pylist())
    knn_cosine(rd.read_parquet(emb_path), q0, k=10,
               concurrency=max(2, NUM_CPUS // 4))
    queries["knn_cosine"] = round(time.perf_counter() - t0, 3)

    # approximate regimes (the production scale paths): the driver
    # queries pin these ops to their exact regimes for the oracle
    # gate, so the fast variants are benchmarked here instead
    from pmocr_ray.ops.dedup import embedding_dedup_pairs_lsh
    from pmocr_ray.ops.knn import knn_cosine_ivf

    t0 = time.perf_counter()
    knn_cosine_ivf(rd.read_parquet(emb_path), q0, k=10,
                   n_cells=16, n_probe=4,
                   concurrency=max(2, NUM_CPUS // 4))
    queries["knn_ivf_probe"] = round(time.perf_counter() - t0, 3)

    t0 = time.perf_counter()
    embedding_dedup_pairs_lsh(
        rd.read_parquet(emb_path), threshold=0.45,
        n_planes=8, n_tables=16,
        concurrency=max(2, NUM_CPUS // 4)).count()
    queries["dedup_embedding_lsh_fast"] = round(time.perf_counter() - t0, 3)

    t0 = time.perf_counter()
    events_window(rd.read_parquet(events_path)).count()
    queries["events_window"] = round(time.perf_counter() - t0, 3)

    t0 = time.perf_counter()
    rd.read_parquet(docs_path).map_batches(
        text_stats, batch_format="pyarrow").count()
    queries["text_stats"] = round(time.perf_counter() - t0, 3)

    from pmocr_ray.ops.pack import pack_sequences

    t0 = time.perf_counter()
    pack_sequences(rd.read_parquet(docs_path, columns=["doc_id", "text"]),
                   block_tokens=2048).count()
    queries["pack_sequences"] = round(time.perf_counter() - t0, 3)

    # round-2 addition: iterative-join graph op
    from pmocr_ray.ops.graph import pagerank

    def _edges(t):
        did = t["doc_id"]
        src = pc.subtract(did, pc.multiply(pc.divide(did, 211), 211))
        d13 = pc.add(pc.multiply(did, 13), 7)
        dst = pc.subtract(d13, pc.multiply(pc.divide(d13, 211), 211))
        tab = pa.table({"src": src, "dst": dst}).filter(
            pc.not_equal(src, dst))
        return tab.group_by(["src", "dst"]).aggregate([])

    import pyarrow as pa
    t0 = time.perf_counter()
    pagerank(rd.read_parquet(docs_path, columns=["doc_id"])
             .map_batches(_edges, batch_format="pyarrow"),
             iters=3).count()
    queries["pagerank"] = round(time.perf_counter() - t0, 3)

    # end-to-end LLM-curation composition (langid → quality → near-dup
    # keep → filter) — the flagship training-data pipeline, measured as
    # one number per round
    from pmocr_ray.pipelines import curate

    t0 = time.perf_counter()
    curate(rd.read_parquet(docs_path, columns=["doc_id", "text"]),
           concurrency=max(2, NUM_CPUS // 2)).count()
    queries["curate"] = round(time.perf_counter() - t0, 3)

    result = {
        "metric": "headline extraction wall-clock (read→sniff→extract→write) + op benches",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": queries,
        "sf": sf_tag,
        "num_cpus": NUM_CPUS,
        "pages": n_pages,
        "docs_per_sec": round(n_pages / headline, 1),
        "extract_runs": extract_runs,
    }
    ray.shutdown()
    return result


def run_scaling() -> dict:
    """Same job, two parallelism levels, fresh processes (the sandbox
    stand-in for N vs 4N cluster nodes — see BASELINE.md)."""
    # pre-generate the fixture (shared, untimed) in a throwaway process
    env = dict(os.environ, RAY_GRAFT_CPUS=str(max(SCALING_LEVELS)))
    subprocess.run(
        [sys.executable, "-c",
         "import ray;"
         f"ray.init(address='local', num_cpus={max(SCALING_LEVELS)},"
         "include_dashboard=False, logging_level='ERROR');"
         "from pmocr_ray.fixtures import ensure_pages_fixture;"
         f"ensure_pages_fixture({SF_DIR!r}, reps={SCALING_REPS},"
         " num_blocks=128);"
         "ray.shutdown()"],
        env=env, check=True, cwd=os.path.dirname(os.path.abspath(__file__)),
    )

    # Interleave the levels (lo,hi,lo,hi): single-machine wall clock
    # drifts over minutes, so paired samples from the same time window
    # beat sequential per-level blocks; min per level is the
    # steady-state estimate.  Each leg runs warm-up + one headline run,
    # no op benches.
    lo, hi = SCALING_LEVELS
    samples = {lo: [], hi: []}
    for ncpu in (lo, hi) * SCALING_PAIRS:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   PMOCR_BENCH_REPS=str(SCALING_REPS),
                   PMOCR_BENCH_HEADLINE_RUNS="1", PMOCR_BENCH_SKIP_OPS="1")
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)], env=env,
            capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        leg = json.loads(out.strip().splitlines()[-1])
        samples[ncpu].append(leg["value"])
    t_lo, t_hi = min(samples[lo]), min(samples[hi])
    pages = leg["pages"]
    return {
        "metric": f"scaling efficiency {lo}→{hi} cpus (fresh processes, same input)",
        "sec_lo": t_lo,
        "sec_hi": t_hi,
        "num_cpus_lo": lo,
        "num_cpus_hi": hi,
        "docs_per_sec_lo": round(pages / t_lo, 1),
        "docs_per_sec_hi": round(pages / t_hi, 1),
        "pages": pages,
        "scaling_efficiency": round((t_lo / t_hi) / (hi / lo), 3),
        "samples_lo": samples[lo],
        "samples_hi": samples[hi],
        "sf": leg["sf"],
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
