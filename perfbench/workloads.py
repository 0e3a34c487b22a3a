"""The timed window (batch runs) and the traced run's service-mode drain.

The window runs the pipeline back to back (a closed loop): each
operation is one ``run_extraction(...)`` → ``write_parquet`` run over the
whole page set.  The drain drops the page files into a watched
directory at once and runs one ``run_incremental(...,
update_row_manifest=True)`` round over them.  Every operation's output
is kept as a digest and checked against the single-process oracle
afterwards.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import shutil
import sys
import time
import traceback

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench import hostref
from pmocr_ray import pipeline
from pmocr_ray import schema as S
from pmocr_ray.state import manifest

CHECK_COLS = ["url", "content_type", "status", "attempts", "error",
              "extracted_text"]


def digest(t: pa.Table) -> str:
    """Digest of the rows' checked columns, sorted by url."""
    t = t.select(CHECK_COLS).sort_by("url")
    h = hashlib.sha256()
    for c in CHECK_COLS:
        h.update(json.dumps(t[c].to_pylist()).encode())
    return h.hexdigest()


def _report_error(what: str) -> None:
    print(f"perfbench: {what} raised:\n{traceback.format_exc()}",
          file=sys.stderr)


@dataclasses.dataclass
class BatchWindow:
    walls: list = dataclasses.field(default_factory=list)   # per run, s
    refs: list = dataclasses.field(default_factory=list)    # per run: host reference, s
    traced: list = dataclasses.field(default_factory=list)  # per run, bool
    digests: list = dataclasses.field(default_factory=list)
    skips_ok: list = dataclasses.field(default_factory=list)
    errors: int = 0

    @property
    def attempted(self) -> int:
        return len(self.walls) + self.errors


def batch_window(paths: dict, work: str, seconds: float, rss, w: BatchWindow,
                 tracer=None, skip_urls: pa.Array | None = None) -> None:
    """Run the batch pipeline repeatedly for about ``seconds``: a run
    starts while at least half the last run's wall time is left.  With
    a tracer, every second run is traced (and at least two run).
    ``skip_urls`` are page urls of the done manifest: each must come out
    ``skipped_suffix``.  Each run is paired with the mean of the host
    reference timed just before and just after it.  Results are
    appended to ``w``."""
    deadline = time.perf_counter() + seconds
    first, wall = w.attempted, 0.0
    ref = hostref.reference()
    min_runs = 1 if tracer is None else 2
    while w.attempted - first < min_runs or time.perf_counter() + wall / 2 < deadline:
        k = w.attempted
        out = os.path.join(work, "out", f"run-{k}")
        traced = tracer is not None and k % 2 == 1
        if tracer is not None:
            tracer.enabled, tracer.run_id = traced, f"run-{k}"
        try:
            t0 = time.perf_counter()
            pipeline.run_extraction(paths["pages"],
                                    paths["manifest"]).write_parquet(out)
            wall = time.perf_counter() - t0
        except Exception:
            _report_error(f"batch run {k}")
            w.errors += 1
            continue
        finally:
            if tracer is not None:
                tracer.enabled = False
        after = hostref.reference()
        w.refs.append((ref + after) / 2)
        ref = after
        rss.sample()
        got = pq.read_table(out, columns=CHECK_COLS)
        w.walls.append(wall)
        w.traced.append(traced)
        w.digests.append(digest(got))
        if skip_urls is not None:
            hit = got.filter(pc.is_in(got["url"], value_set=skip_urls))
            w.skips_ok.append(
                hit.num_rows == len(skip_urls)
                and pc.all(pc.equal(hit["status"],
                                    S.STATUS_SKIPPED_SUFFIX)).as_py())
        shutil.rmtree(out)


@dataclasses.dataclass
class Drain:
    pages_dir: str               # the watched directory
    out_dir: str
    wall: float                  # the round's seconds
    commits: list                # (partition file, lineage key, seconds), commit order
    errors: int = 0

    def part_times(self) -> list:
        """Seconds per committed partition: from the round's start or
        the previous commit."""
        edges = [0.0] + [t for _, _, t in self.commits]
        return [b - a for a, b in zip(edges, edges[1:])]


def drain(pages_src: str, manifest_src: str, work: str, tracer) -> Drain:
    """Service mode on the workload's input: copy every page file into a
    watched directory at once, then run one traced incremental round
    (run id ``drain``) that folds each committed partition into a copy
    of the done manifest.  Commit times come from the tracer's
    ``LineageManifest.commit`` spans."""
    pages_dir = os.path.join(work, "watched")
    out_dir = os.path.join(work, "svc_out")
    done = os.path.join(work, "done")
    shutil.copytree(pages_src, pages_dir)
    shutil.copytree(manifest_src, done)
    errors = 0
    tracer.enabled, tracer.run_id = True, "drain"
    start = time.perf_counter()
    try:
        manifest.run_incremental(pages_dir, out_dir,
                                 os.path.join(work, "lineage"), done,
                                 run_id="perfbench", update_row_manifest=True)
    except Exception:
        _report_error("drain round")
        errors = 1
    finally:
        tracer.enabled = False
    wall = time.perf_counter() - start
    commits = [(s["partition"], s["key"], s["end"] - start) for s in tracer.spans
               if s["run"] == "drain" and s["name"] == "LineageManifest.commit"]
    return Drain(pages_dir, out_dir, wall, commits, errors)


def check_drain(d: Drain, oracle: pa.Table) -> int:
    """Failed partitions: uncommitted after the round, output unequal to
    the oracle's rows for the partition's input urls, or holding a url
    that another committed partition also holds.  A raised round counts
    as well."""
    names = sorted(f for f in os.listdir(d.pages_dir) if f.endswith(".parquet"))
    keys = {name: key for name, key, _ in d.commits}
    failed = d.errors + sum(1 for n in names if n not in keys)
    outputs = {name: pq.read_table(os.path.join(d.out_dir, f"part-{key}"),
                                   columns=CHECK_COLS)
               for name, key in keys.items()}
    seen: dict = {}
    for got in outputs.values():
        for u in got["url"].to_pylist():
            seen[u] = seen.get(u, 0) + 1
    for name, got in outputs.items():
        urls = pq.read_table(os.path.join(d.pages_dir, name),
                             columns=["url"])["url"]
        want = oracle.filter(pc.is_in(oracle["url"], value_set=urls))
        if (digest(got) != digest(want)
                or any(seen[u] != 1 for u in got["url"].to_pylist())):
            failed += 1
    return failed
