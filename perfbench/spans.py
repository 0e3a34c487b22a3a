"""In-memory spans around the program's public calls made in this process.

:class:`Tracer` wraps module attributes of the program (the functions
the benchmark process calls) so each call records a span: name, start, end, parent
span and run id.  Nothing inside the program changes; the wrappers are
installed on the module or class objects and removed by :meth:`close`.
Spans are kept in memory and written out as JSON at the end.
"""

from __future__ import annotations

import functools
import json
import os
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.enabled = False
        self.run_id: str | None = None
        self._stack: list[int] = []
        self._restore: list = []

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Record a span named ``name`` around every call of
        ``owner.attr`` while :attr:`enabled`.  ``attrs(args, kwargs,
        result)`` may add fields to the span after the call returns."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not self.enabled:
                return orig(*args, **kwargs)
            span = {"id": len(self.spans), "name": name, "run": self.run_id,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, orig))

    def close(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def durations(self, name: str, runs) -> dict:
        """``{run_id: summed duration}`` of the spans of ``runs`` named
        ``name``."""
        out: dict = {}
        for s in self.spans:
            if s["name"] == name and s["run"] in runs:
                out[s["run"]] = out.get(s["run"], 0.0) + s["end"] - s["start"]
        return out

    def self_times(self, runs) -> dict:
        """Total self time per span name over the spans of ``runs``:
        each span's duration minus the part of its interval that its
        child spans cover."""
        children: dict = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out: dict = {}
        for s in self.spans:
            if s["run"] not in runs:
                continue
            covered, edge = 0.0, s["start"]
            for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
                lo, hi = max(c["start"], edge), min(c["end"], s["end"])
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"] - covered)
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


def install(tracer: Tracer) -> None:
    """Wrap the public calls the batch and service paths make in this
    process."""
    import ray.data as rd

    from pmocr_ray import pipeline
    from pmocr_ray.state import manifest

    def shards_after(args, kwargs, result):
        # the fold's distinct-url recount reads every shard present
        path = args[1] if len(args) > 1 else kwargs["done_manifest_path"]
        return {"shards": sum(f.endswith(".parquet") for f in os.listdir(path))}

    tracer.wrap(pipeline, "load_done_urls_ref", "load_done_urls_ref")
    tracer.wrap(pipeline, "run_extraction", "run_extraction")
    tracer.wrap(rd.Dataset, "write_parquet", "write_parquet")
    tracer.wrap(manifest, "run_incremental", "run_incremental")
    tracer.wrap(manifest, "list_partitions", "list_partitions")
    tracer.wrap(manifest, "update_done_manifest", "update_done_manifest",
                attrs=shards_after)
    tracer.wrap(manifest.LineageManifest, "commit", "LineageManifest.commit",
                attrs=lambda args, kwargs, result: {
                    "key": args[1], "partition": args[2]["partition"]})
