"""The per-process broadcast cache of the extraction stage.

Ray ships the fn from :func:`pmocr_ray.stages.make_task_extract_fn` to
every task with cloudpickle.  These tests round-trip it the same way,
in-process: every copy of one run's fn, and of a later run's over the
same broadcasts, must fetch the (done set, retry map) pair once per
process, and a new pair must release the old one before its fetch.
"""

import datetime
import os
import subprocess
import sys
import textwrap

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from ray import cloudpickle

from pmocr_ray import schema as S
from pmocr_ray import stages


def _batch(n: int, start: int = 0) -> pa.Table:
    return pa.Table.from_pydict(
        {
            "url": [f"https://example.com/{start + i}" for i in range(n)],
            "warc_ts": [datetime.datetime(2024, 1, 1)] * n,
            "html": [b"<html><body><p>page %d</p></body></html>" % i
                     for i in range(n)],
            "text": [None] * n,
            "lang": ["en"] * n,
        },
        schema=S.PAGES_SCHEMA,
    )


@pytest.fixture()
def built(monkeypatch):
    """Every ExtractStage constructed while the test runs, in order."""
    stages_built = []
    init = stages.ExtractStage.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        stages_built.append(self)

    monkeypatch.setattr(stages.ExtractStage, "__init__", counting_init)
    monkeypatch.setattr(stages, "_BROADCASTS", None)
    return stages_built


@pytest.fixture()
def fetches(monkeypatch):
    """Every ``ray.get`` made while the test runs, with the slot it found."""
    import ray

    seen = []
    get = ray.get

    def spy(refs, *args, **kwargs):
        seen.append((refs, stages._BROADCASTS))
        return get(refs, *args, **kwargs)

    monkeypatch.setattr(ray, "get", spy)
    return seen


def _shipped(fn):
    return cloudpickle.loads(cloudpickle.dumps(fn))


def test_plain_values_are_used_as_given(built, fetches):
    batch = _batch(256)
    done = frozenset(batch["url"].to_pylist()[::2])
    fn = stages.make_task_extract_fn(done_urls_ref=done)

    out_a, out_b = _shipped(fn)(batch), _shipped(fn)(batch)

    assert len(built) == 2 and not fetches and stages._BROADCASTS is None
    assert built[0].done_urls == done and built[0].retry_attempts == {}
    assert out_a.equals(out_b)
    assert out_a["status"].to_pylist().count(S.STATUS_SKIPPED_SUFFIX) == 128


def test_runs_over_one_broadcast_fetch_it_once(built, fetches):
    """One ``ray.get`` per process per broadcast pair: every shipped copy
    of a run's fn, and a later run's fn over the same refs, build their
    own stage over the one kept pair."""
    import ray

    batch = _batch(8)
    urls = batch["url"].to_pylist()
    done_ref = ray.put(frozenset(urls[:4]))
    retry_ref = ray.put({urls[0]: S.MAX_ATTEMPTS})
    fn = stages.make_task_extract_fn(done_urls_ref=done_ref,
                                     retry_attempts_ref=retry_ref)
    later = stages.make_task_extract_fn(done_urls_ref=done_ref,
                                        retry_attempts_ref=retry_ref)
    outs = [_shipped(f)(batch) for f in (fn, fn, later)]

    assert len(built) == 3 and len(fetches) == 1
    assert fetches[0][0] == [done_ref, retry_ref]
    assert all(b.done_urls is built[0].done_urls for b in built)
    assert all(b.retry_attempts is built[0].retry_attempts for b in built)
    assert outs[0].equals(outs[1]) and outs[0].equals(outs[2])
    status = outs[0]["status"].to_pylist()
    # the re-driven url wins over its done record: one more attempt
    assert status[0] == S.STATUS_DONE
    assert outs[0]["attempts"][0].as_py() == S.MAX_TOTAL_ATTEMPTS
    assert status[1:4] == [S.STATUS_SKIPPED_SUFFIX] * 3
    assert status[4:] == [S.STATUS_DONE] * 4


def test_new_pair_releases_the_old_one_first(built, fetches):
    """A new pair replaces the kept one, which is released before the
    new one is fetched; a changed retry ref alone is a new pair too."""
    import ray

    batch = _batch(8)
    urls = batch["url"].to_pylist()
    old_ref, new_ref = ray.put(frozenset(urls[:4])), ray.put(frozenset(urls))
    retry_ref = ray.put({urls[0]: S.MAX_ATTEMPTS})

    out1 = _shipped(stages.make_task_extract_fn(done_urls_ref=old_ref))(batch)
    out2 = _shipped(stages.make_task_extract_fn(done_urls_ref=new_ref))(batch)

    assert len(built) == 2 and len(fetches) == 2
    refs, held = fetches[1]
    assert refs == [new_ref] and held is None
    assert built[1].done_urls == frozenset(urls)
    assert out1["status"].to_pylist().count(S.STATUS_SKIPPED_SUFFIX) == 4
    assert set(out2["status"].to_pylist()) == {S.STATUS_SKIPPED_SUFFIX}

    _shipped(stages.make_task_extract_fn(done_urls_ref=new_ref,
                                         retry_attempts_ref=retry_ref))(batch)
    assert len(fetches) == 3 and fetches[2][1] is None
    assert stages._BROADCASTS[1][1] == {urls[0]: S.MAX_ATTEMPTS}


def test_retry_run_shares_the_kept_done_ref(tmp_path, monkeypatch):
    """A ``--retry-failed`` run over an unchanged manifest hands the
    stage the very ObjectRef ``load_done_urls_ref`` keeps, and puts only
    its retry map — no skip set of its own."""
    import ray

    from pmocr_ray import pipeline

    batch = _batch(8)
    urls = batch["url"].to_pylist()
    pages = str(tmp_path / "pages.parquet")
    pq.write_table(batch, pages)
    done = tmp_path / "done"
    done.mkdir()
    pq.write_table(pa.table({
        "url": urls[:5],
        "status": [S.STATUS_DONE] * 4 + [S.STATUS_FAILED],
        "attempts": pa.array([1] * 4 + [S.MAX_ATTEMPTS], pa.int32()),
    }), str(done / "shard-0.parquet"))
    kept = pipeline.load_done_urls_ref(str(done))

    shipped, puts = [], []
    make, put = pipeline.make_task_extract_fn, ray.put

    def spy_make(**kwargs):
        shipped.append(kwargs)
        return make(**kwargs)

    def spy_put(value, *args, **kwargs):
        puts.append(value)
        return put(value, *args, **kwargs)

    monkeypatch.setattr(pipeline, "make_task_extract_fn", spy_make)
    monkeypatch.setattr(ray, "put", spy_put)
    ds = pipeline.run_extraction(pages, str(done), retry_failed=True)
    monkeypatch.setattr(ray, "put", put)

    assert shipped[0]["done_urls_ref"] is kept
    assert puts == [{urls[4]: S.MAX_ATTEMPTS}]
    out = ds.to_pandas().sort_values("url")
    got = dict(zip(out["url"], zip(out["status"], out["attempts"])))
    assert got == {
        **{u: (S.STATUS_SKIPPED_SUFFIX, 0) for u in urls[:4]},
        urls[4]: (S.STATUS_DONE, S.MAX_TOTAL_ATTEMPTS),
        **{u: (S.STATUS_DONE, 1) for u in urls[5:]},
    }


_SESSION_SCRIPT = textwrap.dedent("""
    import os
    import sys

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from pmocr_ray import pipeline
    from pmocr_ray.pipeline import load_done_urls_ref

    done, mode = sys.argv[1], sys.argv[2]
    pq.write_table(pa.table({"url": ["u/1", "u/2"]}), done + "/s.parquet")
    kw = dict(num_cpus=1, include_dashboard=False, logging_level="ERROR")
    cluster = None
    if mode == "reconnect":
        # one running cluster, two driver connections to it: same head
        # node, a new job whose predecessor's objects died with it
        from ray.cluster_utils import Cluster

        cluster = Cluster(initialize_head=True, head_node_args=dict(
            num_cpus=1, include_dashboard=False))
        kw = dict(address=cluster.address, logging_level="ERROR")
    else:
        kw["address"] = "local"
    try:
        ray.init(**kw)
        first = load_done_urls_ref(done)
        assert load_done_urls_ref(done) is first
        assert ray.get(first) == {"u/1", "u/2"}
        ray.shutdown()
        ray.init(**kw)
        second = load_done_urls_ref(done)
        assert second is not first
        assert ray.get(second, timeout=60) == {"u/1", "u/2"}
        assert load_done_urls_ref(done) is second
        # an emptied manifest releases the kept set and its ref
        os.remove(done + "/s.parquet")
        assert load_done_urls_ref(done) is None and pipeline._DONE_REF is None
        ray.shutdown()
    finally:
        if cluster is not None:
            ray.shutdown()
            cluster.shutdown()
    print("ok")
""")


@pytest.mark.parametrize("mode", ["reinit", "reconnect"])
def test_done_ref_is_put_again_in_a_new_ray_session(tmp_path, mode):
    """The driver keeps the broadcast ref between runs, but never hands
    out a ref of a Ray session that has ended: neither after a local
    ``ray.shutdown()``/``ray.init()`` nor after a second connection to
    one running cluster.  Runs in a subprocess: the test session shares
    one Ray session (``conftest.py``)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = root + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("RAY_ADDRESS", None)
    done = tmp_path / "done"
    done.mkdir()
    p = subprocess.run([sys.executable, "-c", _SESSION_SCRIPT, str(done), mode],
                       cwd=root, env=env, capture_output=True, text=True,
                       timeout=300)
    assert p.returncode == 0 and p.stdout.strip().endswith("ok"), p.stderr[-2000:]
