"""The per-process caches of the extraction stage and the done set.

Ray ships the fn from :func:`pmocr_ray.stages.make_task_extract_fn` to
every task with cloudpickle.  These tests round-trip it the same way,
in-process: every copy of one run's fn must reuse the one stage of
this process, a new run's fn must replace it, and runs over one
broadcast done set must fetch it once.
"""

import datetime
import os
import subprocess
import sys
import textwrap

import pyarrow as pa
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
    monkeypatch.setattr(stages, "_TASK_STAGE", None, raising=False)
    monkeypatch.setattr(stages, "_DONE_SET", None)
    return stages_built


def _shipped(fn):
    return cloudpickle.loads(cloudpickle.dumps(fn))


def test_shipped_copies_share_one_stage_per_process(built):
    batch = _batch(256)
    done = frozenset(batch["url"].to_pylist()[::2])
    fn = stages.make_task_extract_fn(done_urls_ref=done)
    a, b = _shipped(fn), _shipped(fn)

    out_a, out_b = a(batch), b(batch)

    assert len(built) == 1, "each shipped copy built its own stage"
    assert stages._TASK_STAGE[1] is built[0]
    assert built[0].done_urls == done
    assert out_a.equals(out_b)
    assert out_a["status"].to_pylist().count(S.STATUS_SKIPPED_SUFFIX) == 128


def test_new_run_replaces_the_previous_stage(built):
    batch = _batch(8)
    first = _shipped(stages.make_task_extract_fn())
    second = _shipped(stages.make_task_extract_fn(
        done_urls_ref=frozenset(batch["url"].to_pylist())))

    first(batch)
    out = second(batch)
    first_stage = built[0]

    assert len(built) == 2
    assert stages._TASK_STAGE[1] is built[1]  # one slot: the latest run
    assert set(out["status"].to_pylist()) == {S.STATUS_SKIPPED_SUFFIX}

    second(batch)
    assert len(built) == 2
    # the previous run's fn rebuilds rather than finding a retired stage
    first(batch)
    assert len(built) == 3 and stages._TASK_STAGE[1] is not first_stage


def test_runs_over_one_broadcast_fetch_it_once(built, monkeypatch):
    """One ``ray.get`` per process per broadcast set: a later run over
    the same ref reuses the set; a new ref replaces it, and the old set
    and the stage holding it are released before the new one is
    fetched."""
    import ray

    batch = _batch(8)
    urls = batch["url"].to_pylist()
    old_ref, new_ref = ray.put(frozenset(urls[:4])), ray.put(frozenset(urls))
    fetches = []
    get = ray.get

    def spy(ref, *args, **kwargs):
        fetches.append((ref, stages._DONE_SET, stages._TASK_STAGE))
        return get(ref, *args, **kwargs)

    monkeypatch.setattr(ray, "get", spy)
    run1 = _shipped(stages.make_task_extract_fn(done_urls_ref=old_ref))
    run2 = _shipped(stages.make_task_extract_fn(done_urls_ref=old_ref))
    out1, out2 = run1(batch), run2(batch)

    assert len(built) == 2 and len(fetches) == 1
    assert built[0].done_urls is built[1].done_urls
    assert out1.equals(out2)
    assert out1["status"].to_pylist().count(S.STATUS_SKIPPED_SUFFIX) == 4

    out3 = _shipped(stages.make_task_extract_fn(done_urls_ref=new_ref))(batch)

    assert len(built) == 3 and len(fetches) == 2
    ref, held_set, held_stage = fetches[1]
    assert ref == new_ref and held_set is None and held_stage is None
    assert built[2].done_urls == frozenset(urls)
    assert set(out3["status"].to_pylist()) == {S.STATUS_SKIPPED_SUFFIX}


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
