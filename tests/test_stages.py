"""The per-worker-process extraction stage cache.

Ray ships the fn from :func:`pmocr_ray.stages.make_task_extract_fn` to
every task with cloudpickle.  These tests round-trip it the same way,
in-process, with no cluster: every copy of one run's fn must reuse the
one stage of this process, and a new run's fn must replace it.
"""

import datetime

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
