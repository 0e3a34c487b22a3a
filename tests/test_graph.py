"""Distributed connected-components tests."""
import pandas as pd

import ray.data as rd

from pmocr_ray.ops.graph import connected_components_distributed


def test_cc_chains_and_isolated_pair(ray_session):
    edges = pd.DataFrame({"a": [0, 1, 2, 3, 10, 11, 20],
                          "b": [1, 2, 3, 4, 11, 12, 21]})
    out = (connected_components_distributed(rd.from_pandas(edges))
           .to_pandas().sort_values("node"))
    got = dict(zip(out["node"], out["label"]))
    assert got == {0: 0, 1: 0, 2: 0, 3: 0, 4: 0,
                   10: 10, 11: 10, 12: 10, 20: 20, 21: 20}


def test_cc_matches_driver_union_find(ray_session):
    import numpy as np

    from pmocr_ray.ops.dedup import connected_components

    rng = np.random.default_rng(3)
    a = rng.integers(0, 60, 80)
    b = rng.integers(0, 60, 80)
    mask = a != b
    pairs = list({(int(min(x, y)), int(max(x, y)))
                  for x, y in zip(a[mask], b[mask])})
    edges = pd.DataFrame({"a": [p[0] for p in pairs],
                          "b": [p[1] for p in pairs]})
    dist = (connected_components_distributed(
                rd.from_pandas(edges).repartition(5))
            .to_pandas())
    got = dict(zip(dist["node"], dist["label"]))
    want = connected_components(pairs)
    # driver union-find returns root per node; normalize both to min-id
    assert got == {n: r for n, r in want.items()}


def test_pagerank_star_graph_exact(ray_session):
    """Star graph 1..4 → 0: replicate the integer arithmetic by hand
    and require bit-identical ranks, independent of partitioning."""
    from pmocr_ray.ops.graph import pagerank

    edges = pd.DataFrame({"src": [1, 2, 3, 4], "dst": [0, 0, 0, 0]})
    for parts in (1, 3):
        out = (pagerank(rd.from_pandas(edges).repartition(parts), iters=3)
               .to_pandas())
        got = dict(zip(out["node"], out["rank"]))
        # leaves: no in-edges => rank = 150000 every iteration
        # hub: r1 = 150000 + 85*(4*1000000)//100
        r_leaf = 150_000
        r_hub = 150_000 + (85 * 4 * 1_000_000) // 100
        # iter2/3: leaves unchanged; hub gets 4 * (r_leaf // 1)
        r_hub = 150_000 + (85 * 4 * r_leaf) // 100
        assert got[0] == r_hub
        assert all(got[i] == r_leaf for i in (1, 2, 3, 4))


def test_pagerank_cycle_exact_hand_trace(ray_session):
    """0→1→2→0 plus 3→1: the k=3 ranks equal the hand-traced integer
    recurrence exactly (the extra mass from node 3 is still circulating
    around the cycle at k=3 — that position-dependence is the point of
    the exactness contract)."""
    from pmocr_ray.ops.graph import pagerank

    edges = pd.DataFrame({"src": [0, 1, 2, 3], "dst": [1, 2, 0, 1]})
    out = pagerank(rd.from_pandas(edges).repartition(2), iters=3).to_pandas()
    got = dict(zip(out["node"], out["rank"]))

    r = {0: 1_000_000, 1: 1_000_000, 2: 1_000_000, 3: 1_000_000}
    links = [(0, 1), (1, 2), (2, 0), (3, 1)]  # all out-degree 1
    for _ in range(3):
        s = {n: 0 for n in r}
        for u, v in links:
            s[v] += r[u] // 1
        r = {n: 150_000 + (85 * s[n]) // 100 for n in r}
    assert got == r
    assert got[3] == 150_000  # no in-edges


def test_host_blocklist_filter_exact_suffix_invert(ray_session):
    import pandas as pd

    from pmocr_ray.ops.filters import host_blocklist_filter

    df = pd.DataFrame({"url": [
        "https://ok.example/a",
        "https://bad.example/b",
        "https://sub.spam.example/c",
        "https://spam.example.good/d",   # suffix must anchor at the END
    ]})
    ds = rd.from_pandas(df).repartition(2)
    kept = host_blocklist_filter(ds, exact={"bad.example"},
                                 suffixes=(".spam.example",)).to_pandas()
    assert sorted(kept["url"]) == ["https://ok.example/a",
                                   "https://spam.example.good/d"]
    blocked = host_blocklist_filter(ds, exact={"bad.example"},
                                    suffixes=(".spam.example",),
                                    invert=True).to_pandas()
    assert sorted(blocked["url"]) == ["https://bad.example/b",
                                      "https://sub.spam.example/c"]


def test_cc_chain_across_many_blocks(ray_session):
    """A long path split across many blocks exercises the
    filter-contract step: each block contracts its segment to a star
    and the global loop only stitches the boundaries.  Labels must be
    the exact path minimum regardless of the block layout."""
    n = 400
    edges = pd.DataFrame({"a": list(range(n - 1)),
                          "b": list(range(1, n))})
    # shuffle rows so blocks hold non-contiguous segments, then split
    edges = edges.sample(frac=1.0, random_state=7).reset_index(drop=True)
    out = (connected_components_distributed(
               rd.from_pandas(edges).repartition(13))
           .to_pandas())
    assert len(out) == n
    assert set(out["node"]) == set(range(n))
    assert (out["label"] == 0).all()


def test_pagerank_broadcast_and_join_plans_bit_identical(ray_session):
    """The gated broadcast plan and the join plan are two physical
    shapes of the same int64 recurrence — same bits on a random graph,
    at more than one partitioning."""
    import numpy as np

    from pmocr_ray.ops.graph import pagerank

    rng = np.random.default_rng(11)
    src = rng.integers(0, 300, 2500)
    dst = rng.integers(0, 300, 2500)
    m = src != dst
    edges = pd.DataFrame({"src": src[m], "dst": dst[m]}).drop_duplicates()
    for parts in (1, 4):
        ds = rd.from_pandas(edges).repartition(parts)
        via_bcast = (pagerank(ds, iters=3, broadcast_nodes=10_000)
                     .to_pandas().sort_values("node").reset_index(drop=True))
        via_join = (pagerank(ds, iters=3, broadcast_nodes=0)
                    .to_pandas().sort_values("node").reset_index(drop=True))
        assert via_bcast.equals(via_join)


def test_pagerank_driver_merge_and_exchange_merge_bit_identical(
        ray_session, monkeypatch):
    """Inside the broadcast plan, the cost-gated driver-side partial
    merge (np.add.at) and the vecagg exchange merge are exact int64
    sums of the same partials — same bits either way."""
    import numpy as np

    import pmocr_ray.ops.graph as G

    rng = np.random.default_rng(7)
    src = rng.integers(0, 200, 1500)
    dst = rng.integers(0, 200, 1500)
    m = src != dst
    edges = pd.DataFrame({"src": src[m], "dst": dst[m]}).drop_duplicates()
    ds = rd.from_pandas(edges).repartition(3)
    via_driver = (G.pagerank(ds, iters=3)
                  .to_pandas().sort_values("node").reset_index(drop=True))
    monkeypatch.setattr(G, "_DRIVER_MERGE_PARTIAL_ROWS", 0)
    via_exchange = (G.pagerank(ds, iters=3)
                    .to_pandas().sort_values("node").reset_index(drop=True))
    assert via_driver.equals(via_exchange)


def test_graph_empty_and_self_loop_inputs(ray_session):
    """Empty edge sets return typed empties (the joins would
    otherwise crash on schema-less zero-row datasets); self-loop-only
    nodes keep a (node, label=node) row instead of vanishing."""
    import pyarrow as pa
    import ray.data as rd

    from pmocr_ray.ops.graph import connected_components_distributed, pagerank

    empty_ab = rd.from_arrow(pa.table({"a": pa.array([], pa.int64()),
                                       "b": pa.array([], pa.int64())}))
    out = connected_components_distributed(empty_ab)
    assert out.count() == 0
    assert set(out.schema().names) == {"node", "label"}

    empty_sd = rd.from_arrow(pa.table({"src": pa.array([], pa.int64()),
                                       "dst": pa.array([], pa.int64())}))
    assert pagerank(empty_sd, iters=2).count() == 0

    loop_edges = rd.from_arrow(pa.table({"a": pa.array([1, 2], pa.int64()),
                                         "b": pa.array([1, 3], pa.int64())}))
    got = sorted((r["node"], r["label"])
                 for r in connected_components_distributed(
                     loop_edges).take_all())
    assert got == [(1, 1), (2, 2), (3, 2)]
