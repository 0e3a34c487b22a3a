"""Distributed connected components over a duplicate-pair edge set.

The keep/drop step of every dedup family needs the component id of each
doc.  The driver-side union-find (``ops/dedup.connected_components``)
is right when verified pairs fit one process; this is the scale path:
iterative MIN-LABEL PROPAGATION where labels, edges and every
intermediate live in the cluster.

Per iteration (one hash join + one groupby, both on int64 keys only):

    label'(u) = min( label(u),  min_{(u,v) ∈ E} label(v) )

run over the symmetrized edge list until the global label sum stops
falling (the sum is strictly decreasing while any label changes —
an O(1)-size convergence check, no driver-side diff of label tables).
Converges in graph-diameter iterations; the LSH/exact-dup pair
generators STAR-EMIT hot clusters (every member paired with the
cluster minimum), so their components have diameter ≤ 2 by
construction and the loop ends in ~3 iterations.  Adversarial chain
graphs converge in diameter steps — acceptable for dedup workloads,
where a long chain means a long run of pairwise-similar docs.

Reference parity: pmOCR has no graph ops; this serves the
beyond-the-reference dedup keep/drop decision at corpus scale.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data as rd
from ray.data.aggregate import Sum

from pmocr_ray.ops.vecagg import grouped_aggregate as _vec_agg

# every groupby below runs over NODE- or EDGE-scale group counts — the
# exact regime where Ray's per-group Python reduce dominates (see
# ops/vecagg.py); all of them route through the Arrow-bucketed
# aggregate, several of them once PER ITERATION
_NODE_LABEL = pa.schema([("node", pa.int64()), ("label", pa.int64())])
_NODE_DEG = pa.schema([("node", pa.int64()), ("deg", pa.int64())])

#: upper bound on n_blocks × n_nodes for the broadcast PageRank plan's
#: driver-side partial merge; beyond it partials merge in-cluster
_DRIVER_MERGE_PARTIAL_ROWS = 50_000_000


def _sym_edges(edges: rd.Dataset) -> rd.Dataset:
    """(a,b) → both directions (u,v), u≠v assumed."""
    def both(t: pa.Table) -> pa.Table:
        u = pa.concat_arrays([t["a"].combine_chunks().cast(pa.int64()),
                              t["b"].combine_chunks().cast(pa.int64())])
        v = pa.concat_arrays([t["b"].combine_chunks().cast(pa.int64()),
                              t["a"].combine_chunks().cast(pa.int64())])
        return pa.table({"u": u, "v": v})

    return edges.map_batches(both, batch_format="pyarrow")


def _local_contract(t: pa.Table) -> pa.Table:
    """In-memory min-label propagation over ONE edge block: every
    block-local component collapses to a star (member → min node id).

    Pure numpy — ``np.minimum.at`` scatter + pointer jumping until the
    label sum stops falling, O(log local-diameter) passes over the
    block.  Emitting the spanning stars preserves global connectivity
    exactly while (a) shrinking the edge set to ≤ one edge per
    non-root node and (b) collapsing each block's internal diameter
    to 2 — so the DISTRIBUTED loop afterwards only has to stitch
    across block boundaries (~log #blocks joins), not walk paths that
    live entirely inside one block.  This is the classic
    filter-contract step of parallel CC.
    """
    import numpy as np

    a = t["a"].combine_chunks().cast(pa.int64()).to_numpy(
        zero_copy_only=False)
    b = t["b"].combine_chunks().cast(pa.int64()).to_numpy(
        zero_copy_only=False)
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ui, vi = inv[:len(a)], inv[len(a):]
    lab = np.arange(len(nodes), dtype=np.int64)
    prev = -1
    while True:
        m = np.minimum(lab[ui], lab[vi])
        np.minimum.at(lab, ui, m)
        np.minimum.at(lab, vi, m)
        lab = lab[lab]  # pointer jump
        s = int(lab.sum())
        if s == prev:
            break
        prev = s
    mask = lab != np.arange(len(nodes))
    # nodes sorted ascending ⇒ index order == id order ⇒ the min index
    # IS the min node id of the local component
    star_a, star_b = nodes[mask], nodes[lab[mask]]
    # roots that no star points at (single-node components — reachable
    # only via self-loop edges) would otherwise vanish from the edge
    # set entirely; keep them alive as explicit self-edges so the
    # final label table covers every input node
    roots = nodes[~mask]
    isolated = roots[~np.isin(roots, star_b)]
    return pa.table({
        "a": pa.array(np.concatenate([star_a, isolated]), pa.int64()),
        "b": pa.array(np.concatenate([star_b, isolated]), pa.int64())})


def connected_components_distributed(edges: rd.Dataset,
                                     max_iters: int = 50,
                                     num_partitions: int = 8) -> rd.Dataset:
    """Component label (= min node id in the component) per node.

    ``edges`` has int64 columns (a, b).  Returns (node, label).

    Shape: one :func:`_local_contract` map pass first (block-local
    star contraction), then min-label propagation with pointer jumping
    over the contracted edges.  A path graph that fits one block
    converges in one global iteration; split across B blocks it needs
    ~log B, never the path length.
    """
    edges = edges.map_batches(_local_contract, batch_format="pyarrow")
    sym = _sym_edges(edges).materialize()
    n_edges = sym.count()
    if n_edges == 0:
        # typed empty — the join loop below loses the schema on a
        # zero-row dataset and Arrow rejects the key field reference
        return rd.from_arrow(_NODE_LABEL.empty_table())
    parts = max(1, min(num_partitions, n_edges // 2048 + 1))

    # initial labels: every distinct endpoint labels itself
    def self_label(t: pa.Table) -> pa.Table:
        g = t.select(["u"]).group_by("u").aggregate([])
        return pa.table({"node": g["u"], "label": g["u"]})

    labels = _vec_agg(
        sym.map_batches(self_label, batch_format="pyarrow"),
        ["node"], [("label", "min", "label")],
        seed_schema=_NODE_LABEL).materialize()

    prev_sum = None
    for _ in range(max_iters):
        # neighbor labels: edges ⋈ labels on the *source* side, so each
        # edge (u,v) proposes label(u) to v
        j = sym.join(labels, join_type="inner", num_partitions=parts,
                     on=("u",), right_on=("node",))
        proposals = j.map_batches(
            lambda t: pa.table({"node": t["v"], "label": t["label"]}),
            batch_format="pyarrow")
        own = labels
        labels = _vec_agg(
            proposals.union(own), ["node"], [("label", "min", "label")],
            seed_schema=_NODE_LABEL).materialize()
        # pointer jumping: label'(u) = label(label(u)) — one extra join
        # halves the remaining chain length each round, so convergence
        # is O(log diameter) joins instead of O(diameter)
        j2 = labels.join(
            labels.map_batches(
                lambda t: pa.table({"lnode": t["node"], "llabel": t["label"]}),
                batch_format="pyarrow"),
            join_type="left_outer", num_partitions=parts,
            on=("label",), right_on=("lnode",))
        labels = j2.map_batches(
            lambda t: pa.table({
                "node": t["node"],
                "label": pc.coalesce(t["llabel"], t["label"])}),
            batch_format="pyarrow").materialize()
        s = labels.aggregate(Sum("label", alias_name="s"))["s"]
        if s == prev_sum:
            break
        prev_sum = s
    return labels


def _pagerank_broadcast(edges: rd.Dataset, node_deg: rd.Dataset,
                        *, iters: int, scale: int, base: int) -> rd.Dataset:
    """Join-free PageRank plan for node sets that fit one broadcast.

    Bit-identical to the join plan: identical int64 expressions, and
    every merge is an exact integer sum, so summation order is
    irrelevant.  The edge list never moves; per iteration only
    per-batch-combined (dst, partial) pairs leave the edge tasks.

    The per-iteration merge is cost-gated: each edge batch's combined
    partial is at most min(batch_rows, n_nodes) int64 pairs, so while
    ``n_blocks × n_nodes`` stays small the driver merges the partials
    directly (one ``np.add.at`` per block — no exchange, no sort
    barrier per iteration); past the gate the bucketed vecagg exchange
    merges in-cluster and only the ≤ n_nodes merged rows reach the
    driver.  Both merges are exact int64 sums — same bits.
    """
    parts = [(b["node"].to_numpy(zero_copy_only=False),
              b["deg"].to_numpy(zero_copy_only=False))
             for b in node_deg.iter_batches(batch_format="pyarrow",
                                            batch_size=None)]  # gate-bounded
    if parts:
        raw_ids = np.concatenate([p[0] for p in parts]).astype(
            np.int64, copy=False)
        raw_deg = np.concatenate([p[1] for p in parts]).astype(
            np.int64, copy=False)
    else:
        raw_ids, raw_deg = np.empty(0, np.int64), np.empty(0, np.int64)
    order = np.argsort(raw_ids)
    ids, deg_vec = raw_ids[order], raw_deg[order]
    n_nodes = len(ids)
    ids_ref = ray.put(ids)
    deg_ref = ray.put(deg_vec)
    rank_vec = np.full(n_nodes, scale, np.int64)

    def make_contrib(rank_ref):
        def contrib(t: pa.Table) -> pa.Table:
            iid, dv, rv = ray.get(ids_ref), ray.get(deg_ref), \
                ray.get(rank_ref)
            si = np.searchsorted(
                iid, t["src"].to_numpy(zero_copy_only=False))
            di = np.searchsorted(
                iid, t["dst"].to_numpy(zero_copy_only=False))
            g = pa.table({
                "dst": pa.array(di, pa.int64()),
                "c": pa.array(rv[si] // dv[si], pa.int64()),
            }).group_by("dst").aggregate([("c", "sum")])
            return pa.table({"dst": g["dst"], "c": g["c_sum"]})
        return contrib

    try:
        n_blocks = edges.num_blocks()
    except Exception:
        n_blocks = None
    driver_merge = (n_blocks is not None
                    and n_blocks * max(1, n_nodes)
                    <= _DRIVER_MERGE_PARTIAL_ROWS)

    for _ in range(iters):
        contribs = edges.map_batches(make_contrib(ray.put(rank_vec)),
                                     batch_format="pyarrow")
        if driver_merge:
            agg = np.zeros(n_nodes, np.int64)
            for b in contribs.iter_batches(batch_format="pyarrow",
                                           batch_size=None):  # gate-bounded
                np.add.at(agg, b["dst"].to_numpy(zero_copy_only=False),
                          b["c"].to_numpy(zero_copy_only=False))
            rank_vec = base + (agg * 85) // 100
        else:
            sums = _vec_agg(contribs, ["dst"], [("c", "sum", "c")])
            rank_vec = np.full(n_nodes, base, np.int64)
            for b in sums.iter_batches(batch_format="pyarrow",
                                       batch_size=None):   # gate-bounded
                di = b["dst"].to_numpy(zero_copy_only=False)
                c = b["c"].to_numpy(zero_copy_only=False).astype(np.int64)
                rank_vec[di] = base + (c * 85) // 100

    return rd.from_arrow(pa.table({"node": pa.array(ids, pa.int64()),
                                   "rank": pa.array(rank_vec, pa.int64())}))


def pagerank(edges: rd.Dataset, *, iters: int = 3, scale: int = 1_000_000,
             num_partitions: int = 8,
             broadcast_nodes: int = 4_000_000) -> rd.Dataset:
    """Fixed-point integer PageRank over an int64 (src, dst) edge list —
    host-graph authority scoring for crawl prioritization.

    Determinism at scale: every arithmetic step is EXACT int64 — the
    per-edge contribution is ``rank // out_degree`` (integer division)
    and the damping update is ``0.15·scale + (85·Σcontrib) // 100`` —
    so partial-sum order cannot change a single bit, and an unrolled
    SQL oracle reproduces the identical ranks.  Dangling-node mass is
    dropped (documented classic variant).

    Two physical plans, same bits (the node set is usually orders of
    magnitude smaller than the edge set — hosts vs links):

    * ``n_nodes <= broadcast_nodes`` (the common host-graph regime):
      the rank/degree vectors are ``ray.put`` ONCE per iteration and
      read zero-copy by every edge task — per iteration that is one
      map over the edge list plus a cost-gated partial merge (driver
      ``np.add.at`` while n_blocks × n_nodes is small, the bucketed
      groupby(dst) exchange beyond — see ``_pagerank_broadcast``).
      The per-iteration driver collect is bounded by the same gate
      (4M nodes ≈ 32 MB of int64 ranks).  The node universe and
      out-degrees come from ONE fused pass over the edge list.
    * larger node sets: the join plan — ONE hash join (ranks ⋈ edges
      on src, both sides partitioned by the same key every round) +
      one groupby(dst) sum; nothing reaches the driver.  Edges and
      the node universe are materialized ONCE and reused across
      iterations (the legitimate mid-pipeline materialize: an
      iterative algorithm's loop-invariant operand).
    """
    edges = edges.materialize()
    n_edges = edges.count()
    parts = max(1, min(num_partitions, n_edges // 2048 + 1))

    # node universe + out-degree in ONE pass over the edge list: each
    # batch emits (node, deg) partials — sources with their local edge
    # count, destinations with 0 — so a single grouped sum yields both
    # the endpoint set and the degree table (previously two full edge
    # passes + two exchanges).
    def node_deg(t: pa.Table) -> pa.Table:
        s = t.group_by("src").aggregate([([], "count_all")])
        node = pa.concat_arrays([
            s["src"].combine_chunks().cast(pa.int64()),
            t["dst"].combine_chunks().cast(pa.int64())])
        deg = pa.concat_arrays([
            pc.cast(s["count_all"], pa.int64()).combine_chunks(),
            pa.array(np.zeros(len(t), np.int64))])
        g = pa.table({"node": node, "deg": deg}).group_by(
            "node").aggregate([("deg", "sum")])
        return pa.table({"node": g["node"], "deg": g["deg_sum"]})

    node_deg_tbl = _vec_agg(
        edges.map_batches(node_deg, batch_format="pyarrow"),
        ["node"], [("deg", "sum", "deg")],
        seed_schema=_NODE_DEG).materialize()
    base = scale * 15 // 100

    if node_deg_tbl.count() <= broadcast_nodes:
        return _pagerank_broadcast(edges, node_deg_tbl,
                                   iters=iters, scale=scale, base=base)

    # join-plan operands derived from the fused rollup: deg=0 rows are
    # pure destinations, which the inner join on src can never match
    degrees = node_deg_tbl.map_batches(
        lambda t: pa.table({"dnode": t["node"], "deg": t["deg"]}),
        batch_format="pyarrow")
    nodes = node_deg_tbl.select_columns(["node"])

    # edges with their source out-degree attached — loop-invariant
    edeg = edges.join(degrees, join_type="inner", num_partitions=parts,
                      on=("src",), right_on=("dnode",)).materialize()

    ranks = nodes.map_batches(
        lambda t: pa.table({"rnode": t["node"],
                            "rank": pa.array([scale] * len(t), pa.int64())}),
        batch_format="pyarrow")

    # zero contribution per node — unioned into every iteration's sum so
    # dangling-in targets keep a row WITHOUT a left-outer join back to
    # the node universe (a hash join per iteration traded for rows in
    # the existing vecagg exchange; loop-invariant, materialized once)
    zeros = nodes.map_batches(
        lambda t: pa.table({"dst": t["node"],
                            "c": pa.array([0] * len(t), pa.int64())}),
        batch_format="pyarrow").materialize()

    for _ in range(iters):
        j = edeg.join(ranks, join_type="inner", num_partitions=parts,
                      on=("src",), right_on=("rnode",))
        contrib = j.map_batches(
            lambda t: pa.table({
                "dst": t["dst"],
                "c": pc.divide(pc.cast(t["rank"], pa.int64()),
                               pc.cast(t["deg"], pa.int64()))}),
            batch_format="pyarrow")
        sums = _vec_agg(contrib.union(zeros), ["dst"], [("c", "sum", "c")])
        ranks = sums.map_batches(
            lambda t: pa.table({
                "rnode": t["dst"],
                "rank": pc.add(
                    base,
                    pc.divide(
                        pc.multiply(pc.cast(t["c"], pa.int64()), 85),
                        100))}),
            batch_format="pyarrow").materialize()

    return ranks.map_batches(
        lambda t: pa.table({"node": t["rnode"],
                            "rank": pc.cast(t["rank"], pa.int64())}),
        batch_format="pyarrow")
