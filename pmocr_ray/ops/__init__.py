"""Training-data-pipeline operators beyond the reference's own surface.

The reference converts documents; a 100 TB training-data pipeline also
needs dedup (exact / MinHash-LSH / SimHash / embedding / line-level /
incremental), similarity search (brute, IVF), graph ops (distributed
connected components, PageRank), sequence packing, bucketed joins and
token-budget trims (`pack`), upsert compaction (`compact`), joins
(broadcast semi / hash and Bloom anti / edit-distance-1 self-join),
sketches (KMV), hourly windows, top users and sessions over the events
table (`events`), curation and text analysis (`text`), a crawl-hygiene
host blocklist (`filters`), hash-shard export (`export`), multimodal
plumbing (`media` and its codecs), and session windows streamed over a
partitioned log (`streaming`).
Each op here follows the same architecture rules as the extraction
engine: Arrow batches, vectorized kernels, actor pools for stateful
stages, partial aggregation before any shuffle, broadcast small sides.
"""
