"""Schema-evolution union of page sources.

The reference ingests whatever files land in a watched directory
(/root/reference/pmocr.sh:2183); crawl snapshots taken over time do not
all carry the same columns, so they are unioned on the union of their
schemas.
"""

from __future__ import annotations

import pyarrow as pa


def align_schemas(datasets: list, *, fill: dict | None = None):
    """Schema-evolution union: make every dataset carry the UNION of
    all column sets (missing columns filled with typed nulls or the
    ``fill`` default), then union — the crawl-over-crawl ingestion
    reality where an old snapshot lacks columns a newer one added.

    Ray's ``union`` requires identical schemas; this computes the
    union schema from dataset METADATA (``ds.schema()`` — no data
    read), broadcasts nothing, and pads each side with one map-only
    pass.  Column order is normalized to the first-seen order so the
    union is stable.
    """
    fill = fill or {}
    fields: dict[str, pa.DataType] = {}
    for ds in datasets:
        s = ds.schema()
        for name, typ in zip(s.names, s.types):
            fields.setdefault(name, typ)
    names = list(fields)

    def pad(t: pa.Table) -> pa.Table:
        cols = {}
        for n in names:
            if n in t.column_names:
                cols[n] = t[n]
            elif n in fill:
                cols[n] = pa.array([fill[n]] * len(t), fields[n])
            else:
                cols[n] = pa.nulls(len(t), fields[n])
        return pa.table(cols)

    padded = [ds.map_batches(pad, batch_format="pyarrow") for ds in datasets]
    out = padded[0]
    for ds in padded[1:]:
        out = out.union(ds)
    return out
