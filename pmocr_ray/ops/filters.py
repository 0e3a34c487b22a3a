"""Crawl-hygiene filters over page urls.

:func:`host_blocklist_filter` drops (or, inverted, keeps only) the pages
whose url host is on a blocklist: a pure vectorized Arrow kernel inside
``map_batches`` over a broadcast blocklist, so it scales as a map-only
stage with no shuffle.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def host_blocklist_filter(ds, exact: set[str] | list[str],
                          suffixes: list[str] = (),
                          url_column: str = "url",
                          invert: bool = False):
    """Drop pages whose url host is on a blocklist — the crawl-hygiene
    gate every web corpus applies before curation.  ``exact`` matches
    whole hosts; ``suffixes`` match domain tails (``.spam.example``
    blocks every subdomain of it).

    Scale shape: the blocklist is broadcast ONCE via ``ray.put`` (a
    real blocklist is ~10⁵ hosts — kilobytes to megabytes, never worth
    a shuffle join); the filter pass is map-only and fully vectorized:
    one ``extract_regex`` for the host, one ``is_in`` against the
    exact set, one ``ends_with`` per suffix pattern (suffix lists are
    short).  ``invert=True`` returns the blocked rows instead (the
    quarantine-audit view).
    """
    import ray

    ref = ray.put((pa.array(sorted(set(exact)), pa.string()),
                   tuple(suffixes)))

    def fn(t: pa.Table) -> pa.Table:
        exact_arr, sufs = ray.get(ref)
        host = pc.struct_field(
            pc.extract_regex(t[url_column], r"^[a-z+]+://(?P<host>[^/]+)"),
            "host")
        blocked = pc.is_in(host, value_set=exact_arr)
        for s in sufs:
            blocked = pc.or_kleene(blocked, pc.ends_with(host, pattern=s))
        keep = blocked if invert else pc.invert(blocked)
        return t.filter(pc.fill_null(keep, False))

    return ds.map_batches(fn, batch_format="pyarrow")
