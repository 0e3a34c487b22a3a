"""Every public def in ``pmocr_ray/`` has a non-test caller.

A function or class that only its own test calls is library weight
with no consumer.  The consumers are the driver catalog
(``__ray_entry__.py``), ``bench.py``, ``scripts/``, the benchmark's
non-test modules (``perfbench/*.py``, which call ``process_row``,
``ExtractStage`` and ``read_pages`` directly) and the package itself.
The scan is syntactic: a name counts as used when it appears as an
identifier (a call, an attribute, a bare name) in one of those files,
outside the def's own body.  An ``import`` of the name does not count
on its own — a module that imports a def and never calls it is no
caller — and neither do docstrings or comments.

A def kept without a non-test caller goes on :data:`ALLOWED`, with the
reason it stays.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# "<path under ROOT>:<name>" -> why it stays without a non-test caller
ALLOWED = {
    "pmocr_ray/state/inotify.py:inotify_available":
        "the tests' platform skip for the inotify watcher",
}


def _identifiers(node) -> set[str]:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def _consumers() -> list[str]:
    return ([os.path.join(ROOT, f) for f in ("__ray_entry__.py", "bench.py")]
            + glob.glob(os.path.join(ROOT, "scripts", "*.py"))
            + [p for p in glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
               if not os.path.basename(p).startswith("test_")]
            + glob.glob(os.path.join(ROOT, "pmocr_ray", "**", "*.py"),
                        recursive=True))


def _uncalled_public_defs() -> list[str]:
    trees = {p: ast.parse(open(p).read()) for p in _consumers()}
    used_by_file = {p: _identifiers(t) for p, t in trees.items()}

    unused = []
    for path in sorted(glob.glob(os.path.join(ROOT, "pmocr_ray", "**", "*.py"),
                                 recursive=True)):
        tree = trees[path]
        for d in tree.body:
            if not isinstance(d, (ast.FunctionDef, ast.ClassDef)) \
                    or d.name.startswith("_"):
                continue
            # the def's own module counts only outside the def's body
            rest = set().union(*(_identifiers(n) for n in tree.body
                                 if n is not d))
            if d.name in rest or any(d.name in used for p, used
                                     in used_by_file.items() if p != path):
                continue
            unused.append(f"{os.path.relpath(path, ROOT)}:{d.name}")
    return unused


def test_every_public_op_has_a_non_test_caller():
    unused = _uncalled_public_defs()
    unexplained = [u for u in unused if u not in ALLOWED]
    assert unexplained == [], f"public defs with no non-test caller: {unexplained}"
    # the allowlist stays exact: an entry that gained a caller or was
    # deleted comes off it
    stale = sorted(set(ALLOWED) - set(unused))
    assert stale == [], f"ALLOWED entries that no longer apply: {stale}"
