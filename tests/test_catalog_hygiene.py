"""The driver catalog carries no dead code.

``__ray_entry__.py`` is edited by deletion more than by addition, and a
half-deleted query leaves behind a ``_q_*`` def that no ``queries()``
entry names, a private helper or constant only that query used, or an
import that nothing reads any more.  ``tests/test_ops_reachable.py``
cannot see these: they are private names inside the catalog.  The scan
is syntactic, like that one: a name counts as used when it appears as an
identifier (a call, an attribute, a bare name), not in a docstring or a
comment.  The unused-import check also runs over the package,
``bench.py``, ``scripts/`` and the tests.
"""

import ast
import glob
import os

from test_ops_reachable import ROOT, _identifiers

CATALOG = os.path.join(ROOT, "__ray_entry__.py")
# the driver contract: called by the driver, not by the catalog
CONTRACT = {"entry", "queries", "oracle_sql"}


def _tree():
    with open(CATALOG) as f:
        return ast.parse(f.read())


def _top_level_names(tree) -> dict[str, ast.AST]:
    out = {}
    for n in tree.body:
        if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
            out[n.name] = n
        elif isinstance(n, (ast.Assign, ast.AnnAssign)):
            targets = n.targets if isinstance(n, ast.Assign) else [n.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    out[t.id] = n
    return out


def test_every_query_def_is_registered():
    tree = _tree()
    defs = _top_level_names(tree)
    registry = next(n for n in ast.walk(defs["queries"])
                    if isinstance(n, ast.Dict))
    registered = {v.id for v in registry.values if isinstance(v, ast.Name)}
    orphans = sorted(k for k in defs
                     if k.startswith("_q_") and k not in registered)
    assert orphans == [], f"_q_* defs no queries() entry names: {orphans}"


def test_every_catalog_helper_has_a_non_test_caller():
    tree = _tree()
    others = [os.path.join(ROOT, "bench.py")] \
        + glob.glob(os.path.join(ROOT, "scripts", "*.py")) \
        + glob.glob(os.path.join(ROOT, "pmocr_ray", "**", "*.py"),
                    recursive=True)
    used_elsewhere = set()
    for p in others:
        with open(p) as f:
            used_elsewhere |= _identifiers(ast.parse(f.read()))
    unused = []
    for name, node in _top_level_names(tree).items():
        if name in CONTRACT or name.startswith("_q_"):
            continue
        rest = set().union(*(_identifiers(n) for n in tree.body
                             if n is not node))
        if name not in rest and name not in used_elsewhere:
            unused.append(name)
    assert unused == [], f"catalog helpers nothing calls: {sorted(unused)}"


def _unused_imports(scope: str, node) -> list[str]:
    """Names bound by imports under ``node`` that no other node reads."""
    # a module's own imports are its top-level ones; a function's are
    # all of those in its body, nested blocks included
    stmts = node.body if isinstance(node, ast.Module) else ast.walk(node)
    imports = [n for n in stmts if isinstance(n, (ast.Import, ast.ImportFrom))]
    used = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    out = []
    for imp in imports:
        if isinstance(imp, ast.ImportFrom):
            if imp.module == "__future__":
                continue
            bound = [a.asname or a.name for a in imp.names]
        else:
            bound = [a.asname or a.name.split(".")[0] for a in imp.names]
        out += [f"{scope}:{b}" for b in bound if b not in used]
    return out


def _scoped_unused_imports(tree) -> list[str]:
    """Unused imports of a module and of every function in it, nested
    functions and methods included."""
    unused = _unused_imports("<module>", tree)
    for d in ast.walk(tree):
        if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef)):
            unused += _unused_imports(d.name, d)
    return unused


def test_every_catalog_import_is_used_in_its_scope():
    unused = _scoped_unused_imports(_tree())
    assert unused == [], f"imports nothing in their scope reads: {unused}"


def test_every_import_is_used_in_its_scope():
    """The same guard over the rest of the repo's Python: the package,
    ``bench.py``, ``scripts/`` and the tests.  Package ``__init__.py``
    files are exempt: their imports are re-exports, read by importers."""
    paths = [os.path.join(ROOT, "bench.py")] \
        + glob.glob(os.path.join(ROOT, "scripts", "*.py")) \
        + glob.glob(os.path.join(ROOT, "tests", "*.py")) \
        + [p for p in glob.glob(os.path.join(ROOT, "pmocr_ray", "**", "*.py"),
                                recursive=True)
           if os.path.basename(p) != "__init__.py"]
    unused = []
    for p in sorted(paths):
        with open(p) as f:
            tree = ast.parse(f.read())
        rel = os.path.relpath(p, ROOT)
        unused += [f"{rel}:{u}" for u in _scoped_unused_imports(tree)]
    assert unused == [], f"imports nothing in their scope reads: {unused}"
