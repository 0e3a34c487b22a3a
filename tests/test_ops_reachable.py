"""Every public op in ``pmocr_ray/ops`` has a non-test caller.

An op that only its own test calls is library weight with no consumer:
the driver catalog, ``bench.py``, the package (``pipelines.py``,
``sources.py``, other ops) and ``scripts/`` are the only consumers.
The scan is syntactic: a name counts as used when it appears as an
identifier (a call, an attribute, an import) in one of those files,
outside the op's own body.  Docstrings and comments do not count.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _identifiers(node) -> set[str]:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
    return out


def test_every_public_op_has_a_non_test_caller():
    consumers = ([os.path.join(ROOT, f) for f in ("__ray_entry__.py", "bench.py")]
                 + glob.glob(os.path.join(ROOT, "scripts", "*.py"))
                 + glob.glob(os.path.join(ROOT, "pmocr_ray", "**", "*.py"),
                             recursive=True))
    trees = {p: ast.parse(open(p).read()) for p in consumers}
    used_by_file = {p: _identifiers(t) for p, t in trees.items()}

    unused = []
    for path in sorted(glob.glob(os.path.join(ROOT, "pmocr_ray", "ops", "*.py"))):
        tree = trees[path]
        for d in tree.body:
            if not isinstance(d, (ast.FunctionDef, ast.ClassDef)) \
                    or d.name.startswith("_"):
                continue
            # the op's own module counts only outside the op's body
            rest = set().union(*(_identifiers(n) for n in tree.body
                                 if n is not d))
            if d.name in rest or any(d.name in used for p, used
                                     in used_by_file.items() if p != path):
                continue
            unused.append(f"{os.path.relpath(path, ROOT)}:{d.name}")
    assert unused == [], f"ops with no non-test caller: {unused}"
