"""A disk map's cache has one owner per entry.

DiskMap creates the dict; invert_disk_map writes and reads "inverse",
and inverse_jacobian writes and reads "inverse_jacobian".  No other src
code touches it, by attribute or by name.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "captension"
OWNERS = {("diskfield/fields.py", "DiskMap"),
          ("diskfield/calculus.py", "inverse_jacobian"),
          ("dynamics/fixed.py", "invert_disk_map")}


def cache_touches(tree):
    """(line, names of the enclosing defs and classes, outermost first)
    of every ._cache attribute and every "_cache" string in tree."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Attribute) and node.attr == "_cache"
                or isinstance(node, ast.Constant) and node.value == "_cache"):
            found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_the_owners_touch_a_maps_cache():
    owners_seen, stray = set(), []
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for line, scope in cache_touches(tree):
            owner = name, scope[0] if scope else None
            if owner in OWNERS:
                owners_seen.add(owner)
            else:
                stray.append(f"{name}:{line} in {'.'.join(scope) or 'module'}")
    assert not stray, stray
    assert owners_seen == OWNERS
