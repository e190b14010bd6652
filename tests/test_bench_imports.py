"""The benchmark under bench/ imports the package by name; those names
must keep resolving, or every bench run and bench test breaks at import."""

import ast
import importlib
import pkgutil
from pathlib import Path

import captension

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _captension_imports():
    """(file, module, name) for every `from captension... import name` and
    (file, module, None) for every `import captension...` in bench/*.py."""
    out = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "captension"):
                out += [(path.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                out += [(path.name, a.name, None) for a in node.names
                        if a.name.split(".")[0] == "captension"]
    return out


def test_every_bench_import_resolves():
    imports = _captension_imports()
    assert len(imports) > 10
    missing = []
    for where, module, name in imports:
        mod = importlib.import_module(module)  # an ImportError fails here
        if name is not None and not hasattr(mod, name):
            missing.append((where, module, name))
    assert not missing


def test_every_exported_name_exists():
    for info in pkgutil.walk_packages(captension.__path__, "captension."):
        mod = importlib.import_module(info.name)
        missing = [n for n in getattr(mod, "__all__", ())
                   if not hasattr(mod, n)]
        assert not missing, f"{info.name}.__all__ names missing {missing}"
