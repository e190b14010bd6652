"""The benchmark under bench/ imports the package by name; those names
must keep resolving, or every bench run and bench test breaks at import,
and every call it makes into the package must fit the signature of the
callable it calls (bench/test_bench.py is not run with this suite).
Its tracer also derives iteration counts from the calls a solver makes
beneath it (bench/tracer.py WATCHES); the call patterns it relies on are
pinned here.  Last, every workload runs through bench/worker.py as
bench/run.py starts it, so a program change that breaks a bench entry
path fails here."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import count_calls, from_function, single_mode

import captension
from captension.diskfield import (BoundaryFunction, ScalarField, calculus,
                                  elliptic, harmonic_extension, identity_map)
from captension.dynamics import invert_disk_map, stream_initial_velocity
from captension.harness import run as run_module
from captension.projections import (hodge_P, solve_L1_inverse,
                                    solve_pulled_back_laplacian)
from captension.shape import solve_volume_constraint

BENCH = Path(__file__).resolve().parent.parent / "bench"
_spec = importlib.util.spec_from_file_location("bench_workloads",
                                               BENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


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


_MISSING = object()


def _resolve(expr, scope):
    """The object a call's func expression names through scope, the
    captension names a file imports, following attributes of modules and
    classes; _MISSING for an attribute they lack, None outside scope."""
    if isinstance(expr, ast.Name):
        return scope.get(expr.id)
    if isinstance(expr, ast.Attribute):
        owner = _resolve(expr.value, scope)
        if inspect.ismodule(owner) or inspect.isclass(owner):
            return getattr(owner, expr.attr, _MISSING)
    return None


def _own(node):
    """The nodes of node's own scope: every descendant but those inside a
    nested function, whose def node itself is included."""
    for child in ast.iter_child_nodes(node):
        yield child
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _own(child)


def _scope_calls(node, outer, where, out):
    """Append to out the calls of captension callables in node's own
    scope, whose names are outer's, less those node binds by a def or
    class, plus the captension names node imports; then those of every
    nested function."""
    scope, own = dict(outer), list(_own(node))
    for n in own:
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                          ast.ClassDef)):
            scope.pop(n.name, None)
    for n in own:
        if (isinstance(n, ast.ImportFrom) and n.module
                and n.module.split(".")[0] == "captension"):
            module = importlib.import_module(n.module)
            for a in n.names:
                scope[a.asname or a.name] = (
                    getattr(module, a.name) if hasattr(module, a.name)
                    else importlib.import_module(f"{n.module}.{a.name}"))
        elif isinstance(n, ast.Import):
            for a in n.names:
                if a.name.split(".")[0] == "captension":
                    module = importlib.import_module(a.name)
                    scope[a.asname or "captension"] = (
                        module if a.asname else captension)
    for n in own:
        if isinstance(n, ast.Call):
            fn = _resolve(n.func, scope)
            if fn is _MISSING or (callable(fn) and getattr(
                    fn, "__module__", "").startswith("captension")):
                out.append((f"{where}:{n.lineno}", ast.unparse(n.func), fn, n))
        elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
            _scope_calls(n, scope, where, out)


def _bench_calls():
    """(where, func source, callable or _MISSING, call node) for every call
    in bench/*.py of an imported captension callable, of an attribute of
    an imported captension module, or of a classmethod of one."""
    out = []
    for path in sorted(BENCH.glob("*.py")):
        _scope_calls(ast.parse(path.read_text(encoding="utf-8")), {},
                     path.name, out)
    return out


def test_every_bench_call_fits_its_callables_signature():
    checked, broken = 0, []
    for where, name, fn, call in _bench_calls():
        if fn is _MISSING:
            broken.append(f"{where} {name}: no such attribute")
            continue
        if (any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg is None for k in call.keywords)):
            continue  # *args or **kwargs: the arity is not in the source
        try:
            inspect.signature(fn).bind(*call.args,
                                       **{k.arg: None for k in call.keywords})
        except TypeError as exc:
            broken.append(f"{where} {name}: {exc}")
        checked += 1
    assert checked > 20
    assert not broken


def test_every_first_step_stamp_wraps_what_the_runs_call():
    # worker.py stamps set-up's end on getattr(captension.dynamics, n) for
    # n in FIRST_STEP, a lookup the import scan above does not see
    tree = ast.parse((BENCH / "worker.py").read_text(encoding="utf-8"))
    names = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["FIRST_STEP"])
    assert len(names) == 3
    for name in names:
        assert getattr(run_module, name) is getattr(captension.dynamics, name)


def test_every_exported_name_exists():
    for info in pkgutil.walk_packages(captension.__path__, "captension."):
        mod = importlib.import_module(info.name)
        missing = [n for n in getattr(mod, "__all__", ())
                   if not hasattr(mod, n)]
        assert not missing, f"{info.name}.__all__ names missing {missing}"


# names bench/tracer.py reads that no longer name a function of src: each
# metric built on one of them misses that function's calls
_STALE_TRACER_NAMES = {
    "calculus.dx_values", "calculus.dy_values", "calculus.evaluate_at",
    "calculus.normal_derivative_boundary", "elliptic.solve_neumann",
    "projections.hodge_split",
}


def test_the_tracer_names_resolve_but_for_a_known_stale_set(monkeypatch):
    # a name resolves as Tracer.install() wraps it: a public function of
    # its layer module, defined there; renaming one that resolves grows
    # the stale set and fails here
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = (tracer._DERIV | tracer._EVAL | tracer._HODGE | tracer._ELLIPTIC
             | tracer._CURVATURE | tracer._RECORD | set(tracer.WATCHES)
             | set(tracer.WATCHES.values()) | set(tracer._PROBES)
             | tracer._CPU_SPANS)
    layers = dict(tracer.LAYER_MODULES)
    stale = set()
    for name in names:
        label, attr = name.split(".")
        module = importlib.import_module(layers[label])
        fn = vars(module).get(attr)
        if not (inspect.isfunction(fn) and fn.__module__ == module.__name__
                and not attr.startswith("_")):
            stale.add(name)
    assert len(names) > 20
    assert stale == _STALE_TRACER_NAMES


def test_dirichlet_solves_beneath_the_traced_solvers(coarse_grid,
                                                     monkeypatch):
    # pbl_iters and volume_iters count solve_dirichlet calls beyond the
    # first guess; converged-at-once data must read 0 iterations
    solves = count_calls(monkeypatch, elliptic.solve_dirichlet)
    rhs = from_function(coarse_grid, lambda x, y: x * y)
    solve_pulled_back_laplacian(identity_map(coarse_grid), rhs)
    assert len(solves) == 1
    solves.clear()
    solve_volume_constraint(BoundaryFunction.zeros(coarse_grid))
    assert not solves
    harmonic_extension(single_mode(coarse_grid, 2, 0.1))
    assert not solves


def test_projections_beneath_the_traced_L1_inverse(coarse_grid, monkeypatch):
    # L1_iters counts hodge_P calls beyond the pre-projection
    w = stream_initial_velocity(coarse_grid, 2, 0.05)
    projections = count_calls(monkeypatch, hodge_P)
    solve_L1_inverse(ScalarField.zeros(coarse_grid), w)
    assert len(projections) == 2


def test_evaluations_beneath_the_traced_inversion(coarse_grid, monkeypatch):
    # newton_iters counts evaluations; a cache hit makes none
    evaluations = count_calls(monkeypatch, calculus.evaluate_vector_at)
    alpha = identity_map(coarse_grid)
    invert_disk_map(alpha)
    assert len(evaluations) == 1
    invert_disk_map(alpha)
    assert len(evaluations) == 1


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_bench_workload_runs_and_passes_its_gate(tmp_path, workload,
                                                        trace):
    config = tmp_path / "workload.cfg"
    workloads.write_config(workload, 1, str(config))
    out = tmp_path / "out"
    out.mkdir()
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--config", str(config), "--out", str(out)]
        + (["--trace"] if trace else []),
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert workloads.gate(workload, str(out)) == []
