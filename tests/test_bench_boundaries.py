"""The benchmark's traced run wraps functions by name at their import
sites. Its smoke test lives outside the tier-1 test paths, so this checks
here that every wrapped (owner, attribute) still exists, reading the list
from bench/run.py's source without importing it (the module sets BLAS
environment variables and exits when it cannot find the sources)."""

import ast
import importlib
from pathlib import Path

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def _traced_boundaries():
    tree = ast.parse(RUN_PY.read_text())
    func = next(n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == "_traced_boundaries")
    ret = next(n for n in ast.walk(func) if isinstance(n, ast.Return))
    return [(ast.unparse(t.elts[0]), t.elts[1].value) for t in ret.value.elts]


def _resolve(dotted):
    module, *attrs = dotted.split(".")
    owner = importlib.import_module(f"keywarp.{module}")
    for attr in attrs:
        owner = getattr(owner, attr)
    return owner


def test_every_traced_boundary_is_defined_where_it_is_wrapped():
    boundaries = _traced_boundaries()
    assert len(boundaries) > 20
    missing = [f"{owner}.{attr}" for owner, attr in boundaries
               if attr not in vars(_resolve(owner))]
    assert not missing


def test_every_boundary_wrapped_at_an_import_site_is_called_there():
    """A wrapper on an imported name times only the importing module's own
    calls, so a module that keeps the import but no longer calls the name
    would leave its span silently empty in the traced run."""
    unused = []
    for owner, attr in _traced_boundaries():
        if "." in owner:   # class attributes are reached through their instances
            continue
        nodes = list(ast.walk(ast.parse(Path(_resolve(owner).__file__).read_text())))
        imported = any(isinstance(n, ast.ImportFrom)
                       and attr in (a.asname or a.name for a in n.names) for n in nodes)
        called = any(isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) and n.id == attr
                     for n in nodes)
        if imported and not called:
            unused.append(f"{owner}.{attr}")
    assert not unused
