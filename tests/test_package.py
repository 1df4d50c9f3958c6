"""Guards on what the package ships: numpy is its only third-party import,
every public function or class has a caller outside the tests, and every
record field has a reader there."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "keywarp"


def test_import_keywarp_loads_no_scipy():
    code = "import json, sys, keywarp; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    modules = json.loads(result.stdout)
    assert "keywarp" in modules
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


def _used_names(path) -> set:
    """Every name a module reads, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.Name, ast.Attribute))}


def _public(body) -> list:
    return [node for node in body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_every_public_definition_has_a_caller():
    """A public top-level function or class of `src/keywarp`, and a public
    method or property of such a class, is read by the package itself (its
    `__init__` re-exports do not count), by an example in docs/examples, or
    is named in README.md."""
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    used = set().union(*map(_used_names, modules),
                       *map(_used_names, (ROOT / "docs" / "examples").glob("*.py")))
    readme = (ROOT / "README.md").read_text()
    definitions = []
    for path in modules:
        for node in _public(ast.parse(path.read_text()).body):
            members = _public(node.body) if isinstance(node, ast.ClassDef) else []
            definitions += [(f"{path.stem}.{node.name}", node.name)]
            definitions += [(f"{path.stem}.{node.name}.{m.name}", m.name) for m in members]
    uncalled = [qualified for qualified, name in definitions
                if name not in used and not re.search(rf"\b{name}\b", readme)]
    assert uncalled == []


def _is_record(node) -> bool:
    """A dataclass (bare or called decorator) or a NamedTuple subclass."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
    names = [n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
             for n in decorators + node.bases]
    return "dataclass" in names or "NamedTuple" in names


def test_every_record_field_has_a_reader():
    """An annotated field of a dataclass or NamedTuple in `src/keywarp` is
    read as an attribute (`x.field`) by the package or by an example in
    docs/examples."""
    modules = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    read = {node.attr for path in modules + sorted((ROOT / "docs" / "examples").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{path.stem}.{node.name}.{item.target.id}"
              for path in modules for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.ClassDef) and _is_record(node)
              for item in node.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
              and item.target.id not in read]
    assert unread == []
