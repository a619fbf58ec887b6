"""Leftover names in the package source: every import is used by its module,
every module-level private name is used somewhere in the package, every
public function, class and method is used by the package itself or wrapped
by name by the benchmark's tracer, and every name the tracer wraps still
exists."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "singfold"
MODULES = {path.stem: ast.parse(path.read_text())
           for path in sorted(SRC.glob("*.py"))}


def _reads(tree) -> set:
    """Names read in a module: loaded names and attributes."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def _imported_from_siblings(tree) -> set:
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names}


def _imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (n for n in names
                    if n.startswith("_") and not n.startswith("__"))


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_import_is_used(module):
    tree = MODULES[module]
    unused = sorted(set(_imports(tree)) - _reads(tree))
    assert not unused, f"{module}.py imports {unused} and never uses them"


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_private_name_is_used(module):
    everywhere = set().union(*(_reads(t) | _imported_from_siblings(t)
                               for t in MODULES.values()))
    unused = sorted(set(_private_definitions(MODULES[module])) - everywhere)
    assert not unused, f"{module}.py defines {unused} and nothing uses them"


def _public_definitions(tree):
    """Public module-level functions and classes, and the public methods of
    those classes."""
    for node in tree.body:
        names = []
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body
                      if isinstance(item, ast.FunctionDef)]
        yield from (n for n in names if not n.startswith("_"))


def _tracer_targets() -> dict:
    # the tracer wraps each TARGETS name with getattr on its module
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    (targets,) = [ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and [t.id for t in node.targets] == ["TARGETS"]]
    return targets


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_public_name_is_used(module):
    # code that only the tests call belongs in the tests
    everywhere = set().union(*(_reads(t) | _imported_from_siblings(t)
                               for t in MODULES.values()))
    wrapped = set(_tracer_targets().get(module, ()))
    unused = sorted(set(_public_definitions(MODULES[module]))
                    - everywhere - wrapped)
    assert not unused, f"{module}.py defines {unused} and only the tests use them"


def test_tracer_targets_exist():
    for mod_name, funcs in _tracer_targets().items():
        mod = importlib.import_module(f"singfold.{mod_name}")
        for fname in funcs:
            assert callable(getattr(mod, fname, None)), f"{mod_name}.{fname}"
