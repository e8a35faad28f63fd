"""Packaging: the source tree holds an importable package, every console
script that pyproject.toml declares resolves to a callable, and every name
a module exports in __all__ exists and is reached by the pipeline."""

import ast
import importlib
import pathlib

import pytest
from setuptools import find_packages

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_find_packages_sees_mmsparse():
    assert "mmsparse" in find_packages(str(ROOT / "src"))


def test_script_targets_import():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    for name, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name} names {target}, which is not callable"


def test_all_exports_resolve():
    for path in sorted((ROOT / "src" / "mmsparse").glob("*.py")):
        module = importlib.import_module(f"mmsparse.{path.stem}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name}"


# Exported names that no pipeline module reaches yet but that stay, each
# with the reason it stays.
KEPT = {
    "kkt_violation": "the LASSO optimality check a solver report reads",
    "save_record": "writes the key-value run record",
    "load_record": "reads the key-value run record back",
    "file_digest": "fingerprints the files a run record names",
    "train_svm": "the one-problem SVM API that the alpha-form reference checks",
}


def _from_imports(path: pathlib.Path) -> set:
    """(module stem, name) pairs that a file imports with `from ... import`
    from a mmsparse module, absolute or relative."""
    pairs = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 1 or node.module.startswith("mmsparse."):
            stem = node.module.rpartition(".")[2]
            pairs.update((stem, alias.name) for alias in node.names)
    return pairs


def _used_in_own_module(tree: ast.Module, name: str) -> bool:
    """Whether a module reads `name` anywhere outside its own definition."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name == name:
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
                return True
    return False


def test_every_export_is_reached():
    package = ROOT / "src" / "mmsparse"
    modules = sorted(package.glob("*.py"))
    imported = set()
    for path in modules + sorted((ROOT / "medbench").glob("*.py")):
        imported |= _from_imports(path)
    unreached = []
    for path in modules:
        tree = ast.parse(path.read_text())
        module = importlib.import_module(f"mmsparse.{path.stem}")
        for name in getattr(module, "__all__", ()):
            if not ((path.stem, name) in imported or _used_in_own_module(tree, name)
                    or name in KEPT):
                unreached.append(f"{path.stem}.{name}")
    assert not unreached, f"exported but reached by no pipeline module: {unreached}"
