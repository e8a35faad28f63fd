"""Packaging: the source tree holds an importable package, and every
console script that pyproject.toml declares resolves to a callable."""

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
