"""The package surface: every exported name and every name the benchmark
tracer wraps resolves, and importing the package loads numpy as its only
third-party dependency, and no private helper of the package lacks a caller
in it."""

import ast
import collections
import dataclasses
import importlib
import importlib.util
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import srr

MODULES = sorted(info.name for info in pkgutil.iter_modules(srr.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"srr.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_every_traced_name_resolves():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location("bench_tracer", os.path.join(root, "bench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for mod_name, attrs in tracer.TRACED.items():
        module = importlib.import_module(f"srr.{mod_name}")
        for attr in attrs:
            if "." in attr:  # a method, looked up where the tracer replaces it
                cls_name, meth = attr.split(".")
                found = meth in vars(getattr(module, cls_name, object))
            else:
                found = callable(getattr(module, attr, None))
            if not found:
                missing.append(f"{mod_name}.{attr}")
    assert missing == []


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(srr.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, srr, srr.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_config_field_declares_a_rule():
    undeclared = [
        f"{cls.__name__}.{f.name}"
        for cls in (srr.ModelConfig, srr.TrainConfig, srr.DatasetSpec, srr.RateConfig, srr.GridSpec)
        for f in dataclasses.fields(cls)
        if "rule" not in f.metadata
    ]
    assert undeclared == []


def test_every_private_helper_has_a_caller():
    # a def or class named _x counts as used once a Name or attribute _x appears
    # in src/srr outside its own body; a helper kept only for its tests fails
    trees = [ast.parse(path.read_text()) for path in sorted(pathlib.Path(srr.__path__[0]).glob("*.py"))]

    def refs(node):
        return collections.Counter(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
        )

    total = sum((refs(t) for t in trees), collections.Counter())
    unused = [
        node.name
        for t in trees
        for node in ast.walk(t)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
        and total[node.name] == refs(node)[node.name]
    ]
    assert unused == []
