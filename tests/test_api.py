"""The package surface: every exported name resolves, and importing the
package loads numpy as its only third-party dependency."""

import importlib
import os
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


def test_import_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(os.path.abspath(srr.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, srr, srr.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
