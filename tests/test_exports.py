"""Every exported name resolves (no export outlives its definition), the
package exports what the README documents, and importing the package and
its command loads neither scipy nor the reference pricers."""
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import swingquant

MODULES = ["swingquant", *(f"swingquant.{m.name}"
                           for m in pkgutil.iter_modules(swingquant.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_import_loads_no_scipy():
    script = ("import sys, swingquant, swingquant.cli\n"
              "print(sorted(m for m in sys.modules if m.startswith('scipy')\n"
              "             or m == 'swingquant.oracle'))\n")
    src = str(Path(swingquant.__file__).resolve().parents[1])
    res = subprocess.run([sys.executable, "-c", script],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_exports_are_the_readme_library_names():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Library example")[1].split("\n## ")[0]
    imported = re.search(r"from swingquant import \(([^)]*)\)", section).group(1)
    named = set(re.findall(r"\w+", imported))
    named |= set(re.findall(r"`swingquant\.(\w+)", section))
    named -= {m.name for m in pkgutil.iter_modules(swingquant.__path__)}
    assert set(swingquant.__all__) - {"__version__"} == named
