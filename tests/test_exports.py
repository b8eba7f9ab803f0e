"""Every exported name resolves (no export outlives its definition), the
package exports what the README documents, importing the package and its
command loads neither scipy nor the reference pricers, one function
owns every thread the package starts, and the benchmark's tracer finds
every function it wraps."""
import ast
import importlib
import importlib.util
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


def test_one_function_starts_threads():
    # the error, interrupt and join rules of a helper thread live in one
    # place, which every pipeline goes through
    src = Path(swingquant.__file__).resolve().parent
    owners = []
    for path in sorted(src.glob("*.py")):
        module = ast.parse(path.read_text())
        funcs = [f for f in ast.walk(module)
                 if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(module):
            callee = getattr(node, "func", None)
            name = getattr(callee, "attr", getattr(callee, "id", None))
            if isinstance(node, ast.Call) and name in ("ThreadPoolExecutor",
                                                       "Thread"):
                around = [f for f in funcs
                          if f.lineno <= node.lineno <= f.end_lineno]
                inner = max(around, key=lambda f: f.lineno, default=None)
                owners.append(f"{path.stem}.{getattr(inner, 'name', '')}")
    assert owners == ["tree._ahead"]


def test_benchmark_tracer_installs():
    # ``perfbench/run.py --trace 1`` and ``scripts/bench_build.py`` wrap
    # the functions ``perfbench/spans.py`` names, and its tracer reads
    # ``contracts.reachable_count``: renaming one breaks them
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    tracer = spans.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
