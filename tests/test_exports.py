"""Every exported name resolves (no export outlives its definition), the
package exports what the README documents, importing the package and its
command loads neither scipy nor the reference pricers, one function
owns every thread the package starts, and the benchmark's tracer finds
every function it wraps and counts what a desk session does."""
import ast
import importlib
import importlib.util
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import swingquant
from swingquant import cli
from swingquant.contracts import GlobalConstraints, reachable_count

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


def load_spans():
    """``perfbench/spans.py``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_installs():
    # ``perfbench/run.py --trace 1`` and ``scripts/bench_build.py`` wrap
    # the functions ``perfbench/spans.py`` names, and its tracer reads
    # ``contracts.reachable_count``: renaming one breaks them
    tracer = load_spans().Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_benchmark_tracer_counts_a_desk_session(tmp_path):
    # the tracer reads counts off the wrapped calls' arguments, some by
    # position (``extract_and_value_policy``'s ``n_paths`` as its fourth
    # unless passed by keyword): one traced session of an integer quote,
    # an interpolated one and the surface checks every count it makes
    n, paths = 6, 300
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "model": {"alpha1": 0.21, "alpha2": 5.4, "sigma1": 0.36,
                  "sigma2": 1.11, "rho": -0.11, "r": 0.0, "T": n / 365,
                  "n": n, "forward": 20.0, "strike": 20.0},
        "pricing": {"N_bar": 4, "n_samples": 2_000, "seed": 3,
                    "policy_paths": paths},
        "output": {"directory": "out"},
    }))
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        for args in (["price", "--qmin", "2", "--qmax", "5"],
                     ["price", "--qmin", "1.5", "--qmax", "4.5"],
                     ["surface"]):
            res = CliRunner().invoke(cli.main, ["--config", str(config), *args],
                                     catch_exceptions=False)
            assert res.exit_code == 0, res.output
    finally:
        tracer.uninstall()
    got = tracer.metrics()
    assert got["tree.policy_path_dates"] == paths * n
    assert got["tree.dp_states"] == sum(
        reachable_count(GlobalConstraints(2, 5), k, n) for k in range(n))
    assert got["tree.surface_pairs"] == sum(
        (m + 1) * (m + 2) // 2 for m in range(1, n + 1))
    assert got["cli.cache_hit_ratio"] == 2 / 3
    assert got["tree.artifact_mb"] > 0
