"""Tests of the benchmark itself: references, and a toy-scale pass.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""
import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
from desk import END_TO_END, book_order, run_workload
from spans import METRICS
from workloads import MODEL, WORKLOADS, import_program

HERE = Path(__file__).resolve().parent
cli = import_program(HERE.parent)


def test_black_call_textbook_values():
    # Hull, Options, Futures and Other Derivatives: S=42, K=40, r=10%,
    # sigma=20%, T=0.5 gives a call of 4.76.  In forward terms F = S e^{rT}.
    f = 42.0 * math.exp(0.05)
    assert math.exp(-0.05) * reference.black_call(f, 40.0, 0.2**2 * 0.5) == pytest.approx(4.7594, abs=1e-4)
    # At the money with r = 0: C = F (2 Phi(sigma sqrt(T) / 2) - 1) = 7.9656.
    assert reference.black_call(100.0, 100.0, 0.04) == pytest.approx(7.965567, abs=1e-6)
    assert reference.black_call(25.0, 20.0, 0.0) == 5.0
    assert reference.black_call(15.0, 20.0, 0.0) == 0.0


def test_call_strip_agrees_with_program():
    from swingquant.model import closed_form_strip, params_from_dict

    forward = [20.0 + 0.3 * k for k in range(12)]
    doc = dict(MODEL, r=0.03, T=0.5, n=12, forward=forward, strike=21.0)
    ours = reference.call_strip(MODEL, forward, 21.0, 0.5, 0.03)
    assert ours == pytest.approx(closed_form_strip(params_from_dict(doc)), rel=1e-12)


def test_swap_value():
    assert reference.swap_value([21.0, 19.0, 22.0], 20.0, 1.0, 0.0) == pytest.approx(2.0)
    disc = reference.swap_value([21.0, 21.0], 20.0, 2.0, 0.1)
    assert disc == pytest.approx(1.0 + math.exp(-0.1))


def _grid(values: dict) -> np.ndarray:
    n = max(j for _, j in values)
    grid = np.full((n + 1, n + 1), np.nan)
    for (i, j), v in values.items():
        grid[i, j] = v
    return grid


HAND = _grid({(0, 0): 0.0, (0, 1): 1.0, (1, 1): 0.5,
              (0, 2): 1.8, (1, 2): 1.4, (2, 2): 0.6})


@pytest.mark.parametrize("u, v, want", [
    (0.25, 0.75, 0.625),   # upper tile (0,0),(0,1),(1,1)
    (0.5, 1.25, 0.975),    # lower tile (0,1),(1,1),(1,2)
    (0.2, 1.9, 1.64),      # upper tile (0,1),(0,2),(1,2)
    (1.0, 2.0, 1.4),       # a vertex
    (2.0, 2.0, 0.6),       # the far corner
])
def test_tile_value_hand_computed(u, v, want):
    assert reference.tile_value(HAND, u, v) == pytest.approx(want, abs=1e-12)


def test_tile_value_matches_program_and_affine_functions():
    from swingquant.contracts import GlobalConstraints, PremiumSurface, interpolate_on_tile

    n = 5
    rng = np.random.default_rng(3)
    values = {(i, j): float(rng.normal()) for j in range(n + 1) for i in range(j + 1)}
    grid = _grid(values)
    affine = _grid({(i, j): 3.0 * i - 2.0 * j + 1.0 for (i, j) in values})
    surface = PremiumSurface(n=n, values=values)
    for _ in range(200):
        u = rng.uniform(0, n)
        v = rng.uniform(u, n)
        assert reference.tile_value(affine, u, v) == pytest.approx(3 * u - 2 * v + 1, abs=1e-12)
        assert reference.tile_value(grid, u, v) == pytest.approx(
            interpolate_on_tile(surface, GlobalConstraints(u, v)), abs=1e-12)


def test_shape_violations():
    n = 6
    good = _grid({(i, j): math.sqrt(1.0 + j) - 0.3 * i - 0.05 * i * i
                  for j in range(n + 1) for i in range(j + 1)})
    assert reference.shape_violations(good, 1e-12) == 0
    bent = good.copy()
    bent[2, 4] += 0.5
    assert reference.shape_violations(bent, 1e-12) > 0


def test_book_order_spreads_interpolated_quotes():
    order = book_order([(1, 2), (2, 3), (3, 4), (4, 5)], [(0.5, 1.5), (1.5, 2.5)])
    assert [kind for kind, _, _ in order] == [
        "quote", "quote", "interp", "quote", "quote", "interp"]


def toy(name):
    return dataclasses.replace(
        WORKLOADS[name], n=10, n_bar=4, n_samples=4000, policy_paths=500,
        strip_tol=0.25)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_toy_pass(name, trace, tmp_path):
    w = toy(name)
    result, record = run_workload(w, 5, 0.2, trace, tmp_path / "run", probes=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    want = METRICS if trace else END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert all(math.isfinite(v) for v in values.values())
    json.dumps(result)
    assert not (tmp_path / "run").exists()
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    # one round of the book: the counts repeat exactly
    assert result["attempted"] == 2 + len(w.int_fractions) + w.interp_quotes + 1
    lloyd = values["quantizer.lloyd_iters"]
    assert (lloyd > 0) == (w.optimizer == "clvq-lloyd")
    assert values["quantizer.clvq_steps"] > 0
    # cold and re-mark build; every later request hits the cache
    assert values["cli.cache_hit_ratio"] == pytest.approx(
        (result["attempted"] - 2) / result["attempted"])
    assert values["model.path_array_mb"] == pytest.approx(16 * 4000 * 11 / 2**20)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "month_desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
