"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -v -s`` or
in captured output).  The heavy production-scale artifacts (the 30-date
reference setup at one million sample paths) are cached on disk per
session and shared between the corner-pricing and convergence criteria.
"""
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import (
    flat_params,
    integer_pairs,
    random_lattice,
    random_quant_tree,
    tree_as_lattice,
)
from swingquant.cli import RunConfig, ensure_tree, run_converge
from swingquant.contracts import (
    GlobalConstraints,
    PremiumSurface,
    interpolate_on_tile,
)
from swingquant.model import closed_form_strip, simulate_factor_paths
from swingquant.oracle import (
    TwoPeriodInstance,
    price_lattice_bruteforce,
    price_lattice_dp,
    price_lattice_dp_fine,
    price_two_period,
)
from swingquant.quantizer import (
    Codebook,
    distortion,
    lloyd_optimize,
    newton_optimize_1d_normal,
)
from swingquant.tree import (
    build_tree,
    extract_and_value_policy,
    premium_surface,
    quantized_dp_price,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def reference_config(tmp_path_factory):
    """The 30-date reference setup at production sampling scale."""
    params = flat_params(n=30, T=30 / 365, forward=20.0, strike=20.0, r=0.0)
    out_dir = tmp_path_factory.mktemp("acceptance-cache")
    return RunConfig(
        params=params, q_lo=0.0, q_hi=30.0, n_bar=200, n_samples=1_000_000,
        seed=20110, policy_paths=10_000, policy_seed=20111,
        optimizer="clvq-lloyd", out_dir=out_dir,
    )


def test_criterion_1_corner_oracles(reference_config):
    """Quantized corners vs the Black strip and the zero-value swap."""
    cfg = reference_config
    target = closed_form_strip(cfg.params)
    t0 = time.perf_counter()
    tree, _, _ = ensure_tree(cfg)
    surf = premium_surface(tree)
    wall = time.perf_counter() - t0
    n = cfg.params.n
    strip_rel = abs(surf.values[(0, n)] - target) / target
    swap_abs = abs(surf.values[(n, n)] - 0.0)
    ok = strip_rel <= 0.01 and swap_abs <= 1e-2 and wall < 300.0
    report(
        "criterion 1 (corner oracles)", ok,
        f"strip rel err {strip_rel:.3%} (tol 1%), swap abs err "
        f"{swap_abs:.2e} (tol 1e-2), wall {wall:.0f}s (cap 300s)",
    )


def test_criterion_2_oracle_equivalence():
    """Quantized DP equals exhaustive 0/1 strategy search on 200 trees."""
    rng = np.random.default_rng(19571982)
    t0 = time.perf_counter()
    worst = 0.0
    checked = 0
    for _ in range(200):
        tree = random_quant_tree(rng, n=int(rng.integers(1, 5)), max_points=3)
        lat = tree_as_lattice(tree)
        for (i, j) in integer_pairs(tree.n):
            got, _ = quantized_dp_price(tree, GlobalConstraints(i, j))
            want = price_lattice_bruteforce(lat, GlobalConstraints(i, j))
            worst = max(worst, abs(got - want))
            checked += 1
    wall = time.perf_counter() - t0
    ok = worst <= 1e-12 and wall < 60.0
    report(
        "criterion 2 (oracle equivalence)", ok,
        f"{checked} prices on 200 trees, worst |diff| {worst:.2e} "
        f"(tol 1e-12), wall {wall:.1f}s (cap 60s)",
    )


def test_criterion_3_bang_bang_saturation():
    """Zero-strike contracts: 0/1 policies that always exhaust the cap."""
    params = flat_params(n=30, strike=0.0)
    tree = build_tree(params, n_bar=20, n_samples=100_000, seed=5150)
    q0 = GlobalConstraints(5.0, 12.0)
    _, policy = quantized_dp_price(tree, q0)
    extract_and_value_policy(tree, policy, n_paths=10_000, seed=5151)
    binary = all(set(np.unique(a)).issubset({0, 1}) for a in policy.buy)

    # replay the policy on its valuation paths and count purchases
    from swingquant.quantizer import nearest_indices

    paths = simulate_factor_paths(params, 10_000, seed=5151)
    bought = np.zeros(10_000, dtype=int)
    for k in range(params.n):
        z = paths[:, k, :] * params.vols
        node = nearest_indices(z, tree.grids[k])
        l_min_k = max(5 - (params.n - k), 0)
        assert policy.l_min[k] == l_min_k
        assert (bought >= l_min_k).all()
        bought += policy.buy[k][bought - l_min_k, node]
    violations = int((bought != 12).sum())
    ok = binary and violations == 0
    report(
        "criterion 3 (bang-bang saturation)", ok,
        f"actions binary: {binary}, cap-saturation violations "
        f"{violations}/10000 (0 tolerated)",
    )


def test_criterion_4_surface_shape():
    """Concavity over every equally-spaced integer triple, monotonicity."""
    params = flat_params(n=30, T=30 / 365)
    tree = build_tree(params, n_bar=100, n_samples=200_000, seed=4242)
    surf = premium_surface(tree)
    vals = surf.values
    slack = 1e-9
    vertices = set(integer_pairs(30))

    mono_bad = 0
    for (i, j) in vertices:
        if (i + 1, j) in vertices and vals[(i + 1, j)] > vals[(i, j)] + slack:
            mono_bad += 1
        if (i, j + 1) in vertices and vals[(i, j + 1)] < vals[(i, j)] - slack:
            mono_bad += 1

    concave_bad = 0
    triples = 0
    verts = sorted(vertices)
    for (ai, aj) in verts:
        for (ci, cj) in verts:
            if (ci, cj) <= (ai, aj):
                continue
            mi, mj = ai + ci, aj + cj
            if mi % 2 or mj % 2:
                continue
            mid = (mi // 2, mj // 2)
            if mid not in vertices:
                continue
            triples += 1
            if vals[mid] < (vals[(ai, aj)] + vals[(ci, cj)]) / 2 - slack:
                concave_bad += 1
    ok = mono_bad == 0 and concave_bad == 0
    report(
        "criterion 4 (surface shape)", ok,
        f"monotonicity violations {mono_bad}, concavity violations "
        f"{concave_bad} over {triples} triples (slack 1e-9)",
    )


def test_criterion_5_affinity():
    """Tile interpolation of integer vertices matches a fine-action DP."""
    rng = np.random.default_rng(646464)
    worst_interior = 0.0
    worst_vertex = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 5))
        lat = random_lattice(rng, n=n, max_branch=3)
        surf = PremiumSurface(
            n=n,
            values={
                (i, j): price_lattice_dp(lat, GlobalConstraints(i, j))
                for (i, j) in integer_pairs(n)
            },
        )
        for (i, j) in integer_pairs(n):
            diff = abs(
                interpolate_on_tile(surf, GlobalConstraints(i, j))
                - surf.values[(i, j)]
            )
            worst_vertex = max(worst_vertex, diff)
        for _ in range(50):
            a = int(rng.integers(1, 64 * n))
            b = int(rng.integers(a, 64 * n))
            q = GlobalConstraints(a / 64.0, b / 64.0)
            fine = price_lattice_dp_fine(lat, q, steps_per_unit=64)
            interp = interpolate_on_tile(surf, q)
            worst_interior = max(worst_interior, abs(fine - interp))
    ok = worst_vertex <= 1e-12 and worst_interior <= 2e-3
    report(
        "criterion 5 (piecewise affinity)", ok,
        f"vertex exactness {worst_vertex:.2e}, interior vs fine-grid DP "
        f"{worst_interior:.2e} (tol 2e-3) over 20 lattices x 50 points",
    )


def test_criterion_6_quantizer_quality():
    """Two-point normal optimum, monotone fixed-point descent, error rate."""
    cb2 = newton_optimize_1d_normal(2)
    newton_err = float(
        np.max(np.abs(np.sort(cb2.points[:, 0])
                      - np.array([-1, 1]) * math.sqrt(2 / math.pi)))
    )

    rng = np.random.default_rng(8080)
    monotone = True
    for _ in range(10):
        samples = rng.normal(size=4000)
        init = rng.choice(np.unique(samples), size=6, replace=False)
        _, rep = lloyd_optimize(samples, Codebook(init[:, None]))
        h = rep.distortion_history
        monotone &= all(b <= a * (1 + 1e-12) for a, b in zip(h, h[1:]))

    samples = rng.standard_normal(1_000_000)
    sizes = [10, 20, 40, 80]
    errs = [distortion(samples, newton_optimize_1d_normal(m)) for m in sizes]
    decreasing = all(b < a for a, b in zip(errs, errs[1:]))
    slope = float(np.polyfit(np.log(sizes), np.log(errs), 1)[0])
    ok = newton_err <= 1e-5 and monotone and decreasing and -1.3 <= slope <= -0.7
    report(
        "criterion 6 (quantizer quality)", ok,
        f"two-point error {newton_err:.1e} (tol 1e-5), histories monotone: "
        f"{monotone}, decay slope {slope:.3f} (within [-1.3, -0.7])",
    )


def test_criterion_7_convergence_trend(reference_config):
    """Error against the call-strip oracle non-increasing in grid size."""
    cfg = reference_config
    sizes = [10, 50, 100, 200]
    _, rows = run_converge(cfg, sizes)
    errs = [r["abs_error_vs_oracle"] for r in rows]
    inversions = [i for i in range(len(errs) - 1) if errs[i + 1] > errs[i]]
    detail = ", ".join(f"N={s}: {e:.3f}" for s, e in zip(sizes, errs))
    if len(inversions) == 1:
        # retry the inverted pair with 4x the sampling budget
        i = inversions[0]
        cfg4 = replace(cfg, n_samples=4 * cfg.n_samples,
                       out_dir=cfg.out_dir / "rerun4x")
        _, rows4 = run_converge(cfg4, [sizes[i], sizes[i + 1]])
        resolved = (rows4[1]["abs_error_vs_oracle"]
                    <= rows4[0]["abs_error_vs_oracle"])
        detail += f"; one inversion at N={sizes[i]}, 4x rerun resolved: {resolved}"
        ok = resolved
    else:
        ok = not inversions
    report("criterion 7 (convergence trend)", ok, detail)


def test_criterion_8_two_period_cases():
    """Closed-form first-purchase rules on each tile of the 2-date simplex."""
    # payoff tomorrow: +2 or -1 with equal odds
    dist = ((2.0, 0.5), (-1.0, 0.5))
    ep, en, ev = 1.0, 0.5, 0.5  # E(V1+), E(V1-), E(V1)

    def expected_price(q0, q1_pos, q1_neg, v0):
        return q0 * v0 + 0.5 * (q1_pos * 2.0 + q1_neg * (-1.0))

    cases = []
    # lower-left tile: cap below one unit
    q = GlobalConstraints(0.3, 0.8)
    cases += [
        (q, 1.5, q.q_hi, 0.0, 0.0),                    # v0 above E(V1+)
        (q, 0.7, q.q_lo, q.q_hi - q.q_lo, 0.0),        # between E(V1), E(V1+)
        (q, 0.2, 0.0, q.q_hi, q.q_lo),                 # below E(V1)
    ]
    # upper tile of the mixed cell: slack between floor and cap-1
    q = GlobalConstraints(0.4, 1.7)
    cases += [
        (q, 1.5, 1.0, q.q_hi - 1.0, 0.0),
        (q, 0.6, q.q_hi - 1.0, 1.0, 0.0),
        (q, -0.3, q.q_lo, 1.0, 0.0),
        (q, -1.0, 0.0, 1.0, q.q_lo),
    ]
    # lower tile of the mixed cell: floor above cap-1
    q = GlobalConstraints(0.8, 1.5)
    cases += [
        (q, 1.2, 1.0, q.q_hi - 1.0, 0.0),
        (q, 0.7, q.q_lo, q.q_hi - q.q_lo, 0.0),
        (q, 0.2, q.q_hi - 1.0, 1.0, q.q_lo - q.q_hi + 1.0),
        (q, -0.8, 0.0, 1.0, q.q_lo),
    ]
    # upper-right tile: floor above one unit
    q = GlobalConstraints(1.3, 1.8)
    cases += [
        (q, 0.7, 1.0, q.q_hi - 1.0, q.q_lo - 1.0),
        (q, 0.0, q.q_hi - 1.0, 1.0, q.q_lo - q.q_hi + 1.0),
        (q, -1.0, q.q_lo - 1.0, 1.0, 1.0),
    ]

    worst_price = 0.0
    worst_q0 = 0.0
    for q, v0, q0_want, q1_pos, q1_neg in cases:
        inst = TwoPeriodInstance(v0=v0, v1=dist)
        price, q0_got = price_two_period(inst, q)
        want = expected_price(q0_want, q1_pos, q1_neg, v0)
        worst_price = max(worst_price, abs(price - want))
        worst_q0 = max(worst_q0, abs(q0_got - q0_want))
    ok = worst_price <= 1e-12 and worst_q0 <= 1e-12
    report(
        "criterion 8 (two-period case tables)", ok,
        f"{len(cases)} cases across 4 tiles, worst price diff "
        f"{worst_price:.2e}, worst control diff {worst_q0:.2e} (tol 1e-12)",
    )
