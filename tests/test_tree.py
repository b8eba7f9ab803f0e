"""Quantized pricing engine tests."""
import hashlib
import io
import math
import os
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    flat_params,
    integer_pairs,
    random_quant_tree,
    tree_as_lattice,
)
from swingquant.contracts import GlobalConstraints, interpolate_on_tile
from swingquant.model import (
    closed_form_strip,
    factor_states,
    simulate_factor_paths,
    spot_and_payoff_of_factor,
    spot_factor,
    standardized_state,
)
from swingquant.oracle import price_lattice_bruteforce
from swingquant.quantizer import Codebook, distortion, nearest_indices
from swingquant import quantizer
from swingquant import tree as tree_module
from swingquant.tree import (
    OPTIMIZERS,
    QuantTree,
    build_grids,
    build_tree,
    estimate_transitions,
    extract_and_value_policy,
    integer_prices,
    load_policy_replay,
    load_tree,
    premium_surface,
    quantized_dp_price,
    save_policy_replay,
    save_tree,
)


def gc(lo, hi):
    return GlobalConstraints(lo, hi)


def assert_monotone_concave(surf, slack):
    """Premium falls with the floor, rises with the cap, and is concave
    along the three edge directions of the tiling."""
    vals = surf.values
    for (i, j) in integer_pairs(surf.n):
        if (i + 1, j) in vals:
            assert vals[(i + 1, j)] <= vals[(i, j)] + slack
        if (i, j + 1) in vals:
            assert vals[(i, j + 1)] >= vals[(i, j)] - slack
        for di, dj in ((1, 0), (0, 1), (1, 1)):
            a = (i - di, j - dj)
            c = (i + di, j + dj)
            if a in vals and c in vals:
                assert vals[(i, j)] >= (vals[a] + vals[c]) / 2 - slack


def exact_policy_value(tree, policy):
    """Expected payoff of the policy's decisions on the tree itself.

    The law of (purchases so far, node) is carried forward through the
    transition matrices; every schedule it reaches must end inside the
    policy's bounds.
    """
    law = {0: np.ones(1)}  # purchases so far -> node weights
    total = 0.0
    for k in range(tree.n):
        nxt = {}
        for bought, weights in law.items():
            row = bought - policy.l_min[k]
            assert 0 <= row < len(policy.buy[k])
            act = policy.buy[k][row]
            total += float(weights @ (act * tree.payoff_values[k]))
            for a in (0, 1):
                if not (act == a).any():
                    continue
                moved = np.where(act == a, weights, 0.0)
                if k < tree.n - 1:
                    moved = moved @ tree.transitions[k]
                nxt[bought + a] = nxt.get(bought + a, 0.0) + moved
        law = nxt
    lo, hi = policy.q0.as_tuple()
    assert all(lo <= b <= hi for b in law)
    return total


def per_date_policy_value(tree, policy, nodes, factors):
    """``(mc_value, std_err)`` and the purchase counts by the per-date loop
    the valuation first ran, on a replay's node and factor arrays: a 2-d
    gather and the model's payoff."""
    n_paths = nodes.shape[1]
    bought = np.zeros(n_paths, dtype=np.int64)
    value = np.zeros(n_paths)
    on_rising_floor = 0  # path-dates where the floor forces a purchase
    for k in range(tree.n):
        _, pay = spot_and_payoff_of_factor(tree.params, k, factors[k])
        row = bought - policy.l_min[k]
        floor_next = max(policy.q0.q_lo - (tree.n - k - 1), 0)
        if floor_next > policy.l_min[k]:
            on_rising_floor += int((row == 0).sum())
        acts = policy.buy[k][row, nodes[k]]
        value += acts * pay
        bought += acts
    stats = (float(value.mean()),
             float(value.std(ddof=1) / math.sqrt(n_paths)))
    return stats, bought, on_rising_floor


@st.composite
def trees_with_bounds(draw):
    """A random tree of at most 5 dates and 3 nodes a date, integer bounds."""
    n = draw(st.integers(min_value=1, max_value=5))
    hi = draw(st.integers(min_value=0, max_value=n))
    lo = draw(st.integers(min_value=0, max_value=hi))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_quant_tree(rng, n=n, max_points=3), gc(lo, hi)


make_params = flat_params


def tree_hash(tree):
    """First 16 hex digits of the SHA-256 of every grid's points and
    weights, date by date, then of every transition matrix."""
    h = hashlib.sha256()
    for g in tree.grids:
        h.update(g.points.tobytes())
        h.update(g.weights.tobytes())
    for t in tree.transitions:
        h.update(t.tobytes())
    return h.hexdigest()[:16]


def build_paths(params, n_samples, seed):
    """The path array :func:`build_tree` simulates."""
    paths = np.empty((n_samples, params.n + 1, 2))
    states = factor_states(params, n_samples, seed, antithetic=True)
    for k, state in enumerate(states):
        paths[:, k, :] = standardized_state(params, k, state)
    return paths


@pytest.fixture(scope="module")
def small_tree():
    params = make_params(n=10)
    return build_tree(params, n_bar=20, n_samples=100_000, seed=2024)


@pytest.fixture(scope="module")
def long_policy():
    """``(tree, policy, n_paths)`` of 100 dates valued on 20,000 paths,
    whose factor array would take 16 MB."""
    tree = build_tree(make_params(n=100), n_bar=6, n_samples=5_000, seed=4,
                      optimizer="clvq")
    _, policy = quantized_dp_price(tree, gc(20, 60))
    return tree, policy, 20_000


class TestBuildGrids:
    def test_single_point_grids_are_zero_mean(self):
        params = make_params(n=4)
        grids = build_grids(params, build_paths(params, 20_000, 5),
                            n_bar=1, seed=5)
        assert len(grids) == 4
        for g in grids:
            assert g.n_points == 1
            # standardized sampling pins the mean of the fitted cloud at 0
            np.testing.assert_allclose(g.points, 0.0, atol=1e-10)

    def test_degenerate_vol_collapses(self):
        params = make_params(n=5, sigma1=0.0, sigma2=0.0)
        grids = build_grids(params, build_paths(params, 5_000, 6),
                            n_bar=8, seed=6)
        for g in grids:
            assert g.n_points == 1
            np.testing.assert_array_equal(g.points, [[0.0, 0.0]])

    def test_distortion_decreases_with_size(self):
        params = make_params(n=4)
        paths = build_paths(params, 40_000, 7)
        coarse = build_grids(params, paths, 10, seed=7)
        fine = build_grids(params, paths, 50, seed=7)
        for k in range(1, 4):
            z = paths[:, k, :] * params.vols
            assert distortion(z, fine[k]) < distortion(z, coarse[k])

    def test_sample_floor_enforced(self):
        params = make_params(n=3)
        with pytest.raises(ValueError):
            build_grids(params, build_paths(params, 500, 1), n_bar=100,
                        seed=1)


class TestEstimateTransitions:
    def test_rows_sum_to_one(self, small_tree):
        for t in small_tree.transitions:
            np.testing.assert_allclose(t.sum(axis=1), 1.0, atol=1e-9)
            assert (t >= 0).all()

    def test_deterministic_chain_identity(self):
        params = make_params(n=4, sigma1=0.0, sigma2=0.0)
        paths = build_paths(params, 5_000, 3)
        grids = build_grids(params, paths, 5, seed=3)
        trans = estimate_transitions(params, grids, paths)
        for t in trans:
            np.testing.assert_array_equal(t, [[1.0]])

    def test_fast_reversion_decorrelates(self):
        # near-instant mean reversion makes consecutive states independent,
        # so every row approaches the next-date marginal law
        params = make_params(n=3, alpha1=4000.0, alpha2=5000.0, rho=0.0)
        paths = build_paths(params, 1_000_000, 11)
        grids = build_grids(params, paths, 4, seed=11)
        trans = estimate_transitions(params, grids, paths)
        for k, t in enumerate(trans):
            z = paths[:, k + 1, :] * params.vols
            idx = nearest_indices(z, grids[k + 1])
            marginal = np.bincount(idx, minlength=grids[k + 1].n_points)
            marginal = marginal / marginal.sum()
            for row in t:
                tv = 0.5 * np.abs(row - marginal).sum()
                assert tv <= 0.05


class TestBuildTree:
    @pytest.mark.parametrize("optimizer,sigma,n", [
        *((opt, (0.36, 1.11), 6) for opt in OPTIMIZERS),
        ("clvq-lloyd", (0.0, 0.0), 6),
        *(("clvq-lloyd", (0.36, 1.11), n) for n in (1, 2, 3)),
    ], ids=[*OPTIMIZERS, "degenerate-vol", "n=1", "n=2", "n=3"])
    def test_one_pass_equals_the_array_pipeline(self, monkeypatch, optimizer,
                                                sigma, n):
        # odd path count: the antithetic mirror is cut short; the fit
        # subsample is strided.  Up to three dates, the helper's first
        # steps are also its last.
        params = make_params(n=n, sigma1=sigma[0], sigma2=sigma[1])
        n_samples, seed = 20_001, 17
        drawn = []
        original = tree_module.factor_states

        def counted(*args, **kwargs):
            for state in original(*args, **kwargs):
                drawn.append(len(state))
                yield state

        monkeypatch.setattr(tree_module, "factor_states", counted)
        monkeypatch.setattr(tree_module, "_MAX_FIT_SAMPLES", 7_000)
        got = build_tree(params, 8, n_samples, seed, optimizer)
        assert drawn == [n_samples] * params.n  # date n is never drawn

        paths = build_paths(params, n_samples, seed)
        grids = build_grids(params, paths, 8, seed, optimizer)
        transitions = estimate_transitions(params, grids, paths)
        weights = [np.ones(1)]
        for t in transitions:
            weights.append(weights[-1] @ t)
        for g, want, w in zip(got.grids, grids, weights):
            assert np.array_equal(g.points, want.points)
            assert np.array_equal(g.weights, w)
        assert len(got.transitions) == len(transitions)
        for t, want in zip(got.transitions, transitions):
            assert np.array_equal(t, want)

    def test_memory_stays_below_the_path_array(self):
        params = make_params(n=30)
        n_samples = 100_000
        path_array = 16 * n_samples * (params.n + 1)
        tracemalloc.start()
        try:
            build_tree(params, n_bar=20, n_samples=n_samples, seed=3,
                       optimizer="clvq")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path_array / 2

    def test_pipeline_holds_two_dates_of_states(self):
        # while date k is fitted the helper counts date k - 1, frees its
        # states and only then draws date k + 1: about 5.1 states here
        # (two dates, the raw recursion's two, the innovations and the
        # node buffers).  Drawing first would hold a third date, 6.1.
        n_samples = 200_000
        state = 16 * n_samples
        # a first build's lazy imports stay out of the count
        build_tree(make_params(n=4), n_bar=2, n_samples=2_000, seed=1,
                   optimizer="clvq")
        tracemalloc.start()
        try:
            build_tree(make_params(n=12), n_bar=16, n_samples=n_samples,
                       seed=7, optimizer="clvq")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * state

    @pytest.mark.parametrize("name,error", [
        ("_fit_grid", ArithmeticError),
        ("standardized_state", ValueError),
        ("_count_transitions", MemoryError),
        ("_fit_grid", KeyboardInterrupt),
    ], ids=["fit", "draw", "count", "fit-interrupt"])
    def test_error_at_date_3_is_raised_and_the_helper_joined(
            self, monkeypatch, name, error):
        # each stage runs its dates in order, so its third call is date 3
        original = getattr(tree_module, name)
        calls = []

        def failing(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise error(f"{name} at date 3")
            return original(*args, **kwargs)

        monkeypatch.setattr(tree_module, name, failing)
        fit, fits = tree_module._fit_grid, []

        def counted(*args, **kwargs):
            fits.append(None)
            return fit(*args, **kwargs)

        monkeypatch.setattr(tree_module, "_fit_grid", counted)
        threads = threading.active_count()
        with pytest.raises(error, match="at date 3"):
            build_tree(make_params(n=8), n_bar=4, n_samples=5_000, seed=2)
        assert threading.active_count() == threads
        # the build stops at the failure, not after the last of 7 fits:
        # date 3's count runs while date 4 is fitted
        assert len(fits) <= 4

    @pytest.mark.parametrize("slow", ["standardized_state", "_fit_grid"])
    def test_tree_ignores_the_threads_timing(self, monkeypatch, slow):
        # either stage lagging, and the threads switched every few
        # microseconds: the same tree, bit for bit
        params = make_params(n=8)
        want = tree_hash(build_tree(params, 6, 6_000, seed=3))
        original = getattr(tree_module, slow)

        def lagging(*args, **kwargs):
            time.sleep(0.01)
            return original(*args, **kwargs)

        monkeypatch.setattr(tree_module, slow, lagging)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = tree_hash(build_tree(params, 6, 6_000, seed=3))
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_collapsed_clvq_seed_falls_back_to_its_start(self, monkeypatch):
        # a pass whose points coincide leaves the date's grid at the
        # previous grid, rescaled to this date's cloud
        rng = np.random.default_rng(8)
        z = rng.normal(size=(2_000, 2)) * [0.3, 1.2]
        prev = Codebook(rng.normal(size=(6, 2)))
        prev_scale = np.array([0.25, 1.5])
        monkeypatch.setattr(quantizer, "_clvq_floats",
                            lambda y, points: np.zeros_like(points))
        grid, scale = tree_module._fit_grid(z, prev, prev_scale, 6,
                                            np.random.default_rng(1), "clvq")
        assert np.array_equal(scale, z.std(axis=0))
        assert np.array_equal(grid.points, prev.points * (scale / prev_scale))
        assert grid.weights is None

    @pytest.mark.parametrize("n,T,fit,want", [
        (30, 30 / 365, dict(n_bar=16, n_samples=200_000, seed=7,
                            optimizer="clvq-lloyd"), "c86c7436c569ac3b"),
        (365, 1.0, dict(n_bar=6, n_samples=8_000, seed=11, optimizer="clvq"),
         "66aefbce2c8b8245"),
    ], ids=["month_desk", "year_book"])
    def test_desk_trees_pinned_by_hash(self, n, T, fit, want):
        # the benchmark desks' trees, bit for bit: any change to the
        # simulation, grid fit or counting that moves one bit fails here
        assert tree_hash(build_tree(make_params(n=n, T=T), **fit)) == want


class TestQuantTree:
    def test_nan_transition_rejected(self):
        tree = random_quant_tree(np.random.default_rng(5), n=3, max_points=3)
        bad = [t.copy() for t in tree.transitions]
        bad[1][0, 0] = np.nan
        with pytest.raises(ValueError, match="row-stochastic"):
            QuantTree(tree.params, tree.grids, bad, tree.payoff_values)

    def test_row_sum_off_by_more_than_the_tolerance(self):
        tree = random_quant_tree(np.random.default_rng(5), n=4, max_points=3)
        tol = tree_module._ROW_TOL
        near = [t.copy() for t in tree.transitions]
        near[1][-1, -1] += 0.5 * tol
        QuantTree(tree.params, tree.grids, near, tree.payoff_values)
        bad = [t.copy() for t in tree.transitions]
        bad[2][0, 0] += 2 * tol
        bad[1][-1, -1] -= 2 * tol
        # the first failing date names the error
        with pytest.raises(ValueError,
                           match="^transition 1 is not row-stochastic$"):
            QuantTree(tree.params, tree.grids, bad, tree.payoff_values)

    def test_negative_entry_rejected(self):
        tree = random_quant_tree(np.random.default_rng(5), n=4, max_points=3)
        k = next(k for k, t in enumerate(tree.transitions) if t.shape[1] > 1)
        bad = [t.copy() for t in tree.transitions]
        bad[k][-1, 1] += bad[k][-1, 0] + 1e-6  # the row still sums to 1
        bad[k][-1, 0] = -1e-6
        with pytest.raises(ValueError,
                           match=f"^transition {k} is not row-stochastic$"):
            QuantTree(tree.params, tree.grids, bad, tree.payoff_values)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_payoff_rejected(self, value):
        tree = random_quant_tree(np.random.default_rng(5), n=4, max_points=3)
        payoffs = [v.copy() for v in tree.payoff_values]
        payoffs[3][-1] = value
        payoffs[2][0] = value
        with pytest.raises(ValueError, match="^non-finite payoff at date 2$"):
            QuantTree(tree.params, tree.grids, tree.transitions, payoffs)

    @pytest.mark.parametrize("weights", [None, (0.5, 0.5), (1.0, 0.0)])
    def test_multi_point_root_rejected(self, weights):
        tree = random_quant_tree(np.random.default_rng(7), n=2, max_points=1)
        root = Codebook(np.array([[0.0, 0.0], [1.0, 0.0]]), weights)
        with pytest.raises(ValueError, match="single point"):
            QuantTree(tree.params, [root, tree.grids[1]],
                      [np.ones((2, 1))], [np.zeros(2), tree.payoff_values[1]])

    def test_state_without_a_purchase_raises(self):
        # one row a date: without a purchase it reads the leading pad,
        # with one (a gather) the trailing pad
        tree = random_quant_tree(np.random.default_rng(6), n=2)
        layout = ((0, 1), np.array([2]), ((0, 1, 0),))
        with pytest.raises(ArithmeticError, match="admits neither choice"):
            list(tree_module._backward(tree, [layout] * 2, decisions=False))

    def test_overflow_raises(self):
        # three finite payoffs of 1e308 sum to inf on every path
        tree = random_quant_tree(np.random.default_rng(8), n=3, max_points=1)
        tree = QuantTree(tree.params, tree.grids, tree.transitions,
                         [np.full(1, 1e308)] * 3)
        with pytest.raises(ArithmeticError, match="overflowed"):
            premium_surface(tree)
        with pytest.raises(ArithmeticError, match="overflowed"):
            quantized_dp_price(tree, gc(0, 3))


class TestQuantizedDP:
    def test_one_step_strip_and_swap(self):
        # a worthless root and one step to 4 weighted points
        rng = np.random.default_rng(21)
        params = make_params(n=2)
        pts = rng.normal(size=(4, 2))
        w = np.array([0.1, 0.2, 0.3, 0.4])
        v = rng.uniform(-1, 1, size=4)
        tree = QuantTree(params, [Codebook(np.zeros((1, 2))), Codebook(pts, w)],
                         [w[None, :]], [np.zeros(1), v])
        price_opt, _ = quantized_dp_price(tree, gc(0, 2))
        assert price_opt == pytest.approx(float(w @ np.maximum(v, 0.0)), abs=1e-14)
        price_forced, _ = quantized_dp_price(tree, gc(2, 2))
        assert price_forced == pytest.approx(float(w @ v), abs=1e-14)

    def test_matches_bruteforce_on_random_trees(self):
        rng = np.random.default_rng(77)
        for _ in range(40):
            tree = random_quant_tree(rng)
            lat = tree_as_lattice(tree)
            n = tree.n
            hi = int(rng.integers(0, n + 1))
            lo = int(rng.integers(0, hi + 1))
            got, _ = quantized_dp_price(tree, gc(lo, hi))
            want = price_lattice_bruteforce(lat, gc(lo, hi))
            assert abs(got - want) <= 1e-12

    def test_non_integer_rejected(self, small_tree):
        with pytest.raises(ValueError):
            quantized_dp_price(small_tree, gc(0.5, 2.0))

    def test_built_tree_agrees_with_oracle_dp(self, small_tree):
        # the pipeline tree, viewed as a plain scenario lattice, must price
        # identically under the independent oracle induction
        from swingquant.oracle import price_lattice_dp

        lat = tree_as_lattice(small_tree)
        for (i, j) in integer_pairs(small_tree.n):
            got, _ = quantized_dp_price(small_tree, gc(i, j))
            want = price_lattice_dp(lat, gc(i, j))
            assert got == pytest.approx(want, rel=1e-11, abs=1e-11)

    def test_spent_cap_never_buys(self, small_tree):
        _, policy = quantized_dp_price(small_tree, gc(0, 4))
        for k, buy in enumerate(policy.buy):
            spent = policy.l_min[k] + np.arange(len(buy)) == 4
            assert spent.any() == (k >= 4)
            assert not buy[spent].any()

    def test_cap_clamped_to_horizon(self, small_tree):
        a, _ = quantized_dp_price(small_tree, gc(0, 10))
        b, _ = quantized_dp_price(small_tree, gc(0, 15))
        assert a == b


def stacked_pair_sets(n):
    """Bound pair sets to price in one induction on an ``n``-date tree.

    The three extreme corners, every tile's three corners (the diagonal
    tiles, the tiles at the cap ``n``, and with ``i >= 1`` floors that
    rise before the last date) and every integer pair at once.
    """
    sets = [[(0, 0), (n, n), (0, n)], integer_pairs(n)]
    for j in range(n):
        for i in range(j + 1):
            sets.append([(i, j), (i, j + 1), (i + 1, j + 1)])
            if i < j:
                sets.append([(i, j), (i + 1, j), (i + 1, j + 1)])
    return sets


def assert_stacked_equals_single(tree):
    for pairs in stacked_pair_sets(tree.n):
        bounds = [gc(i, j) for i, j in pairs]
        want = [quantized_dp_price(tree, q)[0] for q in bounds]
        assert integer_prices(tree, bounds) == want, pairs


class TestStackedPrices:
    """Several bound pairs priced in one induction, one block of rows
    each, against each pair's own induction, bit for bit."""

    def test_random_trees(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 3, 4, 5, 6):
            for _ in range(4):
                assert_stacked_equals_single(
                    random_quant_tree(rng, n=n, max_points=4))

    def test_built_tree(self):
        # at N_bar 16 one matmul over the stacked rows rounds some rows
        # differently from each block's own product
        tree = build_tree(make_params(n=12), n_bar=16, n_samples=20_000,
                          seed=5)
        assert_stacked_equals_single(tree)

    def test_caps_beyond_the_horizon_are_clamped(self, small_tree):
        want = [quantized_dp_price(small_tree, gc(i, 10))[0] for i in (0, 3)]
        assert integer_prices(small_tree, [gc(0, 15), gc(3, 10.0)]) == want

    def test_non_integer_rejected(self, small_tree):
        with pytest.raises(ValueError):
            integer_prices(small_tree, [gc(1, 2), gc(0.5, 2.0)])

    def test_no_bounds_no_prices(self, small_tree):
        assert integer_prices(small_tree, []) == []


class TestKernelProperties:
    @given(case=trees_with_bounds())
    @settings(max_examples=200, deadline=None)
    def test_price_matches_bruteforce(self, case):
        tree, q0 = case
        price, _ = quantized_dp_price(tree, q0)
        want = price_lattice_bruteforce(tree_as_lattice(tree), q0)
        assert abs(price - want) <= 1e-12

    @given(case=trees_with_bounds())
    @settings(max_examples=200, deadline=None)
    def test_decisions_reproduce_price(self, case):
        tree, q0 = case
        price, policy = quantized_dp_price(tree, q0)
        assert abs(exact_policy_value(tree, policy) - price) <= 1e-12

    @given(n=st.integers(min_value=1, max_value=8),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_surface_matches_pointwise_dp(self, n, seed):
        # every horizon's tail rows (a, m) and its two forbidden rows,
        # (0, 0) and (m, m), on grids of 1 to 4 points
        tree = random_quant_tree(np.random.default_rng(seed), n=n,
                                 max_points=4)
        surf = premium_surface(tree)
        for (i, j) in integer_pairs(n):
            want, _ = quantized_dp_price(tree, gc(i, j))
            assert surf.values[(i, j)] == pytest.approx(want, rel=1e-11,
                                                        abs=1e-11)

    @given(case=trees_with_bounds())
    @settings(max_examples=100, deadline=None)
    def test_surface_monotone_and_concave(self, case):
        tree, _ = case
        assert_monotone_concave(premium_surface(tree), slack=1e-9)


class TestPremiumSurface:
    def test_matches_pointwise_dp(self, small_tree):
        surf = premium_surface(small_tree)
        n = small_tree.n
        assert set(surf.values) == set(integer_pairs(n))
        for (i, j) in integer_pairs(n):
            want, _ = quantized_dp_price(small_tree, gc(i, j))
            assert surf.values[(i, j)] == pytest.approx(want, rel=1e-11, abs=1e-11)

    def test_corner_identities(self, small_tree):
        surf = premium_surface(small_tree)
        n = small_tree.n
        weights = [g.weights for g in small_tree.grids]
        swap = sum(float(w @ v) for w, v in zip(weights, small_tree.payoff_values))
        strip = sum(float(w @ np.maximum(v, 0.0))
                    for w, v in zip(weights, small_tree.payoff_values))
        assert surf.values[(0, 0)] == 0.0
        assert surf.values[(n, n)] == pytest.approx(swap, rel=1e-11, abs=1e-11)
        assert surf.values[(0, n)] == pytest.approx(strip, rel=1e-11, abs=1e-11)

    def test_shape_properties(self, small_tree):
        assert_monotone_concave(premium_surface(small_tree), slack=1e-9)

    def test_interpolation_of_surface(self, small_tree):
        surf = premium_surface(small_tree)
        # interpolated premium between vertices stays within the vertex hull
        q = gc(1.25, 3.75)
        p = interpolate_on_tile(surf, q)
        lo = min(surf.values[v] for v in ((1, 3), (1, 4), (2, 4), (2, 3)))
        hi = max(surf.values[v] for v in ((1, 3), (1, 4), (2, 4), (2, 3)))
        assert lo - 1e-12 <= p <= hi + 1e-12

    def test_transient_memory_below_one_and_a_half_dates(self):
        # The traced peak less what the returned surface keeps, on a
        # 365-date, 6-point tree: 2.3 MiB, against a bound of 1.5 times
        # date 0's (rows, N) float64 array (4.6 MiB).  Three buffers grown
        # geometrically, one of them held while the surface's dict was
        # built, read 7.2 MiB; so does any buffer that outlives the
        # induction, or an induction peaking 4.6 MiB above the surface.
        rng = np.random.default_rng(9)
        n, width = 365, 6
        widths = [1] + [width] * (n - 1)
        raw = [rng.uniform(0.05, 1.0, size=(a, b))
               for a, b in zip(widths, widths[1:])]
        tree = QuantTree(flat_params(n=n, sigma1=0.0, sigma2=0.0),
                         [Codebook(rng.normal(size=(w, 2))) for w in widths],
                         [t / t.sum(axis=1, keepdims=True) for t in raw],
                         [rng.uniform(-1, 1, size=w) for w in widths])
        rows = (n + 1) * (n + 2) // 2
        tracemalloc.start()
        try:
            surface = premium_surface(tree)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(surface.values) == rows
        assert peak - kept < 1.5 * rows * width * 8


class TestPolicy:
    def test_deterministic_model_picks_best_dates(self):
        strikes = np.array([19.0, 21.0, 18.0, 20.5, 19.5])
        params = make_params(n=5, sigma1=0.0, sigma2=0.0, strike=strikes)
        tree = build_tree(params, n_bar=1, n_samples=2_000, seed=9)
        price, policy = quantized_dp_price(tree, gc(2, 2))
        assert price == pytest.approx(3.0, abs=1e-12)  # payoffs 2 and 1
        mc, se = extract_and_value_policy(tree, policy, n_paths=100, seed=10)
        assert mc == pytest.approx(3.0, abs=1e-12)
        assert se == pytest.approx(0.0, abs=1e-12)
        # the deterministic trajectory buys exactly at dates 0 and 2
        bought = 0
        for k, want in enumerate((1, 0, 1, 0, 0)):
            l_min_k = max(2 - (5 - k), 0)
            assert policy.l_min[k] == l_min_k
            assert policy.buy[k][bought - l_min_k, 0] == want
            bought += want

    def test_actions_are_binary(self, small_tree):
        _, policy = quantized_dp_price(small_tree, gc(3, 7))
        extract_and_value_policy(small_tree, policy, n_paths=500, seed=12)
        for arr in policy.buy:
            assert set(np.unique(arr)).issubset({0, 1})

    def test_flat_gather_equals_the_per_date_loop(self, small_tree, tmp_path):
        q = gc(4, 6)  # the floor rises over the last four dates
        _, policy = quantized_dp_price(small_tree, q)
        save_policy_replay(small_tree, 3_000, 21, tmp_path)
        replay = load_policy_replay(tmp_path, small_tree, 3_000)
        want, bought, on_rising_floor = per_date_policy_value(
            small_tree, policy, replay.nodes, np.load(replay.factors))
        assert (bought == 6).any()  # the cap binds
        assert on_rising_floor > 0  # and the floor forces purchases
        for cached in (None, replay):
            got = extract_and_value_policy(small_tree, policy, n_paths=3_000,
                                           seed=21, replay=cached)
            assert got == want

    def test_saved_replay_is_np_save_of_the_arrays(self, small_tree, tmp_path):
        # the arrays are built here from the whole path array, apart from
        # the writer's date-by-date simulation
        params, n_paths = small_tree.params, 3_000
        paths = simulate_factor_paths(params, n_paths, 21)
        nodes = np.empty((params.n, n_paths), dtype=np.uint8)  # 20 nodes
        factors = np.empty((params.n, n_paths))
        for k in range(params.n):
            z = paths[:, k, :] * params.vols
            nodes[k] = nearest_indices(z, small_tree.grids[k])
            factors[k] = spot_factor(params, k, z)
        save_policy_replay(small_tree, n_paths, 21, tmp_path)
        for name, arr in (("nodes.npy", nodes), ("factors.npy", factors)):
            buf = io.BytesIO()
            np.save(buf, arr)
            assert (tmp_path / name).read_bytes() == buf.getvalue(), name

    @pytest.mark.parametrize("n,bounds", [
        (3, (1, 2)), (4, (1, 3)), (5, (1, 4)), (1, (0, 1)), (2, (0, 2)),
    ], ids=["-1", "0", "1", "n=1", "n=2"])  # the first three: 4 + id dates
    def test_file_replay_values_as_the_in_memory_one(self, tmp_path, n,
                                                     bounds):
        # one to five dates, the factors read a row at a time
        n_paths = 8_192
        tree = build_tree(make_params(n=n), n_bar=5, n_samples=5_000, seed=8)
        q = gc(*bounds)
        _, policy = quantized_dp_price(tree, q)
        save_policy_replay(tree, n_paths, 9, tmp_path)
        replay = load_policy_replay(tmp_path, tree, n_paths)
        want = extract_and_value_policy(tree, policy, n_paths, 9)
        assert extract_and_value_policy(tree, policy, n_paths, 9,
                                        replay=replay) == want

    def test_file_replay_holds_one_block_of_factors(self, long_policy,
                                                    tmp_path):
        tree, policy, n_paths = long_policy
        save_policy_replay(tree, n_paths, 5, tmp_path)
        factors = tmp_path / "factors.npy"
        tracemalloc.start()
        try:
            replay = load_policy_replay(tmp_path, tree, n_paths)
            extract_and_value_policy(tree, policy, n_paths, 5, replay)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < factors.stat().st_size / 3

    def test_simulated_replay_holds_no_factor_array(self, long_policy):
        tree, policy, n_paths = long_policy
        tracemalloc.start()
        try:
            extract_and_value_policy(tree, policy, n_paths, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * tree.n * n_paths / 3

    def test_factor_file_cut_short_raises(self, small_tree, tmp_path):
        save_policy_replay(small_tree, 3_000, 21, tmp_path)
        replay = load_policy_replay(tmp_path, small_tree, 3_000)
        dates = replay.dates()
        next(dates)  # the first date's row is read
        os.truncate(replay.factors, replay.factors.stat().st_size - 8)
        # never a row of stale values; the last of 10 dates is short
        with pytest.raises(EOFError, match="date 9's row"):
            for _ in dates:
                pass
        with pytest.raises(ValueError, match="bytes"):
            replay.check(small_tree, 3_000)

    def test_rejects_a_policy_of_another_tree(self):
        # the same 8 dates, grids of 6 and of 3 points
        params = make_params(n=8)
        wide, narrow = (build_tree(params, n_bar=n_bar, n_samples=5_000,
                                   seed=4) for n_bar in (6, 3))
        for policy_tree, tree in ((wide, narrow), (narrow, wide)):
            _, policy = quantized_dp_price(policy_tree, gc(2, 5))
            with pytest.raises(ValueError, match="another tree"):
                extract_and_value_policy(tree, policy, n_paths=100, seed=12)
        short = build_tree(make_params(n=7), n_bar=3, n_samples=5_000, seed=4)
        _, policy = quantized_dp_price(short, gc(2, 5))
        with pytest.raises(ValueError, match="another tree"):
            extract_and_value_policy(narrow, policy, n_paths=100, seed=12)

    def test_nonnegative_payoffs_saturate(self):
        params = make_params(n=8, strike=0.0)
        tree = build_tree(params, n_bar=10, n_samples=50_000, seed=13)
        _, policy = quantized_dp_price(tree, gc(2, 5))
        extract_and_value_policy(tree, policy, n_paths=2_000, seed=14)
        # replay to count purchases per path is internal; the valuation
        # asserts bounds, here we check saturation via the policy itself
        from swingquant.model import simulate_factor_paths, spot_and_payoff
        from swingquant.quantizer import nearest_indices
        paths = simulate_factor_paths(params, 2_000, seed=14)
        bought = np.zeros(2_000, dtype=int)
        for k in range(8):
            z = paths[:, k, :] * params.vols
            node = nearest_indices(z, tree.grids[k])
            l_min_k = max(2 - (8 - k), 0)
            assert policy.l_min[k] == l_min_k
            assert (bought >= l_min_k).all()
            bought += policy.buy[k][bought - l_min_k, node]
        assert (bought == 5).all()

    def test_policy_value_bracketed_and_converging(self, monkeypatch):
        monkeypatch.setattr(tree_module, "_MAX_FIT_SAMPLES", 30_000)
        params = make_params(n=8)
        errs = []
        for n_bar in (10, 50, 200):
            tree = build_tree(params, n_bar=n_bar, n_samples=200_000, seed=15)
            price, policy = quantized_dp_price(tree, gc(2, 6))
            mc, se = extract_and_value_policy(
                tree, policy, n_paths=40_000, seed=16
            )
            # feasible-strategy value cannot beat the true price; allow the
            # quantization bias of the DP price plus MC noise
            bias_budget = 0.25
            assert mc <= price + 3 * se + bias_budget
            errs.append(abs(mc - price))
        assert errs[2] < errs[0]


def replay_bytes(tree, directory):
    """The files of a 3,000-path replay written into ``directory``."""
    directory.mkdir()
    save_policy_replay(tree, 3_000, 21, directory)
    return [(directory / name).read_bytes()
            for name in ("factors.npy", "nodes.npy")]


class _FailingFile:
    """A file whose fifth write, date 3's factor row after the header,
    raises ``OSError``."""

    def __init__(self, f):
        self._f = f
        self._writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def write(self, data):
        self._writes += 1
        if self._writes == 5:
            raise OSError("write at date 3")
        return self._f.write(data)


class TestReplayPipeline:
    @pytest.mark.parametrize("name,error,consumer", [
        ("spot_factor", ValueError, "save"),
        ("spot_factor", ValueError, "value"),
        ("spot_factor", KeyboardInterrupt, "value"),
        ("nearest_indices", MemoryError, "save"),
        ("nearest_indices", MemoryError, "value"),
        ("open", OSError, "save"),
    ], ids=["draw-save", "draw-value", "draw-interrupt", "project-save",
            "project-value", "write"])
    def test_error_at_date_3_is_raised_and_the_helper_joined(
            self, small_tree, tmp_path, monkeypatch, name, error, consumer):
        # the helper draws (spot_factor), the caller projects
        # (nearest_indices), and save_policy_replay's own loop writes
        if name == "open":
            monkeypatch.setattr(tree_module, "open",
                                lambda *a: _FailingFile(open(*a)),
                                raising=False)
        else:
            original = getattr(tree_module, name)
            calls = []

            def failing(*args, **kwargs):
                calls.append(None)
                if len(calls) == 4:  # dates 0, 1, 2, then 3
                    raise error(f"{name} at date 3")
                return original(*args, **kwargs)

            monkeypatch.setattr(tree_module, name, failing)
        q = gc(3, 7)
        _, policy = quantized_dp_price(small_tree, q)
        threads = threading.active_count()
        with pytest.raises(error, match="at date 3") as held:
            if consumer == "save":
                save_policy_replay(small_tree, 3_000, 21, tmp_path)
            else:
                extract_and_value_policy(small_tree, policy, 3_000, 21)
        # ``held`` keeps the traceback, so the consumer's frame and its
        # date iterator, alive: the helper must be joined all the same
        assert threading.active_count() == threads

    @pytest.mark.parametrize("slow", ["spot_factor", "nearest_indices"])
    def test_replay_ignores_the_threads_timing(self, small_tree, tmp_path,
                                               monkeypatch, slow):
        # either stage lagging, and the threads switched every few
        # microseconds: the same files, byte for byte
        want = replay_bytes(small_tree, tmp_path / "want")
        original = getattr(tree_module, slow)

        def lagging(*args, **kwargs):
            time.sleep(0.01)
            return original(*args, **kwargs)

        monkeypatch.setattr(tree_module, slow, lagging)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = replay_bytes(small_tree, tmp_path / "got")
        finally:
            sys.setswitchinterval(interval)
        assert got == want


class TestAhead:
    def test_items_come_in_order_one_step_after_each_request(self):
        # a step that ran two items ahead would make item j + 2 during
        # the pause after item j
        log = []

        def items():
            for j in range(5):
                log.append(("make", j))
                yield j

        ahead = tree_module._ahead(items())
        for j in range(5):
            log.append(("ask", j))
            assert next(ahead) == j
            time.sleep(0.01)
        with pytest.raises(StopIteration):
            next(ahead)
        for j in range(4):
            assert log.index(("make", j + 1)) > log.index(("ask", j))

    @pytest.mark.parametrize("error", [LookupError, KeyboardInterrupt])
    def test_error_at_item_3_is_raised_and_the_helper_joined(self, error):
        def items():
            yield from range(3)
            raise error("item 3")

        threads = threading.active_count()
        got = []
        with pytest.raises(error, match="item 3") as held:
            for item in tree_module._ahead(items()):
                got.append(item)
        assert held.type is error and got == [0, 1, 2]
        assert threading.active_count() == threads

    def test_closing_part_way_joins_the_helper(self):
        made = []

        def items():
            for j in range(100):
                made.append(j)
                yield j

        threads = threading.active_count()
        ahead = tree_module._ahead(items())
        assert [next(ahead), next(ahead)] == [0, 1]
        ahead.close()
        assert threading.active_count() == threads
        # item 2's step had been queued: it ran or was cancelled
        assert made in ([0, 1], [0, 1, 2])
        seen = list(made)
        time.sleep(0.05)
        assert made == seen


class TestPersistence:
    def test_round_trip(self, small_tree, tmp_path):
        save_tree(small_tree, tmp_path / "tree", {"seed": 2024})
        back, manifest = load_tree(tmp_path / "tree", small_tree.params)
        assert manifest["seed"] == 2024
        assert manifest["transition_scheme"] == "joint-path-counting"
        assert back.n == small_tree.n
        for a, b in zip(back.grids, small_tree.grids):
            np.testing.assert_array_equal(a.points, b.points)
            assert np.array_equal(a.weights, b.weights)
        for a, b in zip(back.transitions, small_tree.transitions):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(back.payoff_values, small_tree.payoff_values):
            assert np.array_equal(a, b)
        p1, _ = quantized_dp_price(back, gc(2, 6))
        p2, _ = quantized_dp_price(small_tree, gc(2, 6))
        assert p1 == pytest.approx(p2, rel=1e-12)

    @pytest.mark.parametrize("seed,sizes", [
        (5, [1, 3, 3, 1, 3, 2, 2, 2]),  # a collapsed date among 2 and 3
        (0, [1]),                       # no transitions at all
    ])
    def test_round_trip_of_unequal_grids(self, tmp_path, seed, sizes):
        # an off-by-one split offset moves a point or a cell between dates
        raw = random_quant_tree(np.random.default_rng(seed), n=len(sizes),
                                max_points=3)
        params, transitions = raw.params, raw.transitions
        grids = [Codebook(g.points, w) for g, w in
                 zip(raw.grids, tree_module._chained(transitions))]
        tree = QuantTree(params, grids, transitions,
                         tree_module._payoffs(params, grids))
        save_tree(tree, tmp_path)
        back, manifest = load_tree(tmp_path, params)
        assert manifest["grid_sizes"] == sizes
        for a, b in zip(back.grids, tree.grids, strict=True):
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.weights, b.weights)
        for a, b in zip(back.transitions, tree.transitions, strict=True):
            assert np.array_equal(a, b)
        for a, b in zip(back.payoff_values, tree.payoff_values, strict=True):
            assert np.array_equal(a, b)

    def test_round_trip_of_a_degenerate_tree(self, tmp_path):
        # every date's one point is (0, 0): equal points on different
        # dates are not duplicates
        params = make_params(n=6, sigma1=0.0, sigma2=0.0)
        tree = build_tree(params, n_bar=3, n_samples=1_000, seed=4)
        for g in tree.grids:
            assert np.array_equal(g.points, np.zeros((1, 2)))
        save_tree(tree, tmp_path)
        back, _ = load_tree(tmp_path, params)
        for a, b in zip(back.grids, tree.grids, strict=True):
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.weights, b.weights)
        for a, b in zip(back.payoff_values, tree.payoff_values, strict=True):
            assert np.array_equal(a, b)


class TestRemark:
    def test_curves_leave_grids_and_transitions_alone(self, small_tree,
                                                      tmp_path):
        other = make_params(n=10, forward=np.linspace(18.0, 23.0, 10),
                            strike=np.linspace(21.0, 19.0, 10), r=0.04)
        fresh = build_tree(other, n_bar=20, n_samples=100_000, seed=2024)
        for a, b in zip(fresh.grids, small_tree.grids):
            np.testing.assert_array_equal(a.points, b.points)
            np.testing.assert_array_equal(a.weights, b.weights)
        for a, b in zip(fresh.transitions, small_tree.transitions):
            np.testing.assert_array_equal(a, b)
        save_tree(small_tree, tmp_path / "tree")
        remarked, _ = load_tree(tmp_path / "tree", other)
        assert remarked.params is other
        for a, b in zip(remarked.payoff_values, fresh.payoff_values):
            np.testing.assert_array_equal(a, b)

    def test_rejects_other_dynamics(self, small_tree, tmp_path):
        save_tree(small_tree, tmp_path / "tree")
        with pytest.raises(ValueError, match="dynamics"):
            load_tree(tmp_path / "tree", make_params(n=10, sigma1=0.4))


class TestStripConvergence:
    def test_error_not_reduced_by_halving_grid(self):
        params = make_params(n=10)
        target = closed_form_strip(params)
        errs = {}
        for n_bar in (8, 16):
            tree = build_tree(params, n_bar=n_bar, n_samples=200_000, seed=17)
            surf = premium_surface(tree)
            errs[n_bar] = abs(surf.values[(0, 10)] - target)
        assert errs[8] >= errs[16] - 1e-3
