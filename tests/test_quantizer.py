"""Codebook construction, projection and optimiser tests."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import swingquant
from swingquant import quantizer
from swingquant.quantizer import (
    Codebook,
    clvq_optimize,
    distortion,
    has_distinct_rows,
    lloyd_optimize,
    nearest_indices,
    newton_optimize_1d_normal,
)

ROOT_2_OVER_PI = 0.7978845608028654  # two-point stationary quantizer of N(0,1)


def cb1d(*values, weights=None):
    return Codebook(np.asarray(values, dtype=float)[:, None], weights)


def nearest_index(y, cb):
    """Index of the point of ``cb`` closest to ``y`` (smallest index on
    ties), one point at a time: the reference for the blocked scan."""
    d2 = ((cb.points - np.asarray(y, dtype=float)) ** 2).sum(axis=1)
    return int(np.argmin(d2))


class TestCodebook:
    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError):
            cb1d(1.0, 1.0)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            cb1d(0.0, 1.0, weights=[0.4, 0.7])
        with pytest.raises(ValueError):
            cb1d(0.0, 1.0, weights=[-0.1, 1.1])
        with pytest.raises(ValueError):
            cb1d(0.0, 1.0, weights=[math.nan, 1.0])
        cb = cb1d(0.0, 1.0, weights=[0.25, 0.75])
        assert cb.weights.sum() == 1.0

    def test_points_immutable(self):
        cb = cb1d(0.0, 1.0)
        with pytest.raises(ValueError):
            cb.points[0] = 5.0


class TestNearest:
    def test_basic(self):
        cb = cb1d(-1.0, 0.5, 2.0)
        assert nearest_indices([[0.0]], cb).tolist() == [1]

    def test_tie_goes_to_smallest_index(self):
        cb = cb1d(-1.0, 0.5, 2.0)
        assert nearest_indices([[-0.25]], cb).tolist() == [0]

    def test_far_point(self):
        cb = cb1d(-1.0, 0.5, 2.0)
        assert nearest_indices([[10.0]], cb).tolist() == [2]

    def test_dimension_mismatch(self):
        cb = Codebook(np.zeros((1, 2)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            nearest_indices([[1.0]], cb)

    def test_batch_matches_scalar_1d_paths(self):
        rng = np.random.default_rng(3)
        for n_pts in (5, 40):  # small and large 1-D codebooks, one scan
            pts = np.sort(rng.normal(size=n_pts))
            cb = Codebook(pts[:, None])
            ys = rng.normal(size=500)[:, None]
            batch = nearest_indices(ys, cb)
            single = [nearest_index(y, cb) for y in ys]
            assert batch.tolist() == single

    def test_batch_matches_scalar_2d(self):
        rng = np.random.default_rng(4)
        cb = Codebook(rng.normal(size=(17, 2)))
        ys = rng.normal(size=(400, 2))
        batch = nearest_indices(ys, cb)
        single = [nearest_index(y, cb) for y in ys]
        assert batch.tolist() == single

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("n_pts", [1, 6, 16, 200])
    def test_runner_up_is_the_row_min_without_the_nearest(
            self, monkeypatch, n_pts, rows):
        # the scan's second argmin against np.min of each surrogate row with
        # inf written at its argmin, in blocks of ``rows`` rows.  Integer
        # points and quarter-integer rows keep every surrogate exact, so the
        # reference may compute it in one product, and rows halfway between
        # two points tie for the nearest one
        rng = np.random.default_rng(n_pts)
        grid = np.stack(np.meshgrid(np.arange(-8, 8), np.arange(-8, 8)), -1)
        pts = rng.permutation(grid.reshape(-1, 2))[:n_pts].astype(float)
        y = rng.integers(-40, 40, size=(203, 2)) / 4.0
        # halfway between each of a few points and its nearest other one
        for i in range(min(n_pts, 5) if n_pts > 1 else 0):
            d2 = ((pts - pts[i]) ** 2).sum(axis=1)
            d2[i] = np.inf
            y[20 + i] = (pts[i] + pts[np.argmin(d2)]) / 2
        y[5] = np.nan
        y[6] = [np.inf, 0.0]  # NaN where a point's first coordinate is 0
        with np.errstate(invalid="ignore"):
            surrogate = 0.5 * (pts ** 2).sum(axis=1) - y @ pts.T
        want = np.argmin(surrogate, axis=1)
        surrogate[np.arange(len(y)), want] = np.inf
        want_second = np.min(surrogate, axis=1)
        monkeypatch.setattr(quantizer, "_SCAN_BYTES", 8 * n_pts * rows)
        out = np.empty(len(y), dtype=np.intp)
        second = np.empty(len(y))
        with np.errstate(invalid="ignore"):
            quantizer._scan(y, pts, out, second)
        quantizer._scan(y[:0], pts, out[:0], second[:0])  # no rows, no block
        assert out.tolist() == want.tolist()
        # np.min returns a NaN of its own for a row holding NaN, the gather
        # one of the row's: the same value, but the sign bit may differ
        nan = np.isnan(want_second)
        assert nan[5] == (n_pts > 1)
        assert np.isnan(second).tolist() == nan.tolist()
        assert second[~nan].tobytes() == want_second[~nan].tobytes()
        # argmin's first-index rule: each row's nearest point is the first
        # of its equally near ones, and some rows tie
        d2 = ((y[:, None, :] - pts[None]) ** 2).sum(axis=2)
        finite = np.isfinite(d2).all(axis=1)
        first = np.argmax(d2 == d2.min(axis=1, keepdims=True), axis=1)
        assert out[finite].tolist() == first[finite].tolist()
        if n_pts > 1:
            ties = (d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1
            assert ties[finite].any()

    def test_sorted_path_midpoint_tie(self):
        # a 1-D codebook of 20 points: the blocked scan resolves an exact
        # midpoint to the smaller index, like nearest_index
        pts = np.arange(20.0)
        cb = Codebook(pts[:, None])
        assert nearest_indices(np.array([[3.5]]), cb).tolist() == [3]

    def test_sorted_path_tie_with_unsorted_points(self):
        # descending points: the blocked scan still resolves a midpoint tie
        # to the smallest index, here the larger value
        pts = np.arange(20.0)[::-1].copy()
        cb = Codebook(pts[:, None])
        got = nearest_indices(np.array([[3.5], [18.5]]), cb).tolist()
        assert got == [nearest_index([3.5], cb), nearest_index([18.5], cb)]
        assert got == [15, 0]

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        cb = Codebook(rng.normal(size=(8, 2)))
        y = rng.normal(size=(100, 2))
        a = nearest_indices(y, cb)
        b = nearest_indices(y, cb)
        assert (a == b).all()


class TestDistortion:
    def test_single_point(self):
        assert distortion([-1.0, 1.0], cb1d(0.0), p=2) == pytest.approx(1.0)

    def test_exact_cover(self):
        assert distortion([-1.0, 1.0], cb1d(-1.0, 1.0), p=2) == 0.0

    def test_l1(self):
        assert distortion([0.0, 2.0], cb1d(0.0), p=1) == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            distortion(np.empty((0, 1)), cb1d(0.0))


class TestDistinctRows:
    @pytest.mark.parametrize("m", [1, 3, 4, 5, 50])
    def test_matches_the_full_count(self, m):
        rng = np.random.default_rng(3)
        # distinct rows only late in the array, past any short prefix
        rows = np.zeros((400, 2))
        rows[-3:] = rng.normal(size=(3, 2))
        assert has_distinct_rows(rows, m) == (4 >= m)
        cloud = rng.normal(size=(400, 2))
        assert has_distinct_rows(cloud, m)
        assert has_distinct_rows(cloud[:m], m)
        assert not has_distinct_rows(cloud[: m - 1], m)


class TestLloyd:
    def test_symmetric_fixed_point(self):
        samples = np.array([-2.0, -1.0, 1.0, 2.0])
        cb, report = lloyd_optimize(samples, cb1d(-1.5, 1.5))
        np.testing.assert_allclose(np.sort(cb.points[:, 0]), [-1.5, 1.5])
        assert report.final_distortion ** 2 == pytest.approx(0.25)
        assert report.converged

    def test_two_point_normal(self):
        rng = np.random.default_rng(42)
        samples = rng.standard_normal(1_000_000)
        cb, report = lloyd_optimize(samples, cb1d(-0.5, 0.5))
        got = np.sort(cb.points[:, 0])
        assert abs(got[0] + ROOT_2_OVER_PI) < 0.02
        assert abs(got[1] - ROOT_2_OVER_PI) < 0.02
        assert report.converged

    def test_single_point_is_mean(self):
        rng = np.random.default_rng(7)
        samples = rng.uniform(-3, 5, size=1000)
        cb, _ = lloyd_optimize(samples, cb1d(0.0))
        assert cb.points[0, 0] == pytest.approx(samples.mean(), abs=1e-12)

    def test_history_non_increasing(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            samples = rng.normal(size=2000)
            init = rng.choice(samples, size=8, replace=False)
            cb, report = lloyd_optimize(samples, cb1d(*init))
            h = report.distortion_history
            assert all(b <= a * (1 + 1e-12) for a, b in zip(h, h[1:]))

    def test_weights_are_frequencies(self):
        rng = np.random.default_rng(13)
        samples = rng.normal(size=5000)
        cb, _ = lloyd_optimize(samples, cb1d(-1.0, 0.0, 1.0))
        assert cb.weights.sum() == pytest.approx(1.0, abs=1e-9)
        assert (cb.weights >= 0).all()
        idx = nearest_indices(samples[:, None], cb)
        freq = np.bincount(idx, minlength=3) / len(samples)
        np.testing.assert_allclose(cb.weights, freq, atol=1e-12)

    def test_empty_cell_reseeded(self):
        samples = np.array([0.0, 0.4, 0.6, 1.0, 7.0])
        cb, report = lloyd_optimize(samples, cb1d(0.5, 100.0))
        assert 7.0 in cb.points  # far singleton captured, no point lost
        assert cb.n_points == 2
        assert report.final_distortion < 1.0

    def test_stationarity_residual_small_when_converged(self):
        rng = np.random.default_rng(17)
        samples = rng.normal(size=4000)
        init = np.quantile(samples, [0.2, 0.5, 0.8])
        cb, report = lloyd_optimize(samples, cb1d(*init), tol=1e-10)
        spread = samples.max() - samples.min()
        if report.converged:
            assert report.stationarity_residual <= 10 * 1e-10 * spread or (
                report.stationarity_residual <= 1e-8
            )


    def test_capped_report_describes_the_returned_codebook(self):
        rng = np.random.default_rng(19)
        samples = rng.normal(size=(20_000, 2))
        init = samples[rng.choice(len(samples), size=16, replace=False)]
        cb, report = lloyd_optimize(samples, Codebook(init), max_iter=2)
        assert not report.converged
        idx = nearest_indices(samples, cb)
        freq = np.bincount(idx, minlength=16) / len(samples)
        np.testing.assert_allclose(cb.weights, freq, atol=1e-12)
        assert report.final_distortion == pytest.approx(
            distortion(samples, cb), rel=1e-12)
        assert report.stationarity_residual > 0


def reference_lloyd(samples, init, max_iter=500, tol=1e-6):
    """Lloyd's loop with a full projection on every pass.

    Returns the points, weights and report fields of the fit, and the
    number of empty-cell re-seeds it made.
    """
    y = np.asarray(samples, dtype=float)
    y = y[:, None] if y.ndim == 1 else y
    pts = np.array(init, dtype=float)
    n = len(pts)

    def project():
        return nearest_indices(y, Codebook(pts))

    def sums(idx):
        return np.stack([np.bincount(idx, weights=y[:, j], minlength=n)
                         for j in range(y.shape[1])], axis=1)

    history, prev_d2, converged, reseeds = [], None, False, 0
    for iterations in range(1, max_iter + 1):
        idx = project()
        counts = np.bincount(idx, minlength=n)
        guard = 0
        while (counts == 0).any():
            sqd = ((y - pts[idx]) ** 2).sum(axis=1)
            far = int(np.argmax(sqd))
            if sqd[far] == 0.0:
                break
            pts[int(np.flatnonzero(counts == 0)[0])] = y[far]
            reseeds += 1
            idx = project()
            counts = np.bincount(idx, minlength=n)
            guard += 1
            if guard > n:
                break
        d2 = float(((y - pts[idx]) ** 2).sum(axis=1).mean())
        history.append(math.sqrt(d2))
        if prev_d2 is not None and abs(prev_d2 - d2) <= tol * prev_d2:
            converged = True
            break
        prev_d2 = d2
        nonzero = counts > 0
        pts[nonzero] = sums(idx)[nonzero] / counts[nonzero, None]
    if not converged:
        idx = project()
        history.append(math.sqrt(float(((y - pts[idx]) ** 2).sum(axis=1).mean())))
    counts = np.bincount(idx, minlength=n)
    nonzero = counts > 0
    centroids = sums(idx)[nonzero] / counts[nonzero, None]
    residual = float(np.max(np.sqrt(((centroids - pts[nonzero]) ** 2).sum(axis=1))))
    return pts, counts / counts.sum(), history, iterations, converged, residual, reseeds


def spread_start(y, n, rng):
    return y[np.sort(rng.choice(len(y), size=n, replace=False))]


class TestPrunedLloyd:
    """The bound-pruned assignment step against full projections."""

    def assert_fit_matches(self, y, init, **kwargs):
        pts, weights, history, iterations, converged, residual, reseeds = (
            reference_lloyd(y, init, **kwargs))
        cb, report = lloyd_optimize(y, Codebook(init), **kwargs)
        assert np.array_equal(cb.points, pts)
        assert np.array_equal(cb.weights, weights)
        assert report.distortion_history == history
        assert report.iterations == iterations
        assert report.converged == converged
        assert report.stationarity_residual == residual
        return report, reseeds

    @pytest.mark.parametrize("dim", [1, 2])
    def test_spread_sample_start(self, dim):
        rng = np.random.default_rng(31 + dim)
        y = rng.normal(size=(5000, dim)) * [1.0, 3.0][:dim]
        report, _ = self.assert_fit_matches(y, spread_start(y, 12, rng))
        assert report.converged and report.iterations > 10

    @pytest.mark.parametrize("dim", [1, 2])
    def test_warm_start(self, dim):
        rng = np.random.default_rng(41 + dim)
        earlier = rng.normal(size=(5000, dim))
        prev, _ = lloyd_optimize(earlier, Codebook(spread_start(earlier, 10, rng)),
                                 max_iter=20)
        y = 1.1 * rng.normal(size=(5000, dim))
        report, _ = self.assert_fit_matches(y, 1.1 * prev.points, max_iter=60)
        assert report.iterations > 10

    def test_empty_cell_reseeded(self):
        rng = np.random.default_rng(53)
        y = rng.normal(size=(4000, 2))
        init = np.vstack([spread_start(y, 7, rng), [[40.0, -40.0]]])
        report, reseeds = self.assert_fit_matches(y, init)
        assert reseeds > 0 and report.iterations > 10

    @pytest.mark.parametrize("dim", [1, 2])
    def test_capped_fit(self, dim):
        rng = np.random.default_rng(61 + dim)
        y = rng.normal(size=(5000, dim))
        report, _ = self.assert_fit_matches(y, spread_start(y, 9, rng), max_iter=3)
        assert not report.converged

    def test_duplicate_rows(self):
        rng = np.random.default_rng(71)
        y = np.round(2.0 * rng.normal(size=(6000, 2))) / 2.0
        init = spread_start(np.unique(y, axis=0), 10, rng)
        report, _ = self.assert_fit_matches(y, init)
        assert len(np.unique(y, axis=0)) < len(y) // 20

    @pytest.mark.parametrize("seed", [2, 4, 6])
    def test_cloud_far_from_the_origin(self, seed):
        # at 1e6 the scan's rounding spans many samples' cell margins
        rng = np.random.default_rng(seed)
        y = rng.normal(size=(4000, 1)) + 1e6
        init = y[rng.choice(len(y), 8, replace=False)]
        self.assert_fit_matches(y, init, max_iter=60)

    def test_rising_distortion_raises_under_optimisation(self):
        # far from the origin the scan's surrogate rounds badly enough for
        # the distortion to rise; the check must hold under python -O too
        script = (
            "import numpy as np\n"
            "from swingquant.quantizer import Codebook, lloyd_optimize\n"
            "y = np.random.default_rng(0).standard_normal((10_000, 2)) + 1e7\n"
            "lloyd_optimize(y, Codebook(y[:16]), max_iter=60)\n"
        )
        src = str(Path(swingquant.__file__).resolve().parents[1])
        res = subprocess.run([sys.executable, "-O", "-c", script],
                             env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=60)
        assert res.returncode == 1
        assert ("ArithmeticError: distortion increased during iteration"
                in res.stderr), res.stderr

    def test_warm_fit_projects_few_samples(self):
        rng = np.random.default_rng(83)
        law = np.array([[1.0, 0.0], [0.4, 2.5]])
        prev, _ = lloyd_optimize(rng.normal(size=(50_000, 2)) @ law,
                                 Codebook(rng.normal(size=(16, 2)) @ law),
                                 max_iter=30)
        y = rng.normal(size=(50_000, 2)) @ law
        _, report = lloyd_optimize(y, Codebook(prev.points), max_iter=60)
        assert report.iterations > 10
        assert report.projections < 0.25 * len(y) * report.iterations


class TestClvq:
    def test_two_point_support(self):
        samples = np.tile([[-1.0], [1.0]], (50_000, 1))
        cb, _ = clvq_optimize(samples, cb1d(-0.5, 0.5))
        got = np.sort(cb.points[:, 0])
        assert abs(got[0] + 1.0) < 0.05
        assert abs(got[1] - 1.0) < 0.05

    def test_zero_steps_identity(self):
        cb0 = cb1d(-0.5, 0.5)
        cb, report = clvq_optimize(np.empty((0, 1)), cb0)
        assert cb is cb0
        assert report.iterations == 0

    def test_normal_two_points(self):
        rng = np.random.default_rng(23)
        samples = rng.standard_normal((1_000_000, 1))
        cb, report = clvq_optimize(samples, cb1d(-0.3, 0.3))
        got = np.sort(cb.points[:, 0])
        assert abs(got[0] + ROOT_2_OVER_PI) < 0.05
        assert abs(got[1] - ROOT_2_OVER_PI) < 0.05


class TestClvqLoops:
    """The Python-float step loop against the numpy loop, the reference."""

    BOUND = quantizer._CLVQ_FLOAT_POINTS

    @pytest.mark.parametrize("n_points", [1, 2, 6, 16, BOUND, BOUND + 1, 200])
    def test_random_samples_bit_for_bit(self, n_points):
        rng = np.random.default_rng(n_points)
        cb0 = Codebook(rng.normal(size=(n_points, 2)))
        y = rng.normal(size=(30 * n_points, 2)) * [1.0, 2.7]
        want = quantizer._clvq_array(y, cb0.points)
        assert np.array_equal(quantizer._clvq_floats(y, cb0.points), want)
        cb, report = clvq_optimize(y, cb0)
        assert np.array_equal(cb.points, want)
        assert report.converged and report.iterations == len(y)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ties_go_to_the_smallest_index(self, seed):
        # integer points and samples: many samples lie at the same
        # distance from two or more points
        rng = np.random.default_rng(seed)
        cb0 = Codebook([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0],
                        [4.0, 0.0], [4.0, 4.0]])
        y = rng.integers(-1, 6, size=(400, 2)).astype(float)
        y[0] = [1.0, 0.0]  # equidistant from points 0 and 1
        want = quantizer._clvq_array(y, cb0.points)
        assert np.array_equal(quantizer._clvq_floats(y, cb0.points), want)
        cb, _ = clvq_optimize(y, cb0)
        assert np.array_equal(cb.points, want)
        first = quantizer._clvq_floats(y[:1], cb0.points)
        assert first[0, 0] > 0.0 and np.array_equal(first[1:], cb0.points[1:])

    @pytest.mark.parametrize("shape,loop", [
        ((6, 2), "_clvq_floats"), ((BOUND, 2), "_clvq_floats"),
        ((BOUND + 1, 2), "_clvq_array"), ((6, 1), "_clvq_array"),
        ((6, 3), "_clvq_array"),
    ])
    def test_loop_by_size_and_dimension(self, monkeypatch, shape, loop):
        rng = np.random.default_rng(7)
        cb0 = Codebook(rng.normal(size=shape))
        y = rng.normal(size=(50, shape[1]))
        calls = []
        for name in ("_clvq_floats", "_clvq_array"):
            original = getattr(quantizer, name)

            def recorded(*args, name=name, original=original):
                calls.append(name)
                return original(*args)
            monkeypatch.setattr(quantizer, name, recorded)
        cb, _ = clvq_optimize(y, cb0)
        assert calls == [loop]
        monkeypatch.undo()
        assert np.array_equal(cb.points, quantizer._clvq_array(y, cb0.points))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_zero_rows_return_the_start(self, dim):
        cb0 = Codebook(np.arange(3.0 * dim).reshape(3, dim))
        cb, report = clvq_optimize(np.empty((0, dim)), cb0)
        assert cb is cb0
        assert report.iterations == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_sample_raises_on_both_loops(self, monkeypatch, bad):
        rng = np.random.default_rng(9)
        cb0 = Codebook(rng.normal(size=(6, 2)))
        y = rng.normal(size=(180, 2))
        y[17, 1] = bad
        with pytest.raises(ValueError, match="^non-finite codebook point$"):
            clvq_optimize(y, cb0)
        monkeypatch.setattr(quantizer, "_CLVQ_FLOAT_POINTS", 0)
        with pytest.raises(ValueError, match="^non-finite codebook point$"):
            clvq_optimize(y, cb0)

    def test_collapsed_pass_returns_its_start(self, monkeypatch):
        rng = np.random.default_rng(10)
        cb0 = Codebook(rng.normal(size=(6, 2)))
        y = rng.normal(size=(180, 2))
        monkeypatch.setattr(quantizer, "_clvq_floats",
                            lambda y, points: np.zeros_like(points))
        cb, report = clvq_optimize(y, cb0)
        assert cb is cb0
        assert not report.converged
        assert report.iterations == len(y)


class TestNewtonNormal:
    def test_single_point(self):
        cb = newton_optimize_1d_normal(1)
        assert cb.points[0, 0] == 0.0

    def test_two_points(self):
        cb = newton_optimize_1d_normal(2)
        got = np.sort(cb.points[:, 0])
        assert got[0] == pytest.approx(-ROOT_2_OVER_PI, abs=1e-5)
        assert got[1] == pytest.approx(ROOT_2_OVER_PI, abs=1e-5)

    def test_symmetry_and_weights(self):
        for n in (2, 3, 8, 15):
            cb = newton_optimize_1d_normal(n)
            pts = cb.points[:, 0]
            np.testing.assert_allclose(pts, -pts[::-1], atol=1e-12)
            assert cb.weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert (np.diff(pts) > 0).all()

    def test_three_points_match_lloyd_oracle(self):
        rng = np.random.default_rng(101)
        samples = rng.standard_normal(10_000_000)
        init = np.quantile(samples, [1 / 6, 0.5, 5 / 6])
        lloyd_cb, _ = lloyd_optimize(samples, cb1d(*init), tol=1e-9)
        newton_cb = newton_optimize_1d_normal(3)
        a = np.sort(lloyd_cb.points[:, 0])
        b = np.sort(newton_cb.points[:, 0])
        np.testing.assert_allclose(a, b, atol=2e-3)

    def test_zador_rate(self):
        rng = np.random.default_rng(77)
        samples = rng.standard_normal(1_000_000)
        sizes = [10, 20, 40, 80]
        errs = []
        for n in sizes:
            cb = newton_optimize_1d_normal(n)
            errs.append(distortion(samples, cb, p=2))
        assert all(b < a for a, b in zip(errs, errs[1:]))
        slope = np.polyfit(np.log(sizes), np.log(errs), 1)[0]
        assert -1.3 <= slope <= -0.7
