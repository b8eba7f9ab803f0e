"""Two-factor model tests: exact simulation, variances, Black strip."""
import math

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import ks_2samp

from swingquant.model import (
    TwoFactorParams,
    black_call,
    closed_form_strip,
    factor_marginal_covariance,
    factor_states,
    factor_step,
    norm_cdf,
    params_from_dict,
    simulate_factor_paths,
    spot_and_payoff,
    spot_and_payoff_of_factor,
    spot_factor,
    standardized_state,
    variance_lambda,
)
from swingquant import model

# frozen with 30-digit arithmetic from the closed form
LAMBDA_ONE_YEAR_REFERENCE_SET = 0.20429334170788006
LAMBDA_ONE_YEAR_SINGLE_FACTOR = 0.10582555274278248


def make_params(n=30, T=30 / 365, forward=20.0, strike=20.0, r=0.0,
                alpha1=0.21, alpha2=5.4, sigma1=0.36, sigma2=1.11, rho=-0.11):
    return TwoFactorParams(
        alpha1=alpha1, alpha2=alpha2, sigma1=sigma1, sigma2=sigma2, rho=rho,
        r=r, T=T, n=n,
        forward=np.full(n, forward), strikes=np.full(n, strike),
    )


class TestVarianceLambda:
    def test_zero_at_origin(self):
        assert variance_lambda(make_params(), 0.0) == 0.0

    def test_single_factor_closed_form(self):
        p = make_params(sigma2=0.0, sigma1=0.36, alpha1=0.21, T=1.0, n=365)
        want = 0.36 ** 2 / (2 * 0.21) * (1 - math.exp(-2 * 0.21))
        got = variance_lambda(p, 1.0)
        assert got == pytest.approx(want, rel=1e-15)
        assert got == pytest.approx(LAMBDA_ONE_YEAR_SINGLE_FACTOR, abs=1e-15)

    def test_reference_parameter_set(self):
        p = make_params(T=1.0, n=365)
        assert variance_lambda(p, 1.0) == pytest.approx(
            LAMBDA_ONE_YEAR_REFERENCE_SET, abs=1e-15
        )

    def test_recursion_identity(self):
        # One-step covariance recursion reproduces the closed-form variance
        # without sampling.
        p = make_params()
        decay, step_cov = factor_step(p)
        vols = p.vols
        cov = np.zeros((2, 2))
        for k in range(1, p.n + 1):
            cov = cov * np.outer(decay, decay) + step_cov
            lam = float(vols @ cov @ vols)
            assert lam == pytest.approx(
                float(variance_lambda(p, k * p.dt)), abs=1e-12
            )
            np.testing.assert_allclose(
                cov, factor_marginal_covariance(p, k * p.dt), atol=1e-14
            )


class TestSimulation:
    def test_transition_mean(self):
        p = make_params(n=2, T=2 / 365, alpha1=0.21)
        decay, _ = factor_step(p)
        assert decay[0] == pytest.approx(math.exp(-0.21 / 365), rel=1e-15)

    def test_paths_start_at_origin(self):
        p = make_params(n=5)
        paths = simulate_factor_paths(p, 100, seed=1)
        assert paths.shape == (100, 6, 2)
        assert (paths[:, 0, :] == 0).all()

    def test_seed_repetition_bit_identical(self):
        p = make_params(n=10)
        a = simulate_factor_paths(p, 500, seed=123)
        b = simulate_factor_paths(p, 500, seed=123)
        assert (a == b).all()

    def test_sample_variance_matches_closed_form(self):
        p = make_params()
        paths = simulate_factor_paths(p, 100_000, seed=7)
        vols = p.vols
        for k in (1, p.n // 2, p.n):
            g = paths[:, k, :] @ vols
            lam = float(variance_lambda(p, k * p.dt))
            sample = g.var()
            se = lam * math.sqrt(2.0 / len(g))
            assert abs(sample - lam) < 3 * se, (k, sample, lam)

    @pytest.mark.parametrize("antithetic", [False, True])
    def test_factor_states_are_the_paths(self, antithetic):
        p = make_params(n=6)
        # an odd path count cuts the antithetic mirror short
        for n_paths in (301, 300):
            paths = simulate_factor_paths(p, n_paths, seed=5,
                                          antithetic=antithetic)
            states = list(factor_states(p, n_paths, seed=5,
                                        antithetic=antithetic))
            assert len(states) == p.n + 1
            for k, state in enumerate(states):
                assert np.array_equal(state, paths[:, k, :]), k
            # a consumer that stops early reads the same leading states
            early = factor_states(p, n_paths, seed=5, antithetic=antithetic)
            for k, state in zip(range(3), early):
                assert np.array_equal(state, paths[:, k, :]), k

    def test_antithetic_mirrors(self):
        p = make_params(n=4)
        paths = simulate_factor_paths(p, 1000, seed=3, antithetic=True)
        np.testing.assert_array_equal(paths[:500], -paths[500:])

    def test_standardize_pins_moments(self):
        p = make_params(n=6)
        states = factor_states(p, 5000, seed=11)
        next(states)  # date 0, the deterministic start
        for k, state in zip(range(1, 7), states):
            block = standardized_state(p, k, state)
            np.testing.assert_allclose(block.mean(axis=0), 0.0, atol=1e-12)
            cov = block.T @ block / len(block)
            np.testing.assert_allclose(
                cov, factor_marginal_covariance(p, k * p.dt), atol=1e-12
            )

    def test_standardize_product_ignores_the_block(self, monkeypatch):
        p = make_params(n=3)
        # 971 rows would leave one row to a last block of its own
        for n_paths in (1001, 971, 194, 50):
            state = simulate_factor_paths(p, n_paths, seed=4,
                                          antithetic=True)[:, 2]
            want = standardized_state(p, 2, state)
            monkeypatch.setattr(model, "_STANDARDIZE_BLOCK", 97)
            assert np.array_equal(standardized_state(p, 2, state), want)
            monkeypatch.undo()

    def test_axis0_reductions_are_numpys(self):
        # numpy's own axis-0 order, so a numpy that reorders its sums
        # fails here before it moves a pinned tree hash
        rng = np.random.default_rng(12)
        for _ in range(200):
            m = int(rng.integers(1, 30_000))
            a = rng.normal(size=(m, 2)) * rng.uniform(0.01, 3.0, 2)
            a += rng.normal(size=2)
            for v in (a, a[::int(rng.integers(2, 6))]):
                mean = model._axis0_mean(v, np.empty(v.shape))
                assert np.array_equal(mean, np.mean(v, axis=0))
                assert np.array_equal(model._axis0_std(v), np.std(v, axis=0))
        zeros = np.array([[-0.0, 0.0]] * 5)
        mean = model._axis0_mean(zeros, np.empty(zeros.shape))
        assert not np.signbit(mean).any()

    def test_refinement_consistency(self):
        # Marginal law at a common date is the same under n and 2n steps.
        coarse = make_params(n=15, T=30 / 365)
        fine = make_params(n=30, T=30 / 365)
        a = simulate_factor_paths(coarse, 10_000, seed=21)
        b = simulate_factor_paths(fine, 10_000, seed=22)
        va = a[:, 15, :] @ coarse.vols   # t = T
        vb = b[:, 30, :] @ fine.vols
        assert ks_2samp(va, vb).pvalue > 0.01


class TestSpotPayoff:
    def test_origin_values(self):
        p = make_params(forward=20.0, strike=19.0)
        spot, v = spot_and_payoff(p, 0, (0.0, 0.0))
        assert spot == 20.0
        assert v == 1.0

    def test_zero_vol_spot_on_curve(self):
        p = make_params(sigma1=0.0, sigma2=0.0)
        for k in (0, 3, p.n - 1):
            spot, _ = spot_and_payoff(p, k, (0.7, -1.3))
            assert spot == pytest.approx(20.0, rel=1e-15)

    def test_scaled_equals_raw(self):
        p = make_params()
        rng = np.random.default_rng(5)
        y = rng.normal(size=(50, 2))
        z = y * p.vols
        s1, v1 = spot_and_payoff(p, 7, y)
        # the tree's payoffs take the spot of a scaled state this way
        factor = spot_factor(p, 7, z)
        s2, v2 = spot_and_payoff_of_factor(p, 7, factor)
        np.testing.assert_allclose(s1, s2, rtol=1e-15)
        np.testing.assert_allclose(s1, p.forward[7] * factor, rtol=1e-15)
        np.testing.assert_allclose(v1, v2, rtol=1e-15)

    def test_martingale_property(self):
        p = make_params()
        paths = simulate_factor_paths(p, 100_000, seed=9)
        for k in (1, 10, p.n - 1):
            spot, _ = spot_and_payoff(p, k, paths[:, k, :])
            se = spot.std() / math.sqrt(len(spot))
            assert abs(spot.mean() - 20.0) < 3 * se, k


class TestNormCdf:
    def test_half_at_zero(self):
        assert norm_cdf(0.0) == 0.5

    def test_symmetry(self):
        for x in np.linspace(-8.0, 8.0, 1601):
            assert abs(norm_cdf(x) + norm_cdf(-x) - 1.0) <= 4e-16

    def test_matches_scipy(self):
        xs = np.linspace(-8.0, 8.0, 1601)
        got = np.array([norm_cdf(x) for x in xs])
        np.testing.assert_allclose(got, ndtr(xs), rtol=1e-13, atol=0.0)


class TestBlackStrip:
    def test_zero_vol_intrinsic(self):
        p = make_params(sigma1=0.0, sigma2=0.0, forward=20.0, strike=18.0,
                        r=0.05)
        want = sum(
            math.exp(-p.r * k * p.dt) * 2.0 for k in range(p.n)
        )
        assert closed_form_strip(p) == pytest.approx(want, rel=1e-12)

    def test_zero_strike_forwards(self):
        p = make_params(strike=0.0, r=0.03)
        want = sum(math.exp(-p.r * k * p.dt) * 20.0 for k in range(p.n))
        assert closed_form_strip(p) == pytest.approx(want, rel=1e-12)

    def test_monte_carlo_agreement(self):
        p = make_params()
        paths = simulate_factor_paths(p, 1_000_000, seed=31)
        total = np.zeros(len(paths))
        for k in range(p.n):
            _, v = spot_and_payoff(p, k, paths[:, k, :])
            total += np.maximum(v, 0.0)
        mc = total.mean()
        se = total.std() / math.sqrt(len(total))
        assert abs(mc - closed_form_strip(p)) < 3 * se

    def test_vega_positive(self):
        base = make_params(rho=0.2)
        v0 = closed_form_strip(base)
        assert closed_form_strip(make_params(rho=0.2, sigma1=0.37)) > v0
        assert closed_form_strip(make_params(rho=0.2, sigma2=1.12)) > v0

    def test_black_call_edges(self):
        assert black_call(20.0, 0.0, 0.5) == 20.0
        assert black_call(20.0, 18.0, 0.0) == 2.0
        with pytest.raises(ValueError):
            black_call(-1.0, 5.0, 0.1)


class TestConfig:
    DOC = {
        "alpha1": 0.21, "alpha2": 5.4, "sigma1": 0.36, "sigma2": 1.11,
        "rho": -0.11, "r": 0.0, "T": 30 / 365, "n": 3,
        "forward": 20.0, "strike": 20.0,
    }

    def test_flat_scalars(self):
        p = params_from_dict(self.DOC)
        assert p.n == 3
        np.testing.assert_array_equal(p.forward, [20.0, 20.0, 20.0])

    def test_csv_curves(self, tmp_path):
        (tmp_path / "fwd.csv").write_text("21.0\n22.0\n23.0\n")
        doc = dict(self.DOC, forward="fwd.csv")
        p = params_from_dict(doc, base_dir=tmp_path)
        np.testing.assert_array_equal(p.forward, [21.0, 22.0, 23.0])

    def test_wrong_length_curve(self, tmp_path):
        (tmp_path / "fwd.csv").write_text("21.0\n22.0\n")
        with pytest.raises(ValueError):
            params_from_dict(dict(self.DOC, forward="fwd.csv"),
                             base_dir=tmp_path)

    def test_missing_field(self):
        doc = dict(self.DOC)
        del doc["rho"]
        with pytest.raises(KeyError):
            params_from_dict(doc)

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            params_from_dict(dict(self.DOC, alpha1=-1.0))
        with pytest.raises(ValueError):
            params_from_dict(dict(self.DOC, rho=-2.0))
        with pytest.raises(ValueError):
            params_from_dict(dict(self.DOC, forward=0.0))
