"""Reference-pricer tests: two-period solver, brute force, lattice DPs."""
import numpy as np
import pytest

from helpers import deterministic_lattice, integer_pairs, random_lattice
from swingquant.contracts import GlobalConstraints
from swingquant.oracle import (
    LatticeTooLargeError,
    ScenarioLattice,
    TwoPeriodInstance,
    price_lattice_bruteforce,
    price_lattice_dp,
    price_lattice_dp_fine,
    price_two_period,
)


def gc(lo, hi):
    return GlobalConstraints(lo, hi)


class TestTwoPeriod:
    def test_deterministic_upside(self):
        inst = TwoPeriodInstance(v0=1.0, v1=((2.0, 1.0),))
        price, q0 = price_two_period(inst, gc(1, 2))
        assert price == pytest.approx(3.0, abs=1e-15)
        assert q0 == 1.0

    def test_symmetric_coin(self):
        # objective 1.5 - 0.5x on [0, 1]; maximum at the left endpoint
        inst = TwoPeriodInstance(v0=1.0, v1=((3.0, 0.5), (-3.0, 0.5)))
        price, q0 = price_two_period(inst, gc(0, 1))
        assert price == pytest.approx(1.5, abs=1e-15)
        assert q0 == 0.0

    def test_saturated(self):
        inst = TwoPeriodInstance(v0=1.0, v1=((2.0, 0.5), (-2.0, 0.5)))
        price, q0 = price_two_period(inst, gc(2, 2))
        assert price == pytest.approx(1.0, abs=1e-15)
        assert q0 == 1.0

    def test_min_argmax_on_flat_objective(self):
        # v0 == E(v1+) makes the objective flat beyond the floor
        inst = TwoPeriodInstance(v0=1.0, v1=((2.0, 0.5), (-2.0, 0.5)))
        price, q0 = price_two_period(inst, gc(0.0, 1.0))
        assert price == pytest.approx(1.0, abs=1e-15)
        assert q0 == 0.0

    def test_matches_lattice_dp_on_random_instances(self):
        rng = np.random.default_rng(314159)
        for _ in range(100):
            atoms = int(rng.integers(1, 4))
            probs = rng.dirichlet(np.ones(atoms))
            values = rng.uniform(-2, 2, size=atoms)
            inst = TwoPeriodInstance(
                v0=float(rng.uniform(-2, 2)),
                v1=tuple(zip(values.tolist(), probs.tolist())),
            )
            lat = ScenarioLattice(
                [[inst.v0], values],
                [probs.reshape(1, -1)],
            )
            lo = int(rng.integers(0, 3))
            hi = int(rng.integers(lo, 3))
            want = price_lattice_dp(lat, gc(lo, hi))
            got, _ = price_two_period(inst, gc(lo, hi))
            assert got == pytest.approx(want, abs=1e-12)


class TestBruteforce:
    def test_pick_best_two(self):
        lat = deterministic_lattice([3.0, -1.0, 2.0])
        assert price_lattice_bruteforce(lat, gc(2, 2)) == pytest.approx(5.0)

    def test_pick_positives(self):
        lat = deterministic_lattice([3.0, -1.0, 2.0])
        assert price_lattice_bruteforce(lat, gc(0, 3)) == pytest.approx(5.0)

    def test_forced_all(self):
        lat = deterministic_lattice([3.0, -1.0, 2.0])
        assert price_lattice_bruteforce(lat, gc(3, 3)) == pytest.approx(4.0)

    def test_size_guard(self):
        rng = np.random.default_rng(7)
        lat = random_lattice(rng, n=12, max_branch=3)
        if lat.history_count() > 100_000:
            with pytest.raises(LatticeTooLargeError):
                price_lattice_bruteforce(lat, gc(0, 3))
        else:  # regenerate wide enough to trip the guard
            widths = [1] + [3] * 11
            payoffs = [np.zeros(w) for w in widths]
            transitions = [
                np.full((widths[k], widths[k + 1]), 1.0 / widths[k + 1])
                for k in range(11)
            ]
            wide = ScenarioLattice(payoffs, transitions)
            with pytest.raises(LatticeTooLargeError):
                price_lattice_bruteforce(wide, gc(0, 3))


class TestLatticeDP:
    def test_deterministic_example(self):
        lat = deterministic_lattice([3.0, -1.0, 2.0])
        assert price_lattice_dp(lat, gc(2, 2)) == pytest.approx(5.0)

    def test_equals_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(20260809)
        for _ in range(200):
            lat = random_lattice(rng, n=int(rng.integers(1, 5)), max_branch=3)
            n = lat.n
            hi = int(rng.integers(0, n + 1))
            lo = int(rng.integers(0, hi + 1))
            a = price_lattice_dp(lat, gc(lo, hi))
            b = price_lattice_bruteforce(lat, gc(lo, hi))
            assert abs(a - b) <= 1e-12, (lo, hi, n)

    def test_strip_corner(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            lat = random_lattice(rng, n=int(rng.integers(1, 5)))
            n = lat.n
            assert price_lattice_dp(lat, gc(0, n)) == pytest.approx(
                lat.expected_sum_positive(), abs=1e-12
            )

    def test_corner_identities(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            lat = random_lattice(rng)
            n = lat.n
            assert price_lattice_dp(lat, gc(0, 0)) == 0.0
            assert price_lattice_dp(lat, gc(n, n)) == pytest.approx(
                lat.expected_sum(), abs=1e-12
            )

    def test_monotonicity_in_constraints(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            lat = random_lattice(rng)
            n = lat.n
            p = {ij: price_lattice_dp(lat, gc(*ij)) for ij in integer_pairs(n)}
            for (i, j) in integer_pairs(n):
                if (i + 1, j) in p:  # non-increasing in the floor
                    assert p[(i + 1, j)] <= p[(i, j)] + 1e-12
                if (i, j + 1) in p:  # non-decreasing in the cap
                    assert p[(i, j + 1)] >= p[(i, j)] - 1e-12

    def test_discrete_concavity(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            lat = random_lattice(rng)
            n = lat.n
            p = {ij: price_lattice_dp(lat, gc(*ij)) for ij in integer_pairs(n)}
            pairs = set(p)
            for (i, j) in pairs:
                for di in range(-n, n + 1):
                    for dj in range(-n, n + 1):
                        if (di, dj) == (0, 0):
                            continue
                        a = (i - di, j - dj)
                        c = (i + di, j + dj)
                        if a in pairs and c in pairs:
                            assert p[(i, j)] >= (p[a] + p[c]) / 2 - 1e-12

    def test_nonnegative_payoffs_collapse(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            lat = random_lattice(rng)
            lat = ScenarioLattice(
                [np.abs(v) for v in lat.payoffs], lat.transitions
            )
            n = lat.n
            for (i, j) in integer_pairs(n):
                pij = price_lattice_dp(lat, gc(i, j))
                assert pij == pytest.approx(
                    price_lattice_dp(lat, gc(0, j)), abs=1e-12
                )
                assert pij == pytest.approx(
                    price_lattice_dp(lat, gc(j, j)), abs=1e-12
                )


class TestFineGridDP:
    def test_matches_integer_dp_at_integer_constraints(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            lat = random_lattice(rng)
            n = lat.n
            hi = int(rng.integers(0, n + 1))
            lo = int(rng.integers(0, hi + 1))
            a = price_lattice_dp_fine(lat, gc(lo, hi))
            b = price_lattice_dp(lat, gc(lo, hi))
            assert a == pytest.approx(b, abs=1e-12)

    def test_rejects_off_grid_constraints(self):
        lat = deterministic_lattice([1.0, 2.0])
        with pytest.raises(ValueError):
            price_lattice_dp_fine(lat, gc(0.0, 1.0 / 3.0))


class TestScenarioLattice:
    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValueError, match="row-stochastic"):
            ScenarioLattice([[1.0], [0.0, 2.0]], [[[0.6, 0.6]]])
