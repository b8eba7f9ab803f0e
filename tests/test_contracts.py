"""Constraint arithmetic, tiling and interpolation tests."""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swingquant.contracts import (
    TOL,
    ConstraintViolationError,
    GlobalConstraints,
    InfeasibleContractError,
    PremiumSurface,
    RawContract,
    SurfaceIncompleteError,
    admissible_interval,
    advance_constraints,
    integer_vertices,
    interpolate_on_tile,
    locate_tile,
    normalize_contract,
    reachable_count,
    reachable_set,
)


def gc(lo, hi):
    return GlobalConstraints(lo, hi)


def upper(i, j):
    """Corners of the upper triangle of the unit box at ``(i, j)``."""
    return ((i, j), (i, j + 1), (i + 1, j + 1))


def lower(i, j):
    """Corners of the lower triangle of the unit box at ``(i, j)``."""
    return ((i, j), (i + 1, j), (i + 1, j + 1))


def tile_contains(corners, u, v, tol=TOL):
    """Whether the closed triangle with ``corners`` holds ``(u, v)``, up to
    ``tol``."""
    (i, j) = corners[0]
    if not (i - tol <= u <= i + 1 + tol and j - tol <= v <= j + 1 + tol):
        return False
    d = v - u - (j - i)
    return d >= -tol if corners == upper(i, j) else d <= tol


class TestGlobalConstraints:
    def test_ordering_enforced(self):
        with pytest.raises(ConstraintViolationError):
            gc(2.0, 1.0)
        with pytest.raises(ConstraintViolationError):
            gc(-0.5, 1.0)

    def test_integer_detection(self):
        assert gc(1.0, 3.0).is_integer
        assert not gc(0.5, 3.0).is_integer


class TestNormalizeContract:
    def test_basic_split(self):
        c = RawContract(n=2, q_min=1, q_max=3, Q_min=3, Q_max=5, r=0.0,
                        strikes=(20.0, 20.0))
        swap_w, swing_w, q = normalize_contract(c)
        assert swap_w == 1.0
        assert swing_w == 2.0
        assert q.as_tuple() == (0.5, 1.5)

    def test_identity_case(self):
        c = RawContract(n=2, q_min=0, q_max=1, Q_min=1, Q_max=2, r=0.0,
                        strikes=(20.0, 20.0))
        swap_w, swing_w, q = normalize_contract(c)
        assert swap_w == 0.0
        assert swing_w == 1.0
        assert q.as_tuple() == (1.0, 2.0)

    def test_pure_swap(self):
        c = RawContract(n=3, q_min=2, q_max=2, Q_min=6, Q_max=6, r=0.0,
                        strikes=(20.0, 20.0, 20.0))
        swap_w, swing_w, _ = normalize_contract(c)
        assert swap_w == 2.0
        assert swing_w == 0.0

    def test_infeasible_floor(self):
        c = RawContract(n=2, q_min=0, q_max=1, Q_min=3, Q_max=4, r=0.0,
                        strikes=(20.0, 20.0))
        with pytest.raises(InfeasibleContractError):
            normalize_contract(c)

    def test_infeasible_cap_at_construction(self):
        with pytest.raises(InfeasibleContractError):
            RawContract(n=3, q_min=2, q_max=3, Q_min=0, Q_max=5, r=0.0,
                        strikes=(20.0, 20.0, 20.0))

    def test_cap_clamped_to_horizon(self):
        c = RawContract(n=2, q_min=0, q_max=1, Q_min=0, Q_max=9, r=0.0,
                        strikes=(20.0, 20.0))
        _, _, q = normalize_contract(c)
        assert q.q_hi == 2.0


class TestAdvanceConstraints:
    def test_formula(self):
        assert advance_constraints(gc(2, 4), 1.0, 3).as_tuple() == (1.0, 3.0)

    def test_zero_purchase(self):
        assert advance_constraints(gc(0, 3), 0.0, 2).as_tuple() == (0.0, 2.0)

    def test_floor_clamps_at_zero(self):
        assert advance_constraints(gc(1, 2), 1.0, 5).as_tuple() == (0.0, 1.0)

    def test_rejects_inadmissible_purchase(self):
        # floor 2 with 1 remaining date forces x >= 1
        with pytest.raises(ConstraintViolationError):
            advance_constraints(gc(2, 2), 0.0, 1)


class TestAdmissibleInterval:
    def test_plain(self):
        assert admissible_interval(gc(1, 2), 2) == (0.0, 1.0)

    def test_forced_floor(self):
        assert admissible_interval(gc(1.5, 1.8), 1) == (0.5, 1.0)

    def test_terminal(self):
        assert admissible_interval(gc(0.3, 0.7), 0) == (0.3, 0.7)

    def test_endpoints_binary_for_integer_constraints(self):
        # For integer pairs valid at a date with M remaining future dates,
        # the interval is one of {0}, {1}, [0, 1].
        for n in range(1, 11):
            for m in range(n):
                for hi in range(0, n - m + 1):
                    for lo in range(0, hi + 1):
                        interval = admissible_interval(gc(lo, hi), m)
                        assert interval in ((0.0, 0.0), (1.0, 1.0), (0.0, 1.0))


class TestIntegerClosure:
    def test_binary_purchases_stay_integer(self):
        # Integer pairs step to integer pairs one horizon shorter under
        # admissible 0/1 purchases; exhaustive over n <= 10.
        for n in range(1, 11):
            for k in range(n):
                cap = n - k
                for hi in range(0, cap + 1):
                    for lo in range(0, hi + 1):
                        q = gc(lo, hi)
                        a, b = admissible_interval(q, cap - 1)
                        for x in (0.0, 1.0):
                            if a <= x <= b:
                                nxt = advance_constraints(q, x, cap - 1)
                                assert nxt.is_integer
                                assert nxt.q_hi <= cap - 1


class TestLocateTile:
    def test_examples(self):
        assert locate_tile(gc(0.2, 0.9), 2) == upper(0, 0)
        assert locate_tile(gc(0.5, 1.2), 2) == lower(0, 1)
        assert locate_tile(gc(1.2, 1.5), 2) == upper(1, 1)

    def test_integer_points_pick_smallest_indices(self):
        assert locate_tile(gc(1, 1), 2) == upper(0, 0)
        assert locate_tile(gc(2, 2), 2) == upper(1, 1)
        assert locate_tile(gc(0, 0), 2) == upper(0, 0)

    def test_cap_clamped(self):
        assert locate_tile(gc(1.5, 7.0), 2) == upper(1, 1)

    def test_outside_rejected(self):
        with pytest.raises(ConstraintViolationError):
            locate_tile(gc(2.5, 3.0), 2)

    @given(
        n=st.integers(min_value=1, max_value=6),
        a=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        b=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_located_tile_contains_point(self, n, a, b):
        u = a * n
        v = u + b * (n - u)
        corners = locate_tile(gc(u, v), n)
        (i, j) = corners[0]
        assert corners in (upper(i, j), lower(i, j))
        assert tile_contains(corners, u, v)
        assert 0 <= i <= j <= n - 1
        assert i < j or corners == upper(i, j)


class TestReachableSet:
    def test_examples(self):
        assert [r.as_tuple() for r in reachable_set(gc(1, 2), 1, 3)] == [
            (1.0, 2.0), (0.0, 1.0)]
        assert [r.as_tuple() for r in reachable_set(gc(1, 2), 2, 3)] == [
            (1.0, 1.0), (0.0, 1.0), (0.0, 0.0)]
        assert [r.as_tuple() for r in reachable_set(gc(0, 0), 3, 5)] == [(0.0, 0.0)]

    def test_non_integer_rejected(self):
        with pytest.raises(ConstraintViolationError):
            reachable_set(gc(0.5, 1.0), 1, 3)

    def test_forced_start(self):
        # Floor equal to the horizon: the only reachable pair tracks it.
        assert [r.as_tuple() for r in reachable_set(gc(5, 5), 2, 5)] == [(3.0, 3.0)]

    def test_count_matches_enumeration_exhaustively(self):
        for n in range(1, 13):
            for hi in range(0, n + 1):
                for lo in range(0, hi + 1):
                    q0 = gc(lo, hi)
                    for k in range(0, n + 1):
                        assert reachable_count(q0, k, n) == len(
                            reachable_set(q0, k, n)
                        ), (lo, hi, k, n)

    def test_step_closure(self):
        # Advancing any reachable pair by an admissible 0/1 purchase lands
        # in the next reachable set; exhaustive over n <= 12.
        for n in range(1, 13):
            for hi in range(0, n + 1):
                for lo in range(0, hi + 1):
                    q0 = gc(lo, hi)
                    for k in range(0, n):
                        nxt = {r.as_tuple() for r in reachable_set(q0, k + 1, n)}
                        for q in reachable_set(q0, k, n):
                            a, b = admissible_interval(q, n - k - 1)
                            for x in (0.0, 1.0):
                                if a <= x <= b:
                                    stepped = advance_constraints(q, x, n - k - 1)
                                    assert stepped.as_tuple() in nxt


def affine_surface(n, alpha, beta, const):
    return PremiumSurface(
        n=n,
        values={(i, j): alpha * i + beta * j + const for (i, j) in integer_vertices(n)},
    )


class TestInterpolation:
    def test_barycentric_example(self):
        surf = PremiumSurface(n=1, values={(0, 0): 0.0, (0, 1): 4.0, (1, 1): 2.0})
        assert interpolate_on_tile(surf, gc(0.25, 0.75)) == pytest.approx(2.5, abs=1e-15)

    def test_vertex_exactness(self):
        surf = PremiumSurface(n=1, values={(0, 0): 0.0, (0, 1): 4.0, (1, 1): 2.0})
        assert interpolate_on_tile(surf, gc(0.0, 1.0)) == 4.0

    def test_edge_continuity(self):
        # Value on a shared edge agrees with the limit from both tiles.
        surf = PremiumSurface(
            n=2,
            values={v: math.sin(3.0 * v[0]) + math.cos(2.0 * v[1])
                    for v in integer_vertices(2)},
        )
        for t in (0.0, 0.25, 0.5, 0.75, 1.0):
            # edge between T+(0,1) and T-(0,1): v = u + 1
            u = t
            below = interpolate_on_tile(surf, gc(u, u + 1 - 1e-9))
            above = interpolate_on_tile(surf, gc(u, u + 1 + 1e-9))
            on = interpolate_on_tile(surf, gc(u, u + 1))
            assert abs(below - on) < 1e-7
            assert abs(above - on) < 1e-7

    def test_missing_vertex(self):
        surf = PremiumSurface(n=1, values={(0, 0): 0.0, (1, 1): 2.0})
        with pytest.raises(SurfaceIncompleteError):
            interpolate_on_tile(surf, gc(0.25, 0.75))

    @given(
        n=st.integers(min_value=1, max_value=5),
        alpha=st.floats(-5, 5),
        beta=st.floats(-5, 5),
        const=st.floats(-5, 5),
        a=st.floats(0.0, 1.0),
        b=st.floats(0.0, 1.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_reproduces_affine_functions(self, n, alpha, beta, const, a, b):
        surf = affine_surface(n, alpha, beta, const)
        u = a * n
        v = u + b * (n - u)
        got = interpolate_on_tile(surf, gc(u, v))
        want = alpha * u + beta * v + const
        assert got == pytest.approx(want, abs=1e-9 * (1 + abs(want)))

    def test_bits_match_the_per_orientation_formulas(self):
        # Exact equality, sign included, with the two triangles' formulas
        # written out: random surfaces, integer coordinates (the tie rule),
        # caps above n (the clamp) and both triangles.
        rng = random.Random(20070503)
        seen = set()
        for n in (1, 2, 3, 5, 11, 30):
            surf = PremiumSurface(n=n, values={
                v: rng.uniform(-1.0, 1.0) for v in integer_vertices(n)})
            for _ in range(400):
                u = rng.choice([rng.uniform(0.0, n), float(rng.randint(0, n))])
                v = rng.choice([rng.uniform(u, n), float(rng.randint(math.ceil(u), n)),
                                n + rng.uniform(0.0, 3.0), float(n + rng.randint(1, 3))])
                got = interpolate_on_tile(surf, gc(u, v))
                corners = locate_tile(gc(u, v), n)
                (i, j) = corners[0]
                fa, fb, fc = (surf.values[c] for c in corners)
                du = min(u, float(n)) - i
                dv = min(v, float(n)) - j
                if corners == upper(i, j):
                    want = fa + dv * (fb - fa) + du * (fc - fb)
                else:
                    want = fa + du * (fb - fa) + dv * (fc - fb)
                seen.add(corners == upper(i, j))
                assert got == want, (n, u, v)
                assert math.copysign(1.0, got) == math.copysign(1.0, want)
        assert seen == {True, False}
