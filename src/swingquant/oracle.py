"""Reference pricers on small scenario lattices.

These are the slow, transparent implementations used to validate the
quantized pricing engine: a closed-form two-period solver, a depth-first
exhaustive search over adapted 0/1 purchase strategies, an integer-pair
backward induction, and a fine-grid continuous-action induction.  They
share nothing with the production DP beyond the elementary constraint
helpers, so agreement between the two routes is meaningful.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contracts import (
    GlobalConstraints,
    admissible_interval,
    advance_constraints,
    reachable_set,
)

__all__ = [
    "LatticeTooLargeError",
    "TwoPeriodInstance",
    "ScenarioLattice",
    "price_two_period",
    "price_lattice_bruteforce",
    "price_lattice_dp",
    "price_lattice_dp_fine",
    "MAX_BRUTEFORCE_HISTORIES",
]

# Total history-node budget for the exhaustive strategy search.
MAX_BRUTEFORCE_HISTORIES = 100_000

_PROB_TOL = 1e-9


class LatticeTooLargeError(ValueError):
    """The instance exceeds the exhaustive-enumeration budget."""


@dataclass(frozen=True)
class TwoPeriodInstance:
    """A two-date problem: known payoff now, finite payoff law next date."""

    v0: float
    v1: tuple[tuple[float, float], ...]  # (value, probability) atoms

    def __post_init__(self) -> None:
        atoms = tuple((float(v), float(p)) for v, p in self.v1)
        object.__setattr__(self, "v1", atoms)
        total = sum(p for _, p in atoms)
        if abs(total - 1.0) > _PROB_TOL:
            raise ValueError(f"v1 probabilities sum to {total}, expected 1")
        if any(p < 0 for _, p in atoms):
            raise ValueError("negative probability")

    @property
    def mean_positive_part(self) -> float:
        return sum(max(v, 0.0) * p for v, p in self.v1)

    @property
    def mean_negative_part(self) -> float:
        return sum(max(-v, 0.0) * p for v, p in self.v1)


class ScenarioLattice:
    """A layered scenario DAG with one payoff per node.

    ``payoffs[k]`` holds the payoff of each node at date ``k`` and
    ``transitions[k]`` the row-stochastic matrix from date ``k`` nodes to
    date ``k+1`` nodes.  Date 0 has a single root node.  Intended for small
    test instances; the exhaustive pricer additionally guards its own
    enumeration budget.
    """

    def __init__(self, payoffs, transitions):
        self.payoffs = [np.asarray(v, dtype=float).reshape(-1) for v in payoffs]
        self.transitions = [np.asarray(t, dtype=float) for t in transitions]
        n = len(self.payoffs)
        if n < 1:
            raise ValueError("lattice needs at least one level")
        if self.payoffs[0].size != 1:
            raise ValueError("level 0 must hold exactly the root node")
        if len(self.transitions) != n - 1:
            raise ValueError(
                f"expected {n - 1} transition matrices, got {len(self.transitions)}"
            )
        for k, t in enumerate(self.transitions):
            want = (self.payoffs[k].size, self.payoffs[k + 1].size)
            if t.shape != want:
                raise ValueError(f"transition {k} has shape {t.shape}, want {want}")
            rows = t.sum(axis=1)
            if np.any(t < -_PROB_TOL) or np.any(np.abs(rows - 1.0) > _PROB_TOL):
                raise ValueError(f"transition {k} is not row-stochastic")
        for k, v in enumerate(self.payoffs):
            if not np.all(np.isfinite(v)):
                raise ValueError(f"non-finite payoff at level {k}")

    @property
    def n(self) -> int:
        return len(self.payoffs)

    def width(self, k: int) -> int:
        return self.payoffs[k].size

    def history_count(self) -> int:
        total, level = 0, 1
        for k in range(self.n):
            level *= self.width(k)
            total += level
        return total

    # -- marginal expectations used by the corner identities ---------------

    def level_weights(self) -> list[np.ndarray]:
        w = [np.ones(1)]
        for t in self.transitions:
            w.append(w[-1] @ t)
        return w

    def expected_sum(self) -> float:
        return float(sum(w @ v for w, v in zip(self.level_weights(), self.payoffs)))

    def expected_sum_positive(self) -> float:
        return float(
            sum(w @ np.maximum(v, 0.0)
                for w, v in zip(self.level_weights(), self.payoffs))
        )


def price_two_period(
    inst: TwoPeriodInstance, q: GlobalConstraints
) -> tuple[float, float]:
    """Price a two-date contract and return ``(price, first_purchase)``.

    The date-0 objective
    ``x*v0 + min(1, q_hi - x)*E(v1^+) - max(q_lo - x, 0)*E(v1^-)``
    is piecewise affine on the admissible interval, so it is maximised over
    the breakpoint candidates (interval endpoints, ``q_lo`` and
    ``q_hi - 1``).  Ties resolve to the smallest maximiser.
    """
    if q.q_hi > 2.0:
        raise ValueError("two-period constraints live in the 2-date simplex")
    lo, hi = admissible_interval(q, 1)
    ep = inst.mean_positive_part
    en = inst.mean_negative_part

    candidates = {lo, hi}
    for b in (q.q_lo, q.q_hi - 1.0):
        if lo < b < hi:
            candidates.add(b)

    def objective(x: float) -> float:
        return (
            x * inst.v0
            + min(1.0, q.q_hi - x) * ep
            - max(q.q_lo - x, 0.0) * en
        )

    xs = sorted(candidates)
    vals = [objective(x) for x in xs]
    best = max(vals)
    tol = 1e-12 * (1.0 + abs(best))
    q0_star = next(x for x, v in zip(xs, vals) if v >= best - tol)
    return best, q0_star


def _assert_integer(q: GlobalConstraints) -> tuple[int, int]:
    if not q.is_integer:
        raise ValueError(f"integer global constraints required, got {q.as_tuple()}")
    return int(q.q_lo), int(q.q_hi)


def price_lattice_bruteforce(lat: ScenarioLattice, q: GlobalConstraints) -> float:
    """Exhaustive search over adapted 0/1 purchase strategies.

    Walks the full history tree depth-first, trying every feasible 0/1
    purchase at every (history, purchases-so-far) decision point; the count
    of purchases made so far is a sufficient statistic for feasibility.
    Raises :class:`LatticeTooLargeError` beyond the enumeration budget.
    """
    q_lo, q_hi = _assert_integer(q)
    n = lat.n
    if q_hi > n:
        raise ValueError(f"cap {q_hi} exceeds the {n}-date lattice")
    if lat.history_count() > MAX_BRUTEFORCE_HISTORIES:
        raise LatticeTooLargeError(
            f"{lat.history_count()} histories exceed the budget of "
            f"{MAX_BRUTEFORCE_HISTORIES}"
        )

    def search(k: int, node: int, bought: int) -> float:
        if k == n:
            return 0.0
        rem = n - k - 1
        v = float(lat.payoffs[k][node])
        best = None
        for action in (0, 1):
            total = bought + action
            if total > q_hi or total + rem < q_lo:
                continue
            if k == n - 1:
                value = action * v
            else:
                row = lat.transitions[k][node]
                cont = sum(
                    p * search(k + 1, child, total)
                    for child, p in enumerate(row)
                    if p > 0.0
                )
                value = action * v + cont
            if best is None or value > best:
                best = value
        assert best is not None, "no feasible action from a feasible state"
        return best

    return search(0, 0, 0)


def price_lattice_dp(lat: ScenarioLattice, q0: GlobalConstraints) -> float:
    """Backward induction over reachable integer constraint pairs.

    Exact on the lattice; agrees with :func:`price_lattice_bruteforce`
    wherever the latter can run, and scales to hundreds of dates.
    """
    q_lo, q_hi = _assert_integer(q0)
    n = lat.n
    if q_hi > n:
        raise ValueError(f"cap {q_hi} exceeds the {n}-date lattice")

    layer: dict[tuple[float, float], np.ndarray] = {}
    for k in range(n - 1, -1, -1):
        rem = n - k - 1
        new_layer: dict[tuple[float, float], np.ndarray] = {}
        v = lat.payoffs[k]
        for r in reachable_set(q0, k, n):
            lo, hi = admissible_interval(r, rem)
            best = None
            for x in {lo, hi}:
                nxt = advance_constraints(r, x, rem)
                if k == n - 1:
                    cont = 0.0
                else:
                    cont = lat.transitions[k] @ layer[nxt.as_tuple()]
                cand = x * v + cont
                best = cand if best is None else np.maximum(best, cand)
            new_layer[r.as_tuple()] = best
        layer = new_layer
    return float(layer[(float(q_lo), float(q_hi))][0])


def price_lattice_dp_fine(
    lat: ScenarioLattice, q0: GlobalConstraints, steps_per_unit: int = 64
) -> float:
    """Continuous-action backward induction on a 1/``steps_per_unit`` grid.

    Both residual bounds decrease by the same cumulated purchase, so the
    residual state is fully described by the cumulated purchase, which
    stays on the action grid.  With a power-of-two step all breakpoints of
    the piecewise-affine objectives lie on the grid, so this induction is
    exact for constraints on the grid.
    """
    s = int(steps_per_unit)
    n = lat.n
    lo_s = round(q0.q_lo * s)
    hi_s = round(q0.q_hi * s)
    if abs(lo_s - q0.q_lo * s) > 1e-9 or abs(hi_s - q0.q_hi * s) > 1e-9:
        raise ValueError(
            f"constraints {q0.as_tuple()} not on the 1/{s} action grid"
        )
    if hi_s > n * s:
        raise ValueError(f"cap {q0.q_hi} exceeds the {n}-date lattice")

    neg = -np.inf
    # value[node, li] for cumulated purchase li/s at the current date; the
    # admissible interval already enforces terminal feasibility, so the
    # date-(n-1) continuation is plain zero.
    value = np.zeros((lat.width(n - 1), n * s + 1))

    for k in range(n - 1, -1, -1):
        m = lat.width(k)
        li = np.arange(k * s + 1)
        res_lo = np.maximum(lo_s - li, 0)
        res_hi = np.minimum(hi_s - li, (n - k) * s)
        x_lo = np.minimum(np.maximum(res_lo - (n - k - 1) * s, 0), s)
        x_hi = np.minimum(res_hi, s)
        alive = res_hi >= 0

        if k == n - 1:
            cont = value  # zero continuation past the last date
        else:
            cont = lat.transitions[k] @ value
        v = lat.payoffs[k]
        new_value = np.full((m, k * s + 1), neg)
        for xs in range(s + 1):
            ok = alive & (x_lo <= xs) & (xs <= x_hi)
            if not ok.any():
                continue
            cand = (xs / s) * v[:, None] + cont[:, li + xs]
            np.maximum(
                new_value, np.where(ok[None, :], cand, neg), out=new_value
            )
        value = new_value
    result = value[0, 0]
    assert np.isfinite(result), "root state infeasible"
    return float(result)
