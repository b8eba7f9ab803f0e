"""Reference values computed apart from the program.

Nothing here imports ``swingquant``: the call strip, the swap leg and the
tile interpolation are written out again from their definitions so that
the benchmark's output checks do not share code with what they check.
"""
from __future__ import annotations

import math

import numpy as np


def log_variance(model: dict, t: float) -> float:
    """Var(sigma1*X1_t + sigma2*X2_t) for two OU factors started at 0."""
    a1, a2 = model["alpha1"], model["alpha2"]
    s1, s2, rho = model["sigma1"], model["sigma2"], model["rho"]
    return (s1 * s1 * (1.0 - math.exp(-2.0 * a1 * t)) / (2.0 * a1)
            + s2 * s2 * (1.0 - math.exp(-2.0 * a2 * t)) / (2.0 * a2)
            + 2.0 * rho * s1 * s2 * (1.0 - math.exp(-(a1 + a2) * t)) / (a1 + a2))


def _phi(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def black_call(forward: float, strike: float, variance: float) -> float:
    """Undiscounted call on a lognormal forward with total log-variance."""
    if variance <= 0.0 or strike <= 0.0:
        return max(forward - strike, 0.0)
    sd = math.sqrt(variance)
    d1 = math.log(forward / strike) / sd + 0.5 * sd
    return forward * _phi(d1) - strike * _phi(d1 - sd)


def call_strip(model: dict, forward, strike: float, T: float, r: float) -> float:
    """Premium of the fully flexible contract (0, n): one call per date."""
    n = len(forward)
    total = 0.0
    for k, f in enumerate(forward):
        t = k * T / n
        total += math.exp(-r * t) * black_call(f, strike, log_variance(model, t))
    return total


def swap_value(forward, strike: float, T: float, r: float) -> float:
    """Premium of the forced contract (n, n): buy on every date."""
    n = len(forward)
    return sum(math.exp(-r * k * T / n) * (f - strike)
               for k, f in enumerate(forward))


def read_surface(path) -> np.ndarray:
    """``P[i, j]`` from a ``Q_min,Q_max,price`` CSV; NaN off the set i <= j."""
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n = int(rows[:, 1].max())
    grid = np.full((n + 1, n + 1), np.nan)
    grid[rows[:, 0].astype(int), rows[:, 1].astype(int)] = rows[:, 2]
    return grid


def tile_value(grid: np.ndarray, u: float, v: float) -> float:
    """Barycentric interpolation on the unit-triangle tiling of {u <= v}.

    The box [i, i+1] x [j, j+1] splits along v - u = j - i; above the
    diagonal the corners are (i, j), (i, j+1), (i+1, j+1), below it
    (i, j), (i+1, j), (i+1, j+1).
    """
    n = grid.shape[0] - 1
    i = min(int(math.floor(u)), n - 1)
    j = min(int(math.floor(v)), n - 1)
    du, dv = u - i, v - j
    p = grid
    if dv >= du:
        return p[i, j] + dv * (p[i, j + 1] - p[i, j]) + du * (p[i + 1, j + 1] - p[i, j + 1])
    return p[i, j] + du * (p[i + 1, j] - p[i, j]) + dv * (p[i + 1, j + 1] - p[i + 1, j])


def shape_violations(grid: np.ndarray, slack: float) -> int:
    """Breaches of monotonicity and concavity along the lattice directions.

    The premium falls as the floor rises (direction (1, 0)), rises with the
    cap (direction (0, 1)), and is concave along (1, 0), (0, 1) and (1, 1).
    Pairs and triples that leave the set i <= j compare NaN and are skipped.
    """
    p = grid
    with np.errstate(invalid="ignore"):
        bad = np.count_nonzero(p[1:, :] > p[:-1, :] + slack)
        bad += np.count_nonzero(p[:, 1:] < p[:, :-1] - slack)
        for second in (p[2:, :] - 2 * p[1:-1, :] + p[:-2, :],
                       p[:, 2:] - 2 * p[:, 1:-1] + p[:, :-2],
                       p[2:, 2:] - 2 * p[1:-1, 1:-1] + p[:-2, :-2]):
            bad += np.count_nonzero(second > slack)
    return int(bad)
