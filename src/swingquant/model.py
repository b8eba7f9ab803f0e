"""Two-factor Gaussian forward/spot model.

The spot is a deterministic forward curve times the exponential of two
correlated mean-reverting Gaussian factors, compensated so the spot mean
stays on the curve.  Factor transitions are sampled exactly (no time
discretisation error) and payoffs are discounted to time zero at source,
so downstream dynamic programming never touches discount factors.

A strip of calls on the spot has a closed form (one Black formula per
date on the accumulated log-variance), used as the pricing oracle for
the fully-flexible contract corner.
"""
from __future__ import annotations

import csv
import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "TwoFactorParams",
    "variance_lambda",
    "factor_step",
    "factor_marginal_covariance",
    "factor_states",
    "standardized_state",
    "simulate_factor_paths",
    "spot_and_payoff",
    "spot_factor",
    "spot_and_payoff_of_factor",
    "norm_cdf",
    "black_call",
    "closed_form_strip",
    "DYNAMICS_FIELDS",
    "dynamics_to_dict",
    "as_integer",
    "params_from_dict",
]


# Rows per block of the standardising product; the results do not depend on it
_STANDARDIZE_BLOCK = 16384


@dataclass(frozen=True)
class TwoFactorParams:
    """Model and contract data for an n-date swing on the two-factor spot."""

    alpha1: float
    alpha2: float
    sigma1: float
    sigma2: float
    rho: float
    r: float
    T: float
    n: int
    forward: np.ndarray  # F(0, t_k), one per date
    strikes: np.ndarray  # K_k, one per date

    def __post_init__(self) -> None:
        # NaN passes every comparison below, so finiteness comes first
        for name in ("alpha1", "alpha2", "sigma1", "sigma2", "rho", "r", "T"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.alpha1 <= 0 or self.alpha2 <= 0:
            raise ValueError("mean-reversion speeds must be positive")
        if self.sigma1 < 0 or self.sigma2 < 0:
            raise ValueError("volatilities must be nonnegative")
        if abs(self.rho) > 1:
            raise ValueError("correlation must lie in [-1, 1]")
        if self.T <= 0:
            raise ValueError("horizon must be positive")
        if int(self.n) != self.n or self.n < 1:
            raise ValueError("n must be a positive integer")
        object.__setattr__(self, "n", int(self.n))
        fwd = np.asarray(self.forward, dtype=float).reshape(-1)
        stk = np.asarray(self.strikes, dtype=float).reshape(-1)
        if fwd.shape != (self.n,) or stk.shape != (self.n,):
            raise ValueError(f"forward and strikes must each hold {self.n} values")
        if not (np.all(np.isfinite(fwd)) and np.all(np.isfinite(stk))):
            raise ValueError("forward and strikes must be finite")
        if np.any(fwd <= 0):
            raise ValueError("forward curve must be strictly positive")
        if np.any(stk < 0):
            raise ValueError("strikes must be nonnegative")
        fwd = fwd.copy()
        stk = stk.copy()
        fwd.setflags(write=False)
        stk.setflags(write=False)
        object.__setattr__(self, "forward", fwd)
        object.__setattr__(self, "strikes", stk)

    @property
    def dt(self) -> float:
        return self.T / self.n

    @property
    def vols(self) -> np.ndarray:
        return np.array([self.sigma1, self.sigma2])


def variance_lambda(params: TwoFactorParams, t):
    """Accumulated variance of the log-spot exponent at time ``t``.

    ``Var(sigma1*X1_t + sigma2*X2_t)`` in closed form; vectorised over
    ``t``.
    """
    t = np.asarray(t, dtype=float)
    a1, a2 = params.alpha1, params.alpha2
    s1, s2, rho = params.sigma1, params.sigma2, params.rho
    out = (
        s1 * s1 / (2 * a1) * (1.0 - np.exp(-2 * a1 * t))
        + s2 * s2 / (2 * a2) * (1.0 - np.exp(-2 * a2 * t))
        + 2 * rho * s1 * s2 / (a1 + a2) * (1.0 - np.exp(-(a1 + a2) * t))
    )
    return out if out.ndim else float(out)


def factor_step(params: TwoFactorParams) -> tuple[np.ndarray, np.ndarray]:
    """Exact one-step transition: decay factors and innovation covariance.

    ``X_{k+1} = decay * X_k + eps`` with ``eps`` centred Gaussian of the
    returned 2x2 covariance (the integrated mean-reversion covariances over
    one step of length ``T/n``).
    """
    a1, a2, dt = params.alpha1, params.alpha2, params.dt
    decay = np.array([math.exp(-a1 * dt), math.exp(-a2 * dt)])
    return decay, factor_marginal_covariance(params, dt)


def factor_marginal_covariance(params: TwoFactorParams, t: float) -> np.ndarray:
    """Covariance of the raw factor pair at time ``t`` (closed form)."""
    a1, a2 = params.alpha1, params.alpha2
    v1 = (1.0 - math.exp(-2 * a1 * t)) / (2 * a1)
    v2 = (1.0 - math.exp(-2 * a2 * t)) / (2 * a2)
    c = params.rho * (1.0 - math.exp(-(a1 + a2) * t)) / (a1 + a2)
    return np.array([[v1, c], [c, v2]])


def _chol2(m: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a 2x2 covariance, tolerant of degeneracy."""
    a = math.sqrt(max(m[0, 0], 0.0))
    if a == 0.0:
        return np.array([[0.0, 0.0], [0.0, math.sqrt(max(m[1, 1], 0.0))]])
    b = m[0, 1] / a
    d = math.sqrt(max(m[1, 1] - b * b, 0.0))
    return np.array([[a, 0.0], [b, d]])


def factor_states(
    params: TwoFactorParams,
    n_paths: int,
    seed: int,
    *,
    antithetic: bool = False,
) -> Iterator[np.ndarray]:
    """Exact raw factor states at dates 0, 1, ..., n, one at a time.

    Returns an iterator of one ``(n_paths, 2)`` array per date, starting
    at (0, 0); the arguments are checked at the call.  The
    innovations of step ``k`` are drawn only when the state of date
    ``k + 1`` is requested, so a caller that stops early draws nothing
    beyond what it read, and every state it did read is the same as in
    the full run.  ``antithetic`` pairs every path with its sign mirror
    (the second half of each block).  Fixed seeds give bit-identical
    output.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    decay, cov = factor_step(params)
    chol = _chol2(cov)
    rng = np.random.default_rng(seed)
    half = (n_paths + 1) // 2

    def states():
        state = np.zeros((n_paths, 2))
        yield state
        for _ in range(params.n):
            # decay first, so a state the caller has dropped is freed
            # before the innovations are drawn
            state = _by_columns(np.multiply, state, decay,
                                np.empty(state.shape))
            if antithetic:
                # in place, and ``x - e`` is ``x + (-e)`` to the bit
                e = rng.standard_normal((half, 2)) @ chol.T
                state[:half] += e
                state[half:] -= e[:n_paths - half]
                del e  # not kept while the generator is suspended
            else:
                state += rng.standard_normal((n_paths, 2)) @ chol.T
            yield state

    return states()


def standardized_state(params: TwoFactorParams, k: int,
                       state: np.ndarray) -> np.ndarray:
    """Date ``k``'s raw cross-section, standardised, as a new array.

    An affine map of the ``(n_paths, 2)`` states ``state`` makes their
    sample mean exactly zero and their sample covariance exactly the
    closed-form marginal covariance at ``t_k``; this removes the leading
    Monte-Carlo error of smooth functionals while perturbing the joint
    law only at O(1/sqrt(n_paths)).  Date 0, the deterministic start
    (0, 0), is copied as it is.  ``state`` itself is not modified, so the
    raw recursion can go on from it.  The map is applied to the centred
    states in place, in blocks of ``_STANDARDIZE_BLOCK`` rows or more, to
    the bits of one product over all rows.
    """
    if len(state) < 10:
        raise ValueError("standardization requires at least 10 paths")
    if k == 0:
        return state.copy()
    target = factor_marginal_covariance(params, k * params.dt)
    centred = np.empty(state.shape)
    _by_columns(np.subtract, state, _axis0_mean(state, centred), centred)
    # np.dot releases the GIL, ``centred.T @ centred`` holds it; same bits
    sample_cov = np.dot(centred.T, centred) / len(state)
    ls = _chol2(sample_cov)
    lt = _chol2(target)
    # map B with B' S B = target:  B = Ls^-T Lt^T
    b = np.linalg.solve(ls.T, lt.T)
    # the last block takes the remainder, so that no block is a one-row
    # product (a matrix-vector kernel) unless the whole one is
    starts = range(0, max(len(centred) - _STANDARDIZE_BLOCK, 1),
                   _STANDARDIZE_BLOCK)
    for start, stop in zip(starts, [*starts[1:], len(centred)]):
        rows = centred[start:stop]
        rows[...] = rows @ b
    return centred


def _axis0_mean(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a.mean(axis=0)`` of an ``(M, d)`` array, bit for bit, in less time.

    numpy sums axis 0 of such an array row after row, from ``+0.0``; the
    running sums down each column, written into ``out`` (of ``a``'s shape,
    or ``a`` itself), add in the same order, and adding ``+0.0`` turns an
    all-``-0.0`` column's ``-0.0`` into numpy's ``+0.0``.  One 1-D sum a
    column releases the GIL, where ``np.cumsum(a, axis=0)`` holds it
    throughout (see :func:`swingquant.tree._ahead`).
    """
    for j in range(a.shape[1]):
        np.cumsum(a[:, j], out=out[:, j])
    return (out[-1] + 0.0) / len(a)


def _by_columns(op, a: np.ndarray, v: np.ndarray,
                out: np.ndarray) -> np.ndarray:
    """``op(a, v, out=out)`` for an ``(M, d)`` array ``a`` and a ``d``-vector
    ``v``, bit for bit, one column at a time; returns ``out``.

    Broadcast against ``v``, the ufunc loops over the ``d``-long rows
    innermost; over a column it takes one long strided loop instead,
    two to four times faster at ``d = 2``.  ``out`` may be ``a`` itself.
    """
    for j in range(a.shape[1]):
        op(a[:, j], v[j], out=out[:, j])
    return out


def _axis0_std(a: np.ndarray) -> np.ndarray:
    """``a.std(axis=0)`` of an ``(M, d)`` array, through numpy's own steps
    with :func:`_axis0_mean` for its means, so to the same bits."""
    x = np.empty(a.shape)
    np.subtract(a, _axis0_mean(a, x), out=x)
    x *= x
    return np.sqrt(_axis0_mean(x, x))


def simulate_factor_paths(
    params: TwoFactorParams,
    n_paths: int,
    seed: int,
    *,
    antithetic: bool = False,
) -> np.ndarray:
    """Exact factor paths, shape ``(n_paths, n+1, 2)``, starting at (0, 0).

    The states of :func:`factor_states` stacked, with ``antithetic`` as
    there; by default plain i.i.d. exact Gaussian sampling.  Fixed seeds
    give bit-identical output.
    """
    n = params.n
    paths = np.empty((n_paths, n + 1, 2))
    states = factor_states(params, n_paths, seed, antithetic=antithetic)
    for k in range(n + 1):
        paths[:, k, :] = next(states)  # no name keeps the state alive
    return paths


def _date_time(params: TwoFactorParams, k: int) -> float:
    """``t_k`` of a date index, which must lie in ``0 .. n - 1``."""
    if not 0 <= k <= params.n - 1:
        raise ValueError(f"date index {k} outside 0..{params.n - 1}")
    return k * params.dt


def spot_and_payoff(params: TwoFactorParams, k: int, y):
    """Spot and discounted payoff at date ``k`` from raw factor state(s).

    ``y`` is a single state (pair) or an array with trailing axis 2.
    Returns ``(spot, payoff)`` where ``payoff = exp(-r t_k) * (spot - K_k)``
    is already discounted to time zero.
    """
    z = np.asarray(y, dtype=float) * params.vols
    return spot_and_payoff_of_factor(params, k, spot_factor(params, k, z))


def spot_factor(params: TwoFactorParams, k: int, z):
    """Spot over forward at date ``k``: ``exp(z1 + z2 - lambda(t_k) / 2)``.

    ``z = (sigma1*x1, sigma2*x2)`` is a volatility-scaled state (pair), as
    the quantized tree stores it, or an array with trailing axis 2.  The
    factor depends on the dynamics alone, not on the curves or the rate.
    """
    z = np.asarray(z, dtype=float)
    lam = variance_lambda(params, _date_time(params, k))
    expo = z[..., 0] + z[..., 1]
    return np.exp(expo - 0.5 * lam)


def spot_and_payoff_of_factor(params: TwoFactorParams, k: int, factor):
    """Spot ``F_k * factor`` and its discounted payoff at date ``k``."""
    t_k = _date_time(params, k)
    spot = params.forward[k] * factor
    payoff = math.exp(-params.r * t_k) * (spot - params.strikes[k])
    if spot.ndim == 0:
        return float(spot), float(payoff)
    return spot, payoff


def norm_cdf(x: float) -> float:
    """Standard normal distribution function, through the complementary
    error function so the lower tail keeps its relative accuracy."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def black_call(forward: float, strike: float, total_variance: float) -> float:
    """Undiscounted Black call on a forward with given total log-variance."""
    if forward <= 0:
        raise ValueError("forward must be positive")
    if strike < 0:
        raise ValueError("strike must be nonnegative")
    if strike == 0.0:
        return forward
    if total_variance <= 0.0:
        return max(forward - strike, 0.0)
    vol = math.sqrt(total_variance)
    d1 = (math.log(forward / strike) + 0.5 * total_variance) / vol
    d2 = d1 - vol
    return forward * norm_cdf(d1) - strike * norm_cdf(d2)


def closed_form_strip(params: TwoFactorParams) -> float:
    """Value of collecting every positive-part payoff: a strip of calls.

    One Black call per date on the forward with the accumulated log-spot
    variance, discounted at ``r``; the date-0 term degenerates to intrinsic
    value.
    """
    total = 0.0
    for k in range(params.n):
        t_k = k * params.dt
        lam = float(variance_lambda(params, t_k))
        call = black_call(float(params.forward[k]), float(params.strikes[k]), lam)
        total += math.exp(-params.r * t_k) * call
    return total


def _load_curve(value, n: int, base_dir: Path, name: str) -> np.ndarray:
    if isinstance(value, (int, float)):
        return np.full(n, as_real(value, name))
    if isinstance(value, str):
        path = Path(value)
        if not path.is_absolute():
            path = base_dir / path
        with path.open(newline="") as fh:
            rows = [row for row in csv.reader(fh) if row]
        values = [float(row[0]) for row in rows]
        if len(values) != n:
            raise ValueError(
                f"{name} curve {path} holds {len(values)} values, expected {n}"
            )
        return np.asarray(values)
    if isinstance(value, (list, tuple)):
        return np.asarray([as_real(v, name) for v in value], dtype=float)
    raise TypeError(f"{name} must be a number, list, or CSV path")


# The fields the factor paths depend on.  The forward curve, the strikes
# and the rate enter only the payoffs.
DYNAMICS_FIELDS = ("alpha1", "alpha2", "sigma1", "sigma2", "rho", "T", "n")


def dynamics_to_dict(params: TwoFactorParams) -> dict:
    """The :data:`DYNAMICS_FIELDS` of ``params``, by name."""
    return {name: getattr(params, name) for name in DYNAMICS_FIELDS}


def as_integer(value, name: str) -> int:
    """``int(value)`` for a configured count or seed.

    Booleans and numbers with a fractional part raise ``ValueError``
    instead of being truncated; integral floats such as ``1e6`` convert.
    """
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def as_real(value, name: str) -> float:
    """``float(value)`` for a configured real number; a boolean raises
    ``ValueError`` instead of reading as 0 or 1."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def params_from_dict(doc: dict, base_dir=".") -> TwoFactorParams:
    """Build parameters from a key-value document.

    Required fields, and the only ones: ``alpha1, alpha2, sigma1,
    sigma2, rho, r, T, n, forward, strike``.  ``forward`` and ``strike``
    are scalars (flat curves), inline lists, or paths to single-column
    CSV files with one value per date, resolved relative to ``base_dir``.
    """
    base = Path(base_dir)
    reals = ["alpha1", "alpha2", "sigma1", "sigma2", "rho", "r", "T"]
    required = reals + ["n", "forward", "strike"]
    missing = [key for key in required if key not in doc]
    if missing:
        raise KeyError(f"model config missing fields: {', '.join(missing)}")
    unknown = sorted(set(doc) - set(required))
    if unknown:
        raise KeyError(f"model config has unknown fields: {', '.join(unknown)}")
    n = as_integer(doc["n"], "n")
    return TwoFactorParams(
        **{key: as_real(doc[key], key) for key in reals},
        n=n,
        forward=_load_curve(doc["forward"], n, base, "forward"),
        strikes=_load_curve(doc["strike"], n, base, "strike"),
    )
