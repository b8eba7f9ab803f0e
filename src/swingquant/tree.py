"""Quantized backward dynamic programming for swing contracts.

The factor state is collapsed to one small codebook per date, consecutive
codebooks are linked by an empirically estimated transition matrix, and
the contract is priced by one backward induction over (row, node) arrays.
For integer bounds the optimal purchase at every node is 0 or 1, so a row
is a count of units bought so far (one contract) or a pair of residual
bounds (every contract at once, for the premium surface).  Non-integer
bounds are priced by affine interpolation of the integer-vertex surface.

The grids quantize the volatility-scaled factor pair (sigma1*X1,
sigma2*X2): it is Markov, the log-spot exponent is its coordinate sum
(so the quadratic quantization metric matches the payoff's sensitivity),
and degenerate-volatility models collapse to a single point per date.
"""
from __future__ import annotations

import io
import json
import logging
import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing, contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .contracts import GlobalConstraints, PremiumSurface, integer_vertices
from .model import (
    TwoFactorParams,
    _axis0_std,
    _by_columns,
    dynamics_to_dict,
    factor_states,
    spot_factor,
    standardized_state,
    variance_lambda,
)
from .quantizer import (
    Codebook,
    _distinct_codebook,
    _scan,
    clvq_optimize,
    has_distinct_rows,
    lloyd_optimize,
    nearest_indices,
    stacked_codebooks,
)

__all__ = [
    "QuantTree",
    "Policy",
    "PolicyReplay",
    "build_grids",
    "estimate_transitions",
    "build_tree",
    "quantized_dp_price",
    "integer_prices",
    "premium_surface",
    "save_policy_replay",
    "load_policy_replay",
    "extract_and_value_policy",
    "save_tree",
    "load_tree",
]

log = logging.getLogger(__name__)

_ROW_TOL = 1e-9
TRANSITION_SCHEME = "joint-path-counting"
OPTIMIZERS = ("lloyd", "clvq", "clvq-lloyd")
DEFAULT_OPTIMIZER = "clvq-lloyd"


@dataclass
class QuantTree:
    """Per-date codebooks, transition matrices and payoff values.

    The contract starts from a deterministic state, so grid 0 is a single
    point: every induction ends at ``values[:, 0]`` of date 0.  On
    construction each matrix must fit its two grids and be row-stochastic
    (entries ``>= -_ROW_TOL``, row sums within ``_ROW_TOL`` of 1), and
    each payoff vector must fit its grid and be finite.  Shapes are
    checked date by date, entries in one pass over every date's entries
    laid end to end; an error names the first failing date.
    """

    params: TwoFactorParams
    grids: list[Codebook]
    transitions: list[np.ndarray]
    payoff_values: list[np.ndarray]

    def __post_init__(self) -> None:
        n = self.params.n
        if len(self.grids) != n:
            raise ValueError(f"expected {n} grids, got {len(self.grids)}")
        if self.grids[0].n_points != 1:
            raise ValueError(f"grid 0 has {self.grids[0].n_points} points; "
                             "the root is a single point")
        if len(self.transitions) != n - 1:
            raise ValueError(
                f"expected {n - 1} transition matrices, got {len(self.transitions)}"
            )
        if len(self.payoff_values) != n:
            raise ValueError("one payoff vector per date required")
        self.transitions = [np.asarray(t, dtype=float) for t in self.transitions]
        self.payoff_values = [
            np.asarray(v, dtype=float).reshape(-1) for v in self.payoff_values
        ]
        sizes = [g.n_points for g in self.grids]
        for k, t in enumerate(self.transitions):
            want = (sizes[k], sizes[k + 1])
            if t.shape != want:
                raise ValueError(f"transition {k} has shape {t.shape}, want {want}")
        for k, v in enumerate(self.payoff_values):
            if v.shape != (sizes[k],):
                raise ValueError(f"payoff vector {k} does not match grid {k}")
        # the shapes fit, so every date's entries are checked end to end
        flat = np.concatenate([np.empty(0)]
                              + [t.reshape(-1) for t in self.transitions])
        widths = np.array(sizes, dtype=np.intp)
        row_len = np.repeat(widths[1:], widths[:-1])
        starts = np.cumsum(row_len) - row_len
        # NaN fails every comparison, so a NaN entry fails the check
        ok = (np.logical_and.reduceat(flat >= -_ROW_TOL, starts)
              & (np.abs(np.add.reduceat(flat, starts) - 1.0) <= _ROW_TOL))
        if not ok.all():
            k = np.repeat(np.arange(n - 1), widths[:-1])[np.argmin(ok)]
            raise ValueError(f"transition {k} is not row-stochastic")
        finite = np.isfinite(np.concatenate(self.payoff_values))
        if not finite.all():
            k = np.repeat(np.arange(n), widths)[np.argmin(finite)]
            raise ValueError(f"non-finite payoff at date {k}")

    @property
    def n(self) -> int:
        return self.params.n

    def width(self, k: int) -> int:
        return self.grids[k].n_points


@dataclass
class Policy:
    """The bang-bang policy of integer bounds ``q0``, all 0 or 1.

    Rows count purchases: ``buy[k][r, i]`` is the purchase at date ``k``
    and node ``i`` after ``l_min[k] + r`` units bought on earlier dates.
    """

    q0: GlobalConstraints
    l_min: np.ndarray
    buy: list[np.ndarray]


_MAX_FIT_SAMPLES = 50_000
_LLOYD_MAX_ITER = 60
_LLOYD_TOL = 2e-6
_CLVQ_STEPS_PER_POINT = 30


def _check_fit(n_bar: int, n_samples: int, optimizer: str) -> None:
    """Reject a grid size, sample count or optimizer no fit can use."""
    if n_bar < 1:
        raise ValueError("n_bar must be >= 1")
    if n_samples < 10 * n_bar:
        raise ValueError("n_samples must be at least 10 * n_bar")
    if optimizer not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {optimizer!r}")


def _grid_rng(seed: int) -> np.random.Generator:
    """The generator of the grid fits, apart from the paths' own."""
    return np.random.default_rng(seed ^ 0x9E3779B97F4A7C15)


def _root_grid() -> Codebook:
    """Date 0's grid: the single deterministic point (0, 0)."""
    return Codebook(np.zeros((1, 2)))


def _fit_grid(
    z: np.ndarray,
    prev: Codebook,
    prev_scale: np.ndarray | None,
    n_bar: int,
    rng: np.random.Generator,
    optimizer: str,
) -> tuple[Codebook, np.ndarray | None]:
    """The grid of one date ``k >= 1`` from its scaled states ``z``.

    ``prev`` is grid ``k - 1`` and ``prev_scale`` the scale this function
    returned for it.  Returns the grid and the sample scale of the fit
    cloud, ``None`` for a collapsed cloud.
    """
    stride = max(1, -(-len(z) // _MAX_FIT_SAMPLES))
    fit = z[::stride]
    if not has_distinct_rows(fit, n_bar + 1):
        return Codebook(np.unique(fit, axis=0)), None

    scale = _axis0_std(fit)
    grid = None
    if prev_scale is not None and prev.n_points == n_bar:
        ratio = np.where(prev_scale > 0,
                         scale / np.maximum(prev_scale, 1e-300), 1.0)
        grid = _distinct_codebook(prev.points * ratio)
    if grid is None:
        uniq = np.unique(fit, axis=0)
        picks = rng.choice(len(uniq), size=n_bar, replace=False)
        grid = Codebook(uniq[np.sort(picks)])
    if optimizer != "lloyd":
        # a pass that makes two points coincide returns its start
        order = rng.permutation(len(fit))[:_CLVQ_STEPS_PER_POINT * n_bar]
        grid, _ = clvq_optimize(fit[order], grid)
    if optimizer != "clvq":
        cb, _ = lloyd_optimize(fit, grid,
                               max_iter=_LLOYD_MAX_ITER, tol=_LLOYD_TOL)
        grid = Codebook(cb.points)
    return grid, scale


def _count_transitions(
    k: int, idx_prev: np.ndarray, idx_next: np.ndarray, n_from: int, n_to: int
) -> np.ndarray:
    """Row-stochastic matrix ``k -> k + 1`` from the paths' node indices.

    Rows never visited default to the next date's marginal cell
    frequencies, and are logged.  ``idx_prev`` is overwritten.
    """
    idx_prev *= n_to
    idx_prev += idx_next
    counts = np.bincount(idx_prev, minlength=n_from * n_to
                         ).reshape(n_from, n_to).astype(float)
    row_sums = counts.sum(axis=1)
    empty = row_sums == 0
    if empty.any():
        marginal = np.bincount(idx_next, minlength=n_to).astype(float)
        counts[empty] = marginal / marginal.sum()
        row_sums[empty] = 1.0
        log.warning(
            "transition %d: %d of %d rows unvisited, filled with the "
            "next-date marginal; consider raising n_samples",
            k, int(empty.sum()), n_from,
        )
    return counts / row_sums[:, None]


def build_grids(
    params: TwoFactorParams,
    paths: np.ndarray,
    n_bar: int,
    seed: int,
    optimizer: str = DEFAULT_OPTIMIZER,
) -> list[Codebook]:
    """One optimized, unweighted codebook of the scaled factor state per date.

    ``paths`` is a factor path array of shape ``(n_samples, n + 1, 2)``;
    :func:`build_tree` fits the same grids date by date from standardised
    states.  Date 0 always gets the single deterministic point (0, 0).
    Later dates are fitted on a thinned subsample (at most
    ``_MAX_FIT_SAMPLES``, 50 000) with the chosen optimizer: ``"lloyd"``
    (seeded from spread samples),
    ``"clvq"`` (online pass only) or ``"clvq-lloyd"`` (online seeding, then
    fixed-point polish; the default).  Consecutive dates warm-start from the
    previous grid rescaled by the marginal standard deviations, which cuts
    the fixed-point iterations sharply.  Sample clouds with at most
    ``n_bar`` distinct points (degenerate volatility) collapse to exactly
    those points.  A fixed-point pass that hits its iteration cap keeps its
    last iterate (:func:`lloyd_optimize` logs it).
    """
    _check_fit(n_bar, len(paths), optimizer)
    rng = _grid_rng(seed)
    grids = [_root_grid()]
    scale = None
    for k in range(1, params.n):
        grid, scale = _fit_grid(paths[:, k, :] * params.vols, grids[-1], scale,
                                n_bar, rng, optimizer)
        grids.append(grid)
    return grids


def estimate_transitions(
    params: TwoFactorParams,
    grids: list[Codebook],
    paths: np.ndarray,
) -> list[np.ndarray]:
    """Row-stochastic matrices linking consecutive codebooks.

    Counts nearest-cell pairs along ``paths``, the path array the grids
    were fitted on.  Rows never visited default to the next date's
    marginal cell frequencies, keeping every row a proper distribution;
    such rows are logged so callers can raise ``n_samples``.
    """
    transitions: list[np.ndarray] = []
    idx_prev = nearest_indices(paths[:, 0, :] * params.vols, grids[0])
    for k in range(params.n - 1):
        idx_next = nearest_indices(paths[:, k + 1, :] * params.vols,
                                   grids[k + 1])
        transitions.append(_count_transitions(
            k, idx_prev, idx_next, grids[k].n_points, grids[k + 1].n_points))
        idx_prev = idx_next
    return transitions


def build_tree(
    params: TwoFactorParams,
    n_bar: int,
    n_samples: int,
    seed: int,
    optimizer: str = DEFAULT_OPTIMIZER,
) -> QuantTree:
    """Full pipeline: one forward pass that fits grids and counts transitions.

    The ``n_samples`` paths are antithetic and standardised per date
    (:func:`~swingquant.model.standardized_state`), and grids and
    transitions are both estimated from them.  They are streamed date by
    date: each date's states are standardised, fitted as
    :func:`build_grids` does, projected onto their grid and counted
    against the previous date's nodes as :func:`estimate_transitions`
    does, so at most two dates' states are held at a time, and the tree
    is bit for bit the one those two functions build from the path array
    that stacks :func:`~swingquant.model.standardized_state` over the
    antithetic :func:`~swingquant.model.factor_states`.  Date ``n`` is
    never drawn.  Grid weights are
    the date-0 law pushed through the estimated transitions (identical to
    the path-set marginals), so the weights, transition matrices and
    backward induction are mutually consistent to machine precision, and
    :func:`load_tree` derives the same weights from the saved transitions.

    The build runs on two threads.  The calling thread fits the grids in
    date order while :func:`_ahead`'s helper thread runs
    :func:`_draws_and_counts`, which, while date ``k`` is fitted, counts
    date ``k - 1`` against its grid and then draws date ``k + 1``.  Each
    random generator is used on one thread only, so the tree does not
    depend on their timing.  An error on either thread is raised here,
    and an interrupt cancels the helper's queued work.

    Each date's grid spots are rescaled by a constant so the weighted spot
    mean reprices the forward exactly.  Collapsing the spot exponential
    onto finitely many points otherwise undervalues its mean (a Jensen gap
    of order the squared per-date quantization error), which shows up as a
    spurious negative swap value for fully-saturated contracts; the
    correction factors are ``1 + O(distortion^2)`` and vanish as the grids
    refine.
    """
    _check_fit(n_bar, n_samples, optimizer)
    rng = _grid_rng(seed)
    grids = [_root_grid()]
    transitions: list[np.ndarray] = []
    scale = None
    for z in _ahead(_draws_and_counts(params, n_samples, seed, grids,
                                      transitions)):
        if z is not None:  # date n is never drawn
            grid, scale = _fit_grid(z, grids[-1], scale, n_bar, rng, optimizer)
            grids.append(grid)
    return _assemble(params, np.concatenate([g.points for g in grids]),
                     [g.n_points for g in grids], transitions)


def _ahead(items):
    """Yield the items of the iterator ``items`` in order, each one made
    by ``next(items)`` on one helper thread while the consumer works on
    the item before it.

    The step that makes item ``j + 1`` starts only once the consumer has
    asked for item ``j``, so the steps never overlap and ``items`` needs
    no lock; what the consumer did before asking for item ``j`` is
    visible to that step.  A step's error is raised here with its own
    type.  The helper is started on the first request and joined, its
    queued step cancelled, when this generator ends or is closed; a
    consumer that may stop early closes it (``contextlib.closing``), so
    that an error in its own loop leaves no thread behind.

    The steps call none of the other modules' public functions that a
    tracer such as ``perfbench/spans.py``'s wraps: it keeps one span
    stack for all threads.
    """
    helper = ThreadPoolExecutor(max_workers=1)
    try:
        # the executor marks the end: no item is ever it
        step = helper.submit(next, items, helper)
        while (item := step.result()) is not helper:
            step = helper.submit(next, items, helper)
            yield item
    finally:
        helper.shutdown(cancel_futures=True)


def _draws_and_counts(params: TwoFactorParams, n_samples: int, seed: int,
                      grids: list[Codebook], transitions: list[np.ndarray]):
    """The paths of :func:`build_tree`, drawn and counted date by date
    through :func:`_ahead`.

    Yields date ``k``'s standardised, volatility-scaled states for ``k =
    1 .. n - 1``, then ``None`` for date ``n``, which is never drawn.
    The step that yields date ``k``'s states first counts date ``k - 2``
    against ``grids[k - 2]``, appending transition ``k - 3 -> k - 2`` to
    ``transitions``; the consumer appended that grid before it asked for
    date ``k - 1``, and reads ``transitions`` only once :func:`_ahead`
    has ended.  The step after ``None`` counts date ``n - 1``.
    """
    states = factor_states(params, n_samples, seed, antithetic=True)
    next(states)  # date 0, the deterministic start
    idx_prev = np.zeros(n_samples, dtype=np.intp)  # all at the root
    idx = np.empty(n_samples, dtype=np.intp)
    z = None
    for k in range(1, params.n + 1):
        # date k - 2's states go before date k's are drawn
        prev, z = z, None
        if k < params.n:
            z = standardized_state(params, k, next(states))
            _by_columns(np.multiply, z, params.vols, z)
        yield z
        if prev is not None:
            _scan(prev, grids[k - 1].points, idx)
            transitions.append(_count_transitions(
                k - 2, idx_prev, idx, grids[k - 2].n_points,
                grids[k - 1].n_points))
            idx_prev, idx = idx, idx_prev


def _assemble(params: TwoFactorParams, points: np.ndarray, sizes: list[int],
              transitions: list[np.ndarray]) -> QuantTree:
    """The tree of the stacked grid ``points`` split at ``sizes``, weighted
    by the date-0 law pushed through ``transitions`` and priced for
    ``params``: how :func:`build_tree` and :func:`load_tree` both finish."""
    grids = stacked_codebooks(points, sizes,
                              np.concatenate(_chained(transitions)))
    return QuantTree(params, grids, transitions, _payoffs(params, grids))


def _chained(transitions: list[np.ndarray]) -> list[np.ndarray]:
    """The law of date 0's single point pushed through ``transitions``."""
    weights = [np.ones(1)]
    for t in transitions:
        weights.append(weights[-1] @ t)
    return weights


def _payoffs(params: TwoFactorParams, grids: list[Codebook]) -> list[np.ndarray]:
    """Forward-calibrated discounted payoff at every grid point.

    The spot is linear in the forward, so the calibration factor
    ``F_k / (w . spot_k)`` is the same for every forward curve: re-marked
    payoffs need no refit.  All dates' points are computed as one array,
    with the operations :func:`~swingquant.model.spot_factor` applies
    date by date, and so to the same bits; only the weighted spot means
    are taken a date at a time.
    """
    n = params.n
    sizes = [g.n_points for g in grids]
    points = np.concatenate([g.points for g in grids])
    lam = variance_lambda(params, np.arange(n) * params.dt)
    spot = np.exp(points[:, 0] + points[:, 1] - np.repeat(0.5 * lam, sizes))
    spot *= np.repeat(params.forward, sizes)
    means = [float(g.weights @ s) for g, s in zip(grids, _blocks(spot, sizes))]
    spot *= np.repeat(params.forward / np.array(means), sizes)
    discount = [math.exp(-params.r * k * params.dt) for k in range(n)]
    spot -= np.repeat(params.strikes, sizes)
    spot *= np.repeat(discount, sizes)
    return _blocks(spot, sizes)


def _blocks(a: np.ndarray, sizes) -> list[np.ndarray]:
    """Views of the consecutive blocks of ``sizes`` entries (rows) of ``a``."""
    out = []
    stop = 0
    for size in sizes:
        start, stop = stop, stop + size
        out.append(a[start:stop])
    return out


def _backward(tree: QuantTree, layouts, decisions: bool):
    """The backward induction, over ``(row, node)`` arrays.

    The caller lays out the rows of each date: ``layouts[k]`` is
    ``(edges, gather, runs)``.  The rows of date ``k + 1`` form blocks
    split at ``edges`` (``0`` first, the row count last), and each
    block's continuation is its own matmul: BLAS may round a row
    differently by where it sits in a larger product, and a block keeps
    the bits it has when priced alone.  The continuation is written with
    a ``-inf`` pad row before each block and after the last, so block
    ``j``'s row ``r`` sits at padded row ``r + j + 1``.  Every forbidden
    choice reads a pad: its candidate is ``-inf``, and a state with
    neither choice is ``-inf`` too.  ``runs`` cover the rows of date
    ``k`` in order as ``(start, stop, stay)``: rows ``start + i`` take
    padded row ``stay + i`` without a purchase, a slice.  With a
    purchase they take the row after it, again a slice, unless
    ``gather`` indexes the padded row of every row's purchase.  Date
    ``n`` is worth zero.

    A date thus costs one matmul per block, and per run one payoff add
    and one maximum over slices; a ``gather`` adds one take.  The two
    buffers, for the values and for the padded continuation, are sized
    once for the largest date.

    Yields ``(k, values, buy)`` from date ``n - 1`` down to 0: ``values``
    of shape ``(rows, N_k)`` and, with ``decisions``, the int8 0/1
    purchases (``None`` otherwise).  The purchase is the smallest
    maximiser: buy only on strict improvement.  ``values`` lives in a
    buffer the next step overwrites; a caller that keeps it copies it.
    """
    n = tree.n
    widths = [tree.width(k) for k in range(n)]
    value_buf = np.empty(max(runs[-1][1] * w
                             for (_, _, runs), w in zip(layouts, widths)))
    cont_buf = np.empty(max((edges[-1] + len(edges)) * w
                            for (edges, _, _), w in zip(layouts, widths)))
    for k in range(n - 1, -1, -1):
        width = widths[k]
        edges, gather, runs = layouts[k]
        cont = cont_buf[:(edges[-1] + len(edges)) * width].reshape(-1, width)
        if k == n - 1:
            cont.fill(0.0)
        else:
            # Every block's product reads date k + 1's values before any
            # of date k's rows overwrites them in the same buffer.
            transition = tree.transitions[k].T
            for j, (a, b) in enumerate(zip(edges, edges[1:])):
                np.matmul(values[a:b], transition, out=cont[a + j + 1:b + j + 1])
        for j, edge in enumerate(edges):
            cont[edge + j] = -np.inf
        rows = runs[-1][1]
        values = value_buf[:rows * width].reshape(rows, width)
        payoff = tree.payoff_values[k]
        if gather is not None:
            # mode="clip" lets take write straight into values: under the
            # default "raise" numpy buffers the output, and a 365-date
            # surface takes about a third longer.
            np.take(cont, gather, axis=0, mode="clip", out=values)
            _add_to_rows(values, payoff, values)
        buy = np.empty((rows, width), dtype=np.int8) if decisions else None
        for start, stop, stay in runs:
            cand = values[start:stop]
            if gather is None:
                _add_to_rows(cont[stay + 1:stay + 1 + stop - start], payoff, cand)
            keep = cont[stay:stay + stop - start]
            if decisions:
                np.greater(cand, keep, out=buy[start:stop])
            # numpy returns the second operand on ties: a tie of +0.0 and
            # -0.0 takes the purchase's sign
            np.maximum(keep, cand, out=cand)
        # NaN and infinities reach the root from any date they arise at
        if k == 0 and not np.isfinite(values).all():
            raise ArithmeticError(
                "the induction overflowed or a state admits neither choice")
        yield k, values, buy


_FLAT_ROWS = 512


def _add_to_rows(a: np.ndarray, row: np.ndarray, out: np.ndarray) -> None:
    """``out = a + row`` for C-contiguous ``a`` and ``out``, bit for bit.

    A broadcast add loops over ``row`` innermost, a loop only ``N`` long;
    blocks of ``_FLAT_ROWS`` rows are added as one flat row instead.
    """
    flat = len(a) // _FLAT_ROWS * _FLAT_ROWS
    if flat:
        shape = (-1, _FLAT_ROWS * len(row))
        np.add(a[:flat].reshape(shape), np.tile(row, _FLAT_ROWS),
               out=out[:flat].reshape(shape))
    if flat < len(a):
        np.add(a[flat:], row, out=out[flat:])


def _clamped_integer(q0: GlobalConstraints, n: int) -> GlobalConstraints:
    q0 = GlobalConstraints(q0.q_lo, min(q0.q_hi, float(n)))
    if not q0.is_integer:
        raise ValueError(
            f"{q0.as_tuple()} is not integer; interpolate the premium surface"
        )
    return q0


def _count_layouts(n: int, bounds: list[GlobalConstraints]):
    """``layouts`` for :func:`_backward` over the purchase counts of
    several contracts, one block of rows per integer bound pair.

    Block ``b``, for bounds ``(lo, hi)``, holds at date ``k`` the counts
    ``l_min(k) .. min(k, hi)`` with ``l_min(k) = (lo - (n - k))^+`` (the
    floor must stay reachable), after the rows of blocks ``< b``; date
    ``n`` has ``hi - lo + 1`` rows a block.  Count ``l`` reaches ``l``
    without a purchase and ``l + 1`` with one, in the same block at
    ``k + 1``: the block's rows shifted by ``-rise`` and ``1 - rise``,
    where ``rise = l_min(k + 1) - l_min(k)`` is 0 or 1.  So a rising
    floor's first row reads the leading pad without a purchase, and a
    reached cap's last row the trailing pad with one.  Returns
    ``(layouts, l_min)``, ``l_min`` of shape ``(n + 1, blocks)``.
    """
    lo = np.array([int(q.q_lo) for q in bounds])
    hi = np.array([int(q.q_hi) for q in bounds])
    dates = np.arange(n + 1)[:, None]
    l_min = np.maximum(lo - (n - dates), 0)      # (n + 1, blocks)
    rows = np.minimum(dates, hi) - l_min + 1
    stop = np.cumsum(rows, axis=1)
    first = stop - rows
    # block b's rows at k + 1 start at padded row first + b + 1
    stay = first[1:] + np.arange(1, len(bounds) + 1) - (l_min[1:] - l_min[:-1])
    edges = np.concatenate([first, stop[:, -1:]], axis=1)[1:].tolist()
    layouts = [(e, None, tuple(zip(f, s, st)))
               for e, f, s, st in zip(edges, first.tolist(), stop.tolist(),
                                      stay.tolist())]
    return layouts, l_min


def integer_prices(tree: QuantTree,
                   bounds: list[GlobalConstraints]) -> list[float]:
    """Prices of several integer bound pairs, from one backward induction.

    Each pair's purchase counts are a block of the induction's rows, and
    each block's values are bit for bit those :func:`quantized_dp_price`
    computes for that pair alone: its continuation is its own matmul,
    and its candidates are slices of it.  No policy is kept.  Caps
    beyond the horizon are clamped and non-integer bounds rejected as
    there.
    """
    if not bounds:
        return []
    n = tree.n
    layouts, _ = _count_layouts(n, [_clamped_integer(q, n) for q in bounds])
    for _, values, _ in _backward(tree, layouts, decisions=False):
        pass  # the loop ends on date 0
    # date 0 has one row a block: no purchase yet, at the root point
    return values[:, 0].tolist()


def quantized_dp_price(
    tree: QuantTree, q0: GlobalConstraints
) -> tuple[float, Policy]:
    """Price the contract with integer bounds ``q0`` on the quantized tree.

    Backward induction on the cumulated-purchase axis: before date ``k``
    the feasible purchase counts are ``l_min(k) .. min(k, q0_hi)``, with
    ``l_min(k) = (q0_lo - (n - k))^+`` (the floor must stay reachable), and
    each state either keeps ``l`` or moves to ``l + 1``; both candidates
    are slices of the padded continuation, and a forbidden one reads a
    ``-inf`` pad row.  It is the one-block case of :func:`integer_prices`.
    Returns the price, the value of no purchase so far at the tree's
    single root point, and the 0/1 policy.  Non-integer bounds are
    rejected; price those from :func:`premium_surface` via tile
    interpolation.
    """
    n = tree.n
    q0 = _clamped_integer(q0, n)
    layouts, l_min = _count_layouts(n, [q0])
    buy: list[np.ndarray] = [None] * n
    for k, values, b in _backward(tree, layouts, decisions=True):
        buy[k] = b
    return float(values[0, 0]), Policy(q0, l_min[:n, 0], buy)


def _pair_layouts(n: int):
    """``layouts`` for :func:`_backward` over every residual pair.

    The rows of date ``k`` are the pairs ``(a, b)``, ``0 <= a <= b <= m``
    with ``m = n - k``, ordered as :func:`integer_vertices` (by ``b``,
    then ``a``): a prefix of the pairs of horizon ``n``, one block.  Not
    buying keeps a pair with ``b < m``, and so its row: the first
    ``same = m (m + 1) / 2`` rows read the continuation as it stands.
    The last ``m + 1`` rows, ``(a, m)``, become ``(a, m - 1)``, ``m`` rows
    back, and ``(m, m)``, which must buy, reads the trailing pad.  A
    purchase moves ``(a, b)`` to ``(max(a - 1, 0), b - 1)``, which no
    slice follows: one gather index array, shifted past the leading pad,
    is built once and sliced; ``(0, 0)``, which cannot buy, reads the
    leading pad.
    """
    b, a = np.tril_indices(n + 1)
    gather = (b - 1) * b // 2 + np.maximum(a - 1, 0) + 1
    gather[0] = 0
    layouts = []
    for m in range(n, 0, -1):
        same = m * (m + 1) // 2
        rows = same + m + 1
        layouts.append(((0, same), gather[:rows],
                        ((0, same, 1), (same, rows, same + 1 - m))))
    return layouts


def premium_surface(tree: QuantTree) -> PremiumSurface:
    """Premium at every integer vertex, from one backward pass.

    Works over all integer bound pairs at every horizon (cost proportional
    to the pair count times the product of consecutive grid sizes), so the
    whole surface costs one induction instead of one per vertex.  Only the
    current date's values are held; no policy is kept.  The premia are
    date 0's values at the tree's single root point, in the order of
    :func:`integer_vertices`.
    """
    n = tree.n
    for _, values, _ in _backward(tree, _pair_layouts(n), decisions=False):
        pass  # the loop ends on date 0
    premia = values[:, 0].tolist()
    del values  # the induction's buffer goes before the surface is built
    return PremiumSurface(n=n, values=dict(zip(integer_vertices(n), premia)))


def _factors_header(shape: tuple[int, int]) -> bytes:
    """The ``.npy`` header ``np.save`` writes for float64 ``shape`` in C order."""
    buf = io.BytesIO()
    np.lib.format.write_array_header_1_0(buf, {
        "descr": np.lib.format.dtype_to_descr(np.dtype(np.float64)),
        "fortran_order": False, "shape": tuple(int(d) for d in shape)})
    return buf.getvalue()


@contextmanager
def _factors_file(path, shape: tuple[int, int]):
    """The ``.npy`` file of a replay's factors, open at its first row.

    Reads only the header, and raises ``ValueError`` unless it is byte
    for byte that of :func:`_factors_header` (so the format version,
    float64, C order and ``shape``; a header laid out otherwise fails
    too) and the file is exactly that header and its rows long.
    """
    header = _factors_header(shape)
    want = len(header) + 8 * math.prod(shape)
    with open(path, "rb") as f:
        got = f.read(len(header))
        size = os.fstat(f.fileno()).st_size
        if got != header or size != want:
            raise ValueError(f"{path} has header {got!r} and {size} bytes; "
                             f"want {header!r} and {want} bytes")
        yield f


@dataclass(frozen=True)
class PolicyReplay:
    """The part of a policy valuation that no bound depends on, as saved.

    For each date ``k`` in ``0 .. n - 1`` and each replay path,
    ``nodes[k]`` holds the path's nearest node on grid ``k`` (the smallest
    unsigned dtype that holds the widest grid) and row ``k`` of the
    float64 ``(n, n_paths)`` array in the ``.npy`` file ``factors`` its
    unit spot factor (:func:`~swingquant.model.spot_factor`).  Both follow
    from the tree's dynamics and grids and the replay's seed and path
    count alone, so one replay serves every bound pair and every curve.
    :func:`save_policy_replay` writes a replay and
    :func:`load_policy_replay` reads it back; the factors are read one
    date's row at a time (:meth:`dates`), so they are never all in memory.
    """

    nodes: np.ndarray
    factors: Path

    def check(self, tree: QuantTree, n_paths: int) -> None:
        """Raise ``ValueError`` unless this replay fits ``tree``.

        Of the factor file, only the header and the size are read.
        """
        shape = (tree.n, n_paths)
        if self.nodes.shape != shape or self.nodes.dtype.kind != "u":
            raise ValueError(f"replay nodes {self.nodes.dtype} "
                             f"{self.nodes.shape}, want unsigned {shape}")
        with _factors_file(self.factors, shape):
            pass
        widths = np.array([g.n_points for g in tree.grids])
        if np.any(self.nodes.max(axis=1) >= widths):
            raise ValueError("replay node beyond its grid")

    def dates(self):
        """Yield each date's ``(nodes, factors)`` rows, in date order.

        The factors are read into one reused buffer of one date's row, so
        a row holds its values only until the next one is drawn.  A file
        that ends early raises ``EOFError``.
        """
        with _factors_file(self.factors, self.nodes.shape) as f:
            row = np.empty(self.nodes.shape[1])
            for k, nodes in enumerate(self.nodes):
                if f.readinto(row) != row.nbytes:
                    raise EOFError(f"{self.factors} ends within or before "
                                   f"date {k}'s row")
                yield nodes, row


def _replay_dates(tree: QuantTree, n_paths: int, seed: int):
    """Simulate the replay's paths date by date (plain i.i.d. sampling),
    yielding each date's ``(nodes, factors)`` rows as
    :meth:`PolicyReplay.dates` does; no path array is held.

    :func:`_ahead`'s helper thread draws each date's states, scales them
    and computes their spot factors while the calling thread projects
    the previous date's states onto their grid.  The paths' generator
    stays on the helper, so the rows do not depend on the threads'
    timing.  A caller that may stop early closes this generator
    (``contextlib.closing``), which closes :func:`_ahead` in turn.
    """
    params = tree.params
    states = factor_states(params, n_paths, seed)

    def draws():
        for k in range(tree.n):
            z = _by_columns(np.multiply, next(states), params.vols,
                            np.empty((n_paths, 2)))
            yield z, spot_factor(params, k, z)

    for k, (z, factors) in enumerate(_ahead(draws())):
        yield nearest_indices(z, tree.grids[k]), factors


def save_policy_replay(tree: QuantTree, n_paths: int, seed: int,
                       directory) -> None:
    """Simulate ``n_paths`` exact-model paths and save what a valuation reads.

    Writes ``factors.npy`` into ``directory`` as the paths are simulated,
    its header first and then one date's row at a time, and ``nodes.npy``
    at the end; both files are byte for byte ``np.save`` of the replay's
    two arrays, but no float64 ``(n, n_paths)`` array is held.
    """
    directory = Path(directory)
    widest = max(g.n_points for g in tree.grids)
    nodes = np.empty((tree.n, n_paths), dtype=np.min_scalar_type(widest - 1))
    with (closing(_replay_dates(tree, n_paths, seed)) as dates,
          open(directory / "factors.npy", "wb") as f):
        f.write(_factors_header((tree.n, n_paths)))
        for k, (node, factors) in enumerate(dates):
            nodes[k] = node
            f.write(factors)
    np.save(directory / "nodes.npy", nodes)


def load_policy_replay(directory, tree: QuantTree,
                       n_paths: int) -> PolicyReplay:
    """The replay :func:`save_policy_replay` wrote into ``directory``:
    the nodes loaded, the factors left in their file.  Raises
    ``OSError``, ``EOFError`` or ``ValueError`` for a missing or damaged
    file or one that does not fit ``tree`` (:meth:`PolicyReplay.check`).
    """
    directory = Path(directory)
    replay = PolicyReplay(np.load(directory / "nodes.npy"),
                          directory / "factors.npy")
    replay.check(tree, n_paths)
    return replay


def extract_and_value_policy(
    tree: QuantTree,
    policy: Policy,
    q0: GlobalConstraints,
    n_paths: int,
    seed: int,
    replay: PolicyReplay | None = None,
) -> tuple[float, float]:
    """Price a bang-bang policy by simulation.

    ``policy`` is the one :func:`quantized_dp_price` returned for the same
    bounds ``q0``.  Valuation runs on exact-model paths with an
    independent ``seed``, all from the tree's single root point: states
    are projected to the grids only to look up decisions, payoffs come
    from the exact states.  The paths' nodes and unit spot factors come,
    date by date, from ``replay``, loaded by :func:`load_policy_replay`
    for ``(tree, n_paths, seed)``, or else straight from the simulation;
    neither holds a whole-horizon array, and both give the same bits.
    Per date, the valuation is one flat gather of each path's purchase at
    ``bought * N_k + node`` and the payoff of
    :func:`~swingquant.model.spot_and_payoff_of_factor`, computed by the
    same operations in ``n_paths``-long buffers and added in date order,
    so bit for bit a 2-d gather at ``(bought - l_min[k], node)`` and a
    fresh payoff array per date.  Every simulated schedule satisfies the
    global bounds; a violation would mean the purchase-count bookkeeping
    is broken and raises immediately.

    Returns ``(mc_value, std_err)``.
    """
    n = tree.n
    q0 = _clamped_integer(q0, n)
    if policy.q0 != q0:
        raise ValueError(f"the policy is for bounds {policy.q0.as_tuple()}, "
                         f"not {q0.as_tuple()}")
    if replay is None:
        dates = _replay_dates(tree, n_paths, seed)
    else:
        replay.check(tree, n_paths)
        dates = replay.dates()

    params = tree.params
    bought = np.zeros(n_paths, dtype=np.int64)
    value = np.zeros(n_paths)
    flat = np.empty(n_paths, dtype=np.intp)
    pay = np.empty(n_paths)
    with closing(dates):
        for k, (nodes, factors) in enumerate(dates):
            # The purchase at (bought - l_min, node), gathered flat from
            # the rows laid end to end.  Counts below the floor l_min
            # never occur; their rows pad the table so that a path's row
            # is its count.
            rows, width = policy.buy[k].shape
            table = np.zeros((policy.l_min[k] + rows) * width, dtype=np.intp)
            table[policy.l_min[k] * width:] = policy.buy[k].reshape(-1)
            np.multiply(bought, width, out=flat)
            flat += nodes
            acts = np.take(table, flat)
            # the payoff of spot_and_payoff_of_factor, in one buffer
            np.multiply(params.forward[k], factors, out=pay)
            pay -= params.strikes[k]
            pay *= math.exp(-params.r * (k * params.dt))
            pay *= acts
            value += pay
            bought += acts
    if not ((bought >= q0.q_lo) & (bought <= q0.q_hi)).all():
        raise AssertionError("simulated schedule violated the global bounds")
    mc_value = float(value.mean())
    std_err = float(value.std(ddof=1) / math.sqrt(n_paths)) if n_paths > 1 else 0.0
    return mc_value, std_err


# -- persistence -------------------------------------------------------------


def save_tree(tree: QuantTree, directory, manifest_extra: dict | None = None) -> dict:
    """Persist grid points, transitions and a manifest of the dynamics.

    ``grids.npy`` stacks the points of every date in date order, shape
    ``(sum N_k, 2)``; ``transitions.npy`` concatenates the matrices, each
    flattened row-major, in date order.  The manifest's ``grid_sizes``
    split them.  The weights follow from the transitions and the payoffs
    from the curves, so both are left to :func:`load_tree`.  The files
    are written into ``directory`` as they come; publishing it is the
    caller's concern.  Returns the manifest.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    np.save(directory / "grids.npy",
            np.concatenate([g.points for g in tree.grids]))
    # the empty head keeps a one-date tree's file a float64 array
    np.save(directory / "transitions.npy",
            np.concatenate([np.empty(0)]
                           + [t.reshape(-1) for t in tree.transitions]))
    manifest = {
        "model": dynamics_to_dict(tree.params),
        "grid_sizes": [g.n_points for g in tree.grids],
        "transition_scheme": TRANSITION_SCHEME,
    }
    if manifest_extra:
        manifest.update(manifest_extra)
    (directory / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest


def load_tree(directory, params: TwoFactorParams) -> tuple[QuantTree, dict]:
    """The tree saved by :func:`save_tree`, priced for ``params``.

    Splits the stacked grid points and transitions at the manifest's grid
    sizes, and derives the weights (the date-0 law pushed through the
    transitions) and the payoffs of ``params`` as :func:`build_tree`
    does, bit for bit.  Raises ``ValueError`` if ``params`` has other
    dynamics than the saved tree, the manifest is no JSON object or its
    grid sizes are not one positive integer per date, an array does not
    parse or fit those sizes, or the tree fails a check of
    :class:`~swingquant.quantizer.Codebook` or :class:`QuantTree`.  Those
    checks run on the loaded arrays as they are stacked, once per tree
    (:func:`~swingquant.quantizer.stacked_codebooks`), not once per date.
    Returns ``(tree, manifest)``.
    """
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    saved = manifest.get("model") if isinstance(manifest, dict) else None
    if saved != dynamics_to_dict(params):
        raise ValueError(f"dynamics {dynamics_to_dict(params)} differ from "
                         f"the saved tree's {saved}")
    n = params.n
    sizes = manifest.get("grid_sizes")
    if not (isinstance(sizes, list) and len(sizes) == n
            and all(type(s) is int and s > 0 for s in sizes)):
        raise ValueError(f"grid sizes {sizes!r}, want {n} positive integers")
    cells = [a * b for a, b in zip(sizes, sizes[1:])]
    points = np.load(directory / "grids.npy")
    flat = np.load(directory / "transitions.npy")
    for name, a, shape in (("grids", points, (sum(sizes), 2)),
                           ("transitions", flat, (sum(cells),))):
        if a.dtype != np.float64 or a.shape != shape:
            raise ValueError(f"{name}.npy holds {a.dtype} {a.shape}, "
                             f"want float64 {shape}")
    transitions = [t.reshape(a, b) for t, a, b in zip(
        _blocks(flat, cells), sizes, sizes[1:])]
    return _assemble(params, points, sizes, transitions), manifest
