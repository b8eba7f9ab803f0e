"""Finite codebooks for state-space discretisation.

A codebook is a small set of points in R^d together with optional cell
probabilities.  Random states are projected to their nearest point
(smallest index wins on ties), and three optimisers tune the points to
the sampled distribution: a fixed-point iteration on cell centroids, an
online stochastic-gradient pass, and a Newton solver for the standard
normal in one dimension where density and distribution function are
available in closed form.

Nearest-neighbour search is an exhaustive linear scan in every dimension
(blocked matrix arithmetic with preallocated scratch, no per-sample
allocation).  The fixed-point iteration prunes that scan exactly: after
its first pass it re-projects only the samples whose cell a distance
bound cannot pin (Hamerly 2010), and its points, weights and report are
bit for bit those of full scans.  Codebooks are immutable; all queries
are pure functions and safe to call concurrently.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from .model import norm_cdf

__all__ = [
    "Codebook",
    "stacked_codebooks",
    "OptimizerReport",
    "nearest_indices",
    "distortion",
    "has_distinct_rows",
    "lloyd_optimize",
    "clvq_optimize",
    "newton_optimize_1d_normal",
]

log = logging.getLogger(__name__)

_WEIGHT_TOL = 1e-9
# Lloyd's skip test: its slack per unit of |y|^2 + max |p|^2, and the
# relative outward rounding of its bound updates
_BOUND_SLACK = 1e-12
_BOUND_ROUNDING = 2.0 ** -40
# Bytes of the nearest-point scan's scratch block, which holds a block of
# rows by the codebook's points; the results do not depend on it
_SCAN_BYTES = 1 << 20
# Largest 2-D codebook whose online pass steps on Python floats; larger
# ones and other dimensions step on numpy arrays.  The results do not
# depend on it.  Per step, on normal samples (2-core Xeon, Python 3.11,
# numpy 2.4): 6 points 0.8-1.3 us on floats against 5.0-9.1 us on
# arrays, 64 points 5.7-6.5 against 7.1-10.0, 96 points about even,
# 200 points 15-23 against 9-15.
_CLVQ_FLOAT_POINTS = 64


@dataclass(frozen=True)
class Codebook:
    """N points in R^d with optional probabilities, immutable once built."""

    points: np.ndarray
    weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        _set_fields(self, *_checked(self.points, self.weights))

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def stacked_codebooks(points, sizes, weights=None) -> list[Codebook]:
    """The codebooks whose points are consecutive row blocks of ``points``.

    Block ``k`` holds ``sizes[k]`` rows of the ``(sum sizes, d)`` array
    ``points`` and, if ``weights`` is given, the same entries of that
    flat array.  Every block passes the checks of :class:`Codebook`, with
    its messages, but the stack is checked at once: one finiteness pass,
    one sort for equal points within a block, one sum per block.  The
    codebooks hold read-only views of one copy of each array.
    """
    sizes = [int(s) for s in sizes]
    pts, w = _checked(points, weights, sizes)
    books = []
    stop = 0
    for size in sizes:
        start, stop = stop, stop + size
        cb = object.__new__(Codebook)  # checked above, as one stack
        _set_fields(cb, pts[start:stop], None if w is None else w[start:stop])
        books.append(cb)
    return books


def _checked(points, weights, sizes: list[int] | None = None):
    """Read-only float copies of ``points`` and ``weights`` (or ``None``).

    Raises ``ValueError`` unless each block of ``sizes`` rows (one block
    by default) and its weights make a valid codebook.
    """
    pts = np.atleast_2d(np.array(points, dtype=float))
    if pts.ndim != 2 or pts.size == 0:
        raise ValueError("points must form a non-empty (N, d) array")
    if sizes is None:
        sizes = [len(pts)]
    elif min(sizes, default=0) < 1 or sum(sizes) != len(pts):
        raise ValueError(f"block sizes must be positive and sum to {len(pts)}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("non-finite codebook point")
    # equal points of one block are equal rows once tagged with the block
    block = np.repeat(np.arange(len(sizes)), sizes)
    if _distinct_count(np.column_stack((pts, block))) < len(pts):
        raise ValueError("codebook points must be pairwise distinct")
    pts.setflags(write=False)
    if weights is None:
        return pts, None
    w = np.array(weights, dtype=float).reshape(-1)
    if w.shape != (len(pts),):
        raise ValueError("weights must have one entry per point")
    # NaN fails every comparison, so a NaN weight fails the check
    sums = np.add.reduceat(w, np.cumsum(sizes) - sizes)
    if not (np.all(w >= 0.0) and np.all(np.abs(sums - 1.0) <= _WEIGHT_TOL)):
        raise ValueError("weights must be nonnegative and sum to 1")
    w.setflags(write=False)
    return pts, w


def _distinct_codebook(points) -> Codebook | None:
    """The unweighted codebook of the ``(N, d)`` array ``points``, or
    ``None`` if two coincide.

    Points that :class:`Codebook` rejects for another reason raise as it
    does.
    """
    if np.all(np.isfinite(points)) and not has_distinct_rows(points, len(points)):
        return None
    return Codebook(points)


def _set_fields(cb: Codebook, pts: np.ndarray, w: np.ndarray | None) -> None:
    """Set the fields of the frozen ``cb``; views of a read-only array
    are read-only themselves."""
    object.__setattr__(cb, "points", pts)
    object.__setattr__(cb, "weights", w)


@dataclass
class OptimizerReport:
    """Convergence record of a codebook optimisation."""

    iterations: int
    final_distortion: float
    distortion_history: list[float] = field(default_factory=list)
    stationarity_residual: float = math.nan
    converged: bool = False
    # samples projected onto the points, summed over the fit's passes
    projections: int = 0


def _as_samples(samples, dim: int | None = None) -> np.ndarray:
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("samples must form a non-empty (M, d) array")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"dimension mismatch: samples are {arr.shape[1]}-d, "
                         f"codebook is {dim}-d")
    return arr


def nearest_indices(samples, cb: Codebook) -> np.ndarray:
    """Vectorised nearest-point assignment for an (M, d) sample block.

    The smallest index wins on ties.  Work proceeds in blocks of rows
    sized so that a block's distances to every point fill a reused
    scratch buffer of about ``_SCAN_BYTES`` (at least one row), so the
    inner loop allocates nothing per sample and its buffer stays in cache
    whatever the codebook's size.
    """
    y = _as_samples(samples, cb.dim)
    out = np.empty(y.shape[0], dtype=np.intp)
    _scan(y, cb.points, out)
    return out


def _scan(y: np.ndarray, pts: np.ndarray, out: np.ndarray,
          second: np.ndarray | None = None) -> None:
    """Write the nearest point of each row of ``y`` into ``out``.

    The scan ranks points by ``0.5 |p|^2 - y.p`` (``|y - p|^2`` less the
    row constant ``|y|^2``, halved).  If ``second`` is given it receives
    each row's runner-up value of that surrogate (``inf`` for one point):
    the row's minimum once ``inf`` is written at its argmin, read at a
    second argmin, which is the value ``np.min`` gives (NaN for a row with
    two NaNs) at about half its cost on short rows.
    """
    m, n = y.shape[0], pts.shape[0]
    block = max(1, min(_SCAN_BYTES // (8 * n), m))
    half_p2 = 0.5 * (pts ** 2).sum(axis=1)
    scratch = np.empty((block, n))
    if second is not None:
        # each row's flat offset in the scratch, and the second argmin
        row_start = np.arange(0, block * n, n)
        runner = np.empty(block, dtype=np.intp)
    for start in range(0, m, block):
        stop = min(start + block, m)
        rows = stop - start
        buf = scratch[:rows]
        np.dot(y[start:stop], pts.T, out=buf)
        np.subtract(half_p2[None, :], buf, out=buf)
        np.argmin(buf, axis=1, out=out[start:stop])
        if second is not None:
            flat = runner[:rows]
            np.add(row_start[:rows], out[start:stop], out=flat)
            np.put(buf, flat, np.inf)
            np.argmin(buf, axis=1, out=flat)
            flat += row_start[:rows]
            np.take(buf, flat, out=second[start:stop])


def distortion(samples, cb: Codebook, p: float = 2.0) -> float:
    """Mean ``p``-norm projection error ``(E min_i |y - x_i|^p)^(1/p)``."""
    if p < 1.0:
        raise ValueError("p must be >= 1")
    y = _as_samples(samples, cb.dim)
    idx = nearest_indices(y, cb)
    err = np.sqrt(((y - cb.points[idx]) ** 2).sum(axis=1))
    return float(np.mean(err ** p) ** (1.0 / p))


def has_distinct_rows(rows: np.ndarray, m: int) -> bool:
    """Whether the ``(M, d)`` array ``rows`` holds at least ``m`` distinct rows.

    A short prefix settles the common case (a continuous sample is all
    distinct) without sorting the whole array; only an inconclusive prefix
    leads to the full count.
    """
    head = rows[: 4 * m]
    if _distinct_count(head) >= m:
        return True
    return len(head) < len(rows) and _distinct_count(rows) >= m


def _distinct_count(rows: np.ndarray) -> int:
    """The number of distinct rows of the ``(M, d)`` array ``rows``.

    Equal rows are adjacent once lexsorted, and NaN differs from itself,
    so this is ``len(np.unique(rows, axis=0))`` at several times its
    speed on a few rows.
    """
    if len(rows) == 0:
        return 0
    ordered = rows[np.lexsort(rows.T)]
    return 1 + int(np.count_nonzero(np.any(ordered[1:] != ordered[:-1], axis=1)))


def _column_sum(a: np.ndarray) -> np.ndarray:
    """Row sums of the ``(M, d)`` array ``a``, adding its columns in order.

    Below numpy's pairwise-summation block of 8 columns these are the
    values of ``a.sum(axis=1)``, at about twice the speed.
    """
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        out += a[:, j]
    return out


def _quadratic_error(y: np.ndarray, pts: np.ndarray, idx: np.ndarray) -> np.ndarray:
    # ``take`` gathers rows several times faster than ``pts[idx]``, and
    # squaring its result in place spares a fresh array
    diff = pts.take(idx, axis=0)
    np.subtract(y, diff, out=diff)
    diff *= diff
    return _column_sum(diff)


def _project(y: np.ndarray, y2: np.ndarray,
             pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest points of the rows of ``y`` and each row's runner-up distance.

    ``y2`` holds the rows' squared norms.  The runner-up distance (to the
    nearest point other than the row's own) comes from the scan's
    surrogate, so it carries that surrogate's rounding.
    """
    idx = np.empty(len(y), dtype=np.intp)
    second = np.empty(len(y))
    _scan(y, pts, idx, second)
    second *= 2.0
    second += y2
    np.maximum(second, 0.0, out=second)
    return idx, np.sqrt(second, out=second)


def _cell_sums(y: np.ndarray, idx: np.ndarray, n: int) -> np.ndarray:
    """``(n, d)`` coordinate sums of the samples in each of the ``n`` cells."""
    return np.stack([np.bincount(idx, weights=y[:, j], minlength=n)
                     for j in range(y.shape[1])], axis=1)


def lloyd_optimize(
    samples,
    cb0: Codebook,
    max_iter: int = 500,
    tol: float = 1e-6,
) -> tuple[Codebook, OptimizerReport]:
    """Fixed-point optimisation: assign cells, move points to cell means.

    Runs on the empirical measure of ``samples`` until the relative decrease
    of the quadratic distortion drops below ``tol`` or ``max_iter`` passes.
    The recorded distortion history is non-increasing; a fit whose
    distortion rises raises ``ArithmeticError``.  A point whose cell
    empties is re-seeded at the sample currently farthest from its assigned
    point, which keeps the codebook size constant and strictly decreases
    distortion.  A run that stops at ``max_iter`` projects its last
    points once more, so the returned weights (the empirical cell
    frequencies), final distortion and stationarity residual always
    describe the returned codebook.

    After the first pass, a sample is re-projected only if a distance
    bound cannot prove that it keeps its cell (Hamerly 2010); the
    assignments, and so every result, are those of a full scan.
    """
    y = np.ascontiguousarray(_as_samples(samples, cb0.dim))
    m = y.shape[0]
    n = cb0.n_points
    if n > m:
        raise ValueError(f"cannot fit {n} points to {m} samples")
    if not has_distinct_rows(y, n):
        raise ValueError(f"need at least {n} distinct samples")
    pts = cb0.points.copy()

    # Each sample keeps ``lower``, a lower bound on its distance to every
    # point but its own, and skips the scan while lower^2 exceeds its
    # squared distance to its own point by more than ``slack``.  The
    # slack is far larger than the rounding of the scan's surrogate and
    # of these distances, so a skipped sample's nearest point is strictly
    # its own.  Every point stays in the hull of the samples and the
    # first points, so this max |p|^2 bounds them all.
    y2 = _column_sum(y * y)
    p2 = float(_column_sum(pts * pts).max())
    slack = _BOUND_SLACK * (y2 + max(p2, float(y2.max())))
    idx, lower = _project(y, y2, pts)
    projections = m

    history: list[float] = []
    prev_d2 = None
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        sqd = _quadratic_error(y, pts, idx)
        if iterations > 1:
            gap = lower * lower
            gap -= slack
            stale = np.flatnonzero(gap <= sqd)
            if stale.size:
                ys = y.take(stale, axis=0)
                near, lower[stale] = _project(ys, y2[stale], pts)
                idx[stale] = near
                sqd[stale] = _quadratic_error(ys, pts, near)
                projections += stale.size
        counts = np.bincount(idx, minlength=n)
        guard = 0
        while (counts == 0).any():
            far = int(np.argmax(sqd))
            hole = int(np.flatnonzero(counts == 0)[0])
            if sqd[far] == 0.0:
                # Fewer distinct samples than points; cannot split further.
                break
            pts[hole] = y[far]
            idx, lower = _project(y, y2, pts)
            projections += m
            counts = np.bincount(idx, minlength=n)
            sqd = _quadratic_error(y, pts, idx)
            guard += 1
            if guard > n:
                break
        d2 = float(sqd.mean())
        history.append(math.sqrt(d2))
        if prev_d2 is not None and abs(prev_d2 - d2) <= tol * prev_d2:
            converged = True
            break
        prev_d2 = d2
        # centroid update
        sums = _cell_sums(y, idx, n)
        nonzero = counts > 0
        moved = sums[nonzero] / counts[nonzero, None]
        shift = math.sqrt(float(_column_sum((moved - pts[nonzero]) ** 2).max()))
        pts[nonzero] = moved
        # no distance to another point falls by more than the largest
        # shift; rounded outward, the bound stays below the true one
        lower -= shift * (1.0 + _BOUND_ROUNDING)
        np.maximum(lower, 0.0, out=lower)
        lower *= 1.0 - _BOUND_ROUNDING

    if not converged:
        # the last pass moved the points after their projection
        _scan(y, pts, idx)
        projections += m
        history.append(math.sqrt(float(_quadratic_error(y, pts, idx).mean())))
        log.warning("lloyd_optimize stopped at max_iter=%d (last distortion %.3g)",
                    max_iter, history[-1])
    counts = np.bincount(idx, minlength=n)
    sums = _cell_sums(y, idx, n)
    nonzero = counts > 0  # never all False: every sample has a cell
    centroids = sums[nonzero] / counts[nonzero, None]
    residual = float(
        np.max(np.sqrt(((centroids - pts[nonzero]) ** 2).sum(axis=1)))
    )
    weights = counts / counts.sum()
    report = OptimizerReport(
        iterations=iterations,
        final_distortion=history[-1],
        distortion_history=history,
        stationarity_residual=residual,
        converged=converged,
        projections=projections,
    )
    if not all(b <= a * (1.0 + 1e-12) for a, b in zip(history, history[1:])):
        raise ArithmeticError("distortion increased during iteration")
    return Codebook(pts, weights), report


def clvq_optimize(samples, cb0: Codebook) -> tuple[Codebook, OptimizerReport]:
    """Online codebook descent: pull the nearest point toward each sample.

    One step per row of the ``(M, d)`` array ``samples``, in row order:
    for the ``t``-th row the nearest point (the smallest index on ties)
    moves by the fraction ``1 / (100 N + t)`` of its offset (the harmonic
    schedule sums to infinity while its squares stay summable).  Only the
    points are tuned: the returned codebook has no weights and the report
    no distortion, since a caller that needs either projects its own
    sample.  No rows return ``cb0`` itself, and so does a pass that makes
    two points coincide, with ``converged`` false; a non-finite point
    raises ``ValueError``.

    Codebooks of up to ``_CLVQ_FLOAT_POINTS`` 2-D points step on Python
    floats, larger ones on numpy arrays; both make the same float
    operations in the same order, so the points are the same bits.
    """
    y = np.asarray(samples, dtype=float).reshape(len(samples), cb0.dim)
    if len(y) == 0:
        return cb0, OptimizerReport(iterations=0, final_distortion=math.nan)
    if cb0.dim == 2 and cb0.n_points <= _CLVQ_FLOAT_POINTS:
        pts = _clvq_floats(y, cb0.points)
    else:
        pts = _clvq_array(y, cb0.points)
    cb = _distinct_codebook(pts)
    report = OptimizerReport(iterations=len(y), final_distortion=math.nan,
                             converged=cb is not None, projections=len(y))
    return (cb0 if cb is None else cb), report


def _clvq_array(y: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The points after :func:`clvq_optimize`'s steps over the rows of ``y``."""
    n = len(points)
    pts = points.copy()
    for t, xv in enumerate(y, start=1):
        i = int(((pts - xv) ** 2).sum(axis=1).argmin())
        pts[i] += (1.0 / (100.0 * n + t)) * (xv - pts[i])
    return pts


def _clvq_floats(y: np.ndarray, points: np.ndarray) -> np.ndarray:
    """:func:`_clvq_array` for 2-D points, one Python float a coordinate.

    The same operations in the same order: a squared distance is
    ``dx * dx + dy * dy`` (a two-term sum rounds once, in any order), the
    first minimum wins (strict ``<``, as ``argmin``) and a step adds
    ``s * (x - p)`` to each coordinate.  Finite inputs give the same bits.
    A non-finite sample leaves a non-finite point on both loops, since no
    step makes such a point finite again, though the two may move other
    points differently after it.
    """
    n = len(points)
    xs, ys = points[:, 0].tolist(), points[:, 1].tolist()
    rest = range(1, n)
    base = 100.0 * n
    t = 0
    for a, b in y.tolist():
        t += 1
        dx = xs[0] - a
        dy = ys[0] - b
        best = dx * dx + dy * dy
        i = 0
        for j in rest:
            dx = xs[j] - a
            dy = ys[j] - b
            d = dx * dx + dy * dy
            if d < best:
                best = d
                i = j
        s = 1.0 / (base + t)
        xs[i] += s * (a - xs[i])
        ys[i] += s * (b - ys[i])
    return np.column_stack((xs, ys))


def _norm_pdf(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def newton_optimize_1d_normal(
    n: int, max_iter: int = 100, tol: float = 1e-12
) -> Codebook:
    """Quadratic-optimal ``n``-point codebook of the standard normal.

    Solves the stationarity system (each point the conditional mean of its
    midpoint-bounded cell) by a damped Newton iteration on the distortion
    gradient, using the closed-form normal density and distribution
    function.  The result is symmetric about zero and carries the exact
    cell probabilities as weights.  If the iteration has not met ``tol``
    after ``max_iter`` steps the last iterate is returned and a warning is
    logged.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return Codebook(np.zeros((1, 1)), np.ones(1))

    # start at the distribution quantiles, symmetric by construction
    y = np.array([NormalDist().inv_cdf((2.0 * i - 1.0) / (2.0 * n))
                  for i in range(1, n + 1)])

    def gradient_and_cells(yv):
        mids = 0.5 * (yv[:-1] + yv[1:])
        cdf = np.concatenate(([0.0], [norm_cdf(m) for m in mids], [1.0]))
        pdf = np.concatenate(([0.0], _norm_pdf(mids), [0.0]))
        mass = np.diff(cdf)  # cell probabilities
        mean = pdf[:-1] - pdf[1:]  # integral of u phi(u) over each cell
        grad = 2.0 * (yv * mass - mean)
        return grad, mass, pdf

    converged = False
    for _ in range(max_iter):
        grad, mass, pdf = gradient_and_cells(y)
        if np.max(np.abs(grad)) < tol:
            converged = True
            break
        gaps = np.diff(y)
        edge = 0.5 * pdf[1:-1] * gaps  # phi(mid) * (y_{i+1}-y_i) / 2
        h = np.zeros((n, n))
        diag = 2.0 * mass
        diag[:-1] -= edge
        diag[1:] -= edge
        h[np.arange(n), np.arange(n)] = diag
        h[np.arange(n - 1), np.arange(1, n)] = -edge
        h[np.arange(1, n), np.arange(n - 1)] = -edge
        step = np.linalg.solve(h, grad)
        scale = 1.0
        for _ in range(40):
            cand = y - scale * step
            if np.all(np.diff(cand) > 0):
                break
            scale *= 0.5
        y = y - scale * step
        y = 0.5 * (y - y[::-1])  # keep the exact symmetry of the optimum
    grad, mass, _ = gradient_and_cells(y)
    if not converged:
        log.warning("newton_optimize_1d_normal(%d): |grad|=%.2e after %d iters",
                    n, float(np.max(np.abs(grad))), max_iter)
    return Codebook(y[:, None], mass)
