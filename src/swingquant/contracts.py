"""Volume-constraint arithmetic for swing contracts.

A swing contract grants one purchase decision per date, each bounded by
local volume limits, with the cumulated volume bounded globally.  After
normalising the local bounds to [0, 1] (splitting off a swap leg), the
whole pricing state reduces to the pair of residual global bounds.  This
module owns that pair: contract normalisation, the one-step update of the
residual bounds, the admissible purchase interval, the set of residual
pairs attainable under 0/1 purchasing, the triangular tiling of the
admissible set, and affine interpolation of premium surfaces over it.

Everything here is pure arithmetic on immutable values and is safe to
call concurrently.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "TOL",
    "ContractError",
    "InfeasibleContractError",
    "ConstraintViolationError",
    "SurfaceIncompleteError",
    "GlobalConstraints",
    "RawContract",
    "PremiumSurface",
    "normalize_contract",
    "advance_constraints",
    "admissible_interval",
    "locate_tile",
    "reachable_set",
    "reachable_count",
    "interpolate_on_tile",
    "integer_vertices",
]

# Absolute tolerance on tile-membership inequalities.  Constraint values come
# from exact arithmetic on user inputs, so this only guards barycentric
# rounding.
TOL = 1e-12


class ContractError(ValueError):
    """Invalid contract data."""


class InfeasibleContractError(ContractError):
    """The volume constraints admit no feasible purchase schedule."""


class ConstraintViolationError(ContractError):
    """An operation was called outside its admissible domain."""


class SurfaceIncompleteError(ContractError):
    """A premium surface is missing a vertex value needed for interpolation."""


@dataclass(frozen=True)
class GlobalConstraints:
    """Residual global volume bounds ``(q_lo, q_hi)``, in normalised units.

    ``q_lo`` is the volume still owed, ``q_hi`` the volume still allowed.
    Both are nonnegative and ``q_lo <= q_hi``; at time ``k`` of an
    ``n``-date problem a valid pair additionally satisfies
    ``q_hi <= n - k``, which the consuming operations enforce.
    """

    q_lo: float
    q_hi: float

    def __post_init__(self) -> None:
        lo = float(self.q_lo)
        hi = float(self.q_hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConstraintViolationError(f"non-finite constraints ({lo}, {hi})")
        if lo < 0.0 or lo > hi:
            raise ConstraintViolationError(
                f"need 0 <= q_lo <= q_hi, got ({lo}, {hi})"
            )
        object.__setattr__(self, "q_lo", lo)
        object.__setattr__(self, "q_hi", hi)

    def as_tuple(self) -> tuple[float, float]:
        return (self.q_lo, self.q_hi)

    @property
    def is_integer(self) -> bool:
        return self.q_lo == int(self.q_lo) and self.q_hi == int(self.q_hi)


@dataclass(frozen=True)
class RawContract:
    """A swing contract before normalisation.

    ``n`` exercise dates, local purchase bounds ``q_min <= q_max`` per date,
    global bounds ``Q_min <= Q_max`` on the cumulated purchase, continuously
    compounded rate ``r`` and one strike per date.
    """

    n: int
    q_min: float
    q_max: float
    Q_min: float
    Q_max: float
    r: float
    strikes: tuple[float, ...]

    def __post_init__(self) -> None:
        if int(self.n) != self.n or self.n < 1:
            raise ContractError(f"n must be a positive integer, got {self.n}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "strikes", tuple(float(k) for k in self.strikes))
        if len(self.strikes) != self.n:
            raise ContractError(
                f"expected {self.n} strikes, got {len(self.strikes)}"
            )
        if self.q_min > self.q_max:
            raise ContractError("q_min must not exceed q_max")
        if not (0.0 <= self.Q_min <= self.Q_max):
            raise ContractError("need 0 <= Q_min <= Q_max")
        if self.n * self.q_min > self.Q_max:
            raise InfeasibleContractError(
                "mandatory local purchases exceed the global allowance "
                f"({self.n} * {self.q_min} > {self.Q_max})"
            )


def normalize_contract(
    contract: RawContract,
) -> tuple[float, float, GlobalConstraints]:
    """Split a raw contract into a swap leg and a normalised swing.

    Returns ``(swap_weight, swing_weight, constraints)`` such that the raw
    premium equals ``swap_weight * swap + swing_weight * swing`` where the
    swing has per-date purchases in [0, 1] and global bounds ``constraints``.
    ``swap_weight`` is the mandatory per-date volume ``q_min`` and
    ``swing_weight`` the optional span ``q_max - q_min``.

    Raises :class:`InfeasibleContractError` if even buying ``q_max`` at every
    date cannot reach ``Q_min``.
    """
    n = contract.n
    if n * contract.q_max < contract.Q_min:
        raise InfeasibleContractError(
            "maximal local purchases cannot reach the global floor "
            f"({n} * {contract.q_max} < {contract.Q_min})"
        )
    span = contract.q_max - contract.q_min
    if span == 0.0:
        # Pure swap: every date is a forced purchase of q_min.
        return contract.q_min, 0.0, GlobalConstraints(0.0, 0.0)
    hi = min((contract.Q_max - n * contract.q_min) / span, float(n))
    lo = min(max((contract.Q_min - n * contract.q_min) / span, 0.0), hi)
    return contract.q_min, span, GlobalConstraints(lo, hi)


def advance_constraints(
    q: GlobalConstraints, x: float, remaining: int
) -> GlobalConstraints:
    """Residual bounds after purchasing ``x`` with ``remaining`` future dates.

    The floor is reduced and clamped at zero, the cap is reduced and cannot
    exceed what ``remaining`` dates of unit purchases can absorb:
    ``((q_lo - x)^+, min(q_hi - x, remaining))``.

    ``x`` must lie in ``admissible_interval(q, remaining)`` (within
    :data:`TOL`), otherwise :class:`ConstraintViolationError` is raised.
    """
    if remaining < 0:
        raise ConstraintViolationError("remaining dates must be >= 0")
    lo, hi = admissible_interval(q, remaining)
    if x < lo - TOL or x > hi + TOL:
        raise ConstraintViolationError(
            f"purchase {x} outside admissible interval [{lo}, {hi}]"
        )
    x = min(max(x, lo), hi)
    return GlobalConstraints(max(q.q_lo - x, 0.0), min(q.q_hi - x, float(remaining)))


def admissible_interval(q: GlobalConstraints, remaining: int) -> tuple[float, float]:
    """Feasible purchase range now, given ``remaining`` future dates.

    ``[min((q_lo - remaining)^+, 1), min(q_hi, 1)]``: buy at least what the
    remaining dates cannot cover, at most one unit and never beyond the cap.
    """
    lo = min(max(q.q_lo - remaining, 0.0), 1.0)
    hi = min(q.q_hi, 1.0)
    return (lo, hi)


def _box_index(x: float, n: int) -> int:
    """Smallest box index whose closed unit interval contains coordinate x."""
    r = round(x)
    if abs(x - r) <= TOL:
        # Integer coordinate: prefer the lower box when one exists.
        return min(max(int(r) - 1, 0), n - 1)
    return min(max(int(math.floor(x)), 0), n - 1)


def locate_tile(q: GlobalConstraints, n: int) -> tuple[tuple[int, int], ...]:
    """The three integer corners of the tile of the ``n``-date admissible
    set containing ``q``.

    The unit box ``[i, i+1] x [j, j+1]`` splits along its diagonal
    ``v = u + j - i`` into an upper triangle (``v >= u + j - i``), with
    corners ``(i, j), (i, j+1), (i+1, j+1)``, and, when ``i < j``, a lower
    one (``v <= u + j - i``), with corners ``(i, j), (i+1, j), (i+1, j+1)``.
    Premium surfaces are affine on each tile.

    Ties are deterministic: shared edges resolve to the tile with the
    lexicographically smallest ``(i, j)``, then to the upper triangle.
    Premium continuity makes the choice value-irrelevant.  The cap
    coordinate is clamped to ``n`` before locating (a cap beyond ``n`` can
    never bind).  Points outside the admissible set are rejected.
    """
    if n < 1:
        raise ConstraintViolationError("n must be >= 1")
    u = q.q_lo
    v = min(q.q_hi, float(n))
    if u > float(n) + TOL or v < u - TOL:
        raise ConstraintViolationError(
            f"constraints ({q.q_lo}, {q.q_hi}) outside the admissible set for n={n}"
        )
    u = min(u, float(n))
    v = max(v, u)
    i = _box_index(u, n)
    j = max(_box_index(v, n), i)
    if i == j or (v - u) >= (j - i) - TOL:
        return ((i, j), (i, j + 1), (i + 1, j + 1))
    return ((i, j), (i + 1, j), (i + 1, j + 1))


def reachable_set(
    q0: GlobalConstraints, k: int, n: int
) -> list[GlobalConstraints]:
    """Residual bound pairs attainable at date ``k`` under 0/1 purchasing.

    Starting from integer bounds ``q0`` on an ``n``-date contract, after
    ``k`` dates the cumulated purchase is some integer ``l`` and the
    residual pair is ``((q0_lo - l)^+, min(q0_hi - l, n - k))``.  Only
    feasible ``l`` are included (enough must already have been bought for
    the remaining ``n - k`` dates to cover the floor), duplicates are
    dropped, and the list is ordered by increasing ``l``.
    """
    if not q0.is_integer:
        raise ConstraintViolationError(
            f"reachable sets are defined for integer constraints, got {q0.as_tuple()}"
        )
    if not (0 <= k <= n):
        raise ConstraintViolationError(f"need 0 <= k <= n, got k={k}, n={n}")
    if q0.q_hi > n:
        raise ConstraintViolationError(
            f"cap {q0.q_hi} exceeds the {n}-date horizon"
        )
    lo0 = int(q0.q_lo)
    hi0 = int(q0.q_hi)
    cap = n - k
    # dict keys keep the first of equal pairs, in purchase order
    pairs = dict.fromkeys(
        (max(lo0 - bought, 0), min(max(hi0 - bought, 0), cap))
        for bought in range(max(lo0 - cap, 0), k + 1))
    return [GlobalConstraints(lo, hi) for lo, hi in pairs]


def reachable_count(q0: GlobalConstraints, k: int, n: int) -> int:
    """Closed-form cardinality of :func:`reachable_set`.

    With ``L = (q0_lo - (n-k))^+``::

        (k - L + 1) - (k - q0_hi)^+ - (min(q0_hi - (n-k) - 1, k - 1) - q0_lo + 1)^+

    The first term counts feasible purchase levels, the second removes the
    exhausted-cap duplicates, the third the levels on which the horizon cap
    and the zero floor both saturate.
    """
    if not q0.is_integer:
        raise ConstraintViolationError("integer constraints required")
    lo0 = int(q0.q_lo)
    hi0 = int(q0.q_hi)
    cap = n - k
    l_min = max(lo0 - cap, 0)
    tail = max(k - hi0, 0)
    flat = max(min(hi0 - cap - 1, k - 1) - lo0 + 1, 0)
    return (k - l_min + 1) - tail - flat


@dataclass
class PremiumSurface:
    """Premium values on the integer vertices of the admissible set.

    ``values[(i, j)]`` is the premium of the contract with global bounds
    ``(i, j)``, for ``0 <= i <= j <= n``.  Off-vertex premia follow by
    affine interpolation on the containing tile
    (:func:`interpolate_on_tile`).
    """

    n: int
    values: dict[tuple[int, int], float] = field(default_factory=dict)

    def value(self, i: int, j: int) -> float:
        try:
            return self.values[(i, j)]
        except KeyError:
            raise SurfaceIncompleteError(
                f"surface has no value at vertex ({i}, {j})"
            ) from None


def integer_vertices(n: int) -> list[tuple[int, int]]:
    """All integer pairs ``(i, j)`` with ``0 <= i <= j <= n``."""
    return [(i, j) for j in range(n + 1) for i in range(j + 1)]


def interpolate_on_tile(surface: PremiumSurface, q: GlobalConstraints) -> float:
    """Premium at ``q`` by barycentric interpolation on its tile.

    Exact at vertices and continuous across tile edges; requires the
    surface to hold values at the three corners of the located tile.
    """
    a, b, c = locate_tile(q, surface.n)
    fa = surface.value(*a)
    fb = surface.value(*b)
    fc = surface.value(*c)
    du = min(q.q_lo, float(surface.n)) - a[0]
    dv = min(q.q_hi, float(surface.n)) - a[1]
    # s is the step from a to b, t the step from b to c
    s, t = (dv, du) if b[1] > a[1] else (du, dv)
    return fa + s * (fb - fa) + t * (fc - fb)
