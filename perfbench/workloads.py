"""Workload definitions and the inputs each run generates from its seed.

A workload is a pricing desk: one fixed pricer configuration (model,
grid size, sample count, optimizer, pipeline seed) and market data plus a
book of global-bound pairs drawn from the run's ``--seed``.  The program
only ever sees the files written here: ``config.json`` and
``forward.csv``.

The pricer's own Monte-Carlo seed is part of the desk's configuration and
does not follow ``--seed``.  Drawing it from ``--seed`` would change the
fitted grids, and with them the Lloyd work and the accuracy, from run to
run: on ``month_desk`` five pipeline seeds gave strip errors from 0.016
to 0.035.
"""
from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path

# The paper's two-factor model.
MODEL = {"alpha1": 0.21, "alpha2": 5.4, "sigma1": 0.36, "sigma2": 1.11,
         "rho": -0.11}
LEVEL = 20.0  # the paper's forward and strike


@dataclass(frozen=True)
class Workload:
    name: str
    n: int                    # exercise dates
    T: float                  # horizon in years
    r: float                  # discount rate
    season: float             # seasonal amplitude of the forward curve
    n_bar: int                # grid size
    n_samples: int            # simulated paths for the tree
    optimizer: str
    pipeline_seed: int
    policy_paths: int
    int_fractions: tuple[tuple[float, float], ...]   # one quote per pair
    interp_quotes: int        # non-integer quotes per book round
    strip_tol: float          # accepted |P(0, n) - strip| / strip


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="month_desk",
            n=30, T=30 / 365, r=0.0, season=0.0,
            n_bar=16, n_samples=200_000, optimizer="clvq-lloyd",
            pipeline_seed=7, policy_paths=10_000,
            int_fractions=((0.1, 0.4), (0.2, 0.6), (0.3, 0.8), (0.5, 0.9),
                           (0.0, 1.0), (0.6, 1.0)),
            interp_quotes=6, strip_tol=0.06,
        ),
        Workload(
            name="year_book",
            n=365, T=1.0, r=0.02, season=0.2,
            n_bar=6, n_samples=8_000, optimizer="clvq",
            pipeline_seed=11, policy_paths=10_000,
            int_fractions=((0.1, 0.3), (0.3, 0.6), (0.2, 0.8), (0.4, 0.9)),
            interp_quotes=2, strip_tol=0.2,
        ),
    )
}


@dataclass(frozen=True)
class Market:
    strike: float             # flat strike, at the level of the curve
    forward: list[float]      # initial marks
    remark: list[float]       # marks after the re-mark
    int_book: list[tuple[int, int]]
    interp_book: list[tuple[float, float]]


def make_market(w: Workload, seed: int) -> Market:
    """Forward marks, their re-mark and the book, all from ``seed``.

    The strike moves with the level of the re-marked curve, and the
    seasonal shape peaks in winter (at the start of the year) on every
    seed, so that moneyness, which sets the quantization error of the
    strip, stays alike across seeds.  The
    integer book holds one pair near each of ``w.int_fractions`` (as
    fractions of ``n``), so that a round's work is alike across seeds.
    """
    rng = random.Random(f"{w.name}:{seed}")
    strike = LEVEL * rng.uniform(0.9, 1.1)
    remark = [
        strike * (1.0 + w.season * math.cos(2 * math.pi * k * w.T / w.n)
                  + rng.gauss(0.0, 0.002))
        for k in range(w.n)
    ]
    shift = rng.uniform(-0.02, 0.02)
    forward = [f * (1.0 + shift + rng.gauss(0.0, 0.002)) for f in remark]

    jitter = max(1, w.n // 60)
    int_book = []
    for lo_frac, hi_frac in w.int_fractions:
        lo = min(max(round(lo_frac * w.n) + rng.randint(-jitter, jitter), 0), w.n)
        hi = min(max(round(hi_frac * w.n) + rng.randint(-jitter, jitter), lo), w.n)
        int_book.append((lo, hi))
    interp_book = []
    for _ in range(w.interp_quotes):
        u = rng.uniform(0.0, w.n - 1.0)
        v = rng.uniform(u, float(w.n))
        if u == int(u) or v == int(v):
            u, v = math.floor(u) + 0.5, math.floor(v) + 0.5
        interp_book.append((u, v))
    return Market(strike, forward, remark, int_book, interp_book)


def config_doc(w: Workload, strike: float) -> dict:
    return {
        "model": dict(MODEL, r=w.r, T=w.T, n=w.n, forward="forward.csv",
                      strike=strike),
        "pricing": {
            "Q_min": 0, "Q_max": w.n,
            "N_bar": w.n_bar, "n_samples": w.n_samples,
            "seed": w.pipeline_seed, "policy_paths": w.policy_paths,
            "optimizer": w.optimizer,
        },
        "output": {"directory": "out", "formats": ["json", "csv"]},
    }


def write_curve(path: Path, values: list[float]) -> None:
    path.write_text("".join(f"{v!r}\n" for v in values))


def write_inputs(w: Workload, seed: int, directory: Path) -> tuple[Path, Market]:
    """Write the desk's config and initial forward curve; return the config."""
    market = make_market(w, seed)
    directory.mkdir(parents=True, exist_ok=True)
    write_curve(directory / "forward.csv", market.forward)
    config = directory / "config.json"
    config.write_text(json.dumps(config_doc(w, market.strike), indent=2) + "\n")
    return config, market


def import_program(root: Path):
    """Import ``swingquant.cli`` from the checkout's ``src`` tree, or exit 2."""
    src = root / "src"
    if not (src / "swingquant" / "cli.py").is_file():
        print(f"perfbench: no program source under {src}", file=sys.stderr)
        raise SystemExit(2)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    from swingquant import cli

    if Path(cli.__file__).resolve().parents[1] != src.resolve():
        print(f"perfbench: imported {cli.__file__}, not the checkout's copy",
              file=sys.stderr)
        raise SystemExit(2)
    return cli
