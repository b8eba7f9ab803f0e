"""Command-line front end.

Orchestrates the pipeline (simulate, fit grids, estimate transitions,
price) from a JSON configuration, with content-addressed caching of the
built tree artifacts so repeated pricing and surface runs skip the
expensive estimation stages.  All outputs are deterministic given the
configuration and seeds, except three wall-clock measurements: the
``timings`` field of the ``price`` report and of the ``tree`` command's
output, and the ``wall_seconds`` column of ``converge.csv``.
"""
from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import math
import os
import shutil
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import click
import numpy as np

from . import __version__
from .contracts import (
    ConstraintViolationError,
    GlobalConstraints,
    InfeasibleContractError,
    PremiumSurface,
    interpolate_on_tile,
    locate_tile,
)
from .model import (
    TwoFactorParams,
    as_integer,
    as_real,
    closed_form_strip,
    dynamics_to_dict,
    params_from_dict,
    simulate_factor_paths,
    spot_and_payoff,
)
from .tree import (
    DEFAULT_OPTIMIZER,
    TRANSITION_SCHEME,
    PolicyReplay,
    QuantTree,
    _check_fit,
    build_tree,
    extract_and_value_policy,
    integer_prices,
    load_policy_replay,
    load_tree,
    premium_surface,
    quantized_dp_price,
    save_policy_replay,
    save_tree,
)

log = logging.getLogger(__name__)

CONFIG_ENV_VAR = "SWINGQUANT_CONFIG"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_NUMERICAL = 4

# What loading a damaged tree or replay entry raises: a missing or
# truncated file, or a manifest or array that does not parse or fit.
DAMAGED_ENTRY = (OSError, EOFError, ValueError)

PRICE_REPORT_SCHEMA = {
    "type": "object",
    "required": ["price", "mc_policy_value", "std_err", "N_bar", "seeds",
                 "timings", "Q_min", "Q_max"],
    "properties": {
        "price": {"type": "number"},
        "mc_policy_value": {"type": ["number", "null"]},
        "std_err": {"type": ["number", "null"]},
        "N_bar": {"type": "integer"},
        "Q_min": {"type": "number"},
        "Q_max": {"type": "number"},
        "seeds": {
            "type": "object",
            "required": ["pipeline", "policy"],
            "properties": {"pipeline": {"type": "integer"},
                           "policy": {"type": "integer"}},
        },
        "timings": {"type": "object"},
        "interpolated": {"type": "boolean"},
    },
}


class ConfigError(ValueError):
    """Configuration file missing, malformed or out of documented ranges."""


@dataclass
class RunConfig:
    params: TwoFactorParams
    q_lo: float
    q_hi: float
    n_bar: int
    n_samples: int
    seed: int
    policy_paths: int
    policy_seed: int
    optimizer: str
    out_dir: Path


def load_config(path, seed_override=None, out_override=None) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text())
    except (json.JSONDecodeError, OSError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(doc, "config", ("model", "pricing", "output"))
    if "model" not in doc:
        raise ConfigError("config missing the 'model' section")
    try:
        params = params_from_dict(doc["model"], base_dir=path.parent)
    except (KeyError, ValueError, TypeError, OSError) as exc:
        raise ConfigError(f"bad model section: {exc}") from exc

    pricing = _section(doc, "pricing")
    _reject_unknown(pricing, "pricing", ("N_bar", "n_samples", "seed",
                                         "policy_paths", "policy_seed",
                                         "Q_min", "Q_max", "optimizer"))
    output = _section(doc, "output")
    try:
        n_bar = as_integer(pricing.get("N_bar", 100), "N_bar")
        n_samples = as_integer(pricing.get("n_samples", 200_000), "n_samples")
        seed = as_integer(pricing.get("seed", 0) if seed_override is None
                          else seed_override, "seed")
        policy_paths = as_integer(pricing.get("policy_paths", 10_000),
                                  "policy_paths")
        policy_seed = as_integer(pricing.get("policy_seed", seed + 1),
                                 "policy_seed")
        q_lo = as_real(pricing.get("Q_min", 0.0), "Q_min")
        q_hi = as_real(pricing.get("Q_max", params.n), "Q_max")
        optimizer = str(pricing.get("optimizer", DEFAULT_OPTIMIZER))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad pricing section: {exc}") from exc
    try:
        _check_fit(n_bar, n_samples, optimizer)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if seed < 0 or policy_seed < 0:
        raise ConfigError("seeds must be >= 0")
    if policy_paths < 2:
        raise ConfigError("policy_paths must be >= 2")
    _check_bounds(q_lo, q_hi)

    directory = output.get("directory", "swingquant-out")
    if not isinstance(directory, str):
        raise ConfigError(f"output directory must be a string: {directory!r}")
    out_dir = Path(out_override) if out_override else Path(directory)
    if not out_dir.is_absolute():
        out_dir = (path.parent / out_dir).resolve()
    return RunConfig(
        params=params, q_lo=q_lo, q_hi=q_hi, n_bar=n_bar, n_samples=n_samples,
        seed=seed, policy_paths=policy_paths, policy_seed=policy_seed,
        optimizer=optimizer, out_dir=out_dir,
    )


def _section(doc: dict, name: str) -> dict:
    """The optional object ``doc[name]``, empty when absent."""
    section = doc.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"the {name!r} section must be a JSON object")
    return section


def _reject_unknown(section: dict, name: str, known) -> None:
    """Reject a misspelt key instead of reading its default."""
    unknown = sorted(set(section) - set(known))
    if unknown:
        raise ConfigError(f"unknown {name} keys: {', '.join(unknown)}")


def _check_bounds(q_lo: float, q_hi: float) -> None:
    """Reject NaN and infinite global bounds as configuration errors."""
    if not (math.isfinite(q_lo) and math.isfinite(q_hi)):
        raise ConfigError(f"global bounds ({q_lo}, {q_hi}) must be finite")


@contextmanager
def output_lock(out_dir: Path):
    """Single-writer guard: refuses to run against a locked directory.

    Holds an exclusive ``flock`` on ``<out>/.lock`` for the whole run.  The
    kernel releases it when the holder exits or dies, so a crashed run
    blocks nobody; the file itself stays.  A path that cannot be made a
    directory or hold the lock file is a :class:`ConfigError`; errors of
    the guarded body pass through.
    """
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        fh = open(out_dir / ".lock", "a")
    except OSError as exc:
        raise ConfigError(f"cannot use output directory: {exc}") from exc
    with fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ConfigError(
                f"output directory {out_dir} is locked by another run"
            ) from None
        yield


def _tree_fields(cfg: RunConfig) -> dict:
    """The build settings a tree entry is hashed under and records."""
    return {
        "N_bar": cfg.n_bar,
        "n_samples": cfg.n_samples,
        "seed": cfg.seed,
        "optimizer": cfg.optimizer,
        "package_version": __version__,
    }


def tree_cache_key(cfg: RunConfig) -> str:
    """Hash of what the grids and transitions depend on.

    The forward curve, the strikes and the rate enter only the payoffs,
    which :func:`ensure_tree` re-derives, so they stay out of the key.
    """
    payload = {
        "dynamics": dynamics_to_dict(cfg.params),
        "scheme": TRANSITION_SCHEME,
        **_tree_fields(cfg),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _remove(path: Path) -> None:
    """Delete whatever stands at ``path``: a directory tree or a file."""
    if path.is_dir() and not path.is_symlink():
        shutil.rmtree(path)
    else:
        path.unlink(missing_ok=True)


def _load(entry: Path, load):
    """``load(entry)``, or ``None`` when the caller must build the entry.

    That is when nothing stands at ``entry``, or when the load raises a
    :data:`DAMAGED_ENTRY` error: then whatever stands there, a directory
    or a regular file, is deleted.
    """
    if not entry.exists():
        return None
    try:
        return load(entry)
    except DAMAGED_ENTRY as exc:
        log.warning("cache entry %s rejected: %s; rebuilding", entry, exc)
        _remove(entry)
        return None


@contextmanager
def _publish(entry: Path, stale):
    """Yield ``<entry>.partial/`` to write a cache entry into, then publish it.

    A ``.partial`` left by an interrupted run is cleared first.  The entry
    appears under its own name only by the final rename, so one that
    exists was written in full.  Then every other sibling for which
    ``stale(sibling)`` holds is deleted, under the caller's output lock.
    """
    partial = entry.with_name(entry.name + ".partial")
    _remove(partial)
    partial.mkdir(parents=True)
    yield partial
    os.rename(partial, entry)
    for other in entry.parent.iterdir():
        if other != entry and stale(other):
            _remove(other)


def _cannot_hit(other: Path) -> bool:
    """Whether a sibling of a tree entry is one no run can hit again: the
    ``.partial`` of an interrupted build, or an entry whose manifest names
    another ``package_version``.  Entries of other settings stay, as does
    one whose manifest does not parse, until a run that wants its key
    rebuilds it.
    """
    try:
        return other.name.endswith(".partial") or json.loads(
            (other / "manifest.json").read_text()
        )["package_version"] != __version__
    except (OSError, ValueError, TypeError, KeyError):
        return False


def ensure_tree(cfg: RunConfig) -> tuple[QuantTree, dict, dict]:
    """Build or reload the tree for the configuration.

    Returns ``(tree, manifest, timings)``.  Artifacts live under
    ``<out>/cache/<key>`` and hold only what the key hashes (grids,
    transitions, manifest), beside the policy replays of
    :func:`ensure_replay`.  A hit derives the payoffs from the configured
    curves, and ``timings`` holds only ``load_seconds``.  An entry whose
    load raises a :data:`DAMAGED_ENTRY` error (a missing or truncated
    file, a damaged manifest, other dynamics, a regular file in place of
    the directory) or whose key differs is deleted and rebuilt
    (:func:`_load`).  Publishing an entry prunes the cache of what can
    never hit again (:func:`_cannot_hit`).
    """
    key = tree_cache_key(cfg)
    cache_dir = cfg.out_dir / "cache" / key

    def load(entry):
        tree, manifest = load_tree(entry, cfg.params)
        if manifest.get("cache_key") != key:
            raise ValueError(f"it holds key {manifest.get('cache_key')}")
        return tree, manifest

    t0 = time.perf_counter()
    hit = _load(cache_dir, load)
    if hit is not None:
        log.info("cache hit: %s", cache_dir)
        return *hit, {"load_seconds": time.perf_counter() - t0}
    t0 = time.perf_counter()
    tree = build_tree(
        cfg.params, cfg.n_bar, cfg.n_samples, cfg.seed, cfg.optimizer
    )
    timings = {"build_tree_seconds": time.perf_counter() - t0}
    t0 = time.perf_counter()
    with _publish(cache_dir, _cannot_hit) as partial:
        manifest = save_tree(tree, partial,
                             {**_tree_fields(cfg), "cache_key": key})
    timings["persist_seconds"] = time.perf_counter() - t0
    return tree, manifest, timings


def ensure_replay(cfg: RunConfig, tree: QuantTree,
                  cache_dir: Path) -> tuple[PolicyReplay, dict]:
    """Load or build the policy replay of the tree cached in ``cache_dir``.

    The replay lives beside the tree, in
    ``replay-<policy_seed>-<policy_paths>/``, so it goes with the tree
    when that is rebuilt.  It is written by :func:`save_policy_replay`
    and loaded, published and rejected by the tree's rules (:func:`_load`,
    :func:`_publish`), and either way read back by
    :func:`load_policy_replay`: the nodes in memory, the factors read
    from the entry's file one date's row at a time as they are valued.
    A key keeps one replay: publishing one deletes the key's other
    ``replay-*`` entries, finished or partial.  Returns ``(replay,
    timings)``, with ``replay_load_seconds`` on a hit and
    ``replay_build_seconds`` otherwise.
    """
    entry = cache_dir / f"replay-{cfg.policy_seed}-{cfg.policy_paths}"
    t0 = time.perf_counter()
    replay = _load(entry, lambda e: load_policy_replay(e, tree,
                                                       cfg.policy_paths))
    if replay is not None:
        return replay, {"replay_load_seconds": time.perf_counter() - t0}
    with _publish(entry, lambda p: p.name.startswith("replay-")) as partial:
        save_policy_replay(tree, cfg.policy_paths, cfg.policy_seed, partial)
    replay = load_policy_replay(entry, tree, cfg.policy_paths)
    return replay, {"replay_build_seconds": time.perf_counter() - t0}


def _constraints(cfg: RunConfig, q_lo, q_hi) -> GlobalConstraints:
    lo = cfg.q_lo if q_lo is None else float(q_lo)
    hi = cfg.q_hi if q_hi is None else float(q_hi)
    _check_bounds(lo, hi)
    n = cfg.params.n
    hi = min(hi, float(n))  # a cap beyond the horizon can never bind
    if lo > n:
        raise InfeasibleContractError(
            f"global floor {lo} cannot be met in {n} dates"
        )
    return GlobalConstraints(lo, hi)


def run_price(cfg: RunConfig, q_lo=None, q_hi=None, with_policy=True) -> dict:
    q = _constraints(cfg, q_lo, q_hi)
    tree, manifest, timings = ensure_tree(cfg)
    report = {
        "Q_min": q.q_lo,
        "Q_max": q.q_hi,
        "N_bar": cfg.n_bar,
        "seeds": {"pipeline": cfg.seed, "policy": cfg.policy_seed},
        "interpolated": not q.is_integer,
        "mc_policy_value": None,
        "std_err": None,
    }
    t0 = time.perf_counter()
    if q.is_integer and with_policy:
        price, policy = quantized_dp_price(tree, q)
        timings["dp_seconds"] = time.perf_counter() - t0
        replay, replay_timings = ensure_replay(
            cfg, tree, cfg.out_dir / "cache" / manifest["cache_key"])
        timings.update(replay_timings)
        t0 = time.perf_counter()
        mc_value, std_err = extract_and_value_policy(
            tree, policy, n_paths=cfg.policy_paths, seed=cfg.policy_seed,
            replay=replay)
        timings["policy_seconds"] = time.perf_counter() - t0
        report["mc_policy_value"] = mc_value
        report["std_err"] = std_err
    elif q.is_integer:
        (price,) = integer_prices(tree, [q])  # no policy, so no decisions
        timings["dp_seconds"] = time.perf_counter() - t0
    else:
        # the tile's three corners, priced together in one induction
        corners = locate_tile(q, tree.n)
        prices = integer_prices(
            tree, [GlobalConstraints(i, j) for i, j in corners])
        price = interpolate_on_tile(
            PremiumSurface(tree.n, dict(zip(corners, prices))), q)
        timings["dp_seconds"] = time.perf_counter() - t0
    if not math.isfinite(price):
        raise ArithmeticError(f"non-finite price {price}")
    report["price"] = price
    report["timings"] = timings
    return report


def run_surface(cfg: RunConfig) -> tuple[Path, Path]:
    tree, manifest, timings = ensure_tree(cfg)
    t0 = time.perf_counter()
    surface = premium_surface(tree)
    timings["surface_seconds"] = time.perf_counter() - t0
    csv_path = cfg.out_dir / "surface.csv"
    with csv_path.open("w") as fh:
        fh.write("Q_min,Q_max,price\n")
        for (i, j), value in surface.values.items():
            fh.write(f"{i},{j},{value!r}\n")
    meta = {
        "rows": len(surface.values),
        "n": tree.n,
        "cache_key": manifest.get("cache_key"),
        "N_bar": cfg.n_bar,
        "n_samples": cfg.n_samples,
        "seeds": {"pipeline": cfg.seed},
        "columns": ["Q_min", "Q_max", "price"],
    }
    meta_path = cfg.out_dir / "surface_meta.json"
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n")
    log.info("surface timings: %s", timings)
    return csv_path, meta_path


def run_converge(cfg: RunConfig, n_bars: list[int]) -> tuple[Path, list[dict]]:
    """Error of the fully-flexible corner against the closed-form strip."""
    target = closed_form_strip(cfg.params)
    n = cfg.params.n
    rows = []
    for n_bar in n_bars:
        t0 = time.perf_counter()
        tree, _, _ = ensure_tree(replace(cfg, n_bar=n_bar))
        (price,) = integer_prices(tree, [GlobalConstraints(0.0, float(n))])
        wall = time.perf_counter() - t0
        rows.append({
            "N_bar": n_bar,
            "price": price,
            "abs_error_vs_oracle": abs(price - target),
            "wall_seconds": wall,
        })
    slope = math.nan  # a fit needs two distinct grid sizes
    if (len(set(n_bars)) >= 2
            and all(r["abs_error_vs_oracle"] > 0 for r in rows)):
        xs = np.log([r["N_bar"] for r in rows])
        ys = np.log([r["abs_error_vs_oracle"] for r in rows])
        slope = float(np.polyfit(xs, ys, 1)[0])
    csv_path = cfg.out_dir / "converge.csv"
    with csv_path.open("w") as fh:
        fh.write("N_bar,price,abs_error_vs_oracle,wall_seconds\n")
        for r in rows:
            fh.write(f"{r['N_bar']},{r['price']!r},"
                     f"{r['abs_error_vs_oracle']!r},{r['wall_seconds']:.3f}\n")
        fh.write(f"# loglog_slope={slope!r}\n")
    return csv_path, rows


def run_simulate(cfg: RunConfig, n_paths: int) -> Path:
    paths = simulate_factor_paths(cfg.params, n_paths, cfg.seed)
    out = cfg.out_dir / "spots.csv"
    with out.open("w") as fh:
        header = ["date", "t", "forward", "strike"]
        header += [f"spot_{p:04d}" for p in range(n_paths)]
        fh.write(",".join(header) + "\n")
        for k in range(cfg.params.n):
            spot, _ = spot_and_payoff(cfg.params, k, paths[:, k, :])
            row = [str(k), repr(k * cfg.params.dt),
                   repr(float(cfg.params.forward[k])),
                   repr(float(cfg.params.strikes[k]))]
            row += [repr(float(s)) for s in spot]
            fh.write(",".join(row) + "\n")
    return out


def _dispatch(ctx: click.Context, fn) -> None:
    """Run a command body with the documented exit-code mapping, and print
    the dict it returns as one line of key-sorted JSON."""
    try:
        cfg = load_config(
            ctx.obj["config"], ctx.obj["seed"], ctx.obj["out"]
        )
        with output_lock(cfg.out_dir):
            click.echo(json.dumps(fn(cfg), sort_keys=True))
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except OSError as exc:
        # a file the body writes (a result, a cache entry) that the
        # operating system refuses: the configured output is unusable
        click.echo(f"output error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    except (InfeasibleContractError, ConstraintViolationError) as exc:
        click.echo(f"infeasible constraints: {exc}", err=True)
        sys.exit(EXIT_INFEASIBLE)
    except (ArithmeticError, ValueError) as exc:
        click.echo(f"numerical failure: {exc}", err=True)
        sys.exit(EXIT_NUMERICAL)
    sys.exit(EXIT_OK)


@click.group()
@click.option("--config", type=click.Path(), default=None,
              help=f"Config JSON (default: ${CONFIG_ENV_VAR}).")
@click.option("--seed", type=int, default=None,
              help="Override the pipeline seed from the config.")
@click.option("--out", type=click.Path(), default=None,
              help="Override the output directory from the config.")
@click.pass_context
def main(ctx, config, seed, out):
    """Swing option pricing by quantized backward dynamic programming."""
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    if config is None:
        config = os.environ.get(CONFIG_ENV_VAR) or None
    if config is None:
        click.echo("config error: no --config given and "
                   f"{CONFIG_ENV_VAR} is unset", err=True)
        sys.exit(EXIT_CONFIG)
    ctx.ensure_object(dict)
    ctx.obj.update(config=config, seed=seed, out=out)


@main.command()
@click.option("--qmin", type=float, default=None, help="Global floor.")
@click.option("--qmax", type=float, default=None, help="Global cap.")
@click.option("--no-policy", is_flag=True,
              help="Skip the Monte-Carlo policy valuation.")
@click.pass_context
def price(ctx, qmin, qmax, no_policy):
    """Price one constraint pair; JSON report on stdout."""

    def body(cfg):
        return run_price(cfg, qmin, qmax, with_policy=not no_policy)

    _dispatch(ctx, body)


@main.command()
@click.pass_context
def surface(ctx):
    """Premium at every integer constraint pair; CSV plus JSON sidecar."""

    def body(cfg):
        csv_path, meta_path = run_surface(cfg)
        return {"surface": str(csv_path), "metadata": str(meta_path)}

    _dispatch(ctx, body)


@main.command()
@click.option("--nbar", "n_bars", type=int, multiple=True, required=True,
              help="Grid size to evaluate (repeatable).")
@click.pass_context
def converge(ctx, n_bars):
    """Error against the call-strip oracle for each grid size."""

    def body(cfg):
        try:
            for n_bar in n_bars:
                _check_fit(n_bar, cfg.n_samples, cfg.optimizer)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        csv_path, rows = run_converge(cfg, list(n_bars))
        return {"converge": str(csv_path), "rows": len(rows)}

    _dispatch(ctx, body)


@main.command("tree")
@click.pass_context
def tree_command(ctx):
    """Build (or reuse) the tree; prints its cache entry and files."""

    def body(cfg):
        _, manifest, timings = ensure_tree(cfg)
        cache_dir = cfg.out_dir / "cache" / manifest["cache_key"]
        files = sorted(p.name for p in cache_dir.iterdir() if p.is_file())
        return {
            "cache_dir": str(cache_dir),
            "cache_hit": "load_seconds" in timings,
            "files": files,
            "timings": timings,
        }

    _dispatch(ctx, body)


@main.command()
@click.option("--paths", "n_paths", type=int, default=100,
              help="Number of spot paths to write.")
@click.pass_context
def simulate(ctx, n_paths):
    """Write simulated spot paths as CSV."""

    def body(cfg):
        if n_paths < 1:
            raise ConfigError("--paths must be >= 1")
        return {"spots": str(run_simulate(cfg, n_paths))}

    _dispatch(ctx, body)


if __name__ == "__main__":
    main()
