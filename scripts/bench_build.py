"""Time one ``build_tree`` layer by layer and write ``BENCH_<label>.json``.

Usage::

    python3 scripts/bench_build.py --label acceptance
    python3 scripts/bench_build.py --label year_book --n 365 --T 1 \\
        --n-bar 6 --n-samples 8000 --seed 11 --optimizer clvq

The defaults are the acceptance reference: 30 daily dates, ``N_bar``
200, 1M paths, seed 20110, ``clvq-lloyd``, on the paper's two-factor
model.  The build runs once, in this process, with one BLAS thread and
under ``perfbench/spans.py``'s :class:`Tracer`.  The file holds:

* ``wall_s`` and ``self_s``, the build's wall time and each traced
  layer's self time;
* ``dates``, one record per fitted date: its CLVQ steps, Lloyd
  iterations, Lloyd projections and convergence;
* ``peak_rss_mb``, this process's peak resident set
  (``resource.getrusage``) at the end of the build, and
  ``rss_before_build_mb``;
* ``reference_op``, a fixed ``nearest_indices`` call timed after the
  build on the same host, so that host drift shows up beside it;
* ``tree_hash``, the first 16 hex digits of the SHA-256 of every grid's
  points and weights, date by date, then of every transition matrix;
* ``replay_s``, the wall time of the policy replay written after the
  build (``save_policy_replay`` into a temporary directory, untraced,
  with the configuration defaults: 10,000 paths and seed ``seed + 1``),
  and ``replay_hash``, the first 16 hex digits of the SHA-256 of its
  ``factors.npy`` then its ``nodes.npy``.

The grids and transitions depend only on the dynamics, so the forward
and strike curves are flat at 20.
"""
import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
# the paper's two-factor model, as in perfbench/workloads.py
MODEL = {"alpha1": 0.21, "alpha2": 5.4, "sigma1": 0.36, "sigma2": 1.11,
         "rho": -0.11}


def tree_hash(tree) -> str:
    h = hashlib.sha256()
    for g in tree.grids:
        h.update(g.points.tobytes())
        h.update(g.weights.tobytes())
    for t in tree.transitions:
        h.update(t.tobytes())
    return h.hexdigest()[:16]


REPLAY_PATHS = 10_000  # the configuration's default policy_paths


def timed_replay(tree_module, tree, seed: int) -> tuple[float, str]:
    """Wall time and hash of the policy replay of ``tree`` for ``seed``."""
    with tempfile.TemporaryDirectory() as directory:
        start = perf_counter()
        tree_module.save_policy_replay(tree, REPLAY_PATHS, seed, directory)
        wall = perf_counter() - start
        h = hashlib.sha256()
        for name in ("factors.npy", "nodes.npy"):
            h.update((Path(directory) / name).read_bytes())
    return wall, h.hexdigest()[:16]


def reference_op(np, quantizer) -> dict:
    """Median of three ``nearest_indices`` calls, 1M 2-D rows onto 200 points."""
    rng = np.random.default_rng(0)
    cb = quantizer.Codebook(rng.normal(size=(200, 2)))
    y = rng.normal(size=(1_000_000, 2))
    times = []
    for _ in range(3):
        start = perf_counter()
        quantizer.nearest_indices(y, cb)
        times.append(perf_counter() - start)
    return {"what": "nearest_indices of 1,000,000 standard normal 2-D rows "
                    "onto 200 points, median of 3",
            "seconds": round(statistics.median(times), 4)}


def record_dates(tree_module) -> list[dict]:
    """Wrap the per-date grid fit and its optimisers in ``tree``'s namespace
    (outside the tracer's wrappers) and return the list they fill."""
    dates: list[dict] = []
    fit, clvq, lloyd = (tree_module._fit_grid, tree_module.clvq_optimize,
                        tree_module.lloyd_optimize)

    def fit_date(*args, **kwargs):
        dates.append({"date": len(dates) + 1, "clvq_steps": 0,
                      "lloyd_iterations": 0, "lloyd_projections": 0,
                      "lloyd_converged": None})
        return fit(*args, **kwargs)

    def clvq_date(*args, **kwargs):
        cb, report = clvq(*args, **kwargs)
        dates[-1]["clvq_steps"] = report.iterations
        return cb, report

    def lloyd_date(*args, **kwargs):
        cb, report = lloyd(*args, **kwargs)
        dates[-1].update(lloyd_iterations=report.iterations,
                         lloyd_projections=report.projections,
                         lloyd_converged=report.converged)
        return cb, report

    tree_module._fit_grid = fit_date
    tree_module.clvq_optimize = clvq_date
    tree_module.lloyd_optimize = lloyd_date
    return dates


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True,
                        help="names the output file BENCH_<label>.json")
    parser.add_argument("--out", type=Path, default=Path("."),
                        help="directory of the output file (default: .)")
    parser.add_argument("--n", type=int, default=30, help="exercise dates")
    parser.add_argument("--T", type=float, default=None,
                        help="horizon in years (default: n / 365)")
    parser.add_argument("--n-bar", type=int, default=200)
    parser.add_argument("--n-samples", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=20110)
    parser.add_argument("--optimizer", default="clvq-lloyd")
    args = parser.parse_args()

    # one numeric-library thread, fixed before numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import numpy as np
    from spans import Tracer
    from swingquant import quantizer
    from swingquant import tree as tree_module
    from swingquant.model import TwoFactorParams

    T = args.n / 365 if args.T is None else args.T
    params = TwoFactorParams(**MODEL, r=0.0, T=T, n=args.n,
                             forward=np.full(args.n, 20.0),
                             strikes=np.full(args.n, 20.0))
    tracer = Tracer()
    tracer.install()
    dates = record_dates(tree_module)
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    start = perf_counter()
    tree = tree_module.build_tree(params, args.n_bar, args.n_samples,
                                  args.seed, args.optimizer)
    wall = perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tracer.uninstall()
    # the policy seed defaults to the pipeline seed + 1
    replay_s, replay_hash = timed_replay(tree_module, tree, args.seed + 1)
    ref = reference_op(np, quantizer)  # after the build, outside its peak

    doc = {
        "settings": {"n": args.n, "T": T, "n_bar": args.n_bar,
                     "n_samples": args.n_samples, "seed": args.seed,
                     "optimizer": args.optimizer, "model": MODEL},
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version(),
                 "numpy": np.__version__, "blas_threads": 1},
        "wall_s": round(wall, 4),
        "self_s": {k: round(v, 4) for k, v in sorted(tracer.self_times().items())},
        "counts": dict(sorted(tracer.counts.items())),
        "dates": "DATES",
        "peak_rss_mb": round(peak, 1),
        "rss_before_build_mb": round(rss_before, 1),
        "reference_op": ref,
        "tree_hash": tree_hash(tree),
        "replay_s": round(replay_s, 4),
        "replay_hash": replay_hash,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    path = args.out / f"BENCH_{args.label}.json"
    # one line a date
    rows = ",\n  ".join(json.dumps(d) for d in dates)
    text = json.dumps(doc, indent=1).replace('"DATES"', f"[\n  {rows}\n ]")
    path.write_text(text + "\n")
    print(f"{path}: build {wall:.3f} s, peak RSS {peak:.1f} MB, "
          f"tree {doc['tree_hash']}, replay {replay_s:.3f} s {replay_hash}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
