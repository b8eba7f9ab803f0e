"""Spans and counts at the program's module boundaries, from outside it.

:class:`Tracer` replaces selected public functions of ``swingquant``'s
modules with timing wrappers, in every module namespace that holds them
(``tree`` imports ``nearest_indices``, ``cli`` imports ``build_tree`` and
so on), so calls between modules are caught too.  Spans and counts stay
in memory until the run ends.  A layer's self time is the duration of
its spans minus the time their child spans cover.
"""
from __future__ import annotations

import functools
import importlib
import os
from collections import defaultdict
from time import perf_counter

MB = float(1 << 20)

# layer name -> (module, function)
LAYERS = {
    "model.simulate": ("model", "simulate_factor_paths"),
    "quantizer.nearest": ("quantizer", "nearest_indices"),
    "quantizer.lloyd": ("quantizer", "lloyd_optimize"),
    "quantizer.clvq": ("quantizer", "clvq_optimize"),
    "tree.build_grids": ("tree", "build_grids"),
    "tree.transitions": ("tree", "estimate_transitions"),
    "tree.build_tree": ("tree", "build_tree"),
    "tree.save": ("tree", "save_tree"),
    "tree.load": ("tree", "load_tree"),
    "tree.dp": ("tree", "quantized_dp_price"),
    "tree.surface": ("tree", "premium_surface"),
    "tree.policy": ("tree", "extract_and_value_policy"),
    "contracts.reachable": ("contracts", "reachable_set"),
    "contracts.interpolate": ("contracts", "interpolate_on_tile"),
    "cli.config": ("cli", "load_config"),
    "cli.lock": ("cli", "output_lock"),
    "cli.ensure_tree": ("cli", "ensure_tree"),
}
MODULES = ("swingquant", "swingquant.cli", "swingquant.tree",
           "swingquant.model", "swingquant.quantizer", "swingquant.contracts",
           "swingquant.oracle")

# Per-layer metrics: name -> unit.  Times are self times summed over the
# run.  Iterations, steps, convergence, artifact size and cache hits are
# read off results at the boundary; distance evaluations, path-dates, the
# path array, DP states and surface pairs are computed from argument and
# result shapes.
METRICS = {
    "model.simulate_s": "s", "model.path_dates": "count",
    "model.path_array_mb": "MB",
    "quantizer.nearest_s": "s", "quantizer.distance_evals": "count",
    "quantizer.lloyd_s": "s", "quantizer.lloyd_iters": "count",
    "quantizer.lloyd_converged_ratio": "ratio",
    "quantizer.clvq_s": "s", "quantizer.clvq_steps": "count",
    "tree.build_grids_s": "s", "tree.transitions_s": "s",
    "tree.build_tree_s": "s",
    "tree.save_s": "s", "tree.load_s": "s", "tree.artifact_mb": "MB",
    "tree.dp_s": "s", "tree.dp_states": "count",
    "tree.surface_s": "s", "tree.surface_pairs": "count",
    "tree.policy_s": "s", "tree.policy_path_dates": "count",
    "contracts.reachable_s": "s", "contracts.interpolate_s": "s",
    "cli.config_s": "s", "cli.lock_s": "s", "cli.ensure_tree_s": "s",
    "cli.cache_hit_ratio": "ratio",
}


class _TimedContext:
    """A context manager whose enter and exit are each one span."""

    def __init__(self, tracer, name, inner):
        self._tracer, self._name, self._inner = tracer, name, inner

    def __enter__(self):
        with self._tracer.span(self._name):
            return self._inner.__enter__()

    def __exit__(self, *exc):
        with self._tracer.span(self._name):
            return self._inner.__exit__(*exc)


class Tracer:
    """Wraps the functions of ``LAYERS`` and keeps their spans and counts."""

    def __init__(self):
        # [name, start, end, parent index, request id]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.request = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        contracts = importlib.import_module("swingquant.contracts")
        self._reachable_count = contracts.reachable_count

    # -- spans ---------------------------------------------------------------

    def span(self, name):
        return _Span(self, name)

    def children(self, index: int):
        return [i for i in range(index + 1, len(self.spans))
                if self.spans[i][3] == index]

    def self_times(self) -> dict[str, float]:
        total = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent is not None:
                total[self.spans[parent][0]] -= end - start
        return dict(total)

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for layer, (mod, attr) in LAYERS.items():
            original = getattr(importlib.import_module(f"swingquant.{mod}"), attr)
            wrapper = self._wrap(layer, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def _wrap(self, layer, fn):
        count = getattr(self, "_count_" + layer.replace(".", "_"), None)
        if layer == "cli.lock":
            @functools.wraps(fn)
            def traced_cm(*args, **kwargs):
                return _TimedContext(self, layer, fn(*args, **kwargs))
            return traced_cm

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer) as index:
                result = fn(*args, **kwargs)
            if count is not None:
                count(index, args, kwargs, result)
            return result
        return traced

    # -- counts at the boundaries (arguments and results) --------------------

    def _count_model_simulate(self, index, args, kwargs, result):
        n_paths, dates = result.shape[0], result.shape[1]
        self.counts["model.path_dates"] += n_paths * dates
        self.counts["model.path_array_mb"] = max(
            self.counts["model.path_array_mb"], result.nbytes / MB)

    def _count_quantizer_nearest(self, index, args, kwargs, result):
        cb = args[1] if len(args) > 1 else kwargs["cb"]
        self.counts["quantizer.distance_evals"] += len(result) * cb.n_points

    def _count_quantizer_lloyd(self, index, args, kwargs, result):
        report = result[1]
        self.counts["quantizer.lloyd_iters"] += report.iterations
        self.counts["quantizer.lloyd_fits"] += 1
        self.counts["quantizer.lloyd_converged"] += bool(report.converged)

    def _count_quantizer_clvq(self, index, args, kwargs, result):
        self.counts["quantizer.clvq_steps"] += result[1].iterations

    def _count_tree_save(self, index, args, kwargs, result):
        directory = args[1] if len(args) > 1 else kwargs["directory"]
        size = sum(e.stat().st_size for e in os.scandir(directory) if e.is_file())
        self.counts["tree.artifact_mb"] = max(self.counts["tree.artifact_mb"],
                                              size / MB)

    def _count_tree_dp(self, index, args, kwargs, result):
        tree, q0 = args[0], args[1]
        n = tree.n
        q0 = type(q0)(q0.q_lo, min(q0.q_hi, float(n)))
        self.counts["tree.dp_states"] += sum(
            self._reachable_count(q0, k, n) for k in range(n))

    def _count_tree_surface(self, index, args, kwargs, result):
        n = args[0].n
        self.counts["tree.surface_pairs"] += sum(
            (m + 1) * (m + 2) // 2 for m in range(1, n + 1))

    def _count_tree_policy(self, index, args, kwargs, result):
        tree = args[0]
        n_paths = args[3] if len(args) > 3 else kwargs["n_paths"]
        self.counts["tree.policy_path_dates"] += n_paths * tree.n

    def _count_cli_ensure_tree(self, index, args, kwargs, result):
        built = any(self.spans[c][0] == "tree.build_tree"
                    for c in self.children(index))
        self.counts["cli.tree_requests"] += 1
        self.counts["cli.cache_hits"] += not built

    # -- report --------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out = {name: 0.0 for name in METRICS}
        for layer, seconds in self.self_times().items():
            if layer + "_s" in out:
                out[layer + "_s"] = seconds
        for name in out:
            if name in self.counts:
                out[name] = float(self.counts[name])
        c = self.counts
        if c["quantizer.lloyd_fits"]:
            out["quantizer.lloyd_converged_ratio"] = (
                c["quantizer.lloyd_converged"] / c["quantizer.lloyd_fits"])
        if c["cli.tree_requests"]:
            out["cli.cache_hit_ratio"] = (
                c["cli.cache_hits"] / c["cli.tree_requests"])
        return out

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "self_s": self.self_times(),
        }


class _Span:
    __slots__ = ("_tracer", "_name", "_record")

    def __init__(self, tracer, name):
        self._tracer, self._name = tracer, name

    def __enter__(self) -> int:
        t = self._tracer
        parent = t._stack[-1] if t._stack else None
        index = len(t.spans)
        self._record = [self._name, perf_counter(), None, parent, t.request]
        t.spans.append(self._record)
        t._stack.append(index)
        return index

    def __exit__(self, *exc):
        self._record[2] = perf_counter()
        self._tracer._stack.pop()
        return False
