"""One workload run: a single client sending requests to ``swingquant``.

Requests go one at a time (a closed loop) to the command's entry point,
``swingquant.cli.main``, called in-process with the arguments a user
would type, so each timing covers config parsing, the output lock, the
tree cache and the JSON report but not interpreter start-up.

The run is: set-up probes; a cold integer quote; the same quote after
the forward curve is re-marked; then whole rounds of the book, each its
warm integer and non-integer quotes followed by one ``surface`` command,
until ``seconds`` have passed (exactly one round when traced).  Every
output is then checked against :mod:`reference`.
"""
from __future__ import annotations

import io
import json
import logging
import math
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import reference
import speed
from spans import MB, METRICS, Tracer
from workloads import MODEL, Workload, import_program, write_curve, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
REL_TOL = 1e-9  # two program paths, or program and reference, agreeing

END_TO_END = {
    "setup_s": "s", "cold_quote_s": "s", "remark_quote_s": "s",
    "quote_s": "s", "interp_quote_s": "s", "surface_s": "s",
    "peak_rss_mb": "MB", "strip_rel_err": "ratio",
}


@dataclass
class Op:
    """One request: what was sent, how long it took, what came back."""

    kind: str
    args: list[str]
    start: float = math.nan
    seconds: float = math.nan                         # wall time
    bracket: float = math.nan                         # kernel just before and after
    kernel: float = math.nan                          # kernel seconds meanwhile
    report: dict | None = None
    error: str | None = None                          # did not complete
    wrong: list[str] = field(default_factory=list)    # failed output checks

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.wrong)

    @property
    def nominal(self) -> float:
        """Seconds at the nominal machine speed of ``speed.NOMINAL``."""
        return self.seconds * speed.NOMINAL / self.kernel


def kernel_seconds(op: Op, samples: np.ndarray) -> float:
    """The kernel's time while ``op`` ran (see ``speed.py``)."""
    t, dur = samples[:, 0], samples[:, 1]
    during = dur[(t >= op.start) & (t <= op.start + op.seconds)]
    if op.seconds < speed.LONG or len(during) == 0:
        return op.bracket
    return float(np.median(during))


class Clock:
    """Times the speed kernel between operations, in this process."""

    def __init__(self):
        self.kernel = speed.Kernel()
        self._last = self.kernel.sample()

    def close(self, op: Op) -> Op:
        after = self.kernel.sample()
        op.bracket, self._last = 0.5 * (self._last + after), after
        return op


def probe_setup(w: Workload, seed: int, directory: Path) -> Op:
    """Time from spawning a process to it being ready for a request."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), json.dumps(asdict(w)),
         str(seed), str(directory)],
        stdout=subprocess.PIPE, text=True,
    )
    with proc:
        line = proc.stdout.readline()
        seconds = perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
    return Op("setup", [], start=t0, seconds=seconds)


class Desk:
    """The client: sends one request, waits for it, records it."""

    def __init__(self, cli, config: Path, tracer: Tracer | None, clock: Clock):
        self.cli = cli
        self.config = config
        self.tracer = tracer
        self.clock = clock
        self.ops: list[Op] = []

    def request(self, kind: str, *args: str) -> Op:
        op = Op(kind, ["--config", str(self.config), *args])
        self.ops.append(op)
        buf = io.StringIO()
        op.start = perf_counter()
        try:
            with redirect_stdout(buf):
                if self.tracer is None:
                    code = self._main(op.args)
                else:
                    self.tracer.request = len(self.ops) - 1
                    with self.tracer.span("request"):
                        code = self._main(op.args)
        except Exception:
            code = traceback.format_exc(limit=4)
        op.seconds = perf_counter() - op.start
        self.clock.close(op)
        if code != 0:
            op.error = f"exit {code}"
        elif kind != "surface":
            op.report = json.loads(buf.getvalue())
        return op

    def _main(self, args):
        try:
            self.cli.main.main(args=args, prog_name="swingquant",
                               standalone_mode=False)
        except SystemExit as exc:
            return exc.code
        return 0

    def price(self, kind: str, lo, hi) -> Op:
        return self.request(kind, "price", "--qmin", repr(lo), "--qmax", repr(hi))


def check_policy(op: Op, strip: float) -> None:
    """A 0/1 schedule collects at most the positive parts: the call strip."""
    rep = op.report
    if rep is not None and not rep["mc_policy_value"] <= strip + 4.0 * rep["std_err"]:
        op.wrong.append(f"mc_policy_value {rep['mc_policy_value']} above the "
                        f"strip {strip} + 4 std_err {rep['std_err']}")


def check_surface(op: Op, w: Workload, out: Path, forward, strike) -> tuple[float, np.ndarray]:
    """Checks on the surface files; returns the strip error and ``P[i, j]``."""
    grid = reference.read_surface(out / "surface.csv")
    meta = json.loads((out / "surface_meta.json").read_text())
    rows = (w.n + 1) * (w.n + 2) // 2
    held = int(np.count_nonzero(~np.isnan(grid)))
    if grid.shape != (w.n + 1, w.n + 1) or held != rows or meta["rows"] != rows:
        op.wrong.append(f"surface does not hold the {rows} vertices of n={w.n}")
        return math.nan, grid
    strip = reference.call_strip(MODEL, forward, strike, w.T, w.r)
    rel = abs(grid[0, w.n] - strip) / strip
    if rel > w.strip_tol:
        op.wrong.append(f"P(0, n)={grid[0, w.n]} is {rel:.3%} off the strip "
                        f"{strip}; tolerance {w.strip_tol:.0%}")
    swap = reference.swap_value(forward, strike, w.T, w.r)
    if abs(grid[w.n, w.n] - swap) > REL_TOL * sum(forward):
        op.wrong.append(f"P(n, n)={grid[w.n, w.n]} differs from the swap {swap}")
    bad = reference.shape_violations(grid, REL_TOL * max(1.0, np.nanmax(abs(grid))))
    if bad:
        op.wrong.append(f"{bad} monotonicity or concavity breaches")
    return rel, grid


def check_quotes(ops: list[Op], grid: np.ndarray) -> None:
    """Quotes on the surface's curve: equal at vertices, and on tiles."""
    n = grid.shape[0] - 1
    tol = REL_TOL * max(1.0, np.nanmax(abs(grid)))
    for op in ops:
        rep = op.report
        if rep is None:
            continue
        lo, hi = rep["Q_min"], min(rep["Q_max"], float(n))
        if rep["interpolated"]:
            want = reference.tile_value(grid, lo, hi)
        else:
            want = grid[int(lo), int(hi)]
        if not abs(rep["price"] - want) <= tol:
            op.wrong.append(f"price {rep['price']} differs from the surface "
                            f"value {want}")


def book_order(int_book, interp_book) -> list[tuple[str, float, float]]:
    """One round of the book, the non-integer quotes spread among the rest."""
    order = [("quote", a, b) for a, b in int_book]
    step = len(order) // max(1, len(interp_book)) + 1
    for i, (u, v) in enumerate(interp_book):
        order.insert(min((i + 1) * step - 1, len(order)), ("interp", u, v))
    return order


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 workdir: Path, probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """Run one workload in ``workdir``; return the result and a record of it."""
    workdir.mkdir(parents=True, exist_ok=True)
    log = workdir / "speed.log"
    sampler = subprocess.Popen([sys.executable, str(HERE / "speed.py"), str(log)],
                               stdin=subprocess.PIPE)
    try:
        with sampler:
            try:
                setup, ops, strip_err, tracer = _run(w, seed, seconds, trace,
                                                     workdir, probes)
            finally:
                sampler.stdin.close()
        samples = np.loadtxt(log, ndmin=2)
        for op in setup + ops:
            op.kernel = kernel_seconds(op, samples)
        result, record = summarize(w, seed, setup, ops, strip_err, tracer)
        record["speed_samples"] = samples.tolist()
        return result, record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(w, seed, seconds, trace, workdir, probes):
    clock = Clock()
    setup = [clock.close(probe_setup(w, seed, workdir / f"probe{i}"))
             for i in range(probes)]
    cli = import_program(ROOT)
    config, market = write_inputs(w, seed, workdir / "desk")

    # The command logs to stderr; keep that in the run's directory.
    log_handler = logging.StreamHandler(open(workdir / "swingquant.log", "w"))
    root_logger = logging.getLogger()
    root_logger.addHandler(log_handler)
    old_level = root_logger.level
    root_logger.setLevel(logging.INFO)
    tracer = Tracer() if trace else None
    desk = Desk(cli, config, tracer, clock)
    out = config.parent / "out"
    surfaces = []  # (op, bytes of surface.csv)
    try:
        if tracer is not None:
            tracer.install()
        lo, hi = market.int_book[0]
        cold = desk.price("cold", lo, hi)
        write_curve(config.parent / "forward.csv", market.remark)
        remark = desk.price("remark", lo, hi)
        t_book = perf_counter()
        while True:
            for kind, a, b in book_order(market.int_book, market.interp_book):
                desk.price(kind, a, b)
            op = desk.request("surface", "surface")
            surfaces.append((op, None if op.error else (out / "surface.csv").read_bytes()))
            if trace or perf_counter() - t_book >= seconds:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
        root_logger.removeHandler(log_handler)
        root_logger.setLevel(old_level)
        log_handler.stream.close()

    ops = desk.ops
    warm = [op for op in ops if op.kind in ("quote", "interp")]
    check_policy(cold, reference.call_strip(MODEL, market.forward, market.strike, w.T, w.r))
    strip = reference.call_strip(MODEL, market.remark, market.strike, w.T, w.r)
    for op in [remark, *warm]:
        if op.report is not None and not op.report["interpolated"]:
            check_policy(op, strip)
    strip_err = math.nan
    last, csv = surfaces[-1]
    if last.error is None:
        strip_err, grid = check_surface(last, w, out, market.remark, market.strike)
        check_quotes([remark, *warm], grid)
    for op, other in surfaces[:-1]:
        if other is not None and other != csv:
            op.wrong.append("surface.csv differs from the last surface command's")

    for op in ops:
        for err in ([op.error] if op.error else []) + op.wrong:
            print(f"perfbench: {op.kind} {' '.join(op.args[2:])}: {err}",
                  file=sys.stderr)

    return setup, ops, strip_err, tracer


def summarize(w, seed, setup, ops, strip_err, tracer) -> tuple[dict, dict]:
    """The result object and the run's record, once ``Op.kernel`` is set."""
    def timings(seconds) -> dict[str, float]:
        def median(kind):
            return statistics.median(seconds(op) for op in ops if op.kind == kind)
        return {
            "setup_s": statistics.median(seconds(op) for op in setup),
            "cold_quote_s": median("cold"),
            "remark_quote_s": median("remark"),
            "quote_s": median("quote"),
            "interp_quote_s": median("interp"),
            "surface_s": median("surface"),
        }

    e2e = timings(lambda op: op.nominal)
    e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
    e2e["strip_rel_err"] = strip_err
    if tracer is None:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    else:
        metrics = {k: {"value": v, "unit": METRICS[k]}
                   for k, v in tracer.metrics().items()}
    result = {
        "correct": not any(op.wrong for op in ops),
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": metrics,
    }
    record = {
        "workload": asdict(w), "seed": seed, "end_to_end": e2e,
        "wall": timings(lambda op: op.seconds),
        "requests": [[op.kind, op.args[3:], op.start, op.seconds, op.bracket,
                      op.kernel] for op in setup + ops],
        "trace": tracer.dump() if tracer is not None else None,
    }
    return result, record
