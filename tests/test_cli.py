"""Command-line integration tests: exit codes, formats, determinism."""
import fcntl
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
import threading
from dataclasses import replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner

from helpers import deterministic_lattice
import swingquant
from swingquant import cli, quantizer, tree
from swingquant.cli import (
    PRICE_REPORT_SCHEMA,
    ensure_tree,
    load_config,
    main,
    tree_cache_key,
)
from swingquant.contracts import (
    GlobalConstraints,
    PremiumSurface,
    interpolate_on_tile,
    locate_tile,
)
from swingquant.model import simulate_factor_paths, spot_and_payoff
from swingquant.oracle import price_lattice_dp
from swingquant.quantizer import nearest_indices
from swingquant.tree import load_tree, quantized_dp_price


def write_config(tmp_path, name="config.json", *, n=3, sigma1=0.0, sigma2=0.0,
                 forward=20.0, strike=19.0, r=0.0, n_bar=4, n_samples=2000,
                 seed=7, q=(2.0, 2.0), out="out", policy_paths=50):
    doc = {
        "model": {
            "alpha1": 0.21, "alpha2": 5.4,
            "sigma1": sigma1, "sigma2": sigma2, "rho": -0.11,
            "r": r, "T": n / 365, "n": n,
            "forward": forward, "strike": strike,
        },
        "pricing": {
            "Q_min": q[0], "Q_max": q[1], "N_bar": n_bar,
            "n_samples": n_samples, "seed": seed,
            "policy_paths": policy_paths,
        },
        "output": {"directory": out, "formats": ["json", "csv"]},
    }
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


def run_cli(args, **kwargs):
    return CliRunner().invoke(main, args, catch_exceptions=False, **kwargs)


def cache_digests(out):
    """``{relative path: sha256}`` of every file under ``out/cache``."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted((out / "cache").rglob("*")) if p.is_file()}


class TestPriceCommand:
    def test_forced_purchases_deterministic_model(self, tmp_path):
        cfg = write_config(tmp_path)
        res = run_cli(["--config", str(cfg), "price"])
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)
        assert report["price"] == pytest.approx(2.0, abs=1e-12)
        assert report["mc_policy_value"] == pytest.approx(2.0, abs=1e-12)

    def test_fully_flexible_deterministic_model(self, tmp_path):
        cfg = write_config(tmp_path)
        res = run_cli(["--config", str(cfg), "price", "--qmin", "0",
                       "--qmax", "3"])
        assert res.exit_code == 0
        assert json.loads(res.output)["price"] == pytest.approx(3.0, abs=1e-12)

    def test_report_schema(self, tmp_path):
        cfg = write_config(tmp_path, sigma1=0.36, sigma2=1.11, n_bar=3,
                           n_samples=1000)
        res = run_cli(["--config", str(cfg), "price"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        jsonschema.validate(report, PRICE_REPORT_SCHEMA)

    def test_non_integer_interpolates(self, tmp_path):
        cfg = write_config(tmp_path)
        res = run_cli(["--config", str(cfg), "price", "--qmin", "0.5",
                       "--qmax", "2.5"])
        assert res.exit_code == 0
        report = json.loads(res.output)
        assert report["interpolated"] is True
        assert report["mc_policy_value"] is None
        # deterministic payoffs 1 each: premium affine between knapsack values
        assert report["price"] == pytest.approx(2.5, abs=1e-12)

    def test_non_integer_matches_the_surface_tile(self, tmp_path):
        cfg = write_config(tmp_path, sigma1=0.36, sigma2=1.11, n=5, n_bar=4,
                           n_samples=2000)
        assert run_cli(["--config", str(cfg), "surface"]).exit_code == 0
        rows = (tmp_path / "out" / "surface.csv").read_text().splitlines()[1:]
        surf = PremiumSurface(5, {(int(i), int(j)): float(p) for i, j, p
                                  in (r.split(",") for r in rows)})
        for lo, hi in ((0.5, 2.5), (1.25, 4.75), (3.5, 3.75)):
            res = run_cli(["--config", str(cfg), "price", "--qmin", str(lo),
                           "--qmax", str(hi)])
            want = interpolate_on_tile(surf, GlobalConstraints(lo, hi))
            assert json.loads(res.output)["price"] == pytest.approx(
                want, rel=1e-11, abs=1e-11)

    def test_interpolated_price_is_the_tile_of_its_corners(self, tmp_path):
        # the three corners, priced together, give the price that
        # interpolating each corner's own induction gives, bit for bit
        path = write_config(tmp_path, sigma1=0.36, sigma2=1.11, n=6, n_bar=5,
                            n_samples=3000)
        bounds = [GlobalConstraints(lo, hi) for lo, hi in (
            (0.5, 2.5), (1.25, 4.75), (3.5, 3.75), (5.5, 6.0), (0.0, 5.5),
            (2.0, 2.5))]
        prices = []
        for q in bounds:
            res = run_cli(["--config", str(path), "price", "--qmin",
                           str(q.q_lo), "--qmax", str(q.q_hi)])
            assert res.exit_code == 0, res.output
            prices.append(json.loads(res.output)["price"])
        cfg = load_config(path)
        tree_, _ = load_tree(cfg.out_dir / "cache" / tree_cache_key(cfg),
                             cfg.params)
        for q, price in zip(bounds, prices):
            surface = PremiumSurface(6, {
                (i, j): quantized_dp_price(tree_, GlobalConstraints(i, j))[0]
                for i, j in locate_tile(q, 6).vertices})
            assert price == interpolate_on_tile(surface, q)

    def test_no_policy_flag(self, tmp_path):
        cfg = write_config(tmp_path)
        res = run_cli(["--config", str(cfg), "price", "--no-policy"])
        assert res.exit_code == 0
        assert json.loads(res.output)["mc_policy_value"] is None

    def test_no_policy_price_is_the_policy_quote_price(self, tmp_path):
        # the price-only induction keeps no decisions, and the same bits
        cfg = write_config(tmp_path, sigma1=0.36, sigma2=1.11, n=6, n_bar=5,
                           n_samples=3000, q=(2.0, 5.0))
        prices = []
        for args in (["price"], ["price", "--no-policy"]):
            res = run_cli(["--config", str(cfg)] + args)
            assert res.exit_code == 0, res.output
            prices.append(json.loads(res.output)["price"])
        assert prices[0] == prices[1]

    def test_env_var_config(self, tmp_path):
        cfg = write_config(tmp_path)
        res = run_cli(["price"], env={"SWINGQUANT_CONFIG": str(cfg)})
        assert res.exit_code == 0

    def test_seed_and_out_overrides(self, tmp_path):
        cfg = write_config(tmp_path, sigma1=0.36, sigma2=1.11, n=4, n_bar=3,
                           n_samples=1000, q=(1.0, 3.0))
        alt = tmp_path / "elsewhere"
        res1 = run_cli(["--config", str(cfg), "--seed", "99",
                        "--out", str(alt), "price"])
        res2 = run_cli(["--config", str(cfg), "--seed", "99",
                        "--out", str(alt), "price"])
        assert res1.exit_code == 0 and res2.exit_code == 0
        assert (alt / "cache").exists()
        a = json.loads(res1.output)
        b = json.loads(res2.output)
        assert a["seeds"]["pipeline"] == 99
        assert a["price"] == b["price"]
        # a different seed changes the sampled tree, hence the price
        res3 = run_cli(["--config", str(cfg), "--seed", "100",
                        "--out", str(alt), "price"])
        assert json.loads(res3.output)["price"] != a["price"]


class TestExitCodes:
    def test_missing_config(self, tmp_path):
        res = run_cli(["--config", str(tmp_path / "absent.json"), "price"])
        assert res.exit_code == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = run_cli(["--config", str(bad), "price"])
        assert res.exit_code == 2

    def test_bad_ranges(self, tmp_path):
        cfg = write_config(tmp_path, n_bar=100, n_samples=50)
        res = run_cli(["--config", str(cfg), "price"])
        assert res.exit_code == 2

    def test_no_config_anywhere(self):
        res = run_cli(["price"], env={"SWINGQUANT_CONFIG": ""})
        assert res.exit_code == 2

    def test_infeasible_constraints(self, tmp_path):
        cfg = write_config(tmp_path)
        res = run_cli(["--config", str(cfg), "price", "--qmin", "5",
                       "--qmax", "6"])  # floor beyond the 3-date horizon
        assert res.exit_code == 3

    def test_inverted_constraints(self, tmp_path):
        cfg = write_config(tmp_path)
        res = run_cli(["--config", str(cfg), "price", "--qmin", "2",
                       "--qmax", "1"])
        assert res.exit_code == 3

    @pytest.mark.parametrize("args,pricing,code", [
        (["price", "--qmin", "nan"], {}, 2),
        (["price", "--qmax", "inf"], {}, 2),
        (["price"], {"Q_min": "nan"}, 2),
        (["price", "--qmin", "5"], {}, 3),  # finite, beyond 3 dates
        (["price"], {"Q_min": False}, 2),
        (["price"], {"Q_max": True}, 2),
    ], ids=["qmin-nan", "qmax-inf", "config-qmin-nan", "floor-past-horizon",
            "config-qmin-bool", "config-qmax-bool"])
    def test_non_finite_bounds(self, tmp_path, args, pricing, code):
        path = write_config(tmp_path)
        doc = json.loads(path.read_text())
        doc["pricing"].update(pricing)
        path.write_text(json.dumps(doc))
        res = run_cli(["--config", str(path)] + args)
        assert res.exit_code == code, res.output

    @pytest.mark.parametrize("value", [math.nan, math.inf, True],
                             ids=["nan", "inf", "bool"])
    @pytest.mark.parametrize("field", ["alpha1", "alpha2", "sigma1", "sigma2",
                                       "rho", "r", "T", "forward", "strike"])
    def test_non_finite_model_fields(self, tmp_path, field, value):
        path = write_config(tmp_path)
        doc = json.loads(path.read_text())
        # a curve gets one bad entry, a scalar field the value itself
        doc["model"][field] = ([20.0, value, 20.0]
                               if field in ("forward", "strike") else value)
        path.write_text(json.dumps(doc))  # NaN and Infinity literals
        res = run_cli(["--config", str(path), "price"])
        assert res.exit_code == 2, res.output

    def test_curve_path_is_a_directory(self, tmp_path):
        (tmp_path / "curves").mkdir()
        cfg = write_config(tmp_path, forward="curves")
        res = run_cli(["--config", str(cfg), "price"])
        assert res.exit_code == 2, res.output
        assert "config error" in res.output

    def test_out_names_a_file(self, tmp_path):
        cfg = write_config(tmp_path)
        taken = tmp_path / "taken"
        taken.write_text("")
        res = run_cli(["--config", str(cfg), "--out", str(taken), "price"])
        assert res.exit_code == 2, res.output
        assert "config error" in res.output

    @pytest.mark.parametrize("command,taken", [
        (["surface"], "surface.csv"),
        (["converge", "--nbar", "2"], "converge.csv"),
        (["simulate", "--paths", "3"], "spots.csv"),
        (["price"], "cache"),
    ])
    def test_refused_output_write(self, tmp_path, command, taken):
        # a directory where the command writes its file, or a file where
        # the tree cache's directory goes
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        if taken == "cache":
            (out / taken).write_text("")
        else:
            (out / taken).mkdir()
        res = run_cli(["--config", str(cfg), *command])
        assert res.exit_code == 2, res.output
        assert "output error" in res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("command", ["surface", "price"])
    def test_overflow_is_a_numerical_failure(self, tmp_path, command):
        cfg = write_config(tmp_path, forward=1e308, strike=0.0)
        res = run_cli(["--config", str(cfg), command])
        assert res.exit_code == 4, res.output
        assert "the induction overflowed" in res.output

    def test_numerical_failure(self, tmp_path, monkeypatch):
        import swingquant.cli as climod

        def boom(*a, **k):
            raise ArithmeticError("synthetic blow-up")

        monkeypatch.setattr(climod, "build_tree", boom)
        cfg = write_config(tmp_path)
        res = run_cli(["--config", str(cfg), "price"])
        assert res.exit_code == 4

    @pytest.mark.parametrize("args,fields", [
        (["converge", "--nbar", "0"], {}),
        (["converge", "--nbar", "500"], {}),
        (["simulate", "--paths", "0"], {}),
        (["--seed", "-3", "price"], {}),
        (["price"], {"policy_seed": -2}),
        (["price"], {"N_bar": 3.7}),
        (["price"], {"N_bar": True}),
        (["price"], {"n_samples": 2000.5}),
        (["price"], {"seed": 7.5}),
        (["price"], {"policy_paths": 50.5}),
        (["price"], {"policy_seed": 8.5}),
        (["price"], {"n": 4.5}),
        (["price"], {"n": True}),
    ], ids=["nbar-zero", "nbar-over-samples", "paths-zero", "seed-negative",
            "policy-seed-negative", "nbar-fraction", "nbar-bool",
            "samples-fraction", "seed-fraction", "policy-paths-fraction",
            "policy-seed-fraction", "n-fraction", "n-bool"])
    def test_out_of_range_integers(self, tmp_path, args, fields):
        path = write_config(tmp_path, n_samples=2000)
        doc = json.loads(path.read_text())
        for field, value in fields.items():
            doc["model" if field in doc["model"] else "pricing"][field] = value
        path.write_text(json.dumps(doc))
        res = run_cli(["--config", str(path)] + args)
        assert res.exit_code == 2, res.output

    @pytest.mark.parametrize("edit", [
        lambda doc: 5,
        lambda doc: [doc],
        lambda doc: {**doc, "model": 5},
        lambda doc: {**doc, "pricing": []},
        lambda doc: {**doc, "pricing": None},
        lambda doc: {**doc, "output": "out"},
        lambda doc: {**doc, "output": {"directory": 5}},
        lambda doc: {**doc, "model": {**doc["model"], "forward": True}},
        lambda doc: {**doc, "model": {**doc["model"], "strike": False}},
    ], ids=["document-number", "document-list", "model-number",
            "pricing-list", "pricing-null", "output-string",
            "directory-number", "forward-bool", "strike-bool"])
    def test_sections_of_the_wrong_type(self, tmp_path, edit):
        path = write_config(tmp_path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        res = run_cli(["--config", str(path), "price"])
        assert res.exit_code == 2, res.output

    def test_integral_floats_load(self, tmp_path):
        path = write_config(tmp_path, n=4, sigma1=0.36, sigma2=1.11)
        want = load_config(path)
        doc = json.loads(path.read_text())
        doc["model"]["n"] = 4.0
        doc["pricing"].update(N_bar=4.0, n_samples=2e3, seed=7.0,
                              policy_paths=50.0, policy_seed=8.0)
        path.write_text(json.dumps(doc))
        cfg = load_config(path)
        assert tree_cache_key(cfg) == tree_cache_key(want)
        got = (cfg.params.n, cfg.n_bar, cfg.n_samples, cfg.seed,
               cfg.policy_paths, cfg.policy_seed)
        assert got == (4, 4, 2000, 7, 50, 8)
        assert all(type(v) is int for v in got)

    def test_locked_output_dir(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        with open(out / ".lock", "a") as holder:
            fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
            res = run_cli(["--config", str(cfg), "price"])
        assert res.exit_code == 2

    def test_leftover_lock_file_does_not_block(self, tmp_path):
        # a crashed run leaves the file, but its lock died with it
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / ".lock").write_text("999")
        res = run_cli(["--config", str(cfg), "price"])
        assert res.exit_code == 0, res.output


class TestSurfaceCommand:
    def test_deterministic_rows_match_oracle(self, tmp_path):
        strikes = [19.0, 21.0, 18.0]
        cfg_doc = {
            "model": {"alpha1": 0.21, "alpha2": 5.4, "sigma1": 0.0,
                      "sigma2": 0.0, "rho": 0.0, "r": 0.0, "T": 3 / 365,
                      "n": 3, "forward": 20.0, "strike": "strikes.csv"},
            "pricing": {"N_bar": 2, "n_samples": 500, "seed": 3},
            "output": {"directory": "out"},
        }
        (tmp_path / "strikes.csv").write_text("\n".join(map(str, strikes)))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(cfg_doc))
        res = run_cli(["--config", str(cfg), "surface"])
        assert res.exit_code == 0, res.output
        rows = (tmp_path / "out" / "surface.csv").read_text().strip().splitlines()
        assert rows[0] == "Q_min,Q_max,price"
        assert len(rows) - 1 == (3 + 1) * (3 + 2) // 2
        lat = deterministic_lattice([20.0 - k for k in strikes])
        for line in rows[1:]:
            i, j, price = line.split(",")
            want = price_lattice_dp(lat, GlobalConstraints(float(i), float(j)))
            assert float(price) == pytest.approx(want, abs=1e-9)
        # the zero-rights corner is exactly zero
        assert float(rows[1].split(",")[2]) == 0.0

    def test_sidecar_metadata(self, tmp_path):
        cfg = write_config(tmp_path)
        res = run_cli(["--config", str(cfg), "surface"])
        assert res.exit_code == 0
        meta = json.loads((tmp_path / "out" / "surface_meta.json").read_text())
        assert meta["rows"] == 10
        assert meta["columns"] == ["Q_min", "Q_max", "price"]


class TestConvergeCommand:
    def test_rows_and_slope_line(self, tmp_path):
        cfg = write_config(tmp_path, sigma1=0.36, sigma2=1.11, n=4,
                           n_samples=5000)
        res = run_cli(["--config", str(cfg), "converge", "--nbar", "2",
                       "--nbar", "8"])
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "out" / "converge.csv").read_text().strip().splitlines()
        assert lines[0] == "N_bar,price,abs_error_vs_oracle,wall_seconds"
        assert len(lines) == 4  # header, two data rows, slope line
        assert lines[-1].startswith("# loglog_slope=")

    def test_deterministic_model_zero_error(self, tmp_path):
        cfg = write_config(tmp_path)
        res = run_cli(["--config", str(cfg), "converge", "--nbar", "2",
                       "--nbar", "4"])
        assert res.exit_code == 0
        lines = (tmp_path / "out" / "converge.csv").read_text().strip().splitlines()
        for line in lines[1:3]:
            assert float(line.split(",")[2]) < 1e-12

    def test_repeated_nbar_has_no_slope(self, tmp_path):
        # one distinct grid size leaves the log-log slope undetermined
        cfg = write_config(tmp_path, sigma1=0.36, sigma2=1.11, n=4,
                           n_samples=5000)
        res = run_cli(["--config", str(cfg), "converge", "--nbar", "3",
                       "--nbar", "3"])
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "out" / "converge.csv").read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[-1] == "# loglog_slope=nan"


class TestDeterminism:
    def test_surface_bytes_reproducible(self, tmp_path):
        blobs = []
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            cfg = write_config(tmp_path / sub, sigma1=0.36, sigma2=1.11,
                               n=4, n_bar=5, n_samples=3000)
            res = run_cli(["--config", str(cfg), "surface"])
            assert res.exit_code == 0
            blobs.append((tmp_path / sub / "out" / "surface.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_price_reports_identical_modulo_timings(self, tmp_path):
        reports = []
        for sub in ("c", "d"):
            (tmp_path / sub).mkdir()
            cfg = write_config(tmp_path / sub, sigma1=0.36, sigma2=1.11,
                               n=4, n_bar=5, n_samples=3000, q=(1.0, 3.0))
            res = run_cli(["--config", str(cfg), "price"])
            assert res.exit_code == 0
            rep = json.loads(res.output)
            del rep["timings"]
            reports.append(rep)
        assert reports[0] == reports[1]

    def test_cache_reuse_gives_same_price(self, tmp_path):
        cfg = write_config(tmp_path, sigma1=0.36, sigma2=1.11, n=4, n_bar=5,
                           n_samples=3000, q=(1.0, 3.0))
        first = run_cli(["--config", str(cfg), "price"])
        second = run_cli(["--config", str(cfg), "price"])
        a = json.loads(first.output)
        b = json.loads(second.output)
        assert b["timings"].get("build_tree_seconds") is None  # cache hit
        assert a["price"] == b["price"]
        assert a["mc_policy_value"] == b["mc_policy_value"]

    @pytest.mark.parametrize("optimizer", tree.OPTIMIZERS)
    def test_cache_bytes_ignore_threads_and_block(self, tmp_path, monkeypatch,
                                                  optimizer):
        # one tree and its policy replay built with 1 and 2 BLAS threads in
        # a fresh interpreter, and in-process with another projection block
        # size
        path = write_config(tmp_path, n=5, sigma1=0.36, sigma2=1.11, n_bar=6,
                            n_samples=20_000, policy_paths=20_000)
        doc = json.loads(path.read_text())
        doc["pricing"]["optimizer"] = optimizer
        path.write_text(json.dumps(doc))
        src = str(Path(swingquant.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads)
            res = subprocess.run(
                [sys.executable, "-m", "swingquant.cli", "--config", str(path),
                 "--out", str(out), "price"],
                env=env, capture_output=True, text=True, timeout=300)
            assert res.returncode == 0, res.stderr
            digests.append(cache_digests(out))
        # every projection, Lloyd's pruned ones included, runs one scan
        # that reads this block size
        monkeypatch.setattr(quantizer, "_SCAN_BLOCK", 97)
        out = tmp_path / "block97"
        res = run_cli(["--config", str(path), "--out", str(out), "price"])
        assert res.exit_code == 0, res.output
        digests.append(cache_digests(out))
        assert digests[0] == digests[1] == digests[2]
        # one cache directory: grids, transitions, manifest, and the policy
        # replay's two arrays
        assert len(digests[0]) == 5

    def test_interpolated_report_ignores_threads(self, tmp_path):
        # the tile's corners priced in one induction, one product per
        # corner, with 1 and 2 BLAS threads in a fresh interpreter
        path = write_config(tmp_path, n=8, sigma1=0.36, sigma2=1.11,
                            n_bar=16, n_samples=20_000)
        src = str(Path(swingquant.__file__).resolve().parents[1])
        reports = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS=threads,
                       OPENBLAS_NUM_THREADS=threads)
            res = subprocess.run(
                [sys.executable, "-m", "swingquant.cli", "--config", str(path),
                 "--out", str(tmp_path / f"threads{threads}"), "price",
                 "--qmin", "2.5", "--qmax", "6.25"],
                env=env, capture_output=True, text=True, timeout=300)
            assert res.returncode == 0, res.stderr
            report = json.loads(res.stdout)
            assert report["interpolated"] is True
            del report["timings"]
            reports.append(report)
        assert reports[0] == reports[1]


class TestTreeCache:
    def test_cache_key_is_stable(self, tmp_path):
        # literal keys of existing caches: a change here orphans them all
        cfg = load_config(write_config(tmp_path, n=4, sigma1=0.36, sigma2=1.11,
                                       forward=[20.0, 21.5, 19.25, 20.125]))
        assert tree_cache_key(cfg) == "6afa8346e9519ddf"
        assert tree_cache_key(replace(cfg, n_bar=9)) == "848271e06e256e05"

    def test_key_ignores_curves_and_rate(self, tmp_path):
        base = dict(n=4, sigma1=0.36, sigma2=1.11)
        key = tree_cache_key(load_config(write_config(tmp_path, **base)))
        for change in ({"forward": [20.0, 21.5, 19.25, 20.125]},
                       {"strike": 17.5}, {"r": 0.03}):
            cfg = load_config(write_config(tmp_path, **base, **change))
            assert tree_cache_key(cfg) == key, change

    @pytest.mark.parametrize("field,value", [
        ("alpha1", 0.3), ("alpha2", 5.0), ("sigma1", 0.4), ("sigma2", 1.0),
        ("rho", 0.2), ("T", 5 / 365), ("n", 5),
        ("N_bar", 5), ("n_samples", 3000), ("seed", 8),
        ("optimizer", "lloyd"),
    ])
    def test_key_follows_dynamics_and_fit(self, tmp_path, field, value):
        path = write_config(tmp_path, n=4, sigma1=0.36, sigma2=1.11)
        key = tree_cache_key(load_config(path))
        doc = json.loads(path.read_text())
        section = "model" if field in doc["model"] else "pricing"
        doc[section][field] = value
        path.write_text(json.dumps(doc))
        assert tree_cache_key(load_config(path)) != key

    def test_remark_reuses_the_tree(self, tmp_path):
        common = dict(sigma1=0.36, sigma2=1.11, n=4, n_bar=3,
                      n_samples=1000, q=(1.0, 3.0))
        curve_b = dict(forward=[20.0, 21.5, 19.25, 20.125], strike=19.5,
                       r=0.02)
        (tmp_path / "warm").mkdir()
        (tmp_path / "cold").mkdir()
        warm = write_config(tmp_path / "warm", **common)
        first = run_cli(["--config", str(warm), "price"])
        assert "build_tree_seconds" in json.loads(first.output)["timings"]
        write_config(tmp_path / "warm", **common, **curve_b)
        cold = write_config(tmp_path / "cold", **common, **curve_b)
        reports = []
        for cfg in (warm, cold):
            res = run_cli(["--config", str(cfg), "price"])
            assert res.exit_code == 0, res.output
            reports.append(json.loads(res.output))
            assert run_cli(["--config", str(cfg), "surface"]).exit_code == 0
        remark, fresh = reports
        assert "build_tree_seconds" not in remark["timings"]
        assert set(remark["timings"]) >= {"load_seconds"}
        assert len(list((tmp_path / "warm" / "out" / "cache").iterdir())) == 1
        for field in ("price", "mc_policy_value", "std_err"):
            assert remark[field] == fresh[field], field
        assert remark["price"] != json.loads(first.output)["price"]
        surfaces = [(tmp_path / sub / "out" / "surface.csv").read_bytes()
                    for sub in ("warm", "cold")]
        assert surfaces[0] == surfaces[1]

    @pytest.mark.parametrize("damage", [
        "other-dynamics", "manifest-not-an-object", "missing-grid",
        "missing-transition", "truncated-grid", "truncated-transition",
        "nan-grid", "nan-transition", "old-grid-format",
        "grid-sizes-mismatch", "grid-size-not-an-integer",
        "grid-size-not-positive", "duplicate-grid-point",
        "negative-transition",
    ])
    def test_damaged_entry_rebuilds(self, tmp_path, damage):
        config = write_config(tmp_path, sigma1=0.36, sigma2=1.11, n=4,
                              n_bar=3, n_samples=1000, q=(1.0, 3.0))
        first = run_cli(["--config", str(config), "price"])
        assert first.exit_code == 0, first.output
        cfg = load_config(config)
        cache = cfg.out_dir / "cache" / tree_cache_key(cfg)
        path = cache / "manifest.json"
        doc = json.loads(path.read_text())
        assert doc["grid_sizes"] == [1, 3, 3, 3]
        kind, _, target = damage.partition("-")
        if damage == "other-dynamics":
            doc["model"]["sigma1"] = 0.5
            path.write_text(json.dumps(doc))
        elif damage == "manifest-not-an-object":
            path.write_text("[]\n")
        elif kind == "missing":
            (cache / f"{target}s.npy").unlink()
        elif kind == "truncated":
            npy = cache / f"{target}s.npy"
            npy.write_bytes(npy.read_bytes()[:-8])
        elif kind == "nan":
            npy = cache / f"{target}s.npy"
            array = np.load(npy)
            array.flat[-1] = np.nan
            np.save(npy, array)
        elif damage == "duplicate-grid-point":
            # rows 4..6 are date 2's points
            npy = cache / "grids.npy"
            array = np.load(npy)
            array[5] = array[4]
            np.save(npy, array)
        elif damage == "negative-transition":
            # entries 12..14 are the first row of transition 2; the row
            # still sums to 1 and the weights stay nonnegative
            npy = cache / "transitions.npy"
            array = np.load(npy)
            array[13] += array[12] + 1e-6
            array[12] = -1e-6
            np.save(npy, array)
        elif damage == "old-grid-format":
            # the CSV format, one text file per date, under this key
            tree, _ = load_tree(cache, cfg.params)
            for name, arrays in (("grid", [g.points for g in tree.grids]),
                                 ("transition", tree.transitions)):
                for k, a in enumerate(arrays):
                    np.savetxt(cache / f"{name}_{k:03d}.csv", a,
                               delimiter=",", fmt="%.17g")
            (cache / "grids.npy").unlink()
            (cache / "transitions.npy").unlink()
        else:
            # the mismatch keeps the 10 points but wants 22 transition
            # cells, not 21; the zero size keeps both array lengths
            doc["grid_sizes"] = {
                "grid-sizes-mismatch": [1, 2, 4, 3],
                "grid-size-not-an-integer": [1, 3.0, 3, 3],
                "grid-size-not-positive": [1, 3, 6, 0],
            }[damage]
            path.write_text(json.dumps(doc))
        res = run_cli(["--config", str(config), "price"])
        assert res.exit_code == 0, res.output
        again = json.loads(res.output)
        assert "build_tree_seconds" in again["timings"]
        for field in ("price", "mc_policy_value", "std_err"):
            assert again[field] == json.loads(first.output)[field], field
        tree, _, timings = ensure_tree(cfg)
        assert "load_seconds" in timings
        assert tree.params.sigma1 == 0.36
        assert json.loads(path.read_text())["model"]["sigma1"] == 0.36

    def test_cold_build_returns_the_saved_manifest(self, tmp_path, monkeypatch):
        cfg = load_config(write_config(tmp_path, sigma1=0.36, sigma2=1.11,
                                       n=4, n_bar=3, n_samples=1000))

        def no_reload(directory, params):
            raise AssertionError("a cold build reloaded its own artifact")

        monkeypatch.setattr(cli, "load_tree", no_reload)
        _, manifest, timings = ensure_tree(cfg)
        monkeypatch.undo()
        assert "build_tree_seconds" in timings
        _, saved = load_tree(cfg.out_dir / "cache" / manifest["cache_key"],
                             cfg.params)
        assert manifest == saved

    def test_cache_files_ignore_curves_and_rate(self, tmp_path):
        outs = []
        for sub, curves in (("a", {}),
                            ("b", dict(forward=[20.0, 21.5, 19.25, 20.125],
                                       strike=17.5, r=0.03))):
            (tmp_path / sub).mkdir()
            cfg = write_config(tmp_path / sub, sigma1=0.36, sigma2=1.11, n=4,
                               n_bar=3, n_samples=1000, **curves)
            assert run_cli(["--config", str(cfg), "tree"]).exit_code == 0
            outs.append(tmp_path / sub / "out")
        assert cache_digests(outs[0]) == cache_digests(outs[1])

    def test_interrupted_manifest_write_rebuilds(self, tmp_path, monkeypatch):
        cfg = load_config(write_config(tmp_path, sigma1=0.36, sigma2=1.11,
                                       n=4, n_bar=3, n_samples=1000))
        write_text = Path.write_text

        def interrupted(path, text, *args, **kwargs):
            if "manifest" in path.name:
                write_text(path, text[: len(text) // 2], *args, **kwargs)
                raise KeyboardInterrupt
            return write_text(path, text, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", interrupted)
        with pytest.raises(KeyboardInterrupt):
            ensure_tree(cfg)
        monkeypatch.undo()
        tree, manifest, timings = ensure_tree(cfg)
        assert "build_tree_seconds" in timings
        price, _ = quantized_dp_price(tree, GlobalConstraints(1.0, 3.0))
        assert math.isfinite(price)
        cache = {p.name for p in
                 (cfg.out_dir / "cache" / manifest["cache_key"]).iterdir()}
        assert cache == {"manifest.json", "grids.npy", "transitions.npy"}
        _, again, timings = ensure_tree(cfg)
        assert again == manifest and "load_seconds" in timings

    def test_interrupted_cold_build_publishes_nothing(self, tmp_path,
                                                     monkeypatch):
        path = write_config(tmp_path, sigma1=0.36, sigma2=1.11, n=6,
                            n_bar=3, n_samples=1000)
        fit = tree._fit_grid
        calls = []

        def interrupted(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:  # date 3, while the helper draws date 4
                raise KeyboardInterrupt
            return fit(*args, **kwargs)

        monkeypatch.setattr(tree, "_fit_grid", interrupted)
        threads = threading.active_count()
        res = run_cli(["--config", str(path), "tree"])
        monkeypatch.undo()
        assert res.exit_code == 1 and "Aborted" in res.output
        assert threading.active_count() == threads
        cache = load_config(path).out_dir / "cache"
        assert not cache.exists() or not any(cache.iterdir())
        assert run_cli(["--config", str(path), "tree"]).exit_code == 0
        assert [p.suffix for p in cache.iterdir()] == [""]

    def test_publishing_prunes_what_cannot_hit(self, tmp_path, monkeypatch):
        cfg = load_config(write_config(tmp_path, sigma1=0.36, sigma2=1.11,
                                       n=4, n_bar=3, n_samples=1000))
        cache = cfg.out_dir / "cache"
        damaged = replace(cfg, n_bar=5)
        ensure_tree(damaged)
        (cache / tree_cache_key(damaged) / "manifest.json").write_text("{")
        ensure_tree(cfg)
        # an entry an older package version wrote
        old = cache / "0123456789abcdef"
        shutil.copytree(cache / tree_cache_key(cfg), old)
        doc = json.loads((old / "manifest.json").read_text())
        doc["package_version"] = "0.0.1"
        (old / "manifest.json").write_text(json.dumps(doc))
        # and an interrupted build of another seed
        write_text = Path.write_text

        def interrupted(path, text, *args, **kwargs):
            if "manifest" in path.name:
                raise KeyboardInterrupt
            return write_text(path, text, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", interrupted)
        with pytest.raises(KeyboardInterrupt):
            ensure_tree(replace(cfg, seed=8))
        monkeypatch.undo()
        partial = cache / (tree_cache_key(replace(cfg, seed=8)) + ".partial")
        assert partial.is_dir()
        ensure_tree(cfg)  # a hit publishes nothing, so prunes nothing
        assert old.is_dir() and partial.is_dir()
        other = replace(cfg, n_bar=4)
        ensure_tree(other)
        # other settings' keys stay, the damaged one until it is requested
        keys = {tree_cache_key(c) for c in (cfg, damaged, other)}
        assert {p.name for p in cache.iterdir()} == keys
        _, manifest, timings = ensure_tree(damaged)
        assert "build_tree_seconds" in timings
        assert manifest["N_bar"] == 5
        assert {p.name for p in cache.iterdir()} == keys


def reference_policy_value(cfg, q):
    """``(mc_policy_value, std_err)`` by the whole-path replay loop."""
    tree, _ = load_tree(cfg.out_dir / "cache" / tree_cache_key(cfg),
                        cfg.params)
    _, policy = quantized_dp_price(tree, q)
    params, n_paths = cfg.params, cfg.policy_paths
    paths = simulate_factor_paths(params, n_paths, cfg.policy_seed)
    bought = np.zeros(n_paths, dtype=np.int64)
    value = np.zeros(n_paths)
    for k in range(params.n):
        node = nearest_indices(paths[:, k, :] * params.vols, tree.grids[k])
        _, pay = spot_and_payoff(params, k, paths[:, k, :])
        acts = policy.buy[k][bought - policy.l_min[k], node]
        value += acts * pay
        bought += acts
    return float(value.mean()), float(value.std(ddof=1) / math.sqrt(n_paths))


class TestPolicyReplay:
    """The replay cached beside the tree: ``replay-<seed>-<paths>/``."""

    def config(self, tmp_path, **kwargs):
        kw = dict(sigma1=0.36, sigma2=1.11, n=6, n_bar=4, n_samples=2000,
                  q=(2.0, 4.0), policy_paths=3000, r=0.02,
                  forward=[20.0, 21.5, 19.25, 20.125, 22.0, 18.5])
        kw.update(kwargs)
        return write_config(tmp_path, **kw)

    def price(self, path):
        res = run_cli(["--config", str(path), "price"])
        assert res.exit_code == 0, res.output
        return json.loads(res.output)

    def entries(self, path):
        cfg = load_config(path)
        cache = cfg.out_dir / "cache" / tree_cache_key(cfg)
        return sorted(p.name for p in cache.iterdir() if p.is_dir())

    def test_cached_and_fresh_replays_match_the_reference_loop(self, tmp_path):
        path = self.config(tmp_path)
        fresh, cached = self.price(path), self.price(path)
        assert "replay_build_seconds" in fresh["timings"]
        assert "replay_load_seconds" in cached["timings"]
        want = reference_policy_value(load_config(path), GlobalConstraints(2, 4))
        for report in (fresh, cached):
            assert (report["mc_policy_value"], report["std_err"]) == want
        assert self.entries(path) == ["replay-8-3000"]

    def test_no_replay_without_an_integer_policy_quote(self, tmp_path):
        path = self.config(tmp_path)
        for args in (["price", "--no-policy"], ["price", "--qmax", "4.5"],
                     ["surface"]):
            assert run_cli(["--config", str(path)] + args).exit_code == 0
        assert self.entries(path) == []

    def test_interrupted_write_is_not_trusted(self, tmp_path, monkeypatch):
        path = self.config(tmp_path)
        want = self.price(path)
        cfg = load_config(path)
        shutil.rmtree(cfg.out_dir)
        spot_factor = tree.spot_factor

        def interrupted(params, k, z):
            # the streamed writer stops after half the dates' rows
            if k == params.n // 2:
                raise KeyboardInterrupt
            return spot_factor(params, k, z)

        monkeypatch.setattr(tree, "spot_factor", interrupted)
        res = run_cli(["--config", str(path), "price"])
        monkeypatch.undo()
        assert res.exit_code == 1 and "Aborted" in res.output
        assert self.entries(path) == ["replay-8-3000.partial"]
        partial = (cfg.out_dir / "cache" / tree_cache_key(cfg)
                   / "replay-8-3000.partial")
        assert [p.name for p in partial.iterdir()] == ["factors.npy"]
        again = self.price(path)
        assert "replay_build_seconds" in again["timings"]
        assert self.entries(path) == ["replay-8-3000"]
        for field in ("price", "mc_policy_value", "std_err"):
            assert again[field] == want[field], field

    def assert_rebuilt(self, path, name, damage):
        """Damage a replay array by ``damage(blob)``; the next quote
        rebuilds the entry, the tree a hit, with the first values."""
        want = self.price(path)
        cfg = load_config(path)
        npy = (cfg.out_dir / "cache" / tree_cache_key(cfg) / "replay-8-3000"
               / name)
        blob = npy.read_bytes()
        npy.write_bytes(damage(blob))
        again = self.price(path)
        assert "replay_build_seconds" in again["timings"]
        assert "load_seconds" in again["timings"]  # the tree was a hit
        assert npy.read_bytes() == blob
        for field in ("mc_policy_value", "std_err"):
            assert again[field] == want[field], field

    @pytest.mark.parametrize("name", ["nodes.npy", "factors.npy"])
    def test_truncated_array_is_rebuilt(self, tmp_path, name):
        self.assert_rebuilt(self.config(tmp_path), name,
                            lambda blob: blob[: len(blob) // 2])

    @staticmethod
    def resaved(blob, change):
        buf = io.BytesIO()
        np.save(buf, change(np.load(io.BytesIO(blob))))
        return buf.getvalue()

    @pytest.mark.parametrize("form", ["float32", "Fortran order", "other shape",
                                      "trailing bytes", "header alone"])
    def test_damaged_factor_header_is_rebuilt(self, tmp_path, form):
        # a hit reads only the header of factors.npy, and the file's size
        damage = {
            "float32": lambda b: self.resaved(b, lambda a: a.astype(np.float32)),
            "Fortran order": lambda b: self.resaved(b, np.asfortranarray),
            "other shape": lambda b: self.resaved(b, lambda a: a.reshape(3, -1)),
            "trailing bytes": lambda b: b + bytes(8),
            "header alone": lambda b: b[: len(b) - 8 * 6 * 3000],
        }[form]
        self.assert_rebuilt(self.config(tmp_path), "factors.npy", damage)

    def test_seed_and_path_count_key_the_entry(self, tmp_path):
        path = self.config(tmp_path)
        first = self.price(path)
        reports = [first]
        for pricing in ({"policy_seed": 9}, {"policy_paths": 2000}):
            doc = json.loads(path.read_text())
            doc["pricing"].update(pricing)
            path.write_text(json.dumps(doc))
            report = self.price(path)
            assert "build_tree_seconds" not in report["timings"]
            assert "replay_build_seconds" in report["timings"]
            assert report["price"] == first["price"]
            reports.append(report)
        assert self.entries(path) == ["replay-9-2000"]
        assert len({r["mc_policy_value"] for r in reports}) == 3

    def test_publishing_prunes_the_other_entries(self, tmp_path):
        path = self.config(tmp_path)
        self.price(path)
        cfg = load_config(path)
        cache = cfg.out_dir / "cache" / tree_cache_key(cfg)
        # another seed's interrupted write and another's damaged entry
        (cache / "replay-8-3000").rename(cache / "replay-5-100.partial")
        (cache / "replay-7-3000").mkdir()
        rebuilt = self.price(path)
        assert "replay_build_seconds" in rebuilt["timings"]
        assert self.entries(path) == ["replay-8-3000"]
        again = self.price(path)
        assert "load_seconds" in again["timings"]  # the tree stayed
        assert "replay_load_seconds" in again["timings"]


class TestAuxCommands:
    def test_grids_and_transitions(self, tmp_path):
        # one `tree` command replaced both, which are now usage errors
        cfg = write_config(tmp_path, sigma1=0.36, sigma2=1.11, n=4, n_bar=3,
                           n_samples=1000)
        for removed in ("grids", "transitions"):
            res = run_cli(["--config", str(cfg), removed])
            assert res.exit_code == 2 and "No such command" in res.output
        docs = []
        for _ in range(2):
            res = run_cli(["--config", str(cfg), "tree"])
            assert res.exit_code == 0, res.output
            docs.append(json.loads(res.output))
        cold, warm = docs
        key = tree_cache_key(load_config(cfg))
        for doc in docs:
            assert doc["cache_dir"] == str(tmp_path / "out" / "cache" / key)
            assert doc["files"] == ["grids.npy", "manifest.json",
                                    "transitions.npy"]
        assert not cold["cache_hit"] and "build_tree_seconds" in cold["timings"]
        assert warm["cache_hit"] and set(warm["timings"]) == {"load_seconds"}

    def test_simulate(self, tmp_path):
        cfg = write_config(tmp_path, sigma1=0.36, sigma2=1.11, n=4)
        res = run_cli(["--config", str(cfg), "simulate", "--paths", "7"])
        assert res.exit_code == 0
        lines = (tmp_path / "out" / "spots.csv").read_text().strip().splitlines()
        assert len(lines) == 5  # header + one row per date
        assert lines[0].split(",")[:4] == ["date", "t", "forward", "strike"]
        assert len(lines[1].split(",")) == 4 + 7
