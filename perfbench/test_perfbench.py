"""Smoke test of the benchmark at tiny input sizes.

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the traced and untraced runs give the same frob_err, that the solver
counts repeat exactly at a fixed seed, and that the benchmark refuses to
run without the program's sources.  The tiny estimate-tall sample is far
too small for the bounds grid, so its run skips the confidence-interval
check; that check is tested here on hand-written reports instead.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.run import SIZES, report_problems

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = ("mestimator.scale_solves", "mestimator.newton_iters",
         "mestimator.bisection_fallbacks", "mestimator.nonconverged",
         "mestimator.alpha_roots", "influence.calls", "influence.elems", "frob_err")


def bench(workload, trace, seed=5, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "-m", "perfbench.run", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    info = json.loads(next(l for l in lines if l.startswith("info: "))[len("info: "):])
    return json.loads(lines[-1]), info


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_and_frob_err_unchanged_by_tracing(workload):
    plain, plain_info = parse(bench(workload, 0))
    traced, traced_info = parse(bench(workload, 1))
    for result, key in ((plain, "end_to_end"), (traced, "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for metric in SPEC["end_to_end"]:
        assert plain["metrics"][metric["name"]]["value"] > 0
    assert plain_info["frob_err"] == traced_info["frob_err"]
    assert traced["metrics"]["frob_err"]["value"] == traced_info["frob_err"]


def test_counts_repeat_exactly_at_a_fixed_seed():
    first, _ = parse(bench("paper-trials", 1, seed=11))
    second, _ = parse(bench("paper-trials", 1, seed=11))
    assert first["metrics"]["mestimator.scale_solves"]["value"] > 0
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("cov-tall", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_estimate_report_needs_an_interval_per_axis():
    size = SIZES["full"]["estimate-tall"]
    assert size["intervals"]
    good = {"n": size["n"], "d": size["d"], "grid": {"K": 2},
            "confidence_intervals": [{"direction": i, "lower": 0.0, "upper": 9.7}
                                     for i in range(size["d"])]}
    assert report_problems(good, size) == []
    dropped = dict(good, confidence_intervals=None, grid_note="kappa too large")
    del dropped["grid"]
    assert report_problems(dropped, size)
    short = dict(good, confidence_intervals=good["confidence_intervals"][:-1])
    assert report_problems(short, size)
    unbounded = dict(good, confidence_intervals=[dict(ci, upper="inf")
                                                 for ci in good["confidence_intervals"]])
    assert report_problems(unbounded, size)
    assert report_problems(dict(good, grid={"K": 0}), size)
