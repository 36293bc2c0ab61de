import contextlib
import dataclasses
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import robustgram
from robustgram import cli, gram
from robustgram.bounds import (confidence_intervals, make_grid, select_hat_n,
                               sigma_default)
from robustgram.cli import main
from robustgram.covariance import robust_covariance
from robustgram.gram import empirical_gram, robust_gram
from robustgram.harness import (estimate_moment_bounds, kappa_plugin, load_matrix_csv,
                                load_sample_csv, save_matrix_csv)
from robustgram.mestimator import Sample, alpha_hat, r_lambda, tilde_n


@pytest.fixture
def sample_csv(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "sample.csv"
    save_matrix_csv(str(path), rng.standard_normal((80, 4)))
    return str(path)


@pytest.fixture
def overflow_csv(tmp_path):
    # finite entries whose squares overflow float64
    rng = np.random.default_rng(1)
    path = tmp_path / "huge.csv"
    save_matrix_csv(str(path), 1e160 * rng.standard_normal((40, 3)))
    return str(path)


def run_cli(argv, timeout=30.0) -> subprocess.CompletedProcess:
    """``python -m robustgram.cli`` in a subprocess, on this package; a
    TimeoutExpired fails the test where the command would hang."""
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(robustgram.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "robustgram.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


def strict_json(text: str):
    """json.loads that rejects NaN and Infinity, which are not JSON."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=reject)


def result_bits(result):
    """The bytes of a result: arrays and floats exactly, dataclasses and
    tuples item by item."""
    if dataclasses.is_dataclass(result):
        return [result_bits(getattr(result, f.name)) for f in dataclasses.fields(result)]
    if isinstance(result, (list, tuple)):
        return [result_bits(item) for item in result]
    return np.asarray(result).tobytes()


def main_warning_of_nothing(argv) -> int:
    """main(argv), asserting that no RuntimeWarning is issued on any thread."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code


class TestEstimate:
    def test_writes_outputs(self, sample_csv, tmp_path, capsys):
        out = tmp_path / "est"
        code = main(["estimate", sample_csv, "--out", str(out), "--epsilon", "0.1"])
        assert code == 0
        for name in ("g_bar.csv", "q.csv", "q_plus.csv", "estimate.json"):
            assert (out / name).exists()
        report = json.loads((out / "estimate.json").read_text())
        assert report["n"] == 80 and report["d"] == 4
        # n = 80 is far below the theoretical grid threshold
        assert report["confidence_intervals"] is None
        assert "grid_note" in report

    def test_three_rows_write_the_estimate_without_bounds(self, tmp_path):
        # the plug-in kurtosis needs four observations; the estimate does not
        x = np.array([[1.0, 2.0, 0.0], [0.5, -1.0, 0.0], [3.0, 0.25, 0.0]])
        path = tmp_path / "three.csv"
        save_matrix_csv(str(path), 1e160 * x)
        out = tmp_path / "est"
        # the empirical Gram matrix still has to be finite
        assert main(["estimate", str(path), "--out", str(out)]) == 2
        assert not (out / "g_bar.csv").exists()
        save_matrix_csv(str(path), x)
        assert main(["estimate", str(path), "--out", str(out)]) == 0
        q = np.loadtxt(str(out / "q.csv"), delimiter=",")
        assert q.shape == (3, 3) and np.all(np.isfinite(q))
        assert (out / "g_bar.csv").exists() and (out / "q_plus.csv").exists()
        report = json.loads((out / "estimate.json").read_text())
        assert report["n"] == 3
        assert report["moment_bounds"] is None and report["confidence_intervals"] is None
        assert "4 observations" in report["grid_note"]

    def test_zero_sample_writes_the_estimate_without_bounds(self, tmp_path):
        # the plug-in moments of a zero sample are 0, which no moment bound
        # admits; the estimate is the zero matrix, as robust_gram returns
        path = tmp_path / "zero.csv"
        save_matrix_csv(str(path), np.zeros((10, 3)))
        out = tmp_path / "est"
        assert main(["estimate", str(path), "--out", str(out)]) == 0
        for name in ("g_bar.csv", "q.csv", "q_plus.csv"):
            np.testing.assert_array_equal(np.loadtxt(str(out / name), delimiter=","),
                                          np.zeros((3, 3)))
        report = json.loads((out / "estimate.json").read_text())
        assert report["moment_bounds"] is None and report["confidence_intervals"] is None
        assert "all zeros" in report["grid_note"]

    def test_outputs_equal_at_one_and_two_threads(self, tmp_path, monkeypatch):
        # n = 14004 admits the grid at d = 4, and its updates of 16 * 14004
        # squares run on two threads, beside the bounds on the worker
        path = tmp_path / "sample.csv"
        save_matrix_csv(str(path), np.random.default_rng(4).standard_normal((14004, 4)) + 1.0)
        bounds_threads = []

        def bounds_report(*args):
            bounds_threads.append(threading.get_ident())
            return report(*args)

        report = cli._bounds_report
        monkeypatch.setattr(cli, "_bounds_report", bounds_report)
        files = []
        for threads in (1, 2):
            monkeypatch.setattr(gram, "_THREADS", threads)
            out = tmp_path / f"threads{threads}"
            assert main(["estimate", str(path), "--out", str(out)]) == 0
            files.append({name: (out / name).read_bytes()
                          for name in ("estimate.json", "q.csv", "q_plus.csv", "g_bar.csv")})
        assert files[0] == files[1]
        assert json.loads(files[0]["estimate.json"])["confidence_intervals"] is not None
        caller = threading.get_ident()
        assert bounds_threads[0] == caller and bounds_threads[1] != caller

    def test_missing_file_is_config_error(self, tmp_path):
        assert main(["estimate", str(tmp_path / "nope.csv")]) == 1

    @pytest.mark.parametrize("epsilon", ["5", "0", "-1"])
    def test_epsilon_outside_unit_interval_is_config_error(self, sample_csv, tmp_path, capsys,
                                                          epsilon):
        out = tmp_path / "est"
        assert main(["estimate", sample_csv, "--out", str(out), "--epsilon", epsilon]) == 1
        assert "epsilon" in capsys.readouterr().err
        assert not (out / "q.csv").exists()

    def test_overflow_is_numerical_failure(self, overflow_csv, tmp_path, capsys):
        assert main(["estimate", overflow_csv, "--out", str(tmp_path / "est")]) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_non_finite_entry_is_config_error(self, tmp_path, capsys):
        # the entry next to nan would overflow if the sample were scaled as
        # if its largest |entry| were below 1
        path = tmp_path / "nan.csv"
        path.write_text("nan,1e300\n1,2\n3,4\n")
        assert main_warning_of_nothing(["estimate", str(path), "--out", str(tmp_path)]) == 1
        assert "non-finite entries" in capsys.readouterr().err

    def test_one_huge_row_is_numerical_failure(self, tmp_path, capsys, monkeypatch):
        # the robust estimate of this sample is finite, but the empirical
        # Gram matrix and the moment bounds overflow; the bounds' error wins,
        # on the worker too
        x = np.random.default_rng(1).standard_normal((200, 3))
        x[0] *= 1e160
        path = tmp_path / "outlier.csv"
        save_matrix_csv(str(path), x)
        out = tmp_path / "est"
        for threads in (1, 2):
            monkeypatch.setattr(gram, "_THREADS", threads)
            assert main_warning_of_nothing(["estimate", str(path), "--out", str(out)]) == 2
            assert "the plug-in moments overflow" in capsys.readouterr().err
            assert not (out / "g_bar.csv").exists() and not (out / "estimate.json").exists()


class TestScaledEstimate:
    """``estimate`` keeps one copy of its sample, divided by a power of two,
    and scales each result back where it is formed: at any scale its files
    hold the library's results in original units, bit for bit."""

    SCALES = (-200, 0, 200)

    @pytest.fixture(scope="class")
    def cases(self, tmp_path_factory):
        # 14004 x 4 admits the grid, and its updates run on two threads
        root = tmp_path_factory.mktemp("scaled_estimate")
        x = np.random.default_rng(4).standard_normal((14004, 4)) + 1.0
        cases = {}
        for k in self.SCALES:
            sample = Sample(np.ldexp(x, k))
            path = str(root / f"x{k}.csv")
            save_matrix_csv(path, sample.data)
            mb = estimate_moment_bounds(sample, seed=0)
            grid = make_grid(sample.n, mb, epsilon=0.1)
            cases[k] = path, {
                "g_bar": empirical_gram(sample),
                "q": robust_gram(sample).matrix,
                "moment_bounds": dataclasses.asdict(mb),
                "intervals": confidence_intervals(sample, np.eye(sample.d), grid, mb)}
        return cases

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("k", SCALES)
    def test_outputs_equal_the_library(self, cases, tmp_path, monkeypatch, k, threads):
        monkeypatch.setattr(gram, "_THREADS", threads)
        path, expected = cases[k]
        assert main(["estimate", path, "--out", str(tmp_path)]) == 0
        for name in ("g_bar", "q"):
            np.testing.assert_array_equal(
                np.loadtxt(str(tmp_path / f"{name}.csv"), delimiter=","), expected[name])
        report = json.loads((tmp_path / "estimate.json").read_text())
        assert report["moment_bounds"] == expected["moment_bounds"]
        assert [(ci["lower"], math.inf if ci["upper"] == "inf" else ci["upper"])
                for ci in report["confidence_intervals"]] == expected["intervals"]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("k", SCALES)
    def test_loaded_sample_gives_the_bits_of_the_array(self, cases, monkeypatch, k, threads):
        # a loaded sample is held divided by 2^_exponent; every public
        # function taking a Sample returns the bits it returns on the array
        monkeypatch.setattr(gram, "_THREADS", threads)
        path, _ = cases[k]
        plain, loaded = Sample(load_matrix_csv(path)), load_sample_csv(path)
        assert plain._exponent == 0 and loaded._exponent != 0
        mb = estimate_moment_bounds(plain)
        grid = make_grid(plain.n, mb, epsilon=0.1)
        sigma = min(sigma_default(plain.n, mb, 0.1), mb.s4**2)
        theta = np.array([1.0, -2.0, 0.5, 3.0])
        lam = float(np.mean(plain.projections(theta) ** 2))
        consumers = {
            "empirical_gram": empirical_gram,
            "robust_gram": robust_gram,
            "robust_covariance q=2": robust_covariance,
            "robust_covariance q=3": lambda s: robust_covariance(s, q=3),
            "grid-certified": lambda s: robust_covariance(s, mode="grid-certified"),
            "kappa_plugin": kappa_plugin,
            "estimate_moment_bounds": estimate_moment_bounds,
            "confidence_intervals": lambda s: confidence_intervals(s, np.eye(s.d), grid, mb),
            "select_hat_n": lambda s: select_hat_n(s, theta, grid, sigma, mb),
            "tilde_n": lambda s: tilde_n(s, theta, 1.0),
            "r_lambda": lambda s: r_lambda(s, theta, lam),
            "alpha_hat": lambda s: alpha_hat(s, theta, 1.0),
            "projections": lambda s: s.projections(theta),
        }
        for name, consumer in consumers.items():
            assert result_bits(consumer(loaded)) == result_bits(consumer(plain)), name

    def test_op_peak_is_at_most_4_5_samples(self, tmp_path, monkeypatch):
        # Traced peak of one op on one thread, which keeps it deterministic,
        # on a 40000 x 10 sample (3.05 MiB).  Its one scaled copy, the
        # columns of the projections, a block buffer and the solver's slab
        # make 3.2 samples; a second scaled copy in the estimate and a
        # third in kappa, with the intervals' squares as one (d, n) array,
        # made 5.2.  The first op runs untraced, so that the modules it
        # imports do not count.
        x = np.random.default_rng(0).standard_t(3, (40000, 10))
        path = str(tmp_path / "tall.csv")
        save_matrix_csv(path, x)
        monkeypatch.setattr(gram, "_THREADS", 1)
        argv = ["estimate", path, "--out", str(tmp_path / "est")]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * x.nbytes

    @pytest.mark.parametrize("threads, bound", [(2, 4.6), (1, 3.5)])
    def test_op_peak_without_a_projections_buffer(self, tmp_path, monkeypatch, threads, bound):
        # The second op of a process on the sample above holds its scaled
        # copy, the columns of the projections and, per thread, a block
        # buffer and the solver's slab: 4.4 samples on two threads and 3.2
        # on one.  A persistent buffer of the projections beside their
        # columns made 5.4 and 4.2.
        x = np.random.default_rng(0).standard_t(3, (40000, 10))
        path = str(tmp_path / "tall.csv")
        save_matrix_csv(path, x)
        monkeypatch.setattr(gram, "_THREADS", threads)
        argv = ["estimate", path, "--out", str(tmp_path / "est")]
        assert main(argv) == 0
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * x.nbytes


class TestBounds:
    def test_prints_grid_and_bounds(self, capsys):
        code = main(["bounds", "--n", "100000", "--kappa", "3.0", "--s4", "1.0",
                     "--trace-g", "1.0", "--epsilon", "0.05"])
        assert code == 0
        out = strict_json(capsys.readouterr().out)
        assert out["grid"]["K"] == 7
        assert len(out["bounds"]) == 5

    def test_too_small_n_fails_cleanly(self, capsys):
        code = main(["bounds", "--n", "100", "--kappa", "3.0", "--s4", "1.0"])
        assert code == 1

    @pytest.mark.parametrize("flag, value, message", [
        ("--t", "nan", "--t must be finite"),
        ("--t", "inf", "--t must be finite"),
        ("--t", "-1", "--t must be finite and positive"),
        ("--t", "0", "--t must be finite and positive"),
        ("--a", "inf", "a must be finite and positive"),
        ("--a", "nan", "a must be finite and positive"),
        ("--trace-g", "-1", "--trace-g must be finite and non-negative"),
    ])
    def test_bad_flag_is_config_error(self, capsys, flag, value, message):
        # --t nan and inf printed NaN and Infinity, which are not JSON;
        # --a inf exited 2 as a numerical failure, --a nan exited 1 only by
        # failing to convert NaN to an integer; --trace-g -1 was replaced
        code = main(["bounds", "--n", "100000", "--kappa", "3.0", "--s4", "1.0",
                     flag, value])
        captured = capsys.readouterr()
        assert code == 1 and not captured.out
        assert f"error: {message}" in captured.err

    @pytest.mark.parametrize("a", ["1e-300", "1e-6"])
    def test_grid_of_too_many_levels_is_config_error(self, a):
        # --a 1e-300 asked for about 3e300 grid levels and never ended, and
        # --a 1e-6 printed 2.85e6 of them
        proc = run_cli(["bounds", "--n", "100000", "--kappa", "3", "--s4", "1", "--a", a])
        assert proc.returncode == 1 and not proc.stdout
        assert proc.stderr.startswith("error: ") and "MAX_GRID_K" in proc.stderr
        assert f"--a {float(a)}" in proc.stderr

    @pytest.mark.parametrize("log_n, s4, trace_g", [
        (5, "1.0", "1e308"),
        (5, "1e-10", "1e305"),
        (300, "1.0", "1e308"),
    ])
    def test_zeta_star_finite_where_only_a_product_overflows(self, capsys, log_n, s4, trace_g):
        # exited 2 with "zeta_star overflows to inf": ZETA_C3 kappa Tr(G),
        # and in the second case Tr(G) / t, overflow though zeta_star does not
        code = main_warning_of_nothing(["bounds", "--n", str(10**log_n), "--kappa", "3.0",
                                        "--s4", s4, "--trace-g", trace_g])
        captured = capsys.readouterr()
        assert code == 0 and not captured.err
        rows = json.loads(captured.out)["bounds"]
        assert rows and all(1e150 < row["zeta_star"] < math.inf for row in rows)

    def test_overflowing_threshold_is_numerical_failure(self, capsys):
        # the smallest n the grid admits leaves 100 kappa Tr(G) / 37.8 out of range
        code = main(["bounds", "--n", "5773", "--kappa", "3", "--s4", "1", "--trace-g", "1e308"])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert "numerical failure: sigma_default overflows to inf" in captured.err

    @pytest.mark.parametrize("s4, term", [
        ("1e100", "s4^4 overflows to inf"),
        ("1e160", "s4^2 overflows to inf"),
        ("1e200", "s4^2 overflows to inf"),
        ("1e-160", "s4^4 underflows to 0"),
        ("1e-200", "s4^2 underflows to 0"),
    ])
    def test_s4_out_of_range_is_numerical_failure(self, capsys, s4, term):
        # the large ones exited 2 with the bare OverflowError message
        # "(34, 'Numerical result out of range')"; the small ones exited 1,
        # as if s4 were not positive
        code = main(["bounds", "--n", "100000", "--kappa", "3", "--s4", s4])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert f"numerical failure: {term}" in captured.err
        assert f"--s4 {float(s4)}" in captured.err

    @pytest.mark.parametrize("argv, code, flag", [
        (["--n", "100000", "--kappa", "-1", "--s4", "1"], 1, "--kappa -1.0"),
        (["--n", "100000", "--kappa", "0", "--s4", "1"], 1, "--kappa 0.0"),
        (["--n", "100000", "--kappa", "3", "--s4", "0"], 1, "--s4 0.0"),
        (["--n", "100000", "--kappa", "3", "--s4", "nan"], 1, "--s4 nan"),
        (["--n", "100000", "--kappa", "3", "--s4", "3", "--trace-g", "1e-300"], 1,
         "--trace-g 1e-300"),
        (["--n", str(10**300), "--kappa", "1e100", "--s4", "1", "--trace-g", "1e300"], 2,
         "--kappa 1e+100"),
        (["--n", "5773", "--kappa", "3", "--s4", "1", "--a", "1e300"], 2, "--a 1e+300"),
    ], ids=["kappa-negative", "kappa-zero", "s4-zero", "s4-nan", "inconsistent",
            "grid-point", "math-range"])
    def test_error_names_the_flags(self, capsys, argv, code, flag):
        # each message named no flag: "math domain error", "float division by
        # zero" (exit 2), "s4 and trace_g must be positive", "moment bounds
        # must be finite", "inconsistent bounds", "grid point 0 is out of
        # floating-point range" and "math range error"
        assert main(["bounds", *argv]) == code
        captured = capsys.readouterr()
        assert not captured.out and flag in captured.err


# Values argparse accepts for every float flag of ``robustgram bounds``, and for --n.
FLAG_VALUES = ["0", "-1", "nan", "inf", "1e-300", "1e-160", "1", "3", "1e100", "1e160", "1e300"]
N_VALUES = ["0", "1", "5773", "100000", str(10**300)]


def finite_json_problems(node, key=None):
    """The non-finite numbers, and the strings other than "inf" and a note,
    in a parsed JSON document."""
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in finite_json_problems(v, k)]
    if isinstance(node, list):
        return [p for v in node for p in finite_json_problems(v, key)]
    if isinstance(node, float) and not math.isfinite(node):
        return [f"{key}: {node}"]
    if isinstance(node, str) and node != "inf" and key != "sigma_note":
        return [f"{key}: {node!r}"]
    return []


@settings(max_examples=400, deadline=None)
@given(n=st.sampled_from(N_VALUES), kappa=st.sampled_from(FLAG_VALUES),
       s4=st.sampled_from(FLAG_VALUES),
       optional=st.fixed_dictionaries({
           flag: st.none() | st.sampled_from(FLAG_VALUES)
           for flag in ("--trace-g", "--epsilon", "--a")}),
       t=st.none() | st.lists(st.sampled_from(FLAG_VALUES), max_size=2))
def test_bounds_contract(n, kappa, s4, optional, t):
    """``robustgram bounds`` on any values its parser accepts exits 0 with
    strict, finite JSON, or exits 1 or 2 naming a flag, within 2 s and with
    no warning."""
    argv = ["bounds", "--n", n, "--kappa", kappa, "--s4", s4,
            *[x for flag, value in optional.items() if value is not None for x in (flag, value)],
            *(["--t", *t] if t is not None else [])]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        start = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - start
    assert seconds < 2.0, argv
    assert code in (0, 1, 2), argv
    if code == 0:
        assert finite_json_problems(strict_json(out.getvalue())) == [], argv
    else:
        assert not out.getvalue() and re.search(r"--[a-z]", err.getvalue()), (argv, err.getvalue())


@pytest.mark.parametrize("command", ["estimate", "cov"])
@pytest.mark.parametrize("text, header", [("", False), ("a,b\n", True)],
                         ids=["empty", "header only"])
def test_sample_without_rows_prints_only_the_error(tmp_path, command, text, header):
    # numpy's "loadtxt: input contained no data" warning came before the error
    path = tmp_path / "empty.csv"
    path.write_text(text)
    proc = run_cli([command, str(path), "--out", str(tmp_path / "out"),
                    *(["--header"] if header else [])])
    assert proc.returncode == 1 and not proc.stdout
    assert proc.stderr.splitlines() == [f"error: {path} holds no data rows"]


class TestBenchmark:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = {"n": 50, "d": 4, "trials": 3, "seed": 5, "epsilon": 0.1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        code = main(["benchmark", str(cfg_path), "--out", str(out)])
        assert code == 0
        assert (out / "trials.csv").exists()
        assert (out / "quantiles.csv").exists()
        assert (out / "summary.json").exists()
        assert len((out / "trials.csv").read_text().splitlines()) == 4

    def test_trials_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 50, "d": 4, "trials": 10, "seed": 5}))
        out = tmp_path / "run"
        assert main(["benchmark", str(cfg_path), "--trials", "2", "--out", str(out)]) == 0
        assert len((out / "trials.csv").read_text().splitlines()) == 3

    def test_invalid_override_is_config_error(self, tmp_path, monkeypatch):
        # the overridden configuration is validated before any trial runs
        import robustgram.harness as harness

        ran = []
        monkeypatch.setattr(harness, "_run_trial", lambda config, t: ran.append(t))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 50, "d": 4, "trials": 3, "seed": 5}))
        out = tmp_path / "run"
        for flag in ("--trials", "--jobs"):
            assert main(["benchmark", str(cfg_path), flag, "0", "--out", str(out)]) == 1
        assert not ran and not out.exists()

    def test_invalid_config_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 1}))
        assert main(["benchmark", str(cfg_path)]) == 1

    def test_block_size_above_sample_size_is_config_error(self, tmp_path, caplog):
        # a configuration error (exit 1) found before any trial runs, not a numerical failure
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 4, "d": 2, "trials": 3, "q": 5,
                                        "estimators": ["covariance"]}))
        assert main(["benchmark", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        assert "trial" not in caplog.text
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("cfg", [
        {"trials": 2.5},
        {"n": 50.0, "trials": 2},
        {"trials": True},
        {"estimators": "robust"},
        {"estimators": ["robust", 3]},
        {"epsilon": "0.1"},
        {"contaminant_scale": math.inf},
        {"seed": -1},
        {"output_path": 5}])
    def test_ill_typed_config_is_config_error(self, tmp_path, capsys, cfg):
        # each once escaped as a traceback, a failed trial or a run of the
        # wrong size
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["benchmark", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
        assert f"error: {next(iter(cfg))} must" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_malformed_json_exit_code(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{not json")
        assert main(["benchmark", str(cfg_path)]) == 1

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch):
        import robustgram.harness as harness

        def broken(config, t):
            raise RuntimeError("synthetic numerical breakdown")

        monkeypatch.setattr(harness, "_run_trial", broken)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"n": 50, "d": 4, "trials": 3, "seed": 5}))
        assert main(["benchmark", str(cfg_path)]) == 2


class TestCov:
    def test_writes_matrix(self, sample_csv, tmp_path):
        out = tmp_path / "cov.csv"
        code = main(["cov", sample_csv, "--q", "2", "--out", str(out)])
        assert code == 0
        m = np.loadtxt(str(out), delimiter=",")
        assert m.shape == (4, 4)
        np.testing.assert_allclose(m, m.T, atol=1e-12)

    def test_psd_flag(self, sample_csv, tmp_path):
        out = tmp_path / "cov.csv"
        assert main(["cov", sample_csv, "--q", "3", "--psd", "--out", str(out)]) == 0
        m = np.loadtxt(str(out), delimiter=",")
        assert np.linalg.eigvalsh(m).min() >= -1e-10

    @pytest.mark.parametrize("epsilon", ["5", "0", "-1"])
    def test_epsilon_outside_unit_interval_is_config_error(self, sample_csv, tmp_path, capsys,
                                                          epsilon):
        out = tmp_path / "cov.csv"
        assert main(["cov", sample_csv, "--out", str(out), "--epsilon", epsilon]) == 1
        assert "epsilon" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["iterative-practical", "grid-certified"])
    def test_zero_sample_writes_the_zero_matrix(self, tmp_path, mode):
        # grid-certified mode exited 1 here: the zero sample has no moment bounds
        path, out = tmp_path / "zero.csv", tmp_path / "cov.csv"
        save_matrix_csv(str(path), np.zeros((14004, 3)))
        assert main(["cov", str(path), "--mode", mode, "--out", str(out)]) == 0
        np.testing.assert_array_equal(np.loadtxt(str(out), delimiter=","), np.zeros((3, 3)))

    def test_overflow_is_numerical_failure(self, overflow_csv, tmp_path, capsys):
        assert main(["cov", overflow_csv, "--out", str(tmp_path / "cov.csv")]) == 2
        assert "numerical failure" in capsys.readouterr().err


class TestRangeFailures:
    """Data whose moments or grid leave the floating-point range fail with
    exit 2 and a message, never with a traceback or a configuration error,
    and warn of nothing first; ``estimate`` runs its bounds on the worker.
    Grid-certified ``cov`` forms its moments and grid on scaled vectors, so
    the same data no longer leave the range there."""

    @pytest.fixture(scope="class")
    def scaled_csv(self, tmp_path_factory):
        x = np.random.default_rng(2).standard_normal((20000, 4))
        root = tmp_path_factory.mktemp("scaled")
        paths = {}
        for k in (-300, 0, 256, 300):
            paths[k] = str(root / f"x{k}.csv")
            save_matrix_csv(paths[k], np.ldexp(x, k))
        return paths

    @pytest.mark.parametrize("k, command", [
        (-300, ["estimate"]),
        (300, ["estimate"]),
    ])
    def test_scaled_sample_exits_2(self, scaled_csv, tmp_path, capsys, monkeypatch, k,
                                   command):
        monkeypatch.setattr(gram, "_THREADS", 2)
        argv = [*command, scaled_csv[k], "--out", str(tmp_path / "est")]
        assert main_warning_of_nothing(argv) == 2
        assert "numerical failure" in capsys.readouterr().err

    @staticmethod
    def _grid_certified_cov(path, out, q):
        assert main_warning_of_nothing(["cov", path, "--out", out, "--q", q,
                                        "--mode", "grid-certified"]) == 0
        return load_matrix_csv(out)

    @pytest.fixture(scope="class")
    def unit_cov(self, scaled_csv, tmp_path_factory):
        root = tmp_path_factory.mktemp("unit_cov")
        return {q: self._grid_certified_cov(scaled_csv[0], str(root / f"cov{q}.csv"), q)
                for q in ("2", "3")}

    @pytest.mark.parametrize("k", [-300, 256, 300])
    def test_scaled_grid_certified_cov_scales_by_powers_of_four(self, scaled_csv, unit_cov,
                                                                tmp_path, k):
        # exited 2 at each k: the plug-in moments of the blocks, formed in
        # original units, overflowed or underflowed to 0
        for q in ("2", "3"):
            est = self._grid_certified_cov(scaled_csv[k], str(tmp_path / f"cov{q}.csv"), q)
            np.testing.assert_array_equal(est, np.ldexp(unit_cov[q], 2 * k))

    def test_underflowing_plug_in_moments_exit_2(self, tmp_path, capsys, monkeypatch):
        # the fourth powers of 2^-600 data underflow to 0 though the sample is not 0
        path = str(tmp_path / "tiny.csv")
        save_matrix_csv(path, np.ldexp(np.random.default_rng(3).standard_normal((10, 3)), -600))
        monkeypatch.setattr(gram, "_THREADS", 2)
        assert main_warning_of_nothing(["estimate", path, "--out", str(tmp_path / "est")]) == 2
        assert "underflow" in capsys.readouterr().err
