import dataclasses
import json
import math
import os
import pathlib
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import robustgram
from robustgram import cli, gram
from robustgram.bounds import confidence_intervals, make_grid
from robustgram.cli import main
from robustgram.gram import empirical_gram, robust_gram
from robustgram.harness import estimate_moment_bounds, save_matrix_csv
from robustgram.mestimator import Sample


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

    @pytest.mark.parametrize("s4, trace_g, term", [
        ("1.0", "1e308", "sigma_default"),
        ("1e-10", "1e305", "zeta_star"),
    ])
    def test_overflowing_term_is_numerical_failure(self, capsys, s4, trace_g, term):
        # both exited 0 and printed Infinity, which is not JSON; the first
        # also warned of an overflow in a numpy scalar product
        code = main_warning_of_nothing(["bounds", "--n", "100000", "--kappa", "3.0",
                                        "--s4", s4, "--trace-g", trace_g])
        captured = capsys.readouterr()
        assert code == 2 and not captured.out
        assert f"numerical failure: {term} overflows" in captured.err


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
    and warn of nothing first; ``estimate`` runs its bounds on the worker."""

    @pytest.fixture(scope="class")
    def scaled_csv(self, tmp_path_factory):
        x = np.random.default_rng(2).standard_normal((20000, 4))
        root = tmp_path_factory.mktemp("scaled")
        paths = {}
        for k in (-300, 256, 300):
            paths[k] = str(root / f"x{k}.csv")
            save_matrix_csv(paths[k], np.ldexp(x, k))
        return paths

    @pytest.mark.parametrize("k, command", [
        (-300, ["estimate"]),
        (-300, ["cov", "--mode", "grid-certified"]),
        (256, ["cov", "--mode", "grid-certified"]),
        (300, ["cov", "--mode", "grid-certified"]),
        (300, ["estimate"]),
    ])
    def test_scaled_sample_exits_2(self, scaled_csv, tmp_path, capsys, monkeypatch, k,
                                   command):
        argv = [command[0], scaled_csv[k], "--out",
                str(tmp_path / ("est" if command[0] == "estimate" else "cov.csv")), *command[1:]]
        if command[0] == "estimate":
            monkeypatch.setattr(gram, "_THREADS", 2)
        assert main_warning_of_nothing(argv) == 2
        assert "numerical failure" in capsys.readouterr().err

    def test_underflowing_plug_in_moments_exit_2(self, tmp_path, capsys, monkeypatch):
        # the fourth powers of 2^-600 data underflow to 0 though the sample is not 0
        path = str(tmp_path / "tiny.csv")
        save_matrix_csv(path, np.ldexp(np.random.default_rng(3).standard_normal((10, 3)), -600))
        monkeypatch.setattr(gram, "_THREADS", 2)
        assert main_warning_of_nothing(["estimate", path, "--out", str(tmp_path / "est")]) == 2
        assert "underflow" in capsys.readouterr().err
