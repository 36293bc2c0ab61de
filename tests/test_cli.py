import json
import threading
import warnings

import numpy as np
import pytest

from robustgram import cli, gram
from robustgram.cli import main
from robustgram.harness import save_matrix_csv


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


class TestBounds:
    def test_prints_grid_and_bounds(self, capsys):
        code = main(["bounds", "--n", "100000", "--kappa", "3.0", "--s4", "1.0",
                     "--trace-g", "1.0", "--epsilon", "0.05"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["grid"]["K"] == 7
        assert len(out["bounds"]) == 5

    def test_too_small_n_fails_cleanly(self, capsys):
        code = main(["bounds", "--n", "100", "--kappa", "3.0", "--s4", "1.0"])
        assert code == 1


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
