import json
import math
import time
import warnings

import numpy as np
import pytest

import robustgram.harness as harness
import robustgram.mestimator as mestimator
from robustgram.harness import (
    MIN_KAPPA_OBSERVATIONS,
    BenchmarkError,
    ConfigError,
    ExperimentConfig,
    TrialResult,
    _kappa_of_rows,
    estimate_moment_bounds,
    gen_mixture,
    kappa_plugin,
    load_matrix_csv,
    load_sample_csv,
    quantile_curve,
    _run_trial,
    run_benchmark,
    save_matrix_csv,
    summarize,
    trial_rng,
    true_gram,
)
from robustgram.gram import NumericalError
from robustgram.mestimator import Sample

from oracles import block_matrices, kappa_per_direction


def trial_0_fails_last(config, t):
    """A trial of ``run_benchmark``: trials 0 and 1 fail, 0 a little after
    1, and the others run.  At the top level, so a process pool can send it."""
    if t == 0:
        time.sleep(0.2)
    if t < 2:
        raise RuntimeError(f"synthetic failure of trial {t}")
    return _run_trial(config, t)


def small_config(**kw):
    base = dict(n=60, d=4, trials=4, alpha_mix=0.05, seed=11, epsilon=0.1)
    base.update(kw)
    return ExperimentConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(n=1)
        with pytest.raises(ConfigError):
            ExperimentConfig(alpha_mix=1.5)
        with pytest.raises(ConfigError):
            ExperimentConfig(estimators={"nonsense"})
        # a q-block needs q observations, so no covariance trial could run
        with pytest.raises(ConfigError, match="q = 5"):
            ExperimentConfig(n=4, d=2, q=5, estimators={"covariance"})

    def test_robust_empirical_always_present(self):
        cfg = ExperimentConfig(estimators={"covariance"})
        assert {"robust", "empirical", "covariance"} <= set(cfg.estimators)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 80, "d": 5, "trials": 2, "seed": 3}))
        cfg = ExperimentConfig.from_json(str(path))
        assert (cfg.n, cfg.d, cfg.trials, cfg.seed) == (80, 5, 2, 3)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n": 80, "bogus": 1}))
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(str(path))


class TestMixture:
    def test_pure_structured_component(self):
        cfg = small_config(n=20000, d=4, alpha_mix=0.0)
        s = gen_mixture(cfg)
        cov = s.data.T @ s.data / s.n
        m1 = harness._structured_block(4)
        assert np.max(np.abs(cov - m1)) <= 0.1

    def test_pure_contaminant(self):
        cfg = small_config(n=20000, d=4, alpha_mix=1.0)
        s = gen_mixture(cfg)
        diag = np.mean(s.data**2, axis=0)
        np.testing.assert_allclose(diag, 16.0, rtol=0.1)

    def test_deterministic_given_seed(self):
        cfg = small_config()
        a = gen_mixture(cfg, trial_rng(cfg.seed, 3))
        b = gen_mixture(cfg, trial_rng(cfg.seed, 3))
        np.testing.assert_array_equal(a.data, b.data)

    def test_true_gram_entries(self):
        cfg = small_config(d=10, alpha_mix=0.05)
        g = true_gram(cfg)
        assert g[0, 0] == pytest.approx(2.7)
        assert g[0, 1] == pytest.approx(0.95)
        assert g[1, 1] == pytest.approx(1.75)
        for k in range(2, 10):
            assert g[k, k] == pytest.approx(0.8095)
        assert np.trace(g) == pytest.approx(10.926)

    def test_true_gram_alpha_zero(self):
        cfg = small_config(d=6, alpha_mix=0.0)
        np.testing.assert_allclose(true_gram(cfg), harness._structured_block(6), atol=0.0)


class TestQuantileCurve:
    def test_single_value(self):
        assert quantile_curve([3.5]) == [(0.5, 3.5)]

    def test_sorted_preserved(self):
        vals = [1.0, 2.0, 5.0]
        curve = quantile_curve(vals)
        assert [v for _, v in curve] == vals
        assert [p for p, _ in curve] == pytest.approx([0.25, 0.5, 0.75])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            quantile_curve([])


class TestBenchmark:
    def test_single_trial(self):
        res = run_benchmark(small_config(trials=1))
        assert len(res) == 1
        assert res[0].trial_index == 0
        assert res[0].error_robust >= 0.0

    def test_outputs_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run_benchmark(small_config(output_path=str(out1)))
        run_benchmark(small_config(output_path=str(out2)))
        for name in ("trials.csv", "quantiles.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        header = (out1 / "trials.csv").read_text().splitlines()[0]
        assert header == "trial_index,error_robust,error_empirical,seed_used"
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["trials_completed"] == 4
        assert summary["config"]["seed"] == 11

    def test_parallel_matches_serial(self, tmp_path):
        out1, out2 = tmp_path / "serial", tmp_path / "par"
        run_benchmark(small_config(output_path=str(out1), jobs=1))
        run_benchmark(small_config(output_path=str(out2), jobs=2))
        assert (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()

    def test_covariance_column_when_requested(self, tmp_path):
        out = tmp_path / "cov"
        cfg = small_config(estimators={"robust", "empirical", "covariance"},
                           output_path=str(out))
        results = run_benchmark(cfg)
        assert all(math.isfinite(r.error_covariance) for r in results)
        header = (out / "trials.csv").read_text().splitlines()[0]
        assert header.endswith(",error_covariance")
        summary = json.loads((out / "summary.json").read_text())
        assert "mean_error_covariance" in summary

    def test_failure_tolerance(self, monkeypatch):
        real = harness._run_trial

        def flaky(config, t):
            if t == 0:
                raise RuntimeError("synthetic failure")
            return real(config, t)

        monkeypatch.setattr(harness, "_run_trial", flaky)
        res = run_benchmark(small_config(trials=20))
        assert len(res) == 19

    def test_failure_threshold_exceeded(self, monkeypatch):
        def broken(config, t):
            raise RuntimeError("always down")

        monkeypatch.setattr(harness, "_run_trial", broken)
        with pytest.raises(BenchmarkError):
            run_benchmark(small_config(trials=5))

    def test_failures_recorded_in_trial_order(self, tmp_path, monkeypatch):
        # with two jobs trial 1 fails first; summary.json listed it first,
        # and the error named it as the first failure
        monkeypatch.setattr(harness, "_run_trial", trial_0_fails_last)
        out = tmp_path / "run"
        run_benchmark(small_config(trials=20, jobs=2, output_path=str(out)))
        failures = json.loads((out / "summary.json").read_text())["failures"]
        assert [idx for idx, _ in failures] == [0, 1]
        with pytest.raises(BenchmarkError, match=r"first: \(0, "):
            run_benchmark(small_config(trials=2, jobs=2))

    def test_paired_seeds_recorded(self):
        res = run_benchmark(small_config(trials=3, seed=40))
        assert [r.seed_used for r in res] == [40, 41, 42]

    def test_summary_stats(self):
        res = [TrialResult(0, 1.0, 2.0, 4, 0), TrialResult(1, 3.0, 6.0, 4, 1)]
        s = summarize(res, small_config(trials=2))
        assert s["mean_error_robust"] == pytest.approx(2.0)
        assert s["mean_error_empirical"] == pytest.approx(4.0)

    def test_golden_errors_of_the_reference_experiment(self):
        # pins the solver's arithmetic: any change to it moves these errors
        golden = [5.598184902181992, 8.082191818567468, 5.595405765644652, 6.909494892004772]
        res = run_benchmark(ExperimentConfig(trials=4, seed=0))
        assert [r.error_robust for r in res] == [pytest.approx(g, rel=1e-12) for g in golden]

    def test_median_improvement_on_mixture(self):
        cfg = ExperimentConfig(n=100, d=10, trials=30, alpha_mix=0.05, seed=77,
                               epsilon=0.1)
        res = run_benchmark(cfg)
        med_rob = np.median([r.error_robust for r in res])
        med_emp = np.median([r.error_empirical for r in res])
        assert med_rob < med_emp


class TestMatrixCsv:
    def test_round_trip_full_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((7, 4)) * 10.0**rng.integers(-8, 8, size=(7, 4))
        path = tmp_path / "m.csv"
        save_matrix_csv(str(path), m)
        np.testing.assert_array_equal(load_matrix_csv(str(path)), m)

    def test_header_skip(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
        s = load_sample_csv(str(path), header=True)
        assert (s.n, s.d) == (2, 2)


class TestMomentPlugins:
    def test_gaussian_kappa_near_three(self):
        rng = np.random.default_rng(1)
        s = Sample(rng.standard_normal((10_000, 5)))
        k = kappa_plugin(s, n_directions=100, seed=0)
        assert 2.5 <= k <= 3.5

    def test_point_mass_ratio_one(self):
        s = Sample(np.tile(np.array([2.0, -1.0, 0.5]), (6, 1)))
        assert kappa_plugin(s, n_directions=20, seed=0) == pytest.approx(1.0)

    def test_heavy_tail_mixture_exceeds_three(self):
        cfg = ExperimentConfig(n=5000, d=10, trials=1, alpha_mix=0.05, seed=2)
        s = gen_mixture(cfg)
        assert kappa_plugin(s, n_directions=100, seed=0) > 3.0

    def test_too_few_observations_rejected_on_both_paths(self):
        x = np.ones((MIN_KAPPA_OBSERVATIONS - 1, 2))
        for call in (lambda: kappa_plugin(Sample(x)), lambda: _kappa_of_rows(x)):
            with pytest.raises(ValueError, match="observations"):
                call()

    def test_estimate_moment_bounds_fields(self):
        rng = np.random.default_rng(3)
        s = Sample(rng.standard_normal((2000, 4)))
        mb = estimate_moment_bounds(s, seed=0)
        assert not mb.certified
        assert mb.kappa >= 1.5 * kappa_plugin(s, seed=0) - 1e-9
        assert mb.s4 == pytest.approx(float(np.mean(np.sum(s.data**2, axis=1) ** 2)) ** 0.25)
        assert mb.trace_g >= mb.s4**2 / math.sqrt(mb.kappa) - 1e-12

    def test_overflowing_moments_are_numerical_error(self):
        # raised before MomentBounds, which rejects a non-finite field
        x = np.random.default_rng(4).standard_normal((200, 3))
        x[0] *= 1e160
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="moments overflow"):
                estimate_moment_bounds(Sample(x), seed=0)

    @pytest.mark.parametrize("seed", range(8))
    def test_kappa_matches_one_direction_at_a_time(self, seed):
        # the chunked matmul rounds projections as gemm does, not gemv
        rng = np.random.default_rng(40 + seed)
        x = rng.standard_t(5, (int(rng.integers(4, 3000)), 1 + seed))
        if seed == 3:
            x[:, 0] = 0.0  # a zero-variance canonical direction is skipped
        k = kappa_plugin(Sample(x), n_directions=30 + seed, seed=seed)
        assert k == pytest.approx(kappa_per_direction(x, 30 + seed, seed), rel=1e-13, abs=0.0)

    def test_needs_four_observations(self):
        with pytest.raises(ValueError):
            kappa_plugin(Sample(np.ones((3, 2))))

    @pytest.mark.parametrize("seed", range(3))
    def test_kappa_is_exactly_scale_free(self, seed):
        # in original units the fourth moments of 2^256 data overflow and the
        # squared second moments of 2^-300 data underflow
        x = np.random.default_rng(50 + seed).standard_t(5, (2000, 2 + seed))
        k = kappa_plugin(Sample(x), seed=seed)
        for e in (-300, -100, 100, 256, 300):
            assert kappa_plugin(Sample(np.ldexp(x, e)), seed=seed) == k


class TestPluginMoments:
    """The one plug-in moment routine of the Gram and q-block instances."""

    @pytest.mark.parametrize("g", [1, 3, 6])
    def test_moments_match_the_block_matrices(self, g):
        rng = np.random.default_rng(60 + g)
        vectors = rng.standard_t(5, (500, g, 4))
        kappa = 3.0
        mb = harness._plugin_moments(vectors, kappa)
        a = block_matrices(vectors)
        top = np.linalg.eigvalsh(a)[:, -1]
        assert mb.s4**4 == pytest.approx(float(np.mean(top**2)), rel=1e-12)
        mean_trace = float(np.mean(np.trace(a, axis1=1, axis2=2)))
        assert mb.trace_g == pytest.approx(max(mean_trace, mb.s4**2 / math.sqrt(kappa)),
                                           rel=1e-12)
        gbar = a.mean(axis=0)
        assert mb.trace_g2 == pytest.approx(float(np.trace(gbar @ gbar)), rel=1e-12)
        assert (mb.kappa, mb.certified) == (kappa, False)

    def test_trace_is_floored_at_the_cauchy_schwarz_level(self):
        # one large block among many small ones: s4^2 / sqrt(kappa) exceeds the mean trace
        vectors = np.full((1000, 2, 3), 1e-3)
        vectors[0] = 1.0
        mb = harness._plugin_moments(vectors, 1.0 + 1e-6)
        assert mb.trace_g == mb.s4**2 / math.sqrt(1.0 + 1e-6)
        assert mb.trace_g > float(np.mean(np.sum(vectors**2, axis=(1, 2))))

    def test_blocks_of_one_vector_equal_rows(self):
        x = np.random.default_rng(64).standard_t(4, (700, 5))
        assert harness._plugin_moments(x[:, None, :], 2.5) == harness._plugin_moments(x, 2.5)

    @pytest.mark.parametrize("shape", [(1001, 10), (1001, 3, 10)])
    def test_row_tiles_move_no_bit(self, shape, monkeypatch):
        # the row traces are squared a tile of TILE_ELEMS at a time; rows
        # of 10 and 30 entries take numpy's pairwise sum, so a row summed
        # in another order would show
        vectors = np.random.default_rng(65).standard_t(4, shape)
        whole = np.sum(np.square(vectors).reshape(len(vectors), -1), axis=1)
        expected = harness._plugin_moments(vectors, 2.5)
        for tile_elems in (1, 2 * vectors[0].size + 1, 64 * vectors[0].size):
            monkeypatch.setattr(mestimator, "TILE_ELEMS", tile_elems)
            np.testing.assert_array_equal(harness._row_traces(vectors), whole)
            assert harness._plugin_moments(vectors, 2.5) == expected

    def test_overflowing_spectral_norms_are_numerical_error(self):
        # the spectral-norm branch: the fourth moment of blocks of three
        # vectors overflows and raises without a RuntimeWarning first
        vectors = np.ldexp(np.random.default_rng(16).standard_normal((6666, 3, 3)), 256)
        with warnings.catch_warnings(record=True) as caught, \
                pytest.raises(NumericalError, match="moments overflow"):
            warnings.simplefilter("always")
            harness._plugin_moments(vectors, 3.0)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
