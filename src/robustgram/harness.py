"""Benchmark harness: mixture data generation, seeded trials, statistics, I/O.

The reference experiment draws n = 100 observations in dimension 10 from a
Gaussian mixture (rare isotropic high-variance component on top of a frequent
structured low-variance one), runs the empirical and the robust Gram
estimators on the same sample, and records both squared Frobenius errors
against the closed-form mixture Gram matrix over many independent trials.

Randomness uses the counter-based Philox generator; trial t of a run seeded
with s uses the stream Philox(key = s + t), so any subset of trials can be
reproduced bit-for-bit in isolation.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import logging
import math
import numbers
import os
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import mestimator
from .bounds import MomentBounds
from .covariance import robust_covariance
from .gram import (NumericalError, _mean_matrix, _normalized, empirical_gram,
                   frobenius_error, robust_gram)
from .mestimator import Sample

logger = logging.getLogger(__name__)

VALID_ESTIMATORS = {"robust", "empirical", "covariance"}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class BenchmarkError(RuntimeError):
    """More than the tolerated fraction of trials failed."""


@dataclass
class ExperimentConfig:
    n: int = 100
    d: int = 10
    trials: int = 500
    alpha_mix: float = 0.05
    contaminant_scale: float = 16.0
    seed: int = 0
    epsilon: float = 0.1
    estimators: frozenset = frozenset({"robust", "empirical"})
    output_path: str = ""
    # the reference experiment's setting, which its acceptance band and
    # quoted figures use
    num_updates: int = 4
    q: int = 2
    jobs: int = 1

    def __post_init__(self):
        # JSON gives floats, booleans and strings where counts and levels
        # belong; each is a configuration error, not a failed trial
        for name in ("n", "d", "trials", "seed", "num_updates", "q", "jobs"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("alpha_mix", "contaminant_scale", "epsilon"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Real) or isinstance(value, bool):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if not isinstance(self.output_path, str):
            raise ConfigError(f"output_path must be a string, got {self.output_path!r}")
        if (not isinstance(self.estimators, (list, tuple, set, frozenset))
                or not all(isinstance(name, str) for name in self.estimators)):
            raise ConfigError(f"estimators must be a list of names, got {self.estimators!r}")
        if self.n < 2 or self.d < 2:
            raise ConfigError("need n >= 2 and d >= 2")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0.0 <= self.alpha_mix <= 1.0:
            raise ConfigError("alpha_mix must lie in [0, 1]")
        if not 0.0 <= self.contaminant_scale < math.inf:
            raise ConfigError("contaminant_scale must be finite and non-negative")
        if not 0 <= self.seed <= 2**128 - self.trials:
            # each trial's Philox key, seed + trial index, is below 2^128
            raise ConfigError(f"seed must lie in [0, 2^128 - trials], got {self.seed}")
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError("epsilon must lie in (0, 1)")
        if self.num_updates < 1 or self.jobs < 1 or self.q < 2:
            raise ConfigError("num_updates, jobs must be >= 1 and q >= 2")
        if self.q > self.n:
            raise ConfigError(f"block size q = {self.q} exceeds the sample size n = {self.n}")
        est = frozenset(self.estimators)
        unknown = est - VALID_ESTIMATORS
        if unknown:
            raise ConfigError(f"unknown estimators: {sorted(unknown)}")
        # the trial schema always reports the robust/empirical pair
        object.__setattr__(self, "estimators", est | {"robust", "empirical"})

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        try:
            return cls(**raw)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        out = asdict(self)
        out["estimators"] = sorted(self.estimators)
        return out


@dataclass(frozen=True)
class TrialResult:
    trial_index: int
    error_robust: float
    error_empirical: float
    iterations: int
    seed_used: int
    error_covariance: float = math.nan  # populated only when requested


def _structured_block(d: int) -> np.ndarray:
    m1 = 0.01 * np.eye(d)
    m1[0, 0], m1[0, 1], m1[1, 0], m1[1, 1] = 2.0, 1.0, 1.0, 1.0
    return m1


def trial_rng(seed: int, trial_index: int = 0) -> np.random.Generator:
    """Philox substream for one trial."""
    return np.random.Generator(np.random.Philox(key=seed + trial_index))


def gen_mixture(config: ExperimentConfig, rng: np.random.Generator = None) -> Sample:
    """Draw n observations from (1 - alpha) N(0, M1) + alpha N(0, scale * I).

    M1 carries the 2x2 block [[2, 1], [1, 1]] and 0.01 on the rest of the
    diagonal.  Deterministic given the generator (or config.seed).
    """
    if rng is None:
        rng = trial_rng(config.seed)
    n, d = config.n, config.d
    chol = np.linalg.cholesky(_structured_block(d))
    z = rng.standard_normal((n, d))
    contaminated = rng.random(n) < config.alpha_mix
    base = z @ chol.T
    wild = math.sqrt(config.contaminant_scale) * z
    data = np.where(contaminated[:, None], wild, base)
    return Sample(data)


def true_gram(config: ExperimentConfig) -> np.ndarray:
    """Closed-form mixture Gram matrix (1 - alpha) M1 + alpha scale I."""
    return ((1.0 - config.alpha_mix) * _structured_block(config.d)
            + config.alpha_mix * config.contaminant_scale * np.eye(config.d))


def _sample_digest(sample: Sample) -> str:
    return hashlib.sha256(sample.data.tobytes()).hexdigest()


def _run_trial(config: ExperimentConfig, trial_index: int) -> TrialResult:
    seed_used = config.seed + trial_index
    sample = gen_mixture(config, trial_rng(config.seed, trial_index))
    g_true = true_gram(config)
    digest = _sample_digest(sample)

    gbar = empirical_gram(sample)
    estimate = robust_gram(sample, epsilon=config.epsilon,
                           num_updates=config.num_updates)
    # both pipelines must have consumed the identical, unmutated sample
    if _sample_digest(sample) != digest:
        raise BenchmarkError(f"sample mutated during trial {trial_index}")

    err_cov = math.nan
    if "covariance" in config.estimators:
        cov = robust_covariance(sample, q=config.q, epsilon=config.epsilon,
                                num_updates=config.num_updates)
        err_cov = frobenius_error(cov.matrix, g_true)

    return TrialResult(
        trial_index=trial_index,
        error_robust=frobenius_error(estimate.matrix, g_true),
        error_empirical=frobenius_error(gbar, g_true),
        iterations=estimate.iterations,
        seed_used=seed_used,
        error_covariance=err_cov,
    )


def run_benchmark(config: ExperimentConfig) -> list:
    """Run all trials, write the CSV/JSON outputs, return the trial results.

    Individual trial failures are logged and tolerated up to 10% of the run;
    beyond that a BenchmarkError is raised.
    """
    results, failures = [], []

    def handle(idx, outcome, error=None):
        if error is not None:
            failures.append((idx, repr(error)))
            logger.error("trial %d failed: %r", idx, error)
        else:
            results.append(outcome)

    if config.jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.jobs) as pool:
            futs = {pool.submit(_run_trial, config, t): t for t in range(config.trials)}
            for fut in concurrent.futures.as_completed(futs):
                idx = futs[fut]
                try:
                    handle(idx, fut.result())
                except Exception as exc:  # noqa: BLE001 - trial isolation
                    handle(idx, None, exc)
    else:
        for t in range(config.trials):
            try:
                handle(t, _run_trial(config, t))
            except Exception as exc:  # noqa: BLE001 - trial isolation
                handle(t, None, exc)

    failures.sort()  # trial order, not the order in which trials finished
    if len(failures) > 0.1 * config.trials:
        raise BenchmarkError(
            f"{len(failures)} of {config.trials} trials failed; first: {failures[0]}"
        )
    results.sort(key=lambda r: r.trial_index)
    if config.output_path:
        write_benchmark_outputs(config, results, failures)
    return results


def quantile_curve(errors) -> list:
    """Sorted errors paired with plotting ranks k / (N + 1)."""
    errors = list(errors)
    if not errors:
        raise ValueError("need at least one error value")
    ordered = sorted(errors)
    n = len(ordered)
    return [((k + 1) / (n + 1), v) for k, v in enumerate(ordered)]


def summarize(results: list, config: ExperimentConfig) -> dict:
    rob = np.array([r.error_robust for r in results])
    emp = np.array([r.error_empirical for r in results])
    out = {
        "trials_completed": len(results),
        "mean_error_robust": float(rob.mean()),
        "std_error_robust": float(rob.std(ddof=1)) if len(rob) > 1 else 0.0,
        "mean_error_empirical": float(emp.mean()),
        "std_error_empirical": float(emp.std(ddof=1)) if len(emp) > 1 else 0.0,
        "config": config.to_dict(),
        "note": "plain empirical mean +/- std; no concentration-adjusted interval",
    }
    if "covariance" in config.estimators:
        cov = np.array([r.error_covariance for r in results])
        out["mean_error_covariance"] = float(np.nanmean(cov))
        out["std_error_covariance"] = float(np.nanstd(cov, ddof=1)) if len(cov) > 1 else 0.0
    return out


def write_benchmark_outputs(config: ExperimentConfig, results: list,
                            failures: list) -> None:
    os.makedirs(config.output_path, exist_ok=True)
    with_cov = "covariance" in config.estimators

    lines = ["trial_index,error_robust,error_empirical,seed_used"
             + (",error_covariance" if with_cov else "")]
    for r in results:
        row = f"{r.trial_index},{r.error_robust:.16e},{r.error_empirical:.16e},{r.seed_used}"
        if with_cov:
            row += f",{r.error_covariance:.16e}"
        lines.append(row)
    _write_text(os.path.join(config.output_path, "trials.csv"), lines)

    rob_curve = quantile_curve([r.error_robust for r in results])
    emp_curve = quantile_curve([r.error_empirical for r in results])
    qlines = ["rank_prob,robust,empirical"]
    for (p, rv), (_, ev) in zip(rob_curve, emp_curve):
        qlines.append(f"{p:.16e},{rv:.16e},{ev:.16e}")
    _write_text(os.path.join(config.output_path, "quantiles.csv"), qlines)

    summary = summarize(results, config)
    summary["failures"] = failures
    with open(os.path.join(config.output_path, "summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_text(path: str, lines: list) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def save_matrix_csv(path: str, matrix: np.ndarray) -> None:
    """Row-major CSV with 17 significant digits (full float64 round-trip)."""
    np.savetxt(path, np.atleast_2d(np.asarray(matrix, dtype=float)),
               delimiter=",", fmt="%.16e")


def load_matrix_csv(path: str, header: bool = False) -> np.ndarray:
    """The rows of a CSV file; ValueError for a file without one, where
    numpy would warn and return an empty array."""
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)
        except UserWarning:
            raise ValueError(f"{path} holds no data rows") from None


def load_sample_csv(path: str, header: bool = False) -> Sample:
    """The sample in a CSV file, held divided by the power of two 2^e, its
    ``_exponent``, that puts its largest |entry| in [2^99, 2^100)
    (``gram._normalized``): the parsed array is scaled in place before
    the Sample copies it, and every routine scales back where it forms a
    quantity with units, so it gives the bits of the sample as given."""
    x, e = _normalized(load_matrix_csv(path, header=header), in_place=True)
    sample = Sample(x)
    object.__setattr__(sample, "_exponent", e)
    return sample


# Fewest observations ``kappa_plugin`` takes.
MIN_KAPPA_OBSERVATIONS = 4
# Factor by which ``estimate_moment_bounds`` inflates the plug-in kurtosis.
KAPPA_SAFETY = 1.5

# Directions per ``kappa_plugin`` matmul.  On the estimate-tall sample
# (n = 40000, d = 10, 110 directions; 2-vCPU Xeon host, one BLAS thread)
# one direction at a time took 51 ms, chunks of 2 26 ms, of 4 20 ms with a
# 1.28 MB temporary, of 8 20 ms with twice that, and of 16 23 ms.
KAPPA_CHUNK = 4


def kappa_plugin(sample: Sample, n_directions: int = 100, seed: int = 0) -> float:
    """Plug-in directional kurtosis: max of the empirical fourth/second-moment
    ratio over the canonical basis plus random unit directions.

    Zero-variance directions are skipped.  For Gaussian data the value sits
    near 3; heavy-tail mixtures push it higher.  It runs on the data divided
    by a power of two (``gram._normalized``), so it is exactly scale-free;
    data already so scaled, as a loaded sample's is, is not copied.
    The projections come from one matmul per ``KAPPA_CHUNK`` directions,
    each direction's squares in one contiguous row, so its moments sum in
    the order of a 1-d mean.
    """
    return _kappa_of_rows(sample.data, n_directions, seed)


def _kappa_of_rows(x: np.ndarray, n_directions: int = 100, seed: int = 0) -> float:
    """``kappa_plugin`` of the observations in the rows of the (n, d) array x,
    which it reads in place, as a view of other vectors may be."""
    n, d = x.shape
    if n < MIN_KAPPA_OBSERVATIONS:
        raise ValueError(f"need at least {MIN_KAPPA_OBSERVATIONS} observations")
    data, _ = _normalized(x)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n_directions, d))
    norms = np.linalg.norm(raw, axis=1)
    some = norms > 0
    dirs = np.vstack([np.eye(d), raw[some] / norms[some, None]])
    best = 1.0
    # one buffer for every chunk: a fresh product would coexist with the last
    chunk = np.empty((min(KAPPA_CHUNK, len(dirs)), n))
    for j in range(0, len(dirs), KAPPA_CHUNK):
        p2 = np.matmul(dirs[j:j + KAPPA_CHUNK], data.T, out=chunk[:len(dirs) - j])
        np.square(p2, out=p2)
        m2 = np.mean(p2, axis=1)
        m4 = np.mean(np.square(p2, out=p2), axis=1)
        for second, fourth in zip(m2.tolist(), m4.tolist()):
            if second > 0.0:
                best = max(best, fourth / (second * second))
    return best


def _row_traces(vectors: np.ndarray) -> np.ndarray:
    """The sum of squares of each of the (m, d) or (m, g, d) ``vectors``'
    entries, squared a tile of ``mestimator.TILE_ELEMS`` (and one vector) at
    a time in one buffer, never as one array of the sample's size.  Each
    row is summed on its own, in C order, so the tiles move no bit."""
    flat = vectors.reshape(len(vectors), -1)
    tile = max(1, mestimator.TILE_ELEMS // flat.shape[1])
    buf = np.empty((min(tile, len(flat)), flat.shape[1]))
    traces = np.empty(len(flat))
    for lo in range(0, len(flat), tile):
        rows = flat[lo:lo + tile]
        np.sum(np.square(rows, out=buf[:len(rows)]), axis=1, out=traces[lo:lo + tile])
    return traces


def _plugin_moments(vectors: np.ndarray, kappa: float, exponent: int = 0) -> MomentBounds:
    """Plug-in MomentBounds, flagged non-certified, of the A_i = G_i^T G_i
    from generating vectors G_i of shape (m, d) or (m, g, d), given divided
    by 2^exponent.

    s4 = (mean ||A_i||_op^2)^(1/4), ||A_i||_op being the squared row norm of
    a block of one vector and the squared spectral norm of G_i otherwise;
    trace_g is the mean of Tr(A_i), floored at s4^2 / sqrt(kappa), and
    trace_g2 = Tr(Gbar^2), Gbar the mean of the A_i.  The row traces, the
    spectral norms and Gbar are scaled back by 4^exponent, 2^exponent and
    4^exponent as they are formed, so every moment is in original units,
    with the bits of unscaled vectors wherever their squares are normal.
    Raises NumericalError when s4 or the trace of non-zero vectors
    underflows to 0, or when a moment overflows."""
    # an overflow is reported below as a NumericalError, not as a warning,
    # on whichever thread runs this
    with np.errstate(over="ignore", invalid="ignore"):
        traces = np.ldexp(_row_traces(vectors), 2 * exponent)
        if vectors.ndim == 2 or vectors.shape[1] == 1:
            s4 = float(np.mean(traces**2)) ** 0.25
        else:
            norms = np.ldexp(np.linalg.norm(vectors, ord=2, axis=(1, 2)), exponent)
            s4 = float(np.mean(norms**4)) ** 0.25
        trace_g = float(np.mean(traces))
        gbar = np.ldexp(_mean_matrix(vectors), 2 * exponent)
        trace_g2 = float(np.trace(gbar @ gbar))
    if not (s4 > 0.0 and trace_g > 0.0) and vectors.any():
        raise NumericalError("the plug-in moments underflow to 0 "
                             "(data out of floating-point range)")
    # keep the Cauchy-Schwarz relation that true moments satisfy
    trace_g = max(trace_g, s4**2 / math.sqrt(kappa))
    if not all(map(math.isfinite, (kappa, s4, trace_g, trace_g2))):
        raise NumericalError("the plug-in moments overflow "
                             "(data out of floating-point range)")
    return MomentBounds(kappa=kappa, s4=s4, trace_g=trace_g,
                        trace_g2=trace_g2, certified=False)


def estimate_moment_bounds(sample: Sample, seed: int = 0) -> MomentBounds:
    """Plug-in MomentBounds of the Gram instance, flagged non-certified.

    The kurtosis plug-in is inflated by ``KAPPA_SAFETY``; s4 and the traces are the
    empirical moments, from ``_plugin_moments``, which raises NumericalError
    when they leave the floating-point range.  These are point estimates,
    not the true upper bounds the theory assumes.  They are in original
    units: ``_plugin_moments`` scales them back by the sample's
    ``_exponent``.
    """
    kappa = max(KAPPA_SAFETY * kappa_plugin(sample, seed=seed), 1.0 + 1e-6)
    return _plugin_moments(sample.data, kappa, sample._exponent)
