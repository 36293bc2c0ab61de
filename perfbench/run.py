"""Layered benchmark for robustgram.

Usage, from the root of a checkout::

    python3 -m perfbench.run --workload paper-trials --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.  One
process, one closed-loop client (the next op starts when the previous one
returns), BLAS and OpenMP pinned to one thread.

Workloads (see ``perfbench/README.md`` for why each was chosen):

* ``paper-trials``  -- one op is ``run_benchmark`` on one trial of the
  reference experiment (n=100, d=10); a pass is 64 trials.
* ``cov-tall``      -- one op is ``robust_covariance`` (q=2) on one shifted
  mixture sample with n=4000, d=20.
* ``estimate-tall`` -- one op is ``robustgram.cli.main(["estimate", ...])``
  on a mixture CSV with n=40000, d=10.

Op and set-up times are reported at a reference host speed: a fixed numpy
calibration kernel runs after each op, and each time is rescaled by how
fast the kernel ran around it (see ``Calibration``).  Wall times are in the
``info`` line, and the traced run reports the wall ops/s and chunk time of
its untraced half as ``host.*`` metrics.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` measures the same ops untraced for half of ``--seconds`` and
then traced for the other half, and reports per-layer self times and counts
per op plus the tracing overhead (traced over untraced time of the same
ops).  Counts are averaged over the first pass, so they are exact for a
seed; the spans are written to ``.perfbench_out/``.

Every op is checked: an exception, a non-finite or asymmetric matrix, a
squared Frobenius error outside the workload's bracket, a non-zero CLI exit
code, or an error or count that differs when the same input is run again
marks the op as failed.  The last line of standard output is the result as
one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from .tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_PROBES = 7

# Other tenants of a shared host change its speed by up to ~1.5x within
# seconds and drift over minutes, for fixed work.  Each op is therefore
# followed by a fixed calibration kernel (numpy only, no robustgram) for
# REF_SHARE of the op's time, after one discarded warm-up chunk.  Every
# reported time is rescaled by the mean chunk time of the calibration runs
# just before and just after it, to the speed at which one chunk takes REF_S
# seconds.
REF_SHARE = 0.25
REF_MIN_CHUNKS = 3
REF_S = 2.0e-3  # reference chunk time; a 2-vCPU Xeon KVM guest took 1.7-2.9 ms

# Input sizes and the brackets the squared Frobenius error must stay in.
# ``err`` bounds one op's error; ``mean_err`` bounds the mean over a pass of
# paper trials (the reference experiment gives about 5.5 over 500 trials).
SIZES = {
    "full": {
        "paper-trials": {"n": 100, "d": 10, "pool": 64, "err": (0.0, 40.0),
                         "mean_err": (4.4, 6.8)},
        "cov-tall": {"n": 4000, "d": 20, "err": (0.0, 6.0)},
        # at this n the bounds grid exists, so the CLI must report intervals
        "estimate-tall": {"n": 40000, "d": 10, "err": (0.0, 0.2), "intervals": True},
    },
    "tiny": {
        "paper-trials": {"n": 100, "d": 10, "pool": 4, "err": (0.0, 40.0),
                         "mean_err": (0.0, 40.0)},
        "cov-tall": {"n": 200, "d": 5, "err": (0.0, 40.0)},
        # far too small for the bounds grid: the CLI reports no intervals
        "estimate-tall": {"n": 300, "d": 4, "err": (0.0, 40.0), "intervals": False},
    },
}

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("op_s_tail", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# name, unit, how it is computed from the traced phase
PER_LAYER = (
    ("influence.calls", "count/op"),
    ("influence.elems", "count/op"),
    ("influence.busy_s", "s/op"),
    ("influence.ns_per_elem", "ns"),
    ("mestimator.scale_solves", "count/op"),
    ("mestimator.newton_iters", "count/op"),
    ("mestimator.bisection_fallbacks", "count/op"),
    ("mestimator.nonconverged", "count/op"),
    ("mestimator.newton_ratio", "1"),
    ("mestimator.lambda_calls", "count/op"),
    ("mestimator.self_s", "s/op"),
    ("mestimator.alpha_roots", "count/op"),
    ("mestimator.alpha_root_s", "s/op"),
    ("gram.updates", "count/op"),
    ("gram.self_s", "s/op"),
    ("covariance.make_blocks_s", "s/op"),
    ("covariance.block_bytes", "B/op"),
    ("covariance.self_s", "s/op"),
    ("bounds.ci_calls", "count/op"),
    ("bounds.grid_K", "count/op"),
    ("bounds.self_s", "s/op"),
    ("harness.gen_s", "s/op"),
    ("harness.moment_bounds_s", "s/op"),
    ("harness.io_s", "s/op"),
    ("harness.self_s", "s/op"),
    ("cli.self_s", "s/op"),
    ("trace.overhead_frac", "1"),
    ("host.wall_ops_per_s", "1/s"),
    ("host.ref_chunk_s", "s"),
    ("frob_err", "frob2"),
)

IO_FUNCTIONS = ("harness.load_sample_csv", "harness.load_matrix_csv",
                "harness.save_matrix_csv", "harness.write_benchmark_outputs")


class ProgramMissing(RuntimeError):
    """The checkout holds no robustgram sources to benchmark."""


def load_program():
    """Pin BLAS threads, then import robustgram from the checkout's ``src``."""
    if not (SRC / "robustgram" / "__init__.py").is_file():
        raise ProgramMissing(f"no robustgram sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import robustgram
    import robustgram.cli  # noqa: F401  (the CLI is not imported by the package)

    if Path(robustgram.__file__).resolve().parent != (SRC / "robustgram").resolve():
        raise ProgramMissing(f"robustgram imported from {robustgram.__file__}, not {SRC}")
    return robustgram


# -- workloads ----------------------------------------------------------------

def _matrix_problems(matrix, truth, bracket):
    import numpy as np

    if not np.all(np.isfinite(matrix)):
        return math.nan, ["non-finite matrix"]
    if not np.array_equal(matrix, matrix.T):
        return math.nan, ["asymmetric matrix"]
    err = float(np.sum((matrix - truth) ** 2))
    lo, hi = bracket
    return err, [] if lo < err <= hi else [f"frob_err {err!r} outside {bracket}"]


class PaperTrials:
    """``run_benchmark`` on one trial of the reference experiment per op.

    A run makes 150-300 ops, so the 90th percentile has 15-30 beyond it.
    """

    tail_percentile = 90.0

    def __init__(self, rg, seed, size, workdir):
        self.rg = rg
        self.size = size
        harness = rg.harness
        self.configs = [
            harness.ExperimentConfig(
                n=size["n"], d=size["d"], trials=1, alpha_mix=0.05,
                contaminant_scale=16.0, seed=seed * 1000 + t, epsilon=0.1,
                num_updates=4, estimators=frozenset({"robust", "empirical"}), jobs=1)
            for t in range(size["pool"])]
        self.pool = len(self.configs)
        self.truth = harness.true_gram(self.configs[0])
        self.empirical = {}

    def op(self, idx):
        return self.rg.harness.run_benchmark(self.configs[idx])

    def check(self, idx, results):
        if len(results) != 1:
            return math.nan, ["trial swallowed by run_benchmark"]
        r = results[0]
        self.empirical[idx] = r.error_empirical
        lo, hi = self.size["err"]
        if not (lo < r.error_robust <= hi and math.isfinite(r.error_empirical)):
            return r.error_robust, [f"trial errors {r.error_robust!r}, "
                                    f"{r.error_empirical!r} outside {self.size['err']}"]
        return r.error_robust, []

    def frob_err(self, errs):
        return sum(errs[i] for i in range(self.pool)) / self.pool

    def final_problems(self, errs):
        """Pass-level checks, and a direct recomputation of two trials' matrices."""
        harness = self.rg.harness
        problems = []
        mean_rob = self.frob_err(errs)
        mean_emp = sum(self.empirical[i] for i in range(self.pool)) / self.pool
        lo, hi = self.size["mean_err"]
        if not lo <= mean_rob <= hi:
            problems.append(f"mean robust error {mean_rob!r} outside {self.size['mean_err']}")
        if not mean_rob < mean_emp:
            problems.append(f"mean robust error {mean_rob!r} not below empirical {mean_emp!r}")
        for idx in range(min(2, self.pool)):
            cfg = self.configs[idx]
            sample = harness.gen_mixture(cfg, harness.trial_rng(cfg.seed))
            est = self.rg.gram.robust_gram(sample, epsilon=cfg.epsilon,
                                           num_updates=cfg.num_updates)
            err, bad = _matrix_problems(est.matrix, self.truth, self.size["err"])
            problems += bad
            if not bad and err != errs[idx]:
                problems.append(f"trial {idx}: recomputed error {err!r} != {errs[idx]!r}")
        return problems


class OneInput:
    """A workload whose every op runs on the same input, built at set-up.

    With 7-12 ops per run no percentile has ten samples beyond it, so the
    tail reported is the upper quartile.
    """

    pool = 1
    tail_percentile = 75.0

    def frob_err(self, errs):
        return errs[0]

    def final_problems(self, errs):
        return []


class CovTall(OneInput):
    """``robust_covariance`` on one shifted mixture sample per op."""

    def __init__(self, rg, seed, size, workdir):
        import numpy as np

        self.rg = rg
        self.size = size
        cfg = rg.harness.ExperimentConfig(n=size["n"], d=size["d"], trials=1, seed=seed)
        raw = rg.harness.gen_mixture(cfg, rg.harness.trial_rng(seed))
        # The error is taken against the zero-mean truth, so any loss of
        # translation invariance shows up as a large error.
        shift = np.linspace(-8.0, 8.0, size["d"])
        self.sample = rg.mestimator.Sample(raw.data + shift)
        self.truth = rg.harness.true_gram(cfg)

    def op(self, idx):
        return self.rg.covariance.robust_covariance(self.sample, q=2, epsilon=0.1)

    def check(self, idx, est):
        return _matrix_problems(est.matrix, self.truth, self.size["err"])


class EstimateTall(OneInput):
    """``robustgram estimate`` on a mixture CSV written at set-up, per op."""

    def __init__(self, rg, seed, size, workdir):
        self.rg = rg
        self.size = size
        cfg = rg.harness.ExperimentConfig(n=size["n"], d=size["d"], trials=1, seed=seed)
        sample = rg.harness.gen_mixture(cfg, rg.harness.trial_rng(seed))
        self.csv = os.path.join(workdir, "sample.csv")
        rg.harness.save_matrix_csv(self.csv, sample.data)
        self.out = os.path.join(workdir, "estimate")
        self.truth = rg.harness.true_gram(cfg)

    def op(self, idx):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.rg.cli.main(["estimate", self.csv, "--out", self.out])

    def check(self, idx, code):
        import numpy as np

        if code != 0:
            return math.nan, [f"CLI exit code {code}"]
        # read with numpy, not the program, so that checks add nothing to a trace
        q = np.loadtxt(os.path.join(self.out, "q.csv"), delimiter=",", ndmin=2)
        err, problems = _matrix_problems(q, self.truth, self.size["err"])
        with open(os.path.join(self.out, "estimate.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        return err, problems + report_problems(report, self.size)


def report_problems(report, size):
    """Problems in the CLI's estimate.json for a sample of the given size.

    Where the bounds grid exists, the CLI must report one finite interval per
    axis; it writes ``null`` instead when the grid or an interval fails, so
    without this check the bounds and alpha-root layers could stop running
    unnoticed.
    """
    problems = []
    if report.get("n") != size["n"] or report.get("d") != size["d"]:
        problems.append("estimate.json reports the wrong shape")
    if not size["intervals"]:
        return problems
    cis = report.get("confidence_intervals")
    if not isinstance(cis, list) or len(cis) != size["d"]:
        return problems + [f"estimate.json has no interval per axis: "
                           f"{report.get('grid_note', cis)!r}"]
    for ci in cis:
        lo, hi = ci.get("lower"), ci.get("upper")
        if not (isinstance(lo, float) and isinstance(hi, float)
                and math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            problems.append(f"bad confidence interval {ci!r}")
    if not report.get("grid", {}).get("K", 0) >= 1:
        problems.append("estimate.json reports no grid points")
    return problems


WORKLOADS = {"paper-trials": PaperTrials, "cov-tall": CovTall, "estimate-tall": EstimateTall}


# -- measurement ---------------------------------------------------------------

class Calibration:
    """Fixed kernel, independent of robustgram, that measures the host's speed.

    One chunk mixes the three kinds of work the workloads do: many numpy
    calls on 100-element vectors, element-wise passes over 40 000 elements,
    and a small unoptimized three-operand einsum.

    The passes over 40 000 elements write into a buffer made here.  Fresh
    320 kB temporaries would come from mmap or from the heap depending on
    the threshold glibc has raised after the op's largest free: in one
    process such a chunk ran about 25% slower before the first op than
    after.  What is left allocates only a few hundred bytes at a time.
    """

    def __init__(self):
        import numpy as np

        self.np = np
        self.small = np.linspace(0.1, 2.0, 100)
        self.big = np.linspace(0.0, 1.0, 40_000)
        self.buf = np.empty_like(self.big)
        self.blocks = np.linspace(0.0, 1.0, 4 * 20 * 20).reshape(4, 20, 20)
        self.basis = np.eye(20)[::-1].copy()

    def chunk(self):
        np = self.np
        total = 0.0
        for _ in range(64):
            a = np.abs(self.small)
            c = np.minimum(a, 1.0)
            total += float(np.sum(np.where(a >= 1.0, 0.5, np.log1p(c * (0.5 * c - 1.0)))))
        for _ in range(3):
            np.multiply(self.big, 0.5, out=self.buf)
            np.log1p(self.buf, out=self.buf)
            total += float(self.buf.sum())
        total += float(np.einsum("mij,ip,jq->mpq", self.blocks, self.basis, self.basis).sum())
        return total

    def sample(self, seconds):
        """Chunk times, at least REF_MIN_CHUNKS of them and ``seconds`` in total,
        after one untimed chunk that refills the caches the op has evicted."""
        self.chunk()
        times = []
        while len(times) < REF_MIN_CHUNKS or sum(times) < seconds:
            start = time.perf_counter()
            self.chunk()
            times.append(time.perf_counter() - start)
        return times


class Phase:
    """Outcome of one measured loop over a workload's ops.

    ``durations`` are op times rescaled to the reference speed by the
    calibration chunks run around each op; ``raw`` are wall times.
    """

    def __init__(self):
        self.durations = []
        self.raw = []
        self.ref = []        # every calibration chunk time
        self.errs = {}       # pool index -> frob_err of its first run
        self.counts = {}     # pool index -> counter deltas of its first run
        self.failed = 0
        self.problems = []


def measure(workload, seconds, calibration, tracer=None):
    """Run ops in pool order until ``seconds`` of op and calibration time and
    one full pass."""
    phase = Phase()
    busy = 0.0
    i = 0
    before = calibration.sample(0.0)
    while busy < seconds or i < workload.pool:
        idx = i % workload.pool
        i += 1
        counts_before = dict(tracer.counts) if tracer else None
        start = time.perf_counter()
        try:
            if tracer:
                out = tracer.span("bench.op", workload.op, idx)
            else:
                out = workload.op(idx)
        except Exception as exc:  # noqa: BLE001 - a failing op is counted, not fatal
            duration = time.perf_counter() - start
            err, problems = math.nan, [f"op raised {exc!r}"]
        else:
            duration = time.perf_counter() - start
            err, problems = workload.check(idx, out)
        after = calibration.sample(REF_SHARE * duration)
        busy += duration + sum(after)
        phase.raw.append(duration)
        phase.durations.append(duration * REF_S / statistics.fmean(before + after))
        phase.ref.extend(after)
        before = after
        if tracer:
            delta = {k: tracer.counts[k] - counts_before[k] for k in tracer.counts}
            if phase.counts.setdefault(idx, delta) != delta:
                problems.append(f"counts changed on repeat of input {idx}")
        if idx in phase.errs and phase.errs[idx] != err and not problems:
            problems.append(f"frob_err changed on repeat of input {idx}")
        phase.errs.setdefault(idx, err)
        if problems:
            phase.failed += 1
            phase.problems.extend(problems)
    return phase


def tail(durations, percentile):
    """Nearest-rank percentile of the op times; returns (value, samples beyond it)."""
    ordered = sorted(durations)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def setup_probes(workload_name, seed, size_name, calibration):
    """Time SETUP_PROBES fresh interpreters that import and build the inputs.

    Returns the times rescaled to the reference speed, and the wall times.
    """
    times, raw = [], []
    before = calibration.sample(0.0)
    for _ in range(SETUP_PROBES):
        workdir = tempfile.mkdtemp(dir=WORK_DIR)
        try:
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-m", "perfbench.run", "--workload", workload_name,
                 "--seed", str(seed), "--size", size_name, "--setup-probe", workdir],
                cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            raw.append(time.perf_counter() - start)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        after = calibration.sample(REF_SHARE * raw[-1])
        times.append(raw[-1] * REF_S / statistics.fmean(before + after))
        before = after
    return times, raw


def machine_block():
    import numpy as np

    cpu_model = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        with contextlib.suppress(OSError):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = \
                (index / "size").read_text().strip()
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def layer_metrics(tracer, phase, workload, untraced):
    """Per-op layer metrics from a traced phase; counts over the first pass.

    Span times are rescaled to the reference speed by the phase's overall
    calibration factor, like the op times.
    """
    ops = len(phase.durations)
    scale = sum(phase.durations) / sum(phase.raw)
    per_op = scale / ops
    pool = workload.pool
    counts = {k: sum(phase.counts[i][k] for i in range(pool)) / pool
              for k in tracer.counts}
    total_s = tracer.total_s
    total = lambda name: total_s.get(name, 0.0) * per_op  # noqa: E731
    layer_self = tracer.layer_self_s()
    influence_s = (total_s.get("influence.psi", 0.0)
                   + total_s.get("influence.psi_prime", 0.0)) * scale
    influence_elems = tracer.counts["influence.elems"]
    solves = counts["mestimator.scale_solves"]
    matched = min(len(untraced.durations), ops)
    values = dict(counts)
    values.update({
        "influence.busy_s": influence_s / ops,
        "influence.ns_per_elem": 1e9 * influence_s / influence_elems if influence_elems else 0.0,
        "mestimator.newton_ratio": (
            (solves - counts["mestimator.bisection_fallbacks"]) / solves if solves else 0.0),
        "mestimator.alpha_root_s": total("mestimator.alpha_root_from_squares"),
        "covariance.make_blocks_s": total("covariance.make_blocks"),
        "harness.gen_s": total("harness.gen_mixture"),
        "harness.moment_bounds_s": total("harness.estimate_moment_bounds"),
        "harness.io_s": sum(tracer.self_s.get(f, 0.0) for f in IO_FUNCTIONS) * per_op,
        "trace.overhead_frac": (sum(phase.durations[:matched])
                                / sum(untraced.durations[:matched]) - 1.0),
    })
    for layer in ("mestimator", "gram", "covariance", "bounds", "harness", "cli"):
        values[f"{layer}.self_s"] = layer_self.get(layer, 0.0) * per_op
    return values


def run(workload_name, seed, seconds, trace, size_name="full"):
    """Set up, measure and check one workload; return (result, info)."""
    rg = load_program()
    size = SIZES[size_name][workload_name]
    WORK_DIR.mkdir(exist_ok=True)
    calibration = Calibration()
    setup_times, setup_raw = setup_probes(workload_name, seed, size_name, calibration)
    workdir = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        workload = WORKLOADS[workload_name](rg, seed, size, workdir)
        if not trace:
            phases = [measure(workload, seconds, calibration)]
        else:
            untraced = measure(workload, seconds / 2.0, calibration)
            tracer = Tracer()
            tracer.install(rg)
            try:
                traced = measure(workload, seconds / 2.0, calibration, tracer)
            finally:
                tracer.uninstall()
            phases = [untraced, traced]
        errs = phases[-1].errs
        problems = [p for ph in phases for p in ph.problems]
        if not problems:
            problems += workload.final_problems(errs)
        if trace and untraced.errs != traced.errs and not problems:
            problems.append("traced and untraced frob_err differ")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(ph.durations) for ph in phases)
    failed = sum(ph.failed for ph in phases)
    frob_err = workload.frob_err(errs) if not problems else math.nan
    info = {"workload": workload_name, "seed": seed, "size": size_name,
            "frob_err": frob_err, "problems": problems[:20]}
    if not trace:
        durations = phases[0].durations
        tail_value, beyond = tail(durations, workload.tail_percentile)
        metrics = {
            "ops_per_s": len(durations) / sum(durations),
            "op_s_p50": statistics.median(durations),
            "op_s_tail": tail_value,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        raw = phases[0].raw
        info.update({"ops": len(durations), "tail_percentile": workload.tail_percentile,
                     "tail_samples_beyond": beyond, "setup_probes_wall_s": setup_raw,
                     "wall_ops_per_s": len(raw) / sum(raw), "wall_op_s_p50": statistics.median(raw),
                     "ref_chunk_s_p50": statistics.median(phases[0].ref)})
    else:
        metrics = layer_metrics(tracer, traced, workload, untraced)
        metrics["host.wall_ops_per_s"] = len(untraced.raw) / sum(untraced.raw)
        metrics["host.ref_chunk_s"] = statistics.median(untraced.ref)
        metrics["frob_err"] = frob_err
        units = dict(PER_LAYER)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload_name}-seed{seed}.jsonl"
        tracer.dump(spans_path)
        info.update({"ops_untraced": len(untraced.durations), "ops_traced": len(traced.durations),
                     "spans_stored": len(tracer.starts), "spans_dropped": tracer.dropped,
                     "spans_file": str(spans_path.relative_to(ROOT))})
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="input sizes; 'tiny' is for the smoke test")
    parser.add_argument("--setup-probe", metavar="DIR",
                        help="only import and build the inputs in DIR, then exit")
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            rg = load_program()
            WORKLOADS[args.workload](rg, args.seed, SIZES[args.size][args.workload],
                                     args.setup_probe)
            return 0
        result, info = run(args.workload, args.seed, args.seconds, args.trace, args.size)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("machine: " + json.dumps(machine_block(), sort_keys=True))
    print("info: " + json.dumps(info, sort_keys=True))
    for name, entry in result["metrics"].items():
        print(f"  {name:32s} {entry['value']!r} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
