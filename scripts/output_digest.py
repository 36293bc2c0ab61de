"""Print one sha256 per output family of the estimators on fixed seeded samples.

Usage, with the ``src`` directory of the checkout under test on the path::

    PYTHONPATH=<checkout>/src python3 scripts/output_digest.py [--one-thread]

Each line is ``<family> <sha256>``.  A family's digest covers its outputs on
every input sample, bit for bit: matrices and floats as their exact bytes,
iteration counts, and the type and message of any exception raised.  The
estimator families cover the matrix, the iteration count and the Frobenius
deltas; the ``lambda_used`` line covers the mean truncation levels of
``robust_gram`` and q = 2 and q = 3 ``robust_covariance``, so that a change
to how the levels are summed moves that line alone.  Run it on two
checkouts and diff the lines: a change that keeps the numbers keeps every
line.  The samples are a unit-scale one, the same with a zero column, the
same with a column so small that its squares underflow to 0, the zero
sample, one with d > n, and a shifted 4000 x 20 one, whose updates run on
two threads on a host with two usable CPUs.  The
``grid_certified_two_threads`` line covers grid-certified covariance on a
40000 x 4 sample, 320,000 squares per update, which the grid hook solves
on two threads there too.  The ``grid_certified_q3`` line covers q = 3
grid-certified covariance on that sample: its 13333 blocks of three
difference vectors take their plug-in s4 from spectral norms, the one
route there, since the 14004-row samples give too few q = 3 blocks for the
grid.  The ``estimate`` line covers the four files ``robustgram estimate``
writes for a 14004 x 4 sample, which admits the bounds grid and whose
updates run on two threads, beside the bounds.  The ``estimate_scaled``
line covers ``robustgram estimate`` on that sample scaled by 2^-300,
2^-200, 2^200 and 2^300: its exit code, its error message and the files
it writes.  At +-200 the estimate, the moments and the intervals are all
representable; at +-300 the plug-in moments leave the floating-point
range and the command exits 2, so the line also covers the failure.
``--one-thread`` solves every update and the bounds on the calling thread:
on one checkout, the lines with and without it must agree.

``--compare SRC`` runs the script four times, each in a subprocess: on the
package under the ``src`` directory SRC of another checkout (its
``PYTHONPATH``) and on the package imported here, each plain and with
``--one-thread``.  It prints ``<family> same`` where all four digests
agree and ``<family> DIFFERS`` with the four digests where they do not,
and exits 1 if any family differs::

    PYTHONPATH=src python3 scripts/output_digest.py --compare <parent>/src

Uses numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile

import numpy as np

from robustgram import bounds, cli, gram, tilde_n
from robustgram.covariance import robust_covariance
from robustgram.gram import robust_gram
from robustgram.harness import estimate_moment_bounds, save_matrix_csv
from robustgram.mestimator import Sample

# Grid epsilon and the truncation levels of the tilde_n family.
EPSILON = 0.05
LEVELS = (0.05, 0.5, 2.0)


def samples() -> dict:
    """The input samples.  The grid families need n of about 12000 at d = 3,
    and 3 divides n, so q = 3 discards no observation.  The shifted sample
    has the shape of the cov-tall benchmark workload."""
    unit = np.random.default_rng(0).standard_normal((14004, 3)) + 1.0
    zero_column, tiny_column = unit.copy(), unit.copy()
    zero_column[:, 1] = 0.0
    tiny_column[:, 1] = np.ldexp(tiny_column[:, 1], -700)
    return {
        "unit": unit,
        "zero column": zero_column,
        "underflowing column": tiny_column,
        "zero": np.zeros((14004, 3)),
        "d > n": np.random.default_rng(1).standard_t(3, (6, 9)),
        "shifted 4000 x 20": (np.random.default_rng(3).standard_t(3, (4000, 20))
                              + np.linspace(-8.0, 8.0, 20)),
    }


def directions(d: int) -> list:
    """The canonical basis and three seeded random directions."""
    return [*np.eye(d), *np.random.default_rng(2).standard_normal((3, d))]


def feed(h, obj) -> None:
    """Add obj to the hash h: arrays by shape and bytes, floats by their hex
    form, sequences item by item, anything else by its repr."""
    if isinstance(obj, np.ndarray):
        h.update(repr(obj.shape).encode())
        h.update(np.ascontiguousarray(obj, dtype=float).tobytes())
    elif isinstance(obj, float):
        h.update(obj.hex().encode())
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            feed(h, item)
            h.update(b",")
        h.update(b"]")
    else:
        h.update(repr(obj).encode())


def estimate_fields(est) -> tuple:
    return est.matrix, est.iterations, est.frobenius_deltas


def grid_certified(sample: Sample, q: int = 2):
    return robust_covariance(sample, q=q, epsilon=EPSILON, mode="grid-certified",
                             num_updates=2)


def grid_setup(sample: Sample) -> tuple:
    mb = estimate_moment_bounds(sample, seed=0)
    grid = bounds.make_grid(sample.n, mb, epsilon=EPSILON)
    sigma = min(bounds.sigma_default(sample.n, mb, EPSILON), mb.s4**2)
    return mb, grid, sigma


def confidence_intervals(sample: Sample) -> list:
    mb, grid, _ = grid_setup(sample)
    return [bounds.confidence_interval(sample, theta, grid, mb)
            for theta in directions(sample.d)]


def selections(sample: Sample) -> list:
    mb, grid, sigma = grid_setup(sample)
    return [tuple(bounds.select_hat_n(sample, theta, grid, sigma, mb))
            for theta in directions(sample.d)]


FAMILIES = {
    "robust_gram": lambda s: estimate_fields(robust_gram(s)),
    "robust_covariance_q2": lambda s: estimate_fields(robust_covariance(s, q=2)),
    "robust_covariance_q3": lambda s: estimate_fields(robust_covariance(s, q=3)),
    "grid_certified": lambda s: estimate_fields(grid_certified(s)),
    "lambda_used": lambda s: [est.lambda_used for est in (
        robust_gram(s), robust_covariance(s, q=2), robust_covariance(s, q=3))],
    "confidence_interval": confidence_intervals,
    "select_hat_n": selections,
    "tilde_n": lambda s: [tilde_n(s, theta, lam) for theta in directions(s.d)
                          for lam in LEVELS],
}


# The files ``robustgram estimate`` writes.
ESTIMATE_FILES = ("estimate.json", "q.csv", "q_plus.csv", "g_bar.csv")


# The powers of two of the ``estimate_scaled`` family.
ESTIMATE_SCALES = (-300, -200, 200, 300)


def estimate_sample() -> np.ndarray:
    """The seeded 14004 x 4 sample of the estimate families."""
    return np.random.default_rng(4).standard_normal((14004, 4)) + 1.0


def feed_estimate(h, x: np.ndarray) -> None:
    """Add to h the exit code of ``robustgram estimate`` on x, the error
    message it printed, if any, and each output file it wrote, by name and
    bytes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sample.csv")
        save_matrix_csv(path, x)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            feed(h, cli.main(["estimate", path, "--out", tmp]))
        if err.getvalue():
            feed(h, err.getvalue())
        for name in ESTIMATE_FILES:
            if os.path.exists(os.path.join(tmp, name)):
                feed(h, name)
                with open(os.path.join(tmp, name), "rb") as fh:
                    h.update(fh.read())


def estimate_digest() -> str:
    """sha256 of ``robustgram estimate`` on the estimate sample."""
    h = hashlib.sha256()
    feed_estimate(h, estimate_sample())
    return h.hexdigest()


def estimate_scaled_digest() -> str:
    """sha256 of ``robustgram estimate`` on the estimate sample scaled by
    each power of two of ``ESTIMATE_SCALES``."""
    h = hashlib.sha256()
    for k in ESTIMATE_SCALES:
        feed(h, k)
        feed_estimate(h, np.ldexp(estimate_sample(), k))
    return h.hexdigest()


def grid_certified_tall_digest(q: int) -> str:
    """sha256 of q-block grid-certified covariance on a seeded 40000 x 4 sample."""
    h = hashlib.sha256()
    x = np.random.default_rng(5).standard_normal((40000, 4)) + 1.0
    feed(h, estimate_fields(grid_certified(Sample(x), q)))
    return h.hexdigest()


def digests(src: str, flags: tuple) -> dict:
    """{family: sha256} printed by this script in a subprocess with
    ``PYTHONPATH=src``."""
    out = subprocess.run([sys.executable, os.path.abspath(__file__), *flags],
                         env={**os.environ, "PYTHONPATH": src},
                         check=True, capture_output=True, text=True).stdout
    return dict(line.split() for line in out.splitlines())


def compare(src: str) -> int:
    """Print one ``same`` or ``DIFFERS`` line per family for the digests of
    the package under src and of the one imported here, each plain and with
    ``--one-thread``; 1 if any family differs, else 0."""
    here = os.path.dirname(os.path.dirname(os.path.abspath(gram.__file__)))
    runs = [(name + suffix, digests(path, flags))
            for name, path in (("src", os.path.abspath(src)), ("here", here))
            for suffix, flags in (("", ()), ("/one-thread", ("--one-thread",)))]
    differs = False
    for family in runs[0][1]:
        hashes = [(label, run.get(family)) for label, run in runs]
        if len({h for _, h in hashes}) == 1:
            print(family, "same")
        else:
            differs = True
            print(family, "DIFFERS", *(f"{label}={h}" for label, h in hashes))
    return int(differs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--one-thread", action="store_true",
                        help="solve every update on the calling thread")
    parser.add_argument("--compare", metavar="SRC",
                        help="compare the digests of the package under SRC with this one's")
    args = parser.parse_args()
    if args.compare:
        return compare(args.compare)
    if args.one_thread:
        gram._THREADS = 1
    inputs = {name: Sample(x) for name, x in samples().items()}
    for family, compute in FAMILIES.items():
        h = hashlib.sha256()
        for name, sample in inputs.items():
            feed(h, name)
            try:
                with np.errstate(all="ignore"):
                    feed(h, compute(sample))
            except Exception as exc:  # noqa: BLE001 - a raised error is an output too
                feed(h, f"{type(exc).__name__}: {exc}")
        print(family, h.hexdigest())
    print("grid_certified_two_threads", grid_certified_tall_digest(2))
    print("grid_certified_q3", grid_certified_tall_digest(3))
    print("estimate", estimate_digest())
    print("estimate_scaled", estimate_scaled_digest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
