"""Run perfbench on every workload and write the results to BENCH_<tag>.json.

Usage, from the root of a checkout::

    python3 scripts/bench_json.py --tag mytag \\
        --checkout parent=../parent --checkout change=.

Each ``--checkout LABEL=DIR`` names the root of a checkout that holds
``perfbench/`` and ``src/``; without one, the checkout this script sits in
runs under the label ``change``.  For every workload of ``BENCHMARK.json``
and every seed, the checkouts take turns for ``RUNS`` untraced runs each,
of the length ``BENCHMARK.json`` sets, and the first one to run alternates,
so a drift in host speed hits them alike; the default seeds 0 and 1511
give ten pairs of runs per workload.  One traced run per checkout then
gives the per-layer metrics.

The file holds the machine block of the first run and, per checkout,
workload and seed, the median and every value of each end-to-end metric,
the traced per-layer metrics, and the run and failure counts.  For each
label after the first it also holds the ratio of its end-to-end medians to
the first label's.  Uses the standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Untraced runs per checkout, workload and seed.
RUNS = 5


def run_once(command, checkout, workload, seed, seconds, trace):
    """One perfbench run; returns its machine block and its result object."""
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench failed in {checkout} ({workload}, seed {seed}):\n"
                           f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    machine = next(line for line in lines if line.startswith("machine: "))
    return json.loads(machine[len("machine: "):]), json.loads(lines[-1])


def commit_of(checkout):
    """Short commit id of a git checkout with a clean ``src/``, else None."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=False)

    head = git("rev-parse", "--short", "HEAD")
    if head.returncode != 0 or git("status", "--porcelain", "--", "src").stdout.strip():
        return None
    return head.stdout.strip()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True, help="the file is BENCH_<tag>.json")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1511])
    parser.add_argument("--checkout", action="append", metavar="LABEL=DIR",
                        help="checkout to run, repeatable; the first is the base of the ratios")
    parser.add_argument("--out", type=Path, help="output path (default: BENCH_<tag>.json here)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    checkouts = dict(c.split("=", 1) for c in (args.checkout or ["change=."]))
    checkouts = {label: Path(path).resolve() for label, path in checkouts.items()}
    labels = list(checkouts)

    machine = None
    results = {label: {"commit": commit_of(path), "workloads": {}}
               for label, path in checkouts.items()}
    for workload in workloads:
        for seed in args.seeds:
            runs = {label: [] for label in labels}
            for i in range(RUNS):
                for label in (labels if i % 2 == 0 else labels[::-1]):
                    block, result = run_once(spec["command"], checkouts[label], workload, seed,
                                             seconds, 0)
                    machine = machine or block
                    runs[label].append(result)
                    print(f"{workload} seed {seed} {label} run {i}: "
                          f"ops_per_s {result['metrics']['ops_per_s']['value']:.4g}", flush=True)
            for label in labels:
                _, traced = run_once(spec["command"], checkouts[label], workload, seed,
                                     seconds, 1)
                done = runs[label] + [traced]
                results[label]["workloads"].setdefault(workload, {})[str(seed)] = {
                    "correct": all(r["correct"] for r in done),
                    "attempted": sum(r["attempted"] for r in done),
                    "failed": sum(r["failed"] for r in done),
                    "end_to_end": {m: statistics.median(r["metrics"][m]["value"]
                                                        for r in runs[label])
                                   for m in end_to_end},
                    "end_to_end_runs": {m: [r["metrics"][m]["value"] for r in runs[label]]
                                        for m in end_to_end},
                    "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
                }

    base = results[labels[0]]["workloads"]
    ratios = {
        label: {w: {seed: {m: entry["end_to_end"][m] / base[w][seed]["end_to_end"][m]
                           for m in end_to_end}
                    for seed, entry in by_seed.items()}
                for w, by_seed in results[label]["workloads"].items()}
        for label in labels[1:]}
    report = {
        "tag": args.tag,
        "command": spec["command"],
        "seconds": seconds,
        "runs": RUNS,
        "seeds": args.seeds,
        "machine": machine,
        "units": {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]},
        "results": results,
        "ratios_to_" + labels[0]: ratios,
    }
    out = args.out or ROOT / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
