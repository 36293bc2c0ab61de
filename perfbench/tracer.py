"""In-memory span tracer that wraps the public functions of robustgram's modules.

``from .x import f`` binds ``f`` in the importing module, so wrapping a
function means replacing every binding of it: in its own module, in each
module that imported it, and in the package namespace.  ``Tracer.install``
does that and ``Tracer.uninstall`` puts the originals back, so one process
can alternate untraced and traced phases.

Every wrapped call records a span (id, parent id, name, start, end) and adds
its duration to the caller's child time, which gives each function's self
time.  A few wrappers also read counts from arguments or results (elements
passed to the influence function, solver iterations, grid size, block bytes).
Spans stay in memory up to ``MAX_SPANS`` and are written out by ``dump``;
the aggregates cover every call, stored or not.
"""

from __future__ import annotations

import inspect
import itertools
import json
import time
from array import array

MAX_SPANS = 100_000

LAYERS = ("influence", "mestimator", "gram", "covariance", "bounds", "harness", "cli")

# Integer counters that depend only on the inputs; they must repeat exactly.
COUNT_KEYS = (
    "influence.calls",
    "influence.elems",
    "mestimator.scale_solves",
    "mestimator.newton_iters",
    "mestimator.bisection_fallbacks",
    "mestimator.nonconverged",
    "mestimator.lambda_calls",
    "mestimator.alpha_roots",
    "gram.updates",
    "covariance.block_bytes",
    "bounds.ci_calls",
    "bounds.grid_K",
)


def _count_psi(counts, args, result):
    counts["influence.calls"] += 1
    counts["influence.elems"] += int(getattr(args[0], "size", 1))


def _count_scale(counts, args, result):
    counts["mestimator.scale_solves"] += 1
    counts["mestimator.newton_iters"] += result.iterations
    counts["mestimator.bisection_fallbacks"] += result.method == "bisection-fallback"
    counts["mestimator.nonconverged"] += not result.converged


def _counter(key):
    def count(counts, args, result):
        counts[key] += 1
    return count


def _count_grid(counts, args, result):
    counts["bounds.grid_K"] += result.K


def _count_blocks(counts, args, result):
    counts["covariance.block_bytes"] += result.blocks.nbytes


COUNTERS = {
    "influence.psi": _count_psi,
    "influence.psi_prime": _count_psi,
    "mestimator.scale_from_squares": _count_scale,
    "mestimator.lambda_from_squares": _counter("mestimator.lambda_calls"),
    "mestimator.alpha_root_from_squares": _counter("mestimator.alpha_roots"),
    "gram.polarization_update": _counter("gram.updates"),
    "covariance.make_blocks": _count_blocks,
    "bounds.confidence_interval": _counter("bounds.ci_calls"),
    "bounds.make_grid": _count_grid,
}


class Tracer:
    """Span recorder for one traced phase; create one per phase."""

    def __init__(self):
        self.names = []            # span name by name id
        self.span_ids = array("q")
        self.parents = array("q")
        self.name_of = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.dropped = 0
        self.times = {}            # name -> [summed self time, summed inclusive time]
        self.counts = dict.fromkeys(COUNT_KEYS, 0)
        self._stack = []           # [span id, child time] per open span
        self._ids = itertools.count()
        self._patches = []

    # -- recording ---------------------------------------------------------

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``; return its result."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name, fn):
        """Return ``fn`` wrapped in a span called ``name``.

        Everything the wrapper touches is bound here, because the wrapper
        runs thousands of times per op and its cost lands in the caller's
        self time.
        """
        if name not in self.times:
            self.times[name] = [0.0, 0.0]
            self.names.append(name)
        times = self.times[name]
        nid = self.names.index(name)
        count = COUNTERS.get(name)
        counts, stack, ids = self.counts, self._stack, self._ids
        span_ids, parents, name_of = self.span_ids, self.parents, self.name_of
        starts, ends = self.starts, self.ends
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                times[0] += duration - frame[1]
                times[1] += duration
                if len(starts) < MAX_SPANS:
                    span_ids.append(sid)
                    parents.append(parent)
                    name_of.append(nid)
                    starts.append(start)
                    ends.append(end)
                else:
                    self.dropped += 1
            if count is not None:
                count(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, package):
        """Wrap every public function of the package's layer modules.

        Each binding of a wrapped function, in any layer module or in the
        package itself, is replaced by the same wrapper.
        """
        modules = [getattr(package, layer) for layer in LAYERS]
        namespaces = modules + [package]
        for layer, module in zip(LAYERS, modules):
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, key, fn))
                            setattr(ns, key, wrapper)

    def uninstall(self):
        for ns, key, fn in reversed(self._patches):
            setattr(ns, key, fn)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    @property
    def self_s(self):
        """Summed self time per span name."""
        return {name: t[0] for name, t in self.times.items()}

    @property
    def total_s(self):
        """Summed inclusive time per span name."""
        return {name: t[1] for name, t in self.times.items()}

    def layer_self_s(self):
        """Self time summed per layer (the part before the first dot)."""
        out = {}
        for name, value in self.self_s.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + value
        return out

    def dump(self, path):
        """Write the stored spans as JSON lines, one span per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.starts)):
                fh.write(json.dumps({
                    "id": self.span_ids[i], "parent": self.parents[i],
                    "name": self.names[self.name_of[i]],
                    "start": self.starts[i], "end": self.ends[i]}) + "\n")
