"""Span tracer that wraps nobleline's public functions from outside the package.

A span records its name, start, end and parent; counters are attributed to a
span name. `Tracer.install()` swaps every binding of the traced functions in
the already-imported `nobleline.*` modules (including names copied by
`from .x import y`) for timing wrappers, and wraps two scipy entry points the
package looks up at call time:

- `scipy.stats.t.ppf` becomes the span `signals.t_ppf`;
- `scipy.optimize.least_squares` is not a span: its `nfev`/`njev` are added
  to the innermost open span, i.e. the fitter that called it.

`uninstall()` restores the original bindings, so traced and untraced passes
can alternate in one process.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict


def _first_len(quantity, parameter):
    def count(args, kwargs, result):
        return {quantity: len(args[0] if args else kwargs[parameter])}
    return count


def _trajectory_samples(args, kwargs, result):
    return {"samples": len(result.times)}


def _written(args, kwargs, result):
    return {"rows": len(args[0].rows),
            "bytes": sum(os.path.getsize(p) for p in result)}


# (module, attribute) -> (span name, counter of work done per call)
TARGETS = {
    ("nobleline.signals", "fit_decaying_sinusoid"):
        ("signals.fit_decaying_sinusoid", _first_len("samples", "times")),
    ("nobleline.signals", "fit_inverted_lorentzian"):
        ("signals.fit_inverted_lorentzian", _first_len("points", "x")),
    ("nobleline.signals", "fit_linear"): ("signals.fit_linear", None),
    ("nobleline.signals", "heterodyne_extract"):
        ("signals.heterodyne_extract", _first_len("samples", "times")),
    ("nobleline.dynamics", "evolve_exact"):
        ("dynamics.evolve_exact", _trajectory_samples),
    ("nobleline.dynamics", "magnetic_pulse_transient"):
        ("dynamics.magnetic_pulse_transient", None),
    ("nobleline.dynamics", "excite_and_readout"):
        ("dynamics.excite_and_readout", None),
    ("nobleline.spectrum", "line_shape"): ("spectrum.line_shape", None),
    ("nobleline.spectrum", "evaluate_spectrum"):
        ("spectrum.evaluate_spectrum", None),
    ("nobleline.spectrum", "s2_response"): ("spectrum.s2_response", None),
    ("nobleline.experiments", "run_scenario"):
        ("experiments.run_scenario", None),
    ("nobleline.config", "load_config"): ("config.load_config", None),
}


class Tracer:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.spans = []      # [id, parent, name, start, end]
        self.counts = defaultdict(lambda: defaultdict(int))
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def span(self, name):
        return _Span(self, name)

    def add(self, name, quantity, value):
        self.counts[name][quantity] += int(value)

    def current(self):
        return self.spans[self._stack[-1]][2] if self._stack else None

    def reset(self):
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(int))

    # -- patching ----------------------------------------------------------

    def wrap(self, fn, name, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                for quantity, value in counter(args, kwargs, result).items():
                    tracer.add(name, quantity, value)
            return result
        return traced

    def install(self):
        """Wrap the traced functions in every loaded nobleline module."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "nobleline"
                                         or n.startswith("nobleline."))]
        for (modname, attr), (name, counter) in TARGETS.items():
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(original, name, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

        scan = sys.modules["nobleline.experiments"].ScanResult
        self._set(scan, "write", self.wrap(scan.write, "experiments.write",
                                           _written))

        import scipy.optimize
        import scipy.stats

        dist = scipy.stats.t
        self._set(dist, "ppf", self.wrap(dist.ppf, "signals.t_ppf"),
                  instance=True)
        least_squares = scipy.optimize.least_squares
        tracer = self

        @functools.wraps(least_squares)
        def counted(*args, **kwargs):
            result = least_squares(*args, **kwargs)
            owner = tracer.current() or "unattributed"
            tracer.add(owner, "nfev", result.nfev)
            if result.njev is not None:
                tracer.add(owner, "njev", result.njev)
            return result
        self._set(scipy.optimize, "least_squares", counted)

    def _set(self, owner, key, value, instance=False):
        self._undo.append((owner, key, None if instance
                           else getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            if original is None:
                delattr(owner, key)
            else:
                setattr(owner, key, original)
        self._undo = []

    # -- export ------------------------------------------------------------

    def export(self):
        return {"spans": [list(s) for s in self.spans],
                "counts": {k: dict(v) for k, v in self.counts.items()}}

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.export(), fh)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr._stack[-1] if tr._stack else None
        tr.spans.append([self.index, parent, self.name, time.perf_counter(),
                         None])
        tr._stack.append(self.index)
        tr.counts[self.name]["calls"] += 1
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr.spans[self.index][4] = time.perf_counter()
        tr._stack.pop()
        return False


def summarize(traces):
    """Per-name self time and counters over several process traces.

    Self time is a span's duration minus the durations of its direct
    children. `root_s` is the summed duration of top-level spans, which the
    caller divides by the pass wall time to get the trace coverage.
    """
    self_s = defaultdict(float)
    counts = defaultdict(lambda: defaultdict(int))
    root_s = 0.0
    for trace in traces:
        spans = trace["spans"]
        children = defaultdict(float)
        for _, parent, _, start, end in spans:
            if parent is not None:
                children[parent] += end - start
        for index, parent, name, start, end in spans:
            self_s[name] += (end - start) - children[index]
            if parent is None:
                root_s += end - start
        for name, quantities in trace["counts"].items():
            for quantity, value in quantities.items():
                counts[name][quantity] += value
    return self_s, counts, root_s
