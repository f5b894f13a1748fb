"""Outside-in span tracer for the ``fracwave`` modules.

``Tracer.install()`` wraps every public function of the traced modules and
rebinds the wrapper wherever the original is bound inside the package: the
defining module, every ``from .x import f`` copy, and module-level tuples,
lists and dicts (``verify.ALL_CHECKS``).  The package itself is not changed
on disk and knows nothing of the tracer.

A span is ``[name, start, end, parent, failed]``; spans live in memory and
are summarised by ``layer_metrics`` when the run ends.  ``ml`` calls also
record their inputs, so the benchmark can count exact repeats and band
sizes and re-time ``ml`` per band afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import threading
import time

import numpy as np

LAYERS = ("mittag_leffler", "fracops", "spectral", "solver", "boundary",
          "regularity", "verify", "cli")

# Spans whose peak resident-memory growth is reported as ``<name>.peak_mb``.
PEAK_SPANS = ("fracops.gagliardo_seminorm", "solver.solve_field",
              "spectral.build_rectangle")

# Private evaluator routine whose calls are counted, not timed: values that
# every fast tier rejected and that went to arbitrary precision.
FALLBACK = ("mittag_leffler", "_mpmath_single")

ML = "mittag_leffler.ml"


class RssSampler:
    """Peak growth of this process's resident set, sampled every 10 ms.

    tracemalloc would see the same arrays but slows the pure-Python mpmath
    fallback several-fold, so the span's own cost would change.
    """

    PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20

    def __init__(self):
        self.base = self.peak = self._rss()
        self.done = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    @classmethod
    def _rss(cls) -> float:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * cls.PAGE_MB

    def _run(self) -> None:
        while not self.done.wait(0.01):
            self.peak = max(self.peak, self._rss())

    def stop(self) -> float:
        self.done.set()
        self.thread.join()
        return max(self.peak, self._rss()) - self.base


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.ml_inputs: list[tuple[float, float, np.ndarray]] = []
        self.fallbacks = 0
        self.peaks: dict[str, float] = {}
        self.sampling = False
        self.originals: dict[str, object] = {}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        track_peak = name in PEAK_SPANS
        capture = name == ML

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if capture:
                params, z = args[0], args[1]
                self.ml_inputs.append((float(params.alpha), float(params.beta),
                                       np.array(z, dtype=float).ravel()))
            sampler = RssSampler() if track_peak and not self.sampling else None
            if sampler:
                self.sampling = True
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                rec[4] = True
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if sampler:
                    self.sampling = False
                    self.peaks[name] = max(self.peaks.get(name, 0.0), sampler.stop())

        return wrapper

    def _count_fallbacks(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.fallbacks += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of every layer module, wherever bound."""
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"fracwave.{layer}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    self.originals[name] = obj
                    replace[id(obj)] = self._wrap(name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname == "fracwave" or modname.startswith("fracwave."):
                _rebind(vars(mod), replace)
        # only the evaluator's own fallback calls are counted, not the
        # reference values ``verify`` computes with the same routine
        mod = importlib.import_module(f"fracwave.{FALLBACK[0]}")
        fallback = getattr(mod, FALLBACK[1], None)
        if fallback is not None:
            setattr(mod, FALLBACK[1], self._count_fallbacks(fallback))

    # -- summaries --------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times; see ``bench/README.md`` for names."""
        out: dict[str, float] = {}
        n = len(self.spans)
        name = [s[0] for s in self.spans]
        dur = np.array([s[2] - s[1] for s in self.spans]) if n else np.zeros(0)
        parent = np.array([s[3] for s in self.spans], dtype=int) if n else np.zeros(0, int)
        child = np.zeros(n)
        if n:
            has_parent = parent >= 0
            np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child

        # ``busy`` counts only the outermost span of a name (or a layer), so
        # recursion and intra-layer calls are not counted twice.
        outer_name = np.ones(n, dtype=bool)
        outer_layer = np.ones(n, dtype=bool)
        layer = [s.split(".", 1)[0] for s in name]
        for i in range(n):
            p = parent[i]
            while p >= 0:
                if name[p] == name[i]:
                    outer_name[i] = False
                if layer[p] == layer[i]:
                    outer_layer[i] = False
                    if not outer_name[i]:
                        break
                p = parent[p]

        per_name: dict[str, list[int]] = {}
        for i, s in enumerate(name):
            per_name.setdefault(s, []).append(i)
        for s, idx in per_name.items():
            idx = np.array(idx)
            out[f"{s}.calls"] = float(idx.size)
            out[f"{s}.busy_s"] = float(dur[idx][outer_name[idx]].sum())
            out[f"{s}.self_s"] = float(self_time[idx].sum())
            out[f"{s}.errors"] = float(sum(self.spans[i][4] for i in idx))
            out[f"{s}.max_call_s"] = float(dur[idx].max())
        for lay in LAYERS:
            sel = np.array([layer[i] == lay and outer_layer[i] for i in range(n)], dtype=bool)
            out[f"{lay}.busy_s"] = float(dur[sel].sum()) if n else 0.0
        for s, peak in self.peaks.items():
            out[f"{s}.peak_mb"] = peak
        out["trace.spans"] = float(n)
        return out

    def ml_bands(self):
        """Counts of captured ``ml`` inputs and their split into m-bands.

        Returns ``(metrics, bands)`` where ``bands`` maps a band suffix to a
        list of ``(alpha, beta, z)`` in capture order.  The band edges are
        the module's own tier radii.
        """
        mod = sys.modules["fracwave.mittag_leffler"]
        r1 = float(getattr(mod, "_M_DOUBLE", 12.0))
        r2 = float(getattr(mod, "_M_DD", 46.0))
        groups: dict[tuple[float, float], list[np.ndarray]] = {}
        for alpha, beta, z in self.ml_inputs:
            groups.setdefault((alpha, beta), []).append(z)
        total = repeats = 0
        bands: dict[str, list] = {"le_12": [], "12_46": [], "gt_46": []}
        for (alpha, beta), zs in groups.items():
            z = np.concatenate(zs)
            total += z.size
            repeats += z.size - np.unique(z).size
            m = np.abs(z) ** (1.0 / alpha)
            for band, sel in (("le_12", m <= r1), ("12_46", (m > r1) & (m <= r2)),
                              ("gt_46", m > r2)):
                if np.any(sel):
                    bands[band].append((alpha, beta, z[sel]))
        out = {f"{ML}.values": float(total), f"{ML}.repeats": float(repeats),
               f"{ML}.fallback_values": float(self.fallbacks)}
        for band, items in bands.items():
            out[f"{ML}.values_m_{band}"] = float(sum(z.size for _, _, z in items))
        return out, bands


def _rebind(namespace: dict, replace: dict[int, object]) -> None:
    for key, val in list(namespace.items()):
        if id(val) in replace:
            namespace[key] = replace[id(val)]
        elif isinstance(val, tuple) and any(id(v) in replace for v in val):
            namespace[key] = tuple(replace.get(id(v), v) for v in val)
        elif isinstance(val, list) and any(id(v) in replace for v in val):
            val[:] = [replace.get(id(v), v) for v in val]
        elif isinstance(val, dict) and not key.startswith("__"):
            for k, v in list(val.items()):
                if id(v) in replace:
                    val[k] = replace[id(v)]
