"""In-memory spans around calls into tsbreak's public functions.

The tracer patches module attributes (``tsbreak.ols.fit`` and so on) with
wrappers that record a span per call, so calls made inside the program
through those attributes are timed too. Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import json
import os
import statistics
import time

PHASES = ("workload", "probe")


def dp_cells(n: int, h: int, m_max: int) -> int:
    """(m, j, b) candidates the exact breakpoint DP examines for m = 1..m_max."""
    return sum(
        max(0, j - h + 2 - m * h) for m in range(1, m_max + 1) for j in range((m + 1) * h - 1, n)
    )


def _mc_key(path, seed):
    seed = os.environ.get("TSBREAK_SEED", "default") if seed is None else seed
    return (path.from_index, path.to_index, path.n, path.k, seed)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, start, end, attrs, phase]
        self.phase = "workload"
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._mc_seen: set = set()

    def begin(self, name: str, attrs: dict | None = None) -> list:
        rec = [len(self.spans), self._stack[-1] if self._stack else -1, name, time.perf_counter(), None, attrs or {}, self.phase]
        self.spans.append(rec)
        self._stack.append(rec[0])
        return rec

    def end(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, module, fname: str, attrs_of=None) -> None:
        orig = getattr(module, fname)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{fname}"

        def wrapper(*args, **kwargs):
            rec = self.begin(name, attrs_of(*args, **kwargs) if attrs_of else None)
            try:
                return orig(*args, **kwargs)
            finally:
                self.end(rec)

        self._patches.append((module, fname, orig, wrapper))

    def _mc_cold(self, path, seed) -> dict:
        """Whether this call is the first in the process to need these MC draws."""
        key = _mc_key(path, seed)
        cold = key not in self._mc_seen
        self._mc_seen.add(key)
        return {"cold": cold}

    def prepare(self) -> None:
        """Build the wrappers for tsbreak's modules once; `install` turns them on."""
        if self._patches:
            return
        from tsbreak import argmax_dist, breaks, ols, series, simulate, unit_root

        for fname in ("load_csv", "load_doc_topic_csv", "aggregate_prevalence"):
            self._wrap(series, fname)
        self._wrap(simulate, "generate")
        self._wrap(unit_root, "adf_test")
        self._wrap(unit_root, "kpss_test")
        self._wrap(ols, "fit", lambda design, y: {"n": design.X.shape[0], "k": design.X.shape[1]})
        self._wrap(breaks, "chow_test")
        self._wrap(breaks, "f_stats", lambda s, model, lo, hi, *a, **kw: {"splits": hi - lo + 1})
        self._wrap(breaks, "boundary", lambda path, alpha=0.05, criterion="sup_f", seed=None: self._mc_cold(path, seed))
        self._wrap(breaks, "sup_f_pvalue", lambda path, seed=None: self._mc_cold(path, seed))

        def dp_attrs(series_, model, h, m_max=None):
            n = len(series_)
            return {"n": n, "h": h, "cells": dp_cells(n, h, n // h - 1 if m_max is None else m_max)}

        self._wrap(breaks, "optimal_breakpoints", dp_attrs)
        self._wrap(breaks, "breakpoint_confint")
        self._wrap(argmax_dist, "quantile")

    def install(self) -> None:
        for module, fname, _, wrapper in self._patches:
            setattr(module, fname, wrapper)

    def uninstall(self) -> None:
        for module, fname, orig, _ in self._patches:
            setattr(module, fname, orig)

    # --- results -------------------------------------------------------------

    def durations(self, name: str, phase: str, where=None) -> list[tuple[float, dict]]:
        return [
            (s[4] - s[3], s[5])
            for s in self.spans
            if s[2] == name and s[6] == phase and s[4] is not None and (where is None or where(s[5]))
        ]

    def pick(self, name: str, where=None) -> tuple[list[tuple[float, dict]], str]:
        """The workload's own spans of a layer; the fixture probe's where it has none."""
        for phase in PHASES:
            got = self.durations(name, phase, where)
            if got:
                return got, phase
        return [], "none"

    def self_times(self) -> dict[str, tuple[float, float, int]]:
        """name -> (inclusive s, self s, calls) over the workload phase."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[1] >= 0 and s[4] is not None:
                child[s[1]] += s[4] - s[3]
        out: dict[str, list] = {}
        for s in self.spans:
            if s[6] != "workload" or s[4] is None:
                continue
            acc = out.setdefault(s[2], [0.0, 0.0, 0])
            acc[0] += s[4] - s[3]
            acc[1] += s[4] - s[3] - child[s[0]]
            acc[2] += 1
        return {k: tuple(v) for k, v in out.items()}

    def dump(self, path) -> None:
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, attrs, phase in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "phase": phase,
                    "start_us": round((start - t0) * 1e6, 1),
                    "dur_us": None if end is None else round((end - start) * 1e6, 1),
                    **({"attrs": attrs} if attrs else {}),
                }) + "\n")


# name, unit, span, scale to the unit (or the attribute a rate counts), span filter
LAYER_METRICS = (
    ("cli.import_s", "s", "cli.import", 1.0, None),
    ("cli.command_ms", "ms", "cli.command_cycle", 1e3, None),
    ("breaks.boundary_cold_ms", "ms", "breaks.boundary", 1e3, lambda a: a["cold"]),
    ("breaks.boundary_warm_us", "us", "breaks.boundary", 1e6, lambda a: not a["cold"]),
    ("breaks.f_stats_ms", "ms", "breaks.f_stats", 1e3, None),
    ("breaks.f_stats.splits_per_s", "1/s", "breaks.f_stats", "splits", None),
    ("breaks.chow_test_ms", "ms", "breaks.chow_test", 1e3, None),
    ("ols.fit_us", "us", "ols.fit", 1e6, lambda a: a["k"] == 7 and a["n"] >= 200),
    ("unit_root.adf_test_ms", "ms", "unit_root.adf_test", 1e3, None),
    ("unit_root.kpss_test_ms", "ms", "unit_root.kpss_test", 1e3, None),
    ("series.aggregate_prevalence_ms", "ms", "series.aggregate_prevalence", 1e3, None),
    ("series.load_doc_topic_csv_ms", "ms", "series.load_doc_topic_csv", 1e3, None),
    ("series.load_csv_ms", "ms", "series.load_csv", 1e3, None),
    ("simulate.generate_ms", "ms", "simulate.generate", 1e3, None),
    ("breaks.optimal_breakpoints_ms", "ms", "breaks.optimal_breakpoints", 1e3, None),
    ("breaks.dp.cells_per_s", "1/s", "breaks.optimal_breakpoints", "cells", None),
    ("breaks.breakpoint_confint_ms", "ms", "breaks.breakpoint_confint", 1e3, None),
    ("argmax_dist.quantile_us", "us", "argmax_dist.quantile", 1e6, None),
)


def layer_metrics(tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer metrics and, for each, the phase and sample count it came from."""
    metrics, sources = {}, {}
    for name, unit, span, how, where in LAYER_METRICS:
        got, phase = tracer.pick(span, where)
        if not got:
            continue
        if isinstance(how, str):
            value = sum(a[how] for _, a in got) / sum(d for d, _ in got)
        else:
            value = statistics.median(d for d, _ in got) * how
        metrics[name] = {"value": value, "unit": unit}
        sources[name] = {"phase": phase, "samples": len(got)}
    return metrics, sources
