"""Seeded inputs for the benchmark workloads.

Everything here depends only on NumPy and the workload seed; nothing imports
tsbreak, so the program under test receives only the generated files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

FIXTURE = Path("src") / "tsbreak" / "data" / "trends_monthly.csv"

# topic_panel: 241 months (2004-01 .. 2024-01), DOCS_PER_MONTH documents a
# month, TOPICS topics per document.
PANEL_START = (2004, 1)
PANEL_MONTHS = 241
DOCS_PER_MONTH = 10
TOPICS = 8
PANEL_FROM, PANEL_TO = 25, 216  # full trimmed window at n = 241, 10% trimming

# cli_fixture's small doc-topic file for `tsbreak aggregate`.
SMALL_START = (2020, 1)
SMALL_MONTHS = 24
SMALL_DOCS = 5
SMALL_TOPICS = ("a", "b", "c")

# breaks_scan: (n, model, h) per seeded op; h = n / 20.
SCAN_SHAPES = ((240, "level", 12), (240, "trend", 12), (480, "level", 24), (480, "trend", 24))
# The population-scale pair: one fixed three-regime series (breaks after 40
# and 80, means 0, 3, -1, unit noise) and the same series plus POP_SHIFT.
# Neither depends on the workload seed.
POP_SEED = 7
POP_N, POP_H, POP_BREAKS = 120, 6, (40, 80)
POP_SHIFT = 1e8


def month_label(start: tuple[int, int], offset: int) -> str:
    o = start[0] * 12 + start[1] - 1 + offset
    return f"{o // 12:04d}-{o % 12 + 1:02d}"


def _doc_topic_rows(rng, start, months, docs, topics, breaks_per_topic):
    """Rows of (doc_id, period, topic_id, probability) plus each topic's breaks.

    Topic shares follow piecewise-constant log-weights with seeded break
    months; each document draws its probabilities from a Dirichlet around
    the month's shares.
    """
    k = len(topics)
    logw = np.zeros((months, k))
    topic_breaks = {}
    for t in range(k):
        cuts = np.sort(rng.choice(np.arange(months // 8, months - months // 8), breaks_per_topic, replace=False))
        topic_breaks[topics[t]] = [int(c) for c in cuts]
        level = rng.normal(0.0, 0.5)
        for seg_start, seg_end in zip([0, *cuts], [*cuts, months]):
            logw[seg_start:seg_end, t] = level
            level += rng.choice([-1.0, 1.0]) * rng.uniform(0.4, 0.9)
    shares = np.exp(logw)
    shares /= shares.sum(axis=1, keepdims=True)
    rows = []
    doc = 0
    for m in range(months):
        period = month_label(start, m)
        probs = rng.dirichlet(40.0 * shares[m], size=docs)
        for d in range(docs):
            doc += 1
            for t in range(k):
                rows.append((f"d{doc:06d}", period, topics[t], repr(float(probs[d, t]))))
    return rows, topic_breaks


def _write_rows(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("doc_id,period,topic_id,probability\n")
        fh.writelines(",".join(r) + "\n" for r in rows)


def make_cli_fixture(workdir: Path, seed: int) -> dict:
    rng = np.random.default_rng([seed, 1])
    rows, _ = _doc_topic_rows(rng, SMALL_START, SMALL_MONTHS, SMALL_DOCS, SMALL_TOPICS, 1)
    path = workdir / "doc_topics_small.csv"
    _write_rows(path, rows)
    return {"doc_topics": str(path), "fixture": str(FIXTURE), "sim_out": str(workdir / "sim.csv")}


def make_topic_panel(workdir: Path, seed: int) -> dict:
    rng = np.random.default_rng([seed, 2])
    topics = tuple(f"t{i}" for i in range(TOPICS))
    rows, topic_breaks = _doc_topic_rows(rng, PANEL_START, PANEL_MONTHS, DOCS_PER_MONTH, topics, 2)
    path = workdir / "doc_topics_panel.csv"
    _write_rows(path, rows)
    # Chow split: each topic's first break month, as a 1-based last index
    # of the first segment, kept inside the trimmed window.
    points = {t: min(max(b[0], PANEL_FROM), PANEL_TO) for t, b in topic_breaks.items()}
    return {"doc_topics": str(path), "topics": list(topics), "chow_points": points}


def scan_series(rng, n: int, model: str) -> tuple[np.ndarray, list[int]]:
    """Multi-regime series: 2-3 breaks at least 3h apart, shifts of 2.5-4 sd."""
    h = n // 20
    while True:
        m = int(rng.integers(2, 4))
        cuts = np.sort(rng.choice(np.arange(3 * h, n - 3 * h), m, replace=False))
        if np.all(np.diff(cuts) >= 3 * h):
            break
    t = np.arange(n, dtype=float)
    y = rng.normal(0.0, 1.0, n)
    level = rng.uniform(10.0, 50.0)
    slope = rng.uniform(-0.02, 0.02) if model == "trend" else 0.0
    mean = np.empty(n)
    for seg_start, seg_end in zip([0, *cuts], [*cuts, n]):
        mean[seg_start:seg_end] = level + slope * (t[seg_start:seg_end] - seg_start)
        level = mean[seg_end - 1] + rng.choice([-1.0, 1.0]) * rng.uniform(2.5, 4.0)
        if model == "trend":
            slope = rng.uniform(-0.02, 0.02)
    return y + mean, [int(c) for c in cuts]


def population_series() -> np.ndarray:
    rng = np.random.default_rng(POP_SEED)
    a, b = POP_BREAKS
    means = np.concatenate([np.zeros(a), np.full(b - a, 3.0), np.full(POP_N - b, -1.0)])
    return means + rng.standard_normal(POP_N)


def make_breaks_scan(workdir: Path, seed: int) -> dict:
    rng = np.random.default_rng([seed, 3])
    ops = []
    arrays = {}
    for i, (n, model, h) in enumerate(SCAN_SHAPES):
        y, cuts = scan_series(rng, n, model)
        arrays[f"y{i}"] = y
        ops.append({"name": f"n{n}_{model}", "array": f"y{i}", "model": model, "h": h,
                    "true_breaks": cuts, "known_fault": False, "shift_of": None})
    pop = population_series()
    arrays["pop"] = pop
    arrays["pop_shifted"] = pop + POP_SHIFT
    ops.append({"name": f"n{POP_N}_level", "array": "pop", "model": "level", "h": POP_H,
                "true_breaks": list(POP_BREAKS), "known_fault": False, "shift_of": None})
    ops.append({"name": f"n{POP_N}_level_plus_1e8", "array": "pop_shifted", "model": "level",
                "h": POP_H, "true_breaks": list(POP_BREAKS), "known_fault": True,
                "shift_of": len(ops) - 1})
    path = workdir / "scan_series.npz"
    np.savez(path, **arrays)
    return {"series": str(path), "ops": ops}


MAKERS = {
    "cli_fixture": make_cli_fixture,
    "topic_panel": make_topic_panel,
    "breaks_scan": make_breaks_scan,
}


def make(workload: str, workdir: Path, seed: int) -> Path:
    """Write the workload's inputs under workdir and return its spec file.

    Every spec also names the fixture inputs the traced run's probes use.
    """
    spec = MAKERS[workload](workdir, seed)
    spec["probe"] = make_cli_fixture(workdir, seed)
    spec_path = workdir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    return spec_path
