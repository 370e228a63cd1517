"""Command-line interface.

Exit codes: 0 success, 2 input error (bad flags, unreadable or malformed
data, unwritable output, infeasible windows), 3 numerical failure (rank
deficiency, degenerate fits). Human tables and `--json` payloads are
rendered from the same in-memory result, and every tunable default
(trimming, alpha, lag rule, Monte Carlo seed) is echoed in the output
header so runs are auditable and byte-for-byte reproducible.
"""

from __future__ import annotations

import csv
import json
import sys

import click

from . import breaks, lags, series, simulate, unit_root
from .periods import Period
from .unit_root import TrendSpec

EXIT_INPUT = 2
EXIT_NUMERICAL = 3

# Exit code by exception type, first match wins: OlsError and
# DegenerateFitError are both ValueError and ArithmeticError.
_EXIT_CODES = {
    ArithmeticError: EXIT_NUMERICAL,
    ValueError: EXIT_INPUT,
    OSError: EXIT_INPUT,
}

_TYPE_TITLES = {
    TrendSpec.NONE: "Type 1: no drift no trend",
    TrendSpec.DRIFT: "Type 2: with drift, no trend",
    TrendSpec.DRIFT_TREND: "Type 3: with drift and trend",
}

_ADF_NOTE = "Note: in fact, p.value = 0.01 means p.value <= 0.01"
_KPSS_NOTE = (
    "Note: p.value = 0.01 means p.value <= 0.01, "
    "p.value = 0.10 means p.value >= 0.10"
)

_INPUT = click.option("--input", "path", required=True, help="CSV with period,value rows.")
_DATE_COL = click.option("--date-column", default="0", help="Date column name or index.")
_VALUE_COL = click.option("--value-column", default="1", help="Value column name or index.")
_JSON = click.option("--json", "as_json", is_flag=True, help="Machine-readable output.")
_MODELS = click.Choice([m.value for m in breaks.BreakModel])


def _load(path, date_column, value_column):
    def col(spec):
        return int(spec) if isinstance(spec, str) and spec.isdigit() else spec

    return series.load_csv(path, col(date_column), col(value_column))


@click.group()
def main() -> None:
    """Unit-root tests, lag rules, and structural-break analysis for CSV series."""


def _command(*options, reads_series=True, has_json=True, name=None):
    """Register fn as a subcommand of `main` with the shared options.

    fn gets its own options, plus the loaded series as `ts` when
    `reads_series`, and returns `(payload, lines)` for `--json` and the
    table. Errors print `error: ...` and exit with their `_EXIT_CODES` code.
    """
    if reads_series:
        options = (_INPUT, *options, _DATE_COL, _VALUE_COL)
    if has_json:
        options = (*options, _JSON)

    def register(fn):
        def callback(as_json=False, path=None, date_column=None, value_column=None, **params):
            try:
                if reads_series:
                    params["ts"] = _load(path, date_column, value_column)
                payload, lines = fn(**params)
            except tuple(_EXIT_CODES) as exc:
                click.echo(f"error: {exc}", err=True)
                sys.exit(next(c for t, c in _EXIT_CODES.items() if isinstance(exc, t)))
            if as_json:
                click.echo(json.dumps(payload, indent=2, sort_keys=True))
            else:
                click.echo("\n".join(lines))

        callback.__doc__ = fn.__doc__
        for option in reversed(options):
            callback = option(callback)
        return main.command(name=name or fn.__name__)(callback)

    return register


def _stat(x: float) -> str:
    return f"{x:.5g}"


def _pval(cell: unit_root.TestCell) -> str:
    return f"{cell.p_value:.4f}"


def _spec_rows(cells: dict) -> list[dict]:
    """`--json` rows per trend spec from a mapping spec -> sequence of TestCells."""

    def row(c: unit_root.TestCell) -> dict:
        return {"lag": c.lag, "stat": c.stat, "p": c.p_value, "p_boundary": c.p_boundary}

    return [{"kind": s.value, "rows": [row(c) for c in cells[s]]} for s in TrendSpec]


def _resolve_point(ts: series.TimeSeries, text: str) -> int:
    """1-based observation index from an integer or a period string."""
    try:
        return int(text)
    except ValueError:
        pass
    return ts.index_of(Period.parse(text)) + 1


@_command(
    click.option("--nlag", default=5, show_default=True, help="Lag specifications 0..nlag-1.")
)
def adf(ts, nlag):
    """Augmented Dickey-Fuller test under three deterministic specifications."""
    report = unit_root.adf_test(ts, nlag)
    payload = {
        "test": "adf", "T": report.T, "nlag": report.nlag, "specs": _spec_rows(report.cells)
    }
    lines = [
        "Augmented Dickey-Fuller Test",
        "alternative: stationary",
        f"T = {report.T}, nlag = {report.nlag}",
        "",
    ]
    for spec in TrendSpec:
        lines.append(_TYPE_TITLES[spec])
        lines.append(f"{'':5s}{'lag':>4s}{'ADF':>12s} {'p.value':>8s}")
        for i, cell in enumerate(report.cells[spec], start=1):
            lines.append(f"[{i},] {cell.lag:>3d}{_stat(cell.stat):>12s} {_pval(cell):>8s}")
    lines.append(_ADF_NOTE)
    return payload, lines


@_command(
    click.option("--lag", "lag_n", type=int, default=None, help="Fixed kernel lag."),
    click.option(
        "--lag-rule",
        default="kpss_short",
        show_default=True,
        type=click.Choice(sorted(lags.RULES)),
        help="Lag rule used when --lag is not given.",
    ),
)
def kpss(ts, lag_n, lag_rule):
    """KPSS stationarity test under three deterministic specifications."""
    report = unit_root.kpss_test(ts, lag_n if lag_n is not None else lag_rule)
    payload = {
        "test": "kpss",
        "T": report.T,
        "lag": report.lag,
        "specs": _spec_rows({spec: (cell,) for spec, cell in report.cells.items()}),
    }
    source = f"--lag {lag_n}" if lag_n is not None else f"rule {lag_rule}"
    lines = [
        "KPSS Unit Root Test",
        "alternative: nonstationary",
        f"T = {report.T}, lag = {report.lag} ({source})",
        "",
    ]
    for spec in TrendSpec:
        cell = report.cells[spec]
        lines.append(_TYPE_TITLES[spec])
        lines.append(f" {'lag':>3s} {'stat':>8s} {'p.value':>8s}")
        lines.append(f" {cell.lag:>3d} {_stat(cell.stat):>8s} {_pval(cell):>8s}")
    lines.append(_KPSS_NOTE)
    return payload, lines


@_command(
    click.option("--T", "T", required=True, type=int, help="Series length."),
    reads_series=False,
)
def lag(T):
    """Evaluate all lag-length rules of thumb at a series length."""
    values = {name: rule(T) for name, rule in lags.RULES.items()}
    lines = [f"Lag-length rules at T = {T}"]
    lines += [f"  {name:<10s} {value}" for name, value in values.items()]
    return {"T": T, "rules": values}, lines


@_command(
    click.option(
        "--point", required=True, help="Split point: period (2020-10) or 1-based index."
    ),
    click.option("--model", default="level", show_default=True, type=_MODELS),
)
def chow(ts, point, model):
    """Chow test at a researcher-chosen split point."""
    idx = _resolve_point(ts, point)
    result = breaks.chow_test(ts, breaks.BreakModel(model), idx)
    period = ts.start + (idx - 1)
    payload = {
        "test": "chow",
        "n": len(ts),
        "model": model,
        "break_index": result.break_index,
        "break_period": str(period),
        "f_stat": result.f_stat,
        "df_num": result.df_num,
        "df_den": result.df_den,
        "p": result.p_value,
    }
    lines = [
        "Chow Test",
        f"model: {model} (k = {result.df_num}), n = {len(ts)}",
        f"split after observation {idx} ({period})",
        f"F({result.df_num}, {result.df_den}) = {_stat(result.f_stat)}, "
        f"p.value = {result.p_value:.4f}",
    ]
    return payload, lines


@_command(
    click.option("--from", "from_", required=True, help="First candidate: period or index."),
    click.option("--to", required=True, help="Last candidate: period or index."),
    click.option("--model", default="trend", show_default=True, type=_MODELS),
    click.option("--alpha", default=0.05, show_default=True, help="Boundary level."),
    click.option(
        "--criterion",
        default="sup",
        show_default=True,
        type=click.Choice(["sup", "ave"]),
        help="Criterion highlighted in the summary (both boundaries are shown).",
    ),
    click.option(
        "--trimming",
        default=breaks.DEFAULT_TRIMMING,
        show_default=True,
        help="Minimum end-fraction each segment must keep.",
    ),
    click.option("--plot-data", "plot_path", default=None, help="Write the F path CSV here."),
)
def fstats(ts, from_, to, model, alpha, criterion, trimming, plot_path):
    """F-statistic sweep over candidate break points with MC boundaries."""
    lo, hi = _resolve_point(ts, from_), _resolve_point(ts, to)
    fpath = breaks.f_stats(ts, breaks.BreakModel(model), lo, hi, trimming)
    sup_b = breaks.boundary(fpath, alpha, "sup_f")
    ave_b = breaks.boundary(fpath, alpha, "ave_f")
    pval = breaks.sup_f_pvalue(fpath)
    seed = breaks.mc_seed()
    if plot_path:
        with open(plot_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["period", "f_value", "sup_boundary", "ave_boundary"])
            bounds = [repr(sup_b.critical_value), repr(ave_b.critical_value)]
            writer.writerows(
                [str(ts.start + (i - 1)), repr(float(f)), *bounds]
                for i, f in zip(fpath.candidates, fpath.f_values)
            )
    payload = {
        "test": "fstats",
        "n": fpath.n,
        "model": model,
        "k": fpath.k,
        "from": fpath.from_index,
        "to": fpath.to_index,
        "trimming": fpath.trimming,
        "alpha": alpha,
        "seed": seed,
        "f_values": [float(f) for f in fpath.f_values],
        "sup_f": fpath.sup_f,
        "ave_f": fpath.ave_f,
        "sup_boundary": sup_b.critical_value,
        "ave_boundary": ave_b.critical_value,
        "sup_p_value": pval.p_value,
        "sup_p_clamped": pval.clamped,
    }
    chosen = sup_b if criterion == "sup" else ave_b
    exceed = [
        str(ts.start + (i - 1))
        for i, f in zip(fpath.candidates, fpath.f_values)
        if f > chosen.critical_value
    ]
    lines = [
        "Endogenous break F-statistic sweep",
        f"model: {model} (k = {fpath.k}), n = {fpath.n}, "
        f"candidates {fpath.from_index}..{fpath.to_index} "
        f"({ts.start + (fpath.from_index - 1)}..{ts.start + (fpath.to_index - 1)})",
        f"defaults: trimming = {fpath.trimming}, alpha = {alpha}, "
        f"criterion = {criterion}, seed = {seed}",
        "",
        f"sup F = {_stat(fpath.sup_f)}   ave F = {_stat(fpath.ave_f)}",
        f"boundaries (alpha = {alpha}): "
        f"sup = {_stat(sup_b.critical_value)}, ave = {_stat(ave_b.critical_value)}",
        f"sup-F p.value = {pval}",
        f"candidates above the {criterion} boundary: {', '.join(exceed)}"
        if exceed
        else f"no candidate exceeds the {criterion} boundary",
        "Note: exceedances summarize evidence of a break somewhere in the "
        "window; they do not date the break.",
    ]
    return payload, lines


@_command(
    click.option("--h", "h", required=True, type=int, help="Minimum segment length."),
    click.option("--model", default="level", show_default=True, type=_MODELS),
    click.option("--max-breaks", default=None, type=int, help="Cap on break count."),
    click.option("--alpha", default=0.05, show_default=True, help="Interval level 1-alpha."),
    click.option("--from", "from_", default=None, help="Slice start period."),
    click.option("--to", default=None, help="Slice end period."),
)
def breakpoints(ts, h, model, max_breaks, alpha, from_, to):
    """Optimal multiple breakpoints by dynamic programming, with intervals."""
    if from_ or to:
        start = Period.parse(from_) if from_ else ts.start
        end = Period.parse(to) if to else ts.end
        ts = ts.slice(start, end)
    bset = breaks.optimal_breakpoints(ts, breaks.BreakModel(model), h, max_breaks)
    if bset.selected_m > 0:
        bset = breaks.breakpoint_confint(bset, ts, alpha)
    periods = [str(ts.start + (i - 1)) for i in bset.break_indices]
    intervals = bset.confidence_intervals or ()
    payload = {
        "test": "breakpoints",
        "n": bset.n,
        "model": model,
        "h": bset.h,
        "alpha": alpha,
        "rss": list(bset.rss_table),
        "bic": list(bset.bic_table),
        "selected_m": bset.selected_m,
        "breaks": list(bset.break_indices),
        "break_periods": periods,
        "confidence_intervals": [list(ci) for ci in intervals],
    }
    lines = [
        "Optimal breakpoints",
        f"model: {model}, n = {bset.n}, h = {bset.h}, alpha = {alpha}, "
        f"sample {ts.start}..{ts.end}",
        "",
        f"{'m':>3s} {'RSS':>14s} {'BIC':>12s}",
    ]
    for m, (rss, bic) in enumerate(zip(bset.rss_table, bset.bic_table)):
        mark = "  <- selected" if m == bset.selected_m else ""
        lines.append(f"{m:>3d} {rss:>14.4f} {bic:>12.4f}{mark}")
    lines.append("")
    if not bset.break_indices:
        return payload, lines + ["No breaks selected."]
    lines += [
        "Breakpoints at observation number: " + " ".join(str(i) for i in bset.break_indices),
        "Periods: " + ", ".join(periods),
        f"Confidence intervals ({100 * (1 - alpha):g}%):",
        f"{'':>3s} {'lower':>6s} {'point':>6s} {'upper':>6s}",
    ]
    for j, (lo, b, hi) in enumerate(intervals, start=1):
        lines.append(f"{j:>3d} {lo:>6d} {b:>6d} {hi:>6d}")
    return payload, lines


_KIND_ALIASES = {
    "noise": "white_noise",
    "walk": "random_walk",
    "drift": "random_walk_drift",
    "trend": "trend_stationary",
}


@_command(
    click.option(
        "--kind",
        required=True,
        type=click.Choice(
            sorted({k.value for k in simulate.ProcessKind} | set(_KIND_ALIASES))
        ),
    ),
    click.option("--T", "T", required=True, type=int, help="Series length."),
    click.option("--drift", default=0.5, show_default=True),
    click.option("--trend-slope", default=0.5, show_default=True),
    click.option("--phi", default=0.0, show_default=True, help="AR(1) coefficient."),
    click.option("--sigma", default=1.0, show_default=True),
    click.option("--seed", default=0, show_default=True),
    click.option("--y0", default=0.0, show_default=True, help="Starting level for walks."),
    click.option("--start", default="2000-01", show_default=True, help="First period."),
    click.option("--out", required=True, help="Output CSV path."),
    reads_series=False,
    has_json=False,
    name="simulate",
)
def simulate_series(kind, start, out, **process):
    """Generate a seeded synthetic series and write it as CSV."""
    resolved = _KIND_ALIASES.get(kind, kind)
    spec = simulate.ProcessSpec(simulate.ProcessKind(resolved), **process)
    ts = simulate.generate(spec, Period.parse(start))
    series.write_csv(ts, out)
    return None, [
        f"wrote {len(ts)} {resolved} observations "
        f"({ts.start}..{ts.end}, seed = {spec.seed}) to {out}"
    ]


@_command(
    click.option(
        "--input", "docs", required=True, help="doc_id,period,topic_id,probability CSV."
    ),
    click.option("--topic", required=True, help="Topic identifier to aggregate."),
    click.option(
        "--frequency",
        default="monthly",
        show_default=True,
        type=click.Choice(["monthly", "annual"]),
    ),
    click.option("--out", default=None, help="Write the prevalence series CSV here."),
    reads_series=False,
)
def aggregate(docs, topic, frequency, out):
    """Aggregate per-document topic probabilities into a prevalence series."""
    ts = series.aggregate_prevalence(series.load_doc_topic_csv(docs), topic, frequency)
    if out:
        series.write_csv(ts, out)
    payload = {
        "topic": topic,
        "frequency": frequency,
        "T": len(ts),
        "start": str(ts.start),
        "end": str(ts.end),
        "values": [float(v) for v in ts.values],
    }
    lines = [
        f"topic {topic}: {len(ts)} {frequency} periods "
        f"({ts.start}..{ts.end}), mean prevalence {ts.values.mean():.4f}"
    ]
    if out:
        lines.append(f"wrote series to {out}")
    return payload, lines


if __name__ == "__main__":
    main()
