"""One process running one workload: set-up, closed-loop ops, spans.

Run by run.py as ``python3 perfbench/worker.py --workload W --spec FILE ...``
with ``src`` on PYTHONPATH and one BLAS thread. Set-up is timed from the top
of this file, so it covers importing tsbreak (and NumPy and SciPy with it);
nothing heavy is imported before that. After set-up the worker starts
checker.py in its own process; after each op's timer stops it sends the
op's outputs there and waits for the verdict, so checks never run beside a
timed op and never add to this process's memory. The last line of stdout
is one JSON object for run.py.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

from spans import Tracer, layer_metrics  # noqa: E402

# What the installed `tsbreak` console script runs.
ENTRY = "import sys; from tsbreak.cli import main; sys.argv[0] = 'tsbreak'; sys.exit(main())"
PANEL_ALPHA = 0.05
PROBE_SEED = 31_000  # fresh Monte Carlo seeds for cold boundary() calls in traced runs
IMPORT_PROBES = 5
COMMAND_CYCLES = 3
LIBRARY_CYCLES = 3
REF_DICT_STEPS = 20_000  # dictionary updates in the reference kernel
REF_FITS = 160  # QR least-squares fits of a 240 x 4 design in the reference kernel


def cli_commands(inp: dict) -> list[tuple[str, list[str]]]:
    """The README's commands on the bundled fixture, with --json where offered."""
    f = inp["fixture"]
    return [
        ("lag", ["lag", "--T", "241", "--json"]),
        ("adf", ["adf", "--input", f, "--nlag", "5", "--json"]),
        ("kpss", ["kpss", "--input", f, "--lag-rule", "kpss_short", "--json"]),
        ("chow", ["chow", "--input", f, "--point", "2020-10", "--model", "trend", "--json"]),
        ("fstats", ["fstats", "--input", f, "--from", "2020-01", "--to", "2021-12", "--json"]),
        ("breakpoints", ["breakpoints", "--input", f, "--h", "5", "--from", "2020-01", "--to", "2024-01", "--json"]),
        ("simulate", ["simulate", "--kind", "drift", "--T", "241", "--seed", "42", "--out", inp["sim_out"]]),
        ("aggregate", ["aggregate", "--input", inp["doc_topics"], "--topic", "a", "--json"]),
    ]


def run_child(argv: list[str]) -> tuple[int, bytes, int]:
    """Run a subprocess to completion: exit code, stdout, its own peak RSS in KiB."""
    with open(os.devnull, "wb") as devnull:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=devnull)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


class Checker:
    """checker.py in its own process, answering one op's outputs at a time."""

    def __init__(self, workload: str, spec_path: str):
        script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "checker.py")
        self.proc = subprocess.Popen([sys.executable, script, "--workload", workload, "--spec", spec_path],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self._read()  # its set-up is done before the first op is timed

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"checker exited with {self.proc.wait()}")
        return json.loads(line)

    def check(self, name: str, payload: dict) -> tuple[list[str], bool]:
        """The op's check errors, and whether they are all the known fault's."""
        self.proc.stdin.write(json.dumps({"op": name, **payload}) + "\n")
        self.proc.stdin.flush()
        verdict = self._read()
        return verdict["errors"], verdict["known_fault"]

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Op:
    def __init__(self, name: str, arg, known_fault: bool = False):
        self.name, self.arg, self.known_fault = name, arg, known_fault


class CliFixture:
    """Each op is one `tsbreak <cmd>` process."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.peak_kb = 0

    def setup(self, tracer) -> None:
        code, _, _ = run_child([sys.executable, "-c", ENTRY, "--help"])
        if code != 0:
            raise RuntimeError(f"tsbreak --help exited {code}")

    def ops(self) -> list[Op]:
        return [Op(name, argv) for name, argv in cli_commands(self.spec)]

    def run(self, op: Op):
        return run_child([sys.executable, "-c", ENTRY, *op.arg])

    def payload(self, op: Op, out) -> dict:
        code, stdout, kb = out
        self.peak_kb = max(self.peak_kb, kb)
        return {"code": code, "stdout": stdout.decode()}

    def peak_rss_kb(self) -> int:
        return self.peak_kb


class TopicPanel:
    """The topic-prevalence workflow as a library user runs it, one topic per op."""

    def __init__(self, spec: dict):
        self.spec = spec

    def setup(self, tracer) -> None:
        import numpy as np
        from tsbreak import breaks, lags, series, unit_root

        if tracer:
            tracer.prepare()
            tracer.install()
        self.np, self.breaks, self.lags, self.series, self.unit_root = np, breaks, lags, series, unit_root
        self.records = series.load_doc_topic_csv(self.spec["doc_topics"])
        self.window = (25, 216)
        for model in breaks.BreakModel:
            breaks.boundary(self.blank_path(model.k), PANEL_ALPHA, "sup_f")

    def blank_path(self, k: int, n: int = 241):
        lo, hi = self.window
        return self.breaks.FstatsPath(n, lo, hi, self.np.zeros(hi - lo + 1), 0.10, k)

    def ops(self) -> list[Op]:
        return [Op(t, t) for t in self.spec["topics"]]

    def run(self, op: Op):
        breaks, lags, unit_root = self.breaks, self.lags, self.unit_root
        ts = self.series.aggregate_prevalence(self.records, op.arg)
        T = len(ts)
        rules = {name: getattr(lags, name)(T) for name in ("schwert4", "schwert12", "newey_west", "kpss_short")}
        adf = unit_root.adf_test(ts, 5)
        kpss = unit_root.kpss_test(ts)
        chow = breaks.chow_test(ts, breaks.BreakModel.TREND, self.spec["chow_points"][op.arg])
        paths = []
        for model in breaks.BreakModel:
            path = breaks.f_stats(ts, model, *self.window)
            sup_b = breaks.boundary(path, PANEL_ALPHA, "sup_f")
            ave_b = breaks.boundary(path, PANEL_ALPHA, "ave_f")
            paths.append((model.value, path, sup_b, ave_b, breaks.sup_f_pvalue(path)))
        return ts, rules, adf, kpss, chow, paths

    def payload(self, op: Op, out) -> dict:
        ts, rules, adf, kpss, chow, paths = out
        return {
            "start": str(ts.start),
            "values": [float(v) for v in ts.values],
            "rules": rules,
            "adf": {spec.value: [(c.lag, c.stat, c.p_value, c.p_boundary) for c in cells] for spec, cells in adf.cells.items()},
            "kpss_lag": kpss.lag,
            "kpss": {spec.value: (c.stat, c.p_value, c.p_boundary) for spec, c in kpss.cells.items()},
            "chow": {"break_index": chow.break_index, "f_stat": chow.f_stat, "df_num": chow.df_num,
                     "df_den": chow.df_den, "p": chow.p_value},
            "paths": {
                model: {"n": path.n, "from": path.from_index, "to": path.to_index, "k": path.k, "alpha": PANEL_ALPHA,
                        "f_values": [float(v) for v in path.f_values], "sup_f": path.sup_f, "ave_f": path.ave_f,
                        "sup_boundary": sup_b.critical_value, "ave_boundary": ave_b.critical_value,
                        "sup_p_value": pv.p_value, "sup_p_clamped": pv.clamped}
                for model, path, sup_b, ave_b, pv in paths
            },
        }

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def traced_extras(self) -> None:
        """More cold samples of the set-up layers, on this workload's own inputs."""
        for i in range(2):
            self.series.load_doc_topic_csv(self.spec["doc_topics"])
            for k in (1, 2):
                self.breaks.boundary(self.blank_path(k), PANEL_ALPHA, "sup_f", seed=PROBE_SEED + 100 + i)


class BreaksScan:
    """optimal_breakpoints then breakpoint_confint on seeded multi-regime series."""

    def __init__(self, spec: dict):
        self.spec = spec

    def setup(self, tracer) -> None:
        import numpy as np
        from tsbreak import breaks
        from tsbreak.periods import Period
        from tsbreak.series import TimeSeries

        if tracer:
            tracer.prepare()
            tracer.install()
        self.breaks = breaks
        arrays = np.load(self.spec["series"])
        self.series = {op["array"]: TimeSeries(Period(2000, 1), arrays[op["array"]]) for op in self.spec["ops"]}

    def ops(self) -> list[Op]:
        return [Op(op["name"], (i, op), op["known_fault"]) for i, op in enumerate(self.spec["ops"])]

    def run(self, op: Op):
        breaks = self.breaks
        _, o = op.arg
        ts = self.series[o["array"]]
        bset = breaks.optimal_breakpoints(ts, breaks.BreakModel(o["model"]), o["h"])
        if bset.selected_m > 0:
            bset = breaks.breakpoint_confint(bset, ts)
        return bset

    def payload(self, op: Op, bset) -> dict:
        return {"index": op.arg[0], "rss": list(bset.rss_table), "selected_m": bset.selected_m,
                "breaks": list(bset.break_indices), "intervals": [list(ci) for ci in bset.confidence_intervals or ()]}

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


WORKLOADS = {"cli_fixture": CliFixture, "topic_panel": TopicPanel, "breaks_scan": BreaksScan}


class Reference:
    """A fixed piece of work that shares no code with tsbreak, timed between ops.

    About a third of its time is pure-Python dictionary updates and a sort,
    the rest QR least-squares fits of a small design: the two kinds of work
    tsbreak's ops are made of. Its time follows the speed the shared host
    gives this process at the moment.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np, self.X, self.y = np, rng.normal(size=(240, 4)), rng.normal(size=240)

    def time(self) -> float:
        np, X, y = self.np, self.X, self.y
        start = time.perf_counter()
        d = {}
        for i in range(REF_DICT_STEPS):
            d[i % 1000] = d.get(i % 1000, 0) + i
        sorted(d.values())
        for _ in range(REF_FITS):
            q, r = np.linalg.qr(X)
            e = y - X @ np.linalg.solve(r, q.T @ y)
            float(e @ e)
        return time.perf_counter() - start


def run_loop(wl, checker: Checker, tracer, seconds: float, min_cycles: int) -> dict:
    """Whole cycles until the timed op time reaches `seconds`.

    After each op and its check, the reference kernel is timed once.

    With a tracer, odd cycles run with the span wrappers installed and even
    ones without, which measures the tracing overhead in the same process;
    a traced run therefore makes at least three cycles. Each op's latency
    enters that comparison divided by its cycle's mean reference time, so a
    change of host speed between cycles does not show as overhead.
    """
    latencies, by_mode = [], {False: [], True: []}
    per_cycle = len(wl.ops())
    attempted = failed = fault_passed = 0
    errors, unexpected = [], 0
    ref, ref_s = Reference(), []
    cycle = 0
    while cycle < min_cycles or sum(latencies) < seconds:
        traced = tracer is not None and cycle % 2 == 1
        if tracer is not None:
            tracer.install() if traced else tracer.uninstall()
        for op in wl.ops():
            rec = tracer.begin(f"op.{op.name}") if traced else None
            start = time.perf_counter()
            try:
                out, exc = wl.run(op), None
            except Exception as e:  # an op that raises counts as failed
                out, exc = None, e
            elapsed = time.perf_counter() - start
            if rec is not None:
                tracer.end(rec)
            latencies.append(elapsed)
            attempted += 1
            if exc:
                errs, known = [f"raised {type(exc).__name__}: {exc}"], False
            else:
                errs, known = checker.check(op.name, wl.payload(op, out))
            if errs:
                failed += 1
                unexpected += not known
                errors.append(f"{op.name}: " + ("known fault: " if known else "unexpected: ") + errs[0]
                              + (f" (+{len(errs) - 1} more)" if len(errs) > 1 else ""))
            elif op.known_fault:
                fault_passed += 1
            ref_s.append(ref.time())
        if cycle:  # the first cycle warms up and is left out of the comparison
            host = statistics.fmean(ref_s[-per_cycle:])
            by_mode[traced] += [t / host for t in latencies[-per_cycle:]]
        cycle += 1
    if tracer is not None:
        tracer.uninstall()
    overhead = None
    if by_mode[True] and by_mode[False]:
        overhead = statistics.fmean(by_mode[True]) / statistics.fmean(by_mode[False]) - 1.0
    return {
        "latencies": latencies, "ops_per_cycle": per_cycle, "attempted": attempted, "failed": failed, "cycles": cycle,
        "unexpected_failures": unexpected, "known_fault_passed": fault_passed, "errors": errors[:20],
        "trace_overhead": overhead, "ref_s": ref_s,
    }


def probe(tracer: Tracer, inp: dict) -> None:
    """Layers the workload itself does not reach, measured on the fixture."""
    tracer.phase = "probe"
    for _ in range(IMPORT_PROBES):
        rec = tracer.begin("cli.import")
        code, _, _ = run_child([sys.executable, "-c", "import tsbreak.cli"])
        tracer.end(rec)
        if code != 0:
            raise RuntimeError("import tsbreak.cli failed")
    from tsbreak import cli, ols, periods

    tracer.prepare()
    tracer.uninstall()
    for i in range(COMMAND_CYCLES + 1):  # the first cycle warms the MC cache
        rec = tracer.begin("cli.command_cycle") if i else None
        for _, argv in cli_commands(inp):
            with contextlib.redirect_stdout(io.StringIO()):
                try:
                    cli.main.main(args=argv, prog_name="tsbreak", standalone_mode=False)
                except SystemExit as e:
                    if e.code:
                        raise RuntimeError(f"in-process tsbreak {argv[0]} exited {e.code}") from e
        if rec is not None:
            tracer.end(rec)

    from tsbreak import breaks, series, simulate, unit_root

    tracer.install()
    for i in range(LIBRARY_CYCLES):
        ts = series.load_csv(inp["fixture"])
        unit_root.adf_test(ts, 5)
        unit_root.kpss_test(ts)
        breaks.chow_test(ts, breaks.BreakModel.TREND, 202)
        path = breaks.f_stats(ts, breaks.BreakModel.TREND, 193, 216)
        breaks.boundary(path, 0.05, "sup_f", seed=PROBE_SEED + i)
        breaks.boundary(path, 0.05, "ave_f", seed=PROBE_SEED + i)
        breaks.sup_f_pvalue(path, seed=PROBE_SEED + i)
        tail = ts.slice(periods.Period(2020, 1), periods.Period(2024, 1))
        bset = breaks.optimal_breakpoints(tail, breaks.BreakModel.LEVEL, 5)
        breaks.breakpoint_confint(bset, tail)
        simulate.generate(simulate.ProcessSpec(simulate.ProcessKind.RANDOM_WALK_DRIFT, 241, seed=42))
        series.aggregate_prevalence(series.load_doc_topic_csv(inp["doc_topics"]), "a")
    # The ADF regression at lag 4 with drift and trend: 236 rows, 7 columns.
    import numpy as np

    y = ts.values
    dy = np.diff(y)
    cols = {"intercept": np.ones(236), "trend": np.arange(1.0, 237.0), "level_lag1": y[4:240]}
    cols.update({f"diff_lag{j}": dy[4 - j : 240 - j] for j in range(1, 5)})
    design = ols.design(cols)
    for _ in range(20):
        ols.fit(design, dy[4:])
    tracer.uninstall()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--spec", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--span-dump", default=None)
    args = ap.parse_args()
    with open(args.spec, encoding="utf-8") as fh:
        spec = json.load(fh)
    tracer = Tracer() if args.trace else None
    wl = WORKLOADS[args.workload](spec)
    wl.setup(tracer)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    checker = Checker(args.workload, args.spec)
    try:
        result = run_loop(wl, checker, tracer, args.seconds, 3 if tracer else 1)
    finally:
        checker.close()
    result["setup_s"] = setup_s
    result["peak_rss_kb"] = wl.peak_rss_kb()
    if tracer is not None:
        tracer.install()
        if hasattr(wl, "traced_extras"):
            wl.traced_extras()
        tracer.uninstall()
        probe(tracer, spec["probe"])
        result["layers"], result["layer_sources"] = layer_metrics(tracer)
        result["self_times"] = tracer.self_times()
        if args.span_dump:
            tracer.dump(args.span_dump)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
