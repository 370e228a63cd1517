"""The checking process: one per measuring worker, so checks never share its memory.

worker.py starts ``python3 perfbench/checker.py --workload W --spec FILE``
after set-up and, after each op's timer stops, writes one JSON line with the
op's outputs as plain data. This process answers with one JSON line, the
op's check errors and whether they are exactly the known fault's, and the
worker waits for it before the next op. The checks use only oracles.py,
NumPy, scipy.special and the csv module.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

import numpy as np

import oracles

FIXTURE_BREAKS = [10, 24, 42]  # README: level shifts recovered in the 49-month tail
CHOW_POINT = ("2020-10", 202)
FSTATS_WINDOW = (193, 216)  # 2020-01 .. 2021-12
TAIL = ("2020-01", "2024-01")


def read_series(path: str) -> tuple[list[str], np.ndarray]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [r[0] for r in rows], np.array([float(r[1]) for r in rows])


def check_mc(mc: oracles.BridgeOracle, path: dict) -> list[str]:
    return mc.check(path["n"], path["from"], path["to"], path["k"], path["alpha"], path["sup_f"],
                    path["sup_boundary"], path["ave_boundary"], path["sup_p_value"], path["sup_p_clamped"])


def check_path(y, model: str, path: dict) -> list[str]:
    values = path["f_values"]
    errs = oracles.check_f_path(y, model, path["from"], path["to"], values)
    if path["sup_f"] != max(values) or not oracles.close(path["ave_f"], sum(values) / len(values), rel=1e-12):
        errs.append(f"f path {model}: sup/ave {path['sup_f']}/{path['ave_f']} disagree with its values")
    return errs


class Checks:
    def verdict(self, msg: dict) -> tuple[list[str], bool]:
        """The op's check errors, and whether they are all the known fault's."""
        return self.check(msg), False


class FixtureChecks(Checks):
    """`tsbreak <cmd>` stdout on the bundled fixture."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.periods, self.y = read_series(spec["fixture"])
        lo, hi = self.periods.index(TAIL[0]), self.periods.index(TAIL[1])
        self.tail_periods, self.tail = self.periods[lo : hi + 1], self.y[lo : hi + 1]
        self.docs = oracles.DocTopics(spec["doc_topics"])
        self.mc = oracles.BridgeOracle()
        self.sim = oracles.random_walk_drift(241, 42)
        self.first_stdout: dict[str, str] = {}

    def check(self, msg: dict) -> list[str]:
        name, stdout = msg["op"], msg["stdout"]
        if msg["code"] != 0:
            return [f"tsbreak {name} exited {msg['code']}"]
        first = self.first_stdout.setdefault(name, stdout)
        errs = [] if stdout == first else [f"tsbreak {name}: stdout differs from its first run"]
        if name == "simulate":
            return errs + self.simulate(stdout)
        try:
            out = json.loads(stdout)
        except ValueError:
            return errs + [f"tsbreak {name}: stdout is not JSON"]
        return errs + getattr(self, name)(out)

    def lag(self, out) -> list[str]:
        return oracles.check_lags(241, out["rules"]) if out["T"] == 241 else [f"lag: T={out['T']}"]

    def adf(self, out) -> list[str]:
        if (out["T"], out["nlag"]) != (241, 5):
            return [f"adf: T={out['T']} nlag={out['nlag']}"]
        specs = {s["kind"]: [(r["lag"], r["stat"], r["p"], r["p_boundary"]) for r in s["rows"]] for s in out["specs"]}
        return oracles.check_adf(self.y, 5, specs)

    def kpss(self, out) -> list[str]:
        want = oracles.lag_rules(241)["kpss_short"]
        if out["lag"] != want:
            return [f"kpss: lag {out['lag']}, kpss_short rule gives {want}"]
        cells = {s["kind"]: (s["rows"][0]["stat"], s["rows"][0]["p"], s["rows"][0]["p_boundary"]) for s in out["specs"]}
        return oracles.check_kpss(self.y, want, cells)

    def chow(self, out) -> list[str]:
        if (out["break_period"], out["break_index"]) != CHOW_POINT:
            return [f"chow: split {out['break_period']}/{out['break_index']}, want {CHOW_POINT}"]
        return oracles.check_chow(self.y, "trend", CHOW_POINT[1], out["f_stat"], out["df_num"], out["df_den"], out["p"])

    def fstats(self, out) -> list[str]:
        lo, hi = FSTATS_WINDOW
        if (out["from"], out["to"], out["k"], out["n"]) != (lo, hi, 2, 241):
            return [f"fstats: window {out['from']}..{out['to']} k={out['k']} n={out['n']}"]
        return check_path(self.y, "trend", out) + check_mc(self.mc, out)

    def breakpoints(self, out) -> list[str]:
        n = len(self.tail)
        if (out["n"], out["h"]) != (n, 5):
            return [f"breakpoints: n={out['n']} h={out['h']}, want {n}, 5"]
        own, rss, choice = oracles.check_breakpoints(self.tail, "level", 5, out["rss"], out["selected_m"],
                                                     out["breaks"], [tuple(ci) for ci in out["confidence_intervals"]])
        errs = own + rss + choice
        if out["breaks"] != FIXTURE_BREAKS:
            errs.append(f"breakpoints: {out['breaks']}, README gives {FIXTURE_BREAKS}")
        if out["break_periods"] != [self.tail_periods[b - 1] for b in out["breaks"]]:
            errs.append(f"breakpoints: periods {out['break_periods']} do not match {out['breaks']}")
        return errs

    def simulate(self, text: str) -> list[str]:
        out = self.spec["sim_out"]
        want = f"wrote 241 random_walk_drift observations (2000-01..2020-01, seed = 42) to {out}\n"
        errs = [] if text == want else [f"simulate: stdout {text!r}"]
        periods, values = read_series(out)
        if periods != oracles.month_seq("2000-01", 241):
            errs.append("simulate: periods are not 2000-01 .. 2020-01")
        elif not np.allclose(values, self.sim, rtol=1e-12, atol=1e-12):
            errs.append("simulate: values differ from the PCG64 + ndtri recipe")
        return errs

    def aggregate(self, out) -> list[str]:
        return self.docs.check("a", out["start"], out["values"])


class PanelChecks(Checks):
    """One topic's aggregation, unit-root tests, Chow test and F sweeps."""

    def __init__(self, spec: dict):
        self.docs = oracles.DocTopics(spec["doc_topics"])
        self.mc = oracles.BridgeOracle()

    def check(self, msg: dict) -> list[str]:
        topic = msg["op"]
        errs = self.docs.check(topic, msg["start"], msg["values"])
        if errs:
            return errs
        y = self.docs.prevalence(topic)  # the oracle's own series from here on
        errs += oracles.check_lags(len(y), msg["rules"])
        errs += oracles.check_adf(y, 5, msg["adf"])
        want_lag = oracles.lag_rules(len(y))["kpss_short"]
        if msg["kpss_lag"] != want_lag:
            errs.append(f"kpss lag {msg['kpss_lag']}, kpss_short rule gives {want_lag}")
        errs += oracles.check_kpss(y, msg["kpss_lag"], msg["kpss"])
        c = msg["chow"]
        errs += oracles.check_chow(y, "trend", c["break_index"], c["f_stat"], c["df_num"], c["df_den"], c["p"])
        for model, path in msg["paths"].items():
            errs += check_path(y, model, path) + check_mc(self.mc, path)
        return errs


class ScanChecks(Checks):
    """Breakpoint sets against the oracle DP, and the shifted copy against its original."""

    def __init__(self, spec: dict):
        arrays = np.load(spec["series"])
        self.values = {name: arrays[name] for name in arrays.files}
        self.ops = spec["ops"]
        self.results: dict[int, tuple] = {}

    def verdict(self, msg: dict) -> tuple[list[str], bool]:
        """Errors, and whether they are the known cancellation fault and nothing else.

        The fault in `breaks._segment_rss_table` shows as an RSS table that
        disagrees with the oracle; a wrong count or breaks, and a changed
        result under the shift, follow from it. Errors in the result's own
        consistency (BIC over its own table, feasible breaks, intervals) are
        not excused, nor is a run whose RSS table agrees with the oracle.
        """
        i = msg["index"]
        o = self.ops[i]
        got = (msg["rss"], msg["selected_m"], msg["breaks"])
        self.results[i] = got
        own, rss, choice = oracles.check_breakpoints(self.values[o["array"]], o["model"], o["h"], *got,
                                                     [tuple(ci) for ci in msg["intervals"]])
        shift = []
        if o["shift_of"] is not None:
            ref = self.results.pop(o["shift_of"], None)
            if ref is None:
                own.append("the unshifted series' op failed in this cycle")
            else:
                shift = oracles.check_shift_invariance(ref, got)
        return own + rss + choice + shift, bool(o["known_fault"] and rss and not own)


CHECKS = {"cli_fixture": FixtureChecks, "topic_panel": PanelChecks, "breaks_scan": ScanChecks}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(CHECKS))
    ap.add_argument("--spec", required=True)
    args = ap.parse_args()
    with open(args.spec, encoding="utf-8") as fh:
        checks = CHECKS[args.workload](json.load(fh))
    print(json.dumps("ready"), flush=True)
    for line in sys.stdin:
        errors, known_fault = checks.verdict(json.loads(line))
        print(json.dumps({"errors": errors, "known_fault": known_fault}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
