"""CLI behavior: output shape, JSON schema, exit codes, artifacts."""

import csv
import importlib.resources
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from tsbreak.cli import main

FIXTURE = importlib.resources.files("tsbreak") / "data" / "trends_monthly.csv"
SNAPSHOTS = Path(__file__).parent / "snapshots"


@pytest.fixture(scope="module")
def fixture_path(tmp_path_factory):
    target = tmp_path_factory.mktemp("data") / "trends.csv"
    target.write_bytes(FIXTURE.read_bytes())
    return str(target)


@pytest.fixture()
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return result.output


class TestAdfCommand:
    def test_human_output_shape(self, runner, fixture_path):
        out = run_ok(runner, ["adf", "--input", fixture_path, "--nlag", "5"])
        for title in ("Type 1", "Type 2", "Type 3"):
            assert title in out
        # five lag rows per block, one block per spec
        for row in range(1, 6):
            assert sum(
                1
                for line in out.splitlines()
                if line.startswith(f"[{row},]")
            ) == 3
        assert "p.value <= 0.01" in out

    def test_json_schema(self, runner, fixture_path):
        out = run_ok(
            runner, ["adf", "--input", fixture_path, "--nlag", "5", "--json"]
        )
        payload = json.loads(out)
        assert payload["test"] == "adf"
        assert payload["T"] == 241
        assert len(payload["specs"]) == 3
        for spec in payload["specs"]:
            assert set(spec) == {"kind", "rows"}
            assert len(spec["rows"]) == 5
            for row in spec["rows"]:
                assert set(row) == {"lag", "stat", "p", "p_boundary"}

    def test_missing_file_exit_2(self, runner):
        result = runner.invoke(main, ["adf", "--input", "missing.csv"])
        assert result.exit_code == 2
        assert "missing.csv" in result.output + str(result.stderr_bytes)


class TestKpssCommand:
    def test_fixed_lag(self, runner, fixture_path):
        out = run_ok(runner, ["kpss", "--input", fixture_path, "--lag", "3"])
        assert "0.452" in out or "0.4514" in out
        assert "p.value <= 0.01" in out

    def test_lag_rule(self, runner, fixture_path):
        out = run_ok(
            runner,
            ["kpss", "--input", fixture_path, "--lag-rule", "kpss_short"],
        )
        assert "lag = 3" in out or "lag 3" in out


class TestLagCommand:
    def test_values(self, runner):
        out = run_ok(runner, ["lag", "--T", "241"])
        rules = {}
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1].isdigit():
                rules[parts[0]] = int(parts[1])
        assert rules == {
            "schwert4": 4, "schwert12": 14, "newey_west": 4, "kpss_short": 3
        }

    def test_invalid_t(self, runner):
        result = runner.invoke(main, ["lag", "--T", "0"])
        assert result.exit_code == 2


class TestChowCommand:
    def test_period_point(self, runner, fixture_path):
        out = run_ok(
            runner,
            ["chow", "--input", fixture_path, "--point", "2020-10",
             "--model", "trend"],
        )
        assert "F" in out

    def test_unknown_flag_exit_2(self, runner, fixture_path):
        result = runner.invoke(
            main, ["chow", "--input", fixture_path, "--nonsense", "1"]
        )
        assert result.exit_code == 2


class TestFstatsCommand:
    def test_plot_data_artifact(self, runner, fixture_path, tmp_path):
        plot = tmp_path / "path.csv"
        out = run_ok(
            runner,
            ["fstats", "--input", fixture_path, "--from", "2020-01",
             "--to", "2021-12", "--alpha", "0.05",
             "--plot-data", str(plot)],
        )
        assert plot.exists()
        with plot.open() as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 25  # header + 24 candidates
        assert rows[1][0] == "2020-01"
        assert out  # human summary printed as well

    def test_infeasible_window_exit_2(self, runner, fixture_path):
        result = runner.invoke(
            main,
            ["fstats", "--input", fixture_path, "--from", "2004-02",
             "--to", "2021-12"],
        )
        assert result.exit_code == 2


class TestBreakpointsCommand:
    def test_window_and_breaks(self, runner, fixture_path):
        out = run_ok(
            runner,
            ["breakpoints", "--input", fixture_path, "--h", "5",
             "--from", "2020-01", "--to", "2024-01"],
        )
        assert "Breakpoints at observation number: 10 24 42" in out
        assert "2020-10" in out and "2021-12" in out and "2023-06" in out

    def test_json_matches_human(self, runner, fixture_path):
        args = ["breakpoints", "--input", fixture_path, "--h", "5",
                "--from", "2020-01", "--to", "2024-01"]
        human = run_ok(runner, args)
        payload = json.loads(run_ok(runner, args + ["--json"]))
        assert payload["selected_m"] == 3
        assert payload["breaks"] == [10, 24, 42]
        for lo, b, hi in payload["confidence_intervals"]:
            assert f"{lo:>6d} {b:>6d} {hi:>6d}" in human


class TestSimulateAndAggregate:
    def test_simulate_roundtrip(self, runner, tmp_path):
        out_csv = tmp_path / "sim.csv"
        run_ok(
            runner,
            ["simulate", "--kind", "drift", "--T", "241", "--drift", "0.5",
             "--sigma", "1", "--seed", "42", "--out", str(out_csv)],
        )
        assert out_csv.exists()
        adf_out = run_ok(
            runner, ["adf", "--input", str(out_csv), "--nlag", "2"]
        )
        assert "Type 3" in adf_out

    def test_aggregate(self, runner, tmp_path):
        p = tmp_path / "docs.csv"
        p.write_text(
            "doc_id,period,topic_id,probability\n"
            "d1,2020-01,a,0.3\nd1,2020-01,b,0.7\n"
            "d2,2020-02,a,0.6\nd2,2020-02,b,0.4\n"
        )
        out = tmp_path / "prev.csv"
        text = run_ok(
            runner,
            ["aggregate", "--input", str(p), "--topic", "a",
             "--out", str(out)],
        )
        assert "2 monthly periods" in text
        assert out.exists()


class TestExitCodes:
    """Exit codes follow the type of the failure, not its message."""

    @pytest.mark.parametrize(
        "values,args",
        [
            # Both segments are exact fits: the Chow F is undefined.
            ([0, 0, 0, 1, 1, 1], ["chow", "--point", "3", "--model", "level"]),
            # Exact up to rounding: both segment RSS lie within the sums' rounding floor.
            ([0.1] * 20 + [0.7] * 20, ["chow", "--point", "20", "--model", "level"]),
            # The segment before the break at 20 has zero residual variance.
            (
                [0.0] * 20 + list(np.random.default_rng(7).normal(5.0, 1.0, 20)),
                ["breakpoints", "--h", "5"],
            ),
        ],
        ids=["chow", "chow_rounded", "breakpoints"],
    )
    def test_degenerate_exit_3(self, runner, tmp_path, values, args):
        p = tmp_path / "deg.csv"
        p.write_text("".join(
            f"{2020 + i // 12}-{i % 12 + 1:02d},{float(v)!r}\n" for i, v in enumerate(values)
        ))
        result = runner.invoke(main, [args[0], "--input", str(p), *args[1:]])
        assert result.exit_code == 3, result.output

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--kind", "drift", "--T", "10", "--out", "{missing}/x.csv"],
            ["fstats", "--input", "{fixture}", "--from", "2020-01", "--to", "2021-12",
             "--plot-data", "{missing}/p.csv"],
        ],
        ids=["simulate", "fstats"],
    )
    def test_unwritable_output_exit_2(self, runner, tmp_path, fixture_path, args):
        missing = tmp_path / "no_such_dir"
        argv = [a.format(missing=missing, fixture=fixture_path) for a in args]
        result = runner.invoke(main, argv)
        assert result.exit_code == 2, result.output
        assert "error:" in result.output and "no_such_dir" in result.output


# Every README command that has --json (`simulate` has none), on the fixture;
# `aggregate` reads DOC_TOPICS instead.
JSON_COMMANDS = {
    "adf": ["adf", "--input", "{fixture}", "--nlag", "5"],
    "kpss": ["kpss", "--input", "{fixture}", "--lag-rule", "kpss_short"],
    "lag": ["lag", "--T", "241"],
    "chow": ["chow", "--input", "{fixture}", "--point", "2020-10", "--model", "trend"],
    "fstats": ["fstats", "--input", "{fixture}", "--from", "2020-01", "--to", "2021-12",
               "--alpha", "0.05", "--plot-data", "{tmp}/fpath.csv"],
    "breakpoints": ["breakpoints", "--input", "{fixture}", "--h", "5",
                    "--from", "2020-01", "--to", "2024-01"],
    "aggregate": ["aggregate", "--input", "{tmp}/doc_topics.csv", "--topic", "a",
                  "--out", "{tmp}/prevalence.csv"],
}
DOC_TOPICS = (
    "doc_id,period,topic_id,probability\n"
    "d1,2020-01,a,0.3\nd1,2020-01,b,0.7\n"
    "d2,2020-02,a,0.6\nd2,2020-02,b,0.4\n"
    "d3,2020-02,a,0.1\nd3,2020-02,b,0.9\n"
    "d4,2020-03,a,0.25\nd4,2020-03,b,0.75\n"
)


def json_stdout(name, fixture, tmp):
    tmp = Path(tmp)
    (tmp / "doc_topics.csv").write_text(DOC_TOPICS)
    args = [a.format(fixture=fixture, tmp=tmp) for a in JSON_COMMANDS[name]]
    result = CliRunner().invoke(main, [*args, "--json"], env={"TSBREAK_SEED": None})
    assert result.exit_code == 0, result.output
    return result.stdout_bytes


@pytest.mark.parametrize("name", sorted(JSON_COMMANDS))
def test_json_snapshot(name, fixture_path, tmp_path):
    """--json stdout is byte-identical to tests/snapshots/<name>.json.

    Rewrite the snapshots after a deliberate change with
    `PYTHONPATH=src python tests/test_cli.py` and review the diff.
    """
    assert json_stdout(name, fixture_path, tmp_path) == (SNAPSHOTS / f"{name}.json").read_bytes()


if __name__ == "__main__":
    import tempfile

    with importlib.resources.as_file(FIXTURE) as fixture, tempfile.TemporaryDirectory() as tmp:
        SNAPSHOTS.mkdir(exist_ok=True)
        for name in JSON_COMMANDS:
            (SNAPSHOTS / f"{name}.json").write_bytes(json_stdout(name, fixture, tmp))
