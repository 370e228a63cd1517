"""tsbreak benchmark: one workload per run, or a quick pass over all of them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick

Run from the repository root. The program is imported from ``src`` (no
install step). Each run writes its seeded inputs under ``perfbench/out``,
starts the workload in its own process with one BLAS thread, and prints, as
its last stdout line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. ``--quick`` runs one cycle of every
workload, untraced and traced, with every check, and exits non-zero if a
check fails other than on the known population-scale fault.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("cli_fixture", "topic_panel", "breaks_scan")
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 170
TAIL_MIN_OPS = 40
# Op timings are reported as on a host where worker.Reference takes this long.
REF_SCALE_S = 0.010


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("TSBREAK_SEED", None)  # the program's default Monte Carlo seed
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker(workload: str, spec: Path, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--spec", str(spec), *extra]
    proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value."""
    n = len(latencies)
    if n < TAIL_MIN_OPS:
        return None
    return 100.0 * (n - 10) / n, sorted(latencies)[n - 11]


def adjusted(latencies: list[float], ref_s: list[float], per_cycle: int) -> list[float]:
    """Each op's latency at the reference host speed: scaled by REF_SCALE_S
    over the mean reference time of its cycle."""
    out = []
    for i in range(0, len(latencies), per_cycle):
        scale = REF_SCALE_S / statistics.fmean(ref_s[i : i + per_cycle])
        out += [t * scale for t in latencies[i : i + per_cycle]]
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: int, setups: int) -> dict:
    sys.path.insert(0, str(HERE))
    import inputs

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        spec = inputs.make(workload, workdir, seed)
        # Extra set-ups run before and after the measuring process, so the
        # samples span the whole run rather than one moment of the host.
        extra = setups - 1
        setup_s = [worker(workload, spec, "--setup-only")["setup_s"] for _ in range(extra - extra // 2)]
        args = ["--seconds", repr(seconds), "--trace", str(trace)]
        if trace:
            args += ["--span-dump", str(OUT / f"spans-{workload}-seed{seed}.jsonl")]
        r = worker(workload, spec, *args)
        setup_s.append(r["setup_s"])
        setup_s += [worker(workload, spec, "--setup-only")["setup_s"] for _ in range(extra // 2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    adj = adjusted(r["latencies"], r["ref_s"], r["ops_per_cycle"])
    adj_tail = tail(adj)
    if trace:
        metrics = r["layers"]
    else:
        metrics = {
            "ops_per_s.adj": {"value": len(adj) / sum(adj), "unit": "1/s"},
            "latency_s.p50.adj": {"value": statistics.median(adj), "unit": "s"},
            **({"latency_s.tail.adj": {"value": adj_tail[1], "unit": "s"}} if adj_tail else {}),
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": r["peak_rss_kb"] / 1024.0, "unit": "MB"},
        }
    return {"worker": r, "setup_samples": setup_s, "adjusted": adj, "result": {
        "correct": r["unexpected_failures"] == 0,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": metrics,
    }}


def report(workload: str, seed: int, trace: int, run: dict) -> None:
    """Human-readable lines ahead of the result line."""
    r, res = run["worker"], run["result"]
    print(f"{workload} seed={seed} trace={trace}: {r['cycles']} cycles, {res['attempted']} ops, "
          f"{res['failed']} failed, {sum(r['latencies']):.2f} s timed; set-up samples "
          + ", ".join(f"{s:.3f}" for s in run["setup_samples"]))
    lat, adj = r["latencies"], run["adjusted"]
    print(f"  as measured: ops_per_s {len(lat) / sum(lat):.4f}, latency_s.p50 {statistics.median(lat):.4f} s; "
          f"reference kernel median {1000 * statistics.median(r['ref_s']):.3f} ms, .adj / measured time {sum(adj) / sum(lat):.4f}")
    t, ta = tail(lat), tail(adj)
    print(f"  latency_s.tail: " + (f"p{t[0]:.1f} = {t[1]:.4f} s, .adj {ta[1]:.4f} s" if t
                                   else f"not reported, {len(lat)} < {TAIL_MIN_OPS} ops"))
    for e, n in Counter(r["errors"]).items():
        print(f"  failed op {e}" + (f" (x{n})" if n > 1 else ""))
    if r["known_fault_passed"]:
        print(f"  the known-fault op passed {r['known_fault_passed']} time(s): the cancellation in "
              "breaks._segment_rss_table no longer shows, so the failed share has changed")
    if trace:
        ov = r["trace_overhead"]
        print("  tracing overhead vs untraced cycles: " + ("n/a" if ov is None else f"{100 * ov:+.1f}% per op"))
        for name, src in r["layer_sources"].items():
            v = res["metrics"][name]
            print(f"  {name:32s} {v['value']:14.4f} {v['unit']:5s} ({src['phase']}, {src['samples']} spans)")
        top = sorted(r["self_times"].items(), key=lambda kv: -kv[1][1])[:8]
        print("  self time (workload spans): " + ", ".join(f"{k} {v[1]:.2f}s/{v[2]}" for k, v in top))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "tsbreak" / "__init__.py").is_file():
        print(f"perfbench: no tsbreak sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.quick:
        ok = True
        for workload in WORKLOADS:
            for trace in (0, 1):
                run = run_workload(workload, args.seed, 0.0, trace, setups=1)
                report(workload, args.seed, trace, run)
                ok &= run["result"]["correct"]
        print(json.dumps({"quick": True, "correct": ok}))
        return 0 if ok else 1
    if args.workload is None:
        ap.error("--workload is required unless --quick is given")
    started = time.time()
    run = run_workload(args.workload, args.seed, args.seconds, args.trace, setups=1 if args.trace else SETUP_SAMPLES)
    report(args.workload, args.seed, args.trace, run)
    OUT.mkdir(exist_ok=True)
    record = dict(run["result"], seed=args.seed, seconds=args.seconds, wall_s=time.time() - started,
                  setup_samples=run["setup_samples"], latencies=run["worker"]["latencies"], ref_s=run["worker"]["ref_s"],
                  ops_per_cycle=run["worker"]["ops_per_cycle"])
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
