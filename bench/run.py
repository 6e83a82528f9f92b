"""Benchmark of ``twophoton-verify``: end-to-end timings, or per-layer traced numbers.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload rmatrix-k5 --seed 1 --seconds 35 --trace 0

The program is imported from ``src/`` of the checkout. Every measured call is
``twophoton.cli.main(argv)`` in this process, which builds fresh algebras and
cold memo caches each time. ``--trace 0`` reports the end-to-end metrics,
measured untraced and rescaled by a reference loop timed between the calls;
``--trace 1`` runs untraced calls and then traced calls and reports the
per-layer metrics (see README.md in this directory).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run record with the
per-call times, report digest, machine and source identity goes to
``bench/results/``. Exits 2 without a result when the program is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

from tracer import Tracer, instrument, layer_metrics
from workloads import WORKLOADS, call_errors, negative_control

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

MIN_CALLS = 3          # untraced calls per --trace 0 run
MIN_TRACED_CALLS = 2   # untraced and traced calls each, per --trace 1 run
SETUP_REPEATS = 21     # fresh interpreters timed per run for setup_s
SETUP_TIMEOUT_S = 60
REFERENCE_S = 0.1      # nominal time of reference_loop(), the speed timings are rescaled to
# all three workloads use --algebra both, so set-up builds both algebras
SETUP_CODE = ("import sys, twophoton.cli as cli; k = int(sys.argv[1]); "
              "cli.two_photon_algebra(k); cli.schrodinger_algebra(k)")


class ProgramMissing(RuntimeError):
    pass


def load_cli():
    """Import twophoton.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "twophoton" / "cli.py").is_file():
        raise ProgramMissing(f"no twophoton sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import twophoton.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "twophoton":
        raise ProgramMissing(f"twophoton imported from {cli.__file__}, not {SRC}")
    return cli


def time_setup(order):
    """Wall time of a fresh interpreter importing the CLI and building the algebras."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(order)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT,
                            stdout=subprocess.DEVNULL)
    # a blocking wait with a watchdog: wait(timeout=...) polls with sleeps of
    # up to 50 ms, which would quantize the measured time
    watchdog = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        exit_code = proc.wait()
    finally:
        watchdog.cancel()
    seconds = time.perf_counter() - start
    if exit_code != 0:
        raise subprocess.CalledProcessError(exit_code, cmd)
    return seconds


def reference_loop():
    """Wall time of a fixed stdlib-only workload that gauges the host's current speed.

    It does what the verifier spends its time on (Fraction arithmetic,
    tuple-keyed dicts, sorting) with none of the program's code, so a change
    to the program cannot move it.
    """
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 20000):
        acc += Fraction(i % 97, i % 89 + 1)
        # few distinct keys, so the loop leaves no mark on peak_rss_mb
        table[(i % 251, i % 7)] = acc
    sorted(table.items(), key=lambda item: item[0][1])
    return time.perf_counter() - start


def report_digest(report):
    """sha256 of the --out report with its timings dropped."""
    stripped = {k: v for k, v in report.items() if k != "timings"}
    text = json.dumps(stripped, indent=2, sort_keys=True) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def call_cli(main, argv, report_path):
    """One timed CLI call; returns (seconds, exit code, report or None)."""
    report_path.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        exit_code = main([*argv, "--out", str(report_path)])
        seconds = time.perf_counter() - start
    report = json.loads(report_path.read_text()) if report_path.exists() else None
    return seconds, exit_code, report


def run_calls(workload, main, argv, report_path, budget_s, min_calls, traced=False,
              after_call=None):
    """Call the CLI until budget_s has passed and at least min_calls are done.

    after_call(progress) runs after each call, with the share of the budget used.
    """
    calls = []
    start = time.perf_counter()
    while len(calls) < min_calls or time.perf_counter() - start < budget_s:
        layers, spans = None, []
        if traced:
            tracer = Tracer()
            with instrument(tracer):
                seconds, exit_code, report = call_cli(
                    tracer.wrap(main, "cli.main"), argv, report_path)
            layers, spans = layer_metrics(tracer), tracer.span_records()
        else:
            seconds, exit_code, report = call_cli(main, argv, report_path)
        entries = report["entries"] if report else []
        calls.append({
            "seconds": seconds, "traced": traced, "exit_code": exit_code,
            "checks": len(entries), "errors": call_errors(workload, exit_code, entries),
            "digest": report_digest(report) if report else None,
            # later calls drop their entries so memory does not grow with the call count
            "entries": entries if not calls else None, "layers": layers, "spans": spans,
        })
        if after_call is not None:
            used = time.perf_counter() - start
            after_call(min(1.0, used / budget_s) if budget_s > 0 else 1.0)
    return calls


def source_identity():
    """Commit (when the checkout is a git repository) and a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "twophoton").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def measure(workload, seconds, trace, seed, order=None, report_path=None,
            setup_repeats=SETUP_REPEATS):
    """One benchmark run; returns the run record with its metrics."""
    main = load_cli().main
    argv = workload.argv(order)
    report_path = report_path or RESULTS / f"{workload.name}-report.json"
    report_path.parent.mkdir(parents=True, exist_ok=True)
    metrics, setup_times, reference_times, verify_wall_s = {}, [], [], None
    if trace:
        calls = run_calls(workload, main, argv, report_path, seconds / 2, MIN_TRACED_CALLS)
        traced = run_calls(workload, main, argv, report_path, seconds / 2,
                           MIN_TRACED_CALLS, traced=True)
        per_call = [c["layers"] for c in traced]
        for name, (_, unit) in per_call[0].items():
            metrics[name] = (statistics.median_low(m[name][0] for m in per_call), unit)
        untraced_s = statistics.median(c["seconds"] for c in calls)
        traced_s = statistics.median(c["seconds"] for c in traced)
        metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
        calls += traced
    else:
        setup_order = workload.order if order is None else order
        time_setup(setup_order)  # writes the bytecode cache, which an installed package has

        reference_times.append(reference_loop())

        def between_calls(progress):
            # gauge the host's speed next to every call, and spread the set-up
            # samples over the run: the host's speed drifts as co-tenants come and go
            reference_times.append(reference_loop())
            while len(setup_times) < setup_repeats * progress:
                setup_times.append(time_setup(setup_order))

        calls = run_calls(workload, main, argv, report_path, seconds, MIN_CALLS,
                          after_call=between_calls)
        verify_wall_s = statistics.fmean(c["seconds"] for c in calls)
        speed = REFERENCE_S / statistics.fmean(reference_times)
        metrics["verify_s"] = (verify_wall_s * speed, "s")
        metrics["setup_s"] = (statistics.median(setup_times) * speed, "s")
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["checks_total"] = (calls[0]["checks"], "count")

    digests = sorted({c["digest"] for c in calls if c["digest"]})
    control_ok = negative_control(workload, calls[0]["entries"], seed)
    failed = sum(c["errors"] for c in calls)
    return {
        "workload": workload.name, "seed": seed, "trace": bool(trace), "argv": argv,
        "correct": failed == 0 and control_ok and len(digests) == 1,
        "attempted": sum(max(1, c["checks"]) for c in calls),
        "failed": failed,
        "verdict_errors": max(c["errors"] for c in calls),
        "negative_control_ok": control_ok,
        "report_sha256": digests,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "verify_wall_s": verify_wall_s,
        "reference_times": reference_times,
        "setup_times": setup_times,
        "calls": [{k: c[k] for k in ("seconds", "traced", "exit_code", "checks", "errors")}
                  for c in calls],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **source_identity(),
        "spans": [{"call": i, **span} for i, c in enumerate(calls) for span in c["spans"]],
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    try:
        record = measure(WORKLOADS[args.workload], args.seconds, args.trace, args.seed)
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans")
    if spans:
        with open(RESULTS / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in spans)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    times = ", ".join(f"{c['seconds']:.3f}" for c in record["calls"])
    print(f"{args.workload}: calls [{times}] s, verdict_errors {record['verdict_errors']}, "
          f"report sha256 {' '.join(record['report_sha256'])}")
    print(f"nproc {record['nproc']}, python {record['python']}, "
          f"commit {record['commit']}, source sha256 {record['source_sha256']}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
