"""Tests of the benchmark itself: tiny-order smoke runs, the oracle, metric names and units.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import WORKLOADS, call_errors, negative_control, verdict_errors

BENCH = Path(run.__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SMOKE_ORDER = 1


def smoke(name, tmp_path, trace):
    return run.measure(WORKLOADS[name], seconds=0, trace=trace, seed=3, order=SMOKE_ORDER,
                       report_path=tmp_path / "report.json", setup_repeats=1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_each_workload(name, tmp_path):
    record = smoke(name, tmp_path, trace=0)
    assert record["correct"], record["calls"]
    assert record["failed"] == 0 and record["verdict_errors"] == 0
    assert record["negative_control_ok"]
    assert len(record["report_sha256"]) == 1
    assert record["attempted"] == sum(c["checks"] for c in record["calls"])
    assert all(m["value"] > 0 for m in record["metrics"].values())


def test_lattice_shape_exits_one_with_conformal_failures(tmp_path):
    record = smoke("lattice-k8", tmp_path, trace=0)
    assert {c["exit_code"] for c in record["calls"]} == {1}
    report = json.loads((tmp_path / "report.json").read_text())
    failing = [e["name"] for e in report["entries"] if not e["pass"]]
    assert "discrete-se/symmetry-deformed/C" in failing
    assert all("/C" in name for name in failing)


def test_metric_names_and_units_match_benchmark_json(tmp_path):
    spec = {kind: {m["name"]: m["unit"] for m in SPEC[kind]}
            for kind in ("end_to_end", "per_layer")}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        metrics = smoke("hopf-k8", tmp_path, trace)["metrics"]
        assert {name: m["unit"] for name, m in metrics.items()} == spec[kind]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_traced_run_records_nested_spans(tmp_path):
    record = smoke("rmatrix-k5", tmp_path, trace=1)
    spans = [s for s in record["spans"] if s["call"] == record["spans"][-1]["call"]]
    by_id = {s["id"]: s for s in spans}

    def path(span):
        names = []
        while span is not None:
            names.append(span["name"])
            span = by_id.get(span["parent"])
        return names

    paths = [path(s) for s in spans if s["name"] == "series.mul"]
    assert all(p[-2:] == ["group.rmatrix", "cli.main"] for p in paths)
    assert any("algebra.tensor_mul.rank3" in p and "hopf.rmatrix_checks" in p for p in paths)
    for s in spans:
        assert 0 <= s["self_s"] <= s["total_s"] + 1e-9
    assert record["metrics"]["algebra.tensor_mul.rank3_calls"]["value"] > 0


def test_oracle_follows_the_conformal_negative_control():
    lattice, hopf = WORKLOADS["lattice-k8"], WORKLOADS["hopf-k8"]
    for name in ("discrete-se/symmetry-deformed/C", "discrete-se/symmetry-classical/C",
                 "discrete-se/solution-map-deformed/C/exp(k=1)",
                 "discrete-se/solution-map-classical/C/poly(deg=0)"):
        assert not lattice.expected_pass(name)
        assert hopf.expected_pass(name)
    for name in ("discrete-se/symmetry-deformed/D", "discrete-se/solution-deformed/exp(k=1)",
                 "discrete-se/solution-map-deformed/K/poly(deg=0)", "rep/bracket/N,B+"):
        assert lattice.expected_pass(name)


def test_oracle_negative_control_counts_one_flip():
    lattice = WORKLOADS["lattice-k8"]
    # duplicate names are real: exp(k=0) is tagged poly(deg=0)
    entries = [{"name": "discrete-se/symmetry-deformed/C", "pass": False},
               {"name": "discrete-se/solution-map-deformed/C/poly(deg=0)", "pass": False},
               {"name": "discrete-se/solution-map-deformed/C/poly(deg=0)", "pass": False},
               {"name": "rep/classical-limit", "pass": True}]
    assert verdict_errors(lattice, entries) == 0
    assert call_errors(lattice, 1, entries) == 0
    for seed in range(len(entries)):
        assert negative_control(lattice, entries, seed)
    entries[2] = {**entries[2], "pass": True}
    assert verdict_errors(lattice, entries) == 1
    assert not negative_control(lattice, entries, 0)


def test_wrong_exit_code_or_missing_control_fails_every_check():
    lattice, hopf = WORKLOADS["lattice-k8"], WORKLOADS["hopf-k8"]
    passing = [{"name": "hopf/h6-twophoton/coassoc/N", "pass": True}] * 3
    assert call_errors(hopf, 0, passing) == 0
    assert call_errors(hopf, 1, passing) == 3
    assert call_errors(hopf, 3, []) == 1
    # at a = 0 a run without any failing C check has lost the negative control
    assert call_errors(lattice, 0, passing) == 3


def test_fails_without_result_when_program_is_absent(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    res = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "hopf-k8", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
