import json
import subprocess
import sys
import time

import pytest

from twophoton import cli
from twophoton.algebra import QuantumAlgebra
from twophoton.report import CheckResult, report_json_dict


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "twophoton.cli", *args],
        capture_output=True, text=True)


def test_full_run_passes_and_exits_zero():
    res = run_cli("--order", "2")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "summary:" in res.stdout
    assert "FAIL" not in res.stdout


def test_selected_checks_only():
    res = run_cli("--algebra", "h6", "--checks", "hopf,rmatrix", "--order", "1")
    assert res.returncode == 0
    assert "rep/" not in res.stdout
    assert "hopf/h6-twophoton/coassoc/N" in res.stdout
    assert "rmatrix/h6-twophoton/qybe" in res.stdout


def test_negative_control_fails_with_exit_one():
    res = run_cli("--checks", "discrete-se", "--z", "1/10",
                  "--mass", "1", "--rep-param", "0")
    assert res.returncode == 1
    assert "FAIL" in res.stdout
    assert "symmetry-deformed/C" in res.stdout


def test_classical_order_zero_hopf():
    res = run_cli("--order", "0", "--checks", "hopf")
    assert res.returncode == 0


def test_usage_errors_exit_two():
    assert run_cli("--order", "42").returncode == 2
    assert run_cli("--z", "0").returncode == 2
    assert run_cli("--z", "oops").returncode == 2
    assert run_cli("--checks", "nonsense").returncode == 2
    assert run_cli("--beta", "1,2").returncode == 2


def test_negative_values_parse_as_separate_arguments(tmp_path, capsys):
    def report(*args):
        out = tmp_path / "report.json"
        argv = ["--checks", "discrete-se,eigen", "--order", "2", *args, "--out", str(out)]
        assert cli.main(argv) == 0, args
        data = json.loads(out.read_text())
        data.pop("timings")
        return json.dumps(data, sort_keys=True)

    values = (("--rep-param", "-1/2"), ("--eigenvalue", "-5/2"), ("--beta", "-1,1,0,0,0"))
    separate = report(*(tok for pair in values for tok in pair))
    joined = report(*(f"{opt}={value}" for opt, value in values))
    assert separate == joined
    config = json.loads(separate)["config"]
    assert (config["rep_param"], config["eigenvalue"], config["beta"]) \
        == ("-1/2", "-5/2", "-1,1,0,0,0")
    assert json.loads(report("--eigenvalue", "-i"))["config"]["eigenvalue"] == "-1i"
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["--z", "-1/10"])
    assert exc.value.code == 2
    assert "--z must be a positive rational" in capsys.readouterr().err


def test_empty_check_selection_is_a_usage_error(capsys):
    # a selection with no check in it would certify nothing and exit 0
    for selection in ("", ",", " , "):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--checks", selection, "--order", "0"])
        assert exc.value.code == 2, selection
        out, err = capsys.readouterr()
        assert "summary:" not in out
        assert "selects no check" in err


def test_all_zero_beta_is_a_usage_error(capsys):
    # the eigenproblem sum_i beta_i X_i - lambda needs some generator in it
    for beta in ("0,0,0,0,0", "0,0,0,0,0i", "0/3,0,0,0,0"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--checks", "eigen", "--beta", beta])
        assert exc.value.code == 2, beta
        out, err = capsys.readouterr()
        assert "summary:" not in out and "Traceback" not in err
        assert "--beta needs at least one nonzero entry" in err


@pytest.mark.parametrize("argv", [["--checks", "eigen", "--out"],
                                  ["--checks", "eigen", "--csv-out"],
                                  ["--dump-spec", "sch", "--out"]], ids=" ".join)
def test_output_into_a_missing_directory_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    # these used to exit 3 with a FileNotFoundError, --out and --csv-out
    # only after every check had run
    def no_run(*args):
        raise AssertionError("ran before the output path was checked")

    monkeypatch.setattr(cli, "run_checks", no_run)
    monkeypatch.setattr(cli, "_dump_spec", no_run)
    for path in (tmp_path / "missing" / "r.json", tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"{argv[-1]} {path}: not a file in an existing directory" in err
    assert list(tmp_path.iterdir()) == []


def test_internal_error_exits_three(monkeypatch):
    def boom(cfg):
        raise RuntimeError("engine exploded")

    monkeypatch.setitem(cli.GROUP_RUNNERS, "hopf", boom)
    rc = cli.main(["--checks", "hopf", "--order", "1"])
    assert rc == 3


def test_singular_basis_map_fails_the_classical_table_entry(tmp_path, monkeypatch, capsys):
    # D = -N - M/2 with its N coefficient set to 0 is M's multiple: the run
    # still writes its report, with the classical-table entry failing
    singular = tuple((name, {**row, 1: 0} if name == "D" else row)
                     for name, row in cli.H6_TO_SCH_MAP)
    monkeypatch.setattr(cli, "H6_TO_SCH_MAP", singular)
    out = tmp_path / "report.json"
    assert cli.main(["--checks", "hopf", "--order", "1", "--out", str(out)]) == 1
    assert "Traceback" not in capsys.readouterr().err
    entries = {e["name"]: e for e in json.loads(out.read_text())["entries"]}
    entry = entries["transport/classical-table"]
    assert not entry["pass"]
    assert entry["residual"].startswith("singular basis map")
    assert [name for name, e in entries.items() if not e["pass"]] == [
        "transport/classical-table"]


@pytest.mark.parametrize("algebra, checks, builds", [
    ("both", "bialgebra,hopf", [1, 1, 2, 2]),
    ("h6", "hopf", [2, 2]),
    ("sch", "bialgebra", [1]),
])
def test_each_group_builds_each_algebra_once(algebra, checks, builds, monkeypatch, capsys):
    # the bialgebra group reads its classical layers off one order-1 build,
    # and the hopf group's two order-k builds serve the transport too
    orders = []
    init = QuantumAlgebra.__init__

    def counted(self, name, generators, order, **tables):
        orders.append(order)
        init(self, name, generators, order, **tables)

    monkeypatch.setattr(QuantumAlgebra, "__init__", counted)
    assert cli.main(["--algebra", algebra, "--checks", checks, "--order", "2"]) == 0
    assert orders == builds


def test_json_report_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert run_cli("--order", "1", "--out", str(out1)).returncode == 0
    assert run_cli("--order", "1", "--out", str(out2)).returncode == 0
    a = json.loads(out1.read_text())
    b = json.loads(out2.read_text())
    a.pop("timings")
    b.pop("timings")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_layout(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("--order", "1", "--checks", "bialgebra", "--out", str(out))
    assert res.returncode == 0
    data = json.loads(out.read_text())
    assert set(data) == {"config", "entries", "summary", "timings"}
    assert data["summary"]["failed"] == 0
    assert data["summary"]["total"] == len(data["entries"])
    names = [e["name"] for e in data["entries"]]
    assert names == sorted(names)
    assert data["config"]["z"] == "1/10"
    for entry in data["entries"]:
        assert set(entry) == {"name", "params", "residual", "pass"}


def test_timings_charge_each_entry_the_time_since_the_previous_one():
    entries = [CheckResult("b", True, made_at=3.0), CheckResult("a", True, made_at=6.0),
               CheckResult("c", True, made_at=1.0)]
    timings = report_json_dict({}, entries, start=0.5)["timings"]
    assert timings == {"c": 0.5, "b": 2.0, "a": 3.0}


def test_timings_add_up_to_the_wall_time(tmp_path, capsys):
    out = tmp_path / "report.json"
    start = time.perf_counter()
    assert cli.main(["--order", "1", "--out", str(out)]) == 0
    wall = time.perf_counter() - start
    timings = json.loads(out.read_text())["timings"]
    seen = f"entry times {timings}, sum {sum(timings.values())} s, wall {wall} s"
    assert all(t > 0 for t in timings.values()), seen
    assert sum(timings.values()) >= 0.9 * wall, seen


def test_exit_status_matches_summary(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("--checks", "discrete-se", "--rep-param", "0", "--out", str(out))
    data = json.loads(out.read_text())
    assert (res.returncode == 0) == (data["summary"]["failed"] == 0)
    assert res.returncode == 1


def test_dump_spec():
    res = run_cli("--dump-spec", "h6")
    assert res.returncode == 0
    data = json.loads(res.stdout)
    assert data["generators"] == ["B+", "N", "M", "A+", "A-", "B-"]
    assert data["order"] == 3
    assert "[B-,B+]" in data["relations"]
    res2 = run_cli("--dump-spec", "sch", "--order", "1")
    assert json.loads(res2.stdout)["order"] == 1
    assert json.loads(res2.stdout)["generators"] == ["H", "D", "M", "P", "K", "C"]
    assert run_cli("--dump-spec", "h6", "--order", "9").returncode == 2


def test_solutions_serialized_in_report(tmp_path):
    out = tmp_path / "report.json"
    res = run_cli("--checks", "discrete-se", "--out", str(out))
    assert res.returncode == 0
    data = json.loads(out.read_text())
    entries = [e for e in data["entries"]
               if e["name"].startswith("discrete-se/solution-deformed/poly(deg=2)")]
    sol = json.loads(entries[0]["params"]["solution"])
    assert {"x_pow": 2, "t_pow": 0, "kappa": "0", "omega": "0",
            "step": "1", "coeff": "1"} in sol["terms"]


def test_csv_sampler(tmp_path):
    path = tmp_path / "grid.csv"
    res = run_cli("--checks", "eigen", "--csv-out", str(path))
    assert res.returncode == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "solution,x,t,value"
    assert len(lines) > 1


def test_csv_sampler_skips_step_factor_pole(tmp_path):
    # at z = 1/2, m = 1 the kappa = 1 exponential sits on 1 - 2 z kappa^2 / m = 0
    path = tmp_path / "grid.csv"
    res = run_cli("--checks", "eigen", "--z", "1/2", "--mass", "1", "--csv-out", str(path))
    assert res.returncode == 0, res.stderr
    rows = path.read_text().strip().splitlines()[1:]
    assert {row.split(",")[0] for row in rows} == {"0", "1", "2"}


def test_failing_residual_rendered_in_text():
    res = run_cli("--checks", "discrete-se", "--rep-param", "0")
    fail_lines = [l for l in res.stdout.splitlines()
                  if l.startswith("FAIL") and "symmetry-deformed/C" in l]
    assert fail_lines and "residual:" in fail_lines[0]


@pytest.mark.parametrize("beta, eigenvalue, residual", [
    ("1,1,1,1,1", "1/3+1/2i", "(-1*z)*a^3*d"),
    # a complex coefficient renders as its real part plus i times its imaginary part
    ("1+i,0,0,0,1", "2", "(-1*z)*a^3*d + i*((-1*z)*a^3*d)"),
])
def test_first_order_table_off_by_one_fails_the_eigen_tie(
        beta, eigenvalue, residual, tmp_path, monkeypatch, capsys):
    # N's z a^3 d coefficient doubled in the displayed table: the truncated
    # deformed eigen operator differs from it by -beta1 z a^3 d
    table = cli.first_order_rep

    def doubled():
        rep = table()
        n = dict(rep["N"].terms)
        n[(3, 1)] = n[(3, 1)] * 2
        rep["N"] = type(rep["N"])(1, n)
        return rep

    monkeypatch.setattr(cli, "first_order_rep", doubled)
    out = tmp_path / "report.json"
    argv = ["--checks", "eigen", "--order", "2", "--beta", beta,
            "--eigenvalue", eigenvalue, "--out", str(out)]
    assert cli.main(argv) == 1
    capsys.readouterr()
    entries = {e["name"]: e for e in json.loads(out.read_text())["entries"]}
    entry = entries["eigen/first-order-vs-full"]
    assert not entry["pass"]
    assert entry["residual"] == residual
    assert [name for name, e in entries.items() if not e["pass"]] == [
        "eigen/first-order-vs-full"]
