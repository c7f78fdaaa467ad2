"""Tests for the permlcu command-line interface."""
import json
import math

import pytest

from permlcu import acceptance, costcli
from permlcu.models import oscillating_spec


@pytest.fixture
def spec_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(oscillating_spec(1.0, 1.0, 3.0)))
    return str(path)


def test_schedule_csv_and_summary(spec_path, capsys):
    assert costcli.main(["schedule", spec_path, "--time", "2.0", "--epsilon", "1e-3"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "w,t_w,dt_w,gamma_tw"
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(row) == 4 for row in rows)
    dts = [float(r[2]) for r in rows]
    assert sum(dts) == pytest.approx(2.0, abs=1e-12)
    summary = json.loads(captured.err.strip().splitlines()[-1])
    assert summary["r"] == len(rows)
    assert summary["Q"] >= 1


def test_simulate_verify_roundtrip(spec_path, capsys):
    code = costcli.main(["simulate", spec_path, "--time", "1.0",
                         "--epsilon", "1e-3", "--initial", "0", "--verify"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["distance_to_oracle"] <= 1e-3
    assert payload["fidelity"] >= 1 - 1e-3
    norm = sum(re * re + im * im for re, im in payload["final"])
    assert norm == pytest.approx(1.0, abs=1e-9)


def test_simulate_output_file(spec_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = costcli.main(["simulate", spec_path, "--time", "0.5",
                         "--initial", "plus", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["mode"] == "exact"
    assert len(payload["final"]) == 2


def test_cost_report(spec_path, capsys):
    assert costcli.main(["cost", spec_path, "--time", "2.0", "--epsilon", "1e-3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["params"]["M"] == 1
    assert payload["params"]["K"] == 2
    assert payload["report"]["gate_total"] == (
        payload["report"]["gate_ui"] + payload["report"]["gate_h0"])


def test_dd_subcommand(capsys):
    xs = json.dumps([[0.0, 0.0], [math.log(2.0), 0.0]])
    assert costcli.main(["dd", xs]) == 0
    re, im = json.loads(capsys.readouterr().out)
    assert re == pytest.approx(1.0 / math.log(2.0), rel=1e-12)
    assert im == pytest.approx(0.0, abs=1e-15)


def test_input_errors_exit_2(tmp_path, capsys, spec_path):
    assert costcli.main(["schedule", str(tmp_path / "missing.json"), "--time", "1"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert costcli.main(["schedule", str(bad), "--time", "1"]) == 2
    nonherm = tmp_path / "nonherm.json"
    nonherm.write_text(json.dumps({"n": 1, "v": [{"pauli": "X", "coeff": [
        {"amp": [1.0, 0.0], "rate": [0.0, 1.0]}]}]}))
    assert costcli.main(["simulate", str(nonherm), "--time", "1"]) == 2
    assert costcli.main(["schedule", spec_path]) == 2  # --time missing
    assert costcli.main(["dd", "not-json"]) == 2


def test_schedule_that_cannot_reach_the_time_exits_2(tmp_path, capsys):
    path = tmp_path / "growing.json"
    path.write_text(json.dumps({"n": 1, "h0": [], "v": [
        {"pauli": "X", "coeff": [{"amp": [0.5, 0.0], "rate": [700.0, 0.0]}]}]}))
    assert costcli.main(["schedule", str(path), "--time", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "steps" in captured.err


@pytest.mark.parametrize("eps", ["inf", "nan", "0", "-1"])
def test_bad_epsilon_exits_2(spec_path, capsys, eps):
    assert costcli.main(["schedule", spec_path, "--time", "1.0", "--epsilon", eps]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "eps must be positive and finite" in captured.err


def test_env_fallback(spec_path, capsys, monkeypatch):
    monkeypatch.setenv("PERMLCU_TIME", "1.5")
    monkeypatch.setenv("PERMLCU_EPSILON", "1e-2")
    assert costcli.main(["schedule", spec_path]) == 0
    summary = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert summary["r"] >= 1
    monkeypatch.setenv("PERMLCU_TIME", "oops")
    assert costcli.main(["schedule", spec_path]) == 2


def test_unknown_mode_from_env_exits_2(spec_path, capsys, monkeypatch):
    # --mode has argparse choices; the environment fallback is checked by the schedule
    monkeypatch.setenv("PERMLCU_MODE", "bogus")
    for command in ("schedule", "simulate", "cost"):
        assert costcli.main([command, spec_path, "--time", "1.0"]) == 2
        assert "unknown mode 'bogus'" in capsys.readouterr().err


def test_flag_overrides_env(spec_path, capsys, monkeypatch):
    monkeypatch.setenv("PERMLCU_TIME", "50.0")
    assert costcli.main(["schedule", spec_path, "--time", "1.0"]) == 0
    captured = capsys.readouterr()
    rows = captured.out.strip().splitlines()[1:]
    assert sum(float(r.split(",")[2]) for r in rows) == pytest.approx(1.0)


def test_verify_subset(capsys):
    assert costcli.main(["verify", "--criteria", "2,10"]) == 0
    out = capsys.readouterr().out
    assert "PASS criterion 2" in out
    assert "PASS criterion 10" in out


def test_verify_reports_failure(capsys, monkeypatch):
    def failing():
        return ["forced"], "unused"
    monkeypatch.setitem(acceptance.CRITERIA, "99", ("synthetic failure", 1.0, failing))
    assert costcli.main(["verify", "--criteria", "99"]) == 1
    assert "FAIL criterion 99" in capsys.readouterr().out


def test_verify_unknown_criterion(capsys):
    assert costcli.main(["verify", "--criteria", "nope"]) == 2
