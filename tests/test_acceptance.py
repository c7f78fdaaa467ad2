"""Acceptance gate: every criterion at its stated tolerance.

Each parametrized case runs one criterion end to end through the driver
and prints its PASS/FAIL line (visible with -s; the per-test verdict carries
the same information in the standard pytest report).  The remaining tests
check the driver's table and its runtime budgets.
"""
import pytest

from permlcu import acceptance


@pytest.mark.parametrize("number", sorted(acceptance.CRITERIA, key=int))
def test_criterion(number):
    result = acceptance.run_criterion(number)
    print(acceptance.report_line(result))
    assert result["passed"], result["details"]


def test_every_criterion_has_a_name_and_a_budget():
    for number, (name, budget_s, check) in acceptance.CRITERIA.items():
        assert int(number) > 0 and name and callable(check)
        assert budget_s > 0.0


def test_criterion_over_budget_fails_with_runtime_message(monkeypatch):
    name, _, check = acceptance.CRITERIA["2"]
    monkeypatch.setitem(acceptance.CRITERIA, "2", (name, 0.0, check))
    result = acceptance.run_criterion("2")
    assert not result["passed"]
    assert result["details"][-1].startswith("runtime ")
    assert "over budget 0.0s" in result["details"][-1]
    assert acceptance.report_line(result).startswith("FAIL criterion 2: ")


def test_criterion_10_is_held_to_its_budget(monkeypatch):
    assert acceptance.CRITERIA["10"][1] == 30.0
    clock = iter([0.0, 31.0])
    monkeypatch.setattr(acceptance, "perf_counter", lambda: next(clock))
    result = acceptance.run_criterion("10")
    assert result["details"] == ["runtime 31.0s over budget 30.0s"]
    assert result["seconds"] == 31.0
