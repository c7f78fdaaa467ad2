"""Tests for the resource-formula instantiation."""
import pytest

from permlcu import costcli, pham, sched
from permlcu.models import decay_spec, oscillating_hamiltonian


def test_gate_cost_worked_example():
    # Q^2 + Q M (k_od + log2 M) + Q M K (c_d + c_dh0 + c_lambda)
    # = 16 + 4*(1+0) + 4*3 = 32 per segment; 10 segments plus L*d = 321
    p = costcli.CostParams(M=1, K=1, r=10, Q=4, k_od=1, L=1, d=1)
    report = costcli.gate_cost(p)
    assert report.gate_vc == 32
    assert report.gate_ui == 320
    assert report.gate_h0 == 1
    assert report.gate_total == 321


def test_gate_cost_zero_segments():
    p = costcli.CostParams(M=2, K=2, r=0, Q=3, k_od=1, L=4, d=2)
    report = costcli.gate_cost(p)
    assert report.gate_ui == 0
    assert report.gate_total == 4 * 2


def test_qubit_cost_values():
    # order registers + system + cosine qubit + padding-term flag
    assert costcli.qubit_cost(costcli.CostParams(
        M=1, K=1, r=1, Q=5, k_od=1, L=0, d=0, n=3)) == 5 + 3 + 2
    assert costcli.qubit_cost(costcli.CostParams(
        M=4, K=2, r=1, Q=3, k_od=1, L=0, d=0, n=2)) == 9 + 2 + 2
    assert costcli.qubit_cost(costcli.CostParams(
        M=2, K=2, r=1, Q=0, k_od=1, L=0, d=0, n=4)) == 4 + 2


def test_h0_circuit_count():
    assert costcli.h0_circuit_count(1, 1, [1]) == 3          # 2 CNOT + 1 rotation
    assert costcli.h0_circuit_count(5, 3, [3] * 5) == 2 * 5 * 3 + 5
    assert costcli.h0_circuit_count(0, 4, []) == 0
    with pytest.raises(ValueError):
        costcli.h0_circuit_count(2, 2, [1])
    with pytest.raises(ValueError):
        costcli.h0_circuit_count(1, 2, [3])


def test_cost_params_validation():
    with pytest.raises(ValueError):
        costcli.CostParams(M=-1, K=1, r=1, Q=1, k_od=1, L=0, d=0)


def test_monotonicity_in_each_parameter():
    base = dict(M=2, K=2, r=3, Q=4, k_od=2, L=3, d=2, n=2,
                c_d=1, c_dh0=1, c_lambda=1)
    total0 = costcli.gate_cost(costcli.CostParams(**base)).gate_total
    for name in base:
        bumped = dict(base)
        bumped[name] += 1
        assert costcli.gate_cost(costcli.CostParams(**bumped)).gate_total >= total0


def test_frequency_independence_of_cost():
    reports = []
    for alpha in (0.0, 1.0, 1e3, 1e6):
        h = oscillating_hamiltonian(1.0, 1.0, alpha)
        s = sched.build_schedule(h, 2.0, eps=1e-3)
        reports.append(costcli.gate_cost(costcli.params_from_model(h, s)))
    assert all(r == reports[0] for r in reports)


def test_decay_cost_saturates_with_horizon():
    h = pham.from_pauli_spec(decay_spec(1.0, 1.0, 1.0))
    reports = []
    for t_total in (100.0, 1000.0):
        s = sched.build_schedule(h, t_total, eps=1e-3)
        reports.append(costcli.gate_cost(costcli.params_from_model(h, s)))
    assert reports[0].gate_ui == reports[1].gate_ui


def test_params_from_model_extraction():
    spec = {
        "n": 3,
        "h0": [{"coupling": 0.5, "z_mask": "110"}, {"coupling": 1.0, "z_mask": "001"}],
        "v": [{"pauli": "XXY", "coeff": [{"amp": [0.4, 0.0], "rate": [0.0, 0.0]}]},
              {"pauli": "XII", "coeff": [{"amp": [0.3, 0.0], "rate": [0.0, 0.0]}]}],
    }
    h = pham.from_pauli_spec(spec)
    s = sched.build_schedule(h, 1.0, eps=1e-2)
    p = costcli.params_from_model(h, s)
    assert p.M == 2 and p.K == 1
    assert p.k_od == 3          # XXY touches three qubits
    assert p.L == 2 and p.d == 2
    assert p.n == 3 and p.r == s.r and p.Q == s.Q
