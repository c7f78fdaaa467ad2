"""Write the frozen default cases in benchmarks/frozen/ (run once, kept for provenance).

    python3 benchmarks/freeze.py

The default cases come from the engine's own generators as they stood when
the files were frozen: the criterion-4 models and durations of
`permlcu.acceptance`, the seed-7 random models of `permlcu.models`, and the
oscillating model.  Those generators are expected to change (the duration
scan in particular), which is why the benchmark reads the frozen files and
never calls them.  Rerunning this script after such a change writes a
different workload; do not do that to refresh a baseline.
"""
from __future__ import annotations

import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from permlcu import acceptance, dyson, models, pham, sched  # noqa: E402

from workloads import ALPHA_IDS, EPS, FROZEN_DIR, WORKLOADS, Case, build_model  # noqa: E402


def _expect(case: Case) -> dict:
    h = build_model(case)
    s = sched.build_schedule(h, case.t_total, eps=case.eps, mode=case.mode)
    return {"r": s.r, "Q": s.Q, "term_components": s.r * dyson.count_terms(h, s.Q)}


def default_cases(workload: str) -> list[Case]:
    common = {"eps": EPS, "mode": sched.MODE_EXACT, "initial": "plus"}
    cases = []
    if workload == "c4-n2":
        # acceptance._criterion4_cases, keeping the spec documents
        for seed in range(5):
            rng = np.random.default_rng(200 + seed)
            spec = models.random_model_spec(rng, n=2, m_max=2, k_max=2)
            t = acceptance._pick_time(pham.from_pauli_spec(spec), EPS,
                                      r_lo=3 + 2 * seed, r_hi=12)
            cases.append(Case(id=f"m{seed}", t_total=t, oracle="ode", spec=spec, **common))
    elif workload == "rand-n345":
        for n in (3, 4, 5):
            spec = models.random_model_spec(np.random.default_rng(7), n=n, m_max=3, k_max=2)
            cases.append(Case(id=f"n{n}", t_total=1.0, oracle="ode", spec=spec, **common))
    else:
        # an adaptive ODE cannot resolve alpha = 1e6 over T = 10 in reasonable
        # time; the rotating-frame closed form is exact there
        for alpha in (0.0, 1e3, 1e6):
            cases.append(Case(id=ALPHA_IDS[alpha], t_total=10.0,
                              oracle="ode" if alpha <= 1e3 else "closed_form",
                              oscillating={"h": 1.0, "gamma": 1.0, "alpha": alpha},
                              **common))
    return [replace(c, expect=_expect(c)) for c in cases]


def main() -> None:
    FROZEN_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        cases = [{k: v for k, v in asdict(c).items() if v is not None}
                 for c in default_cases(workload)]
        doc = {"workload": workload, "cases": cases}
        (FROZEN_DIR / f"{workload}.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
