"""Record the reference outputs that the plan-paper and oracle-campaign
checks compare against.

    python3 bench/record.py

Runs every pool case once through the same unit code the benchmark times
and writes bench/reference/. Re-record only when a change is meant to alter
the program's numbers, and say so in that change.
"""

import json
import sys
import time

import run  # pins the BLAS/OpenMP threads before NumPy is imported

import numpy as np


def record_plan(workloads) -> None:
    w = workloads.PlanPaper()
    session = w.new_session()
    values, offsets = [], [0]
    for i in range(w.pool_size):
        case = w.pool_case(i)
        code = w.run(session, case)
        problem = w.check(session, case, code)
        if problem:
            raise SystemExit(f"plan-paper case {i}: {problem}")
        doc = json.loads(session["report"].read_text(encoding="utf-8"))
        vec = w.report_values(doc)
        values.append(vec)
        offsets.append(offsets[-1] + vec.size)
    w.reference_file.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(w.reference_file, values=np.concatenate(values),
                        offsets=np.array(offsets))


def record_oracle(workloads) -> None:
    w = workloads.OracleCampaign()
    session = w.new_session()
    cases = {}
    for i in range(w.pool_size):
        case = w.pool_case(i)
        before = run.calibrate()
        t0 = time.perf_counter()
        result = w.run(session, case)
        unit_s = time.perf_counter() - t0
        unit_s *= 2.0 * run.CALIBRATION_REF_S / (before + run.calibrate())
        problem = w.check(session, case, result)
        if problem:
            raise SystemExit(f"oracle-campaign case {i}: {problem}")
        cases[str(i)] = {**w.summarize(result), "unit_s": unit_s}
    w.reference_file.parent.mkdir(parents=True, exist_ok=True)
    w.reference_file.write_text(json.dumps(
        {"version": 1, "tol_db": w.tol_db, "cases": cases}, indent=1) + "\n")


def main() -> int:
    import warnings
    run.import_program()
    import workloads
    from nli_planner.cfm import LowDispersionWarning
    warnings.simplefilter("ignore", LowDispersionWarning)
    for fn in (record_plan, record_oracle):
        t0 = time.perf_counter()
        fn(workloads)
        print(f"{fn.__name__}: {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
