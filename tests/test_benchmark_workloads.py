"""The benchmark's decider workloads run clean on the package as it is.

benchmark/workloads.py calls search, decomposition and transforms and
checks every answer with its own code in benchmark/checks.py. One round of
decide-sat and one of decide-unsat, checked by the workloads' own
check_round, keep a change to those calls from surfacing first as a failed
benchmark run."""

import importlib
import os

import tdforge

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmark")


def test_one_round_of_each_decider_workload_checks_clean(tmp_path,
                                                         monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARK)
    workloads = importlib.import_module("workloads")
    for name in ("decide-sat", "decide-unsat"):
        workload = workloads.WORKLOADS[name](tdforge, 1, str(tmp_path))
        workload.prepare_checks()
        rnd = workload.run_round()
        assert rnd.failed == 0, (name, rnd.errors)
        assert len(rnd.outputs) == len(workload.instances)
        assert workload.check_round(rnd) == [], name
        assert workload.final_check() == [], name
