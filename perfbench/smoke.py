"""Smoke test of the benchmark harness on inputs that take seconds.

    python3 perfbench/smoke.py

Runs the harness end to end, untraced and traced, on the ``validate`` check
of ``degenerate_characteristics``, and asserts that every metric declared in
BENCHMARK.json is emitted with its unit.  Then runs a command that must fail
(an unknown scenario, exit code 2) and asserts that it counts as a failed
operation.  Exits nonzero on the first failed assertion.
"""

import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import CONFIGS, Workload, run_pipeline

CONFIGS["smoke"] = {"checks": ["validate"]}


def validate_only(runner, seed, traced):
    return run_pipeline(runner, "degenerate_characteristics", "smoke", seed, traced)


def unknown_scenario(runner, seed, traced):
    return run_pipeline(runner, "no_such_scenario", "smoke", seed, traced)


SMOKE = Workload("smoke", validate_only, (("run", "degenerate_characteristics", "smoke"),))
FAILING = Workload("failing", unknown_scenario, (("run", "no_such_scenario", "smoke"),))


def measure(workload, trace):
    work = Path(tempfile.mkdtemp(prefix="smoke-", dir=run.ROOT / ".perfbench_work"))
    try:
        rounds = run.measure(workload, seed=1, seconds=1.0, trace=trace, work=work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    declared = run.declared_metrics(trace)
    res = run.result(workload.name, rounds, trace, declared)
    run.report(workload.name, rounds, res)
    return res, declared


def main() -> int:
    (run.ROOT / ".perfbench_work").mkdir(exist_ok=True)
    for trace in (False, True):
        res, declared = measure(SMOKE, trace)
        assert res["correct"] and res["failed"] == 0, res
        emitted = {name: m["unit"] for name, m in res["metrics"].items()}
        assert emitted == declared, set(declared) ^ set(emitted)
        assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())

    res, _ = measure(FAILING, False)
    assert not res["correct"] and res["failed"] >= 1, res
    ok_frac = res["metrics"]["ok_frac"]["value"]
    assert ok_frac == 1.0 - res["failed"] / res["attempted"] < 1.0, res
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
