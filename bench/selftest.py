"""Self-test of the benchmark harness at tiny sizes.

Run from the root of a kernsplit checkout:

    python3 bench/selftest.py

It checks that every workload runs clean, untraced and traced, and
reports exactly the metrics BENCHMARK.json names; and that a wrong
expected output, planted on purpose, is counted as a failure and not
passed.
"""

import json
from pathlib import Path

import run

SEED = 7
# the reference value planted wrong in each workload's first command
WRONG_KEY = {"verify": "checked", "count": "count", "oracle": "checked"}


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"selftest: FAILED: {what}")


def main() -> None:
    expect(run.prepare(), "run from the root of a kernsplit checkout")
    from workloads import PLANS, TINY

    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    expect(set(names) == set(PLANS), f"workloads {names} match the harness's {sorted(PLANS)}")
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}

    for name in names:
        ops = run.Ops()
        metrics = run.run_workload(PLANS[name](SEED, TINY), 0, TINY.launches, ops)
        expect(set(metrics) == end_to_end, f"{name}: reports {sorted(metrics)}")
        expect(ops.attempted > 0 and ops.failed == 0, f"{name}: {ops.failed} of {ops.attempted} failed")

        plan = PLANS[name](SEED, TINY)
        plan.commands[0].expect[WRONG_KEY[name]] += 1
        ops = run.Ops()
        metrics = run.run_workload(plan, 0, TINY.launches, ops)
        expect(ops.failed >= run.MIN_REPS, f"{name}: planted error failed {ops.failed} times")
        expect(not ops.result(metrics)["correct"], f"{name}: planted error reported correct")
        expect(metrics["ok_frac"]["value"] < 1, f"{name}: planted error left ok_frac at 1")

    plans = {name: build(SEED, TINY) for name, build in PLANS.items()}
    ops = run.Ops()
    metrics = run.traced(plans, names[0], 0, SEED, TINY.launches, ops)
    expect(set(metrics) == per_layer, f"traced run reports {sorted(set(metrics) ^ per_layer)} unlike the spec")
    expect(ops.attempted > 0 and ops.failed == 0, f"traced: {ops.failed} of {ops.attempted} failed")
    print("selftest: ok")


if __name__ == "__main__":
    main()
