"""Benchmark of the kernsplit CLI.

Run from the root of a kernsplit checkout:

    python3 bench/run.py --workload verify --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the harness runs the workload's commands as child
processes (``python -m kernsplit.cli`` with the checkout's ``src`` on
``PYTHONPATH``), one at a time in a closed loop, and reports the
end-to-end metrics.  With ``--trace 1`` it runs the same commands
in-process through the click group, with spans around the library calls
the CLI makes, and reports the per-layer metrics (see ``tracing.py``).

Every output is checked against references computed before timing
starts.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the machine and the versions the numbers were taken with.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib.metadata import version
from pathlib import Path

SRC = Path("src")
# the sieve's segment size; an inherited value would change the program measured
SEGMENT_ENV_VAR = "KERNSPLIT_SEGMENT_SIZE"
# timed repetitions per run, at least; more while --seconds has not elapsed
MIN_REPS = 3
CHILD_TIMEOUT_S = 120


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


class Ops:
    """Attempted and failed operations; a failure is reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"bench: {label}: {'; '.join(problems[:3])}", file=sys.stderr)

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != SEGMENT_ENV_VAR}
    env["PYTHONPATH"] = str(SRC.resolve())
    return env


def run_child(argv: list[str], env: dict) -> Child:
    """Run one child to completion; its peak RSS comes from wait4 on it alone."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    killer.cancel()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Child(wall, usage.ru_maxrss / 1024, proc.returncode, out.decode(), err[0].decode())


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "kernsplit.cli", *args]


def run_workload(plan, seconds: float, launches: int, ops: Ops) -> dict:
    """End-to-end metrics of one workload: medians over repetitions."""
    env = child_env()
    run_child(cli_argv(plan.setup.args), env)  # warm the bytecode and page caches
    setup = []
    for _ in range(launches):
        c = run_child(cli_argv(plan.setup.args), env)
        ops.record(f"{plan.name} set-up", plan.setup.problems(c.code, c.stdout, c.stderr))
        setup.append(c.wall_s)
    for label, problems in plan.checks:
        ops.record(label, problems)

    rates, peak = [], 0.0
    deadline = time.perf_counter() + seconds
    while len(rates) < MIN_REPS or time.perf_counter() < deadline:
        wall = items = 0
        for cmd in plan.commands:
            c = run_child(cli_argv(cmd.args), env)
            ops.record(" ".join(cmd.args), cmd.problems(c.code, c.stdout, c.stderr))
            wall += c.wall_s
            items += cmd.items
            peak = max(peak, c.rss_mb)
        rates.append(items / wall)
    print(json.dumps({"reps": len(rates), "items_per_s": rates, "setup_s": setup}), file=sys.stderr)
    return {
        "items_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ok_frac": {"value": 1 - ops.failed / ops.attempted, "unit": "frac"},
    }


def import_time(launches: int) -> float:
    """Median time a fresh interpreter takes to import kernsplit.cli."""
    code = "import time; t = time.perf_counter(); import kernsplit.cli; print(time.perf_counter() - t)"
    env = child_env()
    run_child([sys.executable, "-c", code], env)  # warm the bytecode cache
    return statistics.median(
        float(run_child([sys.executable, "-c", code], env).stdout) for _ in range(launches)
    )


def machine() -> dict:
    cpu = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "mem_gb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30,
        "python": platform.python_version(),
        **{pkg: version(pkg) for pkg in ("numpy", "mpmath", "click")},
    }


def prepare() -> bool:
    """Put the checkout's src on sys.path and pin the environment; False outside a checkout."""
    if not (SRC / "kernsplit" / "cli.py").is_file():
        return False
    os.environ.pop(SEGMENT_ENV_VAR, None)
    sys.path.insert(0, str(SRC.resolve()))
    return True


def traced(plans: dict, workload: str, seconds: float, seed: int, launches: int, ops: Ops) -> dict:
    """Per-layer metrics: the traced run plus the import time of a fresh interpreter."""
    from tracing import run_traced

    import_s = import_time(launches)
    metrics = run_traced(plans, workload, seconds, seed, ops)
    metrics["cli.import_s"] = {"value": import_s, "unit": "s"}
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["verify", "count", "oracle"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not prepare():
        print("bench: run from the root of a kernsplit checkout (no src/kernsplit)", file=sys.stderr)
        return 2

    from workloads import FULL, PLANS

    ops = Ops()
    if args.trace:
        plans = {name: build(args.seed, FULL) for name, build in PLANS.items()}
        metrics = traced(plans, args.workload, args.seconds, args.seed, FULL.launches, ops)
    else:
        plan = PLANS[args.workload](args.seed, FULL)
        metrics = run_workload(plan, args.seconds, FULL.launches, ops)
    print(json.dumps({"machine": machine(), "workload": args.workload, "seed": args.seed}))
    print(json.dumps(ops.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
