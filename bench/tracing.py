"""Traced run: the workloads' commands in-process, with spans per layer.

The layers are the package's modules: kernel, powered, decompose, oracle
and cli.  Every span comes from this file: a span around each command
invoked through the click group, wrappers set on the module attributes
the CLI and the library resolve at call time, and the harness's own
loops over ``split`` and ``verify_structural``.  Those two are not
wrapped inside ``verify_range``, where a span per ``n`` would distort
the timing; they are timed over the same windows in a loop of their own.

The selected workload runs in alternating untraced and traced passes,
which give ``trace.overhead_frac``.  The other workloads then run one
traced pass each, so every layer is measured in every traced run.  The
per-layer metrics come from the last traced pass of each workload.
Spans stay in memory and are written to ``bench/out`` at the end.
"""

import fnmatch
import gc
import json
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path

from click.testing import CliRunner

import kernsplit.cli
import kernsplit.decompose
import kernsplit.oracle
import kernsplit.powered

OUT_DIR = Path("bench/out")
MODULES = ("kernel", "powered", "decompose", "oracle", "cli")
MB = 2**20

# (module, attribute pattern, layer): the attributes the CLI and the
# library look up at call time, wrapped for the traced passes
TARGETS = [
    (kernsplit.cli, "radical_sieve", "kernel"),
    (kernsplit.decompose, "verify_range", "decompose"),
    (kernsplit.oracle, "constructive_vs_oracle", "oracle"),
    (kernsplit.oracle, "best_decomposition", "oracle"),
    (kernsplit.oracle, "conjecture_probe", "oracle"),
    (kernsplit.oracle, "log_weighted_mask", "powered"),
    (kernsplit.powered, "count_*", "powered"),
    (kernsplit.powered, "*_mask", "powered"),
]
RANGE_FUNCS = {"verify_range", "constructive_vs_oracle", "conjecture_probe"}
# spans whose tracemalloc peak is recorded; numpy reports its buffers to it
MEMORY_FUNCS = {"radical_sieve", "membership_mask", "log_weighted_mask"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    work: int  # entries, n or output bytes handled
    peak: int  # tracemalloc peak in bytes, 0 when not recorded
    failed: bool


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, work: int = 0, memory: bool = False):
        s = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, work, 0, False)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        started = memory and not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0] if memory else 0
        s.start = time.perf_counter()
        try:
            yield s
        except BaseException:
            s.failed = True
            raise
        finally:
            s.end = time.perf_counter()
            if memory:
                s.peak = tracemalloc.get_traced_memory()[1] - base
            if started:
                tracemalloc.stop()
            self._stack.pop()


def _work(attr: str, args: tuple) -> int:
    if attr in RANGE_FUNCS:
        return args[1] - args[0] + 1
    if attr == "best_decomposition":
        return 1
    return args[0]  # x of a sieve, mask or counter


def _wrap(tracer: Tracer, layer: str, attr: str, fn):
    def traced(*args, **kwargs):
        with tracer.span(f"{layer}.{attr}", _work(attr, args), attr in MEMORY_FUNCS):
            return fn(*args, **kwargs)

    return traced


@contextmanager
def wrapped(tracer: Tracer):
    saved = []
    for module, pattern, layer in TARGETS:
        for attr in fnmatch.filter(dir(module), pattern):
            fn = getattr(module, attr)
            if callable(fn):
                saved.append((module, attr, fn))
                setattr(module, attr, _wrap(tracer, layer, attr, fn))
    try:
        yield
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


def _pass(runner: CliRunner, plan, ops, tracer: Tracer | None = None) -> float:
    """One repetition of the plan's commands in-process; returns wall seconds."""
    wall = 0.0
    for cmd in plan.commands:
        gc.collect()
        with (tracer.span(f"cli.{cmd.args[0]}") if tracer else nullcontext()) as s:
            t0 = time.perf_counter()
            res = runner.invoke(kernsplit.cli.cli, cmd.args)
            wall += time.perf_counter() - t0
            if s:
                s.work = len(res.stdout_bytes)
                s.failed = res.exit_code != 0
        ops.record(" ".join(cmd.args), cmd.problems(res.exit_code, res.stdout, res.stderr))
    return wall


def _own_loops(tracer: Tracer, windows: dict, ops) -> None:
    for label, (lo, hi) in windows.items():
        n = hi - lo + 1
        with tracer.span(f"decompose.split.{label}", n):
            ds = [kernsplit.decompose.split(k) for k in range(lo, hi + 1)]
        with tracer.span(f"decompose.verify_structural.{label}", n):
            bad = [d.n for d in ds if not kernsplit.decompose.verify_structural(d)]
        ops.record(f"verify_structural.{label}", [f"n={k} fails" for k in bad[:3]])


def layer_metrics(spans: list[Span]) -> dict:
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    agg = defaultdict(lambda: {"dur": 0.0, "self": 0.0, "work": 0, "peak": 0})
    failed = dict.fromkeys(MODULES, 0)
    for s, cov in zip(spans, covered):
        a = agg[s.name]
        a["dur"] += s.end - s.start
        a["self"] += s.end - s.start - cov
        a["work"] += s.work
        a["peak"] = max(a["peak"], s.peak)
        failed[s.name.split(".")[0]] += s.failed

    def rate(name):
        return agg[name]["work"] / agg[name]["dur"] if agg[name]["dur"] else 0.0

    def per_item(name, scale, key="dur"):
        return agg[name][key] / agg[name]["work"] * scale if agg[name]["work"] else 0.0

    cli = [a for name, a in agg.items() if name.startswith("cli.")]
    masks = ("powered.membership_mask", "powered.log_weighted_mask")
    values = {
        "kernel.radical_sieve.self_s": (agg["kernel.radical_sieve"]["self"], "s"),
        "kernel.radical_sieve.entries_per_s": (rate("kernel.radical_sieve"), "1/s"),
        "kernel.radical_sieve.peak_mb": (agg["kernel.radical_sieve"]["peak"] / MB, "MB"),
        "powered.membership_mask.entries_per_s": (rate(masks[0]), "1/s"),
        "powered.log_weighted_mask.entries_per_s": (rate(masks[1]), "1/s"),
        "powered.mask.peak_mb": (max(agg[m]["peak"] for m in masks) / MB, "MB"),
        "decompose.split.ns_per_n.low": (per_item("decompose.split.low", 1e9), "ns"),
        "decompose.split.ns_per_n.high": (per_item("decompose.split.high", 1e9), "ns"),
        "decompose.verify_structural.ns_per_n.low": (per_item("decompose.verify_structural.low", 1e9), "ns"),
        "decompose.verify_structural.ns_per_n.high": (per_item("decompose.verify_structural.high", 1e9), "ns"),
        "decompose.verify_range.self_s": (agg["decompose.verify_range"]["self"], "s"),
        "oracle.best_decomposition.ms_per_n": (per_item("oracle.best_decomposition", 1e3), "ms"),
        "oracle.constructive_vs_oracle.self_s": (agg["oracle.constructive_vs_oracle"]["self"], "s"),
        "oracle.conjecture_probe.us_per_n": (per_item("oracle.conjecture_probe", 1e6, "self"), "us"),
        "oracle.conjecture_probe.self_s": (agg["oracle.conjecture_probe"]["self"], "s"),
        "cli.self_s": (sum(a["self"] for a in cli), "s"),
        "cli.output_bytes": (sum(a["work"] for a in cli), "bytes"),
        **{f"{m}.failed": (failed[m], "count") for m in MODULES},
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def run_traced(plans: dict, workload: str, seconds: float, seed: int, ops) -> dict:
    """Per-layer metrics, with ``workload`` run untraced and traced in turn."""
    runner = CliRunner()
    tracer = Tracer()
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        untraced.append(_pass(runner, plans[workload], ops))
        tracer.spans.clear()
        with wrapped(tracer):
            traced.append(_pass(runner, plans[workload], ops, tracer))
    with wrapped(tracer):
        for name, plan in plans.items():
            if name != workload:
                _pass(runner, plan, ops, tracer)
    _own_loops(tracer, plans["verify"].windows, ops)
    for plan in plans.values():
        for label, problems in plan.checks:
            ops.record(label, problems)

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    with open(OUT_DIR / f"trace-{workload}-{seed}.json", "w") as f:
        json.dump([asdict(s) for s in tracer.spans], f)
    metrics = layer_metrics(tracer.spans)
    overhead = statistics.median(traced) / statistics.median(untraced) - 1
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "frac"}
    return metrics
