"""Workloads of the kernsplit benchmark: seeded inputs, commands and checks.

A workload is a ``Plan``: one trivial command whose launch time is the
set-up metric, the commands that make up one repetition, and library
spot-checks made once per run.  Every command carries an ``expect`` dict
of reference values computed here, before anything is timed, and a check
that compares the command's stdout against it.

The seed picks where each window or limit sits inside a band 1% wide.
The bands are that narrow because the cost per item grows with ``n`` and
``x`` (the oracle is quadratic), and a wider band would turn the seed
into run-to-run spread.
"""

import json
import random
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from kernsplit.decompose import split, verify_exact
from kernsplit.kernel import radical, radical_sieve

# library spot-checks per run; each is cheap, see the per-check notes
EXACT_SAMPLES = 200  # verify_exact(split(n)), ~35 us per n at 1e10
TABLE_SAMPLES = 200  # sieve entries compared with trial-division radical
PROBE_SAMPLES = 20  # probe rows compared with the sparse exact search


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the three workloads."""

    verify_n: int  # n per structural window
    verify_low: int  # low window band start; the window stays below 1e8
    verify_high: int  # high window band start, in [1e10, 1e12)
    count_x: int  # band start of x for both counters
    oracle_n: int  # n per oracle window
    oracle_at: int  # oracle window band start
    probe_n: int  # n per probe window
    probe_at: int  # probe window band start
    launches: int  # timed launches of the set-up command


FULL = Sizes(
    verify_n=100_000,
    verify_low=50_000_000,
    verify_high=200_000_000_000,
    count_x=20_000_000,
    oracle_n=500,
    oracle_at=100_000,
    probe_n=2_000,
    probe_at=1_000_000,
    launches=7,
)

TINY = Sizes(
    verify_n=300,
    verify_low=50_000,
    verify_high=10_000_000_000,
    count_x=20_000,
    oracle_n=20,
    oracle_at=2_000,
    probe_n=50,
    probe_at=10_000,
    launches=2,
)


@dataclass
class Command:
    """One CLI invocation: arguments, items of work and its output check."""

    args: list[str]
    items: int
    expect: dict
    check: Callable[[str, dict], list[str]]

    def problems(self, code: int, stdout: str, stderr: str) -> list[str]:
        if code != 0:
            return [f"exit status {code}: {stderr.strip()[-200:]}"]
        try:
            return self.check(stdout, self.expect)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]


@dataclass
class Plan:
    name: str
    setup: Command
    commands: list[Command]
    # (label, problems) of the library spot-checks, made while planning
    checks: list[tuple[str, list[str]]] = field(default_factory=list)
    # windows of the structural scan, timed per layer in the traced run
    windows: dict[str, tuple[int, int]] = field(default_factory=dict)


def _parse(stdout: str) -> tuple[list[dict], dict]:
    lines = [json.loads(line) for line in stdout.splitlines()]
    return lines[:-1], lines[-1]


def _band(rng: random.Random, start: int) -> int:
    return start + rng.randrange(max(start // 100, 1))


def _scan_args(lo: int, hi: int, *extra: str) -> list[str]:
    return ["scan", "--from", str(lo), "--to", str(hi), *extra, "--json"]


# --- verify -----------------------------------------------------------------


def _check_verify(stdout: str, expect: dict) -> list[str]:
    rows, env = _parse(stdout)
    res = env["result"]
    problems = []
    if rows or res["violations"] != 0:
        problems.append(f"violations={res['violations']}")
    if (res["n_lo"], res["n_hi"]) != (expect["n_lo"], expect["n_hi"]):
        problems.append(f"window [{res['n_lo']}, {res['n_hi']}]")
    if res["checked"] != expect["checked"]:
        problems.append(f"checked={res['checked']}, expected {expect['checked']}")
    return problems


def _verify_command(lo: int, hi: int) -> Command:
    expect = {"n_lo": lo, "n_hi": hi, "checked": hi - lo + 1}
    return Command(_scan_args(lo, hi), hi - lo + 1, expect, _check_verify)


def _exact_sample(rng: random.Random, lo: int, hi: int) -> list[str]:
    bad = []
    for n in rng.sample(range(lo, hi + 1), min(EXACT_SAMPLES, hi - lo + 1)):
        d = split(n)
        if d.n != n or not verify_exact(d):
            bad.append(f"split({n}) = ({d.m1}, {d.m2}) fails verify_exact")
    return bad


def verify_plan(seed: int, sizes: Sizes) -> Plan:
    rng = random.Random(f"verify/{seed}")
    plan = Plan("verify", _verify_command(4, 10), [])
    for label, start in (("low", sizes.verify_low), ("high", sizes.verify_high)):
        lo = _band(rng, start)
        hi = lo + sizes.verify_n - 1
        plan.windows[label] = (lo, hi)
        plan.commands.append(_verify_command(lo, hi))
        plan.checks.append((f"verify_exact.{label}", _exact_sample(rng, lo, hi)))
    return plan


# --- count ------------------------------------------------------------------


def _check_count(stdout: str, expect: dict) -> list[str]:
    rows, env = _parse(stdout)
    res = env["result"]
    if rows or res["x"] != expect["x"] or res["count"] != expect["count"]:
        return [f"x={res['x']} count={res['count']}, expected {expect}"]
    return []


def _table_spot_check(rng: random.Random, table) -> list[str]:
    bad = []
    for m in rng.sample(range(1, table.limit + 1), min(TABLE_SAMPLES, table.limit)):
        if table[m] != radical(m):
            bad.append(f"sieve k({m}) = {table[m]}, radical gives {radical(m)}")
    return bad


def _half_count(values: np.ndarray, x: int, block: int = 1 << 22) -> int:
    """Exact int64 count of 1 <= m <= x with k(m)**2 <= m, block by block."""
    total = 0
    for lo in range(1, x + 1, block):
        hi = min(lo + block, x + 1)
        k = values[lo:hi].astype(np.int64)
        total += int(np.count_nonzero(k * k <= np.arange(lo, hi, dtype=np.int64)))
    return total


def _count_command(x: int, count: int, *param: str) -> Command:
    args = ["count", *param, "--limit", str(x), "--json"]
    return Command(args, x, {"x": x, "count": count}, _check_count)


def count_plan(seed: int, sizes: Sizes) -> Plan:
    rng = random.Random(f"count/{seed}")
    x = _band(rng, sizes.count_x)
    table = radical_sieve(x)
    half = _half_count(table.values, x)
    checks = [("count.table", _table_spot_check(rng, table))]
    del table
    small = sum(1 for m in range(1, 101) if radical(m) ** 2 <= m)
    return Plan(
        "count",
        _count_command(100, small, "--theta", "1/2"),
        [
            _count_command(x, half, "--theta", "1/2"),
            # gamma 0 drops only m = 1 from the theta 1/2 class
            _count_command(x, half - 1, "--gamma", "0"),
        ],
        checks,
    )


# --- oracle -----------------------------------------------------------------


def brute_best(n: int) -> tuple[int, Fraction]:
    """Smallest m1 minimising max(k(m1)**2/m1, k(m2)**2/m2), by factoring."""
    best = None
    for m1 in range(2, n // 2 + 1):
        m2 = n - m1
        q = max(Fraction(radical(m1) ** 2, m1), Fraction(radical(m2) ** 2, m2))
        if best is None or q < best[1]:
            best = (m1, q)
    return best


def _check_oracle(stdout: str, expect: dict) -> list[str]:
    rows, env = _parse(stdout)
    res = env["result"]
    problems = []
    if res["violations"] != 0 or res["checked"] != expect["checked"]:
        problems.append(f"violations={res['violations']} checked={res['checked']}, expected 0 and {expect['checked']}")
    if [r["n"] for r in rows] != list(range(expect["n_lo"], expect["n_hi"] + 1)):
        problems.append("rows do not cover the window in order")
    for r in rows:
        n = r["n"]
        if r["split_m1"] + r["split_m2"] != n or r["oracle_m1"] + r["oracle_m2"] != n:
            problems.append(f"n={n}: parts do not sum to n")
        if Fraction(r["oracle_quality"]) > Fraction(r["split_quality"]):
            problems.append(f"n={n}: oracle worse than split")
        if n in expect["best"]:
            m1, q = expect["best"][n]
            if (r["oracle_m1"], Fraction(r["oracle_quality"])) != (m1, q):
                problems.append(f"n={n}: oracle ({r['oracle_m1']}, {r['oracle_quality']}), brute ({m1}, {q})")
    return problems


def _oracle_command(lo: int, hi: int, best: dict, *extra: str) -> Command:
    expect = {"n_lo": lo, "n_hi": hi, "checked": hi - lo + 1, "best": best}
    return Command(_scan_args(lo, hi, "--oracle", *extra), hi - lo + 1, expect, _check_oracle)


def _check_probe(stdout: str, expect: dict) -> list[str]:
    rows, env = _parse(stdout)
    res = env["result"]
    problems = []
    if res["checked"] != expect["checked"]:
        problems.append(f"checked={res['checked']}, expected {expect['checked']}")
    if [r["n"] for r in rows] != list(range(expect["n_lo"], expect["n_hi"] + 1)):
        problems.append("rows do not cover the window in order")
    if res["failing"] != [r["n"] for r in rows if not r["ok"]]:
        problems.append("failing list disagrees with the rows")
    for r in rows:
        n = r["n"]
        if r["ok"] and not (2 <= r["m1"] <= r["m2"] and r["m1"] + r["m2"] == n):
            problems.append(f"n={n}: bad parts ({r['m1']}, {r['m2']})")
        if n in expect["smallest"] and r["m1"] != expect["smallest"][n]:
            problems.append(f"n={n}: probe m1={r['m1']}, exact search {expect['smallest'][n]}")
    return problems


def _smallest_parts(table, ns: list[int]) -> dict[int, int | None]:
    """Smallest m1 with k(m)**2 <= m for both parts, in exact int64 terms."""
    k = table.values.astype(np.int64)
    good = k * k <= np.arange(table.limit + 1, dtype=np.int64)
    good[:2] = False  # parts are >= 2
    members = np.flatnonzero(good).tolist()
    out = {}
    for n in ns:
        out[n] = next((g for g in members if g <= n // 2 and good[n - g]), None)
    return out


def oracle_plan(seed: int, sizes: Sizes) -> Plan:
    rng = random.Random(f"oracle/{seed}")
    lo = _band(rng, sizes.oracle_at)
    hi = lo + sizes.oracle_n - 1
    sample = rng.randrange(lo, hi + 1)
    oracle = _oracle_command(lo, hi, {sample: brute_best(sample)}, "--force")

    plo = _band(rng, sizes.probe_at)
    phi = plo + sizes.probe_n - 1
    table = radical_sieve(phi)
    ns = rng.sample(range(plo, phi + 1), min(PROBE_SAMPLES, sizes.probe_n))
    expect = {"n_lo": plo, "n_hi": phi, "checked": sizes.probe_n, "smallest": _smallest_parts(table, ns)}
    probe = Command(_scan_args(plo, phi, "--gamma", "0", "--force"), sizes.probe_n, expect, _check_probe)
    checks = [("probe.table", _table_spot_check(rng, table))]

    setup = _oracle_command(4, 10, {n: brute_best(n) for n in range(4, 11)})
    return Plan("oracle", setup, [oracle, probe], checks)


PLANS = {"verify": verify_plan, "count": count_plan, "oracle": oracle_plan}
