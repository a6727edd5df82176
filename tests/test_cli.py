"""Command-line interface tests via click's test runner."""

import contextlib
import csv
import io
import json
import os
import re
import sys
from fractions import Fraction
from itertools import count
from types import SimpleNamespace
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings, strategies as st

import kernsplit.cli
import kernsplit.decompose
import kernsplit.kernel
import kernsplit.oracle
import kernsplit.powered
from dense_reference import plain_probe
from kernsplit.cli import _ECHO_BLOCK, _emit, _grid, cli
from kernsplit.decompose import RangeScanReport, split
from kernsplit.kernel import radical_sieve
from kernsplit.oracle import ComparisonReport, ProbeReport
from kernsplit.powered import Theta, count_members

runner = CliRunner()


def last_json_line(output: str) -> dict:
    lines = [ln for ln in output.strip().splitlines() if ln]
    return json.loads(lines[-1])


class TestRadical:
    def test_human(self):
        result = runner.invoke(cli, ["radical", "360"])
        assert result.exit_code == 0
        assert "radical=30" in result.output
        assert "2^3*3^2*5" in result.output

    def test_json_envelope(self):
        result = runner.invoke(cli, ["radical", "360", "--json"])
        assert result.exit_code == 0
        env = last_json_line(result.output)
        assert env["command"] == "radical"
        assert env["params"] == {"m": 360}
        assert env["result"]["radical"] == 30
        assert env["result"]["factors"] == [[2, 3], [3, 2], [5, 1]]
        assert "elapsed_ms" in env

    def test_error_exit(self):
        result = runner.invoke(cli, ["radical", "0"])
        assert result.exit_code == 1

    def test_too_large_is_an_error(self):
        result = runner.invoke(cli, ["radical", str(10**13)])
        assert result.exit_code == 1
        assert "too large" in result.output


class TestDecompose:
    def test_human_verified(self):
        result = runner.invoke(cli, ["decompose", "100", "--verify", "exact"])
        assert result.exit_code == 0
        assert "m1=64" in result.output and "m2=36" in result.output
        assert "verified=true" in result.output

    def test_structural_verify(self):
        result = runner.invoke(cli, ["decompose", "100", "--verify", "structural"])
        assert result.exit_code == 0
        assert "verified=true" in result.output

    def test_fallback(self):
        result = runner.invoke(cli, ["decompose", "5", "--verify", "structural"])
        # structural downgrades to exact for the witnessless small cases
        assert result.exit_code == 0
        assert "m1=2 m2=3" in result.output
        assert "fallback=true" in result.output

    def test_json_round_trip(self):
        result = runner.invoke(cli, ["decompose", "100", "--json"])
        env = last_json_line(result.output)
        assert env["result"] == split(100).to_record() | {"verified": None}

    def test_json_round_trip_fallback(self):
        result = runner.invoke(cli, ["decompose", "4", "--json"])
        env = last_json_line(result.output)
        assert env["result"] == split(4).to_record() | {"verified": None}

    def test_csv(self):
        result = runner.invoke(cli, ["decompose", "100", "--csv"])
        lines = result.output.strip().splitlines()
        assert lines[0] == "n,m1,m2,a,b,U,V,W,w,fallback,verified"
        assert lines[1].startswith("100,64,36,3,2,11,12,3,4,False")

    def test_error_exit(self):
        result = runner.invoke(cli, ["decompose", "3"])
        assert result.exit_code == 1

    def test_exact_verify_too_large_is_an_error(self):
        # the refusal comes from verify_exact, after the split succeeded
        result = runner.invoke(cli, ["decompose", str(10**19), "--verify", "exact"])
        assert result.exit_code == 1
        assert "error: " in result.output and "too large" in result.output

    def test_flag_conflict(self):
        result = runner.invoke(cli, ["decompose", "100", "--json", "--csv"])
        assert result.exit_code != 0


class TestCount:
    def test_theta(self):
        result = runner.invoke(cli, ["count", "--theta", "1/2", "--limit", "100"])
        assert result.exit_code == 0
        assert "count=17" in result.output

    def test_theta_one(self):
        result = runner.invoke(cli, ["count", "--theta", "1", "--limit", "50"])
        assert "count=50" in result.output

    def test_gamma(self):
        result = runner.invoke(cli, ["count", "--gamma", "0", "--limit", "100"])
        assert "count=16" in result.output

    def test_json_round_trip(self):
        result = runner.invoke(
            cli, ["count", "--theta", "1/2", "--limit", "100", "--json"]
        )
        env = last_json_line(result.output)
        assert env["result"] == count_members(100, Theta(1, 2)).to_record()

    def test_requires_exactly_one_parameter(self):
        assert runner.invoke(cli, ["count", "--limit", "10"]).exit_code != 0
        assert (
            runner.invoke(
                cli, ["count", "--theta", "1/2", "--gamma", "1", "--limit", "10"]
            ).exit_code
            != 0
        )

    def test_bad_theta(self):
        result = runner.invoke(cli, ["count", "--theta", "2", "--limit", "10"])
        assert result.exit_code == 1

    def test_csv(self):
        result = runner.invoke(
            cli, ["count", "--theta", "1/2", "--limit", "100", "--csv"]
        )
        lines = result.output.strip().splitlines()
        assert lines[0] == "x,theta,count,normalized"
        assert lines[1].startswith("100,1/2,17,")

    def test_past_the_sieve_budget(self):
        result = runner.invoke(cli, ["count", "--theta", "1/2", "--limit", "2000000000"])
        assert result.exit_code == 0
        assert "count=557837" in result.output

    def test_log_weighted_past_the_sieve_budget(self):
        # e**40 > x: every m lies below e**(2*gamma), and none is sieved
        result = runner.invoke(cli, ["count", "--gamma", "20", "--limit", "2147483648"])
        assert result.exit_code == 0
        assert "count=2147483646 " in result.output

    @pytest.mark.parametrize(
        ("args", "error"),
        [
            (
                ["--theta", "3/4", "--limit", "100000000000000"],
                "counting up to x=100000000000000 implies ~142 s and ~0 bytes, over the budget of 60 s and 1 GiB",
            ),
            # e**40 > x: every b searches both ends of its interval, two visits each
            (
                ["--gamma", "20", "--limit", "100000000000000"],
                "counting up to x=100000000000000 implies ~272 s and ~0 bytes, over the budget of 60 s and 1 GiB",
            ),
            # theta visits pay for their integer powers of ~40k bits
            (
                ["--theta", "997/1000", "--limit", "1000000000000"],
                "counting up to x=1000000000000 implies ~522 s and ~0 bytes, over the budget of 60 s and 1 GiB",
            ),
            # theta = 1/2 visits only the b that are no leaves of the walk: 1e14 is admitted
            (
                ["--theta", "1/2", "--limit", "10000000000000000"],
                "counting up to x=10000000000000000 implies ~165 s and ~0 bytes, over the budget of 60 s and 1 GiB",
            ),
        ],
    )
    def test_over_budget_is_an_error(self, args, error):
        # a count cannot be forced, so its refusal does not name --force
        result = runner.invoke(cli, ["count", *args])
        assert isinstance(result.exception, SystemExit) and result.exit_code == 1
        assert result.output == f"error: {error}\n"


class TestLimitPastTheFloatRange:
    """A --limit of 400 or 800 digits is refused by the one budget with one error line before any walk, or answered at theta = 1."""

    @pytest.mark.parametrize("limit", [10**400, 10**800], ids=["1e400", "1e800"])
    @pytest.mark.parametrize(
        "args",
        [
            ["count", "--theta", "1/2"],
            ["count", "--theta", "3/4"],
            ["count", "--theta", "1/1"],
            ["count", "--gamma", "0"],
            ["count", "--gamma", "0.5"],
            ["count", "--gamma", "-0.5"],
            ["logratio"],
        ],
        ids=" ".join,
    )
    def test_refused_or_answered(self, monkeypatch, args, limit):
        def no_walk(*args, **kwargs):
            raise AssertionError("walked before the price was checked")

        monkeypatch.setattr(kernsplit.powered, "powerful_sum", no_walk)
        result = runner.invoke(cli, [*args, "--limit", str(limit)])
        if args[-1] == "1/1":  # every m counts, with no walk
            assert (result.exit_code, result.output) == (0, f"x={limit} theta=1/1 count={limit} normalized=1\n")
        else:
            assert isinstance(result.exception, SystemExit) and result.exit_code == 1
            assert result.output.startswith("error: ") and result.output.count("\n") == 1
            assert result.output.endswith(", over the budget of 60 s and 1 GiB\n")


class TestScan:
    def test_verify_mode_clean(self):
        result = runner.invoke(cli, ["scan", "--from", "4", "--to", "1000"])
        assert result.exit_code == 0
        assert "violations=0" in result.output

    @pytest.mark.parametrize(
        "lo, hi",
        [(4, 10**15), (2**58, 2**58 + 10**7 - 1), (4, 10**30)],
    )
    def test_verify_mode_answers_at_any_size(self, lo, hi):
        # residue classes, not n: each of these takes milliseconds
        result = runner.invoke(cli, ["scan", "--from", str(lo), "--to", str(hi)])
        assert result.exit_code == 0
        assert result.output == f"n_lo={lo} n_hi={hi} checked={hi - lo + 1} violations=0\n"

    @pytest.mark.parametrize("form", [[], ["--json"], ["--csv"]], ids=["human", "json", "csv"])
    def test_verify_mode_prints_its_violations(self, monkeypatch, form):
        # a tighter kernel bound fails some n: each is a row, read once as it prints, and the scan exits 1
        monkeypatch.setattr(kernsplit.decompose, "KERNEL_BOUND_4TH", 100)
        want = kernsplit.decompose.verify_range(15, 20).violations
        result = runner.invoke(cli, ["scan", "--from", "15", "--to", "20", *form])
        assert result.exit_code == 1 and len(want) == 5
        lines = result.output.splitlines()
        if form == ["--json"]:
            assert [(r["n"], r["reason"]) for r in map(json.loads, lines[:-1])] == list(want)
        elif form == ["--csv"]:
            assert lines == ["n,reason", *(f"{n},{reason}" for n, reason in want)]
        else:
            assert lines[:-1] == [f"n={n} reason={reason}" for n, reason in want]

    def test_bad_range(self):
        result = runner.invoke(cli, ["scan", "--from", "10", "--to", "4"])
        assert result.exit_code == 1

    def test_oracle_mode_json(self):
        result = runner.invoke(
            cli, ["scan", "--from", "4", "--to", "100", "--oracle", "--json"]
        )
        assert result.exit_code == 0
        lines = [json.loads(ln) for ln in result.output.strip().splitlines()]
        rows, env = lines[:-1], lines[-1]
        assert len(rows) == 97
        assert env["result"]["violations"] == 0
        for row in rows:
            assert Fraction(row["oracle_quality"]) <= Fraction(row["split_quality"])

    def test_probe_mode(self):
        result = runner.invoke(
            cli, ["scan", "--from", "4", "--to", "50", "--gamma", "0", "--json"]
        )
        assert result.exit_code == 0
        env = last_json_line(result.output)
        assert env["result"]["failing"][:5] == [4, 5, 6, 7, 9]

    def test_mode_conflict(self):
        result = runner.invoke(
            cli, ["scan", "--from", "4", "--to", "50", "--gamma", "0", "--oracle"]
        )
        assert result.exit_code != 0

    def test_force_guard(self):
        # two million rows are over the budget's bytes: refused before anything is enumerated
        result = runner.invoke(
            cli, ["scan", "--from", "4", "--to", "2000000", "--oracle"]
        )
        assert result.exit_code == 1
        assert "--force" in result.output

    @pytest.mark.parametrize("mode", [["--oracle"], ["--gamma", "3"]])
    def test_quadratic_refusal_names_force(self, mode):
        # the rows and the walk fit, with the parts (G near 6e10) or the pairs (a dense probe set) they do not
        lo, hi = (60_000_000_000, 60_000_000_100) if mode == ["--oracle"] else (4, 150_000)
        result = runner.invoke(cli, ["scan", "--from", str(lo), "--to", str(hi), *mode])
        assert result.exit_code == 1
        assert result.output.startswith(f"error: scan of [{lo}, {hi}] implies ~")
        assert "--force" in result.output
        assert "allow_large" not in result.output

    @pytest.mark.parametrize(
        ("lo", "hi", "mode", "admitted"),
        [
            (100_000, 100_010, ["--oracle"], True),
            (4, 100_000, ["--gamma", "0"], True),
            (4, 2 * 10**6, ["--oracle"], False),  # on its rows' bytes, before the walk
            (4, 150_000, ["--gamma", "3"], False),  # on its pairs, a dense set
            (4, 2 * 10**6, ["--gamma", "0"], False),  # on its rows' bytes, before any part
            (900_000_000, 900_000_000, ["--oracle"], True),  # no table: 1.2e6 parts from the powerful numbers
            (4, 60_000, ["--gamma", "10"], True),  # every pair of a dense set fits the budget
        ],
    )
    def test_library_and_cli_refuse_alike(self, lo, hi, mode, admitted):
        from kernsplit import oracle as orc

        try:
            if mode[0] == "--oracle":
                orc.constructive_vs_oracle(lo, hi)
            else:
                orc.conjecture_probe(lo, hi, kernsplit.powered._log_weighted_class(float(mode[1])))
            expected = (0, None)
        except ValueError as exc:
            expected = (1, f"error: {exc}\n")
        assert expected[0] == (0 if admitted else 1)
        result = runner.invoke(cli, ["scan", "--from", str(lo), "--to", str(hi), *mode, "--csv"])
        assert (result.exit_code, None if result.exit_code == 0 else result.output) == expected

    @pytest.mark.parametrize("force", [[], ["--force"]])
    @pytest.mark.parametrize("mode", [["--oracle"], ["--gamma", "0"]])
    @pytest.mark.parametrize("lo, hi", [(50000001, 50000000), (900000001, 900000000), (3, 10)])
    def test_bad_range_refused_before_sieving(self, monkeypatch, lo, hi, mode, force):
        def no_parts(*args, **kwargs):
            raise AssertionError("enumerated before checking the range")

        monkeypatch.setattr("kernsplit.oracle.kernel_bounded", no_parts)
        result = runner.invoke(cli, ["scan", "--from", str(lo), "--to", str(hi), *mode, *force])
        assert result.exit_code == 1
        assert result.output == f"error: need 4 <= n_lo <= n_hi, got [{lo}, {hi}]\n"

    def test_collector_runs_in_the_body(self, monkeypatch):
        # rows are built as they print, so nothing piles up for the cyclic collector to pause for
        import gc

        import kernsplit.decompose

        seen = []
        real = kernsplit.decompose.verify_range

        def recording(lo, hi):
            seen.append(gc.isenabled())
            return real(lo, hi)

        monkeypatch.setattr(kernsplit.decompose, "verify_range", recording)
        assert runner.invoke(cli, ["scan", "--from", "4", "--to", "10"]).exit_code == 0
        assert seen == [True] and gc.isenabled()
        assert runner.invoke(cli, ["scan", "--from", "10", "--to", "4"]).exit_code == 1
        assert gc.isenabled()
        assert gc.get_freeze_count() == 0

    def test_oracle_csv_header(self):
        result = runner.invoke(
            cli, ["scan", "--from", "4", "--to", "10", "--oracle", "--csv"]
        )
        lines = result.output.strip().splitlines()
        assert lines[0] == (
            "n,split_m1,split_m2,split_quality,split_fallback,"
            "oracle_m1,oracle_m2,oracle_quality,ok"
        )
        assert len(lines) == 8


class TestBudget:
    """Every refusal over the budget comes from ``kernel.check_budget``, in one form, before any work."""

    @pytest.mark.parametrize(
        ("case", "what"),
        [
            ("scan --from 4 --to 100 --oracle", "scan of [4, 100]"),
            ("scan --from 4 --to 100 --gamma 0.5", "scan of [4, 100]"),
            ("count --theta 3/4 --limit 1000", "counting up to x=1000"),
            ("count --gamma 0.5 --limit 1000", "counting up to x=1000"),
            ("logratio --limit 1000", "counting 1 points up to x=1000"),  # the largest point alone is over
            ("radical_sieve 1000", "sieving up to x=1000"),
        ],
        ids=["scan --oracle", "scan --gamma 0.5", "count --theta 3/4", "count --gamma 0.5", "logratio", "radical_sieve"],
    )
    def test_refused_before_any_work(self, monkeypatch, case, what):
        import numpy as np

        def work(*args, **kwargs):
            raise AssertionError("worked past the budget")

        helpers = []
        real = kernsplit.kernel.check_budget

        def through(*args, **kwargs):
            helpers.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(kernsplit.kernel, "WORK_LIMIT_S", 0)
        monkeypatch.setattr(kernsplit.kernel, "MEMORY_LIMIT", 0)
        for module, name in [
            (kernsplit.kernel, "powerful_sum"),
            (kernsplit.powered, "powerful_sum"),
            (kernsplit.oracle, "kernel_bounded"),
            (np, "zeros"),  # the sieve's table
        ]:
            monkeypatch.setattr(module, name, work)
        for module in (kernsplit.kernel, kernsplit.oracle, kernsplit.powered):
            monkeypatch.setattr(module, "check_budget", through)
        if case.startswith("radical_sieve"):
            with pytest.raises(ValueError) as info:
                radical_sieve(1000)
            output = f"error: {info.value}\n"
        else:
            result = runner.invoke(cli, case.split())
            assert result.exit_code == 1
            output = result.output
        hint = "; rerun with --force to proceed" if case.startswith("scan") else ""
        form = rf"error: {re.escape(what)} implies ~\S+ s and ~\S+ bytes, over the budget of 0 s and 0 GiB{re.escape(hint)}\n"
        assert re.fullmatch(form, output), output
        assert helpers == [what]


class TestLogRatio:
    def test_table_shape(self):
        result = runner.invoke(
            cli, ["logratio", "--limit", "2000", "--gamma", "1", "--points", "3", "--json"]
        )
        assert result.exit_code == 0
        lines = [json.loads(ln) for ln in result.output.strip().splitlines()]
        rows, env = lines[:-1], lines[-1]
        assert env["command"] == "logratio"
        assert rows[-1]["x"] == 2000
        for row in rows:
            assert set(row) == {"x", "weighted_count", "half_count", "ratio"}
            assert row["ratio"] > 0

    def test_long_grid_refused_on_its_largest_points(self):
        # 6,084,955 distinct points up to 1e13: the two largest are over the budget, and the rest are never built
        result = runner.invoke(cli, ["logratio", "--limit", "10000000000000", "--points", "10000000"])
        assert isinstance(result.exception, SystemExit) and result.exit_code == 1
        assert result.output == (
            "error: counting 2 points up to x=10000000000000 implies ~101 s and ~0 bytes, over the budget of 60 s and 1 GiB\n"
        )

    def test_long_grid_gives_the_rows_of_a_short_one(self):
        # both grids reach every x in [10, 100], and a run of i that rounds to one x is skipped, not walked
        short, long = (runner.invoke(cli, ["logratio", "--limit", "100", "--points", p, "--csv"]) for p in ("1000", "1000000000"))
        assert short.exit_code == long.exit_code == 0
        assert long.output == short.output and short.output.count("\n") == 1 + 91

    def test_grid_past_every_integer_is_cut(self):
        # 1000 points already reach every x in [10, 100]: 10**400 give the same grid, with no float overflow
        assert list(_grid(100, 10**400)) == list(_grid(100, 1000)) == list(range(100, 9, -1))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=10, max_value=2**53 - 1), st.integers(min_value=1, max_value=3000))
    def test_grid_is_the_set_of_its_points(self, limit, points):
        # below 2**53, limit ** 1.0 rounds back to limit
        want = {max(10, round(limit ** (i / points))) for i in range(1, points + 1)} | {limit}
        assert list(_grid(limit, points)) == sorted(want, reverse=True)

    def test_default_grid_at_1e9_is_admitted(self, monkeypatch):
        # every point is charged, and the five default points up to 1e9 still fit
        class Walked(Exception):
            pass

        def walk(*args):
            raise Walked

        monkeypatch.setattr("kernsplit.powered.powerful_sum", walk)
        result = runner.invoke(cli, ["logratio", "--limit", "1000000000"])
        assert isinstance(result.exception, Walked)


class TestNonFiniteGamma:
    """A non-finite gamma is refused by its class, with one error line and before any walk, however large the limit."""

    @pytest.fixture(autouse=True)
    def no_walk(self, monkeypatch):
        def walk(*args, **kwargs):
            raise AssertionError("walked before gamma was checked")

        monkeypatch.setattr(kernsplit.powered, "powerful_sum", walk)
        monkeypatch.setattr(kernsplit.kernel, "powerful_sum", walk)

    def refused(self, args, gamma):
        result = runner.invoke(cli, [*args, "--gamma", gamma])
        assert isinstance(result.exception, SystemExit) and result.exit_code == 1
        assert re.fullmatch(r"error: gamma must be finite, got (nan|-?inf)\n", result.output)

    # -inf and -nan are values, not option strings
    @pytest.mark.parametrize("gamma", ["nan", "inf", "-inf", "-nan"])
    @pytest.mark.parametrize(
        "args",
        [
            ["count", "--limit", "100"],
            ["scan", "--from", "4", "--to", "50"],
            ["logratio", "--limit", "100"],
        ],
    )
    def test_error_exit(self, args, gamma):
        self.refused(args, gamma)

    # past the float range a count's price is nan or inf: gamma must be refused before it is priced
    @pytest.mark.parametrize("limit", [10**400, 10**800], ids=["1e400", "1e800"])
    @pytest.mark.parametrize("gamma", ["nan", "inf", "-inf", "-nan"])
    @pytest.mark.parametrize("args", [["count", "--limit"], ["scan", "--from", "4", "--to"], ["logratio", "--limit"]], ids=" ".join)
    def test_error_exit_past_the_float_range(self, args, gamma, limit):
        self.refused([*args, str(limit)], gamma)

    def test_probe_refused_before_it_is_priced(self, monkeypatch):
        # the CLI builds the probe's class, which refuses gamma before the scan prices or enumerates anything
        def scan(*args, **kwargs):
            raise AssertionError("priced before gamma was checked")

        monkeypatch.setattr(kernsplit.oracle, "_admit", scan)
        monkeypatch.setattr(kernsplit.oracle, "kernel_bounded", scan)
        for gamma in ("nan", "inf", "-inf"):
            self.refused(["scan", "--from", "40000000", "--to", "40000000"], gamma)


class TestLargeGamma:
    # ln(x)**gamma overflows at 1e308 and underflows to 0 at -1e308
    @pytest.mark.parametrize("gamma", ["1e308", "-1e308"])
    @pytest.mark.parametrize(
        ("args", "x"),
        [(["count", "--limit", "100"], 100), (["logratio", "--limit", "100"], 10)],
    )
    def test_error_exit(self, args, x, gamma):
        result = runner.invoke(cli, [*args, "--gamma", gamma])
        assert isinstance(result.exception, SystemExit) and result.exit_code == 1
        assert result.output == (
            "error: normalization by ln(x)**gamma is not a finite non-zero float "
            f"at gamma={float(gamma)}, x={x}\n"
        )

    def test_probe_still_runs(self):
        result = runner.invoke(cli, ["scan", "--from", "4", "--to", "20", "--gamma", "1e308"])
        assert result.exit_code == 0
        assert result.output.endswith(
            "n_lo=4 n_hi=20 gamma=1e+308 checked=17 satisfied=15 failing=[4, 5]\n"
        )

    def test_probe_at_negative_overflow(self):
        # ln(m)**-2e308 is 0 for m >= 3 and overflows at m = 2: only 4 = 2 + 2 splits
        result = runner.invoke(cli, ["scan", "--from", "4", "--to", "20", "--gamma", "-1e308"])
        assert result.exit_code == 0
        assert result.output.endswith(
            f"n_lo=4 n_hi=20 gamma=-1e+308 checked=17 satisfied=1 failing={list(range(5, 21))}\n"
        )


# Full terminal output (stdout, then any error line) and exit status of
# every command in each output form.  Covers cases the targeted tests
# above do not: the probe shows only failing rows in human form,
# logratio prints no summary line, verify-mode CSV without violations
# falls back to the summary row, radical's JSON has ``factors`` while its
# CSV has ``factorization``, a witnessless CSV row has empty cells, and
# CSV lines end in \r\n.  A usage error prints the usage and one error
# line and exits 2.  The help texts pin each command's options in their
# order.
GOLDEN = [
    ('radical 360', 0, 'm=360 radical=30 factorization=2^3*3^2*5\n'),
    (
        'radical 360 --json',
        0,
        (
            '{"command": "radical", "params": {"m": 360}, "result": {"m": 360, "radical": 30, "factors": [[2, 3], [3, 2], [5, 1]]}, "elapsed_ms": 0}\n'
        ),
    ),
    (
        'radical 360 --csv',
        0,
        (
            'm,radical,factorization\r\n'
            '360,30,2^3*3^2*5\r\n'
        ),
    ),
    ('radical 1', 0, 'm=1 radical=1 factorization=1\n'),
    ('radical 0', 1, 'error: cannot factor 0: expected an integer >= 1\n'),
    (
        'radical 10000000000000',
        1,
        (
            'error: 10000000000000 is too large to factor by trial division (limit 1000000000000)\n'
        ),
    ),
    (
        'decompose 100 --verify structural',
        0,
        (
            'n=100 m1=64 m2=36 a=3 b=2 U=11 V=12 W=3 w=4 fallback=false verified=true\n'
        ),
    ),
    (
        'decompose 100 --verify exact --json',
        0,
        (
            '{"command": "decompose", "params": {"n": 100, "verify": "exact"}, "result": {"n": 100, "m1": 64, "m2": 36, "a": 3, "b": 2, "U": 11, "V": 12, "W": 3, "w": 4, "fallback": false, "verified": true}, "elapsed_ms": 0}\n'
        ),
    ),
    (
        'decompose 100 --csv',
        0,
        (
            'n,m1,m2,a,b,U,V,W,w,fallback,verified\r\n'
            '100,64,36,3,2,11,12,3,4,False,\r\n'
        ),
    ),
    (
        'decompose 4',
        0,
        (
            'n=4 m1=2 m2=2 a=- b=- U=- V=- W=- w=- fallback=true verified=-\n'
        ),
    ),
    (
        'decompose 4 --csv',
        0,
        (
            'n,m1,m2,a,b,U,V,W,w,fallback,verified\r\n'
            '4,2,2,,,,,,,True,\r\n'
        ),
    ),
    (
        'decompose 5 --verify structural --json',
        0,
        (
            '{"command": "decompose", "params": {"n": 5, "verify": "structural"}, "result": {"n": 5, "m1": 2, "m2": 3, "a": null, "b": null, "U": null, "V": null, "W": null, "w": null, "fallback": true, "verified": true}, "elapsed_ms": 0}\n'
        ),
    ),
    ('decompose 3', 1, 'error: no guaranteed decomposition for n=3; need n >= 4\n'),
    ('count --theta 1/2 --limit 100', 0, 'x=100 theta=1/2 count=17 normalized=1.7\n'),
    (
        'count --theta 1/2 --limit 100 --json',
        0,
        (
            '{"command": "count", "params": {"theta": "1/2", "limit": 100}, "result": {"x": 100, "theta": "1/2", "count": 17, "normalized": 1.7}, "elapsed_ms": 0}\n'
        ),
    ),
    (
        'count --theta 1/2 --limit 100 --csv',
        0,
        (
            'x,theta,count,normalized\r\n'
            '100,1/2,17,1.7\r\n'
        ),
    ),
    # a theta not in lowest terms prints as its class names it, in params and result alike
    ('count --theta 2/4 --limit 100', 0, 'x=100 theta=1/2 count=17 normalized=1.7\n'),
    (
        'count --theta 2/4 --limit 100 --json',
        0,
        (
            '{"command": "count", "params": {"theta": "1/2", "limit": 100}, "result": {"x": 100, "theta": "1/2", "count": 17, "normalized": 1.7}, "elapsed_ms": 0}\n'
        ),
    ),
    ('count --gamma 0 --limit 100', 0, 'x=100 gamma=0 count=16 normalized=1.6\n'),
    (
        'count --gamma 0 --limit 100 --json',
        0,
        (
            '{"command": "count", "params": {"gamma": 0.0, "limit": 100}, "result": {"x": 100, "gamma": 0.0, "count": 16, "normalized": 1.6}, "elapsed_ms": 0}\n'
        ),
    ),
    (
        'count --gamma 0 --limit 100 --csv',
        0,
        (
            'x,gamma,count,normalized\r\n'
            '100,0.0,16,1.6\r\n'
        ),
    ),
    ('count --theta 2 --limit 10', 1, "error: theta must be <= 1, got 2/1\n"),
    ('scan --from 4 --to 1000', 0, 'n_lo=4 n_hi=1000 checked=997 violations=0\n'),
    (
        'scan --from 4 --to 1000 --json',
        0,
        (
            '{"command": "scan", "params": {"from": 4, "to": 1000, "mode": "verify"}, "result": {"n_lo": 4, "n_hi": 1000, "checked": 997, "violations": 0}, "elapsed_ms": 0}\n'
        ),
    ),
    (
        'scan --from 4 --to 1000 --csv',
        0,
        (
            'n_lo,n_hi,checked,violations\r\n'
            '4,1000,997,0\r\n'
        ),
    ),
    ('scan --from 10 --to 4', 1, 'error: need 4 <= n_lo <= n_hi, got [10, 4]\n'),
    (
        'scan --from 4 --to 8 --oracle',
        0,
        (
            'n=4 split_m1=2 split_m2=2 split_quality=2 split_fallback=true oracle_m1=2 oracle_m2=2 oracle_quality=2 ok=true\n'
            'n=5 split_m1=2 split_m2=3 split_quality=3 split_fallback=true oracle_m1=2 oracle_m2=3 oracle_quality=3 ok=true\n'
            'n=6 split_m1=2 split_m2=4 split_quality=2 split_fallback=true oracle_m1=2 oracle_m2=4 oracle_quality=2 ok=true\n'
            'n=7 split_m1=4 split_m2=3 split_quality=3 split_fallback=false oracle_m1=3 oracle_m2=4 oracle_quality=3 ok=true\n'
            'n=8 split_m1=2 split_m2=6 split_quality=6 split_fallback=false oracle_m1=4 oracle_m2=4 oracle_quality=1 ok=true\n'
            'n_lo=4 n_hi=8 checked=5 violations=0 max_split_quality=6 mean_split_quality=3.2 max_oracle_quality=3 mean_oracle_quality=2.2\n'
        ),
    ),
    (
        'scan --from 4 --to 8 --oracle --json',
        0,
        (
            '{"n": 4, "split_m1": 2, "split_m2": 2, "split_quality": "2", "split_fallback": true, "oracle_m1": 2, "oracle_m2": 2, "oracle_quality": "2", "ok": true}\n'
            '{"n": 5, "split_m1": 2, "split_m2": 3, "split_quality": "3", "split_fallback": true, "oracle_m1": 2, "oracle_m2": 3, "oracle_quality": "3", "ok": true}\n'
            '{"n": 6, "split_m1": 2, "split_m2": 4, "split_quality": "2", "split_fallback": true, "oracle_m1": 2, "oracle_m2": 4, "oracle_quality": "2", "ok": true}\n'
            '{"n": 7, "split_m1": 4, "split_m2": 3, "split_quality": "3", "split_fallback": false, "oracle_m1": 3, "oracle_m2": 4, "oracle_quality": "3", "ok": true}\n'
            '{"n": 8, "split_m1": 2, "split_m2": 6, "split_quality": "6", "split_fallback": false, "oracle_m1": 4, "oracle_m2": 4, "oracle_quality": "1", "ok": true}\n'
            '{"command": "scan", "params": {"from": 4, "to": 8, "mode": "oracle"}, "result": {"n_lo": 4, "n_hi": 8, "checked": 5, "violations": 0, "max_split_quality": "6", "mean_split_quality": 3.2, "max_oracle_quality": "3", "mean_oracle_quality": 2.2}, "elapsed_ms": 0}\n'
        ),
    ),
    (
        'scan --from 4 --to 8 --oracle --csv',
        0,
        (
            'n,split_m1,split_m2,split_quality,split_fallback,oracle_m1,oracle_m2,oracle_quality,ok\r\n'
            '4,2,2,2,True,2,2,2,True\r\n'
            '5,2,3,3,True,2,3,3,True\r\n'
            '6,2,4,2,True,2,4,2,True\r\n'
            '7,4,3,3,False,3,4,3,True\r\n'
            '8,2,6,6,False,4,4,1,True\r\n'
        ),
    ),
    # n = 24's optimum 8 + 16 has quality 1/2: a quality that prints as a fraction
    (
        'scan --from 20 --to 24 --oracle',
        0,
        (
            'n=20 split_m1=14 split_m2=6 split_quality=14 split_fallback=false oracle_m1=4 oracle_m2=16 oracle_quality=1 ok=true\n'
            'n=21 split_m1=12 split_m2=9 split_quality=3 split_fallback=false oracle_m1=3 oracle_m2=18 oracle_quality=3 ok=true\n'
            'n=22 split_m1=16 split_m2=6 split_quality=6 split_fallback=false oracle_m1=4 oracle_m2=18 oracle_quality=2 ok=true\n'
            'n=23 split_m1=20 split_m2=3 split_quality=5 split_fallback=false oracle_m1=3 oracle_m2=20 oracle_quality=5 ok=true\n'
            'n=24 split_m1=12 split_m2=12 split_quality=3 split_fallback=false oracle_m1=8 oracle_m2=16 oracle_quality=1/2 ok=true\n'
            'n_lo=20 n_hi=24 checked=5 violations=0 max_split_quality=14 mean_split_quality=6.2 max_oracle_quality=5 mean_oracle_quality=2.3\n'
        ),
    ),
    (
        'scan --from 20 --to 24 --oracle --json',
        0,
        (
            '{"n": 20, "split_m1": 14, "split_m2": 6, "split_quality": "14", "split_fallback": false, "oracle_m1": 4, "oracle_m2": 16, "oracle_quality": "1", "ok": true}\n'
            '{"n": 21, "split_m1": 12, "split_m2": 9, "split_quality": "3", "split_fallback": false, "oracle_m1": 3, "oracle_m2": 18, "oracle_quality": "3", "ok": true}\n'
            '{"n": 22, "split_m1": 16, "split_m2": 6, "split_quality": "6", "split_fallback": false, "oracle_m1": 4, "oracle_m2": 18, "oracle_quality": "2", "ok": true}\n'
            '{"n": 23, "split_m1": 20, "split_m2": 3, "split_quality": "5", "split_fallback": false, "oracle_m1": 3, "oracle_m2": 20, "oracle_quality": "5", "ok": true}\n'
            '{"n": 24, "split_m1": 12, "split_m2": 12, "split_quality": "3", "split_fallback": false, "oracle_m1": 8, "oracle_m2": 16, "oracle_quality": "1/2", "ok": true}\n'
            '{"command": "scan", "params": {"from": 20, "to": 24, "mode": "oracle"}, "result": {"n_lo": 20, "n_hi": 24, "checked": 5, "violations": 0, "max_split_quality": "14", "mean_split_quality": 6.2, "max_oracle_quality": "5", "mean_oracle_quality": 2.3}, "elapsed_ms": 0}\n'
        ),
    ),
    (
        'scan --from 20 --to 24 --oracle --csv',
        0,
        (
            'n,split_m1,split_m2,split_quality,split_fallback,oracle_m1,oracle_m2,oracle_quality,ok\r\n'
            '20,14,6,14,False,4,16,1,True\r\n'
            '21,12,9,3,False,3,18,3,True\r\n'
            '22,16,6,6,False,4,18,2,True\r\n'
            '23,20,3,5,False,3,20,5,True\r\n'
            '24,12,12,3,False,8,16,1/2,True\r\n'
        ),
    ),
    (
        'scan --from 4 --to 2000000 --oracle',
        1,
        (
            'error: scan of [4, 2000000] implies ~50 s and ~1.7e+09 bytes, over the budget of 60 s and 1 GiB; rerun with --force to proceed\n'
        ),
    ),
    (
        'scan --from 4 --to 2000000 --gamma 0',
        1,
        (
            'error: scan of [4, 2000000] implies ~50 s and ~1.7e+09 bytes, over the budget of 60 s and 1 GiB; rerun with --force to proceed\n'
        ),
    ),
    (
        'scan --from 8 --to 14 --gamma 0',
        0,
        (
            'n=9 ok=false m1=- m2=-\n'
            'n=10 ok=false m1=- m2=-\n'
            'n=11 ok=false m1=- m2=-\n'
            'n=14 ok=false m1=- m2=-\n'
            'n_lo=8 n_hi=14 gamma=0 checked=7 satisfied=3 failing=[9, 10, 11, 14]\n'
        ),
    ),
    (
        'scan --from 8 --to 14 --gamma 0 --json',
        0,
        (
            '{"n": 8, "ok": true, "m1": 4, "m2": 4}\n'
            '{"n": 9, "ok": false, "m1": null, "m2": null}\n'
            '{"n": 10, "ok": false, "m1": null, "m2": null}\n'
            '{"n": 11, "ok": false, "m1": null, "m2": null}\n'
            '{"n": 12, "ok": true, "m1": 4, "m2": 8}\n'
            '{"n": 13, "ok": true, "m1": 4, "m2": 9}\n'
            '{"n": 14, "ok": false, "m1": null, "m2": null}\n'
            '{"command": "scan", "params": {"from": 8, "to": 14, "mode": "probe", "gamma": 0.0}, "result": {"n_lo": 8, "n_hi": 14, "gamma": 0.0, "checked": 7, "satisfied": 3, "failing": [9, 10, 11, 14]}, "elapsed_ms": 0}\n'
        ),
    ),
    (
        'scan --from 8 --to 14 --gamma 0 --csv',
        0,
        (
            'n,ok,m1,m2\r\n'
            '8,True,4,4\r\n'
            '9,False,,\r\n'
            '10,False,,\r\n'
            '11,False,,\r\n'
            '12,True,4,8\r\n'
            '13,True,4,9\r\n'
            '14,False,,\r\n'
        ),
    ),
    # a signed zero gamma keeps its sign in params and result alike
    (
        'scan --from 8 --to 14 --gamma -0.0',
        0,
        (
            'n=9 ok=false m1=- m2=-\n'
            'n=10 ok=false m1=- m2=-\n'
            'n=11 ok=false m1=- m2=-\n'
            'n=14 ok=false m1=- m2=-\n'
            'n_lo=8 n_hi=14 gamma=-0 checked=7 satisfied=3 failing=[9, 10, 11, 14]\n'
        ),
    ),
    (
        'scan --from 8 --to 14 --gamma -0.0 --json',
        0,
        (
            '{"n": 8, "ok": true, "m1": 4, "m2": 4}\n'
            '{"n": 9, "ok": false, "m1": null, "m2": null}\n'
            '{"n": 10, "ok": false, "m1": null, "m2": null}\n'
            '{"n": 11, "ok": false, "m1": null, "m2": null}\n'
            '{"n": 12, "ok": true, "m1": 4, "m2": 8}\n'
            '{"n": 13, "ok": true, "m1": 4, "m2": 9}\n'
            '{"n": 14, "ok": false, "m1": null, "m2": null}\n'
            '{"command": "scan", "params": {"from": 8, "to": 14, "mode": "probe", "gamma": -0.0}, "result": {"n_lo": 8, "n_hi": 14, "gamma": -0.0, "checked": 7, "satisfied": 3, "failing": [9, 10, 11, 14]}, "elapsed_ms": 0}\n'
        ),
    ),
    (
        'logratio --limit 100 --points 2',
        0,
        (
            'x=10 weighted_count=3 half_count=4 ratio=0.325721\n'
            'x=100 weighted_count=36 half_count=17 ratio=0.459841\n'
        ),
    ),
    (
        'logratio --limit 100 --points 2 --json',
        0,
        (
            '{"x": 10, "weighted_count": 3, "half_count": 4, "ratio": 0.32572086142743883}\n'
            '{"x": 100, "weighted_count": 36, "half_count": 17, "ratio": 0.4598412161328549}\n'
            '{"command": "logratio", "params": {"limit": 100, "gamma": 1.0}, "result": {"limit": 100, "gamma": 1.0, "points": 2}, "elapsed_ms": 0}\n'
        ),
    ),
    (
        'logratio --limit 100 --points 2 --csv',
        0,
        (
            'x,weighted_count,half_count,ratio\r\n'
            '10,3,4,0.32572086142743883\r\n'
            '100,36,17,0.4598412161328549\r\n'
        ),
    ),
    ('logratio --limit 100 --gamma nan', 1, 'error: gamma must be finite, got nan\n'),
    (
        'radical 360 --json --csv',
        2,
        (
            'usage: kernsplit radical [--csv] [--json] [--help] M\n'
            'kernsplit radical: error: --json and --csv are mutually exclusive\n'
        ),
    ),
    (
        'count --limit 10',
        2,
        (
            'usage: kernsplit count [--theta TEXT] [--gamma FLOAT] --limit INTEGER [--csv]\n'
            '                       [--json] [--help]\n'
            'kernsplit count: error: exactly one of --theta / --gamma is required\n'
        ),
    ),
    (
        'scan --from 4 --to 50 --gamma 0 --oracle',
        2,
        (
            'usage: kernsplit scan --from INTEGER --to INTEGER [--gamma FLOAT] [--oracle]\n'
            '                      [--force] [--csv] [--json] [--help]\n'
            'kernsplit scan: error: --oracle and --gamma are mutually exclusive\n'
        ),
    ),
    (
        'logratio --limit 5',
        2,
        (
            'usage: kernsplit logratio --limit INTEGER [--gamma FLOAT] [--points INTEGER]\n'
            '                          [--csv] [--json] [--help]\n'
            'kernsplit logratio: error: --limit must be at least 10\n'
        ),
    ),
    (
        'logratio --limit 100 --points 0',
        2,
        (
            'usage: kernsplit logratio --limit INTEGER [--gamma FLOAT] [--points INTEGER]\n'
            '                          [--csv] [--json] [--help]\n'
            'kernsplit logratio: error: --points must be at least 1\n'
        ),
    ),
    (
        'count --theta 1/2 --limit abc',
        2,
        (
            'usage: kernsplit count [--theta TEXT] [--gamma FLOAT] --limit INTEGER [--csv]\n'
            '                       [--json] [--help]\n'
            "kernsplit count: error: argument --limit: invalid int value: 'abc'\n"
        ),
    ),
    (
        'count --theta 1/2 --lim 100',
        2,
        (
            'usage: kernsplit count [--theta TEXT] [--gamma FLOAT] --limit INTEGER [--csv]\n'
            '                       [--json] [--help]\n'
            'kernsplit count: error: the following arguments are required: --limit\n'
        ),
    ),
    (
        '',
        2,
        (
            'usage: kernsplit [--version] [--help] COMMAND ...\n'
            'kernsplit: error: the following arguments are required: COMMAND\n'
        ),
    ),
    (
        '--help',
        0,
        (
            'usage: kernsplit [--version] [--help] COMMAND ...\n'
            '\n'
            'Kernel arithmetic and certified two-part decompositions.\n'
            '\n'
            'options:\n'
            '  --version  Show the version and exit.\n'
            '  --help     Show this message and exit.\n'
            '\n'
            'Commands:\n'
            '  COMMAND\n'
            '    radical  Print k(M) and the factorization of M.\n'
            '    decompose\n'
            '             Split N into m1 + m2 with k(m)**4 <= 432 m**2 for both parts.\n'
            '    count    Count members up to --limit for one exponent parameter.\n'
            '    scan     Verify split(n) over a range; --oracle and --gamma switch modes.\n'
            '    logratio\n'
            '             Exploratory table: weighted count over (ln x)**gamma * sqrt-class\n'
            '             count.\n'
        ),
    ),
    (
        'radical --help',
        0,
        (
            'usage: kernsplit radical [--csv] [--json] [--help] M\n'
            '\n'
            'Print k(M) and the factorization of M.\n'
            '\n'
            'positional arguments:\n'
            '  M\n'
            '\n'
            'options:\n'
            '  --csv   Header row then data rows.\n'
            '  --json  One JSON object per line.\n'
            '  --help  Show this message and exit.\n'
        ),
    ),
    (
        'decompose --help',
        0,
        (
            'usage: kernsplit decompose [--verify {structural,exact}] [--csv] [--json]\n'
            '                           [--help]\n'
            '                           N\n'
            '\n'
            'Split N into m1 + m2 with k(m)**4 <= 432 m**2 for both parts.\n'
            '\n'
            'positional arguments:\n'
            '  N\n'
            '\n'
            'options:\n'
            '  --verify {structural,exact}\n'
            '                        Check the result; structural falls back to exact for n\n'
            '                        in {4,5,6}.\n'
            '  --csv                 Header row then data rows.\n'
            '  --json                One JSON object per line.\n'
            '  --help                Show this message and exit.\n'
        ),
    ),
    (
        'count --help',
        0,
        (
            'usage: kernsplit count [--theta TEXT] [--gamma FLOAT] --limit INTEGER [--csv]\n'
            '                       [--json] [--help]\n'
            '\n'
            'Count members up to --limit for one exponent parameter.\n'
            '\n'
            'options:\n'
            '  --theta TEXT     Exact exponent as p/q, e.g. 1/2.\n'
            '  --gamma FLOAT    Log-weight exponent.\n'
            '  --limit INTEGER  Count members up to this x.\n'
            '  --csv            Header row then data rows.\n'
            '  --json           One JSON object per line.\n'
            '  --help           Show this message and exit.\n'
        ),
    ),
    (
        'scan --help',
        0,
        (
            'usage: kernsplit scan --from INTEGER --to INTEGER [--gamma FLOAT] [--oracle]\n'
            '                      [--force] [--csv] [--json] [--help]\n'
            '\n'
            'Verify split(n) over a range; --oracle and --gamma switch modes.\n'
            '\n'
            'options:\n'
            '  --from INTEGER  First n, inclusive (>= 4).\n'
            '  --to INTEGER    Last n, inclusive.\n'
            '  --gamma FLOAT   Probe log-weighted representability instead.\n'
            '  --oracle        Compare against the exhaustive optimum.\n'
            '  --force         Run an oracle or probe scan past its budget of 60 s and 1 GiB.\n'
            '  --csv           Header row then data rows.\n'
            '  --json          One JSON object per line.\n'
            '  --help          Show this message and exit.\n'
        ),
    ),
    (
        'logratio --help',
        0,
        (
            'usage: kernsplit logratio --limit INTEGER [--gamma FLOAT] [--points INTEGER]\n'
            '                          [--csv] [--json] [--help]\n'
            '\n'
            'Exploratory table: weighted count over (ln x)**gamma * sqrt-class count.\n'
            '\n'
            'Reports N_gamma(x) / ((ln x)**gamma * S(x)) on a geometric grid,\n'
            'where N_gamma counts k(m)**2 <= m ln(m)**(2 gamma) and S counts the\n'
            'theta = 1/2 class.  No pass/fail judgment is attached; at feasible x\n'
            'the ratio drifts slowly and is not expected to settle.\n'
            '\n'
            'options:\n'
            '  --limit INTEGER   Largest x in the table.\n'
            '  --gamma FLOAT     Weight exponent. [default: 1.0]\n'
            '  --points INTEGER  Geometric grid size. [default: 5]\n'
            '  --csv             Header row then data rows.\n'
            '  --json            One JSON object per line.\n'
            '  --help            Show this message and exit.\n'
        ),
    ),
]


class TestGoldenOutput:
    @pytest.mark.parametrize(
        ("args", "exit_code", "output"), GOLDEN, ids=[g[0] for g in GOLDEN]
    )
    def test_output(self, args, exit_code, output):
        result = runner.invoke(cli, args.split())
        # the bytes as written: result.output turns \r\n into \n (output_bytes is click >= 8.2's
        # stdout and stderr; before it, stdout_bytes held both)
        written = getattr(result, "output_bytes", result.stdout_bytes).decode()
        masked = re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": 0', written)
        assert (result.exit_code, masked) == (exit_code, output)


# scans of three blocks: the rows then the result: 2 * _ECHO_BLOCK + 98 records
ORACLE_BLOCKS = ["scan", "--from", "4", "--to", str(2 * _ECHO_BLOCK + 100), "--oracle"]
PROBE_BLOCKS = ["scan", "--from", "4", "--to", str(2 * _ECHO_BLOCK + 100), "--gamma", "0"]


class TestEchoBlocks:
    """Every form is formatted and written ``_ECHO_BLOCK`` records per ``sys.stdout.write`` call."""

    @pytest.mark.parametrize(
        "args",
        [ORACLE_BLOCKS, [*ORACLE_BLOCKS, "--json"], [*ORACLE_BLOCKS, "--csv"], [*PROBE_BLOCKS, "--json"]],
        ids=["human", "json", "csv", "probe json"],
    )
    def test_blocks_join_to_the_output(self, args):
        whole = runner.invoke(cli, args).stdout_bytes
        writes = []

        class Recording(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        with contextlib.redirect_stdout(Recording()), pytest.raises(SystemExit) as exit:
            cli.main(args, prog_name=cli.name)
        assert exit.value.code == 0 and len(writes) == 3
        assert all(text.count("\n") <= _ECHO_BLOCK for text in writes)
        written, whole = (re.sub(rb'"elapsed_ms": [0-9.e+-]+', b"", out) for out in ("".join(writes).encode(), whole))
        assert written == whole


# The dict path the templates replaced, kept as their reference: a dict per record, with the quality
# as str(Fraction), printed by json.dumps, k=v with _human, or csv.writer over its keys and values.
def _human(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".6g")
    return str(v)


def reference_rows(report) -> list[dict]:
    if isinstance(report, ComparisonReport):
        bad = set(report.violations)
        columns = report.split_m1.tolist(), zip(*report.split_quality.tolist()), report.oracle_m1.tolist(), zip(*report.oracle_quality.tolist())
        return [
            {
                "n": n,
                "split_m1": sm,
                "split_m2": n - sm,
                "split_quality": str(Fraction(*sq)),
                "split_fallback": n <= 6,
                "oracle_m1": om,
                "oracle_m2": n - om,
                "oracle_quality": str(Fraction(*oq)),
                "ok": n not in bad,
            }
            for n, sm, sq, om, oq in zip(count(report.n_lo), *columns)
        ]
    if isinstance(report, ProbeReport):
        witness, _ = plain_probe(report)
        return [{"n": n, "ok": m1 is not None, "m1": m1, "m2": None if m1 is None else n - m1} for n, m1 in zip(count(report.n_lo), witness)]
    return [{"n": n, "reason": reason} for n, reason in report.violations]


def reference_output(form: str, envelope: dict, rows: list[dict], human: list[dict]) -> str:
    """What the dict path prints in ``form``: ``human`` is the records of the human form, its last the CSV record of no rows."""
    if form == "--json":
        return "".join(json.dumps(record) + "\n" for record in [*rows, envelope])
    if form == "--csv":
        line = csv.writer(SimpleNamespace(write=str)).writerow
        records = rows or human[-1:]
        return "".join(map(line, [records[0].keys(), *(record.values() for record in records)]))
    return "".join(" ".join(f"{k}={_human(v)}" for k, v in record.items()) + "\n" for record in human)


def assert_forms_match(args: list[str], envelope: dict, rows: list[dict], human: list[dict]) -> None:
    for form in ("", "--json", "--csv"):
        result = runner.invoke(cli, [*args, form] if form else args)
        written = re.sub(r'"elapsed_ms": [0-9.e+-]+', '"elapsed_ms": 0', getattr(result, "output_bytes", result.stdout_bytes).decode())
        assert written == reference_output(form, envelope, rows, human), form


def scan_envelope(params: dict, result: dict) -> dict:
    return {"command": "scan", "params": params, "result": result, "elapsed_ms": 0}


# windows that start at n <= 6, where the split falls back, or anywhere below the bound
def windows(top: int, width: int):
    return st.tuples(st.one_of(st.integers(4, 6), st.integers(4, top)), st.integers(0, width)).map(lambda w: (w[0], min(w[0] + w[1], top)))


class TestTemplatesMatchTheDictPath:
    """Each form's bytes, from the templates over a report's columns, equal the dict reference's."""

    @settings(max_examples=30, deadline=None)
    @given(windows(3000, 300))
    @example((4, 30))
    def test_oracle(self, window):
        lo, hi = window
        report = kernsplit.oracle.constructive_vs_oracle(lo, hi)
        rows, result = reference_rows(report), report.summary_record()
        envelope = scan_envelope({"from": lo, "to": hi, "mode": "oracle"}, result)
        assert_forms_match(["scan", "--from", str(lo), "--to", str(hi), "--oracle"], envelope, rows, [*rows, result])

    @settings(max_examples=30, deadline=None)
    @given(windows(19_999, 1000), st.sampled_from([-0.5, 0.0, 0.5, 10.0]))
    @example((4, 60), 0.0)
    @example((4, 20), 10.0)
    def test_probe(self, window, gamma):
        lo, hi = window
        report = kernsplit.oracle.conjecture_probe(lo, hi, kernsplit.powered._log_weighted_class(gamma))
        rows, result = reference_rows(report), report.summary_record()
        envelope = scan_envelope({"from": lo, "to": hi, "mode": "probe", "gamma": gamma}, result)
        failing = [row for row in rows if not row["ok"]]
        assert_forms_match(["scan", "--from", str(lo), "--to", str(hi), "--gamma", str(gamma)], envelope, rows, [*failing, result])

    @settings(max_examples=30, deadline=None)
    @given(windows(10**6, 10**5), st.lists(st.text(st.characters(blacklist_categories=["Cs"]))))
    @example((15, 20), ["part1_kernel_bound", "part2_kernel_bound"])
    @example((4, 10), ['a "quoted", two-line\nreason', "", "é"])
    def test_verify(self, window, reasons):
        # any text as reasons: the rows' str column is quoted and escaped as json.dumps and csv.writer do
        lo, hi = window
        report = RangeScanReport(lo, hi, hi - lo + 1, tuple(zip(range(lo, hi + 1), reasons)))
        rows, result = reference_rows(report), report.summary_record()
        envelope = scan_envelope({"from": lo, "to": hi, "mode": "verify"}, result)
        with mock.patch.object(kernsplit.decompose, "verify_range", lambda lo, hi: report):
            assert_forms_match(["scan", "--from", str(lo), "--to", str(hi)], envelope, rows, [*rows, result])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(10, 10**5), st.integers(1, 8), st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.5]))
    @example(100, 2, 1.0)
    def test_logratio(self, limit, points, gamma):
        rows = kernsplit.powered.log_ratio_table(_grid(limit, points), gamma)
        params = {"limit": limit, "gamma": gamma}
        envelope = {"command": "logratio", "params": params, "result": {**params, "points": len(rows)}, "elapsed_ms": 0}
        args = ["logratio", "--limit", str(limit), "--points", str(points), "--gamma", str(gamma)]
        assert_forms_match(args, envelope, rows, rows)


def emitted(record: dict, as_csv: bool) -> str:
    """What ``_emit`` prints of a command with no rows whose result is ``record``, in human or CSV form."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        _emit("command", {}, record, (), None, 0.0, False, as_csv)
    return out.getvalue()


# the values a result record holds, text that csv quotes, and values of other types, which print as their str
csv_special = st.text(st.sampled_from(',"\r\n a'))
record_values = st.one_of(
    st.integers(),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(-0.0),
    st.text(st.characters(blacklist_categories=["Cs"])),
    csv_special,
    st.lists(st.one_of(st.integers(), csv_special), max_size=3),
    st.fractions(),
)
records = st.dictionaries(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True), record_values, min_size=1, max_size=8)


class TestRecordsMatchTheReference:
    """A result record, a table of one row in the rows' converters, prints as k=v with _human and as csv.writer writes it."""

    @settings(max_examples=300, deadline=None)
    @given(records)
    @example({"n_lo": 4, "gamma": -0.0, "ok": True, "m1": None, "failing": [4, 5], "why": 'a "b",\r\nc', "q": Fraction(1, 2)})
    @example({"verified": None, "fallback": False, "normalized": 1.7, "failing": []})
    @example({"only": None})  # a lone empty field, which csv quotes to tell it from a blank line
    @example({"only": ""})
    def test_record(self, record):
        assert emitted(record, False) == " ".join(f"{k}={_human(v)}" for k, v in record.items()) + "\n"
        line = csv.writer(SimpleNamespace(write=str)).writerow
        assert emitted(record, True) == line(record.keys()) + line(record.values())


class TestMain:
    """``main``, the process entry, ends the process itself only after an int status and a clean flush."""

    @pytest.fixture
    def exits(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        statuses = []

        def recording(status):
            statuses.append(status)
            raise KeyboardInterrupt  # stands in for the end of the process

        monkeypatch.setattr(os, "_exit", recording)
        return statuses

    @pytest.mark.parametrize("code", [0, 1, 2, None, True])
    def test_int_status_ends_the_process(self, monkeypatch, exits, code):
        monkeypatch.setattr(kernsplit.cli.cli, "main", mock.Mock(side_effect=SystemExit(code)))
        with pytest.raises(KeyboardInterrupt):
            kernsplit.cli.main()
        assert exits == [code or 0]

    @pytest.mark.parametrize("raised", [SystemExit("message"), RuntimeError("uncaught")], ids=["text status", "exception"])
    def test_other_exits_take_the_usual_path(self, monkeypatch, exits, raised):
        monkeypatch.setattr(kernsplit.cli.cli, "main", mock.Mock(side_effect=raised))
        with pytest.raises(type(raised)) as caught:
            kernsplit.cli.main()
        assert caught.value is raised and exits == []

    def test_failed_flush_takes_the_usual_path(self, monkeypatch, exits):
        monkeypatch.setattr(kernsplit.cli.cli, "main", mock.Mock(side_effect=SystemExit(0)))
        monkeypatch.setattr(sys, "stdout", SimpleNamespace(flush=mock.Mock(side_effect=BrokenPipeError)))
        with pytest.raises(SystemExit) as caught:
            kernsplit.cli.main()
        assert caught.value.code == 0 and exits == []
