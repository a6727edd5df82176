"""Command-line interface tests via click's test runner."""

import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from kernsplit.cli import cli
from kernsplit.decompose import Decomposition, split
from kernsplit.powered import CountReport, Theta, count_members

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
        assert Decomposition.from_record(env["result"]) == split(100)

    def test_json_round_trip_fallback(self):
        result = runner.invoke(cli, ["decompose", "4", "--json"])
        env = last_json_line(result.output)
        assert Decomposition.from_record(env["result"]) == split(4)

    def test_csv(self):
        result = runner.invoke(cli, ["decompose", "100", "--csv"])
        lines = result.output.strip().splitlines()
        assert lines[0] == "n,m1,m2,a,b,U,V,W,w,fallback,verified"
        assert lines[1].startswith("100,64,36,3,2,11,12,3,4,False")

    def test_error_exit(self):
        result = runner.invoke(cli, ["decompose", "3"])
        assert result.exit_code == 1

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
        report = CountReport.from_record(env["result"])
        assert report == count_members(100, Theta(1, 2))

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


class TestScan:
    def test_verify_mode_clean(self):
        result = runner.invoke(cli, ["scan", "--from", "4", "--to", "1000"])
        assert result.exit_code == 0
        assert "violations=0" in result.output

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
        # ~1e10 estimated lookups: refused immediately without --force
        result = runner.invoke(
            cli, ["scan", "--from", "4", "--to", "200000", "--oracle"]
        )
        assert result.exit_code == 1
        assert "--force" in result.output

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


class TestNonFiniteGamma:
    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    @pytest.mark.parametrize(
        "args",
        [
            ["count", "--limit", "100"],
            ["scan", "--from", "4", "--to", "50"],
            ["logratio", "--limit", "100"],
        ],
    )
    def test_error_exit(self, args, gamma):
        result = runner.invoke(cli, [*args, "--gamma", gamma])
        assert result.exit_code == 1
        assert "error: gamma must be finite" in result.output


class TestSegmentEnvVar:
    def test_override_does_not_change_results(self, monkeypatch):
        monkeypatch.setenv("KERNSPLIT_SEGMENT_SIZE", "1000")
        result = runner.invoke(cli, ["count", "--theta", "1/2", "--limit", "5000"])
        assert result.exit_code == 0
        baseline = count_members(5000, Theta(1, 2)).count
        assert f"count={baseline}" in result.output

    def test_bad_value_rejected(self, monkeypatch):
        monkeypatch.setenv("KERNSPLIT_SEGMENT_SIZE", "soon")
        result = runner.invoke(cli, ["count", "--theta", "1/2", "--limit", "100"])
        assert result.exit_code != 0
