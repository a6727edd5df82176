"""Exhaustive-search oracle tests.

``brute_best`` re-solves the minimax problem with plain Fractions and
no prefiltering, guarding the production path's float candidate screen.
"""

from fractions import Fraction

import pytest

from kernsplit.decompose import split
from kernsplit.kernel import radical, radical_sieve
from kernsplit.oracle import (
    ORACLE_RANGE_LIMIT,
    best_decomposition,
    conjecture_probe,
    constructive_vs_oracle,
    decomposition_quality,
    part_quality,
)


def brute_best(n: int) -> tuple[int, int, Fraction]:
    best = None
    for m1 in range(2, n // 2 + 1):
        m2 = n - m1
        q = max(
            Fraction(radical(m1) ** 2, m1),
            Fraction(radical(m2) ** 2, m2),
        )
        if best is None or q < best[2]:
            best = (m1, m2, q)
    return best


class TestBestDecomposition:
    def test_examples(self):
        b4 = best_decomposition(4)
        assert (b4.m1, b4.m2, b4.quality) == (2, 2, Fraction(2))
        b7 = best_decomposition(7)
        assert (b7.m1, b7.m2, b7.quality) == (3, 4, Fraction(3))
        b100 = best_decomposition(100)
        assert (b100.m1, b100.m2) == (4, 96)
        assert b100.quality == 1

    def test_against_unfiltered_brute_force(self):
        table = radical_sieve(300)
        for n in range(4, 301):
            b = best_decomposition(n, table=table)
            m1, m2, q = brute_best(n)
            assert (b.m1, b.m2, b.quality) == (m1, m2, q), n

    def test_tie_break_is_smallest_m1(self):
        # (4, 96) and (36, 64) both attain quality 1 at n = 100
        assert best_decomposition(100).m1 == 4

    def test_deterministic(self):
        table = radical_sieve(5000)
        first = [best_decomposition(n, table=table) for n in range(4, 200)]
        second = [best_decomposition(n, table=table) for n in range(4, 200)]
        assert first == second

    def test_parts_ordered(self):
        table = radical_sieve(2000)
        for n in range(4, 1001):
            b = best_decomposition(n, table=table)
            assert 2 <= b.m1 <= b.m2
            assert b.m1 + b.m2 == n

    def test_rejects_below_four(self):
        with pytest.raises(ValueError):
            best_decomposition(3)


class TestQuality:
    def test_exact_rational(self):
        assert part_quality(4, 2) == Fraction(1)
        assert part_quality(2, 2) == Fraction(2)
        assert part_quality(96, 6) == Fraction(3, 8)

    def test_split_quality_within_certified_bound(self):
        # k(m)**4 <= 432 m**2 means quality**2 <= 432, exactly
        table = radical_sieve(2000)
        for n in range(4, 2001):
            q = decomposition_quality(split(n), table)
            assert q * q <= 432


class TestConstructiveVsOracle:
    def test_single_point_small(self):
        report = constructive_vs_oracle(4, 4)
        assert report.rows[0].split_quality == Fraction(2)
        assert report.rows[0].oracle_quality == Fraction(2)
        assert report.violations == ()

    def test_single_point_100(self):
        report = constructive_vs_oracle(100, 100)
        row = report.rows[0]
        assert row.split_quality == 1
        assert row.oracle_quality == 1
        assert row.ok

    def test_oracle_never_worse_to_1000(self):
        report = constructive_vs_oracle(4, 1000)
        assert report.violations == ()
        for row in report.rows:
            assert row.oracle_quality <= row.split_quality

    def test_summary_stats(self):
        report = constructive_vs_oracle(4, 100)
        assert report.max_oracle_quality <= report.max_split_quality
        assert 0 < report.mean_oracle_quality <= report.mean_split_quality
        assert report.summary_record()["violations"] == 0

    def test_range_guard(self):
        with pytest.raises(ValueError):
            constructive_vs_oracle(4, ORACLE_RANGE_LIMIT + 1)
        with pytest.raises(ValueError):
            constructive_vs_oracle(3, 10)


class TestConjectureProbe:
    def test_gamma_zero_at_four(self):
        report = conjecture_probe(4, 4, 0.0)
        # (2, 2) is the only pair and k(2)**2 = 4 > 2 * (ln 2)**0
        assert report.failing == (4,)
        assert report.satisfied == 0

    def test_gamma_ten_small_n(self):
        # m = 2 never qualifies ((ln 2)**20 < 1), so 4 = 2+2 and 5 = 2+3
        # stay unrepresentable even at large gamma
        report = conjecture_probe(4, 100, 10.0)
        assert report.failing == (4, 5)
        assert report.satisfied == 95

    def test_rejects_non_finite_gamma(self):
        for gamma in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite"):
                conjecture_probe(4, 100, gamma)

    def test_gamma_zero_range_against_brute_force(self):
        import math

        good = {
            m for m in range(2, 99) if radical(m) ** 2 <= m * math.log(m) ** 0
        }
        expected = tuple(
            n
            for n in range(4, 101)
            if not any(m in good and (n - m) in good for m in range(2, n // 2 + 1))
        )
        report = conjecture_probe(4, 100, 0.0)
        assert report.failing == expected
        # frozen snapshot of the same list
        assert report.failing == (
            4, 5, 6, 7, 9, 10, 11, 14, 15, 19, 21, 22, 23, 26, 27, 28, 30,
            37, 38, 39, 42, 46, 47, 49, 51, 55, 60, 66, 67, 69, 71, 77, 78,
            82, 83, 87, 92, 93, 94, 95,
        )

    def test_pairs_are_witnesses(self):
        import math

        gamma = 0.5
        report = conjecture_probe(4, 200, gamma)
        for n, m1 in report.pairs:
            if m1 is None:
                continue
            m2 = n - m1
            for m in (m1, m2):
                assert radical(m) ** 2 <= m * math.log(m) ** (2 * gamma) * (1 + 1e-9)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            conjecture_probe(4, ORACLE_RANGE_LIMIT + 1, 1.0)
