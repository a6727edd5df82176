"""Exhaustive-search oracle tests.

``brute_best`` re-solves the minimax problem with plain Fractions and
no prefiltering, guarding the production path's float candidate screen.
``dense_best`` and ``dense_probe`` are the dense scans over every
m1 in [2, n/2]: the references the sparse candidate walks are tested
against.
"""

import re
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kernsplit.oracle as orc
from kernsplit.decompose import split
from kernsplit.kernel import radical, radical_sieve
from kernsplit.oracle import (
    SCAN_WORK_LIMIT,
    BestSplit,
    best_decomposition,
    conjecture_probe,
    constructive_vs_oracle,
    decomposition_quality,
    part_quality,
)
from kernsplit.powered import log_weighted_mask


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


def dense_best(n: int, table) -> BestSplit:
    """Float prefilter and exact re-rank over every m1 in [2, n/2]."""
    m1 = np.arange(2, n // 2 + 1, dtype=np.int64)
    m2 = n - m1
    k1 = table.values[m1].astype(np.int64)
    k2 = table.values[m2].astype(np.int64)
    qmax = np.maximum(k1.astype(np.float64) ** 2 / m1, k2.astype(np.float64) ** 2 / m2)
    cand = np.nonzero(qmax <= float(qmax.min()) * (1 + 1e-6) + 1e-12)[0]
    best_q, best_i = None, -1
    for i in cand:
        q = max(part_quality(int(m1[i]), int(k1[i])), part_quality(int(m2[i]), int(k2[i])))
        if best_q is None or q < best_q:
            best_q, best_i = q, int(i)
    return BestSplit(n, int(m1[best_i]), int(m2[best_i]), best_q)


def dense_probe(n_lo: int, n_hi: int, gamma: float, table) -> tuple[tuple, tuple]:
    """``(pairs, failing)`` of the probe from the slices good[2 : n/2 + 1] and good[n - m1]."""
    good = log_weighted_mask(n_hi - 2, gamma, table=table)
    pairs = []
    for n in range(n_lo, n_hi + 1):
        half = n // 2
        hits = good[2 : half + 1] & good[n - 2 : n - half - 1 : -1]
        pairs.append((n, 2 + int(hits.argmax()) if hits.any() else None))
    return tuple(pairs), tuple(n for n, m1 in pairs if m1 is None)


@cache
def table_to(x: int):
    return radical_sieve(x)


def refuse(*args, **kwargs):
    raise AssertionError("ran past the work check")


def refusal(n_lo: int, n_hi: int) -> str:
    return re.escape(f"scan of [{n_lo}, {n_hi}] implies ~") + r"[0-9.]+e\+[0-9]+" + re.escape(
        " kernel lookups (> 1e+09); rerun with --force to proceed"
    )


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

    def test_range_guard(self, monkeypatch):
        # over budget: refused once the candidates are known, before any n is split
        monkeypatch.setattr(orc, "split", refuse)
        monkeypatch.setattr(orc, "best_decomposition", refuse)
        with pytest.raises(ValueError, match=refusal(4, 500000)):
            constructive_vs_oracle(4, 500_000)
        with pytest.raises(ValueError, match="need 4 <= n_lo <= n_hi"):
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
        with pytest.raises(ValueError, match=refusal(4, 1000000)):
            conjecture_probe(4, 10**6, 1.0)
        with pytest.raises(ValueError, match="need 4 <= n_lo <= n_hi"):
            conjecture_probe(5, 4, 1.0)


class TestSparseMatchesDense:
    """The candidate walks against the dense scans they replace."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=4, max_value=5000))
    def test_best_decomposition_small_n(self, n):
        table = table_to(5000)
        assert best_decomposition(n, table=table) == dense_best(n, table)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=98_000, max_value=102_000))
    def test_best_decomposition_near_1e5(self, n):
        table = table_to(102_000)
        assert best_decomposition(n, table=table) == dense_best(n, table)

    @pytest.mark.parametrize("n", [4, 5, 6, 100])
    def test_fallback_sizes_and_tie(self, n):
        assert best_decomposition(n) == dense_best(n, table_to(n))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=4, max_value=100_000 - 100))
    def test_range_window(self, lo):
        table = table_to(100_000)
        report = constructive_vs_oracle(lo, lo + 100, table=table)
        for row in report.rows:
            best = dense_best(row.n, table)
            assert (row.oracle_m1, row.oracle_m2, row.oracle_quality) == (best.m1, best.m2, best.quality)

    @pytest.mark.parametrize("cap", [0, 1, 2])
    def test_empty_candidates_fall_back_to_every_pair(self, monkeypatch, cap):
        # below the split's quality many n have no candidate pair; cap 0 leaves none at all
        monkeypatch.setattr(orc, "_CANDIDATE_QUALITY", cap)
        table = table_to(2000)
        good, G = orc._candidates(table, 2000)
        fallbacks = 0
        for n in range(4, 2001):
            m1 = G[G <= n // 2]
            fallbacks += not good[n - m1].any()
            assert best_decomposition(n, table=table) == dense_best(n, table), n
        assert 0 < fallbacks < 1997 if cap else fallbacks == 1997

    def test_range_builds_candidates_once(self, monkeypatch):
        calls = []
        real = orc._candidates

        def counting(table, top):
            calls.append(top)
            return real(table, top)

        monkeypatch.setattr(orc, "_candidates", counting)
        constructive_vs_oracle(4, 300)
        assert calls == [298]

    def test_short_candidates_rejected(self):
        table = table_to(1000)
        with pytest.raises(ValueError, match="candidates end"):
            best_decomposition(1000, table=table, candidates=orc._candidates(table, 500))

    def test_int64_bound(self):
        limit = orc._CANDIDATE_INT64_LIMIT
        assert limit * limit < 2**63 <= (limit + 1) ** 2
        assert orc._CANDIDATE_QUALITY * limit < 2**63
        with pytest.raises(ValueError, match="exact in int64"):
            orc._candidates(table_to(100), limit + 1)

    # -5: one member below 6400; 0 and 0.5: sparse; 10: every m >= 3
    @pytest.mark.parametrize("gamma", [-5.0, 0.0, 0.5, 10.0])
    @settings(max_examples=25, deadline=None)
    @given(lo=st.integers(min_value=4, max_value=6000), width=st.integers(min_value=0, max_value=400))
    def test_probe(self, gamma, lo, width):
        hi = lo + width
        table = table_to(6400)
        report = conjecture_probe(lo, hi, gamma, table=table)
        assert (report.pairs, report.failing) == dense_probe(lo, hi, gamma, table)


# the candidate sets the scans walk: G, and the probe's qualifying parts at each gamma
SCAN_TOP = 6000


@cache
def scan_parts(mode) -> np.ndarray:
    table = table_to(SCAN_TOP)
    if mode == "oracle":
        return orc._candidates(table, SCAN_TOP)[1]
    return np.flatnonzero(log_weighted_mask(SCAN_TOP, mode, table=table))


class TestScanWork:
    """The one cost model: table entries, rows and sparse lookups."""

    @pytest.mark.parametrize("mode", ["oracle", -5.0, 0.0, 0.5, 10.0])
    @settings(max_examples=25, deadline=None)
    @given(lo=st.integers(min_value=4, max_value=SCAN_TOP), width=st.integers(min_value=0, max_value=300))
    def test_lookups_count_the_parts_below_half(self, mode, lo, width):
        hi = min(lo + width, SCAN_TOP + 2)
        parts = scan_parts(mode)
        brute = sum(1 for n in range(lo, hi + 1) for m1 in parts.tolist() if 2 <= m1 <= n // 2)
        assert int(orc._part_ends(parts, lo, hi).sum()) == brute

    def test_work_adds_table_rows_and_lookups(self):
        lo, hi = 1000, 3000
        slack = SCAN_WORK_LIMIT - orc._SIEVE_WEIGHT * hi - orc._ROW_WEIGHT * (hi - lo + 1)
        orc._check_work(lo, hi, slack)  # the limit itself is admitted
        with pytest.raises(ValueError, match=refusal(lo, hi)):
            orc._check_work(lo, hi, slack + 1)

    def test_table_and_rows_refused_before_the_sieve(self, monkeypatch):
        monkeypatch.setattr(orc, "radical_sieve", refuse)
        with pytest.raises(ValueError, match=refusal(900000000, 900000000)):
            constructive_vs_oracle(900_000_000, 900_000_000)
        # no part qualifies at gamma = -5, so only the rows bound this probe
        with pytest.raises(ValueError, match=refusal(4, 100000000)):
            conjecture_probe(4, 10**8, -5.0)

    def test_lookups_refused_once_the_parts_are_known(self, monkeypatch):
        table = table_to(100_000)
        monkeypatch.setattr(orc, "radical_sieve", refuse)
        with pytest.raises(ValueError, match=refusal(4, 100000)):
            conjecture_probe(4, 100_000, 3.0, table=table)  # ~2.5e9 lookups over a dense set
        assert conjecture_probe(4, 100_000, 0.0, table=table).satisfied == 98020

    def test_force_computes_nothing(self, monkeypatch):
        monkeypatch.setattr(orc, "_check_work", refuse)
        assert constructive_vs_oracle(4, 100, force=True).violations == ()
        assert conjecture_probe(4, 100, 0.0, force=True).failing[:3] == (4, 5, 6)
        with pytest.raises(ValueError, match="need 4 <= n_lo <= n_hi"):
            constructive_vs_oracle(10, 4, force=True)  # a malformed range is refused all the same

    def test_force_runs_over_budget(self, monkeypatch):
        monkeypatch.setattr(orc, "SCAN_WORK_LIMIT", 10_000)
        with pytest.raises(ValueError, match=re.escape("(> 1e+04)")):
            constructive_vs_oracle(4, 100)
        with pytest.raises(ValueError, match=re.escape("(> 1e+04)")):
            conjecture_probe(4, 100, 0.0)
        assert len(constructive_vs_oracle(4, 100, force=True).rows) == 97
        assert len(conjecture_probe(4, 100, 0.0, force=True).pairs) == 97
