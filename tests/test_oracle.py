"""Exhaustive-search oracle tests.

``brute_best`` re-solves the minimax problem with plain Fractions and
no prefiltering, guarding the production path's float candidate screen.
``dense_best`` and ``dense_probe`` are the dense scans over every
m1 in [2, n/2].  ``loop_oracle`` and ``loop_probe`` are the per-n loops
over a kernel table's sparse candidate parts, which the whole-window
sumsets replaced: the references the block scans are tested against.
"""

import math
import re
from fractions import Fraction
from functools import cache
from itertools import accumulate, count
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kernsplit.decompose
import kernsplit.kernel
import kernsplit.oracle as orc
import kernsplit.powered
from dense_reference import BestSplit, best_decomposition, decomposition_quality, log_weighted_mask, part_quality, plain_probe
from kernsplit.decompose import split
from kernsplit.kernel import flat_ranges, kernel_bounded, quality, radical, radical_sieve
from kernsplit.oracle import ComparisonReport, conjecture_probe, constructive_vs_oracle
from kernsplit.powered import Theta, _log_weighted_class, _theta_class, count_log_weighted


def rows(table) -> list[dict]:
    """A report's table, ``(key, kind, column)`` per key, as one dict per row."""
    keys = [key for key, _, _ in table]
    return [dict(zip(keys, values)) for values in zip(*(column for _, _, column in table))]


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


def rank(n: int, m1: np.ndarray, table) -> BestSplit:
    """Float prefilter and exact re-rank over the pairs (m1, n - m1), m1 ascending."""
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


def dense_best(n: int, table) -> BestSplit:
    """Float prefilter and exact re-rank over every m1 in [2, n/2]."""
    return rank(n, np.arange(2, n // 2 + 1, dtype=np.int64), table)


def dense_probe(n_lo: int, n_hi: int, gamma: float, table) -> tuple[list, tuple]:
    """``(witness, failing)`` of the probe from the slices good[2 : n/2 + 1] and good[n - m1]."""
    good = log_weighted_mask(n_hi - 2, gamma, table=table)
    witness = []
    for n in range(n_lo, n_hi + 1):
        half = n // 2
        hits = good[2 : half + 1] & good[n - 2 : n - half - 1 : -1]
        witness.append(2 + int(hits.argmax()) if hits.any() else None)
    return witness, tuple(n for n, m1 in zip(count(n_lo), witness) if m1 is None)


def table_parts(table, top: int, c: int) -> tuple[np.ndarray, np.ndarray]:
    """``(good, G)`` over [0, top] from a kernel table: good[m] iff m >= 2 and k(m)**2 <= c*m."""
    k = table.values[: top + 1].astype(np.int64)
    good = k * k <= c * np.arange(top + 1, dtype=np.int64)
    good[:2] = False
    return good, np.flatnonzero(good)


def loop_best(n: int, table, good: np.ndarray, G: np.ndarray) -> BestSplit:
    """One n of the per-n loop: the pairs m1 in G, m1 <= n/2, n - m1 in G, or every pair when none."""
    m1 = G[: np.searchsorted(G, n // 2, side="right")]
    m1 = m1[good[n - m1]]
    return rank(n, m1, table) if m1.size else dense_best(n, table)


def _worse(m1: int, k1: int, m2: int, k2: int) -> tuple[int, int]:
    """``(k**2, m)`` of the worse part, the larger of k1**2 / m1 and k2**2 / m2; part 1's on ties: the scalar reference of ``orc._worse_part``."""
    q1, q2 = k1 * k1, k2 * k2
    return (q1, m1) if q1 * m2 >= q2 * m1 else (q2, m2)


def plain(report: ComparisonReport) -> tuple:
    """A comparison report with its int64 columns as lists, to compare whole reports."""
    assert all(column.dtype == np.int64 for column in (report.split_m1, report.split_quality, report.oracle_m1, report.oracle_quality))
    return tuple(field.tolist() if isinstance(field, np.ndarray) else field for field in report)


def worse_part(m1: int, m2: int, table) -> tuple[int, int]:
    """``(k**2, m)`` of the part of larger quality, m1 on ties."""
    m = m1 if part_quality(m1, table[m1]) >= part_quality(m2, table[m2]) else m2
    return table[m] ** 2, m


def loop_oracle(n_lo: int, n_hi: int, table) -> ComparisonReport:
    """``constructive_vs_oracle`` as the per-n loop over a kernel table's parts of G."""
    good, G = table_parts(table, n_hi - 2, orc._CANDIDATE_QUALITY)
    split_m1, split_q, oracle_m1, oracle_q, violations = [], [], [], [], []
    sum_split = sum_oracle = 0.0
    for n in range(n_lo, n_hi + 1):
        d = split(n)
        assert (d.witness is None) == (n <= 6)
        sq = max(part_quality(d.m1, table[d.m1]), part_quality(d.m2, table[d.m2]))
        best = loop_best(n, table, good, G)
        split_m1.append(d.m1)
        split_q.append(worse_part(d.m1, d.m2, table))
        oracle_m1.append(best.m1)
        oracle_q.append(worse_part(best.m1, best.m2, table))
        if best.quality > sq:
            violations.append(n)
        sum_split += float(sq)
        sum_oracle += float(best.quality)
    return ComparisonReport(
        n_lo=n_lo,
        n_hi=n_hi,
        split_m1=np.array(split_m1, dtype=np.int64),
        split_quality=np.array(split_q, dtype=np.int64).T,
        oracle_m1=np.array(oracle_m1, dtype=np.int64),
        oracle_quality=np.array(oracle_q, dtype=np.int64).T,
        violations=tuple(violations),
        max_split_quality=max(Fraction(*q) for q in split_q),
        mean_split_quality=sum_split / len(split_m1),
        max_oracle_quality=max(Fraction(*q) for q in oracle_q),
        mean_oracle_quality=sum_oracle / len(oracle_m1),
    )


def loop_probe(n_lo: int, n_hi: int, gamma: float, table) -> tuple[list, tuple]:
    """``(witness, failing)`` of the probe as the per-n loop over the qualifying parts m1 <= n/2."""
    good = log_weighted_mask(n_hi - 2, gamma, table=table)
    members = np.flatnonzero(good)
    witness = []
    for n in range(n_lo, n_hi + 1):
        m1 = members[: np.searchsorted(members, n // 2, side="right")]
        hits = good[n - m1]
        witness.append(int(m1[hits.argmax()]) if hits.any() else None)
    return witness, tuple(n for n, m1 in zip(count(n_lo), witness) if m1 is None)


@cache
def table_to(x: int):
    return radical_sieve(x)


def refuse(*args, **kwargs):
    raise AssertionError("ran past the work check")


def refusal(n_lo: int, n_hi: int) -> str:
    return re.escape(f"scan of [{n_lo}, {n_hi}] implies ~") + r"\S+ s and ~\S+ bytes" + re.escape(
        ", over the budget of 60 s and 1 GiB; rerun with --force to proceed"
    )


def window(lo_min: int, lo_max: int, width: int):
    """(lo, hi) strategy: lo in [lo_min, lo_max], hi - lo in [0, width]."""
    return st.tuples(st.integers(lo_min, lo_max), st.integers(0, width)).map(lambda t: (t[0], t[0] + t[1]))


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
        for n in range(4, 301):
            b = best_decomposition(n)
            m1, m2, q = brute_best(n)
            assert (b.m1, b.m2, b.quality) == (m1, m2, q), n

    def test_tie_break_is_smallest_m1(self):
        # (4, 96) and (36, 64) both attain quality 1 at n = 100
        assert best_decomposition(100).m1 == 4

    def test_deterministic(self):
        first = [best_decomposition(n) for n in range(4, 200)]
        second = [best_decomposition(n) for n in range(4, 200)]
        assert first == second

    def test_parts_ordered(self):
        for n in range(4, 1001):
            b = best_decomposition(n)
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
        table = table_to(2000)
        for n in range(4, 2001):
            d = split(n)
            q = decomposition_quality(d)
            assert q == max(part_quality(d.m1, table[d.m1]), part_quality(d.m2, table[d.m2]))
            assert q * q <= 432


class TestConstructiveVsOracle:
    def test_single_point_small(self):
        report = constructive_vs_oracle(4, 4)
        assert report.split_quality.tolist() == report.oracle_quality.tolist() == [[4], [2]]  # 2 + 2, k(2)**2 / 2
        assert report.violations == ()

    def test_single_point_100(self):
        report = constructive_vs_oracle(100, 100)
        assert Fraction(*report.split_quality[:, 0].tolist()) == Fraction(*report.oracle_quality[:, 0].tolist()) == 1
        (row,) = rows(report.columns())
        assert row["ok"] and row["split_quality"] == row["oracle_quality"] == "1"

    def test_oracle_never_worse_to_1000(self):
        report = constructive_vs_oracle(4, 1000)
        assert report.violations == ()
        for oq, om, sq, sm in zip(*report.oracle_quality.tolist(), *report.split_quality.tolist()):
            assert Fraction(oq, om) <= Fraction(sq, sm)

    def test_summary_stats(self):
        report = constructive_vs_oracle(4, 100)
        assert report.max_oracle_quality <= report.max_split_quality
        assert 0 < report.mean_oracle_quality <= report.mean_split_quality
        assert report.summary_record()["violations"] == 0

    def test_range_guard(self, monkeypatch):
        # over budget on the bound of its parts: refused after the walk, before any part exists or n is split
        monkeypatch.setattr(kernsplit.decompose, "split_parts", refuse)
        monkeypatch.setattr(orc, "flat_ranges", refuse)
        monkeypatch.setattr(kernsplit.kernel, "squarefree_flags", refuse)
        with pytest.raises(ValueError, match=refusal(60000000000, 60000000100)):
            constructive_vs_oracle(60_000_000_000, 60_000_000_100)
        with pytest.raises(ValueError, match="need 4 <= n_lo <= n_hi"):
            constructive_vs_oracle(3, 10)

    def test_violation_reported(self):
        # split parts given kernel 1 on purpose look better than many optima: each such n is a violation
        real = constructive_vs_oracle(4, 300)
        split_q = np.array([_worse(m1, 1, n - m1, 1) for n, m1 in zip(count(4), real.split_m1.tolist())]).T
        report = orc._report(4, 300, real.split_m1, split_q, real.oracle_m1, real.oracle_quality)
        qualities = zip(count(4), zip(*report.oracle_quality.tolist()), zip(*report.split_quality.tolist()))
        assert report.violations == tuple(n for n, o, s in qualities if Fraction(*o) > Fraction(*s))
        assert 4 in report.violations and len(report.violations) > 100
        assert [r["n"] for r in rows(report.columns()) if not r["ok"]] == list(report.violations)


    def test_split_part_outside_g_raises(self, monkeypatch):
        # the split's kernels are read off G, where its bound puts every part: a part outside it is a loud error
        monkeypatch.setattr(kernsplit.decompose, "split_parts", lambda lo, hi: ([2] * (hi - lo + 1), list(range(lo - 2, hi - 1))))
        assert constructive_vs_oracle(4, 23).violations == ()  # every m <= 21 is in G
        # the split is checked before any pair is ranked: G is the oracle's last tier only because of it
        monkeypatch.setattr(orc, "_best_pairs", refuse)
        with pytest.raises(RuntimeError, match=re.escape("a part of split(n), n in [4, 24], is outside G")):
            constructive_vs_oracle(4, 24)  # 22 = 2 * 11: k(m)**2 = 484 > 21 * 22


class TestConjectureProbe:
    def test_gamma_zero_at_four(self):
        report = conjecture_probe(4, 4, _log_weighted_class(0.0))
        # (2, 2) is the only pair and k(2)**2 = 4 > 2 * (ln 2)**0
        assert plain_probe(report) == ([None], (4,))
        assert report.satisfied == 0

    def test_gamma_ten_small_n(self):
        # m = 2 never qualifies ((ln 2)**20 < 1), so 4 = 2+2 and 5 = 2+3
        # stay unrepresentable even at large gamma
        report = conjecture_probe(4, 100, _log_weighted_class(10.0))
        assert plain_probe(report)[1] == (4, 5)
        assert report.satisfied == 95

    def test_gamma_zero_range_against_brute_force(self):
        good = {
            m for m in range(2, 99) if radical(m) ** 2 <= m * math.log(m) ** 0
        }
        expected = tuple(
            n
            for n in range(4, 101)
            if not any(m in good and (n - m) in good for m in range(2, n // 2 + 1))
        )
        failing = plain_probe(conjecture_probe(4, 100, _log_weighted_class(0.0)))[1]
        assert failing == expected
        # frozen snapshot of the same list
        assert failing == (
            4, 5, 6, 7, 9, 10, 11, 14, 15, 19, 21, 22, 23, 26, 27, 28, 30,
            37, 38, 39, 42, 46, 47, 49, 51, 55, 60, 66, 67, 69, 71, 77, 78,
            82, 83, 87, 92, 93, 94, 95,
        )

    def test_pairs_are_witnesses(self):
        gamma = 0.5
        report = conjecture_probe(4, 200, _log_weighted_class(gamma))
        for n, m1 in zip(count(4), plain_probe(report)[0]):
            if m1 is None:
                continue
            m2 = n - m1
            for m in (m1, m2):
                assert radical(m) ** 2 <= m * math.log(m) ** (2 * gamma) * (1 + 1e-9)

    def test_failing_is_where_the_oracle_passes_its_first_tier(self):
        # one set, one rule: gamma = 0 qualifies k(m)**2 <= m, the oracle's first tier, so an n
        # fails the probe exactly when its optimum is above 1
        oracle = constructive_vs_oracle(4, 10**5)
        failing = plain_probe(conjecture_probe(4, 10**5, _log_weighted_class(0.0)))[1]
        assert failing == tuple(n for n, q, m in zip(count(4), *oracle.oracle_quality.tolist()) if q > m)
        assert len(failing) == 1977

    def test_a_class_holding_one_witnesses_with_it(self):
        # A(1/2) is gamma = 0's class with m = 1: n = 1 + (n - 1) has witness 1, not the 0 of no pair,
        # exactly where n - 1 is a member, and those n leave gamma = 0's failing set
        k = table_to(10**5).values.astype(np.int64)
        member = k * k <= np.arange(len(k))
        witness, failing = plain_probe(conjecture_probe(4, 10**5, _theta_class(Theta(1, 2))))
        ones = {n for n, m1 in zip(count(4), witness) if m1 == 1}
        assert ones == {n for n in range(4, 10**5 + 1) if member[n - 1]}
        assert failing == tuple(n for n in plain_probe(conjecture_probe(4, 10**5, _log_weighted_class(0.0)))[1] if n not in ones)

    @settings(max_examples=10, deadline=None)
    @given(window(4, 20_000 - 600, 600))
    @example((4, 100))
    def test_scans_the_class_it_is_handed(self, lohi):
        # quality(1) is the gamma = 0 class from its own constructor: the same parts give the same
        # witnesses and failing n, and the report names the class it was handed
        report = conjecture_probe(*lohi, quality(1))
        weighted = conjecture_probe(*lohi, _log_weighted_class(0.0))
        assert plain_probe(report) == plain_probe(weighted)
        assert report.param == ("quality", 1) and weighted.param == ("gamma", 0.0)

    def test_range_guard(self):
        with pytest.raises(ValueError, match=refusal(4, 2000000)):
            conjecture_probe(4, 2 * 10**6, _log_weighted_class(1.0))
        with pytest.raises(ValueError, match="need 4 <= n_lo <= n_hi"):
            conjecture_probe(5, 4, _log_weighted_class(1.0))


class TestSparseMatchesDense:
    """The whole-window scans against the dense scans over every pair."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=4, max_value=5000))
    def test_best_decomposition_small_n(self, n):
        assert best_decomposition(n) == dense_best(n, table_to(5000))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=98_000, max_value=102_000))
    def test_best_decomposition_near_1e5(self, n):
        assert best_decomposition(n) == dense_best(n, table_to(102_000))

    @pytest.mark.parametrize("n", [4, 5, 6, 100])
    def test_fallback_sizes_and_tie(self, n):
        assert best_decomposition(n) == dense_best(n, table_to(n))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=4, max_value=100_000 - 100))
    def test_range_window(self, lo):
        table = table_to(100_000)
        report = constructive_vs_oracle(lo, lo + 100)
        for n, m1, q, m in zip(count(lo), report.oracle_m1.tolist(), *report.oracle_quality.tolist()):
            best = dense_best(n, table)
            assert (m1, n - m1, Fraction(q, m)) == (best.m1, best.m2, best.quality)

    @pytest.mark.parametrize("first", [0, 1, 2])
    def test_empty_candidates_fall_back_to_every_pair(self, monkeypatch, first):
        # below the split's quality many n have no pair in the first tier, and 0 leaves it empty:
        # those n are ranked over G, which holds the optimum over every pair
        monkeypatch.setattr(orc, "_FIRST_TIER_QUALITY", first)
        table = table_to(2000)
        good, G = table_parts(table, 2000, first)
        fallbacks = 0
        for n in range(4, 2001):
            m1 = G[G <= n // 2]
            fallbacks += not good[n - m1].any()
            assert best_decomposition(n) == dense_best(n, table), n
        assert 0 < fallbacks < 1997 if first else fallbacks == 1997

    def test_range_builds_candidates_once(self, monkeypatch):
        calls = []
        real = orc.kernel_bounded

        def counting(top, interval, admit=None):
            calls.append((top, interval(8, 2), interval(9, 3)))
            return real(top, interval, admit)

        monkeypatch.setattr(orc, "kernel_bounded", counting)
        # with an empty first tier too, when every n is ranked over G
        for first in (orc._FIRST_TIER_QUALITY, 0):
            monkeypatch.setattr(orc, "_FIRST_TIER_QUALITY", first)
            calls.clear()
            constructive_vs_oracle(4, 300)
            assert calls == [(298, (1, 298 // 8), (1, 21))]  # a <= min(top // b, 21*b // k(b)**2)

    def test_int64_bound(self, monkeypatch):
        # the largest n with 21 * n < 2**63: G's kernels * kernels <= c * parts, and pair sums below 2n
        limit = 439_208_192_231_179_800
        assert orc._CANDIDATE_QUALITY * limit < 2**63 <= orc._CANDIDATE_QUALITY * (limit + 1)
        monkeypatch.setattr(orc, "kernel_bounded", refuse)
        # the walk's ~1.5e9 visits fit only a machine with ~300 GB: let this one have them
        monkeypatch.setattr(kernsplit.kernel, "os", SimpleNamespace(sysconf={"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**40}.get))
        runs = (
            lambda n: constructive_vs_oracle(n, n, force=True),
            lambda n: conjecture_probe(n, n, _log_weighted_class(0.5), force=True),
            best_decomposition,
        )
        for run in runs:
            with pytest.raises(AssertionError, match="ran past the work check"):
                run(limit)  # the limit itself is admitted: on to the walk
            with pytest.raises(ValueError, match=f"exact in int64 up to n = {limit}, got {limit + 1}"):
                run(limit + 1)

    # -5: one member below 6400; 0 and 0.5: sparse; 10: every m >= 3;
    # 1e308: every m >= 3 and -1e308 only m = 2, with the weight overflowed
    @pytest.mark.parametrize("gamma", [-5.0, 0.0, 0.5, 10.0, 1e308, -1e308])
    @settings(max_examples=25, deadline=None)
    @given(lo=st.integers(min_value=4, max_value=6000), width=st.integers(min_value=0, max_value=400))
    def test_probe(self, gamma, lo, width):
        hi = lo + width
        report = conjecture_probe(lo, hi, _log_weighted_class(gamma))
        assert plain_probe(report) == dense_probe(lo, hi, gamma, table_to(6400))


# a part (m, k(m)) the oracle keeps: m up to the scans' int64 bound, and k**2 <= 21 * m
SCAN_LIMIT = (2**63 - 1) // 21
parts = st.integers(1, SCAN_LIMIT).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, math.isqrt(21 * m))))
# the worse part's quality (k**2, m), with any q <= 21 * m
qualities = st.integers(1, SCAN_LIMIT).flatmap(lambda m: st.tuples(st.integers(1, 21 * m), st.just(m)))


@st.composite
def pairs(draw):
    """A pair of parts: unrelated, of the same quality written otherwise, or of a quality next to it."""
    m1, k1 = draw(parts)
    kind = draw(st.sampled_from(["any", "tie", "near"]))
    if kind == "any":
        return (m1, k1), draw(parts)
    if kind == "tie":  # (t * t * m1, t * k1)
        t = draw(st.integers(1, max(1, math.isqrt(SCAN_LIMIT // m1))))
        return (m1, k1), (t * t * m1, t * k1)
    m2 = draw(st.integers(1, SCAN_LIMIT))
    k2 = math.isqrt(k1 * k1 * m2 // m1) + draw(st.integers(-1, 1))
    return (m1, k1), (m2, min(max(k2, 1), math.isqrt(21 * m2)))


class TestWorsePart:
    """The vectorized worse part and report against their scalar references, at every n up to the scans' int64 bound."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(pairs(), min_size=1, max_size=40))
    @example([((16, 2), (4, 1))])  # 4/16 and 1/4: a tie, part 1's
    @example([((4, 1), (16, 2)), ((2**58 + 1, 2**29), (4, 2)), ((2**58 - 1, 2**29), (4, 2)), ((4, 2), (2**58 - 1, 2**29))])
    def test_matches_the_scalar_worse(self, drawn):
        # 2**58 / (2**58 + 1) and 2**58 / (2**58 - 1) round to the float 1.0: only ints tell them from 4/4
        (ms, ks) = zip(*(part for pair in drawn for part in pair))
        tier = orc._tier(np.array(ms, dtype=np.int64), np.array(ks, dtype=np.int64))
        i1, i2 = np.arange(0, len(ms), 2), np.arange(1, len(ms), 2)
        got = [column.tolist() for column in orc._worse_part(tier, i1, i2)]
        assert list(zip(*got)) == [_worse(m1, k1, m2, k2) for (m1, k1), (m2, k2) in drawn]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(4, SCAN_LIMIT), st.lists(st.tuples(qualities, qualities), min_size=1, max_size=30))
    @example(4, [((2, 2), (1, 1))])
    @example(10, [((2**53 + 1, 2**53 + 3), (1, 1)), ((2**53, 2**53 + 4), (2**53 + 1, 2**53 + 3))])
    def test_report_matches_python(self, n_lo, drawn):
        # (2**53 + 1) / (2**53 + 3) is not float(2**53 + 1) / float(2**53 + 3): the floats are Python's q / m,
        # added left to right, and the violations and maxima are decided in Python ints and Fractions
        split_q, oracle_q = zip(*drawn)
        rows, m1s = len(drawn), np.full(len(drawn), 2, dtype=np.int64)
        report = orc._report(n_lo, n_lo + rows - 1, m1s, np.array(split_q).T, m1s, np.array(oracle_q).T)
        assert report.violations == tuple(n for n, (a, b), (c, d) in zip(count(n_lo), split_q, oracle_q) if c * b > a * d)
        assert (report.max_split_quality, report.max_oracle_quality) == tuple(max(Fraction(*q) for q in side) for side in (split_q, oracle_q))
        means = tuple(list(accumulate(q / m for q, m in side))[-1] / rows for side in (split_q, oracle_q))
        assert (report.mean_split_quality, report.mean_oracle_quality) == means


class TestBlockMatchesLoop:
    """The block sumsets against the per-n loops they replaced."""

    @settings(max_examples=12, deadline=None)
    @given(window(4, 200_000 - 300, 300))
    def test_oracle_up_to_2e5(self, lohi):
        assert plain(constructive_vs_oracle(*lohi, force=True)) == plain(loop_oracle(*lohi, table_to(200_000)))

    @settings(max_examples=4, deadline=None)
    @given(window(998_000, 1_001_800, 200))
    def test_oracle_near_1e6(self, lohi):
        assert plain(constructive_vs_oracle(*lohi, force=True)) == plain(loop_oracle(*lohi, table_to(1_002_000)))

    @settings(max_examples=10, deadline=None)
    @given(window(4, 20_000, 600), st.sampled_from([1, 3, 64]))
    def test_oracle_across_block_edges(self, lohi, cap):
        # pair blocks of a few pairs and oracle blocks of a few n: many edges inside one window
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orc, "BLOCK", cap * 16)
            got = constructive_vs_oracle(*lohi, force=True)
        assert plain(got) == plain(loop_oracle(*lohi, table_to(20_600)))

    @settings(max_examples=12, deadline=None)
    @given(window(4, 2_500, 300), st.sampled_from([0, 1, 2]), st.sampled_from([16, 48]))
    def test_oracle_fallback(self, lohi, first, block):
        # with the first tier patched smaller, or empty, many n miss it and are ranked over G;
        # with blocks of a few n, one pair of tiers serves many blocks
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orc, "BLOCK", block)
            mp.setattr(orc, "_FIRST_TIER_QUALITY", first)
            got = constructive_vs_oracle(*lohi, force=True)
        assert plain(got) == plain(loop_oracle(*lohi, table_to(2_800)))

    @pytest.mark.parametrize("gamma", [-5.0, 0.0, 0.5, 10.0])
    @settings(max_examples=8, deadline=None)
    @given(lohi=window(4, 200_000 - 400, 400))
    def test_probe_up_to_2e5(self, gamma, lohi):
        report = conjecture_probe(*lohi, _log_weighted_class(gamma), force=True)
        assert plain_probe(report) == loop_probe(*lohi, gamma, table_to(200_000))

    @pytest.mark.parametrize("gamma", [0.0, 0.5])
    @settings(max_examples=3, deadline=None)
    @given(lohi=window(998_000, 1_001_500, 500))
    def test_probe_near_1e6(self, gamma, lohi):
        report = conjecture_probe(*lohi, _log_weighted_class(gamma), force=True)
        assert plain_probe(report) == loop_probe(*lohi, gamma, table_to(1_002_000))

    @pytest.mark.parametrize("gamma", [0.0, 10.0])
    @settings(max_examples=8, deadline=None)
    @given(lohi=window(4, 20_000, 600), cap=st.sampled_from([1, 3, 64]))
    @example(lohi=(4, 3000), cap=1)  # blocks ending inside runs of g1 meet the probe's early exit at its bound
    def test_probe_across_block_edges(self, gamma, lohi, cap):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orc, "BLOCK", cap * 16)
            report = conjecture_probe(*lohi, _log_weighted_class(gamma), force=True)
        assert plain_probe(report) == loop_probe(*lohi, gamma, table_to(20_600))

    @settings(max_examples=6, deadline=None)
    @given(window(4, 30_000, 300))
    def test_oracle_wide_band(self, lohi):
        # a band this wide holds many pairs per n: the exact re-rank alone picks the optimum
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(orc, "_PREFILTER_REL", 1.0)
            got = constructive_vs_oracle(*lohi, force=True)
        assert plain(got) == plain(loop_oracle(*lohi, table_to(30_300)))

    def test_report_decides_float_ties_exactly(self):
        # (2**60 + 1) / 2**60 and 1 round to the same float
        above, one = (2**60 + 1, 2**60), (1, 1)
        # n = 10 is a violation only in exact terms
        columns = [np.array(column, dtype=np.int64).T for column in ([2, 2, 2], [one, above, one], [2, 2, 2], [above, one, one])]
        report = orc._report(10, 12, *columns)
        assert report.violations == (10,)
        assert report.max_split_quality == report.max_oracle_quality == Fraction(*above)
        assert orc._report(10, 12, *(c[..., ::-1] for c in columns)).max_split_quality == Fraction(*above)

    def test_scans_reach_no_sieve(self, monkeypatch):
        monkeypatch.setattr(kernsplit.kernel, "radical_sieve", refuse)
        monkeypatch.setattr(kernsplit.kernel, "_radical_segment", refuse)
        assert constructive_vs_oracle(4, 3000).violations == ()
        for gamma in (-5.0, 0.0, 0.5, 10.0):
            conjecture_probe(4, 3000, _log_weighted_class(gamma))
        # nor does G, which ranks every n when the first tier is empty
        monkeypatch.setattr(orc, "_FIRST_TIER_QUALITY", 0)
        assert constructive_vs_oracle(4, 300).violations == ()


class TestProbeParts:
    """The probe's qualifying parts, from the counter's per-b intervals, against the counter and the dense mask."""

    @pytest.mark.parametrize("gamma", [-5.0, -0.5, 0.0, 0.5, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("x", [2, 3, 1000, 54321])
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_size_is_the_count(self, gamma, x, data):
        # besides the anchor: gamma in [-8, 8], at and next to ln(x)/2, where e**(2*gamma) = x, and +-1e308
        edge = math.log(x) / 2
        gamma = data.draw(
            st.one_of(
                st.just(gamma),
                st.floats(min_value=-8, max_value=8),
                st.sampled_from([edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)]),
                st.sampled_from([edge - 1e-9, edge + 1e-9, 1e308, -1e308]),
            ),
            label="gamma",
        )
        qualifying = _log_weighted_class(gamma)
        members, _ = kernel_bounded(x, qualifying.interval(x))
        counted = kernsplit.powered._interval_count(x, qualifying, kernsplit.powered._CoprimeSquarefree())
        assert len(members) == counted
        if abs(gamma) < 1e308:  # the public counter refuses ln(x)**gamma = inf or 0
            assert count_log_weighted(x, gamma).count == counted
        assert np.array_equal(members, np.flatnonzero(log_weighted_mask(x, gamma, table=table_to(54321))))


# the candidate sets the scans pair up: G, and the probe's qualifying parts at each gamma
SCAN_TOP = 6000


@cache
def scan_parts(mode) -> np.ndarray:
    table = table_to(SCAN_TOP)
    if mode == "oracle":
        return table_parts(table, SCAN_TOP, orc._CANDIDATE_QUALITY)[1]
    return np.flatnonzero(log_weighted_mask(SCAN_TOP, mode, table=table))


class TestScanWork:
    """The one price of a scan, in seconds and bytes: rows, the walk, candidate parts and sumset pairs."""

    @pytest.mark.parametrize("mode", ["oracle", -5.0, 0.0, 0.5, 10.0])
    @settings(max_examples=25, deadline=None)
    @given(lo=st.integers(min_value=4, max_value=SCAN_TOP), width=st.integers(min_value=0, max_value=300))
    def test_lookups_count_the_parts_below_half(self, mode, lo, width):
        # one lookup per pair: a part m1 <= n // 2 whose n - m1 is a part too
        hi = min(lo + width, SCAN_TOP + 2)
        parts = scan_parts(mode)
        member = np.zeros(hi + 1, dtype=bool)
        member[parts[parts <= hi]] = True
        brute = sum(int(member[n - parts[: np.searchsorted(parts, n // 2, side="right")]].sum()) for n in range(lo, hi + 1))
        assert orc._pair_count(parts, lo, hi) == brute
        index, start, count = orc._pair_ranges(parts, lo, hi)
        none = np.zeros(0, dtype=np.int64)
        owner, i2 = map(np.concatenate, zip(*flat_ranges(start, count, 7), (none, none)))
        m1, m2 = parts[index[owner]], parts[i2]
        key = np.sort(m1 * (hi + 1) + m2)  # one integer per pair: m2 <= hi
        assert len(key) == brute and (np.diff(key) > 0).all()
        assert (m1 <= m2).all() and (lo <= m1 + m2).all() and (m1 + m2 <= hi).all()

    @settings(max_examples=300, deadline=None)
    @given(
        parts=st.lists(st.integers(min_value=2, max_value=10**4), unique=True, max_size=80).map(sorted),
        lo=st.integers(min_value=0, max_value=2 * 10**4 + 10),
        width=st.one_of(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=2 * 10**4)),
    )
    def test_pair_ranges_keep_only_the_g1_that_reach(self, parts, lo, width):
        # narrow windows leave most g1 without a pair: those are dropped, and the rest expand to every pair
        hi = lo + width
        parts = np.array(parts, dtype=np.int64)
        index, start, count = orc._pair_ranges(parts, lo, hi)
        assert (count > 0).all() and (np.diff(index) > 0).all()
        formed = [(int(parts[i]), int(parts[s + j])) for i, s, c in zip(index, start, count) for j in range(c)]
        brute = {(g1, g2) for g1 in parts.tolist() for g2 in parts.tolist() if g1 <= g2 and lo <= g1 + g2 <= hi}
        assert len(formed) == len(set(formed)) and set(formed) == brute

    def test_work_adds_table_rows_and_lookups(self, monkeypatch):
        # one price per unit: the rows, the walk, the parts' width bound (as it grows, then whole) and the exact pair count
        lo, hi = 1000, 3000
        priced = []
        monkeypatch.setattr(orc, "check_budget", lambda what, seconds, nbytes, force: priced.append((seconds, nbytes)))
        constructive_vs_oracle(lo, hi)
        widths = []
        parts, _ = kernel_bounded(hi - 2, quality(orc._CANDIDATE_QUALITY).interval(hi - 2), widths.append)
        rows, walk, pairs = hi - lo + 1, math.ceil(kernsplit.kernel.POWERFUL_DENSITY * math.sqrt(hi)), orc._pair_count(parts, lo, hi)
        k = kernsplit.kernel
        expected = [
            (k.ROW_S * rows + k.WALK_VISIT_S * walk + k.PART_S * p + k.PAIR_S * q, k.ROW_BYTES * rows + k.WALK_VISIT_BYTES * walk + k.PART_BYTES * p)
            for p, q in [(0, 0), *((w, 0) for w in widths), (widths[-1], pairs)]
        ]
        assert priced == expected

    def test_table_and_rows_refused_before_the_sieve(self, monkeypatch):
        # on the rows alone, before the walk over the powerful numbers
        monkeypatch.setattr(kernsplit.kernel, "powerful_sum", refuse)
        with pytest.raises(ValueError, match=refusal(4, 100000000)):
            conjecture_probe(4, 10**8, _log_weighted_class(-5.0))
        with pytest.raises(ValueError, match=refusal(4, 2000000)):
            constructive_vs_oracle(4, 2_000_000)

    @pytest.mark.parametrize("lo", [10**13, 10**14])
    def test_walk_refused_before_it_starts(self, monkeypatch, lo):
        # the walk over the ~2.2 * sqrt(n) powerful b is priced before any b is visited: past ~6e12 its bytes are over
        monkeypatch.setattr(kernsplit.kernel, "powerful_sum", refuse)
        with pytest.raises(ValueError, match=refusal(lo, lo + 100)):
            constructive_vs_oracle(lo, lo + 100)
        with pytest.raises(ValueError, match=refusal(lo, lo + 100)):
            conjecture_probe(lo, lo + 100, _log_weighted_class(0.5))

    def test_parts_refused_before_they_exist(self, monkeypatch):
        # a dense superset (gamma = 10: every m) is refused on the bound of its parts
        monkeypatch.setattr(kernsplit.kernel, "squarefree_flags", refuse)
        with pytest.raises(ValueError, match=refusal(48000000, 48000000)):
            conjecture_probe(48_000_000, 48_000_000, _log_weighted_class(10.0))

    def test_lookups_refused_once_the_parts_are_known(self, monkeypatch):
        monkeypatch.setattr(orc, "flat_ranges", refuse)
        with pytest.raises(ValueError, match=refusal(4, 150000)):
            conjecture_probe(4, 150_000, _log_weighted_class(3.0))  # ~5.6e9 pairs over a dense set
        monkeypatch.undo()
        assert conjecture_probe(4, 100_000, _log_weighted_class(0.0)).satisfied == 98020

    def test_force_computes_nothing(self, monkeypatch):
        # forced, a scan is priced in bytes alone: its pairs are never counted
        monkeypatch.setattr(orc, "_pair_count", refuse)
        assert constructive_vs_oracle(4, 100, force=True).violations == ()
        assert plain_probe(conjecture_probe(4, 100, _log_weighted_class(0.0), force=True))[1][:3] == (4, 5, 6)
        with pytest.raises(ValueError, match="need 4 <= n_lo <= n_hi"):
            constructive_vs_oracle(10, 4, force=True)  # a malformed range is refused all the same

    def test_forced_parts_keep_a_memory_bound(self, monkeypatch):
        widths = []  # the width bound of conjecture_probe(4, 100, _log_weighted_class(10.0))
        kernel_bounded(98, _log_weighted_class(10.0).interval(98), widths.append)
        k = kernsplit.kernel
        held = k.ROW_BYTES * 97 + k.WALK_VISIT_BYTES * math.ceil(k.POWERFUL_DENSITY * 10) + k.PART_BYTES * widths[-1]
        # gamma = 10 near 1e9: every m >= 3 is a part, a width bound of ~1.94e9 units (~48.6 GB), refused
        # during the walk at the first doubling of its running bound past 8 GiB, ~1e9 units (~2.5e10 bytes)
        monkeypatch.setattr(k, "squarefree_flags", refuse)
        physical = SimpleNamespace(sysconf={"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**21}.get)  # 8 GiB
        monkeypatch.setattr(k, "os", physical)
        with pytest.raises(ValueError, match=r"~2\.5e\+10 bytes, over the 8 GiB of physical memory, forced or not$"):
            conjecture_probe(10**9, 10**9 + 50, _log_weighted_class(10.0), force=True)
        with pytest.raises(ValueError, match="physical memory, forced or not"):
            best_decomposition(10**17)  # on its walk alone, before any b is visited
        # at the bound the parts are built: the patched squarefree list is reached
        physical.sysconf = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": held}.get
        with pytest.raises(AssertionError, match="ran past the work check"):
            conjecture_probe(4, 100, _log_weighted_class(10.0), force=True)
        physical.sysconf = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": held - 1}.get
        with pytest.raises(ValueError, match="physical memory, forced or not"):
            conjecture_probe(4, 100, _log_weighted_class(10.0), force=True)
        monkeypatch.setattr(k, "MEMORY_LIMIT", held - 1)
        with pytest.raises(ValueError, match=re.escape("; rerun with --force to proceed")):
            conjecture_probe(4, 100, _log_weighted_class(10.0))  # unforced: the same bytes, against the budget

    def test_force_runs_over_budget(self, monkeypatch):
        monkeypatch.setattr(kernsplit.kernel, "WORK_LIMIT_S", 0.001)
        with pytest.raises(ValueError, match=re.escape("over the budget of 0.001 s and 1 GiB")):
            constructive_vs_oracle(4, 100)
        with pytest.raises(ValueError, match=re.escape("over the budget of 0.001 s and 1 GiB")):
            conjecture_probe(4, 100, _log_weighted_class(0.0))
        assert len(constructive_vs_oracle(4, 100, force=True).split_m1) == 97
        assert len(conjecture_probe(4, 100, _log_weighted_class(0.0), force=True).witness) == 97
