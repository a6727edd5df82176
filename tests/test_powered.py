"""Membership, index, and counting tests.

Counting examples are frozen from an in-test enumeration oracle that
walks every m with a per-element radical, independent of the sieve and
prefilter machinery under test.  The counters are also checked against
the dense masks of ``dense_reference``, which decide every m of a kernel
table.
"""

import math
import re
from decimal import Context, Decimal, localcontext
from fractions import Fraction
from functools import partial
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dense_reference
import walk_reference
import kernsplit.kernel
import kernsplit.powered
from dense_reference import log_weighted_mask, membership_mask, multiplicity_index, subset_check_powers
from kernsplit.kernel import quality, radical, radical_sieve
from kernsplit.powered import (
    CountReport,
    Theta,
    _log_weighted_class,
    _theta_class,
    count_log_weighted,
    count_members,
    log_ratio_table,
)
from kernsplit.oracle import conjecture_probe


def theta_member(m: int, theta: Theta) -> bool:
    """The theta class's exact decision of m, with k(m) by trial division."""
    return _theta_class(theta).member(m, radical(m))


def enumerate_members(x: int, theta: Theta) -> list[int]:
    return [m for m in range(1, x + 1) if radical(m) ** theta.q <= m**theta.p]


def enumerate_log_weighted(x: int, gamma: float) -> list[int]:
    out = []
    for m in range(2, x + 1):
        if radical(m) ** 2 <= m * math.log(m) ** (2 * gamma):
            out.append(m)
    return out


def dense_members(x: int, theta: Theta) -> int:
    """Reference for ``count_members``: the theta rule over every m of a table of [1, x]."""
    return int(membership_mask(x, theta).sum())


def dense_log_weighted(x: int, gamma: float) -> int:
    """Reference for ``count_log_weighted``: the log-weighted rule over every m of a table of [1, x]."""
    return int(log_weighted_mask(x, gamma).sum())


class TestTheta:
    def test_reduces_to_lowest_terms(self):
        assert Theta(2, 4) == Theta(1, 2)
        assert Theta(6, 9).p == 2 and Theta(6, 9).q == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            Theta(0, 2)
        with pytest.raises(ValueError):
            Theta(1, 0)
        with pytest.raises(ValueError):
            Theta(3, 2)  # above 1
        with pytest.raises(ValueError):
            Theta(-1, 2)
        with pytest.raises(TypeError, match="theta components must be integers"):
            Theta(1.0, 2)

    def test_parse(self):
        assert Theta.parse("1/2") == Theta(1, 2)
        assert Theta.parse("1") == Theta(1, 1)
        assert Theta.parse(" 2/4 ") == Theta(1, 2)
        with pytest.raises(ValueError):
            Theta.parse("0.5")
        with pytest.raises(ValueError):
            Theta.parse("1/2/3")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2", "theta must be <= 1, got 2/1"),
            ("3/2", "theta must be <= 1, got 3/2"),
            ("0/1", "theta must be positive, got 0/1"),
            ("1/0", "theta must be positive, got 1/0"),
            ("abc", "cannot parse theta from 'abc'"),
            ("1/2/3", "cannot parse theta from '1/2/3'"),
            ("0.5", "cannot parse theta from '0.5'"),
            ("", "cannot parse theta from ''"),
        ],
    )
    def test_parse_keeps_range_errors(self, text, message):
        # only the integer conversion reads as a parse error; Theta's own checks keep their messages
        with pytest.raises(ValueError) as info:
            Theta.parse(text)
        assert str(info.value) == message

    def test_str_round_trip(self):
        assert str(Theta(1, 3)) == "1/3"
        assert Theta.parse(str(Theta(2, 3))) == Theta(2, 3)


class TestMembership:
    def test_examples(self):
        assert theta_member(1, Theta(1, 2))
        assert theta_member(8, Theta(1, 3))  # boundary: 2**3 == 8 counts
        assert not theta_member(12, Theta(1, 2))  # 6**2 = 36 > 12

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            theta_member(0, Theta(1, 2))

    @pytest.mark.parametrize("theta", [Theta(1, 2), Theta(1, 3), Theta(2, 3)])
    def test_mask_agrees_with_exact_evaluation(self, theta):
        # exercises the float prefilter against the big-integer rule
        x = 10_000
        mask = membership_mask(x, theta)
        members = set(enumerate_members(x, theta))
        for m in range(1, x + 1):
            assert mask[m] == (m in members), (m, theta)


class TestMultiplicityIndex:
    def test_examples(self):
        assert multiplicity_index(4) == 2.0
        assert multiplicity_index(6) == 1.0
        assert multiplicity_index(12) == pytest.approx(math.log(12) / math.log(6))

    def test_undefined_below_two(self):
        with pytest.raises(ValueError):
            multiplicity_index(0)
        with pytest.raises(ValueError):
            multiplicity_index(1)

    def test_powers_raise_the_index(self):
        for m in range(2, 101):
            for exp in (2, 3, 4):
                assert multiplicity_index(m**exp) >= exp - 1e-9


class TestCountMembers:
    def test_examples(self):
        assert count_members(10, Theta(1, 2)).count == 4  # {1, 4, 8, 9}
        assert count_members(100, Theta(1, 2)).count == 17
        assert count_members(100, Theta(1, 1)).count == 100

    def test_matches_enumeration_oracle(self):
        for x in (10, 100, 1000):
            for theta in (Theta(1, 2), Theta(1, 3), Theta(2, 3)):
                expected = len(enumerate_members(x, theta))
                assert count_members(x, theta).count == expected

    def test_theta_one_counts_everything(self):
        for x in (1, 10, 100, 1000):
            assert count_members(x, Theta(1, 1)).count == x

    def test_monotone_in_x_and_theta(self):
        # the masks share one table
        table = radical_sieve(10_000)
        thetas = [Theta(1, 3), Theta(1, 2), Theta(2, 3), Theta(1, 1)]
        xs = [10, 100, 1000, 10_000]
        counts = {
            (str(t), x): int(membership_mask(x, t, table=table).sum())
            for t in thetas
            for x in xs
        }
        for t in thetas:
            for lo, hi in zip(xs, xs[1:]):
                assert counts[(str(t), lo)] <= counts[(str(t), hi)]
        for x in xs:
            for ta, tb in zip(thetas, thetas[1:]):
                assert counts[(str(ta), x)] <= counts[(str(tb), x)]

    def test_shared_table_prefix(self):
        table = radical_sieve(5000)
        assert membership_mask(100, Theta(1, 2), table=table).sum() == 17
        with pytest.raises(ValueError, match="below x"):
            membership_mask(6000, Theta(1, 2), table=table)
        with pytest.raises(ValueError, match="below x"):
            log_weighted_mask(6000, 0.0, table=table)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            count_members(0, Theta(1, 2))


class TestCountLogWeighted:
    def test_examples(self):
        assert count_log_weighted(10, 0.0).count == 3  # {4, 8, 9}
        assert count_log_weighted(100, 0.0).count == 16
        # gamma = 10 admits every m in [3, 100]; m = 2 fails because
        # ln(2) < 1 makes the weight (ln m)**20 collapse
        assert count_log_weighted(100, 10.0).count == 98

    def test_matches_enumeration_oracle(self):
        for x, gamma in ((10, 0.0), (100, 0.0), (100, 10.0), (500, 1.0), (500, -1.0)):
            expected = len(enumerate_log_weighted(x, gamma))
            assert count_log_weighted(x, gamma).count == expected, (x, gamma)

    def test_gamma_zero_is_half_theta_minus_one(self):
        for x in (10, 100, 10_000):
            plain = count_members(x, Theta(1, 2)).count
            assert count_log_weighted(x, 0.0).count == plain - 1

    def test_rejects_x_below_two(self):
        with pytest.raises(ValueError):
            count_log_weighted(1, 0.0)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_gamma(self, gamma):
        with pytest.raises(ValueError, match="finite"):
            count_log_weighted(100, gamma)


    def test_overflowed_weight_needs_no_exact_path(self, monkeypatch):
        # ln(m)**500 overflows for m > 62; such m are members without a recheck
        def refuse(*args):
            raise AssertionError("exact path taken")

        monkeypatch.setattr(kernsplit.powered, "_log_weighted_member_exact", refuse)
        assert count_log_weighted(2000, 250.0).count == 1998
        assert log_weighted_mask(2000, 250.0).sum() == 1998

    def test_gamma_zero_mask_decides_in_integers(self, monkeypatch):
        # ln(m)**0 == 1, so the ties k**2 == m need no recheck
        def refuse(*args):
            raise AssertionError("exact path taken")

        monkeypatch.setattr(kernsplit.powered, "_log_weighted_member_exact", refuse)
        x = 20_000
        expected = [m >= 2 and radical(m) ** 2 <= m for m in range(x + 1)]
        assert log_weighted_mask(x, 0.0).tolist() == expected

    @pytest.mark.parametrize("gamma", [1e308, -1e308])
    def test_rejects_unrepresentable_normalization(self, gamma):
        # ln(100)**gamma overflows, or underflows to 0
        with pytest.raises(ValueError, match=re.escape(f"gamma={gamma}, x=100")):
            count_log_weighted(100, gamma)
        with pytest.raises(ValueError, match=re.escape(f"gamma={gamma}, x=10") + "$"):
            log_ratio_table([100, 10], gamma)

    @pytest.mark.parametrize("xs", [[10, 100], [1], [], [100, 10, 1]])
    def test_ratio_table_refuses_a_grid_not_descending_from_two(self, xs):
        # the message lists the xs read up to and including the first bad one
        with pytest.raises(ValueError, match=re.escape(f"expected descending x values >= 2, got {xs}") + "$"):
            log_ratio_table(iter(xs), 0.5)


class TestNearTieRecheck:
    """The exact re-decision of log-weighted near-ties, which the sampled counts rarely reach."""

    @staticmethod
    def spy_exact(monkeypatch) -> list:
        """Record (m, k, gamma, answer) for every call to ``_log_weighted_member_exact``."""
        calls = []
        exact = kernsplit.powered._log_weighted_member_exact

        def spy(m, k, gamma):
            answer = exact(m, k, gamma)
            calls.append((m, k, gamma, answer))
            return answer

        monkeypatch.setattr(kernsplit.powered, "_log_weighted_member_exact", spy)
        return calls

    def test_engineered_ties_match_sixty_digits(self, monkeypatch):
        # gamma puts m on the boundary: ln(m)**(2*gamma) == k**2 / m up to the rounding of gamma
        calls = self.spy_exact(monkeypatch)
        ms = [m for m in range(3, 3000) if radical(m) ** 2 != m]
        for m in ms:
            k = radical(m)
            kernsplit.powered._log_weighted_member(m, k, math.log(k * k / m) / (2 * math.log(math.log(m))))
        assert [c[0] for c in calls] == ms  # every one is a near-tie
        with localcontext(Context(prec=60)):
            reference = [k * k <= Decimal(m) * Decimal(m).ln() ** Decimal(2 * gamma) for m, k, gamma, _ in calls]
        assert [c[3] for c in calls] == reference
        assert 0 < sum(reference) < len(reference)  # both answers are reached

    @pytest.mark.parametrize("x, gamma", [(100_000, 0.5), (100_000, -0.5), (10_000, 3.0)])
    def test_rechecking_every_decision_keeps_the_count(self, monkeypatch, x, gamma):
        expected = count_log_weighted(x, gamma).count
        calls = self.spy_exact(monkeypatch)
        monkeypatch.setattr(kernsplit.powered, "PREFILTER_REL", 1.0)
        assert count_log_weighted(x, gamma).count == expected
        assert len(calls) > 200


# segment sizes small enough to cut x into many segments
SEGMENTS = st.integers(min_value=1, max_value=300)


@st.composite
def x_and_segment(draw):
    """x >= 2 and a segment size, with x often at or next to a segment end."""
    seg = draw(SEGMENTS)
    end = seg * draw(st.integers(min_value=1, max_value=40))
    x = draw(st.one_of(st.sampled_from([end - 1, end, end + 1]), st.integers(2, 40 * seg + 1)))
    return max(x, 2), seg


class TestStreamingMatchesDense:
    """The counters, which stream over the powerful numbers, against the dense masks,
    whose table is sieved and decided in segments of independent sizes."""

    @settings(max_examples=60, deadline=None)
    @given(
        x_and_segment(),
        SEGMENTS,
        st.sampled_from([Theta(1, 3), Theta(1, 2), Theta(2, 3), Theta(1, 1)]),
        st.sampled_from([0.0, 0.5, 1.0, 2.5]),
    )
    def test_counts(self, xs, dense_seg, theta, gamma):
        x, seg = xs
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dense_reference, "SEGMENT", dense_seg)
            mp.setattr(kernsplit.kernel, "BLOCK", seg)
            members = dense_members(x, theta)
            weighted = dense_log_weighted(x, gamma)
            assert count_members(x, theta).count == members
            assert count_log_weighted(x, gamma).count == weighted

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=2, max_value=3000), min_size=1, max_size=8),
        st.sampled_from([0.0, 0.5, 1.0, 2.5]),
    )
    def test_ratio_table_reads_counts_at_every_x(self, grid, gamma):
        xs = sorted(grid)
        rows = log_ratio_table(xs[::-1], gamma)
        half = Theta(1, 2)
        assert [r["x"] for r in rows] == xs
        for r in rows:
            assert r["weighted_count"] == count_log_weighted(r["x"], gamma).count
            assert r["half_count"] == count_members(r["x"], half).count

    def test_reads_off_counts_at_segment_edges(self, monkeypatch):
        monkeypatch.setattr(dense_reference, "SEGMENT", 64)
        monkeypatch.setattr(kernsplit.kernel, "BLOCK", 64)
        xs = [2, 63, 64, 65, 128, 129, 130]
        for x in xs:
            assert count_members(x, Theta(1, 1)).count == x  # every m is a member
        table = radical_sieve(xs[-1])
        assert [(r["weighted_count"], r["half_count"]) for r in log_ratio_table(xs[::-1], 2.5)] == [
            (log_weighted_mask(x, 2.5, table=table).sum(), membership_mask(x, Theta(1, 2), table=table).sum())
            for x in xs
        ]

    def test_counters_build_no_table(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sieve called")

        monkeypatch.setattr(kernsplit.kernel, "radical_sieve", refuse)
        monkeypatch.setattr(kernsplit.kernel, "_radical_segment", refuse)
        monkeypatch.setattr(kernsplit.kernel, "BLOCK", 64)
        assert count_members(1000, Theta(1, 2)).count == len(enumerate_members(1000, Theta(1, 2)))
        assert count_log_weighted(1000, 1.0).count == len(enumerate_log_weighted(1000, 1.0))
        assert [r["half_count"] for r in log_ratio_table([100, 10], 1.0)] == [4, 17]


X_MAX = 300_000
# the powerful numbers are exactly the a**2 * c**3
POWERFUL = sorted(
    {a * a * c**3 for c in range(1, 67) for a in range(1, math.isqrt(X_MAX // c**3) + 1)}
)
THETAS = st.integers(1, 6).flatmap(lambda q: st.builds(Theta, st.integers(1, q), st.just(q)))
GAMMAS = st.one_of(
    st.sampled_from([-3.0, -0.5, 0.0, 0.5, 1.0, 2.5, 4.0]),
    st.floats(min_value=-8, max_value=8),
    # e**(2*gamma) in (1, e**16]: the b below it search both ways from a next to e**(2*gamma) / b
    st.floats(min_value=0, max_value=8, exclude_min=True),
)
# squarefree table caps: small ones send most counts to the Moebius sums
TABLE_CAPS = st.sampled_from([1, 5, 64, 1 << 22])


@st.composite
def count_x(draw, lo: int = 1) -> int:
    """x <= X_MAX, often at or next to a powerful number or a square."""
    centre = draw(
        st.one_of(
            st.integers(1, X_MAX),
            st.sampled_from(POWERFUL),
            st.integers(1, math.isqrt(X_MAX)).map(lambda n: n * n),
        )
    )
    return min(max(centre + draw(st.integers(-1, 1)), lo), X_MAX)


@st.composite
def gamma_and_x(draw) -> tuple[float, int]:
    """gamma and x >= 2, with x often at or next to e**(2*gamma) or a powerful number."""
    gamma = draw(GAMMAS)
    peak = math.exp(min(2 * gamma, math.log(X_MAX)))
    start = min(X_MAX, math.floor(peak * (1 + 1e-9)) + 1)  # from b*lo = start on, each interval is a prefix
    near = math.floor(peak)
    x = draw(st.one_of(count_x(lo=2), st.integers(start - 1, start + 2), st.integers(near - 1, near + 1)))
    return gamma, min(max(x, 2), X_MAX)


class TestPowerfulSumMatchesReferences:
    """The counters over powerful b against the dense references."""

    @settings(max_examples=40, deadline=None)
    @given(count_x(), THETAS, TABLE_CAPS)
    def test_theta_counts(self, x, theta, cap):
        expected = dense_members(x, theta)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernsplit.powered, "_SQUAREFREE_TABLE_LIMIT", cap)
            assert count_members(x, theta).count == expected

    @settings(max_examples=60, deadline=None)
    @given(gamma_and_x(), TABLE_CAPS)
    def test_log_weighted_counts(self, gamma_x, cap):
        gamma, x = gamma_x
        expected = dense_log_weighted(x, gamma)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernsplit.powered, "_SQUAREFREE_TABLE_LIMIT", cap)
            assert count_log_weighted(x, gamma).count == expected

    def test_boundary_hits(self):
        # k(8)**3 == 8: m = 8 counts at theta = 1/3; k(4)**2 == 4 at gamma = 0
        for x in (7, 8, 9):
            assert count_members(x, Theta(1, 3)).count == dense_members(x, Theta(1, 3))
        assert count_members(8, Theta(1, 3)).count == count_members(7, Theta(1, 3)).count + 1
        assert count_log_weighted(4, 0.0).count == 1

    def test_theta_and_nonpositive_gamma_never_sieve(self, monkeypatch):
        # the counters never sieve, at any theta or gamma, e**(2*gamma) below or past x
        x = 100_000
        thetas = [Theta(1, 3), Theta(1, 2), Theta(2, 3), Theta(5, 6)]
        gammas = [-3.0, -0.5, 0.0, 0.5, 2.5, 250.0]
        expected = [dense_members(x, t) for t in thetas] + [dense_log_weighted(x, g) for g in gammas]
        ratios = [
            (dense_log_weighted(xr, 2.5), dense_members(xr, Theta(1, 2))) for xr in (10, 100, 1000, x)
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("sieve called")

        monkeypatch.setattr(kernsplit.kernel, "radical_sieve", refuse)
        monkeypatch.setattr(kernsplit.kernel, "_radical_segment", refuse)
        got = [count_members(x, t).count for t in thetas] + [count_log_weighted(x, g).count for g in gammas]
        assert got == expected
        rows = log_ratio_table([x, 1000, 100, 10], 2.5)
        assert [(r["weighted_count"], r["half_count"]) for r in rows] == ratios

    def test_gamma_zero_identity_at_1e7(self):
        x = 10**7
        assert count_log_weighted(x, 0.0).count == count_members(x, Theta(1, 2)).count - 1

    def test_overflowed_weight_is_a_member(self):
        # ln(2)**-2000 overflows a float: m = 2 is a member, m = 3 is not
        assert count_log_weighted(3, -1000.0).count == dense_log_weighted(3, -1000.0) == 1

    @pytest.mark.parametrize("gamma", [1e308, -1e308])
    def test_overflowed_gamma_walks(self, gamma):
        # 2*gamma overflows, so ln(m)**(2*gamma) is 0 or inf; the probe walks these gammas
        walked = kernsplit.powered._interval_count(3398, _log_weighted_class(gamma), kernsplit.powered._CoprimeSquarefree())
        assert walked == dense_log_weighted(3398, gamma) == (3396 if gamma > 0 else 1)

    def test_large_gamma_prefix_is_the_whole_count(self):
        # e**500 > x: every m lies below e**(2*gamma), where the test falls in a for each b
        assert count_log_weighted(200_000, 250.0).count == dense_log_weighted(200_000, 250.0)


@st.composite
def gamma_near_x(draw) -> tuple[float, int]:
    """x <= 3000 and a gamma that is negative, +-1e-12, near ln(x)/2 or past it."""
    x = draw(st.integers(2, 3000))
    half_log = math.log(x) / 2
    gamma = draw(
        st.one_of(
            st.floats(min_value=-8, max_value=0, exclude_max=True),
            st.sampled_from([1e-12, -1e-12]),
            st.floats(min_value=half_log - 0.5, max_value=half_log + 0.5),
            st.floats(min_value=half_log, max_value=half_log + 50),
        )
    )
    return gamma, x


@st.composite
def class_and_x(draw):
    """``(kind, class, x)``: quality c in {1, 21, 1/16} or theta = p/q, q <= 12, with x <= 1e5, or gamma_near_x's gamma and x."""
    kind = draw(st.sampled_from(["quality", "theta", "gamma"]))
    if kind == "gamma":
        gamma, x = draw(gamma_near_x())
        return kind, _log_weighted_class(gamma), x
    if kind == "quality":
        members = quality(draw(st.sampled_from([1, 21, Fraction(1, 16)])))
    else:
        members = _theta_class(draw(st.integers(1, 12).flatmap(lambda q: st.builds(Theta, st.integers(1, q), st.just(q)))))
    return kind, members, draw(st.one_of(st.integers(1, 3000), st.integers(1, 10**5)))


@settings(max_examples=150, deadline=None)
@given(class_and_x())
def test_class_interval_is_the_scan_of_its_members(kind_class_x):
    # each b's interval holds exactly the a in [1, x // b] whose a*b passes the class's own test, with kernel a*k(b):
    # on both sides of e**(2*gamma) for gamma, and m = 1 (a = b = 1) only in a theta class
    kind, members, x = kind_class_x
    assert members.member(1, 1) == (kind == "theta")
    interval = members.interval(x)
    for b in POWERFUL:
        if b > x:
            break
        k = radical(b)
        scanned = [a for a in range(1, x // b + 1) if members.member(a * b, a * k)]
        first, end = interval(b, k)
        assert scanned == list(range(first, end + 1)), (kind, members.param, b, x)


WALK_MAX = 1 << 20
WALK_POWERFUL = sorted(
    {a * a * c**3 for c in range(1, 102) for a in range(1, math.isqrt(WALK_MAX // c**3) + 1)}
)


@st.composite
def walk_x(draw) -> int:
    """2 <= x <= WALK_MAX + 1, at or next to a powerful number or a power of two."""
    centre = draw(st.one_of(st.sampled_from(WALK_POWERFUL), st.integers(1, 20).map(lambda k: 2**k)))
    return max(centre + draw(st.integers(-1, 1)), 2)


class TestWalkMatchesPerVisitReference:
    """One walk with the small-count table and the bulk leaves, against a visit per powerful b."""

    @settings(max_examples=60, deadline=None)
    @given(walk_x(), st.sampled_from([Theta(1, 2), Theta(1, 3), Theta(2, 3), Theta(3, 4), Theta(5, 7)]))
    def test_theta_counts(self, x, theta):
        assert count_members(x, theta).count == walk_reference.theta_count(x, theta)

    @settings(max_examples=60, deadline=None)
    @given(walk_x(), st.sampled_from([-1.0, 0.0, 0.5, 3.0, 20.0]))
    def test_log_weighted_counts(self, x, gamma):
        assert count_log_weighted(x, gamma).count == walk_reference.log_weighted_count(x, gamma)

    def test_gamma_zero_on_the_half_walk_at_1e7(self):
        # the log-weighted walk at gamma = 0 decides k**2 <= m in integers, b by b
        x = 10**7 + 1
        assert count_log_weighted(x, 0.0).count == walk_reference.log_weighted_count(x, 0.0) == 23367


class TestCountGuards:
    def test_work_limit_refuses_before_walking(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("powerful_sum called")

        monkeypatch.setattr(kernsplit.powered, "powerful_sum", refuse)
        message = "counting up to x={} implies ~{} s and ~0 bytes, over the budget of 60 s and 1 GiB"
        # theta = 1/2 and gamma = 0 visit only the b that are no leaves of the walk
        for count in (partial(count_members, theta=Theta(1, 2)), partial(count_log_weighted, gamma=0.0)):
            with pytest.raises(ValueError, match=re.escape(message.format(10**16, "165"))):
                count(10**16)
        with pytest.raises(ValueError, match=re.escape(message.format(10**14, "142"))):
            count_members(10**14, Theta(3, 4))  # theta visits also pay for their integer powers
        with pytest.raises(ValueError, match=re.escape(message.format(10**14, "140"))):
            count_log_weighted(10**14, 0.5)
        # e**40 > x: every b also searches the lower end of its interval, a second visit
        with pytest.raises(ValueError, match=re.escape("x=10000000000000 implies ~86.1 s")):
            count_log_weighted(10**13, 20.0)
        with pytest.raises(ValueError, match=re.escape("x=10000000000000 implies ~92.6 s")):
            log_ratio_table([10**13], 20.0)  # ~6.6 s for theta = 1/2
        # a table pays for both counts at every x: ~140 s + ~19 s at 1e14, so its largest x alone is over
        table = "counting 1 points up to x=100000000000000 implies ~159 s and ~0 bytes"
        with pytest.raises(ValueError, match=re.escape(table)):
            log_ratio_table([10**14, 10], 1.0)

    def test_ratio_table_charges_every_point(self, monkeypatch):
        class Walked(Exception):
            pass

        def walk(*args):
            raise Walked

        monkeypatch.setattr(kernsplit.powered, "powerful_sum", walk)
        # 186 points up to 1e13: each count alone fits the budget, all of them ~1.2e3 s; priced largest
        # first, the two largest are over, and the other 184 are never read
        grid = sorted({max(10, round((10**13) ** (i / 200))) for i in range(1, 201)} | {10**13})
        points = iter(grid[::-1])
        with pytest.raises(ValueError, match=re.escape("counting 2 points up to x=10000000000000 implies ~97.8 s")):
            log_ratio_table(points, 1.0)
        assert len(list(points)) == len(grid) - 2 == 184
        for count in (partial(count_log_weighted, gamma=1.0), partial(count_members, theta=Theta(1, 2))):
            with pytest.raises(Walked):
                count(10**13)

    def test_ratio_table_walks_once_at_gamma_zero(self, monkeypatch):
        # N_0(x) = S(x) - 1: one theta = 1/2 walk per point, and the budget charges one
        walks = []
        real = kernsplit.powered.powerful_sum

        def counting(x, *args):
            walks.append(x)
            return real(x, *args)

        monkeypatch.setattr(kernsplit.powered, "powerful_sum", counting)
        rows = log_ratio_table([10**8, 10**6], 0.0)
        assert walks == [10**6, 10**8]
        assert [(r["weighted_count"], r["half_count"]) for r in rows] == [(5780, 5781), (93360, 93361)]

        class Walked(Exception):
            pass

        def walk(*args):
            raise Walked

        # ~40 s for one walk at 5e14, so two would be over the budget
        monkeypatch.setattr(kernsplit.powered, "powerful_sum", walk)
        with pytest.raises(Walked):
            log_ratio_table([5 * 10**14], 0.0)

    def test_ratio_table_shares_one_squarefree_table(self, monkeypatch):
        built = []

        class Counted(kernsplit.powered._CoprimeSquarefree):
            def __init__(self):
                super().__init__()
                built.append(self)

        monkeypatch.setattr(kernsplit.powered, "_CoprimeSquarefree", Counted)
        rows = log_ratio_table([10**6, 1000, 10], 1.0)
        assert len(built) == 1
        assert [(r["weighted_count"], r["half_count"]) for r in rows] == [
            (count_log_weighted(x, 1.0).count, count_members(x, Theta(1, 2)).count) for x in (10, 1000, 10**6)
        ]

    @pytest.mark.parametrize(
        ("theta", "x", "admitted"),
        [
            (Theta(1, 2), 10**12, True),
            (Theta(3, 4), 10**12, True),
            (Theta(997, 1000), 10**10, True),
            # the same visits with powers of ~40k bits: about 15 minutes
            (Theta(997, 1000), 10**12, False),
            (Theta(1, 1000), 10**12, False),
        ],
    )
    def test_theta_visits_pay_for_their_powers(self, monkeypatch, theta, x, admitted):
        class Walked(Exception):
            pass

        def walk(*args):
            raise Walked

        monkeypatch.setattr(kernsplit.powered, "powerful_sum", walk)
        with pytest.raises(Walked if admitted else ValueError):
            count_members(x, theta)

    @pytest.mark.parametrize(
        ("count", "prices"),
        [
            (partial(count_members, theta=Theta(1, 2)), [0.10574279210558925, 2.2923193516193523, 55.527653222588214, math.inf]),
            (partial(count_members, theta=Theta(3, 4)), [0.43540558735066925, 13.975958910854704, 448.69198668301954, 5.948902321074068e195]),
            (partial(count_members, theta=Theta(997, 1000)), [10.853791060092625, 521.2226148009611, 22866.038442280966, 9.767915346444088e198]),
            (partial(count_members, theta=Theta(1, 1)), [0.0, 0.0, 0.0, 0.0]),
            (partial(count_log_weighted, gamma=0.0), [0.10574279210558925, 2.2923193516193523, 55.527653222588214, math.inf]),
            (partial(count_log_weighted, gamma=0.5), [0.4327910173152089, 13.84762382052535, 443.01938346117583, 3.478673524681917e195]),
            (partial(count_log_weighted, gamma=20.0), [0.8501899053366616, 27.04760205740457, 860.4400128402809, 3.478673524681917e195]),
        ],
        ids=["theta=1/2", "theta=3/4", "theta=997/1000", "theta=1", "gamma=0", "gamma=0.5", "gamma=20"],
    )
    def test_count_prices(self, monkeypatch, count, prices):
        # the seconds of each count besides its squarefree table, at x = 1e9, 1e12, 1e15 and 1e400: inf where the bulk
        # visits x**0.42 overflow a float, and 0 at theta = 1, which counts every m without a walk
        class Priced(Exception):
            pass

        def price(what, seconds, nbytes):
            raise Priced(seconds)

        monkeypatch.setattr(kernsplit.powered, "check_budget", price)
        got = []
        for x in (10**9, 10**12, 10**15, 10**400):
            with pytest.raises(Priced) as info:
                count(x)
            got.append(info.value.args[0] - kernsplit.powered._TABLE_S)
        assert got == pytest.approx(prices, rel=1e-12)

    def test_past_the_sieve_budget(self, monkeypatch):
        # past the sieve budget of 2**30 entries: nothing is sieved
        monkeypatch.setattr(kernsplit.kernel, "_radical_segment", None)
        assert count_members(2 * 10**9, Theta(1, 2)).count == 557837
        assert count_log_weighted(2 * 10**9, 0.0).count == 557836

    def test_prefix_keeps_the_sieve_budget(self, monkeypatch):
        # e**40 > x = 2**31, past the sieve budget: every m lies below e**(2*gamma),
        # and the powerful walk counts them without a table
        monkeypatch.setattr(kernsplit.kernel, "_radical_segment", None)
        assert count_log_weighted(2**31, 20.0).count == 2**31 - 2


@st.composite
def prefix_ranges(draw) -> tuple[int, int, int]:
    """(lo, hi, end): a range of up to 1e18 a, empty ones too, and the end of a prefix anywhere in [lo - 1, hi]."""
    lo = draw(st.integers(1, 10**18))
    hi = lo - 1 + draw(st.one_of(st.integers(0, 64), st.integers(0, 10**18)))
    near_lo, near_hi = st.integers(lo - 1, min(hi, lo + 64)), st.integers(max(lo - 1, hi - 64), hi)
    return lo, hi, draw(st.one_of(st.integers(lo - 1, hi), near_lo, near_hi))


class TestPrefixEnd:
    @settings(max_examples=300)
    @given(prefix_ranges())
    def test_matches_a_linear_scan(self, lo_hi_end):
        lo, hi, end = lo_hi_end
        calls = []

        def member(a: int) -> bool:
            assert lo <= a <= hi
            calls.append(a)
            return a <= end

        got = kernsplit.powered._prefix_end(member, lo, hi)
        assert got == end
        assert len(calls) <= 2 * math.log2(end - lo + 2) + 2
        if hi - lo < 1000:
            assert got == next((a - 1 for a in range(lo, hi + 1) if not member(a)), hi)


class TestCoprimeSquarefree:
    @pytest.mark.parametrize("cap", [1, 10, 1 << 22])
    def test_against_brute_force(self, monkeypatch, cap):
        monkeypatch.setattr(kernsplit.powered, "_SQUAREFREE_TABLE_LIMIT", cap)
        counts = kernsplit.powered._CoprimeSquarefree()
        squarefree = [a for a in range(1, 3001) if all(a % (d * d) for d in range(2, 55))]
        for primes in [(), (2,), (3,), (2, 3), (2, 5, 7), (3, 11, 13, 17)]:
            for y in [0, 1, 2, 3, 10, 99, 100, 1000, 2999, 3000]:
                brute = sum(1 for a in squarefree if a <= y and all(a % p for p in primes))
                assert counts.count(y, math.prod(primes), primes) == brute, (primes, y)

    def test_table_at_every_doubling_and_the_cap(self):
        cap = kernsplit.powered._SQUAREFREE_TABLE_LIMIT
        top = cap + 100
        squarefree = np.ones(top + 1, dtype=bool)  # sieved by every d, not only primes
        squarefree[0] = False
        for d in range(2, math.isqrt(top) + 1):
            squarefree[d * d :: d * d] = False
        # ascending y at and next to each power of two make the table double there
        ys = {y for j in range(cap.bit_length()) for y in (2**j - 1, 2**j, 2**j + 1)}
        ys = sorted(ys | {cap - 1, cap, cap + 1, cap + 2, top})
        for primes in [(), (2,), (3, 5), (2, 3, 7)]:
            coprime = squarefree.copy()
            for p in primes:
                coprime[::p] = False
            prefix = np.cumsum(coprime)
            counts = kernsplit.powered._CoprimeSquarefree()
            for y in ys:
                assert counts.count(y, math.prod(primes), primes) == prefix[y], (primes, y)
            assert counts._size == cap

    def test_small_counts_by_brute_force(self):
        # every subset of the primes below 16, with and without primes past them in k
        counts = kernsplit.powered._CoprimeSquarefree()
        for r in range(7):
            for primes in combinations((2, 3, 5, 7, 11, 13), r):
                k = math.prod(primes)
                for y in range(16):
                    brute = sum(
                        1
                        for a in range(1, y + 1)
                        if all(a % (d * d) for d in range(2, a + 1)) and all(a % p for p in primes)
                    )
                    assert kernsplit.powered._SMALL_COUNTS[k][y] == brute, (primes, y)
                    assert counts.count(y, k, primes) == brute
                    assert counts.count(y, k * 17 * 1009, (*primes, 17, 1009)) == brute
        assert counts._size == 0  # no table for the small counts

    def test_moebius_sum_at_large_y(self, monkeypatch):
        monkeypatch.setattr(kernsplit.powered, "_SQUAREFREE_TABLE_LIMIT", 1 << 10)
        counts = kernsplit.powered._CoprimeSquarefree()
        # OEIS A071172: squarefree numbers up to 10**n
        assert [counts.count(10**n, 1, ()) for n in (4, 6, 8, 10)] == [6083, 607926, 60792694, 6079270942]


@given(st.integers(1, 7), st.integers(0, 10**40))
def test_iroot(r, n):
    a = kernsplit.powered._iroot(n, r)
    assert a**r <= n < (a + 1) ** r


def test_iroot_at_perfect_powers():
    # the float estimate lands below some roots, e.g. exp(ln(1000) / 3) < 10
    for r in range(2, 7):
        for a in range(1, 3000):
            assert kernsplit.powered._iroot(a**r, r) == a
            assert kernsplit.powered._iroot(a**r - 1, r) == a - 1


class TestSubsetCheckPowers:
    def test_examples(self):
        assert subset_check_powers(100, 2)
        assert subset_check_powers(50, 3)
        assert subset_check_powers(1000, 1)


class TestCountReport:
    def test_normalized_follows_from_the_fields(self):
        # normalized is count / x**theta, or count / (sqrt(x) * ln(x)**gamma): equal counts give equal reports
        a = count_members(100, Theta(1, 2))
        assert a == CountReport(x=100, count=17, param=("theta", "1/2"), normalized=1.7)
        assert a == count_members(100, Theta(1, 2)) and hash(a) == hash(count_members(100, Theta(1, 2)))
        g = count_log_weighted(100, 2.5)
        assert g.normalized == g.count / (10 * math.log(100) ** 2.5)
        assert g == count_log_weighted(100, 2.5) and hash(g) == hash(count_log_weighted(100, 2.5))

    def test_record_round_trip(self):
        # the record holds every field of the report, its one parameter included
        a = count_members(100, Theta(1, 2))
        assert a.to_record() == {"x": 100, "theta": "1/2", "count": 17, "normalized": a.normalized}
        g = count_log_weighted(100, 2.5)
        assert g.to_record() == {"x": 100, "gamma": 2.5, "count": g.count, "normalized": g.normalized}

    @pytest.mark.parametrize(
        ("run", "param", "keys"),
        [
            (partial(count_members, 100, Theta(2, 4)), ("theta", "1/2"), ["x", "theta", "count", "normalized"]),
            (partial(count_log_weighted, 100, -0.0), ("gamma", -0.0), ["x", "gamma", "count", "normalized"]),
            (partial(conjecture_probe, 8, 14, _log_weighted_class(0.5)), ("gamma", 0.5), ["n_lo", "n_hi", "gamma", "checked", "satisfied", "failing"]),
        ],
        ids=["count-theta=2/4", "count-gamma=-0.0", "probe-gamma=0.5"],
    )
    def test_reports_print_the_class_param(self, run, param, keys):
        # a report's param is its class's (name, value), as built: theta in lowest terms as text, the sign of a
        # zero gamma kept (repr tells -0.0 from 0.0), and its record prints that pair in the parameter's place
        report = run()
        record = report.to_record() if isinstance(report, CountReport) else report.summary_record()
        assert repr(report.param) == repr(param)
        assert list(record) == keys and repr(record[param[0]]) == repr(param[1])
