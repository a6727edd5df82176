"""Membership, index, and counting tests.

Counting examples are frozen from an in-test enumeration oracle that
walks every m with a per-element radical, independent of the sieve and
prefilter machinery under test.
"""

import math

import pytest

from kernsplit.kernel import radical, radical_sieve
from kernsplit.powered import (
    CountReport,
    Theta,
    count_log_weighted,
    count_members,
    is_member,
    log_weighted_mask,
    membership_mask,
    multiplicity_index,
    subset_check_powers,
)


def enumerate_members(x: int, theta: Theta) -> list[int]:
    return [m for m in range(1, x + 1) if radical(m) ** theta.q <= m**theta.p]


def enumerate_log_weighted(x: int, gamma: float) -> list[int]:
    out = []
    for m in range(2, x + 1):
        if radical(m) ** 2 <= m * math.log(m) ** (2 * gamma):
            out.append(m)
    return out


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

    def test_parse(self):
        assert Theta.parse("1/2") == Theta(1, 2)
        assert Theta.parse("1") == Theta(1, 1)
        assert Theta.parse(" 2/4 ") == Theta(1, 2)
        with pytest.raises(ValueError):
            Theta.parse("0.5")
        with pytest.raises(ValueError):
            Theta.parse("1/2/3")

    def test_str_round_trip(self):
        assert str(Theta(1, 3)) == "1/3"
        assert Theta.parse(str(Theta(2, 3))) == Theta(2, 3)


class TestMembership:
    def test_examples(self):
        assert is_member(1, Theta(1, 2))
        assert is_member(8, Theta(1, 3))  # boundary: 2**3 == 8 counts
        assert not is_member(12, Theta(1, 2))  # 6**2 = 36 > 12

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            is_member(0, Theta(1, 2))

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
        table = radical_sieve(10_000)
        thetas = [Theta(1, 3), Theta(1, 2), Theta(2, 3), Theta(1, 1)]
        xs = [10, 100, 1000, 10_000]
        counts = {
            (str(t), x): count_members(x, t, table=table).count
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
        assert count_members(100, Theta(1, 2), table=table).count == 17
        with pytest.raises(ValueError):
            count_members(6000, Theta(1, 2), table=table)

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
        with pytest.raises(ValueError, match="finite"):
            log_weighted_mask(100, gamma)


class TestSubsetCheckPowers:
    def test_examples(self):
        assert subset_check_powers(100, 2)
        assert subset_check_powers(50, 3)
        assert subset_check_powers(1000, 1)


class TestCountReport:
    def test_normalized_excluded_from_equality(self):
        a = CountReport(x=100, count=17, theta=Theta(1, 2), normalized=1.7)
        b = CountReport(x=100, count=17, theta=Theta(1, 2), normalized=99.0)
        assert a == b

    def test_record_round_trip(self):
        a = count_members(100, Theta(1, 2))
        assert CountReport.from_record(a.to_record()) == a
        g = count_log_weighted(100, 2.5)
        assert CountReport.from_record(g.to_record()) == g
