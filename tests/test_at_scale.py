"""The int64 paths against the windowed kernel sieve, at 1e9-1e11.

``kernel._radical_segment`` gives the exact kernel of every m in a
window from the primes up to sqrt(hi), so a window of at most 1e4 m near
1e11 costs ~0.03 s and no table over [1, x].  The fast paths are checked
on such windows where they run: the parts of ``kernel_bounded``, whose
m = a*b and k(m) = a*k(b) are int64 products, and the class counters.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from kernsplit.kernel import _radical_segment, kernel_bounded, primes_up_to, quality
from kernsplit.powered import Theta, _log_weighted_class, _log_weighted_member, count_log_weighted, count_members

WIDTH = 10**4

# no explain phase: it traces every line of the walk over the powerful numbers, minutes per failing window
AT_SCALE = settings(max_examples=2, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink])


def sieved(lo: int, hi: int) -> list[int]:
    """k(m) for lo <= m <= hi, at m - lo."""
    return _radical_segment(lo, hi, primes_up_to(math.isqrt(hi)), np.int64).tolist()


@st.composite
def windows(draw, exponents):
    """[lo, hi] of at most WIDTH m around m0 = a*b near 10**e: b = s**2 * t**3 powerful, a <= 6 squarefree.

    k(m0)**2 / m0 <= a / t <= 1/26, so m0 is a member of every class tested
    here (ln(m0) < 26): uniform windows near 1e10 hold only 0-9 members.
    """
    top = int(10 ** draw(st.floats(*exponents)))
    a = draw(st.sampled_from([1, 2, 3, 5, 6]))
    t = draw(st.integers(min_value=26 * a, max_value=26 * a + 40))
    m0 = a * math.isqrt(top // (a * t**3)) ** 2 * t**3
    width = draw(st.integers(min_value=0, max_value=WIDTH - 1))
    lo = m0 - draw(st.integers(min_value=0, max_value=width))
    return lo, lo + width


def clamped(interval, lo: int, hi: int):
    """``interval`` cut to the a with lo <= a*b <= hi; asked only where [lo, hi] holds a multiple of b."""

    def within(b: int, k: int) -> tuple[int, int]:
        a_lo, a_hi = -(-lo // b), hi // b
        if a_hi < a_lo:
            return 1, 0
        c_lo, c_hi = interval(b, k)
        return max(a_lo, c_lo), min(a_hi, c_hi)

    return within


@pytest.mark.parametrize("c", [1, 21, Fraction(1, 16), "gamma"], ids=["1", "21", "1/16", "gamma"])
@AT_SCALE
@given(lohi=windows((9.5, 11.0)), gamma=st.floats(min_value=-0.5, max_value=1.0))
def test_parts_are_the_sieved_class(c, lohi, gamma):
    # every window lies past 2**31 (10**9.5 > 2**31), so a product a*b or a*k(b) formed in int32 shows;
    # gamma <= 1 keeps kernel_bounded's squarefree list small
    lo, hi = lohi
    ks = sieved(lo, hi)
    if c == "gamma":
        interval, want = _log_weighted_class(gamma).interval(hi), [_log_weighted_member(m, k, gamma) for m, k in zip(range(lo, hi + 1), ks)]
    else:
        interval, want = quality(c).interval(hi), [k * k <= c * m for m, k in zip(range(lo, hi + 1), ks)]
    ms, kernels = kernel_bounded(hi, clamped(interval, lo, hi))
    members = np.flatnonzero(want)
    assert len(members) and ms.tolist() == (lo + members).tolist()
    assert kernels.tolist() == [ks[i] for i in members]


@AT_SCALE
@given(x=st.integers(min_value=10**9, max_value=11 * 10**8), width=st.integers(min_value=1, max_value=WIDTH))
def test_counts_add_the_sieved_members(x, width):
    # the members of (x, x + width], counted as a difference of two counts
    window = list(zip(range(x + 1, x + width + 1), sieved(x + 1, x + width)))
    for theta in (Theta(1, 2), Theta(2, 3), Theta(3, 4)):
        want = sum(k**theta.q <= m**theta.p for m, k in window)
        assert count_members(x + width, theta).count - count_members(x, theta).count == want, theta
    for gamma in (0.0, 0.5):
        want = sum(_log_weighted_member(m, k, gamma) for m, k in window)
        assert count_log_weighted(x + width, gamma).count - count_log_weighted(x, gamma).count == want, gamma
