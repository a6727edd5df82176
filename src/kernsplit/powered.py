"""Membership, index, and counting for kernel-bounded numbers.

A natural number m belongs to the class of theta-powered numbers when
k(m) <= m**theta.  The exponent theta is kept as an exact rational p/q,
and membership is the integer comparison k(m)**q <= m**p, so boundary
hits (k**q == m**p, e.g. m = 8 at theta = 1/3) never depend on floating
point.  theta = 1/2 gives the classical squarefull-flavored class: all
powerful numbers belong, along with composites like 48 whose square
content is merely large.

The log-weighted class k(m)**2 <= m * ln(m)**(2*gamma) has one decision
rule, ``_log_weighted_member``, with a float prefilter: everything
within a relative 1e-9 of the boundary is re-decided with ``decimal`` at
35 significant digits, since the right-hand side is not rational.  Results
are therefore identical to element-by-element exact evaluation.

The counters sieve nothing.  Every m is uniquely a*b with b powerful, a
squarefree and gcd(a, b) = 1, and then k(m) = a*k(b), so each class is
a ``kernel.KernelClass`` giving each of the ~2.17 * sqrt(x) powerful
b <= x an interval of a: up to an exact integer root for theta
(``_theta_class``), and for gamma the [L_b, R_b] that
``_log_weighted_class`` finds around e**(2*gamma) / b with the test
itself (``kernel.quality(1)`` at gamma = 0).  ``_interval_count`` adds
the squarefree a coprime to b in each: exact integer sums, so the counts
equal the rule's over every m.  The probe in ``oracle`` takes its parts
from the same class.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from collections.abc import Callable, Iterable, Sequence
from itertools import accumulate
from operator import mul
from typing import NamedTuple

from .kernel import POWERFUL_DENSITY, SQUAREFREE_TERM_S, TABLE_ENTRY_S, WALK_VISIT_S
from .kernel import KernelClass, check_budget, powerful_sum, primes_up_to, quality, squarefree_flags

__all__ = [
    "CountReport",
    "Theta",
    "count_log_weighted",
    "count_members",
    "log_ratio_table",
]

# relative near-tie band for the log-weighted comparison; anything this
# close to the boundary is re-evaluated at 35 significant digits
_TIE_REL = 1e-9
_TIE_DPS = 35


class Theta(NamedTuple("_ThetaFields", [("p", int), ("q", int)])):
    """Exact rational exponent p/q with 0 < p/q <= 1, kept in lowest terms."""

    __slots__ = ()

    # on a subclass of the fields: typing.NamedTuple does not let its class body define __new__
    def __new__(cls, p: int, q: int) -> Theta:
        if not (isinstance(p, int) and isinstance(q, int)):
            raise TypeError("theta components must be integers")
        if p < 1 or q < 1:
            raise ValueError(f"theta must be positive, got {p}/{q}")
        if p > q:
            raise ValueError(f"theta must be <= 1, got {p}/{q}")
        g = math.gcd(p, q)
        return super().__new__(cls, p // g, q // g)

    @classmethod
    def parse(cls, text: str) -> "Theta":
        """Parse 'p/q' (or a bare integer numerator like '1')."""
        parts = text.strip().split("/")
        try:  # a bare numerator has q = 1; three parts or more fail to unpack
            p, q = map(int, parts if len(parts) == 2 else parts + ["1"])
        except ValueError as exc:
            raise ValueError(f"cannot parse theta from {text!r}") from exc
        return cls(p, q)  # outside the try: a p/q out of range keeps its own message

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


class CountReport(NamedTuple):
    """Count of members up to x, with ``param``, the ``(name, value)`` of the class counted.

    ``normalized`` is informational only: count / x**theta for rational
    exponents, count / (sqrt(x) * ln(x)**gamma) for the log-weighted
    counter, a function of the other fields.
    """

    x: int
    count: int
    param: tuple[str, object]
    normalized: float

    def to_record(self) -> dict:
        name, value = self.param
        return {"x": self.x, name: value, "count": self.count, "normalized": self.normalized}


def _log_weighted_member_exact(m: int, k: int, gamma: float) -> bool:
    from decimal import Context, Decimal, localcontext  # only near-ties need it; keeps it off the import path

    with localcontext(Context(prec=_TIE_DPS)):
        return k * k <= Decimal(m) * Decimal(m).ln() ** Decimal(2 * gamma)


def _log_weighted_member(m: int, k: int, gamma: float) -> bool:
    """k**2 <= m * ln(m)**(2*gamma) for one m >= 2, given k = k(m).

    A float test, re-decided by ``_log_weighted_member_exact`` within a
    relative _TIE_REL of the boundary.
    """
    kf = float(k)
    lhs = kf * kf
    try:
        rhs = math.log(m) ** (2 * gamma) * m
    except OverflowError:
        return True  # an overflowed rhs exceeds every float lhs
    if abs(lhs - rhs) < _TIE_REL * rhs:
        return _log_weighted_member_exact(m, k, gamma)
    return lhs <= rhs


# Q_P(y) for y below _SMALL_Y depends only on which primes under 16 are
# in P, so it is read from a row of _SMALL_COUNTS, keyed by their product
# gcd(k, _SMALL_KERNEL) for k the product of P.  At x = 1e11, 89% of
# the powerful b ask for one this small at theta = 1/2, and 75% at 3/4.
_SMALL_Y = 16
_SMALL_KERNEL = 2 * 3 * 5 * 7 * 11 * 13


def _small_counts() -> dict[int, list[int]]:
    # each prime p splits every row g into g and g * p by Q_{P+p}(y) = Q_P(y) - Q_{P+p}(y // p)
    rows = {1: list(accumulate(squarefree_flags(_SMALL_Y - 1)))}
    for p in (2, 3, 5, 7, 11, 13):
        for g, row in list(rows.items()):
            split = [0] * _SMALL_Y
            for y in range(1, _SMALL_Y):
                split[y] = row[y] - split[y // p]
            rows[g * p] = split
    return rows


_SMALL_COUNTS = _small_counts()

# Squarefree counts up to this are read from a prefix table, larger ones
# are summed from the Moebius function.  The table is ``kernel.squarefree_flags``
# accumulated into an int32 ``array``: 5 bytes and about 115 ns of pure
# Python per entry, so its doublings up to the cap cost at most 2 * 2**18
# entries, 60 ms.  A Moebius sum costs about 15 us of numpy calls, the
# price of ~130 entries, and few queries pay it: theta = 1/2 at x = 1e12
# asks for no y above 476837 and sends 2 of 7.4M queries past 2**18,
# theta = 3/4 at 1e10 sends 360 of 1.29M and gamma = 3 at 1e10 1404 of
# 1.51M.  Caps from 2**17 to 2**20 time alike on these counts (2 cores);
# 2**22 adds about 1 s of table to theta = 3/4 at 1e10.
_SQUAREFREE_TABLE_LIMIT = 1 << 18

# d per segment of the Moebius build: its int64 temporaries are 2 MB each
_MOEBIUS_SEGMENT = 1 << 18


class _CoprimeSquarefree:
    """Exact Q_P(y): the squarefree a <= y coprime to every prime of P.

    Below _SMALL_Y, Q_P(y) is read from ``_SMALL_COUNTS``.  Q of the
    empty set is read from a prefix table for y up to
    ``_SQUAREFREE_TABLE_LIMIT`` and is sum(mu(d) * (y // d**2) for d <=
    isqrt(y)) above it; both are grown on demand, doubling, so they stay
    within twice the largest y asked for.  Primes are peeled one at a
    time, the largest first, with Q_{P+p}(y) = Q_P(y) - Q_{P+p}(y // p):
    a squarefree a coprime to P is coprime to p as well, or it is p * a'
    with a' squarefree, coprime to P + p and a' <= y // p.  A prime
    above y is dropped first, since it divides no a <= y.
    """

    def __init__(self):
        self._size = 0
        self._table = array("i", [0])
        self._mu_limit = 0  # the Moebius arrays are built on first use

    def count(self, y: int, k: int, primes: Sequence[int]) -> int:
        """Q_P(y) for the primes P of the squarefree k, given ascending as ``primes``."""
        if y < _SMALL_Y:
            return _SMALL_COUNTS[math.gcd(k, _SMALL_KERNEL)][y]
        self._reach(y)
        return self._peel(y, primes, [1, *accumulate(primes, mul)], len(primes))

    def _peel(self, y: int, primes: Sequence[int], prods: list[int], n: int) -> int:
        # Q at y >= _SMALL_Y over primes[:n], prods[i] the product of primes[:i]
        table, size = self._table, self._size
        total, sign = 0, 1
        while True:
            while n and primes[n - 1] > y:
                n -= 1
            if y < _SMALL_Y:
                return total + sign * _SMALL_COUNTS[prods[n]][y]  # primes[:n] <= y < 16
            if n == 0:
                return total + sign * (table[y] if y <= size else self._moebius_sum(y))
            # Q_P(y) = Q_{P-p}(y) - Q_P(y // p) for p = primes[n - 1], the largest
            if n > 1:
                total += sign * self._peel(y, primes, prods, n - 1)
            else:
                total += sign * (table[y] if y <= size else self._moebius_sum(y))
            y //= primes[n - 1]
            sign = -sign

    def _reach(self, y: int) -> None:
        if y > self._size and self._size < _SQUAREFREE_TABLE_LIMIT:
            self._size = min(max(y, 2 * self._size), _SQUAREFREE_TABLE_LIMIT)
            self._table = array("i", accumulate(squarefree_flags(self._size)))

    def _moebius_sum(self, y: int) -> int:
        root = math.isqrt(y)
        if root > self._mu_limit:
            self._grow_moebius(max(root, 2 * self._mu_limit))
        plus = self._plus[: self._plus.searchsorted(y, side="right")]
        minus = self._minus[: self._minus.searchsorted(y, side="right")]
        return int((y // plus).sum()) - int((y // minus).sum())

    def _grow_moebius(self, limit: int) -> None:
        # mu(d) for the d up to limit not yet known, from the primes up
        # to sqrt(limit), one segment at a time: a squarefree d whose
        # small primes multiply to less than d has exactly one more prime
        # factor, which flips the sign.  Only the squares d**2 of the d
        # with mu(d) = +1 and -1 are kept, in two ascending arrays.
        import numpy as np

        primes = primes_up_to(math.isqrt(limit))
        plus, minus = ([self._plus], [self._minus]) if self._mu_limit else ([], [])
        for start in range(self._mu_limit + 1, limit + 1, _MOEBIUS_SEGMENT):
            d = np.arange(start, min(start + _MOEBIUS_SEGMENT, limit + 1), dtype=np.int64)
            prod = np.ones(len(d), dtype=np.int64)
            mu = np.ones(len(d), dtype=np.int8)
            for p in primes:
                prod[-start % p :: p] *= p
                mu[-start % p :: p] *= -1
                mu[-start % (p * p) :: p * p] = 0
            mu[prod < d] *= -1
            plus.append(d[mu == 1] ** 2)
            minus.append(d[mu == -1] ** 2)
        self._mu_limit = limit
        self._plus, self._minus = np.concatenate(plus), np.concatenate(minus)


def _iroot(n: int, r: int) -> int:
    """Largest a >= 0 with a**r <= n, exact for any int n >= 0 (the float estimate is fixed up)."""
    if r == 1 or n < 2:
        return n
    a = int(math.exp(math.log(n) / r))
    while a**r > n:
        a -= 1
    while (a + 1) ** r <= n:
        a += 1
    return a


# Seconds of one exact count, priced by ``kernel.check_budget`` at
# WALK_VISIT_S a visit (``KernelClass.visits``) of the walk over the fewer
# than POWERFUL_DENSITY * sqrt(x) powerful b <= x:
# - a theta class visits each of them, but at theta = 1/2 it adds its
#   leaves in bulk (priced in ``kernel``): theta = 3/4 at x = 1e11 makes
#   680k visits in 1.8 s.
# - a log-weighted class, gamma != 0, visits each and tests a = x // b,
#   galloping to the end of its interval of a only when that fails: gamma
#   = 0.5 takes 2.4-2.8 s at 1e11.  Each of the < POWERFUL_DENSITY *
#   e**gamma powerful b below e**(2*gamma) also searches the lower end, a
#   second visit: gamma = 20, where every b <= x does, takes 4.6-6.0 s at
#   1e11.  gamma = 0 is the class ``kernel.quality(1)``, in bulk.
# Squarefree counts above the table cap are Moebius sums over the d <=
# sqrt(y), y <= x // b; measured, all of them add up to less than sqrt(x)
# * ln(x) terms (0.62x that at gamma = 3, x = 1e11), each priced at
# SQUAREFREE_TERM_S.  The table is built once per call, the counts of one
# call sharing it, over at most 2 * _SQUAREFREE_TABLE_LIMIT entries.
#
# theta = p/q also compares b**p with y**(q-p) * k(b)**q in Python ints of
# up to about q * log2(x) bits, and the cost of that grows faster than the
# size.  Measured per visit at x = 1e9 (theta = 1/2 took 3.8 us, where
# these ints fit a machine word or two): theta = 199/200, 499/500 and
# 997/1000, at 5979, 14949 and 29897 bits, add 27, 90 and 249 us, close to
# 10 us * (bits / 3500)**1.5; theta = 1/1000 adds 168 us.  So a theta visit
# is priced as 1 + (q * log2(x) / _POWER_BITS)**1.5 visits, which refuses
# theta = 997/1000 at x = 1e12 (priced ~522 s; about 15 minutes by the
# fit) and admits it at 1e10 (priced ~40 s; 58 s measured).
#
# The budget admits x up to about 1.1e15 for theta = 1/2 and gamma = 0,
# 1.8e13 for theta = 3/4 and gamma = 0.5, and 4.8e12 when e**(2*gamma) >= x.
_POWER_BITS = 3500
_TABLE_S = 2 * _SQUAREFREE_TABLE_LIMIT * TABLE_ENTRY_S


def _count_seconds(x: int, members: KernelClass) -> float:
    """Seconds of one count of the members up to x, besides the squarefree table; 0 with no walk, inf past the float range."""
    try:
        visits = members.visits(x)
        return WALK_VISIT_S * visits + SQUAREFREE_TERM_S * math.isqrt(x) * math.log(x) if visits else 0.0
    except OverflowError:  # x or its root is past the float range: over any budget
        return math.inf


def _theta_class(theta: Theta) -> KernelClass:
    """The class of 1 <= m with k(m)**q <= m**p, theta = p/q: every m at theta = 1, with no walk to count them.

    With m = a*b as in the module docstring, the test is a**(q-p) * k(b)**q
    <= b**p, so the interval of b up to x is [1, A_b], A_b = iroot(b**p //
    k(b)**q, q - p) capped at x // b; b = a = 1 gives m = 1.  Integers
    throughout: no float decides a count.  theta = 1/2 is
    ``kernel.quality(1)`` with m = 1, and adds its leaves in bulk.
    """
    p, q, r = theta.p, theta.q, theta.q - theta.p

    def interval(x: int) -> Callable[[int, int], tuple[int, int]]:
        def within(b: int, k: int) -> tuple[int, int]:
            y = x // b
            return 1, (y if y**r * k**q <= b**p else _iroot(b**p // k**q, r))

        return within

    def visits(x: int) -> float:
        if r == p:
            return quality(1).visits(x)
        return POWERFUL_DENSITY * math.isqrt(x) * (1 + (q * math.log2(x) / _POWER_BITS) ** 1.5) if r else 0

    return KernelClass(interval, lambda m, k: k**q <= m**p, r == p, visits, ("theta", str(theta)))


def _prefix_end(member, lo: int, hi: int) -> int:
    """Largest a in [lo, hi] with member(a), or lo - 1 if none; member must hold on a prefix.

    Gallops up from lo, doubling its step, then bisects, so an end d
    past lo costs O(log d) calls to member.
    """
    good, bad, step = lo - 1, hi + 1, 1
    while good + step < bad:
        if not member(good + step):
            bad = good + step
            break
        good, step = good + step, 2 * step
    while bad - good > 1:
        mid = (good + bad) // 2
        if member(mid):
            good = mid
        else:
            bad = mid
    return good


def _log_weighted_class(gamma: float) -> KernelClass:
    """The class of 2 <= m with k(m)**2 <= m * ln(m)**(2*gamma), decided by ``_log_weighted_member``.

    With m = a*b as in ``_theta_class`` (k(m) = a*k(b)), the test for
    fixed b is f(a) <= 0 with f(a) = ln(a*k(b)**2 / (b*ln(a*b)**(2*gamma))) and

        f'(a) = 1/a - 2*gamma / (a*ln(a*b)) = (ln(a*b) - 2*gamma) / (a*ln(a*b)),

    so f falls while a*b < e**(2*gamma) and rises after: it rises for
    every a*b > 1 when gamma <= 0.  The members with a given b up to x
    are therefore one interval [L_b, R_b] of the a in [lo, x // b], empty
    when R_b < L_b, and when it is not empty it holds the integer
    minimiser of f, next to t = e**(2*gamma) / b.  lo is 1, and 2 for
    b = 1: m = 1 is excluded.
    - At gamma = 0 the test is k(m)**2 <= m: the class is
      ``kernel.quality(1)``, in integers, and adds its leaves in bulk.
    - When b*lo >= E = min(x, floor(peak * (1 + 1e-9)) + 1), peak =
      e**min(2*gamma, ln x), f only rises: the interval is a prefix.
    - Otherwise the a within one of floor(t), clamped to [lo, x // b],
      are tested.  If none is a member, the interval is empty; if one
      is, L_b is found below it and R_b above it.
    Each end is found with ``_log_weighted_member`` alone, the class's
    one decision (float test, 35-digit recheck near ties): R_b is x // b
    when that a passes, and otherwise both ends are galloped to from
    below (``_prefix_end``).  The members m = a*b are then the
    squarefree a coprime to b in the interval.

    A non-finite gamma raises ValueError here, before any price or walk.
    """
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    if gamma == 0:
        return quality(1)._replace(param=("gamma", gamma))

    def interval(x: int) -> Callable[[int, int], tuple[int, int]]:
        peak = math.exp(min(2 * gamma, math.log(x)))  # e**(2*gamma), capped at x where t is past x // b
        start = min(x, math.floor(peak * (1 + 1e-9)) + 1)

        def within(b: int, k: int) -> tuple[int, int]:
            lo, hi = 2 if b == 1 else 1, x // b

            def member(a: int) -> bool:
                return _log_weighted_member(a * b, a * k, gamma)

            first = lo
            if b * lo < start:
                t = int(peak / b)  # the a within one of t, clamped to [lo, hi]
                near = range(min(max(t - 1, lo), hi), max(min(t + 1, hi), lo) + 1)
                found = next((a for a in near if member(a)), 0)
                if not found:
                    return lo, lo - 1
                first = _prefix_end(lambda a: not member(a), lo, found - 1) + 1
                lo = found + 1  # R_b >= found: search above it
            if lo > hi or member(hi):
                return first, hi
            return first, _prefix_end(member, lo, hi - 1)

        return within

    def visits(x: int) -> float:
        return POWERFUL_DENSITY * (math.isqrt(x) + math.exp(min(gamma, math.log(x) / 2)))  # sqrt(x) + sqrt(e**(2*gamma)), capped at x

    return KernelClass(interval, lambda m, k: m > 1 and _log_weighted_member(m, k, gamma), False, visits, ("gamma", gamma))


def _interval_count(x: int, members: KernelClass, squarefree: _CoprimeSquarefree) -> int:
    """Exact count of the members m = a*b <= x, with a in ``members.interval(x)(b, k(b))``, over the powerful b <= x.

    Each b adds the squarefree a coprime to b in its interval [first,
    end], end <= x // b.  With ``members.bulk``, a leaf child b * p**2 of
    the walk (p**3 > x // b) starts at a = 1 and ends where b does unless
    its cap x // (b * p**2) < p is lower, so p drops out of its count:
    summed over those p, it is the number of p with x // (b * p**2) >= v
    for each squarefree v <= end coprime to b, one bisection per v, in
    place of a visit per p.
    """
    count, interval = squarefree.count, members.interval(x)

    def visit(b: int, k: int, primes: Sequence[int]) -> int:
        first, end = interval(b, k)
        below = count(first - 1, k, primes) if first > 1 else 0  # nothing below a = 1
        return count(end, k, primes) - below if end >= first else 0

    def leaves(b: int, k: int, primes: Sequence[int], ps: Sequence[int]) -> int:
        rest = x // b
        total, before = 0, 0  # before: the squarefree a < v
        for v in range(1, min(interval(b, k)[1], rest // ps[0] ** 2) + 1):
            upto = count(v, 1, ())  # the squarefree a <= v
            if upto > before and math.gcd(v, k) == 1:
                total += bisect_right(ps, math.isqrt(rest // v))
            before = upto
        return total

    return powerful_sum(x, visit, leaves if members.bulk else None)


def _log_weight(x: int, gamma: float, scale: float = 1.0) -> float:
    """scale * ln(x)**gamma, refused unless it is finite and non-zero."""
    try:
        weight = scale * math.log(x) ** gamma
    except OverflowError:
        weight = math.inf
    if not math.isfinite(weight) or weight == 0:
        raise ValueError(
            f"normalization by ln(x)**gamma is not a finite non-zero float at gamma={gamma}, x={x}"
        )
    return weight


def count_members(x: int, theta: Theta) -> CountReport:
    """Count 1 <= m <= x with k(m)**q <= m**p, exactly, over the powerful numbers up to x.

    Raises ValueError, before the walk, when the count is over the budget.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    members = _theta_class(theta)
    check_budget(f"counting up to x={x}", _count_seconds(x, members) + _TABLE_S, 0)
    # theta = 1: k(m) <= m for every m, admitted at any x, past the float range too
    count = x if theta.p == theta.q else _interval_count(x, members, _CoprimeSquarefree())
    normalized = 1.0 if theta.p == theta.q else count / x ** (theta.p / theta.q)
    return CountReport(x, count, members.param, normalized)


def count_log_weighted(x: int, gamma: float) -> CountReport:
    """Count 2 <= m <= x with k(m)**2 <= m * ln(m)**(2*gamma), over the powerful numbers up to x.

    At gamma = 0 this is exactly the theta = 1/2 count minus the m = 1
    contribution.  Raises ValueError, before the walk, when gamma is not
    finite, the count is over the budget, or else the normalization
    sqrt(x) * ln(x)**gamma is not a finite non-zero float.
    """
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    members = _log_weighted_class(gamma)
    check_budget(f"counting up to x={x}", _count_seconds(x, members) + _TABLE_S, 0)
    scale = _log_weight(x, gamma, math.sqrt(x))  # sqrt(x) is a float below any x the budget admits
    count = _interval_count(x, members, _CoprimeSquarefree())
    return CountReport(x, count, members.param, count / scale)


def log_ratio_table(xs: Iterable[int], gamma: float) -> list[dict]:
    """Rows of N_gamma(x) / (ln(x)**gamma * S(x)), ascending in x, for the xs given largest first.

    N_gamma(x) is ``count_log_weighted(x, gamma).count`` and S(x) is
    ``count_members(x, Theta(1, 2)).count``, both counted afresh at
    every x over one shared squarefree table; at gamma = 0, N_0(x) is
    S(x) - 1, and one walk gives both.  The counts are priced as the xs
    are read, which stops once that price is over the budget: every price
    is positive, so a long grid gets the verdict of the whole without
    being built.  Raises ValueError, before counting, when gamma is not
    finite, the xs do not descend from >= 2, the counts are over the
    budget, or some ln(x)**gamma is not a finite non-zero float.
    """
    half, weighted, seconds, read = _theta_class(Theta(1, 2)), _log_weighted_class(gamma), _TABLE_S, []
    for x in xs:
        if x < 2 or read and x > read[-1]:
            raise ValueError(f"expected descending x values >= 2, got {[*read, x]}")
        read.append(x)
        seconds += _count_seconds(x, half) + (_count_seconds(x, weighted) if gamma else 0)
        check_budget(f"counting {len(read)} points up to x={read[0]}", seconds, 0)
    if not read:
        raise ValueError("expected descending x values >= 2, got []")
    read.reverse()
    weights = [_log_weight(x, gamma) for x in read]
    squarefree = _CoprimeSquarefree()
    rows = []
    for x, w in zip(read, weights):
        ns = _interval_count(x, half, squarefree)
        nw = ns - 1 if gamma == 0 else _interval_count(x, weighted, squarefree)
        rows.append({"x": x, "weighted_count": nw, "half_count": ns, "ratio": nw / (w * ns)})
    return rows
