"""Constructive two-part decompositions with certified kernel bounds.

Every n >= 4 splits as n = m1 + m2 with m1, m2 >= 2 and

    k(m)**4 <= 432 * m**2        (i.e. k(m) <= 2 * 27**(1/4) * sqrt(m))

for both parts.  The construction is fully explicit:

* choose the unique exponents a, b >= 1 with

      27 * 2**(4a) < 16 n**2 <= 27 * 2**(4a+4)
      16 * 3**(4b) < 27 n**2 <= 16 * 3**(4b+4)

  (the 4th-power form of pinning 2**a and 3**b to within a factor of 2
  resp. 3 of fixed multiples of sqrt(n), evaluated in exact integers);

* let U = floor(n / 2**a) - 1 and V = n - 2**a * U, so that
  2**a <= V < 2**(a+1);

* solve V = -2**a * W + 3**b * w for integers (W, w) with 1 <= w <= 2**a,
  via the inverse of 3**b modulo 2**a (W may be negative);

* put m1 = 2**a * (U - W) and m2 = 3**b * w.

Then m2 = 3**b * w has kernel at most 3 * w, m1 = 2**a * (U - W) has
kernel at most 2 * (U - W), and both satisfy the 432-bound above, which
is what ``verify_structural`` checks without factoring anything.  For
4 <= n <= 6 the exponent inequalities have no solution with a, b >= 1
and the pair (2, n - 2) is used instead.

``verify_range`` decides the same checks for a whole run of n sharing
(a, b) at once.  There w depends on n mod 2**a alone, n = 3**b * w
(mod 2**a), so every condition but the two kernel bounds holds across
the block, those are intervals in n for each w, and only the few w that
can fail are visited, in Python integers.  ``split_parts`` gives the
parts of a whole range from the same per-block w.  ``split`` and
``verify_structural`` stay the scalar reference.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import sub
from typing import NamedTuple

__all__ = [
    "KERNEL_BOUND_4TH",
    "CheckResult",
    "Decomposition",
    "RangeScanReport",
    "SplitWitness",
    "choose_exponents",
    "solve_diophantine",
    "split",
    "split_parts",
    "verify_exact",
    "verify_range",
    "verify_structural",
]

# fourth power of the kernel-bound constant 2 * 27**(1/4)
KERNEL_BOUND_4TH = 432


class SplitWitness(NamedTuple):
    """Intermediate values certifying one constructive decomposition.

    a, b   exponents of 2 and 3 chosen from n (both >= 1)
    U, V   quotient and remainder parts: U = floor(n/2**a) - 1,
           V = n - 2**a * U, with 2**a <= V < 2**(a+1)
    W, w   solution of V = -2**a * W + 3**b * w with 1 <= w <= 2**a;
           W is an integer of either sign
    """

    a: int
    b: int
    U: int
    V: int
    W: int
    w: int


class Decomposition(NamedTuple):
    """A two-part decomposition n = m1 + m2.

    ``witness`` is None for the hard-coded small cases (n in {4, 5, 6})
    and for decompositions built by hand; ``split`` always attaches a
    witness for n >= 7.  The record's ``fallback`` is ``witness is None``.
    """

    n: int
    m1: int
    m2: int
    witness: SplitWitness | None = None

    def to_record(self) -> dict:
        wit = self.witness._asdict() if self.witness else dict.fromkeys(SplitWitness._fields)
        return {"n": self.n, "m1": self.m1, "m2": self.m2, **wit, "fallback": self.witness is None}


def choose_exponents(n: int) -> tuple[int, int]:
    """The unique (a, b), both >= 1, satisfying the defining inequalities.

    Each is the least exponent whose upper bound (``_a_bounds``,
    ``_b_bounds``) reaches n.  Requires n >= 7; below that no a, b >= 1
    work.  With n >= 2**(bits - 1), both searches start below their
    answers: 27 * 16**(a - 1) < n**2 and 48 * 81**(b - 1) < n**2 there.
    """
    if n < 7:
        raise ValueError(f"exponent choice needs n >= 7, got {n}")
    bits = n.bit_length()
    a, b = max(1, (bits - 3) // 2), max(1, (2 * bits - 8) // 7)
    while _a_bounds(a)[1] < n:
        a += 1
    while _b_bounds(b)[1] < n:
        b += 1
    return a, b


def solve_diophantine(V: int, a: int, b: int) -> tuple[int, int]:
    """Integers (W, w) with V = -2**a * W + 3**b * w and 1 <= w <= 2**a.

    w is the residue of V * (3**b)**(-1) modulo 2**a, with residue 0
    mapped to 2**a so that w stays positive; W follows by exact division
    and may be negative.
    """
    modulus = 1 << a
    inv = pow(3**b, -1, modulus)
    w = (V * inv) % modulus
    if w == 0:
        w = modulus
    num = 3**b * w - V
    W, rem = divmod(num, modulus)
    assert rem == 0  # guaranteed by the congruence defining w
    return W, w


def split(n: int) -> Decomposition:
    """Decompose n >= 4 into two parts with certified kernel bounds."""
    if n < 4:
        raise ValueError(f"no guaranteed decomposition for n={n}; need n >= 4")
    if n <= 6:
        return Decomposition(n, 2, n - 2, None)
    a, b = choose_exponents(n)
    pa = 1 << a
    U = n // pa - 1
    V = n - pa * U
    W, w = solve_diophantine(V, a, b)
    m1 = pa * (U - W)
    m2 = 3**b * w
    return Decomposition(n, m1, m2, SplitWitness(a, b, U, V, W, w))


def split_parts(n_lo: int, n_hi: int) -> tuple[list[int], list[int]]:
    """The parts ``(m1s, m2s)`` of ``split(n)`` for every n in [n_lo, n_hi], n_lo >= 4.

    Per exponent block, w = n * inv % 2**a (0 read as 2**a), m2 = 3**b * w
    and m1 = n - m2, in Python integers: exact at any n.
    """
    small = [split(n) for n in range(n_lo, min(n_hi, 6) + 1)]
    m1s, m2s = [d.m1 for d in small], [d.m2 for d in small]
    for lo, hi, a, b in _exponent_blocks(max(n_lo, 7), n_hi):
        pa, pb = 1 << a, 3**b
        inv = pow(pb, -1, pa)
        m2 = [pb * (n * inv % pa or pa) for n in range(lo, hi + 1)]
        m1s += map(sub, range(lo, hi + 1), m2)
        m2s += m2
    return m1s, m2s


class CheckResult(NamedTuple):
    """Boolean verification outcome plus the first failed condition."""

    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


_PASS = CheckResult(True)


def verify_structural(d: Decomposition) -> CheckResult:
    """Check a witnessed decomposition without factoring anything.

    Replays every defining relation in exact integer arithmetic and
    then the kernel bounds in their structural form: m2 = 3**b * w has
    k(m2) <= 3*w, so (3*w)**4 <= 432 * m2**2 certifies it, and likewise
    (2*(U - W))**4 <= 432 * m1**2 for m1 = 2**a * (U - W).

    On failure, ``reason`` names the first violated condition, one of:
    a_range, b_range, quotient, remainder, remainder_range, w_range,
    linear_identity, part1_value, part2_value, part_sum, part2_range,
    part1_min, part2_kernel_bound, part1_kernel_bound.

    remainder_range, part_sum and part1_min follow from the checks before
    them, so no witness fails them first: V = n mod pa + pa, m1 + m2 =
    pa*U + V, and once part2_range holds, m1 = n - pb*w is a positive
    multiple of pa.  part2_range fails first only when n < 0: a_range and
    b_range read n**2 alone, and give (pa*pb)**4 < n**4, so with w <= pa,
    pb <= m2 <= pa*pb < |n|.
    """
    if d.witness is None:
        raise ValueError("structural verification requires a witness")
    n, m1, m2 = d.n, d.m1, d.m2
    a, b, U, V, W, w = d.witness
    sixteen_n2 = 16 * n * n
    twentyseven_n2 = 27 * n * n
    pa = 1 << a
    pb = 3**b
    if a < 1 or not (27 * (1 << (4 * a)) < sixteen_n2 <= 27 * (1 << (4 * a + 4))):
        return CheckResult(False, "a_range")
    if b < 1 or not (16 * pb**4 < twentyseven_n2 <= 16 * (3 * pb) ** 4):
        return CheckResult(False, "b_range")
    if U != n // pa - 1:
        return CheckResult(False, "quotient")
    if V != n - pa * U:
        return CheckResult(False, "remainder")
    if not pa <= V < 2 * pa:
        return CheckResult(False, "remainder_range")
    if not 1 <= w <= pa:
        return CheckResult(False, "w_range")
    if V != -pa * W + pb * w:
        return CheckResult(False, "linear_identity")
    if m1 != pa * (U - W):
        return CheckResult(False, "part1_value")
    if m2 != pb * w:
        return CheckResult(False, "part2_value")
    if m1 + m2 != n:
        return CheckResult(False, "part_sum")
    if not (pb <= m2 <= pa * pb < n):
        return CheckResult(False, "part2_range")
    if m1 < pa:
        return CheckResult(False, "part1_min")
    if (3 * w) ** 4 > KERNEL_BOUND_4TH * m2 * m2:
        return CheckResult(False, "part2_kernel_bound")
    if (2 * (U - W)) ** 4 > KERNEL_BOUND_4TH * m1 * m1:
        return CheckResult(False, "part1_kernel_bound")
    return _PASS


def verify_exact(d: Decomposition) -> bool:
    """Check the decomposition by factoring both parts.

    True iff m1 + m2 = n, both parts are >= 2, and each satisfies
    k(m)**4 <= 432 * m**2 with the kernel computed from an actual
    factorization.  Works with or without a witness.
    """
    if d.m1 + d.m2 != d.n:
        return False
    if d.m1 < 2 or d.m2 < 2:
        return False
    from .kernel import radical  # only n <= 6 and --verify exact factor: the structural scans skip the import

    for m in (d.m1, d.m2):
        k = radical(m)
        if k**4 > KERNEL_BOUND_4TH * m * m:
            return False
    return True


class RangeScanReport(NamedTuple):
    """Outcome of verifying split(n) over a contiguous range."""

    n_lo: int
    n_hi: int
    checked: int
    violations: tuple[tuple[int, str], ...]

    def columns(self) -> tuple:
        """The rows, one per violation, as ``(key, kind, column)`` per key."""
        return ("n", int, [n for n, _ in self.violations]), ("reason", str, [reason for _, reason in self.violations])

    def summary_record(self) -> dict:
        return self._asdict() | {"violations": len(self.violations)}


def _a_bounds(a: int) -> tuple[int, int]:
    """(lo, hi) with lo < n <= hi exactly when a satisfies its inequality."""
    return math.isqrt(27 << (4 * a - 4)), math.isqrt(27 << (4 * a))


def _b_bounds(b: int) -> tuple[int, int]:
    """(lo, hi) with lo < n <= hi exactly when b satisfies its inequality."""
    return math.isqrt(16 * 3 ** (4 * b - 3)), math.isqrt(16 * 3 ** (4 * b + 1))


def _exponent_blocks(n_lo: int, n_hi: int):
    """Yield (lo, hi, a, b): the maximal runs of [n_lo, n_hi] sharing (a, b).

    Requires n_lo >= 7.  Each exponent keeps its value until n passes the
    upper bound of its inequality, so consecutive bounds tile the range.
    """
    a, b = choose_exponents(n_lo)
    lo = n_lo
    while lo <= n_hi:
        a_hi, b_hi = _a_bounds(a)[1], _b_bounds(b)[1]
        hi = min(a_hi, b_hi, n_hi)
        yield lo, hi, a, b
        lo = hi + 1
        if hi == a_hi:
            a += 1
        if hi == b_hi:
            b += 1


def _block_violations(lo: int, hi: int, a: int, b: int) -> list[tuple[int, str]]:
    """(n, reason) for each n in [lo, hi] whose split fails, sorted by n.

    Requires a block of ``_exponent_blocks``: (a, b) are the exponents of
    every n in [lo, hi].  The reason is that of the first condition of
    ``verify_structural`` the split fails, and only the two kernel bounds
    can fail.  With pa = 2**a and pb = 3**b, n's split depends on n mod pa
    alone through w, the one value in [1, pa] with n = pb*w (mod pa).
    a_range and b_range hold as the block lies inside both exponent
    intervals.  Quotient through part sum are identities of the
    construction, as pb * inv = 1 (mod pa).  The two exponent ranges
    multiply to (pa*pb)**4 < n**4, so pb <= pb*w <= pa*pb < n: part2_range
    holds.  Then n >= pa + pb*w as n = pb*w (mod pa): part1_min holds.
    For each w, with K the kernel bound and D = isqrt(K * 4**a // 16),
    the last two are

        part2_kernel_bound   81 * w**2 <= K * 9**b
        part1_kernel_bound   n <= pb*w + pa*D

    where the kernel bounds (3w)**4 <= K * m2**2 and (2(U - W))**4 <=
    K * m1**2 are divided by w**2 and (U - W)**2, both >= 1 as part1_min
    holds.  Only the w that can fail within [lo, hi] are visited, and
    their failing n are listed by stepping through the class.
    """
    pa, pb = 1 << a, 3**b
    inv = pow(pb, -1, pa)
    K = KERNEL_BOUND_4TH
    D = math.isqrt(K * 4**a // 16)
    w_fit = math.isqrt(K * 9**b // 81)  # part2_kernel_bound holds up to here
    # part1_kernel_bound can fail only up to w_low, part2_kernel_bound only from w_high on
    w_low = min(pa, -((pa * D - hi) // pb) - 1)
    w_high = max(w_low, w_fit) + 1
    ws = chain(range(1, w_low + 1), range(w_high, pa + 1))
    if hi - lo + 1 < max(w_low, 0) + max(pa + 1 - w_high, 0):  # fewer n than classes: take the classes met
        ws = [w for n in range(lo, hi + 1) if not w_low < (w := n * inv % pa or pa) < w_high]
    out = []
    for w in ws:
        first = lo + (pb * w - lo) % pa
        if w > w_fit:
            out += [(n, "part2_kernel_bound") for n in range(first, hi + 1, pa)]
        else:
            over = pb * w + pa * D + pa  # a member of the class
            out += [(n, "part1_kernel_bound") for n in range(max(first, over), hi + 1, pa)]
    out.sort()
    return out


def verify_range(n_lo: int, n_hi: int) -> RangeScanReport:
    """Split and verify every n in [n_lo, n_hi].

    Witnessed cases are checked per exponent block by residue class,
    with the same conditions and reason codes as ``verify_structural``;
    at both ends of every block the scalar ``split`` and
    ``verify_structural`` must agree with the class path.  The small-n
    fallback goes through ``verify_exact``.
    """
    if not 4 <= n_lo <= n_hi:
        raise ValueError(f"need 4 <= n_lo <= n_hi, got [{n_lo}, {n_hi}]")
    violations = [
        (n, "exact") for n in range(n_lo, min(n_hi, 6) + 1) if not verify_exact(split(n))
    ]
    for lo, hi, a, b in _exponent_blocks(max(n_lo, 7), n_hi):
        found = _block_violations(lo, hi, a, b)
        for n, edge in ((lo, found[:1]), (hi, found[-1:])):
            got = next((reason for m, reason in edge if m == n), None)
            want = verify_structural(split(n)).reason
            if got != want:
                raise RuntimeError(f"class path gives {got} at n={n}, verify_structural {want}")
        violations += found
    return RangeScanReport(n_lo, n_hi, n_hi - n_lo + 1, tuple(violations))
