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

``verify_range`` runs the same construction and the same checks block by
block: over a run of n sharing (a, b), every step is int64 array
arithmetic.  ``split`` and ``verify_structural`` stay the scalar
reference.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import TYPE_CHECKING

from .kernel import radical

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "KERNEL_BOUND_4TH",
    "CheckResult",
    "Decomposition",
    "RangeScanReport",
    "SplitWitness",
    "choose_exponents",
    "solve_diophantine",
    "split",
    "verify_exact",
    "verify_range",
    "verify_structural",
]

# fourth power of the kernel-bound constant 2 * 27**(1/4)
KERNEL_BOUND_4TH = 432

# First n the block path leaves to the scalar path.  Once the checks
# before it hold, every value the block path computes or compares is
# below 32 * n: the largest are 27 * 4**a and 16 * 9**b, both under
# 21 * n because the exponent inequalities give 4**a < 4 n / sqrt(27)
# and 9**b < sqrt(27) n / 4.  32 * n < 2**63 for every n below this.
_INT64_LIMIT = 2**58

# n per int64 chunk; bounds the block path's memory whatever the range
_CHUNK = 2**13

# the conditions of verify_structural, in the order it checks them
_REASONS = (
    "a_range",
    "b_range",
    "quotient",
    "remainder",
    "remainder_range",
    "w_range",
    "linear_identity",
    "part1_value",
    "part2_value",
    "part_sum",
    "part2_range",
    "part1_min",
    "part2_kernel_bound",
    "part1_kernel_bound",
)


@dataclass(frozen=True, slots=True)
class SplitWitness:
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


_WITNESS_KEYS = tuple(f.name for f in fields(SplitWitness))


@dataclass(frozen=True, slots=True)
class Decomposition:
    """A two-part decomposition n = m1 + m2.

    ``witness`` is None for the hard-coded small cases (n in {4, 5, 6})
    and for ad-hoc records built by hand; ``split`` always attaches a
    witness for n >= 7.
    """

    n: int
    m1: int
    m2: int
    witness: SplitWitness | None = None

    @property
    def fallback(self) -> bool:
        return self.witness is None

    def to_record(self) -> dict:
        wit = asdict(self.witness) if self.witness else dict.fromkeys(_WITNESS_KEYS)
        return {"n": self.n, "m1": self.m1, "m2": self.m2, **wit, "fallback": self.witness is None}

    @classmethod
    def from_record(cls, rec: dict) -> "Decomposition":
        witness = None
        if not rec.get("fallback"):
            witness = SplitWitness(**{k: int(rec[k]) for k in _WITNESS_KEYS})
        return cls(n=int(rec["n"]), m1=int(rec["m1"]), m2=int(rec["m2"]), witness=witness)


def choose_exponents(n: int) -> tuple[int, int]:
    """The unique (a, b), both >= 1, satisfying the defining inequalities.

    Requires n >= 7; below that no a, b >= 1 work.
    """
    if n < 7:
        raise ValueError(f"exponent choice needs n >= 7, got {n}")
    sixteen_n2 = 16 * n * n
    twentyseven_n2 = 27 * n * n
    a = 1
    while 27 * (1 << (4 * a + 4)) < sixteen_n2:
        a += 1
    b = 1
    pow3 = 81  # 3**(4b)
    while 16 * pow3 * 81 < twentyseven_n2:
        b += 1
        pow3 *= 81
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


@dataclass(frozen=True, slots=True)
class CheckResult:
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
    """
    if d.witness is None:
        raise ValueError("structural verification requires a witness")
    n, m1, m2 = d.n, d.m1, d.m2
    a, b, U, V, W, w = (
        d.witness.a,
        d.witness.b,
        d.witness.U,
        d.witness.V,
        d.witness.W,
        d.witness.w,
    )
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
    for m in (d.m1, d.m2):
        k = radical(m)
        if k**4 > KERNEL_BOUND_4TH * m * m:
            return False
    return True


@dataclass(frozen=True, slots=True)
class RangeScanReport:
    """Outcome of verifying split(n) over a contiguous range."""

    n_lo: int
    n_hi: int
    checked: int
    violations: tuple[tuple[int, str], ...]

    def to_rows(self) -> list[dict]:
        return [{"n": n, "reason": reason} for n, reason in self.violations]

    def summary_record(self) -> dict:
        return {
            "n_lo": self.n_lo,
            "n_hi": self.n_hi,
            "checked": self.checked,
            "violations": len(self.violations),
        }


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


def _split_block(n: np.ndarray, a: int, b: int) -> tuple[np.ndarray, ...]:
    """``split`` over an int64 array of n that all have exponents (a, b).

    Returns the arrays (U, V, W, w, m1, m2).  Requires n < _INT64_LIMIT.
    """
    pa, pb = 1 << a, 3**b
    U = (n >> a) - 1
    V = n - (U << a)
    w = (V * pow(pb, -1, pa)) & (pa - 1)
    w[w == 0] = pa
    W = (pb * w - V) >> a
    return U, V, W, w, (U - W) << a, pb * w


def _check_block(n, a, b, U, V, W, w, m1, m2) -> list[tuple[int, str]]:
    """``verify_structural`` over int64 arrays; (n, reason) per failing n.

    Evaluates every condition as one row of a boolean matrix, in the
    scalar order; the reason is the first failing row.  Each row is exact
    in int64 for n < _INT64_LIMIT whenever the rows before it hold, which
    is all the first failing row needs.  The linear identity is tested as
    pa | (pb*w - V) and W == (pb*w - V) / pa, which never multiplies the
    unchecked W.  The kernel bounds use their reduced forms: with
    m2 = pb*w and w >= 1, (3w)**4 <= 432 m2**2 iff 3 w**2 <= 16 * 9**b;
    with m1 = pa*(U - W) and U - W >= 1, (2(U - W))**4 <= 432 m1**2 iff
    (U - W)**2 <= 27 * 4**a.
    """
    import numpy as np  # only the block path vectorizes; split and its checks run without it

    pa, pb = 1 << a, 3**b
    a_lo, a_hi = _a_bounds(a)
    b_lo, b_hi = _b_bounds(b)
    num = pb * w - V
    rows = np.stack(
        [
            (a_lo < n) & (n <= a_hi),
            (b_lo < n) & (n <= b_hi),
            U == (n >> a) - 1,
            V == n - (U << a),
            (pa <= V) & (V < 2 * pa),
            (1 <= w) & (w <= pa),
            ((num & (pa - 1)) == 0) & ((num >> a) == W),
            m1 == ((U - W) << a),
            m2 == pb * w,
            m1 + m2 == n,
            (pb <= m2) & (m2 <= pa * pb) & (pa * pb < n),
            m1 >= pa,
            3 * w * w <= 16 * 9**b,
            (U - W) ** 2 <= 27 * 4**a,
        ]
    )
    ok = rows.all(axis=0)
    if ok.all():
        return []
    bad = np.flatnonzero(~ok)
    first = rows[:, bad].argmin(axis=0)
    return [(int(n[i]), _REASONS[r]) for i, r in zip(bad, first)]


def _verify_chunk(lo: int, hi: int, a: int, b: int) -> list[tuple[int, str]]:
    """Split and structurally verify every n in [lo, hi], all with exponents (a, b)."""
    if hi >= _INT64_LIMIT:
        raise ValueError(f"block path needs n < {_INT64_LIMIT}, got {hi}")
    import numpy as np

    n = np.arange(lo, hi + 1, dtype=np.int64)
    return _check_block(n, a, b, *_split_block(n, a, b))


def verify_range(n_lo: int, n_hi: int) -> RangeScanReport:
    """Split and verify every n in [n_lo, n_hi].

    Witnessed cases below _INT64_LIMIT are split and checked in int64
    chunks per exponent block, with the same conditions and reason codes
    as ``verify_structural``, which checks the cases at or above it.  The
    small-n fallback goes through ``verify_exact``.
    """
    if not 4 <= n_lo <= n_hi:
        raise ValueError(f"need 4 <= n_lo <= n_hi, got [{n_lo}, {n_hi}]")
    violations = [
        (n, "exact") for n in range(n_lo, min(n_hi, 6) + 1) if not verify_exact(split(n))
    ]
    for lo, hi, a, b in _exponent_blocks(max(n_lo, 7), min(n_hi, _INT64_LIMIT - 1)):
        for start in range(lo, hi + 1, _CHUNK):
            violations += _verify_chunk(start, min(start + _CHUNK - 1, hi), a, b)
    for n in range(max(n_lo, 7, _INT64_LIMIT), n_hi + 1):
        res = verify_structural(split(n))
        if not res.ok:
            violations.append((n, res.reason))
    return RangeScanReport(n_lo, n_hi, n_hi - n_lo + 1, tuple(violations))
