"""Membership, index, and counting for kernel-bounded numbers.

A natural number m belongs to the class of theta-powered numbers when
k(m) <= m**theta.  The exponent theta is kept as an exact rational p/q,
and membership is the integer comparison k(m)**q <= m**p, so boundary
hits (k**q == m**p, e.g. m = 8 at theta = 1/3) never depend on floating
point.  theta = 1/2 gives the classical squarefull-flavored class: all
powerful numbers belong, along with composites like 48 whose square
content is merely large.

Counting over a range uses a kernel table from ``radical_sieve`` plus a
log-space prefilter: cases further than a generous margin from the
boundary are decided in float, everything near it is re-decided with
exact big integers (or with mpmath at >= 30 significant digits for the
log-weighted counter, whose right-hand side m * ln(m)**(2*gamma) is not
rational).  Results are therefore identical to element-by-element exact
evaluation.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .kernel import RadicalTable, factorize, radical_sieve

__all__ = [
    "CountReport",
    "Theta",
    "count_log_weighted",
    "count_members",
    "is_member",
    "log_weighted_mask",
    "membership_mask",
    "multiplicity_index",
    "subset_check_powers",
]

# absolute slack (in log space) below which the prefilter defers to
# exact evaluation; ~1e6 times wider than float64 error at these scales
_LOG_BAND = 1e-6

# relative near-tie band for the log-weighted comparison; anything this
# close to the boundary is re-evaluated at 35 significant digits
_TIE_REL = 1e-9
_TIE_DPS = 35


@dataclass(frozen=True, slots=True)
class Theta:
    """Exact rational exponent p/q with 0 < p/q <= 1, kept in lowest terms."""

    p: int
    q: int

    def __post_init__(self):
        if not (isinstance(self.p, int) and isinstance(self.q, int)):
            raise TypeError("theta components must be integers")
        if self.p < 1 or self.q < 1:
            raise ValueError(f"theta must be positive, got {self.p}/{self.q}")
        if self.p > self.q:
            raise ValueError(f"theta must be <= 1, got {self.p}/{self.q}")
        g = math.gcd(self.p, self.q)
        if g > 1:
            object.__setattr__(self, "p", self.p // g)
            object.__setattr__(self, "q", self.q // g)

    @classmethod
    def parse(cls, text: str) -> "Theta":
        """Parse 'p/q' (or a bare integer numerator like '1')."""
        parts = text.strip().split("/")
        try:
            if len(parts) == 1:
                return cls(int(parts[0]), 1)
            if len(parts) == 2:
                return cls(int(parts[0]), int(parts[1]))
        except ValueError as exc:
            raise ValueError(f"cannot parse theta from {text!r}") from exc
        raise ValueError(f"cannot parse theta from {text!r}")

    def as_fraction(self) -> Fraction:
        return Fraction(self.p, self.q)

    def as_float(self) -> float:
        return self.p / self.q

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def is_member(m: int, theta: Theta) -> bool:
    """Exact membership test k(m)**q <= m**p (equality counts)."""
    k = factorize(m).radical()
    return k**theta.q <= m**theta.p


def multiplicity_index(m: int) -> float:
    """ln(m) / ln(k(m)); 1.0 exactly on squarefree m, >= l on l-th powers.

    Undefined for m in {0, 1} (k(1) = 1 has ln 0).
    """
    if m < 2:
        raise ValueError(f"multiplicity index is undefined for m={m}")
    k = factorize(m).radical()
    return math.log(m) / math.log(k)


@dataclass(frozen=True, slots=True)
class CountReport:
    """Count of members up to x, with the defining parameter.

    Exactly one of ``theta`` / ``gamma`` is set.  ``normalized`` is
    informational only (count / x**theta for rational exponents,
    count / (sqrt(x) * ln(x)**gamma) for the log-weighted counter) and
    is excluded from equality comparisons.
    """

    x: int
    count: int
    theta: Theta | None = None
    gamma: float | None = None
    normalized: float = field(default=float("nan"), compare=False)

    def to_record(self) -> dict:
        rec: dict = {"x": self.x}
        if self.theta is not None:
            rec["theta"] = str(self.theta)
        if self.gamma is not None:
            rec["gamma"] = self.gamma
        rec["count"] = self.count
        rec["normalized"] = self.normalized
        return rec

    @classmethod
    def from_record(cls, rec: dict) -> "CountReport":
        theta = Theta.parse(rec["theta"]) if rec.get("theta") is not None else None
        gamma = float(rec["gamma"]) if rec.get("gamma") is not None else None
        return cls(
            x=int(rec["x"]),
            count=int(rec["count"]),
            theta=theta,
            gamma=gamma,
            normalized=float(rec.get("normalized", float("nan"))),
        )


def _resolve_table(x: int, table: RadicalTable | None) -> RadicalTable:
    if table is None:
        return radical_sieve(x)
    if table.limit < x:
        raise ValueError(f"table limit {table.limit} is below x={x}")
    return table


def membership_mask(
    x: int, theta: Theta, *, table: RadicalTable | None = None
) -> np.ndarray:
    """Boolean array of length x + 1: mask[m] iff k(m)**q <= m**p.

    Index 0 is always False.  Equivalent to calling ``is_member`` on
    every m; the float prefilter only short-circuits cases far from the
    boundary.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    table = _resolve_table(x, table)
    mask = np.zeros(x + 1, dtype=bool)
    if theta.p == theta.q:
        mask[1:] = True  # k(m) <= m unconditionally
        return mask
    ks = table.values[1 : x + 1].astype(np.float64)
    ms = np.arange(1, x + 1, dtype=np.float64)
    diff = theta.q * np.log(ks) - theta.p * np.log(ms)
    band = _LOG_BAND * (1 + theta.p + theta.q)
    mask[1:] = diff < -band
    near = np.nonzero(np.abs(diff) <= band)[0]
    vals = table.values
    for i in near:
        m = int(i) + 1
        k = int(vals[m])
        mask[m] = k**theta.q <= m**theta.p
    return mask


def count_members(
    x: int, theta: Theta, *, table: RadicalTable | None = None
) -> CountReport:
    """Count 1 <= m <= x with k(m)**q <= m**p."""
    mask = membership_mask(x, theta, table=table)
    count = int(mask.sum())
    return CountReport(
        x=x,
        count=count,
        theta=theta,
        normalized=count / x ** theta.as_float(),
    )


def _log_weighted_member_exact(m: int, k: int, gamma: float) -> bool:
    from mpmath import mp  # only near-ties need it; keeps it off the import path

    with mp.workdps(_TIE_DPS):
        return mp.mpf(k * k) <= mp.mpf(m) * mp.log(m) ** (2 * gamma)


def log_weighted_mask(
    x: int, gamma: float, *, table: RadicalTable | None = None
) -> np.ndarray:
    """Boolean array of length x + 1: mask[m] iff k(m)**2 <= m * ln(m)**(2*gamma).

    Defined for m >= 2 (indices 0 and 1 are always False; m = 1 has
    ln(1) = 0 and is excluded by definition).  Comparisons within a
    relative 1e-9 of the boundary are re-evaluated at 35 significant
    digits, ties counting as members.  gamma must be finite.
    """
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    table = _resolve_table(x, table)
    mask = np.zeros(x + 1, dtype=bool)
    ks = table.values[2 : x + 1].astype(np.float64)
    ms = np.arange(2, x + 1, dtype=np.float64)
    lhs = ks * ks
    rhs = ms * np.log(ms) ** (2 * gamma)
    mask[2:] = lhs <= rhs
    near = np.nonzero(np.abs(lhs - rhs) <= _TIE_REL * rhs)[0]
    vals = table.values
    for i in near:
        m = int(i) + 2
        mask[m] = _log_weighted_member_exact(m, int(vals[m]), gamma)
    return mask


def count_log_weighted(
    x: int, gamma: float, *, table: RadicalTable | None = None
) -> CountReport:
    """Count 2 <= m <= x with k(m)**2 <= m * ln(m)**(2*gamma).

    At gamma = 0 this is exactly the theta = 1/2 count minus the m = 1
    contribution.
    """
    mask = log_weighted_mask(x, gamma, table=table)
    count = int(mask.sum())
    return CountReport(
        x=x,
        count=count,
        gamma=gamma,
        normalized=count / (math.sqrt(x) * math.log(x) ** gamma),
    )


def subset_check_powers(max_base: int, exponent: int) -> bool:
    """Check that m**l is (1/l)-powered for every 1 <= m <= max_base.

    True by construction (k(m**l) = k(m) <= m), so any False signals a
    membership bug; the test goes through the full factorization path
    on purpose.
    """
    theta = Theta(1, exponent)
    return all(is_member(m**exponent, theta) for m in range(1, max_base + 1))
