"""Membership, index, and counting for kernel-bounded numbers.

A natural number m belongs to the class of theta-powered numbers when
k(m) <= m**theta.  The exponent theta is kept as an exact rational p/q,
and membership is the integer comparison k(m)**q <= m**p, so boundary
hits (k**q == m**p, e.g. m = 8 at theta = 1/3) never depend on floating
point.  theta = 1/2 gives the classical squarefull-flavored class: all
powerful numbers belong, along with composites like 48 whose square
content is merely large.

Each class has one decision rule over a slice of kernels, with a
log-space prefilter: cases further than a generous margin from the
boundary are decided in float, everything near it is re-decided with
exact big integers (or with mpmath at >= 30 significant digits for the
log-weighted class, whose right-hand side m * ln(m)**(2*gamma) is not
rational).  Results are therefore identical to element-by-element exact
evaluation.  The counters apply the rule to the segments of
``radical_segments`` as they are sieved, with memory O(sqrt(x) +
segment); the masks apply it to a ``RadicalTable`` and are the dense
reference.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from .kernel import DEFAULT_SEGMENT_SIZE, RadicalTable, factorize, radical_segments, radical_sieve

__all__ = [
    "CountReport",
    "Theta",
    "count_log_weighted",
    "count_members",
    "is_member",
    "log_ratio_table",
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


def _theta_members(theta: Theta, lo: int, kernels: np.ndarray) -> np.ndarray:
    """mask[i] iff k(m)**q <= m**p for m = lo + i, given kernels[i] = k(m)."""
    if theta.p == theta.q:
        return np.ones(len(kernels), dtype=bool)  # k(m) <= m unconditionally
    ks = kernels.astype(np.float64)
    ms = np.arange(lo, lo + len(kernels), dtype=np.float64)
    diff = theta.q * np.log(ks) - theta.p * np.log(ms)
    band = _LOG_BAND * (1 + theta.p + theta.q)
    mask = diff < -band
    for i in np.nonzero(np.abs(diff) <= band)[0]:
        mask[i] = int(kernels[i]) ** theta.q <= (lo + int(i)) ** theta.p
    return mask


def _log_weighted_member_exact(m: int, k: int, gamma: float) -> bool:
    from mpmath import mp  # only near-ties need it; keeps it off the import path

    with mp.workdps(_TIE_DPS):
        return mp.mpf(k * k) <= mp.mpf(m) * mp.log(m) ** (2 * gamma)


def _log_weighted_members(gamma: float, lo: int, kernels: np.ndarray) -> np.ndarray:
    """mask[i] iff k(m)**2 <= m * ln(m)**(2*gamma) for m = lo + i; False at m = 1."""
    skip = 1 if lo == 1 else 0  # ln(1) = 0: m = 1 is excluded by definition
    lo, kernels = lo + skip, kernels[skip:]
    # in place where possible: these float64 temporaries set the counters' peak memory
    lhs = kernels.astype(np.float64)
    lhs *= lhs
    ms = np.arange(lo, lo + len(kernels), dtype=np.float64)
    rhs = np.log(ms)
    with np.errstate(over="ignore"):
        rhs **= 2 * gamma
        rhs *= ms
    mask = np.zeros(skip + len(kernels), dtype=bool)
    np.less_equal(lhs, rhs, out=mask[skip:])
    # strict: an overflowed rhs exceeds every float lhs and is no near-tie
    for i in np.nonzero(np.abs(lhs - rhs) < _TIE_REL * rhs)[0]:
        mask[skip + i] = _log_weighted_member_exact(lo + int(i), int(kernels[i]), gamma)
    return mask


def _decide_table(x: int, table: RadicalTable | None, decide) -> np.ndarray:
    """Boolean array of length x + 1: the rule ``decide(lo, kernels)`` over [1, x], index 0 False.

    The table (built when None) is decided in slices of
    ``DEFAULT_SEGMENT_SIZE``, so float temporaries stay segment-sized.
    """
    if table is None:
        table = radical_sieve(x)
    elif table.limit < x:
        raise ValueError(f"table limit {table.limit} is below x={x}")
    mask = np.zeros(x + 1, dtype=bool)
    for lo in range(1, x + 1, DEFAULT_SEGMENT_SIZE):
        hi = min(lo + DEFAULT_SEGMENT_SIZE, x + 1)
        mask[lo:hi] = decide(lo, table.values[lo:hi])
    return mask


def _prefix_counts(xs: Sequence[int], *decides) -> list[list[int]]:
    """Members of each rule in [1, x] for every x of the ascending xs.

    One pass over ``radical_segments(xs[-1])``: no table is built, and
    memory is one segment plus the primes up to sqrt(xs[-1]).
    """
    totals = [0] * len(decides)
    out: list[list[int]] = []
    for lo, kernels in radical_segments(xs[-1]):
        masks = [decide(lo, kernels) for decide in decides]
        while len(out) < len(xs) and xs[len(out)] < lo + len(kernels):
            end = xs[len(out)] - lo + 1
            out.append([t + int(np.count_nonzero(mk[:end])) for t, mk in zip(totals, masks)])
        totals = [t + int(np.count_nonzero(mk)) for t, mk in zip(totals, masks)]
    return out


def _log_weight(x: int, gamma: float, scale: float = 1.0) -> float:
    """scale * ln(x)**gamma, refused unless gamma and the result are finite and non-zero."""
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    try:
        weight = scale * math.log(x) ** gamma
    except OverflowError:
        weight = math.inf
    if not math.isfinite(weight) or weight == 0:
        raise ValueError(
            f"normalization by ln(x)**gamma is not a finite non-zero float at gamma={gamma}, x={x}"
        )
    return weight


def membership_mask(
    x: int, theta: Theta, *, table: RadicalTable | None = None
) -> np.ndarray:
    """Boolean array of length x + 1: mask[m] iff k(m)**q <= m**p.

    Index 0 is always False.  Equivalent to calling ``is_member`` on
    every m; the float prefilter only short-circuits cases far from the
    boundary.  The dense reference for ``count_members``.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    return _decide_table(x, table, partial(_theta_members, theta))


def count_members(x: int, theta: Theta) -> CountReport:
    """Count 1 <= m <= x with k(m)**q <= m**p, streaming the sieve's segments."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    [[count]] = _prefix_counts([x], partial(_theta_members, theta))
    return CountReport(
        x=x,
        count=count,
        theta=theta,
        normalized=count / x ** theta.as_float(),
    )


def log_weighted_mask(
    x: int, gamma: float, *, table: RadicalTable | None = None
) -> np.ndarray:
    """Boolean array of length x + 1: mask[m] iff k(m)**2 <= m * ln(m)**(2*gamma).

    Defined for m >= 2 (indices 0 and 1 are always False; m = 1 has
    ln(1) = 0 and is excluded by definition).  Comparisons within a
    relative 1e-9 of the boundary are re-evaluated at 35 significant
    digits, ties counting as members.  gamma must be finite.  The dense
    reference for ``count_log_weighted``.
    """
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    return _decide_table(x, table, partial(_log_weighted_members, gamma))


def count_log_weighted(x: int, gamma: float) -> CountReport:
    """Count 2 <= m <= x with k(m)**2 <= m * ln(m)**(2*gamma), streaming the sieve's segments.

    At gamma = 0 this is exactly the theta = 1/2 count minus the m = 1
    contribution.  Raises ValueError, before any sieving, when the
    normalization sqrt(x) * ln(x)**gamma is not a finite non-zero float.
    """
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    scale = _log_weight(x, gamma, math.sqrt(x))
    [[count]] = _prefix_counts([x], partial(_log_weighted_members, gamma))
    return CountReport(x=x, count=count, gamma=gamma, normalized=count / scale)


def log_ratio_table(xs: Sequence[int], gamma: float) -> list[dict]:
    """Rows of N_gamma(x) / (ln(x)**gamma * S(x)) for the ascending xs.

    N_gamma(x) is ``count_log_weighted(x, gamma).count`` and S(x) is
    ``count_members(x, Theta(1, 2)).count``; both come from one pass
    over ``radical_segments(xs[-1])``.  Raises ValueError when some
    ln(x)**gamma is not a finite non-zero float.
    """
    if not xs or xs[0] < 2 or any(a > b for a, b in zip(xs, xs[1:])):
        raise ValueError(f"expected ascending x values >= 2, got {list(xs)}")
    weights = [_log_weight(x, gamma) for x in xs]
    counts = _prefix_counts(
        xs, partial(_log_weighted_members, gamma), partial(_theta_members, Theta(1, 2))
    )
    return [
        {"x": x, "weighted_count": nw, "half_count": ns, "ratio": nw / (w * ns)}
        for x, w, (nw, ns) in zip(xs, weights, counts)
    ]


def subset_check_powers(max_base: int, exponent: int) -> bool:
    """Check that m**l is (1/l)-powered for every 1 <= m <= max_base.

    True by construction (k(m**l) = k(m) <= m), so any False signals a
    membership bug; the test goes through the full factorization path
    on purpose.
    """
    theta = Theta(1, exponent)
    return all(is_member(m**exponent, theta) for m in range(1, max_base + 1))
