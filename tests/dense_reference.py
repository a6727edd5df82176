"""Dense references: a class rule decided for every m of a kernel table.

``membership_mask`` and ``log_weighted_mask`` decide each m in [1, x]
from a ``radical_sieve`` table, in slices of ``SEGMENT`` entries so the
float temporaries stay slice-sized; ``SEGMENT`` is read at call time.
The log-weighted rule is the library's decision in numpy form: the same
float test in the same operation order, with the library's exact
recheck (read from ``kernsplit.powered`` at call time) within the band
``kernsplit.kernel.PREFILTER_REL`` (read at call time too), and
the integer test k*k <= m at gamma = 0.  The theta rule is a float
prefilter in log space with an exact integer recheck near the boundary.
``subset_check_powers`` decides k(m)**q <= m**p itself, by trial
division, on every l-th power up to a bound instead, and
``multiplicity_index`` is the paper's i(m) = ln m / ln k(m).
``best_decomposition`` reads the oracle's best pair of one n off the
one-n window of ``constructive_vs_oracle``, and ``part_quality`` and
``decomposition_quality`` give the exact qualities the oracle tests
rank by.  ``plain_probe`` reads a probe report's int64 columns as the
lists the probe references give.
"""

import math
from fractions import Fraction
from functools import partial
from typing import NamedTuple

import numpy as np

import kernsplit.kernel
import kernsplit.powered
from kernsplit.decompose import Decomposition
from kernsplit.kernel import RadicalTable, radical, radical_sieve
from kernsplit.oracle import constructive_vs_oracle
from kernsplit.powered import Theta

# absolute slack (in log space) below which the theta prefilter defers to
# exact evaluation; ~1e6 times wider than float64 error at these scales
LOG_BAND = 1e-6

# entries decided per slice
SEGMENT = 1 << 20


def theta_members(theta: Theta, ms: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """mask[i] iff k(m)**q <= m**p for m = ms[i], given kernels[i] = k(m)."""
    if theta.p == theta.q:
        return np.ones(len(kernels), dtype=bool)  # k(m) <= m unconditionally
    diff = theta.q * np.log(kernels.astype(np.float64)) - theta.p * np.log(ms.astype(np.float64))
    band = LOG_BAND * (1 + theta.p + theta.q)
    mask = diff < -band
    for i in np.nonzero(np.abs(diff) <= band)[0]:
        mask[i] = int(kernels[i]) ** theta.q <= int(ms[i]) ** theta.p
    return mask


def log_weighted_members(gamma: float, ms: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """mask[i] iff k(m)**2 <= m * ln(m)**(2*gamma) for m = ms[i], ascending; False at m = 1."""
    skip = 1 if len(ms) and ms[0] == 1 else 0  # ln(1) = 0: m = 1 is excluded by definition
    ms, kernels = ms[skip:], kernels[skip:]
    mask = np.zeros(skip + len(kernels), dtype=bool)
    if gamma == 0:
        # ln(m)**0 == 1: the integer test k*k <= m, with no near-ties to recheck
        ks = kernels.astype(np.int64)
        np.less_equal(ks * ks, ms, out=mask[skip:])
        return mask
    lhs = kernels.astype(np.float64)
    lhs *= lhs
    mf = ms.astype(np.float64)
    rhs = np.log(mf)
    with np.errstate(over="ignore"):
        rhs **= 2 * gamma
        rhs *= mf
    np.less_equal(lhs, rhs, out=mask[skip:])
    # strict: an overflowed rhs exceeds every float lhs and is no near-tie
    for i in np.nonzero(np.abs(lhs - rhs) < kernsplit.kernel.PREFILTER_REL * rhs)[0]:
        mask[skip + i] = kernsplit.powered._log_weighted_member_exact(int(ms[i]), int(kernels[i]), gamma)
    return mask


def decide_table(x: int, table: RadicalTable | None, decide) -> np.ndarray:
    """Boolean array of length x + 1: the rule ``decide(ms, kernels)`` over [1, x], index 0 False."""
    if table is None:
        table = radical_sieve(x)
    elif table.limit < x:
        raise ValueError(f"table limit {table.limit} is below x={x}")
    mask = np.zeros(x + 1, dtype=bool)
    for lo in range(1, x + 1, SEGMENT):
        hi = min(lo + SEGMENT, x + 1)
        mask[lo:hi] = decide(np.arange(lo, hi, dtype=np.int64), table.values[lo:hi])
    return mask


def membership_mask(x: int, theta: Theta, *, table: RadicalTable | None = None) -> np.ndarray:
    """mask[m] iff k(m)**q <= m**p, for 0 <= m <= x; the dense reference for ``count_members``."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    return decide_table(x, table, partial(theta_members, theta))


def log_weighted_mask(x: int, gamma: float, *, table: RadicalTable | None = None) -> np.ndarray:
    """mask[m] iff m >= 2 and k(m)**2 <= m * ln(m)**(2*gamma), for 0 <= m <= x.

    The dense reference for ``count_log_weighted`` and the probe's parts.
    """
    if x < 2:
        raise ValueError(f"x must be >= 2, got {x}")
    return decide_table(x, table, partial(log_weighted_members, gamma))


def subset_check_powers(max_base: int, exponent: int) -> bool:
    """Check that m**l is (1/l)-powered for every 1 <= m <= max_base.

    True by construction (k(m**l) = k(m) <= m), so any False signals a
    membership bug; the check goes through the full factorization path
    on purpose.
    """
    theta = Theta(1, exponent)
    return all(radical(m**exponent) ** theta.q <= (m**exponent) ** theta.p for m in range(1, max_base + 1))


def multiplicity_index(m: int) -> float:
    """ln(m) / ln(k(m)); 1.0 exactly on squarefree m, >= l on l-th powers.

    Undefined for m in {0, 1} (k(1) = 1 has ln 0).
    """
    if m < 2:
        raise ValueError(f"multiplicity index is undefined for m={m}")
    return math.log(m) / math.log(radical(m))


class BestSplit(NamedTuple):
    """Minimizer of the pairwise quality for one n, with 2 <= m1 <= m2."""

    n: int
    m1: int
    m2: int
    quality: Fraction


def part_quality(m: int, k: int) -> Fraction:
    """Exact quality k**2 / m of a single part."""
    return Fraction(k * k, m)


def decomposition_quality(d: Decomposition) -> Fraction:
    """Worse part quality of a decomposition, kernels by trial division."""
    return max(part_quality(d.m1, radical(d.m1)), part_quality(d.m2, radical(d.m2)))


def plain_probe(report) -> tuple[list, tuple]:
    """A probe report's int64 ``(witness, failing)`` as a list, each 0 read as None (no pair), and a tuple."""
    assert report.witness.dtype == report.failing.dtype == np.int64
    return [m1 or None for m1 in report.witness.tolist()], tuple(report.failing.tolist())


def best_decomposition(n: int) -> BestSplit:
    """Exhaustive minimum of max(quality(m1), quality(m2)) over m1 + m2 = n: the forced one-n oracle scan."""
    report = constructive_vs_oracle(n, n, force=True)
    (m1,), ((q,), (m,)) = report.oracle_m1.tolist(), report.oracle_quality.tolist()
    return BestSplit(n, m1, n - m1, Fraction(q, m))
