"""Exhaustive decomposition search and representability probes.

The quality of a part m is the exact rational k(m)**2 / m: at most 1
exactly when k(m) <= sqrt(m), and the squared ratio of kernel to square
root in general.  A pair is ranked by its worse (larger) part, so the
best decomposition of n minimizes max(quality(m1), quality(m2)) over
all m1 + m2 = n with m1, m2 >= 2, ties resolved toward the smallest m1.

Ranking is exact rational comparison throughout; floats only prefilter
which pairs can possibly attain the minimum, and every surviving
candidate is re-ranked with ``fractions.Fraction``.

Neither search walks every m1 <= n/2.  The split certifies
k(m)**4 <= 432 m**2, a quality of at most sqrt(432) < 21, so both parts
of an optimal pair lie in the candidate set G = {m : k(m)**2 <= 21 m},
a sparse powerful-number-like set (1,003 members up to 1e4, 4,355 up to
1e5, 18,411 up to 1e6).  The oracle ranks only the pairs with both
parts in G, and ranks every pair for an n that has none (an optimum
above 21), so its answer never rests on the theorem it checks.  The
probe walks only the qualifying parts m1 <= n/2.  Both scans price
their work in kernel lookups: table entries, rows, and one per candidate
part m1 <= n // 2 for each n (``SCAN_WORK_LIMIT``).  Unless ``force``,
a scan over budget is refused before the sieve on its table and rows,
or once its candidates are known, before the per-n loop.
"""

import math
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .decompose import Decomposition, split
from .kernel import RadicalTable, radical_sieve
from .powered import _decide_table, log_weighted_mask

__all__ = [
    "SCAN_WORK_LIMIT",
    "BestSplit",
    "ComparisonReport",
    "ComparisonRow",
    "ProbeReport",
    "best_decomposition",
    "check_range",
    "conjecture_probe",
    "constructive_vs_oracle",
    "decomposition_quality",
    "part_quality",
]

# relative slack for the float prefilter; anything this close to the
# float minimum is re-ranked exactly
_PREFILTER_REL = 1e-6

# the oracle's candidate parts: k(m)**2 <= _CANDIDATE_QUALITY * m.  Any
# pair of quality at most this has both parts in the set, and the split
# (quality <= sqrt(432) < 21) always provides one.
_CANDIDATE_QUALITY = 21

# k(m) <= m, so k*k <= m*m < 2**63 and 21*m stay exact in int64 for every
# m up to isqrt(2**63 - 1) = 3_037_000_499, well above the 2**30 entries
# of kernel.DEFAULT_SIEVE_LIMIT; larger candidate sets are refused.
_CANDIDATE_INT64_LIMIT = math.isqrt(2**63 - 1)

# Budget of one scan, in kernel lookups (good[n - m1] for one candidate
# part): 2-13 ns each on 2 cores, ~5 ns in a large probe ([4, 1e6] at
# gamma = 0: 2.33e9 lookups, 10.7 s with its rows).  A table entry costs
# ~64 ns of sieve plus up to ~33 ns of candidate test, so _SIEVE_WEIGHT
# is 20: an unforced table ends below 5e7 (~5 s; 4 B of kernel, 1 of mask
# and 8 of part index when every part qualifies, 830 MB peak at 4.8e7).
# A row costs 5 us (probe) to 65 us (oracle) of Python besides its lookups
# and holds 0.35-0.75 KB until the scan ends; _ROW_WEIGHT is the probe's
# 1000, so an unforced scan has at most 1e6 rows.  The oracle's own
# lookups stop it from 4 near n = 2.4e5, about 22 s.
SCAN_WORK_LIMIT = 10**9
_SIEVE_WEIGHT = 20
_ROW_WEIGHT = 1000


@dataclass(frozen=True, slots=True)
class BestSplit:
    """Minimizer of the pairwise quality for one n, with 2 <= m1 <= m2."""

    n: int
    m1: int
    m2: int
    quality: Fraction


def part_quality(m: int, k: int) -> Fraction:
    """Exact quality k**2 / m of a single part."""
    return Fraction(k * k, m)


def decomposition_quality(d: Decomposition, table: RadicalTable) -> Fraction:
    """Worse part quality of a decomposition, kernels from the table."""
    return max(
        part_quality(d.m1, table[d.m1]),
        part_quality(d.m2, table[d.m2]),
    )


def _candidate_members(lo: int, kernels: np.ndarray) -> np.ndarray:
    """mask[i] iff k(m)**2 <= 21 m for m = lo + i, in int64 (exact up to _CANDIDATE_INT64_LIMIT)."""
    ks = kernels.astype(np.int64)
    return ks * ks <= _CANDIDATE_QUALITY * np.arange(lo, lo + len(ks), dtype=np.int64)


def _candidates(table: RadicalTable, top: int) -> tuple[np.ndarray, np.ndarray]:
    """``(good, G)`` over [0, top]: good[m] iff m >= 2 and k(m)**2 <= 21 m, G = flatnonzero(good)."""
    if top > _CANDIDATE_INT64_LIMIT:
        raise ValueError(f"candidate test is exact in int64 up to {_CANDIDATE_INT64_LIMIT}, got {top}")
    good = _decide_table(top, table, _candidate_members)
    good[1] = False  # 1 is no part
    return good, np.flatnonzero(good)


def best_decomposition(
    n: int,
    *,
    table: RadicalTable | None = None,
    candidates: tuple[np.ndarray, np.ndarray] | None = None,
) -> BestSplit:
    """Exhaustive minimum of max(quality(m1), quality(m2)) over m1 + m2 = n.

    Ranks the pairs with both parts in the candidate set (module
    docstring), or every pair when there is none.  ``candidates`` is the
    ``(good, G)`` of ``_candidates(table, top)`` for some top >= n - 2;
    range scans build it once, a standalone call builds its own.
    """
    if n < 4:
        raise ValueError(f"no two-part decompositions below 4, got {n}")
    if table is None:
        table = radical_sieve(n - 2)
    elif table.limit < n - 2:
        raise ValueError(f"table limit {table.limit} is below n-2={n - 2}")
    if candidates is None:
        candidates = _candidates(table, n - 2)
    good, G = candidates
    if good.size < n - 1:
        raise ValueError(f"candidates end at {good.size - 1}, below n-2={n - 2}")
    m1 = G[: np.searchsorted(G, n // 2, side="right")]
    m1 = m1[good[n - m1]]
    if not m1.size:  # optimum above _CANDIDATE_QUALITY: rank every pair
        m1 = np.arange(2, n // 2 + 1, dtype=np.int64)
    m2 = n - m1
    k1 = table.values[m1].astype(np.int64)
    k2 = table.values[m2].astype(np.int64)
    q1 = k1.astype(np.float64) ** 2 / m1
    q2 = k2.astype(np.float64) ** 2 / m2
    qmax = np.maximum(q1, q2)
    fmin = float(qmax.min())
    cand = np.nonzero(qmax <= fmin * (1 + _PREFILTER_REL) + 1e-12)[0]
    best_q: Fraction | None = None
    best_i = -1
    for i in cand:  # ascending m1, so strict < keeps the smallest m1 on ties
        q = max(
            part_quality(int(m1[i]), int(k1[i])),
            part_quality(int(m2[i]), int(k2[i])),
        )
        if best_q is None or q < best_q:
            best_q, best_i = q, int(i)
    return BestSplit(n, int(m1[best_i]), int(m2[best_i]), best_q)


@dataclass(frozen=True, slots=True)
class ComparisonRow:
    n: int
    split_m1: int
    split_m2: int
    split_quality: Fraction
    split_fallback: bool
    oracle_m1: int
    oracle_m2: int
    oracle_quality: Fraction

    @property
    def ok(self) -> bool:
        return self.oracle_quality <= self.split_quality

    def to_record(self) -> dict:
        rec = {f.name: getattr(self, f.name) for f in fields(self)}
        rec.update(
            split_quality=str(self.split_quality),
            oracle_quality=str(self.oracle_quality),
            ok=self.ok,
        )
        return rec


@dataclass(frozen=True, slots=True)
class ComparisonReport:
    """Constructive split vs exhaustive optimum over [n_lo, n_hi]."""

    n_lo: int
    n_hi: int
    rows: tuple[ComparisonRow, ...]
    violations: tuple[int, ...]
    max_split_quality: Fraction
    mean_split_quality: float
    max_oracle_quality: Fraction
    mean_oracle_quality: float

    def to_rows(self) -> list[dict]:
        return [row.to_record() for row in self.rows]

    def summary_record(self) -> dict:
        return {
            "n_lo": self.n_lo,
            "n_hi": self.n_hi,
            "checked": len(self.rows),
            "violations": len(self.violations),
            "max_split_quality": str(self.max_split_quality),
            "mean_split_quality": self.mean_split_quality,
            "max_oracle_quality": str(self.max_oracle_quality),
            "mean_oracle_quality": self.mean_oracle_quality,
        }


def _part_ends(parts: np.ndarray, n_lo: int, n_hi: int) -> np.ndarray:
    """For each n in [n_lo, n_hi], how many of the ascending parts (all >= 2) are <= n // 2: its lookups."""
    return np.searchsorted(parts, np.arange(n_lo, n_hi + 1) // 2, side="right")


def _check_work(n_lo: int, n_hi: int, lookups: int = 0) -> None:
    """Raise ValueError when the scan's table and rows, plus ``lookups``, exceed the budget."""
    work = _SIEVE_WEIGHT * n_hi + _ROW_WEIGHT * (n_hi - n_lo + 1) + lookups
    if work > SCAN_WORK_LIMIT:
        raise ValueError(
            f"scan of [{n_lo}, {n_hi}] implies ~{work:.2e} kernel lookups "
            f"(> {SCAN_WORK_LIMIT:.0e}); rerun with --force to proceed"
        )


def check_range(n_lo: int, n_hi: int, force: bool = False) -> None:
    """Raise ValueError for a malformed range or, unless force, one whose table and rows alone exceed the budget."""
    if not 4 <= n_lo <= n_hi:
        raise ValueError(f"need 4 <= n_lo <= n_hi, got [{n_lo}, {n_hi}]")
    if not force:
        _check_work(n_lo, n_hi)


def constructive_vs_oracle(
    n_lo: int,
    n_hi: int,
    *,
    table: RadicalTable | None = None,
    force: bool = False,
) -> ComparisonReport:
    """Compare split(n) against the exhaustive optimum for each n.

    The oracle can never be worse than the constructive split; any n
    where it is lands in ``violations``.  Unless ``force``, a scan over
    the work budget is refused.
    """
    check_range(n_lo, n_hi, force)
    if table is None:
        table = radical_sieve(n_hi)
    candidates = _candidates(table, n_hi - 2)
    if not force:
        _check_work(n_lo, n_hi, int(_part_ends(candidates[1], n_lo, n_hi).sum()))
    rows = []
    violations = []
    sum_split = 0.0
    sum_oracle = 0.0
    for n in range(n_lo, n_hi + 1):
        d = split(n)
        sq = decomposition_quality(d, table)
        best = best_decomposition(n, table=table, candidates=candidates)
        row = ComparisonRow(
            n=n,
            split_m1=d.m1,
            split_m2=d.m2,
            split_quality=sq,
            split_fallback=d.fallback,
            oracle_m1=best.m1,
            oracle_m2=best.m2,
            oracle_quality=best.quality,
        )
        rows.append(row)
        if not row.ok:
            violations.append(n)
        sum_split += float(sq)
        sum_oracle += float(best.quality)
    count = len(rows)
    return ComparisonReport(
        n_lo=n_lo,
        n_hi=n_hi,
        rows=tuple(rows),
        violations=tuple(violations),
        max_split_quality=max(r.split_quality for r in rows),
        mean_split_quality=sum_split / count,
        max_oracle_quality=max(r.oracle_quality for r in rows),
        mean_oracle_quality=sum_oracle / count,
    )


@dataclass(frozen=True, slots=True)
class ProbeReport:
    """Which n in [n_lo, n_hi] split into two log-weighted members.

    A part m qualifies when k(m)**2 <= m * ln(m)**(2*gamma); n is
    representable when some m1 + m2 = n (m1 <= m2, both >= 2) has both
    parts qualifying.  ``pairs`` holds the smallest qualifying m1 per n,
    or None where none exists; those n are listed in ``failing``.  No
    cutoff beyond which everything is representable is asserted, only
    observed.
    """

    n_lo: int
    n_hi: int
    gamma: float
    pairs: tuple[tuple[int, int | None], ...]
    failing: tuple[int, ...]

    @property
    def satisfied(self) -> int:
        return len(self.pairs) - len(self.failing)

    def to_rows(self) -> list[dict]:
        return [
            {
                "n": n,
                "ok": m1 is not None,
                "m1": m1,
                "m2": n - m1 if m1 is not None else None,
            }
            for n, m1 in self.pairs
        ]

    def summary_record(self) -> dict:
        return {
            "n_lo": self.n_lo,
            "n_hi": self.n_hi,
            "gamma": self.gamma,
            "checked": len(self.pairs),
            "satisfied": self.satisfied,
            "failing": list(self.failing),
        }


def conjecture_probe(
    n_lo: int,
    n_hi: int,
    gamma: float,
    *,
    table: RadicalTable | None = None,
    force: bool = False,
) -> ProbeReport:
    """Scan [n_lo, n_hi] for two-part log-weighted representations; refused over budget unless force."""
    check_range(n_lo, n_hi, force)
    if table is None:
        table = radical_sieve(n_hi - 2)
    good = log_weighted_mask(n_hi - 2, gamma, table=table)
    members = np.flatnonzero(good)  # ascending, all >= 2
    ends = _part_ends(members, n_lo, n_hi)
    if not force:
        _check_work(n_lo, n_hi, int(ends.sum()))
    pairs = []
    failing = []
    for n, end in zip(range(n_lo, n_hi + 1), ends.tolist()):
        m1 = members[:end]
        hits = good[n - m1]  # both parts qualify, m1 ascending
        if hits.any():
            pairs.append((n, int(m1[hits.argmax()])))
        else:
            pairs.append((n, None))
            failing.append(n)
    return ProbeReport(
        n_lo=n_lo,
        n_hi=n_hi,
        gamma=gamma,
        pairs=tuple(pairs),
        failing=tuple(failing),
    )
