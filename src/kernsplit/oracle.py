"""Exhaustive decomposition search and representability probes.

The quality of a part m is the exact rational k(m)**2 / m, at most 1
exactly when k(m) <= sqrt(m).  A pair is ranked by its worse (larger)
part, so the best decomposition of n minimizes max(quality(m1),
quality(m2)) over all m1 + m2 = n with m1, m2 >= 2, ties resolved toward
the smallest m1.  Floats, all from ``_qualities``, only prefilter:
within ``kernel.PREFILTER_REL`` of each other, the best pairs, a pair's
worse part and the report's maxima and violations are re-decided in
``Fraction`` or ints.  The two scans, ``constructive_vs_oracle`` and
``conjecture_probe``, are the whole surface, and report int64 columns
indexed by n - n_lo: the oracle's are each side's m1 and the integer
pair (k**2, m) of its worse part, the probe's the smallest witness m1.

Neither search walks every m1 <= n/2, and neither builds a kernel table.
The split certifies k(m)**4 <= 432 m**2, a quality of at most
sqrt(432) < 21, so both parts of an optimal pair, and the split's own,
lie in G = {m : k(m)**2 <= 21 m} (18,411 members up to 1e6): the
split's kernels are one ``searchsorted`` on G, and a part missing from
it raises.  ``kernel.kernel_bounded`` enumerates each scan's parts with
their kernels from the powerful numbers; the probe's are exactly the
members of the class it is handed.

Both scans walk n in blocks of ``kernel.BLOCK``, each one sumset: every
pair g1 <= g2 of parts with g1 + g2 in the block, formed over the g1
that have one by ``kernel.flat_ranges`` in blocks of at most
``kernel.BLOCK`` pairs.  The oracle keeps, per n, the pairs within the
band of the float minimum, and ranks exactly only the n with several,
over two tiers built once per scan: the parts of quality at most 1,
then G for each n they miss.  G is the last tier: each block's split is
checked first to have both parts in G, and the optimum's qualities are
at most the split's.  The probe writes, per n, the smallest part g1 of
a qualifying pair into one int64 column, 0 for none (every part is at
least 1), and stops once no later pair can reach an n still without one.

Both scans are priced by ``kernel.check_budget`` in seconds and bytes:
rows, the walk over the powerful numbers, candidate parts and sumset
pairs.  Unless ``force``, a scan over budget is refused on its rows and
walk before any b is visited, on the bound of its parts during the walk
as soon as the bound seen so far is over, or else before any part is
emitted, and on its exact pair count before any pair is formed.  Forced
or not, 21*n >= 2**63 is refused: pair sums stay below 2n, and the int64
tier test k**2 <= c*m, c <= 21, runs on G alone, where k**2 <= 21*m <
21*n, as does every k**2 a report keeps.  So is a forced scan whose
rows, walk and parts need more bytes than the physical memory, before
the step that would hold them.
"""

from __future__ import annotations

import math
from itertools import repeat, tee
from operator import le, not_, sub
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .kernel import BLOCK, PAIR_S, PART_BYTES, PART_S, POWERFUL_DENSITY, PREFILTER_REL, ROW_BYTES, ROW_S, WALK_VISIT_BYTES, WALK_VISIT_S
from .kernel import KernelClass, _blocks, check_budget, flat_ranges, kernel_bounded, quality

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "ComparisonReport",
    "ProbeReport",
    "conjecture_probe",
    "constructive_vs_oracle",
]

# the oracle's candidate parts: k(m)**2 <= _CANDIDATE_QUALITY * m.  Any
# pair of quality at most this has both parts in the set, and the split
# (quality <= sqrt(432) < 21) always provides one.
_CANDIDATE_QUALITY = 21

# quality of the first, sparser tier of parts the oracle pairs up: over
# [4, 1e6] all but 3,447 n have a pair of quality at most 1, from 1/3 of
# G's parts and 1/10 of its pairs
_FIRST_TIER_QUALITY = 1


class _Texts(dict):
    """The text of each quality (q, m) looked up in it, ``str(Fraction(q, m))``, computed the first time it is met.

    Qualities repeat: over [4, 1e6] the columns hold 4,201 and 6,501.
    """

    def __missing__(self, quality: tuple[int, int]) -> str:
        from fractions import Fraction  # only the oracle prints qualities: the probe skips the import

        self[quality] = text = str(Fraction(*quality))
        return text


def _pair_ranges(parts: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(index, start, count)`` per part g1 = parts[index] with a pair in [lo, hi]: the g2 >= g1 with lo <= g1 + g2 <= hi are parts[start : start + count], count > 0.

    Only those g1 are kept, so the pairs of a narrow window far from 0
    are expanded over a few of the parts, not over every part <= hi // 2.
    """
    g1 = parts[: np.searchsorted(parts, hi // 2, side="right")]
    start = np.searchsorted(parts, np.maximum(g1, lo - g1))
    count = np.searchsorted(parts, hi - g1, side="right") - start
    index = np.flatnonzero(count > 0)
    return index, start[index], count[index]


def _pairs(index: np.ndarray, start: np.ndarray, count: np.ndarray):
    """Yield int64 ``(i1, i2)`` arrays of at most ``BLOCK`` pairs, the parts' indices of the ranges' pairs, i1 ascending."""
    for owner, i2 in flat_ranges(start, count, BLOCK):
        yield index[owner], i2


def _pair_count(parts: np.ndarray, n_lo: int, n_hi: int) -> int:
    """Exact number of pairs g1 <= g2 of parts with g1 + g2 in [n_lo, n_hi]."""
    return int(_pair_ranges(parts, n_lo, n_hi)[2].sum())


def _admit(n_lo: int, n_hi: int, members: KernelClass, force: bool) -> tuple[np.ndarray, np.ndarray]:
    """``kernel_bounded`` of the members up to n_hi - 2 for a scan of [n_lo, n_hi], refused as the module docstring says."""
    if not 4 <= n_lo <= n_hi:
        raise ValueError(f"need 4 <= n_lo <= n_hi, got [{n_lo}, {n_hi}]")
    if _CANDIDATE_QUALITY * n_hi >= 2**63:
        raise ValueError(f"scans are exact in int64 up to n = {(2**63 - 1) // _CANDIDATE_QUALITY}, got {n_hi}")
    rows, walk = n_hi - n_lo + 1, math.ceil(POWERFUL_DENSITY * math.sqrt(n_hi))
    bound = 0

    def admit(parts: int, pairs: int = 0) -> None:
        nonlocal bound
        bound = parts
        seconds = ROW_S * rows + WALK_VISIT_S * walk + PART_S * parts + PAIR_S * pairs
        nbytes = ROW_BYTES * rows + WALK_VISIT_BYTES * walk + PART_BYTES * parts
        check_budget(f"scan of [{n_lo}, {n_hi}]", seconds, nbytes, force=force)

    admit(0)
    parts, kernels = kernel_bounded(n_hi - 2, members.interval(n_hi - 2), admit)
    if not force:
        admit(bound, _pair_count(parts, n_lo, n_hi))
    return parts, kernels


def _best_pair(m1: list, k1: list, m2: list, k2: list) -> int:
    """The index of the exactly best of the pairs ``(m1, k1, m2, k2)``, the first on ties; m1 ascending."""
    from fractions import Fraction  # only the oracle ranks exactly: the probe skips the import

    return min(range(len(m1)), key=lambda i: max(Fraction(k1[i] * k1[i], m1[i]), Fraction(k2[i] * k2[i], m2[i])))


def _band(f: np.ndarray, g) -> np.ndarray:
    """Where quality floats f <= g * (1 + PREFILTER_REL): wherever f's exact quality is at most g's, whatever the floats' error."""
    return f <= g * (1 + PREFILTER_REL)


def _best_pairs(tier: tuple, lo: int, hi: int) -> tuple:
    """``(has, i1, i2)``: which n in [lo, hi] have a pair of the tier's parts, and the best pair of each n that has, as its parts' indices.

    Per n, the pairs in the band of the float minimum of max(q1, q2), m1
    ascending: one is taken, and several are ranked exactly.
    """
    parts, kernels, qual = tier
    index, start, count = _pair_ranges(parts, lo, hi)
    chunks = list(_pairs(index, start, count)) if count.sum() <= BLOCK else None
    fmin = np.full(hi - lo + 1, np.inf)
    for i1, i2 in chunks or _pairs(index, start, count):
        np.minimum.at(fmin, parts[i1] + parts[i2] - lo, np.maximum(qual[i1], qual[i2]))
    found = [(np.zeros(0, dtype=np.int64),) * 2]
    for i1, i2 in chunks or _pairs(index, start, count):
        near = _band(np.maximum(qual[i1], qual[i2]), fmin[parts[i1] + parts[i2] - lo])
        found.append((i1[near], i2[near]))
    i1, i2 = map(np.concatenate, zip(*found))
    del found, chunks, fmin  # dropped before the sort, so that a block holds a few arrays of its n at once
    order = np.argsort(parts[i1] + parts[i2], kind="stable")  # keeps m1 ascending within each n
    i1, i2 = i1[order], i2[order]
    ends = np.searchsorted(parts[i1] + parts[i2], np.arange(lo, hi + 2))
    first, stop = ends[:-1].copy(), ends[1:]
    for n in np.flatnonzero(stop - first > 1).tolist():
        band = slice(first[n], stop[n])
        first[n] += _best_pair(*(column[i[band]].tolist() for i in (i1, i2) for column in (parts, kernels)))
    has = first < stop
    return has, i1[first[has]], i2[first[has]]


# The float of each quality q / m, from int64 columns: numpy rounds q
# and m to float64 first, so it is ~2 ulp off.  The one place a quality's
# float is computed, for the tiers and the report alike.
def _qualities(q: np.ndarray, m: np.ndarray) -> np.ndarray:
    return q / m


def _tier(parts: np.ndarray, kernels: np.ndarray) -> tuple:
    """``(parts, kernels, qualities)``: a tier of the oracle, with the float quality of each part."""
    return parts, kernels, _qualities(kernels * kernels, parts)


def _worse_part(tier: tuple, i1: np.ndarray, i2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(k**2, m)`` int64 columns of the worse part of each pair of the tier's parts i1, i2, part 1's on ties.

    Floats decide outside the prefilter band, and ints within it.
    """
    parts, kernels, qual = tier
    f1, f2 = qual[i1], qual[i2]
    first = f1 > f2
    near = np.flatnonzero(_band(f1, f2) & _band(f2, f1))
    pairs = (column[i[near]].tolist() for i in (i1, i2) for column in (parts, kernels))
    first[near] = [k1 * k1 * m2 >= k2 * k2 * m1 for m1, k1, m2, k2 in zip(*pairs)]
    worse = np.where(first, i1, i2)
    return kernels[worse] ** 2, parts[worse]


def _oracle_block(tiers: tuple, lo: int, hi: int, m1: np.ndarray, worse: np.ndarray) -> None:
    """Write each n's best pair at n - lo: m1 its part 1, and worse the rows (k**2, m) of its worse part.

    The tiers ascend in quality, G's parts of quality at most
    _FIRST_TIER_QUALITY, then G, and an n's optimum is among the pairs
    of the first tier that has one: that tier ranks the block, G each n
    it missed.  G is last, and exact, only because ``_split_block`` ran
    first: it raises unless each split(n), no better than the optimum,
    has both parts in G.
    """
    todo = [(lo, hi)]
    for tier in tiers:
        missed = []
        for w_lo, w_hi in todo:
            has, i1, i2 = _best_pairs(tier, w_lo, w_hi)
            rows = w_lo - lo + np.flatnonzero(has)
            m1[rows] = tier[0][i1]
            worse[0, rows], worse[1, rows] = _worse_part(tier, i1, i2)
            missed += ((n, n) for n in (w_lo + np.flatnonzero(~has)).tolist())
        todo = missed


class ComparisonReport(NamedTuple):
    """Constructive split vs exhaustive optimum over [n_lo, n_hi].

    int64 columns at n - n_lo: each side's m1 (m2 is n - m1), and the
    quality of its pair as the rows (k**2, m) of its worse part.
    """

    n_lo: int
    n_hi: int
    split_m1: np.ndarray
    split_quality: np.ndarray
    oracle_m1: np.ndarray
    oracle_quality: np.ndarray
    violations: tuple[int, ...]
    max_split_quality: Fraction
    mean_split_quality: float
    max_oracle_quality: Fraction
    mean_oracle_quality: float

    def columns(self) -> tuple:
        """The rows, one per n, as ``(key, kind, column)`` per key; each column is read once, as it prints, through a memoryview."""
        ns, bad, texts = range(self.n_lo, self.n_hi + 1), set(self.violations), _Texts()
        split_m1, oracle_m1 = memoryview(self.split_m1), memoryview(self.oracle_m1)
        return (
            ("n", int, ns),
            ("split_m1", int, split_m1),
            ("split_m2", int, map(sub, ns, split_m1)),
            ("split_quality", str, map(texts.__getitem__, zip(*map(memoryview, self.split_quality)))),
            ("split_fallback", bool, map(le, ns, repeat(6))),  # split has no witness below 7
            ("oracle_m1", int, oracle_m1),
            ("oracle_m2", int, map(sub, ns, oracle_m1)),
            ("oracle_quality", str, map(texts.__getitem__, zip(*map(memoryview, self.oracle_quality)))),
            ("ok", bool, map(not_, map(bad.__contains__, ns))),
        )

    def summary_record(self) -> dict:
        return {
            "n_lo": self.n_lo,
            "n_hi": self.n_hi,
            "checked": len(self.split_m1),
            "violations": len(self.violations),
            "max_split_quality": str(self.max_split_quality),
            "mean_split_quality": self.mean_split_quality,
            "max_oracle_quality": str(self.max_oracle_quality),
            "mean_oracle_quality": self.mean_oracle_quality,
        }


def _split_block(g: tuple, lo: int, hi: int) -> tuple:
    """``(m1, (k**2, m))`` of split(n), n in [lo, hi], its parts' kernels read off G, the tier g: the split's bound puts every part there."""
    from .decompose import split_parts  # only the oracle scan splits: the probe skips the import

    parts = np.array(split_parts(lo, hi), dtype=np.int64)
    i = np.searchsorted(g[0], parts)
    if not np.array_equal(g[0].take(i, mode="clip"), parts):
        raise RuntimeError(f"a part of split(n), n in [{lo}, {hi}], is outside G: k(m)**4 <= 432 m**2 fails")
    return parts[0], _worse_part(g, *i)


def constructive_vs_oracle(n_lo: int, n_hi: int, *, force: bool = False) -> ComparisonReport:
    """Compare split(n) against the exhaustive optimum for each n.

    The oracle can never be worse than the constructive split; any n
    where it is lands in ``violations``.  Unless ``force``, a scan over
    the budget is refused before the step that would exceed it.
    """
    g = _tier(*_admit(n_lo, n_hi, quality(_CANDIDATE_QUALITY), force))
    keep, rows = quality(_FIRST_TIER_QUALITY).member(*g[:2]), n_hi - n_lo + 1
    tiers = tuple(column[keep] for column in g), g
    split_m1, oracle_m1 = np.empty(rows, np.int64), np.empty(rows, np.int64)
    split_q, oracle_q = np.empty((2, rows), np.int64), np.empty((2, rows), np.int64)
    for lo, hi in _blocks(n_lo, n_hi, BLOCK):
        at = slice(lo - n_lo, hi - n_lo + 1)
        split_m1[at], (split_q[0, at], split_q[1, at]) = _split_block(g, lo, hi)  # first: it puts each n's optimum in G
        _oracle_block(tiers, lo, hi, oracle_m1[at], oracle_q[:, at])
    return _report(n_lo, n_hi, split_m1, split_q, oracle_m1, oracle_q)


def _report(n_lo: int, n_hi: int, split_m1: np.ndarray, split_q: np.ndarray, oracle_m1: np.ndarray, oracle_q: np.ndarray) -> ComparisonReport:
    """The report over the columns, its floats prefiltered by ``_band``.

    Only the rows within the band of a side's float maximum are compared
    as Fractions, and only an n whose split float is at most its oracle's,
    within the band, is checked for a violation in ints.  The means add
    the floats left to right.
    """
    from fractions import Fraction

    split_f, oracle_f = _qualities(*split_q), _qualities(*oracle_q)
    max_split, max_oracle = (max(map(Fraction, *qs[:, _band(f.max(), f)].tolist())) for qs, f in ((split_q, split_f), (oracle_q, oracle_f)))
    suspect = np.flatnonzero(_band(split_f, oracle_f))
    return ComparisonReport(
        n_lo=n_lo,
        n_hi=n_hi,
        split_m1=split_m1,
        split_quality=split_q,
        oracle_m1=oracle_m1,
        oracle_quality=oracle_q,
        violations=tuple(n_lo + i for i, a, b, c, d in zip(suspect.tolist(), *split_q[:, suspect].tolist(), *oracle_q[:, suspect].tolist()) if c * b > a * d),
        max_split_quality=max_split,
        mean_split_quality=float(np.cumsum(split_f)[-1]) / len(split_f),
        max_oracle_quality=max_oracle,
        mean_oracle_quality=float(np.cumsum(oracle_f)[-1]) / len(oracle_f),
    )


class ProbeReport(NamedTuple):
    """Which n in [n_lo, n_hi] split into two members of a class.

    A part qualifies when it is a member of the class the probe was
    handed, whose ``(name, value)`` is ``param``; n is representable when
    some m1 + m2 = n, m1 <= m2, has both parts qualifying.
    ``witness`` is an int64 column of the smallest qualifying m1 at n -
    n_lo, or 0 where none exists; those n are the int64 ``failing``.  No
    cutoff beyond which all is representable is asserted, only observed.
    """

    n_lo: int
    n_hi: int
    param: tuple[str, object]
    witness: np.ndarray
    failing: np.ndarray

    @property
    def satisfied(self) -> int:
        return len(self.witness) - len(self.failing)

    def columns(self) -> tuple:
        """The rows, one per n, as ``(key, kind, column)`` per key; the witness column is read once, as it prints, through a memoryview."""
        return _probe_columns(range(self.n_lo, self.n_hi + 1), memoryview(self.witness))

    def failing_columns(self) -> tuple:
        """The rows of the failing n alone, as ``columns`` gives them."""
        return _probe_columns(memoryview(self.failing), repeat(0))

    def summary_record(self) -> dict:
        name, value = self.param
        return {
            "n_lo": self.n_lo,
            "n_hi": self.n_hi,
            name: value,
            "checked": len(self.witness),
            "satisfied": self.satisfied,
            "failing": self.failing.tolist(),
        }


def _probe_columns(ns, witness) -> tuple:
    """The probe's table over ns (read twice) from the ints of witness (read once): each n's smallest qualifying m1, or 0 for none."""
    ok, m1, m1_, m2 = tee(witness, 4)
    return (
        ("n", int, ns),
        ("ok", bool, map(bool, ok)),
        ("m1", int | None, map({0: None}.get, m1, m1_)),
        ("m2", int | None, (n - m if m else None for n, m in zip(ns, m2))),
    )


def conjecture_probe(n_lo: int, n_hi: int, members: KernelClass, *, force: bool = False) -> ProbeReport:
    """Scan [n_lo, n_hi] for two-part representations by the members of a class; refused over budget unless force."""
    parts, _ = _admit(n_lo, n_hi, members, force)
    none = np.iinfo(np.int64).max
    witness = np.full(n_hi - n_lo + 1, none)
    for lo, hi in _blocks(n_lo, n_hi, BLOCK):
        first = witness[lo - n_lo : hi - n_lo + 1]
        for i1, i2 in _pairs(*_pair_ranges(parts, lo, hi)):
            g1 = parts[i1]
            np.minimum.at(first, g1 + parts[i2] - lo, g1)
            # later pairs have g1 >= the block's last, so they only reach n >= twice it
            reach = 2 * int(g1[-1]) - lo
            if first[max(reach, 0) :].max(initial=0) < none:
                break
        first[first == none] = 0
    return ProbeReport(n_lo, n_hi, members.param, witness, n_lo + np.flatnonzero(witness == 0))
