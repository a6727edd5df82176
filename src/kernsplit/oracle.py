"""Exhaustive decomposition search and representability probes.

The quality of a part m is the exact rational k(m)**2 / m: at most 1
exactly when k(m) <= sqrt(m), and the squared ratio of kernel to square
root in general.  A pair is ranked by its worse (larger) part, so the
best decomposition of n minimizes max(quality(m1), quality(m2)) over
all m1 + m2 = n with m1, m2 >= 2, ties resolved toward the smallest m1.

Ranking is exact rational comparison throughout; floats only prefilter
which pairs can possibly attain the minimum, and every surviving
candidate is re-ranked with ``fractions.Fraction``.  A scan keeps each
quality as the integer pair (k**2, m) of the worse part, and reports
columns indexed by n - n_lo, not one object per n.  The two scans,
``constructive_vs_oracle`` and ``conjecture_probe``, are the whole
surface: the best pair of a single n is the one-n window of the first.

Neither search walks every m1 <= n/2, and neither builds a kernel table.
The split certifies k(m)**4 <= 432 m**2, a quality of at most
sqrt(432) < 21, so both parts of an optimal pair lie in the candidate
set G = {m : k(m)**2 <= 21 m}, the class ``kernel.quality(21)`` (1,003
members up to 1e4, 4,355 up to 1e5, 18,411 up to 1e6).  Each scan hands
its class of parts to ``_admit``, and ``kernel.kernel_bounded``
enumerates it with its kernels from the powerful numbers: for each
powerful b, the squarefree a coprime to b in the class's interval.  The
probe's parts are the class it is handed, so they are exactly its
members: ``scan --gamma`` hands it the log-weighted counter's own class
(``powered._log_weighted_class``).
A window of n is then one sumset: every pair g1 <= g2 of parts with
g1 + g2 in the window, formed over the g1 that have one by
``kernel.flat_ranges`` in numpy blocks of at most ``kernel.BLOCK``
pairs.  The oracle keeps, per n, the pairs within the float prefilter
band of the minimum and re-ranks exactly only the n with more than one,
over ascending tiers of parts: quality at most 1 (``quality(1)``'s test
on G) and G, both built once per scan, then every m in [2, n - 2]
(``quality(n)``) from the same walk, each for the n that the tiers
before it missed.  So an n with no pair in G (an optimum above 21) has
every pair ranked: no answer rests on the theorem it checks.  The probe
records, per n, the first (smallest) part g1 of a qualifying pair, and
stops once no later pair can reach an n still without one.

Both scans take their parts from ``_admit``, priced by
``kernel.check_budget`` in seconds and bytes: rows, the walk over the
powerful numbers, candidate parts and sumset pairs.  Unless ``force``, a
scan over budget is refused on its rows and walk before any b is
visited, on the bound of its parts during the walk, as soon as the part
of the bound seen so far is over, or else before any part is emitted,
and on its exact pair count before any pair is formed.  Forced or not, 21*n >=
2**63 is refused: pair sums stay below 2n, and the int64 tier test
k**2 <= c*m, c <= 21, runs on G alone, where k**2 <= 21*m < 21*n.  So
is a forced scan whose rows, walk and parts need more bytes than the
physical memory, before the step that would hold them.
"""

from __future__ import annotations

import math
from itertools import count, repeat
from operator import is_not, le, not_, sub
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .kernel import BLOCK, PAIR_S, PART_BYTES, PART_S, POWERFUL_DENSITY, ROW_BYTES, ROW_S, WALK_VISIT_BYTES, WALK_VISIT_S
from .kernel import KernelClass, _blocks, check_budget, flat_ranges, kernel_bounded, quality, radical

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "ComparisonReport",
    "ProbeReport",
    "conjecture_probe",
    "constructive_vs_oracle",
]

# relative slack for the float prefilter; anything this close to the
# float minimum is re-ranked exactly
_PREFILTER_REL = 1e-6

# the oracle's candidate parts: k(m)**2 <= _CANDIDATE_QUALITY * m.  Any
# pair of quality at most this has both parts in the set, and the split
# (quality <= sqrt(432) < 21) always provides one.
_CANDIDATE_QUALITY = 21

# quality of the first, sparser tier of parts the oracle pairs up: over
# [4, 1e6] all but 3,447 n have a pair of quality at most 1, from 1/3 of
# G's parts and 1/10 of its pairs
_FIRST_TIER_QUALITY = 1

# n per block of an oracle window: the block's Python lists are dropped
# before the next is built, so 4096 keeps them to ~1 MB next to the rows
_ORACLE_BLOCK = 1 << 12


def _worse(m1: int, k1: int, m2: int, k2: int) -> tuple[int, int]:
    """``(k**2, m)`` of the worse part, the larger of k1**2 / m1 and k2**2 / m2; part 1's on ties."""
    q1, q2 = k1 * k1, k2 * k2
    return (q1, m1) if q1 * m2 >= q2 * m1 else (q2, m2)


class _Texts(dict):
    """The text of each quality (q, m) looked up in it, ``str(Fraction(q, m))``, computed the first time it is met.

    A scan's qualities repeat: over [4, 1e6] its columns hold 4,201 and
    6,501 distinct pairs, the worse parts of the splits and optima.
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


def _best_pair(m1: list, k1: list, m2: list, k2: list) -> tuple[int, int, int, int]:
    """``(m1, k1, m2, k2)`` of the exactly best pair, the first on ties; m1 ascending."""
    from fractions import Fraction  # only the oracle ranks exactly: the probe skips the import

    i = min(range(len(m1)), key=lambda i: Fraction(*_worse(m1[i], k1[i], m2[i], k2[i])))
    return m1[i], k1[i], m2[i], k2[i]


def _band(qmax: np.ndarray, fmin) -> np.ndarray:
    """qmax within the prefilter band of fmin: a candidate for the exact minimum."""
    return qmax <= fmin * (1 + _PREFILTER_REL) + 1e-12


def _band_pairs(parts: np.ndarray, kernels: np.ndarray, qual: np.ndarray, lo: int, hi: int) -> tuple:
    """``(offsets, m1, k1, m2, k2)``: the pairs of parts that can attain each n's minimum, n in [lo, hi].

    The float minimum of max(q1, q2) per n over the pairs g1 + g2 = n,
    then the pairs within its prefilter band: those of n = lo + i sit at
    [offsets[i], offsets[i + 1]) of the lists, ascending in m1, and none
    where n has no pair.  qual is the float quality of each part.
    """
    index, start, count = _pair_ranges(parts, lo, hi)
    chunks = list(_pairs(index, start, count)) if count.sum() <= BLOCK else None
    fmin = np.full(hi - lo + 1, np.inf)
    for i1, i2 in chunks or _pairs(index, start, count):
        np.minimum.at(fmin, parts[i1] + parts[i2] - lo, np.maximum(qual[i1], qual[i2]))
    found = [], [], []
    for i1, i2 in chunks or _pairs(index, start, count):
        at = parts[i1] + parts[i2] - lo
        near = _band(np.maximum(qual[i1], qual[i2]), fmin[at])
        for acc, arr in zip(found, (at, i1, i2)):
            acc.append(arr[near])
    at, i1, i2 = (np.concatenate(acc) if acc else np.zeros(0, dtype=np.int64) for acc in found)
    order = np.argsort(at, kind="stable")  # keeps m1 ascending within each n
    at, i1, i2 = at[order], i1[order], i2[order]
    offsets = np.searchsorted(at, np.arange(hi - lo + 2)).tolist()
    return offsets, parts[i1].tolist(), kernels[i1].tolist(), parts[i2].tolist(), kernels[i2].tolist()


def _tier(parts: np.ndarray, kernels: np.ndarray) -> tuple:
    """``(parts, kernels, qualities)``: a tier of the oracle, with the float quality of each part."""
    return parts, kernels, kernels.astype(np.float64) ** 2 / parts


def _tiers(parts: np.ndarray, kernels: np.ndarray) -> list[tuple]:
    """The tiers over G, built once per scan: its parts of quality at most _FIRST_TIER_QUALITY, then G."""
    keep = quality(_FIRST_TIER_QUALITY).member(parts, kernels)
    return [_tier(parts[keep], kernels[keep]), _tier(parts, kernels)]


def _oracle_block(tiers: list[tuple], lo: int, hi: int) -> list[tuple]:
    """``(m1, k1, m2, k2)`` of the best pair of every n in [lo, hi].

    The tiers ascend in quality: those of ``_tiers``, then every m in
    [2, n - 2] (c = n), built here for each n that reaches it.  An n with
    a pair in a tier has its optimum among that tier's pairs, since any
    other pair has a part of higher quality, so a tier ranks only the n
    that the tiers before it left without a pair: the first the whole
    window at once, each later one n by n.
    """
    best, todo = [None] * (hi - lo + 1), [(lo, hi)]
    for tier in (*tiers, None):
        if not todo:
            break
        missed = []
        for w_lo, w_hi in todo:
            # the last tier, c = n: every m in [2, n - 2], from the same walk
            ranked = tier or _tier(*kernel_bounded(w_hi - 2, quality(w_hi).interval(w_hi - 2)))
            offsets, m1, k1, m2, k2 = _band_pairs(*ranked, w_lo, w_hi)
            for n, s, e in zip(range(w_lo, w_hi + 1), offsets, offsets[1:]):
                if e - s == 1:  # the common case: one pair in the band
                    best[n - lo] = m1[s], k1[s], m2[s], k2[s]
                elif e > s:
                    best[n - lo] = _best_pair(m1[s:e], k1[s:e], m2[s:e], k2[s:e])
                else:
                    missed.append((n, n))
        todo = missed
    return best


class ComparisonReport(NamedTuple):
    """Constructive split vs exhaustive optimum over [n_lo, n_hi].

    One column per field, at n - n_lo: each side's m1 (m2 is n - m1) and
    the quality of its pair as the pair (k**2, m) of its worse part.
    """

    n_lo: int
    n_hi: int
    split_m1: list[int]
    split_quality: list[tuple[int, int]]
    oracle_m1: list[int]
    oracle_quality: list[tuple[int, int]]
    violations: tuple[int, ...]
    max_split_quality: Fraction
    mean_split_quality: float
    max_oracle_quality: Fraction
    mean_oracle_quality: float

    def columns(self) -> tuple:
        """The rows, one per n, as ``(key, kind, column)`` per key; each column is read once, as it prints."""
        ns, bad, texts = range(self.n_lo, self.n_hi + 1), set(self.violations), _Texts()
        return (
            ("n", int, ns),
            ("split_m1", int, self.split_m1),
            ("split_m2", int, map(sub, ns, self.split_m1)),
            ("split_quality", str, map(texts.__getitem__, self.split_quality)),
            ("split_fallback", bool, map(le, ns, repeat(6))),  # split has no witness below 7
            ("oracle_m1", int, self.oracle_m1),
            ("oracle_m2", int, map(sub, ns, self.oracle_m1)),
            ("oracle_quality", str, map(texts.__getitem__, self.oracle_quality)),
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


def _kernels_of(ms: list, parts: np.ndarray, kernels: np.ndarray) -> list:
    """k(m) for each m, looked up in the parts, or by trial division for an m not among them."""
    if not len(parts):
        return [radical(m) for m in ms]
    arr = np.array(ms, dtype=np.int64)
    at = np.minimum(np.searchsorted(parts, arr), len(parts) - 1)
    hit = parts[at] == arr
    return [k if h else radical(m) for m, k, h in zip(ms, kernels[at].tolist(), hit.tolist())]


def constructive_vs_oracle(n_lo: int, n_hi: int, *, force: bool = False) -> ComparisonReport:
    """Compare split(n) against the exhaustive optimum for each n.

    The oracle can never be worse than the constructive split; any n
    where it is lands in ``violations``.  Unless ``force``, a scan over
    the budget is refused before the step that would exceed it.
    """
    from .decompose import split_parts  # only the oracle scan splits: the probe skips the import

    parts, kernels = _admit(n_lo, n_hi, quality(_CANDIDATE_QUALITY), force)
    tiers, split_m1, split_q, oracle_m1, oracle_q = _tiers(parts, kernels), [], [], [], []
    for lo, hi in _blocks(n_lo, n_hi, _ORACLE_BLOCK):
        om1, ok1, om2, ok2 = zip(*_oracle_block(tiers, lo, hi))
        oracle_m1 += om1
        oracle_q += map(_worse, om1, ok1, om2, ok2)
        sm1, sm2 = split_parts(lo, hi)
        split_m1 += sm1
        split_q += map(_worse, sm1, _kernels_of(sm1, parts, kernels), sm2, _kernels_of(sm2, parts, kernels))
    return _report(n_lo, n_hi, split_m1, split_q, oracle_m1, oracle_q)


def _report(n_lo: int, n_hi: int, split_m1: list, split_q: list, oracle_m1: list, oracle_q: list) -> ComparisonReport:
    """The report over the columns, with floats deciding every comparison they can.

    q / m on two ints rounds correctly, hence monotonically, so only the
    qualities at the largest float are compared as Fractions.  The means
    add the floats left to right (``np.cumsum``), as a loop over n does.
    Violations, an oracle quality above the split's, are decided in ints.
    """
    from fractions import Fraction

    split_f, oracle_f = (np.fromiter((q / m for q, m in qs), np.float64, len(qs)) for qs in (split_q, oracle_q))
    return ComparisonReport(
        n_lo=n_lo,
        n_hi=n_hi,
        split_m1=split_m1,
        split_quality=split_q,
        oracle_m1=oracle_m1,
        oracle_quality=oracle_q,
        violations=tuple(n for n, (sq, sm), (oq, om) in zip(count(n_lo), split_q, oracle_q) if oq * sm > sq * om),
        max_split_quality=max(Fraction(*split_q[i]) for i in np.flatnonzero(split_f == split_f.max())),
        mean_split_quality=float(np.cumsum(split_f)[-1]) / len(split_f),
        max_oracle_quality=max(Fraction(*oracle_q[i]) for i in np.flatnonzero(oracle_f == oracle_f.max())),
        mean_oracle_quality=float(np.cumsum(oracle_f)[-1]) / len(oracle_f),
    )


class ProbeReport(NamedTuple):
    """Which n in [n_lo, n_hi] split into two members of a class.

    A part qualifies when it is a member of the class the probe was
    handed, whose ``(name, value)`` is ``param``; n is representable when
    some m1 + m2 = n, m1 <= m2, has both parts qualifying.
    ``witness`` holds the smallest qualifying m1 at n - n_lo, or None
    where none exists; those n are listed in ``failing``.  No cutoff
    beyond which everything is representable is asserted, only observed.
    """

    n_lo: int
    n_hi: int
    param: tuple[str, object]
    witness: list[int | None]
    failing: tuple[int, ...]

    @property
    def satisfied(self) -> int:
        return len(self.witness) - len(self.failing)

    def columns(self) -> tuple:
        """The rows, one per n, as ``(key, kind, column)`` per key; each column is read once, as it prints."""
        return _probe_columns(range(self.n_lo, self.n_hi + 1), self.witness)

    def failing_columns(self) -> tuple:
        """The rows of the failing n alone, as ``columns`` gives them."""
        return _probe_columns(self.failing, [None] * len(self.failing))

    def summary_record(self) -> dict:
        name, value = self.param
        return {
            "n_lo": self.n_lo,
            "n_hi": self.n_hi,
            name: value,
            "checked": len(self.witness),
            "satisfied": self.satisfied,
            "failing": list(self.failing),
        }


def _probe_columns(ns, witness: list) -> tuple:
    """The probe's table over ns, with the smallest qualifying m1 of each n in witness (None for none)."""
    return (
        ("n", int, ns),
        ("ok", bool, map(is_not, witness, repeat(None))),
        ("m1", int | None, witness),
        ("m2", int | None, (None if m1 is None else n - m1 for n, m1 in zip(ns, witness))),
    )


def conjecture_probe(n_lo: int, n_hi: int, members: KernelClass, *, force: bool = False) -> ProbeReport:
    """Scan [n_lo, n_hi] for two-part representations by the members of a class; refused over budget unless force."""
    parts, _ = _admit(n_lo, n_hi, members, force)
    none = np.iinfo(np.int64).max
    witness, failing = [], []
    for lo, hi in _blocks(n_lo, n_hi, BLOCK):
        first = np.full(hi - lo + 1, none)
        for i1, i2 in _pairs(*_pair_ranges(parts, lo, hi)):
            g1 = parts[i1]
            np.minimum.at(first, g1 + parts[i2] - lo, g1)
            # later pairs have g1 >= the block's last, so they only reach n >= twice it
            reach = 2 * int(g1[-1]) - lo
            if first[max(reach, 0) :].max(initial=0) < none:
                break
        block, missed = first.tolist(), np.flatnonzero(first == none).tolist()
        for i in missed:
            block[i] = None
        witness += block
        failing += (lo + i for i in missed)
    return ProbeReport(n_lo, n_hi, members.param, witness, tuple(failing))
