"""Prime factorization and kernel (radical) arithmetic.

The kernel of a natural number m, written k(m), is the product of the
distinct primes dividing m, i.e. the largest squarefree divisor of m.
By convention k(1) = 1.

Single values are factored by trial division up to ``FACTOR_LIMIT``, so
that oversized inputs fail loudly instead of stalling.  A kernel table
over [1, x] comes from ``radical_sieve``, a segmented multiplicative
sieve: each prime p <= sqrt(x) contributes one factor p to the kernel of
its multiples, the p-power content is divided out of a parallel
remainder array, and whatever remainder survives (> 1) is the unique
prime factor above sqrt(x).  Segments are sieved left to right into the
table, so the temporaries stay segment-sized, and the output is
identical to a one-shot sieve regardless of segment size.
``powerful_sum`` walks the powerful numbers up to x with their
kernels, which is all the class counters need, and ``kernel_bounded``
builds from the same walk, with their kernels, the sparse sets that the
oracle and the probe pair up: the m = a*b whose squarefree a lies in the
interval that a class of m, one ``KernelClass``, gives each powerful b
(``quality(c)`` for k(m)**2 <= c*m).  ``squarefree_flags`` is the one
squarefree sieve and ``flat_ranges`` the one expander of per-owner runs
into bounded blocks, for ``kernel_bounded``, the counters and the scans.

Every walk, count, sieve and scan is priced here in seconds and bytes,
and ``check_budget`` refuses it, before the work, over the one budget.
Every refusal, of an oversized factorization or of work over the
budget, is a plain ValueError, which the CLI prints as one line.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from collections.abc import Callable, Sequence
from itertools import accumulate, chain, compress, cycle
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction

    import numpy as np

__all__ = [
    "BLOCK",
    "FACTOR_LIMIT",
    "MEMORY_LIMIT",
    "WORK_LIMIT_S",
    "Factorization",
    "KernelClass",
    "RadicalTable",
    "check_budget",
    "factorize",
    "flat_ranges",
    "kernel_bounded",
    "powerful_sum",
    "primes_up_to",
    "quality",
    "radical",
    "radical_sieve",
    "squarefree_flags",
]

# the largest m that ``factorize`` accepts: trial division up to 1e6
FACTOR_LIMIT = 10**12

# The one relative band of every float prefilter: a float comparison
# decides only when its sides are further apart than this, and anything
# within it is re-decided exactly.  Its sites: ``oracle._band`` (qualities
# k**2 / m, ~2 ulp off; re-ranked in ints and Fraction),
# ``powered._log_weighted_member`` (m * ln(m)**(2*gamma), ~15 ulp off:
# pow amplifies ln's error at most ~12-fold where a near-tie can occur;
# re-decided at 35 digits) and the start of the prefix in
# ``powered._log_weighted_class``.  So it is over 3e5 times the float
# error of each site.  Every quality is at least 1/m > 0 and every
# right-hand side positive, so a relative band suffices.
PREFILTER_REL = 1e-9

# Entries per numpy block: the m sieved per segment of ``radical_sieve``,
# the pairs (b, a) expanded at once by ``kernel_bounded`` and the sumset
# pairs formed at once by the oracle and the probe.  A block's int64 and
# float64 temporaries are a few times this many entries, however large
# the table, one A_b or the sumset is.  ``kernel_bounded`` and
# ``radical_sieve`` read it at call time; the oracle imports it.
BLOCK = 1 << 20

# There are zeta(3/2)/zeta(3) * sqrt(x) + zeta(2/3)/zeta(2) * x**(1/3) +
# o(x**(1/6)) powerful b <= x (Bateman-Grosswald 1958), and the second
# term is negative, so fewer than POWERFUL_DENSITY * sqrt(x): the visits
# of ``powerful_sum`` (2,027 at 1e6 and 214,122 at 1e10).
POWERFUL_DENSITY = 2.2

# ``kernel_bounded`` forms m = a*b and k(m) = a*k(b) in int64 with
# a <= top // b, so both stay exact for every top up to this; larger tops
# are refused.
BOUNDED_INT64_LIMIT = 2**63 - 1


# The one budget of every command that walks, counts, sieves or scans,
# and the price of each unit of its work.  Measured on 2 cores (Xeon, 7.8
# GB, Python 3.11, numpy 2.4) with os.wait4 on CLI children, and with
# timers and tracemalloc in process; the table is in CHANGES.md.
# - A visit of ``powerful_sum``: 1.4 us (the oracle's interval) to 4 us
#   (the probe's search) in ``kernel_bounded``, and 3-8 us in a count
#   with its squarefree counts.  ``kernel_bounded`` keeps ~145 bytes a
#   visit until its parts exist, and 64 more while it builds its columns.
# - A scan row: 2-5 us (probe) to ~25 us (oracle) of Python with its
#   output.  The report's columns hold 48 bytes a row for the oracle (six
#   int64 columns), 8 for the probe (one), and a row's record is built
#   only as it prints.  Both are priced at ROW_BYTES, fitted when the oracle
#   held ~810 bytes a row, so no admitted scan peaks above MEMORY_LIMIT,
#   and no verdict moved when the rows became columns.
# - A unit of the width bound of a scan's parts (``kernel_bounded``'s
#   ``admit``): ~140 ns and ~25 bytes to emit and sort in a dense probe
#   set (every m, gamma = 10), 115-130 ns and 17-19 bytes over G.
# - A sumset pair: 2-10 ns in numpy, formed in blocks of bounded size.
# - A Moebius term of a squarefree count (~4 ns) and an entry of the
#   squarefree prefix table (~115 ns): priced at 1/256 and 1/8 of a
#   visit, the ratios of the count budget they replace, so every count
#   keeps the verdict it had when counts were priced in visits.
# - An entry of ``radical_sieve``'s int32 table: 4 bytes, so x = 2**28 is
#   the largest table admitted.
# - A count that adds its leaves in bulk visits only the b that are no
#   leaves of the walk: 2.37-2.45 * x**0.42 visits from x = 1e9 (15k,
#   0.05 s) to 1e14 (1.8M, 7.4 s) at theta = 1/2 and gamma = 0.
WORK_LIMIT_S = 60.0
MEMORY_LIMIT = 1 << 30
WALK_VISIT_S, WALK_VISIT_BYTES = 6e-6, 200
ROW_S, ROW_BYTES = 25e-6, 850
PART_S, PART_BYTES = 140e-9, 25
PAIR_S = 10e-9
SQUAREFREE_TERM_S = WALK_VISIT_S / 256
TABLE_ENTRY_S = WALK_VISIT_S / 8
SIEVE_ENTRY_BYTES = 4
BULK_VISITS, BULK_EXPONENT = 2.5, 0.42


def check_budget(what: str, seconds: float, nbytes: float, *, force: bool | None = None):
    """Raise ValueError when ``what``, priced at ``seconds`` and ``nbytes``, is over the budget, read at call time.

    ``force`` is None for work that cannot be forced, False for a scan,
    whose message then names --force, and True for a forced scan, refused
    only when ``nbytes`` exceed the physical memory.  A NaN that it compares is refused.
    """
    # written as not (<=): a NaN compares False with every limit, so > would admit it as free
    if force:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        over, budget = not nbytes <= memory, f"the {memory / 2**30:.3g} GiB of physical memory, forced or not"
    else:
        over = not (seconds <= WORK_LIMIT_S and nbytes <= MEMORY_LIMIT)
        budget = f"the budget of {WORK_LIMIT_S:g} s and {MEMORY_LIMIT / 2**30:g} GiB"
    if over:
        hint = "; rerun with --force to proceed" if force is False else ""
        raise ValueError(f"{what} implies ~{seconds:.3g} s and ~{nbytes:.3g} bytes, over {budget}{hint}")


class Factorization(NamedTuple):
    """Factorization of m into (prime, exponent) pairs, primes ascending."""

    m: int
    factors: tuple[tuple[int, int], ...]

    def radical(self) -> int:
        """Product of the distinct primes dividing m; 1 when m = 1."""
        return math.prod(p for p, _ in self.factors)


def factorize(m: int) -> Factorization:
    """Factor 1 <= m <= FACTOR_LIMIT by trial division into ordered (prime, exponent) pairs, none for m = 1.

    A larger m raises ValueError rather than spinning in the trial loop.
    """
    if m < 1:
        raise ValueError(f"cannot factor {m}: expected an integer >= 1")
    if m > FACTOR_LIMIT:
        raise ValueError(f"{m} is too large to factor by trial division (limit {FACTOR_LIMIT})")
    factors = []
    rest = m
    # one loop over 2, 3 and then the 6k +- 1 wheel 5, 7, 11, 13, ...
    for p in chain((2, 3), accumulate(cycle((2, 4)), initial=5)):
        if p * p > rest:
            break
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            factors.append((p, e))
    if rest > 1:
        factors.append((rest, 1))
    return Factorization(m, tuple(factors))


def radical(m: int) -> int:
    """Kernel k(m): the product of the distinct primes dividing m."""
    return factorize(m).radical()


def primes_up_to(n: int) -> list[int]:
    """Primes <= n by a plain byte sieve."""
    if n < 2:
        return []
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, n + 1, p)))
    return list(compress(range(n + 1), flags))


def powerful_sum(
    x: int,
    visit: Callable[[int, int, Sequence[int]], int],
    leaves: Callable[[int, int, Sequence[int], Sequence[int]], int] | None = None,
) -> int:
    """Sum of ``visit(b, k(b), primes of b)`` over every powerful b <= x, b = 1 first.

    b is powerful when p**2 divides b for every prime p dividing b.  The
    walk is a depth-first search over ``primes_up_to(isqrt(x))``: a node
    b with largest prime index j extends to b * p**e, e >= 2, for primes
    past j.  The primes of b are the walk's own list, ascending: a visit
    may read it but not keep it, and no tuple is built per b.  Memory is
    the primes plus one frame per prime of the current b (and the list
    handed to ``leaves``), never the < POWERFUL_DENSITY * sqrt(x) numbers
    themselves.  The order of the b after the first is unspecified.

    A child b * p**2 with p**3 > x // b is a leaf: no higher power of p
    and no larger prime fits below x.  With ``leaves`` given, such
    children are not visited; ``leaves(b, k(b), primes of b, ps)`` is
    called instead, once per b that has any, with the ascending list ps
    of their p, and its value is added in their place.
    """
    if x < 1:
        return 0
    primes = primes_up_to(math.isqrt(x))
    path: list[int] = []

    def extend(b: int, k: int, j: int) -> int:
        # the sum over the b * p**e * ..., e >= 2, with p = primes[i], i >= j
        total, rest = 0, x // b
        for i in range(j, len(primes)):
            p = primes[i]
            if p * p > rest:
                break
            if leaves is not None and p * p * p > rest:
                total += leaves(b, k, path, primes[i : bisect_right(primes, math.isqrt(rest), i)])
                break
            c, kp = b * p * p, k * p
            deeper = x // primes[i + 1] ** 2 if i + 1 < len(primes) else 0  # c has children while c <= deeper
            path.append(p)
            while c <= x:
                total += visit(c, kp, path)
                if c <= deeper:
                    total += extend(c, kp, i + 1)
                c *= p
            path.pop()
        return total

    return visit(1, 1, path) + extend(1, 1, 0)


def squarefree_flags(y: int) -> bytearray:
    """Byte a is 1 exactly when a is squarefree, 0 <= a <= y (0 is not), by a plain byte sieve."""
    flags = bytearray([1]) * (y + 1)
    flags[0] = 0
    for p in primes_up_to(math.isqrt(y)):
        flags[p * p :: p * p] = bytes(len(range(p * p, y + 1, p * p)))
    return flags


def flat_ranges(start: np.ndarray, count: np.ndarray, block: int):
    """Yield int64 ``(owner, index)`` arrays: i, start[i] + j for each 0 <= j < count[i], owner-major.

    Each block holds at most ``block`` entries, and may end inside the
    run of one owner.
    """
    import numpy as np

    ends = np.cumsum(count)
    shift = start + count - ends  # index less flat position, per owner
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, block):
        hi = min(lo + block, total)
        i, j = np.searchsorted(ends, (lo, hi - 1), side="right")  # the owners of the block's first and last entries
        runs = np.minimum(ends[i : j + 1], hi) - np.maximum(ends[i : j + 1] - count[i : j + 1], lo)
        owner = np.repeat(np.arange(i, j + 1), runs)
        yield owner, np.arange(lo, hi) + shift[owner]


def _blocks(first: int, last: int, width: int):
    """[lo, hi] blocks of at most width integers covering [first, last], ascending."""
    return ((lo, min(lo + width - 1, last)) for lo in range(first, last + 1, width))


class KernelClass(NamedTuple):
    """A class of m given by a bound on k(m): ``interval(top)(b, k(b))`` is the [lo, hi] of the a with a*b <= top a member.

    ``member(m, k(m))`` is the exact test; with ``bulk`` a count adds in bulk the leaves b*p**2 of its walk, whose
    interval is b's capped at x // (b*p**2); ``visits(x)`` prices a count up to x, 0 with no walk; ``param`` is the
    ``(name, value)`` that its count and probe reports print.
    """

    interval: Callable[[int], Callable[[int, int], tuple[int, int]]]
    member: Callable[[int, int], bool]
    bulk: bool
    visits: Callable[[int], float]
    param: tuple[str, object]


def quality(c: int | Fraction) -> KernelClass:
    """The class of 2 <= m with k(m)**2 <= c*m, exact for an int or a ``Fraction`` c: with m = a*b, a <= c*b // k(b)**2.

    For an int c, ``member`` also decides int64 arrays while c*m fits.
    """
    return KernelClass(
        lambda top: lambda b, k: (2 if b == 1 else 1, min(top // b, c * b // (k * k))),
        lambda m, k: (m > 1) & (k * k <= c * m), True, lambda x: BULK_VISITS * x**BULK_EXPONENT, ("quality", c),
    )


def kernel_bounded(
    top: int, interval: Callable[[int, int], tuple[int, int]], admit=None
) -> tuple[np.ndarray, np.ndarray]:
    """``(ms, ks)``: every m = a*b <= top with a in ``interval(b, k(b))``, ascending, and ks[i] = k(ms[i]).

    Every m is uniquely a*b with b powerful, a squarefree and gcd(a, b) =
    1, and then k(m) = a*k(b).  For each powerful b <= top,
    ``interval(b, k(b))`` gives the a it admits as [lo, hi], lo >= 1,
    clamped here to hi <= top // b and empty when hi < lo; the members
    are the squarefree a coprime to b in it: a run of one squarefree
    list, filtered by gcd(a, k(b)) == 1.  So ``quality(c).interval(top)``
    gives every m with k(m)**2 <= c*m.  No kernel table is built.  The walk over
    the < POWERFUL_DENSITY * sqrt(top) powerful b (``powerful_sum``) comes
    first; ``admit(bound)``, when given, is called with the running sum of
    the interval widths during the walk, each time that sum has doubled,
    and then with the whole sum, a bound >= len(ms), before the squarefree
    list or any member exists.  The sum only grows, so a caller can refuse
    a set too large by raising as soon as the walk has seen enough of it.
    Raises ValueError past ``BOUNDED_INT64_LIMIT``.
    """
    import numpy as np

    if top > BOUNDED_INT64_LIMIT:
        raise ValueError(f"bounded kernels are exact in int64 up to {BOUNDED_INT64_LIMIT}, got {top}")
    walk = []
    bound, due = 0, 1  # the widths so far (the walk's own sum is unused), and the sum at which admit is next called

    def visit(b: int, k: int, _) -> int:
        nonlocal bound, due
        lo, hi = interval(b, k)
        hi = min(hi, top // b)
        if hi < lo:
            return 0
        walk.append((b, k, lo, hi))
        bound += hi - lo + 1
        if bound >= due and admit is not None:
            admit(bound)
            due = 2 * bound
        return 0

    powerful_sum(top, visit)
    if admit is not None:
        admit(bound)
    none = np.zeros(0, dtype=np.int64)
    if not walk:
        return none, none
    bs, kbs, a_lo, a_hi = (np.array(col, dtype=np.int64) for col in zip(*walk))
    squarefree = np.flatnonzero(np.frombuffer(squarefree_flags(int(a_hi.max())), np.bool_))
    first = np.searchsorted(squarefree, a_lo)  # the squarefree a in [lo, hi], before the coprime filter
    counts = np.searchsorted(squarefree, a_hi, side="right") - first
    blocks = [(none, none)]  # the intervals may hold no squarefree a
    for row, at in flat_ranges(first, counts, BLOCK):
        a, kb = squarefree[at], kbs[row]
        coprime = np.gcd(a, kb) == 1
        blocks.append(((a * bs[row])[coprime], (a * kb)[coprime]))
        del row, at, a, kb, coprime  # before the next block is built
    ms, ks = (np.concatenate(col) for col in zip(*blocks))
    del blocks  # before the sort's temporaries
    order = np.argsort(ms)
    return ms[order], ks[order]


class RadicalTable:
    """Kernel values for every m in [1, limit].

    ``values`` is a numpy array of length limit + 1 with values[m] = k(m)
    for 1 <= m <= limit (index 0 is unused and holds 0).  The dtype is
    the narrowest signed integer that holds the limit itself, since
    k(m) <= m.
    """

    __slots__ = ("limit", "values")

    def __init__(self, limit: int, values: np.ndarray):
        self.limit = limit
        self.values = values

    def __getitem__(self, m: int) -> int:
        if not 1 <= m <= self.limit:
            raise IndexError(f"m={m} outside table range [1, {self.limit}]")
        return int(self.values[m])


def _radical_segment(lo: int, hi: int, primes: list[int], dtype) -> np.ndarray:
    """Kernels for [lo, hi] given all primes up to sqrt(hi)."""
    import numpy as np  # only the sieve vectorizes; factoring runs without it

    n = hi - lo + 1
    rad = np.ones(n, dtype=dtype)
    rem = np.arange(lo, hi + 1, dtype=dtype)
    for p in primes:
        start = ((lo + p - 1) // p) * p
        if start > hi:
            continue
        rad[start - lo :: p] *= p
        # strip the full p-power content: multiples of p^e get divided
        # once at each power level, removing p^e overall
        pe = p
        while pe <= hi:
            s = ((lo + pe - 1) // pe) * pe
            if s <= hi:
                rem[s - lo :: pe] //= p
            pe *= p
    big = rem > 1  # single leftover prime factor > sqrt(hi)
    rad[big] *= rem[big]
    return rad


def radical_sieve(x: int) -> RadicalTable:
    """Build the kernel table for [1, x], one segment of ``BLOCK`` entries at a time.

    The table holds x + 1 entries of the narrowest signed integer type
    that fits x; besides it and the primes up to sqrt(x), the sieve holds
    one segment's two int arrays.  ``BLOCK`` is read at call time; a table
    over the memory budget raises ValueError before any allocation.
    """
    import numpy as np

    if x < 1:
        raise ValueError(f"sieve limit must be >= 1, got {x}")
    check_budget(f"sieving up to x={x}", 0, SIEVE_ENTRY_BYTES * x)
    dtype = np.int32 if x <= np.iinfo(np.int32).max else np.int64
    small_primes = primes_up_to(math.isqrt(x))
    values = np.zeros(x + 1, dtype=dtype)
    for lo, hi in _blocks(1, x, BLOCK):
        values[lo : hi + 1] = _radical_segment(lo, hi, small_primes, dtype)
    return RadicalTable(x, values)
