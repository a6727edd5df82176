"""Per-visit references for the counters over the powerful numbers.

``powerful_numbers`` yields every powerful b <= x with its kernel and
primes, one tuple per b, and ``theta_count`` / ``log_weighted_count``
visit each b and add the squarefree count of its interval of a, with the
recursion of ``coprime_squarefree`` over a plain prefix table.  They
share with the library only ``primes_up_to`` and the class rules
themselves, each b's interval of a from the ``interval`` of the theta
and log-weighted class values, not the walk, the small-count table, the
bulk leaves or the squarefree counts.
"""

import math
from array import array
from itertools import accumulate

from kernsplit.kernel import primes_up_to
from kernsplit.powered import Theta, _log_weighted_class, _theta_class


def powerful_numbers(x: int):
    """Yield ``(b, k(b), primes of b)`` for every powerful b <= x, b = 1 first."""
    if x < 1:
        return
    primes = primes_up_to(math.isqrt(x))
    yield 1, 1, ()
    stack = [(1, 1, (), 0)]  # (b, k(b), primes of b, index of the next prime to try)
    while stack:
        b, k, ps, j = stack[-1]
        if j == len(primes) or b * primes[j] ** 2 > x:
            stack.pop()
            continue
        stack[-1] = (b, k, ps, j + 1)
        p = primes[j]
        kp, qs, c = k * p, ps + (p,), b * p * p
        while c <= x:
            yield c, kp, qs
            stack.append((c, kp, qs, j + 1))
            c *= p


def squarefree_prefix(y: int) -> array:
    """table[n] = the number of squarefree a <= n, for 0 <= n <= y, 4 bytes an entry."""
    flags = bytearray([1]) * (y + 1)
    flags[0] = 0
    for d in range(2, math.isqrt(y) + 1):
        flags[d * d :: d * d] = bytes(len(range(d * d, y + 1, d * d)))
    return array("i", accumulate(flags))


def coprime_squarefree(y: int, primes: tuple[int, ...], table: array) -> int:
    """The squarefree a <= y coprime to every prime of primes (ascending)."""
    if not primes or y < primes[0]:
        return table[y]
    p, rest = primes[-1], primes[:-1]
    total, sign = 0, 1
    while y:
        total += sign * coprime_squarefree(y, rest, table)
        y //= p
        sign = -sign
    return total


def interval_count(x: int, interval) -> int:
    """The m = a*b <= x with a in ``interval(b, k(b))``: each powerful b adds the squarefree a coprime to b in it."""
    table = squarefree_prefix(x)
    total = 0
    for b, k, primes in powerful_numbers(x):
        first, end = interval(b, k)
        if end >= first:
            total += coprime_squarefree(end, primes, table) - coprime_squarefree(first - 1, primes, table)
    return total


def theta_count(x: int, theta: Theta) -> int:
    """1 <= m <= x with k(m)**q <= m**p: each powerful b adds the a <= min(x // b, its root bound)."""
    return x if theta.p == theta.q else interval_count(x, _theta_class(theta).interval(x))


def log_weighted_count(x: int, gamma: float) -> int:
    """2 <= m <= x with k(m)**2 <= m * ln(m)**(2*gamma): each powerful b adds its interval [L_b, R_b] of a."""
    return interval_count(x, _log_weighted_class(gamma).interval(x))
