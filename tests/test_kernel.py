"""Factorization and kernel tests.

Expected values come from independent oracles: a naive primality check
plus a distinct-prime product loop that shares no code with the
implementation.
"""

import math
import re
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kernsplit.kernel
from kernsplit.kernel import (
    FACTOR_LIMIT,
    POWERFUL_DENSITY,
    check_budget,
    factorize,
    flat_ranges,
    kernel_bounded,
    powerful_sum,
    primes_up_to,
    radical,
    radical_sieve,
    squarefree_flags,
)


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, n))


def naive_radical(m: int) -> int:
    """Product of the naive primes dividing m; brute force on purpose."""
    r = 1
    for p in range(2, m + 1):
        if m % p == 0 and naive_is_prime(p):
            r *= p
    return r


def test_factorize_one_is_empty():
    assert factorize(1).factors == ()
    assert factorize(1).radical() == 1


def test_factorize_examples():
    assert factorize(12).factors == ((2, 2), (3, 1))
    assert naive_is_prime(97)
    assert factorize(97).factors == ((97, 1),)


def test_factorize_reconstructs_and_orders():
    for m in range(1, 2001):
        fac = factorize(m)
        prod = 1
        for p, e in fac.factors:
            assert naive_is_prime(p)
            assert e >= 1
            prod *= p**e
        assert prod == m
        primes = [p for p, _ in fac.factors]
        assert primes == sorted(primes)


def naive_factors(m: int) -> tuple[tuple[int, int], ...]:
    """(p, e) of m by trial division by every d >= 2; shares no code with ``factorize``."""
    factors, d = [], 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            factors.append((d, e))
        d += 1
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=10**7))
def test_factorize_matches_naive_trial_division(m):
    assert factorize(m).factors == naive_factors(m)


# primes near 1e6, so the wheel runs to its end
PRIMES_NEAR_1E6 = (999961, 999979, 999983, 1000003)


@pytest.mark.parametrize(
    "m",
    [999999999989, 999983**2, 2**39, 3**25, 6**15, 7**14, 997**4]
    + [p * q for p in PRIMES_NEAR_1E6 for q in PRIMES_NEAR_1E6 if p * q <= 10**12]
    + [6 * p for p in PRIMES_NEAR_1E6],
)
def test_factorize_large_inputs_match_naive(m):
    assert factorize(m).factors == naive_factors(m)


def test_factorize_rejects_zero_and_negative():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-6)


def test_factorize_refuses_past_the_size_bound():
    assert factorize(FACTOR_LIMIT).radical() == 10
    message = "1000000000001 is too large to factor by trial division (limit 1000000000000)"
    for oversized in (factorize, radical):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            oversized(10**12 + 1)


def test_radical_examples():
    assert radical(1) == 1
    assert radical(64) == 2
    assert radical(360) == 30


def test_radical_against_naive_oracle():
    for m in range(1, 301):
        assert radical(m) == naive_radical(m)


@given(
    st.integers(min_value=1, max_value=10_000),
    st.integers(min_value=1, max_value=10_000),
)
def test_radical_multiplicative_on_coprime_parts(u, v):
    from math import gcd

    if gcd(u, v) == 1:
        assert radical(u * v) == radical(u) * radical(v)


def test_radical_divides_squarefree_idempotent():
    for m in list(range(1, 500)) + [720, 1024, 9699690]:
        r = radical(m)
        assert m % r == 0
        assert all(e == 1 for _, e in factorize(r).factors)
        assert radical(r) == r


def test_radical_ignores_multiplicity():
    for m in range(1, 1001):
        r = radical(m)
        for exp in (1, 2, 3):
            assert radical(m**exp) == r


def test_primes_up_to():
    assert primes_up_to(1) == []
    assert primes_up_to(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_sieve_small_table():
    table = radical_sieve(10)
    assert [table[m] for m in range(1, 11)] == [1, 2, 3, 2, 5, 6, 7, 2, 3, 10]


def test_sieve_single_entry():
    table = radical_sieve(1)
    assert table[1] == 1
    assert table.limit == 1


def test_sieve_spot_value():
    assert radical_sieve(100)[72] == 6


def test_sieve_matches_single_shot_to_1e5():
    table = radical_sieve(100_000)
    for m in range(1, 100_001):
        assert table.values[m] == radical(m), m


def test_sieve_segmentation_is_invisible(monkeypatch):
    base = radical_sieve(10_000)
    sieve_segment = kernsplit.kernel._radical_segment
    segments = []

    def counted(lo, hi, *args):
        segments.append((lo, hi))
        return sieve_segment(lo, hi, *args)

    monkeypatch.setattr(kernsplit.kernel, "_radical_segment", counted)
    for seg in (1, 7, 997, 4096):
        segments.clear()
        monkeypatch.setattr(kernsplit.kernel, "BLOCK", seg)
        assert np.array_equal(base.values, radical_sieve(10_000).values)
        assert len(segments) == -(-10_000 // seg)  # read at call time
        assert max(hi - lo + 1 for lo, hi in segments) == min(seg, 10_000)


def test_sieve_rejects_bad_limits(monkeypatch):
    with pytest.raises(ValueError):
        radical_sieve(0)

    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    # the memory budget admits an int32 table of 1 GiB, 2**28 entries, and no larger one
    with monkeypatch.context() as mp:
        mp.setattr(kernsplit.kernel, "primes_up_to", admitted)
        with pytest.raises(Admitted):
            radical_sieve(2**28)
        for x in (2**28 + 1, 2**30, 2**62):
            with pytest.raises(ValueError, match=re.escape(f"sieving up to x={x} implies ~0 s and ~")):
                radical_sieve(x)
    monkeypatch.setattr(kernsplit.kernel, "MEMORY_LIMIT", 4000)
    radical_sieve(1000)  # the budget is read at call time, and inclusive
    with pytest.raises(ValueError, match="sieving up to x=1001"):
        radical_sieve(1001)


@pytest.mark.parametrize(
    ("seconds", "nbytes", "force"),
    [(math.nan, 0, None), (0, math.nan, None), (0, math.nan, True)],
    ids=["nan-seconds", "nan-bytes", "nan-bytes-forced"],
)
def test_budget_refuses_a_nan_price(seconds, nbytes, force):
    # a NaN compares False with every limit: a price that is not a number is refused, not admitted as free
    with pytest.raises(ValueError, match="~nan"):
        check_budget("w", seconds, nbytes, force=force)


def test_table_bounds_checked():
    table = radical_sieve(10)
    with pytest.raises(IndexError):
        table[0]
    with pytest.raises(IndexError):
        table[11]
    with pytest.raises(IndexError):
        table[-3]


def walked(x: int, leaves: bool = False) -> tuple[list, list]:
    """The visits ``(b, k, primes)`` of one walk up to x, and the leaf groups ``(b, k, primes, ps)``."""
    visits, groups = [], []

    def visit(b, k, primes):
        visits.append((b, k, tuple(primes)))
        return 1

    def leaf(b, k, primes, ps):
        groups.append((b, k, tuple(primes), list(ps)))
        return len(ps)

    total = powerful_sum(x, visit, leaf if leaves else None)
    assert total == len(visits) + sum(len(g[3]) for g in groups)
    return visits, groups


def naive_powerful(x: int) -> set[int]:
    return {
        m
        for m in range(1, x + 1)
        if all(m % (p * p) == 0 for p in range(2, m + 1) if m % p == 0 and naive_is_prime(p))
    }


def test_powerful_numbers_against_naive_oracle():
    x = 3000
    visits, groups = walked(x)
    assert visits[0] == (1, 1, ()) and not groups
    assert sorted(b for b, _, _ in visits) == sorted(naive_powerful(x))  # each b exactly once
    for b, k, primes in visits:
        assert k == naive_radical(b)
        assert list(primes) == sorted(p for p in range(2, b + 1) if b % p == 0 and naive_is_prime(p))


@pytest.mark.parametrize("x", [1, 8, 100, 3000, 3375, 3376])
def test_powerful_sum_hands_over_the_leaves(x):
    # every b is visited or handed over as a leaf b' * p**2 of a visited b', never both
    visits, groups = walked(x, leaves=True)
    assert visits[0] == (1, 1, ())
    leaves = [(b * p * p, k * p, (*primes, p)) for b, k, primes, ps in groups for p in ps]
    assert sorted(visits + leaves) == sorted(walked(x)[0])
    for b, _, _, ps in groups:
        assert ps == sorted(ps) and all(p**3 > x // b >= p * p for p in ps)
        assert (b, naive_radical(b)) in {(v[0], v[1]) for v in visits}


@pytest.mark.parametrize(("x", "count"), [(1, 1), (3, 1), (4, 2), (8, 3), (9, 4), (10**6, 2027)])
def test_powerful_numbers_counts(x, count):
    # OEIS A118896: 2027 powerful numbers up to 1e6
    assert powerful_sum(x, lambda b, k, primes: 1) == count
    assert powerful_sum(0, lambda b, k, primes: 1) == 0


@pytest.mark.parametrize(("x", "count"), [(10**3, 54), (10**6, 2027), (10**9, 67231)])
def test_powerful_density_bounds_the_walk(x, count):
    # zeta(3/2)/zeta(3) * sqrt(x) plus a negative x**(1/3) term: what the scan and count budgets charge
    assert powerful_sum(x, lambda *a: 1) == count < POWERFUL_DENSITY * math.sqrt(x)


@cache
def kernels_to(x: int) -> np.ndarray:
    return radical_sieve(x).values.astype(np.int64)


def quality_at_most(c: int):
    """The interval of a, per powerful b, that gives the m with k(m)**2 <= c*m."""
    return lambda b, k: (1, c * b // (k * k))


def sieved_bounded(top: int, c: int) -> np.ndarray:
    """The m in [1, top] with k(m)**2 <= c*m, from the sieve's table."""
    values = kernels_to(top)
    ms = np.flatnonzero(values * values <= c * np.arange(top + 1, dtype=np.int64))
    return ms[ms >= 1]


def sieved_in_intervals(top: int, interval) -> list[int]:
    """The m in [1, top] whose squarefree part a lies in interval(b, k(b)), b = m // a, from the sieve's table."""
    values = kernels_to(top)
    out = []
    for m in range(1, top + 1):
        k = int(values[m])
        kb = int(values[m // k])  # m // k(m) has exactly the primes of m's powerful part
        a = k // kb
        lo, hi = interval(m // a, kb)
        out += [m] if lo <= a <= hi else []
    return out


@pytest.mark.parametrize(("x", "parts"), [(10**4, 1003), (10**5, 4355), (10**6, 18411)])
def test_kernel_bounded_against_the_sieve(x, parts):
    ms, ks = kernel_bounded(x, quality_at_most(21))
    assert np.array_equal(ms, sieved_bounded(x, 21))
    assert np.array_equal(ks, kernels_to(x)[ms])
    assert len(ms) - 1 == parts  # m = 1, then the oracle's candidate parts


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=3000), st.integers(min_value=0, max_value=4000))
def test_kernel_bounded_any_bound(top, c):
    # c = 0 admits nothing, c >= top every m
    ms, ks = kernel_bounded(top, quality_at_most(c))
    if top == 0:
        assert len(ms) == len(ks) == 0
        return
    assert np.array_equal(ms, sieved_bounded(top, c))
    assert np.array_equal(ks, kernels_to(top)[ms])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=3000),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=-3, max_value=3000),
    st.integers(min_value=0, max_value=3),
)
def test_kernel_bounded_any_interval(top, lo, width, grow):
    # lower ends above 1, intervals past top // b, empty ones, and runs with no squarefree a
    def interval(b, k):
        start = lo + (b % 7) * grow
        return start, start + width

    ms, ks = kernel_bounded(top, interval)
    assert ms.tolist() == sieved_in_intervals(top, interval)
    assert np.array_equal(ks, kernels_to(top)[ms])


def test_kernel_bounded_emit_blocks_are_invisible(monkeypatch):
    expected = [kernel_bounded(5000, quality_at_most(c)) for c in (21, 5000)]
    for block in (1, 7, 4096):
        monkeypatch.setattr(kernsplit.kernel, "BLOCK", block)
        for (ms, ks), c in zip(expected, (21, 5000)):
            got_ms, got_ks = kernel_bounded(5000, quality_at_most(c))
            assert np.array_equal(got_ms, ms) and np.array_equal(got_ks, ks)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=40)), max_size=12),
    st.sampled_from([1, 2, 7, 2**20]),
    st.integers(min_value=0, max_value=300),
)
def test_flat_ranges_expand_every_run(runs, block, long):
    # zero counts, no runs at all, and a run longer than a block
    runs = [*runs, (5, long)]
    start, count = (np.array(col, dtype=np.int64).reshape(-1) for col in zip(*runs))
    blocks = list(flat_ranges(start, count, block))
    assert all(0 < len(owner) == len(index) <= block for owner, index in blocks)
    assert all(owner.dtype == index.dtype == np.int64 for owner, index in blocks)
    owners = np.concatenate([owner for owner, _ in blocks]) if blocks else np.zeros(0, dtype=np.int64)
    assert all(owners[1:] >= owners[:-1])
    got = [(int(i), int(j)) for owner, index in blocks for i, j in zip(owner, index)]
    assert got == [(i, s + j) for i, (s, c) in enumerate(runs) for j in range(c)]
    assert list(flat_ranges(start[:0], count[:0], block)) == []


def test_squarefree_flags_by_definition():
    # no p**2 divides a, read off its factorization; y at and next to the squares of primes
    want = bytearray([0]) + bytearray(all(e == 1 for _, e in factorize(a).factors) for a in range(1, 5001))
    for y in (0, 1, 2, 3, 4, 8, 9, 10, 24, 25, 48, 49, 120, 121, 4899, 4900, 4901, 5000):
        assert squarefree_flags(y) == want[: y + 1]


def refuse(*args, **kwargs):
    raise AssertionError("ran past the check")


def test_kernel_bounded_admits_before_emitting(monkeypatch):
    bounds = []
    ms, _ = kernel_bounded(10**5, quality_at_most(21), bounds.append)
    # during the walk at each doubling of the running sum of widths, then the whole sum
    assert bounds[-1] >= len(ms) and len(bounds) > 2
    assert all(2 * a <= b for a, b in zip(bounds, bounds[1:-1])) and bounds[-2] <= bounds[-1]

    def stop(bound):
        raise ValueError(f"refused at {bound}")

    monkeypatch.setattr(kernsplit.kernel, "squarefree_flags", refuse)
    with pytest.raises(ValueError, match=f"refused at {bounds[0]}"):
        kernel_bounded(10**5, quality_at_most(21), stop)


def test_kernel_bounded_int64_bound(monkeypatch):
    limit = kernsplit.kernel.BOUNDED_INT64_LIMIT
    assert limit == np.iinfo(np.int64).max  # m = a*b and a*k(b) are at most top
    monkeypatch.setattr(kernsplit.kernel, "powerful_sum", refuse)
    with pytest.raises(ValueError, match=f"exact in int64 up to {limit}, got {limit + 1}"):
        kernel_bounded(limit + 1, quality_at_most(1))
