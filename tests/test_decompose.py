"""Constructive decomposition tests.

The exponent examples are cross-checked by a brute-force search over
all candidate exponents, and the witness relations are replayed against
first-principles integer arithmetic in the tests themselves.
"""

import math

import pytest
from hypothesis import given, strategies as st

from kernsplit import decompose
from kernsplit.decompose import (
    Decomposition,
    SplitWitness,
    _block_violations,
    _exponent_blocks,
    choose_exponents,
    solve_diophantine,
    split,
    split_parts,
    verify_exact,
    verify_range,
    verify_structural,
)


def brute_force_exponents(n: int) -> tuple[list[int], list[int]]:
    """All a (resp. b) in [1, 80] satisfying the defining inequalities."""
    a_hits = [
        a
        for a in range(1, 81)
        if 27 * 2 ** (4 * a) < 16 * n * n <= 27 * 2 ** (4 * a + 4)
    ]
    b_hits = [
        b
        for b in range(1, 81)
        if 16 * 3 ** (4 * b) < 27 * n * n <= 16 * 3 ** (4 * b + 4)
    ]
    return a_hits, b_hits


class TestChooseExponents:
    def test_examples(self):
        assert choose_exponents(100) == (3, 2)
        assert choose_exponents(7) == (1, 1)

    def test_matches_brute_force_and_unique(self):
        for n in list(range(7, 500)) + [10**6, 10**9, 10**12]:
            a_hits, b_hits = brute_force_exponents(n)
            assert len(a_hits) == 1 and len(b_hits) == 1, n
            assert choose_exponents(n) == (a_hits[0], b_hits[0])

    def test_matches_plain_loops_at_block_edges(self):
        # the searches start at bit-length lower bounds; counted up from 1 they give the same (a, b)
        def plain_exponents(n: int) -> tuple[int, int]:
            a = b = 1
            while 27 * 2 ** (4 * a + 4) < 16 * n * n:
                a += 1
            while 16 * 3 ** (4 * b + 4) < 27 * n * n:
                b += 1
            return a, b

        # every edge of an exponent block up to past 1e60, and every 2**k
        edges = [math.isqrt(27 << (4 * a)) for a in range(1, 101)]
        edges += [math.isqrt(16 * 3 ** (4 * b + 1)) for b in range(1, 64)]
        edges += [2**k for k in range(3, 200)]
        for n in sorted({n + d for n in edges for d in range(-3, 4)} - set(range(7))):
            assert choose_exponents(n) == plain_exponents(n), n

    def test_rejects_small_n(self):
        for n in (0, 1, 4, 6):
            with pytest.raises(ValueError):
                choose_exponents(n)

    def test_boundaries_never_hit_equality(self):
        # 27 * 2**(4a+4) = 16 n**2 would force n**2 to be an odd power
        # of 3 times a square, impossible; same on the 3-side
        for n in range(7, 20_000):
            a, b = choose_exponents(n)
            assert 16 * n * n != 27 * 2 ** (4 * a + 4)
            assert 27 * n * n != 16 * 3 ** (4 * b + 4)


class TestSolveDiophantine:
    def test_examples(self):
        assert solve_diophantine(12, 3, 2) == (3, 4)
        assert solve_diophantine(3, 1, 1) == (0, 1)
        # residue 0 maps to w = 2**a
        assert solve_diophantine(2, 1, 1) == (2, 2)

    @given(
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=0, max_value=10**6),
    )
    def test_identity_and_range(self, a, b, offset):
        V = (1 << a) + offset % (1 << a)  # any V in [2**a, 2**(a+1))
        W, w = solve_diophantine(V, a, b)
        assert 1 <= w <= 1 << a
        assert V == -(1 << a) * W + 3**b * w


class TestSplit:
    def test_worked_examples(self):
        d = split(100)
        assert (d.m1, d.m2) == (64, 36)
        assert d.witness == SplitWitness(a=3, b=2, U=11, V=12, W=3, w=4)

        d7 = split(7)
        assert (d7.m1, d7.m2) == (4, 3)
        assert d7.witness == SplitWitness(a=1, b=1, U=2, V=3, W=0, w=1)

        d12 = split(12)
        assert (d12.m1, d12.m2) == (6, 6)
        assert d12.witness == SplitWitness(a=1, b=1, U=5, V=2, W=2, w=2)

    def test_small_n_fallback(self):
        for n in (4, 5, 6):
            d = split(n)
            assert d.witness is None
            assert (d.m1, d.m2) == (2, n - 2)
        assert split(5).m2 == 3

    def test_rejects_below_four(self):
        for n in (3, 2, 1, 0, -5):
            with pytest.raises(ValueError):
                split(n)

    def test_round_trip_small_range(self):
        for n in range(4, 10_001):
            d = split(n)
            assert d.m1 + d.m2 == n
            assert d.m1 >= 2 and d.m2 >= 2
            if d.witness is None:
                assert verify_exact(d)
            else:
                assert verify_structural(d).ok

    def test_remainder_and_part_ranges(self):
        for n in range(7, 10_001):
            d = split(n)
            wit = d.witness
            pa, pb = 1 << wit.a, 3**wit.b
            assert pa <= wit.V < 2 * pa
            assert pb <= d.m2 <= pa * pb < n
            assert d.m1 >= pa

    def test_negative_W_is_legitimate(self):
        # w = 1 with 3**b < V forces W = -1; the construction and both
        # verifiers must accept it
        d = split(1339)
        assert d.witness.W == -1
        assert verify_structural(d).ok
        assert verify_exact(d)

    @given(st.integers(min_value=7, max_value=10**18))
    def test_round_trip_large_n(self, n):
        d = split(n)
        assert d.m1 + d.m2 == n
        assert verify_structural(d).ok


class TestVerifyStructural:
    def test_accepts_genuine_witnesses(self):
        assert verify_structural(split(100)).ok
        assert verify_structural(split(7)).ok

    def test_requires_witness(self):
        with pytest.raises(ValueError):
            verify_structural(split(5))

    def _tampered(self, d, **changes):
        return d._replace(witness=d.witness._replace(**changes))

    def test_tampered_w_breaks_linear_identity(self):
        d = split(100)
        res = verify_structural(self._tampered(d, w=d.witness.w + 1))
        assert not res.ok
        assert not res  # falsy, for callers that filter with `not verify_structural(d)`
        assert res.reason == "linear_identity"

    def test_reason_codes(self):
        d = split(100)
        assert verify_structural(self._tampered(d, a=d.witness.a + 1)).reason == "a_range"
        assert verify_structural(self._tampered(d, b=d.witness.b + 1)).reason == "b_range"
        assert verify_structural(self._tampered(d, U=d.witness.U + 1)).reason == "quotient"
        assert verify_structural(self._tampered(d, V=d.witness.V + 8)).reason == "remainder"
        assert verify_structural(self._tampered(d, W=d.witness.W + 1)).reason == "linear_identity"
        assert (
            verify_structural(d._replace(m1=d.m1 + 1)).reason
            == "part1_value"
        )
        assert (
            verify_structural(d._replace(m2=d.m2 + 9)).reason
            == "part2_value"
        )

    def test_w_out_of_range(self):
        d = split(100)
        wit = d.witness
        # keep the linear identity intact while pushing w past 2**a
        bad = d._replace(witness=wit._replace(w=wit.w + (1 << wit.a), W=wit.W + 3**wit.b))
        res = verify_structural(bad)
        assert not res.ok
        assert res.reason == "w_range"

    def test_negative_n_fails_part2_range_first(self):
        # a_range and b_range read n**2 alone, so a witness of n = -100 (100's a, b and w, and its own
        # U, V, W) passes every check before part2_range, which alone asks pa * pb < n
        d = Decomposition(-100, -136, 36, SplitWitness(3, 2, -14, 12, 3, 4))
        assert verify_structural(d) == (False, "part2_range")
        assert verify_structural(split(100)).ok and split(100).witness[:2] == d.witness[:2]


class TestVerifyExact:
    def test_construction_verifies(self):
        assert verify_exact(split(100))
        assert verify_exact(Decomposition(4, 2, 2))

    def test_arbitrary_valid_pair(self):
        # (3, 7) was never produced by split but satisfies every bound
        assert verify_exact(Decomposition(10, 3, 7))

    def test_rejects_part_below_two(self):
        assert not verify_exact(Decomposition(20, 1, 19))

    def test_rejects_wrong_sum(self):
        assert not verify_exact(Decomposition(10, 4, 5))

    def test_rejects_kernel_violation(self):
        # 2310 = 2*3*5*7*11 is squarefree: k**4 = 2310**4 > 432 * 2310**2
        assert not verify_exact(Decomposition(2314, 4, 2310))


class TestVerifyRange:
    def test_clean_range(self):
        report = verify_range(4, 2000)
        assert report.checked == 1997
        assert report.violations == ()

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            verify_range(3, 10)
        with pytest.raises(ValueError):
            verify_range(10, 4)


def scalar_violations(n_lo, n_hi):
    """The per-n reference loop: split, then verify_structural or verify_exact."""
    out = []
    for n in range(n_lo, n_hi + 1):
        d = split(n)
        if d.witness is None:
            if not verify_exact(d):
                out.append((n, "exact"))
        else:
            res = verify_structural(d)
            if not res.ok:
                out.append((n, res.reason))
    return out


# the upper end of every exponent block up to 1e40
BLOCK_EDGES = [hi for _, hi, _, _ in _exponent_blocks(7, 10**40)]

# the kernel bound tightened step by step, so that there are failures to compare
BOUNDS = (432, 400, 300, 100, 20)

# window starts: anywhere below 1e15, next to a block edge, next to 2**58,
# where 32 * n stops fitting in int64, or anywhere in [1e30, 1e40]
starts = st.one_of(
    st.integers(min_value=4, max_value=10**15),
    st.builds(lambda e, d: max(4, e + d), st.sampled_from(BLOCK_EDGES), st.integers(-300, 300)),
    st.integers(min_value=2**58 - 300, max_value=2**58 + 300),
    st.integers(min_value=10**30, max_value=10**40),
)


class TestExponentBlocks:
    def test_blocks_agree_with_choose_exponents_at_both_ends(self):
        # what the class path takes for granted in a block: both exponent
        # ranges hold at both ends, and pa * pb < n for every n in it
        prev_hi = 6
        for lo, hi, a, b in _exponent_blocks(7, 10**40):
            assert lo == prev_hi + 1
            assert choose_exponents(lo) == (a, b) == choose_exponents(hi)
            assert brute_force_exponents(lo) == brute_force_exponents(hi) == ([a], [b])
            if hi < 10**40:
                assert choose_exponents(hi + 1) != (a, b)
            assert (1 << a) * 3**b < lo
            prev_hi = hi
        assert prev_hi == 10**40

    @given(st.integers(min_value=7, max_value=10**15), st.integers(min_value=0, max_value=10**6))
    def test_windows_tile(self, lo, length):
        blocks = list(_exponent_blocks(lo, lo + length))
        assert blocks[0][0] == lo and blocks[-1][1] == lo + length
        for (_, hi, _, _), (nxt, _, _, _) in zip(blocks, blocks[1:]):
            assert nxt == hi + 1


def scalar_parts(n_lo, n_hi):
    """The per-n reference for split_parts: the parts of split(n) for every n in [n_lo, n_hi]."""
    ds = [split(n) for n in range(n_lo, n_hi + 1)]
    return [d.m1 for d in ds], [d.m2 for d in ds]


class TestBlockPath:
    """The per-block paths against the per-n loop: verify_range, which
    checks whole residue classes, and split_parts."""

    def test_witnesses_at_block_edges_and_landmarks(self):
        # windows across every block edge, past 2**62 as below it: Python integers are exact at any n
        for _, edge, _, _ in _exponent_blocks(7, 10**40):
            lo, hi = max(4, edge - 3), edge + 3
            assert split_parts(lo, hi) == scalar_parts(lo, hi), edge
        for n in (4, 5, 6, 7, 1339, 2**62 - 1, 2**62, 2**63, 2**64 + 1):
            assert split_parts(n, n) == scalar_parts(n, n), n

    @given(
        st.one_of(
            st.integers(min_value=4, max_value=10**15),
            st.integers(min_value=2**62 - 10**15, max_value=2**62 + 10**15),
            st.integers(min_value=4, max_value=10**40),
        ),
        st.integers(min_value=0, max_value=300),
    )
    def test_witnesses_match_split_on_windows(self, lo, length):
        assert split_parts(lo, lo + length) == scalar_parts(lo, lo + length)

    @pytest.mark.parametrize(
        "n_lo, n_hi",
        [
            (4, 60),
            (5, 6),
            (BLOCK_EDGES[5] - 30, BLOCK_EDGES[5] + 30),
            (BLOCK_EDGES[20] - 30, BLOCK_EDGES[20] + 30),
            (2**58 - 30, 2**58 + 30),
            (7, 24583),
        ],
    )
    def test_verify_range_matches_scalar_loop(self, n_lo, n_hi, monkeypatch):
        # both paths read the kernel bound at call time
        for bound in BOUNDS:
            monkeypatch.setattr(decompose, "KERNEL_BOUND_4TH", bound)
            report = verify_range(n_lo, n_hi)
            assert report.checked == n_hi - n_lo + 1
            assert report.violations == tuple(scalar_violations(n_lo, n_hi))

    @given(starts, st.integers(min_value=0, max_value=300), st.sampled_from(BOUNDS))
    def test_windows_match_scalar_loop(self, lo, length, bound):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decompose, "KERNEL_BOUND_4TH", bound)
            assert verify_range(lo, lo + length).violations == tuple(scalar_violations(lo, lo + length))

    @given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=0, max_value=10**12))
    def test_windows_across_2_58(self, below, above):
        lo, hi = 2**58 - below, 2**58 + above
        report = verify_range(lo, hi)
        assert report.checked == hi - lo + 1 and report.violations == ()
        assert scalar_violations(lo, lo + 50) == scalar_violations(hi - 50, hi) == []

    def test_every_reachable_reason_shows_up(self, monkeypatch):
        # in a block the exponents fit every n, so a tighter bound fails a
        # kernel bound and the other twelve conditions hold
        reached = set()
        for bound in BOUNDS:
            monkeypatch.setattr(decompose, "KERNEL_BOUND_4TH", bound)
            for edge in BLOCK_EDGES[:12]:
                for lo, hi, a, b in _exponent_blocks(max(7, edge - 40), edge + 40):
                    got = _block_violations(lo, hi, a, b)
                    assert got == scalar_violations(lo, hi)
                    reached |= {reason for _, reason in got}
        assert reached == {"part2_kernel_bound", "part1_kernel_bound"}

    def test_disagreement_with_split_is_an_error(self, monkeypatch):
        # the scalar split is re-run at both ends of every block
        monkeypatch.setattr(decompose, "split", lambda n: (d := split(n))._replace(m2=d.m2 + (n > 6)))
        with pytest.raises(RuntimeError, match="verify_structural"):
            verify_range(4, 100)


class TestRecords:
    """A record holds every field of its decomposition, the witness's as None when there is none."""

    def test_witnessed_round_trip(self):
        rec = split(100).to_record()
        assert rec == {"n": 100, "m1": 64, "m2": 36, "a": 3, "b": 2, "U": 11, "V": 12, "W": 3, "w": 4, "fallback": False}

    def test_fallback_round_trip(self):
        rec = split(5).to_record()
        assert rec == {"n": 5, "m1": 2, "m2": 3, **dict.fromkeys("abUVWw"), "fallback": True}
