"""Floats only prefilter: a float that feeds a decision, perturbed well inside the band, changes no decision.

``perturbed(seed)`` multiplies each float of the oracle's one quality
site, ``oracle._qualities``, and each ``log`` and ``exp`` that
``powered`` calls, by 1 + 1e-12 * s, with s drawn from [-1, 1] by a
seeded RNG: 1e3 times inside ``kernel.PREFILTER_REL``, and 300 times or
more outside the floats' own error.  So a decision that a float makes alone,
without the band's exact re-decision, moves under some seed.  Every
decision is compared with the unperturbed run's: the oracle's columns,
violations and maxima, the log-weighted counts and the probe's
witnesses.  The means and ``normalized`` are floats meant to move, and
are not compared.
"""

import math
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kernsplit.oracle as orc
import kernsplit.powered
from dense_reference import plain_probe
from kernsplit.oracle import conjecture_probe, constructive_vs_oracle
from kernsplit.powered import _log_weighted_class, count_log_weighted

# 1e3 times inside kernel.PREFILTER_REL
OFF = 1e-12

SEEDS = range(8)

# two of CI's near-ties: k(m)**2 and m * ln(m)**(2*gamma) are 2e-16 apart at m = 12 and at m = 18
NEAR_TIES = (0.6034772207069685, 0.3265295325408706)


@contextmanager
def perturbed(seed: int):
    """Every float of ``oracle._qualities`` and every ``math.log`` and ``math.exp`` in ``powered``, off by a relative OFF at most."""
    rng = np.random.default_rng(seed)
    qualities = orc._qualities

    def off(value):
        return value * (1 + OFF * rng.uniform(-1, 1, np.shape(value)))

    proxy = SimpleNamespace(**vars(math))
    proxy.log = lambda *args: float(off(math.log(*args)))
    proxy.exp = lambda x: float(off(math.exp(x)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(orc, "_qualities", lambda q, m: off(qualities(q, m)))
        mp.setattr(kernsplit.powered, "math", proxy)
        yield


def decisions(report) -> tuple:
    """What an oracle report decides: its columns, violations and both maxima."""
    columns = (report.split_m1, report.split_quality, report.oracle_m1, report.oracle_quality)
    return (*(column.tolist() for column in columns), report.violations, report.max_split_quality, report.max_oracle_quality)


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(4, 30_000 - 300), st.integers(0, 300)), st.sampled_from(SEEDS))
@example((4, 300), 0)
def test_oracle_windows(window, seed):
    lo, hi = window[0], window[0] + window[1]
    expected = decisions(constructive_vs_oracle(lo, hi, force=True))
    with perturbed(seed):
        assert decisions(constructive_vs_oracle(lo, hi, force=True)) == expected


@pytest.mark.parametrize("reverse", [False, True])
def test_report_float_ties(reverse):
    # (2**60 + 1) / 2**60 and 1 share a float: only the band's exact re-decision orders them
    above, one = (2**60 + 1, 2**60), (1, 1)
    columns = [np.array(column, dtype=np.int64).T for column in ([2, 2, 2], [one, above, one], [2, 2, 2], [above, one, one])]
    if reverse:
        columns = [column[..., ::-1] for column in columns]
    expected = decisions(orc._report(10, 12, *columns))
    for seed in SEEDS:
        with perturbed(seed):
            assert decisions(orc._report(10, 12, *columns)) == expected


@pytest.mark.parametrize("gamma, x", [(-0.5, 100_000), (0.5, 100_000), (3.0, 10_000), *((g, 100) for g in NEAR_TIES)])
def test_counts(gamma, x):
    expected = count_log_weighted(x, gamma).count
    for seed in SEEDS:
        with perturbed(seed):
            assert count_log_weighted(x, gamma).count == expected


@pytest.mark.parametrize("gamma, n_hi", [(-0.5, 20_000), (0.5, 20_000), (3.0, 20_000), *((g, 100) for g in NEAR_TIES)])
def test_probe(gamma, n_hi):
    expected = plain_probe(conjecture_probe(4, n_hi, _log_weighted_class(gamma)))
    for seed in SEEDS:
        with perturbed(seed):
            assert plain_probe(conjecture_probe(4, n_hi, _log_weighted_class(gamma))) == expected
