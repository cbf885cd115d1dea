"""The S-transform moment oracle against non-crossing resummation, and the
analytic law's certificate at the pinches and at extreme masses."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeprod.nc import alternating_moment, alternating_moments
from freeprod.twoproj import certify_law

from nc_reference import MAX_REFERENCE_WORD_LENGTH, fraction_moments, reference_moment

F = Fraction

ORACLE_N = MAX_REFERENCE_WORD_LENGTH // 2

# alpha = beta on the diagonal, alpha + beta = 1 across it (incl. 1/2, 1/2),
# and the extreme masses 1/1000 and 999/1000.
GRID = [F(1, 1000), F(3, 10), F(1, 3), F(1, 2), F(2, 3), F(7, 10), F(999, 1000)]


@pytest.mark.parametrize("alpha", GRID, ids=str)
@pytest.mark.parametrize("beta", GRID, ids=str)
def test_recurrence_matches_noncrossing_resummation(alpha, beta):
    for n in range(1, ORACLE_N + 1):
        assert alternating_moment(alpha, beta, n) == reference_moment(alpha, beta, n)


def unit_rationals(max_denominator=1000):
    return st.integers(2, max_denominator).flatmap(
        lambda d: st.integers(1, d - 1).map(lambda k: F(k, d))
    )


@settings(max_examples=60, deadline=None)
@given(unit_rationals(), unit_rationals(), st.integers(1, ORACLE_N))
def test_recurrence_matches_resummation_random(alpha, beta, n):
    assert alternating_moment(alpha, beta, n) == reference_moment(alpha, beta, n)


@settings(max_examples=40, deadline=None)
@given(unit_rationals(), unit_rationals(), st.integers(0, ORACLE_N))
def test_one_pass_matches_each_order_and_resummation(alpha, beta, n):
    moments = alternating_moments(alpha, beta, n)
    assert moments == [alternating_moment(alpha, beta, k) for k in range(n + 1)]
    assert moments[1:] == [reference_moment(alpha, beta, k) for k in range(1, n + 1)]


@pytest.mark.parametrize("alpha, beta", [
    (F(1, 2), F(1, 2)), (F(1, 3), F(2, 3)), (F(7, 10), F(7, 10)),
    (F(1, 1000), F(1, 999)), (F(120, 331), F(37, 58)),
], ids=str)
def test_integer_pass_matches_fraction_recurrence(alpha, beta):
    assert alternating_moments(alpha, beta, 64) == fraction_moments(alpha, beta, 64)


# certify_law on the pinched regimes, near them and at extreme masses.  The
# moments are accurate to about 1e-16 there; 1e-8 is certify_law's own
# tolerance.
CERTIFY_BOUND = 1e-8
EXTREME = st.sampled_from([F(1, 1000), F(3, 1000), F(997, 1000), F(999, 1000)])


@settings(max_examples=60, deadline=None)
@given(unit_rationals())
def test_certify_pinch_at_a(alpha):
    assert certify_law(alpha, alpha) < CERTIFY_BOUND


@settings(max_examples=60, deadline=None)
@given(unit_rationals())
def test_certify_pinch_at_b(alpha):
    assert certify_law(alpha, 1 - alpha) < CERTIFY_BOUND


@settings(max_examples=60, deadline=None)
@given(EXTREME, unit_rationals(), st.booleans())
def test_certify_extreme_masses(tiny, other, swap):
    alpha, beta = (other, tiny) if swap else (tiny, other)
    assert certify_law(alpha, beta) < CERTIFY_BOUND


@pytest.mark.parametrize("alpha", [F(1, 1000), F(3, 1000), F(1, 2), F(999, 1000)], ids=str)
def test_certify_pinches_at_extreme_masses(alpha):
    assert certify_law(alpha, alpha) < CERTIFY_BOUND
    assert certify_law(alpha, 1 - alpha) < CERTIFY_BOUND


# Near a pinch but not on it, where integrating the density's 1/t and
# 1/(1-t) poles by quadrature missed by 1.6e-8 to 1.7e-5.
NEAR_PINCH = [
    (F(1, 1000), F(1, 999)),
    (F(3, 1000), F(1, 333)),
    (F(3, 1000), F(2, 667)),
    (F(120, 331), F(37, 58)),
    (F(21, 43), F(459, 940)),
]


@pytest.mark.parametrize("alpha, beta", NEAR_PINCH, ids=str)
def test_certify_near_pinch(alpha, beta):
    assert certify_law(alpha, beta) < CERTIFY_BOUND
    assert certify_law(beta, alpha) < CERTIFY_BOUND


# The closed-form moments agree with the oracle to rounding, not just to the
# certificate's tolerance.
@pytest.mark.parametrize("alpha, beta", [(a, b) for a in GRID for b in GRID] + NEAR_PINCH,
                         ids=str)
def test_certify_to_rounding(alpha, beta):
    assert certify_law(alpha, beta) <= 1e-15
    assert certify_law(beta, alpha) <= 1e-15
