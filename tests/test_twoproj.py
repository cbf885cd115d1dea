import math
from fractions import Fraction

import pytest

from freeprod.errors import DomainError
from freeprod.nc import alternating_moment, wedge_trace
from freeprod.twoproj import (
    Regime,
    WEDGE_P_NOT_Q,
    WEDGE_PQ,
    certify_law,
    density_csv_rows,
    law_cdf,
    law_density,
    law_moment,
    law_moments,
    two_projection_law,
    two_projection_structure,
)
from twoproj_reference import reference_law_moment

F = Fraction


def test_atoms_symmetric_case():
    law = two_projection_law(F(1, 2), F(1, 2))
    assert law.atom_at_zero == F(1, 2)
    assert law.atom_at_one == 0
    assert law.support_a == 0.0
    assert law.support_b == 1.0


def test_atoms_and_endpoints_generic():
    law = two_projection_law(F(7, 10), F(3, 5))
    assert law.atom_at_one == F(3, 10)
    assert law.atom_at_zero == F(2, 5)
    # frozen from the certified endpoint formulas
    assert law.support_a == pytest.approx(0.011001113587126909, abs=1e-12)
    assert law.support_b == pytest.approx(0.9089988864128729, abs=1e-12)


def test_density_midpoint_symmetric():
    # At alpha = beta = 1/2 the certified normalization gives 1/pi at t=1/2
    # (total AC mass 1/2); the oracle gate below is what pins this down.
    law = two_projection_law(F(1, 2), F(1, 2))
    assert law_density(law, 0.5) == pytest.approx(1.0 / math.pi, rel=1e-12)


def test_density_vanishes_at_edges():
    law = two_projection_law(F(7, 10), F(3, 5))
    assert law_density(law, law.support_a) == 0.0
    assert law_density(law, law.support_b) == 0.0
    assert law_density(law, 0.5) > 0.0
    with pytest.raises(DomainError):
        law_density(law, law.support_b + 1e-6)


# Near a pinch but not on it (the pairs of test_oracle.test_certify_near_pinch).
NEAR_PINCH = [(F(1, 1000), F(1, 999)), (F(3, 1000), F(1, 333)), (F(3, 1000), F(2, 667)),
              (F(120, 331), F(37, 58)), (F(21, 43), F(459, 940))]


def test_total_mass():
    near = NEAR_PINCH + [(b, a) for a, b in NEAR_PINCH]
    for a, b in [(F(1, 2), F(1, 2)), (F(7, 10), F(3, 5)), (F(9, 10), F(1, 10))] + near:
        law = two_projection_law(a, b)
        assert law_moment(law, 0) == pytest.approx(1.0, abs=1e-10)
        assert abs(law_cdf(law, 1.0) - 1.0) <= 1e-15


def test_oracle_gate_spot_checks():
    # The full 9x9 grid runs in the acceptance suite; spot-check here.
    for a, b in [(F(7, 10), F(3, 5)), (F(1, 2), F(1, 2)), (F(9, 10), F(9, 10))]:
        assert certify_law(a, b, nmax=8, tol=1e-8) < 1e-8


def test_law_symmetry_in_alpha_beta():
    la = two_projection_law(F(7, 10), F(2, 5))
    lb = two_projection_law(F(2, 5), F(7, 10))
    assert la.atom_at_zero == lb.atom_at_zero
    assert la.atom_at_one == lb.atom_at_one
    assert la.support_a == pytest.approx(lb.support_a, abs=1e-12)
    assert la.support_b == pytest.approx(lb.support_b, abs=1e-12)
    for i in range(1, 10):
        t = la.support_a + (la.support_b - la.support_a) * i / 10
        assert law_density(la, t) == pytest.approx(law_density(lb, t), abs=1e-12)
        assert law_cdf(la, t) == pytest.approx(law_cdf(lb, t), abs=1e-12)


def test_moments_monotone_and_converge_to_atom():
    law = two_projection_law(F(7, 10), F(3, 5))
    atom1 = float(law.atom_at_one)
    prev = 1.0
    for n in range(1, 30):
        m = law_moment(law, n)
        assert m <= prev + 1e-12
        assert m - atom1 <= law.support_b**n + 1e-12
        assert m >= atom1 - 1e-12
        prev = m


def test_moment_matches_exact_first_two():
    law = two_projection_law(F(7, 10), F(3, 5))
    assert law_moment(law, 1) == pytest.approx(0.42, abs=1e-10)
    assert law_moment(law, 2) == pytest.approx(0.3696, abs=1e-10)


def test_cdf_basics():
    law = two_projection_law(F(7, 10), F(3, 5))
    assert law_cdf(law, -1e-9) == 0.0
    assert law_cdf(law, 0.0) == pytest.approx(0.4, abs=1e-12)
    assert law_cdf(law, 1.0) == pytest.approx(1.0, abs=1e-10)
    assert law_cdf(law, 0.99) == pytest.approx(0.7, abs=1e-9)


@pytest.mark.parametrize("alpha, beta", [
    (F(7, 10), F(3, 5)), (F(1, 2), F(1, 2)), (F(7, 10), F(7, 10)), (F(1, 3), F(2, 3)),
    (F(1, 1000), F(1, 999)), (F(21, 43), F(459, 940)),
], ids=str)
def test_cdf_matches_high_precision_integral(alpha, beta):
    mp = pytest.importorskip("mpmath")
    law = two_projection_law(alpha, beta)
    a, b = law.support_a, law.support_b
    # 20 interior points, denser towards a, where a near-pinch pole sits.
    xs = [a + (b - a) * math.sin(math.pi * i / 42) ** 2 for i in range(1, 21)]
    with mp.workdps(30):
        ma, mb = mp.mpf(a), mp.mpf(b)

        def density(t):  # law_density at 30 digits, on the law's float endpoints
            return mp.sqrt((mb - t) * (t - ma)) / (2 * mp.pi * t * (1 - t))

        mass, prev = mp.mpf(law.atom_at_zero.numerator) / law.atom_at_zero.denominator, ma
        for x in xs:
            mass += mp.quad(density, [prev, mp.mpf(x)])
            prev = mp.mpf(x)
            assert abs(law_cdf(law, x) - float(mass)) <= 1e-12


@pytest.mark.parametrize("alpha, beta", [
    (F(21, 43), F(459, 940)), (F(1, 1000), F(1, 999)), (F(3, 1000), F(1, 333)),
    (F(3, 1000), F(2, 667)), (F(120, 331), F(37, 58)), (F(7, 10), F(3, 5)),
    (F(999, 1000), F(997, 1000)), (F(99, 100), F(49, 50)),
    # alpha*beta*(1-alpha)*(1-beta) is below the smallest float, its square
    # root is not
    pytest.param(F(1, 10**200), F(3, 10**200), id="1e-200"),
    pytest.param(1 - F(1, 10**200), 1 - F(3, 10**200), id="1-1e-200"),
    pytest.param(F(1, 10**300), F(7, 10**300), id="1e-300"),
    pytest.param(1 - F(7, 10**300), 1 - F(1, 10**300), id="1-1e-300"),
], ids=str)
def test_support_matches_high_precision(alpha, beta):
    # a = (alpha-beta)^2 / b keeps full relative accuracy when alpha ~ beta,
    # the exact centre keeps b accurate when both are near 1, and scaling
    # by a power of 4 keeps both when the radicand underflows.
    mp = pytest.importorskip("mpmath")
    with mp.workdps(350):
        x = mp.mpf(alpha.numerator) / alpha.denominator
        y = mp.mpf(beta.numerator) / beta.denominator
        center, half = x + y - 2 * x * y, 2 * mp.sqrt(x * y * (1 - x) * (1 - y))
        for law in (two_projection_law(alpha, beta), two_projection_law(beta, alpha)):
            for got, want in ((law.support_a, center - half), (law.support_b, center + half)):
                assert abs(got - want) / want <= 1e-15


def test_structure_three_displayed_cases():
    s = two_projection_structure(F(4, 5), F(3, 5))
    assert dict(s.wedge_summands) == {WEDGE_PQ: F(2, 5), WEDGE_P_NOT_Q: F(1, 5)}
    assert not s.pinch_at_a and not s.pinch_at_b
    assert s.regime is Regime.UNPINCHED

    s = two_projection_structure(F(7, 10), F(7, 10))
    assert dict(s.wedge_summands) == {WEDGE_PQ: F(2, 5)}
    assert s.pinch_at_a and not s.pinch_at_b
    assert s.fiber_interval[0] == 0.0
    assert s.regime is Regime.PINCH_AT_A

    s = two_projection_structure(F(1, 2), F(1, 2))
    assert s.wedge_summands == ()
    assert s.pinch_at_a and s.pinch_at_b
    assert s.fiber_interval == (0.0, 1.0)
    assert s.regime is Regime.DOUBLE_PINCH

    s = two_projection_structure(F(7, 10), F(3, 10))
    assert dict(s.wedge_summands) == {WEDGE_P_NOT_Q: F(2, 5)}
    assert not s.pinch_at_a and s.pinch_at_b
    assert s.fiber_interval[1] == 1.0
    assert s.regime is Regime.PINCH_AT_B


def test_structure_law_consistency():
    for a, b in [(F(4, 5), F(3, 5)), (F(3, 10), F(3, 5)), (F(1, 2), F(9, 10))]:
        law = two_projection_law(a, b)
        s = two_projection_structure(a, b)
        wedges = dict(s.wedge_summands)
        assert wedges.get(WEDGE_PQ, F(0)) == law.atom_at_one == wedge_trace(a, b)
        # atom at zero = tau(1-p) + weight of p AND (1-q)
        assert law.atom_at_zero == (1 - a) + wedges.get(WEDGE_P_NOT_Q, F(0))


def test_density_csv_export():
    law = two_projection_law(F(7, 10), F(3, 5))
    rows = list(density_csv_rows(law))
    assert rows[0] == "t,density"
    assert len(rows) == 1025
    first = rows[1].split(",")
    last = rows[-1].split(",")
    assert float(first[0]) == pytest.approx(law.support_a, abs=1e-12)
    assert float(last[0]) == pytest.approx(law.support_b, abs=1e-12)
    assert float(first[1]) == 0.0 and float(last[1]) == 0.0


@pytest.mark.parametrize("beta", [F(1, 10**34), F(1, 10**40), F(1, 10**400)],
                         ids=["1e-34", "1e-40", "1e-400"])
@pytest.mark.parametrize("swap", [False, True], ids=["alpha-first", "beta-first"])
def test_support_is_ordered_when_it_is_one_point(beta, swap):
    # a = (alpha - beta)^2 / b rounds one ulp above b here
    args = (beta, F(8, 35)) if swap else (F(8, 35), beta)
    law = two_projection_law(*args)
    assert law.support_a <= law.support_b


def test_domain_errors():
    with pytest.raises(DomainError):
        two_projection_law(F(0), F(1, 2))
    with pytest.raises(DomainError):
        two_projection_structure(F(1), F(1, 2))


@pytest.mark.parametrize("alpha, beta", [
    (F(7, 10), F(3, 5)), (F(1, 2), F(1, 2)), (F(7, 10), F(7, 10)), (F(7, 10), F(3, 10)),
    (F(120, 331), F(37, 58)), (F(999, 1000), F(997, 1000)), (F(1, 1000), F(1, 999)),
    pytest.param(F(1, 10**200), F(3, 10**200), id="1e-200"),
], ids=str)
def test_law_moments_match_per_order_reference(alpha, beta):
    # one pass over the P_k does the per-order loop's float operations in
    # the same order, so the values agree bit for bit
    law = two_projection_law(alpha, beta)
    assert law_moments(law, 128) == [reference_law_moment(law, n) for n in range(129)]
    assert law_moments(law, 0) == [1.0]
    assert law_moments(law, 1) == [1.0, float(alpha * beta)]
    assert law_moment(law, 37) == reference_law_moment(law, 37)
    with pytest.raises(DomainError, match="n must be nonnegative"):
        law_moments(law, -1)
