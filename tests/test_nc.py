import math
from fractions import Fraction

import pytest

from freeprod.errors import DomainError, LimitExceeded
from freeprod.nc import alternating_moment, wedge_trace

from nc_reference import catalan, free_cumulants_projection, noncrossing_partitions

F = Fraction


def test_catalan_closed_form():
    assert [catalan(n) for n in range(7)] == [1, 1, 2, 5, 14, 42, 132]
    assert catalan(8) == 1430
    assert catalan(14) == 2674440


@pytest.mark.parametrize("m", range(0, 10))
def test_enumeration_count_matches_catalan(m):
    assert sum(1 for _ in noncrossing_partitions(m)) == catalan(m)


def test_enumeration_is_noncrossing_and_valid():
    for part in noncrossing_partitions(6):
        flat = sorted(x for blk in part for x in blk)
        assert flat == list(range(1, 7))
        for b1 in part:
            for b2 in part:
                if b1 is b2:
                    continue
                for i in b1:
                    for k in b1:
                        for j in b2:
                            for l in b2:
                                assert not (i < j < k < l)


def test_cumulants_low_orders():
    a = F(7, 10)
    k = free_cumulants_projection(a, 3)
    assert k[0] == a
    assert k[1] == a - a * a
    assert k[2] == a * (1 - a) * (1 - 2 * a)
    assert free_cumulants_projection(F(1, 2), 3)[1] == F(1, 4)
    assert free_cumulants_projection(F(1, 2), 3)[2] == 0


@pytest.mark.parametrize("alpha", [F(7, 10), F(1, 3), F(9, 10)])
def test_moment_cumulant_round_trip(alpha):
    # Resumming cumulants over NC(n) must give back the trace for every n.
    nmax = 6
    k = free_cumulants_projection(alpha, nmax)
    for n in range(1, nmax + 1):
        total = sum(
            math.prod(k[len(b) - 1] for b in part)
            for part in noncrossing_partitions(n)
        )
        assert total == alpha


def test_alternating_moment_n1_is_product():
    assert alternating_moment(F(7, 10), F(3, 5), 1) == F(21, 50)


def test_alternating_moment_n2_closed_form():
    a, b = F(1, 2), F(1, 2)
    assert alternating_moment(a, b, 2) == F(3, 16)
    a, b = F(7, 10), F(3, 5)
    assert alternating_moment(a, b, 2) == a * b * (a + b - a * b)


def _brute_alternating(alpha, beta, n):
    ka = free_cumulants_projection(alpha, n)
    kb = free_cumulants_projection(beta, n)
    total = F(0)
    for part in noncrossing_partitions(2 * n):
        value = F(1)
        for blk in part:
            parities = {x % 2 for x in blk}
            if len(parities) > 1:
                value = None
                break
            value *= (ka if 1 in parities else kb)[len(blk) - 1]
        if value is not None:
            total += value
    return total


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_alternating_moment_against_brute_enumeration(n):
    a, b = F(7, 10), F(2, 5)
    assert alternating_moment(a, b, n) == _brute_alternating(a, b, n)


def test_trace_symmetry():
    for i in range(1, 10):
        for j in range(1, 10):
            a, b = F(i, 10), F(j, 10)
            assert alternating_moment(a, b, 2) == alternating_moment(b, a, 2)


def test_moments_decreasing_and_above_wedge():
    for (a, b) in [(F(7, 10), F(3, 5)), (F(1, 2), F(1, 2)), (F(9, 10), F(9, 10))]:
        w = wedge_trace(a, b)
        prev = F(1)
        for n in range(1, 9):
            m = alternating_moment(a, b, n)
            assert m <= prev
            assert m >= w
            prev = m


def test_wedge_trace_values():
    assert wedge_trace(F(7, 10), F(3, 5)) == F(3, 10)
    assert wedge_trace(F(1, 2), F(1, 2)) == 0
    assert wedge_trace(F(1, 5), F(1, 5)) == 0


def test_limits():
    with pytest.raises(LimitExceeded):
        alternating_moment(F(1, 2), F(1, 2), 129)
    with pytest.raises(LimitExceeded):
        free_cumulants_projection(F(1, 2), 17)
    with pytest.raises(DomainError):
        alternating_moment(F(0), F(1, 2), 1)


@pytest.mark.parametrize("alpha, beta", [
    (F(0), F(1, 2)), (F(1), F(1, 2)), (F(1, 2), F(0)), (F(1, 2), F(1)),
    (F(-1, 2), F(1, 2)), (F(1, 2), F(3, 2)),
])
def test_one_unit_interval_check(alpha, beta):
    import ast
    import inspect

    from freeprod import nc
    from freeprod.twoproj import two_projection_law, two_projection_structure

    calls = (
        lambda: alternating_moment(alpha, beta, 1),
        lambda: alternating_moment(alpha, beta, 0),
        lambda: wedge_trace(alpha, beta),
        lambda: two_projection_law(alpha, beta),
        lambda: two_projection_structure(alpha, beta),
    )
    for call in calls:
        with pytest.raises(DomainError, match=r"^alpha and beta must lie in \(0, 1\)$"):
            call()
    # the oracle stays independent of the law it certifies
    imported = {
        node.module for node in ast.walk(ast.parse(inspect.getsource(nc)))
        if isinstance(node, ast.ImportFrom)
    }
    assert not any("twoproj" in (m or "") for m in imported)
