"""Randomized property suites.

Strategies draw exact rational mass vectors so every check is an exact
equality; settings push each property past 100 examples, giving well over
1000 randomized instances across the module.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from freeprod.conjectures import conjecture_abelian
from freeprod.engine import (
    AtomTuple,
    classify_atom_tuples,
    decompose,
    ideal_lattice,
    intersect_ideals,
)
from freeprod.errors import (
    DegenerateProblem,
    RefusedTwoProjectionCase,
    TailUndecidable,
)
from freeprod.model import ProblemSpec, TailSpec, normalize_problem
from freeprod.nc import alternating_moment, wedge_trace

from conftest import make_factor, make_problem
from nc_reference import catalan, noncrossing_partitions

F = Fraction


@st.composite
def mass_vectors(draw, min_atoms=2, max_atoms=4, denominator=24):
    """Exact rational masses summing to 1, all positive."""
    k = draw(st.integers(min_atoms, max_atoms))
    cuts = draw(
        st.lists(
            st.integers(1, denominator - 1), min_size=k - 1, max_size=k - 1,
            unique=True,
        )
    )
    cuts = sorted(cuts)
    parts = [b - a for a, b in zip([0] + cuts, cuts + [denominator])]
    return [F(p, denominator) for p in parts]


def _decompose_or_none(problem):
    try:
        return decompose(problem)
    except (DegenerateProblem, RefusedTwoProjectionCase):
        return None


@settings(max_examples=200, deadline=None)
@given(mass_vectors(min_atoms=3), mass_vectors())
def test_mass_conservation(xs, ys):
    report = _decompose_or_none(
        make_problem(make_factor("A", xs), make_factor("B", ys))
    )
    if report is None:
        return
    assert report.r0_trace + sum(g for _, g in report.summands) == 1
    assert report.r0_trace > 0


@settings(max_examples=150, deadline=None)
@given(mass_vectors(min_atoms=3), mass_vectors(), st.randoms())
def test_permutation_equivariance(xs, ys, rnd):
    a = make_factor("A", xs)
    b = make_factor("B", ys)
    pairs = [(f"a{i + 1}", m) for i, m in enumerate(xs)]
    rnd.shuffle(pairs)
    a2 = make_factor("A", [m for _, m in pairs], labels=[l for l, _ in pairs])
    p1 = normalize_problem(ProblemSpec((a, b)))
    p2 = normalize_problem(ProblemSpec((b, a2)))
    assert p1 == p2
    r1, r2 = _decompose_or_none(p1), _decompose_or_none(p2)
    assert r1 == r2


@settings(max_examples=150, deadline=None)
@given(mass_vectors(min_atoms=3), mass_vectors())
def test_elision_invariance(xs, ys):
    a = make_factor("A", xs)
    b = make_factor("B", ys)
    c = make_factor("C", ["1"])
    assert _decompose_or_none(make_problem(a, b, c)) == _decompose_or_none(
        make_problem(a, b)
    )


def _brute_force_tuples(problem):
    """Every atom tuple by itertools.product, split as the engine defines."""
    tail = problem.tail
    base = F(0) if tail is None else tail.total_deficit
    summands, characters = [], []
    if base is None:
        return summands, characters
    for atoms in itertools.product(*(f.atoms for f in problem.factors)):
        deficit = base + sum((1 - a.mass for a in atoms), F(0))
        if deficit > 1:
            continue
        isolated = all(a.isolated for a in atoms)
        t = AtomTuple(
            tuple((f.name, a.label) for f, a in zip(problem.factors, atoms)),
            deficit, all_isolated=isolated, tail_maximal=tail is not None,
        )
        if deficit < 1 and isolated and tail is None:
            summands.append(t)
        else:
            characters.append(t)
    key = lambda t: (t.deficit_sum, t.choices)
    return sorted(summands, key=key), sorted(characters, key=key)


@st.composite
def factors_with_isolation(draw, name):
    masses = draw(mass_vectors(min_atoms=1, max_atoms=4))
    isolated = draw(st.lists(st.booleans(), min_size=len(masses), max_size=len(masses)))
    return make_factor(name, masses, isolated=isolated)


@st.composite
def tails(draw):
    deficits = draw(st.lists(st.integers(0, 16), max_size=3))
    remainder = draw(st.one_of(st.none(), st.integers(0, 16)))
    return TailSpec(
        tuple(F(d, 64) for d in deficits),
        None if remainder is None else F(remainder, 64),
    )


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from("ABCD"), min_size=1, max_size=4, unique=True).flatmap(
        lambda names: st.tuples(*(factors_with_isolation(n) for n in names))
    ),
    st.one_of(st.none(), tails()),
)
def test_classify_matches_brute_force(factors, tail):
    problem = make_problem(*factors, tail=tail)
    try:
        got = classify_atom_tuples(problem)
    except TailUndecidable:
        assert tail is not None
        return
    assert got == _brute_force_tuples(problem)


@settings(max_examples=100, deadline=None)
@given(mass_vectors(min_atoms=3), mass_vectors())
def test_ideal_lattice_cardinality_and_closure(xs, ys):
    report = _decompose_or_none(
        make_problem(make_factor("A", xs), make_factor("B", ys))
    )
    if report is None:
        return
    lattice = ideal_lattice(report)
    s, c = len(report.summands), len(report.characters)
    assert len(lattice) == 2**s * (2**c + 1)
    assert report.ideal_count == len(lattice)
    descriptors = [d for d, _ in lattice]
    sample = descriptors if len(descriptors) <= 16 else random.Random(0).sample(
        descriptors, 16
    )
    for d1 in sample:
        for d2 in sample:
            assert intersect_ideals(d1, d2) in descriptors


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 9), st.integers(1, 9),
    st.integers(1, 9), st.integers(1, 9),
)
def test_simplicity_matches_pair_criterion(i, j, k, l):
    xs = sorted([F(i, 20), F(j, 20)], reverse=True)
    xs = xs + [1 - sum(xs)] if sum(xs) < 1 else None
    if xs is None or xs[-1] <= 0:
        return
    ys = [F(k + l, 20), 1 - F(k + l, 20)]
    if ys[1] <= 0:
        return
    report = _decompose_or_none(
        make_problem(make_factor("A", xs), make_factor("B", ys))
    )
    if report is None:
        return
    expected = max(x + y for x in xs for y in ys) < 1
    assert report.verdicts.afr_simple == expected


@settings(max_examples=100, deadline=None)
@given(mass_vectors(), mass_vectors())
def test_conjecture_swap_symmetry(xs, ys):
    x = make_factor("X", xs)
    y = make_factor("Y", ys)
    a = conjecture_abelian(x, y)
    b = conjecture_abelian(y, x)
    assert a.status_label == b.status_label
    assert a.conjectured_simple == b.conjectured_simple
    assert a.necessary_conditions_hold == b.necessary_conditions_hold


@settings(max_examples=100, deadline=None)
@given(mass_vectors(min_atoms=3), mass_vectors())
def test_engine_agrees_with_conjecture_on_abelian_data(xs, ys):
    x = make_factor("X", xs)
    y = make_factor("Y", ys)
    report = _decompose_or_none(make_problem(x, y))
    if report is None:
        return
    verdict = conjecture_abelian(x, y)
    if report.verdicts.afr_simple:
        assert verdict.conjectured_simple
    else:
        assert not verdict.conjectured_simple


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 19), st.integers(1, 19),
    st.integers(1, 4),
)
def test_moment_monotone_in_n(i, j, n):
    a, b = F(i, 20), F(j, 20)
    assert alternating_moment(a, b, n + 1) <= alternating_moment(a, b, n)
    assert alternating_moment(a, b, n) >= wedge_trace(a, b)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 19), st.integers(1, 19))
def test_reports_expose_reduced_rationals(i, j):
    xs = [F(i, 20), 1 - F(i, 20)]
    ys = [F(j, 20), 1 - F(j, 20)]
    if 0 in xs or 0 in ys:
        return
    report = _decompose_or_none(
        make_problem(make_factor("A", xs + []), make_factor("B", ys))
    )
    if report is None:
        return
    # Fraction keeps everything reduced; check the JSON strings round trip
    from freeprod.engine import report_to_json
    from freeprod.model import parse_rational

    obj = report_to_json(report)
    assert parse_rational(obj["r0_trace"]) == report.r0_trace


def test_catalan_count_of_enumeration():
    assert catalan(8) == 1430
    assert sum(1 for _ in noncrossing_partitions(8)) == 1430


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31), st.integers(16, 48))
def test_mc_seed_determinism(seed, dim):
    import numpy as np

    from freeprod.rmt import sample_pqp_spectrum

    a = sample_pqp_spectrum(F(1, 2), F(1, 2), dim, seed)
    b = sample_pqp_spectrum(F(1, 2), F(1, 2), dim, seed)
    assert np.array_equal(a, b)
