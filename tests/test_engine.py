from fractions import Fraction

import pytest

from freeprod.engine import (
    IdealDescriptor,
    classify_atom_tuples,
    decompose,
    ideal_lattice,
    intersect_ideals,
    report_to_json,
)
from freeprod.errors import (
    DegenerateProblem,
    RefusedTwoProjectionCase,
    TailUndecidable,
)
from freeprod.model import TailSpec
from freeprod.nc import wedge_trace

from conftest import make_factor, make_problem

F = Fraction


def test_worked_example(worked_problem):
    report = decompose(worked_problem)
    assert len(report.summands) == 1
    tup, gamma = report.summands[0]
    assert tup.choices == (("A", "p1"), ("B", "q2"))
    assert gamma == F(1, 5)
    assert len(report.characters) == 1
    assert report.characters[0].choices == (("A", "p1"), ("B", "q1"))
    assert report.r0_trace == F(4, 5)
    v = report.verdicts
    assert not v.afr_simple
    assert v.afr00_simple and v.afr00_nonunital
    assert v.trace_unique
    assert v.stable_rank_one == "true"
    assert report.ideal_count == 6


def test_classify_three_factors():
    factors = [make_factor(n, ["9/10", "1/10"]) for n in ("A", "B", "C")]
    summands, characters = classify_atom_tuples(make_problem(*factors))
    assert len(summands) == 1
    assert summands[0].gamma == F(7, 10)
    assert characters == []


def test_isolation_flip_turns_summand_into_character(worked_problem):
    a = make_factor(
        "A", ["3/5", "3/10", "1/10"], labels=["p1", "p2", "p3"],
        isolated=[False, True, True],
    )
    b = make_factor("B", ["2/5", "3/5"], labels=["q1", "q2"])
    report = decompose(make_problem(a, b))
    baseline = decompose(worked_problem)
    assert report.summands == ()
    # the former summand reappears among the characters with its weight data
    deficits = {t.choices: t.deficit_sum for t in report.characters}
    assert deficits[(("A", "p1"), ("B", "q2"))] == F(4, 5)
    assert deficits[(("A", "p1"), ("B", "q1"))] == F(1)
    # r0 absorbs the mass: no summand is split off
    assert report.r0_trace == F(1)
    assert baseline.summands[0][1] == F(1, 5)


def test_pure_diffuse_factor_gives_simplicity():
    a = make_factor("A", [], diffuse=1)
    b = make_factor("B", ["1/2", "1/2"])
    report = decompose(make_problem(a, b))
    assert report.summands == () and report.characters == ()
    v = report.verdicts
    assert v.afr_simple and v.trace_unique and v.stable_rank_one == "true"


def test_non_tracial_diffuse_part():
    a = make_factor("A", ["1/2"], diffuse="1/2", trace=False)
    b = make_factor("B", ["1/2", "1/2"])
    report = decompose(make_problem(a, b))
    assert len(report.characters) == 2
    v = report.verdicts
    assert not v.trace_exists
    assert v.stable_rank_one == "not_claimed"


def test_refuses_two_projection_case():
    p = make_problem(
        make_factor("A", ["1/2", "1/2"]), make_factor("B", ["7/10", "3/10"])
    )
    with pytest.raises(RefusedTwoProjectionCase):
        decompose(p)


def test_degenerate():
    with pytest.raises(DegenerateProblem):
        decompose(make_problem(make_factor("A", ["3/5", "2/5"])))


_TWO_POINT = (make_factor("A", ["1/2", "1/2"]), make_factor("B", ["7/10", "3/10"]))
_TRIVIAL = make_factor("C", ["1"])
_REFUSAL_SHAPES = {
    "two-projection": (_TWO_POINT, RefusedTwoProjectionCase),
    "two-projection-plus-elided-C": (_TWO_POINT + (_TRIVIAL,), RefusedTwoProjectionCase),
    "two-atoms-with-diffuse": (
        (make_factor("A", ["1/4", "1/4"], diffuse="1/2"), _TWO_POINT[1]), None,
    ),
    "three-atoms-against-two": (
        (make_factor("A", ["3/5", "3/10", "1/10"]), _TWO_POINT[1]), None,
    ),
    "three-two-atom-factors": (
        _TWO_POINT + (make_factor("C", ["3/5", "2/5"]),), None,
    ),
    "single-effective-factor": ((_TWO_POINT[1], _TRIVIAL), DegenerateProblem),
}


@pytest.mark.parametrize("with_tail", [False, True], ids=["finite", "tail"])
@pytest.mark.parametrize("shape", list(_REFUSAL_SHAPES))
def test_refusal_boundary(shape, with_tail):
    # decompose alone decides the refusals; a tail problem is never refused
    factors, refusal = _REFUSAL_SHAPES[shape]
    tail = TailSpec((F(1, 4),), None) if with_tail else None
    problem = make_problem(*factors, tail=tail)
    if refusal is None or with_tail:
        report = decompose(problem)
        assert report.infinite == with_tail
    else:
        with pytest.raises(refusal):
            decompose(problem)


def test_elision_invariance(worked_problem):
    a = make_factor("A", ["3/5", "3/10", "1/10"], labels=["p1", "p2", "p3"])
    b = make_factor("B", ["2/5", "3/5"], labels=["q1", "q2"])
    c = make_factor("C", ["1"])
    assert decompose(make_problem(a, b, c)) == decompose(worked_problem)


def test_consistency_with_wedge_trace():
    a = make_factor("A", ["7/10", "1/5", "1/10"], labels=["p1", "p2", "p3"])
    b = make_factor("B", ["3/5", "2/5"], labels=["q1", "q2"])
    report = decompose(make_problem(a, b))
    weights = {t.choices: g for t, g in report.summands}
    assert weights[(("A", "p1"), ("B", "q1"))] == wedge_trace(F(7, 10), F(3, 5))


def test_simplicity_boundary_two_factors():
    # all pair sums < 1 -> simple
    a = make_factor("A", ["2/5", "2/5", "1/5"])
    b = make_factor("B", ["1/2", "1/2"])
    assert decompose(make_problem(a, b)).verdicts.afr_simple
    # one pair sums above 1 -> nonsimple
    a = make_factor("A", ["3/5", "3/10", "1/10"])
    b = make_factor("B", ["1/2", "1/2"])
    assert not decompose(make_problem(a, b)).verdicts.afr_simple


def test_infinite_with_certified_tail():
    f1 = make_factor("F1", ["1/2"], diffuse="1/2")
    f2 = make_factor("F2", ["3/4", "1/4"])
    tail = TailSpec((F(1, 16), F(1, 32)), F(1, 32))
    report = decompose(make_problem(f1, f2, tail=tail))
    assert report.infinite
    assert report.summands == ()
    assert len(report.characters) == 1
    assert report.characters[0].deficit_sum == F(7, 8)
    assert report.characters[0].tail_maximal
    assert report.r0_trace == F(7, 8)
    assert report.gamma0_as_printed == F(1, 8)
    v = report.verdicts
    assert not v.afr_simple
    assert v.stable_rank_one == "true"


def test_infinite_divergent_tail_is_simple():
    f1 = make_factor("F1", ["1/2", "1/2"])
    f2 = make_factor("F2", ["1/2", "1/2"])
    tail = TailSpec((F(1, 4), F(1, 4)), None)
    report = decompose(make_problem(f1, f2, tail=tail))
    assert report.characters == ()
    v = report.verdicts
    assert v.afr_simple and v.trace_unique and v.stable_rank_one == "true"


def test_tail_undecidable():
    # a tail factor with deficit 1/2 could hide a second atom of mass 1/2
    f1 = make_factor("F1", ["9/10", "1/10"])
    f2 = make_factor("F2", ["9/10", "1/10"])
    tail = TailSpec((F(1, 2),), F(0))
    with pytest.raises(TailUndecidable):
        decompose(make_problem(f1, f2, tail=tail))


def test_ideal_lattice_counts(worked_problem):
    report = decompose(worked_problem)
    lattice = ideal_lattice(report)
    assert len(lattice) == 6
    unital = [ann for _, ann in lattice if ann["unital"]]
    nonunital = [ann for _, ann in lattice if not ann["unital"]]
    assert len(unital) == 4  # {0, Afr0} x {keep/kill summand}
    assert len(nonunital) == 2  # Afr00 with and without the summand
    traces = sorted(ann["unit_trace"] for ann in unital)
    assert traces == [F(0), F(1, 5), F(4, 5), F(1)]


def test_ideal_lattice_simple_algebra():
    a = make_factor("A", ["2/5", "2/5", "1/5"])
    b = make_factor("B", ["1/2", "1/2"])
    report = decompose(make_problem(a, b))
    assert report.ideal_count == 2


def test_ideal_lattice_closed_under_intersection(worked_problem):
    report = decompose(worked_problem)
    descriptors = [d for d, _ in ideal_lattice(report)]
    for d1 in descriptors:
        for d2 in descriptors:
            assert intersect_ideals(d1, d2) in descriptors


def test_intersection_zero_absorbs():
    d1 = IdealDescriptor(frozenset({0}), None)
    d2 = IdealDescriptor(frozenset({0, 1}), frozenset({0}))
    meet = intersect_ideals(d1, d2)
    assert meet.character_part is None
    assert meet.killed_summands == frozenset({0})


def test_report_json_schema(worked_problem):
    obj = report_to_json(decompose(worked_problem))
    assert obj["summands"] == [{"tuple": {"A": "p1", "B": "q2"}, "gamma": "1/5"}]
    assert obj["characters"] == [{"tuple": {"A": "p1", "B": "q1"}}]
    assert obj["r0_trace"] == "4/5"
    assert obj["ideal_count"] == 6
