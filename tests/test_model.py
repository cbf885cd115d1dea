from fractions import Fraction

import pytest

from freeprod.engine import decompose
from freeprod.errors import (
    DegenerateProblem,
    DuplicateLabel,
    MassMismatch,
    NonPositiveMass,
    ValidationError,
)
from freeprod.model import (
    ProblemSpec,
    TailSpec,
    format_rational,
    normalize_problem,
    parse_rational,
    problem_from_json,
    validate_factor,
)

from conftest import make_factor


def test_valid_three_atom_factor():
    f = validate_factor(make_factor("A", ["3/5", "3/10", "1/10"]))
    assert f.dimension == 3
    assert not f.is_one_dimensional


def test_mass_mismatch():
    with pytest.raises(MassMismatch):
        validate_factor(make_factor("A", ["1/2", "1/3"]))


def test_atom_plus_diffuse_half():
    f = validate_factor(make_factor("A", ["1/2"], diffuse="1/2"))
    assert f.dimension == 2


def test_nonpositive_mass():
    with pytest.raises(NonPositiveMass):
        validate_factor(make_factor("A", ["0", "1"]))


def test_duplicate_label():
    with pytest.raises(DuplicateLabel):
        validate_factor(make_factor("A", ["1/2", "1/2"], labels=["p", "p"]))


def test_duplicate_factor_name():
    a = make_factor("A", ["1/2", "1/2"], labels=["u", "x"])
    b = make_factor("B", ["3/5", "2/5"], labels=["p", "q"])
    with pytest.raises(DuplicateLabel, match="duplicate factor names \\['A'\\]"):
        normalize_problem(ProblemSpec((a, b, a)))
    # a repeated name is refused even on a trivial factor that would be elided
    c = make_factor("C", ["1"])
    with pytest.raises(DuplicateLabel):
        normalize_problem(ProblemSpec((a, b, c, c)))


def test_validate_idempotent():
    f = make_factor("A", ["2/3", "1/3"])
    assert validate_factor(validate_factor(f)) == validate_factor(f)


def test_one_dimensional_factor_elided():
    c = make_factor("C", ["1"])
    a = make_factor("A", ["3/5", "2/5"])
    p = normalize_problem(ProblemSpec((c, a)))
    assert tuple(f.name for f in p.factors) == ("A",)
    with pytest.raises(DegenerateProblem):
        decompose(p)


def test_standard_case_sorted_descending():
    a = make_factor("A", ["1/10", "3/5", "3/10"], labels=["x", "y", "z"])
    b = make_factor("B", ["3/5", "2/5"])
    p = normalize_problem(ProblemSpec((a, b)))
    for f in p.factors:
        masses = [atom.mass for atom in f.atoms]
        assert masses == sorted(masses, reverse=True)


def test_normalize_permutation_invariant():
    a = make_factor("A", ["3/5", "3/10", "1/10"])
    b = make_factor("B", ["2/5", "3/5"])
    assert normalize_problem(ProblemSpec((a, b))) == normalize_problem(
        ProblemSpec((b, a))
    )


def test_parse_rational_rejects_decimals():
    with pytest.raises(ValidationError):
        parse_rational("0.5")
    assert parse_rational("3/5") == Fraction(3, 5)
    assert parse_rational(2) == Fraction(2)


def test_format_rational():
    assert format_rational(Fraction(4, 5)) == "4/5"
    assert format_rational(Fraction(3)) == "3"


def test_json_round_trip():
    obj = {
        "factors": [
            {"name": "A",
             "atoms": [{"label": "a1", "mass": "1/2", "isolated": False}],
             "diffuse_mass": "1/2",
             "diffuse_state_is_trace": False},
            {"name": "B",
             "atoms": [{"label": "b1", "mass": "2/5", "isolated": True},
                       {"label": "b2", "mass": "3/5"}]},
        ],
        "tail": {"explicit_deficits": ["1/16"], "remainder_sum_lower_bound": "1/32"},
    }
    assert problem_from_json(obj) == ProblemSpec(
        (
            make_factor("A", ["1/2"], isolated=[False], diffuse="1/2", trace=False),
            make_factor("B", ["2/5", "3/5"]),
        ),
        tail=TailSpec((Fraction(1, 16),), Fraction(1, 32)),
    )


def test_tail_inf_round_trip():
    obj = {
        "factors": [
            {"name": "A", "atoms": [{"label": "a1", "mass": "1/2"},
                                    {"label": "a2", "mass": "1/2"}]},
            {"name": "B", "atoms": [{"label": "b1", "mass": "1/2"},
                                    {"label": "b2", "mass": "1/2"}]},
        ],
        "tail": {"explicit_deficits": ["1/4"], "remainder_sum_lower_bound": "inf"},
    }
    assert problem_from_json(obj) == ProblemSpec(
        (make_factor("A", ["1/2", "1/2"]), make_factor("B", ["1/2", "1/2"])),
        tail=TailSpec((Fraction(1, 4),), None),
    )


def test_pure_diffuse_factor_legal():
    f = validate_factor(make_factor("A", [], diffuse=1))
    assert f.dimension == 1
    assert not f.is_one_dimensional
