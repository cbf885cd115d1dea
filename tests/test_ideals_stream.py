"""`freeprod ideals` streams the lattice: the same bytes as serializing
``ideals_to_json`` whole, in bounded memory."""

import contextlib
import io
import json
import os
import sys
import tempfile
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeprod.cli import run
from freeprod.engine import decompose, ideal_lattice, ideals_to_json, write_ideals
from freeprod.errors import LimitExceeded
from freeprod.model import load_problem, normalize_problem


def lattice_problem(summand_masses, character_masses, den):
    """Factor A against B = {1 - 1/den, 1/den}: only the pairs (a, b0) fit.

    An isolated atom of mass above 1/den is a summand; an atom of mass
    exactly 1/den (deficit 1) or a non-isolated one is a character.
    """
    atoms = [{"label": f"s{i}", "mass": f"{m}/{den}"}
             for i, m in enumerate(summand_masses)]
    atoms += [{"label": f"k{j}", "mass": f"{m}/{den}", "isolated": m == 1}
              for j, m in enumerate(character_masses)]
    used = sum(summand_masses) + sum(character_masses)
    return {"factors": [
        {"name": "A", "atoms": atoms, "diffuse_mass": f"{den - used}/{den}"},
        {"name": "B", "atoms": [{"label": "b0", "mass": f"{den - 1}/{den}"},
                                {"label": "b1", "mass": f"1/{den}"}]},
    ]}


TAIL_PROBLEM = {
    "factors": [
        {"name": "F1", "atoms": [{"label": "a", "mass": "1/2"}],
         "diffuse_mass": "1/2"},
        {"name": "F2", "atoms": [{"label": "b", "mass": "3/4"},
                                 {"label": "c", "mass": "1/4"}]},
    ],
    "tail": {
        "explicit_deficits": ["1/16", "1/32"],
        "remainder_sum_lower_bound": "1/32",
    },
}


@st.composite
def lattice_problems(draw):
    s, c = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    den = draw(st.integers(120, 600))
    summands = draw(st.lists(st.integers(2, den // 12), min_size=s, max_size=s))
    characters = draw(st.lists(st.integers(1, den // 12), min_size=c, max_size=c))
    return (s, c), lattice_problem(summands, characters, den)


def _cli(path, fmt):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["ideals", path, "--format", fmt])
    return code, out.getvalue(), err.getvalue()


def _assert_cli_prints(path, whole):
    assert _cli(path, "json") == (
        0, json.dumps(whole, indent=2, ensure_ascii=False) + "\n", "")
    text = f"ideal_count={whole['ideal_count']}\n"
    text += "".join(f"{item}\n" for item in whole["ideals"])
    assert _cli(path, "text") == (0, text, "")


def _problem_report(tmp, obj):
    path = os.path.join(tmp, "problem.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path, decompose(normalize_problem(load_problem(path)))


def _assert_streams_whole_lattice(obj, shape=None):
    with tempfile.TemporaryDirectory() as tmp:
        path, report = _problem_report(tmp, obj)
        if shape is not None:
            assert (len(report.summands), len(report.characters)) == shape
        _assert_cli_prints(path, ideals_to_json(report))


def _lattice_by_definition(report):
    """The ``ideals_to_json`` dict built straight from the definition: per
    killed-summand mask the set bits, and unit traces summed bit by bit."""
    gammas = [g for _, g in report.summands]
    c = len(report.characters)
    parts = ["zero"] + [[j for j in range(c) if f >> j & 1] for f in range(2**c)]
    ideals = []
    for mask in range(2 ** len(gammas)):
        killed = [i for i in range(len(gammas)) if mask >> i & 1]
        trace = sum((gammas[i] for i in killed), Fraction(0))
        units = [trace, trace + report.r0_trace]
        for j, part in enumerate(parts):
            unit = units[j] if j < 2 else None
            ideals.append({
                "killed_summands": killed,
                "character_part": part,
                "unital": unit is not None,
                "unit_trace": None if unit is None else (
                    str(unit.numerator) if unit.denominator == 1
                    else f"{unit.numerator}/{unit.denominator}"),
            })
    return {"ideal_count": len(ideals), "ideals": ideals}


@pytest.mark.parametrize("obj, shape", [
    # 2520 = 2^3 3^2 5 7, so the traces reduce to many denominators
    (lattice_problem(list(range(2, 14)), [1], 2520), (12, 1)),
    (lattice_problem([2, 3, 5, 7, 11, 13, 17, 19, 23], [1, 4, 1], 997), (9, 3)),
    (lattice_problem(list(range(3, 29, 2)), [], 2520), (13, 0)),
    (lattice_problem([], [1, 2, 1, 3], 997), (0, 4)),
    (TAIL_PROBLEM, None),
])
def test_ideals_match_lattice_built_from_definition(obj, shape):
    with tempfile.TemporaryDirectory() as tmp:
        path, report = _problem_report(tmp, obj)
        if shape is not None:
            assert (len(report.summands), len(report.characters)) == shape
        _assert_cli_prints(path, _lattice_by_definition(report))


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="the interpreter has no digit limit")
def test_unit_traces_with_too_long_common_denominator_are_refused():
    # two summands whose weights have coprime ~503-digit denominators: each
    # prints under a 640-digit limit, but their common denominator does not
    atoms = [{"label": f"a{i}", "mass": f"{d // 3}/{d}", "isolated": True}
             for i, d in enumerate((10**500 + 1, 10**500 + 3))]
    used = sum(Fraction(a["mass"]) for a in atoms)
    obj = {"factors": [
        {"name": "A", "atoms": atoms, "diffuse_mass": str(1 - used)},
        {"name": "B", "atoms": [{"label": "b0", "mass": "996/997"},
                                {"label": "b1", "mass": "1/997"}]},
    ]}
    with tempfile.TemporaryDirectory() as tmp:
        _, report = _problem_report(tmp, obj)
    assert len(report.summands) == 2
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        for fmt in ("json", "text"):
            out = io.StringIO()
            with pytest.raises(LimitExceeded, match="common denominator of more than 640"):
                write_ideals(report, out, fmt)
            assert out.getvalue() == ""
        with pytest.raises(LimitExceeded, match="common denominator of more than 640"):
            ideal_lattice(report)
    finally:
        sys.set_int_max_str_digits(limit)


@settings(max_examples=80, deadline=None)
@given(lattice_problems())
def test_streamed_ideals_match_whole_serialization(case):
    shape, obj = case
    _assert_streams_whole_lattice(obj, shape)


def test_streamed_ideals_match_on_tail_report():
    _assert_streams_whole_lattice(TAIL_PROBLEM)


def test_streamed_ideals_match_on_empty_lists():
    for shape in ((0, 0), (0, 2), (2, 0)):
        obj = lattice_problem(list(range(2, 2 + shape[0])), [1] * shape[1], 997)
        _assert_streams_whole_lattice(obj, shape)


def test_streaming_keeps_memory_bounded(tmp_path):
    # 13 summands, 3 characters: 2^13 * 9 = 73728 ideals, about 15 MB of
    # JSON.  Holding the lattice whole takes over 100 MB.
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(lattice_problem(list(range(2, 15)), [1, 1, 2], 997)))
    for fmt in ("json", "text"):
        with open(os.devnull, "w", encoding="utf-8") as sink:
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(sink):
                    assert run(["ideals", str(path), "--format", fmt]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < 2 * 2**20, f"{fmt}: peak {peak} bytes"
