"""Fuzz the CLI's inputs: every call gives exit 0, 1 or 2, never a crash.

JSON inputs are small (at most 3 factors of at most 4 atoms, or 3 matrix
blocks) so that a valid one is answered in milliseconds.  Each starts as a
valid problem or conjecture document, or as any small JSON value; then one
of its fields may be replaced by any JSON value, and its text may be
truncated or have one character replaced.  The analytic commands
(``two-proj``, ``moments``, ``mc``) get drawn option values instead; ``mc``
stays at dim <= 24 and at most 2 trials.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeprod.cli import run

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-2, 2)
    | st.floats(allow_nan=False, allow_infinity=False, width=16)
    | st.sampled_from(["0", "1", "1/2", "-1/2", "3/2", "1/0", "0.5", "inf", "x"])
    | st.text(max_size=3)
)
any_json = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def unit_partitions(draw, parts):
    """``parts`` positive rationals "k/12" summing to 1."""
    cuts = sorted(draw(st.lists(st.integers(1, 11), min_size=parts - 1,
                                max_size=parts - 1, unique=True)))
    bounds = [0] + cuts + [12]
    return [f"{b - a}/12" for a, b in zip(bounds, bounds[1:])]


@st.composite
def factors(draw, name):
    masses = draw(st.integers(1, 4).flatmap(unit_partitions))
    factor = {"name": name}
    if len(masses) > 1 and draw(st.booleans()):
        factor["diffuse_mass"] = masses.pop()
        factor["diffuse_state_is_trace"] = draw(st.booleans())
    factor["atoms"] = [
        {"label": f"{name.lower()}{i}", "mass": m, "isolated": draw(st.booleans())}
        for i, m in enumerate(masses)
    ]
    return factor


@st.composite
def problems(draw):
    names = draw(st.permutations(["A", "B", "C"]))[: draw(st.integers(1, 3))]
    if draw(st.integers(0, 9)) == 0:
        names[-1] = names[0]
    problem = {"factors": [draw(factors(name)) for name in names]}
    if draw(st.booleans()):
        problem["tail"] = {
            "explicit_deficits": draw(st.lists(st.sampled_from(["0", "1/4", "1/2"]),
                                               max_size=3)),
            "remainder_sum_lower_bound": draw(st.sampled_from(["inf", "0", "1/3", "2"])),
        }
    return problem


@st.composite
def algebras(draw):
    sizes = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    weights = draw(unit_partitions(sum(sizes)))
    blocks = []
    for size in sizes:
        blocks.append({"size": size, "weights": weights[:size]})
        weights = weights[size:]
    return {"blocks": blocks}


def _paths(value, path=()):
    """Every key path into a JSON value, the empty path first."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def file_texts(draw, documents):
    """A document's JSON text after up to one field and one text mutation."""
    doc = draw(documents | any_json)
    if draw(st.booleans()):
        paths = list(_paths(doc))
        path = paths[draw(st.integers(0, len(paths) - 1))]
        if not path:
            doc = draw(any_json)
        else:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = draw(any_json)
    text = json.dumps(doc)
    how = draw(st.sampled_from(["as-is", "as-is", "truncate", "replace"]))
    if how == "as-is" or not text:
        return text
    i = draw(st.integers(0, len(text) - 1))
    if how == "truncate":
        return text[:i]
    return text[:i] + draw(st.sampled_from('[]{}",:0-/ a\\')) + text[i + 1:]


COMMANDS = [
    (["analyze"], problems()),
    (["analyze", "--format", "json"], problems()),
    (["ideals"], problems()),
    (["conjecture", "--kind", "abelian"],
     st.fixed_dictionaries({"X": factors("X"), "Y": factors("Y")})),
    (["conjecture", "--kind", "matrix"],
     st.fixed_dictionaries({"A": algebras(), "B": algebras()})),
]


@pytest.mark.parametrize("argv, documents", COMMANDS,
                         ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_cli_json_inputs_never_crash(tmp_path_factory, argv, documents):
    path = tmp_path_factory.mktemp("fuzz") / "input.json"

    @settings(max_examples=150, deadline=None)
    @given(file_texts(documents))
    def check(text):
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = run(argv + [str(path)])
        except SystemExit as exc:  # argparse's usage error, and nothing else
            code = exc.code
            assert code == 2
        assert code in (0, 1, 2)
        if code == 1:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert out.getvalue() == ""

    check()


numbers = (
    st.fractions(min_value=Fraction(1, 20), max_value=Fraction(19, 20),
                 max_denominator=40).map(str)
    | st.decimals(min_value=0, max_value=1, places=3,
                  allow_nan=False, allow_infinity=False).map(str)
    | st.sampled_from(["0", "1", "-1", "1/2", "999/1000", "1/1000", "3/2", "-1/2",
                       "1/0", "0/0", "1e-3", "1e-400", "1e-5000", "nan", "inf", "x",
                       "", "1/", "0x1"])
)
max_ns = st.integers(-2, 10).map(str) | st.sampled_from(["127", "128", "129", "x", "1.5"])


def mostly(valid, invalid):
    """A valid value three draws in four, else an invalid one."""
    return st.sampled_from([valid] * 3 + [invalid]).flatmap(st.sampled_from)


@st.composite
def analytic_argvs(draw, command, out_path):
    argv = [command, f"--alpha={draw(numbers)}", f"--beta={draw(numbers)}"]
    if command == "mc":
        argv += [f"--dim={draw(mostly([16, 17, 24], [-1, 15]))}",
                 f"--trials={draw(mostly([1, 2], [-1, 0]))}",
                 f"--seed={draw(mostly([0, 2**64], [-1]))}"]
        if draw(st.booleans()):
            argv.append(f"--eig-csv={out_path}")
        return argv
    if command == "moments":
        if draw(st.booleans()):
            argv.append(f"--max-n={draw(max_ns)}")
        if draw(st.booleans()):
            argv.append("--compare-law")
    elif draw(st.booleans()):
        argv.append(f"--density-csv={out_path}")
    return argv + draw(st.sampled_from([[], ["--format=text"], ["--format=json"]]))


@pytest.mark.parametrize("command", ["two-proj", "moments", "mc"])
def test_cli_analytic_options_never_crash(tmp_path_factory, command):
    out_path = tmp_path_factory.mktemp("fuzz") / "out.csv"

    @settings(max_examples=150, deadline=None)
    @given(analytic_argvs(command, out_path))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = run(argv)
        except SystemExit as exc:  # argparse's usage error, and nothing else
            code = exc.code
            assert code == 2
        assert code in (0, 1, 2)
        if code == 1 and err.getvalue():
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")
            assert out.getvalue() == ""
        elif code != 2:
            # a report; mc exits 1 after printing one that fails its gates
            assert code == 0 or command == "mc"
            assert err.getvalue() == "" and out.getvalue()

    check()
