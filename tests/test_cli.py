import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from freeprod.cli import run

WORKED = {
    "factors": [
        {
            "name": "A",
            "atoms": [
                {"label": "p1", "mass": "3/5"},
                {"label": "p2", "mass": "3/10"},
                {"label": "p3", "mass": "1/10"},
            ],
        },
        {
            "name": "B",
            "atoms": [
                {"label": "q1", "mass": "2/5"},
                {"label": "q2", "mass": "3/5"},
            ],
        },
    ]
}

TWO_PROJ_PROBLEM = {
    "factors": [
        {
            "name": "A",
            "atoms": [
                {"label": "p1", "mass": "1/2"},
                {"label": "p2", "mass": "1/2"},
            ],
        },
        {
            "name": "B",
            "atoms": [
                {"label": "q1", "mass": "7/10"},
                {"label": "q2", "mass": "3/10"},
            ],
        },
    ]
}


@pytest.fixture
def problem_file(tmp_path):
    def write(obj, name="problem.json"):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return write


def _no_floats(obj):
    if isinstance(obj, float):
        return False
    if isinstance(obj, dict):
        return all(_no_floats(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_no_floats(v) for v in obj)
    return True


def test_analyze_json(problem_file, capsys):
    assert run(["analyze", problem_file(WORKED), "--format", "json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["r0_trace"] == "4/5"
    assert obj["summands"] == [{"tuple": {"A": "p1", "B": "q2"}, "gamma": "1/5"}]
    assert obj["verdicts"]["afr_simple"] is False
    assert obj["verdicts"]["stable_rank_one"] == "true"
    assert obj["ideal_count"] == 6
    assert _no_floats(obj)


def test_analyze_text(problem_file, capsys):
    assert run(["analyze", problem_file(WORKED)]) == 0
    out = capsys.readouterr().out
    assert "Afr = Afr₀^{r0=4/5} ⊕ C^{1/5}_{p1∧q2}" in out
    assert "ideal_count=6" in out


def test_analyze_two_projection_redirect(problem_file, capsys):
    assert run(["analyze", problem_file(TWO_PROJ_PROBLEM)]) == 1
    err = capsys.readouterr().err
    assert "two-proj" in err


def test_analyze_invalid_masses(problem_file, capsys):
    bad = {"factors": [{"name": "A", "atoms": [{"label": "p", "mass": "1/2"}]}]}
    assert run(["analyze", problem_file(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_missing_file(capsys):
    assert run(["analyze", "/nonexistent/problem.json"]) == 1
    assert "error:" in capsys.readouterr().err


def _worked_with(factor):
    return {"factors": WORKED["factors"] + [factor]}


@pytest.mark.parametrize("argv, content", [
    (["conjecture", "--kind", "abelian"], json.dumps({"X": WORKED["factors"][1]})),
    (["conjecture", "--kind", "abelian"], '{"X": '),
    (["analyze"], json.dumps(_worked_with({"name": "C", "atoms": [
        {"label": "r1", "mass": "1/2"}, {"label": "r2"}]}))),
    (["analyze"], json.dumps(_worked_with({"name": "C", "atoms": [
        {"label": "r1", "mass": "1/2"},
        {"label": "r2", "mass": "1/2", "isolated": "false"}]}))),
    (["analyze"], json.dumps(_worked_with({"name": "C", "atoms": [
        {"label": "r1", "mass": True}]}))),
    (["analyze"], json.dumps(_worked_with({"name": "C", "atoms": {
        "label": "r1", "mass": "1"}}))),
    (["conjecture", "--kind", "matrix"], json.dumps({"A": {}, "B": {}})),
    (["conjecture", "--kind", "matrix"], json.dumps({
        "A": {"blocks": [{"size": 1.5, "weights": ["1/2"]},
                         {"size": 1, "weights": ["1/2"]}]},
        "B": {"blocks": [{"size": 1, "weights": ["1/2"]},
                         {"size": 1, "weights": ["1/2"]}]},
    })),
    (["analyze"], "[" * 200_000),
    (["conjecture", "--kind", "matrix"], '{"A": ' + "[" * 200_000),
    (["ideals"], b'{"factors": [{"name": "\xff"}]}'),
    (["conjecture", "--kind", "abelian"], b"\xfe\xff"),
], ids=["missing-Y", "malformed-json", "atom-without-mass", "isolated-not-boolean",
        "boolean-mass", "atoms-not-array", "matrix-without-blocks",
        "block-size-not-integer", "nested-arrays", "nested-arrays-in-object",
        "not-utf8", "not-utf8-bom"])
def test_bad_json_input_is_one_error_line(tmp_path, capsys, argv, content):
    path = tmp_path / "input.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    assert run(argv + [str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err


def test_duplicate_factor_names_refused(problem_file, capsys):
    # with two factors named A the JSON report kept one choice per name
    problem = {"factors": [
        {"name": "A", "atoms": [{"label": "u", "mass": "1/2"},
                                {"label": "v", "mass": "1/2"}]},
        {"name": "B", "atoms": [{"label": "p", "mass": "3/5"},
                                {"label": "q", "mass": "2/5"}]},
        {"name": "A", "atoms": [{"label": "x", "mass": "2/3"},
                                {"label": "y", "mass": "1/3"}]},
    ]}
    path = problem_file(problem)
    for argv in (["analyze", path], ["analyze", "--format", "json", path],
                 ["ideals", path]):
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: duplicate factor names ['A']\n"


def test_moments_negative_max_n_refused(capsys):
    for extra in ([], ["--compare-law"], ["--format", "json"]):
        assert run(["moments", "--alpha", "7/10", "--beta", "3/5",
                    "--max-n", "-1"] + extra) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n must be nonnegative\n"
    # the domain check still comes first, as for every other --max-n
    assert run(["moments", "--alpha", "2", "--beta", "3/5", "--max-n", "-1"]) == 1
    assert capsys.readouterr().err == "error: alpha and beta must lie in (0, 1)\n"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        run(["two-proj", "--alpha", "7/10"])  # --beta missing
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run(["no-such-command"])
    assert exc.value.code == 2


def test_two_proj_json_and_csv(tmp_path, capsys):
    csv = tmp_path / "density.csv"
    assert run([
        "two-proj", "--alpha", "0.7", "--beta", "3/5",
        "--density-csv", str(csv), "--format", "json",
    ]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["atom_at_zero"] == "2/5"
    assert obj["atom_at_one"] == "3/10"
    assert obj["support"][0] == pytest.approx(0.011001113587126909, abs=1e-12)
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,density"
    assert len(lines) == 1025


def test_moments_json(capsys):
    assert run([
        "moments", "--alpha", "7/10", "--beta", "3/5",
        "--max-n", "4", "--compare-law", "--format", "json",
    ]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["wedge_trace"] == "3/10"
    assert obj["moments"][1]["exact"] == "21/50"
    assert all(row["abs_error"] < 1e-8 for row in obj["moments"])


def test_ideals_json(problem_file, capsys):
    assert run(["ideals", problem_file(WORKED)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["ideal_count"] == 6
    assert len(obj["ideals"]) == 6
    assert _no_floats(obj)


def test_mc_exit_codes(capsys):
    assert run([
        "mc", "--alpha", "7/10", "--beta", "3/5",
        "--dim", "128", "--seed", "0", "--trials", "2",
    ]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["pass"] is True
    # an undersized dimension is a domain error, not a crash
    assert run(["mc", "--alpha", "1/2", "--beta", "1/2", "--dim", "8"]) == 1


def test_mc_pinch_counts_no_continuous_eigenvalue_as_the_atom(capsys):
    # alpha + beta = 1.  With the draws of the dim x dim sampler this seed
    # put one trial's top continuous eigenvalue within 1e-8 of 1 (sin theta
    # = 6.9e-5), and a cutoff on the eigenvalue counted it as an atom; see
    # test_rmt.py for such an eigenvalue with the current draws.
    assert run([
        "mc", "--alpha", "207/634", "--beta", "427/634", "--dim", "512",
        "--trials", "4", "--seed", "730169922",
    ]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["trial_atom_one_counts"] == [0, 0, 0, 0]
    assert obj["pass"] is True


def test_mc_eig_csv(tmp_path, capsys):
    csv = tmp_path / "eigs.csv"
    assert run([
        "mc", "--alpha", "1/2", "--beta", "1/2",
        "--dim", "32", "--trials", "2", "--eig-csv", str(csv),
    ]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "trial,index,eigenvalue"
    assert len(lines) == 1 + 2 * 32


def test_mc_eig_csv_samples_each_trial_once(tmp_path, capsys, monkeypatch):
    from freeprod import rmt

    calls = []
    spectrum = rmt._spectrum

    def counting_spectrum(*args):
        calls.append(args[:3])
        return spectrum(*args)

    monkeypatch.setattr(rmt, "_spectrum", counting_spectrum)
    csv = tmp_path / "eigs.csv"
    assert run([
        "mc", "--alpha", "7/10", "--beta", "3/5", "--dim", "48",
        "--trials", "3", "--seed", "5", "--eig-csv", str(csv),
    ]) == 0
    assert len(calls) == 3
    monkeypatch.undo()
    spectra = rmt.trial_spectra(Fraction(7, 10), Fraction(3, 5), 48, 5, 3)
    expected = "".join(line + "\n" for line in rmt.eigenvalue_csv_rows(spectra))
    assert csv.read_text() == expected


def test_conjecture_abelian(problem_file, capsys):
    path = problem_file({
        "X": {"name": "X", "atoms": [{"label": "x1", "mass": "3/5"},
                                     {"label": "x2", "mass": "2/5"}]},
        "Y": {"name": "Y", "atoms": [{"label": "y1", "mass": "1/2"},
                                     {"label": "y2", "mass": "1/2"}]},
    }, "conj.json")
    assert run(["conjecture", "--kind", "abelian", path]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "proved-nonsimple"
    assert obj["violations"][0]["lhs"] == "11/10"


def test_conjecture_matrix(problem_file, capsys):
    path = problem_file({
        "A": {"blocks": [{"size": 1, "weights": ["1/2"]},
                         {"size": 1, "weights": ["1/2"]}]},
        "B": {"blocks": [{"size": 2, "weights": ["1/8", "3/8"]},
                         {"size": 2, "weights": ["1/8", "3/8"]}]},
    }, "conj.json")
    assert run(["conjecture", "--kind", "matrix", path]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "conjectured-simple"


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert "freeprod" in capsys.readouterr().out


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("analyze", "two-proj", "moments", "ideals", "mc", "conjecture"):
        assert name in out


def test_infinite_problem_via_cli(problem_file, capsys):
    obj = {
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
    assert run(["analyze", problem_file(obj), "--format", "json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["infinite"] is True
    assert rep["r0_trace"] == "7/8"
    assert rep["gamma0_as_printed"] == "1/8"
    assert len(rep["characters"]) == 1


SRC = str(Path(__file__).resolve().parents[1] / "src")


def _run_python(code, *args):
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )


def test_exact_commands_do_not_load_numpy(problem_file, tmp_path):
    problem = problem_file(WORKED)
    conj = problem_file({"X": WORKED["factors"][0], "Y": WORKED["factors"][1]}, "conj.json")
    code = """
import sys
from fractions import Fraction
from freeprod.cli import run
from freeprod.twoproj import certify_law
problem, conj, csv = sys.argv[1:]
for argv in (["analyze", problem], ["analyze", problem, "--format", "json"],
             ["ideals", problem], ["conjecture", "--kind", "abelian", conj],
             ["moments", "--alpha", "7/10", "--beta", "3/5"],
             ["moments", "--alpha", "7/10", "--beta", "3/5", "--compare-law"],
             ["two-proj", "--alpha", "7/10", "--beta", "3/5"],
             ["two-proj", "--alpha", "7/10", "--beta", "3/5", "--density-csv", csv]):
    assert run(argv) == 0, argv
assert certify_law(Fraction(7, 10), Fraction(3, 5)) < 1e-15
assert "numpy" not in sys.modules
print("numpy not loaded")
"""
    proc = _run_python(code, problem, conj, str(tmp_path / "density.csv"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("numpy not loaded\n")


@pytest.mark.parametrize("argvs, certify, absent", [
    ([["two-proj", "--alpha", "7/10", "--beta", "3/5"],
      ["two-proj", "--alpha", "7/10", "--beta", "3/5", "--density-csv", "@csv"],
      ["moments", "--alpha", "7/10", "--beta", "3/5", "--compare-law"]],
     True, ["freeprod.engine", "freeprod.conjectures", "numpy"]),
    ([["analyze", "@problem"], ["ideals", "@problem"],
      ["conjecture", "--kind", "abelian", "@conj"]],
     False, ["freeprod.nc", "freeprod.twoproj"]),
], ids=["analytic", "structure"])
def test_each_command_loads_only_its_layers(problem_file, tmp_path, argvs, certify, absent):
    paths = {
        "@problem": problem_file(WORKED),
        "@conj": problem_file({"X": WORKED["factors"][0], "Y": WORKED["factors"][1]},
                              "conj.json"),
        "@csv": str(tmp_path / "density.csv"),
    }
    code = """
import json, sys
from fractions import Fraction
from freeprod.cli import run
argvs, certify, absent = (json.loads(a) for a in sys.argv[1:])
for argv in argvs:
    assert run(argv) == 0, argv
if certify:
    from freeprod.twoproj import certify_law
    assert certify_law(Fraction(7, 10), Fraction(3, 5)) < 1e-15
print(json.dumps(sorted(name for name in absent if name in sys.modules)))
"""
    argvs = [[paths.get(a, a) for a in argv] for argv in argvs]
    proc = _run_python(code, json.dumps(argvs), json.dumps(certify), json.dumps(absent))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_commands_in_sequence_match_fresh_processes(problem_file, tmp_path, capsys):
    # one process runs every subcommand, each as the first call of its kind
    # and again later; every call must answer as a fresh process does
    problem = problem_file(WORKED)
    refused = problem_file(TWO_PROJ_PROBLEM, "two_proj.json")
    conj = problem_file({"X": WORKED["factors"][0], "Y": WORKED["factors"][1]}, "conj.json")
    matrix = problem_file({
        "A": {"blocks": [{"size": 1, "weights": ["1/2"]}, {"size": 1, "weights": ["1/2"]}]},
        "B": {"blocks": [{"size": 2, "weights": ["1/8", "3/8"]},
                         {"size": 2, "weights": ["1/8", "3/8"]}]},
    }, "matrix.json")
    mc = ["mc", "--alpha", "7/10", "--beta", "3/5", "--dim", "32", "--trials", "2"]
    sequence = [
        ["--version"],
        ["two-proj", "--alpha", "7/10", "--beta", "3/5"],
        ["analyze", problem],
        ["moments", "--alpha", "7/10", "--beta", "3/5", "--compare-law"],
        ["ideals", problem],
        ["conjecture", "--kind", "abelian", conj],
        mc,
        ["two-proj", "--alpha", "7/10"],
        ["analyze", refused],
        ["two-proj", "--alpha", "8/35", "--beta", "1e-400", "--density-csv", "@/density.csv"],
        ["moments", "--alpha", "120/331", "--beta", "37/58", "--max-n", "12", "--format", "json"],
        ["analyze", problem, "--format", "json"],
        ["ideals", problem, "--format", "text"],
        ["conjecture", "--kind", "matrix", matrix],
        mc + ["--seed", "3", "--eig-csv", "@/eigs.csv"],
        ["two-proj", "--alpha", "7/10", "--beta", "3/5"],
        ["analyze", refused],
        ["moments", "--alpha", "7/10", "--beta", "3/5", "--max-n", "-1"],
        ["no-such-command"],
        ["--version"],
    ]
    code = "import sys\nfrom freeprod.cli import main\nsys.argv[0] = 'freeprod'\nmain()"
    for i, argv in enumerate(sequence):
        outputs = []
        for side in ("in-process", "fresh"):
            folder = tmp_path / f"{side}-{i}"
            folder.mkdir()
            args = [str(folder) + a[1:] if a.startswith("@/") else a for a in argv]
            if side == "fresh":
                proc = _run_python(code, *args)
                result = (proc.returncode, proc.stdout, proc.stderr)
            else:
                try:
                    rc = run(args)
                except SystemExit as exc:
                    rc = exc.code
                captured = capsys.readouterr()
                result = (rc, captured.out, captured.err)
            files = {p.name: p.read_bytes() for p in folder.iterdir()}
            outputs.append((result, files))
        assert outputs[0] == outputs[1], argv


def test_mc_without_numpy_is_one_error_line():
    # None in sys.modules makes `import numpy` fail as on a bare install
    code = ("import sys\nsys.modules['numpy'] = None\nfrom freeprod.cli import main\n"
            "sys.argv[0] = 'freeprod'\nmain()")
    proc = _run_python(code, "mc", "--alpha", "7/10", "--beta", "3/5")
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: mc needs numpy, which is not installed\n"


def test_unallocatable_mc_dim_is_one_error_line():
    import resource

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    # The two dim x 333333 Ginibre draws need 2.43 TiB each.
    code = "import sys\nfrom freeprod.cli import main\nsys.argv[0] = 'freeprod'\nmain()"
    proc = subprocess.run(
        [sys.executable, "-c", code, "mc", "--alpha", "1/2", "--beta", "1/3",
         "--dim", "1000000", "--trials", "1"],
        capture_output=True, text=True, timeout=120, preexec_fn=cap_address_space,
        env=dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1"),
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out of memory")


@pytest.mark.parametrize("alpha, extra", [
    ("1/1" + "0" * 4000, []),
    ("1/1" + "0" * 40, ["--max-n", "128", "--compare-law"]),
], ids=["4001-digit-denominator", "41-digit-denominator-n128"])
def test_moments_past_the_integer_digit_limit_is_one_error_line(alpha, extra):
    # den(m_n) divides (den alpha * den beta)^n, so these moments could not
    # be printed; they are refused before the pass starts.
    code = "import sys\nfrom freeprod.cli import main\nsys.argv[0] = 'freeprod'\nmain()"
    proc = _run_python(code, "moments", "--alpha", alpha, "--beta", "1/3", *extra)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: moments to n=")


@pytest.mark.parametrize("alpha, beta", [
    ("1/1" + "0" * 400, "1/3" + "0" * 400),
    (str(1 - Fraction(1, 10**400)), str(1 - Fraction(3, 10**400))),
], ids=["near-0", "near-1"])
def test_law_whose_support_underflows_is_answered(alpha, beta):
    # the endpoints, about 5.4e-401 and 7.5e-400, round to 0.0; b used to
    # round to 0 first and a = (alpha - beta)^2 / b divided by it
    code = "import sys\nfrom freeprod.cli import main\nsys.argv[0] = 'freeprod'\nmain()"
    proc = _run_python(code, "two-proj", "--alpha", alpha, "--beta", beta, "--format", "json")
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["support"] == [0.0, 0.0]
    proc = _run_python(code, "moments", "--alpha", alpha, "--beta", beta,
                       "--max-n", "1", "--compare-law", "--format", "json")
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(proc.stdout)["moments"]
    assert all(row["abs_error"] <= 1e-15 for row in rows)


def test_law_whose_support_is_one_point_writes_its_density_csv(tmp_path, capsys):
    # at beta <= 1e-34 the rounded a came out one ulp above b, and the
    # density at t = a was refused as outside [a, b]
    csv = tmp_path / "density.csv"
    assert run(["two-proj", "--alpha", "8/35", "--beta", "1e-400",
                "--density-csv", str(csv)]) == 0
    assert capsys.readouterr().err == ""
    assert len(csv.read_text().splitlines()) == 1025


@pytest.mark.parametrize("argv", [
    ["two-proj", "--alpha", "1e-5000", "--beta", "1/3"],
    ["moments", "--alpha", "1e-5000", "--beta", "1/3", "--max-n", "0"],
], ids=["two-proj", "moments"])
def test_number_past_the_integer_digit_limit_is_a_usage_error(argv):
    # Fraction("1e-5000") builds 10**5000 without converting a string, so
    # only printing it would hit the limit; it is refused at parse time.
    code = "import sys\nfrom freeprod.cli import main\nsys.argv[0] = 'freeprod'\nmain()"
    proc = _run_python(code, *argv)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "cannot parse '1e-5000' as a number" in proc.stderr.splitlines()[-1]


def test_deep_problem_analyzes_without_recursion(problem_file):
    deep = {"factors": [
        {"name": f"F{i}", "atoms": [{"label": "a", "mass": "999999/1000000"},
                                    {"label": "b", "mass": "1/1000000"}]}
        for i in range(1100)
    ]}
    code = "import sys\nfrom freeprod.cli import main\nsys.argv[0] = 'freeprod'\nmain()"
    proc = _run_python(code, "analyze", problem_file(deep), "--format", "json")
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert len(rep["summands"]) == 1
    assert len(rep["summands"][0]["tuple"]) == 1100
    assert rep["summands"][0]["gamma"] == "9989/10000"
    assert rep["characters"] == []
    assert rep["ideal_count"] == 4


def test_ideal_lattice_over_cap_is_refused(problem_file, capsys):
    wide = {"factors": [
        {"name": "A", "atoms": [{"label": f"a{i}", "mass": "1/30"} for i in range(30)]},
        {"name": "B", "atoms": [{"label": "b1", "mass": "29/30"},
                                {"label": "b2", "mass": "1/30"}]},
    ]}
    path = problem_file(wide)
    assert run(["ideals", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "1073741825" in lines[0]
    # analyze still reports the closed-form count
    assert run(["analyze", path]) == 0
    assert "ideal_count=1073741825" in capsys.readouterr().out


def _long_masses(name, den):
    # three atoms, so two such factors are not the two-projection case
    return {"name": name, "atoms": [
        {"label": f"{name.lower()}1", "mass": f"{den - 2}/{den}"},
        {"label": f"{name.lower()}2", "mass": f"1/{den}"},
        {"label": f"{name.lower()}3", "mass": f"1/{den}"},
    ]}


_LONG_X = _long_masses("X", 10**3000)
_LONG_Y = _long_masses("Y", 10**3000 + 3)
_LONG_ALPHA = f"{10**4000}/{10**4000 + 1}"
_LONG_BETA = f"{10**4000 + 2}/{10**4000 + 3}"


@pytest.mark.parametrize("argv", [
    ["analyze", "@problem"],
    ["analyze", "@problem", "--format", "json"],
    ["ideals", "@problem"],
    ["conjecture", "--kind", "abelian", "@conj"],
    ["two-proj", "--alpha", _LONG_ALPHA, "--beta", _LONG_BETA],
    ["moments", "--alpha", _LONG_ALPHA, "--beta", _LONG_BETA, "--max-n", "0"],
], ids=["analyze", "analyze-json", "ideals", "conjecture", "two-proj", "moments"])
def test_result_past_the_integer_digit_limit_is_one_error_line(problem_file, argv):
    # Every input number prints, but a result (a summand weight, an atom
    # pair's mass sum, atom_at_one or the wedge trace) has over 6000 digits.
    files = {
        "@problem": problem_file({"factors": [_LONG_X, _LONG_Y]}),
        "@conj": problem_file({"X": _LONG_X, "Y": _LONG_Y}, "conj.json"),
    }
    code = "import sys\nfrom freeprod.cli import main\nsys.argv[0] = 'freeprod'\nmain()"
    proc = _run_python(code, *(files.get(a, a) for a in argv))
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "more than 4300 digits" in lines[0]


def _mismatched(den_x, den_y):
    # two masses 1/den_x and 1/den_y, as a factor's atoms and as two 1x1 blocks
    factor = {"name": "X", "atoms": [{"label": "x1", "mass": f"1/{den_x}"},
                                     {"label": "x2", "mass": f"1/{den_y}"}]}
    half = {"name": "Y", "atoms": [{"label": "y1", "mass": "1/2"},
                                   {"label": "y2", "mass": "1/2"}]}
    blocks = {"blocks": [{"size": 1, "weights": [f"1/{den_x}"]},
                         {"size": 1, "weights": [f"1/{den_y}"]}]}
    halves = {"blocks": [{"size": 1, "weights": ["1/2"]}, {"size": 1, "weights": ["1/2"]}]}
    return {"factors": [factor, half]}, {"X": factor, "Y": half}, {"A": blocks, "B": halves}


_TOO_LONG = "a rational with more than 4300 digits"


@pytest.mark.parametrize("dens, total", [
    ((3, 3), "2/3"),                      # printable: the message as before
    ((10**3000, 10**3000 + 3), _TOO_LONG),  # the total has about 6000 digits
], ids=["printable", "too-long"])
@pytest.mark.parametrize("argv, which, message", [
    (["analyze", "@file"], 0, "factor 'X': masses sum to {}, not 1"),
    (["conjecture", "--kind", "abelian", "@file"], 1, "factor 'X': masses sum to {}, not 1"),
    (["conjecture", "--kind", "matrix", "@file"], 2, "block weights sum to {}, not 1"),
], ids=["analyze", "abelian", "matrix"])
def test_mass_mismatch_names_the_mismatch(problem_file, dens, total, argv, which, message):
    path = problem_file(_mismatched(*dens)[which])
    code = "import sys\nfrom freeprod.cli import main\nsys.argv[0] = 'freeprod'\nmain()"
    proc = _run_python(code, *(path if a == "@file" else a for a in argv))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: " + message.format(total) + "\n"


def test_negative_seed_is_one_error_line():
    code = "import sys\nfrom freeprod.cli import main\nsys.argv[0] = 'freeprod'\nmain()"
    proc = _run_python(code, "mc", "--alpha", "1/2", "--beta", "1/3", "--dim", "16",
                       "--trials", "1", "--seed", "-1")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: seed must be >= 0\n"


def test_non_integer_thread_count_is_one_error_line():
    code = "import sys\nfrom freeprod.cli import main\nsys.argv[0] = 'freeprod'\nmain()"
    proc = subprocess.run(
        [sys.executable, "-c", code, "mc", "--alpha", "1/2", "--beta", "1/3",
         "--dim", "16", "--trials", "1"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC, FREEPROD_THREADS="abc",
                 OPENBLAS_NUM_THREADS="1"),
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: FREEPROD_THREADS must be an integer, not 'abc'\n"
