"""Command-line front door.

Subcommands: analyze, two-proj, moments, ideals, mc, conjecture.
Exit codes: 0 success, 1 domain error (validation, refusal), 2 usage error.
Reports go to stdout, diagnostics to stderr.  The ``analyze`` and ``ideals``
JSON reports contain rationals as "num/den" strings only, never floats.
Each ``cmd_*`` imports the layers it runs, so a command loads no module it
does not use; only ``mc`` loads numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .errors import FreeprodError, RefusedTwoProjectionCase
from .model import exceeds_digit_limit, format_rational, int_digit_limit


def _analytic_fraction(s: str) -> Fraction:
    """Rational parser for the analytic subcommands; accepts decimals too.

    A value whose numerator or denominator has more digits than the
    interpreter will print (``Fraction("1e-5000")`` builds 10**5000 without
    converting any string) is refused like any other unparsable number.
    """
    try:
        q = Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse {s!r} as a number")
    if exceeds_digit_limit(max(abs(q.numerator), q.denominator)):
        raise argparse.ArgumentTypeError(
            f"cannot parse {s!r} as a number: "
            f"it has more than {int_digit_limit()} digits"
        )
    return q


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freeprod",
        description="Structure calculator and verifier for reduced free products "
        "of abelian algebras with atomic-plus-diffuse states.",
    )
    parser.add_argument("--version", action="version", version=f"freeprod {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("analyze", help="decompose a problem and report verdicts")
    p.add_argument("problem", help="problem JSON file")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("two-proj", help="two free projections: law and structure")
    p.add_argument("--alpha", type=_analytic_fraction, required=True)
    p.add_argument("--beta", type=_analytic_fraction, required=True)
    p.add_argument("--density-csv", metavar="PATH", help="write 1024-row density CSV")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("moments", help="exact alternating moments of (pq)^n")
    p.add_argument("--alpha", type=_analytic_fraction, required=True)
    p.add_argument("--beta", type=_analytic_fraction, required=True)
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--compare-law", action="store_true",
                   help="also print the analytic law's moments and errors")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("ideals", help="list the full ideal lattice")
    p.add_argument("problem", help="problem JSON file")
    p.add_argument("--format", choices=("text", "json"), default="json")

    p = sub.add_parser("mc", help="random-matrix Monte Carlo law verification")
    p.add_argument("--alpha", type=_analytic_fraction, required=True)
    p.add_argument("--beta", type=_analytic_fraction, required=True)
    p.add_argument("--dim", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--eig-csv", metavar="PATH", help="dump pooled eigenvalues as CSV")

    p = sub.add_parser("conjecture", help="simplicity conjecture checkers")
    p.add_argument("--kind", choices=("abelian", "matrix"), required=True)
    p.add_argument("input", help="input JSON file")

    return parser


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, ensure_ascii=False))


def _analyze_text(report) -> None:
    pieces = [f"Afr₀^{{r0={format_rational(report.r0_trace)}}}"]
    for t, g in report.summands:
        wedge = "∧".join(a for _, a in t.choices)
        pieces.append(f"C^{{{format_rational(g)}}}_{{{wedge}}}")
    print("Afr = " + " ⊕ ".join(pieces))
    if report.characters:
        print("characters (boundary tuples):")
        for t in report.characters:
            print(f"  π_{t.label()}")
    v = report.verdicts
    print(f"afr_simple={v.afr_simple} afr0_simple={v.afr0_simple} "
          f"afr00_simple={v.afr00_simple} afr00_nonunital={v.afr00_nonunital}")
    print(f"trace_exists={v.trace_exists} trace_unique={v.trace_unique} "
          f"stable_rank_one={v.stable_rank_one}")
    print(f"ideal_count={report.ideal_count}")
    if report.infinite:
        print(f"gamma0_as_printed={format_rational(report.gamma0_as_printed)}")


def cmd_analyze(args) -> int:
    from .engine import decompose, report_to_json
    from .model import load_problem, normalize_problem

    problem = normalize_problem(load_problem(args.problem))
    report = decompose(problem)
    if args.format == "json":
        _print_json(report_to_json(report))
    else:
        _analyze_text(report)
    return 0


def cmd_two_proj(args) -> int:
    from .twoproj import density_csv_rows, two_projection_structure

    structure = two_projection_structure(args.alpha, args.beta)
    law = structure.law
    obj = {
        "alpha": format_rational(args.alpha),
        "beta": format_rational(args.beta),
        "atom_at_zero": format_rational(law.atom_at_zero),
        "atom_at_one": format_rational(law.atom_at_one),
        "support": [law.support_a, law.support_b],
        "regime": structure.regime.value,
        "wedge_summands": [
            {"wedge": name, "weight": format_rational(w)}
            for name, w in structure.wedge_summands
        ],
        "pinch_at_a": structure.pinch_at_a,
        "pinch_at_b": structure.pinch_at_b,
    }
    if args.density_csv:
        with open(args.density_csv, "w", encoding="utf-8") as fh:
            for line in density_csv_rows(law):
                fh.write(line + "\n")
    if args.format == "json":
        _print_json(obj)
    else:
        print(f"atoms: {format_rational(law.atom_at_zero)} at 0, "
              f"{format_rational(law.atom_at_one)} at 1")
        print(f"support: [{law.support_a:.6f}, {law.support_b:.6f}]  "
              f"pinch_at_a={structure.pinch_at_a} pinch_at_b={structure.pinch_at_b}")
        for name, w in structure.wedge_summands:
            print(f"wedge {name}: weight {format_rational(w)}")
    return 0


def cmd_moments(args) -> int:
    from .nc import alternating_moments, wedge_trace
    from .twoproj import law_moments, two_projection_law

    moments = alternating_moments(args.alpha, args.beta, args.max_n)
    rows = [{"n": n, "exact": format_rational(exact)} for n, exact in enumerate(moments)]
    if args.compare_law:
        law = two_projection_law(args.alpha, args.beta)
        for row, exact, analytic in zip(rows, moments, law_moments(law, args.max_n)):
            row["analytic"] = analytic
            row["abs_error"] = abs(analytic - float(exact))
    obj = {
        "alpha": format_rational(args.alpha),
        "beta": format_rational(args.beta),
        "wedge_trace": format_rational(wedge_trace(args.alpha, args.beta)),
        "moments": rows,
    }
    if args.format == "json":
        _print_json(obj)
    else:
        print(f"wedge trace: {obj['wedge_trace']}")
        for row in rows:
            line = f"n={row['n']}: {row['exact']}"
            if "analytic" in row:
                line += f"  analytic={row['analytic']:.12f}  err={row['abs_error']:.2e}"
            print(line)
    return 0


def cmd_ideals(args) -> int:
    from .engine import decompose, write_ideals
    from .model import load_problem, normalize_problem

    report = decompose(normalize_problem(load_problem(args.problem)))
    write_ideals(report, sys.stdout, args.format)
    return 0


def cmd_mc(args) -> int:
    try:
        from .rmt import eigenvalue_csv_rows, verify_two_projection_law
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        raise FreeprodError("mc needs numpy, which is not installed") from None

    report = verify_two_projection_law(
        args.alpha, args.beta, args.dim, args.seed, args.trials
    )
    if args.eig_csv:
        with open(args.eig_csv, "w", encoding="utf-8") as fh:
            for line in eigenvalue_csv_rows(report.spectra):
                fh.write(line + "\n")
    _print_json(report.to_json())
    return 0 if report.passed else 1


def cmd_conjecture(args) -> int:
    from .conjectures import conjecture_abelian, conjecture_finite_dim, matrix_block_from_json
    from .model import factor_from_json, json_field, load_json

    obj = load_json(args.input)
    what = f"{args.kind} conjecture input"
    if args.kind == "abelian":
        verdict = conjecture_abelian(
            factor_from_json(json_field(obj, "X", what)),
            factor_from_json(json_field(obj, "Y", what)),
        )
    else:
        verdict = conjecture_finite_dim(
            matrix_block_from_json(json_field(obj, "A", what)),
            matrix_block_from_json(json_field(obj, "B", what)),
        )
    _print_json(verdict.to_json())
    return 0


COMMANDS = {
    "analyze": cmd_analyze,
    "two-proj": cmd_two_proj,
    "moments": cmd_moments,
    "ideals": cmd_ideals,
    "mc": cmd_mc,
    "conjecture": cmd_conjecture,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.subcommand](args)
    except FreeprodError as exc:
        hint = ""
        if isinstance(exc, RefusedTwoProjectionCase):
            hint = "  (use the `two-proj` subcommand for this case)"
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
