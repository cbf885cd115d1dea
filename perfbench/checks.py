"""Output checks, one per op kind.

Each check recomputes what it can from the generated inputs, independently
of the program: deficits with ``Fraction``, the ideal count, unit traces,
ranks, moment bounds.  A check returns when the output is right and raises
:class:`Bad` with a one-line reason when it is not; the runner counts that
as a failed op.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from fractions import Fraction

F = Fraction
ONE = F(1)

#: Brute-force tuple enumeration is run when the atom product is at most this.
BRUTE_FORCE_LIMIT = 2000

#: Largest error accepted from the analytic law against the exact oracle.
ORACLE_TOL = 1e-8

_RATIONAL = re.compile(r"^-?\d+(/\d+)?$")


class Bad(Exception):
    """An output check failed."""


def _need(cond, msg):
    if not cond:
        raise Bad(msg)


def _rat(s) -> Fraction:
    _need(isinstance(s, str) and _RATIONAL.match(s), f"not a num/den string: {s!r}")
    return F(s)


def _no_floats(obj, where="output"):
    if isinstance(obj, float):
        raise Bad(f"float in {where}: {obj!r}")
    if isinstance(obj, dict):
        for v in obj.values():
            _no_floats(v, where)
    elif isinstance(obj, list):
        for v in obj:
            _no_floats(v, where)


def _ok_exit(res):
    rc, out, err = res
    _need(rc == 0, f"exit {rc}: {err.strip()[:200]}")
    return out


def _json(res):
    out = _ok_exit(res)
    try:
        return json.loads(out)
    except json.JSONDecodeError as exc:
        raise Bad(f"stdout is not JSON: {exc}")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _effective(problem: dict) -> list:
    """Factors other than the trivial algebra C (one atom of mass 1)."""
    out = []
    for f in problem["factors"]:
        atoms = f.get("atoms", [])
        if len(atoms) == 1 and F(atoms[0]["mass"]) == 1 and not F(f.get("diffuse_mass", "0")):
            continue
        out.append(f)
    return out


def _atom_table(problem: dict) -> dict:
    return {
        f["name"]: {a["label"]: (F(a["mass"]), a.get("isolated", True)) for a in f["atoms"]}
        for f in _effective(problem)
    }


def _tail_total(problem: dict):
    tail = problem.get("tail")
    if tail is None:
        return None
    bound = tail.get("remainder_sum_lower_bound", "inf")
    if bound == "inf":
        return "inf"
    return sum((F(d) for d in tail["explicit_deficits"]), F(0)) + F(bound)


def expected_structure(problem: dict):
    """Brute force over every atom tuple: (summands, characters) as sets of
    (frozenset of (factor, atom) pairs, deficit)."""
    factors = _effective(problem)
    total = _tail_total(problem)
    summands, characters = set(), set()
    if total == "inf":
        return summands, characters
    base = total if total is not None else F(0)
    # integer deficits over one common denominator keep the product loop cheap
    den = math.lcm(base.denominator, *(F(a["mass"]).denominator
                                       for f in factors for a in f["atoms"]))
    def scaled(q: Fraction) -> int:
        return q.numerator * (den // q.denominator)

    choices = [
        [(f["name"], a["label"], den - scaled(F(a["mass"])), a.get("isolated", True))
         for a in f["atoms"]]
        for f in factors
    ]
    base_int = scaled(base)
    for combo in itertools.product(*choices):
        deficit = base_int + sum(c[2] for c in combo)
        if deficit > den:
            continue
        key = (frozenset((c[0], c[1]) for c in combo), F(deficit, den))
        if total is None and deficit < den and all(c[3] for c in combo):
            summands.add(key)
        else:
            characters.add(key)
    return summands, characters


def _tuple_deficit(table, tup: dict, base: Fraction) -> tuple:
    _need(set(tup) == set(table), f"tuple factors {sorted(tup)} != {sorted(table)}")
    deficit, isolated = base, True
    for fname, label in tup.items():
        _need(label in table[fname], f"unknown atom {fname}:{label}")
        mass, iso = table[fname][label]
        deficit += ONE - mass
        isolated = isolated and iso
    return deficit, isolated


def check_analyze_json(problem: dict, obj: dict) -> None:
    _no_floats(obj)
    table = _atom_table(problem)
    total = _tail_total(problem)
    infinite = total is not None
    base = F(0) if total in (None, "inf") else total
    s, c = len(obj["summands"]), len(obj["characters"])
    _need(obj["ideal_count"] == 2 ** s * (2 ** c + 1), "ideal_count != 2^s(2^c+1)")
    gammas = F(0)
    got_s, got_c = set(), set()
    for item in obj["summands"]:
        deficit, isolated = _tuple_deficit(table, item["tuple"], base)
        gamma = _rat(item["gamma"])
        _need(gamma == ONE - deficit, f"gamma {gamma} != 1 - deficit {deficit}")
        _need(deficit < 1 and isolated and not infinite, "summand tuple is not a summand")
        gammas += gamma
        got_s.add((frozenset(item["tuple"].items()), deficit))
    char_weight = F(0)
    char_deficits = F(0)
    for item in obj["characters"]:
        deficit, isolated = _tuple_deficit(table, item["tuple"], base)
        _need(deficit <= 1, "character with deficit above 1")
        if infinite:
            _need(item.get("tail") == "maximal", "infinite character without tail marker")
        else:
            _need(deficit == 1 or not isolated, "character tuple is a summand")
        char_weight += ONE - deficit
        char_deficits += deficit
        got_c.add((frozenset(item["tuple"].items()), deficit))
    r0 = _rat(obj["r0_trace"])
    if infinite:
        _need(r0 == ONE - char_weight, "r0_trace != 1 - sum of character weights")
        _need(_rat(obj["gamma0_as_printed"]) == ONE - char_deficits, "gamma0_as_printed")
        _need(obj.get("infinite") is True, "infinite flag missing")
    else:
        _need(r0 == ONE - gammas, f"r0_trace {r0} != 1 - sum(gamma) {ONE - gammas}")
    v = obj["verdicts"]
    _need(v["afr_simple"] == (s == 0 and c == 0), "afr_simple")
    _need(v["afr0_simple"] == (c == 0) and v["afr00_nonunital"] == (c > 0), "afr0 verdicts")
    trace = all(
        not F(f.get("diffuse_mass", "0")) or f.get("diffuse_state_is_trace", True)
        for f in _effective(problem)
    )
    _need(v["trace_exists"] == trace, "trace_exists")
    if _atom_product(problem) <= BRUTE_FORCE_LIMIT:
        want_s, want_c = expected_structure(problem)
        _need(got_s == want_s, f"summands differ from brute force ({len(got_s)} vs {len(want_s)})")
        _need(got_c == want_c, f"characters differ from brute force ({len(got_c)} vs {len(want_c)})")


def _atom_product(problem: dict) -> int:
    return math.prod(len(f["atoms"]) for f in _effective(problem))


_PIECE = re.compile(r"C\^\{([^}]*)\}_\{")


def check_analyze_text(problem: dict, text: str) -> None:
    lines = text.splitlines()
    _need(lines and lines[0].startswith("Afr = Afr₀^{r0="), "missing decomposition line")
    r0 = _rat(lines[0][len("Afr = Afr₀^{r0="):].split("}", 1)[0])
    gammas = [_rat(g) for g in _PIECE.findall(lines[0])]
    chars = [l for l in lines if l.startswith("  π_")]
    counts = [l for l in lines if l.startswith("ideal_count=")]
    _need(len(counts) == 1, "missing ideal_count line")
    s, c = len(gammas), len(chars)
    _need(int(counts[0].split("=", 1)[1]) == 2 ** s * (2 ** c + 1), "ideal_count != 2^s(2^c+1)")
    _need(any(l.startswith("afr_simple=") for l in lines), "missing verdict line")
    table = _atom_table(problem)
    total = _tail_total(problem)
    base = F(0) if total in (None, "inf") else total
    weights = F(0)
    for line in chars:
        parts = line[len("  π_("):-1].split(",")
        tail = parts[-1] == "tail:max…"
        tup = dict(p.split(":", 1) for p in (parts[:-1] if tail else parts) if p)
        deficit, isolated = _tuple_deficit(table, tup, base)
        _need(tail == (total is not None), "tail marker")
        _need(deficit <= 1 and (tail or deficit == 1 or not isolated), "character tuple")
        weights += ONE - deficit
    if total is None:
        _need(r0 == ONE - sum(gammas, F(0)), "r0 != 1 - sum(gamma)")
    else:
        _need(r0 == ONE - weights, "r0 != 1 - sum of character weights")
    if _atom_product(problem) <= BRUTE_FORCE_LIMIT:
        want_s, want_c = expected_structure(problem)
        _need(sorted(gammas) == sorted(ONE - d for _, d in want_s), "summand weights differ")
        _need(c == len(want_c), "character count differs from brute force")


def check_analyze(op, results) -> None:
    (res,) = results
    if op.expect["format"] == "json":
        check_analyze_json(op.expect["problem"], _json(res))
    else:
        check_analyze_text(op.expect["problem"], _ok_exit(res))


def check_refuse(op, results) -> None:
    ((rc, out, err),) = results
    _need(rc == 1, f"refusal exited {rc}, expected 1")
    _need(out == "", "refusal printed to stdout")
    lines = err.splitlines()
    _need(len(lines) == 1 and lines[0].startswith("error: "), "refusal is not one 'error:' line")


def check_conjecture(op, results) -> None:
    (res,) = results
    obj = _json(res)
    _no_floats(obj)
    inp = op.expect["input"]
    want = []
    if op.expect["kind"] == "abelian":
        for ax in inp["X"]["atoms"]:
            for ay in inp["Y"]["atoms"]:
                total = F(ax["mass"]) + F(ay["mass"])
                if total >= 1:
                    want.append(([ax["label"], ay["label"]], total, ONE))
    else:
        for side, one, other in (("A", inp["A"], inp["B"]), ("B", inp["B"], inp["A"])):
            for j, blk in enumerate(one["blocks"]):
                if blk["size"] != 1:
                    continue
                lhs = ONE / (ONE - F(blk["weights"][0]))
                for k, oblk in enumerate(other["blocks"]):
                    rhs = sum((ONE / F(w) for w in oblk["weights"]), F(0))
                    if lhs >= rhs:
                        want.append(([side, j, k], lhs, rhs))
    got = [(v["witness"], _rat(v["lhs"]), _rat(v["rhs"])) for v in obj["violations"]]
    _need(got == want, "violations differ from recomputation")
    strict = not want
    nonstrict = all(lhs <= rhs for _, lhs, rhs in want)
    _need(obj["necessary_conditions_hold"] == nonstrict, "necessary_conditions_hold")
    _need(obj["conjectured_simple"] == (strict and nonstrict), "conjectured_simple")
    status = "proved-nonsimple" if not nonstrict else ("boundary" if not strict else "conjectured-simple")
    _need(obj["status"] == status, "status label")


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------

_TEXT_IDEAL = re.compile(
    r"^\{'killed_summands': \[([0-9, ]*)\], 'character_part': (\[[0-9, ]*\]|'zero'), "
    r"'unital': (True|False), 'unit_trace': (None|'[0-9/]+')\}$"
)


def _ideal_rows(op, res):
    """(killed, character_part, unital, unit_trace) per ideal, in order."""
    out = _ok_exit(res)
    if op.expect["format"] == "json":
        obj = json.loads(out)
        _no_floats(obj)
        return obj["ideal_count"], [
            (d["killed_summands"], d["character_part"], d["unital"], d["unit_trace"])
            for d in obj["ideals"]
        ]
    lines = out.splitlines()
    _need(lines and lines[0].startswith("ideal_count="), "missing ideal_count line")
    rows = []
    for line in lines[1:]:
        m = _TEXT_IDEAL.match(line)
        _need(m, f"unparsable ideal line {line[:80]!r}")
        killed = [int(x) for x in m.group(1).split(",") if x.strip()]
        part = "zero" if m.group(2) == "'zero'" else [int(x) for x in m.group(2)[1:-1].split(",") if x.strip()]
        trace = None if m.group(4) == "None" else m.group(4)[1:-1]
        rows.append((killed, part, m.group(3) == "True", trace))
    return int(lines[0].split("=", 1)[1]), rows


def _ratio(text) -> tuple:
    """(numerator, denominator) of a "num/den" string, without building a
    Fraction: the lattice has tens of thousands of unit traces."""
    _need(isinstance(text, str), f"unit trace {text!r} is not a string")
    num, _, den = text.partition("/")
    return int(num), int(den or 1)


def check_ideals(op, results) -> None:
    (res,) = results
    s, c = op.expect["s"], op.expect["c"]
    gammas = [F(g) for g in op.expect["gammas"]]
    want = 2 ** s * (2 ** c + 1)
    count, rows = _ideal_rows(op, res)
    _need(count == want, f"ideal_count {count} != 2^{s}(2^{c}+1) = {want}")
    _need(len(rows) == want, f"{len(rows)} ideals listed, expected {want}")
    # unit traces as integers over one common denominator
    den = math.lcm(*(g.denominator for g in gammas)) if gammas else 1
    scaled = [g.numerator * (den // g.denominator) for g in gammas]
    r0 = den - sum(scaled)
    seen = set()
    for killed, part, unital, trace in rows:
        _need(all(0 <= i < s for i in killed), "summand index out of range")
        killed_trace = sum(scaled[i] for i in killed)
        if part == "zero" or not part:
            expect = killed_trace if part == "zero" else killed_trace + r0
            _need(unital is True and trace is not None, "a unital ideal without unit trace")
            num, q = _ratio(trace)
            _need(num * den == expect * q, f"unit trace {trace} != {F(expect, den)}")
        else:
            _need(all(0 <= j < c for j in part), "character index out of range")
            _need(unital is False and trace is None, "kernel ideal marked unital")
        seen.add((tuple(killed), part if part == "zero" else tuple(part)))
    _need(len(seen) == want, "duplicate ideals")


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def check_oracle(op, results, certify_worst: float) -> None:
    moments_res, twoproj_res = results
    a, b = F(op.expect["alpha"]), F(op.expect["beta"])
    obj = _json(moments_res)
    wedge = _rat(obj["wedge_trace"])
    _need(wedge == max(a + b - 1, F(0)), "wedge_trace")
    rows = obj["moments"]
    _need([r["n"] for r in rows] == list(range(9)), "moment orders")
    exact = [_rat(r["exact"]) for r in rows]
    _need(exact[0] == 1 and exact[1] == a * b, "m1 != alpha*beta")
    for prev, cur in zip(exact[1:], exact[2:]):
        _need(wedge <= cur <= prev, "moments increase or fall below the wedge trace")
    for r in rows:
        err = r["abs_error"]
        _need(isinstance(err, float) and err < ORACLE_TOL, f"abs_error {err} at n={r['n']}")
    _need(certify_worst < ORACLE_TOL, f"certify_law worst error {certify_worst}")
    law = _json(twoproj_res)
    _need(_rat(law["atom_at_zero"]) == 1 - min(a, b), "atom_at_zero")
    _need(_rat(law["atom_at_one"]) == max(a + b - 1, F(0)), "atom_at_one")
    _need(law["pinch_at_a"] == (a == b) and law["pinch_at_b"] == (a + b == 1), "pinch flags")
    weights = sorted(_rat(w["weight"]) for w in law["wedge_summands"])
    forms = sorted(x for x in (a + b - 1, a - b, b - a, 1 - a - b) if x > 0)
    _need(weights == forms, "wedge weights")


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------

def rank(mass: Fraction, dim: int) -> int:
    """Projection rank: mass * dim rounded half up."""
    return math.floor(mass * dim + F(1, 2))


def check_mc(op, results, csv_rows) -> None:
    (res,) = results
    obj = _json(res)
    e = op.expect
    _need(obj["pass"] is True, "mc report does not pass")
    dim, trials = e["dim"], e["trials"]
    expected = max(rank(F(e["alpha"]), dim) + rank(F(e["beta"]), dim) - dim, 0)
    counts = obj["trial_atom_one_counts"]
    _need(len(counts) == trials and all(x == expected for x in counts),
          f"atom-at-1 counts {counts} != {expected}")
    _need(obj["dim"] == dim and obj["trials"] == trials, "dim/trials echo")
    if e["csv"] is not None:
        _need(csv_rows == dim * trials + 1, f"CSV has {csv_rows} rows, expected {dim * trials + 1}")


def count_csv_rows(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)
