"""Classification engine for N-fold free products of atomic-plus-diffuse factors.

Enumerates atom tuples whose deficit sum Sum(1 - mass) is at most 1,
splits them into direct summands (deficit < 1, every chosen atom isolated)
and characters (deficit = 1, or deficit < 1 with a non-isolated choice),
and derives the verdict set and the full ideal lattice.  The lattice is
walked one killed-summand mask at a time, so :func:`write_ideals` streams it
without holding it whole.  An infinite product is a prefix problem whose
tuples start from the certified tail deficit; the same walker and report
builder serve both.  Everything here is exact rational arithmetic.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .errors import (
    DegenerateProblem,
    LimitExceeded,
    RefusedTwoProjectionCase,
    TailUndecidable,
)
from .model import (
    FactorSpec,
    NormalizedProblem,
    exceeds_digit_limit,
    format_rational,
    int_digit_limit,
)

ZERO = Fraction(0)
ONE = Fraction(1)

NOT_CLAIMED = "not_claimed"

#: Largest ideal lattice :func:`ideal_lattice` builds or :func:`write_ideals`
#: streams; the count itself is always available in closed form as
#: ``StructureReport.ideal_count``.
MAX_IDEALS = 2**20


@dataclass(frozen=True)
class AtomTuple:
    """One atom choice per factor, with its total deficit Sum(1 - mass).

    For infinite problems the choices cover the explicit prefix only and
    ``tail_maximal`` records that the maximal atom is chosen in every tail
    factor (the only way an infinite tuple can keep its deficit finite);
    ``deficit_sum`` then includes the certified tail deficit.
    """

    choices: tuple[tuple[str, str], ...]  # (factor name, atom label)
    deficit_sum: Fraction
    tail_maximal: bool = False

    @property
    def gamma(self) -> Fraction:
        return ONE - self.deficit_sum

    def label(self) -> str:
        parts = [f"{f}:{a}" for f, a in self.choices]
        if self.tail_maximal:
            parts.append("tail:max…")
        return "(" + ",".join(parts) + ")"


@dataclass(frozen=True)
class VerdictSet:
    afr_simple: bool
    afr0_simple: bool
    afr00_simple: bool
    afr00_nonunital: bool
    trace_exists: bool
    trace_unique: bool
    stable_rank_one: str  # "true" | "not_claimed"

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class StructureReport:
    """Summand tuples with their weights, character tuples and verdicts.

    For an infinite product (``infinite``) every tuple is a character,
    ``r0_trace`` subtracts the character weights and ``gamma0_as_printed``
    is one minus their deficits; for a finite one ``r0_trace`` subtracts
    the summand weights.
    """

    summands: tuple[tuple[AtomTuple, Fraction], ...]
    characters: tuple[AtomTuple, ...]
    verdicts: VerdictSet
    infinite: bool = False

    @property
    def r0_trace(self) -> Fraction:
        if self.infinite:
            return ONE - sum((t.gamma for t in self.characters), ZERO)
        return ONE - sum((g for _, g in self.summands), ZERO)

    @property
    def gamma0_as_printed(self) -> Optional[Fraction]:
        if not self.infinite:
            return None
        return ONE - sum((t.deficit_sum for t in self.characters), ZERO)

    @property
    def ideal_count(self) -> int:
        return 2 ** len(self.summands) * (2 ** len(self.characters) + 1)


@dataclass(frozen=True)
class IdealDescriptor:
    """A closed two-sided ideal of the free product.

    ``killed_summands`` are the one-dimensional summands contained in the
    ideal (they vanish in the quotient).  ``character_part`` describes the
    intersection with the corner algebra: ``None`` means zero, a frozenset F
    of character indices means the intersection of the kernels over F (the
    empty set meaning the whole corner algebra).
    """

    killed_summands: frozenset[int]
    character_part: Optional[frozenset[int]]


def _atom_candidates(factor: FactorSpec, budget: Fraction):
    """Atoms of the factor whose deficit alone fits within the budget."""
    return [a for a in factor.atoms if a.deficit() <= budget]


def classify_atom_tuples(
    problem: NormalizedProblem,
) -> tuple[list[AtomTuple], list[AtomTuple]]:
    """Enumerate summand and character tuples, finite or prefix + tail.

    Branch-and-bound on partial deficit sums: each factor's candidates are
    pre-filtered against the budget left by the minimal deficits of the
    remaining factors, so branches that cannot stay within deficit 1 are
    never opened.

    For an infinite product the walk covers the explicit prefix and starts
    from the certified tail deficit: a tuple with finite deficit takes the
    maximal atom in all but finitely many factors, and only tuples taking it
    in *every* tail factor are decidable from the tail data.  A tuple
    deviating in a tail factor pays that factor's deficit >= 1 - d (a
    non-maximal atom has mass <= d); if the known lower bounds cannot push
    it above deficit 1, the data does not decide membership and
    TailUndecidable is raised before any walk.  A divergent tail admits no
    tuple.  Infinite products have no one-dimensional direct summands, so
    every tuple found there is a character.
    """
    factors = problem.factors
    n = len(factors)
    min_deficit = [min((a.deficit() for a in f.atoms), default=ONE) for f in factors]
    suffix_min = [ZERO] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + min_deficit[i]

    tail = problem.tail
    base = ZERO
    if tail is not None:
        base = tail.total_deficit
        if base is None:  # certified divergent
            return [], []
        prefix_min = suffix_min[0]
        for d in tail.explicit_deficits:
            if prefix_min + (base - d) + (ONE - d) <= 1:
                raise TailUndecidable(
                    "a non-maximal choice in an explicit tail factor cannot "
                    "be excluded by the certified deficits"
                )
        rem = tail.remainder_sum_lower_bound
        if rem > 0:
            d = min(rem, ONE)  # a single unlisted factor could carry it all
            explicit = sum(tail.explicit_deficits, ZERO)
            if prefix_min + explicit + (rem - d) + (ONE - d) <= 1:
                raise TailUndecidable(
                    "a non-maximal choice in an unlisted tail factor cannot "
                    "be excluded by the certified remainder bound"
                )
    # A factor with no atoms admits no choice at all: no tuples exist.
    if any(not f.atoms for f in factors) or base + suffix_min[0] > 1:
        return [], []

    summands: list[AtomTuple] = []
    characters: list[AtomTuple] = []

    # Depth-first walk with an explicit stack, so the depth is not bounded
    # by the interpreter's recursion limit: (factor index, partial deficit,
    # choices so far, all chosen atoms isolated).
    stack = [(0, base, (), True)]
    while stack:
        i, partial, choices, isolated = stack.pop()
        if i == n:
            t = AtomTuple(choices, partial, tail_maximal=tail is not None)
            if partial < 1 and isolated and tail is None:
                summands.append(t)
            else:  # deficit == 1, a non-isolated choice, or a tail tuple
                characters.append(t)
            continue
        budget = ONE - partial - suffix_min[i + 1]
        for atom in _atom_candidates(factors[i], budget):
            stack.append((
                i + 1,
                partial + atom.deficit(),
                choices + ((factors[i].name, atom.label),),
                isolated and atom.isolated,
            ))

    key = lambda t: (t.deficit_sum, t.choices)
    summands.sort(key=key)
    characters.sort(key=key)
    return summands, characters


def _verdicts(
    problem: NormalizedProblem,
    summands,
    characters,
) -> VerdictSet:
    trace_exists = all(
        f.diffuse_mass == 0 or f.diffuse_state_is_trace for f in problem.factors
    )
    return VerdictSet(
        afr_simple=(not summands and not characters),
        afr0_simple=(not characters),
        afr00_simple=True,
        afr00_nonunital=bool(characters),
        trace_exists=trace_exists,
        trace_unique=trace_exists,
        stable_rank_one="true" if trace_exists else NOT_CLAIMED,
    )


def decompose(problem: NormalizedProblem) -> StructureReport:
    """Full structure report for a finite problem or a prefix + tail.

    This is the one place that decides which problems are refused.  A
    finite problem with fewer than two effective factors raises
    DegenerateProblem; one of exactly two factors, each two atoms with no
    diffuse part, is the two-projection case and raises
    RefusedTwoProjectionCase (``two_projection_structure`` serves it).
    Infinite problems are not refused.
    """
    factors = problem.factors
    infinite = problem.tail is not None
    if not infinite:
        if len(factors) < 2:
            raise DegenerateProblem(
                "fewer than two effective factors; the free product is trivial"
            )
        if len(factors) == 2 and all(
            len(f.atoms) == 2 and f.diffuse_mass == 0 for f in factors
        ):
            raise RefusedTwoProjectionCase(
                "both factors are two-point algebras; use two_projection_structure"
            )

    summand_tuples, character_tuples = classify_atom_tuples(problem)
    summands = tuple((t, t.gamma) for t in summand_tuples)
    return StructureReport(
        summands=summands,
        characters=tuple(character_tuples),
        verdicts=_verdicts(problem, summands, character_tuples),
        infinite=infinite,
    )


def _lattice_walk(report: StructureReport) -> tuple[
    list[Optional[frozenset[int]]],
    int,
    Iterator[tuple[tuple[int, ...], int, int]],
]:
    """The one walk of the ideal lattice: character parts and killed masks.

    Returns ``(parts, den, masks)``.  ``parts`` lists the character parts:
    zero (``None``), then the kernel intersection over each subset of the
    characters in mask order, so ``parts[1]`` is the whole corner and every
    later part is nonunital.  ``den`` is the common denominator of every
    unit trace.  ``masks`` yields, per killed-summand mask in ascending
    order, the sorted killed summand indices and the numerators over
    ``den`` of the unit traces of the two unital ideals over them (zero
    part, whole corner).  Above MAX_IDEALS elements, or when a unit trace
    might have too many digits to print, it raises LimitExceeded before
    building anything.
    """
    if report.ideal_count > MAX_IDEALS:
        raise LimitExceeded(
            f"ideal lattice has {report.ideal_count} elements, "
            f"exceeds cap {MAX_IDEALS}"
        )
    r0_trace = report.r0_trace
    gammas = [g for _, g in report.summands]
    # every unit trace lies in [0, 1] and its denominator divides this one
    den = math.lcm(r0_trace.denominator, *(g.denominator for g in gammas))
    if exceeds_digit_limit(den):
        raise LimitExceeded(
            f"ideal unit traces have a common denominator of more than "
            f"{int_digit_limit()} digits and are too long to print"
        )
    c = len(report.characters)
    parts: list[Optional[frozenset[int]]] = [None] + [
        frozenset(j for j in range(c) if f_mask >> j & 1) for f_mask in range(2**c)
    ]
    # The masks come from a separate generator so that the cap above is
    # checked at this call, not at the first mask.
    return parts, den, _killed_masks(
        [g.numerator * (den // g.denominator) for g in gammas],
        r0_trace.numerator * (den // r0_trace.denominator),
    )


def _killed_masks(gammas: list[int], r0: int):
    s = len(gammas)
    # above[k] and killed_above[k] are the trace numerator and the sorted
    # indices of the current mask's bits >= k; when the mask steps to m with
    # lowest set bit k, index k + 1 holds those of m & (m - 1).
    above = [0] * (s + 1)
    killed_above: list[tuple[int, ...]] = [()] * (s + 1)
    yield (), 0, r0
    for mask in range(1, 2**s):
        k = (mask & -mask).bit_length() - 1
        trace = above[k + 1] + gammas[k]
        killed = (k,) + killed_above[k + 1]
        above[: k + 1] = [trace] * (k + 1)
        killed_above[: k + 1] = [killed] * (k + 1)
        yield killed, trace, trace + r0


def ideal_lattice(report: StructureReport) -> list[tuple[IdealDescriptor, dict]]:
    """All ideals, each annotated with unitality and (if unital) unit trace.

    The corner algebra's ideals are exactly zero and the kernel
    intersections over subsets of the characters: its essential simple ideal
    forces any nonzero ideal to contain it, and the quotient by it is the
    finite-dimensional algebra C^{#characters}.  Crossing with arbitrary
    subsets of the one-dimensional summands gives
    2^#summands * (2^#characters + 1) ideals.  Kernel intersections over a
    nonempty character subset are nonunital; the zero character part and the
    whole corner are unital.  Above MAX_IDEALS elements it raises
    LimitExceeded before building anything.
    """
    parts, den, masks = _lattice_walk(report)
    out: list[tuple[IdealDescriptor, dict]] = []
    for killed, *unit_traces in masks:
        killed = frozenset(killed)
        for j, part in enumerate(parts):
            unit = Fraction(unit_traces[j], den) if j < 2 else None
            ann = {"unital": unit is not None, "unit_trace": unit}
            out.append((IdealDescriptor(killed, part), ann))
    assert len(out) == report.ideal_count
    return out


# ---------------------------------------------------------------------------
# Report serialization
# ---------------------------------------------------------------------------

def tuple_to_json(t: AtomTuple) -> dict:
    obj: dict = {"tuple": {f: a for f, a in t.choices}}
    if t.tail_maximal:
        obj["tail"] = "maximal"
    return obj


def report_to_json(report: StructureReport) -> dict:
    out: dict = {
        "summands": [
            dict(tuple_to_json(t), gamma=format_rational(g))
            for t, g in report.summands
        ],
        "characters": [tuple_to_json(t) for t in report.characters],
        "r0_trace": format_rational(report.r0_trace),
        "verdicts": report.verdicts.to_json(),
        "ideal_count": report.ideal_count,
    }
    if report.infinite:
        out["infinite"] = True
        out["gamma0_as_printed"] = format_rational(report.gamma0_as_printed)
    return out


def ideals_to_json(report: StructureReport) -> dict:
    items = []
    for desc, ann in ideal_lattice(report):
        items.append(
            {
                "killed_summands": sorted(desc.killed_summands),
                "character_part": (
                    "zero" if desc.character_part is None
                    else sorted(desc.character_part)
                ),
                "unital": ann["unital"],
                "unit_trace": (
                    format_rational(ann["unit_trace"])
                    if ann["unit_trace"] is not None
                    else None
                ),
            }
        )
    return {"ideal_count": report.ideal_count, "ideals": items}


# Key text around the four values of one ideal, as json.dumps(indent=2)
# prints it inside the "ideals" list and as repr() prints the ideal's dict.
_JSON_KEYS = ('    {\n      "killed_summands": ', ',\n      "character_part": ',
              ',\n      "unital": ', ',\n      "unit_trace": ', '\n    }')
_TEXT_KEYS = ("{'killed_summands': ", ", 'character_part': ",
              ", 'unital': ", ", 'unit_trace': ", "}")


def _json_value(value) -> str:
    """json.dumps(indent=2) text of a value nested at an ideal's key depth.

    The lists here hold ints only, so their indented form is written out
    directly rather than through json's pure-Python indenting encoder.
    """
    if isinstance(value, list):
        if not value:
            return "[]"
        return "[\n        " + ",\n        ".join(map(str, value)) + "\n      ]"
    return json.dumps(value)


def _trace_text(t: int, den: int) -> str:
    """``format_rational(Fraction(t, den))``, reduced with one gcd.

    A unit trace lies in [0, 1], so its numerator prints whenever ``den``
    does, which ``_lattice_walk`` has checked.
    """
    g = math.gcd(t, den)
    return str(t // g) if g == den else f"{t // g}/{den // g}"


def write_ideals(report: StructureReport, out, fmt: str) -> None:
    """Write the ideal lattice to ``out`` as ``freeprod ideals`` prints it.

    With ``fmt == "json"`` the bytes are those of
    ``json.dumps(ideals_to_json(report), indent=2, ensure_ascii=False)``
    plus a newline; otherwise an ``ideal_count=`` line and one line per
    ideal holding the repr of its ``ideals_to_json`` dict.  Every ideal has
    the same shape, so the text of each character part is made once and the
    killed summands and the two unit traces once per killed mask, each
    trace from its integer numerator over the lattice's common denominator;
    the lattice is written one mask at a time and never held whole.
    LimitExceeded is raised before anything is written.
    """
    parts, den, masks = _lattice_walk(report)
    if fmt == "json":
        keys, value, sep, quote = _JSON_KEYS, _json_value, ",\n", '"'
        out.write(f'{{\n  "ideal_count": {report.ideal_count},\n  "ideals": [\n')
        end = "\n  ]\n}\n"
    else:
        keys, value, sep, quote = _TEXT_KEYS, repr, "\n", "'"
        out.write(f"ideal_count={report.ideal_count}\n")
        end = "\n"
    part_text = [
        keys[1] + value("zero" if part is None else sorted(part))
        + keys[2] + value(j < 2) + keys[3]
        for j, part in enumerate(parts)
    ]
    # a unit trace prints as a quoted string of digits and at most one "/"
    zero, corner = (text + quote for text in part_text[:2])
    close = quote + keys[4]
    nonunital = [text + value(None) + keys[4] for text in part_text[2:]]
    lead = ""
    for killed, trace, unit in masks:
        head = keys[0] + value(list(killed))
        out.write(lead + head + (sep + head).join([
            zero + _trace_text(trace, den) + close,
            corner + _trace_text(unit, den) + close,
            *nonunital,
        ]))
        lead = sep
    out.write(end)
