"""Exact-rational data model for free-product problems.

A problem is a list of factors, each an abelian algebra carrying a faithful
state: finitely many labeled atoms (point masses) plus an optional diffuse
remainder.  All masses are ``fractions.Fraction`` so that boundary equalities
(deficit sums hitting 1 exactly) are decidable.  Floating point never enters
this module.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .errors import (
    DuplicateLabel,
    LimitExceeded,
    MassMismatch,
    NonPositiveMass,
    ValidationError,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(value) -> Fraction:
    """Parse a rational from an int or a "num/den" / "n" string.

    Decimal strings and floats are rejected: the exact engine must never see
    silently-rounded input.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        s = value.strip()
        if "." in s or "e" in s.lower():
            raise ValidationError(f"decimal rationals are not accepted: {value!r}")
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse rational {value!r}") from exc
    raise ValidationError(f"cannot parse rational from {type(value).__name__}")


def int_digit_limit() -> int:
    """The most digits the interpreter prints in an int; 0 for no limit
    (``sys.get_int_max_str_digits`` is absent before Python 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def exceeds_digit_limit(n: int) -> bool:
    """True when ``n`` has more digits than the interpreter will print."""
    digits = int_digit_limit()
    # 10**digits has more than 3 * digits bits, so only a longer int can reach it
    return bool(digits) and n.bit_length() > 3 * digits and abs(n) >= 10**digits


def format_rational(q: Fraction) -> str:
    """Serialize a rational as "num/den", or "n" for integers.

    A numerator or denominator with more digits than the interpreter prints
    raises LimitExceeded.
    """
    q = Fraction(q)
    try:
        if q.denominator == 1:
            return str(q.numerator)
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        raise LimitExceeded(
            f"a result has more than {int_digit_limit()} digits and is too long "
            "to print"
        ) from None


def printable_rational(q: Fraction) -> str:
    """:func:`format_rational` for error messages: a rational too long to
    print becomes a phrase, so the message still names its own error."""
    try:
        return format_rational(q)
    except LimitExceeded:
        return f"a rational with more than {int_digit_limit()} digits"


@dataclass(frozen=True)
class AtomSpec:
    """One atom of a factor's state: a labeled point mass."""

    label: str
    mass: Fraction
    isolated: bool = True

    def deficit(self) -> Fraction:
        return ONE - self.mass


@dataclass(frozen=True)
class FactorSpec:
    """One free-product factor: atoms plus an optional diffuse remainder.

    When ``diffuse_mass > 0`` the model assumes the diffuse part carries a
    diffuse abelian subalgebra of the state's centralizer;
    ``diffuse_state_is_trace`` records whether the state restricted to that
    part is tracial.  A factor may be purely diffuse (no atoms).
    """

    name: str
    atoms: tuple[AtomSpec, ...]
    diffuse_mass: Fraction = ZERO
    diffuse_state_is_trace: bool = True

    @property
    def is_one_dimensional(self) -> bool:
        """True for the trivial factor C: a single atom of mass 1."""
        return (
            len(self.atoms) == 1
            and self.atoms[0].mass == ONE
            and self.diffuse_mass == ZERO
        )


@dataclass(frozen=True)
class TailSpec:
    """Finite encoding of an infinite tail of factors.

    ``explicit_deficits[i]`` is 1 minus the maximal atom mass of the i-th
    tail factor.  ``remainder_sum_lower_bound`` certifies the total of all
    unlisted maximal-atom deficits; ``None`` encodes a divergent (infinite)
    remainder.  The per-factor breakdown of the remainder is unknown, which
    is what can make boundary membership undecidable.
    """

    explicit_deficits: tuple[Fraction, ...] = ()
    remainder_sum_lower_bound: Optional[Fraction] = None

    @property
    def total_deficit(self) -> Optional[Fraction]:
        """Certified total tail deficit sum, or None when divergent."""
        if self.remainder_sum_lower_bound is None:
            return None
        return sum(self.explicit_deficits, ZERO) + self.remainder_sum_lower_bound


@dataclass(frozen=True)
class ProblemSpec:
    factors: tuple[FactorSpec, ...]
    tail: Optional[TailSpec] = None


@dataclass(frozen=True)
class NormalizedProblem:
    """Canonical form: validated, trivial factors dropped, atoms sorted.

    It carries no verdict on the problem; which problems the structure
    engine refuses is decided by :func:`freeprod.engine.decompose` alone.
    """

    factors: tuple[FactorSpec, ...]
    tail: Optional[TailSpec] = None


def validate_factor(raw: FactorSpec) -> FactorSpec:
    """Certify a factor's invariants; idempotent.

    Checks faithfulness (all masses strictly positive), uniqueness of atom
    labels and that the total mass is exactly 1.
    """
    labels = [a.label for a in raw.atoms]
    if len(set(labels)) != len(labels):
        dup = sorted({l for l in labels if labels.count(l) > 1})
        raise DuplicateLabel(f"factor {raw.name!r}: duplicate atom labels {dup}")
    for atom in raw.atoms:
        if not (ZERO < atom.mass <= ONE):
            raise NonPositiveMass(
                f"factor {raw.name!r}: atom {atom.label!r} has mass "
                f"{printable_rational(atom.mass)} outside (0, 1]"
            )
        if atom.mass == ONE and len(raw.atoms) > 1:
            raise NonPositiveMass(
                f"factor {raw.name!r}: atom {atom.label!r} of mass 1 must be "
                "the factor's sole atom"
            )
    if raw.diffuse_mass < 0 or raw.diffuse_mass > ONE:
        raise NonPositiveMass(
            f"factor {raw.name!r}: diffuse mass outside [0, 1]"
        )
    total = sum((a.mass for a in raw.atoms), raw.diffuse_mass)
    if total != ONE:
        raise MassMismatch(
            f"factor {raw.name!r}: masses sum to {printable_rational(total)}, not 1"
        )
    if len(raw.atoms) == 0 and raw.diffuse_mass != ONE:
        raise MassMismatch(f"factor {raw.name!r}: no atoms and no full diffuse part")
    return raw


def _canonical_factor(factor: FactorSpec) -> FactorSpec:
    atoms = tuple(sorted(factor.atoms, key=lambda a: (-a.mass, a.label)))
    return replace(factor, atoms=atoms)


def _factor_sort_key(factor: FactorSpec):
    return (
        tuple((-a.mass, a.label) for a in factor.atoms),
        -factor.diffuse_mass,
        factor.name,
    )


def normalize_problem(spec: ProblemSpec) -> NormalizedProblem:
    """Validate and canonicalize a problem.

    Drops factors equal to C (one atom of mass 1), sorts atoms by descending
    mass (ties by label) and factors by their mass signature, and checks the
    tail's bounds.  Repeated factor names are refused: reports key each
    tuple's choices by factor name.  Problems that are valid but that the
    structure engine refuses (too few factors, the two-projection case) pass
    through; :func:`freeprod.engine.decompose` refuses them.
    """
    validated = [validate_factor(f) for f in spec.factors]
    names = [f.name for f in validated]
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise DuplicateLabel(f"duplicate factor names {dup}")
    effective = [_canonical_factor(f) for f in validated if not f.is_one_dimensional]
    effective.sort(key=_factor_sort_key)

    tail = spec.tail
    if tail is not None:
        for d in tail.explicit_deficits:
            if d < 0:
                raise ValidationError("tail deficits must be nonnegative")
        if tail.remainder_sum_lower_bound is not None and tail.remainder_sum_lower_bound < 0:
            raise ValidationError("tail remainder bound must be nonnegative")

    return NormalizedProblem(factors=tuple(effective), tail=tail)


# ---------------------------------------------------------------------------
# JSON problem schema
# ---------------------------------------------------------------------------

_REQUIRED = object()
_JSON_TYPE_NAMES = {list: "array", bool: "boolean", int: "integer"}


def json_field(obj, key: str, what: str, default=_REQUIRED, kind=None):
    """``obj[key]`` of a JSON object, or ``default`` when the key is absent.

    A non-object, a missing key without a default, or a present value whose
    type is not exactly ``kind`` (``list``, ``bool`` or ``int``; so a JSON
    boolean is no integer) is a ValidationError naming ``what`` the object
    was meant to be.
    """
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object")
    if key not in obj:
        if default is _REQUIRED:
            raise ValidationError(f'{what} is missing "{key}"')
        return default
    value = obj[key]
    if kind is not None and type(value) is not kind:
        raise ValidationError(f'{what} "{key}" must be a JSON {_JSON_TYPE_NAMES[kind]}')
    return value


def atom_from_json(obj: dict) -> AtomSpec:
    return AtomSpec(
        label=str(json_field(obj, "label", "atom")),
        mass=parse_rational(json_field(obj, "mass", "atom")),
        isolated=json_field(obj, "isolated", "atom", True, bool),
    )


def factor_from_json(obj: dict) -> FactorSpec:
    return FactorSpec(
        name=str(json_field(obj, "name", "factor")),
        atoms=tuple(
            atom_from_json(a) for a in json_field(obj, "atoms", "factor", [], list)
        ),
        diffuse_mass=parse_rational(json_field(obj, "diffuse_mass", "factor", 0)),
        diffuse_state_is_trace=json_field(
            obj, "diffuse_state_is_trace", "factor", True, bool
        ),
    )


def tail_from_json(obj: dict) -> TailSpec:
    bound = json_field(obj, "remainder_sum_lower_bound", "tail", "inf")
    if isinstance(bound, str) and bound.strip().lower() in ("inf", "+inf", "infinity"):
        parsed = None
    else:
        parsed = parse_rational(bound)
    deficits = json_field(obj, "explicit_deficits", "tail", [], list)
    return TailSpec(
        explicit_deficits=tuple(parse_rational(d) for d in deficits),
        remainder_sum_lower_bound=parsed,
    )


def problem_from_json(obj: dict) -> ProblemSpec:
    if not isinstance(obj, dict) or not isinstance(obj.get("factors"), list):
        raise ValidationError('problem JSON must contain a "factors" array')
    tail = tail_from_json(obj["tail"]) if obj.get("tail") is not None else None
    return ProblemSpec(
        factors=tuple(factor_from_json(f) for f in obj["factors"]),
        tail=tail,
    )


def load_json(path: str):
    """Parse a JSON input file; malformed JSON, non-UTF-8 bytes or too deep
    nesting is a ValidationError."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"invalid JSON in {path}: {exc}") from exc


def load_problem(path: str) -> ProblemSpec:
    return problem_from_json(load_json(path))
