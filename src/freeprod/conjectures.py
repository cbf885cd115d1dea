"""Simplicity conjecture checkers for abelian and matrix-block free products.

Verdicts are deliberately labeled: a failing necessary condition is a proved
obstruction to simplicity, while a passing strict condition is only
*conjectured* sufficient.  Nothing here is ever reported as a theorem of
simplicity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .model import (
    FactorSpec,
    format_rational,
    json_field,
    parse_rational,
    validate_factor,
)

ZERO = Fraction(0)
ONE = Fraction(1)

PROVED_NONSIMPLE = "proved-nonsimple"
CONJECTURED_SIMPLE = "conjectured-simple"
BOUNDARY = "boundary"


@dataclass(frozen=True)
class MatrixBlockSpec:
    """Finite dimensional algebra: direct sum of matrix blocks with a state
    given per block by Tr(. H) with the listed diagonal weights."""

    blocks: tuple[tuple[int, tuple[Fraction, ...]], ...]  # (size, weights)

    def validate(self) -> "MatrixBlockSpec":
        total = ZERO
        for size, weights in self.blocks:
            if size < 1:
                raise ValidationError("block size must be >= 1")
            if len(weights) != size:
                raise ValidationError(
                    f"block of size {size} must carry {size} weights"
                )
            for w in weights:
                if w <= 0:
                    raise ValidationError("block weights must be positive")
                total += w
        if total != ONE:
            raise ValidationError(
                f"block weights sum to {format_rational(total)}, not 1"
            )
        if self.blocks == ((1, (ONE,)),):
            raise ValidationError(
                "the one-dimensional algebra C gives a degenerate free product"
            )
        return self


def _block_from_json(obj: dict) -> tuple[int, tuple[Fraction, ...]]:
    size = json_field(obj, "size", "block", kind=int)
    weights = json_field(obj, "weights", "block", kind=list)
    return size, tuple(parse_rational(w) for w in weights)


def matrix_block_from_json(obj: dict) -> MatrixBlockSpec:
    blocks = json_field(obj, "blocks", "matrix algebra", kind=list)
    return MatrixBlockSpec(tuple(_block_from_json(b) for b in blocks)).validate()


@dataclass(frozen=True)
class ConjectureVerdict:
    necessary_conditions_hold: bool
    conjectured_simple: bool
    violations: tuple[tuple[tuple, Fraction, Fraction], ...]  # (witness, lhs, rhs)
    status_label: str

    def to_json(self) -> dict:
        return {
            "necessary_conditions_hold": self.necessary_conditions_hold,
            "conjectured_simple": self.conjectured_simple,
            "status": self.status_label,
            "violations": [
                {
                    "witness": list(witness),
                    "lhs": format_rational(lhs),
                    "rhs": format_rational(rhs),
                }
                for witness, lhs, rhs in self.violations
            ],
        }


def _verdict(strict_ok: bool, nonstrict_ok: bool, violations) -> ConjectureVerdict:
    if not nonstrict_ok:
        status = PROVED_NONSIMPLE
    elif not strict_ok:
        status = BOUNDARY
    else:
        status = CONJECTURED_SIMPLE
    return ConjectureVerdict(
        necessary_conditions_hold=nonstrict_ok,
        conjectured_simple=strict_ok and nonstrict_ok,
        violations=tuple(violations),
        status_label=status,
    )


def conjecture_abelian(x: FactorSpec, y: FactorSpec) -> ConjectureVerdict:
    """Atom-pair criterion for two abelian factors.

    Conjectured simple iff every pair of atom masses sums strictly below 1.
    Pairs summing above 1 are proved obstructions; pairs summing to exactly 1
    are labeled boundary.
    """
    x = validate_factor(x)
    y = validate_factor(y)
    strict_ok = True
    nonstrict_ok = True
    violations = []
    for ax in x.atoms:
        for ay in y.atoms:
            s = ax.mass + ay.mass
            if s >= 1:
                strict_ok = False
                violations.append(((ax.label, ay.label), s, ONE))
                if s > 1:
                    nonstrict_ok = False
    return _verdict(strict_ok, nonstrict_ok, violations)


def conjecture_finite_dim(a: MatrixBlockSpec, b: MatrixBlockSpec) -> ConjectureVerdict:
    """Matrix-block criterion: every 1x1 block on one side against every
    block on the other must satisfy 1/(1-alpha) < sum_i 1/beta_i.

    The strict inequality is the conjectured characterization; its non-strict
    form is proved necessary.  Vacuously conjectured simple when neither side
    has a 1x1 block.
    """
    a = a.validate()
    b = b.validate()
    strict_ok = True
    nonstrict_ok = True
    violations = []

    def check(side: str, one_dim: MatrixBlockSpec, other: MatrixBlockSpec):
        nonlocal strict_ok, nonstrict_ok
        for j, (size, weights) in enumerate(one_dim.blocks):
            if size != 1:
                continue
            lhs = ONE / (ONE - weights[0])
            for k, (_, other_weights) in enumerate(other.blocks):
                rhs = sum((ONE / w for w in other_weights), ZERO)
                if lhs >= rhs:
                    strict_ok = False
                    violations.append(((side, j, k), lhs, rhs))
                    if lhs > rhs:
                        nonstrict_ok = False

    check("A", a, b)
    check("B", b, a)
    return _verdict(strict_ok, nonstrict_ok, violations)
