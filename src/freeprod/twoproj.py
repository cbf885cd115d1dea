"""Spectral law and algebra structure of two free projections.

For free projections p, q with traces alpha, beta, the distribution of pqp
has atoms at 0 and 1 plus an absolutely continuous part on [a, b] with
square-root vanishing at both edges:

    a, b    = alpha + beta - 2*alpha*beta -+ 2*sqrt(alpha*beta*(1-alpha)*(1-beta))
    density = sqrt((b - t)(t - a)) / (2*pi*t*(1-t))

These expressions are treated as candidates and certified against the exact
moment oracle in :mod:`freeprod.nc` (see :func:`certify_law` and the test
suite); a useful identity is a*b = (alpha-beta)^2 and
(1-a)(1-b) = (1-alpha-beta)^2, so a = 0 iff alpha = beta and b = 1 iff
alpha + beta = 1 (checked on exact rationals, never on floats).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

from .errors import DomainError
from .nc import alternating_moment, check_unit_interval, wedge_trace

ZERO = Fraction(0)
ONE = Fraction(1)

#: Quadrature resolution after the edge-absorbing sine substitution.
QUADRATURE_POINTS = 4096

#: Rows written by the density CSV export.
DENSITY_CSV_ROWS = 1024


@dataclass(frozen=True)
class TwoProjectionLaw:
    """Distribution of pqp: atoms at 0 and 1 plus a density on [a, b]."""

    alpha: Fraction
    beta: Fraction
    atom_at_zero: Fraction
    atom_at_one: Fraction
    support_a: float
    support_b: float

    @property
    def ac_mass(self) -> Fraction:
        """Exact mass of the absolutely continuous part."""
        return ONE - self.atom_at_zero - self.atom_at_one


def two_projection_law(alpha: Fraction, beta: Fraction) -> TwoProjectionLaw:
    """Spectral law of pqp for free projections of traces alpha and beta."""
    alpha, beta = check_unit_interval(alpha, beta)
    af, bf = float(alpha), float(beta)
    center = af + bf - 2.0 * af * bf
    half = 2.0 * math.sqrt(af * bf * (1.0 - af) * (1.0 - bf))
    a = 0.0 if alpha == beta else center - half
    b = 1.0 if alpha + beta == 1 else center + half
    return TwoProjectionLaw(
        alpha=alpha,
        beta=beta,
        atom_at_zero=ONE - min(alpha, beta),
        atom_at_one=max(alpha + beta - 1, ZERO),
        support_a=a,
        support_b=b,
    )


def law_density(law: TwoProjectionLaw, t: float) -> float:
    """Pointwise density of the absolutely continuous part on [a, b]."""
    a, b = law.support_a, law.support_b
    if t < a or t > b:
        raise DomainError(f"t={t} outside support [{a}, {b}]")
    rad = (b - t) * (t - a)
    if rad <= 0.0:
        return 0.0
    return math.sqrt(rad) / (2.0 * math.pi * t * (1.0 - t))


@lru_cache(maxsize=256)
def _quadrature(a: float, b: float, n_points: int):
    """Nodes and weights (numpy arrays) for integrating f(t) * density(t).

    Substituting t = m + h*sin(theta) turns the square-root edge factor into
    h*cos(theta), leaving an integrand analytic on [-pi/2, pi/2]; a midpoint
    rule then converges fast.  Weights already include the density.  numpy
    is imported here, so the exact-only paths never load it.
    """
    import numpy as np

    m = 0.5 * (a + b)
    h = 0.5 * (b - a)
    theta = -0.5 * np.pi + (np.arange(n_points) + 0.5) * (np.pi / n_points)
    t = m + h * np.sin(theta)
    w = (h * np.cos(theta)) ** 2 / (2.0 * n_points * t * (1.0 - t))
    return t, w


def law_moment(law: TwoProjectionLaw, n: int) -> float:
    """n-th moment: atom at 1 plus the integral of t^n against the density.

    n = 0 counts the atom at zero as well (0^0 = 1).  The density's poles
    1/t and 1/(1-t) sit just outside [a, b] near a pinch, where quadrature
    of them loses accuracy, so they are integrated in closed form:

        int sqrt(R) / (2 pi t)     = (sqrt(b) - sqrt(a))^2 / 4
        int sqrt(R) / (2 pi (1-t)) = (sqrt(1-a) - sqrt(1-b))^2 / 4

    with R = (b - t)(t - a), sqrt(a) = |alpha - beta| / sqrt(b) and
    sqrt(1-b) = |1 - alpha - beta| / sqrt(1-a) taken from the exact
    rationals (a*b = (alpha-beta)^2, (1-a)(1-b) = (1-alpha-beta)^2).  Only
    the pole-free sqrt(R) / (2 pi) times a polynomial is left to the nodes,
    through t^(n-1) / (1-t) = 1/(1-t) - sum_{k < n-1} t^k.  On the nodes
    that polynomial part is the density weight times t - t^n, whose zero at
    t = 1 cancels the weight's pole.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    # alpha = p/q and beta = r/s over the common denominator q*s, in integer
    # arithmetic: exact, and cheaper than Fraction subtraction.
    den = law.alpha.denominator * law.beta.denominator
    ps = law.alpha.numerator * law.beta.denominator
    rq = law.beta.numerator * law.alpha.denominator
    root_b = math.sqrt(law.support_b)
    root_1a = math.sqrt(1.0 - law.support_a)
    root_a = abs(ps - rq) / den / root_b
    root_1b = abs(den - ps - rq) / den / root_1a
    pole_one = 0.25 * (root_1a - root_1b) ** 2
    if n == 0:
        pole_zero = 0.25 * (root_b - root_a) ** 2
        return float(law.atom_at_one) + pole_zero + pole_one + float(law.atom_at_zero)
    t, w = _quadrature(law.support_a, law.support_b, QUADRATURE_POINTS)
    return float(law.atom_at_one) + pole_one - float(w @ (t - t**n))


def law_cdf(law: TwoProjectionLaw, x):
    """Distribution function F(x) of the law (right-continuous).

    ``x`` is a float or an array of floats; the result has the same shape.
    """
    import numpy as np

    t, w = _quadrature(law.support_a, law.support_b, QUADRATURE_POINTS)
    x = np.asarray(x, dtype=float)
    # The nodes are ascending, so the weight of {t <= x} is a prefix sum.
    cumulative = np.concatenate(([0.0], np.cumsum(w)))
    below = cumulative[np.searchsorted(t, x, side="right")]
    total = np.where(x >= 0.0, float(law.atom_at_zero), 0.0) + below
    total = total + np.where(x >= 1.0, float(law.atom_at_one), 0.0)
    return float(total) if total.ndim == 0 else total


def certify_law(alpha: Fraction, beta: Fraction, nmax: int = 8, tol: float = 1e-8) -> float:
    """Compare analytic moments with the exact oracle; return the worst error.

    Raises DomainError if any moment up to nmax disagrees beyond tol.  This
    is the gate that certifies the undocumented endpoint and normalization
    formulas.
    """
    law = two_projection_law(alpha, beta)
    worst = 0.0
    for n in range(nmax + 1):
        exact = float(alternating_moment(alpha, beta, n)) if n > 0 else 1.0
        err = abs(law_moment(law, n) - exact)
        worst = max(worst, err)
    if worst >= tol:
        raise DomainError(
            f"law certification failed for alpha={alpha}, beta={beta}: "
            f"max moment error {worst:.3e} >= {tol:.0e}"
        )
    return worst


def density_csv_rows(law: TwoProjectionLaw, rows: int = DENSITY_CSV_ROWS) -> Iterable[str]:
    """Yield "t,density" CSV lines at equally spaced t in [a, b]."""
    yield "t,density"
    a, b = law.support_a, law.support_b
    for i in range(rows):
        t = a + (b - a) * i / (rows - 1)
        t = min(max(t, a), b)
        yield f"{t:.17g},{law_density(law, t):.17g}"


# ---------------------------------------------------------------------------
# Algebra structure (wedge summands, fiber interval, pinching)
# ---------------------------------------------------------------------------

WEDGE_PQ = "p∧q"
WEDGE_P_NOT_Q = "p∧(1−q)"
WEDGE_NOT_P_Q = "(1−p)∧q"
WEDGE_NOT_P_NOT_Q = "(1−p)∧(1−q)"


class Regime(Enum):
    """Shape of the continuous part of the two-projection algebra."""

    UNPINCHED = "unpinched"          # generic: full M2 fibers on [a, b]
    PINCH_AT_A = "pinch_at_a"        # alpha = beta != 1/2: diagonal fiber at a = 0
    PINCH_AT_B = "pinch_at_b"        # alpha + beta = 1, alpha != beta: diagonal at b = 1
    DOUBLE_PINCH = "double_pinch"    # alpha = beta = 1/2: diagonal at both ends


@dataclass(frozen=True)
class TwoProjStructure:
    regime: Regime
    wedge_summands: tuple[tuple[str, Fraction], ...]
    fiber_interval: tuple[float, float]
    pinch_at_a: bool
    pinch_at_b: bool

    @property
    def fiber_mass(self) -> Fraction:
        return ONE - sum((w for _, w in self.wedge_summands), ZERO)


def two_projection_structure(alpha: Fraction, beta: Fraction) -> TwoProjStructure:
    """Wedge summands (exact weights), fiber interval and pinch flags.

    Inputs outside the normalization 1 > alpha >= beta >= 1/2 are covered by
    the symmetries p <-> 1-p, q <-> 1-q and p <-> q, under which the four
    wedge weights are simply the positive parts of the four linear forms
    alpha+beta-1, alpha-beta, beta-alpha and 1-alpha-beta.
    """
    alpha, beta = check_unit_interval(alpha, beta)
    law = two_projection_law(alpha, beta)

    candidates = (
        (WEDGE_PQ, alpha + beta - 1),
        (WEDGE_P_NOT_Q, alpha - beta),
        (WEDGE_NOT_P_Q, beta - alpha),
        (WEDGE_NOT_P_NOT_Q, 1 - alpha - beta),
    )
    wedges = tuple((name, w) for name, w in candidates if w > 0)

    pinch_a = alpha == beta          # iff a = 0
    pinch_b = alpha + beta == 1      # iff b = 1
    if pinch_a and pinch_b:
        regime = Regime.DOUBLE_PINCH
    elif pinch_a:
        regime = Regime.PINCH_AT_A
    elif pinch_b:
        regime = Regime.PINCH_AT_B
    else:
        regime = Regime.UNPINCHED

    structure = TwoProjStructure(
        regime=regime,
        wedge_summands=wedges,
        fiber_interval=(law.support_a, law.support_b),
        pinch_at_a=pinch_a,
        pinch_at_b=pinch_b,
    )
    # The M2-valued fiber carries twice the pqp law's AC mass (two diagonal
    # matrix units over each fiber point).
    assert structure.fiber_mass == 2 * law.ac_mass
    assert dict(wedges).get(WEDGE_PQ, ZERO) == wedge_trace(alpha, beta)
    return structure
