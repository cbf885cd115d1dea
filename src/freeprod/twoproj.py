"""Spectral law and algebra structure of two free projections.

For free projections p, q with traces alpha, beta, the distribution of pqp
has atoms at 0 and 1 plus an absolutely continuous part on [a, b] with
square-root vanishing at both edges:

    a, b    = alpha + beta - 2*alpha*beta -+ 2*sqrt(alpha*beta*(1-alpha)*(1-beta))
    density = sqrt((b - t)(t - a)) / (2*pi*t*(1-t))

The centre alpha + beta - 2*alpha*beta and the radicand under the square
root are computed on exact rationals and rounded once, so b keeps full
relative accuracy even when alpha and beta are both near 1.  The identities
a*b = (alpha-beta)^2 and (1-a)(1-b) = (1-alpha-beta)^2 give a = 0 iff
alpha = beta and b = 1 iff alpha + beta = 1 (checked on exact rationals,
never on floats), give a as (alpha-beta)^2 / b without the cancellation of
the difference form when alpha ~ beta, and make the law's moments and
distribution function closed forms (:func:`law_moments`, :func:`law_cdf`).
The endpoints and the 1/(2 pi) normalization are candidates, certified
against the exact moment oracle in :mod:`freeprod.nc` by :func:`certify_law`
and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable

from .errors import DomainError
from .nc import alternating_moments, check_unit_interval, wedge_trace
from .nc import alternating_moment  # noqa: F401  perfbench's tracer wraps it here by name

ZERO = Fraction(0)
ONE = Fraction(1)

#: Rows written by the density CSV export.
DENSITY_CSV_ROWS = 1024


@dataclass(frozen=True)
class TwoProjectionLaw:
    """Distribution of pqp: atoms at 0 and 1 plus a density on [a, b]."""

    alpha: Fraction
    beta: Fraction
    support_a: float
    support_b: float

    @property
    def atom_at_zero(self) -> Fraction:
        return ONE - min(self.alpha, self.beta)

    @property
    def atom_at_one(self) -> Fraction:
        return wedge_trace(self.alpha, self.beta)

    @property
    def ac_mass(self) -> Fraction:
        """Exact mass of the absolutely continuous part."""
        return ONE - self.atom_at_zero - self.atom_at_one


def _scaled_float(x: Fraction, shift: int) -> float:
    """x * 2**shift, rounded once (shift >= 0)."""
    return (x.numerator << shift) / x.denominator


def two_projection_law(alpha: Fraction, beta: Fraction) -> TwoProjectionLaw:
    """Spectral law of pqp for free projections of traces alpha and beta."""
    alpha, beta = check_unit_interval(alpha, beta)
    # centre and radicand from the exact rationals: in floats the centre
    # cancels when alpha and beta are both near 1.  They are scaled by 4**s
    # and 16**s, which bring the centre near 1, and b and a are scaled back
    # once at the end, so nothing underflows on the way when alpha and beta
    # are both near 0 or both near 1; a power of 2 changes no other rounding.
    center = alpha + beta - 2 * alpha * beta
    s = (center.denominator.bit_length() - center.numerator.bit_length()) // 2
    if alpha + beta == 1:
        scaled_b = math.ldexp(1.0, 2 * s)
    else:
        radicand = alpha * beta * (1 - alpha) * (1 - beta)
        scaled_b = _scaled_float(center, 2 * s) + 2.0 * math.sqrt(_scaled_float(radicand, 4 * s))
    b = math.ldexp(scaled_b, -2 * s)
    # a*b = (alpha-beta)^2 exactly; center - half cancels when alpha ~ beta
    a = 0.0 if alpha == beta else math.ldexp(
        _scaled_float((alpha - beta) ** 2, 4 * s) / scaled_b, -2 * s)
    # a <= b in exact arithmetic, but the rounded quotient can land one ulp
    # above b when the AC part is vanishingly small (beta ~ 1e-34 and less)
    return TwoProjectionLaw(alpha=alpha, beta=beta, support_a=min(a, b), support_b=b)


def law_density(law: TwoProjectionLaw, t: float) -> float:
    """Pointwise density of the absolutely continuous part on [a, b]."""
    a, b = law.support_a, law.support_b
    if t < a or t > b:
        raise DomainError(f"t={t} outside support [{a}, {b}]")
    rad = (b - t) * (t - a)
    if rad <= 0.0:
        return 0.0
    return math.sqrt(rad) / (2.0 * math.pi * t * (1.0 - t))


def law_moments(law: TwoProjectionLaw, nmax: int) -> list[float]:
    """m_0..m_nmax: 1, then alpha*beta - sum_{k < n-1} P_k, each P_k built once.

    P_k = m_(k+1) - m_(k+2) is the k-th moment of sqrt(R) / (2 pi) with
    R = (b - t)(t - a), in which the atoms and the density's poles cancel.
    With m = (a+b)/2, h = (b-a)/2 and Catalan numbers Cat_j, substituting
    t = m + h sin(theta) gives

        P_k = (h^2/4) sum_j C(k, 2j) m^(k-2j) (h^2/4)^j Cat_j.

    m and h come from the float endpoints, so these moments test the
    endpoint formulas and the normalization against the exact oracle.
    """
    if nmax < 0:
        raise DomainError("n must be nonnegative")
    m = 0.5 * (law.support_a + law.support_b)
    q = (0.25 * (law.support_b - law.support_a)) ** 2  # h^2 / 4
    moments = [1.0, float(law.alpha * law.beta)]
    for k in range(nmax - 1):
        moments.append(moments[-1] - q * sum(
            math.comb(k, 2 * j) * (math.comb(2 * j, j) // (j + 1)) * m ** (k - 2 * j) * q**j
            for j in range(k // 2 + 1)
        ))
    return moments[: nmax + 1]


def law_moment(law: TwoProjectionLaw, n: int) -> float:
    # kept only for perfbench's traced oracle replay, which calls it by name
    return law_moments(law, n)[n]


def law_cdf(law: TwoProjectionLaw, x):
    """Distribution function F(x) of the law (right-continuous).

    ``x`` is a float or an array of floats; the result has the same shape.
    The density is sqrt(R) / (2 pi) (1/t + 1/(1-t)), and with m = (a+b)/2

        int_a^x sqrt(R) / t dt = sqrt(R) + m phi - sqrt(ab) psi,
        phi = atan2(x - m, sqrt(R)) + pi/2,
        psi = atan2((a+b) x - 2ab, 2 sqrt(ab) sqrt(R)) + pi/2;

    the 1/(1-t) term is the same on [1-b, 1-a] under t -> 1-t.  Taking
    sqrt(ab) = |alpha - beta| and sqrt((1-a)(1-b)) = |1 - alpha - beta|
    exactly, the two terms carry the exact pole masses
    min(alpha, beta) (1 - max(alpha, beta)) and alpha*beta - atom_at_one,
    so F(1) = 1 to rounding.  atan2 keeps full accuracy at x = b, where
    arcsin forms of the angles lose it.  numpy is imported here only.
    """
    import numpy as np

    def pole_integral(lo, hi, root, x):  # int_lo^x sqrt(R) / t dt
        x = np.clip(x, lo, hi)
        rad = np.sqrt((hi - x) * (x - lo))
        mid = 0.5 * (lo + hi)
        phi = np.arctan2(x - mid, rad) + 0.5 * np.pi
        psi = np.arctan2((lo + hi) * x - 2.0 * lo * hi, 2.0 * root * rad) + 0.5 * np.pi
        return rad + mid * phi - root * psi

    a, b = law.support_a, law.support_b
    x = np.asarray(x, dtype=float)
    root_one = float(abs(1 - law.alpha - law.beta))
    ac = (
        pole_integral(a, b, float(abs(law.alpha - law.beta)), x)
        + pole_integral(1.0 - b, 1.0 - a, root_one, 1.0 - a)
        - pole_integral(1.0 - b, 1.0 - a, root_one, 1.0 - x)
    ) / (2.0 * np.pi)
    total = np.where(x >= 0.0, float(law.atom_at_zero), 0.0) + ac
    total = total + np.where(x >= 1.0, float(law.atom_at_one), 0.0)
    return float(total) if total.ndim == 0 else total


def certify_law(alpha: Fraction, beta: Fraction, nmax: int = 8, tol: float = 1e-8) -> float:
    """Compare analytic moments with the exact oracle; return the worst error.

    m_0..m_nmax come from one call each to :func:`law_moments` and
    :func:`freeprod.nc.alternating_moments`; a pair tol or more apart raises
    DomainError.  This gate certifies the undocumented endpoint formulas for a
    and b and the 1/(2 pi) normalization; moments 0 and 1 are exact by construction.
    """
    law = two_projection_law(alpha, beta)
    exact = alternating_moments(alpha, beta, nmax)
    worst = max(abs(m - float(e)) for m, e in zip(law_moments(law, nmax), exact))
    if worst >= tol:
        raise DomainError(
            f"law certification failed for alpha={alpha}, beta={beta}: "
            f"max moment error {worst:.3e} >= {tol:.0e}"
        )
    return worst


def density_csv_rows(law: TwoProjectionLaw) -> Iterable[str]:
    """Yield "t,density" CSV lines at DENSITY_CSV_ROWS equally spaced t in [a, b]."""
    yield "t,density"
    a, b = law.support_a, law.support_b
    for i in range(DENSITY_CSV_ROWS):
        t = a + (b - a) * i / (DENSITY_CSV_ROWS - 1)
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


_REGIMES = {  # (pinch_at_a, pinch_at_b) -> regime
    (False, False): Regime.UNPINCHED,
    (True, False): Regime.PINCH_AT_A,
    (False, True): Regime.PINCH_AT_B,
    (True, True): Regime.DOUBLE_PINCH,
}


@dataclass(frozen=True)
class TwoProjStructure:
    wedge_summands: tuple[tuple[str, Fraction], ...]
    law: TwoProjectionLaw
    pinch_at_a: bool
    pinch_at_b: bool

    @property
    def fiber_interval(self) -> tuple[float, float]:
        return self.law.support_a, self.law.support_b

    @property
    def regime(self) -> Regime:
        return _REGIMES[self.pinch_at_a, self.pinch_at_b]

    @property
    def fiber_mass(self) -> Fraction:
        return ONE - sum((w for _, w in self.wedge_summands), ZERO)


def two_projection_structure(alpha: Fraction, beta: Fraction) -> TwoProjStructure:
    """Wedge summands (exact weights), the law and pinch flags.

    Inputs outside the normalization 1 > alpha >= beta >= 1/2 are covered by
    the symmetries p <-> 1-p, q <-> 1-q and p <-> q, under which the four
    wedge weights are simply the positive parts of the four linear forms
    alpha+beta-1, alpha-beta, beta-alpha and 1-alpha-beta.
    """
    law = two_projection_law(alpha, beta)
    alpha, beta = law.alpha, law.beta

    candidates = (
        (WEDGE_PQ, alpha + beta - 1),
        (WEDGE_P_NOT_Q, alpha - beta),
        (WEDGE_NOT_P_Q, beta - alpha),
        (WEDGE_NOT_P_NOT_Q, 1 - alpha - beta),
    )
    wedges = tuple((name, w) for name, w in candidates if w > 0)
    structure = TwoProjStructure(
        wedge_summands=wedges,
        law=law,
        pinch_at_a=alpha == beta,      # iff a = 0
        pinch_at_b=alpha + beta == 1,  # iff b = 1
    )
    # The M2-valued fiber carries twice the pqp law's AC mass (two diagonal
    # matrix units over each fiber point).
    assert structure.fiber_mass == 2 * law.ac_mass
    assert dict(wedges).get(WEDGE_PQ, ZERO) == wedge_trace(alpha, beta)
    return structure
