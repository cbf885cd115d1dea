"""Exact free-probability oracle: alternating moments of two free projections.

The moments m_n = tr((pq)^n) come from the S-transform, entirely in
rational arithmetic.  A projection of trace alpha has
S(z) = (1 + z) / (alpha + z), so the moment series psi = sum_{n>=1} m_n z^n
of pq is the compositional inverse of chi(z) = z(1+z) / ((alpha+z)(beta+z)):

    psi (1 + psi) = z (alpha + psi) (beta + psi).

Comparing coefficients of z^n gives an O(n^2) recurrence, which
:func:`alternating_moments` runs once over scaled integers for every order
up to nmax.  The non-crossing-partition enumerator and the Fraction form of
the recurrence live in the test suite as independent cross-checks.  This module
is the ground truth against which the analytic two-projection law is
certified; it must not import from :mod:`freeprod.twoproj`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, LimitExceeded
from .model import int_digit_limit

#: Longest word (pq)^n the oracle answers: 2n <= 256.
MAX_WORD_LENGTH = 256

ZERO = Fraction(0)
ONE = Fraction(1)


def check_unit_interval(alpha: Fraction, beta: Fraction) -> tuple[Fraction, Fraction]:
    """Both traces as Fractions; DomainError unless each lies in (0, 1)."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    if not (ZERO < alpha < ONE and ZERO < beta < ONE):
        raise DomainError("alpha and beta must lie in (0, 1)")
    return alpha, beta


def alternating_moments(alpha: Fraction, beta: Fraction, nmax: int) -> list[Fraction]:
    """Exact traces m_0..m_nmax of (pq)^n for free projections of traces alpha, beta.

    For n >= 2 the coefficient of z^n in psi(1 + psi) = z(alpha+psi)(beta+psi)
    gives, with c_n = sum_{k=1}^{n-1} m_k m_{n-k},

        m_n = (alpha+beta) m_{n-1} + c_{n-1} - c_n,

    starting from m_0 = 1 and m_1 = alpha*beta.  The pass runs in integers:
    with D = den(alpha) den(beta) and S = (alpha+beta) D, M_n = m_n D^n
    satisfies M_0 = 1, M_1 = num(alpha) num(beta) and

        M_n = S M_{n-1} + D C_{n-1} - C_n,   C_n = sum_{k=1}^{n-1} M_k M_{n-k},

    so every M_n is an integer, den(m_n) divides D^n, and no fraction is
    reduced until each m_n = M_n / D^n is built at the end.  An nmax whose
    bound D^nmax could pass the interpreter's limit on printed integer
    digits is refused up front.
    """
    alpha, beta = check_unit_interval(alpha, beta)
    if nmax < 0:
        raise DomainError("n must be nonnegative")
    if 2 * nmax > MAX_WORD_LENGTH:
        raise LimitExceeded(f"word length {2 * nmax} exceeds cap {MAX_WORD_LENGTH}")
    d = alpha.denominator * beta.denominator
    digits = int_digit_limit()
    if digits and nmax * math.log10(d) >= digits:
        raise LimitExceeded(
            f"moments to n={nmax} could have denominators past the "
            f"{digits}-digit limit for printing integers"
        )
    s = alpha.numerator * beta.denominator + beta.numerator * alpha.denominator
    big = [1, alpha.numerator * beta.numerator]  # M_0, M_1
    conv = 0  # C_1, an empty sum
    for n in range(2, nmax + 1):
        # C_n by symmetry: M_k M_(n-k) twice for k < n/2, plus M_(n/2)^2
        new_conv = 2 * sum(big[k] * big[n - k] for k in range(1, (n + 1) // 2))
        if n % 2 == 0:
            new_conv += big[n // 2] ** 2
        big.append(s * big[n - 1] + d * conv - new_conv)
        conv = new_conv
    moments = [ONE]
    scale = 1
    for n in range(1, nmax + 1):
        scale *= d
        moments.append(Fraction(big[n], scale))
    return moments


def alternating_moment(alpha: Fraction, beta: Fraction, n: int) -> Fraction:
    """Exact trace of (pq)^n, the last term of :func:`alternating_moments`.

    Equals the trace of (pqp)^n by traciality.  n = 0 returns 1.
    """
    return alternating_moments(alpha, beta, n)[n]


def wedge_trace(alpha: Fraction, beta: Fraction) -> Fraction:
    """Trace of the wedge p AND q: max(alpha + beta - 1, 0), exactly.

    This is the limit of the alternating moments as n grows.
    """
    alpha, beta = check_unit_interval(alpha, beta)
    return max(alpha + beta - 1, ZERO)
