"""Exact free-probability oracle: alternating moments of two free projections.

The moments m_n = tr((pq)^n) come from the S-transform, entirely in
rational arithmetic.  A projection of trace alpha has
S(z) = (1 + z) / (alpha + z), so the moment series psi = sum_{n>=1} m_n z^n
of pq is the compositional inverse of chi(z) = z(1+z) / ((alpha+z)(beta+z)):

    psi (1 + psi) = z (alpha + psi) (beta + psi).

Comparing coefficients of z^n gives an O(n^2) recurrence (see
:func:`alternating_moment`).  The non-crossing-partition enumerator it
replaces lives in the test suite as an independent cross-check.  This module
is the ground truth against which the analytic two-projection law is
certified; it must not import from :mod:`freeprod.twoproj`.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, LimitExceeded

#: Longest word (pq)^n the oracle answers: 2n <= 16.
MAX_WORD_LENGTH = 16

ZERO = Fraction(0)
ONE = Fraction(1)


def check_unit_interval(alpha: Fraction, beta: Fraction) -> tuple[Fraction, Fraction]:
    """Both traces as Fractions; DomainError unless each lies in (0, 1)."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    if not (ZERO < alpha < ONE and ZERO < beta < ONE):
        raise DomainError("alpha and beta must lie in (0, 1)")
    return alpha, beta


def alternating_moment(alpha: Fraction, beta: Fraction, n: int) -> Fraction:
    """Exact trace of (pq)^n for free projections of traces alpha, beta.

    Equals the trace of (pqp)^n by traciality.  n = 0 returns 1.  For
    n >= 2 the coefficient of z^n in psi(1 + psi) = z(alpha+psi)(beta+psi)
    gives

        m_n = (alpha+beta) m_{n-1} + sum_{k=1}^{n-2} m_k m_{n-1-k}
              - sum_{k=1}^{n-1} m_k m_{n-k},

    starting from m_1 = alpha*beta.
    """
    alpha, beta = check_unit_interval(alpha, beta)
    if n < 0:
        raise DomainError("n must be nonnegative")
    if n == 0:
        return ONE
    if 2 * n > MAX_WORD_LENGTH:
        raise LimitExceeded(f"word length {2 * n} exceeds cap {MAX_WORD_LENGTH}")
    m = [ZERO, alpha * beta]  # m[0] is a placeholder: psi has no constant term
    s = alpha + beta
    for j in range(2, n + 1):
        total = s * m[j - 1]
        total += sum((m[k] * m[j - 1 - k] for k in range(1, j - 1)), ZERO)
        total -= sum((m[k] * m[j - k] for k in range(1, j)), ZERO)
        m.append(total)
    return m[n]


def wedge_trace(alpha: Fraction, beta: Fraction) -> Fraction:
    """Trace of the wedge p AND q: max(alpha + beta - 1, 0), exactly.

    This is the limit of the alternating moments as n grows.
    """
    alpha, beta = check_unit_interval(alpha, beta)
    return max(alpha + beta - 1, ZERO)
