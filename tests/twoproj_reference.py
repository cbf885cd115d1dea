"""Per-order reference for the two-projection law's moments.

:func:`reference_law_moment` is the loop ``freeprod.twoproj`` ran before
:func:`freeprod.twoproj.law_moments` built each P_k once: every order sums
all P_k below it again.  It does the same float operations in the same
order, so the tests compare the two with exact float equality.
"""

from __future__ import annotations

import math

from freeprod.errors import DomainError


def reference_law_moment(law, n: int) -> float:
    """n-th moment: 1 at n = 0, and alpha*beta - sum_{k < n-1} P_k beyond.

    P_k = m_(k+1) - m_(k+2) is the k-th moment of sqrt(R) / (2 pi) with
    R = (b - t)(t - a), in which the atoms and the density's poles cancel.
    With m = (a+b)/2, h = (b-a)/2 and Catalan numbers Cat_j, substituting
    t = m + h sin(theta) gives

        P_k = (h^2/4) sum_j C(k, 2j) m^(k-2j) (h^2/4)^j Cat_j.

    m and h come from the float endpoints, so these moments test the
    endpoint formulas and the normalization against the exact oracle.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    if n == 0:
        return 1.0
    m = 0.5 * (law.support_a + law.support_b)
    q = (0.25 * (law.support_b - law.support_a)) ** 2  # h^2 / 4
    moment = float(law.alpha * law.beta)
    for k in range(n - 1):
        moment -= q * sum(
            math.comb(k, 2 * j) * (math.comb(2 * j, j) // (j + 1)) * m ** (k - 2 * j) * q**j
            for j in range(k // 2 + 1)
        )
    return moment
