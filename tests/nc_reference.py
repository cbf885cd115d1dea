"""Reference oracle for tests: exact moments by non-crossing resummation.

Brute-force ground truth for ``freeprod.nc``.  Mixed moments of two free
projections are summed over non-crossing partitions with
parity-monochromatic blocks (mixed free cumulants vanish), entirely in
rational arithmetic.  The recursion is exponential in the word length, so it
is capped; the test suite uses it to cross-check the S-transform recurrence
in :func:`freeprod.nc.alternating_moments` for n <= 8.  The same recurrence
in Fraction arithmetic, :func:`fraction_moments`, checks the integer pass
exactly to higher orders.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterator

from freeprod.errors import DomainError, LimitExceeded

#: Longest word (pq)^n the reference resums: 2n <= 16.
MAX_REFERENCE_WORD_LENGTH = 16
MAX_CUMULANT_ORDER = 16

ZERO = Fraction(0)
ONE = Fraction(1)


def fraction_moments(alpha: Fraction, beta: Fraction, nmax: int) -> list[Fraction]:
    """m_0..m_nmax by the S-transform recurrence, one Fraction per step.

    The loop ``freeprod.nc`` ran before it moved to scaled integers:
    m_n = (alpha+beta) m_{n-1} + sum_{k=1}^{n-2} m_k m_{n-1-k}
    - sum_{k=1}^{n-1} m_k m_{n-k}, from m_1 = alpha*beta.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    m = [ZERO, alpha * beta]  # m[0] is a placeholder: psi has no constant term
    s = alpha + beta
    for j in range(2, nmax + 1):
        total = s * m[j - 1]
        total += sum((m[k] * m[j - 1 - k] for k in range(1, j - 1)), ZERO)
        total -= sum((m[k] * m[j - k] for k in range(1, j)), ZERO)
        m.append(total)
    return [ONE] + m[1 : nmax + 1]


def catalan(n: int) -> int:
    """Closed-form Catalan number C_n = binom(2n, n) / (n + 1)."""
    return math.comb(2 * n, n) // (n + 1)


def noncrossing_partitions(m: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Generate all non-crossing partitions of {1..m}.

    Recursion on the block of the smallest element: its members split the
    remaining points into independent intervals, which forbids crossings by
    construction.  Yields exactly C_m partitions.
    """
    if m < 0:
        raise DomainError("m must be nonnegative")
    yield from _nc_of(tuple(range(1, m + 1)))


def _nc_of(points: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    if not points:
        yield ()
        return
    n = len(points)
    for k in range(n):
        for idxs in combinations(range(1, n), k):
            block = (points[0],) + tuple(points[i] for i in idxs)
            bounds = (0,) + idxs + (n,)
            segments = [points[bounds[j] + 1 : bounds[j + 1]] for j in range(len(bounds) - 1)]
            yield from _combine(block, segments, 0, ())


def _combine(block, segments, i, acc) -> Iterator[tuple[tuple[int, ...], ...]]:
    if i == len(segments):
        yield (block,) + acc
        return
    for sub in _nc_of(segments[i]):
        yield from _combine(block, segments, i + 1, acc + sub)


def free_cumulants_projection(alpha: Fraction, nmax: int) -> list[Fraction]:
    """Free cumulants kappa_1..kappa_nmax of a projection with trace alpha.

    All moments of a projection equal its trace, so the cumulants come from
    the moment-cumulant recursion m_n = sum_k kappa_k * (products of lower
    moments over the k gaps of the first block).
    """
    alpha = Fraction(alpha)
    if not (ZERO < alpha < ONE):
        raise DomainError("alpha must lie in (0, 1)")
    if nmax < 1:
        raise DomainError("nmax must be >= 1")
    if nmax > MAX_CUMULANT_ORDER:
        raise LimitExceeded(f"nmax={nmax} exceeds cap {MAX_CUMULANT_ORDER}")

    moments = [ONE] + [alpha] * nmax  # m_0 = 1, m_n = alpha
    kappa: list[Fraction] = []
    for n in range(1, nmax + 1):
        # gap_sums[k][s]: sum over compositions of s into k nonnegative parts
        # of products of moments.
        acc = ZERO
        conv = [ONE] + [ZERO] * n  # k = 0 convolution power of the moment series
        for k in range(1, n + 1):
            new = [ZERO] * (n + 1)
            for s in range(n + 1):
                if conv[s] == 0:
                    continue
                for j in range(n + 1 - s):
                    new[s + j] += conv[s] * moments[j]
            conv = new
            if k < n:
                acc += kappa[k - 1] * conv[n - k]
        # k = n term is kappa_n * m_0^n = kappa_n
        kappa.append(moments[n] - acc)
    return kappa


def _block_sum(length: int, color: int, kappa: tuple[tuple[Fraction, ...], tuple[Fraction, ...]],
               memo: dict) -> Fraction:
    """Sum over monochromatic non-crossing partitions of an alternating word.

    The word has ``length`` letters with colors alternating starting at
    ``color`` (0 = first projection, 1 = second).  Each block must be
    single-colored and contributes kappa_{|block|} of its color.
    """
    if length == 0:
        return ONE
    key = (length, color)
    if key in memo:
        return memo[key]

    other = 1 - color

    def extend(rem: int, size: int) -> Fraction:
        # First block has `size` members so far, last one just placed; `rem`
        # letters follow, starting with the opposite color.  Either close the
        # block or append its next member (same color: even offsets).
        total = kappa[color][size - 1] * _block_sum(rem, other, kappa, memo)
        for j in range(2, rem + 1, 2):
            total += _block_sum(j - 1, other, kappa, memo) * extend(rem - j, size + 1)
        return total

    result = extend(length - 1, 1)
    memo[key] = result
    return result


def reference_moment(alpha: Fraction, beta: Fraction, n: int) -> Fraction:
    """Exact trace of (pq)^n by resumming cumulants over NC(2n); n >= 1."""
    if 2 * n > MAX_REFERENCE_WORD_LENGTH:
        raise LimitExceeded(
            f"word length {2 * n} exceeds cap {MAX_REFERENCE_WORD_LENGTH}"
        )
    kappa = (
        tuple(free_cumulants_projection(alpha, n)),
        tuple(free_cumulants_projection(beta, n)),
    )
    return _block_sum(2 * n, 0, kappa, {})
