"""Loop and dense references for the Monte Carlo check.

The package samples each trial from a thin QR frame of the first rq Ginibre
columns.  This module keeps the construction it replaced: a full Haar
unitary (QR of a complex Ginibre matrix with the R-diagonal phases divided
out) and the eigenvalues of the rp x rp block of U diag(1^rq, 0) U*.  Given
identically seeded generators, both consume the same random draws, so the
tests compare them value by value.  It also keeps a per-point law CDF that
integrates the density by quadrature, independent of the package's closed
form, and the per-value KS loop that the array KS replaced.
"""

from __future__ import annotations

import math

import numpy as np

from freeprod.rmt import ATOM_ONE_CUTOFF

#: Gauss-Legendre rule on [-1, 1] for the reference CDF.
GAUSS_NODES, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(200)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R diagonal's phases are divided out; without that correction plain
    QR is not Haar.
    """
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def reference_spectrum(rp: int, rq: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    u = haar_unitary(dim, rng)
    # Q = U diag(1^rq, 0) U*; P Q P restricted rows/cols is the top-left
    # rp x rp block of Q, padded with dim - rp exact zeros.
    block = u[:rp, :rq]
    m = block @ block.conj().T
    m = 0.5 * (m + m.conj().T)  # kill numerical drift; PSD by construction
    eigs = np.linalg.eigvalsh(m)
    out = np.concatenate([np.zeros(dim - rp), eigs])
    out.sort()
    return out


def reference_law_cdf(law, x: float) -> float:
    """F(x) of the law, the density integrated from a to x per point.

    Substituting t = a + (b - a) sin^2(phi) turns the density times dt into

        (b - a)^2 sin^2(2 phi) / (4 pi t (1 - t)),  1 - t = (1 - b) + (b - a) cos^2(phi),

    analytic on [0, pi/2], so Gauss-Legendre on [0, phi(x)] converges fast
    unless a pole at t = 0 or 1 sits just outside [a, b] (near a pinch, not
    on one).  Both t and 1 - t are formed without cancellation, which keeps
    full accuracy on a pinch (a = 0 or b = 1), where the density blows up
    and evaluating it at rounded nodes near the edge loses about 1e-11.
    """
    a, b = law.support_a, law.support_b
    total = 0.0
    if x >= 0.0:
        total += float(law.atom_at_zero)
    if x > a:
        top = math.atan2(math.sqrt(min(x, b) - a), math.sqrt(b - min(x, b)))
        phi = 0.5 * top * (GAUSS_NODES + 1.0)
        t = a + (b - a) * np.sin(phi) ** 2
        one_minus_t = (1.0 - b) + (b - a) * np.cos(phi) ** 2
        f = (b - a) ** 2 * np.sin(2.0 * phi) ** 2 / (4.0 * math.pi * t * one_minus_t)
        total += 0.5 * top * float(np.dot(GAUSS_WEIGHTS, f))
    if x >= 1.0:
        total += float(law.atom_at_one)
    return total


def reference_ks_statistic(eigenvalues, law) -> float:
    """KS distance, one law CDF evaluation per distinct sample value."""
    x = np.asarray(eigenvalues, dtype=float)
    x = np.where(x > ATOM_ONE_CUTOFF, 1.0, x)
    x = np.where(np.abs(x) < 1.0 - ATOM_ONE_CUTOFF, 0.0, x)
    n = len(x)
    vals, counts = np.unique(x, return_counts=True)
    cum = np.cumsum(counts)
    sup = 0.0
    for v, c_at, c_le in zip(vals, counts, cum):
        f_right = reference_law_cdf(law, v)
        f_left = f_right
        if v == 0.0:
            f_left -= float(law.atom_at_zero)
        if v == 1.0:
            f_left -= float(law.atom_at_one)
        sup = max(
            sup,
            abs(c_le / n - f_right),
            abs((c_le - c_at) / n - f_left),
        )
    return min(sup, 1.0)
