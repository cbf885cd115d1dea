"""Loop and dense references for the Monte Carlo check.

The package samples each trial from one thin QR frame: of the smaller
range when rank P + rank Q <= dim, else of the complement of the larger
range, and reads sin(theta) of the principal angles off one block of it.
:func:`reference_spectrum` builds the two dense dim x dim projections from
the same Ginibre draws and frame and takes ``eigvalsh(P Q P)``, so given
identically seeded generators the tests compare the two value by value;
the dense eigenvalues are counted as the atom at 1 above
:data:`DENSE_ATOM_CUTOFF`, the rule the package used before it counted zero
angles.  :func:`haar_spectrum` keeps the textbook construction, P fixed and
Q = U diag(1^rq, 0) U* for a full Haar unitary U, which draws differently
and is compared with the sampler in distribution.  This module also keeps
a per-point law CDF that integrates the density by quadrature, independent
of the package's closed form, and the per-value KS loop that the array KS
replaced.
"""

from __future__ import annotations

import math

import numpy as np

#: Dense eigenvalues above this are counted as the atom at 1.
DENSE_ATOM_CUTOFF = 1.0 - 1e-8

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
    """eigvalsh(P Q P), sorted, for dense projections of ranks rp and rq
    built from the package sampler's Ginibre draws and thin QR frame."""
    p, q = min(rp, rq), max(rp, rq)
    inside = p + q <= dim
    n = p if inside else dim - q
    z = rng.standard_normal((dim, n)) + 1j * rng.standard_normal((dim, n))
    frame = np.linalg.qr(z)[0]
    spanned = frame @ frame.conj().T
    if inside:
        # the frame spans the smaller range, the larger is the first q axes
        small, large = spanned, np.diag((np.arange(dim) < q).astype(float))
    else:
        # the frame spans the complement of the larger range, the smaller
        # range is the first p axes
        small, large = np.diag((np.arange(dim) < p).astype(float)), np.eye(dim) - spanned
    p_mat, q_mat = (small, large) if rp <= rq else (large, small)
    m = p_mat @ q_mat @ p_mat
    m = 0.5 * (m + m.conj().T)  # kill numerical drift; PSD by construction
    return np.linalg.eigvalsh(m)


def haar_spectrum(rp: int, rq: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """Sorted spectrum of P Q P with P = diag(1^rp, 0) and
    Q = U diag(1^rq, 0) U* for a full Haar unitary U."""
    u = haar_unitary(dim, rng)
    # P Q P restricted rows/cols is the top-left rp x rp block of Q, padded
    # with dim - rp exact zeros.
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
    """KS distance, one law CDF evaluation per distinct sample value; the
    atoms are the samples equal to exactly 0.0 and 1.0."""
    x = np.asarray(eigenvalues, dtype=float)
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
