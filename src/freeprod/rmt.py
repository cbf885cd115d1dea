"""Random-matrix Monte Carlo check of the two-projection spectral law.

Haar-rotated deterministic projections become asymptotically free, so the
eigenvalue distribution of P Q P at large dimension must match the analytic
law: same atoms (by exact rank counting), Kolmogorov-Smirnov agreement of
the continuous part, and matching low moments.

The spectrum of P Q P depends only on the principal angles between the two
ranges (Collins 2005, PTRF 133), and the ranks fix all but
n = min(rp, rq, dim - rp, dim - rq) of them.  With p = min(rp, rq) and
q = max(rp, rq) (swapping the ranks leaves the law unchanged by Haar
invariance), each trial draws one complex Ginibre block and takes its thin
QR frame, a Haar-random subspace against the fixed coordinate range of the
other projection:

* p + q <= dim: a dim x p frame of the smaller range; sin(theta) are the
  singular values of its rows below q.
* p + q > dim: a dim x (dim - q) frame of the complement of the larger
  range; sin(theta) are the singular values of its top p rows, and the
  other p + q - dim angles are exactly 0.

The other p eigenvalues are cos^2(theta) = 1 - sin^2(theta).  A zero
angle, forced by the ranks or with a computed sin(theta) below dim * eps, is
written as exactly 1.0 and is the atom at 1; every other eigenvalue stays
below 1.0, so the atom count needs no cutoff on the eigenvalues.  The
dim - p null directions are exact zeros.  One trial costs 2 * dim * n
normals, the QR of a dim x n block and the SVD of a block with n columns or
n rows.

PRNG: numpy's PCG64 seeded through SeedSequence; per-trial streams are
derived with SeedSequence(seed).spawn(trials), so runs are reproducible
bit-for-bit for a fixed (alpha, beta, dim, seed, trials) within this
implementation.  Set FREEPROD_THREADS to run trials concurrently; the
aggregation is a sorted merge, so the report is unchanged.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .errors import DimensionError, ValidationError
from .twoproj import TwoProjectionLaw, law_cdf, law_moments, two_projection_law

KS_THRESHOLD = 0.05
MOMENT_ORDERS = (1, 2, 3, 4)

THREADS_ENV_VAR = "FREEPROD_THREADS"


def round_half_up(x: Fraction) -> int:
    """Round-half-up used for projection ranks (deterministic on rationals)."""
    from math import floor

    return floor(Fraction(x) + Fraction(1, 2))


@dataclass(frozen=True)
class MCReport:
    alpha: Fraction
    beta: Fraction
    dim: int
    seed: int
    trials: int
    ks_statistic: float
    expected_atom_one_count: int
    trial_atom_one_counts: tuple[int, ...]
    moment_errors: tuple[float, ...]
    moment_tolerance: float
    passed: bool
    #: The per-trial sorted spectra the verdict was computed from; kept for
    #: export, not part of the report's JSON or equality.
    spectra: tuple[np.ndarray, ...] = field(compare=False, repr=False)

    @property
    def atom_one_count(self) -> int:
        return sum(self.trial_atom_one_counts)

    def to_json(self) -> dict:
        return {
            "alpha": str(self.alpha),
            "beta": str(self.beta),
            "dim": self.dim,
            "seed": self.seed,
            "trials": self.trials,
            "ks_statistic": self.ks_statistic,
            "atom_one_count": self.atom_one_count,
            "expected_atom_one_count": self.expected_atom_one_count,
            "trial_atom_one_counts": list(self.trial_atom_one_counts),
            "moment_errors": list(self.moment_errors),
            "moment_tolerance": self.moment_tolerance,
            "pass": self.passed,
        }


def _ranks(alpha: Fraction, beta: Fraction, dim: int) -> tuple[int, int]:
    if dim < 16:
        raise DimensionError("dim must be >= 16")
    rp = round_half_up(Fraction(alpha) * dim)
    rq = round_half_up(Fraction(beta) * dim)
    if not (0 < rp < dim and 0 < rq < dim):
        raise DimensionError("rounded ranks must lie strictly between 0 and dim")
    return rp, rq


def _spectrum(rp: int, rq: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    p, q = min(rp, rq), max(rp, rq)
    inside = p + q <= dim
    n = p if inside else dim - q
    z = rng.standard_normal((dim, n)) + 1j * rng.standard_normal((dim, n))
    frame = np.linalg.qr(z)[0]
    sin = np.linalg.svd(frame[q:] if inside else frame[:p], compute_uv=False)
    # descending, so the angles counted as zero come last
    cont = sin[sin >= dim * np.finfo(float).eps]
    out = np.zeros(dim)
    # a continuous eigenvalue that rounds to 1 is kept below the atom
    out[dim - p : dim - p + len(cont)] = np.clip(1.0 - cont**2, 0.0, np.nextafter(1.0, 0.0))
    out[dim - p + len(cont) :] = 1.0
    return out


def ks_statistic(eigenvalues: np.ndarray, law: TwoProjectionLaw) -> float:
    """Sup distance between the empirical CDF and the law's CDF.

    The law's atoms contribute jumps at 0 and 1, so the comparison uses both
    the right value and the left limit of the law at every sample point.
    Samples equal to exactly 0.0 or 1.0 are the atoms (the sampler writes
    them so); a continuous sample near 0 or 1 stays where it is.
    """
    x = np.asarray(eigenvalues, dtype=float)
    n = len(x)
    vals, counts = np.unique(x, return_counts=True)
    cum = np.cumsum(counts)
    f_right = law_cdf(law, vals)
    f_left = (
        f_right
        - np.where(vals == 0.0, float(law.atom_at_zero), 0.0)
        - np.where(vals == 1.0, float(law.atom_at_one), 0.0)
    )
    sup = max(
        np.abs(cum / n - f_right).max(initial=0.0),
        np.abs((cum - counts) / n - f_left).max(initial=0.0),
    )
    return min(float(sup), 1.0)


def trial_spectra(
    alpha: Fraction, beta: Fraction, dim: int, seed: int, trials: int
) -> list[np.ndarray]:
    """One sorted spectrum per trial; trial streams come from spawning the
    seed sequence, so results are independent of execution order."""
    rp, rq = _ranks(alpha, beta, dim)
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    seqs = np.random.SeedSequence(seed).spawn(trials)
    threads = os.environ.get(THREADS_ENV_VAR, "1")
    try:
        workers = max(1, int(threads))
    except ValueError:
        raise ValidationError(
            f"{THREADS_ENV_VAR} must be an integer, not {threads!r}"
        ) from None

    def run(seq) -> np.ndarray:
        return _spectrum(rp, rq, dim, np.random.default_rng(seq))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, seqs))
    return [run(seq) for seq in seqs]


def verify_two_projection_law(
    alpha: Fraction,
    beta: Fraction,
    dim: int,
    seed: int,
    trials: int,
    law: Optional[TwoProjectionLaw] = None,
) -> MCReport:
    """Pool eigenvalues over trials and test them against the analytic law.

    Pass requires KS <= 0.05, the atom-at-1 count (the eigenvalues equal to
    1.0, one per zero principal angle) matching the rank identity
    max(rank P + rank Q - dim, 0) exactly in every trial, and
    the first four empirical moments within 5 / sqrt(dim) of the law's.
    A wrong law (negative control) must fail at least one of these.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if trials < 1:
        raise DimensionError("trials must be >= 1")
    rp, rq = _ranks(alpha, beta, dim)
    if law is None:
        law = two_projection_law(alpha, beta)
    spectra = trial_spectra(alpha, beta, dim, seed, trials)
    expected_per_trial = max(rp + rq - dim, 0)
    trial_counts = tuple(int(np.count_nonzero(s == 1.0)) for s in spectra)
    pooled = np.sort(np.concatenate(spectra))
    ks = ks_statistic(pooled, law)

    tol = 5.0 * dim ** -0.5
    analytic = law_moments(law, max(MOMENT_ORDERS))
    moment_errors = tuple(abs(float(np.mean(pooled**n)) - analytic[n]) for n in MOMENT_ORDERS)

    passed = (
        ks <= KS_THRESHOLD
        and all(c == expected_per_trial for c in trial_counts)
        and all(e <= tol for e in moment_errors)
    )
    return MCReport(
        alpha=alpha,
        beta=beta,
        dim=dim,
        seed=seed,
        trials=trials,
        ks_statistic=ks,
        expected_atom_one_count=expected_per_trial * trials,
        trial_atom_one_counts=trial_counts,
        moment_errors=moment_errors,
        moment_tolerance=tol,
        passed=passed,
        spectra=tuple(spectra),
    )


def eigenvalue_csv_rows(spectra: Iterable[np.ndarray]) -> Iterable[str]:
    """Yield "trial,index,eigenvalue" CSV lines."""
    yield "trial,index,eigenvalue"
    for trial, eigs in enumerate(spectra):
        for idx, e in enumerate(eigs):
            yield f"{trial},{idx},{e:.17g}"
