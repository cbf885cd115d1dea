from fractions import Fraction

import numpy as np
import pytest

from freeprod.errors import DimensionError, ValidationError
from freeprod.rmt import (
    KS_THRESHOLD,
    MOMENT_ORDERS,
    _spectrum,
    eigenvalue_csv_rows,
    ks_statistic,
    round_half_up,
    trial_spectra,
    verify_two_projection_law,
)
from freeprod.twoproj import two_projection_law
from rmt_reference import (
    DENSE_ATOM_CUTOFF,
    haar_spectrum,
    haar_unitary,
    reference_ks_statistic,
    reference_law_cdf,
    reference_spectrum,
)

F = Fraction


def test_round_half_up():
    assert round_half_up(F(716, 1000) * 10) == 7
    assert round_half_up(F(1, 2)) == 1
    assert round_half_up(F(3, 2)) == 2
    assert round_half_up(F(7, 10) * 512) == 358


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(0)
    u = haar_unitary(64, rng)
    assert np.allclose(u @ u.conj().T, np.eye(64), atol=1e-12)


@pytest.mark.parametrize("alpha, beta", [
    (F(7, 10), F(3, 5)),    # rp > rq, atom at 1
    (F(3, 10), F(3, 5)),    # rp < rq
    (F(7, 10), F(7, 10)),   # alpha = beta
    (F(1, 3), F(2, 3)),     # alpha + beta = 1
    (F(1, 2), F(1, 2)),
])
@pytest.mark.parametrize("dim", [16, 48, 128, 512])
def test_spectrum_matches_dense_reference(alpha, beta, dim):
    rp, rq = round_half_up(alpha * dim), round_half_up(beta * dim)
    for seed in (0, 1, 7):
        seq = np.random.SeedSequence([seed, dim])
        fast = _spectrum(rp, rq, dim, np.random.default_rng(seq))
        dense = reference_spectrum(rp, rq, dim, np.random.default_rng(seq))
        assert fast.shape == dense.shape == (dim,)
        assert np.all(np.diff(fast) >= 0.0)
        assert np.max(np.abs(fast - dense)) <= 1e-12
        # the atom at 1 is the exact 1.0 entries, one per zero angle; the
        # dense count misfiles a continuous eigenvalue near 1 at a pinch
        atoms = np.sum(fast == 1.0)
        assert atoms == max(rp + rq - dim, 0)
        if alpha + beta != 1:
            assert atoms == np.sum(dense > DENSE_ATOM_CUTOFF)
        # the dim - min(rp, rq) null directions are exact zeros
        assert np.all(fast[: dim - min(rp, rq)] == 0.0)


class _Draws:
    """Stands in for a Generator: hands out the given normal draws in order."""

    def __init__(self, *arrays):
        self.arrays = list(arrays)

    def standard_normal(self, shape):
        out = self.arrays.pop(0)
        assert out.shape == shape
        return out


def test_zero_angle_cutoff_and_eigenvalues_that_round_to_one():
    # rp = rq = 8 = dim / 2: the frame spans a range of rank 8; with draws
    # [I; diag(d)] its rows below 8 are diag(d / sqrt(1 + d^2)) = sin(theta)
    dim = 16
    d = np.array([1e-16, 1e-10, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0])
    eigs = _spectrum(8, 8, dim, _Draws(np.vstack([np.eye(8), np.diag(d)]), np.zeros((dim, 8))))
    assert np.all(eigs[:8] == 0.0)
    # sin(theta) = 1e-16 is below dim * eps: a zero angle, the atom
    assert eigs[-1] == 1.0
    # sin(theta) = 1e-10 is a continuous angle; 1 - 1e-20 rounds to 1 and is
    # kept just below it
    assert eigs[-2] == np.nextafter(1.0, 0.0)
    assert np.max(np.abs(eigs[8:-2] - np.sort(1.0 / (1.0 + d[2:] ** 2)))) <= 1e-15


def test_spectrum_range_and_rank_identity():
    (eigs,) = trial_spectra(F(7, 10), F(3, 5), 512, seed=3, trials=1)
    assert len(eigs) == 512
    assert eigs.min() >= -1e-10 and eigs.max() <= 1 + 1e-10
    # rank identity: dim(P wedge Q) = rank P + rank Q - dim when positive
    ones = int(np.sum(eigs > 1 - 1e-8))
    assert ones == round(0.7 * 512) + round(0.6 * 512) - 512 == 153
    zeros = int(np.sum(np.abs(eigs) < 1e-8))
    assert zeros >= 512 - round(0.7 * 512)


def test_determinism():
    (a,) = trial_spectra(F(1, 2), F(1, 2), 64, seed=11, trials=1)
    (b,) = trial_spectra(F(1, 2), F(1, 2), 64, seed=11, trials=1)
    assert np.array_equal(a, b)
    (c,) = trial_spectra(F(1, 2), F(1, 2), 64, seed=12, trials=1)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("alpha, beta", [
    (F(1, 3), F(2, 3)), (F(207, 634), F(427, 634)), (F(1, 2), F(1, 2)),
])
@pytest.mark.parametrize("dim", [16, 17, 32, 64])
def test_pinch_atom_counts_follow_the_rank_identity(alpha, beta, dim):
    # at alpha + beta = 1 the density grows like 1/sqrt(1 - t) at t = 1, so
    # continuous eigenvalues crowd the atom; each trial must still count
    # exactly the zero angles the ranks force
    rp, rq = round_half_up(alpha * dim), round_half_up(beta * dim)
    for seed in range(25):
        for eigs in trial_spectra(alpha, beta, dim, seed, trials=4):
            assert np.sum(eigs == 1.0) == max(rp + rq - dim, 0)
            assert np.all(eigs[eigs != 1.0] < 1.0)


def test_continuous_eigenvalue_within_1e8_of_one_is_not_the_atom():
    # seed 469: one trial's top continuous eigenvalue is 1 - 7.7e-9, which
    # the old eigenvalue cutoff 1 - 1e-8 would have counted as an atom
    report = verify_two_projection_law(F(207, 634), F(427, 634), dim=512, seed=469, trials=4)
    top = max(s[s < 1.0].max() for s in report.spectra)
    assert 1.0 - 1e-8 < top < 1.0
    assert report.trial_atom_one_counts == (0, 0, 0, 0)
    assert report.passed


@pytest.mark.parametrize("alpha, beta", [(F(3, 10), F(3, 5)), (F(7, 10), F(3, 5))],
                         ids=["frame-of-smaller-range", "frame-of-complement"])
def test_each_branch_follows_the_law(alpha, beta):
    law = two_projection_law(alpha, beta)
    pooled = np.sort(np.concatenate(trial_spectra(alpha, beta, 256, seed=2, trials=8)))
    assert ks_statistic(pooled, law) <= 0.01
    # the same draws with the branch's Jacobi parameters a = q - p and
    # b = dim - p - q swapped: cos^2 in place of 1 - sin^2, the continuous
    # part reflected about 1/2; the gate must reject it
    continuous = (pooled > 0.0) & (pooled < 1.0)
    swapped = np.where(continuous, 1.0 - pooled, pooled)
    assert ks_statistic(swapped, law) > KS_THRESHOLD


@pytest.mark.parametrize("alpha, beta", [
    (F(3, 10), F(3, 5)), (F(7, 10), F(3, 5)), (F(1, 3), F(2, 3)),
])
def test_sampler_matches_full_haar_construction_in_distribution(alpha, beta):
    dim, trials = 128, 8
    rp, rq = round_half_up(alpha * dim), round_half_up(beta * dim)
    fast = np.concatenate(trial_spectra(alpha, beta, dim, seed=0, trials=trials))
    full = np.concatenate([
        haar_spectrum(rp, rq, dim, np.random.default_rng(seq))
        for seq in np.random.SeedSequence(1).spawn(trials)
    ])
    x = np.sort(fast[(fast > 0.0) & (fast < 1.0)])
    y = np.sort(full[(full > 1.0 - DENSE_ATOM_CUTOFF) & (full < DENSE_ATOM_CUTOFF)])
    assert len(x) == len(y) == trials * min(rp, rq, dim - rp, dim - rq)
    both = np.concatenate([x, y])
    d = np.max(np.abs(np.searchsorted(x, both, side="right") / len(x)
                      - np.searchsorted(y, both, side="right") / len(y)))
    # two-sample KS critical value at the 1% level
    assert d < 1.63 * np.sqrt((len(x) + len(y)) / (len(x) * len(y)))


def test_trial_spectra_thread_count_invariance(monkeypatch):
    args = (F(7, 10), F(3, 5), 64, 5, 4)
    monkeypatch.delenv("FREEPROD_THREADS", raising=False)
    serial = trial_spectra(*args)
    monkeypatch.setenv("FREEPROD_THREADS", "4")
    threaded = trial_spectra(*args)
    for s, t in zip(serial, threaded):
        assert np.array_equal(s, t)


def test_ks_point_masses():
    law = two_projection_law(F(1, 2), F(1, 2))
    # all mass at 0 versus a law with only half an atom there
    assert ks_statistic(np.zeros(1000), law) == pytest.approx(0.5, abs=1e-12)
    law2 = two_projection_law(F(1, 5), F(1, 5))
    assert ks_statistic(np.ones(1000), law2) == pytest.approx(1.0, abs=1e-12)


def test_ks_inverse_cdf_self_consistency():
    # sampling the law through its own quantiles must give a tiny statistic
    law = two_projection_law(F(7, 10), F(3, 5))
    n = 20000
    u = (np.arange(n) + 0.5) / n
    grid = np.linspace(0.0, 1.0, 400001)
    from freeprod.twoproj import law_cdf

    cdf = law_cdf(law, grid)
    samples = grid[np.searchsorted(cdf, u, side="left").clip(0, len(grid) - 1)]
    assert ks_statistic(samples, law) < 0.01


@pytest.mark.parametrize("alpha, beta", [
    (F(7, 10), F(3, 5)), (F(3, 10), F(3, 5)), (F(7, 10), F(7, 10)),
    (F(1, 3), F(2, 3)), (F(1, 2), F(1, 2)),
])
def test_array_cdf_and_ks_match_loop_reference(alpha, beta):
    from freeprod.twoproj import law_cdf

    law = two_projection_law(alpha, beta)
    a, b = law.support_a, law.support_b
    points = np.concatenate([
        [-1.0, -1e-9, 0.0, 1e-9, a, b, 1.0 - 1e-9, 1.0, 2.0],
        np.linspace(a, b, 43), np.nextafter(np.linspace(a, b, 47), -np.inf),
        np.linspace(0.0, 1.0, 257),
    ])
    cdf = law_cdf(law, points)
    for x, f in zip(points, cdf):
        assert law_cdf(law, float(x)) == f
        assert abs(f - reference_law_cdf(law, float(x))) <= 1e-12
    for seed in (0, 1):
        eigs = np.sort(np.concatenate(trial_spectra(alpha, beta, 64, seed, 2)))
        assert abs(ks_statistic(eigs, law) - reference_ks_statistic(eigs, law)) <= 1e-12
    for eigs in (np.zeros(10), np.ones(10), points):
        assert abs(ks_statistic(eigs, law) - reference_ks_statistic(eigs, law)) <= 1e-12


def test_verify_passes_and_is_deterministic():
    r1 = verify_two_projection_law(F(7, 10), F(3, 5), dim=256, seed=0, trials=4)
    r2 = verify_two_projection_law(F(7, 10), F(3, 5), dim=256, seed=0, trials=4)
    assert r1 == r2
    assert r1.passed
    assert r1.ks_statistic <= 0.05
    assert len(r1.moment_errors) == len(MOMENT_ORDERS)
    assert all(c == r1.expected_atom_one_count // 4 for c in r1.trial_atom_one_counts)


def test_ks_shrinks_with_dimension():
    small = verify_two_projection_law(F(7, 10), F(3, 5), dim=64, seed=1, trials=4)
    large = verify_two_projection_law(F(7, 10), F(3, 5), dim=512, seed=1, trials=4)
    assert large.ks_statistic < small.ks_statistic


def test_negative_control_fails():
    wrong = two_projection_law(F(1, 5), F(1, 10))
    report = verify_two_projection_law(
        F(7, 10), F(3, 5), dim=256, seed=0, trials=4, law=wrong
    )
    assert not report.passed


def test_dimension_errors():
    with pytest.raises(DimensionError):
        trial_spectra(F(1, 2), F(1, 2), 8, seed=0, trials=1)
    with pytest.raises(DimensionError):
        trial_spectra(F(1, 1000), F(1, 2), 64, seed=0, trials=1)
    with pytest.raises(DimensionError):
        verify_two_projection_law(F(1, 2), F(1, 2), dim=64, seed=0, trials=0)


def test_negative_seed_is_refused_after_the_dimension_checks():
    with pytest.raises(ValidationError, match="seed must be >= 0"):
        trial_spectra(F(1, 2), F(1, 3), 16, seed=-1, trials=1)
    with pytest.raises(DimensionError):
        trial_spectra(F(1, 2), F(1, 3), 8, seed=-1, trials=1)
    with pytest.raises(DimensionError):
        verify_two_projection_law(F(1, 2), F(1, 3), dim=16, seed=-1, trials=0)


def test_eigenvalue_csv():
    spectra = trial_spectra(F(1, 2), F(1, 2), 32, seed=0, trials=2)
    rows = list(eigenvalue_csv_rows(spectra))
    assert rows[0] == "trial,index,eigenvalue"
    assert len(rows) == 1 + 2 * 32
    trial, idx, val = rows[1].split(",")
    assert (trial, idx) == ("0", "0")
    assert 0 <= float(val) <= 1 + 1e-10


def test_report_json_keys():
    report = verify_two_projection_law(F(1, 2), F(1, 2), dim=64, seed=0, trials=2)
    obj = report.to_json()
    assert obj["pass"] == report.passed
    assert obj["alpha"] == "1/2"
    assert obj["dim"] == 64 and obj["trials"] == 2
