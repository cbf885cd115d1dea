from fractions import Fraction

import numpy as np
import pytest

from freeprod.errors import DimensionError
from freeprod.rmt import (
    ATOM_ONE_CUTOFF,
    MOMENT_ORDERS,
    _spectrum,
    eigenvalue_csv_rows,
    ks_statistic,
    round_half_up,
    sample_pqp_spectrum,
    trial_spectra,
    verify_two_projection_law,
)
from freeprod.twoproj import two_projection_law
from rmt_reference import (
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
        assert np.sum(fast > ATOM_ONE_CUTOFF) == np.sum(dense > ATOM_ONE_CUTOFF)
        # the dim - min(rp, rq) null directions are exact zeros
        assert np.all(fast[: dim - min(rp, rq)] == 0.0)


def test_spectrum_range_and_rank_identity():
    eigs = sample_pqp_spectrum(F(7, 10), F(3, 5), 512, seed=3)
    assert len(eigs) == 512
    assert eigs.min() >= -1e-10 and eigs.max() <= 1 + 1e-10
    # rank identity: dim(P wedge Q) = rank P + rank Q - dim when positive
    ones = int(np.sum(eigs > 1 - 1e-8))
    assert ones == round(0.7 * 512) + round(0.6 * 512) - 512 == 153
    zeros = int(np.sum(np.abs(eigs) < 1e-8))
    assert zeros >= 512 - round(0.7 * 512)


def test_determinism():
    a = sample_pqp_spectrum(F(1, 2), F(1, 2), 64, seed=11)
    b = sample_pqp_spectrum(F(1, 2), F(1, 2), 64, seed=11)
    assert np.array_equal(a, b)
    c = sample_pqp_spectrum(F(1, 2), F(1, 2), 64, seed=12)
    assert not np.array_equal(a, c)


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
        [-1.0, -1e-9, 0.0, a, b, 1.0, 2.0],
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
        sample_pqp_spectrum(F(1, 2), F(1, 2), 8, seed=0)
    with pytest.raises(DimensionError):
        sample_pqp_spectrum(F(1, 1000), F(1, 2), 64, seed=0)
    with pytest.raises(DimensionError):
        verify_two_projection_law(F(1, 2), F(1, 2), dim=64, seed=0, trials=0)


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
