import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from _simulate import iid_error_panels, rng_for
from schaake.forecast import EnsembleForecast
from schaake.scoring import (
    DegenerateScoreDifference,
    ScorePanel,
    average_rank_histogram,
    crps_ensemble,
    dm_test,
    energy_score,
    interval_coverage,
    rank_histogram,
    score_forecasts,
    uniformity_check,
    verification_rank,
)


def crps_pairwise_oracle(members, y):
    m = len(members)
    s1 = sum(abs(x - y) for x in members) / m
    s2 = sum(abs(a - b) for a in members for b in members) / (2 * m * m)
    return s1 - s2


def crps_quadrature_oracle(members, y):
    """Exact integral of (F(x) - 1{x >= y})^2 for the ensemble step CDF."""
    members = np.sort(np.asarray(members, dtype=float))
    grid = np.unique(np.concatenate([members, [y]]))
    total = 0.0
    for a, b in zip(grid[:-1], grid[1:]):
        cdf = np.count_nonzero(members <= a) / members.size
        indicator = 1.0 if a >= y else 0.0
        total += (cdf - indicator) ** 2 * (b - a)
    return total


def test_crps_single_member():
    assert crps_ensemble([[5.0]], [3.0])[0] == pytest.approx(2.0)


def test_crps_two_members():
    assert crps_ensemble([[0.0], [2.0]], [1.0])[0] == pytest.approx(0.5)


def test_crps_matches_pairwise_oracle():
    rng = rng_for(1)
    for _ in range(25):
        members = rng.standard_normal(rng.integers(1, 15))
        y = float(rng.standard_normal())
        assert crps_ensemble(members[:, None], [y])[0] == pytest.approx(
            crps_pairwise_oracle(members, y), rel=1e-12, abs=1e-12)


def test_crps_matches_quadrature():
    rng = rng_for(2)
    for _ in range(10):
        members = rng.standard_normal(50) * rng.uniform(0.5, 3.0)
        y = float(rng.standard_normal())
        assert crps_ensemble(members[:, None], [y])[0] == pytest.approx(
            crps_quadrature_oracle(members, y), abs=1e-10)


def test_crps_large_gaussian_ensemble():
    members = rng_for(3).standard_normal(10000)
    # CRPS of N(0,1) at y = 0 is (sqrt(2) - 1) / sqrt(pi)
    closed_form = (np.sqrt(2.0) - 1.0) / np.sqrt(np.pi)
    assert crps_ensemble(members[:, None], [0.0])[0] == pytest.approx(closed_form, abs=0.01)


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 100),
       y=arrays(np.float64, st.integers(1, 24), elements=st.floats(-1e3, 1e3)))
def test_scores_of_members_equal_to_the_outcome_are_nonnegative(m, y):
    # the CRPS's two terms cancel to about -1e-15 unless clamped
    members = np.full((m, y.size), y)
    assert np.all(crps_ensemble(members, y) >= 0.0)
    assert energy_score(members, y) >= 0.0


def test_energy_score_single_member():
    assert energy_score([[1.0, 1.0]], [0.0, 0.0]) == pytest.approx(np.sqrt(2.0))


def test_energy_score_two_members():
    assert energy_score([[0.0, 0.0], [2.0, 0.0]], [1.0, 0.0]) == pytest.approx(0.5)


def test_energy_score_reduces_to_crps_in_1d():
    rng = rng_for(4)
    for _ in range(30):
        members = rng.standard_normal(rng.integers(1, 20))
        y = float(rng.standard_normal())
        assert energy_score(members[:, None], [y]) == pytest.approx(
            crps_ensemble(members[:, None], [y])[0], rel=1e-12)


def test_scores_translation_invariant():
    rng = rng_for(5)
    members = rng.standard_normal((10, 24))
    y = rng.standard_normal(24)
    shift = np.full(24, 17.25)
    assert energy_score(members + shift, y + shift) == pytest.approx(
        energy_score(members, y), rel=1e-12)
    assert crps_ensemble(members[:, :1] + 17.25, y[:1] + 17.25)[0] == pytest.approx(
        crps_ensemble(members[:, :1], y[:1])[0], rel=1e-12)


def test_energy_score_positive_homogeneity():
    rng = rng_for(6)
    members = rng.standard_normal((8, 24))
    y = rng.standard_normal(24)
    for k in (0.5, 2.0, 117.0):
        assert energy_score(k * members, k * y) == pytest.approx(
            k * energy_score(members, y), rel=1e-12)


def test_energy_score_dimension_mismatch():
    with pytest.raises(ValueError):
        energy_score([[1.0, 2.0]], [1.0, 2.0, 3.0])


def test_dm_zero_variance_is_an_error():
    s = np.array([1.0, 2.0, 3.0])
    with pytest.raises(DegenerateScoreDifference):
        dm_test(s, s + 0.5)


def test_dm_symmetric_differences():
    s1 = np.array([1.0, 0.0, 1.0, 0.0])
    s2 = np.array([0.0, 1.0, 0.0, 1.0])
    stat, p = dm_test(s1, s2)
    assert stat == 0.0
    assert p == pytest.approx(1.0)


def test_dm_antisymmetry():
    rng = rng_for(7)
    s1, s2 = rng.standard_normal(50), rng.standard_normal(50)
    stat_ab, p_ab = dm_test(s1, s2)
    stat_ba, p_ba = dm_test(s2, s1)
    assert stat_ab == -stat_ba
    assert p_ab == p_ba


def test_dm_returns_python_floats():
    rng = rng_for(7)
    stat, p = dm_test(rng.standard_normal(50), rng.standard_normal(50))
    assert type(stat) is float
    assert type(p) is float


def test_dm_size_monte_carlo():
    rng = rng_for(8)
    deltas = rng.standard_normal((1000, 500))
    means = deltas.mean(axis=1)
    sds = deltas.std(axis=1, ddof=1)
    stats = means / (sds / np.sqrt(500))
    rejections = np.mean(np.abs(stats) > 1.959964)
    assert 0.03 <= rejections <= 0.07
    # spot check the vectorized computation against dm_test itself
    stat, _ = dm_test(deltas[0], np.zeros(500))
    assert stat == pytest.approx(stats[0], rel=1e-12)


def test_verification_rank_boundaries():
    members = np.arange(1.0, 91.0)[:, None]
    assert verification_rank(members, [0.0])[0] == 1
    assert verification_rank(members, [1000.0])[0] == 91
    assert verification_rank([[1.0], [2.0], [3.0]], [2.5])[0] == 3


def test_verification_rank_ties_go_above():
    # realization equal to a member ranks above it (strict inequality)
    assert verification_rank([[1.0], [2.0], [3.0]], [2.0])[0] == 2


def test_one_hour_members_are_passed_as_m_by_1():
    members, y = rng_for(10).standard_normal(20), 0.5
    for score in (crps_ensemble, verification_rank, energy_score):
        with pytest.raises(ValueError, match=r"\(m, H\) array, got shape \(20,\); "
                                             r"pass one hour as \(m, 1\)"):
            score(members, y)
        with pytest.raises(ValueError, match=r"outcome shape \(\) does not match \(1,\)"):
            score(members[:, None], y)


def test_verification_ranks_vectorized():
    # 40 columns of 30 members each, ranked along axis 0 in one call
    rng = rng_for(9)
    members = rng.standard_normal((30, 40))
    y = rng.standard_normal(40)
    vec = verification_rank(members, y)
    for t in range(40):
        assert vec[t] == verification_rank(members[:, t:t + 1], y[t:t + 1])[0]


def test_rank_histogram_counts():
    hist = rank_histogram(np.array([1, 1, 3, 91]), m=90)
    assert hist.size == 91
    assert hist[0] == 2 and hist[2] == 1 and hist[90] == 1
    assert hist.sum() == 4
    with pytest.raises(ValueError):
        rank_histogram(np.array([0]), m=90)


def test_uniformity_check_calibrated_vs_biased():
    rng = rng_for(10)
    ranks = rng.integers(1, 92, size=2000)
    assert uniformity_check(rank_histogram(ranks, m=90))
    biased = np.clip(ranks, 1, 46)
    assert not uniformity_check(rank_histogram(biased, m=90))


def test_average_rank_histogram_uniform_for_comonotone_hours():
    # with identical ranks in every hour the average rank inherits the
    # uniform distribution of a single exchangeable rank
    rng = rng_for(11)
    members = rng.standard_normal((2000, 90))
    y = rng.standard_normal(2000)
    ranks = 1 + np.count_nonzero(members < y[:, None], axis=1)
    avg = np.tile(ranks[:, None], (1, 24)).mean(axis=1)
    hist = average_rank_histogram(avg, m=90)
    assert hist.sum() == 2000
    assert uniformity_check(hist)


def test_average_rank_histogram_concentrates_under_independence():
    # averaging independent hourly ranks pulls mass to the central bins
    rng = rng_for(11)
    members = rng.standard_normal((2000, 24, 90))
    y = rng.standard_normal((2000, 24))
    ranks = 1 + np.count_nonzero(members < y[:, :, None], axis=2)
    hist = average_rank_histogram(ranks.mean(axis=1), m=90)
    assert not uniformity_check(hist)
    assert hist[4] + hist[5] > 0.8 * hist.sum()


def test_interval_coverage_order_statistics():
    # m=90, nominal 93.33% -> k=3: interval between 3rd and 88th order stats
    samples = np.tile(np.arange(1.0, 91.0), (4, 1))
    realized = np.array([3.0, 88.0, 2.9, 88.1])
    assert interval_coverage(samples, realized, 0.9333) == pytest.approx(0.5)


def test_interval_coverage_median_always_inside():
    rng = rng_for(12)
    samples = rng.standard_normal((50, 90))
    realized = np.median(samples, axis=1)
    assert interval_coverage(samples, realized, 0.9333) == 1.0


def test_interval_coverage_exchangeable_simulation():
    rng = rng_for(13)
    samples = rng.standard_normal((3000, 90))
    realized = rng.standard_normal(3000)
    cov = interval_coverage(samples, realized, 0.9333)
    # exchangeable target: P(4 <= rank <= 88) = 85/91
    assert cov == pytest.approx(85 / 91, abs=0.02)


def test_interval_coverage_rejects_bad_nominal():
    with pytest.raises(ValueError):
        interval_coverage(np.zeros((2, 30)), np.zeros(2), 1.5)


def test_score_panel_refuses_ranks_of_another_shape():
    dates = ("a", "b")
    ScorePanel(dates, np.ones(2), np.ones((2, 3)), np.ones((2, 3), dtype=int))
    for shape in [(2, 2), (3, 3), (2,), (2, 3, 1)]:
        with pytest.raises(ValueError, match="ranks of shape"):
            ScorePanel(dates, np.ones(2), np.ones((2, 3)), np.ones(shape, dtype=int))


def test_score_forecasts_ranks_each_forecast():
    real, _ = iid_error_panels(5, rho=0.5, seed=12)
    rng = rng_for(12)
    days = [4, 1, 2]
    forecasts = [EnsembleForecast(real.dates[i], real.values[i] + rng.standard_normal((7, 24)))
                 for i in days]
    panel = score_forecasts(forecasts, real)
    assert panel.dates == tuple(real.dates[i] for i in days)
    assert panel.ranks.shape == (3, 24)
    for row, fc, i in zip(panel.ranks, forecasts, days):
        assert np.array_equal(row, verification_rank(fc.members, real.values[i]))


@pytest.mark.parametrize("build, match", [
    # ScorePanel: one ES per date, one CRPS row per date, nonnegative scores
    (lambda: ScorePanel(("a", "b"), np.ones(3), np.ones((2, 3)), np.ones((2, 3))),
     "one row per date"),
    (lambda: ScorePanel(("a", "b"), np.ones(2), np.ones((3, 3)), np.ones((3, 3))),
     "one row per date"),
    (lambda: ScorePanel(("a",), -np.ones(1), np.ones((1, 3)), np.ones((1, 3))),
     "nonnegative"),
    (lambda: ScorePanel(("a",), np.ones(1), -np.ones((1, 3)), np.ones((1, 3))),
     "nonnegative"),
    (lambda: dm_test(np.ones(3), np.ones(4)), "equal-length vectors"),
    (lambda: dm_test(np.ones((3, 2)), np.ones((3, 2))), "equal-length vectors"),
    (lambda: interval_coverage(np.zeros(30), np.zeros(1), 0.9), r"\(T, m\) samples"),
    (lambda: interval_coverage(np.zeros((2, 30)), np.zeros(3), 0.9), r"\(T, m\) samples"),
    (lambda: uniformity_check(np.zeros(5, dtype=int)), "empty histogram"),
])
def test_scoring_refuses_bad_shapes_and_scores(build, match):
    with pytest.raises(ValueError, match=match):
        build()
