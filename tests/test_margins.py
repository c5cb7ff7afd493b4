import numpy as np
import pytest

from _simulate import rng_for
from schaake.margins import MarginModel, pit, quantile


def test_gaussian_pit_at_zero():
    assert pit(MarginModel.gaussian(), [[0.0]])[0, 0] == pytest.approx(0.5)


def test_empirical_pit_count_based():
    model = MarginModel.empirical([[-1.0], [0.0], [1.0]])
    assert pit(model, [[0.5]])[0, 0] == pytest.approx(3 / 4)
    assert pit(model, [[-5.0]])[0, 0] == pytest.approx(1 / 4)


def test_empirical_pit_never_hits_boundaries():
    model = MarginModel.empirical([[-1.0], [0.0], [1.0]])
    levels = {1 / 4, 2 / 4, 3 / 4}
    for z in (-10.0, -1.0, -0.5, 0.0, 0.3, 1.0, 10.0):
        assert pit(model, [[z]])[0, 0] in levels


def test_gaussian_pit_stays_inside_the_unit_interval():
    # ndtr rounds to exactly 1 above z of about 8.3 and to 0 below about -38
    u = pit(MarginModel.gaussian(), [[9.0], [-40.0]])
    assert np.all((u > 0.0) & (u < 1.0))


def test_pit_rejects_non_finite():
    with pytest.raises(ValueError):
        pit(MarginModel.gaussian(), [[np.nan]])


def test_gaussian_quantiles_against_reference():
    assert quantile(MarginModel.gaussian(), [[0.5]])[0, 0] == 0.0
    assert quantile(MarginModel.gaussian(), [[0.975]])[0, 0] == pytest.approx(1.959964,
                                                                              abs=1e-5)


def test_empirical_quantile_hits_order_statistics():
    sample = np.sort(rng_for(2).standard_normal(90))
    model = MarginModel.empirical(sample[:, None])
    for i in range(1, 91):
        assert quantile(model, [[i / 91]])[0, 0] == sample[i - 1]


def test_quantile_pit_roundtrip_on_support():
    sample = rng_for(3).standard_normal(40)
    model = MarginModel.empirical(sample[:, None])
    for s in sample:
        assert quantile(model, pit(model, [[s]]))[0, 0] == s


def test_monotonicity():
    model = MarginModel.empirical(rng_for(4).standard_normal((25, 1)))
    zs = np.linspace(-3, 3, 101)[:, None]
    assert np.all(np.diff(pit(model, zs)[:, 0]) >= 0)
    ps = np.linspace(0.01, 0.99, 99)[:, None]
    assert np.all(np.diff(quantile(model, ps)[:, 0]) >= 0)
    assert np.all(np.diff(quantile(MarginModel.gaussian(), ps)[:, 0]) > 0)


def test_quantile_level_bounds():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            quantile(MarginModel.gaussian(), [[bad]])


def test_tied_sample_values_share_lower_rank():
    model = MarginModel.empirical([[0.0], [0.0], [1.0]])
    # rank of 0.0 is 1 + #{sample < 0} = 1 for both tied points
    assert pit(model, [[0.0]])[0, 0] == pytest.approx(1 / 4)


def test_margin_model_validation():
    with pytest.raises(ValueError):
        MarginModel("weird")
    with pytest.raises(ValueError, match="empirical margin requires a sample"):
        MarginModel("empirical")
    with pytest.raises(ValueError):
        MarginModel.empirical(np.empty((0, 1)))
    with pytest.raises(ValueError):
        MarginModel("gaussian", sample=np.array([1.0]))
    model = MarginModel.empirical([[3.0], [1.0], [2.0]])
    assert np.array_equal(model.sample, [[1.0], [2.0], [3.0]])


def test_one_hour_is_passed_with_a_trailing_hour_axis():
    sample = rng_for(5).standard_normal(20)
    with pytest.raises(ValueError, match=r"\(n, H\) array, got shape \(20,\); "
                                         r"pass one hour as \(n, 1\)"):
        MarginModel.empirical(sample)
    model = MarginModel.empirical(sample[:, None])
    for margin in (model, MarginModel.gaussian()):
        with pytest.raises(ValueError, match=r"\(k, H\) array, one column per hour of the "
                                             r"margin, got shape \(20,\)"):
            pit(margin, sample)
        with pytest.raises(ValueError, match=r"\(k, 1\) or \(k, H\) array, got shape \(\)"):
            quantile(margin, 0.5)
    with pytest.raises(ValueError, match=r"got shape \(20, 1\)"):  # one value per hour
        pit(MarginModel.empirical(np.zeros((5, 24))), sample[:, None])


def test_quantile_refuses_levels_of_another_hour_count():
    margin = MarginModel.empirical(rng_for(6).standard_normal((20, 24)))
    for levels in (np.full((5, 3), 0.5), np.full((5, 25), 0.5)):
        with pytest.raises(ValueError, match=r"\(k, 1\) or \(k, H\) array, got shape "
                                             rf"\(5, {levels.shape[1]}\); H = 24"):
            quantile(margin, levels)
    assert quantile(margin, np.full((5, 24), 0.5)).shape == (5, 24)
    assert quantile(MarginModel.gaussian(), np.full((5, 3), 0.5)).shape == (5, 3)
