"""Property tests: the (m, H) day kernel, column by column.

Every function of the day step takes all hours at once, as arrays with a
trailing hour axis.  Each property compares that call column by column with
the same function applied to one hour's (·, 1) slice, so no hour's result
depends on the other hours.  Elementwise results must agree exactly;
reductions along axis 0 are held to a relative 1e-12.  The independent
reference for the kernel's values is the scalar backtest of
``tests/_reference.py`` (``tests/test_reference.py``).
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.stats import rankdata

from schaake import copula
from schaake.copula import empirical_rank_matrix, is_rank_matrix
from schaake.forecast import independence_forecast, make_univariate_ensemble, shuffle
from schaake.margins import MarginModel, pit, quantile
from schaake.scoring import crps_ensemble, energy_score, verification_rank

RTOL = 1e-12
VALUES = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def matrices(draw, max_rows=15, max_hours=6, elements=VALUES):
    """(rows, hours) float matrix; small values repeat often enough to tie."""
    shape = (draw(st.integers(1, max_rows)), draw(st.integers(1, max_hours)))
    return draw(arrays(np.float64, shape, elements=elements))


def columns_like(draw, matrix, rows=None, elements=VALUES):
    n_rows = draw(st.integers(1, 15)) if rows is None else rows
    return draw(arrays(np.float64, (n_rows, matrix.shape[1]), elements=elements))


def scale_of(*xs):
    return max(1.0, *(float(np.max(np.abs(x))) for x in xs))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), sample=matrices())
def test_pit_matches_per_hour(data, sample):
    z = columns_like(data.draw, sample)
    u = pit(MarginModel.empirical(sample), z)
    g = pit(MarginModel.gaussian(), z)
    for h in range(sample.shape[1]):
        column = slice(h, h + 1)
        assert np.array_equal(u[:, column], pit(MarginModel.empirical(sample[:, column]),
                                                z[:, column]))
        assert np.array_equal(g[:, column], pit(MarginModel.gaussian(), z[:, column]))


@settings(max_examples=80, deadline=None)
@given(sample=matrices(),
       levels=arrays(np.float64, st.integers(1, 20),
                     elements=st.floats(1e-6, 1.0 - 1e-6)))
def test_quantile_matches_per_hour(sample, levels):
    q = quantile(MarginModel.empirical(sample), levels[:, None])
    assert q.shape == (levels.size, sample.shape[1])
    for h in range(sample.shape[1]):
        assert np.array_equal(q[:, h:h + 1], quantile(MarginModel.empirical(sample[:, h:h + 1]),
                                                      levels[:, None]))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), sample=matrices(max_hours=30), m=st.integers(1, 30),
       gaussian=st.booleans())
def test_univariate_ensemble_matches_per_hour(data, sample, m, gaussian):
    n_hours = sample.shape[1]
    point, mu = (data.draw(arrays(np.float64, n_hours, elements=VALUES)) for _ in range(2))
    sigma = data.draw(arrays(np.float64, n_hours, elements=st.floats(1e-3, 10.0)))
    margin = MarginModel.gaussian() if gaussian else MarginModel.empirical(sample)
    members = make_univariate_ensemble(point, (mu, sigma), margin, m)
    assert members.shape == (m, n_hours)
    for h in range(n_hours):
        column = slice(h, h + 1)
        margin_h = margin if gaussian else MarginModel.empirical(sample[:, column])
        assert np.array_equal(members[:, column], make_univariate_ensemble(
            point[column], (mu[column], sigma[column]), margin_h, m))


def test_gaussian_ensemble_levels_do_not_broadcast_across_hours():
    # m == H: the m levels must run down the members, not along the hours
    sigma = np.linspace(1.0, 3.0, 24)
    members = make_univariate_ensemble(np.zeros(24), (np.zeros(24), sigma),
                                       MarginModel.gaussian(), 24)
    assert members.shape == (24, 24)
    for h in range(24):
        assert np.array_equal(members[:, h:h + 1], make_univariate_ensemble(
            [0.0], ([0.0], sigma[h:h + 1]), MarginModel.gaussian(), 24))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), members=matrices(max_rows=30))
def test_crps_and_rank_match_per_hour(data, members):
    y = columns_like(data.draw, members, rows=1)[0]
    crps = crps_ensemble(members, y)
    ranks = verification_rank(members, y)
    atol = RTOL * scale_of(members, y)
    for h in range(members.shape[1]):
        column = slice(h, h + 1)
        np.testing.assert_allclose(crps[column], crps_ensemble(members[:, column], y[column]),
                                   rtol=RTOL, atol=atol)
        assert ranks[column] == verification_rank(members[:, column], y[column])


def broadcast_energy_score(members, y):
    """The m x m broadcast-norm formula the pairwise-distance version replaced."""
    m = members.shape[0]
    dist = np.mean(np.linalg.norm(members - y, axis=1))
    pair = np.linalg.norm(members[:, None, :] - members[None, :, :], axis=2)
    return dist - pair.sum() / (2.0 * m * m)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), members=matrices(max_rows=30, max_hours=24))
def test_energy_score_matches_broadcast_formula(data, members):
    y = columns_like(data.draw, members, rows=1)[0]
    assert energy_score(members, y) == pytest.approx(
        broadcast_energy_score(members, y), rel=RTOL, abs=RTOL * scale_of(members, y))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), members=matrices(max_rows=20), seed=st.integers(0, 2**32))
def test_reordering_keeps_each_hour_multiset(data, members, seed):
    members = np.sort(members, axis=0)
    levels = st.sampled_from([0.2, 0.4, 0.6, 0.8])  # few levels, so PITs tie
    pits = columns_like(data.draw, members, rows=members.shape[0], elements=levels)
    if members.shape[0] >= 2:
        ranks = empirical_rank_matrix(pits)
        assert is_rank_matrix(ranks)
        for h in range(members.shape[1]):
            assert np.array_equal(ranks[:, h], rankdata(pits[:, h], method="ordinal"))
        assert np.array_equal(np.sort(shuffle(members, ranks).members, axis=0), members)
    paired = independence_forecast(members, seed=seed).members
    assert np.array_equal(np.sort(paired, axis=0), members)


@settings(max_examples=60, deadline=None)
@given(members=matrices(max_rows=30, max_hours=24), seed=st.integers(0, 2**64 - 1))
def test_independence_shuffles_by_one_philox_permutation_per_hour(members, seed):
    members = np.sort(members, axis=0)
    m, n_hours = members.shape
    # reference: hour by hour, the next permutation of one Philox(seed) stream
    rng = np.random.Generator(np.random.Philox(seed))
    ranks = np.column_stack([rng.permutation(m) + 1 for _ in range(n_hours)])
    reference = np.take_along_axis(members, ranks - 1, axis=0)
    random_ranks = copula.random_rank_matrix(m, n_hours, seed)
    assert is_rank_matrix(random_ranks) and np.array_equal(random_ranks, ranks)
    paired = independence_forecast(members, seed=seed).members
    assert paired.tobytes() == reference.tobytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data(), members=matrices(max_rows=30, max_hours=24))
def test_scores_do_not_depend_on_the_rank_matrix_layout(data, members):
    # one sorted ensemble shuffled by a C- and an F-ordered copy of one rank
    # matrix: the forecasts hold their members in C order, so the scores agree
    # bit for bit
    members = np.sort(members, axis=0)
    m, n_hours = members.shape
    ranks = np.column_stack([np.asarray(data.draw(st.permutations(range(1, m + 1))))
                             for _ in range(n_hours)])
    y = columns_like(data.draw, members, rows=1)[0]
    c_order = shuffle(members, np.ascontiguousarray(ranks))
    f_order = shuffle(members, np.asfortranarray(ranks))
    assert f_order.members.flags.c_contiguous
    assert crps_ensemble(c_order.members, y).tobytes() == crps_ensemble(f_order.members,
                                                                         y).tobytes()
    assert energy_score(c_order.members, y) == energy_score(f_order.members, y)
