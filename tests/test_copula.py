import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats
from scipy.special import ndtr

from _simulate import equicorrelated_normals, rng_for
from schaake.backtest import TOY_RANK_MATRIX
from schaake.copula import (
    CopulaError,
    _nearest_correlation,
    check_correlation_matrix,
    empirical_rank_matrix,
    fit_gaussian_copula,
    is_rank_matrix,
    read_rank_matrix_csv,
    sample_gaussian_rank_matrix,
)
from schaake.panel import PanelError


def test_single_column_ranks():
    pits = np.array([[0.9, 0.1], [0.1, 0.2], [0.5, 0.3]])
    ranks = empirical_rank_matrix(pits)
    assert list(ranks[:, 0]) == [3, 1, 2]


def test_reproduces_toy_rank_matrix():
    m = TOY_RANK_MATRIX.shape[0]
    pits = TOY_RANK_MATRIX / (m + 1)  # PIT history consistent with the reference ranks
    assert np.array_equal(empirical_rank_matrix(pits), TOY_RANK_MATRIX)


def test_invariance_under_monotone_transform():
    pits = rng_for(1).uniform(0.01, 0.99, size=(50, 4))
    transformed = pits.copy()
    transformed[:, 2] = transformed[:, 2] ** 3  # strictly increasing on (0,1)
    assert np.array_equal(empirical_rank_matrix(pits), empirical_rank_matrix(transformed))


def test_rank_columns_are_permutations():
    pits = rng_for(2).uniform(0.001, 0.999, size=(90, 24))
    assert is_rank_matrix(empirical_rank_matrix(pits))


def test_ties_break_to_earlier_day():
    pits = np.array([[0.5], [0.5], [0.2]])
    assert list(empirical_rank_matrix(pits)[:, 0]) == [2, 3, 1]


def test_gaussian_fit_under_independence():
    pits = rng_for(4).uniform(1e-6, 1 - 1e-6, size=(2000, 24))
    sigma = fit_gaussian_copula(pits)
    off = sigma[~np.eye(24, dtype=bool)]
    assert np.max(np.abs(off)) < 0.08


def test_gaussian_fit_comonotone_pair():
    u = rng_for(5).uniform(0.01, 0.99, 100)
    sigma = fit_gaussian_copula(np.column_stack([u, u]))
    # the positive-definiteness repair pulls the singular case just inside 1
    assert sigma[0, 1] == pytest.approx(1.0, abs=1e-6)


def test_gaussian_fit_recovers_equicorrelation():
    z = equicorrelated_normals(5000, rho=0.7, seed=6)
    sigma = fit_gaussian_copula(ndtr(z))
    off = sigma[~np.eye(24, dtype=bool)]
    assert np.max(np.abs(off - 0.7)) < 0.05


def test_gaussian_fit_output_is_correlation_matrix():
    pits = rng_for(7).uniform(0.01, 0.99, size=(30, 24))
    sigma = fit_gaussian_copula(pits)
    assert np.allclose(sigma, sigma.T)
    assert np.allclose(np.diag(sigma), 1.0)
    assert np.linalg.eigvalsh(sigma).min() > 0


@st.composite
def tied_pits(draw):
    """(m, H) PIT history, H >= 2, drawn from few levels so that ties are common."""
    shape = (draw(st.integers(3, 40)), draw(st.integers(2, 6)))
    levels = st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]) | st.floats(0.01, 0.99)
    return draw(arrays(np.float64, shape, elements=levels))


@settings(max_examples=150, deadline=None)
@given(pits=tied_pits())
def test_gaussian_fit_matches_spearmanr(pits):
    assume(np.all(np.ptp(pits, axis=0) > 0))
    rho = stats.spearmanr(pits).statistic
    if pits.shape[1] == 2:  # spearmanr returns a scalar for two columns
        rho = np.array([[1.0, rho], [rho, 1.0]])
    sigma = 2.0 * np.sin(np.pi * rho / 6.0)
    np.fill_diagonal(sigma, 1.0)
    expected = _nearest_correlation(sigma)
    np.testing.assert_allclose(fit_gaussian_copula(pits), expected, rtol=0, atol=1e-12)


def test_gaussian_fit_rejects_degenerate_column():
    pits = rng_for(8).uniform(0.01, 0.99, size=(20, 3))
    pits[:, 1] = 0.4
    with pytest.raises(CopulaError, match="degenerate"):
        fit_gaussian_copula(pits)


def test_sampling_identity_correlation():
    ranks = sample_gaussian_rank_matrix(np.eye(24), 2000, seed=11)
    assert is_rank_matrix(ranks)
    corr = np.corrcoef(ranks, rowvar=False)
    off = corr[~np.eye(24, dtype=bool)]
    assert np.max(np.abs(off)) < 0.1


def test_sampling_comonotone_degenerate():
    sigma = np.ones((24, 24))
    ranks = sample_gaussian_rank_matrix(sigma, 50, seed=12)
    assert np.all(ranks == ranks[:, [0]])


def test_sampling_is_deterministic():
    sigma = fit_gaussian_copula(ndtr(equicorrelated_normals(200, 0.5, seed=13)))
    a = sample_gaussian_rank_matrix(sigma, 90, seed=99)
    b = sample_gaussian_rank_matrix(sigma, 90, seed=99)
    assert np.array_equal(a, b)
    c = sample_gaussian_rank_matrix(sigma, 90, seed=100)
    assert not np.array_equal(a, c)


def test_pit_history_validation():
    with pytest.raises(CopulaError):
        empirical_rank_matrix(np.array([[0.5, 0.5]]))  # m < 2
    with pytest.raises(CopulaError):
        empirical_rank_matrix(np.array([[0.5, 1.0], [0.2, 0.3]]))  # boundary level


def test_rank_matrix_csv_roundtrip(tmp_path):
    path = tmp_path / "ranks.csv"
    path.write_text("h1,h2,h3\r\n2,3,1\r\n\r\n1,1,3\r\n3,2,2\r\n")
    ranks = read_rank_matrix_csv(path)
    assert ranks.dtype == np.int64
    assert np.array_equal(ranks, [[2, 3, 1], [1, 1, 3], [3, 2, 2]])


BAD_MATRIX_FILES = [
    pytest.param("ranks,h2\n1,2\n2,1\n", r":1: expected header 'h1\.\.hH'", id="header"),
    pytest.param("h1,h2\n1,2\n2\n", r":3: expected 2 columns, got 1", id="ragged"),
    pytest.param("h1,h2\n1,2\n2,one\n", r":3: bad value 'one'", id="non-numeric"),
    pytest.param("h1,h2\n1,2\ninf,1\n", r":3: non-finite value", id="non-finite"),
]


@pytest.mark.parametrize("text, match", BAD_MATRIX_FILES)
def test_rank_matrix_csv_names_line_of_bad_row(tmp_path, text, match):
    path = tmp_path / "ranks.csv"
    path.write_text(text)
    with pytest.raises(PanelError, match=r"ranks\.csv" + match):
        read_rank_matrix_csv(path)


def test_rank_matrix_csv_rejects_bad_columns(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("h1,h2\n1,1\n1,2\n")
    with pytest.raises(CopulaError, match="permutations"):
        read_rank_matrix_csv(path)


@pytest.mark.parametrize("sigma, match", [
    (np.ones((2, 3)), "square"),
    ([[1.0, 0.5], [0.4, 1.0]], "symmetric"),
    ([[2.0, 0.5], [0.5, 1.0]], "unit diagonal"),
    ([[1.0, 1.5], [1.5, 1.0]], r"lie in \[-1, 1\]"),
])
def test_check_correlation_matrix_refuses(sigma, match):
    with pytest.raises(CopulaError, match=match):
        check_correlation_matrix(sigma)


def test_sample_gaussian_rank_matrix_refuses_what_it_cannot_sample():
    with pytest.raises(CopulaError, match="m >= 2"):
        sample_gaussian_rank_matrix(np.eye(3), 1, seed=1)
    # a valid-looking correlation matrix with a negative eigenvalue: Cholesky
    # fails and the eigen square root refuses it
    sigma = np.array([[1.0, 0.9, 0.9], [0.9, 1.0, -0.9], [0.9, -0.9, 1.0]])
    assert np.linalg.eigvalsh(sigma).min() < -1e-8
    with pytest.raises(CopulaError, match="not positive semi-definite"):
        sample_gaussian_rank_matrix(sigma, 10, seed=1)
