"""Per-hour distributions of standardized residuals: PIT and quantile transforms.

Two margin kinds: an empirical CDF over a window of standardized residuals,
and the standard normal.  Hours lie on the trailing axis: an empirical
margin holds an (n, H) sample, ``pit`` maps (k, H) values to (k, H) levels,
and ``quantile`` maps (k, 1) or (k, H) levels to (k, H) quantiles.  A
one-hour caller passes an (n, 1) sample.  Empirical PITs are rank based,
rk/(n+1), and never reach 0 or 1; Gaussian PITs are clipped inside (0, 1).
So downstream copula code sees strictly interior levels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

EMPIRICAL = "empirical"
GAUSSIAN = "gaussian"
# the Gaussian PIT's range: the smallest normal float and the largest float below 1
_TINY = np.finfo(float).tiny
_BELOW_ONE = np.nextafter(1.0, 0.0)


@dataclass(frozen=True)
class MarginModel:
    """Distribution of standardized residuals, one per hour column.

    An empirical ``sample`` is (n, H), one column per hour, and is stored
    sorted along axis 0.
    """

    kind: str
    sample: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in (EMPIRICAL, GAUSSIAN):
            raise ValueError(f"unknown margin kind {self.kind!r}")
        if self.kind == EMPIRICAL:
            if self.sample is None:
                raise ValueError("empirical margin requires a sample")
            sample = np.sort(np.asarray(self.sample, dtype=float), axis=0)
            if sample.ndim != 2 or sample.size < 1 or not np.all(np.isfinite(sample)):
                raise ValueError(f"empirical sample must be a non-empty finite (n, H) array, "
                                 f"got shape {sample.shape}; pass one hour as (n, 1)")
            sample.setflags(write=False)
            object.__setattr__(self, "sample", sample)
        elif self.sample is not None:
            raise ValueError("gaussian margin carries no sample")

    @classmethod
    def empirical(cls, sample) -> "MarginModel":
        return cls(EMPIRICAL, sample)

    @classmethod
    def gaussian(cls) -> "MarginModel":
        return cls(GAUSSIAN)

    @property
    def n(self) -> int:
        return 0 if self.sample is None else self.sample.shape[0]


def pit(model: MarginModel, z):
    """Quantile levels of the (k, H) values ``z`` under the margin, (k, H).

    Empirical margins use rank/(n+1) with rank = 1 + #{sample < z} in the
    value's hour column, capped at n so levels stay strictly inside (0, 1);
    the count holds n booleans per value.  Tied values share the lower rank.
    Gaussian margins apply the standard normal CDF, clipped into
    [tiny, 1 - eps/2] because it rounds to exactly 1 above z of about 8.3
    and to 0 below about -38.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 2 or (model.kind == EMPIRICAL and z.shape[1] != model.sample.shape[1]):
        raise ValueError(f"values must be a (k, H) array, one column per hour of the margin, "
                         f"got shape {z.shape}; pass one hour as (k, 1)")
    if not np.all(np.isfinite(z)):
        raise ValueError("cannot PIT non-finite values")
    if model.kind == GAUSSIAN:
        return np.clip(ndtr(z), _TINY, _BELOW_ONE)
    rank = 1 + np.count_nonzero(model.sample[:, None, :] < z, axis=0)
    return np.minimum(rank, model.n) / (model.n + 1)


def quantile(model: MarginModel, p):
    """Generalized inverse CDF of the margin at (k, 1) or (k, H) levels ``p`` in (0, 1).

    Levels of shape (k, 1) give the (k, H) quantiles of every hour of an
    (n, H) empirical margin, and (k, 1) standard normal quantiles; other
    column counts of an empirical margin raise ``ValueError``.  For the
    empirical margin this is the smallest sample value s with
    #{sample <= s}/n >= p; at p = i/(n+1) it is exactly the i-th order
    statistic.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or (model.kind == EMPIRICAL and p.shape[1] not in (1, model.sample.shape[1])):
        raise ValueError(f"levels must be a (k, 1) or (k, H) array, got shape {p.shape}"
                         + ("" if model.sample is None else f"; H = {model.sample.shape[1]}"))
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("quantile level must lie strictly in (0, 1)")
    if model.kind == GAUSSIAN:
        return ndtri(p)
    idx = np.clip(np.ceil(model.n * p).astype(int) - 1, 0, model.n - 1)
    return np.take_along_axis(model.sample, idx, axis=0)
