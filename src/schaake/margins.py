"""Per-hour distributions of standardized residuals: PIT and quantile transforms.

Two margin kinds: an empirical CDF over a window of standardized residuals,
and the standard normal.  Empirical PITs are rank based, rk/(n+1), and never
reach 0 or 1, so downstream copula code sees strictly interior levels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

EMPIRICAL = "empirical"
GAUSSIAN = "gaussian"


@dataclass(frozen=True)
class MarginModel:
    """Distribution of standardized residuals, one per hour column.

    An empirical ``sample`` is (n,) for one hour or (n, H) for H hours and is
    stored sorted along axis 0.
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
            if sample.ndim not in (1, 2) or sample.size < 1 or not np.all(np.isfinite(sample)):
                raise ValueError("empirical sample must be a non-empty finite (n,) or (n, H)")
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

    @property
    def hours(self) -> tuple:
        """Trailing hour shape of the sample: () or (H,); () for the Gaussian."""
        return () if self.sample is None else self.sample.shape[1:]


def pit(model: MarginModel, z):
    """Quantile level of ``z`` under the margin; vectorized over ``z``.

    ``z`` broadcasts against the margin's hour shape: an (n, H) margin takes
    (k, H) values.  Empirical margins use rank/(n+1) with rank = 1 +
    #{sample < z}, capped at n so levels stay strictly inside (0, 1); the
    count holds n booleans per value.  Tied values share the lower rank.
    Gaussian margins apply the standard normal CDF.
    """
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("cannot PIT non-finite values")
    if model.kind == GAUSSIAN:
        u = ndtr(z)
    else:
        hours = model.hours
        lead = len(np.broadcast_shapes(z.shape, hours)) - len(hours)
        sample = model.sample.reshape((model.n,) + (1,) * lead + hours)
        rank = 1 + np.count_nonzero(sample < z, axis=0)
        u = np.minimum(rank, model.n) / (model.n + 1)
    return u if u.ndim else float(u)


def quantile(model: MarginModel, p):
    """Generalized inverse CDF of the margin at level(s) ``p`` in (0, 1).

    ``p`` broadcasts against the margin's hour shape: for an (n, H) margin,
    levels of shape (k, 1) give the (k, H) quantiles of every hour.  For the
    empirical margin this is the smallest sample value s with
    #{sample <= s}/n >= p; at p = i/(n+1) it is exactly the i-th order
    statistic.
    """
    p = np.asarray(p, dtype=float)
    if np.any((p <= 0.0) | (p >= 1.0)):
        raise ValueError("quantile level must lie strictly in (0, 1)")
    if model.kind == GAUSSIAN:
        q = ndtri(p)
    else:
        idx = np.clip(np.ceil(model.n * p).astype(int) - 1, 0, model.n - 1)
        q = model.sample[(idx, *map(np.arange, model.hours))]
    return q if np.ndim(q) else float(q)
