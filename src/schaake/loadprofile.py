"""Load-profile price aggregation: weighted daily sums of hourly prices."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forecast import EnsembleForecast
from .panel import N_HOURS, PanelError, first_fault, read_checked, repeats

# Synthetic, illustrative commercial-style profile (kW per normalized
# consumer): low overnight, plateau across working hours.  Not measured
# data; supply a real profile via CSV for any substantive use.
_DEFAULT_WEIGHTS = (
    0.055, 0.050, 0.048, 0.047, 0.048, 0.055,
    0.075, 0.110, 0.150, 0.170, 0.180, 0.185,
    0.180, 0.175, 0.170, 0.165, 0.160, 0.150,
    0.135, 0.115, 0.095, 0.080, 0.070, 0.060,
)


@dataclass(frozen=True)
class LoadProfile:
    """Fixed hourly consumption weights used to price a daily demand.

    Normally 24 weights; shorter profiles are accepted for reduced-dimension
    examples and must match the priced vector's length.
    """

    weights: np.ndarray

    def __post_init__(self):
        weights = np.array(self.weights, dtype=float)
        if weights.ndim != 1 or weights.size < 1:
            raise ValueError("weights must be a non-empty vector")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0) or not np.any(weights > 0):
            raise ValueError("weights must be finite and nonnegative with at least one positive")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)


def default_profile() -> LoadProfile:
    """Bundled synthetic commercial-style profile (illustrative only)."""
    return LoadProfile(np.array(_DEFAULT_WEIGHTS))


def daily_price(prices, profile: LoadProfile) -> float:
    """Weighted sum of the hourly prices."""
    prices = np.asarray(prices, dtype=float)
    if prices.shape != profile.weights.shape:
        raise ValueError(f"need exactly {profile.weights.size} hourly prices")
    return float(prices @ profile.weights)


def scenario_daily_prices(fc: EnsembleForecast, profile: LoadProfile) -> np.ndarray:
    """Daily price of each scenario row, order preserved."""
    if fc.members.shape[1] != profile.weights.size:
        raise ValueError(f"forecast must cover {profile.weights.size} hours")
    return fc.members @ profile.weights


def load_profile_csv(path) -> LoadProfile:
    """Parse a profile CSV with header ``hour,weight`` and 24 rows, in any order.

    Malformed rows raise :class:`PanelError` naming ``path:line``.
    """
    weights = read_checked(path, ("hour", "weight"), False, _profile_weights)
    if len(weights) != N_HOURS:
        raise PanelError(f"{path}: expected {N_HOURS} hours, got {len(weights)}")
    return LoadProfile(weights)


def _profile_weights(rows, complete: bool):
    """A profile's weights in hour order, checked for :func:`panel.read_checked`."""
    hour, weight = rows["hour"], rows["weight"]
    fault = first_fault(
        (weight < 0, lambda i: f"negative weight {weight[i]}"),
        ((hour < 1) | (hour > N_HOURS), lambda i: f"hour {hour[i]} outside 1..{N_HOURS}"),
        (repeats(hour), lambda i: f"duplicate hour {hour[i]}"))
    return fault, weight[np.argsort(hour)]

