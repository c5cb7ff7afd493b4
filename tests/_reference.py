"""A scalar reference backtest: the paper's steps as per-hour loops over Python floats.

It restates every step of a backtest after filter estimation, hour by hour
and day by day, from the method's description: the raw, AR-GARCH and
seasonal-AR paths, the empirical and Gaussian margins and their PITs, the
quantile levels i/(m+1), stable ordinal ranks (ties to the earlier day), the
Gaussian copula from Spearman's rho via 2 sin(pi rho/6), the seeded Philox
draws of copula samples and independence permutations, and the ensemble CRPS
and Energy Score.  It imports nothing from ``schaake``: the filter estimates
come from a caller's ``fit``, and a filter spec is any object with ``kind``
and ``seasonal_period``.  Sums over a window follow numpy's pairwise order,
so the paths can be compared bit for bit.
"""
import bisect
import hashlib
import math

import numpy as np
from scipy.special import ndtr, ndtri

# setting -> (filter kind, margin kind, dependence kind), as the paper names them
SETTINGS = {
    "Schaake-NP": ("argarch", "empirical", "shuffle"),
    "Schaake-P": ("argarch", "gaussian", "gaussian"),
    "Schaake-Raw": ("raw", "empirical", "shuffle"),
    "I-NP": ("argarch", "empirical", "independence"),
    "I-P": ("argarch", "gaussian", "independence"),
    "I-Raw": ("raw", "empirical", "independence"),
}
_TINY = 2.0 ** -1022                # the smallest normal float
_BELOW_ONE = 1.0 - 2.0 ** -53       # the largest float below 1
_EIG_FLOOR = 1e-8


def derive_seed(master, date, setting, purpose):
    """The 64-bit substream seed of (master seed, date, setting, purpose)."""
    key = f"{master}|{date.isoformat()}|{setting}|{purpose}".encode()
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


def pairwise_sum(values):
    """Sum in numpy's pairwise order: blocks of up to 128 in 8 running sums."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return pairwise_sum(values[:half]) + pairwise_sum(values[half:])
    r = list(values[:8])
    i = 8
    while i < n - n % 8:
        for j in range(8):
            r[j] += values[i + j]
        i += 8
    total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    for v in values[i:]:
        total += v
    return total


def filter_hour(x, spec, p):
    """(standardized residuals, one-step mu, one-step sigma) of one hour's window ``x``."""
    n = len(x)
    if spec.kind == "raw":
        return list(x), 0.0, 1.0
    if spec.kind == "argarch":
        # e_t = x_t - c - phi x_{t-1}, the first about the mean c/(1-phi);
        # h_t = omega + alpha e_{t-1}^2 + beta h_{t-1} from the sample variance
        e = [x[0] - p.c / (1.0 - p.phi)] + [x[t] - p.c - p.phi * x[t - 1] for t in range(1, n)]
        h0 = pairwise_sum([v * v for v in e]) / n
        h = [h0 if h0 > 0.0 else 1e-12]
        for t in range(n):
            h.append((p.alpha * (e[t] * e[t]) + p.omega) + p.beta * h[t])
        sd = [math.sqrt(v) for v in h]
        return [e[t] / sd[t] for t in range(n)], p.c + p.phi * x[-1], sd[n]
    # seasonal AR: (1 - phi1 B)(1 - sphi B^s) x_t = c + e_t, the first s + 1
    # days about the unconditional mean
    s = spec.seasonal_period
    mean = [p.c + p.phi1 * x[t - 1] + p.seasonal_phi * x[t - s]
            - p.phi1 * p.seasonal_phi * x[t - s - 1] for t in range(s + 1, n + 1)]
    mu = [p.c / ((1.0 - p.phi1) * (1.0 - p.seasonal_phi))] * (s + 1) + mean[:-1]
    return [(x[t] - mu[t]) / p.sigma for t in range(n)], mean[-1], p.sigma


def argarch_nll(x, p):
    """Gaussian NLL of one hour's window ``x`` under AR-GARCH params ``p``, and its gradient.

    The NLL is the package's: 0.5 * sum of log 2 pi + log h_t + e_t^2 / h_t
    over the paths of :func:`filter_hour`.  The gradient is in the natural
    parameters (c, phi, omega, alpha, beta), by forward sensitivities: the
    derivatives of e_t and h_t are carried through the recursions with them,
    h_0's through the sample variance.
    """
    n = len(x)
    e = [x[0] - p.c / (1.0 - p.phi)] + [x[t] - p.c - p.phi * x[t - 1] for t in range(1, n)]
    de = ([(-1.0 / (1.0 - p.phi), -p.c / (1.0 - p.phi) ** 2, 0.0, 0.0, 0.0)]
          + [(-1.0, -x[t - 1], 0.0, 0.0, 0.0) for t in range(1, n)])
    h = pairwise_sum([v * v for v in e]) / n
    dh = [2.0 * math.fsum(e[t] * de[t][k] for t in range(n)) / n for k in range(5)]
    if not h > 0.0:
        h, dh = 1e-12, [0.0] * 5
    terms, grad = [], [[] for _ in range(5)]
    for t in range(n):
        u = e[t] * e[t] / h
        terms.append(math.log(h) + u)
        for k in range(5):
            grad[k].append(0.5 * ((1.0 - u) / h * dh[k] + 2.0 * e[t] / h * de[t][k]))
        # h_{t+1} = omega + alpha e_t^2 + beta h_t
        dh = [2.0 * p.alpha * e[t] * de[t][k] + p.beta * dh[k] for k in range(5)]
        dh[2] += 1.0
        dh[3] += e[t] * e[t]
        dh[4] += h
        h = (p.alpha * (e[t] * e[t]) + p.omega) + p.beta * h
    return 0.5 * (n * math.log(2.0 * math.pi) + math.fsum(terms)), [math.fsum(g) for g in grad]


def pit_hour(margin, sample, values):
    """PITs of ``values``: rank/(n+1) in the sorted ``sample``, or the clipped normal CDF."""
    if margin == "gaussian":
        return [min(max(float(ndtr(v)), _TINY), _BELOW_ONE) for v in values]
    n = len(sample)
    return [min(1 + bisect.bisect_left(sample, v), n) / (n + 1) for v in values]


def quantile_hour(margin, sample, level):
    """Generalized inverse CDF: the smallest sample value s with #{sample <= s}/n >= level."""
    if margin == "gaussian":
        return float(ndtri(level))
    n = len(sample)
    return sample[min(max(math.ceil(n * level) - 1, 0), n - 1)]


def ordinal_ranks(values):
    """Ranks 1..m of ``values``, ties to the earlier index (Python's sort is stable)."""
    ranks = [0] * len(values)
    for rank, i in enumerate(sorted(range(len(values)), key=values.__getitem__), start=1):
        ranks[i] = rank
    return ranks


def average_ranks(values):
    """Ranks 1..m of ``values``, tied values sharing their mean rank."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in order[i:j + 1]:
            ranks[k] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def gaussian_copula(pits):
    """Correlation matrix (list of rows) of the Gaussian copula of the PIT columns ``pits``.

    Spearman's rho of each pair of hours maps to 2 sin(pi rho/6); eigenvalues
    below 1e-8 are raised to 1e-8 and the result is rescaled to a unit
    diagonal.  None when an hour's PITs are all equal.
    """
    if any(min(col) == max(col) for col in pits):
        return None
    n_hours, m = len(pits), len(pits[0])
    centred = [[r - math.fsum(col) / m for r in col] for col in map(average_ranks, pits)]
    norm = [math.sqrt(math.fsum(v * v for v in col)) for col in centred]

    def spearman(a, b):
        return math.fsum(u * v for u, v in zip(centred[a], centred[b])) / (norm[a] * norm[b])
    sigma = [[1.0 if a == b else 2.0 * math.sin(math.pi * spearman(a, b) / 6.0)
              for b in range(n_hours)] for a in range(n_hours)]
    w, v = np.linalg.eigh(np.array(sigma))
    if w.min() >= _EIG_FLOOR:
        return sigma
    w, v = np.maximum(w, _EIG_FLOOR).tolist(), v.tolist()
    floored = [[math.fsum(v[a][k] * w[k] * v[b][k] for k in range(n_hours))
                for b in range(n_hours)] for a in range(n_hours)]
    return [[1.0 if a == b else floored[a][b] / math.sqrt(floored[a][a] * floored[b][b])
             for b in range(n_hours)] for a in range(n_hours)]


def cholesky(sigma):
    """Lower-triangular L with L L' = sigma (list of rows)."""
    n = len(sigma)
    low = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rest = sigma[i][j] - math.fsum(low[i][k] * low[j][k] for k in range(j))
            low[i][j] = math.sqrt(rest) if i == j else rest / low[j][j]
    return low


def rank_columns(kind, pits, seed):
    """The day's rank matrix as columns, one per hour; None if its copula cannot be learned."""
    n_hours, m = len(pits), len(pits[0])
    rng = np.random.Generator(np.random.Philox(seed))
    if kind == "shuffle":
        return [ordinal_ranks(col) for col in pits]
    if kind == "independence":   # hour by hour, the next permutation of the stream
        return [(rng.permutation(m) + 1).tolist() for _ in range(n_hours)]
    sigma = gaussian_copula(pits)
    if sigma is None:
        return None
    low = cholesky(sigma)
    normals = [[float(ndtri(min(max(u, 1e-12), 1.0 - 1e-12))) for u in row]
               for row in rng.random((m, n_hours)).tolist()]
    return [ordinal_ranks([math.fsum(row[k] * low[h][k] for k in range(h + 1))
                           for row in normals]) for h in range(n_hours)]


def crps(members, y):
    """CRPS of one hour's members: mean |x - y| - sum over pairs |x_l - x_k| / (2 m^2), >= 0."""
    m = len(members)
    spread = 2.0 * math.fsum(abs(a - b) for i, a in enumerate(members) for b in members[:i])
    return max(math.fsum(abs(x - y) for x in members) / m - spread / (2.0 * m * m), 0.0)


def energy_score(rows, y):
    """Energy Score of scenario rows against the outcome vector ``y``, >= 0."""
    def norm(a, b):
        return math.sqrt(math.fsum((u - v) * (u - v) for u, v in zip(a, b)))
    m = len(rows)
    spread = 2.0 * math.fsum(norm(a, b) for i, a in enumerate(rows) for b in rows[:i])
    return max(math.fsum(norm(x, y) for x in rows) / m - spread / (2.0 * m * m), 0.0)


def reference_backtest(real, fc, dates, *, specs, fit, error_window, margin_window, m,
                       refit_every, seed):
    """Forecasts, skipped days and scores of every evaluation day, one hour at a time.

    ``real`` and ``fc`` are lists of day rows, ``specs`` maps each setting to
    its filter spec, and ``fit(window, spec)`` returns one estimate per hour
    of the window (a list of day rows), or None when the fit fails.  Every
    day from ``error_window`` on is evaluated, in blocks of ``refit_every``
    days sharing the fit on the error window before the block.  Returns
    ``{setting: {date: (rows, es, crps per hour, rank per hour)}}`` and
    ``{setting: set of skipped dates}``.
    """
    errors = [[r - f for r, f in zip(real_row, fc_row)] for real_row, fc_row in zip(real, fc)]
    n_hours = len(errors[0])
    levels = [i / (m + 1) for i in range(1, m + 1)]
    out = {name: {} for name in specs}
    skipped = {name: set() for name in specs}
    days = list(range(error_window, len(dates)))
    for first in range(0, len(days), refit_every):
        t0 = days[first]
        fitted = {}
        for spec in specs.values():
            if spec not in fitted:
                fitted[spec] = ([None] * n_hours if spec.kind == "raw"
                                else fit(errors[t0 - error_window:t0], spec))
        for t in days[first:first + refit_every]:
            y = real[t]
            hours = {}  # (spec, margin) -> per hour: PITs, sorted members, CRPS, rank
            for name, spec in specs.items():
                _, margin, dependence = SETTINGS[name]
                if fitted[spec] is None:
                    skipped[name].add(dates[t])
                    continue
                if (spec, margin) not in hours:
                    hours[spec, margin] = []
                    for h in range(n_hours):
                        window = [row[h] for row in errors[t - error_window:t]]
                        z, mu, sigma = filter_hour(window, spec, fitted[spec][h])
                        sample = sorted(z[-margin_window:])
                        members = [(fc[t][h] + mu) + quantile_hour(margin, sample, p) * sigma
                                   for p in levels]
                        hours[spec, margin].append((
                            pit_hour(margin, sample, z[-m:]), members, crps(members, y[h]),
                            1 + sum(x < y[h] for x in members)))
                pits, sorted_members, crps_hours, rank_hours = zip(*hours[spec, margin])
                ranks = rank_columns(dependence, pits, derive_seed(
                    seed, dates[t], name,
                    "copula-sample" if dependence == "gaussian" else "independence"))
                if ranks is None:
                    skipped[name].add(dates[t])
                    continue
                rows = [[sorted_members[h][ranks[h][i] - 1] for h in range(n_hours)]
                        for i in range(m)]
                out[name][dates[t]] = rows, energy_score(rows, y), crps_hours, rank_hours
    return out, skipped
