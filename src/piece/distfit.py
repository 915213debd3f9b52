"""Maximum-likelihood fitting of positive activation samples.

Six candidates are fitted to every sample: Gaussian, Gamma, and Exponential,
each with the location parameter free or pinned at zero. Goodness of fit is
judged by the one-sample Kolmogorov-Smirnov statistic with the
size-corrected asymptotic p-value. Because parameters are estimated from the
same data, these p-values are approximate (conservative for the true
family); they are used for ranking, not inference.

Selection prefers the highest p-value, with one guard: a candidate with
fewer free parameters wins whenever its p-value is at least half the best
one. Without the guard, nested families (an exponential sample is also a
shape-1 gamma sample) are picked essentially at random.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy import special

_FAMILY_ORDER = {"gaussian": 0, "gamma": 1, "exponential": 2}

# fewer-parameter candidate wins if its p-value reaches this fraction of the best
_PARSIMONY_FACTOR = 0.5

_GAMMA_NEWTON_ITERS = 100
_GAMMA_NEWTON_TOL = 1e-10


@dataclass(frozen=True)
class FittedDist:
    family: str  # gaussian | gamma | exponential
    loc_fixed: bool
    params: dict
    ks_stat: float
    ks_p: float

    @property
    def n_free_params(self) -> int:
        return _N_FREE[(self.family, self.loc_fixed)]

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        p = self.params
        if self.family == "gaussian":
            return special.ndtr((x - p["mean"]) / p["std"])
        if self.family == "gamma":
            k, scale, loc = p["shape"], p["scale"], p["loc"]
            out = np.zeros_like(x)
            pos = x > loc
            out[pos] = special.gammainc(k, (x[pos] - loc) / scale)
            return out
        if self.family == "exponential":
            rate, loc = p["rate"], p["loc"]
            out = np.zeros_like(x)
            pos = x >= loc
            out[pos] = -np.expm1(-rate * (x[pos] - loc))
            return out
        raise ValueError(f"unknown family {self.family!r}")

    def mean(self) -> float:
        p = self.params
        if self.family == "gaussian":
            return float(p["mean"])
        if self.family == "gamma":
            return float(p["shape"] * p["scale"] + p["loc"])
        if self.family == "exponential":
            return float(1.0 / p["rate"] + p["loc"])
        raise ValueError(f"unknown family {self.family!r}")


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov


def ks_statistic(samples: np.ndarray, dist: FittedDist) -> float:
    """One-sample KS distance between the empirical CDF and the fitted CDF."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = len(x)
    f = dist.cdf(x)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1) / n)
    return float(max(d_plus, d_minus))


def ks_pvalue(d: float, n: int) -> float:
    """Asymptotic Kolmogorov p-value with the finite-sample size correction."""
    if n < 1:
        raise ValueError("need at least one sample")
    root = math.sqrt(n)
    lam = (root + 0.12 + 0.11 / root) * d
    return float(min(1.0, max(0.0, special.kolmogorov(lam))))


# ---------------------------------------------------------------------------
# Per-family maximum likelihood


def _fit_gaussian(x: np.ndarray, fixed_loc: bool) -> Optional[dict]:
    if fixed_loc:
        std = math.sqrt(float(np.mean(x * x)))
        mean = 0.0
    else:
        mean = float(np.mean(x))
        std = float(np.std(x))
    if not (np.isfinite(std) and std > 1e-12 * max(1.0, abs(mean))):
        return None
    return {"mean": mean, "std": std}


def _gamma_shape_mle(shifted: np.ndarray) -> Optional[float]:
    mean = float(np.mean(shifted))
    log_mean = math.log(mean)
    mean_log = float(np.mean(np.log(shifted)))
    s = log_mean - mean_log
    if not np.isfinite(s) or s <= 1e-12:
        return None
    # closed-form starting point, then Newton on the profile likelihood
    k = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    for _ in range(_GAMMA_NEWTON_ITERS):
        denom = 1.0 / k - special.polygamma(1, k)
        if denom == 0.0 or not np.isfinite(denom):
            return None
        step = (math.log(k) - special.digamma(k) - s) / denom
        k_new = k - step
        if k_new <= 0 or not np.isfinite(k_new):
            return None
        if abs(k_new - k) < _GAMMA_NEWTON_TOL * max(1.0, k):
            k = k_new
            break
        k = k_new
    else:
        return None
    return float(k)


def _fit_gamma(x: np.ndarray, fixed_loc: bool) -> Optional[dict]:
    if fixed_loc:
        loc = 0.0
        shifted = x
        if np.any(shifted <= 0):
            return None
    else:
        mn, mx = float(np.min(x)), float(np.max(x))
        if mx <= mn:
            return None
        loc = mn - max(1e-9, 1e-3 * (mx - mn))
        shifted = x - loc
    k = _gamma_shape_mle(shifted)
    if k is None:
        return None
    scale = float(np.mean(shifted)) / k
    if not (np.isfinite(scale) and scale > 0):
        return None
    return {"shape": k, "scale": scale, "loc": loc}


def _fit_exponential(x: np.ndarray, fixed_loc: bool) -> Optional[dict]:
    if fixed_loc:
        loc = 0.0
        mean_excess = float(np.mean(x))
    else:
        loc = float(np.min(x))
        mean_excess = float(np.mean(x)) - loc
    if not (np.isfinite(mean_excess) and mean_excess > 1e-300):
        return None
    return {"rate": 1.0 / mean_excess, "loc": loc}


_FITTERS = {
    "gaussian": _fit_gaussian,
    "gamma": _fit_gamma,
    "exponential": _fit_exponential,
}

_N_FREE = {
    ("gaussian", True): 1,
    ("gaussian", False): 2,
    ("gamma", True): 2,
    ("gamma", False): 3,
    ("exponential", True): 1,
    ("exponential", False): 2,
}


def fit_candidates(samples) -> list:
    """All valid fits among the six (family, location-mode) candidates."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1 or len(x) < 2:
        raise ValueError("need a 1-d sample of at least 2 values")
    if np.any(x <= 0):
        raise ValueError("samples must all be positive")
    if float(np.max(x)) <= float(np.min(x)):
        return []  # zero spread: no continuous density applies
    results = []
    for family, fitter in _FITTERS.items():
        for fixed_loc in (True, False):
            params = fitter(x, fixed_loc)
            if params is None:
                continue
            dist = FittedDist(family, fixed_loc, params, 0.0, 0.0)
            d = ks_statistic(x, dist)
            results.append(dataclasses.replace(dist, ks_stat=d, ks_p=ks_pvalue(d, len(x))))
    return results


def _selection_key(dist: FittedDist) -> tuple:
    return (dist.n_free_params, _FAMILY_ORDER[dist.family], 0 if dist.loc_fixed else 1)


def select_best(candidates: list) -> Optional[FittedDist]:
    """Highest KS p-value, with parsimony preference among near ties."""
    if not candidates:
        return None
    p_max = max(c.ks_p for c in candidates)
    if p_max <= 0.0:
        return min(candidates, key=lambda c: (c.ks_stat, _selection_key(c)))
    eligible = [c for c in candidates if c.ks_p >= _PARSIMONY_FACTOR * p_max]
    return min(eligible, key=_selection_key)


def fit_best(samples) -> Optional[FittedDist]:
    """Fit all six candidates and select one; None when nothing fits.

    A constant sample (zero spread) invalidates every candidate and yields
    None, which callers treat as a degenerate model.
    """
    return select_best(fit_candidates(samples))
