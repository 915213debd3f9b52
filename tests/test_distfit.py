import numpy as np
import pytest
from scipy import stats

from piece import distfit as df


def fit_many(gen, n=2000, seeds=range(20)):
    picks = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        picks.append(df.fit_best(gen(rng, n)))
    return picks


class TestKolmogorovSmirnov:
    def test_statistic_matches_scipy(self):
        rng = np.random.default_rng(0)
        x = rng.gamma(2.0, 1.5, 500)
        fit = df.fit_best(x)
        ours = df.ks_statistic(x, fit)
        theirs = stats.kstest(x, lambda v: fit.cdf(v)).statistic
        assert np.isclose(ours, theirs, atol=1e-12)

    def test_pvalue_at_classic_critical_point(self):
        # lambda = 1.358 is the classic 5% point of the Kolmogorov distribution
        n = 400
        corr = np.sqrt(n) + 0.12 + 0.11 / np.sqrt(n)
        p = df.ks_pvalue(1.358 / corr, n)
        assert 0.045 < p < 0.055

    def test_pvalue_monotone_in_distance(self):
        ps = [df.ks_pvalue(d, 1000) for d in (0.01, 0.03, 0.06, 0.12)]
        assert all(a > b for a, b in zip(ps, ps[1:]))
        assert all(0.0 <= p <= 1.0 for p in ps)


class TestFamilyFits:
    def test_gaussian_selected_with_good_params(self):
        picks = fit_many(lambda r, n: r.normal(5.0, 1.0, n))
        gaussian = [p for p in picks if p.family == "gaussian"]
        assert len(gaussian) > len(picks) // 2
        for p in gaussian:
            assert abs(p.params["mean"] - 5.0) < 0.1
            assert abs(p.params["std"] - 1.0) < 0.1

    def test_exponential_family_selected_with_good_rate(self):
        picks = fit_many(lambda r, n: r.exponential(0.5, n))
        expon = [p for p in picks if p.family == "exponential"]
        assert len(expon) > len(picks) // 2
        for p in expon:
            assert abs(p.params["rate"] - 2.0) < 0.15

    def test_gamma_shape_recovery(self):
        rng = np.random.default_rng(5)
        x = rng.gamma(3.7, 0.8, 5000)
        fit = df.fit_best(x)
        assert fit.family == "gamma"
        assert abs(fit.params["shape"] - 3.7) / 3.7 < 0.05

    def test_shifted_gamma_loc_near_min(self):
        rng = np.random.default_rng(6)
        x = 2.0 + rng.gamma(3.0, 1.0, 3000)
        fit = df.fit_best(x)
        assert fit.family == "gamma" and not fit.loc_fixed
        mn, mx = float(x.min()), float(x.max())
        assert fit.params["loc"] < mn
        assert mn - fit.params["loc"] <= 2e-3 * (mx - mn)

    def test_constant_sample_degenerate(self):
        assert df.fit_candidates(np.full(100, 3.0)) == []
        assert df.fit_best(np.full(100, 3.0)) is None

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            df.fit_candidates(np.array([1.0, -0.5, 2.0]))


class TestDensities:
    def test_cdf_monotone_and_limits(self):
        dist = df.FittedDist("gamma", True, {"shape": 2.0, "scale": 1.5, "loc": 0.0}, 0, 0)
        xs = np.linspace(0.0, 60.0, 500)
        cdf = dist.cdf(xs)
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[0] >= 0.0
        assert abs(dist.cdf(np.array([1e6]))[0] - 1.0) < 1e-6

    def test_means(self):
        g = df.FittedDist("gaussian", False, {"mean": 2.3, "std": 0.5}, 0, 0)
        assert g.mean() == 2.3
        k = df.FittedDist("gamma", True, {"shape": 2.0, "scale": 1.5, "loc": 0.0}, 0, 0)
        assert k.mean() == 3.0
        e = df.FittedDist("exponential", False, {"rate": 2.0, "loc": 0.5}, 0, 0)
        assert e.mean() == 1.0

    def test_cdf_matches_scipy(self):
        xs = np.linspace(0.01, 10, 50)
        ours = df.FittedDist("gamma", False, {"shape": 2.0, "scale": 1.5, "loc": 0.3}, 0, 0)
        assert np.allclose(ours.cdf(xs), stats.gamma.cdf(xs, 2.0, loc=0.3, scale=1.5))
        oursn = df.FittedDist("gaussian", False, {"mean": 1.0, "std": 2.0}, 0, 0)
        assert np.allclose(oursn.cdf(xs), stats.norm.cdf(xs, 1.0, 2.0))
        ourse = df.FittedDist("exponential", True, {"rate": 0.7, "loc": 0.0}, 0, 0)
        assert np.allclose(ourse.cdf(xs), stats.expon.cdf(xs, scale=1 / 0.7))


class TestSelection:
    def test_recovery_across_six_generators(self):
        configs = [
            ("gaussian", lambda r, n: r.normal(5.0, 1.0, n)),
            ("gaussian", lambda r, n: r.normal(8.0, 0.8, n)),
            ("gamma", lambda r, n: r.gamma(2.0, 1.5, n)),
            ("gamma", lambda r, n: 2.0 + r.gamma(3.0, 1.0, n)),
            ("exponential", lambda r, n: r.exponential(0.5, n)),
            ("exponential", lambda r, n: 1.5 + r.exponential(1.0, n)),
        ]
        for name, gen in configs:
            hits = sum(
                1
                for seed in range(50)
                if df.fit_best(gen(np.random.default_rng(seed), 1000)).family == name
            )
            assert hits >= 40, (name, hits)

    def test_selection_deterministic(self):
        rng = np.random.default_rng(11)
        x = rng.gamma(2.0, 1.0, 800)
        a = df.fit_best(x)
        b = df.fit_best(x)
        assert a == b
