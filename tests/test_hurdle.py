import numpy as np
import pytest

from helpers import empirical_decisions, fitted_decisions
from piece import hurdle as hd
from piece import netcore as nc
from piece.datagen import Dataset
from piece.distfit import FittedDist


def model_with(family, params, theta=0.5, m=1000, loc_fixed=False):
    q = int(round(theta * m))
    dist = FittedDist(family, loc_fixed, params, 0.02, 0.5)
    return hd.NeuronClassModel(m, q, q / m, dist, dist.mean())


class TestTheta:
    def test_exact_ratio(self):
        samples = np.concatenate([np.zeros(60), np.ones(40)])
        assert hd.fit_neuron(samples).theta == 0.4

    def test_all_zero(self):
        assert hd.fit_neuron(np.zeros(50)).theta == 0.0

    def test_all_positive(self):
        assert hd.fit_neuron(np.full(50, 2.5)).theta == 1.0

    def test_negative_rejected(self):
        with pytest.raises(hd.HurdleError):
            hd.fit_neuron(np.array([-1.0, 2.0]))


class TestFitNeuron:
    def test_below_threshold_degenerate(self):
        samples = np.concatenate([np.zeros(100), np.full(hd.MIN_POSITIVE_SAMPLES - 1, 2.0)])
        model = hd.fit_neuron(samples)
        assert model.degenerate
        assert model.positive_mean == 2.0
        with pytest.raises(hd.HurdleError):
            model.expected_value()

    def test_fits_above_threshold(self):
        rng = np.random.default_rng(0)
        samples = np.concatenate([np.zeros(200), rng.gamma(2.0, 1.0, 800)])
        model = hd.fit_neuron(samples)
        assert not model.degenerate
        assert model.theta == 0.8
        assert model.m == 1000 and model.q == 800

    def test_expected_values(self):
        g = model_with("gaussian", {"mean": 2.3, "std": 0.5})
        assert g.expected_value() == 2.3
        k = model_with("gamma", {"shape": 2.0, "scale": 1.5, "loc": 0.0})
        assert k.expected_value() == 3.0

    def test_expected_value_from_fitted_exponential(self):
        rng = np.random.default_rng(1)
        model = hd.fit_neuron(rng.exponential(0.5, 3000))
        assert abs(model.expected_value() - 0.5) / 0.5 < 0.1


class TestClassifyExceptional:
    def gaussian_model(self, theta, mean=5.0, std=1.0, m=1000):
        return model_with("gaussian", {"mean": mean, "std": std}, theta=theta, m=m)

    def test_absent_rule_forced(self):
        models = [self.gaussian_model(0.97)]
        found, _ = hd.classify_exceptional(np.array([0.0]), models, 0.05)
        assert len(found) == 1
        f = found[0]
        assert f.rule == hd.Rule.ABSENT
        assert f.probability == pytest.approx(0.03)
        assert f.replacement == 5.0

    def test_unexpected_rule_forced(self):
        models = [self.gaussian_model(0.02)]
        found, _ = hd.classify_exceptional(np.array([1.4]), models, 0.05)
        rules = {f.rule: f for f in found}
        assert hd.Rule.UNEXPECTED in rules
        assert rules[hd.Rule.UNEXPECTED].probability == pytest.approx(0.02)
        # a rare activation is simultaneously in a thin tail; both kept
        assert len(found) == 2

    def test_low_and_high_tails(self):
        model = self.gaussian_model(1.0)
        x_low = model.dist.params["mean"] - 3.0  # cdf ~ 0.0013
        x_high = model.dist.params["mean"] + 3.0
        found, _ = hd.classify_exceptional(np.array([x_low]), [model], 0.05)
        assert [f.rule for f in found] == [hd.Rule.LOW_TAIL]
        assert found[0].probability == pytest.approx(0.00135, abs=1e-4)
        found, _ = hd.classify_exceptional(np.array([x_high]), [model], 0.05)
        assert [f.rule for f in found] == [hd.Rule.HIGH_TAIL]
        assert found[0].probability == pytest.approx(0.00135, abs=1e-4)

    def test_alpha_boundary_is_strict(self):
        models = [self.gaussian_model(0.95)]  # 1 - theta == alpha exactly
        found, _ = hd.classify_exceptional(np.array([0.0]), models, 0.05)
        assert found == []

    def test_typical_value_not_exceptional(self):
        models = [self.gaussian_model(0.5)]
        found, _ = hd.classify_exceptional(np.array([5.0]), models, 0.05)
        assert found == []

    def test_degenerate_skipped_with_count(self):
        deg = hd.NeuronClassModel(1000, 5, 0.005, None, 1.0)
        found, skipped = hd.classify_exceptional(np.array([2.0]), [deg], 0.05)
        assert found == [] and skipped == 1

    def test_degenerate_absent_uses_positive_mean(self):
        deg = hd.NeuronClassModel(20, 19, 0.95, None, 3.5)
        found, skipped = hd.classify_exceptional(np.array([0.0]), [deg], 0.10)
        assert len(found) == 1 and found[0].replacement == 3.5 and skipped == 0

    def test_ordering_lowest_probability_first(self):
        models = [
            self.gaussian_model(0.97),  # absent, p = 0.03
            self.gaussian_model(0.999),  # absent, p = 0.001
            self.gaussian_model(0.97),  # absent, p = 0.03 (tie with neuron 0)
        ]
        found, _ = hd.classify_exceptional(np.zeros(3), models, 0.05)
        assert [(f.neuron, f.probability) for f in found] == [
            (1, pytest.approx(0.001)),
            (0, pytest.approx(0.03)),
            (2, pytest.approx(0.03)),
        ]

    def test_width_mismatch(self):
        with pytest.raises(hd.HurdleError):
            hd.classify_exceptional(np.zeros(2), [self.gaussian_model(0.5)], 0.05)


class TestHurdleNormalization:
    @pytest.mark.parametrize("seed", range(4))
    def test_mixture_mass_is_one(self, seed):
        rng = np.random.default_rng(seed)
        samples = np.concatenate(
            [np.zeros(rng.integers(50, 300)), rng.gamma(2.0, 1.0, 700)]
        )
        model = hd.fit_neuron(samples)
        dist = model.dist
        if dist.family == "gaussian":
            low = dist.params["mean"] - 12 * dist.params["std"]
        else:
            low = dist.params["loc"]
        mass = dist.cdf(np.array([np.inf]))[0] - dist.cdf(np.array([low]))[0]
        total = (1 - model.theta) + model.theta * mass
        assert abs(total - 1.0) < 1e-6

    def test_cdf_monotone(self):
        rng = np.random.default_rng(7)
        model = hd.fit_neuron(rng.gamma(3.0, 0.5, 1000))
        xs = np.linspace(0, 20, 300)
        cdf = model.dist.cdf(xs)
        assert np.all(np.diff(cdf) >= 0)
        assert cdf[0] >= 0 and abs(model.dist.cdf(np.array([1e9]))[0] - 1) < 1e-6


class TestEmpiricalOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_fitted_agrees_with_empirical_cdf(self, seed):
        rng = np.random.default_rng(seed)
        kind = seed % 3
        if kind == 0:
            positive = rng.normal(5.0, 1.0, 900)
        elif kind == 1:
            positive = rng.gamma(2.0, 1.5, 900)
        else:
            positive = rng.exponential(1.0, 900)
        samples = np.concatenate([np.zeros(rng.integers(20, 200)), np.abs(positive)])
        rng.shuffle(samples)
        model = hd.fit_neuron(samples)
        assert len(samples) >= 500 and not model.degenerate

        positive_sorted = np.sort(samples[samples > 0])
        grid = np.concatenate(
            [
                [0.0],
                np.quantile(positive_sorted, np.linspace(0.001, 0.999, 40)),
                [positive_sorted[-1] * 1.5, positive_sorted[0] * 0.5],
            ]
        )
        agree = 0
        for value in grid:
            fitted, _ = hd.classify_exceptional(np.array([value]), [model], 0.05)
            if fitted_decisions(fitted, 0) == empirical_decisions(samples, value, 0.05):
                agree += 1
        assert agree / len(grid) >= 0.9


class TestCollectLatents:
    def constant_classifier(self, n_pixels=4, n_classes=3):
        # zero weights, bias forcing class 0
        layers = [
            nc.Dense(np.zeros((4, n_pixels)), np.ones(4)),
            nc.ReLU(),
            nc.Dense(np.zeros((n_classes, 4)), np.array([1.0] + [0.0] * (n_classes - 1))),
            nc.SoftMax(),
        ]
        return nc.Network(layers, role="classifier", feature_tap=1)

    def test_single_class_partition(self):
        clf = self.constant_classifier()
        images = np.random.default_rng(0).random((10, 2, 2))
        data = Dataset(images, np.zeros(10, dtype=int), "train")
        table, _, _ = hd.fit_stats(clf, data)
        assert [row[0].m for row in table.models] == [10, 0, 0]

    def test_partition_sizes_sum(self, toy_run):
        arts = toy_run["arts"]
        assert sum(row[0].m for row in arts.stats.models) == len(arts.train_data)

    def test_predictions_mostly_match_labels(self, toy_run):
        arts = toy_run["arts"]
        _, predicted = hd.collect_latents(arts.classifier, arts.train_data)
        assert np.mean(predicted == arts.train_data.labels) >= 0.9


class TestStatsIo:
    def test_round_trip(self, tmp_path, toy_run):
        table = toy_run["arts"].stats
        path = tmp_path / "stats.json"
        hd.save_stats(table, path)
        back = hd.load_stats(path)
        assert back.alpha == table.alpha
        assert back.classifier_sha == table.classifier_sha
        assert back.n_classes == table.n_classes
        for row_a, row_b in zip(table.models, back.models):
            for a, b in zip(row_a, row_b):
                assert (a.m, a.q, a.theta) == (b.m, b.q, b.theta)
                assert a.degenerate == b.degenerate
                if not a.degenerate:
                    assert a.dist == b.dist
        again = tmp_path / "again.json"
        hd.save_stats(back, again)
        assert again.read_bytes() == path.read_bytes()

    def test_latents_round_trip(self, tmp_path, toy_run):
        arts = toy_run["arts"]
        _, predicted = hd.collect_latents(arts.classifier, arts.train_data)
        path = tmp_path / "latents.json"
        hd.save_latents(arts.latents, predicted, path)
        latents, back = hd.load_latents(path)
        assert np.array_equal(latents, arts.latents)
        assert np.array_equal(back, predicted)

    def test_truncated_latents_raise_hurdle_error(self, tmp_path, toy_run):
        import json

        arts = toy_run["arts"]
        path = tmp_path / "latents.json"
        hd.save_latents(arts.latents, np.zeros(len(arts.latents), dtype=np.int64), path)
        doc = json.loads(path.read_text())
        doc["latents"] = doc["latents"][:-4]  # still base64, 3 bytes short
        path.write_text(json.dumps(doc))
        with pytest.raises(hd.HurdleError, match="latents"):
            hd.load_latents(path)

    def test_rejects_wrong_file(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(hd.HurdleError):
            hd.load_stats(path)
