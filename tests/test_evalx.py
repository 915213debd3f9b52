import numpy as np
import pytest

from piece import evalx
from piece import netcore as nc


def identity_ae(n):
    return nc.Network([nc.Dense(np.eye(n), np.zeros(n))], role="autoencoder")


def zero_ae(n):
    return nc.Network([nc.Dense(np.zeros((n, n)), np.zeros(n))], role="autoencoder")


class TestMcDropout:
    def test_zero_rate_is_deterministic(self):
        layers = [
            nc.Dense(np.eye(3), np.zeros(3)),
            nc.Dropout(0.0),
            nc.Dense(np.eye(3), np.zeros(3)),
            nc.SoftMax(),
        ]
        clf = nc.Network(layers, role="generator")
        image = np.array([1.0, 0.2, -0.5])
        mean, std = evalx.mc_dropout(clf, image, 0, passes=50, seed=1)
        eval_prob = nc.forward(clf, image).output[0]
        assert std == 0.0
        assert mean == pytest.approx(eval_prob)

    def test_requires_dropout_layer(self):
        clf = nc.Network([nc.Dense(np.eye(2), np.zeros(2)), nc.SoftMax()],
                         role="generator")
        with pytest.raises(evalx.MetricError, match="dropout"):
            evalx.mc_dropout(clf, np.array([1.0, 0.0]), 0)

    def test_deterministic_given_seed(self, toy_run):
        arts = toy_run["arts"]
        image = arts.test_data.images[0]
        a = evalx.mc_dropout(arts.classifier, image, 0, passes=200, seed=42)
        b = evalx.mc_dropout(arts.classifier, image, 0, passes=200, seed=42)
        assert a == b

    def test_training_images_beat_off_manifold_blends(self, toy_run):
        # out-of-distribution ordering: real glyphs get a higher posterior
        # mean than between-class blends. (Uniform noise is unsuitable as
        # the probe here: it saturates the dense net's activations and gets
        # near-certain predictions.)
        arts = toy_run["arts"]
        train = arts.train_data
        glyph_means, blend_means = [], []
        for i in range(20):
            image = train.images[i * 37 % len(train)]
            probs = nc.forward(arts.classifier, image.ravel()).output
            glyph_means.append(
                evalx.mc_dropout(
                    arts.classifier, image, int(np.argmax(probs)), passes=200, seed=i
                )[0]
            )
            blend = np.clip(
                0.5 * train.images[(i * 13) % 250]
                + 0.5 * train.images[250 + (i * 17) % 250],
                0.0, 1.0,
            )
            bprobs = nc.forward(arts.classifier, blend.ravel()).output
            blend_means.append(
                evalx.mc_dropout(
                    arts.classifier, blend, int(np.argmax(bprobs)), passes=200, seed=i
                )[0]
            )
        assert np.mean(glyph_means) > np.mean(blend_means)


class TestNnDist:
    def test_training_latent_is_zero(self, toy_run):
        arts = toy_run["arts"]
        assert evalx.nn_dist(arts.latents[10], arts.latents) == 0.0

    def test_isolated_perturbation(self, toy_run):
        arts = toy_run["arts"]
        table = np.array([[0.0, 0.0], [10.0, 10.0]])
        x = np.array([0.0, 0.25])
        assert evalx.nn_dist(x, table) == pytest.approx(0.25)

    def test_matches_bruteforce_reimplementation(self, toy_run):
        arts = toy_run["arts"]
        rng = np.random.default_rng(5)
        probes = rng.random((1000, arts.latents.shape[1])) * 3.0
        for x in probes[:: 100]:
            best = min(float(np.sqrt(np.sum((row - x) ** 2))) for row in arts.latents)
            assert evalx.nn_dist(x, arts.latents) == pytest.approx(best)
        # full vectorized cross-check over all probes
        d2 = ((arts.latents[None, :, :] - probes[:, None, :]) ** 2).sum(axis=2)
        expect = np.sqrt(d2.min(axis=1))
        got = np.array([evalx.nn_dist(x, arts.latents) for x in probes])
        assert np.allclose(got, expect)

    def test_width_mismatch(self, toy_run):
        with pytest.raises(evalx.MetricError):
            evalx.nn_dist(np.zeros(3), toy_run["arts"].latents)


class TestReconstructionScores:
    def test_im1_vanishing_numerator(self):
        image = np.array([[0.2, 0.8], [0.5, 0.1]])
        score = evalx.im1(image, zero_ae(4), identity_ae(4))
        assert score == 0.0

    def test_im1_same_autoencoder_is_one(self):
        image = np.array([[0.2, 0.8], [0.5, 0.1]])
        ae = zero_ae(4)
        assert evalx.im1(image, ae, ae) == pytest.approx(1.0)

    def test_im1_guarded_denominator(self):
        image = np.array([[0.2, 0.8], [0.5, 0.1]])
        assert evalx.im1(image, identity_ae(4), zero_ae(4)) is None

    def test_im2_identical_reconstructions(self):
        image = np.array([[0.2, 0.8], [0.5, 0.1]])
        ae = zero_ae(4)
        assert evalx.im2(image, ae, ae) == 0.0

    def test_im2_zero_image_undefined(self):
        image = np.zeros((2, 2))
        assert evalx.im2(image, zero_ae(4), identity_ae(4)) is None


class TestL1AndCorrelation:
    def test_identical_images(self):
        img = np.random.default_rng(0).random((4, 4))
        assert evalx.sf_l1(img, img) == 0.0

    def test_black_white(self):
        assert evalx.sf_l1(np.zeros((16, 16)), np.ones((16, 16))) == 256.0

    def test_shape_mismatch(self):
        with pytest.raises(evalx.MetricError):
            evalx.sf_l1(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_pearson_linear(self):
        xs = np.array([1.0, 2.0, 3.0, 4.0])
        assert evalx.pearson(xs, 2 * xs + 1) == pytest.approx(1.0)
        assert evalx.pearson(xs, -xs) == pytest.approx(-1.0)

    def test_pearson_degenerate(self):
        assert evalx.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None

    def test_pearson_needs_three(self):
        with pytest.raises(evalx.MetricError):
            evalx.pearson([1.0, 2.0], [1.0, 2.0])


class TestSubstitutability:
    def test_real_subset_scores_high(self, toy_run):
        arts = toy_run["arts"]
        train = arts.train_data
        idx = np.arange(0, len(train), 4)
        res = evalx.substitutability(
            train.images[idx], train.labels[idx],
            train.flat(), train.labels,
            arts.test_data.flat(), arts.test_data.labels, k=1,
        )
        assert res.score >= 90.0
        assert res.missing_classes == []

    def test_noise_scores_near_chance(self, toy_run):
        arts = toy_run["arts"]
        rng = np.random.default_rng(1)
        noise = rng.random((40, 16, 16))
        labels = np.arange(40) % 4
        res = evalx.substitutability(
            noise, labels,
            arts.train_data.flat(), arts.train_data.labels,
            arts.test_data.flat(), arts.test_data.labels, k=1,
        )
        assert res.score <= 55.0  # chance is ~25 with a perfect reference

    def test_missing_class_flagged(self, toy_run):
        arts = toy_run["arts"]
        train = arts.train_data
        mask = train.labels < 3
        sub_images = train.images[mask][::20]
        sub_labels = train.labels[mask][::20]
        assert set(sub_labels) == {0, 1, 2}
        res = evalx.substitutability(
            sub_images, sub_labels,
            train.flat(), train.labels,
            arts.test_data.flat(), arts.test_data.labels, k=1,
        )
        assert res.missing_classes == [3]

    def test_knn_tie_break_deterministic(self):
        train_x = np.array([[0.0], [2.0], [2.0], [4.0]])
        train_y = np.array([0, 1, 1, 2])
        pred = evalx.knn_predict(train_x, train_y, np.array([[2.0]]), k=4)
        assert pred.tolist() == [1]

    def test_self_substitution_is_hundred(self, toy_run):
        arts = toy_run["arts"]
        train = arts.train_data
        res = evalx.substitutability(
            train.images, train.labels,
            train.flat(), train.labels,
            arts.test_data.flat(), arts.test_data.labels, k=1,
        )
        assert res.score == pytest.approx(100.0)

    def test_fewer_explanations_than_k_is_na(self):
        # two explanations cannot vote with three neighbours
        ref = np.array([[0.0], [1.0], [5.0], [6.0]])
        ref_y = np.array([0, 0, 1, 1])
        res = evalx.substitutability(
            np.array([[0.0], [6.0]]), np.array([0, 1]), ref, ref_y,
            np.array([[0.5], [5.5]]), np.array([0, 1]), k=3,
        )
        assert res.accuracy is None and res.score is None
        assert res.reference_accuracy == 1.0 and res.n_explanations == 2


class TestReport:
    def rows(self):
        return [
            evalx.MetricRow("piece", "counterfactual", 1, 0, 1,
                            mc_mean=0.9, nn_dist=1.0, verified=True),
            evalx.MetricRow("piece", "counterfactual", 0, 0, 1,
                            mc_mean=0.7, nn_dist=2.0, verified=True),
            evalx.MetricRow("min_edit", "counterfactual", 0, 0, 1, failed=True),
        ]

    def test_aggregates_match_hand_mean(self):
        report = evalx.build_report(self.rows())
        agg = {
            (a["method"], a["metric"]): a for a in report.aggregates
        }
        assert agg[("piece", "mc_mean")]["mean"] == pytest.approx(0.8)
        assert agg[("piece", "mc_mean")]["n"] == 2
        assert agg[("min_edit", "mc_mean")]["mean"] is None
        assert agg[("min_edit", "mc_mean")]["failures"] == 1

    def test_rows_sorted_and_unique(self):
        report = evalx.build_report(self.rows())
        assert [r.image_id for r in report.rows] == [0, 0, 1]
        dup = self.rows() + [self.rows()[0]]
        with pytest.raises(evalx.MetricError, match="duplicate"):
            evalx.build_report(dup)

    def test_empty_report_header_only(self, tmp_path):
        report = evalx.build_report([])
        path = tmp_path / "rows.csv"
        evalx.write_rows(path, evalx.ROW_COLUMNS, report.rows)
        assert path.read_text().strip() == ",".join(evalx.ROW_COLUMNS)

    def test_failed_csv_write_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "rows.csv"

        def rows():
            yield [1, 2.5]
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError, match="row source failed"):
            evalx.write_csv(path, ("a", "b"), rows())
        assert list(tmp_path.iterdir()) == []
        evalx.write_csv(path, ("a", "b"), [[1, 2.5]])
        with pytest.raises(RuntimeError, match="row source failed"):
            evalx.write_csv(path, ("a", "b"), rows())
        assert path.read_text() == "a,b\n1,2.5\n"
        assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]

    def test_csv_deterministic_and_formatted(self, tmp_path):
        report = evalx.build_report(self.rows())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        evalx.write_rows(a, evalx.ROW_COLUMNS, report.rows)
        evalx.write_rows(b, evalx.ROW_COLUMNS, report.rows)
        assert a.read_bytes() == b.read_bytes()
        text = a.read_text()
        assert "NA" in text and "true" in text and "false" in text

    def test_nine_significant_digits(self):
        assert evalx.format_value(0.123456789123) == "0.123456789"
        assert evalx.format_value(None) == "NA"
        assert evalx.format_value(True) == "true"
        assert evalx.format_value(3) == "3"
