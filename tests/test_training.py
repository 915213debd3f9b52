import json

import numpy as np
import pytest

from piece import netcore as nc
from piece import pipeline as pl
from piece import training as tr
from piece.datagen import GlyphParams, make_glyphs


def saved_bytes(net, path):
    nc.save_network(net, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def small_data():
    params = GlyphParams(seed=21)
    return make_glyphs(params, 60, "train"), make_glyphs(params, 30, "test")


class TestClassifier:
    def test_default_run_reaches_regression_bound(self, toy_run):
        report = json.load(
            open(toy_run["paths"].reports("training_classifier.json"))
        )
        assert report["final"]["test_accuracy"] >= 0.90

    def test_architecture(self, toy_run):
        clf = toy_run["arts"].classifier
        kinds = [l.kind for l in clf.layers]
        assert kinds == ["dense", "relu", "dropout", "dense", "relu", "dense", "softmax"]
        assert clf.feature_tap == 4

    def test_no_learning_stays_at_chance(self, small_data):
        train, test = small_data
        cfg = tr.TrainConfig(epochs=1, lr=1e-15, seed=3, min_accuracy=0.0,
                             early_stop_accuracy=1.1)
        net, report = tr.train_classifier(train, test, cfg)
        assert abs(report.final["test_accuracy"] - 0.25) <= 0.1

    def test_same_seed_identical_weights(self, small_data, tmp_path):
        train, test = small_data
        cfg = tr.TrainConfig(epochs=2, seed=5, min_accuracy=0.0, early_stop_accuracy=1.1,
                             recon_mse_target=1.0)
        for stage in (tr.train_classifier, tr.train_generator):
            a, _ = stage(train, test, cfg)
            b, _ = stage(train, test, cfg)
            assert saved_bytes(a, tmp_path / "a.json") == saved_bytes(b, tmp_path / "b.json")

    def test_one_adam_step_per_batch(self, small_data, monkeypatch):
        # the benchmark tracer counts training steps through nc.adam_step
        train, test = small_data
        calls = []
        step = nc.adam_step

        def counted(*args, **kwargs):
            calls.append(1)
            return step(*args, **kwargs)

        monkeypatch.setattr(nc, "adam_step", counted)
        cfg = tr.TrainConfig(epochs=2, seed=5, min_accuracy=0.0, early_stop_accuracy=1.1)
        tr.train_classifier(train, test, cfg)
        assert len(calls) == 2 * -(-len(train) // cfg.batch_size)

    def test_unreachable_target_raises_with_curve(self, small_data):
        train, test = small_data
        cfg = tr.TrainConfig(epochs=1, lr=1e-15, seed=3, min_accuracy=0.99,
                             early_stop_accuracy=1.1)
        with pytest.raises(tr.TrainingFailure, match=r"reached only 0\.\d{3} test accuracy"):
            tr.train_classifier(train, test, cfg)

    def test_single_class_rejected(self, small_data):
        train, test = small_data
        one = type(train)(train.images[train.labels == 0],
                          train.labels[train.labels == 0], "train")
        with pytest.raises(tr.TrainingFailure, match="2 classes"):
            tr.train_classifier(one, test, tr.TrainConfig(seed=0))


class TestGenerator:
    def test_reconstruction_bound(self, toy_run):
        report = json.load(open(toy_run["paths"].reports("training_generator.json")))
        assert report["final"]["test_mse"] <= 0.01

    def test_zero_latent_gives_valid_image(self, toy_run):
        gen = toy_run["arts"].generator
        img = nc.forward(gen, np.zeros(gen.input_dim)).output
        assert np.all(img > 0.0) and np.all(img < 1.0)

    def test_latent_interpolation_stays_in_range(self, toy_run):
        arts = toy_run["arts"]
        gen = arts.generator
        body, _ = nc.split_at_tap(arts.classifier)
        z0, z1 = (
            inv.z for inv in pl.invert_image(
                gen, body, arts.train_data.images[[0, 500]], arts.config.optim, [0, 0]
            )
        )
        for t in np.linspace(0, 1, 7):
            img = nc.forward(gen, (1 - t) * z0 + t * z1).output
            assert np.all(img >= 0.0) and np.all(img <= 1.0)

    def test_latent_too_wide_rejected(self, small_data):
        train, test = small_data
        cfg = tr.TrainConfig(latent_dim=16 * 16, seed=0)
        with pytest.raises(tr.TrainingFailure, match="latent"):
            tr.train_generator(train, test, cfg)

    def test_mse_target_enforced(self, small_data):
        train, test = small_data
        cfg = tr.TrainConfig(epochs=1, lr=1e-15, seed=0, hidden=(32,),
                             recon_mse_target=1e-6)
        with pytest.raises(tr.TrainingFailure, match="MSE"):
            tr.train_generator(train, test, cfg)


class TestAutoencoders:
    def test_in_class_reconstruction_better(self, toy_run):
        arts = toy_run["arts"]
        test = arts.test_data
        for cls, ae in enumerate(arts.class_aes):
            flat = test.flat()
            recon = nc.forward(ae, flat).output
            errors = np.mean((recon - flat) ** 2, axis=1)
            in_cls = errors[test.labels == cls].mean()
            out_cls = errors[test.labels != cls].mean()
            assert in_cls < out_cls, (cls, in_cls, out_cls)

    def test_full_ae_within_sanity_bound(self, toy_run):
        report = json.load(open(toy_run["paths"].reports("training_autoencoders.json")))
        class_mses = report["final"]["class_test_mse"]
        assert report["final"]["full_test_mse"] <= 2 * max(class_mses)

    def test_too_few_class_samples(self, small_data):
        train, test = small_data
        # 60 bar images plus only 10 cross images
        tiny = type(train)(train.images[:70], train.labels[:70], "train")
        with pytest.raises(tr.TrainingFailure, match="class 1"):
            tr.train_autoencoders(tiny, test, tr.TrainConfig(seed=0))

    def test_save_load_preserves_reconstructions(self, toy_run, tmp_path):
        arts = toy_run["arts"]
        ae = arts.class_aes[0]
        path = tmp_path / "ae.json"
        nc.save_network(ae, path)
        back = nc.load_network(path)
        flat = arts.test_data.flat()[:16]
        assert np.array_equal(
            nc.forward(ae, flat).output, nc.forward(back, flat).output
        )


class TestReports:
    def test_report_contains_curve_and_config(self, toy_run):
        report = json.load(open(toy_run["paths"].reports("training_classifier.json")))
        assert report["epochs_run"] == len(report["curve"])
        assert report["config"]["seed"] == report["seed"]
        assert all("train_loss" in row and "metric" in row for row in report["curve"])

    def test_generator_report_notes_decoder_substitution(self, toy_run):
        report = json.load(open(toy_run["paths"].reports("training_generator.json")))
        assert any("decoder" in note for note in report["notes"])
