import dataclasses
import functools
import json
import os
import types

import numpy as np
import pytest

from helpers import divided, live_children, watched
from piece import netcore as nc
from piece import pipeline as pl
from piece import training as tr
from piece.datagen import GlyphParams, make_glyphs


def saved_bytes(net, path):
    nc.save_network(net, path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def small_data():
    params = GlyphParams(n_train_per_class=60, n_test_per_class=30)
    return make_glyphs(params, 21, "train"), make_glyphs(params, 21, "test")


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
        cfg = tr.ClassifierConfig(epochs=1, lr=1e-15, min_accuracy=0.0,
                                  early_stop_accuracy=1.1)
        net, report = tr.train_classifier(train, test, cfg, 3)
        assert abs(report.final["test_accuracy"] - 0.25) <= 0.1

    def test_same_seed_identical_weights(self, small_data, tmp_path):
        train, test = small_data
        for stage, cfg in (
            (tr.train_classifier,
             tr.ClassifierConfig(epochs=2, min_accuracy=0.0, early_stop_accuracy=1.1)),
            (tr.train_generator, tr.AutoencoderConfig(epochs=2, recon_mse_target=1.0)),
        ):
            a, _ = stage(train, test, cfg, 5)
            b, _ = stage(train, test, cfg, 5)
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
        cfg = tr.ClassifierConfig(epochs=2, min_accuracy=0.0, early_stop_accuracy=1.1)
        tr.train_classifier(train, test, cfg, 5)
        assert len(calls) == 2 * -(-len(train) // cfg.batch_size)

    def test_unreachable_target_raises_with_curve(self, small_data):
        train, test = small_data
        cfg = tr.ClassifierConfig(epochs=1, lr=1e-15, min_accuracy=0.99,
                                  early_stop_accuracy=1.1)
        with pytest.raises(tr.TrainingFailure, match=r"reached only 0\.\d{3} test accuracy"):
            tr.train_classifier(train, test, cfg, 3)

    def test_single_class_rejected(self, small_data):
        train, test = small_data
        one = type(train)(train.images[train.labels == 0],
                          train.labels[train.labels == 0], "train")
        with pytest.raises(tr.TrainingFailure, match="2 classes"):
            tr.train_classifier(one, test, tr.ClassifierConfig(), 0)


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
        cfg = tr.AutoencoderConfig(latent_dim=16 * 16)
        with pytest.raises(tr.TrainingFailure, match="latent"):
            tr.train_generator(train, test, cfg, 0)

    def test_mse_target_enforced(self, small_data):
        train, test = small_data
        cfg = tr.AutoencoderConfig(epochs=1, lr=1e-15, hidden=(32,), recon_mse_target=1e-6)
        with pytest.raises(tr.TrainingFailure, match="MSE"):
            tr.train_generator(train, test, cfg, 0)


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
            tr.train_autoencoders(tiny, test, tr.AutoencoderConfig(), 0)

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


class TestConfigs:
    @pytest.mark.parametrize(
        "stage,cfg",
        [
            (tr.train_classifier, tr.ClassifierConfig(epochs=1, min_accuracy=0.0)),
            (tr.train_generator, tr.AutoencoderConfig(epochs=1, recon_mse_target=1.0)),
            (tr.train_autoencoders, tr.AutoencoderConfig(epochs=1)),
        ],
    )
    def test_every_field_is_read(self, small_data, stage, cfg):
        train, test = small_data
        cfg, reads = watched(cfg)
        stage(train, test, cfg, 5)
        assert reads == {f.name for f in dataclasses.fields(cfg)}

    @pytest.mark.parametrize(
        "kind,hidden",
        [(tr.ClassifierConfig, (64,)), (tr.ClassifierConfig, (64, 32, 16)),
         (tr.AutoencoderConfig, (96, 48)), (tr.AutoencoderConfig, ())],
    )
    def test_hidden_width_count_checked(self, kind, hidden):
        with pytest.raises(tr.TrainingFailure, match=f"hidden takes {kind.n_hidden} width"):
            kind(hidden=hidden)


class TestReports:
    def test_report_contains_curve_and_config(self, toy_run):
        report = json.load(open(toy_run["paths"].reports("training_classifier.json")))
        assert report["epochs_run"] == len(report["curve"])
        # the seed is derived from the run seed, not a key of the section
        assert report["seed"] == tr.fit_seed(toy_run["arts"].config, "classifier")
        assert "seed" not in report["config"]
        assert all("train_loss" in row and "metric" in row for row in report["curve"])

    def test_generator_report_notes_decoder_substitution(self, toy_run):
        report = json.load(open(toy_run["paths"].reports("training_generator.json")))
        assert any("decoder" in note for note in report["notes"])


class TestRunJobs:
    def test_workers_have_one_blas_thread(self, monkeypatch):
        names = list(tr.ONE_BLAS_THREAD)
        for name in names:
            monkeypatch.delenv(name, raising=False)
        assert tr.run_jobs(os.getenv, names, 2) == ["1", "1", "1"]
        assert not any(name in os.environ for name in names)

    def test_parent_environment_restored(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        assert tr.run_jobs(os.getenv, ["OPENBLAS_NUM_THREADS"], 2) == ["1"]
        assert os.environ["OPENBLAS_NUM_THREADS"] == "4"

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_outcomes_in_job_order(self, n_jobs):
        # up to and including the first job that raised
        outcomes = tr.run_jobs(functools.partial(divided, by=0), [7, 0, 9], n_jobs)
        assert len(outcomes) == 1 and isinstance(outcomes[0], ZeroDivisionError)
        outcomes = tr.run_jobs(functools.partial(divided, by=1), [7, "x", 9, "y"], n_jobs)
        assert outcomes[0] == (7, 0) and len(outcomes) == 2
        assert isinstance(outcomes[1], TypeError)
        outcomes = tr.run_jobs(functools.partial(divided, by=2), [7, 9, 4], n_jobs)
        assert outcomes == [(3, 1), (4, 1), (2, 0)]

    def test_dead_worker_fails_its_job(self):
        outcomes = tr.run_jobs(os._exit, [3], 2)
        assert isinstance(outcomes[0], tr.TrainingFailure)
        assert "worker process died" in str(outcomes[0])
        assert not live_children()

    def test_fits_equal_their_in_process_bits(self, small_data, tmp_path):
        train, test = small_data
        sections = types.SimpleNamespace(  # the run config fields that `fit` reads
            seed=5,
            classifier=tr.ClassifierConfig(epochs=2, min_accuracy=0.0),
            generator=tr.AutoencoderConfig(epochs=2, recon_mse_target=1.0),
            autoencoders=tr.AutoencoderConfig(epochs=2),
        )
        names = tr.fit_names(4)
        job = functools.partial(tr.fit, train=train, test=test, cfg=sections)
        here = tr.run_jobs(job, names, 1)
        there = tr.run_jobs(job, names, 2)
        for name, a, b in zip(names, here, there):
            assert saved_bytes(a[0], tmp_path / "a.json") == saved_bytes(b[0], tmp_path / "b.json")
            assert a[1] == b[1], name
