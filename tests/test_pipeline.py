import dataclasses
import math
import threading

import numpy as np
import pytest

from helpers import count_inversions
from piece import netcore as nc
from piece import pipeline as pl
from piece.hurdle import ExceptionalFeature, Rule

FAST = pl.OptimSettings(
    invert_restarts=4, invert_steps=250, invert_lr=0.05,
    ascent_lr=0.02, ascent_max_steps=1500,
    visualize_steps=200, visualize_lr=0.05,
)


def invert_one(generator, body, image, settings, seed):
    """One image's inversion: `invert_image` on a stack of one."""
    (inv,) = pl.invert_image(generator, body, image[None], settings, [seed])
    return inv


def proportional(sf, fraction, arts, settings):
    """One semifactual's proportional explanation: `proportional_stack` on a
    stack of one, raising its error."""
    (res,) = pl.proportional_stack(
        [(sf, fraction)], arts.classifier, arts.generator, arts.stats, settings
    )
    if isinstance(res, Exception):
        raise res
    return res


@pytest.fixture(scope="module")
def toy(toy_run):
    arts = toy_run["arts"]
    probs = nc.forward(arts.classifier, arts.test_data.flat()).output
    pred = probs.argmax(1)
    mis = np.flatnonzero(pred != arts.test_data.labels)
    cor = np.flatnonzero((pred == arts.test_data.labels) & (probs.max(1) >= 0.8))
    assert len(mis) >= 1, "toy run regression: expected at least one misclassification"
    return {"arts": arts, "mis": mis, "cor": cor}


@pytest.fixture(scope="module")
def delivered(toy):
    """The semifactuals `piece explain --mode sf` delivers for images 0, 120
    and 380 of the default run, each with its request; and image 184's from
    an inversion of another seed, on which a prefix's rendering leaves c."""
    from piece.experiments import derive_seed

    arts = toy["arts"]
    out = {"arts": arts}
    seeds = {idx: derive_seed(arts.config.seed, idx) for idx in (0, 120, 380)}
    seeds[184] = derive_seed(arts.config.seed, 3, 184)
    for idx in (0, 120, 184, 380):
        req = request_for(arts, idx, "semifactual", arts.config.optim, seed=seeds[idx])
        out[idx] = (req, pl.explain(
            req, arts.classifier, arts.generator, arts.stats, arts.config.optim
        ))
    return out


def predicted(arts, image):
    return int(np.argmax(nc.forward(arts.classifier, image.ravel()).output))


def request_for(arts, idx, mode, settings=FAST, seed=None, **kw):
    """A request for test image `idx` that holds the image's inversion under
    `settings`, from `seed` (the index by default)."""
    image = arts.test_data.images[idx]
    body, _ = nc.split_at_tap(arts.classifier)
    return pl.ExplanationRequest(
        image=image,
        true_label=int(arts.test_data.labels[idx]),
        mode=mode,
        image_id=int(idx),
        inversion=invert_one(arts.generator, body, image, settings,
                             int(idx) if seed is None else seed),
        **kw,
    )


class TestInversion:
    def test_recovers_generated_image(self, toy):
        arts = toy["arts"]
        gen = arts.generator
        body, _ = nc.split_at_tap(arts.classifier)
        z0 = np.random.default_rng(3).standard_normal(gen.input_dim)
        image = nc.forward(gen, z0).output.reshape(16, 16)
        inv = invert_one(gen, body, image, FAST, seed=11)
        assert inv.combined_loss < 1e-3
        assert inv.pixel_loss / image.size < 1e-3

    def test_held_out_image_within_generator_error(self, toy, toy_run):
        import json

        arts = toy["arts"]
        gen_mse = json.load(
            open(toy_run["paths"].reports("training_generator.json"))
        )["final"]["test_mse"]
        idx = int(toy["cor"][0])
        body, _ = nc.split_at_tap(arts.classifier)
        inv = invert_one(
            arts.generator, body, arts.test_data.images[idx], pl.OptimSettings(), seed=5
        )
        pixel_mse = inv.pixel_loss / arts.test_data.n_pixels
        assert pixel_mse <= 3 * gen_mse

    def test_deterministic(self, toy):
        arts = toy["arts"]
        body, _ = nc.split_at_tap(arts.classifier)
        img = arts.test_data.images[0]
        a = invert_one(arts.generator, body, img, FAST, seed=9)
        b = invert_one(arts.generator, body, img, FAST, seed=9)
        assert np.array_equal(a.z, b.z)
        assert a.restart_losses == b.restart_losses

    def test_all_restarts_tracked(self, toy):
        arts = toy["arts"]
        body, _ = nc.split_at_tap(arts.classifier)
        inv = invert_one(arts.generator, body, arts.test_data.images[1], FAST, seed=2)
        assert len(inv.restart_losses) == FAST.invert_restarts
        assert inv.combined_loss == min(inv.restart_losses)


    def test_stack_equals_each_image_alone(self, toy):
        arts = toy["arts"]
        body, _ = nc.split_at_tap(arts.classifier)
        images = arts.test_data.images[[0, 101, 202, 303]]
        seeds = [4, 5, 6, 7]
        stacked = pl.invert_image(arts.generator, body, images, FAST, seeds)
        assert len(stacked) == len(images)
        for image, seed, got in zip(images, seeds, stacked):
            want = invert_one(arts.generator, body, image, FAST, seed)
            assert np.array_equal(got.z, want.z)
            assert got.restart_losses == want.restart_losses
            assert (got.combined_loss, got.feature_loss, got.pixel_loss, got.restart_index) == (
                want.combined_loss, want.feature_loss, want.pixel_loss, want.restart_index
            )

    # five images: the calling thread inverts three, the worker thread two
    ODD = [0, 101, 202, 303, 399]

    @staticmethod
    def started_threads(monkeypatch) -> list:
        """The threads started from now on, gathered as they start."""
        started = []
        start = threading.Thread.start

        def recorded(thread):
            started.append(thread)
            return start(thread)

        monkeypatch.setattr(threading.Thread, "start", recorded)
        return started

    def test_odd_stack_same_bits_on_one_or_two_workers(self, toy, monkeypatch):
        arts = toy["arts"]
        body, _ = nc.split_at_tap(arts.classifier)
        images = arts.test_data.images[self.ODD]
        seeds = [9, 8, 7, 6, 5]
        runs = []
        for workers in (1, 2):
            monkeypatch.setattr(nc, "worker_count", lambda: workers)
            runs.append(pl.invert_image(arts.generator, body, images, FAST, seeds))
        alone = [invert_one(arts.generator, body, im, FAST, s) for im, s in zip(images, seeds)]
        for run in runs:
            assert len(run) == len(images)
            for got, want in zip(run, alone):
                for field in dataclasses.fields(pl.InversionResult):
                    a, b = getattr(got, field.name), getattr(want, field.name)
                    assert np.array_equal(a, b), field.name

    @pytest.mark.parametrize("workers, n", [(2, 1), (1, 2)], ids=["stack-of-one", "one-cpu"])
    def test_starts_no_thread(self, toy, monkeypatch, workers, n):
        arts = toy["arts"]
        body, _ = nc.split_at_tap(arts.classifier)
        monkeypatch.setattr(nc, "worker_count", lambda: workers)
        started = self.started_threads(monkeypatch)
        res = pl.invert_image(arts.generator, body, arts.test_data.images[:n], FAST, range(n))
        assert len(res) == n and started == []

    @pytest.mark.parametrize("bad", [0, 4], ids=["first-half", "second-half"])
    def test_error_of_either_half_is_every_images(self, toy, monkeypatch, bad):
        arts = toy["arts"]
        body, _ = nc.split_at_tap(arts.classifier)
        monkeypatch.setattr(nc, "worker_count", lambda: 2)
        started = self.started_threads(monkeypatch)
        images = arts.test_data.images[self.ODD].copy()
        images[bad, 0, 0] = np.nan  # the feature pass of the target raises
        got = pl._per_image(len(images), lambda: pl.invert_image(
            arts.generator, body, images, FAST, [1, 2, 3, 4, 5]
        ))
        assert len(got) == len(images)
        assert isinstance(got[0], nc.NumericsError)
        assert all(res is got[0] for res in got)
        assert len(started) == 1 and not started[0].is_alive()

    @pytest.mark.parametrize("n_seeds", [3, 5])
    def test_one_seed_per_image(self, toy, monkeypatch, n_seeds):
        # 3 seeds for 4 images used to invert 3 of them, and 5 raised an
        # IndexError from the worker thread
        arts = toy["arts"]
        body, _ = nc.split_at_tap(arts.classifier)
        monkeypatch.setattr(nc, "worker_count", lambda: 2)
        with pytest.raises(pl.PipelineError, match=f"4 images and {n_seeds} seeds"):
            pl.invert_image(arts.generator, body, arts.test_data.images[:4], FAST,
                            range(n_seeds))

    def test_no_thread_outlives_the_inversion(self, toy, monkeypatch):
        arts = toy["arts"]
        body, _ = nc.split_at_tap(arts.classifier)
        monkeypatch.setattr(nc, "worker_count", lambda: 2)
        started = self.started_threads(monkeypatch)
        before = set(threading.enumerate())
        res = pl.invert_image(arts.generator, body, arts.test_data.images[[0, 1]], FAST, [3, 4])
        assert all(isinstance(r, pl.InversionResult) for r in res)
        assert len(started) == 1 and not started[0].is_alive()
        assert set(threading.enumerate()) == before


class TestStoredInversion:
    KEY = {"seed": 3, "invert_steps": 800, "invert_lr": 0.05}

    def test_round_trip_is_bit_exact(self, tmp_path):
        inv = pl.InversionResult(
            np.array([0.1, -2.5e-300, 3.0]), 0.7, 0.2, 0.5, [0.7, math.inf, 1.0 / 3], 0,
        )
        path = tmp_path / "0007.json"
        pl.save_inversion(inv, self.KEY, path)
        back = pl.load_inversion(path, dict(self.KEY), 3)
        assert back.z.tobytes() == inv.z.tobytes()
        assert dataclasses.astuple(back)[1:] == dataclasses.astuple(inv)[1:]
        assert pl.load_inversion(path, dict(self.KEY, invert_steps=799), 3) is None
        with pytest.raises(pl.InversionFormatError, match="latent_dim 3 is not the run's 8"):
            pl.load_inversion(path, dict(self.KEY), 8)

    def test_key_without_a_field_refused(self, tmp_path):
        inv = pl.InversionResult(np.zeros(2), 0.0, 0.0, 0.0, [0.0], 0)
        path = tmp_path / "0000.json"
        pl.save_inversion(inv, {"seed": 3}, path)
        with pytest.raises(pl.InversionFormatError, match="its key does not hold"):
            pl.load_inversion(path, self.KEY, 2)


class TestStoredExplanation:
    KEY = {"mode": "semifactual", "alpha": 0.05, "target_class": None}

    @staticmethod
    def load(arts, path, key, image_shape=(16, 16)):
        return pl.stored_explanation(path, key, arts.generator, arts.classifier, image_shape)

    @pytest.mark.parametrize("idx", [0, 120, 184])
    def test_round_trip_is_bit_exact(self, delivered, tmp_path, idx):
        # image 120's semifactual backs off; on image 184 a prefix's rendering
        # leaves c, so that its proportional explanations render afresh
        from piece.experiments import record

        arts = delivered["arts"]
        req, sf = delivered[idx]
        cf = pl.explain(dataclasses.replace(req, mode="counterfactual"), arts.classifier,
                        arts.generator, arts.stats, arts.config.optim)
        stored = {}
        for res in (sf, cf):
            path = tmp_path / f"{idx:04d}_{res.mode}.json"
            pl.store_explanation(res, self.KEY, path)
            back = stored[res.mode] = self.load(arts, path, dict(self.KEY))
            for field in dataclasses.fields(res):
                a, b = getattr(back, field.name), getattr(res, field.name)
                if isinstance(b, np.ndarray):
                    assert a.shape == b.shape and a.tobytes() == b.tobytes(), field.name
                else:
                    assert a == b, field.name
            assert record(back) == record(res)
            assert self.load(arts, path, dict(self.KEY, alpha=0.1)) is None
            with pytest.raises(pl.ExplanationFormatError, match="height 16 is not the run's 8"):
                self.load(arts, path, dict(self.KEY), (8, 32))
        for fraction in pl.FRACTIONS:  # cut from the stored semifactual
            got = proportional(stored["semifactual"], fraction, arts, arts.config.optim)
            want = proportional(sf, fraction, arts, arts.config.optim)
            assert record(got) == record(want)
            assert got.image_prime.tobytes() == want.image_prime.tobytes()

    def test_key_without_a_field_refused(self, delivered, tmp_path):
        path = tmp_path / "0000_sf.json"
        pl.store_explanation(delivered[0][1], {"mode": "semifactual"}, path)
        with pytest.raises(pl.ExplanationFormatError, match="its key does not hold"):
            self.load(delivered["arts"], path, self.KEY)


class TestSelection:
    def test_misclassification_takes_true_label(self, toy):
        arts = toy["arts"]
        idx = int(toy["mis"][0])
        image = arts.test_data.images[idx]
        label = int(arts.test_data.labels[idx])
        sel = pl.select_cf_class(
            arts.classifier, arts.generator, np.zeros(arts.generator.input_dim),
            predicted(arts, image), label, FAST,
        )
        assert sel.trivial and sel.c_prime == label and sel.steps == 0

    def test_correct_classification_crosses_boundary(self, toy):
        arts = toy["arts"]
        idx = int(toy["cor"][0])
        body, _ = nc.split_at_tap(arts.classifier)
        image = arts.test_data.images[idx]
        label = int(arts.test_data.labels[idx])
        inv = invert_one(arts.generator, body, image, FAST, seed=idx)
        c = predicted(arts, image)
        sel = pl.select_cf_class(arts.classifier, arts.generator, inv.z, c, label, FAST)
        assert not sel.trivial
        assert sel.c_prime != label
        # the probe stops at the first step whose argmax leaves the label:
        # one step less never crosses
        assert sel.steps >= 1
        if sel.steps >= 2:
            short = dataclasses.replace(FAST, ascent_max_steps=sel.steps - 1)
            with pytest.raises(pl.SelectionError):
                pl.select_cf_class(arts.classifier, arts.generator, inv.z, c, label, short)

    def test_zero_budget_raises(self, toy):
        arts = toy["arts"]
        idx = int(toy["cor"][0])
        image = arts.test_data.images[idx]
        label = int(arts.test_data.labels[idx])
        settings = pl.OptimSettings(ascent_max_steps=0)
        with pytest.raises(pl.SelectionError):
            pl.select_cf_class(
                arts.classifier, arts.generator, np.zeros(arts.generator.input_dim),
                predicted(arts, image), label, settings,
            )


def head_for(weights):
    w = np.asarray(weights, dtype=float)
    return nc.Network([nc.Dense(w, np.zeros(w.shape[0])), nc.SoftMax()], role="classifier")


def feature(neuron, rule, p=0.01, observed=0.0, replacement=2.3):
    return ExceptionalFeature(neuron, rule, p, observed, replacement)


class TestModifyFeatures:
    # two features, two classes; class 1 is the counterfactual target
    def setup_method(self):
        self.head = head_for([[0.0, 0.0], [0.5, -0.5]])
        self.x = np.array([0.0, 1.0])

    def run(self, features, mode="counterfactual", w=None):
        w = np.array([0.5, -0.5]) if w is None else np.asarray(w)
        return pl.modify_features(self.x, features, w, self.head, 0, 1, mode)

    def test_positive_weight_absent_replaced(self):
        mod = self.run([feature(0, Rule.ABSENT)])
        assert mod.x_mod[0] == 2.3 and mod.applied_count == 1

    def test_negative_weight_absent_skipped(self):
        mod = self.run([feature(0, Rule.ABSENT)], w=[-0.5, -0.5])
        assert mod.x_mod[0] == 0.0
        assert mod.steps[0].reason == "wrong_branch"

    def test_negative_weight_high_tail_replaced(self):
        mod = self.run([feature(1, Rule.HIGH_TAIL, observed=1.0, replacement=0.4)])
        assert mod.x_mod[1] == 0.4

    def test_zero_weight_skipped(self):
        mod = self.run([feature(0, Rule.ABSENT)], w=[0.0, -0.5])
        assert mod.applied_count == 0
        assert mod.steps[0].reason == "zero_weight"

    def test_empty_eligible_status(self):
        mod = self.run([feature(0, Rule.HIGH_TAIL, observed=1.0)], w=[0.5, 0.5])
        assert mod.status == "no_eligible_exceptional_features"

    def test_duplicate_neuron_not_replayed(self):
        feats = [
            feature(0, Rule.UNEXPECTED, p=0.01, observed=1.0, replacement=2.3),
            feature(0, Rule.LOW_TAIL, p=0.02, observed=1.0, replacement=2.3),
        ]
        mod = self.run(feats)
        assert mod.applied_count == 1
        assert mod.steps[1].reason == "already_replaced"

    def test_unsorted_features_rejected(self):
        feats = [feature(0, Rule.ABSENT, p=0.04), feature(1, Rule.ABSENT, p=0.01)]
        with pytest.raises(pl.PipelineError, match="sorted"):
            self.run(feats)

    def test_semifactual_stops_before_flip(self):
        # class-0 logit is 2*x2; class-1 logit is x0 + x1; the second
        # replacement pushes the class-1 logit past it
        head = head_for([[0.0, 0.0, 2.0], [1.0, 1.0, 0.0]])
        x = np.array([0.0, 0.0, 1.0])
        w = np.array([1.0, 1.0, 0.0])  # class-1 weight row
        feats = [
            feature(0, Rule.ABSENT, p=0.01, replacement=1.0),
            feature(1, Rule.ABSENT, p=0.02, replacement=1.5),
        ]
        cf = pl.modify_features(x, feats, w, head, 0, 1, "counterfactual")
        assert cf.applied_count == 2
        assert np.argmax(nc.forward(head, cf.x_mod).output) == 1
        sf = pl.modify_features(x, feats, w, head, 0, 1, "semifactual")
        assert sf.applied_count == 1
        assert sf.steps[-1].reason == "would_flip"
        assert np.argmax(nc.forward(head, sf.x_mod).output) == 0


class TestVisualize:
    def test_unmodified_target_stays_near_reconstruction(self, toy, toy_run):
        # the inversion optimum (pixels + features) is not the feature-only
        # optimum, so rendering unmodified features drifts a little; the
        # drift must stay within the generator's own reconstruction error
        import json

        arts = toy["arts"]
        gen_mse = json.load(
            open(toy_run["paths"].reports("training_generator.json"))
        )["final"]["test_mse"]
        body, _ = nc.split_at_tap(arts.classifier)
        idx = int(toy["cor"][0])
        image = arts.test_data.images[idx]
        settings = pl.OptimSettings()
        inv = invert_one(arts.generator, body, image, settings, seed=idx)
        x = nc.forward(body, image.ravel()).output
        (vis,) = pl.visualize(
            arts.classifier, arts.generator, x[None], inv.z[None], settings, image.shape
        )
        recon = nc.forward(arts.generator, inv.z).output.reshape(image.shape)
        assert float(np.mean((vis.image - recon) ** 2)) < gen_mse
        assert vis.residual_after <= vis.residual_before

    def test_residuals_are_each_images_own_sum(self, toy):
        # each image's loss is the sum over its own row; a loop over the
        # images, one 2-d pass each, gives the same bits
        arts = toy["arts"]
        body, _ = nc.split_at_tap(arts.classifier)
        rng = np.random.default_rng(5)
        images = arts.test_data.images[toy["cor"][:3]]
        targets = nc.forward(body, images.reshape(3, -1)).output + rng.normal(0, 0.1, (3, 32))
        starts = rng.standard_normal((3, arts.generator.input_dim))

        def loss(z, target):
            feats = nc.forward(body, nc.forward(arts.generator, z[None]).output).output
            return float(np.sum((feats - target[None]) ** 2))

        rendered = pl.visualize(
            arts.classifier, arts.generator, targets, starts, FAST, images[0].shape
        )
        for vis, target, start in zip(rendered, targets, starts):
            assert vis.residual_before == loss(start, target)
            assert vis.residual_after == loss(vis.z, target)

    def test_residual_strictly_decreases_on_modified_target(self, toy):
        arts = toy["arts"]
        body, _ = nc.split_at_tap(arts.classifier)
        idx = int(toy["cor"][1])
        req = request_for(arts, idx, "counterfactual")
        res = pl.explain(req, arts.classifier, arts.generator, arts.stats, FAST)
        assert res.residuals["after"] < res.residuals["before"]


class TestExplain:
    def test_misclassified_counterfactual(self, toy):
        arts = toy["arts"]
        idx = int(toy["mis"][0])
        res = pl.explain(
            request_for(arts, idx, "counterfactual"),
            arts.classifier, arts.generator, arts.stats, FAST,
        )
        assert res.trivially_selected
        assert res.c_prime == arts.test_data.labels[idx]
        assert res.verified
        assert res.image_prime.min() >= 0.0 and res.image_prime.max() <= 1.0

    def test_semifactual_on_misclassified_allowed_and_honest(self, toy):
        # allowed, with c' the true label; the feature vector stays in class
        # c by the stopping rule, but the rendered image of a borderline
        # misclassification may not, and then the flag must say so
        arts = toy["arts"]
        idx = int(toy["mis"][0])
        res = pl.explain(
            request_for(arts, idx, "semifactual"),
            arts.classifier, arts.generator, arts.stats, FAST,
        )
        assert res.c_prime == arts.test_data.labels[idx]
        assert res.intended_class == res.c
        _, head = nc.split_at_tap(arts.classifier)
        assert np.argmax(nc.forward(head, res.x_mod).output) == res.c
        assert res.verified == (
            int(np.argmax(res.probs_prime)) == res.intended_class
        )

    def test_counterfactual_feature_vector_lands_in_target_class(self, toy):
        arts = toy["arts"]
        _, head = nc.split_at_tap(arts.classifier)
        for idx in list(toy["cor"][:4]) + list(toy["mis"][:1]):
            res = pl.explain(
                request_for(arts, int(idx), "counterfactual"),
                arts.classifier, arts.generator, arts.stats, FAST,
            )
            assert np.argmax(nc.forward(head, res.x_mod).output) == res.c_prime

    def test_counterfactual_monotone_evidence(self, toy):
        arts = toy["arts"]
        idx = int(toy["cor"][2])
        res = pl.explain(
            request_for(arts, idx, "counterfactual"),
            arts.classifier, arts.generator, arts.stats, FAST,
        )
        applied = [s for s in res.mod_steps if s.applied]
        if applied:
            assert res.mod_steps[-1].prob_c_prime > res.probs_original[res.c_prime]

    def test_semifactual_trace_stays_in_class(self, toy):
        arts = toy["arts"]
        idx = int(toy["cor"][3])
        res = pl.explain(
            request_for(arts, idx, "semifactual"),
            arts.classifier, arts.generator, arts.stats, FAST,
        )
        _, head = nc.split_at_tap(arts.classifier)
        x_check = res.x.copy()
        for step in res.mod_steps:
            if step.applied:
                x_check[step.neuron] = step.new
                assert np.argmax(nc.forward(head, x_check).output) == res.c

    def test_proportional_counts_and_nesting(self, toy):
        arts = toy["arts"]
        idx = int(toy["cor"][4])
        sf = pl.explain(
            request_for(arts, idx, "semifactual"), arts.classifier, arts.generator, arts.stats,
            FAST,
        )
        applied_sets = []
        for fraction in pl.FRACTIONS:
            res = proportional(sf, fraction, arts, FAST)
            assert res.applied_count == math.ceil(fraction * res.k_reference)
            applied_sets.append([s.neuron for s in res.mod_steps if s.applied])
        for small, large in zip(applied_sets, applied_sets[1:]):
            assert small == large[: len(small)]

    def test_proportional_steps_equal_head_passes_on_their_prefix(self, delivered):
        # proportional steps are copied from the semifactual's recorded walk:
        # each one's probabilities must be those of a head pass on x with the
        # applied steps up to it, bit for bit; image 120's semifactual backs
        # off on the default run, so the copy must survive the retreat
        arts = delivered["arts"]
        _, head = nc.split_at_tap(arts.classifier)
        for idx in (0, 120, 380):
            req, sf = delivered[idx]
            if idx == 120:
                assert sf.backoff_steps >= 1
            for fraction in pl.FRACTIONS:
                prop = proportional(sf, fraction, arts, arts.config.optim)
                cur = prop.x.copy()
                for step in prop.mod_steps:
                    if step.applied:
                        cur[step.neuron] = step.new
                    probs = nc.forward(head, cur).output
                    assert (step.prob_c, step.prob_c_prime) == (
                        float(probs[prop.c]), float(probs[prop.c_prime])
                    )
                assert np.array_equal(prop.x_mod, cur)

    def test_explain_deterministic(self, toy):
        arts = toy["arts"]
        idx = int(toy["cor"][0])
        a = pl.explain(request_for(arts, idx, "counterfactual"),
                       arts.classifier, arts.generator, arts.stats, FAST)
        b = pl.explain(request_for(arts, idx, "counterfactual"),
                       arts.classifier, arts.generator, arts.stats, FAST)
        assert np.array_equal(a.z_prime, b.z_prime)
        assert np.array_equal(a.image_prime, b.image_prime)

    def test_idempotence_recheck_matches_independent_recount(self, toy):
        # re-flagging the modified vector: the reported violation count must
        # equal an independent recount, and the unexpected-activation rule
        # is excluded (a positive replacement re-triggers it by definition)
        from piece.hurdle import classify_exceptional

        arts = toy["arts"]
        idx = int(toy["cor"][5])
        res = pl.explain(
            request_for(arts, idx, "counterfactual"),
            arts.classifier, arts.generator, arts.stats, FAST,
        )
        redone, _ = classify_exceptional(
            res.x_mod, arts.stats.models[res.c_prime], res.alpha
        )
        applied = {
            (s.neuron, s.rule)
            for s in res.mod_steps
            if s.applied and s.rule != Rule.UNEXPECTED.value
        }
        recount = sum(1 for f in redone if (f.neuron, f.rule.value) in applied)
        assert res.recheck_violations == recount

    def test_result_dict_is_json_ready(self, toy):
        import dataclasses
        import json

        from piece.experiments import record

        arts = toy["arts"]
        idx = int(toy["cor"][0])
        res = pl.explain(request_for(arts, idx, "counterfactual"),
                         arts.classifier, arts.generator, arts.stats, FAST)
        doc = record(res)
        text = json.dumps(doc)
        assert '"verified"' in text
        # every field is recorded, so a field added later cannot be lost
        fields = {f.name for f in dataclasses.fields(pl.ExplanationResult)}
        assert set(doc) == fields - {"image_prime", "mod_steps"} | {"steps"}
        assert doc["steps"] == [dataclasses.asdict(s) for s in res.mod_steps]
        assert [f["rule"] for f in doc["exceptional"]] == [f.rule.value for f in res.exceptional]

    def test_bad_requests_rejected(self, toy):
        # a proportional explanation is cut from a semifactual's result
        # (`proportional_stack`), so it is no request mode
        arts = toy["arts"]
        with pytest.raises(pl.PipelineError, match="unknown mode 'proportional'"):
            request_for(arts, 0, "proportional")
        with pytest.raises(pl.PipelineError):
            request_for(arts, 0, "counterfactual", alpha=0.7)
        with pytest.raises(pl.PipelineError):
            request_for(arts, 0, "upside_down")


class TestProportional:
    @pytest.mark.parametrize("idx", [0, 120, 184])
    def test_equals_explain_in_proportional_mode(self, delivered, monkeypatch, idx):
        # `piece explain --mode prop` cuts each fraction from a semifactual
        # explained afresh; cutting them all from one delivered semifactual
        # gives the same. Image 120's semifactual backs off; on image 184 a
        # prefix's rendering leaves c
        from piece.experiments import record

        arts = delivered["arts"]
        req, sf = delivered[idx]
        fresh = pl.explain(req, arts.classifier, arts.generator, arts.stats, arts.config.optim)
        calls = []
        visualize = pl.visualize

        def counted(*args, **kwargs):
            calls.append(args)
            return visualize(*args, **kwargs)

        monkeypatch.setattr(pl, "visualize", counted)
        props = []
        for fraction in pl.FRACTIONS:
            calls.clear()
            prop = proportional(sf, fraction, arts, arts.config.optim)
            if fraction == 1.0:
                # the semifactual's own target: its rendering, not another
                assert calls == []
                assert prop.z_prime is sf.z_prime and prop.image_prime is sf.image_prime
            alone = proportional(fresh, fraction, arts, arts.config.optim)
            assert record(prop) == record(alone)
            assert np.array_equal(prop.image_prime, alone.image_prime)
            props.append(prop)
        if idx == 120:
            assert sf.backoff_steps >= 1
        if idx == 184:
            assert not all(p.verified for p in props)

    def test_needs_a_semifactual_and_a_fraction(self, delivered):
        arts = delivered["arts"]
        req, sf = delivered[0]
        with pytest.raises(pl.PipelineError):
            proportional(sf, 0.4, arts, arts.config.optim)
        with pytest.raises(pl.PipelineError):
            proportional(dataclasses.replace(sf, mode="counterfactual"), 0.5, arts,
                         arts.config.optim)


class TestStacks:
    """Stacking changes no bit: each image of a stack gets what it gets
    alone, and an image that fails, fails alone."""

    def test_visualize_stack_equals_each_image_alone(self, delivered):
        arts = delivered["arts"]
        runs = [delivered[idx] for idx in (0, 120, 184, 380)]
        settings = arts.config.optim
        targets = np.stack([sf.x_mod for _, sf in runs])
        starts = np.stack([sf.z for _, sf in runs])
        shape = runs[0][1].image_prime.shape

        def render(t, z):
            return pl.visualize(arts.classifier, arts.generator, t, z, settings, shape)

        alone = [render(t[None], z[None])[0] for t, z in zip(targets, starts)]
        for poisoned in (None, 1):
            if poisoned is not None:
                starts[poisoned, 3] = np.nan
            stacked = render(targets, starts)
            assert len(stacked) == len(runs)
            for i, (got, want) in enumerate(zip(stacked, alone)):
                if i == poisoned:
                    assert isinstance(got, pl.VisualizationError)
                    assert str(got) == "visualization latent diverged to non-finite"
                    continue
                assert np.array_equal(got.z, want.z)
                assert np.array_equal(got.image, want.image)
                assert (got.residual_before, got.residual_after) == (
                    want.residual_before, want.residual_after
                )
                assert np.array_equal(got.probs, want.probs)
                assert np.array_equal(
                    got.probs, nc.forward(arts.classifier, got.image.ravel()).output
                )

    def test_selection_stack_equals_each_image_alone(self, delivered, toy):
        arts = delivered["arts"]
        mis = int(toy["mis"][0])
        body, _ = nc.split_at_tap(arts.classifier)
        z = [delivered[idx][1].z for idx in (0, 120, 184, 380)]
        c = [delivered[idx][1].c for idx in (0, 120, 184, 380)]
        labels = [delivered[idx][0].true_label for idx in (0, 120, 184, 380)]
        z.append(invert_one(arts.generator, body, arts.test_data.images[mis], FAST, seed=mis).z)
        c.append(predicted(arts, arts.test_data.images[mis]))
        labels.append(int(arts.test_data.labels[mis]))
        settings = arts.config.optim
        full = [pl.select_cf_class(arts.classifier, arts.generator, *a, settings)
                for a in zip(z, c, labels)]
        probed = sorted(sel.steps for sel in full if not sel.trivial)
        # a budget that some probes exhaust and others do not
        short = dataclasses.replace(settings, ascent_max_steps=probed[len(probed) // 2])
        assert probed[0] <= short.ascent_max_steps < probed[-1]
        stacked = pl.select_cf_class_stack(
            arts.classifier, arts.generator, np.stack(z), c, labels, short
        )
        for args, sel, got in zip(zip(z, c, labels), full, stacked):
            if sel.steps <= short.ascent_max_steps:
                assert got == sel
                continue
            # its own final probabilities, as alone
            assert isinstance(got, pl.SelectionError)
            with pytest.raises(pl.SelectionError) as alone:
                pl.select_cf_class(arts.classifier, arts.generator, *args, short)
            assert str(got) == str(alone.value)

    def test_explain_stack_equals_each_request_alone(self, delivered):
        # semifactuals of four images, image 120's backing off in a round of
        # its own, next to counterfactuals
        from piece.experiments import record

        arts = delivered["arts"]
        requests = [delivered[idx][0] for idx in (0, 120, 184, 380)]
        requests += [
            dataclasses.replace(delivered[0][0], mode="counterfactual"),
            dataclasses.replace(delivered[184][0], mode="counterfactual"),
        ]
        stacked = pl.explain_stack(
            requests, arts.classifier, arts.generator, arts.stats, arts.config.optim
        )
        assert stacked[1].backoff_steps >= 1
        for req, got in zip(requests, stacked):
            if req.mode == "semifactual":
                want = delivered[req.image_id][1]
            else:
                want = pl.explain(
                    req, arts.classifier, arts.generator, arts.stats, arts.config.optim
                )
            assert record(got) == record(want)
            assert np.array_equal(got.image_prime, want.image_prime)

    def test_proportional_stack_equals_each_item_alone(self, delivered):
        # experiment 2's call: every fraction of several semifactuals in one
        # stack, where image 120's semifactual backed off and a prefix of
        # image 184's leaves c, next to prefixes that reuse their
        # semifactual's rendering
        from piece.experiments import record

        arts = delivered["arts"]
        items = [(delivered[idx][1], f) for idx in (0, 120, 184) for f in pl.FRACTIONS]
        stacked = pl.proportional_stack(
            items, arts.classifier, arts.generator, arts.stats, arts.config.optim
        )
        assert len(stacked) == len(items)
        assert not all(p.verified for p in stacked[8:])  # image 184's
        for (sf, fraction), got in zip(items, stacked):
            want = proportional(sf, fraction, arts, arts.config.optim)
            assert (got.image_id, got.fraction) == (sf.image_id, fraction)
            assert record(got) == record(want)
            assert np.array_equal(got.image_prime, want.image_prime)

    def test_request_inversion_is_used_not_redone(self, delivered, monkeypatch):
        from piece.experiments import record

        arts = delivered["arts"]
        sizes = count_inversions(monkeypatch)
        got = pl.explain_stack(
            [delivered[120][0], delivered[0][0]],
            arts.classifier, arts.generator, arts.stats, arts.config.optim,
        )
        assert sizes == []  # each request holds its inversion
        for res, idx in zip(got, (120, 0)):
            assert record(res) == record(delivered[idx][1])
            assert np.array_equal(res.image_prime, delivered[idx][1].image_prime)

    def test_counterfactual_of_the_predicted_class_refused(self, toy):
        arts = toy["arts"]
        idx = int(toy["cor"][0])
        req = request_for(arts, idx, "counterfactual",
                          target_class=predicted(arts, arts.test_data.images[idx]))
        with pytest.raises(pl.TargetClassError, match="predicted class"):
            pl.explain(req, arts.classifier, arts.generator, arts.stats, FAST)
