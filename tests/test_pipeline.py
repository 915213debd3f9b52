import dataclasses
import math

import numpy as np
import pytest

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


@pytest.fixture(scope="module")
def toy(toy_run):
    arts = toy_run["arts"]
    probs = nc.forward(arts.classifier, arts.test_data.flat()).output
    pred = probs.argmax(1)
    mis = np.flatnonzero(pred != arts.test_data.labels)
    cor = np.flatnonzero((pred == arts.test_data.labels) & (probs.max(1) >= 0.8))
    assert len(mis) >= 1, "toy run regression: expected at least one misclassification"
    return {"arts": arts, "mis": mis, "cor": cor}


def request_for(arts, idx, mode, **kw):
    return pl.ExplanationRequest(
        image=arts.test_data.images[idx],
        true_label=int(arts.test_data.labels[idx]),
        mode=mode,
        settings=kw.pop("settings", FAST),
        seed=kw.pop("seed", int(idx)),
        image_id=int(idx),
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


class TestSelection:
    def test_misclassification_takes_true_label(self, toy):
        arts = toy["arts"]
        idx = int(toy["mis"][0])
        image = arts.test_data.images[idx]
        label = int(arts.test_data.labels[idx])
        sel = pl.select_cf_class(
            arts.classifier, arts.generator, np.zeros(arts.generator.input_dim),
            image, label, FAST,
        )
        assert sel.trivial and sel.c_prime == label and sel.steps == 0

    def test_correct_classification_crosses_boundary(self, toy):
        arts = toy["arts"]
        idx = int(toy["cor"][0])
        body, _ = nc.split_at_tap(arts.classifier)
        image = arts.test_data.images[idx]
        label = int(arts.test_data.labels[idx])
        inv = invert_one(arts.generator, body, image, FAST, seed=idx)
        sel = pl.select_cf_class(arts.classifier, arts.generator, inv.z, image, label, FAST)
        assert not sel.trivial
        assert sel.c_prime != label
        # the probe stops at the first step whose argmax leaves the label:
        # one step less never crosses
        assert sel.steps >= 1
        if sel.steps >= 2:
            short = dataclasses.replace(FAST, ascent_max_steps=sel.steps - 1)
            with pytest.raises(pl.SelectionError):
                pl.select_cf_class(arts.classifier, arts.generator, inv.z, image, label, short)

    def test_zero_budget_raises(self, toy):
        arts = toy["arts"]
        idx = int(toy["cor"][0])
        image = arts.test_data.images[idx]
        label = int(arts.test_data.labels[idx])
        settings = pl.OptimSettings(ascent_max_steps=0)
        with pytest.raises(pl.SelectionError):
            pl.select_cf_class(
                arts.classifier, arts.generator, np.zeros(arts.generator.input_dim),
                image, label, settings,
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
        vis = pl.visualize(arts.generator, body, x, inv.z, settings, image.shape)
        recon = nc.forward(arts.generator, inv.z).output.reshape(image.shape)
        assert float(np.mean((vis.image - recon) ** 2)) < gen_mse
        assert vis.residual_after <= vis.residual_before

    def test_residual_strictly_decreases_on_modified_target(self, toy):
        arts = toy["arts"]
        body, _ = nc.split_at_tap(arts.classifier)
        idx = int(toy["cor"][1])
        req = request_for(arts, idx, "counterfactual")
        res = pl.explain(req, arts.classifier, arts.generator, arts.stats)
        assert res.residuals["after"] < res.residuals["before"]


class TestExplain:
    def test_misclassified_counterfactual(self, toy):
        arts = toy["arts"]
        idx = int(toy["mis"][0])
        res = pl.explain(
            request_for(arts, idx, "counterfactual"),
            arts.classifier, arts.generator, arts.stats,
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
            arts.classifier, arts.generator, arts.stats,
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
                arts.classifier, arts.generator, arts.stats,
            )
            assert np.argmax(nc.forward(head, res.x_mod).output) == res.c_prime

    def test_counterfactual_monotone_evidence(self, toy):
        arts = toy["arts"]
        idx = int(toy["cor"][2])
        res = pl.explain(
            request_for(arts, idx, "counterfactual"),
            arts.classifier, arts.generator, arts.stats,
        )
        applied = [s for s in res.mod_steps if s.applied]
        if applied:
            assert res.mod_steps[-1].prob_c_prime > res.probs_original[res.c_prime]

    def test_semifactual_trace_stays_in_class(self, toy):
        arts = toy["arts"]
        idx = int(toy["cor"][3])
        res = pl.explain(
            request_for(arts, idx, "semifactual"),
            arts.classifier, arts.generator, arts.stats,
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
        req = request_for(arts, idx, "counterfactual")
        ctx = pl.prepare_context(req, arts.classifier, arts.generator, arts.stats)
        applied_sets = []
        for fraction in pl.FRACTIONS:
            res = pl.explain(
                request_for(arts, idx, "proportional", fraction=fraction),
                arts.classifier, arts.generator, arts.stats, context=ctx,
            )
            assert res.applied_count == math.ceil(fraction * res.k_reference)
            applied_sets.append([s.neuron for s in res.mod_steps if s.applied])
        for small, large in zip(applied_sets, applied_sets[1:]):
            assert small == large[: len(small)]

    def test_explain_deterministic(self, toy):
        arts = toy["arts"]
        idx = int(toy["cor"][0])
        a = pl.explain(request_for(arts, idx, "counterfactual"),
                       arts.classifier, arts.generator, arts.stats)
        b = pl.explain(request_for(arts, idx, "counterfactual"),
                       arts.classifier, arts.generator, arts.stats)
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
            arts.classifier, arts.generator, arts.stats,
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
                         arts.classifier, arts.generator, arts.stats)
        doc = record(res)
        text = json.dumps(doc)
        assert '"verified"' in text
        # every field is recorded, so a field added later cannot be lost
        fields = {f.name for f in dataclasses.fields(pl.ExplanationResult)}
        assert set(doc) == fields - {"image_prime", "mod_steps"} | {"steps"}
        assert doc["steps"] == [dataclasses.asdict(s) for s in res.mod_steps]
        assert [f["rule"] for f in doc["exceptional"]] == [f.rule.value for f in res.exceptional]

    def test_bad_requests_rejected(self, toy):
        arts = toy["arts"]
        with pytest.raises(pl.PipelineError):
            request_for(arts, 0, "proportional", fraction=0.4).validate()
        with pytest.raises(pl.PipelineError):
            request_for(arts, 0, "counterfactual", alpha=0.7).validate()
        with pytest.raises(pl.PipelineError):
            request_for(arts, 0, "upside_down").validate()
