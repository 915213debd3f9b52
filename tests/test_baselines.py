import dataclasses

import numpy as np
import pytest

from helpers import watched
from piece import baselines as bl
from piece import netcore as nc
from piece import pipeline as pl


@pytest.fixture(scope="module")
def prepared(toy_run):
    """PIECE counterfactuals of a handful of confidently correct test images,
    for their inversions, features and classes."""
    arts = toy_run["arts"]
    probs = nc.forward(arts.classifier, arts.test_data.flat()).output
    pred = probs.argmax(1)
    cor = np.flatnonzero((pred == arts.test_data.labels) & (probs.max(1) >= 0.8))
    settings = pl.OptimSettings(invert_restarts=4, invert_steps=300)
    body, _ = nc.split_at_tap(arts.classifier)
    pieces = []
    for idx in cor[:6]:
        idx = int(idx)
        image = arts.test_data.images[idx]
        (inv,) = pl.invert_image(arts.generator, body, image[None], settings, [idx])
        req = pl.ExplanationRequest(
            image=image,
            true_label=int(arts.test_data.labels[idx]),
            mode="counterfactual",
            image_id=idx,
            inversion=inv,
        )
        pieces.append(pl.explain(req, arts.classifier, arts.generator, arts.stats, settings))
    return {"arts": arts, "pieces": pieces}


CFG = bl.BaselineConfig(lam=1.0, lr=0.02, max_steps=2000)
CCFG = bl.BaselineConfig(lam=30.0, lr=0.02, max_steps=2000)


def classify(arts, z):
    img = nc.forward(arts.generator, z).output
    return int(np.argmax(nc.forward(arts.classifier, img).output))


class TestStopRules:
    def test_counterfactual_stop_lands_in_target(self, prepared):
        arts = prepared["arts"]
        for piece in prepared["pieces"]:
            res = bl.min_edit(
                piece.z, piece.c, piece.c_prime,
                arts.classifier, arts.generator, CFG,
            )
            assert not res.failed
            assert classify(arts, res.z_prime) == piece.c_prime

    def test_semifactual_stop_stays_and_next_step_flips(self, prepared):
        arts = prepared["arts"]
        piece = prepared["pieces"][0]
        sf = bl.min_edit(
            piece.z, piece.c, piece.c_prime,
            arts.classifier, arts.generator, CFG, mode="semifactual",
        )
        cf = bl.min_edit(
            piece.z, piece.c, piece.c_prime,
            arts.classifier, arts.generator, CFG, mode="counterfactual",
        )
        assert not sf.failed and not cf.failed
        assert classify(arts, sf.z_prime) == piece.c
        # identical deterministic trajectory: the step after the semifactual
        # stop is exactly the counterfactual crossing
        assert sf.crossed_step == cf.crossed_step
        assert classify(arts, cf.z_prime) == piece.c_prime

    def test_zero_lr_fails_after_budget(self, prepared):
        arts = prepared["arts"]
        piece = prepared["pieces"][0]
        cfg = bl.BaselineConfig(lr=0.0, max_steps=40)
        res = bl.min_edit(
            piece.z, piece.c, piece.c_prime,
            arts.classifier, arts.generator, cfg,
        )
        assert res.failed and res.steps_taken == 40
        assert "no decision boundary" in res.failure_reason

    def test_start_in_target_returns_start_copy(self, prepared):
        arts = prepared["arts"]
        piece = prepared["pieces"][0]
        z = piece.z
        assert classify(arts, z) == piece.c
        res = bl.c_min_edit(z, piece.x, piece.c, piece.c, arts.classifier, arts.generator, CCFG)
        assert not res.failed and res.steps_taken == 0 and res.crossed_step == 0
        assert np.array_equal(res.z_prime, z) and res.z_prime is not z

    def test_c_min_edit_counterfactual(self, prepared):
        arts = prepared["arts"]
        piece = prepared["pieces"][1]
        res = bl.c_min_edit(
            piece.z, piece.x, piece.c, piece.c_prime,
            arts.classifier, arts.generator, CCFG,
        )
        assert not res.failed
        assert classify(arts, res.z_prime) == piece.c_prime


class TestLambdaBehavior:
    def test_huge_lambda_approaches_min_edit(self, prepared):
        arts = prepared["arts"]
        body, _ = nc.split_at_tap(arts.classifier)

        def displacement(z, x):
            feat = nc.forward(body, nc.forward(arts.generator, z).output).output
            return float(np.linalg.norm(feat - x))

        for piece in prepared["pieces"][:3]:
            me = bl.min_edit(
                piece.z, piece.c, piece.c_prime,
                arts.classifier, arts.generator, CFG,
            )
            huge = bl.c_min_edit(
                piece.z, piece.x, piece.c, piece.c_prime,
                arts.classifier, arts.generator,
                bl.BaselineConfig(lam=1e6, lr=0.02, max_steps=2000),
            )
            assert not me.failed and not huge.failed
            d_me = displacement(me.z_prime, piece.x)
            d_huge = displacement(huge.z_prime, piece.x)
            assert abs(d_me - d_huge) <= 0.1 * d_me

    def test_small_lambda_stays_closer_on_average(self, prepared):
        arts = prepared["arts"]
        body, _ = nc.split_at_tap(arts.classifier)

        def displacement(z, x):
            feat = nc.forward(body, nc.forward(arts.generator, z).output).output
            return float(np.linalg.norm(feat - x))

        d_small, d_plain = [], []
        for piece in prepared["pieces"]:
            small = bl.c_min_edit(
                piece.z, piece.x, piece.c, piece.c_prime,
                arts.classifier, arts.generator,
                bl.BaselineConfig(lam=10.0, lr=0.02, max_steps=2000),
            )
            plain = bl.min_edit(
                piece.z, piece.c, piece.c_prime,
                arts.classifier, arts.generator, CFG,
            )
            if not small.failed and not plain.failed:
                d_small.append(displacement(small.z_prime, piece.x))
                d_plain.append(displacement(plain.z_prime, piece.x))
        assert len(d_small) >= 3
        assert np.mean(d_small) <= np.mean(d_plain)

    def test_min_edit_ignores_lambda(self, prepared):
        arts = prepared["arts"]
        piece = prepared["pieces"][1]
        start = (piece.z, piece.c, piece.c_prime, arts.classifier, arts.generator)
        plain, weighted = bl.min_edit(*start, CFG), bl.min_edit(*start, CCFG)
        assert plain.method == weighted.method == "min_edit"
        assert np.array_equal(plain.z_prime, weighted.z_prime)

    def test_deterministic(self, prepared):
        arts = prepared["arts"]
        piece = prepared["pieces"][2]
        a = bl.c_min_edit(piece.z, piece.x, piece.c, piece.c_prime,
                          arts.classifier, arts.generator, CCFG)
        b = bl.c_min_edit(piece.z, piece.x, piece.c, piece.c_prime,
                          arts.classifier, arts.generator, CCFG)
        assert np.array_equal(a.z_prime, b.z_prime)


def to_distance(method, piece, d_star, arts, cfg, z=None):
    """One image's distance-matched run: `run_baseline` on a stack of one."""
    z = piece.z if z is None else z
    (res,) = bl.run_baseline(
        method, z[None], piece.x[None], [piece.c], [piece.c_prime],
        arts.classifier, arts.generator, cfg, "distance", [d_star],
    )
    return res


class TestRunToDistance:
    """`run_baseline`'s distance stop: run until the feature displacement
    reaches a target."""

    def test_zero_target_returns_start(self, prepared):
        arts = prepared["arts"]
        piece = prepared["pieces"][0]
        res = to_distance("min_edit", piece, 0.0, arts, CFG)
        assert not res.failed and res.mode == "distance"
        assert np.array_equal(res.z_prime, piece.z)

    def test_distance_capped(self, prepared):
        arts = prepared["arts"]
        body, _ = nc.split_at_tap(arts.classifier)

        def displacement(z, x):
            feat = nc.forward(body, nc.forward(arts.generator, z).output).output
            return float(np.linalg.norm(feat - x))

        for piece in prepared["pieces"][:3]:
            # the trajectory starts at the inversion's own residual offset,
            # so a meaningful target lies beyond it
            d_star = displacement(piece.z, piece.x) + 0.5
            res = to_distance("min_edit", piece, d_star, arts, CFG)
            if res.failed:
                continue
            assert displacement(res.z_prime, piece.x) <= d_star
            assert classify(arts, res.z_prime) == piece.c

    def test_target_below_start_returns_start(self, prepared):
        arts = prepared["arts"]
        piece = prepared["pieces"][0]
        res = to_distance("min_edit", piece, 1e-9, arts, CFG)
        assert not res.failed and res.steps_taken == 0
        assert np.array_equal(res.z_prime, piece.z)

    def test_unreachable_distance_fails(self, prepared):
        arts = prepared["arts"]
        piece = prepared["pieces"][0]
        res = to_distance("min_edit", piece, 50.0, arts, bl.BaselineConfig(lr=0.0, max_steps=30))
        assert res.failed and res.steps_taken == 30
        assert res.failure_reason == "target distance 50 not reached within 30 steps"

    def test_negative_target_refused(self, prepared):
        arts = prepared["arts"]
        piece = prepared["pieces"][0]
        with pytest.raises(bl.BaselineError, match="nonnegative"):
            to_distance("min_edit", piece, -1.0, arts, CFG)


def serial_edit(method, z, x, c, c_prime, arts, cfg, mode, d_star=None):
    """Reference: one image's search with plain 2-d passes, as
    `(crossed_step, z_prime, image)`, None when the budget runs out,
    "failed" when the point before a semifactual or distance stop is not
    classified c, or the NumericsError it raises."""
    body, head = nc.split_at_tap(arts.classifier)
    y = nc.one_hot(c_prime, head.output_dim)
    lam = cfg.lam if method == "c_min_edit" else 1.0

    def objective(zv, active):
        tg = nc.forward(arts.generator, zv)
        tb = nc.forward(body, tg.outputs[-1])
        th = nc.forward(head, tb.outputs[-1])
        g_feat = nc.backward(head, th, lam * 2.0 * (th.outputs[-1] - y))
        if method == "c_min_edit":
            g_feat = g_feat + 2.0 * (tb.outputs[-1] - x)
        g_img = nc.backward(body, tb, g_feat)
        info = (th.outputs[-1][0], tb.outputs[-1][0], tg.outputs[-1][0])
        return nc.backward(arts.generator, tg, g_img), info

    prev = None
    try:
        for step, cur, (probs, feat, img) in nc.Descent(objective, z, cfg.lr, cfg.max_steps):
            pred = int(np.argmax(probs))
            if mode == "counterfactual" and pred == c_prime:
                return step, cur, img
            if mode == "semifactual":
                stop = pred != c
            else:
                stop = mode == "distance" and float(np.linalg.norm(feat - x)) >= d_star
            if stop:
                before = prev if step else (cur, img, pred)
                return (step, *before[:2]) if before[2] == c else "failed"
            prev = (cur, img, pred)
    except nc.NumericsError as exc:
        return exc
    return None


class TestStack:
    @pytest.mark.parametrize("mode", ["counterfactual", "semifactual", "distance"])
    @pytest.mark.parametrize("method", bl.METHODS)
    def test_stack_equals_each_image_alone(self, prepared, method, mode):
        arts = prepared["arts"]
        pieces = prepared["pieces"]
        z = np.stack([piece.z for piece in pieces])
        x = np.stack([piece.x for piece in pieces])
        c = [piece.c for piece in pieces]
        c_prime = [piece.c_prime for piece in pieces]
        body, _ = nc.split_at_tap(arts.classifier)
        start = nc.forward(body, nc.forward(arts.generator, z).output).output - x
        # targets beyond each start, so that the images stop at different
        # steps, some the step after leaving c or never; the last below its
        # start, so that it stops at once
        d_star = np.linalg.norm(start, axis=1) + [1.0, 0.6, 0.1, 0.3, 0.3, -0.5]
        z[3] = np.nan  # this image fails at its first pass, the others go on
        cfg = bl.BaselineConfig(lam=3.0, lr=0.02, max_steps=400)
        stacked = bl.run_baseline(
            method, z, x, c, c_prime, arts.classifier, arts.generator, cfg, mode, d_star
        )

        def alone(i):
            if mode == "distance":
                return to_distance(method, pieces[i], d_star[i], arts, cfg, z=z[i])
            if method == "min_edit":
                return bl.min_edit(z[i], c[i], c_prime[i], arts.classifier, arts.generator,
                                   cfg, mode)
            return bl.c_min_edit(z[i], x[i], c[i], c_prime[i], arts.classifier,
                                 arts.generator, cfg, mode)

        crossed = set()
        for i, res in enumerate(stacked):
            assert res.mode == mode
            assert bl_equal(res, alone(i))
            want = serial_edit(method, z[i], x[i], c[i], c_prime[i], arts, cfg, mode, d_star[i])
            if isinstance(want, nc.NumericsError):
                assert res.failed and res.steps_taken == 0
                assert res.failure_reason == str(want) == "non-finite values after layer 0 (dense)"
            elif want is None or want == "failed":
                assert res.failed and res.z_prime is None
            else:
                step, z_prime, image = want
                assert not res.failed and res.crossed_step == res.steps_taken == step
                assert np.array_equal(res.z_prime, z_prime)
                assert np.array_equal(res.image, image)
                crossed.add(step)
        # the images left the stack at different steps
        assert len(crossed) >= 2

    def test_overflow_mid_run_leaves_the_others_alone(self, prepared, monkeypatch):
        arts = prepared["arts"]
        pieces = prepared["pieces"]
        z = np.stack([piece.z for piece in pieces])
        c = [piece.c for piece in pieces]
        c_prime = [piece.c_prime for piece in pieces]
        cfg = bl.BaselineConfig(lr=0.02, max_steps=400)
        start = (arts.classifier, arts.generator, cfg, "semifactual")
        alone = [bl.min_edit(z[i], c[i], c_prime[i], *start) for i in range(len(pieces))]
        # image 2, ahead of image 4 in the stack, overflows in the very pass
        # where image 4 stops, so the stack shrinks as the stop fires
        stop = alone[4].crossed_step
        assert stop < alone[2].crossed_step
        real = bl._objective

        def overflowing(*args):
            objective, passes = real(*args), []

            def run(zs, active):
                passes.append(len(zs))
                if len(passes) == stop + 1:  # the pass of step `stop`
                    raise nc.NumericsError("overflow", images=np.flatnonzero(active == 2))
                return objective(zs, active)

            return run

        monkeypatch.setattr(bl, "_objective", overflowing)
        stacked = bl.run_baseline("min_edit", z, None, c, c_prime, *start)
        assert stacked[2].failed and stacked[2].steps_taken == stop
        assert stacked[2].failure_reason == "overflow"
        for i in (0, 1, 3, 4, 5):
            assert bl_equal(stacked[i], alone[i])

    def test_overflow_fails_the_run_not_the_caller(self, prepared):
        arts = prepared["arts"]
        piece = prepared["pieces"][0]
        z = np.full_like(piece.z, np.nan)
        res = bl.min_edit(z, piece.c, piece.c_prime, arts.classifier, arts.generator, CFG)
        assert res.failed and res.steps_taken == 0
        assert res.failure_reason == "non-finite values after layer 0 (dense)"
        res = to_distance("c_min_edit", piece, 1.0, arts, CCFG, z=z)
        assert res.failed and res.failure_reason == "non-finite values after layer 0 (dense)"


def bl_equal(a, b):
    """Two results with the same fields, arrays compared bit for bit."""
    return all(
        np.array_equal(u, v) if isinstance(u, np.ndarray) else u == v
        for u, v in zip(vars(a).values(), vars(b).values())
    )


class TestValidation:
    def test_unknown_method(self, prepared):
        arts = prepared["arts"]
        piece = prepared["pieces"][0]
        start = (piece.z, piece.x, piece.c, piece.c_prime)
        with pytest.raises(bl.BaselineError, match="extreme_edit"):
            bl.run_baseline("extreme_edit", *start, arts.classifier, arts.generator, CFG)
        with pytest.raises(bl.BaselineError, match="extreme_edit"):
            bl.run_baseline(
                "extreme_edit", *start, arts.classifier, arts.generator, CFG, "distance", [1.0]
            )

    def test_bad_lambda(self):
        with pytest.raises(bl.BaselineError):
            bl.BaselineConfig(lam=0.0)

    def test_every_field_but_the_sweep_is_read(self, prepared):
        # a run reads lr, max_steps and lam; experiment 1 reads lam_sweep
        arts = prepared["arts"]
        piece = prepared["pieces"][0]
        cfg, reads = watched(bl.BaselineConfig(lam=30.0, lr=0.02, max_steps=20))
        bl.run_baseline("c_min_edit", piece.z[None], piece.x[None], [piece.c],
                        [piece.c_prime], arts.classifier, arts.generator, cfg)
        assert reads == {f.name for f in dataclasses.fields(cfg)} - {"lam_sweep"}

    def test_bad_mode(self, prepared):
        arts = prepared["arts"]
        piece = prepared["pieces"][0]
        with pytest.raises(bl.BaselineError):
            bl.min_edit(piece.z, piece.c, piece.c_prime,
                        arts.classifier, arts.generator, CFG, mode="sideways")
