"""The explanation pipeline: locate the test image in the generator's latent
space, pick the counterfactual class, replace exceptional features with their
expected values, and render the modified features back into an image.

Counterfactual mode replaces every eligible exceptional feature. Semifactual
mode stops right before the replacement that would flip the predicted class.
Proportional mode applies a prefix (25/50/75/100 percent) of the replacement
sequence the semifactual run would apply.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import netcore as nc
from .hurdle import ExceptionalFeature, Rule, StatsTable, classify_exceptional

MODES = ("counterfactual", "semifactual", "proportional")
FRACTIONS = (0.25, 0.5, 0.75, 1.0)


class PipelineError(Exception):
    pass


class InversionError(PipelineError):
    pass


class SelectionError(PipelineError):
    pass


class VisualizationError(PipelineError):
    pass


@dataclass(frozen=True)
class OptimSettings:
    invert_restarts: int = 8
    invert_steps: int = 800
    invert_lr: float = 0.05
    ascent_lr: float = 0.02
    ascent_max_steps: int = 2000
    visualize_steps: int = 400
    visualize_lr: float = 0.05


@dataclass(frozen=True)
class ExplanationRequest:
    image: np.ndarray  # (H, W)
    true_label: int
    mode: str  # counterfactual | semifactual | proportional
    fraction: Optional[float] = None  # proportional only
    alpha: float = 0.05
    settings: OptimSettings = OptimSettings()
    seed: int = 0
    image_id: int = -1
    target_class: Optional[int] = None  # override, bypasses selection

    def validate(self) -> None:
        if self.mode not in MODES:
            raise PipelineError(f"unknown mode {self.mode!r}")
        if self.mode == "proportional":
            if self.fraction not in FRACTIONS:
                raise PipelineError(
                    f"proportional fraction must be one of {FRACTIONS}, "
                    f"got {self.fraction}"
                )
        elif self.fraction is not None:
            raise PipelineError(f"a fraction applies only to proportional mode, not {self.mode}")
        if not (0.0 < self.alpha < 0.5):
            raise PipelineError(f"alpha must be in (0, 0.5), got {self.alpha}")


# ---------------------------------------------------------------------------
# Latent inversion


@dataclass
class InversionResult:
    z: np.ndarray
    combined_loss: float
    feature_loss: float
    pixel_loss: float
    restart_losses: list
    restart_index: int


def invert_image(
    generator: nc.Network,
    feature_net: nc.Network,
    images: np.ndarray,
    settings: OptimSettings,
    seeds,
) -> list:
    """Gradient-descend latent codes so the generated image matches the
    target both in pixels and in feature space; best of several restarts.

    Restarts are drawn from the standard normal and optimized as one batch
    (their losses are row-independent). A restart whose values turn
    non-finite is effectively abandoned: its loss becomes infinite and it
    can never be selected.

    `images` is a stack (n, H, W) with one seed per image, inverted as one
    descent, each image exactly as it would be alone. Returns a list
    holding each image's InversionResult, or an InversionError when every
    restart of that image diverged.
    """
    flat = np.asarray(images, dtype=np.float64).reshape(len(images), 1, -1)  # a row per image
    target_feats = nc.forward(feature_net, flat).output
    shape = (settings.invert_restarts, generator.input_dim)

    def objective(zv: np.ndarray) -> tuple[np.ndarray, tuple]:
        tg = nc.forward(generator, zv, check_finite=False)
        imgs = tg.outputs[-1]
        tc = nc.forward(feature_net, imgs, check_finite=False)
        feats = tc.outputs[-1]
        g_feat = 2.0 * (feats - target_feats)
        g_img = nc.backward(feature_net, tc, g_feat)
        g_img = g_img + 2.0 * (imgs - flat)
        return nc.backward(generator, tg, g_img), (feats, imgs)

    z0 = np.stack([np.random.default_rng(int(s)).standard_normal(shape) for s in seeds])
    for _, z, (feats, imgs) in nc.Descent(
        objective, z0, settings.invert_lr, settings.invert_steps
    ):
        pass  # no early stop: every restart runs the full budget
    f_loss = np.sum((feats - target_feats) ** 2, axis=-1)
    p_loss = np.sum((imgs - flat) ** 2, axis=-1)
    combined = f_loss + p_loss
    combined = np.where(np.isfinite(combined), combined, np.inf)
    results = []
    for zi, ci, fi, pi in zip(z, combined, f_loss, p_loss):
        if not np.any(np.isfinite(ci)):
            results.append(InversionError("all inversion restarts diverged to non-finite values"))
            continue
        best = int(np.argmin(ci))
        results.append(InversionResult(
            zi[best].copy(), float(ci[best]), float(fi[best]), float(pi[best]),
            [float(v) for v in ci], best,
        ))
    return results


# ---------------------------------------------------------------------------
# Counterfactual class selection


@dataclass
class SelectionResult:
    c_prime: int
    trivial: bool  # misclassification: true label taken directly
    steps: int


def select_cf_class(
    classifier: nc.Network,
    generator: nc.Network,
    z: np.ndarray,
    image: np.ndarray,
    true_label: int,
    settings: OptimSettings,
) -> SelectionResult:
    """Pick the counterfactual class for a test image.

    Misclassified image: the true label, directly. Correctly classified
    image: push a copy of the inverted latent code away from the predicted
    class (maximizing the distance of the softmax output from the one-hot
    prediction) and return the first different class the probe reaches. The
    probe latent is discarded; only the class is kept.
    """
    flat = np.asarray(image, dtype=np.float64).ravel()
    probs = nc.forward(classifier, flat).output
    c = int(np.argmax(probs))
    if c != true_label:
        return SelectionResult(true_label, True, 0)
    y_c = nc.one_hot(c, len(probs))

    def objective(zv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        tg = nc.forward(generator, zv)
        tc = nc.forward(classifier, tg.outputs[-1])
        out = tc.outputs[-1]
        _, g_out = nc.loss("l2_sq", out, y_c[None, :])
        g_img = nc.backward(classifier, tc, g_out)
        # ascend: hand the negated gradient to the descent
        return -nc.backward(generator, tg, g_img), out[0]

    for step, _, probe_probs in nc.Descent(
        objective, z, settings.ascent_lr, settings.ascent_max_steps
    ):
        if step == 0:
            continue  # the start point is not probed
        top = int(np.argmax(probe_probs))
        if top != c:
            return SelectionResult(top, False, step)
    raise SelectionError(
        f"no decision boundary crossed within {settings.ascent_max_steps} steps; "
        f"final probabilities {np.round(probe_probs, 4).tolist()}"
    )


# ---------------------------------------------------------------------------
# Feature modification


@dataclass
class ModStep:
    neuron: int
    rule: str
    probability: float
    old: float
    new: float
    applied: bool
    reason: str  # applied | wrong_branch | zero_weight | already_replaced |
    #              would_flip | beyond_budget
    prob_c: float
    prob_c_prime: float


@dataclass
class ModificationResult:
    x_mod: np.ndarray
    steps: list
    applied_count: int
    eligible_count: int
    status: str  # ok | no_eligible_exceptional_features
    k_reference: int  # length of the full semifactual sequence (proportional)


def _eligible(rule: Rule, weight: float) -> bool:
    if weight > 0.0:
        return rule in (Rule.ABSENT, Rule.UNEXPECTED, Rule.LOW_TAIL)
    if weight < 0.0:
        return rule in (Rule.UNEXPECTED, Rule.HIGH_TAIL)
    return False


def modify_features(
    x: np.ndarray,
    features: list,
    w: np.ndarray,
    head: nc.Network,
    c: int,
    c_prime: int,
    mode: str,
) -> ModificationResult:
    """Walk the exceptional features (lowest probability first) and replace
    each eligible one with its expected value for the counterfactual class.

    A feature is eligible when the sign of its connection weight to the
    counterfactual class logit matches its rule: positive weight with a
    feature that is absent, unexpectedly firing, or in the low tail;
    negative weight with one unexpectedly firing or in the high tail. Zero
    weight never qualifies. A neuron already replaced is not replaced again.

    Counterfactual mode applies everything eligible. Semifactual mode checks
    the head after each tentative replacement and stops, without applying,
    at the first one that would change the predicted class away from `c`.
    Proportional results are prefixes of the delivered semifactual; see
    `explain`.
    """
    if any(
        features[i].probability > features[i + 1].probability
        for i in range(len(features) - 1)
    ):
        raise PipelineError("exceptional features must be sorted by probability")
    if mode not in ("counterfactual", "semifactual"):
        raise PipelineError(f"feature walk has no mode {mode!r}")
    cur = np.asarray(x, dtype=np.float64).copy()
    steps: list = []
    replaced: set = set()
    eligible_count = 0
    applied = 0
    probs = nc.forward(head, cur).output

    def record(feat: ExceptionalFeature, ok: bool, reason: str, p) -> None:
        steps.append(
            ModStep(
                feat.neuron,
                feat.rule.value,
                feat.probability,
                feat.observed,
                feat.replacement,
                ok,
                reason,
                float(p[c]),
                float(p[c_prime]),
            )
        )

    for feat in features:
        weight = float(w[feat.neuron])
        if weight == 0.0:
            record(feat, False, "zero_weight", probs)
            continue
        if not _eligible(feat.rule, weight):
            record(feat, False, "wrong_branch", probs)
            continue
        if feat.neuron in replaced:
            record(feat, False, "already_replaced", probs)
            continue
        eligible_count += 1
        tentative = cur.copy()
        tentative[feat.neuron] = feat.replacement
        new_probs = nc.forward(head, tentative).output
        if mode == "semifactual" and int(np.argmax(new_probs)) != c:
            record(feat, False, "would_flip", probs)
            break
        cur = tentative
        probs = new_probs
        replaced.add(feat.neuron)
        applied += 1
        record(feat, True, "applied", probs)

    status = "ok" if eligible_count else "no_eligible_exceptional_features"
    return ModificationResult(cur, steps, applied, eligible_count, status, applied)


# ---------------------------------------------------------------------------
# Visualization


@dataclass
class VisualizationResult:
    z: np.ndarray
    image: np.ndarray  # (H, W)
    residual_before: float
    residual_after: float


def visualize(
    generator: nc.Network,
    feature_net: nc.Network,
    x_target: np.ndarray,
    z_init: np.ndarray,
    settings: OptimSettings,
    image_shape: tuple,
) -> VisualizationResult:
    """Descend from the inversion latent until the generated image's features
    match the modified feature vector; returns the best latent seen."""
    x_target = np.asarray(x_target, dtype=np.float64)

    def objective(zv: np.ndarray) -> tuple[np.ndarray, float]:
        if not np.all(np.isfinite(zv)):
            raise VisualizationError("visualization latent diverged to non-finite")
        tg = nc.forward(generator, zv, check_finite=False)
        tc = nc.forward(feature_net, tg.outputs[-1], check_finite=False)
        feats = tc.outputs[-1]
        g_feat = 2.0 * (feats - x_target)
        g_img = nc.backward(feature_net, tc, g_feat)
        g_z = nc.backward(generator, tg, g_img)
        return g_z, float(np.sum((feats - x_target) ** 2))

    for step, z, loss in nc.Descent(
        objective, z_init, settings.visualize_lr, settings.visualize_steps
    ):
        if step == 0:
            before = loss
        if step == 0 or loss < best_loss:
            best_z, best_loss = z, loss
    image = nc.forward(generator, best_z).output.reshape(image_shape)
    return VisualizationResult(best_z, image, before, best_loss)


# ---------------------------------------------------------------------------
# Orchestration


@dataclass
class ExplanationContext:
    """Mode-independent work for one test image, reusable across modes."""

    c: int
    inversion: InversionResult
    selection: SelectionResult
    x: np.ndarray
    features: list
    skipped_degenerate: int
    probs_original: np.ndarray


def prepare_context(
    request: ExplanationRequest,
    classifier: nc.Network,
    generator: nc.Network,
    stats: StatsTable,
    inversion: InversionResult | InversionError | None = None,
) -> ExplanationContext:
    """The context of one request. `inversion` is the image's inversion
    when the caller already has it, say from a stacked `invert_image`; an
    InversionError there, or from inverting the image here, is raised."""
    request.validate()
    flat = np.asarray(request.image, dtype=np.float64).ravel()
    probs = nc.forward(classifier, flat).output
    c = int(np.argmax(probs))
    body, _ = nc.split_at_tap(classifier)
    if inversion is None:
        (inversion,) = invert_image(
            generator, body, np.asarray(request.image)[None], request.settings, [request.seed]
        )
    if isinstance(inversion, InversionError):
        raise inversion
    if request.target_class is not None:
        selection = SelectionResult(int(request.target_class), True, 0)
    else:
        selection = select_cf_class(
            classifier, generator, inversion.z, request.image, request.true_label,
            request.settings,
        )
    x = nc.forward(body, flat).output
    features, skipped = classify_exceptional(
        x, stats.models[selection.c_prime], request.alpha
    )
    return ExplanationContext(c, inversion, selection, x, features, skipped, probs)


@dataclass
class ExplanationResult:
    mode: str
    fraction: Optional[float]
    image_id: int
    true_label: int
    c: int
    c_prime: int
    trivially_selected: bool
    alpha: float
    z: np.ndarray
    x: np.ndarray
    exceptional: list
    skipped_degenerate: int
    mod_steps: list
    x_mod: np.ndarray
    z_prime: np.ndarray
    image_prime: np.ndarray
    probs_original: np.ndarray
    probs_prime: np.ndarray
    applied_count: int
    eligible_count: int
    k_reference: int
    status: str
    intended_class: int
    verified: bool
    inversion_losses: dict
    residuals: dict
    backoff_steps: int
    recheck_violations: int
    exceptional_ks_p: list  # ks p-values of the flagged features' models


def _proportional_from_reference(
    ctx: ExplanationContext,
    reference: "ExplanationResult",
    fraction: float,
    head: nc.Network,
    c: int,
    c_prime: int,
) -> ModificationResult:
    """Prefix of the delivered semifactual's replacement sequence."""
    seq = [s for s in reference.mod_steps if s.applied]
    k = len(seq)
    budget = math.ceil(fraction * k)
    cur = ctx.x.copy()
    steps: list = []
    applied = 0
    probs = nc.forward(head, cur).output
    for s in seq:
        ok = applied < budget
        if ok:
            cur[s.neuron] = s.new
            probs = nc.forward(head, cur).output
            applied += 1
        steps.append(dataclasses.replace(
            s, applied=ok, reason="applied" if ok else "beyond_budget",
            prob_c=float(probs[c]), prob_c_prime=float(probs[c_prime]),
        ))
    return ModificationResult(cur, steps, applied, reference.eligible_count, reference.status, k)


def _recheck_violations(
    x_mod: np.ndarray, applied: list, stats: StatsTable, c_prime: int, alpha: float
) -> int:
    """Count replaced features that still trigger their original rule.

    The unexpected-activation rule is excluded: any positive replacement
    keeps the neuron active, so it re-triggers by definition.
    """
    redone, _ = classify_exceptional(x_mod, stats.models[c_prime], alpha)
    applied_rules = {
        (s.neuron, s.rule) for s in applied if s.applied and s.rule != Rule.UNEXPECTED.value
    }
    return sum(1 for f in redone if (f.neuron, f.rule.value) in applied_rules)


def explain(
    request: ExplanationRequest,
    classifier: nc.Network,
    generator: nc.Network,
    stats: StatsTable,
    context: Optional[ExplanationContext] = None,
    reference: Optional["ExplanationResult"] = None,
) -> ExplanationResult:
    """Full pipeline for one request.

    `context` lets callers reuse the inversion and class selection when
    explaining one image several ways. Proportional requests measure their
    budget against the delivered max-edit semifactual (the one whose
    rendered image still classifies as `c`), so fraction 1.0 reproduces it
    exactly; pass that semifactual as `reference` to avoid recomputing it.
    """
    request.validate()
    ctx = context or prepare_context(request, classifier, generator, stats)
    body, head = nc.split_at_tap(classifier)
    c, c_prime = ctx.c, ctx.selection.c_prime
    w = nc.class_weight_vector(classifier, c_prime)
    shape = np.asarray(request.image).shape

    if request.mode == "proportional":
        if reference is None:
            sf_request = dataclasses.replace(request, mode="semifactual", fraction=None)
            reference = explain(sf_request, classifier, generator, stats, context=ctx)
        elif reference.mode != "semifactual" or reference.image_id != request.image_id:
            raise PipelineError("reference must be a semifactual result for this image")
        mod = _proportional_from_reference(
            ctx, reference, request.fraction, head, c, c_prime
        )
    else:
        mod = modify_features(ctx.x, ctx.features, w, head, c, c_prime, request.mode)

    if request.mode == "proportional" and mod.x_mod.tobytes() == reference.x_mod.tobytes():
        # same target from the same start: visualize would render the
        # reference again (always so at fraction 1.0)
        vis = VisualizationResult(
            reference.z_prime, reference.image_prime,
            reference.residuals["before"], reference.residuals["after"],
        )
    else:
        vis = visualize(
            generator, body, mod.x_mod, ctx.inversion.z, request.settings, shape
        )
    probs_prime = nc.forward(classifier, vis.image.ravel()).output
    pred_prime = int(np.argmax(probs_prime))
    intended = c_prime if request.mode == "counterfactual" else c

    backoff = 0
    if request.mode == "semifactual" and pred_prime != intended:
        # the rendered image may land past the boundary even though the
        # feature vector does not; retreat one replacement at a time
        applied_seq = [s for s in mod.steps if s.applied]
        while pred_prime != intended and applied_seq:
            dropped = applied_seq.pop()
            dropped.applied = False
            dropped.reason = "backoff_visual_flip"
            x_mod = ctx.x.copy()
            for s in applied_seq:
                x_mod[s.neuron] = s.new
            vis = visualize(
                generator, body, x_mod, ctx.inversion.z, request.settings, shape
            )
            probs_prime = nc.forward(classifier, vis.image.ravel()).output
            pred_prime = int(np.argmax(probs_prime))
            backoff += 1
            mod = dataclasses.replace(
                mod, x_mod=x_mod, applied_count=len(applied_seq), k_reference=len(applied_seq)
            )

    violations = _recheck_violations(mod.x_mod, mod.steps, stats, c_prime, request.alpha)
    ks_list = []
    for feat in ctx.features:
        model = stats.models[c_prime][feat.neuron]
        if not model.degenerate:
            ks_list.append(model.dist.ks_p)

    return ExplanationResult(
        mode=request.mode,
        fraction=request.fraction,
        image_id=request.image_id,
        true_label=request.true_label,
        c=c,
        c_prime=c_prime,
        trivially_selected=ctx.selection.trivial,
        alpha=request.alpha,
        z=ctx.inversion.z,
        x=ctx.x,
        exceptional=ctx.features,
        skipped_degenerate=ctx.skipped_degenerate,
        mod_steps=mod.steps,
        x_mod=mod.x_mod,
        z_prime=vis.z,
        image_prime=vis.image,
        probs_original=ctx.probs_original,
        probs_prime=probs_prime,
        applied_count=mod.applied_count,
        eligible_count=mod.eligible_count,
        k_reference=mod.k_reference,
        status=mod.status,
        intended_class=intended,
        verified=pred_prime == intended,
        inversion_losses={
            "combined": ctx.inversion.combined_loss,
            "feature": ctx.inversion.feature_loss,
            "pixel": ctx.inversion.pixel_loss,
        },
        residuals={"before": vis.residual_before, "after": vis.residual_after},
        backoff_steps=backoff,
        recheck_violations=violations,
        exceptional_ks_p=ks_list,
    )

