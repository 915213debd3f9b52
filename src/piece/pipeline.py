"""The explanation pipeline: locate the test image in the generator's latent
space, pick the counterfactual class, replace exceptional features with their
expected values, and render the modified features back into an image.

Counterfactual mode replaces every eligible exceptional feature. Semifactual
mode stops right before the replacement that would flip the predicted class.
Proportional mode (`proportional`) applies a prefix (25/50/75/100 percent)
of the replacement sequence of the delivered semifactual: its steps are
copied from the semifactual's recorded walk, probabilities included, with
no network pass.
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

    def __post_init__(self):
        # a negative budget would never end a descent
        for name, low in (("invert_restarts", 1), ("invert_steps", 0),
                          ("ascent_max_steps", 0), ("visualize_steps", 0)):
            if getattr(self, name) < low:
                raise PipelineError(f"{name} must be at least {low}, got {getattr(self, name)}")


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

    def __post_init__(self):
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
    c: int,
    true_label: int,
    settings: OptimSettings,
) -> SelectionResult:
    """Pick the counterfactual class for a test image predicted as class `c`.

    Misclassified image: the true label, directly. Correctly classified
    image: push a copy of the inverted latent code away from the predicted
    class (maximizing the distance of the softmax output from the one-hot
    prediction) and return the first different class the probe reaches. The
    probe latent is discarded; only the class is kept.
    """
    if c != true_label:
        return SelectionResult(true_label, True, 0)
    y_c = nc.one_hot(c, classifier.output_dim)

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
    #              would_flip | beyond_budget | backoff_visual_flip
    prob_c: float
    prob_c_prime: float


@dataclass
class ModificationResult:
    x_mod: np.ndarray
    steps: list
    applied_count: int
    eligible_count: int
    status: str  # ok | no_eligible_exceptional_features


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
    `proportional`.
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
    return ModificationResult(cur, steps, applied, eligible_count, status)


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


def _with_applied(x: np.ndarray, steps: list) -> np.ndarray:
    """`x` with the replacement of every applied step."""
    applied = [s for s in steps if s.applied]
    out = x.copy()
    out[[s.neuron for s in applied]] = [s.new for s in applied]
    return out


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
    inversion: InversionResult | InversionError | None = None,
) -> ExplanationResult:
    """Full pipeline for one request, from the classifier pass to the
    rendering. `inversion` is the image's inversion when the caller already
    has it, say from a stacked `invert_image`; an InversionError there, or
    from inverting the image here, is raised. A proportional request is
    `proportional` of its image's semifactual."""
    if request.mode == "proportional":
        sf_request = dataclasses.replace(request, mode="semifactual", fraction=None)
        sf = explain(sf_request, classifier, generator, stats, inversion)
        return proportional(sf, request.fraction, classifier, generator, stats, request.settings)
    image = np.asarray(request.image, dtype=np.float64)
    body, head = nc.split_at_tap(classifier)
    trace = nc.forward(classifier, image.ravel())
    probs_original, x = trace.output, trace.outputs[classifier.feature_tap][0]
    c = int(np.argmax(probs_original))
    if inversion is None:
        (inversion,) = invert_image(generator, body, image[None], request.settings, [request.seed])
    if isinstance(inversion, InversionError):
        raise inversion
    if request.target_class is not None:
        selection = SelectionResult(int(request.target_class), True, 0)
    else:
        selection = select_cf_class(
            classifier, generator, inversion.z, c, request.true_label, request.settings
        )
    c_prime = selection.c_prime
    features, skipped = classify_exceptional(x, stats.models[c_prime], request.alpha)
    intended = c_prime if request.mode == "counterfactual" else c
    w = nc.class_weight_vector(classifier, c_prime)
    mod = modify_features(x, features, w, head, c, c_prime, request.mode)

    def render(x_mod: np.ndarray) -> tuple[VisualizationResult, np.ndarray, int]:
        """The rendering of `x_mod`, its class probabilities and its class."""
        vis = visualize(generator, body, x_mod, inversion.z, request.settings, image.shape)
        probs = nc.forward(classifier, vis.image.ravel()).output
        return vis, probs, int(np.argmax(probs))

    vis, probs_prime, pred_prime = render(mod.x_mod)
    backoff = 0
    applied_seq = [s for s in mod.steps if s.applied]
    # a semifactual's rendered image may land past the boundary even though
    # its feature vector does not; retreat one replacement at a time
    while request.mode == "semifactual" and pred_prime != intended and applied_seq:
        dropped = applied_seq.pop()
        dropped.applied, dropped.reason = False, "backoff_visual_flip"
        mod = dataclasses.replace(
            mod, x_mod=_with_applied(x, mod.steps), applied_count=len(applied_seq)
        )
        vis, probs_prime, pred_prime = render(mod.x_mod)
        backoff += 1

    violations = _recheck_violations(mod.x_mod, mod.steps, stats, c_prime, request.alpha)
    ks_list = []
    for feat in features:
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
        trivially_selected=selection.trivial,
        alpha=request.alpha,
        z=inversion.z,
        x=x,
        exceptional=features,
        skipped_degenerate=skipped,
        mod_steps=mod.steps,
        x_mod=mod.x_mod,
        z_prime=vis.z,
        image_prime=vis.image,
        probs_original=probs_original,
        probs_prime=probs_prime,
        applied_count=mod.applied_count,
        eligible_count=mod.eligible_count,
        k_reference=mod.applied_count,
        status=mod.status,
        intended_class=intended,
        verified=pred_prime == intended,
        inversion_losses={
            "combined": inversion.combined_loss,
            "feature": inversion.feature_loss,
            "pixel": inversion.pixel_loss,
        },
        residuals={"before": vis.residual_before, "after": vis.residual_after},
        backoff_steps=backoff,
        recheck_violations=violations,
        exceptional_ks_p=ks_list,
    )


def proportional(
    sf: ExplanationResult,
    fraction: float,
    classifier: nc.Network,
    generator: nc.Network,
    stats: StatsTable,
    settings: OptimSettings,
) -> ExplanationResult:
    """The proportional explanation of the delivered semifactual `sf` (the
    one whose rendering still classifies as `c`) at `fraction`: a prefix of
    its replacement sequence, so fraction 1.0 reproduces it exactly.

    The steps are copied from the recorded walk: an applied step's
    probabilities are those of `x` with the steps up to it applied, whichever
    walk recorded them. The prefix is rendered from the inversion latent,
    unless its target is `sf`'s own, whose rendering it then reuses.
    """
    if sf.mode != "semifactual" or fraction not in FRACTIONS:
        raise PipelineError(f"proportional needs a semifactual and a fraction in {FRACTIONS}")
    seq = [s for s in sf.mod_steps if s.applied]
    budget = math.ceil(fraction * len(seq))
    steps = [dataclasses.replace(s) for s in seq[:budget]]
    steps += [  # a fraction above 0 applies at least one step of any walk
        dataclasses.replace(
            s, applied=False, reason="beyond_budget",
            prob_c=steps[-1].prob_c, prob_c_prime=steps[-1].prob_c_prime,
        )
        for s in seq[budget:]
    ]
    x_mod = _with_applied(sf.x, steps)
    rendering = {}
    if x_mod.tobytes() != sf.x_mod.tobytes():
        # the same target from the same start would render `sf` again
        body, _ = nc.split_at_tap(classifier)
        vis = visualize(generator, body, x_mod, sf.z, settings, sf.image_prime.shape)
        probs = nc.forward(classifier, vis.image.ravel()).output
        rendering = dict(
            z_prime=vis.z, image_prime=vis.image, probs_prime=probs,
            verified=int(np.argmax(probs)) == sf.intended_class,
            residuals={"before": vis.residual_before, "after": vis.residual_after},
        )
    return dataclasses.replace(
        sf, mode="proportional", fraction=fraction, mod_steps=steps, x_mod=x_mod,
        applied_count=budget, backoff_steps=0,
        recheck_violations=_recheck_violations(x_mod, steps, stats, sf.c_prime, sf.alpha),
        **rendering,
    )
