"""The explanation pipeline: locate the test image in the generator's latent
space, pick the counterfactual class, replace exceptional features with their
expected values, and render the modified features back into an image.

Counterfactual mode replaces every eligible exceptional feature. Semifactual
mode stops right before the replacement that would flip the predicted class.
These are the only request modes: a proportional explanation is a prefix
(25/50/75/100 percent) of a delivered semifactual's replacement sequence,
cut by `proportional_stack`, its steps copied from the semifactual's
recorded walk, probabilities included, with no network pass.

Every explanation starts from its image's inversion, the latent code
whose rendering best reproduces the image (`invert_image`), which the
request holds (`ExplanationRequest.inversion`). A run inverts each image
once, with one seed, and keeps the result (`experiments.inversions`);
`save_inversion` and `load_inversion` keep one on disk, bit for bit,
under the key it was made with. `store_explanation` and
`stored_explanation` keep a delivered explanation the same way, for
`piece explain` to serve a request it has already explained.

`explain_stack` explains many requests at once, in phases: each latent
search (class selection, rendering) runs as one lockstep `nc.Descent`
over all the images, whose objective indexes each image's constants by
the rows it is handed, so each image runs exactly as it would alone, and
an image that fails, fails alone. `invert_image` stacks its images the
same way, as two halves on two threads. `explain` and `select_cf_class`
are the stacks of one; `invert_image`, `visualize` and
`proportional_stack` take stacks only. Every stage takes the
`OptimSettings` as an argument.
"""

from __future__ import annotations

import dataclasses
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import netcore as nc
from .hurdle import ExceptionalFeature, Rule, StatsTable, classify_exceptional

FRACTIONS = (0.25, 0.5, 0.75, 1.0)


class PipelineError(Exception):
    pass


class InversionError(PipelineError):
    pass


class SelectionError(PipelineError):
    pass


class VisualizationError(PipelineError):
    pass


class TargetClassError(PipelineError):
    """An explanation asked to move toward the class the image is predicted
    as."""


def _one(results: list):
    """The one result of a stack of one; its error is raised."""
    (res,) = results
    if isinstance(res, Exception):
        raise res
    return res


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
        # a negative budget would never end a descent; a negative rate climbs its loss
        for name, low in (("invert_restarts", 1), ("invert_steps", 0), ("ascent_max_steps", 0),
                          ("visualize_steps", 0), ("invert_lr", 0), ("ascent_lr", 0),
                          ("visualize_lr", 0)):
            if getattr(self, name) < low:
                raise PipelineError(f"{name} must be at least {low}, got {getattr(self, name)}")


@dataclass(frozen=True)
class ExplanationRequest:
    image: np.ndarray  # (H, W)
    true_label: int
    mode: str  # counterfactual | semifactual
    alpha: float = 0.05
    image_id: int = -1
    target_class: Optional[int] = None  # override, bypasses selection
    inversion: Optional[InversionResult] = None  # the image's; `explain_stack` needs it

    def __post_init__(self):
        if self.mode not in ("counterfactual", "semifactual"):
            raise PipelineError(f"unknown mode {self.mode!r}")
        if not (0.0 < self.alpha < 0.5):
            raise PipelineError(f"alpha must be in (0, 0.5), got {self.alpha}")

    def check_target_class(self, c: int, explanation: Optional[str] = None) -> None:
        """Refuse a target class equal to `c`, the image's predicted class,
        naming the `explanation` asked for (by default the request's mode)."""
        if self.target_class == c:
            raise TargetClassError(
                f"target class {self.target_class} is the predicted class of image "
                f"{self.image_id}; a {explanation or self.mode} needs another class"
            )


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

    `images` is a stack (n, H, W) with one seed per image (another count
    raises PipelineError), each image inverted exactly as it would be
    alone. Returns a list holding each image's InversionResult, or an
    InversionError when every restart of that image diverged.

    The inversion is bound by arithmetic, which numpy runs without holding
    the interpreter lock. So when this process may use two CPUs
    (`nc.worker_count`), a stack of two or more images is cut into two
    contiguous halves, each its own descent: the calling thread inverts the
    first while one worker thread inverts the second, and the results are
    joined in stack order. An error of either half is the whole stack's.
    The worker has ended when this returns or raises.
    """
    images = np.asarray(images, dtype=np.float64)
    seeds = list(seeds)
    if len(seeds) != len(images):
        raise PipelineError(
            f"inversion needs one seed per image: {len(images)} images and {len(seeds)} seeds"
        )
    if len(images) < 2 or nc.worker_count() < 2:
        return _invert_stack(generator, feature_net, images, settings, seeds)
    half = (len(images) + 1) // 2
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="invert") as pool:
        second = pool.submit(
            _invert_stack, generator, feature_net, images[half:], settings, seeds[half:]
        )
        first = _invert_stack(generator, feature_net, images[:half], settings, seeds[:half])
    return first + second.result()


def _invert_stack(generator, feature_net, images, settings, seeds) -> list:
    """`invert_image` of a stack as one descent, on this thread."""
    flat = images.reshape(len(images), 1, -1)  # a row per image
    target_feats = nc.forward(feature_net, flat).output
    shape = (settings.invert_restarts, generator.input_dim)
    targets_at = nc.gathered(target_feats, flat)

    def objective(zv: np.ndarray, active: np.ndarray) -> tuple[np.ndarray, tuple]:
        target, image = targets_at(active)
        tg = nc.forward(generator, zv, check_finite=False)
        imgs = tg.outputs[-1]
        tc = nc.forward(feature_net, imgs, check_finite=False)
        feats = tc.outputs[-1]
        g_feat = 2.0 * (feats - target)
        g_img = nc.backward(feature_net, tc, g_feat)
        g_img = g_img + 2.0 * (imgs - image)
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


INVERSION_MAGIC = "piece-inversion"


class InversionFormatError(Exception):
    """A stored inversion that does not parse, lacks a key or fails its
    checksum."""


def _index(n: int) -> tuple:
    """A rule: an index into n items."""
    return (lambda v: type(v) is int and 0 <= v < n), f"in 0..{n - 1}"


# a stored inversion: its latent, its three losses and each restart's loss
_INVERSIONS = nc.KeyedFormat(
    INVERSION_MAGIC, InversionFormatError,
    fields={"latent_dim": nc.COUNT, "restarts": nc.COUNT,
            "restart_index": lambda doc: _index(doc["restarts"])},
    shapes=lambda doc: {"z": (doc["latent_dim"],), "losses": (3,),
                        "restart_losses": (doc["restarts"],)},
    signed=lambda doc: (str(doc["restart_index"]),),
)


def save_inversion(inv: InversionResult, key: dict, path) -> None:
    """Write `inv` with the `key` it was made under. Its arrays round-trip
    bit for bit, an infinite restart loss included, and the document
    carries the sha256 of their bytes and of the restart index."""
    fields = {"latent_dim": len(inv.z), "restarts": len(inv.restart_losses),
              "restart_index": inv.restart_index}
    arrays = {"z": inv.z, "losses": [inv.combined_loss, inv.feature_loss, inv.pixel_loss],
              "restart_losses": inv.restart_losses}
    _INVERSIONS.save(path, key, fields, arrays)


def load_inversion(path, key: dict, latent_dim: int) -> Optional[InversionResult]:
    """The inversion stored at `path` (`save_inversion`) when it was made
    under `key`, None when under another key. A document that does not
    verify (`nc.KeyedFormat.load`), its latent not of the generator's
    `latent_dim` included, raises InversionFormatError."""
    loaded = _INVERSIONS.load(path, key, {"latent_dim": latent_dim})
    if loaded is None:
        return None
    doc, arrays = loaded
    combined, feature, pixel = (float(v) for v in arrays["losses"])
    return InversionResult(
        arrays["z"], combined, feature, pixel,
        [float(v) for v in arrays["restart_losses"]], doc["restart_index"],
    )


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
    probe latent is discarded; only the class is kept. This is
    `select_cf_class_stack` on a stack of one, raising its error.
    """
    return _one(select_cf_class_stack(
        classifier, generator, np.asarray(z)[None], [c], [true_label], settings
    ))


def select_cf_class_stack(
    classifier: nc.Network,
    generator: nc.Network,
    z: np.ndarray,
    c,
    true_label,
    settings: OptimSettings,
) -> list:
    """`select_cf_class` of each image of a stack: `z` (n, d) holds each
    image's inversion latent, `c` and `true_label` its predicted and true
    classes. The probes of the correctly classified images ascend as one
    lockstep descent (`nc.Descent`), each image exactly as alone, and each
    leaves it at its own first crossing. Returns each image's
    SelectionResult, or the SelectionError or NumericsError that it raises
    alone."""
    c, true_label = np.asarray(c, dtype=int), np.asarray(true_label, dtype=int)
    results: list = [
        SelectionResult(int(t), True, 0) if k != t else None for k, t in zip(c, true_label)
    ]
    probe = np.flatnonzero(c == true_label)
    last = np.empty((len(c), classifier.output_dim))  # each probe's final probabilities
    if len(probe):
        y = np.stack([nc.one_hot(int(k), classifier.output_dim) for k in c[probe]])[:, None, :]
        y_at = nc.gathered(y)
        probe_at = nc.gathered(probe, c[probe])

        def objective(zv: np.ndarray, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            (target,) = y_at(active)
            tg = nc.forward(generator, zv)
            tc = nc.forward(classifier, tg.outputs[-1])
            out = tc.outputs[-1]
            g_img = nc.backward(classifier, tc, 2.0 * (out - target))
            # ascend: hand the negated gradient to the descent
            return -nc.backward(generator, tg, g_img), out[:, 0]

        run = nc.Descent(
            objective, np.asarray(z, dtype=np.float64)[probe][:, None, :],
            settings.ascent_lr, settings.ascent_max_steps,
        )
        final = None  # the images of the last point reached, and their probabilities
        for step, _, probs in run:
            rows, c_rows = probe_at(run.active)
            final = rows, probs
            if not step:  # the start point is not probed
                continue
            top = probs.argmax(axis=-1)
            done = top != c_rows
            for i, k in zip(rows[done], top[done]):
                results[i] = SelectionResult(int(k), False, step)
            run.retire(done)
        if final is not None:  # a probe that never crossed ran to the last point
            last[final[0]] = final[1]
        for i, (_, exc) in run.errors.items():
            results[probe[i]] = exc
    return [
        res or SelectionError(
            f"no decision boundary crossed within {settings.ascent_max_steps} steps; "
            f"final probabilities {np.round(last[i], 4).tolist()}"
        )
        for i, res in enumerate(results)
    ]


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


_DIVERGED = "visualization latent diverged to non-finite"


@dataclass
class VisualizationResult:
    z: np.ndarray
    image: np.ndarray  # (H, W)
    residual_before: float
    residual_after: float
    probs: np.ndarray  # the classifier's probabilities for `image`


def visualize(
    classifier: nc.Network,
    generator: nc.Network,
    x_target: np.ndarray,
    z_init: np.ndarray,
    settings: OptimSettings,
    image_shape: tuple,
) -> list:
    """Descend from each start latent until the generated image's features
    (the classifier's body) match its target feature vector; each image
    keeps the best latent seen, whose rendering the classifier then
    classifies.

    `x_target` (n, k) and `z_init` (n, d) hold a stack of n images, which
    descend as one lockstep `nc.Descent`, each exactly as alone: its loss is
    summed on its own row. Returns each image's VisualizationResult, or the
    error it raises alone: a VisualizationError when its latent diverges,
    a NumericsError when its rendering or its classification overflows.
    """
    body, _ = nc.split_at_tap(classifier)
    # the generator and then the classifier's body as one network: each
    # step's pass and backward pass run the same layer operations, in the
    # same order, as a pass through each in turn
    features = nc.Network(generator.layers + body.layers, role="generator")
    targets = np.asarray(x_target, dtype=np.float64)[:, None, :]
    targets_at = nc.gathered(targets)

    def objective(zv: np.ndarray, active: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if not np.isfinite(zv).all():  # one test of the stack, then one per image
            raise nc.NumericsError(_DIVERGED, np.flatnonzero(~np.isfinite(zv).all(axis=(1, 2))))
        (target,) = targets_at(active)
        trace = nc.forward(features, zv, check_finite=False)
        diff = trace.outputs[-1] - target
        return nc.backward(features, trace, 2.0 * diff), (diff ** 2).sum(axis=(1, 2))

    run = nc.Descent(
        objective, np.asarray(z_init, dtype=np.float64)[:, None, :],
        settings.visualize_lr, settings.visualize_steps,
    )
    n = len(targets)
    best_z = np.empty((n, 1, generator.input_dim))
    before, best, better = np.empty(n), np.empty(n), np.empty(n, dtype=bool)
    for step, z, loss in run:
        rows = run.active
        if step == 0:
            before[rows], best[rows], best_z[rows] = loss, loss, z
        elif len(rows) == n:  # every image descends: keep the best in place
            np.less(loss, best, out=better)
            np.copyto(best, loss, where=better)
            np.copyto(best_z, z, where=better[:, None, None])
        else:
            improved = loss < best[rows]
            best[rows[improved]], best_z[rows[improved]] = loss[improved], z[improved]
    results: list = []
    for i, zi in enumerate(best_z[:, 0]):
        if i in run.errors:
            results.append(VisualizationError(_DIVERGED))
            continue
        try:
            image = nc.forward(generator, zi).output.reshape(image_shape)
            probs = nc.forward(classifier, image.ravel()).output
        except nc.NumericsError as exc:
            results.append(exc)
            continue
        results.append(VisualizationResult(zi, image, float(before[i]), float(best[i]), probs))
    return results


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


@dataclass
class _Draft:
    """One image's explanation while the phases of `explain_stack` run. The
    fields fill in phase by phase."""

    request: ExplanationRequest
    image: Optional[np.ndarray] = None
    probs_original: Optional[np.ndarray] = None
    x: Optional[np.ndarray] = None
    c: int = -1
    selection: Optional[SelectionResult] = None
    features: Optional[list] = None
    skipped: int = 0
    mod: Optional[ModificationResult] = None
    rendering: Optional[VisualizationResult] = None
    backoff: int = 0

    def classify(self, classifier: nc.Network) -> None:
        req = self.request
        self.image = np.asarray(req.image, dtype=np.float64)
        trace = nc.forward(classifier, self.image.ravel())
        self.probs_original, self.x = trace.output, trace.outputs[classifier.feature_tap][0]
        self.c = int(np.argmax(self.probs_original))
        req.check_target_class(self.c)

    def walk(self, classifier: nc.Network, head: nc.Network, stats: StatsTable) -> None:
        c_prime = self.selection.c_prime
        self.features, self.skipped = classify_exceptional(
            self.x, stats.models[c_prime], self.request.alpha
        )
        w = nc.class_weight_vector(classifier, c_prime)
        self.mod = modify_features(
            self.x, self.features, w, head, self.c, c_prime, self.request.mode
        )

    @property
    def intended(self) -> int:
        return self.selection.c_prime if self.request.mode == "counterfactual" else self.c

    def predicted(self) -> int:
        return int(np.argmax(self.rendering.probs))

    def retreat(self) -> bool:
        """Drop the last applied replacement of a semifactual whose rendering
        left `c`; False when there is nothing to drop."""
        applied = [s for s in self.mod.steps if s.applied]
        if self.request.mode != "semifactual" or self.predicted() == self.intended or not applied:
            return False
        applied[-1].applied, applied[-1].reason = False, "backoff_visual_flip"
        self.mod = dataclasses.replace(
            self.mod, x_mod=_with_applied(self.x, self.mod.steps), applied_count=len(applied) - 1
        )
        self.backoff += 1
        return True

    def result(self, stats: StatsTable) -> ExplanationResult:
        req, mod, inv, vis = self.request, self.mod, self.request.inversion, self.rendering
        c_prime = self.selection.c_prime
        ks_list = []
        for feat in self.features:
            model = stats.models[c_prime][feat.neuron]
            if not model.degenerate:
                ks_list.append(model.dist.ks_p)
        return ExplanationResult(
            mode=req.mode,
            fraction=None,
            image_id=req.image_id,
            true_label=req.true_label,
            c=self.c,
            c_prime=c_prime,
            trivially_selected=self.selection.trivial,
            alpha=req.alpha,
            z=inv.z,
            x=self.x,
            exceptional=self.features,
            skipped_degenerate=self.skipped,
            mod_steps=mod.steps,
            x_mod=mod.x_mod,
            z_prime=vis.z,
            image_prime=vis.image,
            probs_original=self.probs_original,
            probs_prime=vis.probs,
            applied_count=mod.applied_count,
            eligible_count=mod.eligible_count,
            k_reference=mod.applied_count,
            status=mod.status,
            intended_class=self.intended,
            verified=self.predicted() == self.intended,
            inversion_losses={
                "combined": inv.combined_loss,
                "feature": inv.feature_loss,
                "pixel": inv.pixel_loss,
            },
            residuals={"before": vis.residual_before, "after": vis.residual_after},
            backoff_steps=self.backoff,
            recheck_violations=_recheck_violations(
                mod.x_mod, mod.steps, stats, c_prime, req.alpha
            ),
            exceptional_ks_p=ks_list,
        )


def _per_image(n: int, phase) -> list:
    """The per-image results of the stacked `phase()` over n images, none
    when n is 0; an error that the stack raises as a whole is each image's
    error."""
    if not n:
        return []
    try:
        return phase()
    except (PipelineError, nc.NumericsError) as exc:
        return [exc] * n


def explain(
    request: ExplanationRequest,
    classifier: nc.Network,
    generator: nc.Network,
    stats: StatsTable,
    settings: OptimSettings,
) -> ExplanationResult:
    """Full pipeline for one request: `explain_stack` on a stack of one,
    raising its error."""
    return _one(explain_stack([request], classifier, generator, stats, settings))


def explain_stack(
    requests: list,
    classifier: nc.Network,
    generator: nc.Network,
    stats: StatsTable,
    settings: OptimSettings,
) -> list:
    """Full pipeline for each request, from the classifier pass to the
    rendering, in phases over all the requests at once:

    1. each image's classifier pass;
    2. class selection, as one stack (`select_cf_class_stack`) from each
       request's inversion, or the request's target class;
    3. each image's exceptional features and feature walk;
    4. the rendering and its classification, as one stacked `visualize`,
       from each request's inversion;
    5. backoff in rounds: a semifactual's rendered image may land past the
       boundary even though its feature vector does not. Each round drops
       the last applied replacement of every such semifactual and renders
       them again, as one stack, until each stays in `c` or has nothing
       left to drop.

    Every search runs each image exactly as it would run alone, so the
    result does not depend on the stack. Returns each request's
    ExplanationResult, or the PipelineError or NumericsError that
    explaining it alone raises; `proportional_stack` cuts a proportional
    explanation from a delivered semifactual.
    """
    if not requests:
        return []
    _, head = nc.split_at_tap(classifier)
    out: list = [_Draft(r) for r in requests]

    def live() -> list:
        return [i for i, d in enumerate(out) if isinstance(d, _Draft)]

    def each(step) -> None:
        for i in live():
            try:
                step(out[i])
            except (PipelineError, nc.NumericsError) as exc:
                out[i] = exc

    def store(field: str, idx: list, phase) -> None:
        """Each image's result of the stacked `phase()` over images `idx`,
        as its `field`, or its error as its result."""
        for i, res in zip(idx, _per_image(len(idx), phase)):
            if isinstance(res, Exception):
                out[i] = res
            else:
                setattr(out[i], field, res)

    each(lambda d: d.classify(classifier))
    for i in live():
        if out[i].request.target_class is not None:
            out[i].selection = SelectionResult(int(out[i].request.target_class), True, 0)
    idx = [i for i in live() if out[i].selection is None]
    store("selection", idx, lambda: select_cf_class_stack(
        classifier, generator, np.array([out[i].request.inversion.z for i in idx]),
        [out[i].c for i in idx], [out[i].request.true_label for i in idx], settings,
    ))
    each(lambda d: d.walk(classifier, head, stats))
    idx = live()
    while idx:
        store("rendering", idx, lambda: visualize(
            classifier, generator, np.stack([out[i].mod.x_mod for i in idx]),
            np.stack([out[i].request.inversion.z for i in idx]), settings, out[idx[0]].image.shape,
        ))
        idx = [i for i in live() if out[i].retreat()]  # the next round
    for i in live():
        out[i] = out[i].result(stats)
    return out


def proportional_stack(
    items: list,
    classifier: nc.Network,
    generator: nc.Network,
    stats: StatsTable,
    settings: OptimSettings,
) -> list:
    """The proportional explanation of each (semifactual, fraction) pair of
    `items`: a prefix of the replacement sequence of the delivered
    semifactual (the one whose rendering still classifies as `c`), so
    fraction 1.0 reproduces it exactly.

    The steps are copied from the recorded walk: an applied step's
    probabilities are those of `x` with the steps up to it applied, whichever
    walk recorded them. Each prefix is rendered from the inversion latent,
    unless its target is its semifactual's own, whose rendering it then
    reuses; the prefixes that need a rendering are rendered as one stack.
    Returns each pair's ExplanationResult, or the error its rendering
    raised."""
    props = []
    for sf, fraction in items:
        if sf.mode != "semifactual" or fraction not in FRACTIONS:
            raise PipelineError(
                f"proportional needs a semifactual and a fraction in {FRACTIONS}"
            )
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
        props.append(dataclasses.replace(
            sf, mode="proportional", fraction=fraction, mod_steps=steps, x_mod=x_mod,
            applied_count=budget, backoff_steps=0,
            recheck_violations=_recheck_violations(x_mod, steps, stats, sf.c_prime, sf.alpha),
        ))
    # the same target from the same start would render `sf` again
    idx = [
        i for i, (p, (sf, _)) in enumerate(zip(props, items))
        if p.x_mod.tobytes() != sf.x_mod.tobytes()
    ]
    rendered = _per_image(len(idx), lambda: visualize(
        classifier, generator, np.stack([props[i].x_mod for i in idx]),
        np.stack([props[i].z for i in idx]), settings, items[0][0].image_prime.shape,
    ))
    for i, vis in zip(idx, rendered):
        if isinstance(vis, Exception):
            props[i] = vis
            continue
        props[i] = dataclasses.replace(
            props[i], z_prime=vis.z, image_prime=vis.image, probs_prime=vis.probs,
            verified=int(np.argmax(vis.probs)) == props[i].intended_class,
            residuals={"before": vis.residual_before, "after": vis.residual_after},
        )
    return props


# ---------------------------------------------------------------------------
# Stored explanations


EXPLANATION_MAGIC = "piece-explanation"


class ExplanationFormatError(Exception):
    """A stored explanation that does not parse, lacks a key or fails its
    checksum."""


# the fields of an ExplanationResult that an entry keeps as payloads; it
# keeps the others as JSON, in which every float round-trips exactly
_RESULT_ARRAYS = ("z", "x", "x_mod", "z_prime", "image_prime", "probs_original", "probs_prime")
_DIMS = ("latent_dim", "features", "classes", "height", "width")  # the payloads' shapes
_NUMBER = ((lambda v: type(v) in (int, float)), "a number")


def _each(rule: tuple, what: str) -> tuple:
    return (lambda v: isinstance(v, list) and all(map(rule[0], v))), what


def _result_fields(doc: dict) -> tuple:
    """The rule of a stored explanation's result: a mapping of the fields of
    an ExplanationResult but its arrays, each neuron one of the `features`
    and each class one of the `classes` that the document's payloads hold."""
    neuron, cls = _index(doc["features"]), _index(doc["classes"])
    return nc.holding({
        "mode": nc.one_of(("counterfactual", "semifactual")),
        "fraction": nc.one_of((None,), "null"),
        **dict.fromkeys(("true_label", "c", "c_prime", "intended_class"), cls),
        **dict.fromkeys(("image_id", "skipped_degenerate", "applied_count", "eligible_count",
                         "k_reference", "backoff_steps", "recheck_violations"), nc.COUNT),
        **dict.fromkeys(("trivially_selected", "verified"), nc.BOOL),
        "alpha": _NUMBER,
        "status": nc.TEXT,
        "exceptional": _each(nc.holding({
            "neuron": neuron, "rule": nc.one_of(tuple(rule.value for rule in Rule)),
            **dict.fromkeys(("probability", "observed", "replacement"), _NUMBER),
        }), "a list of exceptional features"),
        "mod_steps": _each(nc.holding({
            "neuron": neuron, "rule": nc.TEXT, "applied": nc.BOOL, "reason": nc.TEXT,
            **dict.fromkeys(("probability", "old", "new", "prob_c", "prob_c_prime"), _NUMBER),
        }), "a list of feature steps"),
        "inversion_losses": nc.holding(dict.fromkeys(("combined", "feature", "pixel"), _NUMBER)),
        "residuals": nc.holding(dict.fromkeys(("before", "after"), _NUMBER)),
        "exceptional_ks_p": _each(_NUMBER, "a list of numbers"),
    })


_EXPLANATIONS = nc.KeyedFormat(
    EXPLANATION_MAGIC, ExplanationFormatError,
    fields={**dict.fromkeys(_DIMS, nc.COUNT), "result": _result_fields},
    shapes=lambda doc: dict(zip(_RESULT_ARRAYS, [
        (doc["latent_dim"],), (doc["features"],), (doc["features"],), (doc["latent_dim"],),
        (doc["height"], doc["width"]), (doc["classes"],), (doc["classes"],),
    ])),
    signed=lambda doc: (json.dumps([[doc[d] for d in _DIMS], doc["result"]], sort_keys=True),),
)


def store_explanation(res: ExplanationResult, key: dict, path) -> None:
    """Write `res` with the `key` it was made under, bit for bit: its
    arrays as payloads, its other fields as JSON, and a checksum of both."""
    result = {f.name: getattr(res, f.name) for f in dataclasses.fields(res)
              if f.name not in _RESULT_ARRAYS}
    result["exceptional"] = [vars(f) for f in res.exceptional]  # a Rule is a str
    result["mod_steps"] = [vars(s) for s in res.mod_steps]
    dims = dict(zip(_DIMS, (len(res.z), len(res.x), len(res.probs_original),
                            *res.image_prime.shape)))
    _EXPLANATIONS.save(path, key, {**dims, "result": result},
                       {name: getattr(res, name) for name in _RESULT_ARRAYS})


def stored_explanation(
    path, key: dict, generator: nc.Network, classifier: nc.Network, image_shape: tuple
) -> Optional[ExplanationResult]:
    """The explanation stored at `path` (`store_explanation`) when it was
    made under `key`, None when under another key. A document that does not
    verify (`nc.KeyedFormat.load`), its sizes not those of the networks and
    of images of `image_shape` included, raises ExplanationFormatError."""
    body, _ = nc.split_at_tap(classifier)
    sizes = (generator.input_dim, body.output_dim, classifier.output_dim, *image_shape)
    loaded = _EXPLANATIONS.load(path, key, dict(zip(_DIMS, sizes)))
    if loaded is None:
        return None
    doc, arrays = loaded
    result = doc["result"]
    return ExplanationResult(**{
        **result, **arrays,
        "exceptional": [ExceptionalFeature(**dict(f, rule=Rule(f["rule"])))
                        for f in result["exceptional"]],
        "mod_steps": [ModStep(**s) for s in result["mod_steps"]],
    })
