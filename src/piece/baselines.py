"""Latent-space minimal-edit baselines.

Both methods start from the same inverted latent code the main pipeline
uses and gradient-descend toward the counterfactual class. Min-Edit
minimizes the squared distance of the softmax output from the target
one-hot and ignores lambda; Constrained Min-Edit scales that term by lambda
and adds a feature-space proximity term. The function called picks the
method and labels its result: `min_edit` or `c_min_edit` for one image, or
`run_baseline`/`run_to_distance` for a method name. `run_baseline` runs a
stack of images as one lockstep descent (`nc.Descent`), each image exactly
as alone; `min_edit` and `c_min_edit` are its stacks of one. Counterfactual
runs stop the moment the boundary is crossed; semifactual runs return the
last point still classified as the original class. Failures, an overflow
among them, are recorded, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import netcore as nc

METHODS = ("min_edit", "c_min_edit")


class BaselineError(Exception):
    pass


@dataclass(frozen=True)
class BaselineConfig:
    lam: float = 1.0  # tradeoff weight, c_min_edit only
    lr: float = 0.02
    max_steps: int = 2000

    def validate(self) -> None:
        if self.lam <= 0:
            raise BaselineError("lambda must be positive")
        if self.max_steps < 0 or self.lr < 0:
            raise BaselineError("lr and max_steps must be nonnegative")


@dataclass
class BaselineResult:
    method: str
    mode: str
    z_prime: Optional[np.ndarray]
    image: Optional[np.ndarray]  # flat pixels
    steps_taken: int
    crossed_step: Optional[int]
    failed: bool
    failure_reason: str = ""
    distance_trace: list = field(default_factory=list)
    monotonicity_violations: int = 0


def _objective(method: str, classifier: nc.Network, generator: nc.Network, cfg: BaselineConfig):
    """The `nc.Descent` objective of `method` as `objective(z, y, x)`:
    lam*||S(C(G(z))) - y||^2, plus ||C(G(z)) - x||^2 for c_min_edit
    (Min-Edit has lam = 1 and no proximity), for a target one-hot `y` and
    reference features `x` that broadcast against the passes of `z`. Its
    info is (softmax probs, feature vector, image), all at z, so stop rules
    reuse the pass the gradient came from.
    """
    cfg.validate()
    if method not in METHODS:
        raise BaselineError(f"unknown method {method!r}")
    body, head = nc.split_at_tap(classifier)
    lam = cfg.lam if method == "c_min_edit" else 1.0

    def objective(z: np.ndarray, y_target: np.ndarray, x_ref) -> tuple[np.ndarray, tuple]:
        tg = nc.forward(generator, z)
        img = tg.outputs[-1]
        tb = nc.forward(body, img)
        feat = tb.outputs[-1]
        th = nc.forward(head, feat)
        probs = th.outputs[-1]
        g_probs = lam * 2.0 * (probs - y_target)
        g_feat = nc.backward(head, th, g_probs)
        if method == "c_min_edit":
            g_feat = g_feat + 2.0 * (feat - x_ref)
        g_img = nc.backward(body, tb, g_feat)
        return nc.backward(generator, tg, g_img), (probs, feat, img)

    return objective


def run_baseline(
    method: str,
    z: np.ndarray,
    x: Optional[np.ndarray],
    c,
    c_prime,
    classifier: nc.Network,
    generator: nc.Network,
    cfg: BaselineConfig,
    mode: str = "counterfactual",
) -> list:
    """`method` on a stack of images, as one lockstep descent: `z` (n, d)
    holds each image's start, `x` (n, k) its features (read by c_min_edit
    only), and `c`, `c_prime` its classes. Returns one result per image,
    each the result the image would get alone; an image leaves the descent
    when its stop rule fires, and one whose pass overflows fails alone."""
    if mode not in ("counterfactual", "semifactual"):
        raise BaselineError(f"unknown mode {mode!r}")
    objective = _objective(method, classifier, generator, cfg)
    c, c_prime = np.asarray(c), np.asarray(c_prime)
    # one row per image: (n, 1, width), as every pass below
    y = np.stack([nc.one_hot(int(k), classifier.output_dim) for k in c_prime])[:, None, :]
    x = None if x is None else np.asarray(x, dtype=np.float64)[:, None, :]

    def stacked(zs: np.ndarray) -> tuple[np.ndarray, tuple]:
        rows = run.active
        return objective(zs, y[rows], None if x is None else x[rows])

    run = nc.Descent(stacked, np.asarray(z, dtype=np.float64)[:, None, :], cfg.lr, cfg.max_steps)
    results: list = [None] * len(c)
    for step, cur, (probs, _, img) in run:
        rows = run.active
        pred = probs[:, 0].argmax(axis=-1)
        if mode == "counterfactual":
            done = pred == c_prime[rows]
            for j in np.flatnonzero(done):
                results[rows[j]] = BaselineResult(
                    method, mode, cur[j, 0].copy(), img[j, 0].copy(), step, step, False
                )
        else:
            done = pred != c[rows]
            for j in np.flatnonzero(done):
                if step:
                    res = BaselineResult(
                        method, mode, prev[j, 0].copy(), prev_img[j, 0].copy(), step, step, False
                    )
                else:
                    reason = f"starting point already classified {pred[j]}, not {c[rows[j]]}"
                    res = BaselineResult(method, mode, None, None, 0, None, True, reason)
                results[rows[j]] = res
            prev, prev_img = cur[~done], img[~done]
        run.retire(done)
    for i, (step, exc) in run.errors.items():
        results[i] = BaselineResult(method, mode, None, None, step, None, True, str(exc))
    return [
        res or BaselineResult(
            method, mode, None, None, cfg.max_steps, None, True,
            f"no decision boundary found within {cfg.max_steps} steps",
        )
        for res in results
    ]


def min_edit(
    z: np.ndarray,
    c: int,
    c_prime: int,
    classifier: nc.Network,
    generator: nc.Network,
    cfg: BaselineConfig,
    mode: str = "counterfactual",
) -> BaselineResult:
    (res,) = run_baseline(
        "min_edit", np.asarray(z)[None], None, [c], [c_prime], classifier, generator, cfg, mode
    )
    return res


def c_min_edit(
    z: np.ndarray,
    x: np.ndarray,
    c: int,
    c_prime: int,
    classifier: nc.Network,
    generator: nc.Network,
    cfg: BaselineConfig,
    mode: str = "counterfactual",
) -> BaselineResult:
    (res,) = run_baseline(
        "c_min_edit", np.asarray(z)[None], np.asarray(x)[None], [c], [c_prime],
        classifier, generator, cfg, mode,
    )
    return res


def run_to_distance(
    method: str,
    z: np.ndarray,
    x_ref: np.ndarray,
    c: int,
    c_prime: int,
    d_star: float,
    classifier: nc.Network,
    generator: nc.Network,
    cfg: BaselineConfig,
) -> BaselineResult:
    """Descend the method's objective until the feature-space displacement
    from `x_ref` reaches `d_star`, returning the last point before that
    whose class is still `c` (distance-matched semifactual protocol)."""
    if d_star < 0:
        raise BaselineError("target distance must be nonnegative")
    objective = _objective(method, classifier, generator, cfg)
    y = nc.one_hot(c_prime, classifier.output_dim)
    # a stack of one image, so that an overflow fails the run, not the caller
    run = nc.Descent(
        lambda zs: objective(zs, y, x_ref), np.asarray(z)[None, None], cfg.lr, cfg.max_steps
    )
    trace: list = []
    violations = 0
    for step, cur, (probs, feat, img) in run:
        cur, probs, feat, img = cur[0, 0], probs[0, 0], feat[0, 0], img[0, 0]
        dist = float(np.linalg.norm(feat - x_ref))
        if trace and dist < trace[-1]:
            violations += 1
        trace.append(dist)
        pred = int(np.argmax(probs))
        if step == 0:
            prev, prev_img, prev_pred = cur, img, pred
        if dist >= d_star:
            if prev_pred == c:
                return BaselineResult(
                    method, "distance", prev, prev_img, step, step, False, "",
                    trace, violations,
                )
            where = "point before crossing" if step else "initial point already"
            return BaselineResult(
                method, "distance", None, None, step, step or None, True,
                f"{where} classified {prev_pred}, not {c}", trace, violations,
            )
        prev, prev_img, prev_pred = cur, img, pred
    if run.errors:
        step, exc = run.errors[0]
        return BaselineResult(
            method, "distance", None, None, step, None, True, str(exc), trace, violations
        )
    return BaselineResult(
        method, "distance", None, None, cfg.max_steps, None, True,
        f"target distance {d_star:.4g} not reached within {cfg.max_steps} steps",
        trace, violations,
    )
