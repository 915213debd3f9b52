"""Latent-space minimal-edit baselines.

Both methods start from the same inverted latent code the main pipeline
uses and gradient-descend toward the counterfactual class. Min-Edit
minimizes the squared distance of the softmax output from the target
one-hot and ignores lambda; Constrained Min-Edit scales that term by lambda
and adds a feature-space proximity term. The function called picks the
method and labels its result: `min_edit` or `c_min_edit`, or
`run_baseline`/`run_to_distance` for a method name. Counterfactual runs stop
the moment the boundary is crossed; semifactual runs return the last point
still classified as the original class. Failures are recorded, never raised.
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


def _objective(
    method: str, x: Optional[np.ndarray], c_prime: int,
    classifier: nc.Network, generator: nc.Network, cfg: BaselineConfig,
):
    """The `nc.descend` objective of `method`: lam*||S(C(G(z))) - y||^2, plus
    ||C(G(z)) - x||^2 for c_min_edit (Min-Edit has lam = 1 and no proximity).
    Its info is (softmax probs, feature vector, image), all at z, so stop
    rules reuse the pass the gradient came from.
    """
    cfg.validate()
    if method not in METHODS:
        raise BaselineError(f"unknown method {method!r}")
    body, head = nc.split_at_tap(classifier)
    y_target = nc.one_hot(c_prime, head.output_dim)
    lam, x_ref = (cfg.lam, np.asarray(x)) if method == "c_min_edit" else (1.0, None)

    def objective(z: np.ndarray) -> tuple[np.ndarray, tuple]:
        tg = nc.forward(generator, z)
        img = tg.outputs[-1]
        tb = nc.forward(body, img)
        feat = tb.outputs[-1]
        th = nc.forward(head, feat)
        probs = th.outputs[-1]
        g_probs = lam * 2.0 * (probs - y_target)
        g_feat = nc.backward(head, th, g_probs)
        if x_ref is not None:
            g_feat = g_feat + 2.0 * (feat - x_ref)
        g_img = nc.backward(body, tb, g_feat)
        return nc.backward(generator, tg, g_img), (probs[0], feat[0], img[0])

    return objective


def _edit(
    method: str, z: np.ndarray, x: Optional[np.ndarray], c: int, c_prime: int,
    classifier: nc.Network, generator: nc.Network, cfg: BaselineConfig, mode: str,
) -> BaselineResult:
    if mode not in ("counterfactual", "semifactual"):
        raise BaselineError(f"unknown mode {mode!r}")
    objective = _objective(method, x, c_prime, classifier, generator, cfg)
    for step, cur, (probs, _, img) in nc.descend(objective, z, cfg.lr, cfg.max_steps):
        pred = int(np.argmax(probs))
        if mode == "counterfactual":
            if pred == c_prime:
                return BaselineResult(method, mode, cur, img, step, step, False)
        elif pred != c:
            if step == 0:
                reason = f"starting point already classified {pred}, not {c}"
                return BaselineResult(method, mode, None, None, 0, None, True, reason)
            return BaselineResult(method, mode, prev, prev_img, step, step, False)
        else:
            prev, prev_img = cur, img
    return BaselineResult(
        method, mode, None, None, cfg.max_steps, None, True,
        f"no decision boundary found within {cfg.max_steps} steps",
    )


def min_edit(
    z: np.ndarray,
    c: int,
    c_prime: int,
    classifier: nc.Network,
    generator: nc.Network,
    cfg: BaselineConfig,
    mode: str = "counterfactual",
) -> BaselineResult:
    return _edit("min_edit", z, None, c, c_prime, classifier, generator, cfg, mode)


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
    return _edit("c_min_edit", z, x, c, c_prime, classifier, generator, cfg, mode)


def run_baseline(
    method: str,
    z: np.ndarray,
    x: np.ndarray,
    c: int,
    c_prime: int,
    classifier: nc.Network,
    generator: nc.Network,
    cfg: BaselineConfig,
    mode: str = "counterfactual",
) -> BaselineResult:
    if method == "min_edit":
        return min_edit(z, c, c_prime, classifier, generator, cfg, mode)
    if method == "c_min_edit":
        return c_min_edit(z, x, c, c_prime, classifier, generator, cfg, mode)
    raise BaselineError(f"unknown method {method!r}")


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
    objective = _objective(method, x_ref, c_prime, classifier, generator, cfg)
    trace: list = []
    violations = 0
    for step, cur, (probs, feat, img) in nc.descend(objective, z, cfg.lr, cfg.max_steps):
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
    return BaselineResult(
        method, "distance", None, None, cfg.max_steps, None, True,
        f"target distance {d_star:.4g} not reached within {cfg.max_steps} steps",
        trace, violations,
    )
