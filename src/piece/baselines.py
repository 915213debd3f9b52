"""Latent-space minimal-edit baselines.

Both methods start from the same inverted latent code the main pipeline
uses and gradient-descend toward the counterfactual class. Min-Edit
minimizes the squared distance of the softmax output from the target
one-hot; Constrained Min-Edit adds a feature-space proximity term weighted
by lambda. Counterfactual runs stop the moment the boundary is crossed;
semifactual runs return the last point still classified as the original
class. Failures are recorded, never raised.
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
    method: str = "min_edit"
    lam: float = 1.0  # tradeoff weight, c_min_edit only
    lr: float = 0.02
    max_steps: int = 2000

    def validate(self) -> None:
        if self.method not in METHODS:
            raise BaselineError(f"unknown method {self.method!r}")
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


def _objective_step(
    body: nc.Network,
    head: nc.Network,
    generator: nc.Network,
    z: np.ndarray,
    y_target: np.ndarray,
    lam: float,
    x_ref: Optional[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One forward/backward of lam*||S(C(G(z))) - y||^2 (+ ||C(G(z)) - x||^2).

    Returns (grad wrt z, softmax probs, feature vector, image), all at z,
    so stop rules can reuse the same pass the gradient came from. `body` and
    `head` are the classifier split at its feature tap.
    """
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
    g_z = nc.backward(generator, tg, g_img)
    return g_z, probs[0], feat[0], img[0]


def _edit(
    z: np.ndarray,
    c: int,
    c_prime: int,
    classifier: nc.Network,
    generator: nc.Network,
    cfg: BaselineConfig,
    mode: str,
    x_ref: Optional[np.ndarray],
) -> BaselineResult:
    if mode not in ("counterfactual", "semifactual"):
        raise BaselineError(f"unknown mode {mode!r}")
    body, head = nc.split_at_tap(classifier)
    y_target = nc.one_hot(c_prime, head.output_dim)
    lam = cfg.lam if cfg.method == "c_min_edit" else 1.0

    cur = z.copy()
    g, probs, _, img = _objective_step(body, head, generator, cur, y_target, lam, x_ref)
    pred = int(np.argmax(probs))
    if mode == "counterfactual" and pred == c_prime:
        return BaselineResult(cfg.method, mode, cur, img, 0, 0, False)
    if mode == "semifactual" and pred != c:
        return BaselineResult(
            cfg.method, mode, None, None, 0, None, True,
            f"starting point already classified {pred}, not {c}",
        )
    prev = cur.copy()
    prev_img = img
    state = nc.AdamState.init([cur])
    for step in range(1, cfg.max_steps + 1):
        (cur,), state = nc.adam_step([cur], [g], state, cfg.lr)
        g, probs, _, img = _objective_step(
            body, head, generator, cur, y_target, lam, x_ref
        )
        pred = int(np.argmax(probs))
        if mode == "counterfactual":
            if pred == c_prime:
                return BaselineResult(cfg.method, mode, cur, img, step, step, False)
        else:
            if pred != c:
                return BaselineResult(cfg.method, mode, prev, prev_img, step, step, False)
            prev = cur.copy()
            prev_img = img
    return BaselineResult(
        cfg.method, mode, None, None, cfg.max_steps, None, True,
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
    cfg.validate()
    return _edit(z, c, c_prime, classifier, generator, cfg, mode, None)


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
    cfg.validate()
    return _edit(z, c, c_prime, classifier, generator, cfg, mode, np.asarray(x))


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
    cfg.validate()
    if d_star < 0:
        raise BaselineError("target distance must be nonnegative")
    body, head = nc.split_at_tap(classifier)
    y_target = nc.one_hot(c_prime, head.output_dim)
    lam = cfg.lam if method == "c_min_edit" else 1.0
    x_obj = np.asarray(x_ref) if method == "c_min_edit" else None

    cur = z.copy()
    g, probs, feat, img = _objective_step(body, head, generator, cur, y_target, lam, x_obj)
    dist = float(np.linalg.norm(feat - x_ref))
    trace = [dist]
    violations = 0
    prev, prev_pred, prev_img = cur.copy(), int(np.argmax(probs)), img
    if dist >= d_star:
        if prev_pred == c:
            return BaselineResult(method, "distance", prev, prev_img, 0, 0, False, "", trace)
        return BaselineResult(
            method, "distance", None, None, 0, None, True,
            f"initial point already classified {prev_pred}, not {c}", trace,
        )
    state = nc.AdamState.init([cur])
    for step in range(1, cfg.max_steps + 1):
        (cur,), state = nc.adam_step([cur], [g], state, cfg.lr)
        g, probs, feat, img = _objective_step(
            body, head, generator, cur, y_target, lam, x_obj
        )
        new_dist = float(np.linalg.norm(feat - x_ref))
        if new_dist < dist:
            violations += 1
        trace.append(new_dist)
        if new_dist >= d_star:
            if prev_pred == c:
                return BaselineResult(
                    method, "distance", prev, prev_img, step, step, False, "",
                    trace, violations,
                )
            return BaselineResult(
                method, "distance", None, None, step, step, True,
                f"point before crossing classified {prev_pred}, not {c}",
                trace, violations,
            )
        prev, prev_pred, prev_img = cur.copy(), int(np.argmax(probs)), img
        dist = new_dist
    return BaselineResult(
        method, "distance", None, None, cfg.max_steps, None, True,
        f"target distance {d_star:.4g} not reached within {cfg.max_steps} steps",
        trace, violations,
    )
