"""Latent-space minimal-edit baselines.

Both methods start from the same inverted latent code the main pipeline
uses and gradient-descend toward the counterfactual class. Min-Edit
minimizes the squared distance of the softmax output from the target
one-hot and ignores lambda; Constrained Min-Edit scales that term by lambda
and adds a feature-space proximity term. The function called picks the
method and labels its result: `min_edit` or `c_min_edit` for one image, or
`run_baseline` for a method name. `run_baseline` runs a stack of images as
one lockstep descent (`nc.Descent`), each image exactly as alone;
`min_edit` and `c_min_edit` are its stacks of one. Counterfactual runs stop
the moment the boundary is crossed; semifactual runs return the last point
still classified as the original class, and distance-matched runs the last
point before the feature displacement reaches a target. Failures, an
overflow among them, are recorded, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import netcore as nc

METHODS = ("min_edit", "c_min_edit")
_AT_START = {"semifactual": "starting point already", "distance": "initial point already"}


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
    d_star=None,
) -> list:
    """`method` on a stack of images, as one lockstep descent: `z` (n, d)
    holds each image's start, `x` (n, k) its features (read by c_min_edit
    and the distance stop), and `c`, `c_prime` its classes. Returns one
    result per image, each the result the image would get alone; an image
    leaves the descent when its stop rule fires, and one whose pass
    overflows fails alone.

    A counterfactual run stops when the image is classified c' and returns
    that point. A semifactual run stops when it is no longer classified c;
    a distance run (the distance-matched protocol) stops when its feature
    displacement from `x` reaches the image's `d_star`. Both return the
    point before the stop, and fail unless it is classified c."""
    if mode not in ("counterfactual", "semifactual", "distance"):
        raise BaselineError(f"unknown mode {mode!r}")
    if mode == "distance" and min(d_star) < 0:
        raise BaselineError("target distance must be nonnegative")
    objective = _objective(method, classifier, generator, cfg)
    c, c_prime = np.asarray(c), np.asarray(c_prime)
    # one row per image: (n, 1, width), as every pass below
    y = np.stack([nc.one_hot(int(k), classifier.output_dim) for k in c_prime])[:, None, :]
    x = None if x is None else np.asarray(x, dtype=np.float64)[:, None, :]

    def stacked(zs: np.ndarray) -> tuple[np.ndarray, tuple]:
        rows = run.active
        return objective(zs, y[rows], None if x is None else x[rows])

    run = nc.Descent(stacked, np.asarray(z, dtype=np.float64)[:, None, :], cfg.lr, cfg.max_steps)
    # the point a stop returns, by stack index, and the class it must have:
    # for a counterfactual the current point, else the one before it
    prev = np.empty_like(run.z[:, 0])
    prev_img = np.empty((len(c), generator.output_dim))
    prev_pred = np.empty(len(c), dtype=int)
    keep = c_prime if mode == "counterfactual" else c
    results: list = [None] * len(c)
    for step, cur, (probs, feat, img) in run:
        rows = run.active
        pred = probs[:, 0].argmax(axis=-1)
        if step == 0 or mode == "counterfactual":  # before the start is the start
            prev[rows], prev_img[rows], prev_pred[rows] = cur[:, 0], img[:, 0], pred
        if mode == "counterfactual":
            done = pred == c_prime[rows]
        elif mode == "semifactual":
            done = pred != c[rows]
        else:  # each image's norm alone: `>=` is sensitive to the last bit
            done = np.array([
                np.linalg.norm(f - r) >= d_star[i] for f, r, i in zip(feat[:, 0], x[rows, 0], rows)
            ])
        for i in rows[done]:
            if prev_pred[i] == keep[i]:
                results[i] = BaselineResult(
                    method, mode, prev[i].copy(), prev_img[i].copy(), step, step, False
                )
            else:
                where = "point before crossing" if step else _AT_START[mode]
                results[i] = BaselineResult(
                    method, mode, None, None, step, step or None, True,
                    f"{where} classified {prev_pred[i]}, not {c[i]}",
                )
        prev[rows], prev_img[rows], prev_pred[rows] = cur[:, 0], img[:, 0], pred
        run.retire(done)
    for i, (step, exc) in run.errors.items():
        results[i] = BaselineResult(method, mode, None, None, step, None, True, str(exc))
    return [
        res or BaselineResult(
            method, mode, None, None, cfg.max_steps, None, True,
            f"target distance {d_star[i]:.4g} not reached within {cfg.max_steps} steps"
            if mode == "distance" else
            f"no decision boundary found within {cfg.max_steps} steps",
        )
        for i, res in enumerate(results)
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
