"""Shared oracles for the unit and acceptance suites."""

import numpy as np

from piece import netcore as nc
from piece.hurdle import Rule


def random_network(seed: int) -> tuple[nc.Network, np.ndarray, int]:
    """Small random net covering every layer kind, plus an input for it."""
    rng = np.random.default_rng(seed)
    d_in = int(rng.integers(3, 7))
    h1 = int(rng.integers(4, 8))
    h2 = int(rng.integers(3, 6))
    d_out = int(rng.integers(2, 5))
    layers = [
        nc.Dense(rng.normal(size=(h1, d_in)), rng.normal(size=h1)),
        nc.ReLU(),
        nc.Dropout(0.3),
        nc.Dense(rng.normal(size=(h2, h1)), rng.normal(size=h2)),
        nc.Sigmoid(),
        nc.Dense(rng.normal(size=(d_out, h2)), rng.normal(size=d_out)),
        nc.SoftMax(),
    ]
    net = nc.Network(layers, role="generator")
    x = rng.normal(size=d_in)
    return net, x, int(rng.integers(0, 2**31))


def scalar_objective(net: nc.Network, x: np.ndarray, seed: int, target: np.ndarray):
    trace = nc.forward(net, x, mode="train", rng_seed=seed)
    value, grad = nc.loss("l2_sq", trace.outputs[-1], target[None, :])
    return value, trace, grad


def max_gradcheck_error(seed: int, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients
    over every parameter and input element of one random network."""
    net, x, drop_seed = random_network(seed)
    rng = np.random.default_rng(seed + 999)
    target = rng.normal(size=net.output_dim)

    value, trace, out_grad = scalar_objective(net, x, drop_seed, target)
    pgrads, in_grad = nc.backward_params(net, trace, out_grad)

    def f(net_v: nc.Network, x_v: np.ndarray) -> float:
        return scalar_objective(net_v, x_v, drop_seed, target)[0]

    def rel(a: float, b: float) -> float:
        return abs(a - b) / max(1.0, abs(a), abs(b))

    worst = 0.0
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        num = (f(net, xp) - f(net, xm)) / (2 * eps)
        worst = max(worst, rel(num, in_grad[i]))

    params = nc.parameters(net)
    analytic = nc.flatten_param_grads(net, pgrads)
    for p_idx, (param, grad) in enumerate(zip(params, analytic)):
        flat = param.ravel()
        gflat = grad.ravel()
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            plus = f(net, x)
            flat[j] = orig - eps
            minus = f(net, x)
            flat[j] = orig
            num = (plus - minus) / (2 * eps)
            worst = max(worst, rel(num, gflat[j]))
    return worst


# ---------------------------------------------------------------------------
# Empirical-CDF exceptionality oracle


def empirical_decisions(samples: np.ndarray, value: float, alpha: float) -> set:
    """Exceptionality rules fired using only the empirical CDF."""
    m = len(samples)
    positive = np.sort(samples[samples > 0])
    q = len(positive)
    theta = q / m
    fired = set()
    if value <= 0:
        if (1 - theta) < alpha:
            fired.add(Rule.ABSENT)
        return fired
    if q == 0:
        return fired
    if theta < alpha:
        fired.add(Rule.UNEXPECTED)
    f_emp = np.searchsorted(positive, value, side="right") / q
    p_low = theta * f_emp
    p_high = 1 - ((1 - theta) + theta * f_emp)
    low = p_low < alpha
    high = (1 - theta) + theta * f_emp > 1 - alpha
    if low and high:
        if p_low <= p_high:
            high = False
        else:
            low = False
    if low:
        fired.add(Rule.LOW_TAIL)
    elif high:
        fired.add(Rule.HIGH_TAIL)
    return fired


def fitted_decisions(features: list, neuron: int) -> set:
    return {f.rule for f in features if f.neuron == neuron}
