"""Shared oracles for the unit and acceptance suites."""

import dataclasses
import glob
import json
import pathlib
import sys

import numpy as np
from hypothesis import strategies as st

from piece import netcore as nc
from piece import pipeline as pl
from piece.datagen import DataError, file_sha256
from piece.hurdle import Rule


def watched(cfg):
    """A copy of the dataclass `cfg`, and the set that gathers the names of
    the fields the program reads from it. Reads by the `dataclasses` module
    (`asdict`, `replace`) and by the class's own checks (`__post_init__`)
    do not count."""
    names = {f.name for f in dataclasses.fields(cfg)}
    reads: set = set()

    class Watched(type(cfg)):
        def __getattribute__(self, name):
            caller = sys._getframe(1)
            if name in names and caller.f_code.co_name != "__post_init__" and (
                caller.f_globals["__name__"] != "dataclasses"
            ):
                reads.add(name)
            return super().__getattribute__(name)

    return Watched(**{name: getattr(cfg, name) for name in names}), reads


def read_pgm(path) -> np.ndarray:
    """The image of a binary PGM file (`datagen.write_pgm`), in [0, 1]."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(b"P5"):
        raise DataError(f"{path}: not a binary PGM (P5) file")
    fields, pos = [], 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataError(f"{path}: truncated PGM header")
        fields.append(int(raw[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    if maxval != 255:
        raise DataError(f"{path}: unsupported maxval {maxval}")
    body = raw[pos : pos + w * h]
    if len(body) != w * h:
        raise DataError(f"{path}: expected {w * h} pixel bytes, got {len(body)}")
    return np.frombuffer(body, dtype=np.uint8).astype(np.float64).reshape(h, w) / 255.0


# each stage of a run and the stage it builds on (its record's `after`)
BUILDS_ON = {"datagen": None, "train": "datagen", "fit-stats": "train",
             "experiment-1": "fit-stats", "experiment-2": "fit-stats"}


def rerecord(run_dir, name) -> None:
    """Record the run file `name`, edited in place, as if its stage had
    written it: its sha256 in the record that lists it, and the `after` of
    every record from there on, so that only decoding the file can find
    the edit. For a stage record `name`, the `after` of every record after
    it."""
    run_dir, started = pathlib.Path(run_dir), False
    for stage, before in BUILDS_ON.items():
        path = run_dir / "stages" / f"{stage}.json"
        if not path.exists():
            continue
        if path == run_dir / name:
            started = True
            continue
        doc = json.loads(path.read_text())
        if name in doc["files"]:
            doc["files"][name], started = file_sha256(run_dir / name), True
        if started:
            if before is not None:
                doc["after"] = file_sha256(run_dir / "stages" / f"{before}.json")
            path.write_text(json.dumps(doc))


# JSON refuses these anywhere: a control character, also inside a string,
# and a byte that cannot start or continue UTF-8 text here
_GARBLING_BYTES = [*range(0x00, 0x09), 0x0B, 0x0C, *range(0x0E, 0x20), *range(0x80, 0x100)]
# a value of each JSON type that no field takes in place of another type
# (null is not one: a stats model's `positive_mean` may be null or a number)
_OTHER_TYPES = [True, "x", [], {}]


def damaged(data, raw: bytes, objects, wrong=()) -> bytes:
    """`raw`, the bytes of a JSON document that ends in a newline, damaged
    in one way drawn from `data` (Hypothesis' `st.data()`): cut short, one
    byte garbled, one key dropped, one value swapped for one of another JSON
    type, or one of the `wrong` (key, value) pairs set in the document.
    Keys are dropped and values swapped in the objects that `objects(doc)`
    lists, those whose fields the format's tables name."""
    damage = data.draw(st.sampled_from(["truncate", "garble", "drop", "swap"]
                                       + ["wrong"] * bool(wrong)))
    if damage == "truncate":  # the last byte is the final newline
        return raw[: data.draw(st.integers(0, len(raw) - 2))]
    if damage == "garble":
        at = data.draw(st.integers(0, len(raw) - 1))
        return raw[:at] + bytes([data.draw(st.sampled_from(_GARBLING_BYTES))]) + raw[at + 1:]
    doc = json.loads(raw)
    if damage == "wrong":
        key, value = data.draw(st.sampled_from(list(wrong)))
        doc[key] = value
    else:
        obj = data.draw(st.sampled_from(objects(doc)))
        key = data.draw(st.sampled_from(sorted(obj)))
        if damage == "drop":
            del obj[key]
        else:
            obj[key] = data.draw(st.sampled_from(
                [v for v in _OTHER_TYPES if type(v) is not type(obj[key])]))
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


def count_inversions(monkeypatch) -> list:
    """The stack size of every `pipeline.invert_image` call from now on."""
    calls = []
    real = pl.invert_image

    def counted(generator, feature_net, images, settings, seeds):
        calls.append(len(images))
        return real(generator, feature_net, images, settings, seeds)

    monkeypatch.setattr(pl, "invert_image", counted)
    return calls


def count_explanations(monkeypatch) -> list:
    """The mode of every `pipeline.explain` call from now on."""
    calls = []
    real = pl.explain

    def counted(request, *args):
        calls.append(request.mode)
        return real(request, *args)

    monkeypatch.setattr(pl, "explain", counted)
    return calls


def live_children() -> set:
    """Pids of the child processes of this process, from /proc (Linux)."""
    pids = set()
    for path in glob.glob("/proc/self/task/*/children"):
        with open(path) as fh:
            pids.update(fh.read().split())
    return pids


def divided(job: int, by: int) -> tuple:
    """`divmod(job, by)`: a job function that worker processes can import."""
    return divmod(job, by)


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
    """The squared euclidean distance of the net's output from `target`,
    its forward trace, and its gradient w.r.t. the output."""
    trace = nc.forward(net, x, mode="train", rng_seed=seed)
    d = trace.outputs[-1] - target[None, :]
    return float(np.sum(d * d)), trace, 2.0 * d


def max_gradcheck_error(seed: int, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients
    over every parameter and input element of one random network."""
    net, x, drop_seed = random_network(seed)
    params = nc.bind_parameters(net)
    rng = np.random.default_rng(seed + 999)
    target = rng.normal(size=net.output_dim)

    value, trace, out_grad = scalar_objective(net, x, drop_seed, target)
    pgrad = nc.backward_params(net, trace, out_grad)
    in_grad = nc.backward(net, trace, out_grad)

    def f(x_v: np.ndarray) -> float:
        return scalar_objective(net, x_v, drop_seed, target)[0]

    def rel(a: float, b: float) -> float:
        return abs(a - b) / max(1.0, abs(a), abs(b))

    worst = 0.0
    for i in range(len(x)):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        num = (f(xp) - f(xm)) / (2 * eps)
        worst = max(worst, rel(num, in_grad[i]))

    # every entry of the bound vector is a weight or bias of the network
    for j in range(params.size):
        orig = params[j]
        params[j] = orig + eps
        plus = f(x)
        params[j] = orig - eps
        minus = f(x)
        params[j] = orig
        num = (plus - minus) / (2 * eps)
        worst = max(worst, rel(num, pgrad[j]))
    return worst


class PerArrayAdam:
    """Adam over a list of arrays, updated array by array in place, each
    operation in the order `netcore.adam_step` takes: the update that one
    `adam_step` on a network's bound parameter vector must equal."""

    def __init__(self, params: list):
        self.params = params
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.step = 0

    def __call__(self, grads: list, lr: float, beta1=0.9, beta2=0.999, eps=1e-8) -> None:
        self.step += 1
        bias1, bias2 = 1.0 - beta1**self.step, 1.0 - beta2**self.step
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= beta1
            m += g * (1.0 - beta1)
            v *= beta2
            v += g * (1.0 - beta2) * g
            p -= m / bias1 * lr / (np.sqrt(v / bias2) + eps)


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
