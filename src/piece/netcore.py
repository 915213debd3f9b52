"""Minimal dense feedforward engine with exact reverse-mode gradients.

Everything runs on float64 numpy arrays. Networks are plain ordered layer
lists, planned once when built (layer kinds, input width, whether any layer
is dropout, where a non-finite value can first appear); `forward` returns a
full activation trace so the backward passes can reuse dropout masks and
intermediate values bit-exactly. Two backward passes share one
input-gradient recurrence: `backward` returns only the gradient with
respect to the input, which is all the optimisation loops need to chain
several networks (generator into feature extractor into classifier head) by
hand; `backward_params` forms only the dense parameter gradients, for
training, as one vector in the order of `bind_parameters`, which makes
every dense weight and bias of a network a view of one vector. `adam_step`
is the one Adam update of one array, in place; training runs it on a
network's bound parameter vector, and `Descent`, the Adam loop over latent
codes, on a copy of each point it yields, so its caller writes the stop
rule as the body of a `for` loop.
A train-mode `forward` draws the dropout masks of all its rows from one
`default_rng(rng_seed)` stream, so many stochastic passes of one input are
one call on that input repeated row by row (`evalx.mc_dropout`).

Image axis: `forward` and `backward` take a vector, a batch of rows
`(rows, d)`, or a stack of such batches `(n, rows, d)`, one per image. Every
width check, softmax and reduction works on the last axis, and numpy's
stacked product gives each image's slice the same bits as that image's own
2-d pass, so a stack runs many images in lockstep without changing any of
them (`tests/test_netcore.py` pins this). One flat 2-d batch of all the
images' rows would not: it rounds differently. A `NumericsError` raised by
a stacked pass names the images that hold the non-finite values, so a
search over a stack can drop those images and keep the rest.

Every array a file stores is base64 text of its float64 bytes
(`encode_array`), read back by one decoder, `decode_array`, whole or by rows,
and hashed by one function, `checksum`. Every reader of a run-directory
document checks its fields against one table with `check_fields`. The
documents a run's stores keep under a key, inversions and explanations,
are written, verified and refused by one `KeyedFormat`.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import math
import operator
import os
import reprlib
import sys
import threading
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional

import numpy as np

Array = np.ndarray

NETWORK_MAGIC = "piece-network"
NETWORK_FORMAT_VERSION = 1

ROLES = ("classifier", "generator", "autoencoder")


class NetError(Exception):
    """Base error for the network engine."""


class DimensionError(NetError):
    pass


class NumericsError(NetError):
    """A non-finite value. For a stacked `(n, rows, d)` input, `images`
    holds the indices along the image axis of the images with one; it is
    None for a vector or a 2-d batch."""

    def __init__(self, message: str, images: Optional[Array] = None):
        super().__init__(message)
        self.images = images


class TraceMismatchError(NetError):
    pass


class NetworkFormatError(NetError):
    pass


# ---------------------------------------------------------------------------
# Layers


@dataclass
class Dense:
    weight: Array  # (out_dim, in_dim)
    bias: Array  # (out_dim,)
    kind: ClassVar[str] = "dense"

    def __post_init__(self):
        self.weight = np.ascontiguousarray(self.weight, dtype=np.float64)
        self.bias = np.ascontiguousarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2 or self.bias.ndim != 1:
            raise DimensionError("dense layer needs 2-d weight and 1-d bias")
        if self.bias.shape[0] != self.weight.shape[0]:
            raise DimensionError(
                f"dense bias length {self.bias.shape[0]} does not match "
                f"output dim {self.weight.shape[0]}"
            )

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


@dataclass
class ReLU:
    kind: ClassVar[str] = "relu"


@dataclass
class Dropout:
    rate: float
    kind: ClassVar[str] = "dropout"

    def __post_init__(self):
        if not (0.0 <= self.rate < 1.0):
            raise DimensionError(f"dropout rate must be in [0, 1), got {self.rate}")


@dataclass
class SoftMax:
    kind: ClassVar[str] = "softmax"


@dataclass
class Sigmoid:
    kind: ClassVar[str] = "sigmoid"


@dataclass
class Network:
    """Ordered feedforward layer list with an optional feature-tap index.

    For classifiers, `feature_tap` marks the relu layer whose output is the
    latent feature vector; the head after it must contain exactly one dense
    layer producing class logits.
    """

    layers: list
    role: str
    feature_tap: Optional[int] = None
    plan: "_Plan" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.role not in ROLES:
            raise DimensionError(f"unknown network role {self.role!r}")
        if not self.layers:
            raise DimensionError("network needs at least one layer")
        self.plan = _Plan.of(self.layers)
        for i, layer in enumerate(self.layers):
            if isinstance(layer, SoftMax) and i != len(self.layers) - 1:
                raise DimensionError("softmax allowed only as the final layer")
        if self.feature_tap is not None:
            if not (0 <= self.feature_tap < len(self.layers)):
                raise DimensionError(f"feature_tap {self.feature_tap} out of range")
            if self.role == "classifier":
                if not isinstance(self.layers[self.feature_tap], ReLU):
                    raise DimensionError("classifier feature_tap must be a relu layer")
                head = self.layers[self.feature_tap + 1 :]
                if sum(isinstance(l, Dense) for l in head) != 1:
                    raise DimensionError(
                        "classifier head must contain exactly one dense layer"
                    )

    @property
    def input_dim(self) -> int:
        return self.plan.widths()[0]

    @property
    def output_dim(self) -> int:
        return self.plan.widths()[1]


@dataclass(frozen=True)
class _Plan:
    """What `forward` and the backward passes need of a layer list, worked
    out once, as the dense widths are checked to chain: (kind, layer)
    pairs, the input and output widths, after which layers to check
    finiteness, and where each dense layer's weight and bias lie in a
    parameter vector (`bind_parameters`).

    Dense layers and train-mode dropout can overflow a finite input into a
    non-finite output; relu, softmax, the stable sigmoid and eval-mode
    dropout keep finite inputs finite. A non-finite network input, though,
    passes unchecked through every layer up to the first that can overflow.
    So those leading layers and every layer that can overflow are checked:
    NumericsError fires for the same inputs, and names the same layer, as a
    check after every layer would.
    """

    steps: tuple
    input_dim: Optional[int]
    output_dim: Optional[int]
    has_dropout: bool
    checks: dict  # "eval", "train" or "off" -> one flag per layer
    slices: dict  # dense layer index -> (weight start, bias start, bias end)
    n_params: int

    @classmethod
    def of(cls, layers: list) -> "_Plan":
        steps = tuple((getattr(layer, "kind", None), layer) for layer in layers)
        dense = [(i, layer) for i, (kind, layer) in enumerate(steps) if kind == "dense"]
        for (_, prev), (i, layer) in zip(dense, dense[1:]):
            if layer.in_dim != prev.out_dim:
                raise DimensionError(
                    f"layer {i} (dense) expects input dim {layer.in_dim}, "
                    f"previous layer provides {prev.out_dim}"
                )
        checks = {"off": (False,) * len(steps)}
        for mode in ("eval", "train"):
            overflows = [
                kind == "dense" or (mode == "train" and kind == "dropout" and layer.rate > 0.0)
                for kind, layer in steps
            ]
            first = overflows.index(True) if True in overflows else len(steps)
            checks[mode] = tuple(o or i <= first for i, o in enumerate(overflows))
        has_dropout = any(kind == "dropout" for kind, _ in steps)
        slices, n_params = {}, 0
        for i, layer in dense:
            mid = n_params + layer.weight.size
            slices[i] = (n_params, mid, mid + len(layer.bias))
            n_params = slices[i][2]
        ends = (dense[0][1].in_dim, dense[-1][1].out_dim) if dense else (None, None)
        return cls(steps, *ends, has_dropout, checks, slices, n_params)

    def widths(self) -> tuple[int, int]:
        """The input and output widths."""
        if self.input_dim is None:
            raise DimensionError("network has no dense layer")
        return self.input_dim, self.output_dim


def split_at_tap(net: Network) -> tuple[Network, Network]:
    """Split a classifier into (feature extractor, head). Layers are shared."""
    if net.feature_tap is None:
        raise DimensionError("network has no feature_tap")
    body = Network(net.layers[: net.feature_tap + 1], role=net.role, feature_tap=None)
    head = Network(net.layers[net.feature_tap + 1 :], role=net.role, feature_tap=None)
    return body, head


def class_weight_vector(net: Network, cls: int) -> Array:
    """Weight row connecting the feature layer to the logit of `cls`."""
    _, head = split_at_tap(net)
    dense = [l for l in head.layers if isinstance(l, Dense)][0]
    if not (0 <= cls < dense.out_dim):
        raise DimensionError(f"class {cls} out of range for head width {dense.out_dim}")
    return dense.weight[cls].copy()


# ---------------------------------------------------------------------------
# Forward / backward


@dataclass(slots=True)
class ForwardTrace:
    """Per-layer outputs of one forward pass, plus dropout masks used.

    Replaying the stored values reproduces the output bit-exactly; backward
    reuses the masks, so train-mode gradients match the sampled network.
    `plan` is the plan of the network that made it, so a backward pass
    through that network need not check each layer's width against it.
    """

    inputs: Array
    outputs: list
    masks: dict
    squeezed: bool
    plan: Optional[_Plan] = None

    @property
    def output(self) -> Array:
        out = self.outputs[-1]
        return out[0] if self.squeezed else out


def _as_batch(x, what="input", max_ndim=3) -> tuple[Array, bool]:
    """`x` as a float64 batch of rows (or a stack of batches, up to
    `max_ndim` axes), and whether it was a single vector."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        return arr[None, :], True
    if 2 <= arr.ndim <= max_ndim:
        return arr, False
    raise DimensionError(f"{what} must be 1-d to {max_ndim}-d, got shape {arr.shape}")


def _softmax(x: Array) -> Array:
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _sigmoid(x: Array) -> Array:
    # 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, both
    # from e = exp(-|x|), which never overflows; worked in place
    e = np.copysign(x, -1.0)  # -|x|, bit for bit
    np.exp(e, out=e)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def forward(
    net: Network,
    input,
    mode: str = "eval",
    rng_seed: Optional[int] = None,
    check_finite: bool = True,
) -> ForwardTrace:
    """Run the network on a vector, a batch of row vectors, or a stack of
    batches (see the module docstring).

    In train mode dropout applies inverted scaling (divide by keep
    probability) so eval mode is the expectation; masks come from a stream
    seeded with `rng_seed`, which is required whenever the network contains
    dropout. Eval mode treats dropout as identity. With `check_finite`, the
    first layer whose output holds a non-finite value raises NumericsError.
    """
    if mode != "eval" and mode != "train":
        raise DimensionError(f"mode must be 'train' or 'eval', got {mode!r}")
    x, squeezed = _as_batch(input)
    plan = net.plan
    if x.shape[-1] != plan.input_dim:
        raise DimensionError(
            f"input width {x.shape[-1]} does not match first dense layer ({net.input_dim})"
        )
    draw = None
    if mode == "train" and plan.has_dropout:
        if rng_seed is None:
            raise DimensionError("train mode requires rng_seed when dropout present")
        draw = np.random.default_rng(rng_seed).random
    checks = plan.checks[mode if check_finite else "off"]
    outputs, masks = _run_layers(plan.steps, checks, x, draw)
    return ForwardTrace(x, outputs, masks, squeezed, plan)


# overflow surfaces as a NumericsError (or a deliberately tolerated
# non-finite row when a pass does not check), not as a numpy warning
@np.errstate(over="ignore", invalid="ignore")
def _run_layers(steps, checks, cur, draw):
    """Per-layer outputs and train-mode dropout masks of one run of `steps`.
    `draw(shape)` gives the uniform draws of a mask for an input of that
    shape; with `draw` None, dropout is the identity (eval mode), and its
    output is its input."""
    outputs: list = []
    masks: dict = {}
    for i, (kind, layer) in enumerate(steps):
        if kind == "dense":
            try:
                cur = cur @ layer.weight.T
            except ValueError:  # a width the layer does not take
                raise DimensionError(
                    f"layer {i} (dense) expects width {layer.in_dim}, got {cur.shape[-1]}"
                ) from None
            cur += layer.bias
        elif kind == "relu":
            cur = np.maximum(cur, 0.0)
        elif kind == "dropout":
            if draw is not None and layer.rate > 0.0:
                keep = draw(cur.shape) >= layer.rate
                mask = keep / (1.0 - layer.rate)
                masks[i] = mask
                cur = cur * mask
        elif kind == "softmax":
            cur = _softmax(cur)
        elif kind == "sigmoid":
            cur = _sigmoid(cur)
        else:
            raise DimensionError(f"layer {i}: unknown layer kind {layer!r}")
        if checks[i] and not np.isfinite(cur).all():
            images = None
            if cur.ndim == 3:
                images = np.flatnonzero(~np.isfinite(cur).all(axis=(1, 2)))
            raise NumericsError(f"non-finite values after layer {i} ({kind})", images)
        outputs.append(cur)
    return outputs, masks


def backward(net: Network, trace: ForwardTrace, output_grad) -> Array:
    """Gradient w.r.t. the input of one traced forward pass.

    Dropout masks recorded in the trace are reused, and the relu subgradient
    at exactly zero is zero. No parameter gradient is formed; see
    `backward_params`.
    """
    return _backprop(net, trace, output_grad, None)


def backward_params(net: Network, trace: ForwardTrace, output_grad) -> Array:
    """The parameter gradient of one traced forward pass, as one vector in
    `bind_parameters` order: dW, db of each dense layer. The recurrence is
    `backward`'s, and stops at the first dense layer. The pass must not be
    stacked.
    """
    if trace.inputs.ndim != 2:
        raise DimensionError("parameter gradients need a vector or a 2-d batch")
    return _backprop(net, trace, output_grad, np.empty(net.plan.n_params))


def _backprop(net, trace, output_grad, grads):
    """The reverse-mode recurrence: the input gradient, or with `grads` a
    vector, that vector filled with the dense parameter gradients."""
    steps = net.plan.steps
    outputs = trace.outputs
    # the widths of a trace this network made fit it; any other trace's are
    # checked layer by layer
    checked = trace.plan is not net.plan
    if len(outputs) != len(steps):
        raise TraceMismatchError(
            f"trace has {len(outputs)} layer outputs, network has "
            f"{len(steps)} layers"
        )
    g, _ = _as_batch(output_grad, what="output_grad")
    if g.shape != outputs[-1].shape:
        raise TraceMismatchError(
            f"output_grad shape {g.shape} does not match trace output "
            f"{outputs[-1].shape}"
        )
    for i in range(len(steps) - 1, -1, -1):
        kind, layer = steps[i]
        layer_in = trace.inputs if i == 0 else outputs[i - 1]
        if kind == "dense":
            if checked and layer_in.shape[-1] != layer.in_dim:
                raise TraceMismatchError(f"trace does not match layer {i} (dense)")
            if grads is not None:
                start, mid, end = net.plan.slices[i]
                np.matmul(g.T, layer_in, out=grads[start:mid].reshape(layer.weight.shape))
                np.sum(g, axis=0, out=grads[mid:end])
                if not start:  # the first dense layer: nothing below it has parameters
                    return grads
            g = g @ layer.weight
        elif kind == "relu":
            g = g * (layer_in > 0.0)
        elif kind == "dropout":
            if i in trace.masks:
                g = g * trace.masks[i]
        elif kind == "softmax":
            s = outputs[i]
            g = s * (g - (g * s).sum(axis=-1, keepdims=True))
        elif kind == "sigmoid":
            s = outputs[i]
            g = g * s * (1.0 - s)
    return grads if grads is not None else g[0] if trace.squeezed else g


# ---------------------------------------------------------------------------
# Losses


_CE_CLAMP = 1e-12  # avoids NaN on saturated softmax outputs


def loss(kind: str, prediction, target) -> tuple[float, Array]:
    """Loss value and gradient w.r.t. the prediction.

    mse averages over all elements; cross_entropy expects probability rows
    and one-hot targets (probabilities clamped at 1e-12) and averages over
    rows.
    """
    p, squeezed = _as_batch(prediction, what="prediction", max_ndim=2)
    t, _ = _as_batch(target, what="target", max_ndim=2)
    if p.shape != t.shape:
        raise DimensionError(f"prediction {p.shape} and target {t.shape} differ")
    if kind == "mse":
        d = p - t
        value = float(np.mean(d * d))
        grad = 2.0 * d / d.size
    elif kind == "cross_entropy":
        if np.any((t != 0.0) & (t != 1.0)) or np.any(t.sum(axis=1) != 1.0):
            raise DimensionError("cross_entropy target must be one-hot rows")
        clamped = np.maximum(p, _CE_CLAMP)
        n = p.shape[0]
        value = float(-np.sum(t * np.log(clamped)) / n)
        grad = -(t / clamped) / n
    else:
        raise DimensionError(f"unknown loss kind {kind!r}")
    if not np.isfinite(value) or not np.all(np.isfinite(grad)):
        raise NumericsError(f"non-finite {kind} loss")
    return value, (grad[0] if squeezed else grad)


def one_hot(index: int, n_classes: int) -> Array:
    if not (0 <= index < n_classes):
        raise DimensionError(f"class {index} out of range ({n_classes})")
    v = np.zeros(n_classes)
    v[index] = 1.0
    return v


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Adam's step count and moments of one array, and two scratch arrays
    that `adam_step` computes in, so that a step allocates nothing."""

    step: int
    m: Array
    v: Array
    scratch: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.scratch = (np.empty_like(self.m), np.empty_like(self.m))

    @classmethod
    def init(cls, param: Array) -> "AdamState":
        return cls(0, np.zeros_like(param), np.zeros_like(param))


def adam_step(
    param: Array,
    grad: Array,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One Adam update of `param`, `state.m` and `state.v`, in place:
    p -= lr * (m / (1 - beta1**t)) / (sqrt(v / (1 - beta2**t)) + eps),
    operation by operation in that order."""
    if param.shape != grad.shape:
        raise DimensionError(f"param shape {param.shape} vs grad shape {grad.shape}")
    state.step += 1
    t = state.step
    m, v, (a, b) = state.m, state.v, state.scratch
    m *= beta1
    m += np.multiply(grad, 1.0 - beta1, a)
    v *= beta2
    np.multiply(grad, 1.0 - beta2, a)
    v += np.multiply(a, grad, a)
    np.divide(m, 1.0 - beta1**t, a)
    a *= lr
    np.divide(v, 1.0 - beta2**t, b)
    np.sqrt(b, b)
    b += eps
    param -= np.divide(a, b, a)


class Descent:
    """Adam descent of `objective(z, active) -> (grad, info)` from a copy of
    `z`.

    Iterating yields `(0, z, info)` at the start, then `(step, z, info)`
    after each of at most `max_steps` updates; `objective` runs once per
    point. Each yielded `z` is a new array that is never modified; the
    caller's array is neither modified nor yielded. Leaving the loop early
    evaluates nothing further.

    A stacked `z` of shape `(n, rows, d)` descends its n images in lockstep.
    Adam is elementwise and every image starts together, so each image
    takes the steps it would take alone, and the step count is shared.
    `active` holds the stack indices of the images still descending, in
    the order of the yielded arrays' image axis; the objective is handed it
    with each point, to index its per-image constants (`gathered`). It is
    the same array from one point to the next until an image retires.
    Between yields the caller may `retire` images, which drops them from
    `z`, the gradient and Adam's moments. An image whose pass raises a
    `NumericsError` naming it (see `forward`) retires by itself: `errors`
    maps its stack index to the step and the error, and the other images
    are evaluated again. The objective keeps the image axis of `z` leading
    in every pass, so the indices an error names are those of `z`.
    Iteration ends when no image is left.
    A vector or a 2-d `z` is one image: `active` is None, and an error
    propagates to the caller.
    """

    def __init__(self, objective, z, lr: float, max_steps: int):
        self.objective, self.lr, self.max_steps = objective, lr, max_steps
        self.z = np.array(z, dtype=np.float64)
        self.grad = np.zeros_like(self.z)
        self.state = AdamState.init(self.z)
        self.active = np.arange(len(self.z)) if self.z.ndim == 3 else None
        self.errors: dict = {}

    def __iter__(self):
        step = 0
        while True:
            info = self._evaluate(step)
            if info is None:
                return
            yield step, self.z, info
            if step == self.max_steps or not self.z.size:
                return
            step += 1
            self.z = self.z.copy()
            adam_step(self.z, self.grad, self.state, self.lr)

    def retire(self, done) -> None:
        """Stop descending the active images where the mask `done` is true.
        While none is, `active` stays the same array."""
        done = np.asarray(done, dtype=bool)
        if not done.any():
            return
        keep = ~done
        self.active = self.active[keep]
        self.z, self.grad = self.z[keep], self.grad[keep]
        self.state = AdamState(self.state.step, self.state.m[keep], self.state.v[keep])

    def _evaluate(self, step: int):
        """The objective's info at `z`, after retiring every image whose pass
        overflowed; None once no image is left."""
        while True:
            try:
                self.grad, info = self.objective(self.z, self.active)
                return info
            except NumericsError as exc:
                if exc.images is None or self.active is None:
                    raise
                failed = np.zeros(len(self.active), dtype=bool)
                failed[exc.images] = True
                self.errors.update((int(self.active[i]), (step, exc)) for i in exc.images)
                self.retire(failed)
                if not self.z.size:
                    return None


def gathered(*arrays):
    """A function of a `Descent`'s `active` that gives each of `arrays`
    (image axis first) at those images: the arrays themselves while every
    image descends, and rows gathered anew only when `active` is a new
    array, after a retirement."""
    n = len(arrays[0])
    last = [None, arrays]

    def at(active: Array) -> tuple:
        if active is not last[0]:
            # `active` only ever drops images, so n of them are all of them
            last[:] = active, arrays if len(active) == n else tuple(a[active] for a in arrays)
        return last[1]

    return at


def bind_parameters(net: Network) -> Array:
    """Every dense weight and bias of `net`, in layer order (weight, bias,
    weight, bias, ...), copied into one float64 vector and rebound as views
    of it; returns the vector. Updating the vector in place updates the
    network, and its layout is that of `backward_params`."""
    flat = np.empty(net.plan.n_params)
    for i, (start, mid, end) in net.plan.slices.items():
        layer = net.layers[i]
        flat[start:mid], flat[mid:end] = layer.weight.ravel(), layer.bias
        layer.weight, layer.bias = flat[start:mid].reshape(layer.weight.shape), flat[mid:end]
    return flat


def worker_count() -> int:
    """The workers a stage splits its work over: two, or one when this
    process may run on only one CPU. `piece train --jobs` defaults to it,
    and `invert_image` inverts a stack in that many halves."""
    return min(2, len(os.sched_getaffinity(0)))


# ---------------------------------------------------------------------------
# Serialization


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **kwargs):
    """`open(path, mode, **kwargs)` for writing, on a sibling temporary file
    that replaces `path` only once the block completes. An error or an
    interrupt inside the block removes the temporary file and leaves `path`
    as it was, so no reader ever sees a partly written file. Each writer's
    temporary file is named after its process and thread, so two writers of
    one path never share one; the last to finish leaves its file. The
    directory of `path` is made if it does not exist."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_json(path, doc, indent: Optional[int] = None) -> None:
    """Write `doc` as JSON with sorted keys and a final newline."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=indent, sort_keys=True)
        fh.write("\n")


def read_doc(path, magic: str, error, table: dict) -> dict:
    """The JSON object in `path`, checked to be a `magic` document whose
    fields hold what `table` asks (`check_fields`). A file that does not
    parse, holds anything else or fails a check raises `error`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"malformed {magic} file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != magic:
        raise error(f"{path}: not a {magic} file (bad magic)")
    check_fields(doc, table, str(path), error)
    return doc


# ---------------------------------------------------------------------------
# Document fields: every reader of a run-directory document declares what
# each field holds in one table, {key: rule}, that `check_fields` checks. A
# rule is a (check, description) pair or, when it depends on a field before
# it in the table, a function of the document that gives one.


def is_finite(value) -> bool:
    """Whether a decoded JSON value is a finite float64 (a bool is not)."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def is_count(value) -> bool:
    return type(value) is int and value >= 0


def is_objects(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, dict) for v in value)


COUNT = (is_count, "a count")
FINITE = (is_finite, "a finite number")
BOOL = ((lambda v: type(v) is bool), "a bool")
TEXT = ((lambda v: type(v) is str), "text")
BASE64 = (TEXT[0], "base64 text")  # `decode_array` checks its characters
MAPPING = ((lambda v: isinstance(v, dict)), "a mapping")
OBJECTS = (is_objects, "a list of objects")


def one_of(values: tuple, what: Optional[str] = None) -> tuple:
    return (lambda v: v in values), what or " or ".join(map(repr, values))


def counts(n: int) -> tuple:
    return (lambda v: isinstance(v, list) and len(v) == n and all(map(is_count, v))), f"{n} counts"


def class_indices(n: int, n_classes: int) -> tuple:
    return ((lambda v: isinstance(v, list) and len(v) == n
             and all(type(c) is int and 0 <= c < n_classes for c in v)),
            f"{n} class indices in 0..{n_classes - 1}")


def finite_mapping(keys: tuple, positive: tuple) -> tuple:
    """A mapping of exactly `keys` to finite numbers, those of `positive`
    above 0."""
    return ((lambda v: isinstance(v, dict) and v.keys() == set(keys)
             and all(map(is_finite, v.values())) and all(v[k] > 0 for k in positive)),
            f"a mapping of {', '.join(keys)} to finite numbers, {' and '.join(positive)} above 0")


def _fault(doc: dict, table: dict) -> Optional[str]:
    """What is wrong with the first field of `doc` that `table` names, in
    table order, that `doc` lacks or whose value its rule does not allow;
    None when there is no such field."""
    for key, rule in table.items():
        if key not in doc:
            return f"missing key {key!r}"
        check, what = rule(doc) if callable(rule) else rule
        if not check(doc[key]):
            return f"{key} {reprlib.repr(doc[key])} is not {what}"
    return None


def check_fields(doc: dict, table: dict, where: str, error) -> None:
    """Check the fields of `doc` that `table` names, in table order: the
    first that `doc` lacks, or whose value its rule does not allow, raises
    `error` naming `where` (the file, and the record in it if any) and the
    key."""
    fault = _fault(doc, table)
    if fault is not None:
        raise error(f"{where}: {fault}")


def holding(table: dict) -> tuple:
    """A rule for an object nested in a document: a mapping of exactly the
    fields `table` names, each holding what its rule allows."""
    return ((lambda v: isinstance(v, dict) and v.keys() == table.keys()
             and _fault(v, table) is None),
            f"a mapping of {', '.join(table)}, each as its table asks")


def encode_array(arr: Array) -> str:
    """Base64 text of the little-endian float64 bytes of `arr`."""
    return base64.b64encode(np.ascontiguousarray(arr, "<f8").tobytes()).decode("ascii")


def decode_array(text: str, shape, where: str, error=NetworkFormatError, rows=None) -> Array:
    """Inverse of `encode_array`: the float64 array of `shape` that `text`
    encodes, decoded in one piece. With `rows`, indices along the first
    axis, only those rows, in that order: bit for bit those rows of the
    whole array, decoded from only the base64 characters that hold their
    bytes. A payload whose length is not that of the array, or whose
    characters read are not base64, raises `error`; a row outside the array
    raises IndexError."""
    n, width = shape[0], 8 * math.prod(shape[1:])  # rows, bytes per row
    total = n * width
    if len(text) != 4 * -(-total // 3):  # base64: 4 characters per 3 bytes, padded
        raise error(f"{where}: a payload of {len(text)} characters cannot hold {total} bytes")
    spans = [(0, total)]  # the byte ranges to decode
    if rows is not None:
        spans = []
        for r in rows:
            r = operator.index(r)
            if not 0 <= r < n:
                raise IndexError(f"{where}: row {r} is not in 0..{n - 1}")
            spans.append((r * width, (r + 1) * width))
    chunks = []
    for lo, hi in spans:
        first, last = lo // 3, -(-hi // 3)  # the 3-byte groups that hold the span
        try:
            raw = base64.b64decode(text[4 * first : 4 * last].encode("ascii"), validate=True)
        except ValueError as exc:
            raise error(f"{where}: payload is not base64") from exc
        if len(raw) != min(3 * last, total) - 3 * first:
            raise error(f"{where}: payload is not base64")
        chunks.append(raw[lo - 3 * first : hi - 3 * first])
    flat = np.frombuffer(b"".join(chunks), dtype="<f8").astype(np.float64)
    return flat.reshape(shape if rows is None else (len(spans), *shape[1:]))


def checksum(*parts) -> str:
    """The hex sha256 of `parts` in turn: of an array, its little-endian
    float64 bytes; of a string, its ASCII bytes."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("ascii") if isinstance(part, str)
                 else np.ascontiguousarray(part, "<f8").tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class KeyedFormat:
    """A document that a run's store keeps under a key, everything the value
    it holds depends on: the `key`, plain fields, arrays as base64 payloads
    (`encode_array`, bit for bit) and a `checksum`, the sha256 of the
    payloads' bytes and then of the texts `signed` gives. `load` gives a
    document only under the key asked for, and None for one made under
    another key, which its store then remakes and replaces."""

    magic: str
    error: type  # what a document that does not verify raises
    fields: dict  # the table of its plain fields (`check_fields`)
    shapes: Callable  # its plain fields -> each payload's shape, by name, in checksum order
    signed: Callable  # its plain fields -> the texts its checksum covers after the payloads

    def save(self, path, key: dict, fields: dict, arrays: dict) -> None:
        """Write the document of `fields` and `arrays` under `key`."""
        payloads = {name: arrays[name] for name in self.shapes(fields)}
        doc = {
            "format": self.magic, "key": key, **fields,
            **{name: encode_array(arr) for name, arr in payloads.items()},
            "checksum": checksum(*payloads.values(), *self.signed(fields)),
        }
        write_json(path, doc, indent=1)

    def load(self, path, key: dict, sizes: dict) -> Optional[tuple[dict, dict]]:
        """The document at `path` and its arrays, by name, when it was made
        under `key`; None when under another key. A document that does not
        parse, whose fields do not hold what the format's table asks or
        differ from the `sizes` the run fixes for them (the dimensions of
        its networks and images), whose payloads are not of their shapes,
        whose key does not hold the fields of `key`, or that fails its
        checksum raises `error` naming `path`."""
        doc = read_doc(path, self.magic, self.error, {"key": MAPPING, **self.fields})
        for name, size in sizes.items():
            if doc[name] != size:
                raise self.error(f"{path}: {name} {doc[name]} is not the run's {size}")
        shapes = self.shapes(doc)
        check_fields(doc, {**dict.fromkeys(shapes, BASE64), "checksum": TEXT}, str(path),
                     self.error)
        arrays = {
            name: decode_array(doc[name], shape, f"{path}: {name}", self.error)
            for name, shape in shapes.items()
        }
        if doc["key"].keys() != key.keys():
            raise self.error(f"{path}: its key does not hold {', '.join(sorted(key))}")
        if checksum(*arrays.values(), *self.signed(doc)) != doc["checksum"]:
            raise self.error(f"{path}: checksum mismatch")
        return (doc, arrays) if doc["key"] == key else None


def save_network(net: Network, path) -> None:
    """Write the versioned network document (bit-exact round trip)."""
    layers = []
    for layer in net.layers:
        if isinstance(layer, Dense):
            layers.append(
                {
                    "kind": "dense",
                    "in_dim": layer.in_dim,
                    "out_dim": layer.out_dim,
                    "weight": encode_array(layer.weight),
                    "bias": encode_array(layer.bias),
                    "checksum": checksum(layer.weight, layer.bias),
                }
            )
        elif isinstance(layer, Dropout):
            layers.append({"kind": "dropout", "rate": layer.rate})
        else:
            layers.append({"kind": layer.kind})
    doc = {
        "format": NETWORK_MAGIC,
        "format_version": NETWORK_FORMAT_VERSION,
        "role": net.role,
        "feature_tap": net.feature_tap,
        "layers": layers,
    }
    write_json(path, doc, indent=1)


# what the fields of a network document hold (a classifier's feature tap is
# what PIECE explains it by), then those of a layer of each kind
_NETWORK_FIELDS = {
    "format_version": ((lambda v: type(v) is int and v == NETWORK_FORMAT_VERSION),
                       f"the supported version, {NETWORK_FORMAT_VERSION}"),
    "role": one_of(ROLES),
    "feature_tap": lambda doc: COUNT if doc["role"] == "classifier" else (
        (lambda v: v is None or is_count(v)), "null or a count"),
    "layers": OBJECTS,
}
_LAYER_FIELDS = {
    "dense": {"in_dim": COUNT, "out_dim": COUNT, "weight": BASE64, "bias": BASE64,
              "checksum": TEXT},
    "dropout": {"rate": ((lambda v: is_finite(v) and 0 <= v < 1), "a number in [0, 1)")},
    "relu": {}, "softmax": {}, "sigmoid": {},
}
_KIND = {"kind": one_of(tuple(_LAYER_FIELDS), "a layer kind")}
_NO_PARAMETERS = {layer.kind: layer for layer in (ReLU, SoftMax, Sigmoid)}


def load_network(path) -> Network:
    """The network saved at `path` (`save_network`). A document that does
    not parse, a field that does not hold what `_NETWORK_FIELDS` or its
    layer's `_LAYER_FIELDS` asks, a layer that fails its checksum, or
    layers, a role and a feature tap that make no network together, raise
    NetworkFormatError naming the file, the layer if any, and the field."""
    doc = read_doc(path, NETWORK_MAGIC, NetworkFormatError, _NETWORK_FIELDS)
    layers: list = []
    for i, spec in enumerate(doc["layers"]):
        where = f"{path}: layer {i}"
        check_fields(spec, _KIND, where, NetworkFormatError)
        check_fields(spec, _LAYER_FIELDS[spec["kind"]], where, NetworkFormatError)
        if spec["kind"] == "dense":
            shape = (spec["out_dim"], spec["in_dim"])
            weight = decode_array(spec["weight"], shape, f"{where} weight")
            bias = decode_array(spec["bias"], shape[:1], f"{where} bias")
            if checksum(weight, bias) != spec["checksum"]:
                raise NetworkFormatError(f"{where}: checksum mismatch")
            layers.append(Dense(weight, bias))
        elif spec["kind"] == "dropout":
            layers.append(Dropout(float(spec["rate"])))
        else:
            layers.append(_NO_PARAMETERS[spec["kind"]]())
    try:
        return Network(layers, role=doc["role"], feature_tap=doc["feature_tap"])
    except DimensionError as exc:  # the layers, role and tap checked together
        raise NetworkFormatError(f"{path}: {exc}") from exc
