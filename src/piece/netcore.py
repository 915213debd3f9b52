"""Minimal dense feedforward engine with exact reverse-mode gradients.

Everything runs on float64 numpy arrays. Networks are plain ordered layer
lists, planned once when built (layer kinds, input width, whether any layer
is dropout, where a non-finite value can first appear); `forward` returns a
full activation trace so the backward passes can reuse dropout masks and
intermediate values bit-exactly. Two backward passes share one
input-gradient recurrence: `backward` returns only the gradient with
respect to the input, which is all the optimisation loops need to chain
several networks (generator into feature extractor into classifier head) by
hand; `backward_params` also forms the dense parameter gradients, for
training, in `parameters` order. `adam_step` is the one Adam update, in
place; training runs it on a network's own dense arrays, and `Descent`, the
Adam loop over latent codes, on a copy of each point it yields, so its
caller writes the stop rule as the body of a `for` loop.
`forward_passes` runs many seeded train-mode passes of one input as one
batch, each pass drawing its masks as `forward` would.

Image axis: `forward` and `backward` take a vector, a batch of rows
`(rows, d)`, or a stack of such batches `(n, rows, d)`, one per image. Every
width check, softmax and reduction works on the last axis, and numpy's
stacked product gives each image's slice the same bits as that image's own
2-d pass, so a stack runs many images in lockstep without changing any of
them (`tests/test_netcore.py` pins this). One flat 2-d batch of all the
images' rows would not: it rounds differently. A `NumericsError` raised by
a stacked pass names the images that hold the non-finite values, so a
search over a stack can drop those images and keep the rest.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import ClassVar, Optional

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


def _layer_dims(layers: list) -> list[Optional[int]]:
    """Output dimension after each layer (None until the first Dense)."""
    dims: list[Optional[int]] = []
    cur: Optional[int] = None
    for i, layer in enumerate(layers):
        if isinstance(layer, Dense):
            if cur is not None and layer.in_dim != cur:
                raise DimensionError(
                    f"layer {i} (dense) expects input dim {layer.in_dim}, "
                    f"previous layer provides {cur}"
                )
            cur = layer.out_dim
        dims.append(cur)
    return dims


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
    # what a saved network was trained on, as read back by `load_network`
    provenance: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.role not in ROLES:
            raise DimensionError(f"unknown network role {self.role!r}")
        if not self.layers:
            raise DimensionError("network needs at least one layer")
        _layer_dims(self.layers)
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
        self.plan = _Plan.of(self.layers)

    @property
    def input_dim(self) -> int:
        if self.plan.input_dim is None:
            raise DimensionError("network has no dense layer")
        return self.plan.input_dim

    @property
    def output_dim(self) -> int:
        for layer in reversed(self.layers):
            if isinstance(layer, Dense):
                return layer.out_dim
        raise DimensionError("network has no dense layer")


@dataclass(frozen=True)
class _Plan:
    """What `forward` and the backward passes need of a layer list, worked
    out once: (kind, layer) pairs, the input width, and after which layers
    to check finiteness.

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
    has_dropout: bool
    checks: dict  # "eval", "train" or "off" -> one flag per layer

    @classmethod
    def of(cls, layers: list) -> "_Plan":
        steps = tuple((getattr(layer, "kind", None), layer) for layer in layers)
        dense_in = [layer.in_dim for kind, layer in steps if kind == "dense"]
        checks = {"off": (False,) * len(steps)}
        for mode in ("eval", "train"):
            overflows = [
                kind == "dense" or (mode == "train" and kind == "dropout" and layer.rate > 0.0)
                for kind, layer in steps
            ]
            first = overflows.index(True) if True in overflows else len(steps)
            checks[mode] = tuple(o or i <= first for i, o in enumerate(overflows))
        has_dropout = any(kind == "dropout" for kind, _ in steps)
        return cls(steps, dense_in[0] if dense_in else None, has_dropout, checks)


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


@dataclass
class ForwardTrace:
    """Per-layer outputs of one forward pass, plus dropout masks used.

    Replaying the stored values reproduces the output bit-exactly; backward
    reuses the masks, so train-mode gradients match the sampled network.
    """

    inputs: Array
    outputs: list
    masks: dict
    squeezed: bool

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
    e = np.abs(x)
    np.negative(e, out=e)
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
    if mode not in ("train", "eval"):
        raise DimensionError(f"mode must be 'train' or 'eval', got {mode!r}")
    x, squeezed = _as_batch(input)
    _check_width(net, x)
    plan = net.plan
    draw = None
    if mode == "train" and plan.has_dropout:
        if rng_seed is None:
            raise DimensionError("train mode requires rng_seed when dropout present")
        draw = np.random.default_rng(rng_seed).random
    checks = plan.checks[mode if check_finite else "off"]
    # overflow surfaces as a NumericsError (or a deliberately tolerated
    # non-finite row when check_finite is off), not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore"):
        outputs, masks = _run_layers(plan.steps, checks, x, draw)
    return ForwardTrace(x, outputs, masks, squeezed)


def forward_passes(net: Network, input, seeds) -> Array:
    """Outputs of the train-mode passes of one input vector, one row per seed.

    Row i equals `forward(net, input, "train", rng_seed=seeds[i]).output` up
    to the rounding of a batched matrix product: each dropout layer draws
    row i of its mask from pass i's own stream, seeded with `seeds[i]`, in
    the order and shape the single pass would. The layers before the first
    dropout with a rate above 0 run once, on the single input row; the rest
    run as one batch of rows. Finiteness is checked as in `forward`.
    """
    x, squeezed = _as_batch(input)
    if not squeezed:
        raise DimensionError(f"input must be one vector, got shape {x.shape}")
    _check_width(net, x)
    rngs = [np.random.default_rng(seed) for seed in seeds]

    def draw(shape):
        # row i from pass i's stream; the input has one row, shared by every
        # pass, up to the first mask drawn, and one row per pass after it
        u = np.empty((len(rngs), shape[1]))
        for row, rng in zip(u, rngs):
            rng.random(out=row)
        return u

    with np.errstate(over="ignore", invalid="ignore"):
        outputs, _ = _run_layers(net.plan.steps, net.plan.checks["train"], x, draw)
    out = outputs[-1]
    # with no dropout to draw, every pass is the one row computed
    return out if len(out) == len(rngs) else np.repeat(out, len(rngs), axis=0)


def _check_width(net: Network, x: Array) -> None:
    if x.shape[-1] != net.input_dim:
        raise DimensionError(
            f"input width {x.shape[-1]} does not match first dense layer "
            f"({net.input_dim})"
        )


def _run_layers(steps, checks, cur, draw):
    """Per-layer outputs and train-mode dropout masks of one run of `steps`.
    `draw(shape)` gives the uniform draws of a mask for an input of that
    shape; with `draw` None, dropout is the identity (eval mode)."""
    outputs: list = []
    masks: dict = {}
    for i, (kind, layer) in enumerate(steps):
        if kind == "dense":
            if cur.shape[-1] != layer.in_dim:
                raise DimensionError(
                    f"layer {i} (dense) expects width {layer.in_dim}, got {cur.shape[-1]}"
                )
            cur = cur @ layer.weight.T
            cur += layer.bias
        elif kind == "relu":
            cur = np.maximum(cur, 0.0)
        elif kind == "dropout":
            if draw is not None and layer.rate > 0.0:
                keep = draw(cur.shape) >= layer.rate
                mask = keep / (1.0 - layer.rate)
                masks[i] = mask
                cur = cur * mask
            else:
                cur = cur.copy()
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


def backward_params(net: Network, trace: ForwardTrace, output_grad) -> tuple[list, Array]:
    """Parameter and input gradients of one traced forward pass.

    Returns (parameter gradients, gradient w.r.t. the input). The parameter
    gradients are in `parameters(net)` order: dW, db of each dense layer. The
    input gradient is the one `backward` returns, bit for bit. The pass must
    not be stacked.
    """
    if trace.inputs.ndim != 2:
        raise DimensionError("parameter gradients need a vector or a 2-d batch")
    param_grads: list = []
    input_grad = _backprop(net, trace, output_grad, param_grads)
    return param_grads[::-1], input_grad


def _backprop(net, trace, output_grad, param_grads):
    """The reverse-mode recurrence; appends db, dW of each dense layer, last
    layer first, to `param_grads` when it is a list."""
    steps = net.plan.steps
    outputs = trace.outputs
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
            if layer_in.shape[-1] != layer.in_dim:
                raise TraceMismatchError(f"trace does not match layer {i} (dense)")
            if param_grads is not None:
                param_grads += (g.sum(axis=0), g.T @ layer_in)
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
    return g[0] if trace.squeezed else g


# ---------------------------------------------------------------------------
# Losses


_CE_CLAMP = 1e-12  # avoids NaN on saturated softmax outputs


def loss(kind: str, prediction, target) -> tuple[float, Array]:
    """Loss value and gradient w.r.t. the prediction.

    mse averages over all elements, l2_sq is the plain squared euclidean
    distance, cross_entropy expects probability rows and one-hot targets
    (probabilities clamped at 1e-12) and averages over rows.
    """
    p, squeezed = _as_batch(prediction, what="prediction", max_ndim=2)
    t, _ = _as_batch(target, what="target", max_ndim=2)
    if p.shape != t.shape:
        raise DimensionError(f"prediction {p.shape} and target {t.shape} differ")
    if kind == "mse":
        d = p - t
        value = float(np.mean(d * d))
        grad = 2.0 * d / d.size
    elif kind == "l2_sq":
        d = p - t
        value = float(np.sum(d * d))
        grad = 2.0 * d
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
    step: int
    m: list
    v: list

    @classmethod
    def init(cls, params: list) -> "AdamState":
        return cls(0, [np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])


def adam_step(
    params: list,
    grads: list,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One Adam update of `params`, `state.m` and `state.v`, in place."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise DimensionError("params/grads/state length mismatch")
    state.step += 1
    t = state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if p.shape != g.shape:
            raise DimensionError(f"param shape {p.shape} vs grad shape {g.shape}")
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)


class Descent:
    """Adam descent of `objective(z) -> (grad, info)` from a copy of `z`.

    Iterating yields `(0, z, info)` at the start, then `(step, z, info)`
    after each of at most `max_steps` updates; `objective` runs once per
    point. Each yielded `z` is a new array that is never modified; the
    caller's array is neither modified nor yielded. Leaving the loop early
    evaluates nothing further.

    A stacked `z` of shape `(n, rows, d)` descends its n images in lockstep.
    Adam is elementwise and every image starts together, so each image
    takes the steps it would take alone, and the step count is shared.
    `active` holds the stack indices of the images still descending, in
    the order of the yielded arrays' image axis. Between yields the caller
    may `retire` images, which drops them from `z`, the gradient and Adam's
    moments. An image whose pass raises a `NumericsError` naming it (see
    `forward`) retires by itself: `errors` maps its stack index to the step
    and the error, and the other images are evaluated again. The objective
    keeps the image axis of `z` leading in every pass, so the indices an
    error names are those of `z`. Iteration ends when no image is left.
    A vector or a 2-d `z` is one image: `active` is None, and an error
    propagates to the caller.
    """

    def __init__(self, objective, z, lr: float, max_steps: int):
        self.objective, self.lr, self.max_steps = objective, lr, max_steps
        self.z = np.array(z, dtype=np.float64)
        self.grad = np.zeros_like(self.z)
        self.state = AdamState.init([self.z])
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
            adam_step([self.z], [self.grad], self.state, self.lr)

    def retire(self, done) -> None:
        """Stop descending the active images where the mask `done` is true."""
        keep = ~np.asarray(done, dtype=bool)
        self.active = self.active[keep]
        self.z, self.grad = self.z[keep], self.grad[keep]
        self.state.m[0], self.state.v[0] = self.state.m[0][keep], self.state.v[0][keep]

    def _evaluate(self, step: int):
        """The objective's info at `z`, after retiring every image whose pass
        overflowed; None once no image is left."""
        while True:
            try:
                self.grad, info = self.objective(self.z)
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


def parameters(net: Network) -> list:
    """Dense parameters in layer order: weight, bias, weight, bias, ..."""
    out = []
    for layer in net.layers:
        if isinstance(layer, Dense):
            out.append(layer.weight)
            out.append(layer.bias)
    return out


# ---------------------------------------------------------------------------
# Serialization


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **kwargs):
    """`open(path, mode, **kwargs)` for writing, on a sibling temporary file
    that replaces `path` only once the block completes. An error or an
    interrupt inside the block removes the temporary file and leaves `path`
    as it was, so no reader ever sees a partly written file."""
    tmp = f"{path}.tmp"
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


def read_doc(path, magic: str, error, sha256: Optional[str] = None) -> dict:
    """The JSON object in `path`, checked to be a `magic` document. A file
    that does not parse, holds anything else, lacks a key its reader looks
    up with `[]`, or whose bytes do not have the hex digest `sha256` when
    one is given, raises `error`."""

    class Doc(dict):
        def __missing__(self, key):
            raise error(f"{path}: missing key {key!r}")

    with open(path, "rb") as fh:
        raw = fh.read()
    if sha256 is not None and hashlib.sha256(raw).hexdigest() != sha256:
        raise error(f"{path}: contents do not match their recorded sha256")
    try:
        doc = json.loads(raw.decode("utf-8"), object_hook=Doc)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"malformed {magic} file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != magic:
        raise error(f"{path}: not a {magic} file (bad magic)")
    return doc


def encode_array(arr: Array) -> str:
    """Base64 text of the little-endian float64 bytes of `arr`."""
    return base64.b64encode(np.ascontiguousarray(arr, "<f8").tobytes()).decode("ascii")


def decode_array(text: str, shape, where: str, error=NetworkFormatError) -> Array:
    """Inverse of `encode_array`, as a float64 array of `shape`. A payload that
    is not base64, or not exactly that many values, raises `error`."""
    count = int(np.prod(shape))
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except ValueError as exc:
        raise error(f"{where}: payload is not base64") from exc
    if len(raw) != 8 * count:
        raise error(f"{where}: expected {8 * count} bytes, got {len(raw)}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)


def _layer_checksum(layer: Dense) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(layer.weight, "<f8").tobytes())
    h.update(np.ascontiguousarray(layer.bias, "<f8").tobytes())
    return h.hexdigest()


def save_network(net: Network, path, provenance: Optional[dict] = None) -> None:
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
                    "checksum": _layer_checksum(layer),
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
        "provenance": provenance or {},
    }
    write_json(path, doc, indent=1)


def load_network(path) -> Network:
    doc = read_doc(path, NETWORK_MAGIC, NetworkFormatError)
    if doc.get("format_version") != NETWORK_FORMAT_VERSION:
        raise NetworkFormatError(
            f"{path}: unsupported format version {doc.get('format_version')!r}"
        )
    layers: list = []
    for i, spec in enumerate(doc["layers"]):
        kind = spec.get("kind")
        if kind == "dense":
            out_dim, in_dim = int(spec["out_dim"]), int(spec["in_dim"])
            weight = decode_array(spec["weight"], (out_dim, in_dim), f"layer {i} weight")
            bias = decode_array(spec["bias"], (out_dim,), f"layer {i} bias")
            dense = Dense(weight, bias)
            if _layer_checksum(dense) != spec.get("checksum"):
                raise NetworkFormatError(f"layer {i}: checksum mismatch")
            layers.append(dense)
        elif kind == "relu":
            layers.append(ReLU())
        elif kind == "dropout":
            layers.append(Dropout(float(spec["rate"])))
        elif kind == "softmax":
            layers.append(SoftMax())
        elif kind == "sigmoid":
            layers.append(Sigmoid())
        else:
            raise NetworkFormatError(f"layer {i}: unknown kind {kind!r}")
    tap = doc["feature_tap"]
    return Network(
        layers, role=doc["role"], feature_tap=None if tap is None else int(tap),
        provenance=doc["provenance"],
    )
