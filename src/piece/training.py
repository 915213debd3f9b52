"""Seeded, deterministic training for the four networks the pipeline needs:
the dropout classifier, the generator (decoder of a reconstruction-trained
autoencoder), per-class autoencoders, and a full-data autoencoder.

All runs are reproducible: weight init, batch order, and dropout masks flow
from the config seed, so the same config yields bit-identical networks.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from . import netcore as nc
from .datagen import Dataset


class TrainingFailure(Exception):
    def __init__(self, message: str, curve: Optional[list] = None):
        super().__init__(message)
        self.curve = curve or []


@dataclass
class TrainConfig:
    epochs: int = 60
    batch_size: int = 32
    lr: float = 0.003
    beta1: float = 0.9
    beta2: float = 0.999
    dropout_rate: float = 0.25
    latent_dim: int = 8
    hidden: tuple[int, ...] = (64, 32)
    seed: int = 0
    early_stop_accuracy: float = 0.94
    min_accuracy: float = 0.85
    recon_mse_target: float = 0.01

    def validate(self) -> None:
        if self.epochs < 1 or self.batch_size < 1 or self.lr <= 0:
            raise TrainingFailure("epochs, batch_size, and lr must be positive")
        if not all(h > 0 for h in self.hidden):
            raise TrainingFailure("hidden widths must be positive")
        if self.latent_dim < 1:
            raise TrainingFailure("latent_dim must be positive")


@dataclass
class TrainReport:
    stage: str
    seed: int
    config: dict
    epochs_run: int
    curve: list  # per-epoch {epoch, train_loss, metric}
    final: dict
    notes: list = field(default_factory=list)

    @classmethod
    def of(cls, stage: str, cfg: TrainConfig, curve: list, final: dict, notes=()) -> "TrainReport":
        return cls(stage, cfg.seed, asdict(cfg), len(curve), curve, final, list(notes))

    def save(self, path) -> None:
        nc.write_json(path, asdict(self), indent=1)


def _glorot_dense(rng: np.random.Generator, out_dim: int, in_dim: int) -> nc.Dense:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    weight = rng.uniform(-limit, limit, size=(out_dim, in_dim))
    return nc.Dense(weight, np.zeros(out_dim))


def accuracy(net: nc.Network, data: Dataset) -> float:
    """Share of `data` whose eval-mode predicted class is its label."""
    probs = nc.forward(net, data.flat()).output
    return float(np.mean(np.argmax(probs, axis=1) == data.labels))


def reconstruction_mse(net: nc.Network, images: np.ndarray) -> float:
    flat = images.reshape(len(images), -1)
    recon = nc.forward(net, flat).output
    return float(np.mean((recon - flat) ** 2))


def _run_epochs(
    net: nc.Network,
    inputs: np.ndarray,
    targets: np.ndarray,
    loss_kind: str,
    cfg: TrainConfig,
    rng: np.random.Generator,
    metric_fn: Callable[[nc.Network], float],
    stop_fn: Callable[[float], bool],
) -> tuple[nc.Network, list]:
    params = nc.parameters(net)
    state = nc.AdamState.init(params)
    curve = []
    n = len(inputs)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            seed = int(rng.integers(0, 2**63)) if net.plan.has_dropout else None
            mode = "train" if net.plan.has_dropout else "eval"
            trace = nc.forward(net, inputs[batch], mode=mode, rng_seed=seed)
            value, out_grad = nc.loss(loss_kind, trace.outputs[-1], targets[batch])
            pgrads, _ = nc.backward_params(net, trace, out_grad)
            grads = nc.flatten_param_grads(net, pgrads)
            params, state = nc.adam_step(
                params, grads, state, cfg.lr, cfg.beta1, cfg.beta2
            )
            net = nc.replace_parameters(net, params)
            epoch_loss += value * len(batch)
        metric = metric_fn(net)
        curve.append(
            {"epoch": epoch, "train_loss": epoch_loss / n, "metric": metric}
        )
        if stop_fn(metric):
            break
    return net, curve


def build_classifier(n_pixels: int, n_classes: int, cfg: TrainConfig) -> nc.Network:
    h1, h2 = cfg.hidden[0], cfg.hidden[1]
    rng = np.random.default_rng([cfg.seed, 101])
    layers = [
        _glorot_dense(rng, h1, n_pixels),
        nc.ReLU(),
        nc.Dropout(cfg.dropout_rate),
        _glorot_dense(rng, h2, h1),
        nc.ReLU(),  # feature layer
        _glorot_dense(rng, n_classes, h2),
        nc.SoftMax(),
    ]
    return nc.Network(layers, role="classifier", feature_tap=4)


def train_classifier(
    train: Dataset, test: Dataset, cfg: TrainConfig
) -> tuple[nc.Network, TrainReport]:
    cfg.validate()
    n_classes = int(train.labels.max()) + 1
    if n_classes < 2:
        raise TrainingFailure("classifier needs at least 2 classes")
    net = build_classifier(train.n_pixels, n_classes, cfg)
    onehot = np.eye(n_classes)[train.labels]
    rng = np.random.default_rng([cfg.seed, 102])
    net, curve = _run_epochs(
        net,
        train.flat(),
        onehot,
        "cross_entropy",
        cfg,
        rng,
        metric_fn=lambda m: accuracy(m, test),
        stop_fn=lambda acc: acc >= cfg.early_stop_accuracy,
    )
    final_acc = curve[-1]["metric"]
    if final_acc < cfg.min_accuracy:
        raise TrainingFailure(
            f"classifier reached only {final_acc:.3f} test accuracy "
            f"(minimum {cfg.min_accuracy})",
            curve,
        )
    report = TrainReport.of(
        "classifier", cfg, curve,
        {"test_accuracy": final_acc, "train_accuracy": accuracy(net, train)},
    )
    return net, report


def _build_autoencoder(n_pixels: int, hidden: int, latent: int, seed_parts) -> nc.Network:
    rng = np.random.default_rng(seed_parts)
    layers = [
        _glorot_dense(rng, hidden, n_pixels),
        nc.ReLU(),
        _glorot_dense(rng, latent, hidden),
        _glorot_dense(rng, hidden, latent),
        nc.ReLU(),
        _glorot_dense(rng, n_pixels, hidden),
        nc.Sigmoid(),
    ]
    return nc.Network(layers, role="autoencoder", feature_tap=2)


def _train_autoencoder(
    images: np.ndarray,
    eval_images: np.ndarray,
    cfg: TrainConfig,
    seed_parts,
) -> tuple[nc.Network, list]:
    n_pixels = images.shape[1] * images.shape[2]
    net = _build_autoencoder(n_pixels, cfg.hidden[0], cfg.latent_dim, [*seed_parts, 1])
    flat = images.reshape(len(images), -1)
    rng = np.random.default_rng([*seed_parts, 2])
    return _run_epochs(
        net,
        flat,
        flat,
        "mse",
        cfg,
        rng,
        metric_fn=lambda m: reconstruction_mse(m, eval_images),
        stop_fn=lambda mse: mse <= cfg.recon_mse_target * 0.5,
    )


def train_generator(
    train: Dataset, test: Dataset, cfg: TrainConfig
) -> tuple[nc.Network, TrainReport]:
    """Pixel-reconstruction autoencoder; its decoder is the generator."""
    cfg.validate()
    if cfg.latent_dim >= train.n_pixels:
        raise TrainingFailure("latent dimension must be smaller than pixel count")
    ae, curve = _train_autoencoder(
        train.images, test.images, cfg, [cfg.seed, 201]
    )
    final_mse = curve[-1]["metric"]
    if final_mse > cfg.recon_mse_target:
        raise TrainingFailure(
            f"generator reconstruction MSE {final_mse:.5f} exceeds target "
            f"{cfg.recon_mse_target}",
            curve,
        )
    generator = nc.Network(ae.layers[ae.feature_tap + 1:], role="generator")
    report = TrainReport.of(
        "generator", cfg, curve,
        {"test_mse": final_mse, "train_mse": reconstruction_mse(ae, train.images)},
        ["generator is the decoder of a reconstruction-trained autoencoder, "
         "not an adversarially trained network"],
    )
    return generator, report


def train_autoencoders(
    train: Dataset, test: Dataset, cfg: TrainConfig, min_class_samples: int = 30
) -> tuple[list, nc.Network, TrainReport]:
    """One autoencoder per class plus one on the full data (for the
    reconstruction-error plausibility metrics)."""
    cfg.validate()
    n_classes = int(train.labels.max()) + 1
    class_nets = []
    class_mses = []
    for cls in range(n_classes):
        imgs = train.images[train.labels == cls]
        eval_imgs = test.images[test.labels == cls]
        if len(imgs) < min_class_samples:
            raise TrainingFailure(
                f"class {cls} has only {len(imgs)} training images "
                f"(need {min_class_samples})"
            )
        if len(eval_imgs) == 0:
            eval_imgs = imgs
        net, curve = _train_autoencoder(imgs, eval_imgs, cfg, [cfg.seed, 301, cls])
        class_nets.append(net)
        class_mses.append(curve[-1]["metric"])
    full_net, full_curve = _train_autoencoder(
        train.images, test.images, cfg, [cfg.seed, 301, n_classes]
    )
    report = TrainReport.of(
        "autoencoders", cfg, full_curve,
        {"class_test_mse": class_mses, "full_test_mse": full_curve[-1]["metric"]},
    )
    return class_nets, full_net, report
