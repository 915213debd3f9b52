"""Seeded, deterministic training for the four networks the pipeline needs:
the dropout classifier, the generator (decoder of a reconstruction-trained
autoencoder), per-class autoencoders, and a full-data autoencoder.

All runs are reproducible: weight init, batch order, and dropout masks flow
from the config seed, so the same config yields bit-identical networks.

`piece train` makes seven independent fits, each seeded on its own: the
generator, the full autoencoder, the classifier and one autoencoder per
class. `fit` runs one of them by its model name (`fit_names`), and
`run_jobs` runs a list of jobs on worker processes, or in this process for
one job at a time. Each job carries its own arguments, so every worker
starts at once. Each worker is a fresh interpreter with one BLAS thread,
and its fits give the same bits as in this process. Every fit trains its
network's dense parameters as one vector (`netcore.bind_parameters`), with
one Adam update per batch.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from multiprocessing import resource_tracker
from typing import Callable, ClassVar

import numpy as np

from . import netcore as nc
from .datagen import MIN_CLASS_SAMPLES, Dataset


class TrainingFailure(Exception):
    """A training stage that could not run or did not reach its target."""


@dataclass
class TrainConfig:
    """The fields every training stage reads, checked as it is built:
    `hidden` holds the widths of the stage's `n_hidden` hidden layers."""

    n_hidden: ClassVar[int]
    epochs: int = 60
    batch_size: int = 32
    lr: float = 0.003
    hidden: tuple[int, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.epochs < 1 or self.batch_size < 1 or self.lr <= 0:
            raise TrainingFailure("epochs, batch_size, and lr must be positive")
        if len(self.hidden) != self.n_hidden:
            raise TrainingFailure(f"hidden takes {self.n_hidden} width(s), got {len(self.hidden)}")
        if not all(h > 0 for h in self.hidden):
            raise TrainingFailure("hidden widths must be positive")
        if self.seed < 0:  # numpy refuses a negative seed, as the fit starts
            raise TrainingFailure(f"seed must be at least 0, got {self.seed}")


@dataclass
class ClassifierConfig(TrainConfig):
    n_hidden: ClassVar[int] = 2
    hidden: tuple[int, ...] = (64, 32)
    dropout_rate: float = 0.25
    early_stop_accuracy: float = 0.97
    min_accuracy: float = 0.85

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0.0 <= self.dropout_rate < 1.0):
            raise TrainingFailure(f"dropout must be in [0, 1), got {self.dropout_rate}")


@dataclass
class AutoencoderConfig(TrainConfig):
    n_hidden: ClassVar[int] = 1
    hidden: tuple[int, ...] = (64,)
    latent_dim: int = 8
    recon_mse_target: float = 0.01

    def __post_init__(self) -> None:
        super().__post_init__()
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
) -> list:
    """Train the dense parameters of `net` in place, as one bound vector
    (`nc.bind_parameters`); returns the per-epoch curve."""
    params = nc.bind_parameters(net)
    state = nc.AdamState.init(params)
    mode = "train" if net.plan.has_dropout else "eval"
    curve = []
    n = len(inputs)
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        epoch_loss = 0.0
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            seed = int(rng.integers(0, 2**63)) if net.plan.has_dropout else None
            trace = nc.forward(net, inputs[batch], mode=mode, rng_seed=seed)
            value, out_grad = nc.loss(loss_kind, trace.outputs[-1], targets[batch])
            nc.adam_step(params, nc.backward_params(net, trace, out_grad), state, cfg.lr)
            epoch_loss += value * len(batch)
        metric = metric_fn(net)
        curve.append({"epoch": epoch, "train_loss": epoch_loss / n, "metric": metric})
        if stop_fn(metric):
            break
    return curve


def build_classifier(n_pixels: int, n_classes: int, cfg: ClassifierConfig) -> nc.Network:
    h1, h2 = cfg.hidden
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
    train: Dataset, test: Dataset, cfg: ClassifierConfig
) -> tuple[nc.Network, TrainReport]:
    n_classes = int(train.labels.max()) + 1
    if n_classes < 2:
        raise TrainingFailure("classifier needs at least 2 classes")
    net = build_classifier(train.n_pixels, n_classes, cfg)
    onehot = np.eye(n_classes)[train.labels]
    rng = np.random.default_rng([cfg.seed, 102])
    curve = _run_epochs(
        net, train.flat(), onehot, "cross_entropy", cfg, rng,
        metric_fn=lambda m: accuracy(m, test), stop_fn=lambda acc: acc >= cfg.early_stop_accuracy,
    )
    final_acc = curve[-1]["metric"]
    if final_acc < cfg.min_accuracy:
        raise TrainingFailure(
            f"classifier reached only {final_acc:.3f} test accuracy "
            f"(minimum {cfg.min_accuracy})"
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
    cfg: AutoencoderConfig,
    seed_parts,
) -> tuple[nc.Network, list]:
    n_pixels = images.shape[1] * images.shape[2]
    net = _build_autoencoder(n_pixels, cfg.hidden[0], cfg.latent_dim, [*seed_parts, 1])
    flat = images.reshape(len(images), -1)
    rng = np.random.default_rng([*seed_parts, 2])
    curve = _run_epochs(
        net, flat, flat, "mse", cfg, rng,
        metric_fn=lambda m: reconstruction_mse(m, eval_images),
        stop_fn=lambda mse: mse <= cfg.recon_mse_target * 0.5,
    )
    return net, curve


def train_generator(
    train: Dataset, test: Dataset, cfg: AutoencoderConfig
) -> tuple[nc.Network, TrainReport]:
    """Pixel-reconstruction autoencoder; its decoder is the generator."""
    if cfg.latent_dim >= train.n_pixels:
        raise TrainingFailure("latent dimension must be smaller than pixel count")
    ae, curve = _train_autoencoder(
        train.images, test.images, cfg, [cfg.seed, 201]
    )
    final_mse = curve[-1]["metric"]
    if final_mse > cfg.recon_mse_target:
        raise TrainingFailure(
            f"generator reconstruction MSE {final_mse:.5f} exceeds target "
            f"{cfg.recon_mse_target}"
        )
    generator = nc.Network(ae.layers[ae.feature_tap + 1:], role="generator")
    report = TrainReport.of(
        "generator", cfg, curve,
        {"test_mse": final_mse, "train_mse": reconstruction_mse(ae, train.images)},
        ["generator is the decoder of a reconstruction-trained autoencoder, "
         "not an adversarially trained network"],
    )
    return generator, report


def train_class_autoencoder(
    train: Dataset, test: Dataset, cfg: AutoencoderConfig, cls: int
) -> tuple[nc.Network, list]:
    """The autoencoder of class `cls` and its curve."""
    imgs = train.images[train.labels == cls]
    eval_imgs = test.images[test.labels == cls]
    if len(imgs) < MIN_CLASS_SAMPLES:
        raise TrainingFailure(
            f"class {cls} has only {len(imgs)} training images (need {MIN_CLASS_SAMPLES})"
        )
    if len(eval_imgs) == 0:
        eval_imgs = imgs
    return _train_autoencoder(imgs, eval_imgs, cfg, [cfg.seed, 301, cls])


def train_full_autoencoder(
    train: Dataset, test: Dataset, cfg: AutoencoderConfig
) -> tuple[nc.Network, list]:
    """The autoencoder of the full data and its curve."""
    n_classes = int(train.labels.max()) + 1
    return _train_autoencoder(train.images, test.images, cfg, [cfg.seed, 301, n_classes])


def autoencoders_report(
    cfg: AutoencoderConfig, class_curves: list, full_curve: list
) -> TrainReport:
    return TrainReport.of(
        "autoencoders", cfg, full_curve,
        {"class_test_mse": [curve[-1]["metric"] for curve in class_curves],
         "full_test_mse": full_curve[-1]["metric"]},
    )


def train_autoencoders(
    train: Dataset, test: Dataset, cfg: AutoencoderConfig
) -> tuple[list, nc.Network, TrainReport]:
    """One autoencoder per class plus one on the full data (for the
    reconstruction-error plausibility metrics)."""
    n_classes = int(train.labels.max()) + 1
    fits = [train_class_autoencoder(train, test, cfg, cls) for cls in range(n_classes)]
    full_net, full_curve = train_full_autoencoder(train, test, cfg)
    report = autoencoders_report(cfg, [curve for _, curve in fits], full_curve)
    return [net for net, _ in fits], full_net, report


# ---------------------------------------------------------------------------
# The fits of `piece train` as jobs


def fit_names(n_classes: int) -> list:
    """The fits of `piece train`, named after their model files, longest
    first, so that two workers finish close together."""
    return ["generator", "ae_full", "classifier", *(f"ae_class_{c}" for c in range(n_classes))]


def fit(name: str, train: Dataset, test: Dataset, cfg) -> tuple:
    """Run the fit `name` (see `fit_names`) with the sections of the run
    config `cfg`: a network and its report, or, for an autoencoder, a
    network and its curve (see `autoencoders_report`)."""
    if name == "classifier":
        return train_classifier(train, test, cfg.classifier)
    if name == "generator":
        return train_generator(train, test, cfg.generator)
    if name == "ae_full":
        return train_full_autoencoder(train, test, cfg.autoencoders)
    cls = int(name.removeprefix("ae_class_"))
    return train_class_autoencoder(train, test, cfg.autoencoders, cls)


ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_jobs(fn, jobs: list, n_jobs: int) -> list:
    """The outcome of `fn(job)` for each job, in order, up to and including
    the first job that raised: its result, or the exception it raised. `fn`
    goes with each job, so the arguments that every job shares are bound
    into it (`functools.partial`).

    With `n_jobs` 1 the jobs run here, one after another, and none starts
    after one that raised. Otherwise they all run on `n_jobs` worker
    processes, each a fresh interpreter (`spawn`) whose environment sets one
    BLAS thread (`ONE_BLAS_THREAD`), whatever this process's environment
    holds: two workers with a BLAS thread pool each spin against each other
    on two cores, and `fork` would hand them this process's pool. A worker
    that dies fails every job it had not finished with a `TrainingFailure`.
    The resource tracker that the pool starts is stopped before this
    returns, so no process that it starts outlives it.
    """
    if n_jobs == 1:
        outcomes = (_outcome_here(fn, job) for job in jobs)
    else:
        saved = {key: os.environ.get(key) for key in ONE_BLAS_THREAD}
        os.environ.update(ONE_BLAS_THREAD)
        try:
            ctx = multiprocessing.get_context("spawn")
            with ProcessPoolExecutor(min(n_jobs, len(jobs)), ctx) as pool:
                futures = [pool.submit(fn, job) for job in jobs]
            outcomes = [_outcome(future) for future in futures]
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
            _stop_resource_tracker()
    kept = []
    for outcome in outcomes:
        kept.append(outcome)
        if isinstance(outcome, BaseException):
            break
    return kept


def _stop_resource_tracker() -> None:
    """Stop the resource tracker, which would otherwise idle until this
    process exits; multiprocessing has no public call for this. A tracker
    inherited from a parent process has no pid here and is left alone."""
    tracker = resource_tracker._resource_tracker
    if tracker._pid is not None:
        tracker._stop()


def _outcome_here(fn, job):
    # an exception is kept as a worker's is, for the caller to raise in its order
    try:
        return fn(job)
    except Exception as exc:
        return exc


def _outcome(future):
    exc = future.exception()
    if isinstance(exc, BrokenProcessPool):
        return TrainingFailure(f"a training worker process died ({exc})")
    return future.result() if exc is None else exc
