"""Per-class, per-neuron hurdle models over relu feature activations.

Each neuron of the feature layer, for each predicted class, is modelled as a
point mass at zero (the neuron did not activate) mixed with a continuous
density over its positive activations:

    p(v) = (1 - theta) * [v == 0] + theta * f(v)

where theta is the empirical activation probability and f is the best of
six maximum-likelihood candidates (see distfit). A test activation is
*exceptional* for a class when its probability under that class's model
falls below alpha, through one of four tail events:

    absent_but_expected    v = 0 while the neuron almost always activates
    unexpected_activation  v > 0 while the neuron almost never activates
    low_tail               v > 0 but improbably small given activation
    high_tail              v > 0 and improbably large given activation
"""

from __future__ import annotations

import enum
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import netcore as nc
from .datagen import Dataset
from .distfit import FittedDist, fit_best

MIN_POSITIVE_SAMPLES = 20  # below this, no PDF is fitted


class HurdleError(Exception):
    pass


class Rule(str, enum.Enum):
    ABSENT = "absent_but_expected"
    UNEXPECTED = "unexpected_activation"
    LOW_TAIL = "low_tail"
    HIGH_TAIL = "high_tail"


_RULE_ORDER = {Rule.ABSENT: 0, Rule.UNEXPECTED: 1, Rule.LOW_TAIL: 2, Rule.HIGH_TAIL: 3}


@dataclass
class NeuronClassModel:
    m: int  # total samples for the class
    q: int  # samples with positive activation
    theta: float  # q / m, exactly
    dist: Optional[FittedDist]  # None when degenerate
    positive_mean: Optional[float]  # mean of positive samples, if any

    @property
    def degenerate(self) -> bool:
        return self.dist is None

    def expected_value(self) -> float:
        """Mean of the fitted positive-activation density."""
        if self.dist is None:
            raise HurdleError("degenerate model has no fitted density")
        return self.dist.mean()


def fit_neuron(samples: np.ndarray) -> NeuronClassModel:
    """Hurdle model for one (class, neuron) sample of relu activations."""
    x = np.asarray(samples, dtype=np.float64)
    if np.any(x < 0):
        raise HurdleError("relu activations cannot be negative")
    m = len(x)
    if m == 0:
        return NeuronClassModel(0, 0, 0.0, None, None)
    positive = x[x > 0.0]
    q = len(positive)
    theta = q / m
    pos_mean = float(np.mean(positive)) if q else None
    dist = None
    if q >= MIN_POSITIVE_SAMPLES:
        dist = fit_best(positive)
    return NeuronClassModel(m, q, theta, dist, pos_mean)


# ---------------------------------------------------------------------------
# Latent collection


def collect_latents(classifier: nc.Network, data: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode feature activations and predicted classes for a dataset.

    Partitioning downstream uses what the classifier predicted, not the
    labels: the statistics describe what the model learned.
    """
    body, head = nc.split_at_tap(classifier)
    feats = nc.forward(body, data.flat()).output
    probs = nc.forward(head, feats).output
    return feats, np.argmax(probs, axis=1)


# ---------------------------------------------------------------------------
# Stats table


@dataclass
class StatsTable:
    alpha: float
    models: list  # models[class][neuron] -> NeuronClassModel
    classifier_sha: str = ""
    dataset_sha: str = ""

    @property
    def n_classes(self) -> int:
        return len(self.models)

    @property
    def n_neurons(self) -> int:
        return len(self.models[0])

    def empty_classes(self) -> list:
        return [c for c, ms in enumerate(self.models) if ms and ms[0].m == 0]


def fit_stats(
    classifier: nc.Network,
    data: Dataset,
    alpha: float = 0.05,
    classifier_sha: str = "",
    dataset_sha: str = "",
) -> tuple[StatsTable, np.ndarray, np.ndarray]:
    """Fit the full per-class hurdle table from training data.

    Returns the table plus the latent matrix and predicted classes so
    callers can persist them (nearest-neighbor metrics reuse the latents).
    """
    if not (0.0 < alpha < 0.5):
        raise HurdleError(f"alpha must be in (0, 0.5), got {alpha}")
    latents, predicted = collect_latents(classifier, data)
    models = []
    for cls in range(classifier.output_dim):
        part = latents[predicted == cls]
        row = [fit_neuron(part[:, i]) for i in range(latents.shape[1])]
        models.append(row)
    table = StatsTable(alpha, models, classifier_sha, dataset_sha)
    return table, latents, predicted


# ---------------------------------------------------------------------------
# Exceptionality


@dataclass(frozen=True)
class ExceptionalFeature:
    neuron: int
    rule: Rule
    probability: float  # the triggering tail probability, < alpha
    observed: float
    replacement: float  # expected value under the class model


def classify_exceptional(
    x: np.ndarray, models: list, alpha: float
) -> tuple[list, int]:
    """Flag exceptional features of a latent vector against one class.

    Returns the flagged features ordered from lowest probability to highest
    (ties by neuron index, then rule), plus the count of positive
    activations skipped because their neuron model is degenerate. All
    comparisons with alpha are strict, so probability == alpha never flags.
    A positive activation can fire `unexpected_activation` together with one
    tail rule; both records are kept.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or len(x) != len(models):
        raise HurdleError(
            f"latent width {x.shape} does not match model count {len(models)}"
        )
    if not (0.0 < alpha < 0.5):
        raise HurdleError(f"alpha must be in (0, 0.5), got {alpha}")
    found = []
    skipped = 0
    for i, (value, model) in enumerate(zip(x, models)):
        theta = model.theta
        if value <= 0.0:
            p_silent = 1.0 - theta
            if p_silent < alpha:
                if model.degenerate:
                    if model.positive_mean is None:
                        skipped += 1
                        continue
                    replacement = model.positive_mean
                else:
                    replacement = model.expected_value()
                found.append(
                    ExceptionalFeature(i, Rule.ABSENT, p_silent, float(value), replacement)
                )
            continue
        if model.degenerate:
            skipped += 1
            continue
        expected = model.expected_value()
        if theta < alpha:
            found.append(
                ExceptionalFeature(i, Rule.UNEXPECTED, theta, float(value), expected)
            )
        cdf = float(model.dist.cdf(np.asarray([float(value)]))[0])
        p_low = theta * cdf
        p_high = 1.0 - ((1.0 - theta) + theta * cdf)
        low = p_low < alpha
        high = ((1.0 - theta) + theta * cdf) > 1.0 - alpha
        if low and high:
            # possible when theta < 2*alpha: activating at all is borderline
            # rare, so both tails are thin; keep the more extreme one
            if p_low <= p_high:
                high = False
            else:
                low = False
        if low:
            found.append(
                ExceptionalFeature(i, Rule.LOW_TAIL, p_low, float(value), expected)
            )
        elif high:
            found.append(
                ExceptionalFeature(i, Rule.HIGH_TAIL, p_high, float(value), expected)
            )
    found.sort(key=lambda f: (f.probability, f.neuron, _RULE_ORDER[f.rule]))
    return found, skipped


# ---------------------------------------------------------------------------
# Serialization

STATS_MAGIC = "piece-stats"
# a stats record holds these fields of a NeuronClassModel, then its FittedDist's
_MODEL_KEYS = [f.name for f in fields(NeuronClassModel) if f.name != "dist"]


def save_stats(table: StatsTable, path) -> None:
    classes = []
    for row in table.models:
        neurons = []
        for mod in row:
            rec = {key: getattr(mod, key) for key in _MODEL_KEYS}
            rec.update(asdict(mod.dist) if mod.dist else {"family": "degenerate"})
            neurons.append(rec)
        classes.append(neurons)
    doc = {
        "format": STATS_MAGIC,
        "alpha": table.alpha,
        "classifier_sha": table.classifier_sha,
        "dataset_sha": table.dataset_sha,
        "classes": classes,
    }
    nc.write_json(path, doc, indent=1)


def load_stats(path) -> StatsTable:
    doc = nc.read_doc(path, STATS_MAGIC, HurdleError)
    models = []
    for row in doc["classes"]:
        neurons = []
        for rec in row:
            dist = None
            if rec["family"] != "degenerate":
                dist = FittedDist(**{f.name: rec[f.name] for f in fields(FittedDist)})
            neurons.append(NeuronClassModel(dist=dist, **{k: rec[k] for k in _MODEL_KEYS}))
        models.append(neurons)
    return StatsTable(
        doc["alpha"], models, doc.get("classifier_sha", ""), doc.get("dataset_sha", "")
    )


def save_latents(latents: np.ndarray, predicted: np.ndarray, path) -> None:
    doc = {
        "format": "piece-latents",
        "shape": list(latents.shape),
        "latents": nc.encode_array(latents),
        "predicted": predicted.tolist(),
    }
    nc.write_json(path, doc)


def load_latents(path) -> tuple[np.ndarray, np.ndarray]:
    doc = nc.read_doc(path, "piece-latents", HurdleError)
    latents = nc.decode_array(
        doc["latents"], tuple(doc["shape"]), f"{path}: latents", HurdleError
    )
    return latents, np.asarray(doc["predicted"], dtype=np.int64)
