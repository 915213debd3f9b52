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
import sys
from dataclasses import asdict, dataclass, fields
from typing import Optional

import numpy as np

from . import netcore as nc
from .datagen import CLASS_NAMES, Dataset
from .distfit import FAMILIES, FittedDist, fit_best

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
    models: list  # models[class][neuron] -> NeuronClassModel

    @property
    def n_classes(self) -> int:
        return len(self.models)

    @property
    def n_neurons(self) -> int:
        return len(self.models[0])

    def empty_classes(self) -> list:
        return [c for c, ms in enumerate(self.models) if ms and ms[0].m == 0]


def fit_stats(classifier: nc.Network, data: Dataset) -> tuple[StatsTable, np.ndarray, np.ndarray]:
    """Fit the full per-class hurdle table from training data.

    Returns the table plus the latent matrix and predicted classes so
    callers can persist them (nearest-neighbor metrics reuse the latents).
    """
    latents, predicted = collect_latents(classifier, data)
    models = []
    for cls in range(classifier.output_dim):
        part = latents[predicted == cls]
        row = [fit_neuron(part[:, i]) for i in range(latents.shape[1])]
        models.append(row)
    return StatsTable(models), latents, predicted


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
_DIST_KEYS = [f.name for f in fields(FittedDist)]


def save_stats(table: StatsTable, path) -> None:
    classes = []
    for row in table.models:
        neurons = []
        for mod in row:
            rec = {key: getattr(mod, key) for key in _MODEL_KEYS}
            rec.update(asdict(mod.dist) if mod.dist else {"family": "degenerate"})
            neurons.append(rec)
        classes.append(neurons)
    nc.write_json(path, {"format": STATS_MAGIC, "classes": classes}, indent=1)


def _finite(value) -> bool:
    """Whether a decoded JSON value is a finite float64 (a bool is not)."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def _count(value) -> bool:
    return type(value) is int and value >= 0


# what each field of a stats record must hold, as (check, description): the
# fields of every model, then those of a fitted model's density
_MODEL_FIELDS = {
    "m": (_count, "a count"),
    "q": (_count, "a count"),
    "theta": (lambda v: _finite(v) and 0 <= v <= 1, "a number in [0, 1]"),
    "positive_mean": (lambda v: v is None or _finite(v), "null or a finite number"),
    "family": (lambda v: v == "degenerate" or v in FAMILIES, "degenerate or a known family"),
}
_DIST_FIELDS = {
    "loc_fixed": (lambda v: type(v) is bool, "a bool"),
    "params": (lambda v: isinstance(v, dict) and all(map(_finite, v.values())),
               "a mapping of finite numbers"),
    "ks_stat": (_finite, "a finite number"),
    "ks_p": (_finite, "a finite number"),
}
_FITTED_FIELDS = {**_MODEL_FIELDS, **_DIST_FIELDS}


def load_stats(path) -> StatsTable:
    """The stats table saved at `path` (`save_stats`). A `classes` that is not
    a list of lists of objects raises HurdleError naming the file; a model
    field that does not hold what `_MODEL_FIELDS` or, for a fitted model,
    `_DIST_FIELDS` asks, raises HurdleError naming the file, the class, the
    neuron and the key."""
    doc = nc.read_doc(path, STATS_MAGIC, HurdleError)
    classes = doc["classes"]
    if not (isinstance(classes, list) and all(
            isinstance(row, list) and all(isinstance(rec, dict) for rec in row)
            for row in classes)):
        raise HurdleError(f"{path}: classes: not a list of lists of objects")
    models = []
    for c, row in enumerate(classes):
        neurons = []
        for i, rec in enumerate(row):
            fitted = rec["family"] != "degenerate"
            for key, (check, what) in (_FITTED_FIELDS if fitted else _MODEL_FIELDS).items():
                if not check(rec[key]):
                    raise HurdleError(
                        f"{path}: class {c}, neuron {i}: {key} {rec[key]!r} is not {what}"
                    )
            dist = FittedDist(**{k: rec[k] for k in _DIST_KEYS}) if fitted else None
            neurons.append(NeuronClassModel(dist=dist, **{k: rec[k] for k in _MODEL_KEYS}))
        models.append(neurons)
    return StatsTable(models)


def save_latents(latents: np.ndarray, predicted: np.ndarray, path) -> None:
    doc = {
        "format": "piece-latents",
        "shape": list(latents.shape),
        "latents": nc.encode_array(latents),
        "predicted": predicted.tolist(),
    }
    nc.write_json(path, doc)


def load_latents(path) -> tuple[np.ndarray, np.ndarray]:
    """The latent matrix and the predicted classes saved at `path`
    (`save_latents`). A `latents` that is not a string, a `shape` that is
    not two counts, or a `predicted` that is not one class index per latent
    row raises HurdleError naming the file and the key."""
    doc = nc.read_doc(path, "piece-latents", HurdleError)
    shape, predicted = doc["shape"], doc["predicted"]
    if not isinstance(doc["latents"], str):
        raise HurdleError(f"{path}: latents: not a string")
    if not (isinstance(shape, list) and len(shape) == 2
            and all(type(v) is int and v >= 0 for v in shape)):
        raise HurdleError(f"{path}: shape: {shape!r} is not two counts")
    if not (isinstance(predicted, list) and len(predicted) == shape[0]
            and all(type(v) is int and 0 <= v < len(CLASS_NAMES) for v in predicted)):
        raise HurdleError(f"{path}: predicted: not one class index per latent row")
    latents = nc.decode_array(doc["latents"], tuple(shape), f"{path}: latents", HurdleError)
    return latents, np.asarray(predicted, dtype=np.int64)
