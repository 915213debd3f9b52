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
from .datagen import CLASS_NAMES, Dataset
from .distfit import PARAMS, FittedDist, fit_best

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


# what each field of a stats document holds, of each of its model records,
# and of a fitted model's density, whose parameters are its family's
_STATS_FIELDS = {"classes": ((lambda v: isinstance(v, list) and all(map(nc.is_objects, v))),
                             "a list of lists of objects")}
_MODEL_FIELDS = {
    "m": nc.COUNT, "q": nc.COUNT,
    "theta": ((lambda v: nc.is_finite(v) and 0 <= v <= 1), "a number in [0, 1]"),
    "positive_mean": ((lambda v: v is None or nc.is_finite(v)), "null or a finite number"),
    "family": nc.one_of(("degenerate", *PARAMS), "degenerate or a known family"),
}
_PARAMS_RULES = {family: nc.finite_mapping(*spec) for family, spec in PARAMS.items()}
_DIST_FIELDS = {"loc_fixed": nc.BOOL, "params": lambda rec: _PARAMS_RULES[rec["family"]],
                "ks_stat": nc.FINITE, "ks_p": nc.FINITE}


def load_stats(path) -> StatsTable:
    """The stats table saved at `path` (`save_stats`). A field that does not
    hold what `_STATS_FIELDS`, `_MODEL_FIELDS` or, for a fitted model,
    `_DIST_FIELDS` asks raises HurdleError naming the file, the class and
    neuron of a model record, and the key."""
    doc = nc.read_doc(path, STATS_MAGIC, HurdleError, _STATS_FIELDS)
    models = []
    for c, row in enumerate(doc["classes"]):
        neurons = []
        for i, rec in enumerate(row):
            where = f"{path}: class {c}, neuron {i}"
            nc.check_fields(rec, _MODEL_FIELDS, where, HurdleError)
            dist = None
            if rec["family"] != "degenerate":
                nc.check_fields(rec, _DIST_FIELDS, where, HurdleError)
                dist = FittedDist(**{k: rec[k] for k in _DIST_KEYS})
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


# what each field of a latents document holds
_LATENTS_FIELDS = {
    "shape": nc.counts(2),
    "latents": nc.BASE64,
    "predicted": lambda doc: nc.class_indices(doc["shape"][0], len(CLASS_NAMES)),
}


def load_latents(path) -> tuple[np.ndarray, np.ndarray]:
    """The latent matrix and the predicted classes saved at `path`
    (`save_latents`). A field that does not hold what `_LATENTS_FIELDS`
    asks raises HurdleError naming the file and the key."""
    doc = nc.read_doc(path, "piece-latents", HurdleError, _LATENTS_FIELDS)
    shape = tuple(doc["shape"])
    latents = nc.decode_array(doc["latents"], shape, f"{path}: latents", HurdleError)
    return latents, np.asarray(doc["predicted"], dtype=np.int64)
