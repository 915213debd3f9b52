"""Plausibility and semifactual metrics, plus CSV report assembly.

All metrics are pure given their inputs and seed. Metrics that would divide
by (near) zero return None, which the reports render as NA and exclude from
aggregates rather than silently clamping.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import netcore as nc


class MetricError(Exception):
    pass


_GUARD = 1e-12


def mc_dropout(
    classifier: nc.Network,
    image: np.ndarray,
    target_class: int,
    passes: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """Mean and sample std (ddof 1) of the target-class probability over
    `passes` dropout passes: the rows of one train-mode `forward` of the
    image repeated `passes` times, seeded with `seed`, so that one
    `default_rng(seed)` stream draws every pass's masks. One pass has std 0.0."""
    if not classifier.plan.has_dropout:
        raise MetricError("classifier has no dropout layer; mc_dropout undefined")
    if passes < 1:
        raise MetricError("need at least one pass")
    flat = np.asarray(image, dtype=np.float64).ravel()
    rows = np.repeat(flat[None, :], passes, axis=0)
    probs = nc.forward(classifier, rows, "train", rng_seed=seed).output
    values = probs[:, target_class]
    std = float(np.std(values, ddof=1)) if passes > 1 else 0.0
    return float(np.mean(values)), std


def nn_dist(x_prime: np.ndarray, latents: np.ndarray) -> float:
    """Euclidean distance to the nearest training latent."""
    x = np.asarray(x_prime, dtype=np.float64)
    table = np.asarray(latents, dtype=np.float64)
    if table.ndim != 2 or len(table) == 0:
        raise MetricError("latent table must be a nonempty 2-d array")
    if x.shape != (table.shape[1],):
        raise MetricError(
            f"latent width mismatch: {x.shape} vs table width {table.shape[1]}"
        )
    return float(np.sqrt(np.min(np.sum((table - x) ** 2, axis=1))))


def _reconstruct(ae: nc.Network, flat: np.ndarray) -> np.ndarray:
    return nc.forward(ae, flat).output


def im1(image: np.ndarray, ae_c: nc.Network, ae_c_prime: nc.Network) -> Optional[float]:
    """Ratio of squared reconstruction errors: counterfactual-class
    autoencoder over original-class autoencoder (lower is better)."""
    flat = np.asarray(image, dtype=np.float64).ravel()
    num = float(np.sum((flat - _reconstruct(ae_c_prime, flat)) ** 2))
    den = float(np.sum((flat - _reconstruct(ae_c, flat)) ** 2))
    if den < _GUARD:
        return None
    return num / den


def im2(image: np.ndarray, ae_c_prime: nc.Network, ae_full: nc.Network) -> Optional[float]:
    """Disagreement between the class autoencoder and the full-data
    autoencoder, normalized by the image's L1 mass."""
    flat = np.asarray(image, dtype=np.float64).ravel()
    num = float(np.sum((_reconstruct(ae_c_prime, flat) - _reconstruct(ae_full, flat)) ** 2))
    den = float(np.sum(np.abs(flat)))
    if den < _GUARD:
        return None
    return num / den


def sf_l1(image_a: np.ndarray, image_b: np.ndarray) -> float:
    a = np.asarray(image_a, dtype=np.float64)
    b = np.asarray(image_b, dtype=np.float64)
    if a.shape != b.shape:
        raise MetricError(f"image shapes differ: {a.shape} vs {b.shape}")
    return float(np.sum(np.abs(a - b)))


def pearson(xs, ys) -> Optional[float]:
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 3:
        raise MetricError("pearson needs two equal-length 1-d arrays, n >= 3")
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt(np.sum(xc * xc) * np.sum(yc * yc))
    if denom < _GUARD:
        return None
    return float(np.sum(xc * yc) / denom)


# ---------------------------------------------------------------------------
# Pixel-space k-NN and substitutability


_SORT_BLOCK = 64  # test rows per argsort in `knn_predict`


def knn_predict(
    train_x: np.ndarray, train_y: np.ndarray, test_x: np.ndarray, k: int = 1
) -> np.ndarray:
    """Brute-force k-nearest-neighbor labels; deterministic tie-breaking
    (majority vote, then closest member, then smallest class id)."""
    if k < 1 or k > len(train_x):
        raise MetricError(f"k={k} invalid for {len(train_x)} training points")
    # |t|^2 - 2 t.r + |r|^2, operation by operation, in one array
    d2 = 2.0 * test_x @ train_x.T
    np.subtract(np.sum(test_x**2, axis=1)[:, None], d2, out=d2)
    d2 += np.sum(train_x**2, axis=1)[None, :]
    # each row sorts alone, so blocks of rows need no full-size index array
    order = np.empty((len(test_x), k), dtype=np.intp)
    for start in range(0, len(test_x), _SORT_BLOCK):
        block = slice(start, start + _SORT_BLOCK)
        order[block] = np.argsort(d2[block], axis=1, kind="stable")[:, :k]
    out = np.empty(len(test_x), dtype=np.int64)
    for i, idx in enumerate(order):
        labels = train_y[idx]
        counts = np.bincount(labels)
        best = counts.max()
        tied = np.flatnonzero(counts == best)
        if len(tied) == 1:
            out[i] = tied[0]
        else:
            for lab in labels:  # idx is distance-ordered
                if lab in tied:
                    out[i] = lab
                    break
    return out


def knn_accuracy(
    train_x, train_y, test_x, test_y, k: int = 1
) -> float:
    pred = knn_predict(np.asarray(train_x), np.asarray(train_y), np.asarray(test_x), k)
    return float(np.mean(pred == np.asarray(test_y)))


@dataclass
class SubstitutabilityResult:
    k: int
    accuracy: Optional[float]
    reference_accuracy: float
    score: Optional[float]  # accuracy / reference_accuracy * 100
    missing_classes: list
    n_explanations: int


def substitutability(
    expl_images: np.ndarray,
    intended_classes: np.ndarray,
    ref_images: np.ndarray,
    ref_labels: np.ndarray,
    test_images: np.ndarray,
    test_labels: np.ndarray,
    k: int = 1,
    reference_accuracy: Optional[float] = None,
) -> SubstitutabilityResult:
    """How well explanations substitute for real training data: accuracy of
    a pixel-space k-NN trained on the explanation images (labelled with
    their intended classes), normalized by the same k-NN trained on the
    reference training set. With fewer explanations than `k` their k-NN is
    undefined, and accuracy and score are None. `reference_accuracy`, when
    given, is the reference k-NN's accuracy (`knn_accuracy`) on these test
    images at this `k`, which is then not computed again."""
    expl = np.asarray(expl_images, dtype=np.float64).reshape(len(expl_images), -1)
    intended = np.asarray(intended_classes, dtype=np.int64)
    if len(expl) == 0:
        raise MetricError("no explanation images")
    ref = np.asarray(ref_images, dtype=np.float64).reshape(len(ref_images), -1)
    tst = np.asarray(test_images, dtype=np.float64).reshape(len(test_images), -1)
    tst_y = np.asarray(test_labels, dtype=np.int64)
    present = set(int(v) for v in np.unique(intended))
    missing = sorted(set(int(v) for v in np.unique(ref_labels)) - present)
    ref_acc = reference_accuracy
    if ref_acc is None:
        ref_acc = knn_accuracy(ref, np.asarray(ref_labels, dtype=np.int64), tst, tst_y, k)
    if ref_acc < _GUARD:
        raise MetricError("reference k-NN accuracy is zero; score undefined")
    if k > len(expl):
        return SubstitutabilityResult(k, None, ref_acc, None, missing, len(expl))
    acc = knn_accuracy(expl, intended, tst, tst_y, k)
    return SubstitutabilityResult(
        k, acc, ref_acc, 100.0 * acc / ref_acc, missing, len(expl)
    )


# ---------------------------------------------------------------------------
# Report assembly


ROW_COLUMNS = (
    "method",
    "mode",
    "image_id",
    "c",
    "c_prime",
    "mc_mean",
    "mc_std",
    "nn_dist",
    "im1",
    "im2",
    "l1",
    "verified",
    "failed",
)

_METRIC_COLUMNS = ("mc_mean", "mc_std", "nn_dist", "im1", "im2", "l1")


@dataclass
class MetricRow:
    """One explanation of one image by one method, and its metrics.

    Both experiments build one list of these, and each report table is a
    projection of that list onto some columns (`write_rows`) or an
    aggregate of it (`aggregate`). The fields from `fraction` on are only
    set on experiment 2's budget rows. The experiments differ on purpose in
    two ways: experiment 1 counts only `failed` rows as failures, while
    experiment 2 also counts unverified rows; and experiment 1 sorts its
    rows (`build_report`), while experiment 2 writes them in loop order.
    """

    method: str
    mode: str
    image_id: int
    c: int
    c_prime: int
    mc_mean: Optional[float] = None
    mc_std: Optional[float] = None
    nn_dist: Optional[float] = None
    im1: Optional[float] = None
    im2: Optional[float] = None
    l1: Optional[float] = None
    verified: bool = False
    failed: bool = False
    fraction: Optional[float] = None
    target_distance: Optional[float] = None  # latent displacement to match
    applied_count: Optional[int] = None
    k_reference: Optional[int] = None

    def key(self) -> tuple:
        return (self.method, self.mode, self.image_id)


@dataclass
class MetricReport:
    rows: list
    aggregates: list  # dicts: method, mode, metric, mean, std, n, failures


def aggregate(rows: list, metric: str) -> dict:
    """Mean, sample std and count of `metric` over the rows that did not
    fail and have a value, and the number of failed rows."""
    values = [
        getattr(r, metric) for r in rows if not r.failed and getattr(r, metric) is not None
    ]
    return {
        "mean": float(np.mean(values)) if values else None,
        "std": float(np.std(values, ddof=1)) if len(values) > 1 else None,
        "n": len(values),
        "failures": sum(1 for r in rows if r.failed),
    }


def build_report(rows: list) -> MetricReport:
    """Sort rows deterministically, validate key uniqueness, and compute
    per-(method, mode) aggregates with failures excluded but counted."""
    ordered = sorted(rows, key=lambda r: r.key())
    seen = set()
    for r in ordered:
        if r.key() in seen:
            raise MetricError(f"duplicate report row key {r.key()}")
        seen.add(r.key())
    groups: dict = {}
    for r in ordered:
        groups.setdefault((r.method, r.mode), []).append(r)
    aggregates = [
        {"method": method, "mode": mode, "metric": metric, **aggregate(members, metric)}
        for (method, mode), members in sorted(groups.items())
        for metric in _METRIC_COLUMNS
    ]
    return MetricReport(ordered, aggregates)


def format_value(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    return str(value)


def write_csv(path, header, rows) -> None:
    """Deterministic CSV: fixed column order, 9 significant digits."""
    with nc.atomic_write(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])


def write_rows(path, columns, rows: list) -> None:
    """The CSV of `rows` (MetricRows) projected onto `columns`."""
    write_csv(path, columns, [[getattr(r, col) for col in columns] for r in rows])


def write_report_aggregates(report: MetricReport, path) -> None:
    header = ("method", "mode", "metric", "mean", "std", "n", "failures")
    write_csv(
        path, header, [[agg[h] for h in header] for agg in report.aggregates]
    )
