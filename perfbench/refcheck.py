"""Checks of the program's outputs, computed apart from the program.

The network, dataset and latents files are decoded here from their
documented JSON layouts, and a plain numpy forward (dense, relu, sigmoid,
softmax, dropout as identity) renders latent codes and classifies images.
Nothing in this module calls `piece.netcore`, so a fault in the program's
own forward pass cannot hide a fault in its outputs.

Every check returns a list of problems (empty when the output is right).
A class decision whose two largest probabilities lie within `TIE` of each
other is treated as undecided and accepted either way, so rounding in the
last bits of a sum cannot turn into a reported failure.
"""

from __future__ import annotations

import base64
import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

TIE = 1e-9
FRACTIONS = (0.25, 0.5, 0.75, 1.0)


def _floats(text: str, count: int) -> np.ndarray:
    raw = base64.b64decode(text.encode("ascii"))
    if len(raw) != 8 * count:
        raise ValueError(f"expected {8 * count} bytes of float64, got {len(raw)}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


@dataclass
class RefNet:
    """Decoded network: ('dense', W, b) or (kind,) per layer."""

    layers: list
    feature_tap: int | None

    def run(self, x, stop: int | None = None) -> np.ndarray:
        """Eval-mode forward of a row or batch; `stop` ends after that layer."""
        cur = np.atleast_2d(np.asarray(x, dtype=np.float64))
        last = len(self.layers) - 1 if stop is None else stop
        for layer in self.layers[: last + 1]:
            kind = layer[0]
            if kind == "dense":
                cur = cur @ layer[1].T + layer[2]
            elif kind == "relu":
                cur = np.where(cur > 0.0, cur, 0.0)
            elif kind == "sigmoid":
                cur = 1.0 / (1.0 + np.exp(-np.clip(cur, -700.0, 700.0)))
            elif kind == "softmax":
                e = np.exp(cur - cur.max(axis=1, keepdims=True))
                cur = e / e.sum(axis=1, keepdims=True)
            elif kind == "dropout":
                pass
            else:
                raise ValueError(f"unknown layer kind {kind!r}")
        return cur

    def features(self, x) -> np.ndarray:
        return self.run(x, stop=self.feature_tap)


def load_net(path) -> RefNet:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    layers = []
    for spec in doc["layers"]:
        if spec["kind"] == "dense":
            out_dim, in_dim = int(spec["out_dim"]), int(spec["in_dim"])
            w = _floats(spec["weight"], out_dim * in_dim).reshape(out_dim, in_dim)
            layers.append(("dense", w, _floats(spec["bias"], out_dim)))
        else:
            layers.append((spec["kind"],))
    return RefNet(layers, doc.get("feature_tap"))


def load_images(path) -> tuple[np.ndarray, np.ndarray]:
    """(images (n, H, W), labels) of a dataset file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    shape = tuple(doc["shape"])
    images = _floats(doc["images"], int(np.prod(shape))).reshape(shape)
    return images, np.asarray(doc["labels"], dtype=np.int64)


def load_latents(path) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    shape = tuple(doc["shape"])
    return _floats(doc["latents"], int(np.prod(shape))).reshape(shape)


def read_csv(path) -> list[dict]:
    """Rows as dicts; NA becomes None, true/false become bools."""

    def cell(v: str):
        if v == "NA":
            return None
        if v in ("true", "false"):
            return v == "true"
        return v

    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [{k: cell(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def close(a: float, b: float) -> bool:
    """Equal to the 9 significant digits the reports print."""
    return math.isclose(float(a), float(b), rel_tol=1e-7, abs_tol=1e-9)


@dataclass
class RunView:
    """What the checks need from one run directory, decoded independently."""

    root: str
    classifier: RefNet
    generator: RefNet
    test_images: np.ndarray
    test_labels: np.ndarray
    train_images: np.ndarray
    train_labels: np.ndarray
    latents: np.ndarray

    @classmethod
    def load(cls, root: str) -> "RunView":
        test_x, test_y = load_images(os.path.join(root, "dataset", "test.json"))
        train_x, train_y = load_images(os.path.join(root, "dataset", "train.json"))
        return cls(
            root,
            load_net(os.path.join(root, "models", "classifier.json")),
            load_net(os.path.join(root, "models", "generator.json")),
            test_x,
            test_y,
            train_x,
            train_y,
            load_latents(os.path.join(root, "stats", "latents.json")),
        )

    def render(self, z) -> np.ndarray:
        """Flat image(s) the generator draws for latent code(s) z."""
        return self.generator.run(z)

    def classify(self, flat) -> tuple[int, bool]:
        """(predicted class, decided) for one flat image."""
        probs = self.classifier.run(flat)[0]
        top = np.sort(probs)[-2:]
        return int(np.argmax(probs)), bool(top[1] - top[0] > TIE)

    def test_probs(self) -> np.ndarray:
        return self.classifier.run(self.test_images.reshape(len(self.test_images), -1))

    def nn_dist(self, flat) -> float:
        feats = self.classifier.features(flat)[0]
        return float(np.sqrt(np.min(np.sum((self.latents - feats) ** 2, axis=1))))


# ---------------------------------------------------------------------------
# One explanation record (explain-single, and the PIECE records of expt1)


def check_record(view: RunView, doc: dict, index: int, mode: str, fraction) -> list:
    """Properties one `piece explain` record must have.

    - `verified` equals classifying the rendering of `z_prime`;
    - a counterfactual changes the class and is verified, so its rendering
      is in class `c'`; a semi-factual or proportional rendering stays in
      class `c`;
    - every applied step sets `x_mod[neuron]` to its replacement and all
      other entries equal `x`;
    - applied features were flagged below alpha, in non-decreasing
      probability order;
    - proportional: applied_count == ceil(fraction * k_reference).
    """
    problems = []
    image = view.test_images[index].ravel()
    pred0, decided0 = view.classify(image)
    if doc["image_id"] != index or doc["mode"] != mode:
        problems.append(f"record is for image {doc['image_id']} mode {doc['mode']}")
    if decided0 and doc["c"] != pred0:
        problems.append(f"c={doc['c']} but the classifier predicts {pred0}")
    x = np.asarray(doc["x"])
    if not np.allclose(x, view.classifier.features(image)[0], rtol=1e-9, atol=1e-9):
        problems.append("x is not the feature vector of the test image")

    rendered = view.render(np.asarray(doc["z_prime"]))
    pred, decided = view.classify(rendered)
    intended = doc["c_prime"] if mode == "counterfactual" else doc["c"]
    if doc["intended_class"] != intended:
        problems.append(f"intended_class {doc['intended_class']} != {intended}")
    if decided and doc["verified"] != (pred == intended):
        problems.append(
            f"verified={doc['verified']} but the rendering classifies as {pred} "
            f"(intended {intended})"
        )
    if doc["true_label"] != int(view.test_labels[index]):
        problems.append(f"true_label {doc['true_label']} != {int(view.test_labels[index])}")
    if doc["c"] != doc["true_label"] and not (
        doc["trivially_selected"] and doc["c_prime"] == doc["true_label"]
    ):
        problems.append("a misclassified image did not take its true label as c'")
    if mode == "counterfactual" and doc["c_prime"] == doc["c"]:
        problems.append(f"counterfactual class equals the predicted class {doc['c']}")
    if mode == "counterfactual" and not doc["verified"]:
        problems.append(f"counterfactual not delivered: the rendering is not in class {intended}")
    if mode != "counterfactual" and decided and pred != doc["c"]:
        problems.append(f"{mode} rendering left class {doc['c']} (classified {pred})")

    expected = x.copy()
    applied = [s for s in doc["steps"] if s["applied"]]
    for s in applied:
        expected[s["neuron"]] = s["new"]
    if not np.array_equal(np.asarray(doc["x_mod"]), expected):
        problems.append("x_mod differs from x with the applied replacements")
    probs = [s["probability"] for s in applied]
    if any(p >= doc["alpha"] for p in probs):
        problems.append("an applied feature was not flagged below alpha")
    if any(a > b for a, b in zip(probs, probs[1:])):
        problems.append("applied features are not in non-decreasing probability order")
    flagged = {(f["neuron"], f["rule"], f["probability"]) for f in doc["exceptional"]}
    if any((s["neuron"], s["rule"], s["probability"]) not in flagged for s in applied):
        problems.append("an applied step is not among the flagged exceptional features")
    if doc["applied_count"] != len(applied):
        problems.append(f"applied_count {doc['applied_count']} != {len(applied)} applied steps")
    if mode == "proportional":
        want = math.ceil(fraction * doc["k_reference"])
        if doc["applied_count"] != want:
            problems.append(
                f"proportional applied_count {doc['applied_count']} != "
                f"ceil({fraction} * {doc['k_reference']}) = {want}"
            )
    return problems


def load_record(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Experiment 1


def _knn1_accuracy(ref: np.ndarray, ref_y: np.ndarray, test: np.ndarray, test_y) -> tuple:
    """1-NN accuracy by direct squared differences, plus the number of test
    images whose two nearest references are tied within TIE (either label
    may then be right)."""
    hits = 0
    ties = 0
    for start in range(0, len(test), 16):
        block = test[start : start + 16]
        d2 = np.sum((block[:, None, :] - ref[None, :, :]) ** 2, axis=2)
        nearest = np.argmin(d2, axis=1)
        hits += int(np.sum(ref_y[nearest] == test_y[start : start + 16]))
        if d2.shape[1] > 1:
            two = np.sort(d2, axis=1)[:, :2]
            ties += int(np.sum(two[:, 1] - two[:, 0] <= TIE * np.maximum(1.0, two[:, 1])))
    return hits / len(test), ties


def check_expt1(view: RunView) -> tuple[int, dict, list]:
    """(attempted rows, {row: problems}, run-level problems) of expt1."""
    rep = os.path.join(view.root, "reports")
    rows = read_csv(os.path.join(rep, "expt1_rows.csv"))
    cases = read_csv(os.path.join(rep, "expt1_testset.csv"))
    run_problems = []
    row_problems = {}
    ids = [int(c["image_id"]) for c in cases]
    keys = {(r["method"], int(r["image_id"])) for r in rows}
    want = {(m, i) for m in ("piece", "min_edit", "c_min_edit") for i in ids}
    if len(rows) != 3 * len(cases) or keys != want:
        run_problems.append(
            f"expt1 has {len(rows)} rows for {len(cases)} test images; want one row "
            f"per method and image"
        )

    expl = {m: ([], []) for m in ("piece", "min_edit", "c_min_edit")}
    by_key = {(r["method"], int(r["image_id"])): r for r in rows}
    for image_id in ids:
        for method in ("piece", "min_edit", "c_min_edit"):
            row = by_key.get((method, image_id))
            if row is None:
                continue
            bad = _check_expt1_row(view, row, method, image_id, expl)
            if bad:
                row_problems[f"expt1 {method} image {image_id}"] = bad

    subst = read_csv(os.path.join(rep, "expt1_substitutability.csv"))
    test_flat = view.test_images.reshape(len(view.test_images), -1)
    train_flat = view.train_images.reshape(len(view.train_images), -1)
    ref_acc, ref_ties = _knn1_accuracy(train_flat, view.train_labels, test_flat, view.test_labels)
    slack = 1.0 / len(test_flat)
    for row in subst:
        if int(row["k"]) != 1:
            continue
        images, classes = expl[row["method"]]
        if int(row["n_explanations"]) != len(images):
            run_problems.append(
                f"substitutability {row['method']}: {row['n_explanations']} "
                f"explanations reported, {len(images)} recomputed"
            )
            continue
        acc, ties = _knn1_accuracy(
            np.stack(images), np.asarray(classes), test_flat, view.test_labels
        )
        if abs(float(row["accuracy"]) - acc) > ties * slack + 1e-9:
            run_problems.append(
                f"substitutability {row['method']}: 1-NN accuracy {row['accuracy']} "
                f"reported, {acc:.9g} recomputed"
            )
        if abs(float(row["reference_accuracy"]) - ref_acc) > ref_ties * slack + 1e-9:
            run_problems.append(
                f"substitutability reference accuracy {row['reference_accuracy']} "
                f"reported, {ref_acc:.9g} recomputed"
            )
    return len(rows), row_problems, run_problems


def _check_expt1_row(view, row, method, image_id, expl) -> list:
    problems = []
    base = os.path.join(view.root, "explanations", "expt1")
    if not row["failed"]:
        if not 0.0 <= float(row["mc_mean"]) <= 1.0:
            problems.append(f"mc_mean {row['mc_mean']} outside [0, 1]")
        if float(row["mc_std"]) < 0.0:
            problems.append(f"mc_std {row['mc_std']} negative")
    c_prime = int(row["c_prime"])
    if method == "piece":
        if row["failed"]:
            return problems + ["the explanation could not be prepared"]
        doc = load_record(os.path.join(base, f"piece_cf_{image_id:04d}.json"))
        problems += check_record(view, doc, image_id, "counterfactual", None)
        if doc["verified"] != row["verified"] or doc["c_prime"] != c_prime:
            problems.append("row and record disagree on verified or c_prime")
        flat = view.render(np.asarray(doc["z_prime"]))
        if not close(row["nn_dist"], view.nn_dist(flat)):
            problems.append(f"nn_dist {row['nn_dist']} != {view.nn_dist(flat):.9g}")
        if row["verified"]:
            expl["piece"][0].append(flat[0])
            expl["piece"][1].append(c_prime)
        return problems
    doc = load_record(os.path.join(base, f"{method}_cf_{image_id:04d}.json"))
    if doc["failed"] != row["failed"]:
        problems.append("row and record disagree on failure")
    if doc["failed"]:
        if not doc["failure_reason"]:
            problems.append("failed run without a failure_reason")
        return problems
    flat = view.render(np.asarray(doc["z_prime"]))
    pred, decided = view.classify(flat)
    if decided and row["verified"] != (pred == c_prime):
        problems.append(f"verified={row['verified']} but the rendering classifies as {pred}")
    expl[method][0].append(flat[0])
    expl[method][1].append(c_prime)
    return problems
