"""Procedural toy glyph dataset, its files and manifest, and PGM image files.

Four glyph families (horizontal bar, cross, ring, diagonal stroke) drawn on
a small square frame with seeded jitter in position, stroke thickness,
intensity, and additive noise. Generation is fully deterministic given
(params, split): the same call always yields byte-identical arrays.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

import numpy as np

from .netcore import Array, atomic_write, decode_array, encode_array, read_doc, write_json


class DataError(Exception):
    pass


class DatasetFormatError(DataError):
    """A dataset file that does not parse or does not decode."""


CLASS_NAMES = ("bar", "cross", "ring", "diagonal")

_SPLIT_CODE = {"train": 0, "test": 1}


@dataclass(frozen=True)
class GlyphParams:
    side: int = 16
    n_classes: int = 4
    translate_jitter: int = 2  # pixels, each axis
    thickness_min: int = 1
    thickness_max: int = 3
    intensity_min: float = 0.7
    intensity_max: float = 1.0
    noise_sigma: float = 0.05
    seed: int = 0

    def validate(self) -> None:
        if self.side < 12:
            raise DataError("frame side must be at least 12 pixels")
        if not (1 <= self.n_classes <= len(CLASS_NAMES)):
            raise DataError(f"n_classes must be in 1..{len(CLASS_NAMES)}")
        if self.thickness_min < 1 or self.thickness_max < self.thickness_min:
            raise DataError("bad thickness range")
        # strokes plus translation must stay inside the frame
        margin = 3 + self.translate_jitter + (self.thickness_max - 1)
        if margin >= self.side - margin + self.thickness_max:
            raise DataError("thickness/translation jitter exceeds the frame")
        if self.thickness_max > 3:
            raise DataError("thickness above 3 px breaks the frame margins")
        if not (0.0 < self.intensity_min <= self.intensity_max <= 1.0):
            raise DataError("bad intensity range")
        if self.noise_sigma < 0:
            raise DataError("noise sigma must be nonnegative")


@dataclass
class Dataset:
    images: Array  # (n, side, side), values in [0, 1]
    labels: Array  # (n,) int64
    split: str

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.images.ndim != 3:
            raise DataError(f"images must be (n, H, W), got {self.images.shape}")
        if len(self.labels) != len(self.images):
            raise DataError("labels length does not match image count")
        if self.images.size and (self.images.min() < 0.0 or self.images.max() > 1.0):
            raise DataError("image values must lie in [0, 1]")

    def __len__(self) -> int:
        return len(self.images)

    @property
    def n_pixels(self) -> int:
        return self.images.shape[1] * self.images.shape[2]

    def flat(self) -> Array:
        return self.images.reshape(len(self.images), -1)


# ---------------------------------------------------------------------------
# Glyph drawing


def _draw_bar(canvas: Array, dy: int, dx: int, t: int) -> None:
    side = canvas.shape[0]
    mid = side // 2 - 1
    r0 = mid + dy - (t - 1) // 2
    canvas[r0 : r0 + t, 3 + dx : side - 3 + dx] = 1.0


def _draw_cross(canvas: Array, dy: int, dx: int, t: int) -> None:
    side = canvas.shape[0]
    mid = side // 2 - 1
    _draw_bar(canvas, dy, dx, t)
    c0 = mid + dx - (t - 1) // 2
    canvas[3 + dy : side - 3 + dy, c0 : c0 + t] = 1.0


def _draw_ring(canvas: Array, dy: int, dx: int, t: int) -> None:
    side = canvas.shape[0]
    cy = (side - 1) / 2.0 + dy
    cx = (side - 1) / 2.0 + dx
    radius = side * 0.22
    rr, cc = np.mgrid[0:side, 0:side]
    dist = np.hypot(rr - cy, cc - cx)
    canvas[np.abs(dist - radius) <= t / 2.0] = 1.0


def _draw_diagonal(canvas: Array, dy: int, dx: int, t: int) -> None:
    side = canvas.shape[0]
    r0, c0 = 3 + dy, 3 + dx
    span = side - 6
    rr, cc = np.mgrid[0:side, 0:side]
    inside = (rr >= r0) & (rr < r0 + span) & (cc >= c0) & (cc < c0 + span)
    offset = (rr - r0) - (cc - c0)
    band = (offset >= -(t // 2)) & (offset <= (t - 1) // 2)
    canvas[inside & band] = 1.0


_DRAWERS = (_draw_bar, _draw_cross, _draw_ring, _draw_diagonal)


def make_glyphs(params: GlyphParams, n_per_class: int, split: str) -> Dataset:
    """Class-balanced glyph set, deterministic for fixed (params, split)."""
    params.validate()
    if n_per_class < 1:
        raise DataError("n_per_class must be >= 1")
    if split not in _SPLIT_CODE:
        raise DataError(f"split must be one of {sorted(_SPLIT_CODE)}")
    rng = np.random.default_rng([params.seed, _SPLIT_CODE[split]])
    n = params.n_classes * n_per_class
    images = np.zeros((n, params.side, params.side))
    labels = np.zeros(n, dtype=np.int64)
    j = params.translate_jitter
    idx = 0
    for cls in range(params.n_classes):
        for _ in range(n_per_class):
            dy = int(rng.integers(-j, j + 1))
            dx = int(rng.integers(-j, j + 1))
            t = int(rng.integers(params.thickness_min, params.thickness_max + 1))
            intensity = rng.uniform(params.intensity_min, params.intensity_max)
            canvas = np.zeros((params.side, params.side))
            _DRAWERS[cls](canvas, dy, dx, t)
            img = canvas * intensity
            if params.noise_sigma > 0:
                img = img + rng.normal(0.0, params.noise_sigma, img.shape)
            images[idx] = np.clip(img, 0.0, 1.0)
            labels[idx] = cls
            idx += 1
    return Dataset(images, labels, split)


# ---------------------------------------------------------------------------
# PGM output


def write_pgm(image, path) -> None:
    """Binary PGM (P5, maxval 255); values must already lie in [0, 1]."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise DataError(f"PGM image must be 2-d, got shape {img.shape}")
    if img.min() < 0.0 or img.max() > 1.0:
        raise DataError("PGM values out of range [0, 1]; refusing to clamp")
    data = np.floor(img * 255.0 + 0.5).astype(np.uint8)  # round half up
    h, w = img.shape
    with atomic_write(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def read_pgm(path) -> Array:
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


# ---------------------------------------------------------------------------
# Dataset files and manifest


MANIFEST_MAGIC = "piece-dataset-manifest"


def save_dataset(data: Dataset, path) -> None:
    doc = {
        "format": "piece-dataset",
        "split": data.split,
        "shape": list(data.images.shape),
        "labels": data.labels.tolist(),
        "images": encode_array(data.images),
    }
    write_json(path, doc)


def load_dataset(path, sha256: str | None = None) -> Dataset:
    """The dataset in `path`; with `sha256`, its bytes must have that digest."""
    doc = read_doc(path, "piece-dataset", DatasetFormatError, sha256)
    images = decode_array(
        doc["images"], tuple(doc["shape"]), f"{path}: images", DatasetFormatError
    )
    return Dataset(images, np.asarray(doc["labels"], dtype=np.int64), doc["split"])


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, params: GlyphParams, counts: dict, file_shas: dict) -> None:
    doc = {
        "format": MANIFEST_MAGIC,
        "params": asdict(params),
        "counts": counts,
        "files": file_shas,
    }
    write_json(path, doc, indent=1)

