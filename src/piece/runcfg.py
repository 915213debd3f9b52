"""Run configuration (flat INI with sections) and run-directory layout.

A run directory is created by the data-generation stage and grows
append-only through training, stats fitting, and experiments:

    runs/<id>/
      config.ini       resolved configuration echo
      dataset/         train/test files + manifest
      models/          network files (with provenance hashes)
      stats/           hurdle stats table + training latents
      explanations/    per-image explanation records and images
      reports/         CSV reports

Every artifact embeds the sha256 of its inputs; commands verify the chain
before running so stale artifacts fail loudly instead of silently mixing.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools
import io
import math
import os
import typing
from dataclasses import dataclass, field
from typing import Optional

from .baselines import BaselineConfig, BaselineError
from .datagen import (
    MANIFEST_MAGIC,
    DataError,
    Dataset,
    DatasetFormatError,
    GlyphParams,
    file_sha256,
    load_dataset,
)
from .hurdle import StatsTable, load_latents, load_stats
from .netcore import Network, atomic_write, load_network, read_doc
from .pipeline import OptimSettings, PipelineError
from .training import (
    MIN_CLASS_SAMPLES,
    AutoencoderConfig,
    ClassifierConfig,
    TrainingFailure,
    fit_names,
)


class ConfigError(Exception):
    pass


class PrerequisiteError(Exception):
    pass


class ProvenanceError(Exception):
    pass


@dataclass(frozen=True)
class DatasetConfig:
    n_train_per_class: int = 250
    n_test_per_class: int = 100
    glyphs: GlyphParams = GlyphParams()

    def __post_init__(self):
        # fewer training images would fail the class autoencoders in `train`
        for name, low in (("n_train_per_class", MIN_CLASS_SAMPLES), ("n_test_per_class", 1)):
            if getattr(self, name) < low:
                raise DataError(f"{name} must be at least {low}, got {getattr(self, name)}")


@dataclass(frozen=True)
class ExperimentConfig:
    n_correct: int = 30
    n_close_correct: int = 20
    close_correct_max_prob: float = 0.8
    n_semifactual: int = 20
    max_failure_fraction: float = 0.25


@dataclass(frozen=True)
class MetricsConfig:
    mc_passes: int = 1000
    knn_k: int = 1
    knn_k_extra: int = 3

    def __post_init__(self):
        for name in ("mc_passes", "knn_k", "knn_k_extra"):
            if getattr(self, name) < 1:
                raise ConfigError(f"[metrics] {name} must be at least 1, got {getattr(self, name)}")


# [classifier], [generator] and [autoencoders]: the config class, defaults
# that differ from the class's, and the seed's offset from the run seed
_TRAIN_DEFAULTS = {
    "classifier": (ClassifierConfig, {}, 11),
    "generator": (AutoencoderConfig, {"epochs": 400, "hidden": (96,)}, 22),
    "autoencoders": (AutoencoderConfig, {"epochs": 150}, 33),
}


@dataclass
class RunConfig:
    seed: int = 7
    alpha: float = 0.05
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    classifier: ClassifierConfig = None
    generator: AutoencoderConfig = None
    autoencoders: AutoencoderConfig = None
    optim: OptimSettings = field(default_factory=OptimSettings)
    baselines: BaselineConfig = field(default_factory=BaselineConfig)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    metrics: MetricsConfig = field(default_factory=MetricsConfig)

    def __post_init__(self):
        # every seed of a run derives from it, and numpy refuses a negative one
        if self.seed < 0:
            raise ConfigError(f"[run] seed must be at least 0, got {self.seed}")
        for name, (kind, defaults, offset) in _TRAIN_DEFAULTS.items():
            if getattr(self, name) is None:
                setattr(self, name, kind(**defaults, seed=self.seed + offset))
        # the glyph generator always draws from the run seed
        glyphs = dataclasses.replace(self.dataset.glyphs, seed=self.seed)
        self.dataset = dataclasses.replace(self.dataset, glyphs=glyphs)
        if not (0.0 < self.alpha < 0.5):
            raise ConfigError(f"alpha must be in (0, 0.5), got {self.alpha}")


# INI section -> attribute paths (from RunConfig) of the objects whose scalar
# fields are its keys. Every key, its type and its default come from those
# dataclasses; nested dataclass fields are never keys themselves.
_SECTIONS = {
    "run": ((),),
    "dataset": (("dataset",), ("dataset", "glyphs")),
    "classifier": (("classifier",),),
    "generator": (("generator",),),
    "autoencoders": (("autoencoders",),),
    "pipeline": (("optim",),),
    "baselines": (("baselines",),),
    "experiment": (("experiment",),),
    "metrics": (("metrics",),),
}
_INI_NAMES = {"dropout_rate": "dropout", "lam": "lambda", "lam_sweep": "lambda_sweep"}
# the glyph seed is the run seed
_NOT_IN_INI = {(GlyphParams, "seed")}
_type_hints = functools.cache(typing.get_type_hints)  # every CLI call parses and echoes


def _section_fields(cfg: RunConfig, section: str):
    """(object path, field name, INI key, type, value) of each key of `section`."""
    for path in _SECTIONS[section]:
        obj = functools.reduce(getattr, path, cfg)
        hints = _type_hints(type(obj))
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if (type(obj), f.name) in _NOT_IN_INI or dataclasses.is_dataclass(value):
                continue
            yield path, f.name, _INI_NAMES.get(f.name, f.name), hints[f.name], value


def _parse_value(hint, raw: str):
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return tuple(_parse_value(item, v.strip()) for v in raw.split(",") if v.strip())
    value = hint(raw)
    # a NaN or infinite rate, weight or threshold fails every check written
    # as a comparison, so it is refused here, for every float key at once
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def _read_section(parser, section: str, cfg: RunConfig) -> dict:
    """{object path: {field: value}} for the keys `section` sets in `parser`."""
    keys = list(_section_fields(cfg, section))
    if parser.has_section(section):
        unknown = set(parser.options(section)) - {key for _, _, key, _, _ in keys}
        if unknown:
            raise ConfigError(f"[{section}] unknown keys: {', '.join(sorted(unknown))}")
    changes: dict = {}
    for path, name, key, hint, _ in keys:
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                changes.setdefault(path, {})[name] = _parse_value(hint, raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}: {exc}") from exc
    return changes


def _replace_at(obj, path: tuple, changes: dict):
    """Copy of `obj` with `changes` applied to the object at `path`."""
    if not path:
        return dataclasses.replace(obj, **changes)
    inner = _replace_at(getattr(obj, path[0]), path[1:], changes)
    return dataclasses.replace(obj, **{path[0]: inner})


def parse_config(path: Optional[str]) -> RunConfig:
    """Load an INI config; missing file or sections fall back to defaults."""
    parser = configparser.ConfigParser()
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
    unknown = set(parser.sections()) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    # [run] first: the other sections' defaults derive from the run seed
    cfg = RunConfig(**_read_section(parser, "run", RunConfig()).get((), {}))
    for section in list(_SECTIONS)[1:]:
        for obj_path, changes in _read_section(parser, section, cfg).items():
            try:
                cfg = _replace_at(cfg, obj_path, changes)
            # the section's own checks, which fail as the config is parsed,
            # before any stage creates or writes a file
            except (TrainingFailure, BaselineError, DataError, PipelineError) as exc:
                raise ConfigError(f"[{section}] {exc}") from exc
    return cfg


def write_config(cfg: RunConfig, path) -> None:
    """Echo the resolved configuration as the flat sectioned format."""
    with atomic_write(path, "w", encoding="utf-8") as fh:
        fh.write(config_ini_text(cfg))


def default_config_ini() -> str:
    return config_ini_text(RunConfig())


def config_ini_text(cfg: RunConfig) -> str:
    parser = configparser.ConfigParser()
    for section in _SECTIONS:
        parser[section] = {
            key: _format_value(value) for _, _, key, _, value in _section_fields(cfg, section)
        }
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Run directory layout

# the files whose presence marks a stage done; each experiment writes its
# fit-quality report last
_STAGE_FILES = {
    "datagen": ("dataset/manifest.json", "dataset/train.json", "dataset/test.json"),
    "train": ("models/classifier.json", "models/generator.json", "models/ae_full.json"),
    "fit-stats": ("stats/stats.json", "stats/latents.json"),
    "experiment 1": ("reports/expt1_fit_quality.csv",),
    "experiment 2": ("reports/expt2_fit_quality.csv",),
}


@dataclass
class RunPaths:
    root: str

    def __post_init__(self):
        self.root = os.path.abspath(self.root)

    @property
    def config(self):
        return os.path.join(self.root, "config.ini")

    def dataset(self, name=""):
        return os.path.join(self.root, "dataset", name)

    def models(self, name=""):
        return os.path.join(self.root, "models", name)

    def stats(self, name=""):
        return os.path.join(self.root, "stats", name)

    def explanations(self, *parts):
        return os.path.join(self.root, "explanations", *parts)

    def reports(self, name=""):
        return os.path.join(self.root, "reports", name)

    def ensure_tree(self) -> None:
        for sub in ("dataset", "models", "stats", "explanations", "reports"):
            os.makedirs(os.path.join(self.root, sub), exist_ok=True)

    def _missing(self, stage: str) -> list:
        return [f for f in _STAGE_FILES[stage] if not os.path.exists(os.path.join(self.root, f))]

    def done(self, stage: str) -> bool:
        return not self._missing(stage)

    def require(self, *stages: str) -> None:
        for stage in stages:
            missing = self._missing(stage)
            if missing:
                raise PrerequisiteError(
                    f"stage '{stage}' has not completed in this run directory "
                    f"({', '.join(missing)} missing); run `piece {stage}` first"
                )


@dataclass
class RunArtifacts:
    config: RunConfig
    train_data: Dataset
    test_data: Dataset
    classifier: Network
    generator: Network
    class_aes: list
    ae_full: Network
    stats: StatsTable
    latents: object
    manifest_sha: str
    classifier_sha: str


def load_data(paths: RunPaths, cfg: RunConfig) -> tuple[Dataset, Dataset, str]:
    """The train and test sets, each checked against the hash its manifest
    records, and the manifest's own hash. `datagen` fixes the [dataset] keys
    and the run seed: `cfg` must hold the values the manifest records."""
    manifest_sha = file_sha256(paths.dataset("manifest.json"))
    manifest = read_doc(paths.dataset("manifest.json"), MANIFEST_MAGIC, DatasetFormatError)
    params, counts = manifest["params"], manifest["counts"]
    fixed = [  # the glyph seed is the run seed
        ("[run] seed" if name == "seed" else f"[dataset] {name}", value, params[name])
        for name, value in dataclasses.asdict(cfg.dataset.glyphs).items()
    ]
    fixed += [
        (f"[dataset] n_{split}_per_class", getattr(cfg.dataset, f"n_{split}_per_class"),
         counts[f"{split}_per_class"])
        for split in ("train", "test")
    ]
    for key, value, recorded in fixed:
        if value != recorded:
            raise ProvenanceError(
                f"config.ini {key} is {value}, but the dataset was generated with {recorded}; "
                "regenerate it with `piece datagen --force`"
            )
    files = manifest["files"]
    train_data = load_dataset(paths.dataset("train.json"), files["train.json"])
    test_data = load_dataset(paths.dataset("test.json"), files["test.json"])
    return train_data, test_data, manifest_sha


def load_model(paths: RunPaths, name: str, manifest_sha: str) -> Network:
    """models/<name>.json, refused unless it was trained on the dataset whose
    manifest has the hash `manifest_sha`."""
    net = load_network(paths.models(f"{name}.json"))
    if net.provenance["dataset_sha"] != manifest_sha:
        raise ProvenanceError(
            f"model {name} was trained on a different dataset "
            f"(manifest hash mismatch); regenerate with `piece train --force`"
        )
    return net


def load_run(paths: RunPaths) -> RunArtifacts:
    """Load every artifact of a run, checking the provenance chain and the
    dataset files against the hashes their manifest records."""
    paths.require("datagen", "train", "fit-stats")
    cfg = parse_config(paths.config)
    n_classes = cfg.dataset.glyphs.n_classes
    models = fit_names(n_classes)
    missing = [name for name in models if not os.path.exists(paths.models(f"{name}.json"))]
    if missing:
        raise PrerequisiteError(
            f"model files missing: {', '.join(f'models/{m}.json' for m in missing)}; "
            "run `piece train --force`"
        )
    train_data, test_data, manifest_sha = load_data(paths, cfg)
    nets = {name: load_model(paths, name, manifest_sha) for name in models}
    stats = load_stats(paths.stats("stats.json"))
    latents, _ = load_latents(paths.stats("latents.json"))
    classifier_sha = file_sha256(paths.models("classifier.json"))
    if stats.classifier_sha != classifier_sha:
        raise ProvenanceError(
            "stats table does not match the stored classifier; "
            "refit with `piece fit-stats --force`"
        )
    if stats.dataset_sha != manifest_sha:
        raise ProvenanceError(
            "stats table was fitted on a different dataset; "
            "refit with `piece fit-stats --force`"
        )
    return RunArtifacts(
        config=cfg,
        train_data=train_data,
        test_data=test_data,
        classifier=nets["classifier"],
        generator=nets["generator"],
        class_aes=[nets[f"ae_class_{c}"] for c in range(n_classes)],
        ae_full=nets["ae_full"],
        stats=stats,
        latents=latents,
        manifest_sha=manifest_sha,
        classifier_sha=classifier_sha,
    )
