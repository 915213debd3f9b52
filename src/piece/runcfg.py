"""Run configuration (flat INI with sections) and run-directory layout.

A run directory is created by the data-generation stage and grows
append-only through training, stats fitting, and experiments:

    runs/<id>/
      config.ini       resolved configuration echo; `datagen` writes it
                       outside its record, so it stays editable
      dataset/         train/test files
      models/          network files
      stats/           hurdle stats table + training latents
      stages/          <stage>.json, the record of each stage: datagen,
                       train, fit-stats, experiment-1 and experiment-2
      explanations/    per-image explanation records and images
      inversions/      NNNN.json: the inversion of test image NNNN, which
                       the experiments and `piece explain` store and
                       reuse while its key matches; a cache that no stage
                       record lists (safe to delete)
      explained/       NNNN_cf.json, NNNN_sf.json: the counterfactual or
                       semifactual `piece explain` delivered for test image
                       NNNN, reused while its key matches (the same kind of
                       cache; the experiments neither read nor write it)
      reports/         CSV reports

Every stage runs one protocol, `RunPaths.stage`. A stage is done while its
record exists, and a done stage is refused unless forced. The record is
removed just before the stage's first write and written once all its
writes complete. It holds the sha256 of every file the stage wrote, by its
path in the run directory, and no time, so a rerun writes the same bytes;
`datagen`'s also holds the value of each key it fixes, [run] seed and
every [dataset] key, under its INI name (`datagen_fields`).
Every later record links to the record of the stage it builds on (train
to datagen, fit-stats to train, each experiment to fit-stats) by holding
its sha256 in `after` (`BUILDS_ON`): the run's one provenance chain.
`load_run` verifies a run in two steps. Up front it parses the config,
checks the records of datagen, train and fit-stats (`check_stage`: each
record's fields, its link, and that every file it lists is a regular
file of the run directory that exists, exit 3, with its recorded sha256,
exit 4, whether or not the command goes on to read it) and the frozen
[dataset] keys against the datagen record. Each artifact is decoded the
first time it is read, with the checks of its format, and only if its
stage's record lists it. A few test images can be
decoded without the rest of the test set (`RunArtifacts.test_images`),
which is all `piece explain` decodes of the dataset.
"""

from __future__ import annotations

import configparser
import contextlib
import dataclasses
import functools
import io
import math
import os
import typing
from dataclasses import dataclass, field
from typing import Optional

from .baselines import BaselineConfig, BaselineError
from .datagen import DataError, Dataset, GlyphParams, file_sha256, load_dataset
from .hurdle import HurdleError, StatsTable, load_latents, load_stats
from .netcore import (COUNT, FINITE, Network, atomic_write, load_network, one_of, read_doc,
                      write_json)
from .pipeline import OptimSettings, PipelineError
from .training import AutoencoderConfig, ClassifierConfig, TrainingFailure


class ConfigError(Exception):
    pass


class PrerequisiteError(Exception):
    pass


class ProvenanceError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    n_correct: int = 30
    n_close_correct: int = 20
    close_correct_max_prob: float = 0.8
    n_semifactual: int = 20
    max_failure_fraction: float = 0.25

    def __post_init__(self):
        # a negative count would slice its bucket from the end
        for name in ("n_correct", "n_close_correct", "n_semifactual"):
            if getattr(self, name) < 0:
                raise ConfigError(
                    f"[experiment] {name} must be at least 0, got {getattr(self, name)}"
                )
        if not (0.0 < self.close_correct_max_prob <= 1.0):
            raise ConfigError(
                f"[experiment] close_correct_max_prob must be in (0, 1], "
                f"got {self.close_correct_max_prob}"
            )
        if not (0.0 <= self.max_failure_fraction <= 1.0):
            raise ConfigError(
                f"[experiment] max_failure_fraction must be in [0, 1], "
                f"got {self.max_failure_fraction}"
            )


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
    dataset: GlyphParams = field(default_factory=GlyphParams)
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
        if not (0.0 < self.alpha < 0.5):
            raise ConfigError(f"[run] alpha must be in (0, 0.5), got {self.alpha}")
        # keys bounded by [dataset] keys, which are parsed before their sections
        n_pixels = self.dataset.side ** 2
        for name in ("generator", "autoencoders"):
            latent_dim = getattr(self, name).latent_dim
            if latent_dim >= n_pixels:
                raise ConfigError(
                    f"[{name}] latent_dim must be below the frame's {n_pixels} pixels, "
                    f"got {latent_dim}"
                )
        n_train = self.dataset.count("train")
        for name in ("knn_k", "knn_k_extra"):
            k = getattr(self.metrics, name)
            if k > n_train:
                raise ConfigError(
                    f"[metrics] {name} must be at most the {n_train} training images, got {k}"
                )


# INI section -> the RunConfig attribute whose dataclass's scalar fields are
# its keys ([run]: RunConfig's own). Every key, its type and its default come
# from those dataclasses; dataclass fields are never keys themselves.
_SECTIONS = {
    "run": None,
    "dataset": "dataset",
    "classifier": "classifier",
    "generator": "generator",
    "autoencoders": "autoencoders",
    "pipeline": "optim",
    "baselines": "baselines",
    "experiment": "experiment",
    "metrics": "metrics",
}
_INI_NAMES = {"dropout_rate": "dropout", "lam": "lambda", "lam_sweep": "lambda_sweep"}
_type_hints = functools.cache(typing.get_type_hints)  # every CLI call parses and echoes


def _section_fields(cfg: RunConfig, section: str):
    """(section, field name, INI key, type, value) of each key of `section`."""
    obj = cfg if _SECTIONS[section] is None else getattr(cfg, _SECTIONS[section])
    hints = _type_hints(type(obj))
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if not dataclasses.is_dataclass(value):
            yield section, f.name, _INI_NAMES.get(f.name, f.name), hints[f.name], value


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
    """{field: value} of the keys `section` sets in `parser`."""
    keys = list(_section_fields(cfg, section))
    if parser.has_section(section):
        unknown = set(parser.options(section)) - {key for _, _, key, _, _ in keys}
        if unknown:
            raise ConfigError(f"[{section}] unknown keys: {', '.join(sorted(unknown))}")
    changes: dict = {}
    for _, name, key, hint, _ in keys:
        if parser.has_option(section, key):
            raw = parser.get(section, key)
            try:
                changes[name] = _parse_value(hint, raw)
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}: {exc}") from exc
    return changes


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
    defaults = RunConfig(**_read_section(parser, "run", RunConfig()))
    sections = {}
    for section, name in list(_SECTIONS.items())[1:]:
        try:
            changes = _read_section(parser, section, defaults)
            sections[name] = dataclasses.replace(getattr(defaults, name), **changes)
        # the section's own checks, which fail as the config is parsed,
        # before any stage creates or writes a file
        except (TrainingFailure, BaselineError, DataError, PipelineError) as exc:
            raise ConfigError(f"[{section}] {exc}") from exc
    return dataclasses.replace(defaults, **sections)  # the checks across sections


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

# the stages whose files `load_run` verifies and decodes, in order
_RUN_STAGES = ("datagen", "train", "fit-stats")
# the stage that writes the files of each directory `RunArtifacts` reads
_WRITERS = {"dataset": "datagen", "models": "train", "stats": "fit-stats"}
# each stage, and the stage whose record its record's `after` links to
BUILDS_ON = {"datagen": None, "train": "datagen", "fit-stats": "train",
             "experiment 1": "fit-stats", "experiment 2": "fit-stats"}
_STAGE_RECORD_MAGIC = "piece-stage-record"


def _record_name(stage: str) -> str:
    """The record of `stage`, relative to the run directory."""
    return f"stages/{stage.replace(' ', '-')}.json"


def _redo(stage: str) -> str:
    """The command that redoes `stage`."""
    return f"`piece {stage.replace('experiment ', 'experiment --expt ')} --force`"


@dataclass
class RunPaths:
    root: str
    # set on the paths a stage writes through (`stage`): its record, which
    # the first path asked for removes, and every path asked for
    record: Optional[str] = None
    written: list = field(default_factory=list)

    def __post_init__(self):
        self.root = os.path.abspath(self.root)

    def file(self, relpath: str) -> str:
        path = os.path.join(self.root, relpath)
        if self.record is not None:
            if not self.written:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(self.record)
            self.written.append(path)
        return path

    @property
    def config(self):
        return self.file("config.ini")

    def dataset(self, name=""):
        return self.file(os.path.join("dataset", name))

    def models(self, name=""):
        return self.file(os.path.join("models", name))

    def stats(self, name=""):
        return self.file(os.path.join("stats", name))

    def explanations(self, *parts):
        return self.file(os.path.join("explanations", *parts))

    def reports(self, name=""):
        return self.file(os.path.join("reports", name))

    def inversions(self, name=""):
        return self.file(os.path.join("inversions", name))

    def explained(self, name=""):
        return self.file(os.path.join("explained", name))

    def done(self, stage: str) -> bool:
        return os.path.exists(os.path.join(self.root, _record_name(stage)))

    def require(self, *stages: str) -> None:
        for stage in stages:
            if not self.done(stage):
                raise PrerequisiteError(
                    f"stage '{stage}' has not completed in this run directory "
                    f"({_record_name(stage)} missing); run `piece {stage}` first"
                )

    @contextlib.contextmanager
    def stage(self, name: str, force: bool, **fields):
        """Run the stage `name` (see the module docstring) in the block,
        which asks the `RunPaths` it is given for the path of every file it
        writes, and only of those. Its record holds the sha256 of each such
        file and the `fields`, such as `after` (`RunArtifacts.records`)."""
        if self.done(name) and not force:
            raise ConfigError(
                f"stage '{name}' already completed in this run directory; "
                f"pass --force to redo it"
            )
        out = RunPaths(self.root, os.path.join(self.root, _record_name(name)))
        yield out
        files = {os.path.relpath(f, self.root): file_sha256(f) for f in out.written}
        doc = {**fields, "format": _STAGE_RECORD_MAGIC, "stage": name, "files": files}
        write_json(out.record, doc, indent=1)


class RunArtifacts:
    """The config of a run and the artifacts of the stages it was loaded
    with (`load_run`), whose records link up and whose files have all been
    checked against their recorded sha256. Each artifact is decoded and
    checked the first time it is read: networks against their layer
    checksums, the stats table against its fields. A command that needs only
    a few test images reads them with `test_images`, which decodes only
    their bytes of the test set."""

    def __init__(self, paths: RunPaths, config: RunConfig, records: dict, files: dict):
        self.paths = paths
        self.config = config
        self.records = records  # the loaded stages: {stage: sha256 of its record}
        self.files = files  # the verified files: {relative path: sha256}
        self._test_rows: dict = {}  # `test_images` of ids -> its Dataset

    def sha(self, rel: str) -> str:
        """The sha256 of the run file `rel` that the record of the stage that
        writes it lists. A file that record does not list is unverified:
        ProvenanceError."""
        if rel not in self.files:
            stage = _WRITERS[rel.split("/")[0]]
            raise ProvenanceError(
                f"{_record_name(stage)}: it does not list {rel}; run {_redo(stage)}"
            )
        return self.files[rel]

    def _path(self, rel: str) -> str:
        self.sha(rel)
        return self.paths.file(rel)

    def _model(self, name: str) -> Network:
        return load_network(self._path(f"models/{name}.json"))

    @functools.cached_property
    def train_data(self) -> Dataset:
        return load_dataset(self._path("dataset/train.json"))

    @functools.cached_property
    def test_data(self) -> Dataset:
        return load_dataset(self._path("dataset/test.json"))

    def test_images(self, ids) -> Dataset:
        """The test images `ids` and their labels, in that order: rows of
        `test_data` once it is decoded, else decoded from only their own
        bytes of dataset/test.json (`load_dataset` with rows), once for
        each sequence of ids asked for."""
        ids = tuple(ids)
        if "test_data" in vars(self):
            data = self.test_data
            return Dataset(data.images[list(ids)], data.labels[list(ids)], data.split)
        if ids not in self._test_rows:
            self._test_rows[ids] = load_dataset(self._path("dataset/test.json"), rows=ids)
        return self._test_rows[ids]

    @functools.cached_property
    def classifier(self) -> Network:
        return self._model("classifier")

    @functools.cached_property
    def generator(self) -> Network:
        return self._model("generator")

    @functools.cached_property
    def class_aes(self) -> list:
        return [self._model(f"ae_class_{c}") for c in range(self.config.dataset.n_classes)]

    @functools.cached_property
    def ae_full(self) -> Network:
        return self._model("ae_full")

    @functools.cached_property
    def stats(self) -> StatsTable:
        path = self._path("stats/stats.json")
        table = load_stats(path)
        n_classes = self.config.dataset.n_classes  # the classifier's are the dataset's
        if table.n_classes != n_classes:
            raise HurdleError(f"{path}: classes holds {table.n_classes} rows, not one for "
                              f"each of the classifier's {n_classes} classes")
        return table

    @functools.cached_property
    def latents(self):
        return load_latents(self._path("stats/latents.json"))[0]

    def decode_all(self) -> None:
        """Decode and check every artifact now, as a command that reads them
        all does before it writes anything."""
        for name, attr in vars(RunArtifacts).items():
            if isinstance(attr, functools.cached_property):
                getattr(self, name)


def _frozen(cfg: RunConfig) -> list:
    """(section, INI key, value) of each key `datagen` fixes: [run] seed,
    from which the glyphs are drawn, and every [dataset] key."""
    dataset = [(section, key, value) for section, _, key, _, value
               in _section_fields(cfg, "dataset")]
    return [("run", "seed", cfg.seed), *dataset]


def datagen_fields(cfg: RunConfig) -> dict:
    """The fields the datagen record holds beside its files: the value of
    each key `datagen` fixes (`_frozen`), under its INI name."""
    return {key: value for _, key, value in _frozen(cfg)}


def _check_frozen(cfg: RunConfig, record: dict) -> None:
    """`cfg` must hold the values of the keys `datagen` fixes that its
    record holds."""
    for section, key, value in _frozen(cfg):
        if value != record[key]:
            raise ProvenanceError(
                f"config.ini [{section}] {key} is {value}, but the dataset was generated with "
                f"{record[key]}; regenerate it with `piece datagen --force`"
            )


# what each field of a stage record holds; datagen's also holds the keys it fixes
_RECORD_FIELDS = {
    "files": ((lambda v: isinstance(v, dict) and all(type(s) is str for s in v.values())),
              "a mapping of path to sha256"),
}
_DATAGEN_FIELDS = {**_RECORD_FIELDS, **{
    key: COUNT if type(value) is int else FINITE for _, key, value in _frozen(RunConfig())
}}


def check_stage(paths: RunPaths, stage: str) -> tuple[dict, str]:
    """The record of the done stage `stage` and its sha256, verified: its
    fields hold what `_RECORD_FIELDS` asks and name `stage`; its `after` is
    the sha256 of the record of the stage it builds on (`BUILDS_ON`); and
    every file it lists is a regular file inside the run directory that
    exists, else PrerequisiteError, with its recorded sha256. Any other
    failure raises ProvenanceError naming the record."""
    path = paths.file(_record_name(stage))
    table = _DATAGEN_FIELDS if stage == "datagen" else _RECORD_FIELDS
    record = read_doc(path, _STAGE_RECORD_MAGIC, ProvenanceError,
                      {"stage": one_of((stage,)), **table})
    before = BUILDS_ON[stage]
    if before is not None and record.get("after") != file_sha256(
            paths.file(_record_name(before))):
        raise ProvenanceError(
            f"{path}: its after is not the sha256 of {_record_name(before)}, so it "
            f"builds on another {before} stage; run {_redo(stage)}"
        )
    root = os.path.realpath(paths.root)
    recorded = record["files"]
    for rel in recorded:
        full = os.path.realpath(os.path.join(root, rel))
        if not full.startswith(root + os.sep) or (
                os.path.exists(full) and not os.path.isfile(full)):
            raise ProvenanceError(
                f"{path}: {rel!r} is not a regular file inside the run directory; "
                f"run {_redo(stage)}"
            )
    missing = [rel for rel in recorded if not os.path.exists(paths.file(rel))]
    if missing:
        raise PrerequisiteError(
            f"run files missing: {', '.join(missing)}; run {_redo(stage)}"
        )
    for rel, sha in recorded.items():
        if file_sha256(paths.file(rel)) != sha:
            raise ProvenanceError(
                f"{paths.file(rel)}: contents do not match their recorded sha256; "
                f"run {_redo(stage)}"
            )
    return record, file_sha256(path)


def load_run(paths: RunPaths, upto: str = "fit-stats") -> RunArtifacts:
    """The artifacts of the stages from `datagen` to `upto`, verified up
    front as the module docstring says (`check_stage`); each artifact is
    decoded on first access."""
    stages = _RUN_STAGES[: _RUN_STAGES.index(upto) + 1]
    paths.require(*stages)
    cfg = parse_config(paths.config)
    records: dict = {}
    files: dict = {}
    for stage in stages:
        record, records[stage] = check_stage(paths, stage)
        if stage == "datagen":
            _check_frozen(cfg, record)
        files.update(record["files"])
    return RunArtifacts(paths, cfg, records, files)
