"""Command-line entry point wiring the full pipeline over run directories.

    piece datagen    --run-dir runs/demo [--config my.ini]
    piece train      --run-dir runs/demo
    piece fit-stats  --run-dir runs/demo
    piece explain    --run-dir runs/demo --index 12 --mode cf
    piece experiment --run-dir runs/demo --expt 1

Exit codes: 0 success, 1 a stage that failed as it ran (training, data,
pipeline, numerical overflow or metric error), 2 configuration error, 3
missing prerequisite stage or model file, 4 run artifacts that do not verify
(a provenance mismatch, a dataset file whose hash differs from its manifest,
or a damaged model, stats, latents or dataset file), 5 experiment failure
fraction above the configured threshold.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import experiments as ex
from . import netcore as nc
from . import pipeline as pl
from .datagen import (
    DataError,
    DatasetFormatError,
    file_sha256,
    load_dataset,
    make_glyphs,
    save_dataset,
    write_manifest,
    write_pgm,  # noqa: F401  (perfbench/spans.py traces the writer under this name)
)
from .evalx import MetricError
from .hurdle import HurdleError, fit_stats, save_latents, save_stats
from .runcfg import (
    ConfigError,
    PrerequisiteError,
    ProvenanceError,
    RunPaths,
    default_config_ini,
    load_run,
    parse_config,
    write_config,
)
from .training import (
    TrainingFailure,
    train_autoencoders,
    train_classifier,
    train_generator,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PREREQUISITE = 3
EXIT_PROVENANCE = 4
EXIT_FAILURE_THRESHOLD = 5

# the exit code of each error a command reports as one line; exit 1 is a
# stage that failed as it ran
_EXIT_CODES = {
    ConfigError: EXIT_CONFIG,
    PrerequisiteError: EXIT_PREREQUISITE,
    **dict.fromkeys(
        (ProvenanceError, HurdleError, nc.NetworkFormatError, DatasetFormatError), EXIT_PROVENANCE
    ),
    **dict.fromkeys(
        (TrainingFailure, DataError, pl.PipelineError, nc.NumericsError, MetricError), 1
    ),
}


def _refuse_if_done(paths: RunPaths, stage: str, force: bool) -> None:
    if paths.done(stage) and not force:
        raise ConfigError(
            f"stage '{stage}' already completed in this run directory; "
            f"pass --force to redo it"
        )


def cmd_datagen(args) -> int:
    cfg = parse_config(args.config)
    paths = RunPaths(args.run_dir)
    paths.ensure_tree()
    _refuse_if_done(paths, "datagen", args.force)
    train = make_glyphs(cfg.dataset.glyphs, cfg.dataset.n_train_per_class, "train")
    test = make_glyphs(cfg.dataset.glyphs, cfg.dataset.n_test_per_class, "test")
    save_dataset(train, paths.dataset("train.json"))
    save_dataset(test, paths.dataset("test.json"))
    write_config(cfg, paths.config)
    counts = {
        "train": len(train),
        "test": len(test),
        "train_per_class": cfg.dataset.n_train_per_class,
        "test_per_class": cfg.dataset.n_test_per_class,
    }
    shas = {
        "train.json": file_sha256(paths.dataset("train.json")),
        "test.json": file_sha256(paths.dataset("test.json")),
        "config.ini": file_sha256(paths.config),
    }
    write_manifest(paths.dataset("manifest.json"), cfg.dataset.glyphs, counts, shas)
    print(f"datagen: {len(train)} train / {len(test)} test images -> {paths.dataset('')}")
    return EXIT_OK


def cmd_train(args) -> int:
    paths = RunPaths(args.run_dir)
    paths.require("datagen")
    _refuse_if_done(paths, "train", args.force)
    cfg = parse_config(paths.config)
    train = load_dataset(paths.dataset("train.json"))
    test = load_dataset(paths.dataset("test.json"))
    manifest_sha = file_sha256(paths.dataset("manifest.json"))
    provenance = {"dataset_sha": manifest_sha}

    classifier, clf_report = train_classifier(train, test, cfg.classifier)
    nc.save_network(classifier, paths.models("classifier.json"), provenance)
    clf_report.save(paths.reports("training_classifier.json"))
    print(f"train: classifier test accuracy {clf_report.final['test_accuracy']:.4f}")

    generator, gen_report = train_generator(train, test, cfg.generator)
    nc.save_network(generator, paths.models("generator.json"), provenance)
    gen_report.save(paths.reports("training_generator.json"))
    print(f"train: generator test reconstruction MSE {gen_report.final['test_mse']:.5f}")

    class_aes, ae_full, ae_report = train_autoencoders(train, test, cfg.autoencoders)
    for cls, net in enumerate(class_aes):
        nc.save_network(net, paths.models(f"ae_class_{cls}.json"), provenance)
    nc.save_network(ae_full, paths.models("ae_full.json"), provenance)
    ae_report.save(paths.reports("training_autoencoders.json"))
    print(f"train: {len(class_aes)} class autoencoders + full autoencoder done")
    return EXIT_OK


def cmd_fit_stats(args) -> int:
    paths = RunPaths(args.run_dir)
    paths.require("datagen", "train")
    _refuse_if_done(paths, "fit-stats", args.force)
    cfg = parse_config(paths.config)
    train = load_dataset(paths.dataset("train.json"))
    classifier = nc.load_network(paths.models("classifier.json"))
    classifier_sha = file_sha256(paths.models("classifier.json"))
    manifest_sha = file_sha256(paths.dataset("manifest.json"))
    table, latents, predicted = fit_stats(
        classifier, train, cfg.alpha, classifier_sha, manifest_sha
    )
    save_stats(table, paths.stats("stats.json"))
    save_latents(latents, predicted, paths.stats("latents.json"))
    degenerate = sum(1 for row in table.models for m in row if m.degenerate)
    total = table.n_classes * table.n_neurons
    print(
        f"fit-stats: {total} (class, neuron) models fitted, "
        f"{degenerate} degenerate, alpha={cfg.alpha}"
    )
    if table.empty_classes():
        print(f"fit-stats: warning, empty partitions for classes {table.empty_classes()}")
    return EXIT_OK


_MODE_NAMES = {"cf": "counterfactual", "sf": "semifactual", "prop": "proportional"}


def cmd_explain(args) -> int:
    paths = RunPaths(args.run_dir)
    arts = load_run(paths)
    cfg = arts.config
    mode = _MODE_NAMES[args.mode]
    if not (0 <= args.index < len(arts.test_data)):
        raise ConfigError(
            f"--index {args.index} out of range (test set has {len(arts.test_data)})"
        )
    image = arts.test_data.images[args.index]
    label = int(arts.test_data.labels[args.index])
    if args.target_class is not None:
        n_classes = cfg.dataset.glyphs.n_classes
        if not (0 <= args.target_class < n_classes):
            raise ConfigError(
                f"--target-class {args.target_class} out of range (classes 0..{n_classes - 1})"
            )
        if mode == "counterfactual":
            predicted = int(np.argmax(nc.forward(arts.classifier, image.ravel()).output))
            if args.target_class == predicted:
                raise ConfigError(
                    f"--target-class {args.target_class} is the predicted class of image "
                    f"{args.index}; a counterfactual needs another class"
                )
    request = pl.ExplanationRequest(
        image=image,
        true_label=label,
        mode=mode,
        fraction=args.fraction,
        alpha=args.alpha if args.alpha is not None else cfg.alpha,
        settings=cfg.optim,
        seed=ex.derive_seed(cfg.seed, 3, args.index),
        image_id=args.index,
        target_class=args.target_class,
    )
    try:
        request.validate()
    except pl.PipelineError as exc:
        raise ConfigError(str(exc)) from exc
    result = pl.explain(request, arts.classifier, arts.generator, arts.stats)
    ex.save_explanation(paths, "single", f"{args.mode}_{args.index:04d}", result, image, arts)
    print(
        f"explain: image {args.index} (label {label}) mode {mode}"
        + (f" fraction {args.fraction}" if mode == "proportional" else "")
    )
    print(
        f"explain: c={result.c} c'={result.c_prime} "
        f"exceptional={len(result.exceptional)} applied={result.applied_count}"
        + (f"/{result.k_reference}" if mode == "proportional" else "")
    )
    print(
        f"explain: verified={'yes' if result.verified else 'NO'} "
        f"(intended class {result.intended_class}, "
        f"predicted {int(np.argmax(result.probs_prime))}) -> {paths.explanations('single')}"
    )
    return EXIT_OK


def cmd_experiment(args) -> int:
    paths = RunPaths(args.run_dir)
    arts = load_run(paths)
    _refuse_if_done(paths, f"experiment {args.expt}", args.force)
    runner = ex.run_experiment1 if args.expt == 1 else ex.run_experiment2
    summary = runner(arts, paths)
    frac = summary["failed"] / max(1, summary["rows"])
    print(
        f"experiment {args.expt}: {summary['cases']} test images, "
        f"{summary['rows']} method rows, {summary['failed']} failures "
        f"({100 * frac:.1f}%) -> {paths.reports('')}"
    )
    if frac > arts.config.experiment.max_failure_fraction:
        print(
            f"experiment {args.expt}: failure fraction {frac:.3f} exceeds "
            f"threshold {arts.config.experiment.max_failure_fraction}",
            file=sys.stderr,
        )
        return EXIT_FAILURE_THRESHOLD
    return EXIT_OK


def _default_config_text() -> str:
    lines = ["configuration file keys and their defaults:", ""]
    lines += ["  " + line for line in default_config_ini().splitlines()]
    return "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    """Top-level parser whose epilog, the default config, is built only when
    help is printed, so a fault in the config echo cannot break a command."""

    def format_help(self) -> str:
        if self.epilog is None:
            self.epilog = _default_config_text()
        return super().format_help()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="piece",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=argparse.ArgumentParser
    )

    def add_common(p, stage=True):
        p.add_argument("--run-dir", required=True, help="run directory (created by datagen)")
        if stage:  # only stages refuse to rerun
            p.add_argument("--force", action="store_true",
                           help="redo a stage that already completed")

    p = sub.add_parser("datagen", help="generate the toy dataset into a run directory")
    add_common(p)
    p.add_argument("--config", default=None,
                   help="INI config file; omitted keys use built-in defaults")
    p.set_defaults(func=cmd_datagen)

    p = sub.add_parser("train", help="train classifier, generator, and autoencoders")
    add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("fit-stats", help="fit per-class hurdle models of the feature layer")
    add_common(p)
    p.set_defaults(func=cmd_fit_stats)

    p = sub.add_parser("explain", help="explain one test image")
    add_common(p, stage=False)
    p.add_argument("--index", type=int, required=True, help="test-set image index")
    p.add_argument("--mode", choices=("cf", "sf", "prop"), default="cf",
                   help="counterfactual, semifactual, or proportional")
    p.add_argument("--fraction", type=float, default=None,
                   help="proportional budget, one of 0.25 0.5 0.75 1.0")
    p.add_argument("--alpha", type=float, default=None,
                   help="exceptionality threshold (default: run config)")
    p.add_argument("--target-class", type=int, default=None,
                   help="override the counterfactual class selection")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("experiment", help="run a benchmark experiment")
    add_common(p)
    p.add_argument("--expt", type=int, choices=(1, 2), required=True)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
