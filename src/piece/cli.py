"""Command-line entry point wiring the full pipeline over run directories.

    piece datagen    --run-dir runs/demo [--config my.ini]
    piece train      --run-dir runs/demo [--jobs N]
    piece fit-stats  --run-dir runs/demo
    piece explain    --run-dir runs/demo --index 12 --mode cf
    piece experiment --run-dir runs/demo --expt 1

Exit codes: 0 success, 1 a stage that failed as it ran (training, data,
pipeline, numerical overflow or metric error), 2 configuration error, 3
missing prerequisite stage or run file, 4 run artifacts that do not verify
(a file whose sha256 differs from the one its stage record holds, or that
the record does not list; a stage record whose `after` is not the sha256
of the record of the stage it builds on; a [dataset] key or [run] seed
in config.ini that differs from the value the datagen record holds; or a
document of any format, a stage record, a dataset, model, stats or
latents file, a stored inversion or a stored explanation, that does not
parse or has a field its format's table does not allow, see
`netcore.check_fields`, or fails its checksum), 5 experiment failure
fraction above the configured threshold.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import experiments as ex
from . import netcore as nc
from . import pipeline as pl
from .datagen import (
    DataError,
    DatasetFormatError,
    make_glyphs,
    save_dataset,
    write_pgm,  # noqa: F401  (perfbench/spans.py traces the writer under this name)
)
from .evalx import MetricError
from .hurdle import HurdleError, fit_stats, save_latents, save_stats
from .runcfg import (
    ConfigError,
    PrerequisiteError,
    ProvenanceError,
    RunPaths,
    datagen_fields,
    default_config_ini,
    load_run,
    parse_config,
    write_config,
)
from .training import (  # noqa: F401  (perfbench/spans.py traces the train_* names here)
    TrainingFailure,
    autoencoders_report,
    fit,
    fit_names,
    run_jobs,
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
    **dict.fromkeys((ConfigError, pl.TargetClassError), EXIT_CONFIG),
    PrerequisiteError: EXIT_PREREQUISITE,
    **dict.fromkeys(
        (ProvenanceError, HurdleError, nc.NetworkFormatError, DatasetFormatError,
         pl.InversionFormatError, pl.ExplanationFormatError),
        EXIT_PROVENANCE,
    ),
    **dict.fromkeys(
        (TrainingFailure, DataError, pl.PipelineError, nc.NumericsError, MetricError), 1
    ),
}


def cmd_datagen(args) -> int:
    cfg = parse_config(args.config)
    paths = RunPaths(args.run_dir)
    with paths.stage("datagen", args.force, **datagen_fields(cfg)) as out:
        train = make_glyphs(cfg.dataset, cfg.seed, "train")
        test = make_glyphs(cfg.dataset, cfg.seed, "test")
        save_dataset(train, out.dataset("train.json"))
        save_dataset(test, out.dataset("test.json"))
        write_config(cfg, paths.config)  # outside the record: it stays editable
    print(f"datagen: {len(train)} train / {len(test)} test images -> {paths.dataset('')}")
    return EXIT_OK


def cmd_train(args) -> int:
    paths = RunPaths(args.run_dir)
    arts = load_run(paths, "datagen")
    with paths.stage("train", args.force, after=arts.records["datagen"]) as out:
        cfg, train, test = arts.config, arts.train_data, arts.test_data
        n_classes = int(train.labels.max()) + 1
        names = fit_names(n_classes)
        job = functools.partial(fit, train=train, test=test, cfg=cfg)
        outcomes = run_jobs(job, names, args.jobs)
        if isinstance(outcomes[-1], BaseException):  # the first failure, before any write
            raise outcomes[-1]
        fits = dict(zip(names, outcomes))

        classifier, clf_report = fits["classifier"]
        nc.save_network(classifier, out.models("classifier.json"))
        clf_report.save(out.reports("training_classifier.json"))
        print(f"train: classifier test accuracy {clf_report.final['test_accuracy']:.4f}")

        generator, gen_report = fits["generator"]
        nc.save_network(generator, out.models("generator.json"))
        gen_report.save(out.reports("training_generator.json"))
        print(f"train: generator test reconstruction MSE {gen_report.final['test_mse']:.5f}")

        class_fits = [fits[f"ae_class_{cls}"] for cls in range(n_classes)]
        ae_full, full_curve = fits["ae_full"]
        for cls, (net, _) in enumerate(class_fits):
            nc.save_network(net, out.models(f"ae_class_{cls}.json"))
        nc.save_network(ae_full, out.models("ae_full.json"))
        ae_report = autoencoders_report(
            cfg.autoencoders, [curve for _, curve in class_fits], full_curve
        )
        ae_report.save(out.reports("training_autoencoders.json"))
    print(f"train: {len(class_fits)} class autoencoders + full autoencoder done")
    return EXIT_OK


def cmd_fit_stats(args) -> int:
    paths = RunPaths(args.run_dir)
    arts = load_run(paths, "train")
    with paths.stage("fit-stats", args.force, after=arts.records["train"]) as out:
        cfg = arts.config
        table, latents, predicted = fit_stats(arts.classifier, arts.train_data)
        save_stats(table, out.stats("stats.json"))
        save_latents(latents, predicted, out.stats("latents.json"))
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
# the pipeline settings an explanation depends on beyond those of its inversion
_EXPLAIN_SETTINGS = ("ascent_lr", "ascent_max_steps", "visualize_steps", "visualize_lr")


def _explained(arts, request: pl.ExplanationRequest, entry: str) -> pl.ExplanationResult:
    """The explanation `request` asks for: the run's stored
    explained/<entry>.json while its key, everything the explanation depends
    on, matches; else made now from the image's stored inversion
    (`ex.inversions`) and stored, unless it failed. A damaged entry raises
    ExplanationFormatError and is left as it is."""
    cfg = arts.config
    (inversion_key,) = ex.inversion_keys(arts, [request.image_id])
    key = {
        "inversion": inversion_key,
        "stats_sha": arts.sha("stats/stats.json"),
        **{name: getattr(cfg.optim, name) for name in _EXPLAIN_SETTINGS},
        "image_id": request.image_id, "label": request.true_label,
        "mode": request.mode, "alpha": request.alpha, "target_class": request.target_class,
    }
    path = arts.paths.explained(f"{entry}.json")
    stored = pl.stored_explanation(
        path, key, arts.generator, arts.classifier, request.image.shape
    ) if os.path.exists(path) else None
    if stored is not None:
        return stored
    inversion = pl._one(ex.inversions(arts, [request.image_id]))
    result = pl.explain(dataclasses.replace(request, inversion=inversion),
                        arts.classifier, arts.generator, arts.stats, cfg.optim)
    pl.store_explanation(result, key, path)
    return result


def cmd_explain(args) -> int:
    paths = RunPaths(args.run_dir)
    arts = load_run(paths)
    cfg = arts.config
    mode = _MODE_NAMES[args.mode]
    n_test = cfg.dataset.count("test")  # the set's size, which `load_run` has checked
    if not (0 <= args.index < n_test):
        raise ConfigError(f"--index {args.index} out of range (test set has {n_test})")
    test = arts.test_images([args.index])  # decodes this image alone
    image, label = test.images[0], int(test.labels[0])
    if args.target_class is not None:
        n_classes = cfg.dataset.n_classes
        if not (0 <= args.target_class < n_classes):
            raise ConfigError(
                f"--target-class {args.target_class} out of range (classes 0..{n_classes - 1})"
            )
    if mode == "proportional":
        if args.fraction not in pl.FRACTIONS:
            raise ConfigError(
                f"--mode prop needs --fraction, one of {pl.FRACTIONS}, got {args.fraction}"
            )
    elif args.fraction is not None:
        raise ConfigError(f"--fraction applies only to --mode prop, not --mode {args.mode}")
    try:
        request = pl.ExplanationRequest(
            image=image,
            true_label=label,
            mode="semifactual" if mode == "proportional" else mode,
            alpha=args.alpha if args.alpha is not None else cfg.alpha,
            image_id=args.index,
            target_class=args.target_class,
        )
    except pl.PipelineError as exc:  # the mode is one of the choices: --alpha was refused
        raise ConfigError(f"--alpha: {exc}") from exc
    if args.target_class is not None:  # refused before the inversion is looked up
        request.check_target_class(
            int(np.argmax(nc.forward(arts.classifier, image.ravel()).output)),
            "proportional explanation" if mode == "proportional" else mode,
        )
    # decoded, and so checked, before an explanation is looked up, or made and stored
    classifier, generator, stats = arts.classifier, arts.generator, arts.stats
    # a proportional explanation is cut from the image's stored semifactual
    entry = f"{args.index:04d}_{'cf' if mode == 'counterfactual' else 'sf'}"
    if args.target_class is not None:
        entry += f"_t{args.target_class}"
    if args.alpha is not None:
        entry += f"_a{args.alpha!r}"
    result = _explained(arts, request, entry)
    if mode == "proportional":  # the semifactual's prefix, cut as experiment 2 cuts it
        (result,) = pl.proportional_stack(
            [(result, args.fraction)], classifier, generator, stats, cfg.optim
        )
        if isinstance(result, Exception):
            raise result
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
    after = arts.records["fit-stats"]
    with paths.stage(f"experiment {args.expt}", args.force, after=after) as out:
        arts.decode_all()  # inputs that do not verify leave the reports as they were
        runner = ex.run_experiment1 if args.expt == 1 else ex.run_experiment2
        summary = runner(arts, out)
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
    """Top-level parser whose epilog, the default config, is built each time
    help is printed and never for a command, so a fault in the config echo
    cannot break a command."""

    def format_help(self) -> str:
        self.epilog = _default_config_text()
        return super().format_help()


def _job_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process (which is when the
    `train --jobs` default reads the CPU count)."""
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
    p.add_argument("--jobs", type=_job_count, default=nc.worker_count(),
                   help="worker processes for the seven fits, each with one BLAS thread; "
                        "1 fits in this process (default: 2, or 1 on one CPU)")
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
