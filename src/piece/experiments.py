"""Benchmark experiment runners.

Experiment 1 (counterfactuals): composes a test set of correct,
close-correct (low-confidence), and misclassified images, explains each with
the main pipeline and both minimal-edit baselines, and reports plausibility
metrics, substitutability, and the distance/plausibility correlations.

Experiment 2 (semifactuals): on correctly classified images, compares
max-edit semifactuals across methods by pixel L1, re-runs the baselines
matched to the pipeline's latent displacement at 25/50/75/100 percent
feature-change budgets, and profiles the pipeline's plausibility across
those budgets.

Both explain their images through one function (`_explain_images`), and
one builder (`_row`) makes every report row. The images go through phases,
so that the latent searches run over all images at once, each image
exactly as it would run alone:

1. prepare every context: one stacked inversion of all images, then each
   image's class selection and exceptional features;
2. explain each image by PIECE (feature walk and visualization);
3. run each baseline over the stack of prepared images;
4. experiment 1: run each lambda of the sweep over that stack. Experiment
   2: explain each image by PIECE at each proportional budget, then run
   each baseline's distance-matched search over the stack of all images
   and budgets;
5. build the rows and write the reports, in test-set order.

Any per-image method failure, an overflow among them, becomes a failure
row; experiments never abort on them. All randomness is derived from the
run seed, so reruns produce byte-identical CSV files.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import os
from dataclasses import dataclass

import numpy as np

from . import baselines as bl
from . import evalx
from . import netcore as nc
from . import pipeline as pl
from .datagen import write_pgm
from .runcfg import RunArtifacts, RunPaths


def derive_seed(*parts) -> int:
    """Stable independent seed from integer parts."""
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, np.uint64)[0] % (2**62))


@dataclass
class TestCase:
    image_id: int
    image: np.ndarray
    label: int
    predicted: int
    confidence: float
    bucket: str  # correct | close_correct | misclassified


def compose_test_set(arts: RunArtifacts) -> list:
    """Correct + close-correct + every misclassified test image.

    Close-correct means a correct prediction whose softmax confidence falls
    below the configured threshold. If the split cannot fill a bucket, the
    shortfall is taken from the remaining confident-correct images so the
    benchmark keeps its size.
    """
    cfg = arts.config.experiment
    test = arts.test_data
    probs = nc.forward(arts.classifier, test.flat()).output
    pred = np.argmax(probs, axis=1)
    conf = np.max(probs, axis=1)
    right = pred == test.labels
    confident = conf >= cfg.close_correct_max_prob
    correct_ids = np.flatnonzero(right & confident)
    close_ids = np.flatnonzero(right & ~confident)
    mis_ids = np.flatnonzero(~right)

    chosen: list = []

    def add(ids, bucket):
        for i in ids:
            chosen.append(
                TestCase(
                    int(i),
                    test.images[i],
                    int(test.labels[i]),
                    int(pred[i]),
                    float(conf[i]),
                    bucket,
                )
            )

    add(correct_ids[: cfg.n_correct], "correct")
    add(close_ids[: cfg.n_close_correct], "close_correct")
    shortfall = cfg.n_close_correct - len(close_ids)
    if shortfall > 0:
        add(correct_ids[cfg.n_correct : cfg.n_correct + shortfall], "correct")
    add(mis_ids, "misclassified")
    return chosen


def _write_testset_csv(cases: list, path) -> None:
    evalx.write_csv(
        path,
        ("image_id", "label", "predicted", "confidence", "bucket"),
        [[c.image_id, c.label, c.predicted, c.confidence, c.bucket] for c in cases],
    )


# Fields a record leaves out: rendered images (saved as PGMs). One field is
# recorded under another key.
_NOT_RECORDED = {"image", "image_prime"}
_RECORD_KEYS = {"mod_steps": "steps"}


def record(value):
    """JSON-ready view of a result: dataclasses as dicts of their fields,
    arrays as lists, enums as their values."""
    if dataclasses.is_dataclass(value):
        return {
            _RECORD_KEYS.get(f.name, f.name): record(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name not in _NOT_RECORDED
        }
    if isinstance(value, list):
        return [record(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, enum.Enum):
        return value.value
    return value


def _write_record(paths: RunPaths, subdir: str, tag: str, res, arts: RunArtifacts) -> str:
    """`res` as explanations/<subdir>/<tag>.json with the run's provenance;
    returns the directory."""
    base = paths.explanations(subdir)
    os.makedirs(base, exist_ok=True)
    provenance = {"classifier_sha": arts.classifier_sha, "dataset_sha": arts.manifest_sha}
    doc = {**record(res), "provenance": provenance}
    nc.write_json(os.path.join(base, f"{tag}.json"), doc, indent=1)
    return base


def save_explanation(
    paths: RunPaths, subdir: str, tag: str, res: pl.ExplanationResult, original,
    arts: RunArtifacts,
) -> None:
    """Write an explanation's record and its original, reconstruction and
    explanation images."""
    base = _write_record(paths, subdir, tag, res, arts)
    recon = nc.forward(arts.generator, res.z).output.reshape(original.shape)
    write_pgm(original, os.path.join(base, f"{tag}_original.pgm"))
    write_pgm(recon, os.path.join(base, f"{tag}_reconstruction.pgm"))
    write_pgm(res.image_prime, os.path.join(base, f"{tag}_explanation.pgm"))


def _save_baseline(
    paths: RunPaths, subdir: str, tag: str, res: bl.BaselineResult, shape, arts: RunArtifacts
) -> None:
    base = _write_record(paths, subdir, tag, res, arts)
    if res.image is not None:
        write_pgm(res.image.reshape(shape), os.path.join(base, f"{tag}_explanation.pgm"))


def _write_fit_quality(paths: RunPaths, scope: str, results: list, arts: RunArtifacts) -> None:
    """reports/<scope>_fit_quality.csv: the mean KS p-value of the models
    behind the flagged features, next to that of every fitted model."""
    ks_values = [p for r in results for p in r.exceptional_ks_p]
    all_fitted = [m.dist.ks_p for row in arts.stats.models for m in row if not m.degenerate]
    evalx.write_csv(
        paths.reports(f"{scope}_fit_quality.csv"),
        ("scope", "mean_ks_p_exceptional", "n_exceptional_features",
         "mean_ks_p_all_fitted", "n_fitted_models"),
        [[
            scope,
            float(np.mean(ks_values)) if ks_values else None,
            len(ks_values),
            float(np.mean(all_fitted)) if all_fitted else None,
            len(all_fitted),
        ]],
    )


_METHODS = ("piece", *bl.METHODS)
_MODE_CODES = {"counterfactual": 0, "semifactual": 1, "proportional": 2, "distance": 3}


def _row(
    arts: RunArtifacts, body: nc.Network, case: TestCase, ctx: pl.ExplanationContext | None,
    method: str, mode: str, image=None, verified: bool = False, failed: bool | None = None,
    measure=("mc", "nn_dist", "im", "l1"), **budget,
) -> evalx.MetricRow:
    """Every report row of both experiments.

    Without a context (`ctx` None) the image could not be prepared: c is
    the prediction, c' is -1 and the row failed. Without an `image` the
    method failed, unless `failed` says otherwise. A flat `image` is
    measured by the metrics `measure` names: MC-dropout on the class it
    should have (c' for a counterfactual, else c), nearest-latent distance
    of its features (`body` is the classifier's feature extractor), IM1,
    IM2 and the pixel L1 to the original. `budget` sets experiment 2's
    budget fields; its fraction is part of the MC seed."""
    cfg = arts.config
    c, c_prime = (ctx.c, ctx.selection.c_prime) if ctx else (case.predicted, -1)
    metrics: dict = {}
    if image is not None:
        if "mc" in measure:
            seed_parts = [cfg.seed, 9, case.image_id, _METHODS.index(method), _MODE_CODES[mode]]
            if "fraction" in budget:
                seed_parts.append(int(budget["fraction"] * 100))
            metrics["mc_mean"], metrics["mc_std"] = evalx.mc_dropout(
                arts.classifier,
                image,
                c_prime if mode == "counterfactual" else c,
                passes=cfg.metrics.mc_passes,
                seed=derive_seed(*seed_parts),
            )
        if "nn_dist" in measure:
            metrics["nn_dist"] = evalx.nn_dist(nc.forward(body, image).output, arts.latents)
        if "im" in measure:
            metrics["im1"] = evalx.im1(image, arts.class_aes[c], arts.class_aes[c_prime])
            metrics["im2"] = evalx.im2(image, arts.class_aes[c_prime], arts.ae_full)
        if "l1" in measure:
            metrics["l1"] = evalx.sf_l1(case.image, image.reshape(case.image.shape))
    return evalx.MetricRow(
        method, mode, case.image_id, c, c_prime,
        verified=verified,
        failed=image is None if failed is None else failed,
        **metrics,
        **budget,
    )


def _baseline_runs(
    arts: RunArtifacts, method: str, contexts: list, bcfg: bl.BaselineConfig, mode: str,
    d_star=None,
) -> list:
    """`method` over the stack of prepared images, one result per context."""
    if not contexts:
        return []
    return bl.run_baseline(
        method,
        np.stack([ctx.inversion.z for ctx in contexts]),
        np.stack([ctx.x for ctx in contexts]),
        [ctx.c for ctx in contexts],
        [ctx.selection.c_prime for ctx in contexts],
        arts.classifier, arts.generator, bcfg, mode, d_star,
    )


def _explain_images(arts: RunArtifacts, paths: RunPaths, expt: int, cases: list) -> list:
    """Explain every test image by PIECE and both baselines in experiment
    `expt`'s mode, saving every record and image under explanations/.
    Returns, per case, the request, the context and each method's result,
    or None when the image cannot be prepared. Runs the module's phases 1
    to 3: one stacked inversion, then each image's selection and features;
    PIECE per image; each baseline over the stack of prepared images."""
    cfg = arts.config
    mode, tag = (("counterfactual", "cf"), ("semifactual", "sf"))[expt - 1]
    requests = [
        pl.ExplanationRequest(
            image=case.image,
            true_label=case.label,
            mode=mode,
            alpha=cfg.alpha,
            settings=cfg.optim,
            seed=derive_seed(cfg.seed, expt, case.image_id),
            image_id=case.image_id,
        )
        for case in cases
    ]
    body, _ = nc.split_at_tap(arts.classifier)
    inversions = pl.invert_image(
        arts.generator, body, np.stack([case.image for case in cases]), cfg.optim,
        [request.seed for request in requests],
    ) if cases else []
    explained: list = []
    for case, request, inversion in zip(cases, requests, inversions):
        try:
            ctx = pl.prepare_context(
                request, arts.classifier, arts.generator, arts.stats, inversion
            )
        except (pl.PipelineError, nc.NumericsError):
            explained.append(None)
            continue
        res = pl.explain(request, arts.classifier, arts.generator, arts.stats, context=ctx)
        save_explanation(paths, f"expt{expt}", f"piece_{tag}_{case.image_id:04d}", res,
                         case.image, arts)
        explained.append((request, ctx, {"piece": res}))
    prepared = [(case, e) for case, e in zip(cases, explained) if e is not None]
    contexts = [ctx for _, (_, ctx, _) in prepared]
    for method in bl.METHODS:
        runs = _baseline_runs(arts, method, contexts, cfg.baselines.method_config(), mode)
        for (case, (_, _, results)), res in zip(prepared, runs):
            results[method] = res
            _save_baseline(paths, f"expt{expt}", f"{method}_{tag}_{case.image_id:04d}", res,
                           case.image.shape, arts)
    return explained


# ---------------------------------------------------------------------------
# Experiment 1


def run_experiment1(arts: RunArtifacts, paths: RunPaths) -> dict:
    cfg = arts.config
    cases = compose_test_set(arts)
    _write_testset_csv(cases, paths.reports("expt1_testset.csv"))

    rows: list = []
    piece_results: list = []
    kept: dict = {m: [] for m in _METHODS}  # (image, c') pairs for substitutability
    sweep: dict = {lam: [] for lam in cfg.baselines.lam_sweep}  # lambda -> rows
    bcfg = cfg.baselines.method_config()
    body, _ = nc.split_at_tap(arts.classifier)
    row = functools.partial(_row, arts, body)

    explained = _explain_images(arts, paths, 1, cases)
    prepared = [e for e in explained if e is not None]
    # the lambda sweep, each lambda over the stack; at the configured lambda
    # the main c-min-edit runs are these very runs
    swept = {
        lam: iter(
            [results["c_min_edit"] for _, _, results in prepared]
            if dataclasses.replace(bcfg, lam=lam) == bcfg
            else _baseline_runs(
                arts, "c_min_edit", [ctx for _, ctx, _ in prepared],
                dataclasses.replace(bcfg, lam=lam), "counterfactual",
            )
        )
        for lam in cfg.baselines.lam_sweep
    }

    for case, e in zip(cases, explained):
        if e is None:
            # without a context no method can run for this image
            rows += [row(case, None, method, "counterfactual") for method in _METHODS]
            continue
        _, ctx, results = e
        c_prime = ctx.selection.c_prime
        piece_results.append(results["piece"])
        for method, res in results.items():
            if method == "piece":
                image, verified, keep = res.image_prime.ravel(), res.verified, res.verified
            else:  # the stopping rule guarantees verification; check anyway
                image, keep = res.image, not res.failed
                probs = nc.forward(arts.classifier, image).output if keep else None
                verified = keep and int(np.argmax(probs)) == c_prime
            rows.append(row(case, ctx, method, "counterfactual", image, verified))
            if keep:
                kept[method].append((np.asarray(image), c_prime))
        for lam in cfg.baselines.lam_sweep:
            sres = next(swept[lam])
            sweep[lam].append(
                row(case, ctx, "c_min_edit", "counterfactual", sres.image, measure=("nn_dist",))
            )

    report = evalx.build_report(rows)
    evalx.write_rows(paths.reports("expt1_rows.csv"), evalx.ROW_COLUMNS, report.rows)
    evalx.write_report_aggregates(report, paths.reports("expt1_aggregates.csv"))

    # substitutability block
    subst_rows = []
    for method in _METHODS:
        if not kept[method]:
            continue
        images, classes = zip(*kept[method])
        for k in (cfg.metrics.knn_k, cfg.metrics.knn_k_extra):
            sres = evalx.substitutability(
                np.stack(images),
                np.asarray(classes),
                arts.train_data.flat(),
                arts.train_data.labels,
                arts.test_data.flat(),
                arts.test_data.labels,
                k=k,
            )
            subst_rows.append(
                [
                    method, k, sres.n_explanations, sres.accuracy,
                    sres.reference_accuracy, sres.score,
                    ";".join(str(c) for c in sres.missing_classes) or None,
                ]
            )
    evalx.write_csv(
        paths.reports("expt1_substitutability.csv"),
        ("method", "k", "n_explanations", "accuracy", "reference_accuracy",
         "r_pct_sub", "missing_classes"),
        subst_rows,
    )

    # correlation block (pooled over methods, plus per method)
    corr_rows = []
    for scope in ("all", *_METHODS):
        members = [r for r in report.rows if scope in ("all", r.method)]
        ok = [r for r in members if not r.failed and r.nn_dist is not None]
        for metric in ("mc_mean", "mc_std"):
            xs = [r.nn_dist for r in ok if getattr(r, metric) is not None]
            ys = [getattr(r, metric) for r in ok if getattr(r, metric) is not None]
            r_val = evalx.pearson(xs, ys) if len(xs) >= 3 else None
            corr_rows.append([scope, f"nn_dist_vs_{metric}", r_val, len(xs)])
    evalx.write_csv(
        paths.reports("expt1_correlation.csv"),
        ("scope", "pair", "pearson_r", "n"),
        corr_rows,
    )

    # lambda sweep block
    sweep_rows = []
    for lam in cfg.baselines.lam_sweep:
        agg = evalx.aggregate(sweep[lam], "nn_dist")
        sweep_rows.append([lam, agg["n"], agg["failures"], agg["mean"]])
    evalx.write_csv(
        paths.reports("expt1_lambda_sweep.csv"),
        ("lambda", "n_verified", "n_failed", "mean_nn_dist"),
        sweep_rows,
    )

    _write_fit_quality(paths, "expt1", piece_results, arts)

    n_failed = sum(1 for r in report.rows if r.failed)
    return {"rows": len(report.rows), "failed": n_failed, "cases": len(cases)}


# ---------------------------------------------------------------------------
# Experiment 2


def run_experiment2(arts: RunArtifacts, paths: RunPaths) -> dict:
    cfg = arts.config
    cases = [c for c in compose_test_set(arts) if c.bucket == "correct"]
    cases = cases[: cfg.experiment.n_semifactual]
    _write_testset_csv(cases, paths.reports("expt2_testset.csv"))

    rows: list = []  # in loop order: max-edit, then each budget's three
    piece_results: list = []
    bcfg = cfg.baselines.method_config()
    body, _ = nc.split_at_tap(arts.classifier)
    row = functools.partial(_row, arts, body)

    explained = _explain_images(arts, paths, 2, cases)
    # each image's proportional explanation at each budget, then each
    # baseline over the stack, matched to the feature distance PIECE moved
    budgets = [
        (ctx, pl.explain(
            dataclasses.replace(request, mode="proportional", fraction=fraction),
            arts.classifier, arts.generator, arts.stats, context=ctx, reference=results["piece"],
        ))
        for request, ctx, results in filter(None, explained) for fraction in pl.FRACTIONS
    ]
    d_stars = [
        float(np.linalg.norm(nc.forward(body, pres.image_prime.ravel()).output - ctx.x))
        for ctx, pres in budgets
    ]
    matched = {
        m: iter(_baseline_runs(arts, m, [ctx for ctx, _ in budgets], bcfg, "distance", d_stars))
        for m in bl.METHODS
    }
    budget_results = iter(zip(budgets, d_stars))

    for case, e in zip(cases, explained):
        if e is None:
            # without a context no method can run: every row of this image fails
            rows += [row(case, None, method, "semifactual") for method in _METHODS]
            for fraction in pl.FRACTIONS:
                rows.append(row(case, None, "piece", "proportional", fraction=fraction))
                rows += [row(case, None, m, "distance", fraction=fraction) for m in bl.METHODS]
            continue
        _, ctx, results = e

        # max-edit semifactuals, all three methods; an unverified one failed
        sf = results["piece"]
        piece_results.append(sf)
        for method, res in results.items():
            if res is sf:
                image, verified = sf.image_prime.ravel(), sf.verified
            else:
                image, verified = res.image, not res.failed
            rows.append(
                row(
                    case, ctx, method, "semifactual", image, verified,
                    failed=not verified, measure=("l1",),
                )
            )

        # proportional budgets: profile + distance-matched baselines
        for fraction in pl.FRACTIONS:
            (_, pres), d_star = next(budget_results)
            rows.append(
                row(
                    case, ctx, "piece", "proportional", pres.image_prime.ravel(), pres.verified,
                    fraction=fraction, target_distance=d_star,
                    applied_count=pres.applied_count, k_reference=pres.k_reference,
                )
            )
            for method in bl.METHODS:
                dres = next(matched[method])
                rows.append(
                    row(
                        case, ctx, method, "distance", dres.image, not dres.failed,
                        measure=("l1",), fraction=fraction, target_distance=d_star,
                    )
                )

    maxedit = [r for r in rows if r.mode == "semifactual"]
    evalx.write_rows(
        paths.reports("expt2_maxedit.csv"),
        ("method", "image_id", "l1", "verified", "failed"),
        maxedit,
    )
    agg_rows = []
    for method in _METHODS:
        agg = evalx.aggregate([r for r in maxedit if r.method == method], "l1")
        agg_rows.append([method, agg["mean"], agg["std"], agg["n"], agg["failures"]])
    evalx.write_csv(
        paths.reports("expt2_maxedit_aggregates.csv"),
        ("method", "mean_l1", "std_l1", "n", "failures"),
        agg_rows,
    )
    evalx.write_rows(
        paths.reports("expt2_distance_matched.csv"),
        ("fraction", "method", "image_id", "target_distance", "l1", "verified", "failed"),
        [r for r in rows if r.fraction is not None],
    )
    evalx.write_rows(
        paths.reports("expt2_profile.csv"),
        ("fraction", "image_id", "applied_count", "k_reference", "mc_mean", "mc_std",
         "nn_dist", "im1", "im2", "verified"),
        [r for r in rows if r.mode == "proportional"],
    )
    _write_fit_quality(paths, "expt2", piece_results, arts)
    # an unverified row is a failure here, unlike in experiment 1
    n_failed = sum(1 for r in rows if not r.verified)
    return {"rows": len(rows), "failed": n_failed, "cases": len(cases)}
