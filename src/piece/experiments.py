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

Any per-image method failure becomes a failure row; experiments never abort
on them. All randomness is derived from the run seed, so reruns produce
byte-identical CSV files.
"""

from __future__ import annotations

import dataclasses
import json
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
    correct_ids = [
        i for i in range(len(test))
        if pred[i] == test.labels[i] and conf[i] >= cfg.close_correct_max_prob
    ]
    close_ids = [
        i for i in range(len(test))
        if pred[i] == test.labels[i] and conf[i] < cfg.close_correct_max_prob
    ]
    mis_ids = [i for i in range(len(test)) if pred[i] != test.labels[i]]

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


def run_provenance(arts: RunArtifacts) -> dict:
    return {"classifier_sha": arts.classifier_sha, "dataset_sha": arts.manifest_sha}


def _save_explanation(
    paths: RunPaths, subdir: str, tag: str, res, original, arts: RunArtifacts
) -> None:
    base = paths.explanations(subdir)
    os.makedirs(base, exist_ok=True)
    doc = pl.result_to_dict(res)
    doc["provenance"] = run_provenance(arts)
    with open(os.path.join(base, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    shape = np.asarray(original).shape
    recon = nc.forward(arts.generator, res.z).output.reshape(shape)
    write_pgm(original, os.path.join(base, f"{tag}_original.pgm"))
    write_pgm(recon, os.path.join(base, f"{tag}_reconstruction.pgm"))
    write_pgm(res.image_prime, os.path.join(base, f"{tag}_explanation.pgm"))


def _save_baseline(
    paths: RunPaths, subdir: str, tag: str, res: bl.BaselineResult, shape,
    arts: RunArtifacts,
) -> None:
    base = paths.explanations(subdir)
    os.makedirs(base, exist_ok=True)
    doc = {
        "method": res.method,
        "mode": res.mode,
        "failed": res.failed,
        "failure_reason": res.failure_reason,
        "steps_taken": res.steps_taken,
        "crossed_step": res.crossed_step,
        "z_prime": None if res.z_prime is None else [float(v) for v in res.z_prime],
        "provenance": run_provenance(arts),
    }
    with open(os.path.join(base, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if res.image is not None:
        write_pgm(res.image.reshape(shape), os.path.join(base, f"{tag}_explanation.pgm"))


def _features_of(classifier: nc.Network, flat_image: np.ndarray) -> np.ndarray:
    body, _ = nc.split_at_tap(classifier)
    return nc.forward(body, flat_image).output


def _fit_quality_rows(scope: str, results: list, arts: RunArtifacts) -> list:
    ks_values = [p for r in results for p in r.exceptional_ks_p]
    all_fitted = [
        m.dist.ks_p
        for row in arts.stats.models
        for m in row
        if not m.degenerate
    ]
    return [
        [
            scope,
            float(np.mean(ks_values)) if ks_values else None,
            len(ks_values),
            float(np.mean(all_fitted)) if all_fitted else None,
            len(all_fitted),
        ]
    ]


_FIT_QUALITY_HEADER = (
    "scope",
    "mean_ks_p_exceptional",
    "n_exceptional_features",
    "mean_ks_p_all_fitted",
    "n_fitted_models",
)


# ---------------------------------------------------------------------------
# Experiment 1


def run_experiment1(arts: RunArtifacts, paths: RunPaths) -> dict:
    cfg = arts.config
    cases = compose_test_set(arts)
    _write_testset_csv(cases, paths.reports("expt1_testset.csv"))

    shape = arts.test_data.images.shape[1:]
    rows: list = []
    piece_results: list = []
    expl_images: dict = {m: [] for m in ("piece", "min_edit", "c_min_edit")}
    expl_classes: dict = {m: [] for m in ("piece", "min_edit", "c_min_edit")}
    sweep_counters: dict = {
        lam: {"verified": 0, "failed": 0, "nn": []} for lam in cfg.baselines.lam_sweep
    }
    bcfg = cfg.baselines.method_config()

    for case in cases:
        request = pl.ExplanationRequest(
            image=case.image,
            true_label=case.label,
            mode="counterfactual",
            alpha=cfg.alpha,
            settings=cfg.optim,
            seed=derive_seed(cfg.seed, 1, case.image_id),
            image_id=case.image_id,
        )
        try:
            ctx = pl.prepare_context(request, arts.classifier, arts.generator, arts.stats)
        except pl.PipelineError:
            # without a context no method can run for this image
            for method in ("piece", "min_edit", "c_min_edit"):
                rows.append(
                    evalx.MetricRow(
                        method, "counterfactual", case.image_id, case.predicted, -1,
                        failed=True,
                    )
                )
            continue
        c, c_prime = ctx.c, ctx.selection.c_prime

        res = pl.explain(request, arts.classifier, arts.generator, arts.stats, context=ctx)
        piece_results.append(res)
        rows.append(
            _metric_row(
                "piece", "counterfactual", case.image_id, c, c_prime,
                res.image_prime.ravel(), res.verified, False, arts, target=c_prime,
            )
        )
        if res.verified:
            expl_images["piece"].append(res.image_prime.ravel())
            expl_classes["piece"].append(c_prime)
        _save_explanation(paths, "expt1", f"piece_cf_{case.image_id:04d}", res, case.image, arts)

        base_results = {}
        for method in ("min_edit", "c_min_edit"):
            bres = base_results[method] = bl.run_baseline(
                method, ctx.inversion.z, ctx.x, c, c_prime,
                arts.classifier, arts.generator, bcfg, "counterfactual",
            )
            if bres.failed:
                rows.append(
                    evalx.MetricRow(
                        method, "counterfactual", case.image_id, c, c_prime, failed=True
                    )
                )
            else:
                # the stopping rule guarantees this; verify anyway
                pred = int(np.argmax(nc.forward(arts.classifier, bres.image).output))
                rows.append(
                    _metric_row(
                        method, "counterfactual", case.image_id, c, c_prime,
                        bres.image, pred == c_prime, False, arts, target=c_prime,
                    )
                )
                expl_images[method].append(np.asarray(bres.image))
                expl_classes[method].append(c_prime)
            _save_baseline(paths, "expt1", f"{method}_cf_{case.image_id:04d}", bres, shape, arts)

        for lam in cfg.baselines.lam_sweep:
            scfg = dataclasses.replace(bcfg, lam=lam)
            if scfg == bcfg:
                # the main c-min-edit run above is this very run
                sres = base_results["c_min_edit"]
            else:
                sres = bl.c_min_edit(
                    ctx.inversion.z, ctx.x, c, c_prime, arts.classifier, arts.generator,
                    scfg, "counterfactual",
                )
            rec = sweep_counters[lam]
            if sres.failed:
                rec["failed"] += 1
            else:
                rec["verified"] += 1
                rec["nn"].append(
                    evalx.nn_dist(_features_of(arts.classifier, sres.image), arts.latents)
                )

    report = evalx.build_report(rows)
    evalx.write_report_rows(report, paths.reports("expt1_rows.csv"))
    evalx.write_report_aggregates(report, paths.reports("expt1_aggregates.csv"))

    # substitutability block
    subst_rows = []
    for method in ("piece", "min_edit", "c_min_edit"):
        if not expl_images[method]:
            continue
        for k in (cfg.metrics.knn_k, cfg.metrics.knn_k_extra):
            sres = evalx.substitutability(
                np.stack(expl_images[method]),
                np.asarray(expl_classes[method]),
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
    scopes = [("all", report.rows)]
    for method in ("piece", "min_edit", "c_min_edit"):
        scopes.append((method, [r for r in report.rows if r.method == method]))
    for scope, members in scopes:
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
        rec = sweep_counters[lam]
        sweep_rows.append(
            [
                lam, rec["verified"], rec["failed"],
                float(np.mean(rec["nn"])) if rec["nn"] else None,
            ]
        )
    evalx.write_csv(
        paths.reports("expt1_lambda_sweep.csv"),
        ("lambda", "n_verified", "n_failed", "mean_nn_dist"),
        sweep_rows,
    )

    evalx.write_csv(
        paths.reports("expt1_fit_quality.csv"),
        _FIT_QUALITY_HEADER,
        _fit_quality_rows("expt1", piece_results, arts),
    )

    n_rows = len(report.rows)
    n_failed = sum(1 for r in report.rows if r.failed)
    return {"rows": n_rows, "failed": n_failed, "cases": len(cases)}


def _metric_row(
    method: str,
    mode: str,
    image_id: int,
    c: int,
    c_prime: int,
    flat_image: np.ndarray,
    verified: bool,
    failed: bool,
    arts: RunArtifacts,
    target: int,
) -> evalx.MetricRow:
    cfg = arts.config
    mc_mean, mc_std = evalx.mc_dropout(
        arts.classifier,
        flat_image,
        target,
        passes=cfg.metrics.mc_passes,
        seed=derive_seed(cfg.seed, 9, image_id, _METHOD_CODES[method], _MODE_CODES[mode]),
    )
    feats = _features_of(arts.classifier, flat_image)
    return evalx.MetricRow(
        method,
        mode,
        image_id,
        c,
        c_prime,
        mc_mean=mc_mean,
        mc_std=mc_std,
        nn_dist=evalx.nn_dist(feats, arts.latents),
        im1=evalx.im1(flat_image, arts.class_aes[c], arts.class_aes[c_prime]),
        verified=verified,
        failed=failed,
    )


_METHOD_CODES = {"piece": 0, "min_edit": 1, "c_min_edit": 2}
_MODE_CODES = {"counterfactual": 0, "semifactual": 1, "proportional": 2, "distance": 3}


# ---------------------------------------------------------------------------
# Experiment 2


def run_experiment2(arts: RunArtifacts, paths: RunPaths) -> dict:
    cfg = arts.config
    cases = [c for c in compose_test_set(arts) if c.bucket == "correct"]
    cases = cases[: cfg.experiment.n_semifactual]
    _write_testset_csv(cases, paths.reports("expt2_testset.csv"))

    shape = arts.test_data.images.shape[1:]
    maxedit_rows: list = []
    distance_rows: list = []
    profile_rows: list = []
    piece_results: list = []
    n_rows = 0
    n_failed = 0
    bcfg = cfg.baselines.method_config()

    for case in cases:
        base_seed = derive_seed(cfg.seed, 2, case.image_id)
        request = pl.ExplanationRequest(
            image=case.image,
            true_label=case.label,
            mode="semifactual",
            alpha=cfg.alpha,
            settings=cfg.optim,
            seed=base_seed,
            image_id=case.image_id,
        )
        try:
            ctx = pl.prepare_context(request, arts.classifier, arts.generator, arts.stats)
        except pl.PipelineError:
            maxedit_rows.append(["piece", case.image_id, None, False, True])
            n_rows += 1
            n_failed += 1
            continue
        c, c_prime = ctx.c, ctx.selection.c_prime

        # max-edit semifactuals, all three methods
        sf = pl.explain(request, arts.classifier, arts.generator, arts.stats, context=ctx)
        piece_results.append(sf)
        sf_failed = not sf.verified
        maxedit_rows.append(
            [
                "piece", case.image_id,
                evalx.sf_l1(case.image, sf.image_prime), sf.verified, sf_failed,
            ]
        )
        n_rows += 1
        n_failed += sf_failed
        _save_explanation(paths, "expt2", f"piece_sf_{case.image_id:04d}", sf, case.image, arts)

        for method in ("min_edit", "c_min_edit"):
            bres = bl.run_baseline(
                method, ctx.inversion.z, ctx.x, c, c_prime,
                arts.classifier, arts.generator, bcfg, "semifactual",
            )
            n_rows += 1
            if bres.failed:
                maxedit_rows.append([method, case.image_id, None, False, True])
                n_failed += 1
            else:
                maxedit_rows.append(
                    [
                        method, case.image_id,
                        evalx.sf_l1(case.image, bres.image.reshape(shape)), True, False,
                    ]
                )
            _save_baseline(paths, "expt2", f"{method}_sf_{case.image_id:04d}", bres, shape, arts)

        # proportional budgets: profile + distance-matched baselines
        for fraction in pl.FRACTIONS:
            preq = pl.ExplanationRequest(
                image=case.image,
                true_label=case.label,
                mode="proportional",
                fraction=fraction,
                alpha=cfg.alpha,
                settings=cfg.optim,
                seed=base_seed,
                image_id=case.image_id,
            )
            pres = pl.explain(
                preq, arts.classifier, arts.generator, arts.stats,
                context=ctx, reference=sf,
            )
            flat_prime = pres.image_prime.ravel()
            feats_prime = _features_of(arts.classifier, flat_prime)
            d_star = float(np.linalg.norm(feats_prime - ctx.x))
            p_l1 = evalx.sf_l1(case.image, pres.image_prime)
            mc_mean, mc_std = evalx.mc_dropout(
                arts.classifier, flat_prime, c,
                passes=cfg.metrics.mc_passes,
                seed=derive_seed(cfg.seed, 9, case.image_id, 0, 2, int(fraction * 100)),
            )
            profile_rows.append(
                [
                    fraction, case.image_id, pres.applied_count, pres.k_reference,
                    mc_mean, mc_std,
                    evalx.nn_dist(feats_prime, arts.latents),
                    evalx.im1(flat_prime, arts.class_aes[c], arts.class_aes[c_prime]),
                    evalx.im2(flat_prime, arts.class_aes[c_prime], arts.ae_full),
                    pres.verified,
                ]
            )
            n_rows += 1
            n_failed += not pres.verified
            distance_rows.append(
                [fraction, "piece", case.image_id, d_star, p_l1, pres.verified, False]
            )

            for method in ("min_edit", "c_min_edit"):
                dres = bl.run_to_distance(
                    method, ctx.inversion.z, ctx.x, c, c_prime, d_star,
                    arts.classifier, arts.generator, bcfg,
                )
                n_rows += 1
                if dres.failed:
                    distance_rows.append(
                        [fraction, method, case.image_id, d_star, None, False, True]
                    )
                    n_failed += 1
                else:
                    distance_rows.append(
                        [
                            fraction, method, case.image_id, d_star,
                            evalx.sf_l1(case.image, dres.image.reshape(shape)),
                            True, False,
                        ]
                    )

    evalx.write_csv(
        paths.reports("expt2_maxedit.csv"),
        ("method", "image_id", "l1", "verified", "failed"),
        maxedit_rows,
    )
    agg_rows = []
    for method in ("piece", "min_edit", "c_min_edit"):
        vals = [r[2] for r in maxedit_rows if r[0] == method and not r[4]]
        agg_rows.append(
            [
                method,
                float(np.mean(vals)) if vals else None,
                float(np.std(vals, ddof=1)) if len(vals) > 1 else None,
                len(vals),
                sum(1 for r in maxedit_rows if r[0] == method and r[4]),
            ]
        )
    evalx.write_csv(
        paths.reports("expt2_maxedit_aggregates.csv"),
        ("method", "mean_l1", "std_l1", "n", "failures"),
        agg_rows,
    )
    evalx.write_csv(
        paths.reports("expt2_distance_matched.csv"),
        ("fraction", "method", "image_id", "target_distance", "l1", "verified", "failed"),
        distance_rows,
    )
    evalx.write_csv(
        paths.reports("expt2_profile.csv"),
        ("fraction", "image_id", "applied_count", "k_reference", "mc_mean", "mc_std",
         "nn_dist", "im1", "im2", "verified"),
        profile_rows,
    )
    evalx.write_csv(
        paths.reports("expt2_fit_quality.csv"),
        _FIT_QUALITY_HEADER,
        _fit_quality_rows("expt2", piece_results, arts),
    )
    return {"rows": n_rows, "failed": n_failed, "cases": len(cases)}
