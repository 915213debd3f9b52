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

0. look up each image's inversion in the run's store (`inversions`), which
   `piece explain` shares; this runs before the experiment's first write,
   so a damaged entry leaves its reports as they were. Each shard (below)
   inverts its misses as one stack;
1. explain every image by PIECE, in `pipeline.explain_stack`'s phases:
   class selection and the rendering each run as one stack, the feature
   walk per image, and the semifactual backoff in rounds;
2. run each baseline over the stack of explained images;
3. experiment 1: run each lambda of the sweep over that stack. Experiment
   2: take each image's PIECE semifactual to each proportional budget, and
   render every budget that needs a rendering as one stack; then run each
   baseline's distance-matched search over the stack of all rendered
   budgets;
4. build the rows, MC-dropout included; then store the inversions made
   and write the records, images and reports, in test-set order.

Phases 0 (its misses) to 3, and the rows of phase 4, run on shards of the
test set (`in_shards`): one per CPU this process may use
(`nc.worker_count`), the first in this process and each other one in a
child forked after the store lookup, which sends its results back through
a pipe and writes nothing. As each image runs as it would alone, the
shards give the same bits as one stack, so every file the experiment
writes, its stage record included, is the same on one CPU or two. This
process writes every file, once all shards have ended; an error of any
shard ends the experiment before its first write.

Any per-image method failure, an overflow among them, becomes a failure
row; experiments never abort on them. A proportional rendering that fails
fails its budget's rows: the PIECE row and its distance-matched rows,
which have no distance to match. All randomness is derived from the run
seed, so reruns produce byte-identical CSV files.

Each experiment runs as a stage (`RunPaths.stage`) that asks the paths it
is given for every report, record and image it writes, so its record,
stages/experiment-<N>.json, lists each of them with its sha256.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import os
import pickle
import signal
import traceback
import typing
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


def inversion_keys(arts: RunArtifacts, image_ids) -> list:
    """The key of each test image's inversion: everything it depends on,
    the generator and classifier files, the image, its seed and the
    inversion settings."""
    cfg = arts.config
    shared = {
        "generator_sha": arts.sha("models/generator.json"),
        "classifier_sha": arts.sha("models/classifier.json"),
        **{name: getattr(cfg.optim, name)
           for name in ("invert_restarts", "invert_steps", "invert_lr")},
    }
    return [
        {**shared, "seed": derive_seed(cfg.seed, image_id), "image_sha": nc.checksum(image)}
        for image_id, image in zip(image_ids, arts.test_images(image_ids).images)
    ]


def _stored_inversions(arts: RunArtifacts, image_ids) -> list:
    """Each test image's entry in the run's store of inversions: its key
    (`inversion_keys`), its path inversions/NNNN.json (NNNN the index) and
    its stored InversionResult, or None for a miss. A damaged entry raises
    InversionFormatError."""
    latent_dim = arts.generator.input_dim
    found = []
    for image_id, key in zip(image_ids, inversion_keys(arts, image_ids)):
        path = arts.paths.inversions(f"{image_id:04d}.json")
        found.append((key, path, pl.load_inversion(path, key, latent_dim)
                      if os.path.exists(path) else None))
    return found


def _inverted(arts: RunArtifacts, images: list, found: list) -> list:
    """Each image's inversion: its stored one in `found` (its entry of
    `_stored_inversions`), else made now, the misses as one `invert_image`
    stack, each from its key's seed; or the InversionError of the image."""
    misses = [i for i, (_, _, stored) in enumerate(found) if stored is None]
    body, _ = nc.split_at_tap(arts.classifier)
    made = iter(pl._per_image(len(misses), lambda: pl.invert_image(
        arts.generator, body, np.stack([images[i] for i in misses]), arts.config.optim,
        [found[i][0]["seed"] for i in misses],
    )))
    return [next(made) if stored is None else stored for _, _, stored in found]


def _store_inversions(found: list, invs: list) -> None:
    """Store each inversion of `invs` made now, a miss of `found`, unless
    it failed."""
    for (key, path, stored), inv in zip(found, invs):
        if stored is None and not isinstance(inv, Exception):
            pl.save_inversion(inv, key, path)


def inversions(arts: RunArtifacts, image_ids) -> list:
    """Each test image's InversionResult, or its InversionError, one per
    image per run: the run's stored inversions/NNNN.json (NNNN the index)
    while its key (`inversion_keys`) matches; else made now, the misses as
    one `invert_image` stack, each from its image's one seed, and stored
    unless it failed. A damaged entry raises InversionFormatError. The
    store is a cache that no stage record lists."""
    found = _stored_inversions(arts, image_ids)
    invs = _inverted(arts, arts.test_images(image_ids).images, found)
    _store_inversions(found, invs)
    return invs


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


def _write_record(paths: RunPaths, subdir: str, tag: str, res, arts: RunArtifacts) -> None:
    """`res` as explanations/<subdir>/<tag>.json with the run's provenance."""
    provenance = {"classifier_sha": arts.sha("models/classifier.json"),
                  "dataset_sha": arts.records["datagen"]}
    doc = {**record(res), "provenance": provenance}
    nc.write_json(paths.explanations(subdir, f"{tag}.json"), doc, indent=1)


def save_explanation(
    paths: RunPaths, subdir: str, tag: str, res: pl.ExplanationResult, original,
    arts: RunArtifacts,
) -> None:
    """Write an explanation's record and its original, reconstruction and
    explanation images."""
    _write_record(paths, subdir, tag, res, arts)
    recon = nc.forward(arts.generator, res.z).output.reshape(original.shape)
    write_pgm(original, paths.explanations(subdir, f"{tag}_original.pgm"))
    write_pgm(recon, paths.explanations(subdir, f"{tag}_reconstruction.pgm"))
    write_pgm(res.image_prime, paths.explanations(subdir, f"{tag}_explanation.pgm"))


def _save_baseline(
    paths: RunPaths, subdir: str, tag: str, res: bl.BaselineResult, shape, arts: RunArtifacts
) -> None:
    _write_record(paths, subdir, tag, res, arts)
    if res.image is not None:
        write_pgm(res.image.reshape(shape), paths.explanations(subdir, f"{tag}_explanation.pgm"))


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
    arts: RunArtifacts, body: nc.Network, case: TestCase, piece: pl.ExplanationResult | None,
    method: str, mode: str, image=None, verified: bool = False, failed: bool | None = None,
    measure=("mc", "nn_dist", "im", "l1"), **budget,
) -> evalx.MetricRow:
    """Every report row of both experiments, with c and c' of PIECE's `piece`.

    Without it (`piece` None) PIECE could not explain the image: c is the
    prediction, c' is -1 and the row failed. Without an `image` the
    method failed, unless `failed` says otherwise. A flat `image` is
    measured by the metrics `measure` names: MC-dropout on the class it
    should have (c' for a counterfactual, else c), nearest-latent distance
    of its features (`body` is the classifier's feature extractor), IM1,
    IM2 and the pixel L1 to the original. `budget` sets experiment 2's
    budget fields; its fraction is part of the MC seed."""
    cfg = arts.config
    c, c_prime = (piece.c, piece.c_prime) if piece else (case.predicted, -1)
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
    arts: RunArtifacts, method: str, pieces: list, bcfg: bl.BaselineConfig, mode: str,
    d_star=None,
) -> list:
    """`method` over the stack of explained images, one result per PIECE result."""
    if not pieces:
        return []
    return bl.run_baseline(
        method,
        np.stack([p.z for p in pieces]),
        np.stack([p.x for p in pieces]),
        [p.c for p in pieces],
        [p.c_prime for p in pieces],
        arts.classifier, arts.generator, bcfg, mode, d_star,
    )


def _explain_images(arts: RunArtifacts, expt: int, cases: list, invs: list) -> list:
    """Explain every test image by PIECE, from its inversion in `invs`, and
    by both baselines in experiment `expt`'s mode. Returns, per case, each
    method's result by method name, or None when PIECE cannot explain the
    image (then no method runs on it). Runs the module's phases 1 and 2:
    PIECE's phases over the stack of images; each baseline over the stack
    of explained images."""
    cfg = arts.config
    mode = ("counterfactual", "semifactual")[expt - 1]
    inverted = [(case, inv) for case, inv in zip(cases, invs) if not isinstance(inv, Exception)]
    stacked = iter(pl.explain_stack(
        [
            pl.ExplanationRequest(
                image=case.image, true_label=case.label, mode=mode, alpha=cfg.alpha,
                image_id=case.image_id, inversion=inv,
            )
            for case, inv in inverted
        ],
        arts.classifier, arts.generator, arts.stats, cfg.optim,
    ))
    explained = []
    for inv in invs:
        res = inv if isinstance(inv, Exception) else next(stacked)
        explained.append(None if isinstance(res, Exception) else {"piece": res})
    succeeded = list(filter(None, explained))
    for method in bl.METHODS:
        runs = _baseline_runs(arts, method, [results["piece"] for results in succeeded],
                              cfg.baselines, mode)
        for results, res in zip(succeeded, runs):
            results[method] = res
    return explained


def _save_explained(arts: RunArtifacts, paths: RunPaths, expt: int, cases: list,
                    explained: list) -> None:
    """Save the record and images of each method's explanation of each case
    under explanations/expt<N>/: PIECE's of every case, then each
    baseline's."""
    tag = ("cf", "sf")[expt - 1]
    succeeded = [(case, results) for case, results in zip(cases, explained) if results]
    for case, results in succeeded:
        save_explanation(paths, f"expt{expt}", f"piece_{tag}_{case.image_id:04d}",
                         results["piece"], case.image, arts)
    for method in bl.METHODS:
        for case, results in succeeded:
            _save_baseline(paths, f"expt{expt}", f"{method}_{tag}_{case.image_id:04d}",
                           results[method], case.image.shape, arts)


class ShardError(Exception):
    """A shard's process ended without sending its results; or, as the cause
    of the error a shard's process sent, that error's traceback there."""


def in_shards(work, items: list) -> list:
    """`work(shard)` over `nc.worker_count()` contiguous shards of `items`,
    joined in item order; `work` returns one result per item.

    This process forks one child per shard after the first, then runs the
    first shard itself. A child only computes: it sends its results, or the
    exception `work` raised, through a pipe and ends with `os._exit`, so it
    writes no file and runs none of the caller's clean-up. It inherits this
    process's memory, BLAS threading included. The first error in shard
    order is raised here, a child's from its traceback; a child that ends
    without sending its results raises ShardError. Every child has ended
    when this returns or raises: on an error here, the children left are
    killed. A child whose parent was killed dies at its write to the pipe,
    which has no reader left. With one worker, or where `os.fork` is
    missing, the one shard runs here.
    """
    n = max(1, min(len(items), nc.worker_count() if hasattr(os, "fork") else 1))
    cuts = [len(items) * k // n for k in range(n + 1)]
    shards = [items[start:end] for start, end in zip(cuts, cuts[1:])]
    children: dict = {}  # shard number -> (pid, the read end of its pipe)
    try:
        for k in range(1, n):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _send(work, shards[k], write,
                      [read, *(pipe.fileno() for _, pipe in children.values())])
            os.close(write)
            children[k] = (pid, os.fdopen(read, "rb"))
        out = list(work(shards[0]))
        for k in range(1, n):
            pid, pipe = children[k]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[k]
            if code or not data:
                how = f"killed by signal {-code}" if code < 0 else f"exit code {code}"
                raise ShardError(f"experiment shard {k + 1} of {n} ended without its "
                                 f"results ({how})")
            results, exc, trace = pickle.loads(data)
            if exc is not None:
                raise exc from ShardError(f"experiment shard {k + 1} of {n} raised:\n{trace}")
            out += results
        return out
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _send(work, shard: list, write: int, readers: list) -> typing.NoReturn:
    """A forked child's part of `in_shards`: close the read ends of the
    pipes it inherited, `readers`, so that a dead parent leaves no reader;
    send `work(shard)`, or the exception it raised and its traceback,
    through the pipe `write`; and end, with exit code 0 once all of it is
    sent. Nothing of the caller runs after it, whatever happens."""
    code = 1
    try:
        for fd in readers:
            os.close(fd)
        try:
            sent = (list(work(shard)), None, None)
        except Exception as exc:  # the parent raises it, from this traceback
            sent = (None, exc, traceback.format_exc())
        with os.fdopen(write, "wb") as pipe:
            pickle.dump(sent, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _explained_cases(arts: RunArtifacts, expt: int, cases: list) -> tuple:
    """Each case's results by method, or None when PIECE cannot explain it
    (`_explain_images`), and its rows in experiment `expt` (`_expt1_rows`,
    `_expt2_rows`): the module's phases 0 to 3 and the rows of phase 4, as
    shards (`in_shards`) after the lookup in the store of inversions. The
    inversions the shards made are stored here, once all have ended."""
    found = _stored_inversions(arts, [case.image_id for case in cases])
    rows = (_expt1_rows, _expt2_rows)[expt - 1]

    def shard(items: list) -> list:
        shard_cases = [case for case, _ in items]
        invs = _inverted(arts, [case.image for case in shard_cases], [f for _, f in items])
        explained = _explain_images(arts, expt, shard_cases, invs)
        return list(zip(invs, explained, rows(arts, shard_cases, explained)))

    outs = in_shards(shard, list(zip(cases, found)))
    _store_inversions(found, [inv for inv, _, _ in outs])
    return [results for _, results, _ in outs], [case_rows for _, _, case_rows in outs]


# ---------------------------------------------------------------------------
# Experiment 1


def _expt1_rows(arts: RunArtifacts, cases: list, explained: list) -> list:
    """Per case: its row of each method, its lambda-sweep row of each
    lambda (none when PIECE failed) and the (method, image, c') of each
    explanation that substitutability keeps. Runs the lambda sweep, each
    lambda over the stack of explained images (phase 3)."""
    cfg = arts.config
    body, _ = nc.split_at_tap(arts.classifier)
    row = functools.partial(_row, arts, body)
    succeeded = list(filter(None, explained))
    # at the configured lambda the main c-min-edit runs are these very runs
    swept = {
        lam: iter(
            [results["c_min_edit"] for results in succeeded]
            if lam == cfg.baselines.lam
            else _baseline_runs(
                arts, "c_min_edit", [results["piece"] for results in succeeded],
                dataclasses.replace(cfg.baselines, lam=lam), "counterfactual",
            )
        )
        for lam in cfg.baselines.lam_sweep
    }
    out = []
    for case, results in zip(cases, explained):
        if results is None:
            out.append(([row(case, None, method, "counterfactual") for method in _METHODS],
                        [], []))
            continue
        piece = results["piece"]
        c_prime = piece.c_prime
        rows, kept = [], []
        for method, res in results.items():
            if method == "piece":
                image, verified, keep = res.image_prime.ravel(), res.verified, res.verified
            else:  # the stopping rule guarantees verification; check anyway
                image, keep = res.image, not res.failed
                probs = nc.forward(arts.classifier, image).output if keep else None
                verified = keep and int(np.argmax(probs)) == c_prime
            rows.append(row(case, piece, method, "counterfactual", image, verified))
            if keep:
                kept.append((method, np.asarray(image), c_prime))
        sweep = [
            row(case, piece, "c_min_edit", "counterfactual", next(swept[lam]).image,
                measure=("nn_dist",))
            for lam in cfg.baselines.lam_sweep
        ]
        out.append((rows, sweep, kept))
    return out


def run_experiment1(arts: RunArtifacts, paths: RunPaths) -> dict:
    cfg = arts.config
    cases = compose_test_set(arts)
    explained, per_case = _explained_cases(arts, 1, cases)
    _write_testset_csv(cases, paths.reports("expt1_testset.csv"))
    _save_explained(arts, paths, 1, cases, explained)

    rows = [r for case_rows, _, _ in per_case for r in case_rows]
    piece_results = [results["piece"] for results in explained if results]
    kept: dict = {m: [] for m in _METHODS}  # (image, c') pairs for substitutability
    for _, _, case_kept in per_case:
        for method, image, c_prime in case_kept:
            kept[method].append((image, c_prime))
    sweep = {  # lambda -> rows
        lam: [case_sweep[k] for _, case_sweep, _ in per_case if case_sweep]
        for k, lam in enumerate(cfg.baselines.lam_sweep)
    }

    report = evalx.build_report(rows)
    evalx.write_rows(paths.reports("expt1_rows.csv"), evalx.ROW_COLUMNS, report.rows)
    evalx.write_report_aggregates(report, paths.reports("expt1_aggregates.csv"))

    # substitutability block
    subst_rows = []
    train, test = arts.train_data, arts.test_data
    reference: dict = {}  # k -> the training set's k-NN accuracy, the same for every method
    for method in _METHODS:
        if not kept[method]:
            continue
        images, classes = zip(*kept[method])
        for k in (cfg.metrics.knn_k, cfg.metrics.knn_k_extra):
            if k not in reference:
                reference[k] = evalx.knn_accuracy(
                    train.flat(), train.labels, test.flat(), test.labels, k
                )
            sres = evalx.substitutability(
                np.stack(images),
                np.asarray(classes),
                train.flat(),
                train.labels,
                test.flat(),
                test.labels,
                k=k,
                reference_accuracy=reference[k],
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


def _expt2_rows(arts: RunArtifacts, cases: list, explained: list) -> list:
    """Per case, its rows in loop order: each method's max-edit row, then
    each budget's proportional row and its distance-matched rows. Runs
    phase 3: each image's proportional explanation at each budget, as one
    stack, then each baseline over the stack of rendered budgets, matched
    to the feature distance PIECE moved; a budget whose rendering failed
    has no distance to match."""
    cfg = arts.config
    body, _ = nc.split_at_tap(arts.classifier)
    row = functools.partial(_row, arts, body)
    budgets = pl.proportional_stack(
        [(results["piece"], fraction) for results in filter(None, explained)
         for fraction in pl.FRACTIONS],
        arts.classifier, arts.generator, arts.stats, cfg.optim,
    )
    d_stars = [
        None if isinstance(pres, Exception) else
        float(np.linalg.norm(nc.forward(body, pres.image_prime.ravel()).output - pres.x))
        for pres in budgets
    ]
    rendered = [(pres, d) for pres, d in zip(budgets, d_stars) if d is not None]
    matched = {
        m: iter(_baseline_runs(
            arts, m, [pres for pres, _ in rendered], cfg.baselines, "distance",
            [d for _, d in rendered],
        ))
        for m in bl.METHODS
    }
    budget_results = iter(zip(budgets, d_stars))

    out = []
    for case, results in zip(cases, explained):
        rows: list = []
        out.append(rows)
        if results is None:
            # no method ran: every row of this image fails
            rows += [row(case, None, method, "semifactual") for method in _METHODS]
            for fraction in pl.FRACTIONS:
                rows.append(row(case, None, "piece", "proportional", fraction=fraction))
                rows += [row(case, None, m, "distance", fraction=fraction) for m in bl.METHODS]
            continue

        # max-edit semifactuals, all three methods; an unverified one failed
        sf = results["piece"]
        for method, res in results.items():
            if res is sf:
                image, verified = sf.image_prime.ravel(), sf.verified
            else:
                image, verified = res.image, not res.failed
            rows.append(
                row(
                    case, sf, method, "semifactual", image, verified,
                    failed=not verified, measure=("l1",),
                )
            )

        # proportional budgets: profile + distance-matched baselines
        for fraction in pl.FRACTIONS:
            pres, d_star = next(budget_results)
            if d_star is None:
                rows.append(row(case, sf, "piece", "proportional", fraction=fraction))
                rows += [row(case, sf, m, "distance", fraction=fraction) for m in bl.METHODS]
                continue
            rows.append(
                row(
                    case, sf, "piece", "proportional", pres.image_prime.ravel(), pres.verified,
                    fraction=fraction, target_distance=d_star,
                    applied_count=pres.applied_count, k_reference=pres.k_reference,
                )
            )
            for method in bl.METHODS:
                dres = next(matched[method])
                rows.append(
                    row(
                        case, sf, method, "distance", dres.image, not dres.failed,
                        measure=("l1",), fraction=fraction, target_distance=d_star,
                    )
                )
    return out


def run_experiment2(arts: RunArtifacts, paths: RunPaths) -> dict:
    cfg = arts.config
    cases = [c for c in compose_test_set(arts) if c.bucket == "correct"]
    cases = cases[: cfg.experiment.n_semifactual]
    explained, per_case = _explained_cases(arts, 2, cases)
    _write_testset_csv(cases, paths.reports("expt2_testset.csv"))
    _save_explained(arts, paths, 2, cases, explained)

    rows = [r for case_rows in per_case for r in case_rows]  # in loop order
    piece_results = [results["piece"] for results in explained if results]
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
