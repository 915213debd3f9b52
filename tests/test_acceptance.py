"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers. Criteria 4-10 read the benchmark reports produced on
the session's toy run; criterion 11 bounds the wall time of the whole
pipeline (data generation through both experiments).
"""

import csv
import os
import shutil
import time

import numpy as np
import pytest

from helpers import empirical_decisions, fitted_decisions, max_gradcheck_error
from piece import distfit as df
from piece import hurdle as hd
from piece.cli import main


@pytest.fixture(scope="module")
def bench(toy_run):
    paths = toy_run["paths"]
    timings = dict(toy_run["timings"])
    for expt in (1, 2):
        t0 = time.monotonic()
        rc = main(["experiment", "--run-dir", paths.root, "--expt", str(expt)])
        timings[f"expt{expt}"] = time.monotonic() - t0
        assert rc == 0, f"experiment {expt} exited with {rc}"
    return {"paths": paths, "arts": toy_run["arts"], "timings": timings}


def read_csv(paths, name):
    with open(paths.reports(name)) as fh:
        return list(csv.DictReader(fh))


def agg_mean(rows, method, metric, mode=None):
    for r in rows:
        if r["method"] == method and r["metric"] == metric and (
            mode is None or r["mode"] == mode
        ):
            return float(r["mean"])
    raise KeyError((method, metric, mode))


@pytest.fixture
def announce(capsys):
    """Print the criterion verdict on the live terminal, past capture."""

    def _announce(num, name, detail):
        with capsys.disabled():
            print(f"\nACCEPTANCE {num:02d} {name}: PASS ({detail})")

    return _announce


def test_criterion_01_gradient_correctness(announce):
    t0 = time.monotonic()
    worst = max(max_gradcheck_error(seed) for seed in range(20))
    elapsed = time.monotonic() - t0
    assert worst < 1e-4, f"worst relative gradient error {worst:.2e}"
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"
    announce(1, "gradient-correctness", f"max rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_distribution_recovery(announce):
    t0 = time.monotonic()
    configs = [
        ("gaussian", lambda r, n: r.normal(5.0, 1.0, n)),
        ("gaussian", lambda r, n: r.normal(8.0, 0.8, n)),
        ("gamma", lambda r, n: r.gamma(2.0, 1.5, n)),
        ("gamma", lambda r, n: 2.0 + r.gamma(3.0, 1.0, n)),
        ("exponential", lambda r, n: r.exponential(0.5, n)),
        ("exponential", lambda r, n: 1.5 + r.exponential(1.0, n)),
    ]
    rates = []
    for family, gen in configs:
        hits = 0
        for seed in range(50):
            fit = df.fit_best(gen(np.random.default_rng(seed), 1000))
            hits += fit is not None and fit.family == family
        rates.append(hits / 50)
        assert hits >= 40, f"{family}: only {hits}/50 recovered"
    # parameter accuracy on the gaussian configuration
    for seed in range(50):
        fit = df.fit_best(np.random.default_rng(seed).normal(5.0, 1.0, 1000))
        if fit.family == "gaussian":
            assert abs(fit.params["mean"] - 5.0) / 5.0 < 0.10
            assert abs(fit.params["std"] - 1.0) / 1.0 < 0.10
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"recovery suite took {elapsed:.1f}s"
    announce(
        2, "distribution-recovery",
        f"rates {['%.0f%%' % (100 * r) for r in rates]}, {elapsed:.1f}s",
    )


def test_criterion_03_exceptionality_oracle(announce):
    worst = 1.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        kind = seed % 3
        if kind == 0:
            positive = np.abs(rng.normal(5.0, 1.0, 900))
        elif kind == 1:
            positive = rng.gamma(2.0, 1.5, 900)
        else:
            positive = rng.exponential(1.0, 900)
        samples = np.concatenate([np.zeros(rng.integers(20, 300)), positive])
        rng.shuffle(samples)
        assert len(samples) >= 500
        model = hd.fit_neuron(samples)
        pos_sorted = np.sort(samples[samples > 0])
        grid = np.concatenate(
            [[0.0], np.quantile(pos_sorted, np.linspace(0.001, 0.999, 40)),
             [pos_sorted[-1] * 1.5, pos_sorted[0] * 0.5]]
        )
        agree = sum(
            1
            for value in grid
            if fitted_decisions(
                hd.classify_exceptional(np.array([value]), [model], 0.05)[0], 0
            )
            == empirical_decisions(samples, value, 0.05)
        )
        worst = min(worst, agree / len(grid))
        assert agree / len(grid) >= 0.9, f"seed {seed}: {agree}/{len(grid)}"

    # forced classifications must fire in every run
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        silent = np.concatenate([np.zeros(30), np.abs(rng.normal(3.0, 0.5, 970))])
        model = hd.fit_neuron(silent)
        found, _ = hd.classify_exceptional(np.array([0.0]), [model], 0.05)
        assert any(f.rule == hd.Rule.ABSENT for f in found), f"seed {seed}"

        rare = np.concatenate([np.zeros(980), np.abs(rng.normal(3.0, 0.5, 20))])
        model = hd.fit_neuron(rare)
        found, _ = hd.classify_exceptional(np.array([1.4]), [model], 0.05)
        assert any(f.rule == hd.Rule.UNEXPECTED for f in found), f"seed {seed}"
    announce(3, "exceptionality-oracle", f"worst grid agreement {100 * worst:.0f}%")


def test_criterion_04_counterfactual_validity(bench, announce):
    rows = [
        r for r in read_csv(bench["paths"], "expt1_rows.csv")
        if r["method"] == "piece" and r["mode"] == "counterfactual"
    ]
    assert len(rows) >= 50, f"only {len(rows)} explanations in the benchmark"
    failures = [r["image_id"] for r in rows if r["verified"] != "true" or
                r["failed"] == "true"]
    rate = 1.0 - len(failures) / len(rows)
    if failures:
        print(f"  unverified counterfactuals: image ids {failures}")
    assert rate >= 0.95, f"verification rate {rate:.3f}"
    announce(4, "counterfactual-validity", f"{100 * rate:.1f}% of {len(rows)}")


def test_criterion_05_semifactual_validity(bench, announce):
    maxedit = read_csv(bench["paths"], "expt2_maxedit.csv")
    piece_rows = [r for r in maxedit if r["method"] == "piece" and r["failed"] == "false"]
    assert piece_rows, "no delivered max-edit semifactuals"
    assert all(r["verified"] == "true" for r in piece_rows)
    profile = read_csv(bench["paths"], "expt2_profile.csv")
    assert profile, "no proportional rows"
    assert all(r["verified"] == "true" for r in profile)
    announce(
        5, "semifactual-validity",
        f"{len(piece_rows)} max-edit + {len(profile)} proportional rows all in class",
    )


def test_criterion_06_table_direction(bench, announce):
    aggs = read_csv(bench["paths"], "expt1_aggregates.csv")
    mc_piece = agg_mean(aggs, "piece", "mc_mean")
    mc_edit = agg_mean(aggs, "min_edit", "mc_mean")
    nn_piece = agg_mean(aggs, "piece", "nn_dist")
    nn_edit = agg_mean(aggs, "min_edit", "nn_dist")
    im1_piece = agg_mean(aggs, "piece", "im1")
    im1_edit = agg_mean(aggs, "min_edit", "im1")
    assert mc_piece > mc_edit
    assert nn_piece < nn_edit
    assert im1_piece < im1_edit
    subst = read_csv(bench["paths"], "expt1_substitutability.csv")
    r_piece = next(float(r["r_pct_sub"]) for r in subst
                   if r["method"] == "piece" and r["k"] == "1")
    r_edit = next(float(r["r_pct_sub"]) for r in subst
                  if r["method"] == "min_edit" and r["k"] == "1")
    assert r_piece > r_edit
    announce(
        6, "table-direction",
        f"mc {mc_piece:.2f}>{mc_edit:.2f}, nn {nn_piece:.2f}<{nn_edit:.2f}, "
        f"im1 {im1_piece:.2f}<{im1_edit:.2f}, r%sub {r_piece:.1f}>{r_edit:.1f}",
    )


def test_criterion_07_semifactual_direction(bench, announce):
    agg = read_csv(bench["paths"], "expt2_maxedit_aggregates.csv")
    means = {r["method"]: float(r["mean_l1"]) for r in agg if r["mean_l1"] != "NA"}
    assert means["piece"] > means["min_edit"]
    assert means["piece"] > means["c_min_edit"]
    dist = read_csv(bench["paths"], "expt2_distance_matched.csv")
    per = {}
    for r in dist:
        if r["failed"] == "false" and r["l1"] != "NA":
            per.setdefault((r["fraction"], r["method"]), []).append(float(r["l1"]))
    for fraction in ("0.25", "0.5", "0.75", "1"):
        piece_mean = np.mean(per[(fraction, "piece")])
        for method in ("min_edit", "c_min_edit"):
            other = np.mean(per[(fraction, method)])
            assert piece_mean >= other, (fraction, method, piece_mean, other)
    announce(
        7, "semifactual-direction",
        f"max-edit L1 {means['piece']:.1f} > {means['min_edit']:.1f}/"
        f"{means['c_min_edit']:.1f}; matched distances dominated at all fractions",
    )


def test_criterion_08_correlation_signs(bench, announce):
    corr = {r["pair"]: r for r in read_csv(bench["paths"], "expt1_correlation.csv")
            if r["scope"] == "all"}
    r_mean = float(corr["nn_dist_vs_mc_mean"]["pearson_r"])
    r_std = float(corr["nn_dist_vs_mc_std"]["pearson_r"])
    n = int(corr["nn_dist_vs_mc_mean"]["n"])
    assert n >= 100, f"only {n} counterfactual rows pooled"
    assert r_mean < 0.0
    assert r_std > 0.0
    announce(8, "correlation-signs", f"r(mc_mean)={r_mean:.2f}, r(mc_std)={r_std:.2f}, n={n}")


def test_criterion_09_goodness_of_fit(bench, announce):
    rows = read_csv(bench["paths"], "expt1_fit_quality.csv")
    row = rows[0]
    p_exceptional = float(row["mean_ks_p_exceptional"])
    p_all = float(row["mean_ks_p_all_fitted"])
    print(
        f"  mean KS p over exceptional features: {p_exceptional:.3f} "
        f"(n={row['n_exceptional_features']}); over all fitted models: "
        f"{p_all:.3f} (n={row['n_fitted_models']})"
    )
    assert p_exceptional > 0.1
    announce(9, "goodness-of-fit", f"exceptional {p_exceptional:.3f}, all {p_all:.3f}")


REPORT_FILES = (
    "expt1_rows.csv",
    "expt1_aggregates.csv",
    "expt1_correlation.csv",
    "expt1_substitutability.csv",
    "expt1_lambda_sweep.csv",
    "expt1_fit_quality.csv",
    "expt1_testset.csv",
    "expt2_maxedit.csv",
    "expt2_maxedit_aggregates.csv",
    "expt2_distance_matched.csv",
    "expt2_profile.csv",
    "expt2_fit_quality.csv",
    "expt2_testset.csv",
)


def test_criterion_10_determinism(bench, announce):
    paths = bench["paths"]

    def snapshot():
        """Bytes of every report and of every file under explanations/expt1|2."""
        files = {name: paths.reports(name) for name in REPORT_FILES}
        for expt in ("expt1", "expt2"):
            for name in os.listdir(paths.explanations(expt)):
                files[f"{expt}/{name}"] = paths.explanations(expt, name)
        return {name: open(path, "rb").read() for name, path in files.items()}

    before = snapshot()
    for expt in (1, 2):
        # the rerun must write every explanation file again, not keep the old one
        shutil.rmtree(paths.explanations(f"expt{expt}"))
        if expt == 2:
            # expt1 reran from the stored inversions, which expt2 first read;
            # expt2 reruns from an empty store, so from inversions made afresh
            shutil.rmtree(paths.inversions())
        rc = main(["experiment", "--run-dir", paths.root, "--expt", str(expt), "--force"])
        assert rc == 0
    after = snapshot()
    assert sorted(after) == sorted(before), "a rerun wrote a different set of files"
    different = [name for name in before if after[name] != before[name]]
    assert not different, f"files changed on rerun: {different}"
    n_expl = len(before) - len(REPORT_FILES)
    announce(
        10, "determinism",
        f"{len(REPORT_FILES)} report files and {n_expl} explanation files byte-identical, "
        "from a full and from an empty store of inversions",
    )


def test_criterion_11_end_to_end_budget(bench, announce):
    timings = bench["timings"]
    total = sum(timings.values())
    detail = ", ".join(f"{k} {v:.1f}s" for k, v in timings.items())
    assert total < 900.0, f"pipeline took {total:.1f}s"
    announce(11, "end-to-end-budget", f"total {total:.1f}s ({detail})")
