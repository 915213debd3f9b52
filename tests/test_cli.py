import configparser
import json

import pytest

from piece.cli import main

MINI_CONFIG = """
[run]
seed = 13
alpha = 0.05

[dataset]
n_train_per_class = 60
n_test_per_class = 25

[classifier]
epochs = 8
early_stop_accuracy = 0.9
min_accuracy = 0.5

[generator]
epochs = 80
hidden = 64
recon_mse_target = 0.05

[autoencoders]
epochs = 40
hidden = 48
recon_mse_target = 0.05

[pipeline]
invert_restarts = 3
invert_steps = 150
visualize_steps = 100
ascent_max_steps = 800

[baselines]
max_steps = 800

[experiment]
n_correct = 4
n_close_correct = 2
n_semifactual = 3

[metrics]
mc_passes = 40
"""


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("mini")
    cfg_path = root / "mini.ini"
    cfg_path.write_text(MINI_CONFIG)
    run_dir = str(root / "run")
    assert main(["datagen", "--run-dir", run_dir, "--config", str(cfg_path)]) == 0
    assert main(["train", "--run-dir", run_dir]) == 0
    assert main(["fit-stats", "--run-dir", run_dir]) == 0
    return run_dir


CONFIG_SECTIONS = (
    "run", "dataset", "classifier", "generator", "autoencoders",
    "pipeline", "baselines", "experiment", "metrics",
)


class TestParser:
    def test_help_lists_every_config_section(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for section in CONFIG_SECTIONS:
            assert f"[{section}]" in out

    def test_explain_has_no_force(self, capsys):
        # explain writes no stage marker, so there is nothing to force
        with pytest.raises(SystemExit) as exc:
            main(["explain", "--run-dir", "unused", "--index", "0", "--force"])
        assert exc.value.code == 2
        assert "--force" in capsys.readouterr().err

    def test_config_echo_fault_confined_to_help(self, tmp_path, monkeypatch):
        import piece.cli

        def broken():
            raise RuntimeError("config echo is broken")

        monkeypatch.setattr(piece.cli, "default_config_ini", broken)
        assert main(["train", "--run-dir", str(tmp_path / "empty")]) == 3
        with pytest.raises(RuntimeError, match="config echo"):
            main(["--help"])


class TestStageOrdering:
    def test_fit_stats_requires_train(self, tmp_path):
        run_dir = str(tmp_path / "fresh")
        assert main(["datagen", "--run-dir", run_dir]) == 0
        assert main(["fit-stats", "--run-dir", run_dir]) == 3

    def test_train_requires_datagen(self, tmp_path):
        assert main(["train", "--run-dir", str(tmp_path / "none")]) == 3

    def test_explain_requires_stats(self, tmp_path):
        assert main(["explain", "--run-dir", str(tmp_path / "none"),
                     "--index", "0"]) == 3

    def test_rerun_refused_without_force(self, mini_run):
        assert main(["datagen", "--run-dir", mini_run]) == 2

    def test_missing_config_file(self, tmp_path):
        rc = main(["datagen", "--run-dir", str(tmp_path / "r"),
                   "--config", str(tmp_path / "absent.ini")])
        assert rc == 2

    def test_unknown_config_section(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[mystery]\nkey = 1\n")
        assert main(["datagen", "--run-dir", str(tmp_path / "r"),
                     "--config", str(bad)]) == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        bad = tmp_path / "typo.ini"
        bad.write_text("[pipeline]\ninvert_step = 10\n")
        assert main(["datagen", "--run-dir", str(tmp_path / "r"),
                     "--config", str(bad)]) == 2
        assert "invert_step" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line", ["lambda = -1", "max_steps = -5", "lambda_sweep = 10.0,0.0",
                 "lambda_sweep = 10.0,30,10"]
    )
    def test_bad_baselines_value(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[baselines]\n{line}\n")
        assert main(["datagen", "--run-dir", str(tmp_path / "r"),
                     "--config", str(bad)]) == 2
        assert "[baselines]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,line",
        [
            ("metrics", "mc_passes = 0"),
            ("metrics", "knn_k = 0"),
            ("metrics", "knn_k_extra = 0"),
            ("pipeline", "invert_restarts = 0"),
        ],
    )
    def test_count_below_one_rejected(self, tmp_path, capsys, section, line):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[{section}]\n{line}\n")
        assert main(["datagen", "--run-dir", str(tmp_path / "r"),
                     "--config", str(bad)]) == 2
        assert f"[{section}]" in capsys.readouterr().err


class TestDatagenOutputs:
    def test_artifacts_exist(self, mini_run):
        import os

        for name in ("train.json", "test.json", "manifest.json"):
            assert os.path.exists(os.path.join(mini_run, "dataset", name))
        assert os.path.exists(os.path.join(mini_run, "config.ini"))

    def test_manifest_lists_counts_and_hashes(self, mini_run):
        import os

        doc = json.load(open(os.path.join(mini_run, "dataset", "manifest.json")))
        assert doc["counts"]["train"] == 240
        assert set(doc["files"]) == {"train.json", "test.json", "config.ini"}
        assert doc["params"]["seed"] == 13


class TestExplainCommand:
    def test_counterfactual_writes_triplet(self, mini_run, capsys):
        import os

        assert main(["explain", "--run-dir", mini_run, "--index", "1",
                     "--mode", "cf"]) == 0
        out = capsys.readouterr().out
        assert "verified=" in out
        base = os.path.join(mini_run, "explanations", "single")
        for suffix in ("", "_original", "_reconstruction", "_explanation"):
            ext = ".json" if suffix == "" else ".pgm"
            assert os.path.exists(os.path.join(base, f"cf_0001{suffix}{ext}"))
        doc = json.load(open(os.path.join(base, "cf_0001.json")))
        assert doc["mode"] == "counterfactual"
        assert isinstance(doc["verified"], bool)

    def test_proportional_records_budget(self, mini_run):
        import math
        import os

        assert main(["explain", "--run-dir", mini_run, "--index", "2",
                     "--mode", "prop", "--fraction", "0.5"]) == 0
        doc = json.load(open(os.path.join(
            mini_run, "explanations", "single", "prop_0002.json")))
        assert doc["applied_count"] == math.ceil(0.5 * doc["k_reference"])

    def test_semifactual_allowed_on_any_index(self, mini_run):
        assert main(["explain", "--run-dir", mini_run, "--index", "3",
                     "--mode", "sf"]) == 0

    def test_bad_index(self, mini_run):
        assert main(["explain", "--run-dir", mini_run, "--index", "9999"]) == 2

    def test_bad_fraction(self, mini_run):
        assert main(["explain", "--run-dir", mini_run, "--index", "0",
                     "--mode", "prop", "--fraction", "0.4"]) == 2

    @pytest.mark.parametrize(
        "args",
        [["--mode", "prop"], ["--alpha", "0.7"], ["--mode", "cf", "--fraction", "0.5"]],
        ids=["prop-without-fraction", "alpha-out-of-range", "fraction-outside-prop"],
    )
    def test_bad_request_arguments(self, mini_run, capsys, args):
        import glob
        import os

        assert main(["explain", "--run-dir", mini_run, "--index", "5", *args]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not glob.glob(os.path.join(mini_run, "explanations", "single", "*_0005*"))

    def test_target_class_override(self, mini_run):
        import os

        assert main(["explain", "--run-dir", mini_run, "--index", "4",
                     "--mode", "cf", "--target-class", "2"]) == 0
        doc = json.load(open(os.path.join(
            mini_run, "explanations", "single", "cf_0004.json")))
        assert doc["c_prime"] == 2

    @pytest.mark.parametrize("target", ["9", "-1"])
    def test_target_class_out_of_range(self, mini_run, target):
        assert main(["explain", "--run-dir", mini_run, "--index", "4",
                     "--mode", "cf", "--target-class", target]) == 2

    def test_target_class_equal_to_prediction_refused(self, mini_run):
        import numpy as np

        from piece import netcore as nc
        from piece.runcfg import RunPaths, load_run

        arts = load_run(RunPaths(mini_run))
        predicted = int(np.argmax(
            nc.forward(arts.classifier, arts.test_data.images[4].ravel()).output))
        assert main(["explain", "--run-dir", mini_run, "--index", "4",
                     "--mode", "cf", "--target-class", str(predicted)]) == 2

    def test_overflow_exits_1(self, mini_run, monkeypatch, capsys):
        from piece import netcore as nc
        from piece import pipeline as pl

        def overflow(*args, **kwargs):
            raise nc.NumericsError("non-finite values after layer 2 (dense)")

        monkeypatch.setattr(pl, "select_cf_class", overflow)
        capsys.readouterr()
        assert main(["explain", "--run-dir", mini_run, "--index", "0", "--mode", "sf"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: non-finite values after layer 2 (dense)"]

    def test_explanation_embeds_provenance(self, mini_run):
        import os

        from piece.datagen import file_sha256

        doc = json.load(open(os.path.join(
            mini_run, "explanations", "single", "cf_0001.json")))
        assert doc["provenance"]["classifier_sha"] == file_sha256(
            os.path.join(mini_run, "models", "classifier.json")
        )


class TestProvenance:
    def test_stale_stats_detected(self, mini_run, tmp_path):
        import shutil

        clone = tmp_path / "clone"
        shutil.copytree(mini_run, clone)
        cfg = configparser.ConfigParser()
        cfg.read(clone / "config.ini")
        cfg["classifier"]["seed"] = "999"
        with open(clone / "config.ini", "w") as fh:
            cfg.write(fh)
        assert main(["train", "--run-dir", str(clone), "--force"]) == 0
        # stats were fitted against the previous classifier
        assert main(["explain", "--run-dir", str(clone), "--index", "0"]) == 4
        assert main(["experiment", "--run-dir", str(clone), "--expt", "1"]) == 4
        assert main(["fit-stats", "--run-dir", str(clone), "--force"]) == 0
        assert main(["explain", "--run-dir", str(clone), "--index", "0"]) == 0

    def test_tampered_dataset_detected(self, mini_run, tmp_path):
        import shutil

        clone = tmp_path / "clone2"
        shutil.copytree(mini_run, clone)
        manifest = clone / "dataset" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["counts"]["train"] = 1
        manifest.write_text(json.dumps(doc))
        assert main(["explain", "--run-dir", str(clone), "--index", "0"]) == 4

    def test_edited_dataset_file_detected(self, mini_run, tmp_path, capsys):
        import shutil

        clone = tmp_path / "clone5"
        shutil.copytree(mini_run, clone)
        path = clone / "dataset" / "test.json"
        doc = json.loads(path.read_text())
        doc["labels"][0] = (doc["labels"][0] + 1) % 4  # still a well-formed dataset
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["explain", "--run-dir", str(clone), "--index", "0", "--mode", "sf"]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "dataset/test.json" in err[0] and "sha256" in err[0]

    @pytest.mark.parametrize(
        "name",
        ["models/ae_class_2.json", "dataset/train.json", "dataset/test.json",
         "stats/latents.json"],
    )
    def test_missing_run_file_exit_3(self, mini_run, tmp_path, capsys, name):
        import shutil

        clone = tmp_path / "clone4"
        shutil.copytree(mini_run, clone)
        (clone / name).unlink()
        capsys.readouterr()
        assert main(["explain", "--run-dir", str(clone), "--index", "0"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and name in err[0]

    @pytest.mark.parametrize(
        "name,drop",
        [
            pytest.param(name, None, id=name)
            for name in ("stats/latents.json", "stats/stats.json", "dataset/test.json")
        ]
        + [
            pytest.param(name, key, id=f"{name}-{key}")
            for name, key in (
                ("stats/stats.json", "alpha"),
                ("stats/stats.json", "classifier_sha"),
                ("models/classifier.json", "feature_tap"),
                ("dataset/test.json", "labels"),
                ("stats/latents.json", "shape"),
                ("models/ae_full.json", "provenance"),
            )
        ],
    )
    def test_damaged_run_file_exit_4(self, mini_run, tmp_path, capsys, name, drop):
        import shutil

        clone = tmp_path / "clone3"
        shutil.copytree(mini_run, clone)
        path = clone / name
        if drop is not None:
            doc = json.loads(path.read_text())
            del doc[drop]
            path.write_text(json.dumps(doc))
        elif name == "stats/latents.json":
            doc = json.loads(path.read_text())
            doc["latents"] = doc["latents"][:-4]  # still base64, 3 bytes short
            path.write_text(json.dumps(doc))
        else:
            text = path.read_text()
            path.write_text(text[: len(text) // 2])  # truncated JSON
        capsys.readouterr()
        assert main(["explain", "--run-dir", str(clone), "--index", "0"]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and name in err[0]


class TestExperimentCommand:
    def test_experiment1_structural(self, mini_run):
        import csv
        import os

        assert main(["experiment", "--run-dir", mini_run, "--expt", "1"]) in (0, 5)
        reports = os.path.join(mini_run, "reports")
        rows = list(csv.DictReader(open(os.path.join(reports, "expt1_rows.csv"))))
        methods = {r["method"] for r in rows}
        assert methods == {"piece", "min_edit", "c_min_edit"}
        assert all(r["verified"] in ("true", "false") for r in rows)
        for name in (
            "expt1_aggregates.csv",
            "expt1_correlation.csv",
            "expt1_substitutability.csv",
            "expt1_lambda_sweep.csv",
            "expt1_fit_quality.csv",
            "expt1_testset.csv",
        ):
            assert os.path.exists(os.path.join(reports, name)), name

    def test_experiment2_structural(self, mini_run):
        import csv
        import os

        assert main(["experiment", "--run-dir", mini_run, "--expt", "2"]) in (0, 5)
        reports = os.path.join(mini_run, "reports")
        dist = list(csv.DictReader(open(os.path.join(reports, "expt2_distance_matched.csv"))))
        fractions = {r["fraction"] for r in dist}
        assert fractions == {"0.25", "0.5", "0.75", "1"}
        for name in ("expt2_maxedit.csv", "expt2_profile.csv", "expt2_fit_quality.csv"):
            assert os.path.exists(os.path.join(reports, name)), name

    def test_profile_and_distance_rows_agree(self, mini_run):
        import csv
        import os

        def read(name):
            return list(csv.DictReader(open(os.path.join(mini_run, "reports", name))))

        profile = read("expt2_profile.csv")
        piece = [r for r in read("expt2_distance_matched.csv") if r["method"] == "piece"]
        assert len(profile) == len(piece) > 0
        for p, d in zip(profile, piece):
            assert (p["image_id"], p["fraction"], p["verified"]) == (
                d["image_id"], d["fraction"], d["verified"])
        # the full budget renders the max-edit semifactual itself
        maxedit = {r["image_id"]: r for r in read("expt2_maxedit.csv") if r["method"] == "piece"}
        for d in piece:
            if d["fraction"] == "1":
                assert d["l1"] == maxedit[d["image_id"]]["l1"]
                assert d["verified"] == maxedit[d["image_id"]]["verified"]

    def test_rerun_refused_then_forced(self, mini_run):
        assert main(["experiment", "--run-dir", mini_run, "--expt", "1"]) == 2
        assert main(["experiment", "--run-dir", mini_run, "--expt", "1",
                     "--force"]) in (0, 5)

    def test_expt2_rerun_refused_then_forced(self, mini_run):
        import os

        reports = os.path.join(mini_run, "reports")

        def expt2_reports():
            return {n: open(os.path.join(reports, n), "rb").read()
                    for n in sorted(os.listdir(reports)) if n.startswith("expt2_")}

        before = expt2_reports()
        assert main(["experiment", "--run-dir", mini_run, "--expt", "2"]) == 2
        assert expt2_reports() == before
        assert main(["experiment", "--run-dir", mini_run, "--expt", "2",
                     "--force"]) in (0, 5)
        assert expt2_reports() == before

    def test_experiment_without_last_report_not_done(self, mini_run, tmp_path):
        import os
        import shutil

        clone = tmp_path / "half"
        shutil.copytree(mini_run, clone)
        # as if the run stopped before its last report
        os.remove(clone / "reports" / "expt1_fit_quality.csv")
        assert main(["experiment", "--run-dir", str(clone), "--expt", "1"]) in (0, 5)
        assert (clone / "reports" / "expt1_fit_quality.csv").exists()

    @pytest.mark.parametrize("expt", [1, 2])
    def test_unprepared_image_fails_every_row(
        self, mini_run, tmp_path, monkeypatch, capsys, expt
    ):
        import csv
        import os
        import shutil

        from piece import pipeline as pl

        def unprepared(*args, **kwargs):
            raise pl.SelectionError("no class reachable")

        clone = tmp_path / "unprepared"
        shutil.copytree(mini_run, clone)
        monkeypatch.setattr(pl, "prepare_context", unprepared)
        capsys.readouterr()
        assert main(["experiment", "--run-dir", str(clone), "--expt", str(expt),
                     "--force"]) == 5
        reports = os.path.join(clone, "reports")

        def read(name):
            return list(csv.DictReader(open(os.path.join(reports, name))))

        cases = read(f"expt{expt}_testset.csv")
        n_cases = len(cases)
        assert n_cases > 0
        per_image = 3 if expt == 1 else 15
        out = capsys.readouterr().out
        assert f"{per_image * n_cases} method rows, {per_image * n_cases} failures" in out
        if expt == 1:
            # no context: c is the prediction and c' is -1
            predicted = {c["image_id"]: c["predicted"] for c in cases}
            rows = read("expt1_rows.csv")
            assert len(rows) == 3 * n_cases
            assert all(
                r["failed"] == "true" and r["verified"] == "false"
                and r["c"] == predicted[r["image_id"]] and r["c_prime"] == "-1"
                for r in rows
            )
            assert {r["method"] for r in rows} == {"piece", "min_edit", "c_min_edit"}
            return
        for name, per_image in (("expt2_maxedit.csv", 3), ("expt2_distance_matched.csv", 12)):
            rows = read(name)
            assert len(rows) == per_image * n_cases
            assert all(r["failed"] == "true" for r in rows)
        assert len(read("expt2_profile.csv")) == 4 * n_cases
        aggs = read("expt2_maxedit_aggregates.csv")
        assert [(a["method"], a["n"], a["failures"]) for a in aggs] == [
            (m, "0", str(n_cases)) for m in ("piece", "min_edit", "c_min_edit")
        ]

    def test_selection_overflow_fails_only_that_image(self, mini_run, tmp_path, monkeypatch):
        import csv
        import os
        import shutil

        from piece import netcore as nc
        from piece import pipeline as pl

        select = pl.select_cf_class
        calls = []

        def overflow_first(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise nc.NumericsError("non-finite values after layer 2 (dense)")
            return select(*args, **kwargs)

        clone = tmp_path / "overflow"
        shutil.copytree(mini_run, clone)
        monkeypatch.setattr(pl, "select_cf_class", overflow_first)
        assert main(["experiment", "--run-dir", str(clone), "--expt", "1", "--force"]) in (0, 5)
        rows = list(csv.DictReader(open(os.path.join(clone, "reports", "expt1_rows.csv"))))
        first = next(csv.DictReader(open(os.path.join(clone, "reports", "expt1_testset.csv"))))
        mine = [r for r in rows if r["image_id"] == first["image_id"]]
        assert len(mine) == 3 and all(
            r["failed"] == "true" and r["c_prime"] == "-1" for r in mine
        )
        assert any(r["failed"] == "false" for r in rows if r not in mine)

    def test_metric_error_exits_1(self, mini_run, monkeypatch, capsys):
        from piece import evalx
        from piece import experiments as ex

        def broken(arts, paths):
            raise evalx.MetricError("k=3 invalid for 2 training points")

        monkeypatch.setattr(ex, "run_experiment1", broken)
        capsys.readouterr()
        assert main(["experiment", "--run-dir", mini_run, "--expt", "1", "--force"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: k=3 invalid for 2 training points"]

    def test_failure_threshold_exit_code(self, mini_run, tmp_path):
        import shutil

        clone = tmp_path / "failing"
        shutil.copytree(mini_run, clone)
        cfg = configparser.ConfigParser()
        cfg.read(clone / "config.ini")
        # baselines cannot cross any boundary in one step, and no failure
        # budget is granted
        cfg["baselines"]["max_steps"] = "1"
        cfg["experiment"]["max_failure_fraction"] = "0.0"
        with open(clone / "config.ini", "w") as fh:
            cfg.write(fh)
        assert main(["experiment", "--run-dir", str(clone), "--expt", "1",
                     "--force"]) == 5
