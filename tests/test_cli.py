import base64
import configparser
import csv
import dataclasses
import hashlib
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import (BUILDS_ON, count_explanations, count_inversions, damaged, live_children,
                     rerecord)
import piece
from piece import netcore as nc
from piece import pipeline as pl
from piece.cli import EXIT_BROKEN_PIPE, main
from piece.datagen import DatasetFormatError
from piece.hurdle import HurdleError
from piece.runcfg import ProvenanceError, RunPaths, load_run
from piece.training import fit

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

    def test_tree_built_once_and_help_echoes_config_each_time(self, tmp_path, monkeypatch,
                                                               capsys):
        import piece.cli

        assert piece.cli.build_parser() is piece.cli.build_parser()
        echoes = []

        def counted():
            echoes.append(1)
            return "[run]\nseed = 0"

        monkeypatch.setattr(piece.cli, "default_config_ini", counted)
        assert main(["train", "--run-dir", str(tmp_path / "empty")]) == 3
        assert echoes == []  # a command never builds the help text
        for n in (1, 2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            assert "[run]" in capsys.readouterr().out
            assert len(echoes) == n

    def test_train_has_no_jobs_flag(self, capsys):
        # train runs on as many processes as the CPU affinity allows
        with pytest.raises(SystemExit) as exc:
            main(["train", "--help"])
        assert exc.value.code == 0 and "--jobs" not in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["train", "--run-dir", "unused", "--jobs", "1"])
        assert exc.value.code == 2


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
            ("dataset", "n_train_per_class = 0"),
            ("dataset", "n_test_per_class = 0"),
        ],
    )
    def test_count_below_one_rejected(self, tmp_path, capsys, section, line):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[{section}]\n{line}\n")
        assert main(["datagen", "--run-dir", str(tmp_path / "r"),
                     "--config", str(bad)]) == 2
        assert f"[{section}]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "line",
        ["n_correct = -3", "n_close_correct = -1", "n_semifactual = -1",
         "close_correct_max_prob = 1.5", "close_correct_max_prob = -0.1",
         "close_correct_max_prob = 0", "max_failure_fraction = -1",
         "max_failure_fraction = 1.5"],
    )
    def test_experiment_value_out_of_range(self, tmp_path, capsys, line):
        # a negative n_correct sliced the correct images from the end, and a
        # negative max_failure_fraction failed every experiment with exit 5
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[experiment]\n{line}\n")
        capsys.readouterr()
        assert main(["datagen", "--run-dir", str(tmp_path / "r"),
                     "--config", str(bad)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: [experiment] {line.split()[0]} ")

    @pytest.mark.parametrize(
        "section,line", [("run", "seed = -1"), ("dataset", "side = 8"),
                         ("pipeline", "invert_steps = -5"),
                         # a training section's seed, which derives from [run] seed
                         *((s, "seed = 18") for s in ("classifier", "generator",
                                                      "autoencoders")),
                         # too few training images for the class autoencoders
                         ("dataset", "n_train_per_class = 29")]
    )
    def test_config_error_creates_nothing(self, tmp_path, capsys, section, line):
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[{section}]\n{line}\n")
        run_dir = tmp_path / "r"
        capsys.readouterr()
        assert main(["datagen", "--run-dir", str(run_dir), "--config", str(bad)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: [{section}] ")
        assert not run_dir.exists()

    @pytest.mark.parametrize(
        "section,widths",
        [("classifier", "64"), ("classifier", "64,32,16"), ("generator", "96,48"),
         ("autoencoders", "64,32")],
    )
    def test_hidden_width_count_rejected(self, tmp_path, capsys, section, widths):
        # the classifier has two hidden layers, the autoencoders one
        bad = tmp_path / "bad.ini"
        bad.write_text(f"[{section}]\nhidden = {widths}\n")
        capsys.readouterr()
        assert main(["datagen", "--run-dir", str(tmp_path / "r"),
                     "--config", str(bad)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: [{section}] hidden")


# the classifier passes and the generator misses its target, so a serial
# run fails at the generator, before the autoencoders
TWO_FAILURES_CONFIG = """
[dataset]
n_train_per_class = 30
n_test_per_class = 10

[classifier]
epochs = 2
min_accuracy = 1e9

[generator]
epochs = 2
recon_mse_target = 1e-9

[autoencoders]
epochs = 2
"""


def trained_files(run_dir) -> dict:
    """Bytes of every model file and training report in `run_dir`."""
    out = {}
    for sub in ("models", "reports"):
        if not os.path.isdir(os.path.join(run_dir, sub)):
            continue
        for name in sorted(os.listdir(os.path.join(run_dir, sub))):
            with open(os.path.join(run_dir, sub, name), "rb") as fh:
                out[f"{sub}/{name}"] = fh.read()
    return out


class TestTrainJobs:
    """`train` runs its fits on `nc.worker_count()` processes, one or two
    as the CPU affinity allows, and a run leaves the same files and
    messages, whatever that count is."""

    def train(self, tmp_path, capsys, monkeypatch, config: str, jobs: int):
        cfg_path = tmp_path / f"jobs{jobs}.ini"
        cfg_path.write_text(config)
        run_dir = str(tmp_path / f"jobs{jobs}")
        assert main(["datagen", "--run-dir", run_dir, "--config", str(cfg_path)]) == 0
        capsys.readouterr()
        monkeypatch.setattr(nc, "worker_count", lambda: jobs)
        rc = main(["train", "--run-dir", run_dir])
        out, err = capsys.readouterr()
        return rc, out, err, trained_files(run_dir)

    def test_job_count_changes_no_byte(self, tmp_path, capsys, monkeypatch):
        one = self.train(tmp_path, capsys, monkeypatch, MINI_CONFIG, 1)
        two = self.train(tmp_path, capsys, monkeypatch, MINI_CONFIG, 2)
        assert one[0] == 0 and one == two
        assert len(one[3]) == 10  # 7 models and 3 training reports

    def test_failure_reported_in_serial_order(self, tmp_path, capsys, monkeypatch):
        # the generator and the classifier both fail; the generator is fitted
        # first, and no file is saved
        one = self.train(tmp_path, capsys, monkeypatch, TWO_FAILURES_CONFIG, 1)
        two = self.train(tmp_path, capsys, monkeypatch, TWO_FAILURES_CONFIG, 2)
        assert one == two
        rc, out, err, files = two
        assert rc == 1
        assert err.startswith("error: generator reconstruction MSE") and err.count("\n") == 1
        assert out == "" and files == {}
        assert not live_children()

    @pytest.mark.parametrize("jobs", ["0", "-1", "two"])
    def test_bad_job_count_exits_2(self, tmp_path, jobs):
        # the worker count is no longer a flag, so any --jobs is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["train", "--run-dir", str(tmp_path), "--jobs", jobs])
        assert exc.value.code == 2


def _old_form(doc: dict) -> dict:
    """The datagen record `doc` in the form it had before it held each
    frozen key under its INI name."""
    counts = ("n_train_per_class", "n_test_per_class")
    old = {k: v for k, v in doc.items() if k in ("format", "stage", "files")}
    old["params"] = {k: v for k, v in doc.items() if k not in {*old, *counts}}
    old["counts"] = {k.removeprefix("n_"): doc[k] for k in counts}
    return old


class TestDatagenOutputs:
    def test_artifacts_exist(self, mini_run):
        import os

        for name in ("dataset/train.json", "dataset/test.json", "stages/datagen.json",
                     "config.ini"):
            assert os.path.exists(os.path.join(mini_run, name))

    def test_manifest_lists_counts_and_hashes(self, mini_run):
        # the dataset's manifest is datagen's stage record; config.ini stays
        # editable, so no record lists it
        import os

        from piece.datagen import file_sha256

        doc = json.load(open(os.path.join(mini_run, "stages", "datagen.json")))
        assert (doc["n_train_per_class"], doc["n_test_per_class"]) == (60, 25)
        assert doc["files"] == {
            name: file_sha256(os.path.join(mini_run, name))
            for name in ("dataset/train.json", "dataset/test.json")
        }
        assert (doc["seed"], doc["side"], doc["noise_sigma"]) == (13, 16, 0.05)


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

    @pytest.mark.parametrize("index", ["-1", "100"])
    def test_index_just_outside_test_set(self, mini_run, capsys, index):
        # the mini test set holds 100 images, 0..99; no image is decoded to say so
        capsys.readouterr()
        assert main(["explain", "--run-dir", mini_run, "--index", index]) == 2
        assert capsys.readouterr().err == f"error: --index {index} out of range (test set has 100)\n"

    def test_per_image_decode_equals_whole_set(self, mini_run):
        import numpy as np

        from piece.datagen import load_dataset
        from piece.runcfg import RunPaths, load_run

        path = os.path.join(mini_run, "dataset", "test.json")
        whole = load_dataset(path)
        assert len(whole) == 100
        for i in range(len(whole)):  # the last image ends the padded payload
            one = load_dataset(path, rows=[i])
            assert one.images.tobytes() == whole.images[i : i + 1].tobytes()
            assert one.labels.tolist() == [whole.labels[i]] and one.split == "test"
        ids = [99, 0, 57, 57, 1]
        arts = load_run(RunPaths(mini_run))
        lazy = arts.test_images(ids)  # decoded alone
        assert "test_data" not in vars(arts)
        arts.test_data
        eager = arts.test_images(ids)  # rows of the decoded set
        for got in (load_dataset(path, rows=ids), lazy, eager):
            assert got.images.tobytes() == whole.images[ids].tobytes()
            assert np.array_equal(got.labels, whole.labels[ids])
        with pytest.raises(IndexError):
            load_dataset(path, rows=[100])

    def test_bad_fraction(self, mini_run, capsys):
        capsys.readouterr()
        assert main(["explain", "--run-dir", mini_run, "--index", "0",
                     "--mode", "prop", "--fraction", "0.4"]) == 2
        # the refusal names its flag, unlike the [run] alpha key's message
        assert capsys.readouterr().err == (
            "error: --mode prop needs --fraction, one of (0.25, 0.5, 0.75, 1.0), got 0.4\n"
        )

    @pytest.mark.parametrize(
        "args,message",
        [(["--mode", "prop"], "--mode prop needs --fraction, one of (0.25, 0.5, 0.75, 1.0), "
                              "got None"),
         (["--alpha", "0.7"], "--alpha: alpha must be in (0, 0.5), got 0.7"),
         (["--mode", "cf", "--fraction", "0.5"], "--fraction applies only to --mode prop, "
                                                 "not --mode cf")],
        ids=["prop-without-fraction", "alpha-out-of-range", "fraction-outside-prop"],
    )
    def test_bad_request_arguments(self, mini_run, capsys, args, message):
        import glob
        import os

        capsys.readouterr()
        assert main(["explain", "--run-dir", mini_run, "--index", "5", *args]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
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

    @pytest.mark.parametrize(
        "mode, explanation",
        [(["cf"], "counterfactual"), (["sf"], "semifactual"),
         (["prop", "--fraction", "0.5"], "proportional explanation")],
        ids=["cf", "sf", "prop"],
    )
    def test_target_class_equal_to_prediction_refused(self, mini_run, capsys, mode, explanation):
        # sf and prop used to write an explanation with c = c'; the refusal
        # names the explanation asked for
        import pathlib

        import numpy as np

        from piece import netcore as nc
        from piece.runcfg import RunPaths, load_run

        arts = load_run(RunPaths(mini_run))
        predicted = int(np.argmax(
            nc.forward(arts.classifier, arts.test_data.images[4].ravel()).output))
        before = run_files(pathlib.Path(mini_run), "explanations", "inversions")
        capsys.readouterr()
        assert main(["explain", "--run-dir", mini_run, "--index", "4",
                     "--mode", *mode, "--target-class", str(predicted)]) == 2
        assert capsys.readouterr().err == (
            f"error: target class {predicted} is the predicted class of image 4; "
            f"a {explanation} needs another class\n"
        )
        assert run_files(pathlib.Path(mini_run), "explanations", "inversions") == before

    def test_overflow_exits_1(self, mini_run, monkeypatch, capsys):
        from piece import netcore as nc
        from piece import pipeline as pl

        def overflow(*args, **kwargs):
            raise nc.NumericsError("non-finite values after layer 2 (dense)")

        monkeypatch.setattr(pl, "select_cf_class_stack", overflow)
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


def explain_once(run_dir, capsys, index: int, mode: list) -> tuple:
    """`piece explain` of one request: its exit code, its standard error,
    the bytes of the record and images it wrote, which it then removes (so
    a failed request cannot show an earlier one's), and its standard output
    with the run directory's path as <run>."""
    capsys.readouterr()
    rc = main(["explain", "--run-dir", str(run_dir), "--index", str(index), "--mode", *mode])
    out, err = capsys.readouterr()
    written = sorted((run_dir / "explanations" / "single").glob(f"{mode[0]}_{index:04d}*"))
    files = {p.name: p.read_bytes() for p in written}
    for p in written:
        p.unlink()
    return rc, err, files, out.replace(str(run_dir), "<run>")


def explainless_clone(run_dir, dest):
    """A copy of `run_dir` without its single-image explanations, its
    stored inversions and its stored explanations."""
    shutil.copytree(run_dir, dest)
    for sub in (dest / "explanations" / "single", dest / "inversions", dest / "explained"):
        shutil.rmtree(sub, ignore_errors=True)
    return dest


def entry_path(run_dir, index: int):
    return run_dir / "inversions" / f"{index:04d}.json"


@pytest.fixture(scope="module")
def cached_run(mini_run, tmp_path_factory):
    """A copy of `mini_run` whose only stored inversion, of image 0, and
    only stored explanation, its counterfactual, were made by `explain
    --mode cf`; and the inversion's bytes. A semifactual of image 0 reads
    the inversion."""
    run_dir = explainless_clone(mini_run, tmp_path_factory.mktemp("cached") / "run")
    assert main(["explain", "--run-dir", str(run_dir), "--index", "0", "--mode", "cf"]) == 0
    return run_dir, entry_path(run_dir, 0).read_bytes()


class TestInversionCache:
    """`piece explain` stores each image's inversion in the run's store,
    inversions/NNNN.json, and reuses it while its key
    (the generator and classifier files, the image, the seed and the
    inversion settings) matches."""

    # image 120's semifactual backs off; class selection fails on image 390
    REQUESTS = [(index, mode) for index in (0, 120, 390)
                for mode in (["cf"], ["sf"], ["prop", "--fraction", "0.5"])]

    def test_warm_and_cold_cache_write_the_same_bytes(self, toy_run, tmp_path, monkeypatch,
                                                      capsys):
        run_dir = explainless_clone(toy_run["paths"].root, tmp_path / "run")
        calls = count_inversions(monkeypatch)
        warm = [explain_once(run_dir, capsys, index, mode) for index, mode in self.REQUESTS]
        assert calls == [1, 1, 1]  # each image is inverted once, by its first request
        # a failed explanation is not stored
        assert sorted(p.name for p in (run_dir / "explained").iterdir()) == [
            "0000_cf.json", "0000_sf.json", "0120_cf.json", "0120_sf.json"]
        cold = []
        for index, mode in self.REQUESTS:
            for store in ("inversions", "explained"):
                shutil.rmtree(run_dir / store, ignore_errors=True)
            cold.append(explain_once(run_dir, capsys, index, mode))
        assert calls == [1] * 12
        assert cold == warm
        assert [rc for rc, *_ in warm] == [0] * 6 + [1] * 3
        assert all(len(files) == 4 for _, _, files, _ in warm[:6])
        assert json.loads(warm[4][2]["sf_0120.json"])["backoff_steps"] > 0
        assert warm[6][1].startswith("error: no decision boundary crossed")

    def test_edited_invert_steps_reinverts_and_replaces_the_entry(
        self, mini_run, tmp_path, monkeypatch, capsys
    ):
        run_dir = explainless_clone(mini_run, tmp_path / "run")
        calls = count_inversions(monkeypatch)
        entry = entry_path(run_dir, 0)
        assert explain_once(run_dir, capsys, 0, ["sf"])[0] == 0
        first = json.loads(entry.read_text())
        assert first["key"]["invert_steps"] == 150
        assert explain_once(run_dir, capsys, 0, ["cf"])[0] == 0
        assert calls == [1]
        ini = configparser.ConfigParser()
        ini.read(run_dir / "config.ini")
        ini["pipeline"]["invert_steps"] = "120"
        with open(run_dir / "config.ini", "w") as fh:
            ini.write(fh)
        assert explain_once(run_dir, capsys, 0, ["sf"])[0] == 0
        assert calls == [1, 1]
        second = json.loads(entry.read_text())
        assert second["key"] == dict(first["key"], invert_steps=120)
        assert second["z"] != first["z"]
        assert [p.name for p in entry.parent.iterdir()] == ["0000.json"]

    @pytest.mark.parametrize("index", ["x", 99, -1, 1.5, True])
    def test_bad_restart_index_exits_4(self, cached_run, capsys, index):
        # the checksum is recomputed, so only the index is wrong: "x" used to
        # end in a ValueError traceback, and the others were taken silently
        run_dir, original = cached_run
        entry = entry_path(run_dir, 0)
        doc = json.loads(original)
        assert doc["restarts"] == 3
        doc["restart_index"] = index
        digest = hashlib.sha256()
        for name in ("z", "losses", "restart_losses"):
            digest.update(base64.b64decode(doc[name]))
        digest.update(str(index).encode("ascii"))
        doc["checksum"] = digest.hexdigest()
        try:
            entry.write_text(json.dumps(doc, indent=1) + "\n")
            capsys.readouterr()
            assert main(["explain", "--run-dir", str(run_dir), "--index", "0",
                         "--mode", "sf"]) == 4
            assert capsys.readouterr().err == (
                f"error: {entry}: restart_index {index!r} is not in 0..2\n"
            )
        finally:  # the module's later tests explain image 0 of this run
            entry.write_bytes(original)

    def test_latent_of_another_size_exits_4(self, cached_run, capsys):
        # latent_dim and z rewritten together, the checksum recomputed: the
        # generator's pass used to raise a DimensionError traceback
        run_dir, original = cached_run
        entry = entry_path(run_dir, 0)
        doc = json.loads(original)
        z = base64.b64decode(doc["z"])[:32]
        doc["latent_dim"], doc["z"] = 4, base64.b64encode(z).decode("ascii")
        digest = hashlib.sha256(z)
        for name in ("losses", "restart_losses"):
            digest.update(base64.b64decode(doc[name]))
        digest.update(str(doc["restart_index"]).encode("ascii"))
        doc["checksum"] = digest.hexdigest()
        try:
            entry.write_text(json.dumps(doc, indent=1) + "\n")
            capsys.readouterr()
            assert main(["explain", "--run-dir", str(run_dir), "--index", "0",
                         "--mode", "sf"]) == 4
            assert capsys.readouterr().err == (
                f"error: {entry}: latent_dim 4 is not the run's 8\n"
            )
        finally:  # the module's later tests explain image 0 of this run
            entry.write_bytes(original)

    def test_refused_target_class_inverts_and_stores_nothing(
        self, mini_run, tmp_path, monkeypatch, capsys
    ):
        # the refusal follows the classifier pass, before the stored
        # inversion is looked up; it used to invert and store image 4 first
        import numpy as np

        from piece import netcore as nc
        from piece.runcfg import RunPaths, load_run

        run_dir = explainless_clone(mini_run, tmp_path / "run")
        arts = load_run(RunPaths(str(run_dir)))
        predicted = int(np.argmax(
            nc.forward(arts.classifier, arts.test_data.images[4].ravel()).output))
        calls = count_inversions(monkeypatch)
        rc, err, files, _ = explain_once(run_dir, capsys, 4,
                                         ["cf", "--target-class", str(predicted)])
        assert (rc, files) == (2, {})
        assert err.startswith(f"error: target class {predicted} is the predicted class of image 4")
        assert calls == []
        assert not (run_dir / "explanations" / "single").exists()
        assert not (run_dir / "explained").exists()

    def test_failed_inversion_stores_nothing(self, mini_run, tmp_path, monkeypatch, capsys):
        # on a clone, so that no stored entry can skip the failing inversion
        run_dir = explainless_clone(mini_run, tmp_path / "run")
        real = pl.invert_image

        def diverging(generator, feature_net, images, settings, seeds):
            settings = dataclasses.replace(settings, invert_lr=math.inf)
            return real(generator, feature_net, images, settings, seeds)

        monkeypatch.setattr(pl, "invert_image", diverging)
        rc, err, files, _ = explain_once(run_dir, capsys, 0, ["sf"])
        assert (rc, err, files) == (
            1, "error: all inversion restarts diverged to non-finite values\n", {}
        )
        assert not entry_path(run_dir, 0).parent.exists()
        assert not (run_dir / "explained").exists()



class TestExplanationStore:
    """`piece explain` stores each counterfactual and semifactual it delivers
    in the run's store, explained/NNNN_<cf|sf>[_t<class>][_a<alpha>].json,
    and serves a request whose key (the image's inversion key, the stats,
    the pipeline settings, the mode, alpha and target class) matches from
    it, writing what a fresh request writes; `--mode prop` cuts its prefix
    from the stored semifactual."""

    def requests(self, mini_run, index: int) -> list:
        arts = load_run(RunPaths(mini_run))
        predicted = int(np.argmax(
            nc.forward(arts.classifier, arts.test_images([index]).images[0].ravel()).output))
        return [["cf"], ["sf"], *(["prop", "--fraction", str(f)] for f in pl.FRACTIONS),
                ["cf", "--target-class", str((predicted + 1) % 4)],
                ["cf", "--alpha", "0.1"], ["prop", "--fraction", "0.5", "--alpha", "0.1"]]

    def test_stored_explanations_write_what_fresh_ones_write(self, mini_run, tmp_path,
                                                              monkeypatch, capsys):
        run_dir = explainless_clone(mini_run, tmp_path / "run")
        requests = self.requests(mini_run, 1)
        calls = count_explanations(monkeypatch)
        first = [explain_once(run_dir, capsys, 1, mode) for mode in requests]
        # the props are cut from the semifactual the sf request stored
        assert calls == ["counterfactual", "semifactual", "counterfactual", "counterfactual",
                         "semifactual"]
        entries = {p.name: p.read_bytes() for p in (run_dir / "explained").iterdir()}
        target = requests[6][-1]
        assert sorted(entries) == ["0001_cf.json", "0001_cf_a0.1.json",
                                   f"0001_cf_t{target}.json", "0001_sf.json",
                                   "0001_sf_a0.1.json"]
        again = [explain_once(run_dir, capsys, 1, mode) for mode in requests]
        assert len(calls) == 5  # every request served from the store
        assert {p.name: p.read_bytes() for p in (run_dir / "explained").iterdir()} == entries
        fresh = []
        for mode in requests:
            for store in ("inversions", "explained"):
                shutil.rmtree(run_dir / store, ignore_errors=True)
            fresh.append(explain_once(run_dir, capsys, 1, mode))
        assert first == again == fresh
        assert [rc for rc, *_ in first] == [0] * len(requests)
        assert all(len(files) == 4 for _, _, files, _ in first)

    def test_entry_with_another_key_is_recomputed_and_replaced(self, mini_run, tmp_path,
                                                               monkeypatch, capsys):
        run_dir = explainless_clone(mini_run, tmp_path / "run")
        calls = count_explanations(monkeypatch)
        entry = run_dir / "explained" / "0001_sf.json"
        assert explain_once(run_dir, capsys, 1, ["sf"])[0] == 0
        first = json.loads(entry.read_text())
        assert first["key"]["visualize_steps"] == 100
        ini = configparser.ConfigParser()
        ini.read(run_dir / "config.ini")
        ini["pipeline"]["visualize_steps"] = "90"
        with open(run_dir / "config.ini", "w") as fh:
            ini.write(fh)
        assert explain_once(run_dir, capsys, 1, ["prop", "--fraction", "1.0"])[0] == 0
        assert calls == ["semifactual"] * 2
        second = json.loads(entry.read_text())
        assert second["key"] == dict(first["key"], visualize_steps=90)
        assert second["z_prime"] != first["z_prime"]
        assert [p.name for p in entry.parent.iterdir()] == ["0001_sf.json"]


def run_files(run_dir, *subdirs) -> dict:
    """The bytes of every file under the `subdirs` of `run_dir`."""
    return {
        str(p.relative_to(run_dir)): p.read_bytes()
        for sub in subdirs for p in sorted((run_dir / sub).rglob("*")) if p.is_file()
    }


def prepared_clone(run_dir, dest):
    """A copy of what datagen, train and fit-stats wrote in `run_dir`:
    config.ini, their records and the files these list, and nothing else."""
    names = ["config.ini"]
    for stage in ("datagen", "train", "fit-stats"):
        record = f"stages/{stage}.json"
        names += [record, *json.loads((run_dir / record).read_text())["files"]]
    for name in names:
        (dest / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(run_dir / name, dest / name)
    return dest


def expt_ids(run_dir, expt: int) -> list:
    with open(run_dir / "reports" / f"expt{expt}_testset.csv") as fh:
        return [int(row["image_id"]) for row in csv.DictReader(fh)]


@pytest.fixture(scope="module")
def stored_run(mini_run, tmp_path_factory):
    """A copy of `mini_run` that ran expt1, then expt2, from an empty store
    of inversions, each as one shard, so that this process makes every
    inversion; and the stack size of every inversion of each."""
    run_dir = explainless_clone(mini_run, tmp_path_factory.mktemp("stored") / "run")
    stacks = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nc, "worker_count", lambda: 1)
        calls = count_inversions(mp)
        for expt in ("1", "2"):
            rc = main(["experiment", "--run-dir", str(run_dir), "--expt", expt, "--force"])
            assert rc in (0, 5)
            stacks[expt], calls[:] = list(calls), []
    return run_dir, stacks


def _flipped(text: str) -> str:
    """The base64 payload `text` with every bit of its first byte flipped."""
    raw = bytearray(base64.b64decode(text))
    raw[0] ^= 0xFF
    return base64.b64encode(bytes(raw)).decode("ascii")


def _stats_objects(doc) -> list:
    records = [rec for row in doc["classes"] for rec in row]
    return [doc, *records, *(rec["params"] for rec in records if "params" in rec)]


def _artifacts(run_dir):
    return load_run(RunPaths(str(run_dir)))


def _test_set(run_dir, raw):
    """Decode the test set whole, which must raise DatasetFormatError, then
    image 0 of it alone."""
    arts = _artifacts(run_dir)
    with pytest.raises(DatasetFormatError):
        arts.test_data
    arts.test_images([0])


# each document format of a run directory: a file of it in `cached_run`,
# the command that decodes it, how the run reads it given the file's
# original bytes, the error that raises, the objects of a document whose
# fields the format's tables name, and wrong values of the right JSON type
# for some of its keys
DOCUMENT_FORMATS = {
    "dataset": (
        "dataset/test.json", "explain",
        _test_set, DatasetFormatError,
        lambda doc: [doc],
        lambda doc: [
            ("format", "piece-network"), ("split", "val"), ("shape", [100, 16]),
            ("shape", "100,16,16"), ("shape", [100.0, 16, 16]), ("shape", [100, 16, -16]),
            ("shape", [101, 16, 16]), ("shape", [100, 16, 17]), ("labels", [0] * 99),
            ("labels", [0.5] * 100), ("labels", [4] * 100), ("labels", [-1] * 100),
            ("labels", [True] * 100), ("shape", None), ("images", None), ("images", "AAAA"),
        ],
    ),
    "network": (
        "models/classifier.json", "explain",
        lambda run, raw: _artifacts(run).classifier, nc.NetworkFormatError,
        lambda doc: [doc, *doc["layers"]],
        lambda doc: [("feature_tap", 0), ("feature_tap", 99), ("format_version", 2),
                     ("layers", [])],
    ),
    "stats": (
        "stats/stats.json", "explain",
        lambda run, raw: _artifacts(run).stats, HurdleError,
        _stats_objects,
        lambda doc: [("classes", doc["classes"][:1]), ("classes", [])],
    ),
    "latents": (
        "stats/latents.json", "experiment",
        lambda run, raw: _artifacts(run).latents, HurdleError,
        lambda doc: [doc],
        lambda doc: [("shape", doc["shape"][::-1]), ("predicted", doc["predicted"][1:]),
                     ("latents", doc["latents"][4:])],
    ),
    "stage record": (
        "stages/fit-stats.json", "explain",
        lambda run, raw: _artifacts(run).stats, ProvenanceError,
        lambda doc: [doc],
        lambda doc: [("stage", "train"), ("after", "0" * 64), ("files", {})],
    ),
    "inversion": (
        "inversions/0000.json", "explain",
        lambda run, raw: pl.load_inversion(run / "inversions" / "0000.json",
                                           json.loads(raw)["key"], 8),
        pl.InversionFormatError,
        lambda doc: [doc],
        lambda doc: [("restarts", 2), ("latent_dim", 3), ("checksum", "0" * 64),
                     ("key", dict(list(doc["key"].items())[1:])),
                     *((name, _flipped(doc[name])) for name in ("z", "losses", "restart_losses"))],
    ),
    "explanation": (
        "explained/0000_cf.json", "explain cf",
        lambda run, raw: pl.stored_explanation(
            run / "explained" / "0000_cf.json", json.loads(raw)["key"],
            _artifacts(run).generator, _artifacts(run).classifier, (16, 16)),
        pl.ExplanationFormatError,
        lambda doc: [doc, doc["result"], *doc["result"]["exceptional"],
                     *doc["result"]["mod_steps"]],
        lambda doc: [("height", 256), ("width", 1), ("features", 0), ("classes", 3),
                     ("checksum", "0" * 64),
                     ("result", dict(doc["result"], c_prime=doc["result"]["c"])),
                     ("result", dict(doc["result"], c_prime=4)),
                     ("result", dict(doc["result"], mode="proportional")),
                     ("key", dict(list(doc["key"].items())[1:])),
                     *((name, _flipped(doc[name])) for name in ("z", "x_mod", "image_prime"))],
    ),
}
_DECODING_COMMANDS = {"explain": ["explain", "--index", "0", "--mode", "sf"],
                      "explain cf": ["explain", "--index", "0", "--mode", "cf"],
                      "experiment": ["experiment", "--expt", "1"]}


class TestDocumentFormats:
    """A document of any format of a run directory that is truncated,
    garbled, lacks a key or holds a value of the wrong type or the wrong
    value, and was recorded as its stage wrote it, raises its reader's
    error; the command that decodes it exits 4 with one `error:` line
    naming it and writes nothing."""

    @pytest.mark.parametrize("fmt", list(DOCUMENT_FORMATS))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_document_exits_4(self, cached_run, capsys, fmt, data):
        run_dir, _ = cached_run
        name, command, read, error, objects, wrong = DOCUMENT_FORMATS[fmt]
        path = run_dir / name
        kept = {p: p.read_bytes() for p in [path, *(run_dir / "stages").iterdir()]}
        raw = kept[path]
        bad = damaged(data, raw, objects, wrong(json.loads(raw)))
        try:
            path.write_bytes(bad)
            rerecord(run_dir, name)
            with pytest.raises(error):
                read(run_dir, raw)
            before = run_files(run_dir, ".")
            capsys.readouterr()
            argv = _DECODING_COMMANDS[command]
            assert main([argv[0], "--run-dir", str(run_dir), *argv[1:]]) == 4
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("error: ") and name in err[0], err
            assert run_files(run_dir, ".") == before
        finally:
            for p, content in kept.items():
                p.write_bytes(content)


class TestRunInversionStore:
    """The experiments and `piece explain` share the run's store of
    inversions, inversions/NNNN.json: each image is inverted once per run,
    with one seed, and a report does not depend on whether an entry was
    there."""

    def test_expt1_inverts_its_images_as_one_stack(self, stored_run):
        run_dir, stacks = stored_run
        ids = expt_ids(run_dir, 1)
        assert stacks["1"] == [len(ids)]
        assert sorted(p.name for p in (run_dir / "inversions").iterdir()) == sorted(
            f"{i:04d}.json" for i in ids
        )
        for record in (run_dir / "stages").iterdir():  # a cache, not a stage output
            assert "inversions/" not in record.read_text()
        assert not (run_dir / "explained").exists()  # `piece explain`'s store alone

    def test_expt2_after_expt1_inverts_nothing(self, stored_run):
        run_dir, stacks = stored_run
        assert set(expt_ids(run_dir, 2)) <= set(expt_ids(run_dir, 1))
        assert stacks["2"] == []

    def test_explain_of_an_expt1_image_inverts_nothing(self, stored_run, tmp_path,
                                                       monkeypatch, capsys):
        run_dir, _ = stored_run
        index = expt_ids(run_dir, 1)[-1]
        calls = count_inversions(monkeypatch)
        warm = explain_once(run_dir, capsys, index, ["sf"])
        assert calls == []
        # the same bytes as from an inversion made afresh
        cold = explain_once(explainless_clone(run_dir, tmp_path / "cold"), capsys, index, ["sf"])
        assert calls == [1]
        assert warm[0] == 0 and len(warm[2]) == 4
        assert cold == warm

    def test_reports_from_an_empty_store_equal_those_from_a_full_one(self, stored_run,
                                                                      tmp_path):
        run_dir, _ = stored_run
        cold = explainless_clone(run_dir, tmp_path / "cold")
        for expt in ("2", "1"):  # expt1 then finds expt2's entries and inverts the rest
            rc = main(["experiment", "--run-dir", str(cold), "--expt", expt, "--force"])
            assert rc in (0, 5)
        subdirs = ("reports", "explanations/expt1", "explanations/expt2", "inversions",
                   "stages")
        assert run_files(cold, *subdirs) == run_files(run_dir, *subdirs)

    @pytest.mark.parametrize("expt", [1, 2])
    def test_damaged_entry_exits_4_before_the_first_write(self, stored_run, tmp_path, capsys,
                                                          expt):
        from piece.runcfg import RunPaths

        run_dir = tmp_path / "damaged"
        shutil.copytree(stored_run[0], run_dir)
        entry = entry_path(run_dir, expt_ids(run_dir, expt)[-1])
        entry.write_bytes(entry.read_bytes()[:-20])
        before = run_files(run_dir, "reports", "explanations", "inversions", "stages")
        capsys.readouterr()
        rc = main(["experiment", "--run-dir", str(run_dir), "--expt", str(expt), "--force"])
        assert rc == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and str(entry) in err[0]
        assert run_files(run_dir, "reports", "explanations", "inversions", "stages") == before
        assert RunPaths(str(run_dir)).done(f"experiment {expt}")


def retrained_clone(mini_run, dest, section: str, key: str, value: str):
    """A copy of `mini_run` whose `train --force` ran with `[section] key`
    set to `value`, so that its fit-stats stage builds on the train stage
    before."""
    shutil.copytree(mini_run, dest)
    cfg = configparser.ConfigParser()
    cfg.read(dest / "config.ini")
    cfg[section][key] = value
    with open(dest / "config.ini", "w") as fh:
        cfg.write(fh)
    assert main(["train", "--run-dir", str(dest), "--force"]) == 0
    return dest


def refused_stale(run_dir, capsys, commands: list, stage: str, *names: str) -> None:
    """Each of `commands` exits 4 with one `error:` line naming each of
    `names` and `piece <stage> --force`, and writes nothing."""
    before = run_files(run_dir, ".")
    for argv in commands:
        capsys.readouterr()
        assert main([argv[0], "--run-dir", str(run_dir), *argv[1:]]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert all(name in err[0] for name in (*names, f"`piece {stage} --force`")), err
    assert run_files(run_dir, ".") == before


STALE_COMMANDS = [["explain", "--index", "0"], ["experiment", "--expt", "1"]]


class TestProvenance:
    def test_stale_stats_detected(self, mini_run, tmp_path, capsys):
        # stats were fitted against the previous classifier
        clone = retrained_clone(mini_run, tmp_path / "clone", "classifier", "lr", "0.002")
        refused_stale(clone, capsys, STALE_COMMANDS, "fit-stats", "stages/fit-stats.json")
        assert main(["fit-stats", "--run-dir", str(clone), "--force"]) == 0
        assert main(["explain", "--run-dir", str(clone), "--index", "0"]) == 0

    def test_train_that_changes_any_model_makes_stats_stale(self, mini_run, tmp_path, capsys):
        # the classifier is as before, but the link covers the whole train stage
        clone = retrained_clone(mini_run, tmp_path / "clone", "autoencoders", "epochs", "3")
        classifier = "models/classifier.json"
        assert trained_files(clone)[classifier] == trained_files(mini_run)[classifier]
        refused_stale(clone, capsys, STALE_COMMANDS, "fit-stats", "stages/fit-stats.json")
        assert main(["fit-stats", "--run-dir", str(clone), "--force"]) == 0
        assert main(["explain", "--run-dir", str(clone), "--index", "0"]) == 0

    def test_fit_stats_refuses_classifier_of_another_dataset(self, mini_run, tmp_path, capsys):
        import shutil

        clone = tmp_path / "regenerated"
        shutil.copytree(mini_run, clone)
        cfg_path = tmp_path / "fewer.ini"
        cfg_path.write_text(MINI_CONFIG.replace("n_train_per_class = 60", "n_train_per_class = 50"))
        assert main(["datagen", "--run-dir", str(clone), "--config", str(cfg_path),
                     "--force"]) == 0
        # the models were trained on the dataset datagen just replaced
        refused_stale(clone, capsys, [["fit-stats", "--force"], *STALE_COMMANDS],
                      "train", "stages/train.json")

    @pytest.mark.parametrize(
        "record,key,value",
        [pytest.param("stages/train.json", "files", "models", id="directory"),
         pytest.param("stages/train.json", "files", "", id="run-directory"),
         pytest.param("stages/fit-stats.json", "files", "../outside.json", id="outside"),
         pytest.param("stages/fit-stats.json", "files", "absolute", id="absolute"),
         pytest.param("stages/fit-stats.json", "after", None, id="after-null"),
         pytest.param("stages/fit-stats.json", "after", "x", id="after-x"),
         pytest.param("stages/fit-stats.json", "after", [], id="after-list"),
         pytest.param("stages/fit-stats.json", "after", "datagen", id="after-other-record"),
         # a record written before records linked up
         pytest.param("stages/train.json", "after", "missing", id="after-missing")],
    )
    def test_broken_record_link_or_path_exits_4(self, mini_run, tmp_path, capsys, record, key,
                                                value):
        # a recorded path that is not a regular file inside the run
        # directory, even one with the recorded sha256, or an `after` that is
        # not the sha256 of the record before
        from piece.datagen import file_sha256

        clone = explainless_clone(mini_run, tmp_path / "run")
        outside = tmp_path / "outside.json"
        outside.write_text("{}\n")
        doc = json.loads((clone / record).read_text())
        names = [record]
        if key == "files":
            value = str(outside) if value == "absolute" else value
            doc["files"][value] = file_sha256(outside)
            names.append(repr(value))
        elif value == "missing":
            del doc["after"]
        elif value == "datagen":
            doc["after"] = file_sha256(clone / "stages" / "datagen.json")
        else:
            doc["after"] = value
        (clone / record).write_text(json.dumps(doc))
        stage = record.removeprefix("stages/").removesuffix(".json")
        refused_stale(clone, capsys, [["explain", "--index", "0"]], stage, *names)

    @pytest.mark.parametrize(
        "section,key,value,argv",
        [("dataset", "n_train_per_class", "250", ["train", "--force"]),
         ("dataset", "noise_sigma", "0.1", ["fit-stats", "--force"]),
         ("run", "seed", "14", ["explain", "--index", "0"])],
    )
    def test_dataset_keys_frozen_after_datagen(
        self, mini_run, tmp_path, capsys, section, key, value, argv
    ):
        import shutil

        clone = tmp_path / "edited"
        shutil.copytree(mini_run, clone)
        cfg = configparser.ConfigParser()
        cfg.read(clone / "config.ini")
        recorded = cfg[section][key]
        cfg[section][key] = value
        with open(clone / "config.ini", "w") as fh:
            cfg.write(fh)
        before = (clone / "models" / "classifier.json").read_bytes()
        capsys.readouterr()
        assert main([argv[0], "--run-dir", str(clone), *argv[1:]]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(
            f"error: config.ini [{section}] {key} is {value}, "
            f"but the dataset was generated with {recorded};"
        )
        assert (clone / "models" / "classifier.json").read_bytes() == before

    def test_tampered_dataset_detected(self, mini_run, tmp_path, capsys):
        # the frozen keys are compared before the train record's link to
        # this record, which the edit breaks too
        import shutil

        clone = tmp_path / "clone2"
        shutil.copytree(mini_run, clone)
        record = clone / "stages" / "datagen.json"
        doc = json.loads(record.read_text())
        doc["n_train_per_class"] = 1
        record.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["explain", "--run-dir", str(clone), "--index", "0"]) == 4
        assert capsys.readouterr().err.splitlines() == [
            "error: config.ini [dataset] n_train_per_class is 60, but the dataset was "
            "generated with 1; regenerate it with `piece datagen --force`"
        ]

    def test_old_record_form_exits_4(self, mini_run, tmp_path, capsys):
        # a datagen record from before it held each frozen key under its INI
        # name: the glyph keys and seed under params, the counts under counts
        import shutil

        clone = tmp_path / "old_record"
        shutil.copytree(mini_run, clone)
        record = clone / "stages" / "datagen.json"
        record.write_text(json.dumps(_old_form(json.loads(record.read_text())), indent=1))
        capsys.readouterr()
        assert main(["explain", "--run-dir", str(clone), "--index", "0"]) == 4
        assert capsys.readouterr().err.splitlines() == [
            f"error: {record}: missing key 'seed'"
        ]

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
        "stage,output", [("train", "models/classifier.json"), ("fit-stats", "stats/stats.json")]
    )
    def test_stage_refuses_edited_dataset(self, mini_run, tmp_path, capsys, stage, output):
        import shutil

        clone = tmp_path / "clone6"
        shutil.copytree(mini_run, clone)
        path = clone / "dataset" / "train.json"
        doc = json.loads(path.read_text())
        doc["labels"][0] = (doc["labels"][0] + 1) % 4  # still a well-formed dataset
        path.write_text(json.dumps(doc))
        before = (clone / output).read_bytes()
        capsys.readouterr()
        assert main([stage, "--run-dir", str(clone), "--force"]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "dataset/train.json" in err[0] and "sha256" in err[0]
        assert (clone / output).read_bytes() == before

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
                ("stats/stats.json", "classes"),
                ("models/classifier.json", "feature_tap"),
                ("dataset/test.json", "labels"),
                ("stats/latents.json", "shape"),
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


    @pytest.mark.parametrize(
        "field,value",
        [("role", "x"), ("feature_tap", "x"), ("feature_tap", -1),
         ("rate", None), ("rate", "x"), ("bias", 5)],
        ids=["role-x", "tap-x", "tap-negative", "rate-null", "rate-x", "bias-number"],
    )
    def test_network_field_it_cannot_use_exits_4(self, mini_run, tmp_path, capsys, field, value):
        # a well-formed classifier file with one field a network cannot take,
        # recorded as train wrote it: only decoding the file finds the field
        import shutil

        clone = tmp_path / "mutated"
        shutil.copytree(mini_run, clone)
        path = clone / "models" / "classifier.json"
        doc = json.loads(path.read_text())
        if field == "rate":
            next(spec for spec in doc["layers"] if spec["kind"] == "dropout")["rate"] = value
        elif field == "bias":
            doc["layers"][0]["bias"] = value
        else:
            doc[field] = value
        path.write_text(json.dumps(doc))
        rerecord(clone, "models/classifier.json")
        capsys.readouterr()
        assert main(["explain", "--run-dir", str(clone), "--index", "7", "--mode", "cf"]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "models/classifier.json" in err[0] and field in err[0]


    @pytest.mark.parametrize(
        "name,edit",
        [pytest.param("stats/stats.json", lambda doc: doc.update(classes=[]), id="stats-no-row"),
         pytest.param("stats/stats.json", lambda doc: doc.update(classes=doc["classes"][:1]),
                      id="stats-one-row"),
         pytest.param("stats/stats.json", lambda doc: [
             rec["params"].update(std=0) for row in doc["classes"] for rec in row
             if rec["family"] == "gaussian"], id="stats-gaussian-std-0"),
         pytest.param("models/classifier.json", lambda doc: doc.update(feature_tap=None),
                      id="classifier-without-tap"),
         pytest.param("dataset/test.json", lambda doc: doc.update(split=[]), id="split-list"),
         pytest.param("stages/train.json", lambda doc: doc.update(files={}),
                      id="train-record-without-files")],
    )
    def test_document_the_run_cannot_use_exits_4(self, mini_run, tmp_path, capsys, name, edit):
        # each used to end `piece explain` in a traceback (an IndexError,
        # DimensionError, TypeError or KeyError), or to divide by a scale of
        # 0; the edit is recorded as its stage would have written it
        clone = explainless_clone(mini_run, tmp_path / "run")
        doc = json.loads((clone / name).read_text())
        edit(doc)
        (clone / name).write_text(json.dumps(doc))
        rerecord(clone, name)
        before = run_files(clone, ".")
        capsys.readouterr()
        assert main(["explain", "--run-dir", str(clone), "--index", "0", "--mode", "sf"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and name in err[0], err
        assert run_files(clone, ".") == before


class TestStageRecords:
    """Every stage ends by writing its record, stages/<stage>.json, of the
    files it wrote, and a stage is done only while its record exists."""

    @pytest.mark.parametrize(
        "stage,files",
        [("train", [f"models/{name}.json" for name in (
            "classifier", "generator", "ae_full", *(f"ae_class_{c}" for c in range(4)))]
          + [f"reports/training_{name}.json" for name in (
              "classifier", "generator", "autoencoders")]),
         ("fit-stats", ["stats/stats.json", "stats/latents.json"])],
    )
    def test_record_lists_every_file_written(self, mini_run, stage, files):
        import os

        from piece.datagen import file_sha256

        doc = json.load(open(os.path.join(mini_run, "stages", f"{stage}.json")))
        assert doc["stage"] == stage
        assert doc["files"] == {
            name: file_sha256(os.path.join(mini_run, name)) for name in files
        }
        before = os.path.join(mini_run, "stages", f"{BUILDS_ON[stage]}.json")
        assert doc["after"] == file_sha256(before)

    @pytest.mark.parametrize("stage", ["datagen", "experiment 1", "experiment 2"])
    def test_record_lists_exactly_the_files_the_stage_wrote(self, mini_run, tmp_path, stage):
        # the stage runs in a directory that holds only its inputs, so every
        # file that appears there is one it wrote, but for config.ini, which
        # datagen writes outside its record so that it stays editable, and
        # the run's store of inversions, a cache that no record lists
        import pathlib

        from piece.datagen import file_sha256

        run_dir = tmp_path / "run"
        if stage == "datagen":
            cfg_path = tmp_path / "mini.ini"
            cfg_path.write_text(MINI_CONFIG)
            argv = ["datagen", "--config", str(cfg_path)]
            outputs = {"dataset"}
        else:
            prepared_clone(pathlib.Path(mini_run), run_dir)
            argv = ["experiment", "--expt", stage[-1]]
            outputs = {"reports", "explanations"}
        inputs = set(run_files(run_dir, ".")) if run_dir.exists() else set()
        assert main([argv[0], "--run-dir", str(run_dir), *argv[1:]]) in (0, 5)
        record = f"stages/{stage.replace(' ', '-')}.json"
        wrote = {
            name for name in set(run_files(run_dir, ".")) - inputs
            if name not in (record, "config.ini") and not name.startswith("inversions/")
        }
        assert {name.split("/")[0] for name in wrote} == outputs
        doc = json.loads((run_dir / record).read_text())
        assert doc["stage"] == stage
        assert doc["files"] == {name: file_sha256(run_dir / name) for name in wrote}
        if stage == "datagen":
            assert "after" not in doc
        else:
            assert doc["after"] == file_sha256(run_dir / "stages" / "fit-stats.json")

    def test_old_layout_exits_3(self, mini_run, tmp_path, capsys):
        # a run directory from before datagen wrote a stage record: its
        # dataset/manifest.json held the files, params and counts that
        # stages/datagen.json first held
        import os
        import shutil

        clone = tmp_path / "old_layout"
        shutil.copytree(mini_run, clone)
        record = clone / "stages" / "datagen.json"
        old = _old_form(json.loads(record.read_text()))
        manifest = {
            "format": "piece-dataset-manifest", "params": old["params"], "counts": old["counts"],
            "files": {os.path.basename(name): sha for name, sha in old["files"].items()},
        }
        (clone / "dataset" / "manifest.json").write_text(json.dumps(manifest, indent=1))
        record.unlink()
        for argv in (["train", "--force"], ["explain", "--index", "0"],
                     ["experiment", "--expt", "1", "--force"]):
            capsys.readouterr()
            assert main([argv[0], "--run-dir", str(clone), *argv[1:]]) == 3
            assert capsys.readouterr().err == (
                "error: stage 'datagen' has not completed in this run directory "
                "(stages/datagen.json missing); run `piece datagen` first\n"
            )

    def test_half_written_train_not_done(self, mini_run, tmp_path, monkeypatch, capsys):
        # train fails after writing every model file, before its last report
        import shutil

        import piece.cli
        from piece.runcfg import RunPaths
        from piece.training import TrainingFailure

        def broken(*args, **kwargs):
            raise TrainingFailure("autoencoder report failed")

        clone = tmp_path / "half_trained"
        shutil.copytree(mini_run, clone)
        monkeypatch.setattr(piece.cli, "autoencoders_report", broken)
        monkeypatch.setattr(nc, "worker_count", lambda: 1)
        assert main(["train", "--run-dir", str(clone), "--force"]) == 1
        assert not RunPaths(str(clone)).done("train")
        capsys.readouterr()
        assert main(["explain", "--run-dir", str(clone), "--index", "0"]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [
            "error: stage 'train' has not completed in this run directory "
            "(stages/train.json missing); run `piece train` first"
        ]

    def test_failed_forced_experiment_not_done(self, mini_run, tmp_path, monkeypatch, capsys):
        # expt1 fails after its first reports, with the fit-quality report of
        # the run before still on disk; its record went at its first write
        import shutil

        from piece import evalx
        from piece.runcfg import RunPaths

        def broken(*args, **kwargs):
            raise evalx.MetricError("substitutability failed")

        clone = tmp_path / "stale_marker"
        shutil.copytree(mini_run, clone)
        expt1 = ["experiment", "--run-dir", str(clone), "--expt", "1"]
        assert main(expt1 + ["--force"]) in (0, 5)
        assert RunPaths(str(clone)).done("experiment 1")
        monkeypatch.setattr(evalx, "substitutability", broken)
        assert main(expt1 + ["--force"]) == 1
        assert (clone / "reports" / "expt1_rows.csv").exists()
        assert not RunPaths(str(clone)).done("experiment 1")
        capsys.readouterr()
        assert main(expt1) == 1  # run again, not refused
        assert capsys.readouterr().err.strip() == "error: substitutability failed"

    # each case sets `key` of the file `name` to a value that is not a
    # mapping, or removes it (None for "files")
    @pytest.mark.parametrize(
        "name,key,value",
        [pytest.param("stages/train.json", "files", None, id="stages/train.json-None"),
         pytest.param("stages/train.json", "files", [], id="stages/train.json-files1"),
         pytest.param("stages/fit-stats.json", "files", "stats/stats.json",
                      id="stages/fit-stats.json-stats/stats.json"),
         pytest.param("stages/datagen.json", "files", [], id="stages/datagen.json-files3"),
         pytest.param("stages/datagen.json", "side", "x", id="stages/datagen.json-side"),
         pytest.param("stages/datagen.json", "noise_sigma", None,
                      id="stages/datagen.json-noise_sigma")],
    )
    def test_malformed_record_exits_4(self, mini_run, tmp_path, capsys, name, key, value):
        # a datagen record whose files were not a mapping used to end
        # explain in a TypeError; nothing hashes a record itself, so reading
        # it is what must fail
        import shutil

        clone = tmp_path / "malformed"
        shutil.copytree(mini_run, clone)
        record = clone / name
        doc = json.loads(record.read_text())
        if key == "files" and value is None:
            del doc["files"]
        else:
            doc[key] = value
        record.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["explain", "--run-dir", str(clone), "--index", "0"]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and name in err[0]

    def test_run_without_records_asks_for_the_stages(self, mini_run, tmp_path, capsys):
        # a run directory written before stages recorded their files; its
        # first stage, datagen, is the first it is asked to redo
        import shutil

        clone = tmp_path / "unrecorded"
        shutil.copytree(mini_run, clone)
        shutil.rmtree(clone / "stages")
        capsys.readouterr()
        assert main(["experiment", "--run-dir", str(clone), "--expt", "1"]) == 3
        assert "run `piece datagen` first" in capsys.readouterr().err


class TestLazyLoading:
    """`load_run` checks every recorded file's sha256 up front and decodes
    each artifact only when it is first read."""

    def test_explain_decodes_only_what_it_reads(self, mini_run, monkeypatch):
        # a warm request decodes its own test image, neither the training set
        # nor the rest of the test set
        import os

        import piece.runcfg

        argv = ["explain", "--run-dir", mini_run, "--index", "0", "--mode", "sf"]
        assert main(argv) == 0  # stores the image's inversion and its semifactual
        calls = count_explanations(monkeypatch)
        decoded = []
        for name in ("load_network", "load_dataset", "load_stats", "load_latents"):
            def counting(path, _load=getattr(piece.runcfg, name), **rows):
                decoded.append((os.path.relpath(path, mini_run),
                                list(rows["rows"]) if rows else None))
                return _load(path, **rows)

            monkeypatch.setattr(piece.runcfg, name, counting)
        assert main(argv) == 0
        assert sorted(decoded) == [
            ("dataset/test.json", [0]), ("models/classifier.json", None),
            ("models/generator.json", None), ("stats/stats.json", None),
        ]
        assert calls == []  # served from the store, with every decode of a fresh request

    @pytest.mark.parametrize(
        "name",
        ["models/ae_class_2.json", "stats/latents.json", "dataset/train.json",
         "reports/training_generator.json", "models/ae_class_0.json"],
    )
    def test_edit_of_undecoded_file_exits_4(self, mini_run, tmp_path, capsys, name):
        # explain decodes none of these files, but checks each against its
        # recorded sha256 before it writes a record, an image or an inversion
        clone = explainless_clone(mini_run, tmp_path / "edited_undecoded")
        with open(clone / name, "a") as fh:
            fh.write(" \n")  # still well-formed JSON
        before = run_files(clone, "explanations", "inversions")
        capsys.readouterr()
        assert main(["explain", "--run-dir", str(clone), "--index", "0"]) == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and name in err[0] and "sha256" in err[0]
        assert run_files(clone, "explanations", "inversions") == before

    def test_experiment_checks_every_artifact_before_writing(self, mini_run, tmp_path):
        # a stats model with a count no reader can use, recorded as fit-stats
        # wrote it: only decoding the table finds it
        import shutil

        clone = tmp_path / "stale"
        shutil.copytree(mini_run, clone)
        stats = clone / "stats" / "stats.json"
        doc = json.loads(stats.read_text())
        doc["classes"][3][5]["m"] = -1
        stats.write_text(json.dumps(doc))
        rerecord(clone, "stats/stats.json")

        def reports():
            return {p.name: p.read_bytes() for p in (clone / "reports").iterdir()}

        before = reports()
        assert main(["experiment", "--run-dir", str(clone), "--expt", "1", "--force"]) == 4
        assert reports() == before


class TestClosedStdout:
    @pytest.mark.parametrize("command,unbuffered", [
        ("datagen", False), ("datagen", True), ("train", True),
    ])
    def test_closed_stdout_exits_141_without_traceback(self, mini_run, tmp_path, command,
                                                        unbuffered):
        # stdout is a pipe whose read end is already closed, so its first
        # write fails, whether each print writes or only the flush at exit
        clone = tmp_path / "run"
        if command == "train":
            shutil.copytree(mini_run, clone)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(piece.__file__))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "piece.cli", command, "--run-dir", str(clone),
                 "--force"],
                stdout=write, stderr=subprocess.PIPE, env=env, timeout=300,
            )
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (EXIT_BROKEN_PIPE, b"")
        load_run(RunPaths(str(clone)), command)  # the stage is done and verifies

    @pytest.mark.parametrize("argv", [["--help"], ["explain", "--help"]], ids=["piece", "explain"])
    def test_help_to_closed_stdout_exits_141(self, argv):
        # argparse prints the help into the block-buffered stdout and exits
        # from inside `parse_args`; it used to exit 120 with a BrokenPipeError
        # report from the interpreter's flush at exit
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(piece.__file__))
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "piece.cli", *argv], stdout=write,
                                  stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (EXIT_BROKEN_PIPE, b"")


class TestConfigHoles:
    def test_dropout_of_one_refused_before_training(self, tmp_path, capsys, monkeypatch):
        # it used to end train in a DimensionError traceback
        cfg_path = tmp_path / "mini.ini"
        cfg_path.write_text(MINI_CONFIG)
        run_dir = tmp_path / "run"
        assert main(["datagen", "--run-dir", str(run_dir), "--config", str(cfg_path)]) == 0
        ini = configparser.ConfigParser()
        ini.read(run_dir / "config.ini")
        ini["classifier"]["dropout"] = "1.0"
        with open(run_dir / "config.ini", "w") as fh:
            ini.write(fh)
        capsys.readouterr()
        monkeypatch.setattr(nc, "worker_count", lambda: 1)
        assert main(["train", "--run-dir", str(run_dir)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: [classifier] dropout must be in [0, 1), got 1.0"]
        assert not (run_dir / "models").exists()  # no model was written

    @pytest.mark.parametrize(
        "section,key,value,code,named",
        [
            ("classifier", "min_accuracy", "1e9", 1, "classifier"),
            ("generator", "recon_mse_target", "0", 1, "generator"),
            # an autoencoder's target only stops its fit early: every epoch runs
            ("autoencoders", "recon_mse_target", "0", 0, None),
        ],
    )
    def test_unreachable_fit_target(self, tmp_path, capsys, monkeypatch, section, key, value,
                                    code, named):
        # a serial train stops at its first failed fit (in `fit_names` order:
        # generator, ae_full, classifier, then the class autoencoders) and
        # saves no model
        import piece.cli

        fits = []

        def counted(name, **kwargs):
            fits.append(name)
            return fit(name, **kwargs)

        monkeypatch.setattr(piece.cli, "fit", counted)
        cfg_path = tmp_path / "mini.ini"
        cfg_path.write_text(MINI_CONFIG)
        run_dir = tmp_path / "run"
        assert main(["datagen", "--run-dir", str(run_dir), "--config", str(cfg_path)]) == 0
        ini = configparser.ConfigParser()
        ini.read(run_dir / "config.ini")
        ini[section][key] = value
        with open(run_dir / "config.ini", "w") as fh:
            ini.write(fh)
        capsys.readouterr()
        monkeypatch.setattr(nc, "worker_count", lambda: 1)
        assert main(["train", "--run-dir", str(run_dir)]) == code
        err = capsys.readouterr().err.strip().splitlines()
        done = (run_dir / "stages" / "train.json").exists()
        assert len(fits) == {"generator": 1, "classifier": 3, None: 7}[named]
        if code:
            assert len(err) == 1 and err[0].startswith(f"error: {named} "), err
            assert not done and not (run_dir / "models").exists()
        else:
            assert err == [] and done
            for name in ("ae_class_0", "ae_class_1", "ae_class_2", "ae_class_3", "ae_full"):
                assert (run_dir / "models" / f"{name}.json").exists()


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
        # an experiment's last write is its record, stages/experiment-1.json
        import shutil

        from piece.runcfg import RunPaths

        clone = tmp_path / "half"
        shutil.copytree(mini_run, clone)
        expt1 = ["experiment", "--run-dir", str(clone), "--expt", "1"]
        record = clone / "stages" / "experiment-1.json"
        if not record.exists():
            assert main(expt1) in (0, 5)
        before = record.read_bytes()
        record.unlink()  # as if the run stopped before its record
        assert not RunPaths(str(clone)).done("experiment 1")
        assert main(expt1) in (0, 5)  # not refused without --force
        assert record.read_bytes() == before

    @pytest.mark.parametrize(
        "stage,expt",
        [("select_cf_class_stack", 1), ("select_cf_class_stack", 2), ("visualize", 1),
         ("visualize", 2)],
        ids=["1", "2", "visualize-1", "visualize-2"],
    )
    def test_unprepared_image_fails_every_row(
        self, mini_run, tmp_path, monkeypatch, capsys, stage, expt
    ):
        # PIECE fails on every image, in class selection or in visualization
        import csv
        import os
        import shutil

        from piece import pipeline as pl

        error = {
            "select_cf_class_stack": pl.SelectionError, "visualize": pl.VisualizationError
        }[stage]

        def unprepared(*args, **kwargs):
            raise error(f"{stage} failed")

        clone = tmp_path / "unprepared"
        shutil.copytree(mini_run, clone)
        monkeypatch.setattr(pl, stage, unprepared)
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
            # no PIECE result: c is the prediction and c' is -1
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

    def test_diverged_proportional_rendering_fails_only_its_rows(
        self, mini_run, tmp_path, monkeypatch
    ):
        # the first proportional rendering's start latent turns non-finite:
        # that budget's PIECE row and its distance-matched rows (which have
        # no distance to match) fail, and every other row stays as it was
        import csv
        import shutil

        import numpy as np

        from piece import experiments as ex
        from piece import pipeline as pl

        def expt2(name, patched):
            clone = tmp_path / name
            shutil.copytree(mini_run, clone)
            with monkeypatch.context() as m:
                # one shard: "the first proportional rendering" is this process's
                m.setattr(nc, "worker_count", lambda: 1)
                if patched:
                    explain_images, visualize = ex._explain_images, pl.visualize
                    armed = []

                    def explained(*args, **kwargs):
                        out = explain_images(*args, **kwargs)
                        armed.append(True)  # the max-edit renderings are done
                        return out

                    def diverging(classifier, generator, targets, starts, *rest):
                        if armed == [True]:
                            armed.append(False)
                            starts = np.array(starts, dtype=float)
                            starts.reshape(-1, starts.shape[-1])[0] = np.nan
                        return visualize(classifier, generator, targets, starts, *rest)

                    m.setattr(ex, "_explain_images", explained)
                    m.setattr(pl, "visualize", diverging)
                # the failure used to end the experiment with exit 1
                assert main(["experiment", "--run-dir", str(clone), "--expt", "2",
                             "--force"]) == 0

            def read(report):
                return list(csv.DictReader(open(clone / "reports" / report)))

            return {r: read(r) for r in (
                "expt2_maxedit.csv", "expt2_distance_matched.csv", "expt2_profile.csv"
            )}

        base = expt2("base", False)
        got = expt2("diverged", True)
        assert got["expt2_maxedit.csv"] == base["expt2_maxedit.csv"]
        changed = set()
        for report in ("expt2_distance_matched.csv", "expt2_profile.csv"):
            assert len(got[report]) == len(base[report])
            for new, old in zip(got[report], base[report]):
                if new != old:
                    changed.add((new["image_id"], new["fraction"]))
                    assert new["verified"] == "false"
                    assert new.get("failed", "true") == "true"
                    assert new.get("target_distance", "NA") == "NA"
        assert len(changed) == 1
        matched = [r for r in got["expt2_distance_matched.csv"]
                   if (r["image_id"], r["fraction"]) in changed]
        assert sorted(r["method"] for r in matched) == ["c_min_edit", "min_edit", "piece"]
        assert all(r["failed"] == "true" for r in matched)

    def test_selection_overflow_fails_only_that_image(self, mini_run, tmp_path, monkeypatch):
        import csv
        import os
        import shutil

        from piece import netcore as nc
        from piece import pipeline as pl

        select = pl.select_cf_class_stack

        def overflow_first(*args, **kwargs):
            # the selection of the first image of the stack overflows
            results = select(*args, **kwargs)
            results[0] = nc.NumericsError("non-finite values after layer 2 (dense)")
            return results

        clone = tmp_path / "overflow"
        shutil.copytree(mini_run, clone)
        monkeypatch.setattr(pl, "select_cf_class_stack", overflow_first)
        assert main(["experiment", "--run-dir", str(clone), "--expt", "1", "--force"]) in (0, 5)
        rows = list(csv.DictReader(open(os.path.join(clone, "reports", "expt1_rows.csv"))))
        first = next(csv.DictReader(open(os.path.join(clone, "reports", "expt1_testset.csv"))))
        mine = [r for r in rows if r["image_id"] == first["image_id"]]
        assert len(mine) == 3 and all(
            r["failed"] == "true" and r["c_prime"] == "-1" for r in mine
        )
        assert any(r["failed"] == "false" for r in rows if r not in mine)

    def test_metric_error_exits_1(self, mini_run, tmp_path, monkeypatch, capsys):
        # on a clone: a forced experiment that fails leaves it not done
        import shutil

        from piece import evalx
        from piece import experiments as ex

        def broken(arts, paths):
            raise evalx.MetricError("k=3 invalid for 2 training points")

        clone = tmp_path / "metric_error"
        shutil.copytree(mini_run, clone)
        monkeypatch.setattr(ex, "run_experiment1", broken)
        capsys.readouterr()
        assert main(["experiment", "--run-dir", str(clone), "--expt", "1", "--force"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: k=3 invalid for 2 training points"]

    def test_experiment1_reads_lambda_sweep(self, mini_run, tmp_path, monkeypatch):
        # the baseline runs read the other fields (test_baselines.py)
        import shutil

        from helpers import watched
        from piece import experiments as ex

        clone = tmp_path / "watched"
        shutil.copytree(mini_run, clone)
        run, seen = ex.run_experiment1, {}

        def watching(arts, paths):
            arts.config.baselines, seen["reads"] = watched(arts.config.baselines)
            return run(arts, paths)

        monkeypatch.setattr(ex, "run_experiment1", watching)
        assert main(["experiment", "--run-dir", str(clone), "--expt", "1", "--force"]) in (0, 5)
        assert "lam_sweep" in seen["reads"]

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


def no_child_left() -> None:
    """No child process of this one is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestShardedExperiments:
    """`piece experiment` runs its images as `nc.worker_count()` shards: the
    first in this process, each other one in a forked child that only
    computes and sends its results back; this process writes every file."""

    @pytest.fixture(autouse=True)
    def no_child_outlives_a_case(self):
        yield
        no_child_left()

    @pytest.fixture(scope="class")
    def sharded(self, mini_run, tmp_path_factory):
        """expt1, then expt2, on one shard and on two, each from a copy of
        mini_run's first three stages; the forks of each, and the processes
        that opened a file of the run directory to write it."""
        import builtins

        out = {}
        for workers in (1, 2):
            run_dir = prepared_clone(
                pathlib.Path(mini_run), tmp_path_factory.mktemp(f"shards{workers}"))
            log = run_dir.parent / "writers.log"
            forks: list = []
            with pytest.MonkeyPatch.context() as mp:
                fork, real_open = os.fork, builtins.open

                def counted():
                    forks.append(os.getpid())
                    return fork()

                def logged(file, mode="r", *args, **kwargs):
                    if str(file).startswith(str(run_dir)) and set(mode) & set("wax+"):
                        with real_open(log, "a") as fh:  # a file outside the run
                            fh.write(f"{os.getpid()}\n")
                    return real_open(file, mode, *args, **kwargs)

                mp.setattr(os, "fork", counted)
                mp.setattr(builtins, "open", logged)
                mp.setattr(nc, "worker_count", lambda: workers)
                for expt in ("1", "2"):
                    rc = main(["experiment", "--run-dir", str(run_dir), "--expt", expt])
                    assert rc in (0, 5)
            out[workers] = run_dir, forks, set(log.read_text().split())
        return out

    def test_one_or_two_shards_write_the_same_run_directory(self, sharded):
        one, two = sharded[1][0], sharded[2][0]
        files = run_files(one, ".")
        assert files == run_files(two, ".")
        assert {"stages/experiment-1.json", "stages/experiment-2.json"} <= set(files)
        assert any(name.startswith("inversions/") for name in files)  # made in the shards
        assert [len(sharded[w][1]) for w in (1, 2)] == [0, 2]  # one child per experiment

    def test_only_this_process_writes(self, sharded):
        for workers in (1, 2):
            assert sharded[workers][2] == {str(os.getpid())}

    @staticmethod
    def fail_at_last_image(monkeypatch, tmp_path, run_dir, failure) -> int:
        """Make `failure(image_id)` run where experiment 1 builds the rows
        of its last image, which the last shard explains; its image id."""
        from piece import experiments as ex

        last = ex.compose_test_set(load_run(RunPaths(str(run_dir))))[-1].image_id
        row = ex._row

        def failing(arts, body, case, *args, **kwargs):
            if case.image_id == last:
                (tmp_path / "failed_in").write_text(str(os.getpid()))
                failure(case.image_id)
            return row(arts, body, case, *args, **kwargs)

        monkeypatch.setattr(ex, "_row", failing)
        return last

    @pytest.mark.parametrize("workers", [1, 2])
    def test_error_of_the_last_shard_is_the_commands(self, mini_run, tmp_path, monkeypatch,
                                                      capsys, workers):
        from piece.evalx import MetricError

        def raise_metric_error(image_id):
            raise MetricError(f"no metric for image {image_id}")

        run_dir = prepared_clone(pathlib.Path(mini_run), tmp_path / "run")
        last = self.fail_at_last_image(monkeypatch, tmp_path, run_dir, raise_metric_error)
        monkeypatch.setattr(nc, "worker_count", lambda: workers)
        before = run_files(run_dir, ".")
        capsys.readouterr()
        rc = main(["experiment", "--run-dir", str(run_dir), "--expt", "1"])
        err = capsys.readouterr().err.splitlines()
        assert (rc, err) == (1, [f"error: no metric for image {last}"])
        # raised in the child on two workers; nothing was written, not even
        # the inversions the shards made
        in_child = (tmp_path / "failed_in").read_text() != str(os.getpid())
        assert in_child == (workers == 2)
        assert run_files(run_dir, ".") == before
        assert not RunPaths(str(run_dir)).done("experiment 1")

    def test_dead_shard_exits_1(self, mini_run, tmp_path, monkeypatch, capsys):
        run_dir = prepared_clone(pathlib.Path(mini_run), tmp_path / "run")
        self.fail_at_last_image(monkeypatch, tmp_path, run_dir, lambda _: os._exit(3))
        monkeypatch.setattr(nc, "worker_count", lambda: 2)
        before = run_files(run_dir, ".")
        capsys.readouterr()
        rc = main(["experiment", "--run-dir", str(run_dir), "--expt", "1"])
        err = capsys.readouterr().err.splitlines()
        assert (rc, err) == (
            1, ["error: experiment shard 2 of 2 ended without its results (exit code 3)"]
        )
        assert run_files(run_dir, ".") == before
        assert not RunPaths(str(run_dir)).done("experiment 1")
