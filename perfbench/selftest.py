"""Self-test of the benchmark's checks on a small config (a few seconds).

    python3 perfbench/selftest.py

Builds a small run directory, explains one image in each mode and runs
experiment 1 on it, and shows that every check in `refcheck` accepts the
program's real outputs and rejects each kind of corruption: a flipped
`verified` flag, a counterfactual that is honestly reported as not
verified, an altered `x_mod` entry, a wrong `applied_count`, and edited
values in experiment 1's report CSVs. Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import refcheck  # noqa: E402
from piece import cli  # noqa: E402

SMALL_CONFIG = """\
[dataset]
n_train_per_class = 60
n_test_per_class = 25

[classifier]
epochs = 40
min_accuracy = 0.5

[generator]
epochs = 80
recon_mse_target = 0.05

[autoencoders]
epochs = 20

[pipeline]
invert_restarts = 2
invert_steps = 150
ascent_max_steps = 600
visualize_steps = 80

[baselines]
max_steps = 300
lambda_sweep = 10,30

[experiment]
n_correct = 3
n_close_correct = 2
n_semifactual = 2
max_failure_fraction = 1.0

[metrics]
mc_passes = 10
"""

failures = []


def expect(name: str, problems, want_problems: bool) -> None:
    ok = bool(problems) == want_problems
    verdict = "PASS" if ok else "FAIL"
    detail = "" if ok else f": {problems or 'no problem reported'}"
    print(f"{verdict} {name}{detail}")
    if not ok:
        failures.append(name)


def edit_csv(path: str, column: str, row_filter, change) -> bytes:
    """Change one cell of a report; returns the original bytes."""
    original = open(path, "rb").read()
    rows = refcheck.read_csv(path)
    target = next(r for r in rows if row_filter(r))
    lines = original.decode("utf-8").splitlines()
    header = lines[0].split(",")
    i = rows.index(target) + 1
    cells = lines[i].split(",")
    cells[header.index(column)] = change(cells[header.index(column)])
    lines[i] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return original


def main() -> int:
    work = os.path.join(ROOT, ".perfbench", "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ini = os.path.join(work, "small.ini")
    with open(ini, "w", encoding="utf-8") as fh:
        fh.write(SMALL_CONFIG)
    rd = os.path.join(work, "run")
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["datagen", "--config", ini], ["train"], ["fit-stats"]):
            if cli.main([argv[0], "--run-dir", rd, *argv[1:]]) != 0:
                print(f"FAIL set-up stage {argv[0]}")
                return 1
    view = refcheck.RunView.load(rd)
    probs = view.test_probs()
    index = int(np.flatnonzero(np.argmax(probs, axis=1) == view.test_labels)[0])

    records = {}
    for mode, fraction in (("cf", None), ("sf", None), ("prop", 0.5)):
        argv = ["explain", "--run-dir", rd, "--index", str(index), "--mode", mode]
        if fraction is not None:
            argv += ["--fraction", str(fraction)]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            print(f"FAIL explain {mode} exited {rc}")
            return 1
        path = os.path.join(rd, "explanations", "single", f"{mode}_{index:04d}.json")
        doc = refcheck.load_record(path)
        mode_name = {"cf": "counterfactual", "sf": "semifactual", "prop": "proportional"}[mode]
        expect(f"explain {mode}: real record accepted",
               refcheck.check_record(view, doc, index, mode_name, fraction), False)
        records[mode] = (doc, fraction, mode_name)

    doc, fraction, mode_name = records["cf"]
    flipped = dict(doc, verified=not doc["verified"])
    expect("explain cf: flipped verified rejected",
           refcheck.check_record(view, flipped, index, mode_name, fraction), True)
    # the semi-factual's latent renders in class c, so `verified: false` is
    # the truth for it: the record is consistent, but delivers no counterfactual
    undelivered = dict(doc, z_prime=records["sf"][0]["z_prime"], verified=False)
    pred, _ = view.classify(view.render(np.asarray(undelivered["z_prime"])))
    if pred == doc["c_prime"]:
        print("FAIL the semi-factual's rendering is in class c'; no undelivered case to test")
        failures.append("undelivered counterfactual")
    else:
        expect("explain cf: undelivered counterfactual rejected",
               refcheck.check_record(view, undelivered, index, mode_name, fraction), True)
    x_mod = list(doc["x_mod"])
    x_mod[0] += 0.5
    expect("explain cf: altered x_mod entry rejected",
           refcheck.check_record(view, dict(doc, x_mod=x_mod), index, mode_name, fraction), True)
    doc, fraction, mode_name = records["prop"]
    wrong = dict(doc, applied_count=doc["applied_count"] + 1)
    expect("explain prop: wrong applied_count rejected",
           refcheck.check_record(view, wrong, index, mode_name, fraction), True)

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["experiment", "--run-dir", rd, "--expt", "1"])
    if rc:
        print(f"FAIL experiment 1 exited {rc}")
        return 1

    def expt1_problems():
        _, rows, run = refcheck.check_expt1(view)
        return sorted(rows) + run

    reports = os.path.join(rd, "reports")
    expect("expt1: real reports accepted", expt1_problems(), False)
    path = os.path.join(reports, "expt1_rows.csv")
    original = edit_csv(path, "nn_dist", lambda r: r["method"] == "piece" and not r["failed"],
                        lambda v: repr(float(v) * 1.01))
    expect("expt1: edited nn_dist rejected", expt1_problems(), True)
    open(path, "wb").write(original)
    path = os.path.join(reports, "expt1_substitutability.csv")
    original = edit_csv(path, "accuracy", lambda r: r["k"] == "1",
                        lambda v: repr(float(v) + 0.1))
    expect("expt1: edited 1-NN accuracy rejected", expt1_problems(), True)
    open(path, "wb").write(original)

    shutil.rmtree(work)
    print("selftest:", "FAILED " + ", ".join(failures) if failures else "all checks behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
