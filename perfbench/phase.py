"""One phase of a benchmark run, in a process of its own.

    python3 perfbench/phase.py setup   --run-dir D --seed S --trace T --out F
    python3 perfbench/phase.py measure --run-dir D --seed S --trace T --out F
                                       --workload W

`setup` builds a fresh run directory with datagen, train and fit-stats on
the default config and loads it back with `load_run`. `measure` runs one
workload against that directory, then checks its outputs with `refcheck`.
Each phase has its own process so that the peak resident memory of the
measured phase excludes set-up. Both write one JSON document to `--out`.
`run.py` starts them with one BLAS thread; this file is not meant to be
started by hand.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import refcheck  # noqa: E402
import spans  # noqa: E402
from piece import cli, runcfg  # noqa: E402
from run import WORKLOADS  # noqa: E402

# 20 correct images, asked in all three modes, make 100 requests in all (see
# request_mix), so that ten requests lie beyond the 90th percentile
POOL_PER_CLASS = 5


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def hashes(root: str, subdir: str, suffix: str, prefix: str = "") -> dict:
    d = os.path.join(root, subdir)
    return {
        f"{subdir}/{n}": sha256(os.path.join(d, n))
        for n in sorted(os.listdir(d))
        if n.endswith(suffix) and n.startswith(prefix)
    }


def host_facts() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Set-up


def setup(args) -> dict:
    rd = args.run_dir
    stages = {}
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        for stage in ("datagen", "train", "fit-stats"):
            t = time.perf_counter()
            rc = cli.main([stage, "--run-dir", rd])
            stages[stage] = time.perf_counter() - t
            if rc != 0:
                raise SystemExit(f"set-up stage {stage} exited {rc}")
        t = time.perf_counter()
        runcfg.load_run(runcfg.RunPaths(rd))
        stages["load_run"] = time.perf_counter() - t
    setup_s = time.perf_counter() - start
    return {
        "setup_s": setup_s,
        "stages": stages,
        "hashes": {**hashes(rd, "models", ".json"), **hashes(rd, "stats", ".json")},
    }


# ---------------------------------------------------------------------------
# explain-single


def request_mix(view: refcheck.RunView, seed: int, threshold: float) -> list:
    """The run's 100 requests, each kind a fifth of them.

    The first POOL_PER_CLASS confidently correct test images of each class
    (so every class is asked) are each asked for cf, sf and prop; the seed
    gives each image its prop fraction, every fraction equally often.
    Another fifth asks seeded close-correct images for cf, and the last
    fifth the misclassified images, whose cf takes the trivial
    class-selection branch. Every run asks the same images in the same
    modes, so the seed moves the figures only through the prop fractions,
    the close-correct draws and the order. Equal shares keep the median and
    the 90th percentile inside one kind's cluster of request times, not on
    the gap between two. Semi-factuals are asked only of correct images,
    the population experiment 2 draws its semi-factuals from.
    """
    probs = view.test_probs()
    pred = np.argmax(probs, axis=1)
    conf = np.max(probs, axis=1)
    ok = pred == view.test_labels
    correct = []
    for cls in np.unique(view.test_labels):
        ids = np.flatnonzero(ok & (conf >= threshold) & (view.test_labels == cls))
        correct += [int(i) for i in ids[:POOL_PER_CLASS]]
    close = [int(i) for i in np.flatnonzero(ok & (conf < threshold))]
    wrong = [int(i) for i in np.flatnonzero(~ok)]
    share = len(correct)
    rng = random.Random(seed)
    fractions = [refcheck.FRACTIONS[k % len(refcheck.FRACTIONS)] for k in range(share)]
    rng.shuffle(fractions)
    requests = [(i, "cf", None) for i in correct]
    requests += [(i, "sf", None) for i in correct]
    requests += [(i, "prop", f) for i, f in zip(correct, fractions)]
    requests += [(rng.choice(close), "cf", None) for _ in range(share)]
    requests += [(rng.choice(wrong), "cf", None) for _ in range(share)]
    rng.shuffle(requests)
    return requests


MODE_NAMES = {"cf": "counterfactual", "sf": "semifactual", "prop": "proportional"}


def explain_single(args, view) -> dict:
    rd = args.run_dir
    ini = configparser.ConfigParser()
    ini.read(os.path.join(rd, "config.ini"))
    requests = request_mix(view, args.seed, ini.getfloat("experiment", "close_correct_max_prob"))
    outdir = os.path.join(rd, "explanations", "single")
    timings = []
    failures = {}
    run_problems = []
    seen = {}
    sink = io.StringIO()
    for index, mode, fraction in requests:
        record = os.path.join(outdir, f"{mode}_{index:04d}.json")
        if os.path.exists(record):
            os.remove(record)
        argv = ["explain", "--run-dir", rd, "--index", str(index), "--mode", mode]
        if fraction is not None:
            argv += ["--fraction", str(fraction)]
        with contextlib.redirect_stdout(sink):
            t = time.perf_counter()
            rc = cli.main(argv)
            timings.append((index, mode, fraction, time.perf_counter() - t))
        sink.seek(0)
        sink.truncate()
        label = f"request {len(timings)}: image {index} {mode} {fraction or ''}".strip()
        if rc != 0:
            failures[label] = [f"exited {rc}"]
            continue
        doc = refcheck.load_record(record)
        bad = refcheck.check_record(view, doc, index, MODE_NAMES[mode], fraction)
        if bad:
            failures[label] = bad
        digest = sha256(record)
        if seen.setdefault((index, mode, fraction), digest) != digest:
            run_problems.append(f"{label}: record differs from the same earlier request")
    ms = sorted(1000.0 * t[3] for t in timings)
    return {
        "wall_s": sum(t[3] for t in timings),
        "latency_p50_ms": statistics.median(ms),
        "latency_p90_ms": ms[math.ceil(0.9 * len(ms)) - 1],
        "requests": timings,
        "attempted": len(ms),
        "failed": len(failures),
        "failures": failures,
        "run_problems": run_problems,
        "record_hashes": {f"{k[0]}/{k[1]}/{k[2]}": v for k, v in sorted(seen.items(), key=str)},
    }


# ---------------------------------------------------------------------------
# Experiments


def experiment1(args, view, tracer) -> dict:
    """`piece experiment --expt 1`; its one request is the whole command."""
    rd = args.run_dir
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        t = time.perf_counter()
        rc = cli.main(["experiment", "--run-dir", rd, "--expt", "1"])
        wall = time.perf_counter() - t
    out = {"wall_s": wall, "latency_p50_ms": 1000 * wall, "latency_p90_ms": 1000 * wall,
           "requests": [("expt1", None, None, wall)], "rss_mb": peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
    if rc != 0:
        testset = os.path.join(rd, "reports", "expt1_testset.csv")
        rows = 3 * len(refcheck.read_csv(testset)) if os.path.exists(testset) else 3
        return {**out, "attempted": rows, "failed": rows, "run_problems": [],
                "failures": {"expt1": [f"exited {rc}"]}, "report_hashes": {}}
    attempted, failures, run_problems = refcheck.check_expt1(view)
    return {
        **out,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "run_problems": run_problems,
        "report_hashes": hashes(rd, "reports", ".csv", "expt1_"),
    }


def measure(args, tracer) -> dict:
    view = refcheck.RunView.load(args.run_dir)
    if tracer is not None:
        tracer.install()
    if args.workload == "explain-single":
        out = explain_single(args, view)
        out["rss_mb"] = peak_rss_mb()
    else:
        out = experiment1(args, view, tracer)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("phase", choices=("setup", "measure"))
    p.add_argument("--run-dir", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--workload", choices=WORKLOADS)
    args = p.parse_args(argv)
    tracer = spans.Tracer() if args.trace else None
    if args.phase == "setup":
        if tracer is not None:
            tracer.install()
        out = setup(args)
    else:
        out = measure(args, tracer)
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.totals()
        tracer.write_spans(args.out.replace(".json", ".spans.json"))
    out["host"] = host_facts()
    out["cpu_s"] = time.process_time()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
