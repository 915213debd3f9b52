"""Benchmark of the PIECE command line: set-up, one workload, checked outputs.

    python3 perfbench/run.py --workload explain-single --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. Each run builds a fresh run
directory (datagen, train, fit-stats on the default config, then
`load_run`), runs the workload against it, checks the outputs apart from
the program, and prints one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
program's public functions are wrapped in spans and the metrics are the
per-layer ones. The program runs in child processes with one BLAS thread.
A result file with the host facts goes to `.perfbench/results/`. See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("explain-single", "expt1-counterfactual")
DEADLINE_S = 175.0
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunFailed(Exception):
    pass


def steal_ticks() -> int:
    """CPU ticks stolen from this machine by its host, from /proc/stat."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return -1


def run_phase(argv: list, log_path: str, deadline: float) -> dict:
    """Run phase.py in a child process with one BLAS thread; return its JSON."""
    out_path = log_path.replace(".log", ".json")
    env = dict(os.environ, **ONE_THREAD)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "phase.py"), *argv, "--out", out_path]
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, env=env)
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise RunFailed(f"{argv[0]} did not finish in time; see {log_path}")
        finally:
            # also on SIGTERM (see main): no child outlives the run
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if rc != 0:
        with open(log_path, "r", encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise RunFailed(f"{argv[0]} exited {rc}:\n{tail}")
    with open(out_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def program_digest() -> str:
    """Hash of the program's sources, so that only runs of one program meet."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "piece")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read() + b"\0")
    return h.hexdigest()[:16]


def check_ledger(key: str, hashes: dict) -> list:
    """Compare output hashes with earlier runs of the same program and inputs.

    Set-up and the experiments always run the default config, so one
    program must give byte-identical files in all its runs. An explain
    record depends on its request alone, so records are keyed by request.
    The ledger is keyed by the program's source digest: another version of
    the program may round differently and is checked by refcheck alone.
    """
    key = f"{program_digest()}/{key}"
    path = os.path.join(STATE, "ledger.json")
    ledger = {}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            ledger = json.load(fh)
    known = ledger.setdefault(key, {})
    problems = [
        f"{name} differs from an earlier run of the same program ({key})"
        for name, digest in sorted(hashes.items())
        if known.get(name, digest) != digest
    ]
    known.update({k: v for k, v in hashes.items() if k not in known})
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)
    return problems


def end_to_end(setup: dict, meas: dict) -> dict:
    return {
        "setup_s": {"value": setup["setup_s"], "unit": "s"},
        "wall_s": {"value": meas["wall_s"], "unit": "s"},
        "latency_p50_ms": {"value": meas["latency_p50_ms"], "unit": "ms"},
        "latency_p90_ms": {"value": meas["latency_p90_ms"], "unit": "ms"},
        "peak_rss_mb": {"value": meas["rss_mb"], "unit": "MB"},
    }


def per_layer(setup: dict, meas: dict) -> dict:
    sys.path.insert(0, HERE)
    import spans

    totals = spans.merge([setup["trace"], meas["trace"]])
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in spans.layer_metrics(totals).items()}
    metrics["trace.wall_s"] = {"value": meas["wall_s"], "unit": "s"}
    return metrics


def untraced_wall(workload: str, seed: int) -> list:
    """wall_s of earlier untraced runs of the same workload and seed."""
    d = os.path.join(STATE, "results")
    out = []
    for name in os.listdir(d):
        if name.startswith(f"{workload}-seed{seed}-trace0-"):
            with open(os.path.join(d, name), "r", encoding="utf-8") as fh:
                out.append(json.load(fh)["metrics"]["wall_s"]["value"])
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="recorded only: each workload measures a fixed amount of work")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "piece", "cli.py")):
        print(f"error: no piece sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    work = os.path.join(STATE, "work", tag)
    os.makedirs(work)
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    run_dir = os.path.join(work, "run")
    common = ["--run-dir", run_dir, "--seed", str(args.seed), "--trace", str(args.trace)]
    steal0 = steal_ticks()
    try:
        setup = run_phase(["setup", *common], os.path.join(work, "setup.log"), deadline)
        meas = run_phase(
            ["measure", *common, "--workload", args.workload],
            os.path.join(work, "measure.log"),
            deadline,
        )
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    steal1 = steal_ticks()

    problems = list(meas["run_problems"])
    problems += check_ledger("setup", setup["hashes"])
    if args.workload == "explain-single":
        problems += check_ledger("explain-single", meas["record_hashes"])
    else:
        problems += check_ledger(args.workload, meas["report_hashes"])
    metrics = per_layer(setup, meas) if args.trace else end_to_end(setup, meas)
    result = {
        "correct": not problems,
        "attempted": int(meas["attempted"]),
        "failed": int(meas["failed"]),
        "metrics": metrics,
    }

    facts = dict(meas["host"], nproc=os.cpu_count(), steal_ticks=steal1 - steal0)
    record = {
        "args": vars(args),
        **result,
        "problems": problems,
        "failures": meas["failures"],
        "setup_stages_s": setup["stages"],
        "cpu_s": {"setup": setup["cpu_s"], "measure": meas["cpu_s"]},
        "requests": meas["requests"],
        "host": facts,
    }
    if args.trace:
        earlier = untraced_wall(args.workload, args.seed)
        if earlier:
            record["trace_overhead_s"] = meas["wall_s"] - sorted(earlier)[len(earlier) // 2]
        spans_dir = os.path.join(STATE, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        for phase in ("setup", "measure"):
            shutil.copy(
                os.path.join(work, f"{phase}.spans.json"),
                os.path.join(spans_dir, f"{args.workload}-seed{args.seed}-{phase}.json"),
            )
    with open(os.path.join(STATE, "results", tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    shutil.rmtree(work)
    for line in problems + [f"{k}: {'; '.join(v)}" for k, v in meas["failures"].items()]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
