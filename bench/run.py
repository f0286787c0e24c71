"""corrml benchmark: the README walkthrough workloads run through the CLI.

    python3 bench/run.py --workload forward-gp|inverse|compare --seed N \
        --seconds S --trace 0|1

Run from a source checkout; the program is imported from its ``src/``. Set-up
generates the workload's input CSVs from the seed. A run then repeats whole
rounds (ingest, train, apply) until ``--seconds`` have passed, each command a
fresh ``python -m corrml.cli`` process with the program's default threading,
and checks every round's outputs. ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` warms the process up untimed, then runs each round
in-process twice, untraced and traced, and reports per-layer metrics and the
tracing overhead. The last line of
standard output is the result as one JSON object.

This process stays small until the last command has run (no numpy, no
hashlib; checks and hashing run in a child): a child's peak RSS as ``wait4``
reports it is at least its parent's peak RSS at the time of the spawn, so a
large parent would hide the children's figures.
"""

import argparse
import filecmp
import json
import os
import shutil
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0  # a command still running past this is killed and counted failed
THREAD_VARS = ("CORRML_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

INGEST = ["ingest", "--input", "in/data.csv", "--out", "out/ds"]
DATASET = "out/ds/dataset.json"
# Each round runs the apply command `apply_repeats` times: the repeats must
# write byte-identical outputs, and `total_s` and `apply_peak_rss_mb` take
# their median.
WORKLOADS = {
    # GP only: NLML value+grad over 200 epochs, Cholesky, the workspace
    # rebuilt on model load. No trees run.
    "forward-gp": {
        "train": ["train-forward", "--dataset", DATASET, "--model", "loggpr",
                  "--out", "out/train"],
        "apply": ["predict", "--model", "out/train/model.json", "--direction", "forward",
                  "--input", "in/data.csv", "--out", "out/apply"],
        "apply_repeats": 3,
        "artifacts": ["out/train/model.json"],
    },
    # trees and model I/O only: 7,200 fit_tree calls and an ~83 MB model
    # written and parsed. No GP runs.
    "inverse": {
        "train": ["train-inverse", "--dataset", DATASET, "--out", "out/train"],
        "apply": ["predict", "--model", "out/train/ensemble.json", "--direction", "inverse",
                  "--input", "in/queries.csv", "--out", "out/apply"],
        "apply_repeats": 2,
        "artifacts": ["out/train/ensemble.json"],
    },
    # all four families: deep forest trees over 32-41 features, a single-leaf
    # Matern GP on two feature sets, and the only use of neural/optim
    "compare": {
        "train": ["compare-forward", "--dataset", DATASET, "--out", "out/train"],
        "apply": ["report", "--metrics", "out/train/compare_metrics.csv",
                  "--pairs", "out/train/compare_pairs.csv", "--out", "out/apply"],
        "apply_repeats": 3,
        "artifacts": ["out/train/compare_metrics.csv", "out/train/compare_pairs.csv"],
    },
}


def declared_units(key):
    """name -> unit of the metrics BENCHMARK.json declares under `key`."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


class Run:
    """Operation counts and failure reasons of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.check_failed = False
        self.reasons = []

    def record(self, what, reason, is_check):
        self.attempted += 1
        if reason is None:
            return
        self.failed += 1
        self.check_failed |= is_check
        self.reasons.append(f"{what}: {reason}")
        print(f"FAILED {what}: {reason}", file=sys.stderr)


def median(values):
    """The statistics module's median; that module is too heavy to import here."""
    v = sorted(values)
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else (v[mid - 1] + v[mid]) / 2


def machine(load_start):
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg_start": load_start, "loadavg_end": list(os.getloadavg()),
    }


def run_process(argv, cwd, env, deadline, stdout=subprocess.DEVNULL):
    """(wall seconds, CPU seconds, exit code, peak RSS MB, stdout) of one child
    process, reaped with wait4 so its own rusage is read: CPU seconds are its
    user + system time, over all its threads. Killed at the run's deadline."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=stdout)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    try:
        out = None
        if proc.stdout:
            with proc.stdout:
                out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, proc.returncode, usage.ru_maxrss / 1024.0, out


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def set_up(workload, seed, work, env, deadline, repeats):
    """Generate the inputs `repeats` times; (median CPU seconds, median wall
    seconds). The last generation's files are the ones the run uses."""
    cpus, walls = [], []
    for _ in range(repeats):
        shutil.rmtree(os.path.join(work, "in"), ignore_errors=True)
        wall, cpu, code, _, _ = run_process(
            [sys.executable, os.path.join(BENCH, "inputs.py"), "--workload", workload,
             "--seed", str(seed), "--out", "in"], work, env, deadline)
        if code != 0:
            raise SystemExit(f"input generation failed with exit code {code}")
        cpus.append(cpu)
        walls.append(wall)
    return median(cpus), median(walls)


def same_files(first, again):
    """None when two output directories hold the same files, byte for byte."""
    names = sorted(os.listdir(first))
    if names != sorted(os.listdir(again)):
        return f"{again} holds other files than the first repeat"
    _, mismatch, errors = filecmp.cmpfiles(first, again, names, shallow=False)
    bad = mismatch + errors
    return f"{again}/{bad[0]} differs between repeats" if bad else None


def diff_hashes(a, b):
    if a.keys() != b.keys():
        return f"output files differ: {sorted(a.keys() ^ b.keys())}"
    return next((f"{k} differs between identical runs" for k in sorted(a) if a[k] != b[k]),
                None)


class Determinism:
    """Every round of every run of one checkout must produce byte-identical
    output files when the workload, seed, mode, thread setting and code are
    the same. The record of the first such round is kept under
    `.bench_work/hashes/`, keyed by all five: the BLAS thread count changes
    rounding, the traced mode runs in-process, and a change to the program,
    the benchmark or the numeric libraries may change output bytes
    legitimately (the digest of those comes from the checker)."""

    def __init__(self, workload, seed, mode):
        threads = ",".join(f"{v}={os.environ[v]}" for v in THREAD_VARS if v in os.environ)
        self.key = f"{workload}-{seed}-{mode}-{threads or 'default'}"
        self.reference = None

    def check(self, hashes, code):
        if hashes is None or code is None:
            return "outputs could not be hashed"
        path = os.path.join(WORK, "hashes", f"{self.key}-{code[:16]}.json")
        if self.reference is None and os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                self.reference = json.load(fh)
        if self.reference is not None:
            return diff_hashes(self.reference, hashes)
        self.reference = hashes
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(hashes, fh, sort_keys=True)
        os.replace(path + ".tmp", path)
        return None


def check_round(run, name, work, env, deadline, determinism, repeat_reason=None):
    """Check the round's outputs in a child process; returns its holdout R^2."""
    _, _, code, _, out = run_process([sys.executable, os.path.join(BENCH, "checks.py"), name],
                                     work, env, deadline, stdout=subprocess.PIPE)
    try:
        result = json.loads(out)
    except ValueError:
        result = {"checks": {"all": f"checker exited with code {code}"}, "hashes": None,
                  "code": None, "holdout_r2": None}
    for check_name, reason in result["checks"].items():
        run.record(f"check {check_name}", reason, True)
    run.record("check deterministic-outputs",
               repeat_reason or determinism.check(result["hashes"], result["code"]), True)
    return float("nan") if result["holdout_r2"] is None else result["holdout_r2"]


def untraced_round(run, name, spec, work, env, deadline, determinism):
    for d in ("out", "first_apply"):
        shutil.rmtree(os.path.join(work, d), ignore_errors=True)
    cli = [sys.executable, "-m", "corrml.cli"]

    def command(argv):
        wall, cpu, code, rss, _ = run_process(cli + argv, work, env, deadline)
        run.record(f"command {argv[0]}", None if code == 0 else f"exit code {code}", False)
        return wall, cpu, rss

    ingest = command(INGEST)
    train = command(spec["train"])
    applies, repeat_reason = [], None
    for i in range(spec["apply_repeats"]):
        applies.append(command(spec["apply"]))
        try:
            if i == 0:
                shutil.copytree("out/apply", "first_apply")
            else:
                repeat_reason = repeat_reason or same_files("first_apply", "out/apply")
        except OSError as exc:  # a failed apply left no outputs to compare
            repeat_reason = repeat_reason or f"{type(exc).__name__}: {exc}"
    apply_wall = median(a[0] for a in applies)
    r2 = check_round(run, name, work, env, deadline, determinism, repeat_reason)
    metrics = {
        "train_s": train[0],
        "total_s": ingest[0] + train[0] + apply_wall,
        "artifact_bytes": float(sum(os.path.getsize(p) for p in spec["artifacts"]
                                    if os.path.exists(p))),
        "train_peak_rss_mb": train[2],
        "apply_peak_rss_mb": median(a[2] for a in applies),
        "holdout_r2": r2,
    }
    # both clocks of every timed command, for result.json only
    timings = {"ingest": ingest[:2], "train": train[:2],
               "apply": [apply_wall, median(a[1] for a in applies)]}
    return metrics, timings


def in_process_pass(run, spec, work):
    """Wall seconds of one ingest, train and apply through cli.main."""
    from corrml import cli

    shutil.rmtree(os.path.join(work, "out"), ignore_errors=True)
    total = 0.0
    for argv in (INGEST, spec["train"], spec["apply"]):
        t0 = time.perf_counter()
        code = cli.main(list(argv))
        total += time.perf_counter() - t0
        run.record(f"command {argv[0]}", None if code == 0 else f"exit code {code}", False)
    return total


# a short version of every training command, for the in-process warm-up
WARM_UP_CONFIG = {
    "model_params": {"rf": {"n_estimators": 3}, "dnn": {"epochs": 3}, "gpr": {"epochs": 3},
                     "loggpr": {"epochs": 3}},
    "inverse_params": {"rf": {"n_estimators": 3}, "gbm": {"n_rounds": 3}},
}


def prepare_in_process(spec):
    """Ready this process for in-process passes, before numpy is loaded.

    The CLI applies ``CORRML_THREADS`` to the BLAS thread variables on each
    call, which only takes effect if numpy is not loaded yet; here it must
    precede the tracer's numpy import. Then the workload's commands run once,
    untimed, with a few epochs, trees and rounds (outputs under ``warm/``):
    the CLI imports its layers lazily and the allocator grows its pools on
    first use, and without this the untraced pass, which runs first, would
    pay for both while the traced pass does not.
    """
    from corrml import cli

    cli._configure_threads()
    os.makedirs("warm")
    with open("warm/config.json", "w", encoding="utf-8") as fh:
        json.dump(WARM_UP_CONFIG, fh)
    for argv in (INGEST, spec["train"] + ["--config", "warm/config.json"], spec["apply"]):
        code = cli.main([a.replace("out/", "warm/", 1) for a in argv])
        if code != 0:
            raise SystemExit(f"warm-up {argv[0]} failed with exit code {code}")


def traced_round(run, name, spec, work, env, deadline, determinism):
    from tracing import Tracer

    untraced = in_process_pass(run, spec, work)
    check_round(run, name, work, env, deadline, determinism)
    tracer = Tracer()
    tracer.install()
    try:
        traced = in_process_pass(run, spec, work)
    finally:
        tracer.uninstall()
    check_round(run, name, work, env, deadline, determinism)
    metrics = tracer.metrics()
    metrics.update({
        "trace.traced_total_s": traced, "trace.untraced_total_s": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.overhead_pct": 100.0 * (traced - untraced) / untraced,
    })
    return metrics, tracer


def main() -> int:
    p = argparse.ArgumentParser(description="corrml CLI benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(SRC, "corrml", "cli.py")):
        print(f"error: no program source at {SRC}; run from a corrml checkout", file=sys.stderr)
        return 2

    load_start = list(os.getloadavg())
    deadline = time.monotonic() + RUN_LIMIT_S
    spec = WORKLOADS[args.workload]
    work = os.path.join(WORK, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = child_env()
    # a traced run reports no setup_s, so it generates its inputs only once
    setup_s, setup_wall = set_up(args.workload, args.seed, work, env, deadline,
                                 1 if args.trace else SETUP_REPEATS)

    run = Run()
    determinism = Determinism(args.workload, args.seed, "traced" if args.trace else "cli")
    rounds, timings = [], []
    os.chdir(work)  # commands take the same relative paths every round
    start = time.perf_counter()
    if args.trace:
        sys.path[:0] = [SRC, BENCH]
        prepare_in_process(spec)
        units = declared_units("per_layer")
        while not rounds or time.perf_counter() - start < args.seconds:
            metrics, tracer = traced_round(run, args.workload, spec, work, env, deadline,
                                           determinism)
            rounds.append(metrics)
        tracer.dump(os.path.join(work, "trace_spans.json"))
    else:
        units = declared_units("end_to_end")
        while not rounds or time.perf_counter() - start < args.seconds:
            metrics, clocks = untraced_round(run, args.workload, spec, work, env, deadline,
                                             determinism)
            rounds.append(metrics)
            timings.append(clocks)
        rounds[0]["setup_s"] = setup_s  # one median per run, kept with the first round
    if set(units) != set().union(*rounds):
        raise SystemExit(f"measured metrics {sorted(set().union(*rounds))} "
                         f"do not match BENCHMARK.json {sorted(units)}")
    values = {k: median(r[k] for r in rounds if k in r) for k in units}

    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} round(s), "
          f"{run.attempted} operations attempted, {run.failed} failed")
    for k, v in values.items():
        print(f"  {k:32s} {v:14.6g} {units[k]}")
    print(json.dumps({"machine": machine(load_start)}))
    result = {"correct": not run.check_failed, "attempted": run.attempted,
              "failed": run.failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(result, rounds=rounds, failures=run.reasons,
                       wall_cpu_s=dict(setup=[setup_wall, setup_s], rounds=timings)),
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
