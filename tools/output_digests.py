"""Print the SHA-256 digest of every file the command-line chains write, so
that two checkouts can be shown to produce byte-identical outputs.

    python3 tools/output_digests.py --src CHECKOUT --seed N

The inputs are written by this repository's ``bench/inputs.py`` for seed N:
the README walkthrough CSV, and the benchmark's inverse training data and
queries. Each command then runs as ``python -m corrml.cli`` with
``CHECKOUT/src`` on ``PYTHONPATH``, inside a temporary directory and with
fixed relative paths, so that the sidecars of two checkouts record the same
paths. The chains are

    ingest -> train-forward (rf, dnn, gpr and loggpr) -> forward predict,
              then train-forward (loggpr, back_transform "mean") -> forward
              predict, then train-forward (rf, --features
              comp+env+temp+dur) -> forward predict, then forward predict
              of the dnn and loggpr models on 1,000 rows, then
              compare-forward -> report, then forward predict of the gpr
              and loggpr-mean models again with CORRML_THREADS=2
    ingest --units wt, and forward predict --units wt of the rf and loggpr
              models, each of the walkthrough CSV read as weight percent
    ingest -> train-inverse -> inverse predict on the 1,000 queries, then
              on 5,000

and the output is one ``sha256  relative/path`` line per file they write,
sorted by path. Run it on two checkouts and diff the two outputs. Uses the
standard library only.

Each extra chain puts a path under the check that the others miss. The mean
back-transform reads the GP's predictive variance, which the default median
one does not. Every walkthrough row carries the fields of comp and
comp+env, but not all carry a temperature and a duration, so the
comp+env+temp+dur chain selects a subset of the rows, in training and in
predict. Forward predict scores its rows a chunk of
``evaluation._ROW_CHUNK`` (64) at a time; the 1,000 rows are the
walkthrough's 331 repeated by ``tools/repeat_queries.py``, fifteen whole
chunks and a partial one, each repeated row scored in a different place in
its chunk. The 5,000 queries are the benchmark's 1,000 repeated the same
way: inverse predict scores them in three chunks, the last one partial,
where 1,000 queries are one chunk. The gpr and loggpr-mean models are
scored again with ``CORRML_THREADS=2`` set in that child's environment
only, into folders of their own: a loaded GP's factor and scoring run no
BLAS, so their ``predictions.csv`` lines carry the digests of the
default-environment ones (their sidecars record another ``--out``). The
``--units wt`` chains reach the conversion of each row's weight percent to
atomic percent, which ``ingest`` and ``predict`` share and no other chain
runs. For seed N the tool prints 86 lines.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

FWD_DATASET = "out/fwd/ds/dataset.json"
INV_DATASET = "out/inv/ds/dataset.json"
MEAN_CONFIG = ("in/fwd/loggpr-mean.json", {"model_params": {"loggpr": {"back_transform": "mean"}}})
# (output folder, family, extra flags) of each train-forward -> predict chain
FORWARD_RUNS = [*((model, model, []) for model in ("rf", "dnn", "gpr", "loggpr")),
                ("loggpr-mean", "loggpr", ["--config", MEAN_CONFIG[0]]),
                ("rf-temp-dur", "rf", ["--features", "comp+env+temp+dur"])]
FWD_QUERIES_1000 = "in/fwd/data-1000.csv"
INV_QUERIES = "in/inv/queries.csv"
INV_QUERIES_5000 = "in/inv/queries-5000.csv"
COMMANDS = [
    ["ingest", "--input", "in/fwd/data.csv", "--out", "out/fwd/ds"],
    *(step for name, model, config in FORWARD_RUNS for step in (
        ["train-forward", "--dataset", FWD_DATASET, "--model", model, *config,
         "--out", f"out/fwd/{name}"],
        ["predict", "--model", f"out/fwd/{name}/model.json", "--direction", "forward",
         "--input", "in/fwd/data.csv", "--out", f"out/fwd/{name}-predict"])),
    *(["predict", "--model", f"out/fwd/{name}/model.json", "--direction", "forward",
       "--input", FWD_QUERIES_1000, "--out", f"out/fwd/{name}-predict-1000"]
      for name in ("dnn", "loggpr")),
    ["ingest", "--input", "in/fwd/data.csv", "--units", "wt", "--out", "out/fwd/ds-wt"],
    *(["predict", "--model", f"out/fwd/{name}/model.json", "--direction", "forward",
       "--input", "in/fwd/data.csv", "--units", "wt", "--out", f"out/fwd/{name}-predict-wt"]
      for name in ("rf", "loggpr")),
    ["compare-forward", "--dataset", FWD_DATASET, "--out", "out/fwd/compare"],
    ["report", "--metrics", "out/fwd/compare/compare_metrics.csv",
     "--pairs", "out/fwd/compare/compare_pairs.csv", "--out", "out/fwd/report"],
    ["ingest", "--input", "in/inv/data.csv", "--out", "out/inv/ds"],
    ["train-inverse", "--dataset", INV_DATASET, "--out", "out/inv/train"],
    *(["predict", "--model", "out/inv/train/ensemble.json", "--direction", "inverse",
       "--input", queries, "--out", out]
      for queries, out in ((INV_QUERIES, "out/inv/predict"),
                           (INV_QUERIES_5000, "out/inv/predict-5000"))),
]
# run after COMMANDS, each with CORRML_THREADS=2 set in its child's environment only
THREADS_2_COMMANDS = [["predict", "--model", f"out/fwd/{name}/model.json", "--direction",
                       "forward", "--input", "in/fwd/data.csv", "--out",
                       f"out/fwd/{name}-predict-threads2"] for name in ("gpr", "loggpr-mean")]


def _run(argv: list[str], cwd: str, env: dict) -> None:
    result = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    if result.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {result.returncode}:\n{result.stderr}")


def digests(src: str, seed: int) -> list[str]:
    """The `sha256  path` lines of every file under out/, sorted by path."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(src), "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryDirectory() as work:
        for workload, folder in (("forward-gp", "in/fwd"), ("inverse", "in/inv")):
            _run([sys.executable, os.path.join(ROOT, "bench", "inputs.py"), "--workload",
                  workload, "--seed", str(seed), "--out", folder], work, env)
        for queries, rows, out in (("in/fwd/data.csv", "1000", FWD_QUERIES_1000),
                                   (INV_QUERIES, "5000", INV_QUERIES_5000)):
            _run([sys.executable, os.path.join(ROOT, "tools", "repeat_queries.py"), "--input",
                  queries, "--rows", rows, "--out", out], work, env)
        with open(os.path.join(work, MEAN_CONFIG[0]), "w", encoding="utf-8") as fh:
            json.dump(MEAN_CONFIG[1], fh)
        for argv in COMMANDS:
            _run([sys.executable, "-m", "corrml.cli", *argv], work, env)
        for argv in THREADS_2_COMMANDS:
            _run([sys.executable, "-m", "corrml.cli", *argv], work,
                 {**env, "CORRML_THREADS": "2"})
        lines = []
        for folder, _, files in os.walk(os.path.join(work, "out")):
            for name in files:
                path = os.path.join(folder, name)
                with open(path, "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                lines.append((os.path.relpath(path, work).replace(os.sep, "/"), digest))
    return [f"{digest}  {path}" for path, digest in sorted(lines)]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", required=True, help="checkout whose src/ the commands run")
    p.add_argument("--seed", type=int, required=True, help="seed of the generated inputs")
    args = p.parse_args()
    if not os.path.isfile(os.path.join(args.src, "src", "corrml", "cli.py")):
        p.error(f"{args.src} holds no src/corrml/cli.py")
    print("\n".join(digests(args.src, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
