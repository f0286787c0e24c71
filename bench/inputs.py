"""Input generation for the benchmark workloads.

Run as a script, it writes one workload's input CSVs for one seed:

    python3 bench/inputs.py --workload forward-gp --seed 0 --out DIR

It imports the program's synthetic generators from ``src/`` (the README
walkthrough data), so its wall time is the benchmark's set-up time.
"""

import argparse
import csv
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# header of the program's input CSV schema, before the element columns
META = ["id", "env", "temp_c", "duration_days", "rate", "rate_unit", "grade"]
INVERSE_TARGETS = ("Zn", "Ti", "Ni", "Cu", "Fe", "Mn")
WALKTHROUGH_ROWS = 331
INVERSE_ROWS = 300
QUERY_ROWS = 1000
QUERY_SEED_OFFSET = 1_000_003  # queries come from a seed the training data never uses


def _opt(value):
    return "" if value is None else repr(float(value))


def _write_csv(path, dataset, elements):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(META + list(elements))
        for s in dataset.samples:
            w.writerow([s.id, dataset.environment_names[s.environment],
                        _opt(s.temperature), _opt(s.duration),
                        repr(float(s.rate)), "mpy", ""]
                       + [_opt(s.composition.get(e) or None) for e in elements])


def write_inputs(workload: str, seed: int, out: str) -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from corrml.dataset import ELEMENT_ORDER, generate_inverse_synthetic, generate_synthetic

    os.makedirs(out, exist_ok=True)
    if workload in ("forward-gp", "compare"):
        ds = generate_synthetic(WALKTHROUGH_ROWS, seed)
        elems = [e for e in ELEMENT_ORDER if any(s.composition.get(e) for s in ds.samples)]
        _write_csv(os.path.join(out, "data.csv"), ds, elems)
        return
    if workload != "inverse":
        raise ValueError(f"unknown workload {workload!r}")
    train = generate_inverse_synthetic(INVERSE_ROWS, seed)
    elems = [e for e in ELEMENT_ORDER if any(s.composition.get(e) for s in train.samples)]
    _write_csv(os.path.join(out, "data.csv"), train, elems)
    # queries carry only what inverse prediction reads; the generator's
    # trace-element values are kept aside as the ground truth
    queries = generate_inverse_synthetic(QUERY_ROWS, seed + QUERY_SEED_OFFSET)
    _write_csv(os.path.join(out, "queries.csv"), queries, ("Al", "Si", "Mg"))
    with open(os.path.join(out, "truth.csv"), "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["id"] + list(INVERSE_TARGETS))
        for s in queries.samples:
            w.writerow([s.id] + [repr(float(s.composition.get(e))) for e in INVERSE_TARGETS])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args()
    write_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
