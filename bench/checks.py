"""Correctness checks on the CLI's output files, computed apart from the program.

    python3 bench/checks.py WORKLOAD    (run inside the workload's work dir)

Every check reads files only and uses its own formulas (metrics, kernels,
tree descent); none imports the program. A check returns None when it
passes and a one-line reason when it fails. The workload's holdout R^2 is
recomputed here too, so the benchmark reports accuracy it derived itself.
The result is printed as one JSON object. The checks run in their own
process so that the benchmark process stays small: a child's peak RSS as
`wait4` reports it includes its parent's peak at the time of the spawn.
"""

import csv
import functools
import hashlib
import json
import math
import os
import sys
import xml.etree.ElementTree as ET

import numpy as np

METRIC_RTOL = 1e-9
# the program factorizes with Cholesky (plus jitter when needed); the check
# uses a dense LU solve, so the two agree to rounding amplified by cond(K)
GP_MEAN_RTOL = 1e-6
GP_MEAN_ATOL = 1e-9
UNION_ATOL = 1e-9
INVERSE_MIN_R2 = 0.9
UNION_SAMPLE = 40  # queries whose union value is re-derived from the model file
COMPARE_MODELS = ("rf", "dnn", "gpr", "loggpr")
COMPARE_FEATURE_SETS = ("comp", "comp+env")
SVG_NS = "{http://www.w3.org/2000/svg}"


def read_dicts(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def metrics(y, p):
    """(r2, mae, rmse) by the textbook formulas."""
    y = np.asarray(y, dtype=float)
    p = np.asarray(p, dtype=float)
    err = y - p
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(err * err)) / ss_tot
    return r2, float(np.mean(np.abs(err))), math.sqrt(float(np.mean(err * err)))


def log_r2(y, p, epsilon=1e-6):
    """R^2 on ln(rate + epsilon), the scale the log-route GP fits on. Over a
    66-row holdout it moves far less with the seed than R^2 on raw rates,
    which a few heavy-tailed rows dominate."""
    return metrics(np.log(np.asarray(y) + epsilon),
                   np.log(np.maximum(np.asarray(p, dtype=float), 0.0) + epsilon))[0]


def _close(a, b, rtol=METRIC_RTOL):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-12)


def pair_cells(path):
    """(model, feature_set) -> (true, predicted) arrays from a pairs CSV."""
    cells = {}
    for r in read_dicts(path):
        t, p = cells.setdefault((r["model"], r["feature_set"]), ([], []))
        t.append(float(r["true"]))
        p.append(float(r["predicted"]))
    return cells


def check_metrics_match(metrics_csv, pairs_csv):
    cells = pair_cells(pairs_csv)
    for r in read_dicts(metrics_csv):
        key = (r["model"], r["feature_set"])
        if key not in cells:
            return f"{key} has metrics but no pairs"
        mine = metrics(*cells[key])
        for name, value in zip(("r2", "mae", "rmse"), mine):
            if not _close(value, float(r[name])):
                return f"{key} {name}: file {r[name]} vs recomputed {value!r}"
    return None


# --- forward GP ------------------------------------------------------------

def _feature_rows(csv_path, columns):
    """Feature matrix in the model's column order, built from the raw CSV."""
    ids, X = [], []
    for r in read_dicts(csv_path):
        row = []
        for col in columns:
            name = col["name"]
            if name.startswith("env="):
                row.append(1.0 if r["env"] == name[4:] else 0.0)
            else:
                row.append(float(r[name]) if r.get(name) else 0.0)
        ids.append(r["id"])
        X.append(row)
    return ids, np.asarray(X, dtype=float)


def _kernel(A, B, spec):
    """The log-route GP's default kernel: ARD RBF plus ARD Matern-5/2."""
    K = np.zeros((A.shape[0], B.shape[0]))
    for leaf in (spec["left"], spec["right"]) if spec["kind"] == "sum" else (spec,):
        ls = np.asarray(leaf["lengthscales"], dtype=float)
        diff = (A[:, None, :] - B[None, :, :]) / ls
        r2 = np.sum(diff * diff, axis=2)
        r = np.sqrt(r2)
        v = leaf["variance"]
        if leaf["kind"] == "rbf":
            K += v * np.exp(-0.5 * r2)
        elif leaf.get("nu") == 2.5:
            K += v * (1.0 + math.sqrt(5) * r + 5.0 / 3.0 * r2) * np.exp(-math.sqrt(5) * r)
        else:
            raise ValueError(f"kernel leaf {leaf['kind']} is not checked")
    return K


def gp_predictive_mean(model_json, query_csv):
    """(ids, rate predictions) recomputed from a log-GP model file."""
    with open(model_json, encoding="utf-8") as fh:
        payload = json.load(fh)
    m = payload["model"]
    if m["kind"] != "log-gpr" or m["back_transform"] != "median":
        raise ValueError("only the log-GP with the median back-transform is checked")
    inner = m["inner"]
    ids, X = _feature_rows(query_csv, payload["preprocess"]["columns"])
    scaler = payload["preprocess"]["scaler"]
    X = (X - np.asarray(scaler["means"])) / np.asarray(scaler["stds"])
    Xt = np.asarray(inner["x_train"], dtype=float)
    yt = np.asarray(inner["y_train"], dtype=float)
    K = _kernel(Xt, Xt, inner["kernel"]) + inner["noise_variance"] * np.eye(len(yt))
    alpha = np.linalg.solve(K, yt - inner["mean"])
    mu = inner["mean"] + _kernel(X, Xt, inner["kernel"]) @ alpha
    return ids, np.maximum(np.exp(mu) - m["epsilon"], 0.0)


def check_gp_predictions(model_json, query_csv, predictions_csv):
    ids, mine = gp_predictive_mean(model_json, query_csv)
    rows = read_dicts(predictions_csv)
    if [r["sample_id"] for r in rows] != ids:
        return "prediction rows do not match the query rows"
    got = np.asarray([float(r["predicted_mpy"]) for r in rows])
    bad = np.abs(got - mine) > GP_MEAN_ATOL + GP_MEAN_RTOL * np.abs(mine)
    if np.any(bad):
        i = int(np.argmax(bad))
        return f"{ids[i]}: predicted {float(got[i])!r}, recomputed {float(mine[i])!r}"
    return None


# --- inverse ---------------------------------------------------------------

def _descend(tree, x):
    feature, threshold = tree["feature"], tree["threshold"]
    left, right = tree["left"], tree["right"]
    node = 0
    while feature[node] != -1:
        node = left[node] if x[feature[node]] <= threshold[node] else right[node]
    return tree["value"][node]


def _multi_predict(multi, x):
    out = []
    for m in multi["models"]:
        if m["kind"] == "forest":
            total = 0.0
            for tree in m["trees"]:
                total += _descend(tree, x)
            out.append(total / len(m["trees"]))
        else:
            total = 0.0
            for tree in m["stages"]:
                total += _descend(tree, x)
            out.append(m["init_value"] + m["learning_rate"] * total)
    return out


def _query_sets(q):
    has_dur = bool(q["duration_days"])
    sets = ["base"]
    if has_dur:
        sets.append("base+dur")
        if q["temp_c"]:
            sets.append("base+dur+temp")
    return sets


def _query_vector(q, env_ids, feature_set):
    x = [float(q["rate"]), float(env_ids[q["env"]]), float(q["Al"] or 0.0),
         float(q["Si"] or 0.0), float(q["Mg"] or 0.0)]
    if feature_set != "base":
        x.append(float(q["duration_days"]))
    if feature_set == "base+dur+temp":
        x.append(float(q["temp_c"]))
    return x


@functools.lru_cache(maxsize=None)
def inverse_predictions(predictions_csv):
    """query id -> ({element: value}, contributing tag)."""
    preds = {}
    for r in read_dicts(predictions_csv):
        values, _ = preds.setdefault(r["query_id"], ({}, r["contributing_submodels"]))
        values[r["element"]] = float(r["predicted_at_pct"])
    return preds


def check_inverse_range(preds):
    for qid, (values, _) in preds.items():
        for el, v in values.items():
            if not 0.0 <= v <= 100.0:
                return f"{qid} {el} = {v!r} outside [0, 100]"
    return None


def check_inverse_signatures(preds, queries_csv):
    queries = read_dicts(queries_csv)
    if sorted(preds) != sorted(q["id"] for q in queries):
        return "prediction ids do not match the query ids"
    for q in queries:
        want = "|".join(_query_sets(q))
        if preds[q["id"]][1] != want:
            return f"{q['id']} served by {preds[q['id']][1]!r}, its fields allow {want!r}"
    return None


def check_inverse_union(preds, queries_csv, ensemble_json):
    with open(ensemble_json, encoding="utf-8") as fh:
        payload = json.load(fh)
    env_ids = {name: i for i, name in enumerate(sorted(payload["environment_names"]))}
    ens = payload["ensemble"]
    queries = read_dicts(queries_csv)
    step = max(1, len(queries) // UNION_SAMPLE)
    for q in queries[::step]:
        stack = []
        for fs in _query_sets(q):
            sub = ens["submodels"][fs]
            if sub is None:
                return f"submodel {fs} is absent from the model file"
            x = _query_vector(q, env_ids, fs)
            wf, wg = sub["weights"]
            forest = _multi_predict(sub["forest"], x)
            gbm = _multi_predict(sub["gbm"], x)
            stack.append([min(max(wf * f + wg * g, 0.0), 100.0) for f, g in zip(forest, gbm)])
        union = [min(max(float(v), 0.0), 100.0) for v in np.mean(stack, axis=0)]
        values = preds[q["id"]][0]
        for el, mine in zip(ens["target_names"], union):
            if abs(values[el] - mine) > UNION_ATOL:
                return f"{q['id']} {el}: predicted {values[el]!r}, re-derived {mine!r}"
    return None


def inverse_min_r2(preds, truth_csv):
    """Lowest per-element R^2 of the predictions against the generator's targets."""
    truth = read_dicts(truth_csv)
    elements = [k for k in truth[0] if k != "id"]
    scores = []
    for el in elements:
        y = [float(t[el]) for t in truth]
        p = [preds[t["id"]][0][el] for t in truth]
        scores.append(metrics(y, p)[0])
    return min(scores)


# --- compare / report ------------------------------------------------------

def check_compare_cells(metrics_csv):
    got = {(r["model"], r["feature_set"]) for r in read_dicts(metrics_csv)}
    want = {(m, fs) for m in COMPARE_MODELS for fs in COMPARE_FEATURE_SETS}
    return None if got == want else f"cells {sorted(got)} != {sorted(want)}"


def check_report_svgs(report_dir, pairs_csv):
    cells = pair_cells(pairs_csv)
    for name in ("r2.svg", "mae.svg", "rmse.svg"):
        root = ET.parse(os.path.join(report_dir, name)).getroot()
        if not root.findall(f"{SVG_NS}rect"):
            return f"{name} has no bars"
    for (model, fs), (true, _) in cells.items():
        name = f"scatter_{model}_{fs.replace('+', '-')}.svg"
        root = ET.parse(os.path.join(report_dir, name)).getroot()
        points = len(root.findall(f"{SVG_NS}circle"))
        if points != len(true):
            return f"{name}: {points} points for {len(true)} pairs"
    svgs = [f for f in os.listdir(report_dir) if f.endswith(".svg")]
    if len(svgs) != 3 + len(cells):
        return f"{len(svgs)} charts, expected {3 + len(cells)}"
    return None


# --- registry ----------------------------------------------------------------

def _forward_holdout(pairs_csv):
    return log_r2(*pair_cells(pairs_csv)[("loggpr", "comp+env")])


def _inverse_r2_above_floor():
    r2 = inverse_min_r2(inverse_predictions(INV_PREDICTIONS), "in/truth.csv")
    return None if r2 > INVERSE_MIN_R2 else f"lowest element R^2 {r2:.4f}"


INV_PREDICTIONS = "out/apply/predictions.csv"
# The paper's claim that the log-route GP beats the plain GP on RMSE is not
# checked per run: on a 66-row holdout it fails on some seeds (seed 9 on
# comp, seed 16 on comp+env), and a check must not depend on the seed.
CHECKS = {
    "forward-gp": {
        "metrics-match-pairs": lambda: check_metrics_match(
            "out/train/metrics.csv", "out/train/pairs.csv"),
        "gp-predictive-mean": lambda: check_gp_predictions(
            "out/train/model.json", "in/data.csv", "out/apply/predictions.csv"),
    },
    "inverse": {
        "values-in-range": lambda: check_inverse_range(inverse_predictions(INV_PREDICTIONS)),
        "submodel-signatures": lambda: check_inverse_signatures(
            inverse_predictions(INV_PREDICTIONS), "in/queries.csv"),
        "union-rederived": lambda: check_inverse_union(
            inverse_predictions(INV_PREDICTIONS), "in/queries.csv", "out/train/ensemble.json"),
        "element-r2-above-0.9": _inverse_r2_above_floor,
    },
    "compare": {
        "all-cells-present": lambda: check_compare_cells("out/train/compare_metrics.csv"),
        "metrics-match-pairs": lambda: check_metrics_match(
            "out/train/compare_metrics.csv", "out/train/compare_pairs.csv"),
        "report-charts": lambda: check_report_svgs("out/apply", "out/train/compare_pairs.csv"),
    },
}
HOLDOUT_R2 = {
    "forward-gp": lambda: _forward_holdout("out/train/pairs.csv"),
    "inverse": lambda: inverse_min_r2(inverse_predictions(INV_PREDICTIONS), "in/truth.csv"),
    "compare": lambda: _forward_holdout("out/train/compare_pairs.csv"),
}


def code_digest():
    """sha256 over everything that decides the output bytes for one seed: the
    program source, the benchmark's own files (which generate the inputs)
    and the Python/numpy/scipy versions."""
    import scipy

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    h = hashlib.sha256(f"{sys.version} numpy {np.__version__} scipy {scipy.__version__}".encode())
    for top in (os.path.join(root, "src", "corrml"), os.path.join(root, "bench")):
        for base, dirs, files in os.walk(top):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            for f in sorted(files):
                path = os.path.join(base, f)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def hash_outputs(top):
    """relative path -> sha256 of every file under `top`."""
    out = {}
    for base, _, files in os.walk(top):
        for f in files:
            path = os.path.join(base, f)
            with open(path, "rb") as fh:
                out[path] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _guarded(fn):
    try:
        return fn()
    except Exception as exc:  # a malformed or missing output fails the check
        return f"{type(exc).__name__}: {exc}"


def main():
    workload = sys.argv[1]
    results = {name: _guarded(fn) for name, fn in CHECKS[workload].items()}
    try:
        holdout = HOLDOUT_R2[workload]()
    except Exception:  # the failed checks already report why
        holdout = None
    print(json.dumps({"checks": results, "holdout_r2": holdout, "hashes": hash_outputs("out"),
                      "code": code_digest()}))


if __name__ == "__main__":
    main()
