"""End-to-end command-line runs: file outputs, determinism, exit codes."""

import csv
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from corrml import cli
from corrml.dataset import ELEMENT_ORDER, generate_inverse_synthetic, generate_synthetic
from corrml.errors import ValidationError
from corrml.evaluation import FAMILIES

QUICK_CONFIG = {
    "model_params": {
        "rf": {"n_estimators": 5},
        "dnn": {"epochs": 20},
        "gpr": {"epochs": 3},
        "loggpr": {"epochs": 3},
    },
    "inverse_params": {"rf": {"n_estimators": 6}, "gbm": {"n_rounds": 10}},
}


def _dump_csv(ds, path, drop_rates=False):
    elems = [sym for sym in ELEMENT_ORDER if any(s.composition.get(sym) for s in ds.samples)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "env", "temp_c", "duration_days", "rate", "rate_unit", "grade"]
                   + elems)
        for s in ds.samples:
            w.writerow([s.id, ds.environment_names[s.environment],
                        "" if s.temperature is None else repr(float(s.temperature)),
                        "" if s.duration is None else repr(float(s.duration)),
                        "" if drop_rates else repr(float(s.rate)),
                        "" if drop_rates else "mpy", ""]
                       + [repr(float(s.composition.get(e))) if s.composition.get(e) else ""
                          for e in elems])
    return str(path)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared ingested dataset + quick config, built once per module."""
    root = tmp_path_factory.mktemp("cliws")
    csv_path = _dump_csv(generate_synthetic(60, seed=3), root / "data.csv")
    cfg_path = root / "quick.json"
    cfg_path.write_text(json.dumps(QUICK_CONFIG))
    out = root / "ds"
    assert cli.main(["ingest", "--input", csv_path, "--out", str(out)]) == 0
    return {"root": root, "csv": csv_path, "config": str(cfg_path),
            "dataset": str(out / "dataset.json")}


def test_ingest_outputs(workspace):
    out = os.path.dirname(workspace["dataset"])
    with open(workspace["dataset"]) as fh:
        payload = json.load(fh)
    assert payload["kind"] == "corrosion-dataset"
    assert len(payload["samples"]) == 60
    rows = _read_rows(os.path.join(out, "summary.csv"))
    assert rows[0] == ["name", "count", "max_at_pct"]
    assert rows[1] == ["samples", "60", ""]
    with open(os.path.join(out, "ingest.config.json")) as fh:
        sidecar = json.load(fh)
    assert sidecar["command"] == "ingest"
    assert sidecar["config"]["grade_map"]["B"] == 5.0  # defaults made explicit


def test_ingest_bad_row_names_row(tmp_path, capsys):
    ds = generate_synthetic(5, seed=1)
    path = _dump_csv(ds, tmp_path / "bad.csv")
    lines = open(path).read().splitlines()
    lines[2] = lines[2].replace("mpy", "leagues")
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
    rc = cli.main(["ingest", "--input", path, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "row 3" in capsys.readouterr().err


@pytest.mark.parametrize("column, value", [
    ("duration_days", "1e400"),
    ("duration_days", "nan"),
    ("temp_c", "-1e308"),
    ("temp_c", "-273.16"),
    ("temp_c", "inf"),
    ("temp_c", "nan"),
])
def test_ingest_rejects_non_physical_condition_with_row(tmp_path, capsys, column, value):
    path = tmp_path / "bad.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "env", "temp_c", "duration_days", "rate", "rate_unit", "grade",
                    "Al", "Mg"])
        w.writerow(["ok", "brackish-water", "25.0", "30.0", "1.0", "mpy", "", "95.0", "5.0"])
        row = {"temp_c": "25.0", "duration_days": "30.0", column: value}
        w.writerow(["bad", "brackish-water", row["temp_c"], row["duration_days"], "1.0", "mpy",
                    "", "95.0", "5.0"])
    out = tmp_path / "o"
    assert cli.main(["ingest", "--input", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "row 3" in err and "row 2" not in err
    assert not (out / "dataset.json").exists()


def test_ingest_accepts_absolute_zero(tmp_path):
    path = tmp_path / "cold.csv"
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "env", "temp_c", "duration_days", "rate", "rate_unit", "grade",
                    "Al", "Mg"])
        w.writerow(["c1", "brackish-water", "-273.15", "1e-3", "1.0", "mpy", "", "95.0", "5.0"])
    out = tmp_path / "o"
    assert cli.main(["ingest", "--input", str(path), "--out", str(out)]) == 0
    with open(out / "dataset.json") as fh:
        assert json.load(fh)["samples"][0]["temperature"] == -273.15


def test_write_json_refuses_non_finite_values(tmp_path):
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValidationError, match="model.json"):
            cli.write_json(str(tmp_path / "model.json"), {"mean": bad})
    assert not (tmp_path / "model.json").exists()


def test_ingest_weight_units(tmp_path):
    with open(tmp_path / "wt.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id", "env", "temp_c", "duration_days", "rate", "rate_unit", "grade",
                    "Al", "Mg"])
        w.writerow(["w1", "brackish-water", "", "", "1.0", "mpy", "", "50.0", "50.0"])
    out = tmp_path / "o"
    assert cli.main(["ingest", "--input", str(tmp_path / "wt.csv"), "--units", "wt",
                     "--out", str(out)]) == 0
    with open(out / "dataset.json") as fh:
        entry = json.load(fh)["samples"][0]["composition"]
    assert entry["basis"] == "atomic"
    assert abs(entry["entries"]["Al"] - 47.39) < 0.01


def test_train_forward_rf_outputs(workspace, tmp_path):
    out = tmp_path / "rf"
    rc = cli.main(["train-forward", "--dataset", workspace["dataset"], "--model", "rf",
                   "--seed", "4", "--config", workspace["config"], "--out", str(out)])
    assert rc == 0
    rows = _read_rows(out / "metrics.csv")
    assert rows[0] == ["model", "feature_set", "r2", "mae", "rmse"]
    assert rows[1][:2] == ["rf", "comp+env"]
    pairs = _read_rows(out / "pairs.csv")
    assert len(pairs) == 1 + round(0.2 * 60)
    with open(out / "model.json") as fh:
        payload = json.load(fh)
    assert payload["kind"] == "forward-model"
    assert payload["model"]["kind"] == "forest"
    assert payload["preprocess"]["scaler"] is None  # trees consume raw features
    with open(out / "train-forward.config.json") as fh:
        sidecar = json.load(fh)
    assert sidecar["config"]["seed"] == 4                       # flag override recorded
    assert sidecar["config"]["model_params"]["gpr"]["lr"] == 0.05  # defaults explicit
    ET.parse(out / "scatter.svg")


def test_train_forward_reruns_byte_identical(workspace, tmp_path):
    args = ["train-forward", "--dataset", workspace["dataset"], "--model", "gpr",
            "--seed", "4", "--config", workspace["config"]]
    assert cli.main(args + ["--out", str(tmp_path / "a")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("metrics.csv", "pairs.csv", "model.json", "scatter.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_default_kernels_per_family(workspace, tmp_path):
    out = tmp_path / "g"
    assert cli.main(["train-forward", "--dataset", workspace["dataset"], "--model", "gpr",
                     "--config", workspace["config"], "--out", str(out)]) == 0
    with open(out / "model.json") as fh:
        kernel = json.load(fh)["model"]["kernel"]
    assert kernel["kind"] == "matern" and kernel["nu"] == 1.5

    out2 = tmp_path / "lg"
    assert cli.main(["train-forward", "--dataset", workspace["dataset"], "--model",
                     "loggpr", "--config", workspace["config"], "--out", str(out2)]) == 0
    with open(out2 / "model.json") as fh:
        kernel = json.load(fh)["model"]["inner"]["kernel"]
    assert kernel["kind"] == "sum"
    assert kernel["left"]["kind"] == "rbf"
    assert kernel["right"]["kind"] == "matern" and kernel["right"]["nu"] == 2.5


def test_predict_forward_matches_library(workspace, tmp_path):
    out = tmp_path / "m"
    assert cli.main(["train-forward", "--dataset", workspace["dataset"], "--model", "rf",
                     "--seed", "4", "--config", workspace["config"], "--out", str(out)]) == 0
    queries = _dump_csv(generate_synthetic(8, seed=21), tmp_path / "q.csv", drop_rates=True)
    pred_out = tmp_path / "p"
    assert cli.main(["predict", "--model", str(out / "model.json"), "--direction",
                     "forward", "--input", queries, "--out", str(pred_out)]) == 0
    rows = _read_rows(pred_out / "predictions.csv")
    assert rows[0] == ["sample_id", "predicted_mpy"]
    assert len(rows) == 9

    from corrml.dataset import parse_csv
    from corrml.preprocess import build_features
    from corrml.trees import forest_from_dict, predict_forest
    with open(out / "model.json") as fh:
        payload = json.load(fh)
    ds = parse_csv(queries, require_rate=False,
                   environments=tuple(payload["environment_names"]))
    fm, _ = build_features(ds, payload["feature_set"])
    expected = predict_forest(forest_from_dict(payload["model"]), fm.values)
    assert [r[1] for r in rows[1:]] == [repr(float(v)) for v in expected]


def test_predict_rejects_wrong_model_kind(workspace, tmp_path, capsys):
    out = tmp_path / "m"
    assert cli.main(["train-forward", "--dataset", workspace["dataset"], "--model", "rf",
                     "--config", workspace["config"], "--out", str(out)]) == 0
    rc = cli.main(["predict", "--model", str(out / "model.json"), "--direction",
                   "inverse", "--input", workspace["csv"], "--out", str(tmp_path / "p")])
    assert rc == 1
    assert "inverse model" in capsys.readouterr().err


def test_inverse_train_and_predict(tmp_path):
    data = _dump_csv(generate_inverse_synthetic(120, seed=5), tmp_path / "inv.csv")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(QUICK_CONFIG))
    ds_out = tmp_path / "ds"
    assert cli.main(["ingest", "--input", data, "--out", str(ds_out)]) == 0
    model_out = tmp_path / "inv"
    assert cli.main(["train-inverse", "--dataset", str(ds_out / "dataset.json"),
                     "--seed", "2", "--config", str(cfg), "--out", str(model_out)]) == 0

    rows = _read_rows(model_out / "inverse_metrics.csv")
    assert rows[0] == ["element", "r2", "rmse", "submodel_set"]
    assert [r[0] for r in rows[1:]] == ["Zn", "Ti", "Ni", "Cu", "Fe", "Mn"]
    assert all(r[3] == "union" for r in rows[1:])
    sub_rows = _read_rows(model_out / "inverse_submodels.csv")
    assert {r[3] for r in sub_rows[1:]} <= {"base", "base+dur", "base+dur+temp"}

    # a base-only query row lists exactly one contributing submodel
    base_only = generate_inverse_synthetic(3, seed=6)
    for s in base_only.samples:
        s.temperature = None
        s.duration = None
    queries = _dump_csv(base_only, tmp_path / "q.csv")
    pred_out = tmp_path / "pred"
    assert cli.main(["predict", "--model", str(model_out / "ensemble.json"),
                     "--direction", "inverse", "--input", queries,
                     "--out", str(pred_out)]) == 0
    rows = _read_rows(pred_out / "predictions.csv")
    assert rows[0] == ["query_id", "element", "predicted_at_pct", "contributing_submodels"]
    assert len(rows) == 1 + 3 * 6
    assert all(r[3] == "base" for r in rows[1:])
    assert all(0.0 <= float(r[2]) <= 100.0 for r in rows[1:])


def test_compare_and_report_charts(workspace, tmp_path):
    cmp_out = tmp_path / "cmp"
    assert cli.main(["compare-forward", "--dataset", workspace["dataset"], "--seed", "4",
                     "--config", workspace["config"], "--out", str(cmp_out)]) == 0
    rows = _read_rows(cmp_out / "compare_metrics.csv")
    assert len(rows) == 9  # header + 4 models x 2 feature sets
    assert {(r[0], r[1]) for r in rows[1:]} == {
        (m, f) for m in ("rf", "dnn", "gpr", "loggpr") for f in ("comp", "comp+env")}

    rep = tmp_path / "rep"
    assert cli.main(["report", "--metrics", str(cmp_out / "compare_metrics.csv"),
                     "--pairs", str(cmp_out / "compare_pairs.csv"),
                     "--out", str(rep)]) == 0
    for name in ("r2.svg", "mae.svg", "rmse.svg"):
        ET.parse(rep / name)
    scatters = sorted(p.name for p in rep.glob("scatter_*.svg"))
    assert len(scatters) == 8

    rep2 = tmp_path / "rep2"
    assert cli.main(["report", "--metrics", str(cmp_out / "compare_metrics.csv"),
                     "--pairs", str(cmp_out / "compare_pairs.csv"),
                     "--out", str(rep2)]) == 0
    for name in ("r2.svg", "mae.svg", "rmse.svg", scatters[0]):
        assert (rep / name).read_bytes() == (rep2 / name).read_bytes()


@pytest.fixture(scope="module")
def compared(workspace, tmp_path_factory):
    """compare-forward rows on the workspace data, keyed by (model, feature set)."""
    out = tmp_path_factory.mktemp("cmp")
    assert cli.main(["compare-forward", "--dataset", workspace["dataset"], "--seed", "4",
                     "--config", workspace["config"], "--out", str(out)]) == 0
    metrics = {tuple(r[:2]): r for r in _read_rows(out / "compare_metrics.csv")[1:]}
    pairs: dict = {}
    for r in _read_rows(out / "compare_pairs.csv")[1:]:
        pairs.setdefault(tuple(r[:2]), []).append(r)
    return metrics, pairs


@pytest.mark.parametrize("features", ["comp", "comp+env"])
@pytest.mark.parametrize("family", ["rf", "dnn", "gpr", "loggpr"])
def test_train_compare_and_predict_share_one_path(workspace, compared, tmp_path,
                                                   family, features):
    out = tmp_path / "tf"
    assert cli.main(["train-forward", "--dataset", workspace["dataset"], "--model", family,
                     "--features", features, "--seed", "4", "--config", workspace["config"],
                     "--out", str(out)]) == 0
    metrics, pairs = compared
    assert _read_rows(out / "metrics.csv")[1:] == [metrics[(family, features)]]
    trained_pairs = _read_rows(out / "pairs.csv")[1:]
    assert trained_pairs == pairs[(family, features)]

    pred_out = tmp_path / "p"
    assert cli.main(["predict", "--model", str(out / "model.json"), "--direction",
                     "forward", "--input", workspace["csv"], "--out", str(pred_out)]) == 0
    predicted = dict(_read_rows(pred_out / "predictions.csv")[1:])
    assert [predicted[r[2]] for r in trained_pairs] == [r[4] for r in trained_pairs]


def test_family_table_matches_default_config():
    assert set(FAMILIES) == set(cli.default_config()["model_params"])


@pytest.fixture(scope="module")
def forward_payload(workspace, tmp_path_factory):
    out = tmp_path_factory.mktemp("rfmodel")
    assert cli.main(["train-forward", "--dataset", workspace["dataset"], "--model", "rf",
                     "--config", workspace["config"], "--out", str(out)]) == 0
    with open(out / "model.json") as fh:
        return json.load(fh)


def _without(payload, key):
    return {k: v for k, v in payload.items() if k != key}


@pytest.mark.parametrize("direction,edit,key", [
    ("forward", lambda p: {**p, "family": "gbm"}, "'family'"),
    ("forward", lambda p: {**p, "family": "svm"}, "'family'"),
    ("forward", lambda p: _without(p, "family"), "'family'"),
    ("forward", lambda p: _without(p, "preprocess"), "'preprocess'"),
    ("forward", lambda p: [1], "root"),
    ("inverse", lambda p: {"kind": "inverse-model", "environment_names": []}, "'ensemble'"),
    ("inverse", lambda p: {"kind": "inverse-model", "ensemble": {}}, "'environment_names'"),
], ids=["family-gbm", "family-svm", "no-family", "no-preprocess", "root-array", "no-ensemble",
        "no-environment-names"])
def test_predict_rejects_bad_model_file(workspace, forward_payload, tmp_path, capsys,
                                        direction, edit, key):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(edit(forward_payload)))
    rc = cli.main(["predict", "--model", str(path), "--direction", direction,
                   "--input", workspace["csv"], "--out", str(tmp_path / "p")])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(path) in err and key in err


@pytest.fixture(scope="module")
def inverse_run(tmp_path_factory):
    """An inverse CSV and the ensemble payload trained on it (quick config)."""
    root = tmp_path_factory.mktemp("invmodel")
    data = _dump_csv(generate_inverse_synthetic(60, seed=5), root / "inv.csv")
    cfg = root / "quick.json"
    cfg.write_text(json.dumps(QUICK_CONFIG))
    assert cli.main(["ingest", "--input", data, "--out", str(root / "ds")]) == 0
    assert cli.main(["train-inverse", "--dataset", str(root / "ds" / "dataset.json"),
                     "--config", str(cfg), "--out", str(root / "inv")]) == 0
    with open(root / "inv" / "ensemble.json") as fh:
        return {"csv": data, "payload": json.load(fh)}


def _edit_first_tree(payload, edit):
    """A copy of an inverse payload whose first forest tree is `edit(tree)`."""
    payload = json.loads(json.dumps(payload))
    sub = next(s for s in payload["ensemble"]["submodels"].values() if s is not None)
    trees = sub["forest"]["models"][0]["trees"]
    trees[0] = edit(trees[0])
    return payload


def _with_model(payload, edit):
    return {**payload, "model": edit(payload["model"])}


@pytest.mark.parametrize("direction,edit,keys", [
    ("forward", lambda p: {**p, "preprocess": {**p["preprocess"], "scaler": {
        "stds": [], "constant": []}}},
     ("'preprocess.scaler'", "'means'")),
    ("forward", lambda p: _with_model(p, lambda m: _without(m, "trees")),
     ("'model'", "'trees'")),
    ("forward", lambda p: _with_model(p, lambda m: {**m, "trees": [
        {**m["trees"][0], "threshold": "high"}] + m["trees"][1:]}),
     ("'model'", "malformed")),
    ("inverse", lambda p: _edit_first_tree(p, lambda t: _without(t, "threshold")),
     ("'ensemble'", "'threshold'")),
], ids=["scaler-no-means", "forest-no-trees", "tree-bad-threshold", "tree-no-threshold"])
def test_predict_rejects_incomplete_model_state(workspace, forward_payload, inverse_run,
                                                tmp_path, capsys, direction, edit, keys):
    payload, queries = ((forward_payload, workspace["csv"]) if direction == "forward"
                        else (inverse_run["payload"], inverse_run["csv"]))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(edit(payload)))
    rc = cli.main(["predict", "--model", str(path), "--direction", direction,
                   "--input", queries, "--out", str(tmp_path / "p")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err
    assert all(key in err for key in keys), err


def test_reruns_write_byte_identical_json(tmp_path):
    data = _dump_csv(generate_inverse_synthetic(60, seed=8), tmp_path / "data.csv")
    cfg = tmp_path / "quick.json"
    cfg.write_text(json.dumps(QUICK_CONFIG))

    def run_chain(root):
        dataset = str(root / "ds" / "dataset.json")
        assert cli.main(["ingest", "--input", data, "--out", str(root / "ds")]) == 0
        assert cli.main(["train-forward", "--dataset", dataset, "--model", "gpr",
                         "--config", str(cfg), "--out", str(root / "fwd")]) == 0
        assert cli.main(["train-inverse", "--dataset", dataset, "--config", str(cfg),
                         "--out", str(root / "inv")]) == 0
        return ["ds/dataset.json", "fwd/model.json", "inv/ensemble.json"]

    names = run_chain(tmp_path / "a")
    run_chain(tmp_path / "b")
    for name in names:
        first = (tmp_path / "a" / name).read_bytes()
        assert first == (tmp_path / "b" / name).read_bytes(), f"{name} differs"
        assert first.endswith(b"\n") and first.count(b"\n") == 1, name

    payload = {"b": [0.1, 1e-300, 2.0 ** 60, -3], "a": {"\u00b5": None, "t": True},
               "nested": [{"z": 1.5}, []]}
    path = tmp_path / "payload.json"
    cli.write_json(str(path), payload)
    text = path.read_text(encoding="utf-8")
    assert text.count("\n") == 1 and text.endswith("\n")
    assert json.loads(text) == payload


def test_inverse_import_path_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    probe = ("import sys, corrml.cli, corrml.inverse; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_report_requires_an_input(tmp_path, capsys):
    assert cli.main(["report", "--out", str(tmp_path)]) == 1
    assert "needs" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    assert cli.main(["no-such-command"]) == 1
    assert cli.main(["train-forward"]) == 1  # missing required --dataset
    assert cli.main(["predict", "--model", "x", "--direction", "sideways",
                     "--input", "y"]) == 1
    capsys.readouterr()
    assert cli.main(["train-forward", "--dataset", "x", "--model", "svm"]) == 1
    assert "unknown forward model 'svm'" in capsys.readouterr().err


def test_missing_file_exits_one(tmp_path, capsys):
    assert cli.main(["ingest", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)]) == 1
    capsys.readouterr()


def test_unknown_config_key_rejected(workspace, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text('{"model_params": {"gpr": {"turbo": true}}}')
    rc = cli.main(["train-forward", "--dataset", workspace["dataset"], "--model", "gpr",
                   "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "model_params.gpr.turbo" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_training_failure_exits_two(tmp_path, capsys):
    # an uncapped astronomically large target overflows the variance-based
    # kernel initialization, which is a numerical failure, not a usage one
    ds = generate_synthetic(12, seed=0)
    ds.samples[0].rate = 1e308
    data = _dump_csv(ds, tmp_path / "huge.csv")
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"cap_threshold": 1e309, "model_params": {"gpr": {"epochs": 2}}}')
    out = tmp_path / "ds"
    assert cli.main(["ingest", "--input", data, "--out", str(out)]) == 0
    rc = cli.main(["train-forward", "--dataset", str(out / "dataset.json"), "--model",
                   "gpr", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "training failure" in capsys.readouterr().err


def test_thread_cap_env_var(monkeypatch):
    for var in cli._BLAS_ENV_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv(cli.THREADS_ENV_VAR, "2")
    cli._configure_threads()
    assert all(os.environ[var] == "2" for var in cli._BLAS_ENV_VARS)

    monkeypatch.setenv(cli.THREADS_ENV_VAR, "zero-point-five")
    assert cli.main(["report", "--metrics", "x.csv"]) == 1

    monkeypatch.delenv(cli.THREADS_ENV_VAR)
    cli._configure_threads()  # unset: BLAS variables the user set are left alone
    assert all(os.environ[var] == "2" for var in cli._BLAS_ENV_VARS)

    for var in cli._BLAS_ENV_VARS:
        monkeypatch.delenv(var)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    cli._configure_threads()  # unset: every unset BLAS variable defaults to one thread
    assert os.environ["OPENBLAS_NUM_THREADS"] == "3"
    assert os.environ["OMP_NUM_THREADS"] == os.environ["MKL_NUM_THREADS"] == "1"
