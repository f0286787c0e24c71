"""End-to-end command-line runs: file outputs, determinism, exit codes."""

import contextlib
import copy
import csv
import functools
import importlib.util
import io
import json
import math
import os
import signal
import subprocess
import sys
import tracemalloc
import xml.etree.ElementTree as ET
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corrml import cli, evaluation, gpr, inverse, jobs, jsonstream
from corrml.dataset import (DEFAULT_ENVIRONMENTS, ELEMENT_ORDER, Dataset, dataset_to_dict,
                            generate_inverse_synthetic, generate_synthetic, parse_csv)
from corrml.errors import TrainingError, ValidationError
from corrml.evaluation import FAMILIES, forward_model_from_dict
from corrml.preprocess import (ScalerState, apply_scaler, build_features, cap_target,
                               feature_columns, fit_scaler)
from corrml.trees import TreeTable, forest_from_dict, node_arrays
from conftest import child_env
from test_jobs import no_children

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


def test_ingest_reads_past_a_utf8_byte_order_mark(workspace, tmp_path):
    # Excel's "CSV UTF-8" starts the file with EF BB BF
    path = tmp_path / "bom.csv"
    with open(workspace["csv"], "rb") as fh:
        path.write_bytes(b"\xef\xbb\xbf" + fh.read())
    assert cli.main(["ingest", "--input", str(path), "--out", str(tmp_path / "ds")]) == 0
    with open(workspace["dataset"], "rb") as fh:
        assert (tmp_path / "ds" / "dataset.json").read_bytes() == fh.read()


def test_ingest_bad_row_names_row(tmp_path, capsys):
    ds = generate_synthetic(5, seed=1)
    path = _dump_csv(ds, tmp_path / "bad.csv")
    lines = open(path).read().splitlines()
    lines[2] = lines[2].replace("mpy", "leagues")
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
    rc = cli.main(["ingest", "--input", path, "--out", str(tmp_path / "o")])
    assert rc == 1
    assert "row 3" in capsys.readouterr().err


@pytest.mark.parametrize("command,blocks,out", [
    ("ingest", 0, "o"), ("predict", 0, "o"), ("predict", 2, "o"), ("predict-inverse", 2, "o"),
    ("predict", 2, "new/b/c")],
    ids=["ingest-0", "predict-0", "predict-2", "predict-inverse-2", "predict-2-nested"])
def test_repeated_sample_id_names_the_file_and_rows(tmp_path, capsys, request, command,
                                                    blocks, out):
    # predict reads and scores its rows a block at a time (forward 64,
    # inverse 2,048): a repeat after `blocks` full blocks, whose rows were
    # scored and written, still refuses the file whole and leaves no output,
    # nor any folder made for `out` (nested: `new` and `new/b` too)
    size = inverse._QUERY_CHUNK if command == "predict-inverse" else evaluation._ROW_CHUNK
    at = blocks * size + 3  # the line of the repeat; one more row follows it
    path = _dump_csv(generate_synthetic(at + 1, seed=2), tmp_path / "dup.csv")
    lines = open(path).read().splitlines()
    # row at + 1 repeats row 2's sample id
    sample_id = lines[1].split(",")[0]
    lines[at] = sample_id + lines[at][lines[at].index(","):]
    (tmp_path / "dup.csv").write_text("\n".join(lines) + "\n")
    top, out = tmp_path / out.split("/")[0], str(tmp_path / out)
    if command == "ingest":
        argv = ["ingest", "--input", path, "--out", out]
    else:
        direction = "forward" if command == "predict" else "inverse"
        payload = (request.getfixturevalue("forward_payload") if direction == "forward"
                   else request.getfixturevalue("inverse_run")["payload"])
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        argv = ["predict", "--model", str(model), "--direction", direction, "--input", path,
                "--out", out]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (f"error: {path}: 1 invalid row(s)\nrow {at + 1}: "
                                       f"duplicate sample id {sample_id!r} (first on row 2)\n")
    assert not top.exists()


@pytest.mark.parametrize("command", ["ingest", "predict", "predict-inverse"])
def test_a_cell_beyond_the_header_names_its_row(tmp_path, capsys, request, command):
    # row 3 has a tenth cell under a nine-column header; the csv reader would
    # drop it, so the row is refused. Empty cells past the header pass.
    path = tmp_path / "wide.csv"
    path.write_text("id,env,temp_c,duration_days,rate,rate_unit,grade,Al,Si\n"
                    "a1,seawater,20.0,30.0,1.5,mpy,,95,5,, \n"
                    "a2,seawater,20.0,30.0,1.5,mpy,,95,5,77\n")
    out = str(tmp_path / "o")
    if command == "ingest":
        argv = ["ingest", "--input", str(path), "--out", out]
    else:
        direction = "forward" if command == "predict" else "inverse"
        payload = request.getfixturevalue("forward_payload" if direction == "forward"
                                          else "inverse_run")
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload if direction == "forward" else payload["payload"]))
        argv = ["predict", "--model", str(model), "--direction", direction, "--input",
                str(path), "--out", out]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (f"error: {path}: 1 invalid row(s)\n"
                                       "row 3: cell 10 is beyond the header's 9 cells\n")
    assert not os.path.exists(out)


def test_a_query_file_of_many_repeated_ids_lists_the_first_twenty(tmp_path, capsys,
                                                                 forward_payload):
    # 10,000 rows whose last 9,000 repeat the ids of the first 1,000
    path = _dump_csv(generate_synthetic(1000, seed=2), tmp_path / "q.csv", drop_rates=True)
    header, *rows = open(path).read().splitlines()
    (tmp_path / "q.csv").write_text("\n".join([header] + rows * 10) + "\n")
    model = tmp_path / "model.json"
    model.write_text(json.dumps(forward_payload))
    assert cli.main(["predict", "--model", str(model), "--direction", "forward", "--input",
                     path, "--out", str(tmp_path / "o")]) == 1
    ids = [row.split(",")[0] for row in rows]
    assert capsys.readouterr().err.splitlines() == (
        [f"error: {path}: 9000 invalid row(s)"]
        + [f"row {1002 + i}: duplicate sample id {ids[i]!r} (first on row {2 + i})"
           for i in range(20)]
        + ["… and 8980 more"])


_HEADER = b"id,env,temp_c,duration_days,rate,rate_unit,grade,Al,Zn"


@pytest.mark.parametrize("command", ["ingest", "predict"])
@pytest.mark.parametrize("data,message", [
    # a Latin-1 e-acute in the second sample's id
    (_HEADER + b"\ns1,seawater,,,1.0,mpy,,95,5\ns\xe92,seawater,,,1.0,mpy,,95,5\n",
     "line 3: 'utf-8' codec can't decode byte 0xe9 in position 1: invalid continuation byte"),
    (_HEADER + b"\ns1,seawater,,,1.0,mpy,,95,5\ns2,seawater,,," + b"1" * 131073
     + b",mpy,,95,5\n", "line 3: field larger than field limit (131072)"),
    (_HEADER + b",Zn\ns1,seawater,,,1.0,mpy,,93,5,7\n", "column 'Zn' appears more than once"),
], ids=["latin-1-byte", "oversized-cell", "repeated-column"])
def test_unreadable_csv_names_the_file_and_line(tmp_path, capsys, request, command, data,
                                                message):
    path = tmp_path / "data.csv"
    path.write_bytes(data)
    out = tmp_path / "o"
    argv = ["ingest", "--input", str(path), "--out", str(out)]
    if command == "predict":
        model = tmp_path / "model.json"
        model.write_text(json.dumps(request.getfixturevalue("forward_payload")))
        argv = ["predict", "--model", str(model), "--direction", "forward", "--input", str(path),
                "--out", str(out)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


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


LONG = "x" * 100_000


@pytest.mark.parametrize("row_3,row_4,message", [
    ({}, {1: LONG}, "unknown environment label 'xxx"),
    ({}, {5: LONG}, "unknown rate unit 'xxx"),
    ({}, {4: "", 6: LONG}, "unknown grade letter 'xxx"),
    ({}, {7: LONG}, "unparseable numeric cell 'xxx"),
    ({}, {0: LONG, 2: "-300"}, "sample xxx"),
    ({0: LONG}, {0: LONG}, "duplicate sample id 'xxx"),
], ids=["environment-label", "rate-unit", "grade", "element-cell", "sample-id",
        "sample-id-repeated"])
def test_a_refusal_quotes_a_bounded_part_of_a_long_cell(tmp_path, capsys, row_3, row_4,
                                                         message):
    # a refusal quotes at most schema.QUOTED_CHARS characters of a cell, then
    # the length of what it quotes, and still names the row
    rows = [["id", "env", "temp_c", "duration_days", "rate", "rate_unit", "grade", "Al", "Mg"]]
    for i, cells in enumerate(({}, row_3, row_4), start=2):
        rows.append([f"s{i}", "brackish-water", "25.0", "30.0", "1.0", "mpy", "", "95.0", "5.0"])
        for column, text in cells.items():
            rows[-1][column] = text
    path = tmp_path / "long.csv"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert cli.main(["ingest", "--input", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert len(err.encode()) < 1024, err[:2000]
    quoted = len(LONG) if message == "sample xxx" else len(repr(LONG))
    assert f"row 4: {message}" in err and f"… ({quoted} characters)" in err, err
    assert "row 3:" not in err, err


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


def test_payload_without_callables_is_written_in_one_piece():
    payload = dataset_to_dict(generate_synthetic(331, seed=0))
    pieces = []
    cli._write_json_value(payload, pieces.append)
    assert pieces == [json.dumps(payload, sort_keys=True, separators=(",", ":"),
                                 allow_nan=False)]


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


@pytest.mark.parametrize("units", ["at", "wt"])
def test_predict_forward_matches_library(workspace, tmp_path, units):
    # with --units wt, the query rows are converted to at% as they are read,
    # as parse_csv converts them
    out = tmp_path / "m"
    assert cli.main(["train-forward", "--dataset", workspace["dataset"], "--model", "rf",
                     "--seed", "4", "--config", workspace["config"], "--out", str(out)]) == 0
    queries = _dump_csv(generate_synthetic(8, seed=21), tmp_path / "q.csv", drop_rates=True)
    pred_out = tmp_path / "p"
    assert cli.main(["predict", "--model", str(out / "model.json"), "--direction",
                     "forward", "--input", queries, "--units", units,
                     "--out", str(pred_out)]) == 0
    rows = _read_rows(pred_out / "predictions.csv")
    assert rows[0] == ["sample_id", "predicted_mpy"]
    assert len(rows) == 9

    from corrml.dataset import parse_csv
    from corrml.preprocess import build_features
    from corrml.trees import forest_from_dict, predict_forest
    with open(out / "model.json") as fh:
        payload = json.load(fh)
    ds = parse_csv(queries, units=units, require_rate=False)
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


def test_inverse_predict_refuses_weight_units(inverse_run, tmp_path, capsys):
    # an inverse query lists only Al, Si and Mg, so wt% cannot be converted to at%
    model = tmp_path / "ensemble.json"
    model.write_text(json.dumps(inverse_run["payload"]))
    argv = ["predict", "--model", str(model), "--direction", "inverse",
            "--input", inverse_run["csv"], "--out", str(tmp_path / "o")]
    assert cli.main(argv + ["--units", "wt"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --units wt does not apply to --direction inverse: ")
    assert "Al, Si and Mg" in err and not (tmp_path / "o").exists()
    assert cli.main(argv + ["--units", "at"]) == 0


def _quick_argv(command, workspace, inverse_run, forward_payload, tmp_path):
    """The arguments but --out of a quick run of `command`: a command name,
    "train-forward-loggpr" (plain "train-forward" fits rf), or
    "predict-forward" or "predict-inverse". The files it reads that no
    fixture holds are written into tmp_path."""
    (tmp_path / "model.json").write_text(json.dumps(forward_payload))
    (tmp_path / "ensemble.json").write_text(json.dumps(inverse_run["payload"]))
    (tmp_path / "metrics.csv").write_text("model,feature_set,r2,mae,rmse\nrf,comp,0.5,1,2\n")
    (tmp_path / "pairs.csv").write_text("model,feature_set,sample_id,true,predicted\n"
                                        "rf,comp,s1,1.0,2.0\n")
    quick = ["--config", workspace["config"]]
    train = ["train-forward", "--dataset", workspace["dataset"], *quick, "--model"]
    return {
        "ingest": ["ingest", "--input", workspace["csv"]],
        "train-forward": [*train, "rf"],
        "train-forward-loggpr": [*train, "loggpr"],
        "train-inverse": ["train-inverse", "--dataset", inverse_run["dataset"], *quick],
        "compare-forward": ["compare-forward", "--dataset", workspace["dataset"], *quick],
        "predict-forward": ["predict", "--model", str(tmp_path / "model.json"),
                            "--direction", "forward", "--input", workspace["csv"]],
        "predict-inverse": ["predict", "--model", str(tmp_path / "ensemble.json"),
                            "--direction", "inverse", "--input", inverse_run["csv"]],
        "report": ["report", "--metrics", str(tmp_path / "metrics.csv"),
                   "--pairs", str(tmp_path / "pairs.csv")],
    }[command]


@pytest.mark.parametrize("command", ["ingest", "train-forward", "train-inverse",
                                     "compare-forward", "predict-forward", "predict-inverse",
                                     "report"])
def test_an_output_whose_path_is_taken_exits_one_naming_it(workspace, inverse_run,
                                                            forward_payload, tmp_path, capsys,
                                                            command):
    # a folder at an output's path fails that file's write, whichever output
    # it is; which files written before it stay is left open here
    argv = _quick_argv(command, workspace, inverse_run, forward_payload, tmp_path)
    assert cli.main(argv + ["--out", str(tmp_path / "all")]) == 0
    names = sorted(os.listdir(tmp_path / "all"))
    assert f"{argv[0]}.config.json" in names and len(names) >= 2
    capsys.readouterr()
    for k, name in enumerate(names):
        out = tmp_path / f"o{k}"
        (out / name).mkdir(parents=True)
        assert cli.main(argv + ["--out", str(out)]) == 1, name
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out / name) in err, err
        assert not [f for _, _, files in os.walk(out) for f in files if f.endswith(".partial")]


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


def _diverged(X, y, seed, params):
    raise TrainingError("NLML diverged")


@pytest.mark.parametrize("workers", [1, 2])
def test_compare_cell_failures_keep_their_exit_code_and_message(workspace, tmp_path, capsys,
                                                                monkeypatch, workers):
    monkeypatch.setattr(jobs, "_worker_count", lambda n_jobs: workers)
    bad_lr = tmp_path / "bad-lr.json"
    bad_lr.write_text(json.dumps({"model_params": {**QUICK_CONFIG["model_params"],
                                                   "dnn": {"lr": -1.0}}}))
    argv = ["compare-forward", "--dataset", workspace["dataset"], "--out", str(tmp_path / "o")]
    assert cli.main(argv + ["--config", str(bad_lr)]) == 1
    assert capsys.readouterr().err == "error: lr must be finite and > 0\n"
    monkeypatch.setitem(FAMILIES, "gpr", FAMILIES["gpr"]._replace(fit=_diverged))
    assert cli.main(argv + ["--config", workspace["config"]]) == 2
    assert capsys.readouterr().err == "training failure: NLML diverged\n"
    assert not (tmp_path / "o").exists()
    assert no_children()


def test_compare_worker_killed_exits_two_naming_the_lost_cells(workspace, tmp_path, capsys,
                                                              monkeypatch):
    # a worker killed by a signal, as the kernel's OOM killer would, breaks the pool
    fit = evaluation._fit_predict_cell

    def killed_on_gpr(family, *args):
        if family == "gpr":
            os.kill(os.getpid(), signal.SIGKILL)
        return fit(family, *args)

    monkeypatch.setattr(evaluation, "_fit_predict_cell", killed_on_gpr)  # forked workers inherit it
    monkeypatch.setattr(jobs, "_worker_count", lambda n_jobs: 2)
    assert cli.main(["compare-forward", "--dataset", workspace["dataset"], "--config",
                     workspace["config"], "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    head, tail = "training failure: a worker process ended abruptly; the cells ", " were lost\n"
    assert err.startswith(head) and err.endswith(tail) and err.count("\n") == 1, err
    # the cells whose worker was killed, and any left with no worker to run them, in job order
    lost = err[len(head):-len(tail)].split(", ")
    cells = [f"{m} on {f}" for f in ("comp", "comp+env") for m in FAMILIES]
    assert "gpr on comp" in lost and lost == [c for c in cells if c in lost], lost
    assert not (tmp_path / "o").exists()
    assert no_children()


@pytest.mark.parametrize("workers", [1, 2])
def test_inverse_bad_gbm_setting_exits_one_on_any_worker_count(inverse_run, tmp_path, capsys,
                                                               monkeypatch, workers):
    # the forest jobs fail too, and as soon; the gbm job comes first in job order
    monkeypatch.setattr(jobs, "_worker_count", lambda n_jobs: workers)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"inverse_params": {"rf": {"n_estimators": 0},
                                                  "gbm": {"learning_rate": -1.0}}}))
    assert cli.main(["train-inverse", "--dataset", inverse_run["dataset"], "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: learning_rate must be > 0\n"
    assert not (tmp_path / "o").exists()
    assert no_children()


def test_inverse_worker_killed_exits_two_naming_the_lost_jobs(inverse_run, tmp_path, capsys,
                                                             monkeypatch):
    forest_job = inverse._forest_job

    def killed_on_base(seeds, train, *args):
        if train[0].shape[1] == 5:  # the base subset's X: rate, env, at% Al, Si, Mg
            os.kill(os.getpid(), signal.SIGKILL)
        return forest_job(seeds, train, *args)

    monkeypatch.setattr(inverse, "_forest_job", killed_on_base)  # forked workers inherit it
    monkeypatch.setattr(jobs, "_worker_count", lambda n_jobs: 2)
    assert cli.main(["train-inverse", "--dataset", inverse_run["dataset"], "--config",
                     inverse_run["config"], "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    head, tail = "training failure: a worker process ended abruptly; the jobs ", " were lost\n"
    assert err.startswith(head) and err.endswith(tail) and err.count("\n") == 1, err
    lost = err[len(head):-len(tail)].split(", ")
    order = ["gbm", *inverse.SUBMODEL_SETS]
    assert "base" in lost and lost == [j for j in order if j in lost], lost
    assert not (tmp_path / "o").exists()
    assert no_children()


def _python(code: str, cwd=None) -> subprocess.CompletedProcess:
    """`code` run by a new Python process that imports this checkout's corrml."""
    return subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=cwd,
                          capture_output=True, text=True)


def test_compare_cell_killed_on_one_worker_exits_two_naming_the_lost_cells(workspace,
                                                                          tmp_path):
    # one worker forks too, so a killed cell costs only itself; the command
    # runs in a child, which a cell run in its own process would take down
    argv = ["compare-forward", "--dataset", workspace["dataset"], "--config",
            workspace["config"], "--out", str(tmp_path / "o")]
    result = _python(
        "import os, signal, sys\n"
        "from corrml import cli, evaluation, jobs\n"
        "jobs._worker_count = lambda n_jobs: 1\n"
        "fit = evaluation._fit_predict_cell\n"
        "def killed_on_gpr(family, *args):\n"
        "    if family == 'gpr':\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return fit(family, *args)\n"
        "evaluation._fit_predict_cell = killed_on_gpr\n"
        f"sys.exit(cli.main({argv!r}))\n")
    assert (result.returncode, result.stderr) == (
        2, "training failure: a worker process ended abruptly; the cells gpr on comp, "
           "gpr on comp+env were lost\n"), result
    assert not (tmp_path / "o").exists()


def test_one_usable_cpu_writes_the_bytes_of_every_usable_cpu(workspace, inverse_run,
                                                             tmp_path):
    # each run is a child with the real _worker_count; the pinned one has one
    # worker, so its jobs run one at a time, each in a process of its own
    commands = [["train-inverse", "--dataset", inverse_run["dataset"], "--config",
                 inverse_run["config"], "--out", "inv"],
                ["compare-forward", "--dataset", workspace["dataset"], "--config",
                 workspace["config"], "--out", "cmp"]]
    pins = {"all": "", "one": "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})"}
    outputs = {}
    for run, pin in pins.items():
        (tmp_path / run).mkdir()
        result = _python(f"import os; {pin}\n"
                         "from corrml import cli, jobs\n"
                         "print(jobs._worker_count(8))\n"
                         f"assert all(cli.main(argv) == 0 for argv in {commands!r})\n",
                         cwd=tmp_path / run)
        assert result.returncode == 0, result
        outputs[run] = {str(p.relative_to(tmp_path / run)): p.read_bytes()
                        for p in sorted((tmp_path / run).rglob("*")) if p.is_file()}
        if pin:
            assert result.stdout == "1\n"
    assert {"inv/ensemble.json", "cmp/compare_pairs.csv"} <= set(outputs["one"])
    assert outputs["one"] == outputs["all"]


def test_inverse_with_no_boosting_rounds_trains_and_predicts(inverse_run, tmp_path, monkeypatch):
    # every GBM is its initial value: an empty tree table, sent from a worker
    monkeypatch.setattr(jobs, "_worker_count", lambda n_jobs: 2)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**QUICK_CONFIG, "inverse_params": {
        **QUICK_CONFIG["inverse_params"], "gbm": {"n_rounds": 0}}}))
    assert cli.main(["train-inverse", "--dataset", inverse_run["dataset"], "--config", str(cfg),
                     "--out", str(tmp_path / "inv")]) == 0
    with open(tmp_path / "inv" / "ensemble.json") as fh:
        submodels = json.load(fh)["ensemble"]["submodels"]
    gbms = [m for sub in submodels.values() if sub for m in sub["gbm"]["models"]]
    assert gbms and all(m["stages"] == [] for m in gbms)
    assert cli.main(["predict", "--model", str(tmp_path / "inv" / "ensemble.json"),
                     "--direction", "inverse", "--input", inverse_run["csv"],
                     "--out", str(tmp_path / "pred")]) == 0
    rows = _read_rows(tmp_path / "pred" / "predictions.csv")
    assert len(rows) == 1 + 60 * 6
    assert all(0.0 <= float(r[2]) <= 100.0 for r in rows[1:])
    assert no_children()


# run configs of the one-path test by test-id suffix: the quick config, and
# the same under a protocol that clips rates at 30 mpy and tests on 30 % of rows
ONE_PATH_CONFIGS = {"": QUICK_CONFIG,
                    "-clip30": {**QUICK_CONFIG, "cap_mode": "clip", "cap_threshold": 30.0,
                                "test_fraction": 0.3}}


@pytest.fixture(scope="module")
def compared(workspace, tmp_path_factory):
    """`compared(suffix)`: the config file of a ONE_PATH_CONFIGS entry and the
    compare-forward rows under it on the workspace data, keyed by (model,
    feature set); each comparison runs once per module."""
    @functools.cache
    def run(suffix):
        root = tmp_path_factory.mktemp("cmp")
        cfg = root / "config.json"
        cfg.write_text(json.dumps(ONE_PATH_CONFIGS[suffix]))
        out = root / "out"
        assert cli.main(["compare-forward", "--dataset", workspace["dataset"], "--seed", "4",
                         "--config", str(cfg), "--out", str(out)]) == 0
        metrics = {tuple(r[:2]): r for r in _read_rows(out / "compare_metrics.csv")[1:]}
        pairs: dict = {}
        for r in _read_rows(out / "compare_pairs.csv")[1:]:
            pairs.setdefault(tuple(r[:2]), []).append(r)
        return str(cfg), metrics, pairs

    return run


@pytest.mark.parametrize("family,features,suffix", [
    pytest.param(family, features, suffix, id=f"{family}-{features}{suffix}")
    for suffix in ONE_PATH_CONFIGS for family in FAMILIES for features in ("comp", "comp+env")])
def test_train_compare_and_predict_share_one_path(workspace, compared, tmp_path,
                                                   family, features, suffix):
    config, metrics, pairs = compared(suffix)
    out = tmp_path / "tf"
    assert cli.main(["train-forward", "--dataset", workspace["dataset"], "--model", family,
                     "--features", features, "--seed", "4", "--config", config,
                     "--out", str(out)]) == 0
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


@pytest.mark.parametrize("family,features,back_transform", [
    ("rf", "comp", None), ("dnn", "comp+env", None), ("gpr", "comp+env", None),
    ("loggpr", "comp+env", "median"), ("loggpr", "comp+env", "mean")],
    ids=["rf", "dnn", "gpr", "loggpr", "loggpr-mean"])
def test_forward_model_file_round_trip(workspace, tmp_path, family, features, back_transform):
    # a train-forward model file read through forward_model_from_dict
    # writes its own bytes again and scores pairs.csv's test rows; its
    # preprocessing records the feature set, the cap, the seed and the
    # scaler fit on the training rows
    config = copy.deepcopy(QUICK_CONFIG)
    config["model_params"]["loggpr"]["back_transform"] = back_transform or "median"
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "tf"
    assert cli.main(["train-forward", "--dataset", workspace["dataset"], "--model", family,
                     "--features", features, "--seed", "3", "--config",
                     str(tmp_path / "config.json"), "--out", str(out)]) == 0
    path = str(out / "model.json")
    model = forward_model_from_dict(cli.read_json(path, object_hook=node_arrays), path)
    cli.write_json(str(tmp_path / "again.json"), model.to_dict("drop", 100.0, 3))
    assert (tmp_path / "again.json").read_bytes() == (out / "model.json").read_bytes()

    pairs = _read_rows(out / "pairs.csv")[1:]
    samples = cap_target(cli._load_dataset(workspace["dataset"]).samples, 100.0, "drop")
    fm, _ = build_features(Dataset(samples=samples), features)
    test = [fm.sample_ids.index(r[2]) for r in pairs]
    assert list(map(repr, model.predict(fm.values[test]).tolist())) == [r[4] for r in pairs]

    with open(path) as fh:
        preprocess = json.load(fh)["preprocess"]
    train = [i for i in range(len(fm.sample_ids)) if i not in test]
    assert preprocess == {"feature_set": features, "columns": feature_columns(features),
                          "cap_mode": "drop", "cap_threshold": 100.0, "seed": 3,
                          "scaler": None if family == "rf" else
                          fit_scaler(fm.values[train]).to_dict()}
    assert len(preprocess["columns"]) == {"comp": 32, "comp+env": 41}[features]


@pytest.mark.parametrize("family", ["gpr", "loggpr"])
def test_a_gp_over_the_training_row_bound_is_refused(workspace, trained, tmp_path, capsys,
                                                      monkeypatch, family):
    # a model file over the bound is refused at load, and training rows over
    # it at fit; a model at the bound loads
    payload = trained(family)
    n = len((payload["model"] if family == "gpr" else payload["model"]["inner"])["x_train"])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    argv = ["predict", "--model", str(path), "--direction", "forward", "--input",
            workspace["csv"]]
    refusal = f"a GP model takes at most {n - 1} training rows, got {n}"
    monkeypatch.setattr(gpr, "MAX_TRAIN_ROWS", n - 1)
    assert cli.main([*argv, "--out", str(tmp_path / "over")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: model file key 'model'") and refusal in err, err
    assert not (tmp_path / "over" / "predictions.csv").exists()

    assert cli.main(["train-forward", "--dataset", workspace["dataset"], "--model", family,
                     "--config", workspace["config"], "--out", str(tmp_path / "tf")]) == 1
    assert capsys.readouterr().err == f"error: {refusal}\n"
    assert not (tmp_path / "tf" / "model.json").exists()

    monkeypatch.setattr(gpr, "MAX_TRAIN_ROWS", n)
    assert cli.main([*argv, "--out", str(tmp_path / "at")]) == 0
    assert (tmp_path / "at" / "predictions.csv").exists()


@pytest.fixture(scope="module")
def trained(workspace, tmp_path_factory):
    """`trained(family)`: the model.json payload of a quick-config
    train-forward run of `family` on the workspace data, trained once per
    module."""
    @functools.cache
    def run(family):
        out = tmp_path_factory.mktemp(f"{family}model")
        assert cli.main(["train-forward", "--dataset", workspace["dataset"], "--model", family,
                         "--config", workspace["config"], "--out", str(out)]) == 0
        with open(out / "model.json") as fh:
            return json.load(fh)

    return run


@pytest.fixture(scope="module")
def forward_payload(trained):
    return trained("rf")


def _without(payload, key):
    return {k: v for k, v in payload.items() if k != key}


@pytest.mark.parametrize("direction,edit,key", [
    ("forward", lambda p: {**p, "family": "gbm"}, "'family'"),
    ("forward", lambda p: {**p, "family": "svm"}, "'family'"),
    ("forward", lambda p: _without(p, "family"), "'family'"),
    ("forward", lambda p: _without(p, "preprocess"), "'preprocess'"),
    ("forward", lambda p: [1], "root"),
    ("inverse", lambda p: {"kind": "inverse-model",
                           "environment_names": list(DEFAULT_ENVIRONMENTS)}, "'ensemble'"),
    ("inverse", lambda p: {"kind": "inverse-model", "ensemble": {}}, "'environment_names'"),
    ("forward", lambda p: {**p, "environment_names": [7] + p["environment_names"][1:]},
     "'environment_names'"),
    ("forward", lambda p: {**p, "environment_names": p["environment_names"][:8]},
     "'environment_names'"),
    ("forward", lambda p: {**p, "feature_set": "comp+xyz"}, "'feature_set'"),
    ("inverse", lambda p: {"kind": "inverse-model", "ensemble": {},
                           "environment_names": ["seawater"] * 9}, "'environment_names'"),
    ("inverse", lambda p: {"kind": "inverse-model", "ensemble": {},
                           "environment_names": list(DEFAULT_ENVIRONMENTS)[:8]},
     "'environment_names'"),
], ids=["family-gbm", "family-svm", "no-family", "no-preprocess", "root-array", "no-ensemble",
        "no-environment-names", "environment-name-int", "eight-environment-names",
        "feature-set-unknown", "inverse-environment-names-repeated",
        "inverse-eight-environment-names"])
def test_predict_rejects_bad_model_file(workspace, forward_payload, tmp_path, capsys,
                                        direction, edit, key):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(edit(forward_payload)))
    rc = cli.main(["predict", "--model", str(path), "--direction", direction,
                   "--input", workspace["csv"], "--out", str(tmp_path / "p")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and key in err and "Traceback" not in err, err


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
        return {"csv": data, "payload": json.load(fh), "config": str(cfg),
                "dataset": str(root / "ds" / "dataset.json")}


def _edit_first_tree(payload, edit):
    """A copy of an inverse payload whose first forest tree is `edit(tree)`."""
    payload = json.loads(json.dumps(payload))
    sub = next(s for s in payload["ensemble"]["submodels"].values() if s is not None)
    trees = sub["forest"]["models"][0]["trees"]
    trees[0] = edit(trees[0])
    return payload


def _model_text(payload):
    """`payload` as model-file text. JSON has no token for an infinity, so
    one is written as an overflowing literal, which read_json refuses before
    any key is read."""
    return json.dumps(payload).replace("Infinity", "1e999")


def _with_model(payload, edit):
    return {**payload, "model": edit(payload["model"])}


def _unit_scaler(payload):
    """A scaler that leaves each of the payload's feature columns as it is."""
    n = len(payload["preprocess"]["columns"])
    return {"means": [0.0] * n, "stds": [1.0] * n, "constant": [False] * n}


@pytest.mark.parametrize("source,edit,keys", [
    ("rf", lambda p: {**p, "preprocess": {**p["preprocess"], "scaler": {
        "stds": [], "constant": []}}},
     ("'preprocess.scaler'", "'means'")),
    ("rf", lambda p: _with_model(p, lambda m: _without(m, "trees")),
     ("'model'", "'trees'")),
    ("rf", lambda p: _with_model(p, lambda m: {**m, "trees": [
        {**m["trees"][0], "threshold": "high"}] + m["trees"][1:]}),
     ("'model'", "malformed")),
    ("inverse", lambda p: _edit_first_tree(p, lambda t: _without(t, "threshold")),
     ("'ensemble'", "'threshold'")),
    ("rf", lambda p: _with_model(p, lambda m: {**m, "trees": [
        {**m["trees"][0], "left": [10 ** 30] + m["trees"][0]["left"][1:]}] + m["trees"][1:]}),
     ("'model'", "malformed")),
    ("rf", lambda p: _with_model(p, lambda m: {**m, "trees": [
        {**m["trees"][0], "left": [2 ** 31] + m["trees"][0]["left"][1:]}] + m["trees"][1:]}),
     ("'model'", "'left'", "int")),
    ("rf", lambda p: {**p, "preprocess": {**p["preprocess"], "scaler": _unit_scaler(p)}},
     ("'preprocess.scaler'", "null", "'rf'")),
    # each of these once ended in a traceback, or (max-depth-string) was taken
    ("rf", lambda p: _with_model(p, lambda m: {**m, "trees": "x"}),
     ("'model'", "['trees']: must be a list, got 'x'")),
    ("rf", lambda p: _with_model(p, lambda m: {**m, "trees": [[1]] + m["trees"][1:]}),
     ("'model'", "['trees'][0]: must be an object, got [1]")),
    ("gpr", lambda p: _with_model(p, lambda m: {**m, "kernel": "x"}),
     ("'model'", "['kernel']: must be an object, got 'x'")),
    ("gpr", lambda p: _with_model(p, lambda m: {**m, "kernel": None}),
     ("'model'", "['kernel']: must be an object, got None")),
    ("loggpr", lambda p: _with_model(p, lambda m: {**m, "inner": []}),
     ("'model'", "['inner']: must be an object, got []")),
    ("inverse", lambda p: _edit_ensemble(p, _base(lambda s: s.update(forest="x"))),
     ("'ensemble'", "['submodels']['base']['forest']: must be an object, got 'x'")),
    ("inverse", lambda p: _edit_ensemble(p, _base(lambda s: s["gbm"]["models"][0].update(
        stages="x"))),
     ("'ensemble'", "['submodels']['base']['gbm']['models'][0]['stages']: must be a list")),
    ("inverse", lambda p: _edit_ensemble(p, _base(lambda s: s.update(validation_r2=[]))),
     ("'ensemble'", "['submodels']['base']['validation_r2']: must be a list of 2 items")),
    ("rf", lambda p: _with_model(p, lambda m: {**m, "trees": [
        {**m["trees"][0], "max_depth": "x"}] + m["trees"][1:]}),
     ("'model'", "['trees'][0]['max_depth']: must be an integer >= 0, got 'x'")),
    # the recorded preprocessing names another feature set than the file's
    ("loggpr", lambda p: {**p, "preprocess": {**p["preprocess"], "feature_set": "comp"}},
     ("'preprocess.feature_set'", "'comp+env'")),
    ("loggpr", lambda p: {**p, "preprocess": {**p["preprocess"],
                                              "columns": p["preprocess"]["columns"][:3]}},
     ("'preprocess.columns'", "'comp+env'")),
], ids=["scaler-no-means", "forest-no-trees", "tree-bad-threshold", "tree-no-threshold",
        "tree-index-beyond-int64", "tree-index-beyond-int32", "rf-with-scaler",
        "rf-trees-string", "rf-tree-list", "gpr-kernel-string", "gpr-kernel-null",
        "loggpr-inner-list", "inverse-forest-string", "gbm-stages-string",
        "validation-r2-empty", "max-depth-string", "preprocess-feature-set-differs",
        "preprocess-columns-differ"])
def test_predict_rejects_incomplete_model_state(workspace, trained, inverse_run, tmp_path,
                                                capsys, source, edit, keys):
    # `source` is the family of the forward model file edited, or "inverse"
    direction, payload, queries = (
        ("inverse", inverse_run["payload"], inverse_run["csv"]) if source == "inverse"
        else ("forward", trained(source), workspace["csv"]))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(edit(payload)))
    rc = cli.main(["predict", "--model", str(path), "--direction", direction,
                   "--input", queries, "--out", str(tmp_path / "p")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err
    assert all(key in err for key in keys), err


def _edit_ensemble(payload, edit):
    """A copy of an inverse payload whose "ensemble" state is edited in place."""
    payload = json.loads(json.dumps(payload))
    edit(payload["ensemble"])
    return payload


def _base(edit):
    return lambda ens: edit(ens["submodels"]["base"])


def _swap_pair(sub):
    sub["forest"], sub["gbm"] = sub["gbm"], sub["forest"]


def _swap_submodels(ens):
    subs = ens["submodels"]
    subs["base"], subs["base+dur"] = subs["base+dur"], subs["base"]


@pytest.mark.parametrize("direction,edit,keys", [
    ("inverse", lambda p: _edit_ensemble(p, _base(lambda s: s.update(
        weights=[math.inf, 0.5]))), ("'1e999'",)),
    ("inverse", lambda p: _edit_ensemble(p, _base(lambda s: s.update(weights=[5.0, -4.0]))),
     ("'base'", "'weights'")),
    ("inverse", lambda p: _edit_ensemble(p, _base(lambda s: s["gbm"]["models"][0].update(
        learning_rate=math.inf))), ("'1e999'",)),
    ("inverse", lambda p: _edit_ensemble(p, _base(lambda s: s["gbm"]["models"][0].update(
        init_value=float("inf")))), ("'1e999'",)),
    ("inverse", lambda p: _edit_ensemble(p, _base(lambda s: s["forest"]["models"][0].update(
        trees=[]))), ("'trees'",)),
    ("forward", lambda p: _with_model(p, lambda m: {**m, "trees": []}), ("'trees'",)),
    ("inverse", lambda p: _edit_ensemble(p, lambda e: e["submodels"].update(base=None)),
     ("'base'",)),
    ("inverse", lambda p: _edit_ensemble(p, lambda e: e["submodels"].update(
        {"base+temp": e["submodels"]["base"]})), ("'base+temp'",)),
    ("inverse", lambda p: _edit_ensemble(p, _base(_swap_pair)), ("'base'", "'forest'")),
    ("inverse", lambda p: _edit_ensemble(p, _base(lambda s: s["forest"]["models"].pop())),
     ("'models'", "'target_names'")),
    ("inverse", lambda p: _edit_ensemble(p, lambda e: e.update(target_names=["Zn"])),
     ("'target_names'",)),
    ("inverse", lambda p: _edit_ensemble(p, _swap_submodels), ("'base'", "6 features", "has 5")),
    ("inverse", lambda p: _edit_ensemble(p, lambda e: e["submodels"]["base+dur"].update(
        feature_set="base")), ("'base+dur'", "'feature_set'")),
    ("forward", lambda p: {**p, "feature_set": "comp"}, ("41 features", "'comp' has 32")),
    ("forward", lambda p: _with_model(p, lambda m: {**m, "trees": [
        {**m["trees"][0], "n_features": 50}] + m["trees"][1:]}),
     ("'n_features' 41", "50 features")),
], ids=["weights-inf", "weights-not-convex", "gbm-learning-rate-inf", "gbm-init-value-inf",
        "forest-no-trees", "rf-model-no-trees", "base-null", "unknown-submodel",
        "pair-slots-swapped", "target-model-missing", "target-names-short",
        "submodels-swapped", "feature-set-mislabelled", "rf-narrower-feature-set",
        "rf-tree-wider"])
def test_predict_rejects_inconsistent_ensemble(workspace, forward_payload, inverse_run,
                                               tmp_path, capsys, direction, edit, keys):
    payload, queries = ((forward_payload, workspace["csv"]) if direction == "forward"
                        else (inverse_run["payload"], inverse_run["csv"]))
    path = tmp_path / "model.json"
    text = _model_text(edit(payload))
    path.write_text(text)
    rc = cli.main(["predict", "--model", str(path), "--direction", direction,
                   "--input", queries, "--out", str(tmp_path / "p")])
    assert rc == 1
    err = capsys.readouterr().err
    # an overflowing literal stops in read_json, before any key is read
    where = "" if "1e999" in text else (
        "model file key " + ("'ensemble'" if direction == "inverse" else "'model'"))
    assert err.startswith(f"error: {path}: {where}") and "Traceback" not in err
    assert all(key in err for key in keys), err
    assert not (tmp_path / "p" / "predictions.csv").exists()


@pytest.fixture(scope="module")
def loggpr_payload(trained):
    return trained("loggpr")


def _with_inner(payload, key, value):
    model = payload["model"]
    return {**payload, "model": {**model, "inner": {**model["inner"], key: value}}}


def _with_scaler(payload, edit):
    preprocess = payload["preprocess"]
    return {**payload, "preprocess": {**preprocess, "scaler": edit(preprocess["scaler"])}}


@pytest.mark.parametrize("edit,keys", [
    (lambda p: _with_inner(p, "noise_variance", math.inf), ("'1e999'",)),
    (lambda p: _with_inner(p, "noise_variance", -5.0), ("'model'", "noise_variance")),
    (lambda p: _with_inner(p, "mean", -math.inf), ("'-1e999'",)),
    (lambda p: {**p, "model": {**p["model"], "epsilon": -1.0}}, ("'model'", "epsilon")),
    (lambda p: {**p, "model": {**p["model"], "back_transform": "mode"}},
     ("'model'", "back_transform")),
    (lambda p: _with_scaler(p, lambda s: {**s, "stds": [0.0] + s["stds"][1:]}),
     ("'preprocess.scaler'", "stds")),
    (lambda p: _with_scaler(p, lambda s: {**s, "stds": [-1.0] + s["stds"][1:]}),
     ("'preprocess.scaler'", "stds")),
    (lambda p: _with_scaler(p, lambda s: {**s, "means": s["means"][1:]}),
     ("'preprocess.scaler'", "one length")),
    (lambda p: _with_scaler(p, lambda s: {k: v[1:] for k, v in s.items()}),
     ("'preprocess.scaler'", "columns")),
    (lambda p: _with_scaler(p, lambda s: None), ("'preprocess.scaler'", "an object", "'loggpr'")),
    (lambda p: {**p, "family": "dnn", "model": {
        "kind": "dnn", "weights": [[[0.0, 0.0]] * len(p["preprocess"]["columns"])],
        "biases": [[0.0, 0.0]], "activations": ["identity"]}}, ("'model'", "'weights'", "got 2")),
], ids=["noise-variance-inf", "noise-variance-negative", "mean-minus-inf", "epsilon-negative",
        "back-transform-unknown", "scaler-std-zero", "scaler-std-negative",
        "scaler-means-short", "scaler-narrower", "scaler-null", "dnn-two-outputs"])
def test_predict_rejects_bad_gp_or_scaler_state(workspace, loggpr_payload, tmp_path, capsys,
                                                edit, keys):
    path = tmp_path / "model.json"
    path.write_text(_model_text(edit(loggpr_payload)))
    rc = cli.main(["predict", "--model", str(path), "--direction", "forward",
                   "--input", workspace["csv"], "--out", str(tmp_path / "p")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err
    assert all(key in err for key in keys), err
    assert not (tmp_path / "p" / "predictions.csv").exists()


@pytest.mark.parametrize("family", list(FAMILIES))
def test_predict_rejects_model_of_another_width(workspace, tmp_path, capsys, family):
    out = tmp_path / "m"
    assert cli.main(["train-forward", "--dataset", workspace["dataset"], "--model", family,
                     "--config", workspace["config"], "--out", str(out)]) == 0
    with open(out / "model.json") as fh:
        payload = json.load(fh)
    # 'comp' has 32 of the 41 columns the model was trained on; a scaler cut
    # to match leaves only the model's own width to disagree
    scaler = payload["preprocess"]["scaler"]
    if scaler is not None:
        scaler = {key: values[:32] for key, values in scaler.items()}
    payload = {**payload, "feature_set": "comp",
               "preprocess": {**payload["preprocess"], "scaler": scaler}}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    rc = cli.main(["predict", "--model", str(path), "--direction", "forward",
                   "--input", workspace["csv"], "--out", str(tmp_path / "p")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == (f"error: {path}: model file key 'model' takes 41 features, "
                   f"feature set 'comp' has 32\n"), err
    assert not (tmp_path / "p" / "predictions.csv").exists()


def _first_tree_set(tree, key, value):
    assert tree["feature"][0] != -1, "the edits below need a root that splits"
    return {**tree, key: [value] + tree[key][1:]}


@pytest.mark.parametrize("direction,edit,keys", [
    ("forward", lambda p: _with_model(p, lambda m: {**m, "trees": [
        _first_tree_set(m["trees"][0], "left", 0)] + m["trees"][1:]}),
     ("'model'", "'left'")),
    ("forward", lambda p: _with_model(p, lambda m: {**m, "trees": [
        _first_tree_set(m["trees"][0], "right", 10 ** 6)] + m["trees"][1:]}),
     ("'model'", "'right'")),
    ("forward", lambda p: _with_model(p, lambda m: {**m, "trees": [
        _first_tree_set(m["trees"][0], "feature", 99)] + m["trees"][1:]}),
     ("'model'", "'feature'")),
    ("inverse", lambda p: _edit_first_tree(p, lambda t: _first_tree_set(t, "left", 0)),
     ("'ensemble'", "'left'")),
], ids=["root-left-to-root", "child-out-of-range", "feature-99", "ensemble-root-left-to-root"])
def test_predict_rejects_malformed_tree_within_timeout(workspace, forward_payload, inverse_run,
                                                       tmp_path, direction, edit, keys):
    # a child pointing back at the root once made the descent loop forever,
    # so the command runs in its own process, under a timeout
    payload, queries = ((forward_payload, workspace["csv"]) if direction == "forward"
                        else (inverse_run["payload"], inverse_run["csv"]))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(edit(payload)))
    result = subprocess.run(
        [sys.executable, "-m", "corrml.cli", "predict", "--model", str(path), "--direction",
         direction, "--input", queries, "--out", str(tmp_path / "p")],
        env=child_env(), capture_output=True, text=True, timeout=60)
    assert result.returncode == 1, result.stderr
    assert result.stderr.startswith(f"error: {path}: ") and "Traceback" not in result.stderr
    assert all(key in result.stderr for key in keys), result.stderr


def _node_set(key, node, value):
    """An edit setting entry `node` (negative: from the end) of a tree's `key` list."""
    def edit(tree):
        tree[key][node] = value
    return edit


# A bad node in tree k of model j of a slot of the base submodel, and the
# message the per-tree loader it replaced gave, with the path as {path}
_BAD_NODES = {
    "feature": ("forest", 2, 3, _node_set("feature", 0, 99),
                "['forest']['models'][2]['trees'][3]: tree 'feature' of node 0 is 99: "
                "a split node's feature must lie in [0, n_features)"),
    "left": ("gbm", 1, 4, _node_set("left", 0, 0),
             "['gbm']['models'][1]['stages'][4]: tree 'left' of node 0 is 0: a leaf's left "
             "child must be -1, a split node's must follow the node and precede its right child"),
    "right": ("forest", 5, 1, _node_set("right", -1, 1),
              "['forest']['models'][5]['trees'][1]: tree 'right' of node 60 is 1: a leaf's "
              "right child must be -1, a split node's must be a node index"),
    "length": ("gbm", 4, 7, lambda tree: tree["value"].pop(),
               "['gbm']['models'][4]['stages'][7]: tree node lists 'feature', 'threshold', "
               "'left', 'right', 'value' must be nonempty and of one length"),
}


@pytest.mark.parametrize("fault", sorted(_BAD_NODES))
def test_predict_names_a_bad_node_of_an_ensemble_tree(inverse_run, tmp_path, capsys, fault):
    slot, j, k, edit, where = _BAD_NODES[fault]
    payload = json.loads(json.dumps(inverse_run["payload"]))
    model = payload["ensemble"]["submodels"]["base"][slot]["models"][j]
    edit(model["trees" if slot == "forest" else "stages"][k])
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    assert cli.main(["predict", "--model", str(path), "--direction", "inverse",
                     "--input", inverse_run["csv"], "--out", str(tmp_path / "p")]) == 1
    assert capsys.readouterr().err == (f"error: {path}: model file key 'ensemble' is malformed: "
                                       f"['submodels']['base']{where}\n")


def test_loaded_tree_models_are_node_tables(trained, inverse_run, tmp_path):
    # a loaded forest or GBM is the table fitting makes, whether the parse
    # hook packed it or the schema walk did
    rf, ensemble = tmp_path / "rf.json", tmp_path / "ensemble.json"
    rf.write_text(json.dumps(trained("rf")))
    ensemble.write_text(json.dumps(inverse_run["payload"]))
    for hook in (node_arrays, None):
        forest = forest_from_dict(cli.read_json(str(rf), object_hook=hook)["model"])
        payload = cli.read_json(str(ensemble), object_hook=hook)
        loaded = inverse.inverse_from_dict(payload["ensemble"])
        subs = [sub for sub in loaded.submodels.values() if sub is not None]
        tables = ([forest.trees] + [m.trees for sub in subs for m in sub.forest.models]
                  + [m.stages for sub in subs for m in sub.gbm.models])
        assert len(tables) == 1 + 12 * len(subs)
        assert all(type(table) is TreeTable for table in tables), hook


# one change to one tree's node lists: an entry set to a value, a list
# deleted, or a list cut short
_NODE_KEYS = ("feature", "threshold", "left", "right", "value")
_ENTRIES = (st.sampled_from([2 ** 31, -2 ** 31, 2 ** 63])
            | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=4))
_NODE_EDITS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(_NODE_KEYS), st.integers(0, 10 ** 6), _ENTRIES),
    st.tuples(st.just("delete"), st.sampled_from(_NODE_KEYS)),
    st.tuples(st.just("truncate"), st.sampled_from(_NODE_KEYS), st.integers(0, 10 ** 6)))


def _edit_nodes(tree, edit):
    tree = dict(tree)
    kind, key, *args = edit
    if kind == "delete":
        del tree[key]
    elif kind == "truncate":
        tree[key] = tree[key][:args[0] % len(tree[key])]
    else:
        values = list(tree[key])
        values[args[0] % len(values)] = args[1]
        tree[key] = values
    return tree


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


@settings(max_examples=40, deadline=timedelta(milliseconds=500))
@given(tree=st.integers(0, 4), edit=_NODE_EDITS)
def test_predict_on_mutated_tree_exits_zero_or_names_the_file(workspace, forward_payload,
                                                              mutation_dir, tree, edit):
    trees = list(forward_payload["model"]["trees"])
    trees[tree] = _edit_nodes(trees[tree], edit)
    path = mutation_dir / "model.json"
    path.write_text(json.dumps(_with_model(forward_payload, lambda m: {**m, "trees": trees})))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["predict", "--model", str(path), "--direction", "forward",
                       "--input", workspace["csv"], "--out", str(mutation_dir / "p")])
    assert rc in (0, 1), err.getvalue()
    assert rc == 0 or err.getvalue().startswith(f"error: {path}: "), err.getvalue()


# One edit at a key path drawn from a real input file, as AFL mutates valid
# inputs: a value retyped, a number changed, a key or list item deleted, or a
# list truncated or extended.
_NUMBERS = (st.sampled_from([0, 1, -1, 0.5, 2 ** 31, -2 ** 31 - 1, 2 ** 63, 1e-300, 1e300])
            | st.integers() | st.floats(allow_nan=False, allow_infinity=False))
_VALUES = (st.none() | st.booleans() | st.text(max_size=3) | _NUMBERS
           | st.sampled_from([[], {}, [1.0], {"kind": "tree"}]))


def _mutated(data, root):
    """(path, copy): the key path drawn from `root`, and a copy of `root` with
    one edit there; only the containers on the path are copied."""
    path, value = [], root
    while isinstance(value, (dict, list)) and value:
        key = data.draw(st.sampled_from([None, *(sorted(value) if isinstance(value, dict)
                                                 else range(len(value)))]))
        if key is None:
            break
        path.append(key)
        value = value[key]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    edit = data.draw(st.sampled_from(["retype"] + ["delete"] * bool(path) + ["number"] * number
                                     + ["truncate", "extend"] * isinstance(value, list)))
    if edit == "retype":
        new = data.draw(_VALUES)
    elif edit == "number":
        new = data.draw(_NUMBERS)
    elif edit == "truncate":
        new = value[:data.draw(st.integers(0, max(len(value) - 1, 0)))]
    elif edit == "extend":
        new = value + [data.draw(st.sampled_from(value) if value else _VALUES)]
    if not path:
        return path, new

    def changed(node, rest):
        node = copy.copy(node)
        if len(rest) > 1:
            node[rest[0]] = changed(node[rest[0]], rest[1:])
        elif edit == "delete":
            del node[rest[0]]
        else:
            node[rest[0]] = new
        return node

    return path, changed(root, path)


@pytest.fixture(scope="module")
def input_file(workspace, trained, inverse_run):
    """`input_file(source)`: the payload of a real input file, and the
    command that reads it with "{path}" standing for the file: a forward
    model of a family, the inverse ensemble or the workspace dataset."""
    def get(source):
        if source == "dataset":
            with open(workspace["dataset"]) as fh:
                return json.load(fh), ["train-forward", "--dataset", "{path}", "--model", "rf",
                                       "--config", workspace["config"]]
        direction, payload, queries = (
            ("inverse", inverse_run["payload"], inverse_run["csv"]) if source == "inverse"
            else ("forward", trained(source), workspace["csv"]))
        return payload, ["predict", "--model", "{path}", "--direction", direction,
                         "--input", queries]

    return get


@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(source=st.sampled_from(["rf", "dnn", "gpr", "loggpr", "inverse", "dataset"]),
       data=st.data())
def test_mutated_input_file_exits_zero_or_names_the_file(input_file, mutation_dir, source,
                                                         data):
    payload, argv = input_file(source)
    path = mutation_dir / f"{source}.json"
    path.write_text(json.dumps(_mutated(data, payload)[1]))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main([a.format(path=path) for a in argv] + ["--out", str(mutation_dir / "o")])
    assert rc in (0, 1), err.getvalue()
    assert rc == 0 or err.getvalue().startswith(f"error: {path}: "), err.getvalue()


@pytest.fixture(scope="module")
def walkthrough_rows(tmp_path_factory):
    """The rows of a small valid walkthrough CSV, header first."""
    path = _dump_csv(generate_synthetic(4, seed=3), tmp_path_factory.mktemp("rows") / "d.csv")
    return _read_rows(path)


_CELLS = st.text(max_size=6) | st.sampled_from(["", "nan", "-1", "1e400", "seawater", "x" * 131073])


@settings(max_examples=150, deadline=timedelta(seconds=1))
@given(data=st.data())
def test_edited_csv_ingests_or_names_the_file(walkthrough_rows, mutation_dir, data):
    # one edit: a cell's text, a cell dropped or added, a row dropped, a
    # header name repeated, or a byte that is not UTF-8
    rows = [list(row) for row in walkthrough_rows]
    edit = data.draw(st.sampled_from(["text", "drop-cell", "add-cell", "drop-row", "repeat",
                                      "byte"]))
    r = data.draw(st.integers(0, len(rows) - 1))
    c = data.draw(st.integers(0, len(rows[r]) - 1))
    if edit == "text":
        rows[r][c] = data.draw(_CELLS)
    elif edit == "drop-cell":
        del rows[r][c]
    elif edit == "add-cell":
        rows[r].insert(c, data.draw(_CELLS))
    elif edit == "drop-row":
        del rows[r]
    elif edit == "repeat":
        rows[0].insert(c, data.draw(st.sampled_from(rows[0])))
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    raw = text.getvalue().encode("utf-8")
    if edit == "byte":
        at = data.draw(st.integers(0, len(raw)))
        raw = raw[:at] + data.draw(st.sampled_from([b"\x80", b"\xc3", b"\xe9", b"\xff"])) + raw[at:]
    path = mutation_dir / "edited.csv"
    path.write_bytes(raw)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(["ingest", "--input", str(path), "--out", str(mutation_dir / "i")])
    assert rc in (0, 1), err.getvalue()
    assert rc == 0 or err.getvalue().startswith(f"error: {path}: "), err.getvalue()


@settings(max_examples=300, deadline=timedelta(seconds=1))
@given(data=st.data())
def test_edited_config_merges_or_names_the_key(data):
    path, config = _mutated(data, cli.default_config())
    assume(path)  # an edit at a key, not one replacing the whole config
    try:
        cli._merge_config(cli.default_config(), config)
    except ValidationError as exc:
        # the refused key is the edited one or one inside it; the merge
        # does not look into lists, so a list item's key is its list's
        keys = path[:next((i for i, k in enumerate(path) if isinstance(k, int)), len(path))]
        assert f"'{'.'.join(keys)}" in str(exc), str(exc)


def _strip_temperatures(ds):
    for s in ds.samples:
        s.temperature = s.duration = None
    return ds


@pytest.mark.parametrize("command", ["predict", "predict-inverse", "train-forward",
                                     "compare-forward"])
def test_no_usable_sample_names_the_file(workspace, inverse_run, tmp_path, capsys, command):
    out = ["--out", str(tmp_path / "o")]
    if command == "predict":
        model = tmp_path / "m"
        assert cli.main(["train-forward", "--dataset", workspace["dataset"], "--model", "rf",
                         "--features", "comp+env+temp", "--config", workspace["config"],
                         "--out", str(model)]) == 0
        path = _dump_csv(_strip_temperatures(generate_synthetic(5, seed=1)), tmp_path / "q.csv",
                         drop_rates=True)
        argv = ["predict", "--model", str(model / "model.json"), "--direction", "forward",
                "--input", path]
        message = "no samples carry the fields required by 'comp+env+temp'"
    elif command == "predict-inverse":
        model = tmp_path / "ensemble.json"
        model.write_text(json.dumps(inverse_run["payload"]))
        path = str(tmp_path / "empty.csv")
        with open(inverse_run["csv"]) as fh:
            (tmp_path / "empty.csv").write_text(fh.readline())  # the header alone
        argv = ["predict", "--model", str(model), "--direction", "inverse", "--input", path]
        message = "no sample to predict"
    elif command == "train-forward":
        data = _dump_csv(_strip_temperatures(generate_synthetic(20, seed=1)), tmp_path / "d.csv")
        assert cli.main(["ingest", "--input", data, "--out", str(tmp_path / "ds")]) == 0
        path = str(tmp_path / "ds" / "dataset.json")
        argv = ["train-forward", "--dataset", path, "--model", "rf",
                "--features", "comp+env+temp", "--config", workspace["config"]]
        message = "no samples carry the fields required by 'comp+env+temp'"
    else:
        cfg = tmp_path / "cap.json"
        cfg.write_text(json.dumps({**QUICK_CONFIG, "cap_threshold": 1e-9}))
        path = workspace["dataset"]
        argv = ["compare-forward", "--dataset", path, "--config", str(cfg)]
        message = "cap at 1e-09 removed every sample"
    assert cli.main(argv + out) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["predict", "train-forward", "config", "grade-map"])
def test_truncated_json_input_names_its_file(workspace, inverse_run, tmp_path, capsys,
                                             command):
    source = {"predict": json.dumps(inverse_run["payload"]),
              "train-forward": open(workspace["dataset"]).read(),
              "config": json.dumps(QUICK_CONFIG),
              "grade-map": json.dumps(GRADES)}[command]
    path = tmp_path / "cut.json"
    path.write_text(source[:len(source) // 2])
    out = ["--out", str(tmp_path / "o")]
    argv = {"predict": ["predict", "--model", str(path), "--direction", "inverse",
                        "--input", inverse_run["csv"]],
            "train-forward": ["train-forward", "--dataset", str(path), "--model", "rf"],
            "config": ["train-forward", "--dataset", workspace["dataset"], "--model", "rf",
                       "--config", str(path)],
            "grade-map": ["ingest", "--input", workspace["csv"], "--grade-map", str(path)]}
    assert cli.main(argv[command] + out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "line 1 column" in err, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["predict", "train-forward", "config", "grade-map"])
def test_deeply_nested_json_input_names_its_file(workspace, inverse_run, tmp_path, capsys,
                                                 command):
    # well-formed JSON that json.load, which recurses once a level, ends in
    # a RecursionError on
    path = tmp_path / "deep.json"
    path.write_text('{"a":' + "[" * 200_000 + "]" * 200_000 + "}")
    out = ["--out", str(tmp_path / "o")]
    argv = {"predict": ["predict", "--model", str(path), "--direction", "inverse",
                        "--input", inverse_run["csv"]],
            "train-forward": ["train-forward", "--dataset", str(path), "--model", "rf"],
            "config": ["train-forward", "--dataset", workspace["dataset"], "--model", "rf",
                       "--config", str(path)],
            "grade-map": ["ingest", "--input", workspace["csv"], "--grade-map", str(path)]}
    assert cli.main(argv[command] + out) == 1
    # the root object is the first container, so the refused one is '[' number MAX_DEPTH
    at = len('{"a":') + jsonstream.MAX_DEPTH - 1
    assert capsys.readouterr().err == (
        f"error: {path}: More than {jsonstream.MAX_DEPTH} nested containers: "
        f"line 1 column {at + 1} (char {at})\n")
    assert not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("probe,unwanted", [
    ("import corrml.cli, corrml.inverse", ("scipy",)),
    # the GP layer binds scipy's compiled BLAS/LAPACK without the scipy.linalg package
    ("import corrml.evaluation", ("scipy._lib._array_api", "numpy.f2py", "numpy.testing")),
    # the job runner forks its workers itself, so no command loads a process
    # pool library
    ("import corrml.evaluation", ("concurrent.futures.process", "multiprocessing")),
    ("from corrml import cli; "
     "assert cli.main(['ingest', '--input', {csv!r}, '--out', {out!r}]) == 0", ("numpy",)),
    # scipy's BLAS/LAPACK binding loads where GP training runs, not on import
    ("import corrml.evaluation", ("scipy",)),
    # a model's K over its training rows is numpy's einsum loops
    ("import numpy as np; from corrml.kernels import MaternKernel, RbfKernel, SumKernel, gram; "
     "X = np.random.default_rng(0).normal(size=(30, 4)); "
     "gram(X, X, SumKernel(RbfKernel(np.ones(4)), MaternKernel(np.ones(4), 1.0, nu=2.5)))",
     ("scipy", "corrml._linalg")),
], ids=["inverse-no-scipy", "evaluation-no-scipy-linalg-package", "evaluation-no-process-pool",
        "ingest-no-numpy", "evaluation-no-scipy", "gram-no-scipy"])
def test_import_path_loads_only_what_it_needs(workspace, tmp_path, probe, unwanted):
    code = (f"import sys; {probe.format(csv=workspace['csv'], out=str(tmp_path))}; "
            f"print(sorted(m for m in sys.modules "
            f"if any(m == u or m.startswith(u + '.') for u in {unwanted!r})))")
    result = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_forward_gp_predict_does_not_load_openssl(workspace, trained, tmp_path):
    # the GP checksum takes CPython's built-in SHA-256; hashlib's OpenSSL
    # module maps libcrypto, about 3.5 MB of resident memory. `cli.main`
    # marks that module absent with a None entry, which is not a loaded module
    model = tmp_path / "model.json"
    model.write_text(json.dumps(trained("loggpr")))
    argv = ["predict", "--model", str(model), "--direction", "forward", "--input",
            workspace["csv"], "--out", str(tmp_path / "pred")]
    code = (f"import sys; from corrml import cli; assert cli.main({argv!r}) == 0; "
            f"print(sys.modules.get('_hashlib') is not None)")
    result = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "False"
    assert (tmp_path / "pred" / "predictions.csv").exists()


def _model_file(trained, family, back_transform, path):
    """`path`, written with the model file of `trained(family)`, its loggpr
    back-transform set to `back_transform` unless that is None."""
    payload = copy.deepcopy(trained(family))
    if back_transform:
        payload["model"]["back_transform"] = back_transform
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("family,back_transform", [
    ("gpr", None), ("loggpr", "median"), ("loggpr", "mean")],
    ids=["gpr", "loggpr-median", "loggpr-mean"])
def test_forward_gp_predict_does_not_load_scipy(workspace, trained, tmp_path, family,
                                                back_transform):
    # a loaded GP's K, factor, alpha and L^-1 (which the mean back-transform
    # reads) are numpy's einsum loops: scipy and the OpenBLAS its BLAS/LAPACK
    # binding maps, about 5 MB of resident memory, are for training
    model = _model_file(trained, family, back_transform, tmp_path / "model.json")
    argv = ["predict", "--model", str(model), "--direction", "forward", "--input",
            workspace["csv"], "--out", str(tmp_path / "pred")]
    code = (f"import sys; from corrml import cli; assert cli.main({argv!r}) == 0; "
            f"print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    result = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]"
    assert (tmp_path / "pred" / "predictions.csv").exists()


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="reads /proc/self/maps")
@pytest.mark.skipif(not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")),
                    reason="this Python's only SHA-256 is OpenSSL's")
@pytest.mark.parametrize("command", ["ingest", "train-forward", "train-forward-loggpr",
                                     "compare-forward", "train-inverse", "predict-forward",
                                     "predict-inverse", "report"])
def test_no_command_loads_openssl(workspace, trained, inverse_run, tmp_path, command):
    # numpy.random imports secrets, hmac and so hashlib's OpenSSL module,
    # which maps libcrypto; every command runs without it, and a digest
    # taken after the command is SHA-256 whichever module takes it
    argv = _quick_argv(command, workspace, inverse_run, trained("loggpr"), tmp_path) + [
        "--out", str(tmp_path / "out")]
    code = ("import sys; from corrml import cli; "
            f"assert cli.main({argv!r}) == 0; "
            "loaded = sys.modules.get('_hashlib') is not None; "
            "maps = open('/proc/self/maps').read(); "
            "import hashlib; "
            "print(loaded, 'libcrypto' in maps, hashlib.sha256(b'abc').hexdigest())")
    result = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                            text=True, check=True)
    assert result.stdout.split() == [
        "False", "False", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"]


@pytest.mark.skipif(importlib.util.find_spec("_hashlib") is None,
                    reason="this Python has no OpenSSL digests")
def test_openssl_digests_are_free_again_after_main(tmp_path):
    # main keeps hashlib's OpenSSL module out only while it runs: a caller
    # that first imports hashlib after it gets OpenSSL's digests, scrypt among them
    (tmp_path / "metrics.csv").write_text("model,feature_set,r2,mae,rmse\nrf,comp,0.5,1,2\n")
    argv = ["report", "--metrics", str(tmp_path / "metrics.csv"), "--out", str(tmp_path / "o")]
    code = (f"import sys; from corrml import cli; assert cli.main({argv!r}) == 0; "
            "assert 'hashlib' not in sys.modules; import hashlib; print(hasattr(hashlib, 'scrypt'))")
    result = subprocess.run([sys.executable, "-c", code], env=child_env(), capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "True"


@pytest.mark.parametrize("option,text,message", [
    ("--metrics", "model,feature_set,r2,mae,rmse\nrf,comp,0.5,1,2\nrf,comp+env,high,1,2\n",
     "row 3: could not convert string to float: 'high'"),
    ("--pairs", "model,feature_set,sample_id,true,predicted\nrf,comp,s1,1.0\n",
     "row 2 has 4 cell(s), expected 5"),
    ("--metrics", "model,feature_set,r2,mae,rmse\nrf,comp,nan,1,2\n",
     "row 2: 'nan' is not a finite number"),
    ("--pairs", "model,feature_set,sample_id,true,predicted\nrf,comp,s1,1.0,2.0\n"
     "rf,comp,s2,1.0,-inf\n", "row 3: '-inf' is not a finite number"),
    ("--pairs", "model,feature_set,sample_id,true,predicted\na/b,comp,s1,1.0,2.0\n",
     "row 2: model 'a/b' holds '/', '\\' or NUL, which a chart file name cannot"),
    ("--pairs", "model,feature_set,sample_id,true,predicted\nrf,comp,s1,1.0,2.0\n"
     "rf,a\\b,s1,1.0,2.0\n",
     "row 3: feature_set 'a\\\\b' holds '/', '\\' or NUL, which a chart file name cannot"),
    ("--metrics", "model,feature_set,r2,mae,rmse\nrf,comp,0.5,1,2\n\nrf,comp,0.9,1,2\n",
     "row 4: model 'rf' and feature_set 'comp' repeat row 2"),
    ("--pairs", "model,feature_set,sample_id,true,predicted\nrf,comp+env,s1,1.0,2.0\n"
     "rf,comp+env,s2,2.0,3.0\nrf,comp-env,s1,1.0,2.0\n",
     "row 4: model 'rf' and feature_set 'comp-env' chart to scatter_rf_comp-env.svg, as "
     "model 'rf' and feature_set 'comp+env' do"),
    # 137 characters, but 257 bytes in UTF-8
    ("--pairs", "model,feature_set,sample_id,true,predicted\nrf,comp,s1,1.0,2.0\n"
     + "\u00e9" * 120 + ",comp,s1,1.0,2.0\n",
     "row 3: model and feature_set chart to a file name of 257 bytes, longer than the 255 "
     "a file name may take"),
    # a Latin-1 e-acute, which is not UTF-8
    ("--metrics", b"model,feature_set,r2,mae,rmse\nrf,comp,0.5,1,2\nrf,c\xe9,0.5,1,2\n",
     "line 3: 'utf-8' codec can't decode byte 0xe9 in position 4: invalid continuation byte"),
    ("--pairs", "model,feature_set,sample_id,true,predicted\nrf,comp,s1,1.0,2.0\n"
     "rf,comp," + "s" * 131073 + ",1.0,2.0\n", "line 3: field larger than field limit (131072)"),
], ids=["metrics-r2-string", "pairs-short-row", "metrics-r2-nan", "pairs-predicted-inf",
        "pairs-model-slash", "pairs-feature-set-backslash", "metrics-repeated-cell",
        "pairs-file-name-taken",
        "pairs-file-name-too-long", "metrics-latin-1-byte", "pairs-oversized-cell"])
def test_report_rejects_bad_row_naming_it(tmp_path, capsys, option, text, message):
    path = tmp_path / "rows.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    assert cli.main(["report", option, str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {path}: {message}\n", err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("source,text,message", [
    ("--metrics", f"model,feature_set,r2,mae,rmse\nrf,comp,{LONG},1,2\n",
     "row 2: could not convert string to float: 'xxx"),
    ("--metrics", f"model,feature_set,r2,mae,rmse\n{LONG},comp,0.5,1,2\n{LONG},comp,0.5,1,2\n",
     "row 3: model 'xxx"),
    ("--pairs", f"model,feature_set,sample_id,true,predicted\nrf,/{LONG},s1,1.0,2.0\n",
     "row 2: feature_set '/xxx"),
    ("forward", {"family": LONG}, "['family']: must be one of"),
    ("config", {"model_params": {"rf": {"max_depth": LONG}}},
     "max_depth must be null or an integer, got 'xxx"),
], ids=["metrics-number", "metrics-repeated-model", "pairs-feature-set-slash",
        "model-file-family", "config-max-depth"])
def test_a_refusal_quotes_a_bounded_part_of_a_long_value(workspace, forward_payload, tmp_path,
                                                         capsys, source, text, message):
    # a report cell, a model file value or a config value is quoted as a
    # CSV cell is
    path = tmp_path / "input"
    if source == "config":
        path.write_text(json.dumps(text))
        argv = ["train-forward", "--dataset", workspace["dataset"], "--model", "rf",
                "--config", str(path)]
    elif source == "forward":
        path.write_text(json.dumps({**forward_payload, **text}))
        argv = ["predict", "--model", str(path), "--direction", "forward",
                "--input", workspace["csv"]]
    else:
        path.write_text(text)
        argv = ["report", source, str(path)]
    assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert len(err.encode()) < 1024 and message in err, err[:2000]
    assert "characters)" in err, err


def test_report_bad_pairs_row_writes_no_metric_chart(tmp_path, capsys):
    # the metrics parse, but the output directory waits for the pairs too
    metrics = tmp_path / "metrics.csv"
    metrics.write_text("model,feature_set,r2,mae,rmse\nrf,comp,0.5,1,2\n")
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("model,feature_set,sample_id,true,predicted\nrf,comp,s1,1.0\n")
    assert cli.main(["report", "--metrics", str(metrics), "--pairs", str(pairs),
                     "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {pairs}: row 2 has 4 cell(s), expected 5\n"
    assert not (tmp_path / "o").exists()


def test_report_writes_the_longest_chart_file_name(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("model,feature_set,sample_id,true,predicted\n"
                    + "x" * 238 + ",comp,s1,1.0,2.0\n")
    assert cli.main(["report", "--pairs", str(path), "--out", str(tmp_path / "o")]) == 0
    name = "scatter_" + "x" * 238 + "_comp.svg"
    assert len(name) == 255
    ET.parse(tmp_path / "o" / name)


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


GRADES = {"A": 1.0, "B": 5.0, "C": 20.0, "D": 50.0}
DATASET = {"kind": "corrosion-dataset", "environment_names": list(DEFAULT_ENVIRONMENTS),
           "samples": [{"id": "s1", "environment": 0, "rate": 1.0, "temperature": None,
                        "duration": None,
                        "composition": {"basis": "atomic", "entries": {"Al": 100.0}}}]}


@pytest.mark.parametrize("command,option,value,key", [
    ("train-forward", "--config", {"cap_threshold": "10"}, "'cap_threshold'"),
    ("train-forward", "--config", {"seed": "abc"}, "'seed'"),
    ("train-forward", "--config", {"seed": True}, "'seed'"),
    ("train-forward", "--config", {"model_params": {"rf": {"max_depth": "x"}}}, "max_depth"),
    ("train-forward", "--config", {"model_params": {"rf": {"max_depth": 2.5}}}, "max_depth"),
    ("train-forward", "--config", {"model_params": {"rf": {"max_depth": True}}}, "max_depth"),
    ("train-forward", "--config", {"model_params": {"rf": {"max_features": "bogus"}}},
     "max_features"),
    ("ingest", "--config", {"grade_map": {**GRADES, "A": "x"}}, "'A'"),
    ("ingest", "--grade-map", {**GRADES, "A": "x"}, "'A'"),
    ("train-forward", "--dataset", {**DATASET, "samples": [{**DATASET["samples"][0],
                                                             "rate": "abc"}]},
     "value.json: dataset file is malformed: ['samples'][0]['rate']: must be a finite "
     "number, got 'abc'"),
    ("train-forward", "--dataset", {**DATASET, "samples": [{**DATASET["samples"][0],
                                                             "temperature": "abc"}]},
     "value.json: dataset file is malformed: ['samples'][0]['temperature']: must be a finite "
     "number, got 'abc'"),
    ("train-forward", "--dataset", _without(DATASET, "samples"),
     "value.json: dataset file is incomplete: no 'samples' key"),
    ("train-forward", "--dataset", [DATASET], "value.json: the root must be a JSON object"),
    ("train-forward", "--config", [], "value.json: the root must be a JSON object"),
    ("ingest", "--grade-map", [GRADES], "value.json: the root must be a JSON object"),
    ("train-forward", "--config", {"seed": -1}, "'seed'"),
    ("train-inverse", "--config", {"seed": -1}, "'seed'"),
    ("compare-forward", "--config", {"seed": -1}, "'seed'"),
    ("train-dnn", "--config", {"model_params": {"dnn": {"hidden_sizes": ["a"]}}},
     "hidden_sizes"),
    ("train-dnn", "--config", {"model_params": {"dnn": {"hidden_sizes": [True, 2.9]}}},
     "hidden_sizes"),
    ("train-gpr", "--config", {"model_params": {"gpr": {"lr": -0.05, "epochs": 20}}},
     "lr must be finite and > 0"),
    ("train-loggpr", "--config", {"model_params": {"loggpr": {"lr": 0.0}}},
     "lr must be finite and > 0"),
    # Python's parser takes NaN and Infinity, but they are not JSON and no
    # corrml output holds one: they are refused before any output is written
    ("ingest", "--config", {"strict_composition": True, "composition_floor": math.nan},
     "value.json: 'NaN' is not a finite number"),
    ("train-forward", "--config", {"cap_threshold": math.inf},
     "value.json: 'Infinity' is not a finite number"),
    ("train-forward", "--dataset", {**DATASET, "samples": [{**DATASET["samples"][0],
                                                             "rate": math.nan}]},
     "value.json: 'NaN' is not a finite number"),
    ("predict", "--model", {"kind": "forward-model", "model": {"threshold": [-math.inf]}},
     "value.json: '-Infinity' is not a finite number"),
    ("train-forward", "--dataset", {**DATASET, "samples": DATASET["samples"] * 2},
     "value.json: dataset file is malformed: ['samples'][1]['id']: duplicate sample id 's1' "
     "(first at ['samples'][0])"),
], ids=["cap-threshold-string", "seed-string", "seed-bool", "max-depth-string",
        "max-depth-fraction", "max-depth-bool", "max-features-unknown", "config-grade-string",
        "grade-map-string", "dataset-rate-string", "dataset-temperature-string",
        "dataset-no-samples", "dataset-root-array",
        "config-root-array", "grade-map-root-array", "train-forward-seed-negative",
        "train-inverse-seed-negative", "compare-forward-seed-negative",
        "hidden-sizes-string", "hidden-sizes-bool-and-fraction", "gpr-lr-negative",
        "loggpr-lr-zero", "config-nan", "config-infinity", "dataset-nan",
        "model-minus-infinity", "dataset-duplicate-id"])
def test_mistyped_config_values_exit_one(workspace, tmp_path, capsys, command, option, value,
                                         key):
    path = tmp_path / "value.json"
    path.write_text(json.dumps(value))
    dataset = ["--dataset", workspace["dataset"]]
    argv = ({"ingest": ["ingest", "--input", workspace["csv"]],
             "train-forward": ["train-forward"] + dataset + ["--model", "rf"],
             "train-dnn": ["train-forward"] + dataset + ["--model", "dnn"],
             "train-gpr": ["train-forward"] + dataset + ["--model", "gpr"],
             "train-loggpr": ["train-forward"] + dataset + ["--model", "loggpr"],
             "train-inverse": ["train-inverse"] + dataset,
             "compare-forward": ["compare-forward"] + dataset,
             "predict": ["predict", "--direction", "forward", "--input",
                         workspace["csv"]]}[command]
            + [option, str(path), "--out", str(tmp_path / "o")])
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "Traceback" not in err, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train-forward", "train-inverse", "compare-forward"])
def test_negative_seed_flag_exits_one(workspace, tmp_path, capsys, command):
    # numpy's generators refuse a negative seed; the flag is checked before any work
    assert cli.main([command, "--dataset", workspace["dataset"], "--seed", "-1",
                     "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: 'seed' must be >= 0, got -1\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train-forward", "train-inverse"])
def test_weight_basis_dataset_sample_exits_one(workspace, tmp_path, capsys, command):
    # samples are atomic by contract: ingest converts a weight-basis CSV
    with open(workspace["dataset"]) as fh:
        payload = json.load(fh)
    sample = payload["samples"][3]
    sample["composition"]["basis"] = "weight"
    path = tmp_path / "dataset.json"
    path.write_text(json.dumps(payload))
    argv = {"train-forward": ["--model", "rf"], "train-inverse": []}[command]
    assert cli.main([command, "--dataset", str(path), "--config", workspace["config"],
                     "--out", str(tmp_path / "o")] + argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: dataset file is malformed: ['samples'][3]: "
                          f"sample {sample['id']}: ")
    assert "'weight'" in err and "Traceback" not in err, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["train-forward", "train-inverse", "compare-forward"])
def test_dataset_id_that_is_not_text_exits_one(workspace, tmp_path, capsys, command):
    # JSON's "\\ud800" escape decodes to a lone surrogate, which UTF-8 cannot
    # hold: the id is refused as the file is read, naming its key path
    with open(workspace["dataset"]) as fh:
        payload = json.load(fh)
    payload["samples"][3]["id"] = "s\ud800"
    path = tmp_path / "dataset.json"
    path.write_text(json.dumps(payload))
    argv = {"train-forward": ["--model", "rf"]}.get(command, [])
    assert cli.main([command, "--dataset", str(path), "--config", workspace["config"],
                     "--out", str(tmp_path / "o")] + argv) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: dataset file is malformed: ['samples'][3]['id']: must be a string "
        "of Unicode text, got 's\\ud800'\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_training_failure_exits_two(tmp_path, capsys):
    # an uncapped astronomically large target overflows the variance-based
    # kernel initialization, which is a numerical failure, not a usage one
    ds = generate_synthetic(12, seed=0)
    ds.samples[0].rate = 1e308
    data = _dump_csv(ds, tmp_path / "huge.csv")
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"cap_threshold": 1e308, "model_params": {"gpr": {"epochs": 2}}}')
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


def _mixed_queries(path, n, seed=8):
    """A query CSV of `n` rows with fresh ids, cycling through a few dozen
    inverse samples, row i lacking by i % 4 nothing, its temperature, its
    duration, or both, so every submodel signature recurs throughout."""
    pool = generate_inverse_synthetic(40, seed=seed).samples
    samples = []
    for i in range(n):
        s = copy.copy(pool[i % len(pool)])
        s.id = f"q{i}"
        if i % 4 in (1, 3):
            s.temperature = None
        if i % 4 in (2, 3):
            s.duration = None
        samples.append(s)
    return _dump_csv(Dataset(samples=samples), path)


def _predict_inverse(model, queries, out):
    assert cli.main(["predict", "--model", str(model), "--direction", "inverse",
                     "--input", str(queries), "--out", str(out)]) == 0
    with open(os.path.join(out, "predictions.csv"), "rb") as fh:
        return fh.read().splitlines(keepends=True)


def test_inverse_predictions_do_not_depend_on_the_chunks(inverse_run, tmp_path):
    # queries are scored a chunk at a time, each written as it is scored:
    # the file of 2 chunks + 1 row is its chunk-sized slices' files end to end
    model = tmp_path / "ensemble.json"
    model.write_text(json.dumps(inverse_run["payload"]))
    chunk = inverse._QUERY_CHUNK
    rows = _read_rows(_mixed_queries(tmp_path / "q.csv", 2 * chunk + 1))
    whole = _predict_inverse(model, tmp_path / "q.csv", tmp_path / "p")
    assert len(whole) == 1 + 6 * (2 * chunk + 1)
    assert len({line.rsplit(b",", 1)[1] for line in whole[1:]}) == 3  # every signature served

    def scored(name, part):
        with open(tmp_path / name, "w", newline="") as fh:
            csv.writer(fh).writerows([rows[0], *part])
        lines = _predict_inverse(model, tmp_path / name, tmp_path / f"p-{name}")
        assert lines[0] == whole[0]
        return lines[1:]

    slices = [scored(f"slice{lo}.csv", rows[1 + lo:1 + lo + chunk])
              for lo in range(0, 2 * chunk + 1, chunk)]
    assert [len(s) for s in slices] == [6 * chunk, 6 * chunk, 6]
    assert b"".join(whole[1:]) == b"".join(b"".join(s) for s in slices)
    k = 37
    assert scored("first.csv", rows[1:1 + k]) == whole[1:1 + 6 * k]


def test_library_predictions_are_the_rows_predict_writes(inverse_run, tmp_path, monkeypatch):
    # predict_inverse and inverse predict score the same chunks: over four
    # chunks, the last one partial, each query's values and serving sets are
    # its rows of predictions.csv
    monkeypatch.setattr(inverse, "_QUERY_CHUNK", 64)
    model = tmp_path / "ensemble.json"
    model.write_text(json.dumps(inverse_run["payload"]))
    queries = _mixed_queries(tmp_path / "q.csv", 3 * 64 + 5)
    lines = _predict_inverse(model, queries, tmp_path / "p")
    preds = inverse.predict_inverse(inverse.inverse_from_dict(inverse_run["payload"]["ensemble"]),
                                    parse_csv(queries))
    assert len(preds) == 3 * 64 + 5
    assert len({"|".join(p.contributing) for p in preds}) == 3  # every signature served
    rows = list(csv.reader(line.decode() for line in lines[1:]))
    assert rows == [[p.query_id, el, repr(v), "|".join(p.contributing)]
                    for p in preds for el, v in p.values.items()]


def test_inverse_non_finite_value_in_the_last_chunk_leaves_no_output(inverse_run, tmp_path,
                                                                    capsys):
    # the last chunk's rows alone carry a temperature, so the edited
    # base+dur+temp submodel serves them alone: its forest's leaves sum to
    # +inf and its GBM's stages to -inf, and any weighting of the two is NaN.
    # Those rows are scored after the first chunks' rows were written.
    payload = copy.deepcopy(inverse_run["payload"])
    sub = payload["ensemble"]["submodels"]["base+dur+temp"]
    assert sub is not None
    for kind, key, big in (("forest", "trees", 1e308), ("gbm", "stages", -1e308)):
        for model in sub[kind]["models"]:
            model.update({"init_value": big} if kind == "gbm" else {})
            for tree in model[key]:
                tree["value"] = [big] * len(tree["value"])
    model = tmp_path / "ensemble.json"
    model.write_text(json.dumps(payload))
    chunk = inverse._QUERY_CHUNK
    queries = tmp_path / "q.csv"
    rows = _read_rows(_mixed_queries(queries, 2 * chunk + 1))
    head = rows[0]
    for row in rows[1:1 + 2 * chunk]:
        row[head.index("temp_c")] = ""
    for row in rows[1 + 2 * chunk:]:
        row[head.index("temp_c")] = row[head.index("temp_c")] or "25.0"
        row[head.index("duration_days")] = row[head.index("duration_days")] or "30.0"
    with open(queries, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    out = tmp_path / "p"
    assert cli.main(["predict", "--model", str(model), "--direction", "inverse",
                     "--input", str(queries), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {model}: the model predicts a non-finite value\n"
    assert not out.exists()


@pytest.fixture(scope="module")
def forward_queries(tmp_path_factory):
    """`forward_queries(n)`: a rate-less query CSV of `n` synthetic rows,
    written once per module."""
    root = tmp_path_factory.mktemp("fq")

    @functools.cache
    def make(n):
        return _dump_csv(generate_synthetic(n, seed=9), root / f"q{n}.csv", drop_rates=True)

    return make


def _predict_forward(model, queries, out):
    assert cli.main(["predict", "--model", str(model), "--direction", "forward",
                     "--input", str(queries), "--out", str(out)]) == 0
    with open(os.path.join(out, "predictions.csv"), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("family,back_transform", [
    ("rf", None), ("dnn", None), ("gpr", None), ("loggpr", "median"), ("loggpr", "mean")],
    ids=["rf", "dnn", "gpr", "loggpr-median", "loggpr-mean"])
def test_forward_predictions_do_not_depend_on_the_batch(trained, forward_queries, tmp_path,
                                                        monkeypatch, family, back_transform):
    # every product of a forward prediction computes a row's value from that
    # row alone: a row scores the same bytes alone, in a batch of 7 and with
    # every row, and predict writes the same file whatever its chunk size
    payload = copy.deepcopy(trained(family))
    if back_transform:
        payload["model"]["back_transform"] = back_transform
    entry = FAMILIES[family]
    model = entry.from_dict(payload["model"])
    fm, _ = build_features(generate_synthetic(150, seed=9), payload["feature_set"])
    X = fm.values
    if payload["preprocess"]["scaler"] is not None:
        X = apply_scaler(ScalerState.from_dict(payload["preprocess"]["scaler"]), X)
    whole = entry.predict(model, X)
    for size in (1, 7):
        parts = [entry.predict(model, X[lo:lo + size]) for lo in range(0, len(X), size)]
        assert np.concatenate(parts).tobytes() == whole.tobytes(), size

    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    queries = forward_queries(150)
    default = _predict_forward(path, queries, tmp_path / "default")
    assert default.splitlines()[1:] == [f"{sid},{v!r}".encode()
                                        for sid, v in zip(fm.sample_ids, whole.tolist())]
    monkeypatch.setattr(evaluation, "_ROW_CHUNK", 7)
    assert _predict_forward(path, queries, tmp_path / "by7") == default


# environments added to a child's own: the default, another OpenBLAS core
# type, and two BLAS threads
BLAS_ENVS = ({}, {"OPENBLAS_CORETYPE": "Nehalem"}, {"CORRML_THREADS": "2"})


def _cli_outputs(argvs, cwd, env):
    """{relative path: bytes} of every file written in the new folder `cwd`
    by `python -m corrml.cli argv` for each of `argvs` in turn, each run in
    a child process with `env` set in its environment only."""
    cwd.mkdir()
    base = {k: v for k, v in child_env().items()
            if k not in ("OPENBLAS_CORETYPE", cli.THREADS_ENV_VAR)}
    for argv in argvs:
        result = subprocess.run([sys.executable, "-m", "corrml.cli", *argv], cwd=cwd,
                                env={**base, **env}, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
    return {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*"))
            if p.is_file()}


@pytest.mark.parametrize("family,back_transform", [
    ("rf", None), ("dnn", None), ("gpr", None), ("loggpr", "median"), ("loggpr", "mean")],
    ids=["rf", "dnn", "gpr", "loggpr-median", "loggpr-mean"])
def test_forward_predict_from_one_model_file_is_the_same_under_any_blas(
        workspace, trained, tmp_path, family, back_transform):
    # scoring, and a loaded GP's K, factor and alpha, run no BLAS: numpy's
    # einsum loops give the same bytes whatever OpenBLAS's core type or
    # thread count
    model = _model_file(trained, family, back_transform, tmp_path / "model.json")
    argv = ["predict", "--model", str(model), "--direction", "forward", "--input",
            workspace["csv"], "--out", "pred"]
    default, *others = [_cli_outputs([argv], tmp_path / f"env{i}", env)
                        for i, env in enumerate(BLAS_ENVS)]
    assert "pred/predictions.csv" in default
    assert others == [default] * len(others)


def test_tree_training_is_the_same_under_any_blas(workspace, inverse_run, tmp_path):
    # rf and the inverse forest+GBM ensemble train on numpy alone
    argvs = [["train-forward", "--dataset", workspace["dataset"], "--model", "rf",
              "--config", workspace["config"], "--out", "fwd"],
             ["train-inverse", "--dataset", inverse_run["dataset"], "--config",
              inverse_run["config"], "--out", "inv"]]
    default, *others = [_cli_outputs(argvs, tmp_path / f"env{i}", env)
                        for i, env in enumerate(BLAS_ENVS)]
    assert {"fwd/model.json", "inv/ensemble.json"} <= set(default)
    assert others == [default] * len(others)


def _env_queries(path, n_first, n_last):
    """A query CSV of `n_first` rows in the first environment, then `n_last`
    in the second."""
    ds = generate_synthetic(n_first + n_last, seed=9)
    for i, s in enumerate(ds.samples):
        s.environment = int(i >= n_first)
    return _dump_csv(ds, path, drop_rates=True)


def test_forward_non_finite_value_in_the_last_chunk_leaves_no_output(forward_payload,
                                                                     tmp_path, capsys):
    # each tree of the edited forest splits on the second environment's
    # indicator, and only the last chunk's rows carry it: its leaf for them
    # holds 1e308, so their trees' values sum to +inf. Those rows are scored
    # after the first chunks' rows were written.
    payload = copy.deepcopy(forward_payload)
    column = len(ELEMENT_ORDER) + 1  # comp+env: the indicator of environment 1
    assert payload["feature_set"] == "comp+env"
    for tree in payload["model"]["trees"]:
        tree.update(feature=[column, -1, -1], threshold=[0.5, 0.0, 0.0], left=[1, -1, -1],
                    right=[2, -1, -1], value=[0.0, 1.0, 1e308])
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    chunk = evaluation._ROW_CHUNK
    queries = _env_queries(tmp_path / "q.csv", 2 * chunk, 5)
    out = tmp_path / "p"
    assert cli.main(["predict", "--model", str(model), "--direction", "forward",
                     "--input", queries, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {model}: the model predicts a non-finite value\n"
    assert not out.exists()
    # the same model scores the first chunks' rows alone
    _predict_forward(model, _env_queries(tmp_path / "first.csv", 2 * chunk, 0), tmp_path / "ok")
    rows = _read_rows(tmp_path / "ok" / "predictions.csv")[1:]
    assert len(rows) == 2 * chunk and {value for _, value in rows} == {"1.0"}


def test_forward_predict_memory_per_row_is_its_columns(trained, forward_queries, tmp_path):
    # forward predict writes each query row into a column table, holds no
    # sample object, and scores a chunk of rows at a time: between 2,000
    # and 20,000 rows, its traced peak grows by under 600 bytes a row (the
    # table and the ids take about 300), where a feature matrix of every row
    # takes about 330 more, a GP's cross-covariances of every row 6 x 8
    # bytes per training row, and a network's activations of every row
    # about 2,000
    for family in ("rf", "dnn", "gpr"):
        model = tmp_path / f"{family}.json"
        model.write_text(json.dumps(trained(family)))

        def peak(n):
            queries = forward_queries(n)
            tracemalloc.start()
            try:
                assert cli.main(["predict", "--model", str(model), "--direction", "forward",
                                 "--input", queries, "--out", str(tmp_path / f"{family}{n}")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2_000), peak(20_000)
        assert large - small < 600 * 18_000, (family, small, large)


def test_forward_predict_memory_per_row_is_its_ids(trained, forward_queries, tmp_path):
    # forward predict holds one block of query rows at a time, and beyond
    # it only each row's id, for the repeated-id check (about 75 bytes a
    # row): between 2,000 and 20,000 rows, its traced peak grows by at most
    # 200 bytes a row, where a table of every row's fields added about 300
    # more
    for family in ("rf", "dnn", "gpr"):
        model = tmp_path / f"{family}.json"
        model.write_text(json.dumps(trained(family)))

        def peak(n):
            queries = forward_queries(n)
            tracemalloc.start()
            try:
                assert cli.main(["predict", "--model", str(model), "--direction", "forward",
                                 "--input", queries, "--out", str(tmp_path / f"{family}{n}")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2_000), peak(20_000)
        assert large - small <= 200 * 18_000, (family, small, large, (large - small) / 18_000)


def test_inverse_predict_memory_does_not_grow_with_the_query_count(inverse_run, tmp_path):
    # inverse predict holds the model and one block of queries, plus each
    # query's id (about 75 bytes a query): the traced peak on 20,000
    # queries is within a fixed margin of the peak on 2,000
    model = tmp_path / "ensemble.json"
    model.write_text(json.dumps(inverse_run["payload"]))

    def peak(n):
        queries = _mixed_queries(tmp_path / f"q{n}.csv", n)
        tracemalloc.start()
        try:
            assert cli.main(["predict", "--model", str(model), "--direction", "inverse",
                             "--input", queries, "--out", str(tmp_path / f"p{n}")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(2_000), peak(20_000)
    assert large - small < 4 * 2 ** 20, (small, large)
