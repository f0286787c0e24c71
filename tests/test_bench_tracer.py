"""The benchmark's tracer (bench/tracing.py) wraps program entry points by
name from outside the program: `kernels.gram`, `gpr._NlmlWorkspace.__init__`
and `_leaf_terms`, `gpr.cho_solve`, the CLI's command table and others. A
refactor that renames one of them fails here, not in a traced benchmark run."""

import importlib.util
import json
import os

import numpy as np

from corrml import cli, gpr, kernels
from corrml.dataset import generate_synthetic
from test_cli import QUICK_CONFIG, _dump_csv

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _tracing_module():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(ROOT, "bench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _entry_points():
    ws = gpr._NlmlWorkspace
    return (kernels.gram, gpr.fit_gpr, gpr.cho_solve, ws.__init__, ws._leaf_terms,
            dict(cli._COMMANDS))


def test_tracer_installs_traces_a_gp_fit_and_uninstalls():
    before = _entry_points()
    tracer = _tracing_module().Tracer()
    try:
        tracer.install()
        assert all(a is not b for a, b in zip(_entry_points()[:5], before)), "nothing wrapped"
        rng = np.random.default_rng(0)
        X = rng.normal(size=(12, 3))
        model = gpr.fit_gpr(X, X[:, 0], epochs=2)
        gpr.predict_gpr(model, X[:4])
    finally:
        tracer.uninstall()
    assert _entry_points() == before
    metrics = tracer.metrics()
    assert metrics["gpr.epochs_run"] == 2 and metrics["gpr.workspace_mb"] > 0
    assert metrics["kernels.gram_s"] > 0 and metrics["gpr.predict_s"] > 0


def test_traced_train_forward_times_its_model_write_inside_the_command(tmp_path):
    # the tracer finds the model write by cli.write_json's name, and the
    # command's span must still hold it
    data = _dump_csv(generate_synthetic(40, seed=3), tmp_path / "data.csv")
    cfg = tmp_path / "quick.json"
    cfg.write_text(json.dumps(QUICK_CONFIG))
    assert cli.main(["ingest", "--input", data, "--out", str(tmp_path / "ds")]) == 0
    tracer = _tracing_module().Tracer()
    try:
        tracer.install()
        assert cli.main(["train-forward", "--dataset", str(tmp_path / "ds" / "dataset.json"),
                         "--model", "rf", "--config", str(cfg),
                         "--out", str(tmp_path / "rf")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.metrics()["cli.model_dump_s"] > 0
    dumps = [span for span in tracer.spans if span[0] == "cli.model_dump"]
    assert len(dumps) == 1
    assert tracer.spans[dumps[0][3]][0] == "cli.train-forward"
