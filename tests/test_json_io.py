"""Model-file I/O: the piecewise JSON writer and the parse-time tree hook."""

import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrml import cli
from corrml.dataset import generate_inverse_synthetic, parse_csv
from corrml.errors import ValidationError
from corrml.inverse import inverse_from_dict, predict_inverse
from corrml.trees import node_arrays
from test_cli import QUICK_CONFIG, _dump_csv

SCALARS = (st.none() | st.booleans() | st.text()
           | st.integers() | st.integers(2 ** 63, 2 ** 80) | st.integers(-2 ** 80, -2 ** 63)
           | st.floats(allow_nan=False, allow_infinity=False))
# nested payloads; a container may be deferred behind a zero-argument callable
def _containers(kids):
    made = st.lists(kids, max_size=5) | st.dictionaries(st.text(), kids, max_size=5)
    return made | made.map(lambda v: lambda: v)


PAYLOADS = st.recursive(SCALARS, _containers, max_leaves=20)


def _resolved(value):
    """`value` with every deferred container replaced by what it returns."""
    if callable(value):
        value = value()
    if isinstance(value, dict):
        return {k: _resolved(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_resolved(v) for v in value]
    return value


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("jsonio")


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(payload=st.dictionaries(st.text(), PAYLOADS, max_size=5))
def test_write_json_matches_one_shot_dumps(out_dir, payload):
    path = out_dir / "payload.json"
    cli.write_json(str(path), payload)
    expected = json.dumps(_resolved(payload), sort_keys=True, separators=(",", ":"),
                          allow_nan=False) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


def test_non_finite_value_late_in_the_payload_leaves_no_file(tmp_path):
    path = tmp_path / "model.json"
    payload = {"a": [{"tree": list(range(1000))}] * 50, "z": [lambda: {"value": [float("nan")]}]}
    with pytest.raises(ValidationError, match="model.json"):
        cli.write_json(str(path), payload)
    assert os.listdir(tmp_path) == []


@pytest.fixture(scope="module")
def inverse_files(tmp_path_factory):
    """A quick-config train-inverse run, with the traced memory peak of each
    JSON file written."""
    root = tmp_path_factory.mktemp("invio")
    data = _dump_csv(generate_inverse_synthetic(60, seed=5), root / "inv.csv")
    (root / "quick.json").write_text(json.dumps(QUICK_CONFIG))
    assert cli.main(["ingest", "--input", data, "--out", str(root / "ds")]) == 0
    peaks = {}
    write_json = cli.write_json

    def traced(path, payload):
        tracemalloc.start()
        try:
            write_json(path, payload)
            peaks[os.path.basename(path)] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    mp = pytest.MonkeyPatch()
    mp.setattr(cli, "write_json", traced)
    try:
        assert cli.main(["train-inverse", "--dataset", str(root / "ds" / "dataset.json"),
                         "--config", str(root / "quick.json"), "--out", str(root / "inv")]) == 0
    finally:
        mp.undo()
    return {"csv": data, "ensemble": str(root / "inv" / "ensemble.json"), "peaks": peaks}


def test_train_inverse_writes_the_ensemble_in_pieces(inverse_files):
    # a one-shot dump holds the whole document as a string: at least the file's size
    size = os.path.getsize(inverse_files["ensemble"])
    assert inverse_files["peaks"]["ensemble.json"] < size / 4, (inverse_files["peaks"], size)


def test_parse_hook_gives_the_ensemble_a_plain_load_gives(inverse_files):
    path = inverse_files["ensemble"]
    tracemalloc.start()
    hooked = cli.read_json(path, object_hook=node_arrays)
    hooked_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    tracemalloc.start()
    with open(path, encoding="utf-8") as fh:
        plain = json.load(fh)
    plain_peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()

    tree = hooked["ensemble"]["submodels"]["base"]["forest"]["models"][0]["trees"][0]
    assert all(isinstance(tree[key], np.ndarray)
               for key in ("feature", "threshold", "left", "right", "value"))
    # the node lists of every tree are never alive together
    assert hooked_peak < 0.85 * plain_peak, (hooked_peak, plain_peak)

    queries = parse_csv(inverse_files["csv"])

    def table(payload):
        preds = predict_inverse(inverse_from_dict(payload["ensemble"]), queries)
        return np.array([list(p.values.values()) for p in preds])

    assert np.array_equal(table(hooked), table(plain))
