"""Model-file I/O: the piecewise JSON writer and the parse-time tree hook."""

import json
import math
import os
import tracemalloc
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrml import cli, jsonstream
from corrml.dataset import generate_inverse_synthetic, parse_csv
from corrml.errors import ValidationError
from corrml.inverse import inverse_from_dict, predict_inverse
from corrml.trees import (MultiOutputModel, TreeTable, fit_forests, fit_gbms,
                          multi_output_to_dict, node_arrays)
from test_cli import QUICK_CONFIG, _dump_csv

SCALARS = (st.none() | st.booleans() | st.text()
           | st.integers() | st.integers(2 ** 63, 2 ** 80) | st.integers(-2 ** 80, -2 ** 63)
           | st.floats(allow_nan=False, allow_infinity=False))
# nested payloads; a tuple stands for a list deferred behind an iterator
def _containers(kids):
    lists = st.lists(kids, max_size=5)
    return lists | lists.map(tuple) | st.dictionaries(st.text(), kids, max_size=5)


PAYLOADS = st.recursive(SCALARS, _containers, max_leaves=20)


def _live(value):
    """`value` with every tuple made an iterator that builds its items as it
    reaches them, as a tree model's payload holds its tree list."""
    if isinstance(value, dict):
        return {k: _live(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_live(v) for v in value]
    if isinstance(value, tuple):
        return map(_live, value)
    return value


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("jsonio")


@settings(max_examples=40, deadline=None)
@given(payload=st.dictionaries(st.text(), PAYLOADS, max_size=5))
def test_write_json_matches_one_shot_dumps(out_dir, payload):
    path = out_dir / "payload.json"
    cli.write_json(str(path), _live(payload))
    expected = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                          allow_nan=False) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")


# JSON number literals, some beyond a float's range, and the non-finite
# tokens Python's parser takes; nested in arrays and objects as text
NUMBER_TEXT = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
               | st.integers().map(str)
               | st.builds("{}e{}".format, st.integers(-9, 9), st.integers(300, 400))
               | st.sampled_from(["NaN", "Infinity", "-Infinity"]))


def _arrays(kids):
    return st.lists(kids, max_size=4).map(lambda items: "[" + ",".join(items) + "]")


def _objects(kids):
    return st.lists(st.tuples(st.text(max_size=3), kids), max_size=4,
                    unique_by=lambda item: item[0]).map(
        lambda items: "{" + ",".join(json.dumps(k) + ":" + v for k, v in items) + "}")


JSON_VALUES = st.recursive(NUMBER_TEXT, lambda kids: _arrays(kids) | _objects(kids),
                           max_leaves=12)


def _numbers(value):
    if isinstance(value, (dict, list)):
        items = value.values() if isinstance(value, dict) else value
        return [n for item in items for n in _numbers(item)]
    return [value]


@settings(max_examples=60, deadline=timedelta(milliseconds=200))
@given(text=_objects(JSON_VALUES))
def test_read_json_gives_finite_numbers_or_names_the_file(out_dir, text):
    path = out_dir / "value.json"
    path.write_text(text)
    parsed = json.loads(text)  # Python's parser takes every non-finite literal
    if all(math.isfinite(n) for n in _numbers(parsed)):
        assert cli.read_json(str(path)) == parsed
    else:
        with pytest.raises(ValidationError) as refused:
            cli.read_json(str(path))
        assert str(refused.value).startswith(f"{path}: ")


# JSON documents as text: any keys and strings (escapes, multi-byte UTF-8 and
# surrogate pairs among them), with assorted spacing and newlines, then maybe
# edited: a token spliced in, cut short, a BOM before or data after
DATA = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6)
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids,
                                                              max_size=4),
    max_leaves=15)
SPLICED = ["NaN", "-Infinity", "1e400", "1" + "0" * 400, "1" + "0" * 400 + "e-300", "-",
           "1.", "2e+", "tru", '"\\ud834"', '"\\x"', '"\\u12"', '"\x01"', '"', "\\", "{", "}",
           "[", "]", ",", ":", " ", "\r", "x", "é", "\U0001f600", "\ufeff"]


@st.composite
def json_texts(draw, edits=True):
    text = json.dumps(draw(st.dictionaries(st.text(max_size=4), DATA, max_size=4) | DATA),
                      ensure_ascii=draw(st.booleans()),
                      indent=draw(st.sampled_from([None, 0, 2, " \t"])),
                      separators=draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,", " :")])))
    if draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    text = draw(st.sampled_from(["", " ", "\n", "\r\n\t"])) + text
    if not edits:
        return text + draw(st.sampled_from(["", "\n"]))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(SPLICED)) + text[at:]
    if draw(st.integers(0, 4)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return (draw(st.sampled_from(["", "", "\ufeff"])) + text
            + draw(st.sampled_from(["", "\n", " \r\n", " x", "{}", "[1] "])))


def _recorded():
    """An object hook that records each call, and the list it records in."""
    calls = []

    def hook(d):
        calls.append(list(d.items()))
        return {"call": len(calls), "object": d}
    return hook, calls


@settings(max_examples=400, deadline=None)
@given(text=json_texts(), window=st.integers(1, 7))
def test_read_json_is_json_loads_through_any_window(out_dir, text, window):
    # a window of a few bytes puts a window boundary inside every token
    path = out_dir / "windowed.json"
    path.write_bytes(text.encode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        whole = fh.read()  # the text as text mode reads it, newlines translated
    loads_hook, loads_calls = _recorded()
    hook, calls = _recorded()
    try:
        expected = json.loads(whole, object_hook=loads_hook, parse_float=cli._finite,
                              parse_constant=cli._finite)
    except ValueError as exc:
        expected, refusal = None, f"{path}: {exc}"
    else:
        refusal = (None if isinstance(expected, dict) else
                   f"{path}: the root must be a JSON object, got {type(expected).__name__}")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jsonstream, "WINDOW", window)
        if refusal is None:
            assert repr(cli.read_json(str(path), object_hook=hook)) == repr(expected)
        else:
            with pytest.raises(ValidationError) as refused:
                cli.read_json(str(path), object_hook=hook)
            assert str(refused.value) == refusal
    assert repr(calls) == repr(loads_calls)


def test_read_json_decodes_each_float_literal_once(tmp_path):
    # a node list the window cut was once decoded up to the cut, refused,
    # and decoded again from its start: each float parsed twice or more
    rng = np.random.default_rng(0)
    X, Y = rng.normal(size=(40, 3)), rng.normal(size=(40, 2))
    models = [MultiOutputModel("gbm", fit_gbms([(X, Y)], n_rounds=4)[0], ["a", "b"]),
              MultiOutputModel("forest", fit_forests(X, Y, [1, 2], n_estimators=3), ["a", "b"])]
    path = tmp_path / "models.json"
    cli.write_json(str(path), {"models": [multi_output_to_dict(m) for m in models],
                               "scale": 0.25, "offsets": [[1.5, 2.5], 3.5]})
    literals = []
    json.loads(path.read_text(), parse_float=lambda text: literals.append(text))
    assert len(literals) > 500
    for window in range(1, 65):
        parsed = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(jsonstream, "WINDOW", window)
            with open(path, "rb") as fh:
                jsonstream.load(fh, parse_float=lambda text: parsed.append(text))
        assert parsed == literals, window


@settings(max_examples=100, deadline=None)
@given(text=json_texts(edits=False), window=st.integers(1, 7), data=st.data(),
       bad=st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80",
                            b"\xf4\x90\x80\x80"]))
def test_bytes_not_utf8_are_refused_at_their_place_in_the_file(out_dir, text, window, data,
                                                               bad):
    raw = text.encode("utf-8")
    at = data.draw(st.integers(min(window, len(raw)), len(raw)))  # after the first window
    raw = raw[:at] + bad + raw[at:]
    path = out_dir / "latin.json"
    path.write_bytes(raw)
    with pytest.raises(UnicodeDecodeError) as undecodable:
        raw.decode("utf-8")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jsonstream, "WINDOW", window)
        with pytest.raises(ValidationError) as refused:
            cli.read_json(str(path))
    assert str(refused.value) == f"{path}: {undecodable.value}"


def test_non_finite_value_late_in_the_payload_leaves_no_file(tmp_path):
    path = tmp_path / "model.json"
    payload = {"a": [{"tree": list(range(1000))}] * 50, "z": iter([{"value": [float("nan")]}])}
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


def test_predict_reads_the_ensemble_a_window_at_a_time(inverse_files):
    # json.load holds the file's whole text, and its bytes beside it while
    # they are decoded: more than the file's size above what the parse keeps
    path = inverse_files["ensemble"]
    tracemalloc.start()
    try:
        payload = cli.read_json(path, object_hook=node_arrays)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = os.path.getsize(path)
    assert payload["kind"] == "inverse-model"
    assert peak - kept < size / 4, (peak, kept, size)


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

    model = hooked["ensemble"]["submodels"]["base"]["forest"]["models"][0]
    assert type(model["trees"]) is TreeTable
    # the node lists of every tree are never alive together
    assert hooked_peak < 0.85 * plain_peak, (hooked_peak, plain_peak)

    queries = parse_csv(inverse_files["csv"])

    def table(payload):
        preds = predict_inverse(inverse_from_dict(payload["ensemble"]), queries)
        return np.array([list(p.values.values()) for p in preds])

    assert np.array_equal(table(hooked), table(plain))
