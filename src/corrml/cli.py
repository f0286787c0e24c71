"""Batch command-line front end.

Commands wire the pipeline end to end: ``ingest`` normalizes a CSV into a
dataset file, ``train-forward`` / ``train-inverse`` fit models and emit
metric tables, ``compare-forward`` runs the four-family comparison harness,
``predict`` scores new rows, and ``report`` renders the CSVs as SVG charts.
Each command ends by handing its outputs, {file name: content}, to one
writer (``_write_outputs``): it makes ``--out``, writes each file through a
partial file renamed onto its name once complete, and writes last a
resolved-config sidecar sufficient to reproduce the run. Exit codes: 0
success, 1 validation or output error, 2 training failure.

At module level only the standard library, ``errors``, ``csvrows`` and
``schema``, none of which loads numpy, are imported: ``CORRML_THREADS`` (one thread
when unset) must be applied to the BLAS thread-count environment variables
before numpy first loads.
"""

import argparse
import contextlib
import csv
import importlib.util
import json
import logging
import math
import os
import sys
import warnings
from collections.abc import Iterator

from .csvrows import csv_rows
from .errors import NoSamplesError, TrainingError, ValidationError
from .schema import load, shown

log = logging.getLogger(__name__)

THREADS_ENV_VAR = "CORRML_THREADS"
_BLAS_ENV_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class UsageError(Exception):
    """Bad command line (unknown flag, missing argument, bad choice)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits the process on usage errors; we want exit-code control
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _configure_threads() -> None:
    """Apply the CORRML_THREADS cap to the common BLAS thread knobs.

    Unset, it defaults each knob the user has not set to one thread: at the
    matrix sizes corrml trains on, extra BLAS threads cost more than they save.
    """
    raw = os.environ.get(THREADS_ENV_VAR)
    if raw is None:
        for var in _BLAS_ENV_VARS:
            os.environ.setdefault(var, "1")
        return
    try:
        n = int(raw)
    except ValueError:
        raise UsageError(f"{THREADS_ENV_VAR} must be a positive integer, got {raw!r}") from None
    if n < 1:
        raise UsageError(f"{THREADS_ENV_VAR} must be >= 1, got {n}")
    for var in _BLAS_ENV_VARS:
        os.environ[var] = str(n)


@contextlib.contextmanager
def _builtin_digests():
    """Keep OpenSSL's libcrypto, about 3.5 MB of resident memory, out of the
    process for the block where CPython has a SHA-256 of its own:
    `numpy.random` imports `secrets`, whose `hmac` imports hashlib's OpenSSL
    module `_hashlib`. A None entry for that module fails its import, so
    `hmac` and `hashlib` take CPython's built-in digests and
    `_operator._compare_digest`, as on a build without OpenSSL. A module
    already loaded is kept, and a build whose only SHA-256 is OpenSSL's
    keeps it. The entry is removed when the block ends, so a caller that
    runs `main` in its own process and first imports `hashlib` after it gets
    OpenSSL's digests; a module imported within the block keeps the
    built-in ones."""
    # found, not imported: loading it would map one more shared object into
    # commands that take no digest
    blocked = "_hashlib" not in sys.modules and any(
        importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))
    if blocked:
        sys.modules["_hashlib"] = None
    try:
        yield
    finally:
        if blocked and "_hashlib" in sys.modules and sys.modules["_hashlib"] is None:
            del sys.modules["_hashlib"]


# ---------------------------------------------------------------------------
# run configuration


def default_config() -> dict:
    """Every tunable with its default value; the resolved sidecar is this
    dict after file and flag overrides, so defaults are always explicit."""
    from .dataset import DEFAULT_GRADE_MAP

    return {
        "units": "at",
        "grade_map": dict(DEFAULT_GRADE_MAP),
        "strict_composition": False,
        "composition_floor": 95.0,
        "features": "comp+env",
        "model": "gpr",
        "cap_threshold": 100.0,
        "cap_mode": "drop",
        "seed": 0,
        "test_fraction": 0.2,
        "model_params": {
            "rf": {"n_estimators": 100, "max_depth": None, "max_features": None,
                   "min_samples_leaf": 1},
            "dnn": {"lr": 0.001, "epochs": 200, "huber_delta": 0.1,
                    "hidden_sizes": [64, 32, 16, 8], "plateau_stop": False},
            "gpr": {"lr": 0.05, "epochs": 200},
            "loggpr": {"lr": 0.05, "epochs": 200, "epsilon": 1e-6,
                       "back_transform": "median"},
        },
        "inverse_params": {
            "rf": {"n_estimators": 100, "max_depth": None, "min_samples_leaf": 1},
            "gbm": {"n_rounds": 100, "learning_rate": 0.1, "max_depth": 3,
                    "min_samples_leaf": 1},
        },
    }


def _merge_config(dst: dict, src: dict, trail: str = "") -> None:
    """Merge `src` over `dst`. A value must have its default's type, except
    that an int passes for a float; keys whose default is null are checked
    where they are used."""
    for key, value in src.items():
        if key not in dst:
            raise ValidationError(f"unknown config key {shown(trail + key)}")
        default = dst[key]
        if default is not None and type(value) not in (
                (int, float) if type(default) is float else (type(default),)):
            raise ValidationError(f"config key {trail + key!r} must have the type of its "
                                  f"default {default!r}, got {shown(value)}")
        # grade_map values are user-defined letters, everything else is a
        # fixed schema checked against the defaults
        if isinstance(default, dict) and key != "grade_map":
            _merge_config(default, value, trail + key + ".")
        else:
            dst[key] = value


def _finite(text: str) -> float:
    """The number a report CSV cell or a JSON literal spells; ValueError
    unless it is finite."""
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"could not convert string to float: {shown(text)}") from None
    if not math.isfinite(value):
        raise ValueError(f"{shown(text)} is not a finite number")
    return value


def read_json(path: str, object_hook=None) -> dict:
    """The JSON object in the file at `path`, read through a bounded window
    of its text (`jsonstream.load`), each object passed through
    `object_hook` as the parser closes it; a file that does not parse (the
    NaN and Infinity tokens Python's parser allows, number literals that
    overflow a float, and nesting deeper than `jsonstream.MAX_DEPTH`
    included), or whose root is not an object, is a ValidationError naming
    it."""
    from .jsonstream import load

    with open(path, "rb") as fh:
        try:
            root = load(fh, object_hook=object_hook, parse_constant=_finite,
                        parse_float=_finite)
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise ValidationError(f"{path}: {exc}") from None
    if not isinstance(root, dict):
        raise ValidationError(f"{path}: the root must be a JSON object, "
                              f"got {type(root).__name__}")
    return root


@contextlib.contextmanager
def _samples_of(path: str):
    """Run the block, naming the file at `path` in a NoSamplesError from it:
    the dataset or query file that left no sample to fit or score."""
    try:
        yield
    except NoSamplesError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def load_config(path: str | None) -> dict:
    cfg = default_config()
    if path:
        _merge_config(cfg, read_json(path))
    return cfg


def _seeded_config(args) -> dict:
    """The run config of a training command, its --seed flag applied; a
    negative seed, which numpy's generators refuse, is a ValidationError."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if cfg["seed"] < 0:
        raise ValidationError(f"'seed' must be >= 0, got {cfg['seed']}")
    return cfg


# ---------------------------------------------------------------------------
# deterministic file output


class _Deferred(Exception):
    """Raised by the encoder at an iterator: the value holding it is walked."""


class _Encoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, Iterator):
            raise _Deferred
        return super().default(o)  # json's TypeError


# the one format of every JSON output: compact, key-sorted, finite numbers only
_encode = _Encoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode


def _write_json_value(value, write) -> None:
    """Write `value` with one encoder call unless an iterator lies inside it;
    only such a value is walked, keys sorted, so each iterator's items are
    built as the walk reaches them and written as a JSON array, maybe empty;
    a dict that holds an iterator is never empty."""
    try:
        write(_encode(value))
    except _Deferred:
        if isinstance(value, dict):
            sep = "{"
            for key in sorted(value):
                write(sep + _encode(key) + ":")
                _write_json_value(value[key], write)
                sep = ","
            write("}")
        else:
            write("[")
            for i, item in enumerate(value):
                if i:
                    write(",")
                _write_json_value(item, write)
            write("]")


@contextlib.contextmanager
def _whole(path: str):
    """A text file to write `path`'s content into: a partial file in the
    folder of `path`, named for this process and not for `path`, which is
    renamed onto `path` once the block completes and removed if it fails. A
    ValueError in the block (a value the format cannot hold) is a
    ValidationError naming `path`; a ValidationError from the content, which
    may be made as it is written, names its own subject and passes as it
    is."""
    partial = os.path.join(os.path.dirname(path), f".corrml-{os.getpid()}.partial")
    try:
        with open(partial, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(partial, path)
    except ValidationError:
        raise
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    finally:
        if os.path.lexists(partial):
            os.remove(partial)


def write_json(path: str, payload: dict) -> None:
    """Compact, key-sorted standard JSON on one line: the bytes of
    `json.dumps(payload, sort_keys=True, separators=(",", ":"),
    allow_nan=False) + "\\n"`, made by CPython's C encoder. A value may be an
    iterator (a `map` of a model's trees to their dicts, say), which stands
    for the list of its items: the values that hold one are walked and
    written piece by piece, so each item exists only while it is written;
    every other value is encoded whole. An iterator is spent once written, so
    a payload that holds one is written once. A NaN or infinity is refused,
    not written as a bare token, and the file appears under `path` only
    whole (`_whole`), so a refused payload leaves no file. `python -m
    json.tool` pretty-prints the result."""
    with _whole(path) as fh:
        _write_json_value(payload, fh.write)
        fh.write("\n")


def _write_outputs(out: str, files: dict, command: str, flags: dict, config: dict) -> int:
    """Write a command's `files`, {file name: content}, into the folder `out`,
    made if missing, and then its `<command>.config.json` sidecar of `flags`
    and `config`; return the command's exit code, 0. A dict is written as
    JSON (`write_json`), a str as text, and any other content as CSV rows,
    taken from it one at a time, so rows a generator makes are written as it
    makes them. Each file appears under its name only whole (`_whole`); a
    failure leaves the files written before it, and removes each folder this
    call made for `out`, innermost first, that nothing is left in."""
    made, folder = [], out
    while folder and not os.path.lexists(folder):
        made.append(folder)
        folder = os.path.dirname(folder)
    os.makedirs(out, exist_ok=True)
    files[f"{command}.config.json"] = {"command": command, "flags": flags, "config": config}
    try:
        for name, content in files.items():
            path = os.path.join(out, name)
            if isinstance(content, dict):
                write_json(path, content)
                continue
            with _whole(path) as fh:
                if isinstance(content, str):
                    fh.write(content)
                else:
                    csv.writer(fh).writerows(content)
    except BaseException:
        for folder in made:
            with contextlib.suppress(OSError):  # a folder that holds a file stays
                os.rmdir(folder)
        raise
    return 0


def _csv_records(path: str, header: list[str], convert) -> list:
    """`convert(row, row_no)` for each nonempty row under `header`, which must
    be the file's first row; a short row, or one `convert` rejects, is a
    ValidationError naming the file and the row number."""
    rows = csv_rows(path)
    if next(rows, None) != header:
        raise ValidationError(f"{path}: expected header {','.join(header)}")
    records = []
    for row_no, row in enumerate(rows, start=2):
        if not row:
            continue
        if len(row) < len(header):
            raise ValidationError(f"{path}: row {row_no} has {len(row)} cell(s), "
                                  f"expected {len(header)}")
        try:
            records.append(convert(row, row_no))
        except ValueError as exc:
            raise ValidationError(f"{path}: row {row_no}: {exc}") from None
    return records


def _load_dataset(path: str):
    from .dataset import dataset_from_dict

    return load(read_json(path), dataset_from_dict, f"{path}: dataset file")


# ---------------------------------------------------------------------------
# SVG rendering (CSVs are the source of truth; charts are derived, and a
# pure function of their inputs so re-runs are byte-identical)

_PALETTE = ("#4878a8", "#6aa84f", "#c27ba0", "#b45f06", "#666666")
_FONT = 'font-family="sans-serif"'


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def bar_chart_svg(title: str, groups, series, values: dict) -> str:
    """Grouped vertical bars; `values` maps (series, group) -> float."""
    width, height = 640, 400
    left, right, top, bottom = 70, 20, 48, 64
    pw, ph = width - left - right, height - top - bottom
    vals = list(values.values())
    vmin = min([0.0] + vals)
    vmax = max([0.0] + vals)
    if vmax == vmin:
        vmax = vmin + 1.0

    def ypix(v):
        return top + (vmax - v) / (vmax - vmin) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="24" text-anchor="middle" {_FONT} font-size="16">'
        f'{_esc(title)}</text>',
    ]
    for i in range(5):
        v = vmin + (vmax - vmin) * i / 4
        yy = ypix(v)
        parts.append(f'<line x1="{left}" y1="{yy:.2f}" x2="{width - right}" '
                     f'y2="{yy:.2f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{left - 6}" y="{yy + 4:.2f}" text-anchor="end" '
                     f'{_FONT} font-size="11">{v:.3g}</text>')

    gw = pw / max(len(groups), 1)
    bw = gw * 0.8 / max(len(series), 1)
    y0 = ypix(0.0)
    for gi, group in enumerate(groups):
        gx = left + gi * gw
        for si, s in enumerate(series):
            v = values.get((s, group))
            if v is None:
                continue
            x = gx + gw * 0.1 + si * bw
            yv = ypix(v)
            parts.append(f'<rect x="{x:.2f}" y="{min(yv, y0):.2f}" width="{bw * 0.92:.2f}" '
                         f'height="{abs(yv - y0):.2f}" fill="{_PALETTE[si % len(_PALETTE)]}"/>')
        parts.append(f'<text x="{gx + gw / 2:.2f}" y="{height - bottom + 18}" '
                     f'text-anchor="middle" {_FONT} font-size="12">{_esc(str(group))}</text>')

    parts.append(f'<line x1="{left}" y1="{y0:.2f}" x2="{width - right}" y2="{y0:.2f}" '
                 'stroke="black"/>')
    parts.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" '
                 'stroke="black"/>')
    for si, s in enumerate(series):
        ly = top + 4 + si * 18
        parts.append(f'<rect x="{width - right - 160}" y="{ly}" width="12" height="12" '
                     f'fill="{_PALETTE[si % len(_PALETTE)]}"/>')
        parts.append(f'<text x="{width - right - 142}" y="{ly + 10}" {_FONT} '
                     f'font-size="12">{_esc(str(s))}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def scatter_svg(title: str, xs, ys, xlabel: str = "true rate (mpy)",
                ylabel: str = "predicted rate (mpy)") -> str:
    """Square scatter plot with a y = x reference line."""
    width = height = 460
    left, right, top, bottom = 64, 20, 48, 56
    pw, ph = width - left - right, height - top - bottom
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    lo = min(xs + ys)
    hi = max(xs + ys)
    if hi == lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad

    def xpix(v):
        return left + (v - lo) / (hi - lo) * pw

    def ypix(v):
        return top + (hi - v) / (hi - lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="24" text-anchor="middle" {_FONT} font-size="15">'
        f'{_esc(title)}</text>',
        f'<rect x="{left}" y="{top}" width="{pw}" height="{ph}" fill="none" stroke="black"/>',
    ]
    for i in range(5):
        v = lo + (hi - lo) * i / 4
        parts.append(f'<text x="{xpix(v):.2f}" y="{height - bottom + 16}" '
                     f'text-anchor="middle" {_FONT} font-size="11">{v:.3g}</text>')
        parts.append(f'<text x="{left - 6}" y="{ypix(v) + 4:.2f}" text-anchor="end" '
                     f'{_FONT} font-size="11">{v:.3g}</text>')
    parts.append(f'<line x1="{xpix(lo):.2f}" y1="{ypix(lo):.2f}" x2="{xpix(hi):.2f}" '
                 f'y2="{ypix(hi):.2f}" stroke="#999999" stroke-dasharray="5,4"/>')
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{xpix(x):.2f}" cy="{ypix(y):.2f}" r="3.5" '
                     f'fill="{_PALETTE[0]}" fill-opacity="0.7"/>')
    parts.append(f'<text x="{left + pw / 2:.2f}" y="{height - 12}" text-anchor="middle" '
                 f'{_FONT} font-size="12">{_esc(xlabel)}</text>')
    parts.append(f'<text x="16" y="{top + ph / 2:.2f}" text-anchor="middle" {_FONT} '
                 f'font-size="12" transform="rotate(-90 16 {top + ph / 2:.2f})">'
                 f'{_esc(ylabel)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _cell_filename(model: str, feature_set: str) -> str:
    return f"scatter_{model}_{feature_set.replace('+', '-')}.svg"


_NAME_MAX = 255  # bytes in one file name on Linux and macOS file systems


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(args) -> int:
    from .dataset import GradeMap, dataset_to_dict, parse_csv, summary_rows

    cfg = load_config(args.config)
    if args.units:
        cfg["units"] = args.units
    if args.grade_map:
        cfg["grade_map"] = GradeMap(read_json(args.grade_map)).mapping

    dataset = parse_csv(
        args.input,
        units=cfg["units"],
        grade_map=GradeMap(cfg["grade_map"]),
        strict_composition=cfg["strict_composition"],
        composition_floor=cfg["composition_floor"],
    )
    log.info("ingested %d samples from %s", len(dataset), args.input)
    return _write_outputs(args.out, {"dataset.json": dataset_to_dict(dataset),
                                     "summary.csv": summary_rows(dataset)},
                          "ingest", {"input": args.input, "grade_map": args.grade_map,
                                     "out": args.out}, cfg)


def cmd_train_forward(args) -> int:
    from .evaluation import (_fit_predict_cell, comparison_metrics_rows, comparison_pairs_rows,
                             forward_family)

    cfg = _seeded_config(args)
    if args.model:
        cfg["model"] = args.model
    if args.features:
        cfg["features"] = args.features
    family = cfg["model"]
    forward_family(family)  # an unknown name fails before any work

    dataset = _load_dataset(args.dataset)
    with _samples_of(args.dataset):
        cell, model = _fit_predict_cell(
            family, dataset, cfg["features"], cfg["seed"], cfg["model_params"][family],
            cfg["cap_threshold"], cfg["cap_mode"], cfg["test_fraction"])
    log.info("trained %s (test R^2 %.4f)", family, cell.metrics.r2)
    return _write_outputs(args.out, {
        "model.json": model.to_dict(cfg["cap_mode"], cfg["cap_threshold"], cfg["seed"]),
        "metrics.csv": comparison_metrics_rows([cell]),
        "pairs.csv": comparison_pairs_rows([cell]),
        "scatter.svg": scatter_svg(f"{family} / {cfg['features']}", cell.y_true, cell.y_pred),
    }, "train-forward", {"dataset": args.dataset, "out": args.out}, cfg)


def cmd_train_inverse(args) -> int:
    from .dataset import DEFAULT_ENVIRONMENTS, Dataset
    from .inverse import evaluate_inverse, fit_inverse, inverse_report_rows, inverse_to_dict
    from .preprocess import split_train_test

    cfg = _seeded_config(args)

    dataset = _load_dataset(args.dataset)
    split = split_train_test(len(dataset.samples), seed=cfg["seed"],
                             test_fraction=cfg["test_fraction"])
    train_ds = Dataset(samples=[dataset.samples[i] for i in split.train])
    test_ds = Dataset(samples=[dataset.samples[i] for i in split.test])

    ensemble = fit_inverse(train_ds, seed=cfg["seed"], configs=cfg["inverse_params"])
    union_rows, submodel_rows = inverse_report_rows(evaluate_inverse(ensemble, test_ds))

    log.info("trained inverse ensemble on %d rows", len(train_ds))
    return _write_outputs(args.out, {
        "ensemble.json": {"kind": "inverse-model",
                          "environment_names": list(DEFAULT_ENVIRONMENTS),
                          "ensemble": inverse_to_dict(ensemble)},
        "inverse_metrics.csv": union_rows,
        "inverse_submodels.csv": submodel_rows,
    }, "train-inverse", {"dataset": args.dataset, "out": args.out}, cfg)


def cmd_compare_forward(args) -> int:
    from .evaluation import (compare_forward_models, comparison_metrics_rows,
                             comparison_pairs_rows)

    cfg = _seeded_config(args)

    dataset = _load_dataset(args.dataset)
    with _samples_of(args.dataset):
        cells = compare_forward_models(dataset, seed=cfg["seed"], configs=cfg["model_params"],
                                       cap=cfg["cap_threshold"], cap_mode=cfg["cap_mode"],
                                       test_fraction=cfg["test_fraction"])
    return _write_outputs(args.out, {"compare_metrics.csv": comparison_metrics_rows(cells),
                                     "compare_pairs.csv": comparison_pairs_rows(cells)},
                          "compare-forward", {"dataset": args.dataset, "out": args.out}, cfg)


def cmd_predict(args) -> int:
    from .dataset import DEFAULT_ENVIRONMENTS, csv_records
    from .preprocess import FEATURE_SETS, feature_fields
    from .trees import node_arrays

    if args.direction == "inverse" and args.units == "wt":
        raise ValidationError("--units wt does not apply to --direction inverse: its "
                              "queries list only Al, Si and Mg, whose at% cannot be "
                              "derived from wt% without the trace elements")
    # The query file's header is checked, the model loaded, and the rows read,
    # checked and scored a block at a time as predictions.csv is written.
    if args.direction == "forward":
        fields = feature_fields(FEATURE_SETS[-1])
        _, records = csv_records(args.input, fields, units=args.units, require_rate=False)
    else:
        from .inverse import QUERY_FIELDS

        _, records = csv_records(args.input, QUERY_FIELDS)
    payload = read_json(args.model, object_hook=node_arrays)
    # a model whose numbers overflow predicts non-finite values, refused as
    # they are scored
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        if args.direction == "forward":
            from .evaluation import forward_model_from_dict, forward_prediction_rows

            model = forward_model_from_dict(payload, args.model)
            del payload  # the model holds what it needs of the file
            rows = forward_prediction_rows(model, records, fields, args.model)
        else:
            from .inverse import inverse_from_dict, inverse_prediction_rows

            load(payload, {"kind": "inverse-model", "environment_names": list(DEFAULT_ENVIRONMENTS),
                           "ensemble": {}}, f"{args.model}: inverse model file")
            ensemble = load(payload["ensemble"], inverse_from_dict,
                            f"{args.model}: model file key 'ensemble'")
            del payload
            rows = inverse_prediction_rows(ensemble, records, args.model)
        with _samples_of(args.input):
            return _write_outputs(args.out, {"predictions.csv": rows}, "predict",
                                  {"model": args.model, "input": args.input,
                                   "direction": args.direction, "units": args.units,
                                   "out": args.out}, {})


def _parse_metric_rows(path: str) -> list[dict]:
    """Each row's metrics; a row whose model and feature_set an earlier row
    holds is refused, naming both rows."""
    first_row: dict = {}  # (model, feature_set) -> the row it was first read on

    def convert(r, row_no):
        first = first_row.setdefault((r[0], r[1]), row_no)
        if first != row_no:
            raise ValueError(f"model {shown(r[0])} and feature_set {shown(r[1])} "
                             f"repeat row {first}")
        return {"model": r[0], "feature_set": r[1], "r2": _finite(r[2]),
                "mae": _finite(r[3]), "rmse": _finite(r[4])}
    return _csv_records(path, ["model", "feature_set", "r2", "mae", "rmse"], convert)


def _parse_pair_rows(path: str) -> dict:
    """Per chart file name, its (model, feature_set) cell and the cell's
    (true, predicted) pairs. A model or feature_set that holds a path
    separator or a NUL, a cell whose file name is longer than a file system
    allows, or one whose file name an earlier cell took, is refused with its
    row."""
    charts: dict = {}

    def add(r, _):
        for column, text in (("model", r[0]), ("feature_set", r[1])):
            if any(c in text for c in "/\\\0"):
                raise ValueError(f"{column} {shown(text)} holds '/', '\\' or NUL, which a chart "
                                 "file name cannot")
        name = _cell_filename(r[0], r[1])
        size = len(name.encode("utf-8"))
        if size > _NAME_MAX:
            raise ValueError(f"model and feature_set chart to a file name of {size} bytes, "
                             f"longer than the {_NAME_MAX} a file name may take")
        (model, feature_set), pairs = charts.setdefault(name, ((r[0], r[1]), []))
        if (model, feature_set) != (r[0], r[1]):
            raise ValueError(f"model {r[0]!r} and feature_set {r[1]!r} chart to {name}, "
                             f"as model {model!r} and feature_set {feature_set!r} do")
        pairs.append((_finite(r[3]), _finite(r[4])))

    _csv_records(path, ["model", "feature_set", "sample_id", "true", "predicted"], add)
    return charts


def cmd_report(args) -> int:
    if not args.metrics and not args.pairs:
        raise ValidationError("report needs --metrics and/or --pairs")
    # both inputs are checked before the output directory is made
    records = _parse_metric_rows(args.metrics) if args.metrics else None
    charts = _parse_pair_rows(args.pairs) if args.pairs else {}
    files = {}
    if records is not None:
        groups = list(dict.fromkeys(r["model"] for r in records))
        series = list(dict.fromkeys(r["feature_set"] for r in records))
        for metric, title in (("r2", "R^2 by model"), ("mae", "MAE (mpy) by model"),
                              ("rmse", "RMSE (mpy) by model")):
            values = {(r["feature_set"], r["model"]): r[metric] for r in records}
            files[f"{metric}.svg"] = bar_chart_svg(title, groups, series, values)
    for name, ((model, feature_set), pairs) in charts.items():
        files[name] = scatter_svg(f"{model} / {feature_set}",
                                  [p[0] for p in pairs], [p[1] for p in pairs])
    log.info("rendered %d chart(s)", len(files))
    return _write_outputs(args.out, files, "report",
                          {"metrics": args.metrics, "pairs": args.pairs, "out": args.out}, {})


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="corrml",
                     description="corrosion-rate model toolkit (batch front end)")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("ingest", help="validate and normalize a CSV into a dataset file")
    p.add_argument("--input", required=True, help="input CSV")
    p.add_argument("--units", choices=("wt", "at"), help="composition basis of the CSV")
    p.add_argument("--grade-map", dest="grade_map",
                   help="JSON file mapping grade letters to rates (mpy)")
    p.add_argument("--config", help="run-config JSON")
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("train-forward", help="fit one forward rate model")
    p.add_argument("--dataset", required=True, help="dataset file from ingest")
    p.add_argument("--model", help="model family; an unknown name lists the choices")
    p.add_argument("--features", help="feature selector, e.g. comp or comp+env")
    p.add_argument("--config", help="run-config JSON")
    p.add_argument("--seed", type=int, help="split/init seed")
    p.add_argument("--out", default=".", help="output directory")

    p = sub.add_parser("train-inverse", help="fit the inverse composition ensemble")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default=".")

    p = sub.add_parser("compare-forward",
                       help="train all four families on comp and comp+env features")
    p.add_argument("--dataset", required=True)
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default=".")

    p = sub.add_parser("predict", help="score new rows with a trained model file")
    p.add_argument("--model", required=True, help="model file from a train command")
    p.add_argument("--direction", choices=("forward", "inverse"), required=True)
    p.add_argument("--input", required=True, help="query CSV (dataset schema)")
    p.add_argument("--units", choices=("wt", "at"), default="at")
    p.add_argument("--out", default=".")

    p = sub.add_parser("report", help="render metric/pair CSVs as SVG charts")
    p.add_argument("--metrics", help="metrics CSV (model,feature_set,r2,mae,rmse)")
    p.add_argument("--pairs", help="pairs CSV (model,feature_set,sample_id,true,predicted)")
    p.add_argument("--out", default=".")

    return parser


_COMMANDS = {
    "ingest": cmd_ingest,
    "train-forward": cmd_train_forward,
    "train-inverse": cmd_train_inverse,
    "compare-forward": cmd_compare_forward,
    "predict": cmd_predict,
    "report": cmd_report,
}


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    with _builtin_digests():
        try:
            _configure_threads()
            args = build_parser().parse_args(argv)
            try:
                return _COMMANDS[args.command](args)
            except ValidationError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            except TrainingError as exc:
                print(f"training failure: {exc}", file=sys.stderr)
                return 2
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        except UsageError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
