"""Batch command-line front end.

Commands wire the pipeline end to end: ``ingest`` normalizes a CSV into a
dataset file, ``train-forward`` / ``train-inverse`` fit models and emit
metric tables, ``compare-forward`` runs the four-family comparison harness,
``predict`` scores new rows, and ``report`` renders the CSVs as SVG charts.
Every command writes a resolved-config sidecar sufficient to reproduce the
run. Exit codes: 0 success, 1 validation error, 2 training failure.

Only stdlib is imported at module level: ``CORRML_THREADS`` (one thread
when unset) must be applied to the BLAS thread-count environment variables
before numpy first loads.
"""

import argparse
import csv
import json
import logging
import os
import sys

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
    from .errors import ValidationError

    for key, value in src.items():
        if key not in dst:
            raise ValidationError(f"unknown config key {trail + key!r}")
        # grade_map values are user-defined letters, everything else is a
        # fixed schema checked against the defaults
        if isinstance(dst[key], dict) and key != "grade_map":
            if not isinstance(value, dict):
                raise ValidationError(f"config key {trail + key!r} must be an object")
            _merge_config(dst[key], value, trail + key + ".")
        else:
            dst[key] = value


def load_config(path: str | None) -> dict:
    from .errors import ValidationError

    cfg = default_config()
    if path:
        with open(path, encoding="utf-8") as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ValidationError(f"{path}: config root must be a JSON object")
        _merge_config(cfg, user)
    return cfg


# ---------------------------------------------------------------------------
# deterministic file output


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_csv(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def write_json(path: str, payload: dict) -> None:
    """Compact, key-sorted standard JSON on one line: a NaN or infinity is
    refused, not written as a bare token. Any `indent` (and `json.dump` to a
    file) makes CPython fall back to its pure-Python encoder, about 4x slower
    on an inverse ensemble; `python -m json.tool` pretty-prints the result."""
    from .errors import ValidationError

    try:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    write_text(path, text + "\n")


def write_sidecar(out_dir: str, command: str, flags: dict, config: dict) -> None:
    write_json(os.path.join(out_dir, f"{command}.config.json"),
               {"command": command, "flags": flags, "config": config})


def read_csv_rows(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in csv.reader(fh) if row]


def _load_dataset(path: str):
    from .dataset import dataset_from_dict

    with open(path, encoding="utf-8") as fh:
        return dataset_from_dict(json.load(fh))


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


# ---------------------------------------------------------------------------
# commands


def cmd_ingest(args) -> int:
    from .dataset import ELEMENT_ORDER, GradeMap, dataset_to_dict, parse_csv, summarize
    from .errors import ValidationError

    cfg = load_config(args.config)
    if args.units:
        cfg["units"] = args.units
    if args.grade_map:
        with open(args.grade_map, encoding="utf-8") as fh:
            mapping = json.load(fh)
        if not isinstance(mapping, dict):
            raise ValidationError(f"{args.grade_map}: grade map must be a JSON object")
        cfg["grade_map"] = {k: float(v) for k, v in mapping.items()}

    dataset = parse_csv(
        args.input,
        units=cfg["units"],
        grade_map=GradeMap({k: float(v) for k, v in cfg["grade_map"].items()}),
        strict_composition=cfg["strict_composition"],
        composition_floor=cfg["composition_floor"],
    )
    out = _ensure_out(args.out)
    write_json(os.path.join(out, "dataset.json"), dataset_to_dict(dataset))

    s = summarize(dataset)
    rows = [["name", "count", "max_at_pct"],
            ["samples", str(s.n_samples), ""],
            ["with_temperature", str(s.n_with_temperature), ""],
            ["with_duration", str(s.n_with_duration), ""],
            ["with_both", str(s.n_with_both), ""]]
    for sym in ELEMENT_ORDER:
        rows.append([sym, str(s.element_counts[sym]), repr(s.element_maxima[sym])])
    write_csv(os.path.join(out, "summary.csv"), rows)

    write_sidecar(out, "ingest",
                  {"input": args.input, "grade_map": args.grade_map, "out": out}, cfg)
    log.info("ingested %d samples from %s", len(dataset), args.input)
    return 0


def cmd_train_forward(args) -> int:
    from .dataset import Dataset
    from .evaluation import (ComparisonCell, _fit_predict_cell, comparison_metrics_rows,
                             comparison_pairs_rows, compute_metrics, forward_family)
    from .preprocess import build_features, cap_target, run_metadata, split_train_test

    cfg = load_config(args.config)
    if args.model:
        cfg["model"] = args.model
    if args.features:
        cfg["features"] = args.features
    if args.seed is not None:
        cfg["seed"] = args.seed
    family = cfg["model"]
    to_dict = forward_family(family).to_dict  # an unknown name fails before any work

    dataset = _load_dataset(args.dataset)
    capped = Dataset(samples=cap_target(dataset.samples, cfg["cap_threshold"], cfg["cap_mode"]),
                     environment_names=dataset.environment_names)
    fm, y = build_features(capped, cfg["features"])
    split = split_train_test(y.size, seed=cfg["seed"], test_fraction=cfg["test_fraction"])
    y_train, y_test = y[split.train], y[split.test]
    model, scaler, pred = _fit_predict_cell(family, fm.values[split.train], y_train,
                                            fm.values[split.test], cfg["seed"],
                                            cfg["model_params"][family])
    metrics = compute_metrics(y_test, pred)

    cell = ComparisonCell(model=family, feature_set=cfg["features"], metrics=metrics,
                          sample_ids=[fm.sample_ids[i] for i in split.test],
                          y_true=y_test, y_pred=pred)
    out = _ensure_out(args.out)
    payload = {
        "kind": "forward-model",
        "family": family,
        "feature_set": cfg["features"],
        "environment_names": list(capped.environment_names),
        "preprocess": run_metadata(cfg["features"], fm, scaler, cfg["cap_mode"],
                                   cfg["cap_threshold"], cfg["seed"]),
        "model": to_dict(model),
    }
    write_json(os.path.join(out, "model.json"), payload)
    write_csv(os.path.join(out, "metrics.csv"), comparison_metrics_rows([cell]))
    write_csv(os.path.join(out, "pairs.csv"), comparison_pairs_rows([cell]))
    write_text(os.path.join(out, "scatter.svg"),
               scatter_svg(f"{family} / {cfg['features']}", y_test, pred))
    write_sidecar(out, "train-forward", {"dataset": args.dataset, "out": out}, cfg)
    log.info("trained %s on %d rows (test R^2 %.4f)", family, y_train.size, metrics.r2)
    return 0


def cmd_train_inverse(args) -> int:
    from .dataset import Dataset
    from .inverse import evaluate_inverse, fit_inverse, inverse_report_rows, inverse_to_dict
    from .preprocess import split_train_test

    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed

    dataset = _load_dataset(args.dataset)
    split = split_train_test(len(dataset.samples), seed=cfg["seed"],
                             test_fraction=cfg["test_fraction"])
    train_ds = Dataset(samples=[dataset.samples[i] for i in split.train],
                       environment_names=dataset.environment_names)
    test_ds = Dataset(samples=[dataset.samples[i] for i in split.test],
                      environment_names=dataset.environment_names)

    ensemble = fit_inverse(train_ds, seed=cfg["seed"], configs=cfg["inverse_params"])
    report = evaluate_inverse(ensemble, test_ds)
    rows = inverse_report_rows(report)

    out = _ensure_out(args.out)
    write_json(os.path.join(out, "ensemble.json"),
               {"kind": "inverse-model",
                "environment_names": list(dataset.environment_names),
                "ensemble": inverse_to_dict(ensemble)})
    # union accuracy per element, and the per-submodel feature-set comparison
    write_csv(os.path.join(out, "inverse_metrics.csv"),
              [rows[0]] + [r for r in rows[1:] if r[3] == "union"])
    write_csv(os.path.join(out, "inverse_submodels.csv"),
              [rows[0]] + [r for r in rows[1:] if r[3] != "union"])
    write_sidecar(out, "train-inverse", {"dataset": args.dataset, "out": out}, cfg)
    log.info("trained inverse ensemble on %d rows", len(train_ds))
    return 0


def cmd_compare_forward(args) -> int:
    from .evaluation import (compare_forward_models, comparison_metrics_rows,
                             comparison_pairs_rows)

    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed

    dataset = _load_dataset(args.dataset)
    cells = compare_forward_models(dataset, seed=cfg["seed"], configs=cfg["model_params"],
                                   cap=cfg["cap_threshold"], cap_mode=cfg["cap_mode"],
                                   test_fraction=cfg["test_fraction"])
    out = _ensure_out(args.out)
    write_csv(os.path.join(out, "compare_metrics.csv"), comparison_metrics_rows(cells))
    write_csv(os.path.join(out, "compare_pairs.csv"), comparison_pairs_rows(cells))
    write_sidecar(out, "compare-forward", {"dataset": args.dataset, "out": out}, cfg)
    return 0


def _model_field(payload: dict, key: str, expected, path: str):
    """`payload[key]` if present and an instance of `expected`; otherwise a
    ValidationError naming the model file at `path` and the key."""
    from .errors import ValidationError

    if key not in payload:
        raise ValidationError(f"{path}: model file has no {key!r} key")
    if not isinstance(payload[key], expected):
        raise ValidationError(f"{path}: model file key {key!r} has the wrong type "
                              f"({type(payload[key]).__name__})")
    return payload[key]


def _model_state(from_dict, state, key: str, path: str):
    """`from_dict(state)` for the state under `key`; a key missing anywhere
    inside it, or a malformed value, is a ValidationError naming the model
    file at `path`, `key` and the missing key."""
    from .errors import ValidationError

    try:
        return from_dict(state)
    except KeyError as exc:
        raise ValidationError(f"{path}: model file key {key!r} is incomplete: "
                              f"no {exc.args[0]!r} key") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: model file key {key!r} is malformed: {exc}") from None


def cmd_predict(args) -> int:
    from .dataset import parse_csv
    from .errors import ValidationError

    with open(args.model, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValidationError(f"{args.model}: model file root must be a JSON object")
    out = _ensure_out(args.out)

    if args.direction == "forward":
        if payload.get("kind") != "forward-model":
            raise ValidationError(
                f"{args.model}: expected a forward model file, got kind "
                f"{payload.get('kind')!r}")
        from .evaluation import forward_family
        from .preprocess import ScalerState, apply_scaler, build_features

        try:
            family = forward_family(_model_field(payload, "family", str, args.model))
        except ValidationError as exc:
            raise ValidationError(f"{args.model}: key 'family': {exc}") from None
        preprocess = _model_field(payload, "preprocess", dict, args.model)
        scaler_state = _model_field(preprocess, "scaler", (dict, type(None)), args.model)
        feature_set = _model_field(payload, "feature_set", str, args.model)
        environments = _model_field(payload, "environment_names", list, args.model)
        model_state = _model_field(payload, "model", dict, args.model)

        queries = parse_csv(args.input, units=args.units, environments=tuple(environments),
                            require_rate=False)
        fm, _ = build_features(queries, feature_set)
        if len(fm.sample_ids) < len(queries.samples):
            log.warning("%d row(s) lack fields required by feature set %r and were skipped",
                        len(queries.samples) - len(fm.sample_ids), feature_set)
        X = fm.values
        if scaler_state is not None:
            X = apply_scaler(_model_state(ScalerState.from_dict, scaler_state,
                                          "preprocess.scaler", args.model), X)
        model = _model_state(family.from_dict, model_state, "model", args.model)
        pred = family.predict(model, X)
        rows = [["sample_id", "predicted_mpy"]]
        rows += [[sid, repr(float(p))] for sid, p in zip(fm.sample_ids, pred)]
        write_csv(os.path.join(out, "predictions.csv"), rows)
    else:
        if payload.get("kind") != "inverse-model":
            raise ValidationError(
                f"{args.model}: expected an inverse model file, got kind "
                f"{payload.get('kind')!r}")
        from .inverse import (inverse_from_dict, inverse_prediction_rows, predict_inverse,
                              queries_from_dataset)

        environments = _model_field(payload, "environment_names", list, args.model)
        ensemble_state = _model_field(payload, "ensemble", dict, args.model)
        queries = parse_csv(args.input, units=args.units, environments=tuple(environments))
        ensemble = _model_state(inverse_from_dict, ensemble_state, "ensemble", args.model)
        preds = predict_inverse(ensemble, queries_from_dataset(queries))
        write_csv(os.path.join(out, "predictions.csv"), inverse_prediction_rows(preds))

    write_sidecar(out, "predict",
                  {"model": args.model, "input": args.input,
                   "direction": args.direction, "units": args.units, "out": out},
                  {})
    return 0


def _parse_metric_rows(path: str) -> list[dict]:
    from .errors import ValidationError

    rows = read_csv_rows(path)
    if not rows or rows[0] != ["model", "feature_set", "r2", "mae", "rmse"]:
        raise ValidationError(f"{path}: expected header model,feature_set,r2,mae,rmse")
    return [{"model": r[0], "feature_set": r[1], "r2": float(r[2]),
             "mae": float(r[3]), "rmse": float(r[4])} for r in rows[1:]]


def _parse_pair_rows(path: str) -> dict:
    from .errors import ValidationError

    rows = read_csv_rows(path)
    if not rows or rows[0] != ["model", "feature_set", "sample_id", "true", "predicted"]:
        raise ValidationError(
            f"{path}: expected header model,feature_set,sample_id,true,predicted")
    cells: dict = {}
    for r in rows[1:]:
        cells.setdefault((r[0], r[1]), []).append((float(r[3]), float(r[4])))
    return cells


def cmd_report(args) -> int:
    from .errors import ValidationError

    if not args.metrics and not args.pairs:
        raise ValidationError("report needs --metrics and/or --pairs")
    out = _ensure_out(args.out)
    written = []

    if args.metrics:
        records = _parse_metric_rows(args.metrics)
        groups = list(dict.fromkeys(r["model"] for r in records))
        series = list(dict.fromkeys(r["feature_set"] for r in records))
        for metric, title in (("r2", "R^2 by model"), ("mae", "MAE (mpy) by model"),
                              ("rmse", "RMSE (mpy) by model")):
            values = {(r["feature_set"], r["model"]): r[metric] for r in records}
            name = f"{metric}.svg"
            write_text(os.path.join(out, name), bar_chart_svg(title, groups, series, values))
            written.append(name)

    if args.pairs:
        for (model, feature_set), pairs in _parse_pair_rows(args.pairs).items():
            name = _cell_filename(model, feature_set)
            write_text(os.path.join(out, name),
                       scatter_svg(f"{model} / {feature_set}",
                                   [p[0] for p in pairs], [p[1] for p in pairs]))
            written.append(name)

    write_sidecar(out, "report",
                  {"metrics": args.metrics, "pairs": args.pairs, "out": out}, {})
    log.info("wrote %d chart(s)", len(written))
    return 0


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
    try:
        _configure_threads()
        args = build_parser().parse_args(argv)
        # import deferred error types only after the thread caps are in place
        from .errors import TrainingError, ValidationError
        try:
            return _COMMANDS[args.command](args)
        except ValidationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except TrainingError as exc:
            print(f"training failure: {exc}", file=sys.stderr)
            return 2
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
