"""In-process tracing of the CLI's layers, installed from outside the program.

`Tracer.install()` replaces layer entry points in the loaded `corrml`
modules with wrappers that record a span (name, start, end, parent) and the
counts a layer exposes in its arguments or results; `uninstall()` puts the
originals back. Spans stay in memory until `dump()`. Nothing in the program
changes: every wrapper calls the original with the same arguments and
returns its result untouched.
"""

import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "dataset", "preprocess", "kernels", "gpr", "neural", "optim", "trees",
          "inverse", "evaluation")
MODEL_FILES = ("model.json", "ensemble.json")
FAMILIES = ("rf", "dnn", "gpr", "loggpr")


class _JsonProxy:
    """Stands in for the `json` module inside corrml.cli so that parsing a
    model file shows as its own span; every other attribute is json's."""

    def __init__(self, tracer):
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(json, name)

    def load(self, fh, *args, **kwargs):
        if os.path.basename(getattr(fh, "name", "")) not in MODEL_FILES:
            return json.load(fh, *args, **kwargs)
        with self._tracer.span("cli.model_parse"):
            return json.load(fh, *args, **kwargs)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        parent = t.stack[-1] if t.stack else -1
        t.spans.append([self.name, time.perf_counter(), 0.0, parent])
        t.stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter()
        t.stack.pop()
        return False


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(float)
        self._patches = []     # (owner, attribute, original)

    def span(self, name):
        return _Span(self, name)

    # -- installation ------------------------------------------------------

    def _wrap(self, original, name, after=None):
        """Wrapper recording a span around `original`. `name` is a span name
        or a function of the call's arguments giving one, or None to skip."""
        tracer = self

        def wrapper(*args, **kwargs):
            span = name(*args, **kwargs) if callable(name) else name
            if span is None:
                return original(*args, **kwargs)
            with tracer.span(span):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _patch_item(self, mapping, key, value):
        self._patches.append((mapping, key, mapping[key]))
        mapping[key] = value

    def _patch_function(self, module, attr, name, after=None):
        """Wrap a module-level function everywhere `corrml` holds a reference
        to it, so `from .x import f` copies are traced too."""
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "corrml":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def install(self):
        from corrml import (cli, dataset, evaluation, gpr, inverse, kernels, neural, optim,
                            preprocess, trees)

        c = self.counts
        fn = self._patch_function

        def rows(result, *a, **k):
            c["dataset.rows_parsed"] += len(result.samples)

        def jittered(result, *a, **k):
            c["kernels.cholesky_jittered"] += result[1] > 0.0

        def gp_fit(result, *a, **k):
            c["gpr.epochs_run"] += len(result.history) - 1

        def dnn_fit(result, *a, **k):
            c["neural.epochs_run"] += len(result.history) - 1

        def tree_fit(result, *a, **k):
            c["trees.nodes_built"] += result.feature.size
            c["trees.split_nodes"] += int(np.count_nonzero(result.feature != trees.LEAF))

        def ensemble_kept(result, *a, **k):
            for sub in result.submodels.values():
                if sub is not None:
                    c["inverse.trees_kept"] += sum(len(m.trees) for m in sub.forest.models)
                    c["inverse.trees_kept"] += sum(len(m.stages) for m in sub.gbm.models)

        fn(dataset, "parse_csv", "dataset.parse_csv", rows)
        fn(dataset, "dataset_from_dict", "dataset.load")
        fn(preprocess, "build_features", "preprocess.build_features")
        fn(kernels, "cholesky_jitter", "kernels.cholesky", jittered)
        fn(kernels, "gram", "kernels.gram")
        fn(gpr, "fit_gpr", "gpr.fit", gp_fit)
        fn(gpr, "gpr_from_dict", "gpr.load")
        fn(gpr, "predict_gpr", "gpr.predict")
        # K^-1 is a cho_solve against the identity; vector solves stay untraced
        self._patch(gpr, "cho_solve", self._wrap(
            gpr.cho_solve, lambda f, b, *a, **k: "gpr.inverse" if np.ndim(b) == 2 else None))
        fn(neural, "train_dnn", "neural.train", dnn_fit)
        fn(optim, "adam_step", "optim.adam_step")
        fn(trees, "fit_tree", "trees.fit_tree", tree_fit)
        fn(trees, "predict_tree", "trees.predict_tree")
        fn(trees, "multi_output_from_dict", "trees.from_dict")
        fn(inverse, "fit_inverse", "inverse.fit", ensemble_kept)
        fn(inverse, "evaluate_inverse", "inverse.evaluate")
        fn(inverse, "inverse_to_dict", "inverse.to_dict")
        fn(inverse, "predict_inverse", "inverse.predict")
        fn(inverse, "inverse_from_dict", "inverse.from_dict")
        fn(evaluation, "compare_forward_models", "evaluation.compare")
        fn(evaluation, "_fit_predict_cell",
           lambda model, *a, **k: f"evaluation.family_fit.{model}")
        fn(cli, "write_json", lambda path, *a, **k: (
            "cli.model_dump" if os.path.basename(path) in MODEL_FILES else None))
        fn(cli, "bar_chart_svg", "cli.report_render")
        fn(cli, "scatter_svg", "cli.report_render")
        self._patch(cli, "json", _JsonProxy(self))
        # the NLML workspace builds its Gram matrices outside kernels.gram; its
        # (d, n, n) difference stack is sized from shapes, not measured
        ws = gpr._NlmlWorkspace
        ws_init = ws.__init__

        def init(self_ws, *a, **k):
            ws_init(self_ws, *a, **k)
            n, d = self_ws.X.shape
            c["gpr.workspace_mb"] = max(c["gpr.workspace_mb"], d * n * n * 8 / 1e6)

        self._patch(ws, "__init__", init)
        self._patch(ws, "_leaf_terms", self._wrap(ws._leaf_terms, "kernels.gram"))
        for command, func in list(cli._COMMANDS.items()):
            self._patch_item(cli._COMMANDS, command, self._wrap(func, f"cli.{command}"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Every per-layer metric: inclusive span times and counts, derived
        ratios, and each layer's self time (its spans minus their children)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        time_s = defaultdict(float)
        calls = defaultdict(int)
        self_s = dict.fromkeys(LAYERS, 0.0)
        fitted_in_inverse = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            time_s[name] += end - start
            calls[name] += 1
            self_s[name.split(".")[0]] += end - start - child[i]
            if name == "trees.fit_tree":
                while parent >= 0 and self.spans[parent][0] != "inverse.fit":
                    parent = self.spans[parent][3]
                fitted_in_inverse += parent >= 0
        c = self.counts

        def ratio(a, b):
            return a / b if b else 0.0

        m = {
            "dataset.parse_csv_s": time_s["dataset.parse_csv"],
            "dataset.rows_parsed": c["dataset.rows_parsed"],
            "dataset.load_s": time_s["dataset.load"],
            "preprocess.build_features_s": time_s["preprocess.build_features"],
            "kernels.cholesky_calls": calls["kernels.cholesky"],
            "kernels.cholesky_s": time_s["kernels.cholesky"],
            "kernels.cholesky_jittered": c["kernels.cholesky_jittered"],
            "kernels.gram_s": time_s["kernels.gram"],
            "gpr.fit_s": time_s["gpr.fit"],
            "gpr.epochs_run": c["gpr.epochs_run"],
            "gpr.epoch_ms": 1e3 * ratio(time_s["gpr.fit"], c["gpr.epochs_run"]),
            "gpr.inverse_s": time_s["gpr.inverse"],
            "gpr.workspace_mb": c["gpr.workspace_mb"],
            "gpr.load_s": time_s["gpr.load"],
            "gpr.predict_s": time_s["gpr.predict"],
            "neural.train_s": time_s["neural.train"],
            "neural.epoch_ms": 1e3 * ratio(time_s["neural.train"], c["neural.epochs_run"]),
            "optim.adam_step_calls": calls["optim.adam_step"],
            "optim.adam_step_s": time_s["optim.adam_step"],
            "trees.fit_tree_calls": calls["trees.fit_tree"],
            "trees.fit_tree_s": time_s["trees.fit_tree"],
            "trees.nodes_built": c["trees.nodes_built"],
            "trees.split_nodes": c["trees.split_nodes"],
            "trees.node_us": 1e6 * ratio(time_s["trees.fit_tree"], c["trees.nodes_built"]),
            "trees.trees_per_s": ratio(calls["trees.fit_tree"], time_s["trees.fit_tree"]),
            "trees.predict_tree_calls": calls["trees.predict_tree"],
            "trees.predict_tree_s": time_s["trees.predict_tree"],
            "trees.from_dict_s": time_s["trees.from_dict"],
            "inverse.fit_s": time_s["inverse.fit"],
            "inverse.evaluate_s": time_s["inverse.evaluate"],
            "inverse.to_dict_s": time_s["inverse.to_dict"],
            "inverse.trees_fitted": fitted_in_inverse,
            "inverse.trees_kept": c["inverse.trees_kept"],
            "inverse.kept_per_fitted": ratio(c["inverse.trees_kept"], fitted_in_inverse),
            "inverse.predict_s": time_s["inverse.predict"],
            "inverse.from_dict_s": time_s["inverse.from_dict"],
            "evaluation.compare_s": time_s["evaluation.compare"],
        }
        for family in FAMILIES:
            m[f"evaluation.family_fit_s.{family}"] = time_s[f"evaluation.family_fit.{family}"]
        m["cli.model_dump_s"] = time_s["cli.model_dump"]
        m["cli.model_parse_s"] = time_s["cli.model_parse"]
        m["cli.report_render_s"] = time_s["cli.report_render"]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_s[layer]
        m["trace.spans"] = len(self.spans)
        return {k: float(v) for k, v in m.items()}

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
