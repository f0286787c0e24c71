"""Dataset -> model-ready matrices: the feature-set grammar both directions
read samples through, one-hot environments, the training-data check every
model family applies, standard scaling, target capping and train/test splits.

All transformations are pure and deterministic in their (data, seed) inputs so
that a run can be reproduced bit-for-bit from its recorded metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import DEFAULT_ENVIRONMENTS, ELEMENT_ORDER, CorrosionSample, Dataset
from .errors import NoSamplesError, ValidationError
from .schema import array, parse

FEATURE_SETS = ("comp", "comp+env", "comp+env+temp", "comp+env+dur", "comp+env+temp+dur")

DEFAULT_LOG_EPSILON = 1e-6  # mpy shift so zero rates survive the log transform


@dataclass
class FeatureMatrix:
    values: np.ndarray  # (n_samples, n_features) float64; every sample field is finite
    sample_ids: list[str]


# A feature set joins its parts with "+", and its columns are its parts'
# columns in that order, so its name alone fixes its layout. A part gives a
# sample's values for its columns, or None where the sample lacks the field,
# which keeps the sample out. Forward sets read comp, env, temp and dur,
# inverse sets base, dur and temp; rate is the forward target.
INVERSE_BASE_ELEMENTS = ("Al", "Si", "Mg")
_PARTS = {
    "comp": lambda s: [s.composition.get(sym) for sym in ELEMENT_ORDER],
    "env": lambda s: [float(k == s.environment) for k in range(len(DEFAULT_ENVIRONMENTS))],
    "temp": lambda s: None if s.temperature is None else [s.temperature],
    "dur": lambda s: None if s.duration is None else [s.duration],
    "base": lambda s: ([s.rate, float(s.environment)]
                       + [s.composition.get(e) for e in INVERSE_BASE_ELEMENTS]),
    "rate": lambda s: [s.rate],
}
_WIDTHS = {"comp": len(ELEMENT_ORDER), "env": len(DEFAULT_ENVIRONMENTS), "temp": 1, "dur": 1,
           "base": 2 + len(INVERSE_BASE_ELEMENTS), "rate": 1}
# a forward part's (name, kind) per column, as a model file records them
_COLUMNS = {"comp": [(sym, "composition") for sym in ELEMENT_ORDER],
            "env": [(f"env={name}", "environment-indicator") for name in DEFAULT_ENVIRONMENTS],
            "temp": [("temp_c", "temperature")], "dur": [("duration_days", "duration")]}


def feature_width(feature_set: str) -> int:
    """The number of columns of `feature_set`'s rows."""
    return sum(_WIDTHS[part] for part in feature_set.split("+"))


def feature_rows(d: Dataset, feature_set: str) -> tuple[list[int], np.ndarray]:
    """(positions, matrix) of the samples that have a value in every column of
    `feature_set`: their positions in the dataset, in order, and their rows."""
    parts = [_PARTS[name] for name in feature_set.split("+")]
    positions, rows = [], []
    for i, s in enumerate(d.samples):
        values = [part(s) for part in parts]
        if None not in values:
            positions.append(i)
            rows.append([v for part in values for v in part])
    return positions, np.asarray(rows, dtype=float).reshape(-1, feature_width(feature_set))


def build_features(d: Dataset, feature_set: str) -> tuple[FeatureMatrix, np.ndarray]:
    """Assemble the feature matrix and target vector for one feature selector.

    Composition columns follow the fixed element order; environment columns are
    one indicator per environment label. Selecting temp/dur restricts to samples
    that carry the field. Targets are rates in mils/year.
    """
    if feature_set not in FEATURE_SETS:
        raise ValidationError(f"unknown feature set {feature_set!r}; choose from {FEATURE_SETS}")
    # the target rides along as the last column, so one pass reads both
    positions, values = feature_rows(d, feature_set + "+rate")
    if not positions:
        raise NoSamplesError(f"no samples carry the fields required by {feature_set!r}")
    return FeatureMatrix(values[:, :-1], [d.samples[i].id for i in positions]), values[:, -1]


def training_matrices(X, Y) -> tuple[np.ndarray, np.ndarray]:
    """(X, Y) as float arrays, checked as every model family's training data:
    X 2-D, one row of Y per row of X, Y not empty, every value finite."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2:
        raise ValidationError(f"feature matrix must be 2-D, got {X.ndim}-D")
    if Y.shape[:1] != X.shape[:1]:
        raise ValidationError(f"{X.shape[0]} rows but targets of shape {Y.shape}")
    if Y.size == 0:
        raise ValidationError("empty training data")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        raise ValidationError("non-finite training values")
    return X, Y


@dataclass
class ScalerState:
    """Per-column standardization statistics. Population (1/n) variance is used
    so an alternate implementation can match bit-for-bit; constant columns are
    flagged and passed through unscaled."""

    means: np.ndarray
    stds: np.ndarray
    constant: np.ndarray  # bool mask

    def to_dict(self) -> dict:
        return {"means": self.means.tolist(), "stds": self.stds.tolist(),
                "constant": self.constant.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "ScalerState":
        state = cls(**parse(d, SCALER))
        if not state.means.size == state.stds.size == state.constant.size:
            raise ValidationError("'means', 'stds' and 'constant' must be lists of one length")
        if not np.all(state.stds > 0):
            raise ValidationError("'stds' must be > 0")
        return state


SCALER = {"means": array(np.float64, 1), "stds": array(np.float64, 1), "constant": array(bool, 1)}


def fit_scaler(values: np.ndarray) -> ScalerState:
    values = np.asarray(values, dtype=float)
    if values.shape[0] < 2:
        raise ValidationError("scaler needs at least 2 rows")
    means = values.mean(axis=0)
    stds = values.std(axis=0)  # population (ddof=0)
    constant = stds == 0.0
    safe = np.where(constant, 1.0, stds)
    return ScalerState(means=np.where(constant, 0.0, means), stds=safe, constant=constant)


def apply_scaler(state: ScalerState, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return (values - state.means) / state.stds


def cap_target(samples: list[CorrosionSample], threshold: float = 100.0,
               mode: str = "drop") -> list[CorrosionSample]:
    """Remove (default) or clip samples whose rate exceeds the threshold.
    The boundary is inclusive: rate == threshold is retained unchanged."""
    if threshold <= 0:
        raise ValidationError("cap threshold must be > 0")
    if mode not in ("drop", "clip"):
        raise ValidationError(f"unknown cap mode {mode!r}")
    if mode == "drop":
        kept = [s for s in samples if s.rate <= threshold]
    else:
        kept = [s if s.rate <= threshold else
                CorrosionSample(id=s.id, composition=s.composition, environment=s.environment,
                                rate=threshold, temperature=s.temperature, duration=s.duration)
                for s in samples]
    if not kept:
        raise NoSamplesError(f"cap at {threshold} removed every sample")
    return kept


@dataclass
class SplitIndices:
    train: list[int]
    test: list[int]
    seed: int


def split_train_test(n: int, seed: int, test_fraction: float = 0.2) -> SplitIndices:
    """Randomized disjoint split with |test| = round(test_fraction * n)."""
    if n < 2:
        raise ValidationError("need at least 2 rows to split")
    if not 0.0 < test_fraction < 1.0:
        raise ValidationError("test_fraction must lie in (0, 1)")
    n_test = int(round(test_fraction * n))
    n_test = min(max(n_test, 1), n - 1)
    perm = np.random.default_rng(seed).permutation(n)
    return SplitIndices(train=sorted(perm[n_test:].tolist()),
                        test=sorted(perm[:n_test].tolist()),
                        seed=seed)


def run_metadata(feature_set: str, scaler: ScalerState | None, cap_mode: str,
                 cap_threshold: float, seed: int) -> dict:
    """Sidecar dict recording everything needed to reproduce a preprocessing
    run of forward feature set `feature_set`."""
    return {
        "feature_set": feature_set,
        "columns": [{"name": name, "kind": kind} for part in feature_set.split("+")
                    for name, kind in _COLUMNS[part]],
        "cap_mode": cap_mode,
        "cap_threshold": cap_threshold,
        "seed": seed,
        "scaler": scaler.to_dict() if scaler is not None else None,
    }
