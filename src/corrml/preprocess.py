"""Dataset -> model-ready matrices: feature assembly, one-hot environments,
standard scaling, target capping and train/test splits.

All transformations are pure and deterministic in their (data, seed) inputs so
that a run can be reproduced bit-for-bit from its recorded metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import ELEMENT_ORDER, CorrosionSample, Dataset
from .errors import ValidationError

FEATURE_SETS = ("comp", "comp+env", "comp+env+temp", "comp+env+dur", "comp+env+temp+dur")

DEFAULT_LOG_EPSILON = 1e-6  # mpy shift so zero rates survive the log transform


@dataclass
class FeatureColumn:
    name: str
    kind: str  # composition | environment-indicator | temperature | duration


@dataclass
class FeatureMatrix:
    values: np.ndarray  # (n_samples, n_features) float64
    columns: list[FeatureColumn]
    sample_ids: list[str]

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[1] != len(self.columns):
            raise ValidationError("feature matrix shape does not match column descriptors")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("feature matrix contains non-finite entries")

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]


def build_features(d: Dataset, feature_set: str) -> tuple[FeatureMatrix, np.ndarray]:
    """Assemble the feature matrix and target vector for one feature selector.

    Composition columns follow the fixed element order; environment columns are
    9 one-hot indicators. Selecting temp/dur restricts to samples that carry
    the field. Targets are rates in mils/year.
    """
    if feature_set not in FEATURE_SETS:
        raise ValidationError(f"unknown feature set {feature_set!r}; choose from {FEATURE_SETS}")
    want_env = "env" in feature_set
    want_temp = "temp" in feature_set
    want_dur = "dur" in feature_set

    rows = [s for s in d.samples
            if (not want_temp or s.temperature is not None)
            and (not want_dur or s.duration is not None)]
    if not rows:
        raise ValidationError(f"no samples carry the fields required by {feature_set!r}")

    columns = [FeatureColumn(sym, "composition") for sym in ELEMENT_ORDER]
    if want_env:
        columns += [FeatureColumn(f"env={name}", "environment-indicator")
                    for name in d.environment_names]
    if want_temp:
        columns.append(FeatureColumn("temp_c", "temperature"))
    if want_dur:
        columns.append(FeatureColumn("duration_days", "duration"))

    values = np.zeros((len(rows), len(columns)))
    y = np.zeros(len(rows))
    for i, s in enumerate(rows):
        for j, sym in enumerate(ELEMENT_ORDER):
            values[i, j] = s.composition.get(sym)
        k = len(ELEMENT_ORDER)
        if want_env:
            values[i, k + s.environment] = 1.0
            k += len(d.environment_names)
        if want_temp:
            values[i, k] = s.temperature
            k += 1
        if want_dur:
            values[i, k] = s.duration
        y[i] = s.rate

    fm = FeatureMatrix(values=values, columns=columns, sample_ids=[s.id for s in rows])
    return fm, y


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
        return cls(means=np.asarray(d["means"], dtype=float),
                   stds=np.asarray(d["stds"], dtype=float),
                   constant=np.asarray(d["constant"], dtype=bool))


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


def invert_scaler(state: ScalerState, values: np.ndarray) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    return values * state.stds + state.means


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
        raise ValidationError(f"cap at {threshold} removed every sample")
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


def log_transform(y: np.ndarray, epsilon: float = DEFAULT_LOG_EPSILON) -> np.ndarray:
    """z = ln(y + epsilon); epsilon keeps zero rates finite."""
    y = np.asarray(y, dtype=float)
    if np.any(y + epsilon <= 0):
        raise ValidationError("log transform requires y + epsilon > 0")
    return np.log(y + epsilon)


def inv_log_transform(z: np.ndarray, epsilon: float = DEFAULT_LOG_EPSILON) -> np.ndarray:
    return np.exp(np.asarray(z, dtype=float)) - epsilon


def run_metadata(feature_set: str, fm: FeatureMatrix, scaler: ScalerState | None,
                 cap_mode: str, cap_threshold: float, seed: int,
                 log_epsilon: float | None = None) -> dict:
    """Sidecar dict recording everything needed to reproduce a preprocessing run."""
    meta = {
        "feature_set": feature_set,
        "columns": [{"name": c.name, "kind": c.kind} for c in fm.columns],
        "cap_mode": cap_mode,
        "cap_threshold": cap_threshold,
        "seed": seed,
        "scaler": scaler.to_dict() if scaler is not None else None,
    }
    if log_epsilon is not None:
        meta["log_epsilon"] = log_epsilon
    return meta
